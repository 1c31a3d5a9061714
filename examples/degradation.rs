//! Fig. 7-style degradation sweep (compact).
//!
//! Substitutes a growing fraction δ of ground-truth answers with a QA
//! model's predicted answers before evidence distillation and shows how
//! EM/F1 of the evidence-retrained model degrades — the paper's
//! observation is a graceful 2-3% drop on SQuAD even at δ = 1.
//!
//! ```sh
//! cargo run --release --example degradation
//! ```

use gced_datasets::DatasetKind;
use gced_eval::experiments::{self, ExperimentContext};
use gced_eval::Scale;
use gced_qa::zoo;

fn main() {
    let scale = Scale {
        train: 240,
        dev: 80,
        rated: 0,
    };
    println!("preparing context (this distills the ground-truth evidence caches) ...");
    let ctx = ExperimentContext::prepare(DatasetKind::Squad11, scale, 42);

    // Two contrasting models: the weakest and one of the strongest.
    let squad = zoo::squad_models();
    let models = [&squad[0], &squad[8]];
    let deltas = experiments::DEGRADATION_DELTAS;

    println!("\nrunning δ sweep (0 = ground-truth answers only) ...\n");
    println!(
        "{:<16} {}",
        "model",
        deltas.map(|d| format!("δ={d:<4}")).join("   ")
    );
    for entry in models {
        let pred = experiments::predicted_evidences(&ctx, entry);
        let row: Vec<String> = deltas
            .iter()
            .map(|&delta| {
                let (_, em, f1) = experiments::degradation_point(&ctx, entry, &pred, delta);
                format!("{em:.0}/{f1:.0}")
            })
            .collect();
        println!("{:<16} {}", entry.profile.name, row.join("   "));
    }
    println!("\n(cells are EM/F1; the paper's Fig. 7 shows the same gentle downward trend)");
}
