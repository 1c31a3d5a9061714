//! Figure 7: performance degradation of QA models augmented by
//! predicted-answer-based evidences, for δ ∈ {0.2, 0.5, 0.8, 1.0}
//! substitution of ground-truth answers, across all four datasets
//! (a: SQuAD-1.1, b: SQuAD-2.0, c: TriviaQA-Web, d: TriviaQA-Wiki) —
//! the `degradation` report of each.
//!
//! The paper's shape: curves decline gently with δ; SQuAD models lose
//! only ~2-3 % at δ = 1, TriviaQA models lose more because their
//! baseline predictions are worse.

use gced_bench::{finish, print_reports, start};
use gced_datasets::DatasetKind;

fn main() {
    let (scale, seed, t0) = start(
        "fig7_degradation",
        "EM/F1 degradation vs predicted-answer substitution rate (Fig. 7)",
    );
    print_reports("degradation", &DatasetKind::all(), scale, seed);
    println!(
        "\n(delta = 0 is the ground-truth point, delta = X the X-fraction of predicted \
         answers, matching Fig. 7's x-axis; paper: SQuAD loses only ~2-3% at delta = 1)"
    );
    finish(t0);
}
