//! Table VIII: component ablation (BERT + ground-truth evidences on
//! SQuAD-2.0) — the `ablation` report: human-evaluation I/C/R/H plus
//! EM/F1 for each knocked-out component vs. the full system, then the
//! paper's rows.
//!
//! Extended design-choice ablations beyond the paper's table (DESIGN.md
//! §4), produced only here: grow-order (max-attention vs index-order),
//! clip protection (forest-protected vs unrestricted), the clip-count M
//! sweep, and the Eq. 5 weight sweep that justifies the default
//! (α, β, γ).

use gced::{ClipMode, GcedConfig};
use gced_bench::{finish, fitted, print_paper_table, print_reports, start};
use gced_datasets::DatasetKind;
use gced_eval::experiments::{ablation_variants, rated_pool, ExperimentContext};
use gced_eval::raters::RatedItem;
use gced_eval::tables::{pct, score, TextTable};
use gced_eval::RatingProtocol;

/// Paper Table VIII rows (I, C, R, H, EM, F1), ending with the full
/// system, in the report's row order.
const PAPER: [(f64, f64, f64, f64, f64, f64); 8] = [
    (0.85, 0.65, 0.80, 0.77, 72.0, 78.2), // w/o ASE
    (0.67, 0.79, 0.77, 0.74, 70.2, 76.5), // w/o QWS
    (0.82, 0.80, 0.67, 0.76, 75.2, 80.6), // w/o Grow
    (0.81, 0.70, 0.81, 0.77, 80.5, 86.3), // w/o Clip
    (0.73, 0.78, 0.80, 0.77, 80.2, 87.0), // w/o I
    (0.80, 0.72, 0.76, 0.76, 79.3, 86.9), // w/o C
    (0.81, 0.83, 0.75, 0.80, 82.1, 88.4), // w/o R
    (0.86, 0.83, 0.82, 0.84, 85.0, 90.9), // BERT+GCED (full)
];

fn main() {
    let (scale, seed, t0) = start(
        "table8_ablation",
        "GCED component ablation (Table VIII, BERT on SQuAD-2.0)",
    );
    let kind = DatasetKind::Squad20;
    print_reports("ablation", &[kind], scale, seed);
    print_paper_table(
        &["Sources", "I", "C", "R", "H", "EM", "F1"],
        ablation_variants()
            .into_iter()
            .zip(PAPER)
            .map(|((label, _), (i, c, r, h, em, f1))| {
                vec![
                    label,
                    score(i),
                    score(c),
                    score(r),
                    score(h),
                    pct(em),
                    pct(f1),
                ]
            }),
    );

    // ---- extended design ablations -------------------------------------
    println!("\n--- design-choice ablations (beyond the paper's table) ---");
    // Every variant distills the rated pool itself: no gt cache needed.
    let ctx = ExperimentContext::prepare_fitted(
        kind,
        scale,
        seed,
        Some(fitted(kind, scale, seed)),
        None,
        None,
    );
    let protocol = RatingProtocol::paper(seed);
    let sample = rated_pool(&ctx, scale);
    let base = GcedConfig {
        seed,
        ..GcedConfig::default()
    };
    let mut variants: Vec<(String, GcedConfig)> = vec![
        ("max-attention grow (default)".into(), base.clone()),
        (
            "index-order grow".into(),
            GcedConfig {
                grow_max_attention: false,
                ..base.clone()
            },
        ),
        (
            "unprotected clip".into(),
            GcedConfig {
                clip_protect_forest: false,
                ..base.clone()
            },
        ),
    ];
    for m in [0, 1, 2, 4, 8] {
        let label = if m == 0 {
            "M=0 (no clip)".to_string()
        } else {
            format!("M={m}")
        };
        let clip = ClipMode::Fixed(m);
        variants.push((
            label,
            GcedConfig {
                clip,
                ..base.clone()
            },
        ));
    }
    for (label, (alpha, beta, gamma)) in [
        ("weights a=.8 b=.1 g=.1", (0.8, 0.1, 0.1)),
        ("weights a=.2 b=.2 g=.6", (0.2, 0.2, 0.6)),
        (
            "weights a=.33 b=.33 g=.33",
            (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        ),
    ] {
        let cfg = GcedConfig {
            alpha,
            beta,
            gamma,
            ..base.clone()
        };
        variants.push((label.to_string(), cfg));
    }

    let mut design = TextTable::new(&["Variant", "I", "C", "R", "H", "mean tokens"]);
    for (label, cfg) in variants {
        let pipeline = ctx.gced.clone().with_config(cfg);
        let mut items = Vec::new();
        let mut tokens = Vec::new();
        for &(_, ex) in &sample {
            if let Ok(d) = pipeline.distill(&ex.question, &ex.answer, &ex.context) {
                items.push(RatedItem::from_distillation(
                    format!("{label}-{}", ex.id),
                    &d,
                    &ex.answer,
                ));
                tokens.push(d.evidence_tokens.len() as f64);
            }
        }
        let out = protocol.run(&items);
        let mean_tokens = tokens.iter().sum::<f64>() / tokens.len().max(1) as f64;
        design.row(vec![
            label,
            score(out.informativeness),
            score(out.conciseness),
            score(out.readability),
            score(out.hybrid),
            format!("{mean_tokens:.1}"),
        ]);
    }
    println!("{}", design.render());
    println!("TSV:\n{}", design.render_tsv());
    finish(t0);
}
