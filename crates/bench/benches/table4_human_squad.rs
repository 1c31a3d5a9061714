//! Table IV: human evaluation of predicted-answer-based and
//! ground-truth-answer-based evidences on SQuAD-1.1 and SQuAD-2.0
//! (I/C/R/H per baseline model + the ground-truth row), plus the
//! Sec. IV-D1 word-reduction statistic (paper: 78.5 % on SQuAD).

use gced_bench::{finish, human_eval_tables, start};
use gced_datasets::DatasetKind;

/// Paper Table IV hybrid scores (SQuAD-1.1, SQuAD-2.0) per row.
const PAPER_H: [(f64, f64); 10] = [
    (0.84, 0.85),
    (0.86, 0.88),
    (0.87, 0.84),
    (0.86, 0.86),
    (0.88, 0.89),
    (0.88, 0.88),
    (0.85, 0.88),
    (0.87, 0.90),
    (0.86, 0.89),
    (0.89, 0.90), // ground truth
];

fn main() {
    let (scale, seed, t0) = start(
        "table4_human_squad",
        "human evaluation of distilled evidences on SQuAD (Table IV)",
    );
    human_eval_tables(
        [DatasetKind::Squad11, DatasetKind::Squad20],
        &PAPER_H,
        "78.5% on SQuAD",
        scale,
        seed,
    );
    finish(t0);
}
