//! Table V: human evaluation of distilled evidences on TriviaQA-Web and
//! TriviaQA-Wiki (I/C/R/H per baseline + ground truth), plus the larger
//! word-reduction the paper reports for TriviaQA (87.2 %).

use gced_bench::{finish, human_eval_tables, start};
use gced_datasets::DatasetKind;

/// Paper Table V hybrid scores (TriviaQA-Web, TriviaQA-Wiki) per row.
const PAPER_H: [(f64, f64); 10] = [
    (0.81, 0.82),
    (0.80, 0.78),
    (0.83, 0.80),
    (0.79, 0.77),
    (0.78, 0.79),
    (0.84, 0.81),
    (0.80, 0.82),
    (0.82, 0.80),
    (0.83, 0.81),
    (0.85, 0.83), // ground truth
];

fn main() {
    let (scale, seed, t0) = start(
        "table5_human_trivia",
        "human evaluation of distilled evidences on TriviaQA (Table V)",
    );
    human_eval_tables(
        [DatasetKind::TriviaWeb, DatasetKind::TriviaWiki],
        &PAPER_H,
        "87.2% on TriviaQA",
        scale,
        seed,
    );
    finish(t0);
}
