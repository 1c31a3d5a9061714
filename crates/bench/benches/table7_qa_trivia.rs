//! Table VII: nine TriviaQA baselines vs. their +GCED variants on
//! TriviaQA-Web and TriviaQA-Wiki. The paper's key shape here: gains are
//! several times larger than on SQuAD (avg relative EM/F1 gains of
//! +18.2/+14.6 % on Web, +19.3/+15.0 % on Wiki) because TriviaQA
//! contexts are long and noisy.

use gced_bench::{finish, qa_augmentation_tables, start};
use gced_datasets::DatasetKind;

fn main() {
    let (scale, seed, t0) = start(
        "table7_qa_trivia",
        "QA baselines vs +GCED on TriviaQA (Table VII, ground-truth evidences)",
    );
    qa_augmentation_tables(
        [DatasetKind::TriviaWeb, DatasetKind::TriviaWiki],
        "EM +18.2%, F1 +14.6% relative on Web; EM +19.3%, F1 +15.0% on Wiki — far larger \
         than SQuAD",
        scale,
        seed,
    );
    finish(t0);
}
