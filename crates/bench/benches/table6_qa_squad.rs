//! Table VI: nine SQuAD baselines vs. their evidence-augmented (+GCED)
//! variants on SQuAD-1.1 and SQuAD-2.0. The evidences are distilled from
//! ground-truth answers; the +GCED models are retrained on evidence
//! contexts and evaluated on evidence contexts, per Sec. IV-D2.

use gced_bench::{finish, qa_augmentation_tables, start};
use gced_datasets::DatasetKind;

fn main() {
    let (scale, seed, t0) = start(
        "table6_qa_squad",
        "QA baselines vs +GCED on SQuAD (Table VI, ground-truth evidences)",
    );
    qa_augmentation_tables(
        [DatasetKind::Squad11, DatasetKind::Squad20],
        "EM +3.5-4.1%, F1 +1.5-4.2% relative",
        scale,
        seed,
    );
    finish(t0);
}
