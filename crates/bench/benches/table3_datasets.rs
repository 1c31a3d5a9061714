//! Table III: dataset statistics — the `table3` report: the paper's
//! split sizes, the scaled sizes this run generates, and measured corpus
//! properties (context length, answerable rate) that drive the other
//! experiments.

use gced_bench::{finish, print_reports, start};
use gced_datasets::DatasetKind;

fn main() {
    let (scale, seed, t0) = start("table3_datasets", "dataset statistics (Table III)");
    // Table III covers every dataset kind; the report ignores `kind`.
    print_reports("table3", &[DatasetKind::Squad11], scale, seed);
    finish(t0);
}
