//! Table II: inter-rater agreement (Krippendorff's α) per group and
//! criterion, over a pooled mixed-quality evidence set on SQuAD-1.1 —
//! the `agreement` report plus the paper's α. Also prints the Table I
//! rubric the raters apply.

use gced_bench::{finish, print_paper_table, print_reports, start};
use gced_datasets::DatasetKind;
use gced_eval::tables::score;

/// Paper Table II α per group, in the report's column order (I, C, R,
/// Hybrid).
const PAPER_ALPHA: [[f64; 4]; 3] = [
    [0.77, 0.83, 0.82, 0.81],
    [0.81, 0.80, 0.77, 0.79],
    [0.76, 0.75, 0.81, 0.78],
];

fn main() {
    let (scale, seed, t0) = start("table2_agreement", "Krippendorff's alpha per rater group");
    println!("\n{}", gced_eval::rubric::render_table1());
    print_reports("agreement", &[DatasetKind::Squad11], scale, seed);
    print_paper_table(
        &["Group", "alpha I", "alpha C", "alpha R", "alpha Hybrid"],
        PAPER_ALPHA.iter().enumerate().map(|(g, alphas)| {
            let mut cells = vec![format!("Group {}", g + 1)];
            cells.extend(alphas.iter().map(|&a| score(a)));
            cells
        }),
    );
    finish(t0);
}
