//! Shared helpers for the table/figure bench targets.
//!
//! Every `table*`/`fig7` bench in `benches/` is a `harness = false`
//! binary that renders one table or figure of the paper from the one
//! locked reproduction path, `gced_eval::shard`: it runs the experiment
//! behind the table at the `GCED_SCALE` scale through [`run_report`],
//! prints that report unchanged — the bytes `gced run <experiment>
//! --kind <kind> --scale <scale> --seed <seed>` writes, pinned by
//! `tests/behaviour_lock.rs` — and then the paper's reference numbers
//! the report does not already carry.
//!
//! **Fit-cache reuse across a table sweep**: when `GCED_FIT_CACHE`
//! names a directory, [`run_report`] and [`fitted`] keep one artifact
//! per fit fingerprint (`kind` × scale × seed) in it — the first runner
//! to need a fit publishes the artifact, every later runner of the same
//! fingerprint maps it. A full `GCED_FIT_CACHE=dir cargo bench -p
//! gced-bench` therefore fits each substrate set **once** instead of
//! once per report, with bit-identical output either way (`gced::cache`
//! round-trips exactly).

pub mod gate;

use gced_datasets::DatasetKind;
use gced_eval::shard::{fit_fingerprint, load_or_fit, run_sharded_in_process_cached};
use gced_eval::tables::{score, TextTable};
use gced_eval::{MergedRun, Scale};
use std::path::PathBuf;
use std::time::Instant;

/// Standard bench banner + scale resolution.
pub fn start(name: &str, what: &str) -> (Scale, u64, Instant) {
    let scale = Scale::from_env();
    let seed = Scale::seed_from_env();
    println!("================================================================");
    println!("{name}: {what}");
    println!(
        "scale: train={} dev={} rated={} (GCED_SCALE={}), seed={seed}",
        scale.train,
        scale.dev,
        scale.rated,
        std::env::var("GCED_SCALE").unwrap_or_else(|_| "default".into()),
    );
    println!("================================================================");
    (scale, seed, Instant::now())
}

/// Standard bench footer.
pub fn finish(t0: Instant) {
    println!("\nelapsed: {:.1}s", t0.elapsed().as_secs_f64());
}

/// The fit-cache directory from `GCED_FIT_CACHE`, created on first use.
/// `None` (unset or empty) means every runner fits fresh, as before.
pub fn fit_cache_dir() -> Option<PathBuf> {
    let dir = std::env::var("GCED_FIT_CACHE").ok()?;
    if dir.is_empty() {
        return None;
    }
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("GCED_FIT_CACHE: cannot create {}: {e}", dir.display()));
    Some(dir)
}

/// Artifact path of one fingerprint inside the shared cache directory.
fn artifact_path(dir: &std::path::Path, kind: DatasetKind, scale: Scale, seed: u64) -> PathBuf {
    // `:` is not portable in file names; the fingerprint itself is
    // still embedded (and verified) inside the artifact.
    dir.join(format!(
        "{}.bin",
        fit_fingerprint(kind, scale, seed).replace(':', "-")
    ))
}

/// The `GCED_FIT_CACHE` artifact path of one fingerprint, if the env
/// var is set.
fn cached_artifact(kind: DatasetKind, scale: Scale, seed: u64) -> Option<PathBuf> {
    fit_cache_dir().map(|dir| artifact_path(&dir, kind, scale, seed))
}

/// A fitted pipeline, through the shared `GCED_FIT_CACHE` artifact when
/// the env var is set (fit once per fingerprint per sweep), fitting
/// fresh otherwise. Output distills bit-identically either way.
pub fn fitted(kind: DatasetKind, scale: Scale, seed: u64) -> gced::Gced {
    let cache = cached_artifact(kind, scale, seed);
    match load_or_fit(kind, scale, seed, cache.as_deref()) {
        Ok(fitted) => {
            if let Some(path) = &cache {
                eprintln!(
                    "bench: fit cache {} ({} bytes)",
                    path.display(),
                    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
                );
            }
            fitted
        }
        Err(e) => panic!("GCED_FIT_CACHE: {e}"),
    }
}

/// One `gced run` experiment as a single shard, through the shared
/// `GCED_FIT_CACHE` artifact when set. Its `render()` is byte-equal to
/// what `gced run <experiment> --kind <kind>` writes at the same scale
/// and seed (N-shard == 1-shard is pinned).
pub fn run_report(experiment: &str, kind: DatasetKind, scale: Scale, seed: u64) -> MergedRun {
    let cache = cached_artifact(kind, scale, seed);
    run_sharded_in_process_cached(experiment, kind, scale, seed, 1, cache.as_deref())
        .unwrap_or_else(|e| panic!("{experiment} on {}: {e}", kind.name()))
}

/// Print a report under a `--- <kind> ---` rule, unchanged.
fn print_report(run: &MergedRun) {
    println!("\n--- {} ---", run.kind.name());
    print!("{}", run.render());
}

/// Tables IV and V: the `human_eval` report of each dataset variant,
/// then the paper's hybrid score per row (`paper_h`, one column per
/// variant) and the dev-wide ground-truth word reduction from the
/// `reduction` report against the paper's figure (`paper_reduction`).
pub fn human_eval_tables(
    kinds: [DatasetKind; 2],
    paper_h: &[(f64, f64)],
    paper_reduction: &str,
    scale: Scale,
    seed: u64,
) {
    for (v, kind) in kinds.into_iter().enumerate() {
        let run = run_report("human_eval", kind, scale, seed);
        print_report(&run);
        assert_eq!(run.rows.len(), paper_h.len(), "one paper H per row");
        print_paper_table(
            &["Source", "paper H"],
            run.rows
                .iter()
                .zip(paper_h)
                .map(|(row, h)| vec![row.cells[0].clone(), score(if v == 0 { h.0 } else { h.1 })]),
        );
        let reduction = run_report("reduction", kind, scale, seed);
        let values: Vec<f64> = reduction
            .metrics
            .iter()
            .filter(|m| m.name == "word_reduction")
            .map(|m| m.value)
            .collect();
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        println!(
            "mean gt word reduction over the {} dev split: {:.1}% (paper: {paper_reduction})",
            kind.name(),
            mean * 100.0
        );
    }
}

/// Tables VI and VII: the `qa_augmentation` report of each dataset
/// variant (its cells already carry the paper's base and +GCED EM/F1),
/// then the paper's headline mean gain (`paper_gain`) to read against
/// the report's `f1_gain` metric.
pub fn qa_augmentation_tables(kinds: [DatasetKind; 2], paper_gain: &str, scale: Scale, seed: u64) {
    for kind in kinds {
        print_report(&run_report("qa_augmentation", kind, scale, seed));
        println!("paper mean gain: {paper_gain}");
    }
}

/// Print the `experiment` report of every kind in `kinds`.
pub fn print_reports(experiment: &str, kinds: &[DatasetKind], scale: Scale, seed: u64) {
    for &kind in kinds {
        print_report(&run_report(experiment, kind, scale, seed));
    }
}

/// Paper reference rows, aligned like the report they follow.
pub fn print_paper_table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    let mut table = TextTable::new(header);
    for row in rows {
        table.row(row);
    }
    println!("\npaper reference:\n{}", table.render());
}
