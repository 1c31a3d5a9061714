//! Sharded experiment runs with deterministic merge.
//!
//! A dataset-level experiment is decomposed into independent *items*
//! (dataset kinds for the Table III statistics, dev examples for
//! distillation runs). One shard executes a contiguous item range
//! ([`ShardSpec::range`]) and serializes its table rows and per-item
//! metrics as a [`ShardOutput`] (plain JSON); [`merge`] validates that
//! a set of shard outputs covers the run exactly — same experiment,
//! seed, scale, header, shard count, every shard present once, item
//! indices disjoint and in-range — and reassembles them into a
//! [`MergedRun`] whose rendering is **bit-identical to the
//! single-process run** for any shard count and any completion order.
//!
//! Identity holds because (a) every item's cells/metrics are computed
//! by a deterministic function of the shared artifacts (seeded dataset
//! generation, seeded fit) that every shard reconstructs identically,
//! and (b) the merge orders rows by global item index, erasing
//! scheduling. The property tests in `tests/shard_properties.rs` pin
//! both halves down.

use crate::experiments::{self, ExperimentContext};
use crate::scale::Scale;
use crate::tables::{pct, score, TextTable};
use gced::{Gced, GcedConfig};
use gced_datasets::json::{self, Json};
use gced_datasets::{generate, DatasetKind, GeneratorConfig, Grid, ShardSpec};
use std::path::Path;

/// On-disk format version of [`ShardOutput`].
const FORMAT_VERSION: u32 = 1;

/// Errors from shard execution, decoding, or merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Unknown experiment name.
    UnknownExperiment(String),
    /// Invalid shard spec or arguments.
    Spec(String),
    /// Malformed shard output JSON.
    Format(String),
    /// Shard outputs that do not assemble into one run.
    Merge(String),
    /// Fit-cache artifact I/O or validation failure.
    Cache(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownExperiment(n) => {
                write!(
                    f,
                    "unknown experiment {n:?} (expected one of {EXPERIMENTS:?})"
                )
            }
            ShardError::Spec(m) => write!(f, "shard spec error: {m}"),
            ShardError::Format(m) => write!(f, "shard format error: {m}"),
            ShardError::Merge(m) => write!(f, "shard merge error: {m}"),
            ShardError::Cache(m) => write!(f, "fit cache error: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One table row produced by a shard, tagged with its global item index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Global item index in `0..n_items`.
    pub item: usize,
    /// Rendered cells (one per header column).
    pub cells: Vec<String>,
}

/// One per-item metric sample produced by a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetric {
    /// Global item index in `0..n_items`.
    pub item: usize,
    /// Metric name (e.g. `word_reduction`).
    pub name: String,
    /// Finite sample value.
    pub value: f64,
}

/// The serializable result of one shard of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutput {
    /// Experiment name (see [`EXPERIMENTS`]).
    pub experiment: String,
    /// Dataset kind the experiment ran on.
    pub kind: DatasetKind,
    /// The run's base seed (shared by every shard).
    pub seed: u64,
    /// Scale fingerprint (`train…-dev…-rated…`).
    pub scale_tag: String,
    /// Which shard this is.
    pub shard: ShardSpec,
    /// Total number of items in the full run.
    pub n_items: usize,
    /// Table header (identical across shards).
    pub header: Vec<String>,
    /// Rows for this shard's items, in item order.
    pub rows: Vec<ShardRow>,
    /// Metric samples for this shard's items, in item order.
    pub metrics: Vec<ShardMetric>,
}

/// Scale fingerprint recorded in shard outputs and validated at merge.
pub fn scale_tag(scale: Scale) -> String {
    format!("train{}-dev{}-rated{}", scale.train, scale.dev, scale.rated)
}

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

/// Shardable experiments, by name:
///
/// * `table3` — dataset statistics (Table III); items are the four
///   dataset kinds, `kind` is ignored.
/// * `reduction` — ground-truth evidence distillation over the dev
///   split of `kind` (the Sec. IV-D1 word-reduction statistic); items
///   are dev examples, and each shard prepares only its slice of the
///   dev [`ExperimentContext`] cache via
///   [`ExperimentContext::prepare_fitted`].
/// * `human_eval` — Tables IV/V; items are the baseline models of the
///   kind's zoo plus a final ground-truth row.
/// * `agreement` — Table II; items are the three rater groups (each
///   row carries one group's per-criterion Krippendorff's α over the
///   pooled mixed-quality item set).
/// * `qa_augmentation` — Tables VI/VII; items are the zoo models, each
///   row the model's base vs +GCED EM/F1 with paper references and the
///   accuracy delta.
/// * `ablation` — Table VIII; items are the component-knockout
///   variants plus the full system.
/// * `degradation` — Fig. 7; items form a (model × δ) [`Grid`], each
///   cell one substitution-rate point of one model's curve.
pub const EXPERIMENTS: &[&str] = &[
    "table3",
    "reduction",
    "human_eval",
    "agreement",
    "qa_augmentation",
    "ablation",
    "degradation",
];

/// True when an experiment distills or predicts and therefore needs
/// the fitted pipeline (everything except the pure dataset statistics).
pub fn needs_fit(experiment: &str) -> bool {
    experiment != "table3"
}

/// Fingerprint of the fitted substrates a run depends on. Stored in
/// the fit-cache artifact and verified on load, so an artifact from a
/// different dataset kind, scale, or seed fails loudly.
pub fn fit_fingerprint(kind: DatasetKind, scale: Scale, seed: u64) -> String {
    format!(
        "gced-fit:v1:{}:{}:{}",
        kind.cli_flag(),
        scale_tag(scale),
        seed
    )
}

fn fit_fresh(kind: DatasetKind, scale: Scale, seed: u64) -> Gced {
    let dataset = generate(
        kind,
        GeneratorConfig {
            train: scale.train,
            dev: scale.dev,
            seed,
        },
    );
    Gced::fit(
        &dataset,
        GcedConfig {
            seed,
            ..GcedConfig::default()
        },
    )
}

/// Obtain the fitted pipeline of a run, through the shared fit cache
/// when a path is given: load the artifact if it exists (validating
/// its fingerprint), otherwise fit once and publish the artifact
/// atomically (write-to-temp + rename). Because the encoding is
/// byte-deterministic, concurrent shard workers racing on one path can
/// only ever replace the file with identical bytes — whoever wins, the
/// mapped artifact is the same fit.
pub fn load_or_fit(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    cache: Option<&Path>,
) -> Result<Gced, ShardError> {
    let Some(path) = cache else {
        return Ok(fit_fresh(kind, scale, seed));
    };
    let fingerprint = fit_fingerprint(kind, scale, seed);
    let config = GcedConfig {
        seed,
        ..GcedConfig::default()
    };
    match std::fs::read(path) {
        Ok(bytes) => gced::cache::decode(&bytes, &fingerprint, config)
            .map_err(|e| ShardError::Cache(format!("{}: {e}", path.display()))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let fitted = fit_fresh(kind, scale, seed);
            let bytes = gced::cache::encode(&fitted, &fingerprint);
            let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
            std::fs::write(&tmp, &bytes)
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| {
                    ShardError::Cache(format!("cannot publish {}: {e}", path.display()))
                })?;
            Ok(fitted)
        }
        Err(e) => Err(ShardError::Cache(format!(
            "cannot read {}: {e}",
            path.display()
        ))),
    }
}

/// Run one shard of a named experiment, fitting fresh in-process.
pub fn run_shard(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
) -> Result<ShardOutput, ShardError> {
    run_shard_cached(experiment, kind, scale, seed, shard, None)
}

/// [`run_shard`] through the shared fit cache: with `Some(path)`,
/// co-located shard workers fit the pipeline once and map the
/// serialized artifact instead of re-fitting identical state per
/// shard. Output is bit-identical either way.
pub fn run_shard_cached(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit_cache: Option<&Path>,
) -> Result<ShardOutput, ShardError> {
    if !EXPERIMENTS.contains(&experiment) {
        return Err(ShardError::UnknownExperiment(experiment.to_string()));
    }
    // Resolve the cache before running so an unusable artifact fails
    // loudly up front; without a cache path each runner fits lazily
    // (and only when its shard range is non-empty).
    let fit = match fit_cache {
        Some(path) if needs_fit(experiment) => Some(load_or_fit(kind, scale, seed, Some(path))?),
        _ => None,
    };
    run_shard_with_fit(experiment, kind, scale, seed, shard, fit)
}

/// The core dispatch: `fit` carries an already-fitted pipeline (from
/// the cache file or an in-process run's shared fit), or `None` to fit
/// fresh inside the runner.
fn run_shard_with_fit(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> Result<ShardOutput, ShardError> {
    match experiment {
        "table3" => Ok(run_table3_shard(scale, seed, shard)),
        "reduction" => Ok(run_reduction_shard(kind, scale, seed, shard, fit)),
        "human_eval" => Ok(run_human_eval_shard(kind, scale, seed, shard, fit)),
        "agreement" => Ok(run_agreement_shard(kind, scale, seed, shard, fit)),
        "qa_augmentation" => Ok(run_qa_augmentation_shard(kind, scale, seed, shard, fit)),
        "ablation" => Ok(run_ablation_shard(kind, scale, seed, shard, fit)),
        "degradation" => Ok(run_degradation_shard(kind, scale, seed, shard, fit)),
        other => Err(ShardError::UnknownExperiment(other.to_string())),
    }
}

fn run_table3_shard(scale: Scale, seed: u64, shard: ShardSpec) -> ShardOutput {
    let kinds = DatasetKind::all();
    let header = vec![
        "Dataset".to_string(),
        "Paper Train".to_string(),
        "Paper Dev".to_string(),
        "Gen Train".to_string(),
        "Gen Dev".to_string(),
        "Ctx words".to_string(),
        "Answerable".to_string(),
    ];
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for item in shard.range(kinds.len()) {
        let kind = kinds[item];
        let (pt, pd) = kind.paper_sizes();
        let ds = generate(
            kind,
            GeneratorConfig {
                train: scale.train,
                dev: scale.dev,
                seed,
            },
        );
        let answerable = ds
            .train
            .examples
            .iter()
            .chain(&ds.dev.examples)
            .filter(|e| e.answerable)
            .count() as f64
            / (ds.train.len() + ds.dev.len()) as f64;
        let ctx_words = ds.mean_context_words();
        rows.push(ShardRow {
            item,
            cells: vec![
                kind.name().to_string(),
                pt.to_string(),
                pd.to_string(),
                ds.train.len().to_string(),
                ds.dev.len().to_string(),
                format!("{ctx_words:.0}"),
                format!("{:.0}%", answerable * 100.0),
            ],
        });
        metrics.push(ShardMetric {
            item,
            name: "ctx_words".to_string(),
            value: ctx_words,
        });
        metrics.push(ShardMetric {
            item,
            name: "answerable".to_string(),
            value: answerable,
        });
    }
    ShardOutput {
        experiment: "table3".to_string(),
        kind: DatasetKind::Squad11,
        seed,
        scale_tag: scale_tag(scale),
        shard,
        n_items: kinds.len(),
        header,
        rows,
        metrics,
    }
}

fn run_reduction_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    // Dev-only: the train gt cache is never read here, so skip it.
    let ctx = ExperimentContext::prepare_fitted(kind, scale, seed, fit, None, Some(shard));
    let n_items = ctx.dataset.dev.len();
    let header = vec![
        "Example".to_string(),
        "Evidence tokens".to_string(),
        "Reduction".to_string(),
    ];
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    for item in shard.range(n_items) {
        let ex = &ctx.dataset.dev.examples[item];
        // Unanswerable / failed examples produce no row, so shards may
        // contribute fewer rows than items — the merge allows that.
        if let Some(d) = &ctx.gt_dev[item] {
            rows.push(ShardRow {
                item,
                cells: vec![
                    ex.id.clone(),
                    d.evidence_tokens.len().to_string(),
                    format!("{:.1}%", d.word_reduction * 100.0),
                ],
            });
            metrics.push(ShardMetric {
                item,
                name: "word_reduction".to_string(),
                value: d.word_reduction,
            });
        }
    }
    ShardOutput {
        experiment: "reduction".to_string(),
        kind,
        seed,
        scale_tag: scale_tag(scale),
        shard,
        n_items,
        header,
        rows,
        metrics,
    }
}

/// Assemble a [`ShardOutput`] (shared tail of the model-grid runners).
#[allow(clippy::too_many_arguments)]
fn shard_output(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    n_items: usize,
    header: &[&str],
    rows: Vec<ShardRow>,
    metrics: Vec<ShardMetric>,
) -> ShardOutput {
    ShardOutput {
        experiment: experiment.to_string(),
        kind,
        seed,
        scale_tag: scale_tag(scale),
        shard,
        n_items,
        header: header.iter().map(|h| h.to_string()).collect(),
        rows,
        metrics,
    }
}

/// Tables IV/V: items are the kind's zoo models plus a final
/// ground-truth row. Only the shard owning the ground-truth item pays
/// for the dev evidence cache.
fn run_human_eval_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    let zoo = experiments::zoo_for(kind);
    let n_items = zoo.len() + 1;
    let header = [
        "Source",
        "I",
        "C",
        "R",
        "Hybrid",
        "Rated",
        "Discarded",
        "Reduction",
    ];
    let range = shard.range(n_items);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    if !range.is_empty() {
        let owns_gt = range.contains(&zoo.len());
        let ctx = ExperimentContext::prepare_fitted(
            kind,
            scale,
            seed,
            fit,
            None,
            owns_gt.then(ShardSpec::single),
        );
        for item in range {
            let row = if item < zoo.len() {
                experiments::human_eval_model_row(&ctx, &zoo[item], scale)
            } else {
                experiments::human_eval_gt_row(&ctx, scale)
            };
            rows.push(ShardRow {
                item,
                cells: vec![
                    row.source.clone(),
                    score(row.outcome.informativeness),
                    score(row.outcome.conciseness),
                    score(row.outcome.readability),
                    score(row.outcome.hybrid),
                    row.outcome.rated.to_string(),
                    row.outcome.discarded.to_string(),
                    format!("{:.1}%", row.word_reduction * 100.0),
                ],
            });
            metrics.push(ShardMetric {
                item,
                name: "hybrid".to_string(),
                value: row.outcome.hybrid,
            });
            metrics.push(ShardMetric {
                item,
                name: "word_reduction".to_string(),
                value: row.word_reduction,
            });
        }
    }
    shard_output(
        "human_eval",
        kind,
        scale,
        seed,
        shard,
        n_items,
        &header,
        rows,
        metrics,
    )
}

/// Table II: items are the three rater groups; each row is one group's
/// per-criterion Krippendorff's α over the pooled mixed-quality item
/// set. Every shard reconstructs the (deterministic) pooled ratings and
/// emits only the cells of the groups it owns.
fn run_agreement_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    let n_items = crate::raters::RaterPanel::PAPER_GROUPS;
    let header = ["Group", "alpha I", "alpha C", "alpha R", "alpha Hybrid"];
    let range = shard.range(n_items);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    if !range.is_empty() {
        // The pooled sources read the dev gt cache in full.
        let ctx = ExperimentContext::prepare_fitted(
            kind,
            scale,
            seed,
            fit,
            None,
            Some(ShardSpec::single()),
        );
        let weak = &experiments::zoo_for(kind)[0];
        let outcome = experiments::agreement_study(&ctx, weak, scale);
        let metric_names = ["alpha_i", "alpha_c", "alpha_r", "alpha_hybrid"];
        for item in range {
            // Direct index: a panel whose group count drifts from
            // PAPER_GROUPS must fail loudly, not emit a short table.
            let alphas = outcome.alpha[item];
            let mut cells = vec![format!("Group {}", item + 1)];
            for (name, a) in metric_names.iter().zip(alphas) {
                match a {
                    Some(a) => {
                        cells.push(score(a));
                        metrics.push(ShardMetric {
                            item,
                            name: name.to_string(),
                            value: a,
                        });
                    }
                    None => cells.push("n/a".to_string()),
                }
            }
            rows.push(ShardRow { item, cells });
        }
    }
    shard_output(
        "agreement",
        kind,
        scale,
        seed,
        shard,
        n_items,
        &header,
        rows,
        metrics,
    )
}

/// Tables VI/VII: items are the kind's zoo models; each row the
/// model's measured base vs +GCED EM/F1, the published reference
/// numbers, and the F1 delta.
fn run_qa_augmentation_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    let zoo = experiments::zoo_for(kind);
    let n_items = zoo.len();
    let header = [
        "Model",
        "Base EM",
        "Base F1",
        "+GCED EM",
        "+GCED F1",
        "Paper base",
        "Paper +GCED",
        "dF1",
    ];
    let range = shard.range(n_items);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    if !range.is_empty() {
        // Evidence splits come from the full gt caches.
        let ctx = ExperimentContext::prepare_fitted(
            kind,
            scale,
            seed,
            fit,
            Some(ShardSpec::single()),
            Some(ShardSpec::single()),
        );
        let ev_train = ctx.evidence_train();
        let ev_dev = ctx.evidence_dev();
        for item in range {
            let row = experiments::qa_augmentation_row(&ctx, &zoo[item], &ev_train, &ev_dev);
            let f1_gain = row.gced.f1 - row.base.f1;
            rows.push(ShardRow {
                item,
                cells: vec![
                    row.model.clone(),
                    pct(row.base.em),
                    pct(row.base.f1),
                    pct(row.gced.em),
                    pct(row.gced.f1),
                    format!("{}/{}", pct(row.paper_base.0), pct(row.paper_base.1)),
                    format!("{}/{}", pct(row.paper_gced.0), pct(row.paper_gced.1)),
                    format!("{f1_gain:+.1}"),
                ],
            });
            metrics.push(ShardMetric {
                item,
                name: "base_f1".to_string(),
                value: row.base.f1,
            });
            metrics.push(ShardMetric {
                item,
                name: "gced_f1".to_string(),
                value: row.gced.f1,
            });
            metrics.push(ShardMetric {
                item,
                name: "f1_gain".to_string(),
                value: f1_gain,
            });
        }
    }
    shard_output(
        "qa_augmentation",
        kind,
        scale,
        seed,
        shard,
        n_items,
        &header,
        rows,
        metrics,
    )
}

/// Table VIII: items are the ablation variants (component knockouts
/// plus the full system, in [`experiments::ablation_variants`] order).
fn run_ablation_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    let variants = experiments::ablation_variants();
    let n_items = variants.len();
    let header = ["Sources", "I", "C", "R", "H", "EM", "F1"];
    let range = shard.range(n_items);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    if !range.is_empty() {
        // Each variant re-distills both splits itself; the gt caches
        // are never read.
        let ctx = ExperimentContext::prepare_fitted(kind, scale, seed, fit, None, None);
        let bert = &experiments::zoo_for(kind)[0];
        for item in range {
            let (label, ablation) = variants[item].clone();
            let row = experiments::ablation_row(&ctx, bert, scale, &label, ablation);
            rows.push(ShardRow {
                item,
                cells: vec![
                    row.label.clone(),
                    score(row.outcome.informativeness),
                    score(row.outcome.conciseness),
                    score(row.outcome.readability),
                    score(row.outcome.hybrid),
                    pct(row.em),
                    pct(row.f1),
                ],
            });
            metrics.push(ShardMetric {
                item,
                name: "hybrid".to_string(),
                value: row.outcome.hybrid,
            });
            metrics.push(ShardMetric {
                item,
                name: "f1".to_string(),
                value: row.f1,
            });
        }
    }
    shard_output(
        "ablation", kind, scale, seed, shard, n_items, &header, rows, metrics,
    )
}

/// Fig. 7: items form a (model × δ) [`Grid`]. A shard builds the
/// expensive per-model artifacts (trained baseline, predicted-answer
/// evidences) once per grid row it touches, then evaluates only its
/// own cells.
fn run_degradation_shard(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit: Option<Gced>,
) -> ShardOutput {
    let zoo = experiments::zoo_for(kind);
    let deltas = experiments::DEGRADATION_DELTAS;
    let grid = Grid::new(zoo.len(), deltas.len());
    let n_items = grid.len();
    let header = ["Model", "delta", "EM", "F1"];
    let range = shard.range(n_items);
    let mut rows = Vec::new();
    let mut metrics = Vec::new();
    if !range.is_empty() {
        // Mixing substitutes into the full gt evidence caches.
        let ctx = ExperimentContext::prepare_fitted(
            kind,
            scale,
            seed,
            fit,
            Some(ShardSpec::single()),
            Some(ShardSpec::single()),
        );
        for model_idx in grid.rows_of(&range) {
            let entry = &zoo[model_idx];
            let pred = experiments::predicted_evidences(&ctx, entry);
            for (col, &delta) in deltas.iter().enumerate() {
                let item = grid.item(model_idx, col);
                if !range.contains(&item) {
                    continue;
                }
                let (delta, em, f1) = experiments::degradation_point(&ctx, entry, &pred, delta);
                rows.push(ShardRow {
                    item,
                    cells: vec![
                        entry.profile.name.clone(),
                        format!("{delta:.1}"),
                        pct(em),
                        pct(f1),
                    ],
                });
                metrics.push(ShardMetric {
                    item,
                    name: "em".to_string(),
                    value: em,
                });
                metrics.push(ShardMetric {
                    item,
                    name: "f1".to_string(),
                    value: f1,
                });
            }
        }
    }
    shard_output(
        "degradation",
        kind,
        scale,
        seed,
        shard,
        n_items,
        &header,
        rows,
        metrics,
    )
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

impl ShardOutput {
    /// Serialize as plain JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"format\":");
        out.push_str(&FORMAT_VERSION.to_string());
        out.push_str(",\"experiment\":");
        json::push_string(&mut out, &self.experiment);
        out.push_str(",\"kind\":");
        json::push_string(&mut out, self.kind.name());
        // The seed travels as a string: it is a full-range u64, and the
        // JSON number path would round it through f64 above 2^53.
        out.push_str(",\"seed\":");
        json::push_string(&mut out, &self.seed.to_string());
        out.push_str(",\"scale\":");
        json::push_string(&mut out, &self.scale_tag);
        out.push_str(",\"shard_index\":");
        out.push_str(&self.shard.index.to_string());
        out.push_str(",\"shard_of\":");
        out.push_str(&self.shard.of.to_string());
        out.push_str(",\"n_items\":");
        out.push_str(&self.n_items.to_string());
        out.push_str(",\"header\":[");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"item\":");
            out.push_str(&row.item.to_string());
            out.push_str(",\"cells\":[");
            for (j, c) in row.cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, c);
            }
            out.push_str("]}");
        }
        out.push_str("],\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"item\":");
            out.push_str(&m.item.to_string());
            out.push_str(",\"name\":");
            json::push_string(&mut out, &m.name);
            out.push_str(",\"value\":");
            json::push_f64(&mut out, m.value);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a [`ShardOutput::to_json`] document.
    pub fn from_json(text: &str) -> Result<Self, ShardError> {
        let root = json::parse(text).map_err(|e| ShardError::Format(e.to_string()))?;
        let num = |key: &str| -> Result<f64, ShardError> {
            root.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ShardError::Format(format!("missing numeric field {key:?}")))
        };
        let string = |key: &str| -> Result<String, ShardError> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ShardError::Format(format!("missing string field {key:?}")))
        };
        let format = num("format")? as u32;
        if format != FORMAT_VERSION {
            return Err(ShardError::Format(format!(
                "unsupported shard format {format} (expected {FORMAT_VERSION})"
            )));
        }
        let kind_name = string("kind")?;
        let kind = DatasetKind::from_name(&kind_name)
            .ok_or_else(|| ShardError::Format(format!("unknown dataset kind {kind_name:?}")))?;
        let shard = ShardSpec::new(num("shard_index")? as usize, num("shard_of")? as usize)
            .map_err(ShardError::Spec)?;
        let header = root
            .get("header")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing header".to_string()))?
            .iter()
            .map(|h| {
                h.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ShardError::Format("non-string header cell".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rows = root
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing rows".to_string()))?
            .iter()
            .map(|r| {
                let item = r
                    .get("item")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("row missing item".to_string()))?
                    as usize;
                let cells = r
                    .get("cells")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ShardError::Format("row missing cells".to_string()))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ShardError::Format("non-string cell".to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ShardRow { item, cells })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let metrics = root
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing metrics".to_string()))?
            .iter()
            .map(|m| {
                let item = m
                    .get("item")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("metric missing item".to_string()))?
                    as usize;
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ShardError::Format("metric missing name".to_string()))?
                    .to_string();
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("non-finite metric value".to_string()))?;
                Ok(ShardMetric { item, name, value })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let seed = string("seed")?
            .parse::<u64>()
            .map_err(|_| ShardError::Format("seed is not a u64".to_string()))?;
        Ok(ShardOutput {
            experiment: string("experiment")?,
            kind,
            seed,
            scale_tag: string("scale")?,
            shard,
            n_items: num("n_items")? as usize,
            header,
            rows,
            metrics,
        })
    }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// A complete run reassembled from shard outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    pub experiment: String,
    pub kind: DatasetKind,
    pub seed: u64,
    pub scale_tag: String,
    pub n_items: usize,
    pub header: Vec<String>,
    /// Rows in global item order.
    pub rows: Vec<ShardRow>,
    /// Metric samples in global item order.
    pub metrics: Vec<ShardMetric>,
}

/// Merge shard outputs into one run. Accepts the shards in **any
/// order** and validates that they form exactly one run: consistent
/// identity fields, every shard index present exactly once, and row /
/// metric items inside their shard's range with no duplicates.
pub fn merge(outputs: &[ShardOutput]) -> Result<MergedRun, ShardError> {
    let first = outputs
        .first()
        .ok_or_else(|| ShardError::Merge("no shard outputs to merge".to_string()))?;
    let of = first.shard.of;
    if outputs.len() != of {
        return Err(ShardError::Merge(format!(
            "expected {of} shard output(s), got {}",
            outputs.len()
        )));
    }
    let mut ordered: Vec<&ShardOutput> = Vec::with_capacity(of);
    for index in 0..of {
        let matches: Vec<&ShardOutput> =
            outputs.iter().filter(|o| o.shard.index == index).collect();
        match matches.as_slice() {
            [one] => ordered.push(one),
            [] => return Err(ShardError::Merge(format!("missing shard {index}/{of}"))),
            _ => return Err(ShardError::Merge(format!("duplicate shard {index}/{of}"))),
        }
    }
    for o in &ordered {
        let mismatch = |field: &str| {
            ShardError::Merge(format!(
                "{} disagrees on {field} (expected the {} of shard 0)",
                o.shard, first.experiment
            ))
        };
        if o.shard.of != of {
            return Err(ShardError::Merge(format!(
                "{} belongs to a {}-way split, not {of}",
                o.shard, o.shard.of
            )));
        }
        if o.experiment != first.experiment {
            return Err(mismatch("experiment"));
        }
        if o.kind != first.kind {
            return Err(mismatch("dataset kind"));
        }
        if o.seed != first.seed {
            return Err(mismatch("seed"));
        }
        if o.scale_tag != first.scale_tag {
            return Err(mismatch("scale"));
        }
        if o.n_items != first.n_items {
            return Err(mismatch("n_items"));
        }
        if o.header != first.header {
            return Err(mismatch("header"));
        }
        if o.header.is_empty() {
            return Err(ShardError::Merge("empty table header".to_string()));
        }
        let range = o.shard.range(o.n_items);
        for row in &o.rows {
            if !range.contains(&row.item) {
                return Err(ShardError::Merge(format!(
                    "{} produced row for item {} outside its range {range:?}",
                    o.shard, row.item
                )));
            }
            // Arity is validated here so a truncated/hand-edited shard
            // file errors instead of tripping TextTable's assert later.
            if row.cells.len() != o.header.len() {
                return Err(ShardError::Merge(format!(
                    "{} row for item {} has {} cell(s), header has {}",
                    o.shard,
                    row.item,
                    row.cells.len(),
                    o.header.len()
                )));
            }
        }
        for m in &o.metrics {
            if !range.contains(&m.item) {
                return Err(ShardError::Merge(format!(
                    "{} produced metric for item {} outside its range {range:?}",
                    o.shard, m.item
                )));
            }
        }
    }
    // Shard ranges are disjoint and `ordered` is in shard order, so
    // concatenation sorted by item is globally ordered; a stable sort
    // keeps multiple metrics of one item in production order.
    let mut rows: Vec<ShardRow> = ordered.iter().flat_map(|o| o.rows.clone()).collect();
    rows.sort_by_key(|r| r.item);
    let mut last = None;
    for r in &rows {
        if last == Some(r.item) {
            return Err(ShardError::Merge(format!(
                "duplicate row for item {}",
                r.item
            )));
        }
        last = Some(r.item);
    }
    let mut metrics: Vec<ShardMetric> = ordered.iter().flat_map(|o| o.metrics.clone()).collect();
    metrics.sort_by_key(|m| m.item);
    // A repeated (item, name) sample would silently skew the rendered
    // means — reject it like duplicate rows.
    let mut seen: std::collections::HashSet<(usize, &str)> = std::collections::HashSet::new();
    for m in &metrics {
        if !seen.insert((m.item, m.name.as_str())) {
            return Err(ShardError::Merge(format!(
                "duplicate metric {:?} for item {}",
                m.name, m.item
            )));
        }
    }
    Ok(MergedRun {
        experiment: first.experiment.clone(),
        kind: first.kind,
        seed: first.seed,
        scale_tag: first.scale_tag.clone(),
        n_items: first.n_items,
        header: first.header.clone(),
        rows,
        metrics,
    })
}

impl MergedRun {
    /// Render the canonical run report: header line, aligned table, TSV
    /// block, and per-metric summaries. The text depends only on merged
    /// content, never on shard count or completion order — the CI
    /// shard-parity step byte-compares this across shardings.
    pub fn render(&self) -> String {
        let mut out = format!(
            "experiment={} kind={} seed={} scale={} items={} rows={}\n",
            self.experiment,
            self.kind.name(),
            self.seed,
            self.scale_tag,
            self.n_items,
            self.rows.len()
        );
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&header);
        for row in &self.rows {
            table.row(row.cells.clone());
        }
        out.push('\n');
        out.push_str(&table.render());
        out.push_str("\nTSV:\n");
        out.push_str(&table.render_tsv());
        // Metric summaries: names in order of first appearance; means
        // accumulate in global item order, so the floating-point sum is
        // reproduced exactly.
        let mut names: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !names.contains(&m.name.as_str()) {
                names.push(&m.name);
            }
        }
        for name in names {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|m| m.name == name)
                .map(|m| m.value)
                .collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            out.push_str(&format!(
                "metric {name}: mean={mean:.6} n={}\n",
                values.len()
            ));
        }
        out
    }
}

/// Run every shard of an experiment in this process (fanning shards out
/// over the persistent `gced-par` pool) and merge — the in-process
/// alternative to spawning `gced shard` worker processes. The pipeline
/// is fitted **once** and shared by every shard (through the cache
/// artifact at `fit_cache` when given, purely in memory otherwise).
pub fn run_sharded_in_process(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shards: usize,
) -> Result<MergedRun, ShardError> {
    run_sharded_in_process_cached(experiment, kind, scale, seed, shards, None)
}

/// [`run_sharded_in_process`] with an optional fit-cache path.
pub fn run_sharded_in_process_cached(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shards: usize,
    fit_cache: Option<&Path>,
) -> Result<MergedRun, ShardError> {
    if !EXPERIMENTS.contains(&experiment) {
        return Err(ShardError::UnknownExperiment(experiment.to_string()));
    }
    let fit = if needs_fit(experiment) {
        Some(load_or_fit(kind, scale, seed, fit_cache)?)
    } else {
        None
    };
    let specs = ShardSpec::all(shards);
    let outputs: Vec<Result<ShardOutput, ShardError>> = gced_par::par_map(&specs, |_, spec| {
        run_shard_with_fit(experiment, kind, scale, seed, *spec, fit.clone())
    });
    let outputs = outputs.into_iter().collect::<Result<Vec<_>, _>>()?;
    merge(&outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_output(shard: ShardSpec) -> ShardOutput {
        let mut rows = Vec::new();
        let mut metrics = Vec::new();
        for item in shard.range(10) {
            rows.push(ShardRow {
                item,
                cells: vec![format!("id-{item}"), (item * 3).to_string()],
            });
            metrics.push(ShardMetric {
                item,
                name: "m".to_string(),
                value: item as f64 / 7.0,
            });
        }
        ShardOutput {
            experiment: "synthetic".to_string(),
            kind: DatasetKind::Squad11,
            seed: 42,
            scale_tag: "train1-dev1-rated1".to_string(),
            shard,
            n_items: 10,
            header: vec!["Id".to_string(), "Value".to_string()],
            rows,
            metrics,
        }
    }

    #[test]
    fn to_json_byte_order_is_pinned() {
        // DET001 audit regression: shard documents are hand-emitted in a
        // fixed key order, so the exact bytes — not just the parsed
        // content — are stable. Merge tooling and artifact diffs rely on
        // this.
        let out = ShardOutput {
            experiment: "synthetic".to_string(),
            kind: DatasetKind::Squad11,
            seed: 42,
            scale_tag: "train1-dev1-rated1".to_string(),
            shard: ShardSpec::new(0, 2).unwrap(),
            n_items: 4,
            header: vec!["Id".to_string(), "Value".to_string()],
            rows: vec![ShardRow {
                item: 0,
                cells: vec!["id-0".to_string(), "0".to_string()],
            }],
            metrics: vec![ShardMetric {
                item: 0,
                name: "m".to_string(),
                value: 0.5,
            }],
        };
        let text = out.to_json();
        assert_eq!(text, out.to_json(), "to_json must be byte-stable");
        assert_eq!(
            text,
            concat!(
                "{\"format\":1,\"experiment\":\"synthetic\",\"kind\":\"SQuAD-1.1\",",
                "\"seed\":\"42\",\"scale\":\"train1-dev1-rated1\",\"shard_index\":0,",
                "\"shard_of\":2,\"n_items\":4,\"header\":[\"Id\",\"Value\"],",
                "\"rows\":[{\"item\":0,\"cells\":[\"id-0\",\"0\"]}],",
                "\"metrics\":[{\"item\":0,\"name\":\"m\",\"value\":0.5}]}",
            )
        );
    }

    #[test]
    fn json_roundtrip_preserves_output() {
        let out = tiny_output(ShardSpec::new(1, 3).unwrap());
        let back = ShardOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(out, back);
    }

    #[test]
    fn json_roundtrip_preserves_full_range_seeds() {
        // Seeds above 2^53 must survive the wire format exactly (they
        // would round if routed through the JSON number path).
        let mut out = tiny_output(ShardSpec::single());
        out.seed = u64::MAX - 1;
        let back = ShardOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX - 1);
    }

    #[test]
    fn merge_is_order_invariant() {
        let mut outputs: Vec<ShardOutput> =
            ShardSpec::all(4).into_iter().map(tiny_output).collect();
        let merged = merge(&outputs).unwrap();
        outputs.reverse();
        let reversed = merge(&outputs).unwrap();
        assert_eq!(merged, reversed);
        assert_eq!(merged.render(), reversed.render());
        assert_eq!(merged.rows.len(), 10);
        // Also identical to the single-shard run.
        let single = merge(&[tiny_output(ShardSpec::single())]).unwrap();
        assert_eq!(single.render(), merged.render());
    }

    #[test]
    fn merge_rejects_incomplete_and_inconsistent_sets() {
        let outputs: Vec<ShardOutput> = ShardSpec::all(3).into_iter().map(tiny_output).collect();
        assert!(matches!(
            merge(&outputs[..2]).unwrap_err(),
            ShardError::Merge(_)
        ));
        let dup = vec![outputs[0].clone(), outputs[0].clone(), outputs[2].clone()];
        assert!(merge(&dup).is_err());
        let mut wrong_seed = outputs.clone();
        wrong_seed[1].seed = 7;
        assert!(merge(&wrong_seed).is_err());
        let mut out_of_range = outputs.clone();
        out_of_range[0].rows.push(ShardRow {
            item: 9,
            cells: vec!["x".to_string(), "y".to_string()],
        });
        assert!(merge(&out_of_range).is_err());
        let mut dup_metric = outputs.clone();
        let m = dup_metric[0].metrics[0].clone();
        dup_metric[0].metrics.push(m);
        let err = merge(&dup_metric).unwrap_err();
        assert!(err.to_string().contains("duplicate metric"), "{err}");
        let mut bad_arity = outputs.clone();
        bad_arity[1].rows[0].cells.pop();
        let err = merge(&bad_arity).unwrap_err();
        assert!(err.to_string().contains("cell(s)"), "{err}");
        let mut empty_header = outputs.clone();
        for o in &mut empty_header {
            o.header.clear();
            o.rows.clear();
        }
        assert!(merge(&empty_header).is_err());
        assert!(merge(&[]).is_err());
    }

    #[test]
    fn table3_sharded_matches_single_run() {
        let scale = Scale::smoke();
        let outputs: Vec<ShardOutput> = ShardSpec::all(3)
            .into_iter()
            .map(|s| run_shard("table3", DatasetKind::Squad11, scale, 42, s).unwrap())
            .collect();
        let merged = merge(&outputs).unwrap();
        let single = merge(&[run_shard(
            "table3",
            DatasetKind::Squad11,
            scale,
            42,
            ShardSpec::single(),
        )
        .unwrap()])
        .unwrap();
        assert_eq!(merged.render(), single.render());
        assert_eq!(merged.rows.len(), 4);
    }

    #[test]
    fn unknown_experiment_errors() {
        let err = run_shard(
            "tableX",
            DatasetKind::Squad11,
            Scale::smoke(),
            42,
            ShardSpec::single(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }
}
