//! Per-layer numbers of the traced run, read from outside the program:
//! the `gced-obs` span trees that `distill_batch_traced` returns,
//! timing around public calls
//! (`TrigramLm::perplexity`, `ResponseStore::get`/`insert`), and
//! `/metrics`. The benchmark adds no span or counter inside the program.

use crate::inputs::Request;
use gced::{DistillError, Distillation, Gced};
use gced_obs::SpanNode;
use gced_store::{ResponseStore, StoreConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The per-layer time metrics and the spans whose self time each sums.
/// The reconciliation adds these up, so a stage whose span is named in
/// none of them shows as a gap.
const TIMED: [(&str, &[&str]); 8] = [
    ("text.analyze_ns", &["analyze"]),
    ("parser.parse_ns", &["parse"]),
    ("nn.attention_ns", &["wsptc"]),
    ("qa.predict_ns", &["qa.predict"]),
    ("core.grow_self_ns", &["grow", "grow.round", "grow.trial"]),
    ("core.clip_self_ns", &["clip", "clip.iter"]),
    ("core.oec_grow_ns", &["oec.grow"]),
    // The `distill` root's own time: QWS, EFC and finishing.
    ("core.untraced_ns", &["distill"]),
];

/// Self time and calls per span name, summed over many distill trees.
#[derive(Default)]
pub struct Stages {
    pub trees: usize,
    pub fallbacks: usize,
    self_ns: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Stages {
    pub fn add(&mut self, tree: &SpanNode) {
        self.trees += 1;
        for row in gced_obs::stage_rows(&[(0, tree.clone())]) {
            *self.self_ns.entry(row.name).or_default() += row.self_ns;
            *self.calls.entry(row.name).or_default() += row.calls;
        }
        for name in [
            "trials",
            "trials_pruned",
            "candidates",
            "candidates_pruned",
            "span_cache_hits",
            "span_cache_misses",
            "parse_cache_hits",
            "parse_cache_misses",
        ] {
            *self.counters.entry(name).or_default() += tree.counter_total(name);
        }
    }

    pub fn add_result(&mut self, r: &Result<Distillation, DistillError>) {
        self.fallbacks += usize::from(r.as_ref().is_ok_and(|d| d.trace.fallback));
    }

    fn per_tree(&self, total: u64) -> f64 {
        total as f64 / self.trees.max(1) as f64
    }

    /// Mean self time per distill of the named spans, ns.
    pub fn self_of(&self, names: &[&str]) -> f64 {
        self.per_tree(
            names
                .iter()
                .map(|n| self.self_ns.get(n).copied().unwrap_or(0))
                .sum(),
        )
    }

    /// Mean calls per distill of the named span.
    pub fn calls_of(&self, name: &str) -> f64 {
        self.per_tree(self.calls.get(name).copied().unwrap_or(0))
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn rate(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// The per-layer time metrics, mean ns per distill: the parts the
    /// reconciliation adds up.
    pub fn parts(&self) -> Vec<f64> {
        TIMED.iter().map(|(_, spans)| self.self_of(spans)).collect()
    }

    /// The pipeline-layer metrics.
    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let mut put = |name: &str, value: f64, unit: &'static str| {
            out.push((name.to_string(), value, unit));
        };
        let c = |name| self.counter(name);
        for (name, spans) in TIMED {
            put(name, self.self_of(spans), "ns");
        }
        put("text.analyze_calls", self.calls_of("analyze"), "count");
        put("parser.sentences", self.calls_of("parse"), "count");
        put(
            "parser.parse_cache_hit_rate",
            Self::rate(
                c("parse_cache_hits"),
                c("parse_cache_hits") + c("parse_cache_misses"),
            ),
            "ratio",
        );
        put("qa.predict_calls", self.calls_of("qa.predict"), "count");
        put(
            "core.grow_prune_rate",
            Self::rate(c("trials_pruned"), c("trials") + c("trials_pruned")),
            "ratio",
        );
        put(
            "core.clip_candidates",
            self.per_tree(c("candidates")),
            "count",
        );
        put(
            "core.clip_prune_rate",
            Self::rate(c("candidates_pruned"), c("candidates")),
            "ratio",
        );
        put(
            "core.span_cache_hit_rate",
            Self::rate(
                c("span_cache_hits"),
                c("span_cache_hits") + c("span_cache_misses"),
            ),
            "ratio",
        );
        put(
            "core.fallback_rate",
            Self::rate(self.fallbacks as u64, self.trees as u64),
            "ratio",
        );
    }
}

/// The same batches measured twice: untraced from outside, and traced.
#[derive(Default)]
pub struct Paired {
    /// Mean untraced time per item, ns.
    pub untraced_ns: f64,
    /// Stages of the traced runs.
    pub stages: Stages,
    /// Summed distill time of the traced items (worker busy time), ns.
    pub busy_ns: u64,
    /// Summed wall time of the traced batches, ns.
    pub traced_wall_ns: u64,
    pub batches: usize,
}

/// Distill each batch twice: through `distill_batch` with tracing off,
/// timed from outside, and through `distill_batch_traced` with tracing
/// on. Which goes first alternates, so neither always meets the caches
/// the other warmed. `before(k)` runs before batch `k` (a replay paces
/// there). The first traced trees go to `trace`, up to 256. These are
/// the two independent sides of the reconciliation: the per-layer time
/// metrics of `stages`, and `untraced_ns`.
pub fn paired(
    gced: &Gced,
    batches: &[Vec<Request>],
    mut before: impl FnMut(usize),
    trace: &mut Vec<SpanNode>,
) -> Paired {
    let mut out = Paired::default();
    let (mut untraced_ns, mut items) = (0u128, 0usize);
    for (k, batch) in batches.iter().enumerate() {
        before(k);
        let batch = crate::offline::items(batch);
        for traced in [k % 2 == 0, k % 2 == 1] {
            gced_obs::set_enabled(traced);
            let t = Instant::now();
            if traced {
                let results = gced.distill_batch_traced(&batch);
                out.traced_wall_ns += t.elapsed().as_nanos() as u64;
                for (result, tree) in results {
                    let tree = tree.expect("tracing is on");
                    out.busy_ns += tree.dur_ns;
                    out.stages.add(&tree);
                    out.stages.add_result(&result);
                    if trace.len() < 256 {
                        trace.push(tree);
                    }
                }
            } else {
                std::hint::black_box(gced.distill_batch(&batch));
                untraced_ns += t.elapsed().as_nanos();
                items += batch.len();
            }
        }
        gced_obs::set_enabled(false);
        out.batches += 1;
    }
    out.untraced_ns = untraced_ns as f64 / items.max(1) as f64;
    out
}

/// Mean time of `TrigramLm::perplexity` over the evidences' tokens, ns.
pub fn lm_perplexity_ns(gced: &Gced, results: &[&Distillation]) -> f64 {
    let t = Instant::now();
    let mut sink = 0.0;
    for d in results {
        sink += gced.lm().perplexity(&d.evidence_tokens);
    }
    std::hint::black_box(sink);
    t.elapsed().as_nanos() as f64 / results.len().max(1) as f64
}

/// Replay a request stream through a store sized like the server's:
/// fingerprint + probe every request, insert the body on a miss.
/// Returns (mean probe ns, mean insert ns, hit rate, evictions).
pub fn store_replay(
    requests: &[Request],
    stream: &[usize],
    body_of: impl Fn(usize) -> String,
) -> (f64, f64, f64, f64) {
    let defaults = gced_serve::ServeConfig::default();
    let store = ResponseStore::new(StoreConfig {
        entries: defaults.cache_entries,
        bytes: defaults.cache_bytes,
        ttl_ops: defaults.cache_ttl_ops,
        shards: defaults.cache_shards,
    });
    let (mut probe_ns, mut insert_ns, mut inserts, mut hits, mut evictions) =
        (0u128, 0u128, 0u64, 0u64, 0u64);
    for &i in stream {
        let (r, body) = (&requests[i], body_of(i));
        let t = Instant::now();
        let fp = gced_store::request_fingerprint(&r.question, &r.answer, &r.context);
        let hit = store.get(fp);
        probe_ns += t.elapsed().as_nanos();
        if hit.is_some() {
            hits += 1;
            continue;
        }
        let t = Instant::now();
        let out = store.insert(fp, &body);
        insert_ns += t.elapsed().as_nanos();
        inserts += 1;
        evictions += out.evicted;
    }
    let n = stream.len().max(1) as f64;
    (
        probe_ns as f64 / n,
        insert_ns as f64 / inserts.max(1) as f64,
        hits as f64 / n,
        evictions as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(children: &[(&'static str, u64)]) -> SpanNode {
        let mut root = SpanNode::synthetic("distill", 0, 1000);
        let mut at = 0;
        for &(name, dur) in children {
            root.children.push(SpanNode::synthetic(name, at, dur));
            at += dur;
        }
        root
    }

    #[test]
    fn parts_cover_every_pipeline_stage() {
        let mut stages = Stages::default();
        stages.add(&tree(&[
            ("parse", 300),
            ("wsptc", 200),
            ("qa.predict", 100),
        ]));
        let parts = stages.parts();
        assert_eq!(parts.iter().sum::<f64>(), 1000.0);
        assert_eq!(crate::stats::reconcile(&parts, 1000.0), 0.0);
    }

    #[test]
    fn a_stage_no_metric_names_shows_as_a_gap() {
        let mut stages = Stages::default();
        stages.add(&tree(&[("parse", 300), ("unnamed.stage", 400)]));
        let parts = stages.parts();
        assert_eq!(parts.iter().sum::<f64>(), 600.0);
        assert!((crate::stats::reconcile(&parts, 1000.0) - 0.4).abs() < 1e-12);
    }
}
