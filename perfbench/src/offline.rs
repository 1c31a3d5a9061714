//! The `offline_long` workload: closed-loop `Gced::distill_batch` over
//! TriviaQA-web examples rewritten into long run-on sentences.

use crate::inputs::{self, Request};
use crate::layers::{Paired, Stages};
use crate::stats::unit;
use gced::{DistillError, Distillation, Gced};
use gced_datasets::DatasetKind;
use gced_obs::SpanNode;
use gced_serve::wire;
use std::time::Instant;

/// Distinct examples generated (the timed loop cycles through them).
pub const EXAMPLES: usize = 4096;

/// Examples per `distill_batch` call: four per worker on the 2-core
/// machine this was tuned on, small enough that a 20 s run makes the
/// 1000 calls a p99 with ten samples beyond it needs.
pub const BATCH: usize = 8;

/// Batch results re-checked against sequential `Gced::distill`.
const CHECKED: usize = 64;

/// Inputs distilled one at a time for the reconciliation.
const RECONCILE_SAMPLE: usize = 64;

pub struct Setup {
    pub gced: Gced,
    pub requests: Vec<Request>,
}

/// Generate the inputs and fit.
pub fn setup(seed: u64) -> Setup {
    let requests = inputs::long_requests(EXAMPLES, seed);
    let gced = Gced::fit(
        &inputs::fit_dataset(DatasetKind::TriviaWeb),
        gced::GcedConfig::default(),
    );
    Setup { gced, requests }
}

pub fn items(requests: &[Request]) -> Vec<(&str, &str, &str)> {
    requests
        .iter()
        .map(|r| (r.question.as_str(), r.answer.as_str(), r.context.as_str()))
        .collect()
}

/// The batches of one timed run, cycling through the inputs.
pub fn batch_at(k: usize, n: usize) -> std::ops::Range<usize> {
    let start = (k * BATCH) % n;
    start..(start + BATCH).min(n)
}

pub struct Timed {
    /// Wall time of each `distill_batch` call, ns.
    pub call_ns: Vec<u64>,
    pub examples: usize,
    pub wall_s: f64,
    pub errors: usize,
    /// The first result seen for each input.
    pub first: Vec<Option<Result<Distillation, DistillError>>>,
    /// Traced runs: per-stage self times of every distillation.
    pub stages: Stages,
    /// Traced runs: summed distill time of the items (worker busy time).
    pub busy_ns: u64,
    /// Traced runs: the first batches as span trees (for the trace file).
    pub spans: Vec<SpanNode>,
}

/// Batches kept as span trees in the trace file.
const TRACE_BATCHES: usize = 64;

impl Timed {
    fn new(n: usize) -> Timed {
        Timed {
            call_ns: Vec::new(),
            examples: 0,
            wall_s: 0.0,
            errors: 0,
            first: vec![None; n],
            stages: Stages::default(),
            busy_ns: 0,
            spans: Vec::new(),
        }
    }
}

/// Call `distill_batch` back to back for `seconds`. With `trace`, every
/// other batch runs through `distill_batch_traced` with tracing on and
/// is accounted apart, so drift over the run (caches warming, clock
/// changes) cannot pass for tracing overhead. Returns the untraced
/// batches and, with `trace`, the traced ones.
pub fn run(s: &Setup, seconds: f64, trace: bool) -> (Timed, Option<Timed>) {
    let n = s.requests.len();
    let mut halves = [Timed::new(n), Timed::new(n)];
    let t0 = Instant::now();
    let mut k = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let traced = trace && k % 2 == 1;
        let t = &mut halves[usize::from(traced)];
        let range = batch_at(k, n);
        let batch = items(&s.requests[range.clone()]);
        gced_obs::set_enabled(traced);
        let start_ticks = gced_obs::clock::ticks_ns();
        let started = Instant::now();
        let out: Vec<_> = if traced {
            s.gced.distill_batch_traced(&batch)
        } else {
            s.gced
                .distill_batch(&batch)
                .into_iter()
                .map(|r| (r, None))
                .collect()
        };
        let wall = started.elapsed().as_nanos() as u64;
        gced_obs::set_enabled(false);
        t.call_ns.push(wall);
        t.examples += out.len();
        let mut root = SpanNode::synthetic("bench.distill_batch", start_ticks, wall);
        for (i, (r, tree)) in range.zip(out) {
            t.errors += usize::from(r.is_err());
            if let Some(tree) = tree {
                t.busy_ns += tree.dur_ns;
                t.stages.add(&tree);
                t.stages.add_result(&r);
                if t.spans.len() < TRACE_BATCHES {
                    root.children.push(tree);
                }
            }
            if t.first[i].is_none() {
                t.first[i] = Some(r);
            }
        }
        if traced && t.spans.len() < TRACE_BATCHES {
            t.spans.push(root);
        }
        k += 1;
    }
    let [mut untraced, mut traced] = halves;
    for t in [&mut untraced, &mut traced] {
        t.wall_s = t.call_ns.iter().sum::<u64>() as f64 / 1e9;
    }
    (untraced, trace.then_some(traced))
}

/// The reconciliation's two measures (see [`crate::layers::paired`]) of
/// a seeded sample of inputs, each distilled alone.
pub fn reconcile_sample(s: &Setup, seed: u64) -> Paired {
    let mut state = seed ^ 0x7265_636f_6e63;
    let batches: Vec<Vec<Request>> = (0..RECONCILE_SAMPLE)
        .map(|_| {
            let i = (unit(&mut state) * s.requests.len() as f64) as usize;
            vec![s.requests[i].clone()]
        })
        .collect();
    crate::layers::paired(&s.gced, &batches, |_| {}, &mut Vec::new())
}

fn rendered(r: &Result<Distillation, DistillError>) -> String {
    match r {
        Ok(d) => wire::render_distillation(d),
        Err(e) => wire::render_error(&wire::distill_error_message(e)),
    }
}

/// Fill inputs the timed loop never reached, then compare a seeded
/// sample of batch results with sequential `Gced::distill`. Returns the
/// number of mismatches and the per-input distillations.
pub fn check(
    s: &Setup,
    timed: Timed,
    seed: u64,
) -> (usize, Vec<Result<Distillation, DistillError>>) {
    let missing: Vec<usize> = (0..s.requests.len())
        .filter(|&i| timed.first[i].is_none())
        .collect();
    let mut all = timed.first;
    if !missing.is_empty() {
        let reqs: Vec<Request> = missing.iter().map(|&i| s.requests[i].clone()).collect();
        for (i, r) in missing.iter().zip(s.gced.distill_batch(&items(&reqs))) {
            all[*i] = Some(r);
        }
    }
    let all: Vec<_> = all
        .into_iter()
        .map(|r| r.expect("every input distilled"))
        .collect();
    let mut state = seed ^ 0x0063_6865_636b;
    let mut wrong = 0;
    for _ in 0..CHECKED {
        let i = (unit(&mut state) * all.len() as f64) as usize;
        let r = &s.requests[i];
        let sequential = s.gced.distill(&r.question, &r.answer, &r.context);
        wrong += usize::from(rendered(&sequential) != rendered(&all[i]));
    }
    (wrong, all)
}
