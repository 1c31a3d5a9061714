//! The repository benchmark. One command runs one workload from one
//! seed, checks every output, prints every metric by name with its
//! unit, and ends with one JSON line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_unique --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` splits the run into an untraced and a traced half and
//! reports the per-layer metrics, reconciled against an independent
//! timing of the same work. See `perfbench/README.md`.

mod inputs;
mod layers;
mod offline;
mod serve;
mod stats;

use gced_obs::SpanNode;
use serve::{Scrape, Seen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// `end_to_end` of `BENCHMARK.json`: the metrics of `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("word_reduction_mean", "ratio"),
    ("hybrid_mean", "score"),
];

/// `per_layer` of `BENCHMARK.json`: the metrics of `--trace 1`. Those
/// of a layer a workload does not use read 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("text.analyze_ns", "ns"),
    ("text.analyze_calls", "count"),
    ("parser.parse_ns", "ns"),
    ("parser.sentences", "count"),
    ("parser.parse_cache_hit_rate", "ratio"),
    ("nn.attention_ns", "ns"),
    ("qa.predict_ns", "ns"),
    ("qa.predict_calls", "count"),
    ("lm.perplexity_ns", "ns"),
    ("core.grow_self_ns", "ns"),
    ("core.grow_prune_rate", "ratio"),
    ("core.clip_self_ns", "ns"),
    ("core.clip_candidates", "count"),
    ("core.clip_prune_rate", "ratio"),
    ("core.span_cache_hit_rate", "ratio"),
    ("core.oec_grow_ns", "ns"),
    ("core.untraced_ns", "ns"),
    ("core.fallback_rate", "ratio"),
    ("par.busy_share", "ratio"),
    ("par.batch_wall_ns", "ns"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.outside_p50_ms", "ms"),
    ("serve.outside_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.keepalive_reuse_rate", "ratio"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.goodput_rps", "1/s"),
    ("store.hit_rate", "ratio"),
    ("store.probe_ns", "ns"),
    ("store.insert_ns", "ns"),
    ("store.evictions", "count"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.reconcile_error", "ratio"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.error_rate", "ratio"),
    ("bench.send_lag_p99_ms", "ms"),
    ("bench.backlog_end", "count"),
];

/// Set-ups per run, before and after the timed phase; `setup_s` is the
/// median of all of them. The machine's speed drifts over seconds, so
/// set-ups at both ends of the run sample it the way the timed phase
/// does.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;

/// Largest relative gap allowed between the sum of the per-layer time
/// metrics and the independently timed whole they decompose.
const RECONCILE_TOLERANCE: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    correct: bool,
    trace: Vec<SpanNode>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload offline_long|serve_unique \
             --seed N --seconds S [--trace 0|1]"
        );
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One distillation worker per core, whatever the caller's
    // environment says; set before the worker pool first starts.
    std::env::set_var("GCED_THREADS", nproc.to_string());
    let run = match args.workload.as_str() {
        "offline_long" => |a: &Args, _| run_offline(a),
        "serve_unique" => run_serve,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let report = run(&args, nproc);
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, args.seed
        );
        let threads: Vec<(u64, SpanNode)> = report.trace.into_iter().map(|n| (1, n)).collect();
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, gced_obs::chrome_trace(&threads)));
        match written {
            Ok(()) => println!("chrome trace: {path}"),
            Err(e) => println!("chrome trace not written ({path}): {e}"),
        }
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct, report.attempted, report.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match report.metrics.iter().find(|m| m.0 == *name) {
            Some((_, value, measured)) => {
                assert_eq!(measured, unit, "unit of {name}");
                *value
            }
            None if args.trace => 0.0,
            None => panic!("metric {name} was not measured"),
        };
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!(
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    println!("{out}");
}

/// Run `setup` `n` times, adding each time to `times`, and return the
/// last result. `retire` releases each earlier set-up before the next
/// one starts, so only one is ever alive.
fn setups<T>(
    n: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> T,
    mut retire: impl FnMut(T),
) -> T {
    let mut kept = None;
    for _ in 0..n {
        if let Some(old) = kept.take() {
            retire(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    kept.expect("at least one set-up")
}

/// Report `setup_s`, the median of the set-up `times`.
fn put_setup(r: &mut Report, times: &[f64]) {
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    println!("set-up times (s): {}", shown.join(" "));
    r.put("setup_s", stats::median(times), "s");
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Median and p99 of `values`, printing the sample count and the
/// highest percentile the sample supports.
fn latency_pair(r: &mut Report, what: &str, values_ns: Vec<f64>) -> (f64, f64) {
    let v = sorted(values_ns);
    let tail = stats::tail_percentile(v.len(), 99.0).unwrap_or(0.0);
    println!(
        "{what}: {} samples; the highest percentile with ten samples beyond it is p{tail}",
        v.len()
    );
    r.put(&format!("{what}.samples"), v.len() as f64, "count");
    (
        ms(stats::percentile(&v, 50.0)),
        ms(stats::percentile(&v, 99.0)),
    )
}

/// The paper's Sec. IV quality of the evidences produced. The hybrid
/// score is -inf for evidences too short for the language model, so its
/// mean is over the finite scores and the rest are counted apart.
fn quality(r: &mut Report, distilled: &[&gced::Distillation]) {
    let wr: Vec<f64> = distilled.iter().map(|d| d.word_reduction).collect();
    let hy: Vec<f64> = distilled
        .iter()
        .map(|d| d.scores.hybrid)
        .filter(|h| h.is_finite())
        .collect();
    r.put("word_reduction_mean", mean(&wr), "ratio");
    r.put("hybrid_mean", mean(&hy), "score");
    r.put(
        "hybrid_nonfinite_share",
        1.0 - hy.len() as f64 / distilled.len().max(1) as f64,
        "ratio",
    );
}

fn run_offline(a: &Args) -> Report {
    let mut r = Report::default();
    let mut setup_times = Vec::new();
    let setup = || offline::setup(a.seed);
    let s = setups(SETUPS_BEFORE, &mut setup_times, setup, drop);
    let workers = gced_par::effective_parallelism();
    let (timed, traced) = offline::run(&s, a.seconds, a.trace);
    let throughput = timed.examples as f64 / timed.wall_s;
    r.put("throughput_eps", throughput, "1/s");
    let calls: Vec<f64> = timed.call_ns.iter().map(|&n| n as f64).collect();
    let (p50, p99) = latency_pair(&mut r, "distill_batch_call", calls);
    r.put("latency_p50_ms", p50, "ms");
    r.put("bench.latency_p99_ms", p99, "ms");
    let mut errors = timed.errors;
    r.attempted = timed.examples;
    let stream_len = timed.examples;
    let peak_rss = peak_rss_mb();
    let (wrong, all) = offline::check(&s, timed, a.seed);
    let distilled: Vec<&gced::Distillation> = all.iter().filter_map(|x| x.as_ref().ok()).collect();
    quality(&mut r, &distilled);
    let mut correct = true;
    if let Some(t) = traced {
        errors += t.errors;
        r.attempted += t.examples;
        t.stages.metrics(&mut r.metrics);
        r.put(
            "lm.perplexity_ns",
            layers::lm_perplexity_ns(&s.gced, &distilled),
            "ns",
        );
        let capacity_ns = workers as f64 * t.wall_s * 1e9;
        r.put("par.busy_share", t.busy_ns as f64 / capacity_ns, "ratio");
        r.put(
            "par.batch_wall_ns",
            t.wall_s * 1e9 / t.call_ns.len() as f64,
            "ns",
        );
        // The untraced half's request stream through a server-sized
        // store: a miss inserts the body the server would store.
        let stream: Vec<usize> = (0..stream_len).map(|j| j % s.requests.len()).collect();
        let (probe, insert, hit_rate, evictions) =
            layers::store_replay(&s.requests, &stream, |i| {
                all[i]
                    .as_ref()
                    .map_or(String::new(), gced_serve::wire::render_distillation)
            });
        r.put("store.probe_ns", probe, "ns");
        r.put("store.insert_ns", insert, "ns");
        r.put("store.hit_rate", hit_rate, "ratio");
        r.put("store.evictions", evictions, "count");
        // The per-layer time metrics of inputs distilled alone, against
        // the untraced time of the same inputs.
        let sample = offline::reconcile_sample(&s, a.seed);
        correct = reconcile(&mut r, &sample);
        let traced_throughput = t.examples as f64 / t.wall_s;
        r.put(
            "obs.tracing_overhead",
            throughput / traced_throughput - 1.0,
            "ratio",
        );
        r.trace = t.spans;
    }
    r.failed = errors + wrong;
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    r.put("bench.error_rate", error_rate, "ratio");
    r.put("peak_rss_mb", peak_rss, "MB");
    r.correct = correct && r.failed == 0;
    drop((s, all));
    drop(setups(SETUPS_AFTER, &mut setup_times, setup, drop));
    put_setup(&mut r, &setup_times);
    r
}

/// What one phase of a serve run saw.
struct PhaseRun {
    phase: serve::Phase,
    seen: Vec<Seen>,
    seconds: f64,
    start_ticks: u64,
    polled: std::collections::HashMap<u64, (u64, u64)>,
    before: Scrape,
    after: Scrape,
}

/// Check that the per-layer time metrics of `paired.stages` add up to
/// the untraced time of the same work, timed apart from them; reports
/// the gap.
fn reconcile(r: &mut Report, paired: &layers::Paired) -> bool {
    let parts = paired.stages.parts();
    let err = stats::reconcile(&parts, paired.untraced_ns);
    println!(
        "reconcile: per-layer time metrics {:.0} ns vs untraced {:.0} ns per distill over {} \
         distills ({:.1} %, tolerance {:.0} %)",
        parts.iter().sum::<f64>(),
        paired.untraced_ns,
        paired.stages.trees,
        err * 100.0,
        RECONCILE_TOLERANCE * 100.0
    );
    r.put("obs.reconcile_error", err, "ratio");
    err <= RECONCILE_TOLERANCE
}

fn run_serve(a: &Args, nproc: usize) -> Report {
    let mut r = Report::default();
    let setup = || serve::setup(a.seed, a.seconds, nproc);
    let retire = |old: serve::Setup| {
        old.server.shutdown();
        old.server.join();
    };
    let mut setup_times = Vec::new();
    let s = setups(SETUPS_BEFORE, &mut setup_times, setup, retire);
    let serve::Setup {
        gced,
        server,
        requests,
        bodies,
    } = s;
    let addr = server.addr();
    let pool = requests.len();
    let mut next = 0;
    let first = Scrape::take(addr);
    let mut runs: Vec<PhaseRun> = Vec::new();
    for (k, phase) in serve::plan(a.seconds, a.trace).into_iter().enumerate() {
        let before = Scrape::take(addr);
        let stop = AtomicBool::new(false);
        let (seen, seconds, start_ticks, polled) = std::thread::scope(|scope| {
            let poller = phase
                .traced
                .then(|| scope.spawn(|| serve::poll_recorder(addr, &stop)));
            let (seen, seconds, ticks) = match phase.rate {
                Some(rate) => {
                    let stream = a.seed ^ (k as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
                    let due = stats::poisson_schedule(stream, rate, phase.seconds);
                    let order = serve::draw(due.len(), &mut next, pool);
                    let (seen, ticks) = serve::run_step(addr, &bodies, &order, &due, nproc);
                    (seen, phase.seconds, ticks)
                }
                None => {
                    let order = serve::draw(serve::closed_len(phase.seconds), &mut next, pool);
                    let (seen, wall) =
                        serve::run_closed(addr, &bodies, &order, phase.seconds, nproc);
                    (seen, wall, 0)
                }
            };
            stop.store(true, Ordering::Relaxed);
            let polled = poller
                .map(|h| h.join().expect("recorder poller"))
                .unwrap_or_default();
            (seen, seconds, ticks, polled)
        });
        let after = Scrape::take(addr);
        runs.push(PhaseRun {
            phase,
            seen,
            seconds,
            start_ticks,
            polled,
            before,
            after,
        });
    }
    let last = Scrape::take(addr);
    server.shutdown();
    server.join();
    let peak_rss = peak_rss_mb();
    let replayed = a
        .trace
        .then(|| replay(&gced, &requests, &runs, &mut r.trace));

    let oracle = serve::Oracle::build(
        &gced,
        &requests,
        runs.iter().flat_map(|p| p.seen.iter().map(|x| x.request)),
    );
    // Quality over the requests of the open-loop phases: a set fixed by
    // the seed (the closed loop's share depends on the machine's speed).
    let open: std::collections::BTreeSet<usize> = runs
        .iter()
        .filter(|p| p.phase.rate.is_some())
        .flat_map(|p| p.seen.iter().map(|x| x.request))
        .collect();
    let mut wrong = 0;
    for p in &mut runs {
        wrong += oracle.check(&mut p.seen);
        r.attempted += p.seen.len();
    }
    r.failed = wrong;

    // Open-loop ladder: one verdict per rate (its first phase).
    let mut verdicts = Vec::new();
    for p in &runs {
        if let Some(rate) = p.phase.rate {
            if verdicts.iter().all(|v: &stats::StepVerdict| v.rate != rate) {
                let v = serve::judge(&p.seen, rate, p.seconds);
                let lat = sorted(
                    p.seen
                        .iter()
                        .map(|x| x.sample.latency_ns() as f64)
                        .collect(),
                );
                println!(
                    "step {rate:>5} rps: sent {} succeeded {} failed {} within {} ms {} \
                     p50 {:.3} ms p99 {:.3} ms backlog_end {} meets_limit {}",
                    v.sent,
                    v.succeeded,
                    v.failed,
                    serve::P99_LIMIT_MS,
                    v.within_limit,
                    ms(stats::percentile(&lat, 50.0)),
                    ms(stats::percentile(&lat, 99.0)),
                    v.backlog_end,
                    v.meets_limit
                );
                verdicts.push(v);
            }
        }
    }
    let reference = &runs[0];
    let latencies: Vec<f64> = reference
        .seen
        .iter()
        .map(|x| x.sample.latency_ns() as f64)
        .collect();
    let (p50, p99) = latency_pair(&mut r, "reference_rate_latency", latencies);
    r.put("latency_p50_ms", p50, "ms");
    r.put("bench.latency_p99_ms", p99, "ms");
    // Closed-loop capacity: the median rate of 16 runs of consecutive
    // completions, so a short stall of the machine does not pass for a
    // slower server.
    let closed = runs
        .iter()
        .find(|p| p.phase.rate.is_none())
        .expect("closed-loop phase");
    let done: Vec<u64> = closed
        .seen
        .iter()
        .filter(|x| x.sample.ok)
        .map(|x| x.sample.done_ns)
        .collect();
    r.put(
        "throughput_eps",
        stats::median(&stats::chunk_rates(&done, 16)),
        "1/s",
    );
    let max_rate = stats::max_rate(&verdicts);
    let goodput = verdicts.last().map_or(0.0, |v| v.goodput_rps);
    r.put("serve.max_rate_rps", max_rate, "1/s");
    r.put("serve.goodput_rps", goodput, "1/s");
    r.put(
        "bench.error_rate",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    let distilled: Vec<&gced::Distillation> = oracle
        .distilled
        .iter()
        .filter(|(i, _)| open.contains(i))
        .map(|(_, d)| d)
        .collect();
    quality(&mut r, &distilled);

    let mut correct = true;
    if let Some(replayed) = &replayed {
        correct = serve_layers(
            &mut r,
            (&gced, &requests),
            &runs,
            replayed,
            &oracle,
            &verdicts,
            (&first, &last),
        );
    }
    r.put("peak_rss_mb", peak_rss, "MB");
    r.correct = correct && r.failed == 0;
    drop((gced, requests, bodies, oracle));
    retire(setups(SETUPS_AFTER, &mut setup_times, setup, retire));
    put_setup(&mut r, &setup_times);
    r
}

/// The pipeline replay of the traced reference step, right after the
/// server stops: the requests the flight recorder saw, in order, in
/// batches of the step's mean server batch size, each batch at its
/// first request's due time, so caches and cores idle between batches
/// as they did in the server. Each batch runs untraced and traced
/// ([`layers::paired`]). The pipeline is a copy with the server's parse
/// cache, warmed by the untraced reference step first.
fn replay(
    gced: &gced::Gced,
    requests: &[inputs::Request],
    runs: &[PhaseRun],
    trace: &mut Vec<SpanNode>,
) -> layers::Paired {
    let cached = gced
        .clone()
        .with_parse_cache(gced_serve::ServeConfig::default().parse_cache);
    for x in &runs[0].seen {
        let q = &requests[x.request];
        std::hint::black_box(cached.distill(&q.question, &q.answer, &q.context).is_ok());
    }
    let p = runs
        .iter()
        .find(|p| p.phase.traced)
        .expect("traced reference step");
    let matched: Vec<&Seen> = p
        .seen
        .iter()
        .filter(|x| x.request_id.is_some_and(|id| p.polled.contains_key(&id)))
        .collect();
    assert!(
        !matched.is_empty(),
        "the flight recorder saw none of the traced step's requests"
    );
    let batch_size = p.before.delta(&p.after, &["batch_size", "sum"])
        / p.before.delta(&p.after, &["batch_size", "count"]).max(1.0);
    let chunks: Vec<&[&Seen]> = matched
        .chunks((batch_size.round() as usize).max(1))
        .collect();
    let batches: Vec<Vec<inputs::Request>> = chunks
        .iter()
        .map(|c| c.iter().map(|x| requests[x.request].clone()).collect())
        .collect();
    let t0 = Instant::now();
    let pace = |k: usize| {
        let due = t0 + std::time::Duration::from_nanos(chunks[k][0].sample.due_ns);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
    };
    layers::paired(&cached, &batches, pace, trace)
}

/// The per-layer metrics of a traced serve run.
fn serve_layers(
    r: &mut Report,
    (gced, requests): (&gced::Gced, &[inputs::Request]),
    runs: &[PhaseRun],
    replayed: &layers::Paired,
    oracle: &serve::Oracle,
    verdicts: &[stats::StepVerdict],
    (first, last): (&Scrape, &Scrape),
) -> bool {
    let untraced = &runs[0];
    let traced = runs
        .iter()
        .find(|p| p.phase.traced)
        .expect("traced reference step");
    // Server-side split of each traced request: queue wait and server
    // time from the flight recorder; outside = client time - server time.
    let (mut queue, mut compute, mut outside) = (Vec::new(), Vec::new(), Vec::new());
    for x in &traced.seen {
        let Some(&(queue_ns, total_ns)) = x.request_id.and_then(|id| traced.polled.get(&id)) else {
            continue;
        };
        let client_ns = x.sample.done_ns - x.sample.sent_ns;
        outside.push(client_ns.saturating_sub(total_ns) as f64);
        queue.push(queue_ns as f64);
        compute.push(total_ns.saturating_sub(queue_ns) as f64);
    }
    let compute_mean_ns = mean(&compute);
    println!(
        "traced reference step: {} of {} requests matched in the flight recorder",
        outside.len(),
        traced.seen.len()
    );
    let (queue, compute, outside) = (sorted(queue), sorted(compute), sorted(outside));
    r.put(
        "serve.queue_wait_p50_ms",
        ms(stats::percentile(&queue, 50.0)),
        "ms",
    );
    r.put(
        "serve.queue_wait_p99_ms",
        ms(stats::percentile(&queue, 99.0)),
        "ms",
    );
    r.put(
        "serve.compute_p50_ms",
        ms(stats::percentile(&compute, 50.0)),
        "ms",
    );
    r.put(
        "serve.outside_p50_ms",
        ms(stats::percentile(&outside, 50.0)),
        "ms",
    );
    r.put(
        "serve.outside_p99_ms",
        ms(stats::percentile(&outside, 99.0)),
        "ms",
    );
    let batch_size = traced.before.delta(&traced.after, &["batch_size", "sum"])
        / traced
            .before
            .delta(&traced.after, &["batch_size", "count"])
            .max(1.0);
    r.put("serve.batch_size_mean", batch_size, "count");
    r.put("serve.shed", first.delta(last, &["shed_total"]), "count");
    let ratio = |num: &[&str], den: &[&[&str]]| {
        let d: f64 = den.iter().map(|p| first.delta(last, p)).sum();
        if d == 0.0 {
            0.0
        } else {
            first.delta(last, num) / d
        }
    };
    r.put(
        "serve.keepalive_reuse_rate",
        ratio(&["keepalive_reuses"], &[&["distill_requests_total"]]),
        "ratio",
    );
    r.put(
        "store.hit_rate",
        ratio(
            &["cache_hits_total"],
            &[&["cache_hits_total"], &["cache_misses_total"]],
        ),
        "ratio",
    );
    r.put(
        "store.evictions",
        first.delta(last, &["evictions_total"]),
        "count",
    );

    // Pipeline layers and worker pool, from the replay.
    replayed.stages.metrics(&mut r.metrics);
    // The server's own parse-cache counters replace the replay's.
    let (hits, lookups) = (
        first.delta(last, &["parse_cache", "hits"]),
        first.delta(last, &["parse_cache", "hits"]) + first.delta(last, &["parse_cache", "misses"]),
    );
    r.metrics.retain(|m| m.0 != "parser.parse_cache_hit_rate");
    r.put(
        "parser.parse_cache_hit_rate",
        if lookups == 0.0 { 0.0 } else { hits / lookups },
        "ratio",
    );
    let distilled: Vec<&gced::Distillation> = oracle.distilled.iter().map(|(_, d)| d).collect();
    r.put(
        "lm.perplexity_ns",
        layers::lm_perplexity_ns(gced, &distilled),
        "ns",
    );
    let workers = gced_par::effective_parallelism() as f64;
    r.put(
        "par.busy_share",
        replayed.busy_ns as f64 / (workers * replayed.traced_wall_ns.max(1) as f64),
        "ratio",
    );
    r.put(
        "par.batch_wall_ns",
        replayed.traced_wall_ns as f64 / replayed.batches.max(1) as f64,
        "ns",
    );
    // Store: the run's request stream through a server-sized store.
    let stream: Vec<usize> = runs
        .iter()
        .flat_map(|p| p.seen.iter().map(|x| x.request))
        .collect();
    let (probe, insert, _, _) = layers::store_replay(requests, &stream, |i| {
        oracle
            .expected
            .get(&i)
            .map_or(String::new(), |(_, body)| body.clone())
    });
    r.put("store.probe_ns", probe, "ns");
    r.put("store.insert_ns", insert, "ns");
    // Generator validity: lateness at the reference rate, and the
    // backlog left at the end of the highest rate that met the limit.
    let lag: Vec<f64> = untraced
        .seen
        .iter()
        .map(|x| x.sample.sent_ns.saturating_sub(x.sample.due_ns) as f64)
        .collect();
    r.put(
        "bench.send_lag_p99_ms",
        ms(stats::percentile(&sorted(lag), 99.0)),
        "ms",
    );
    let backlog = verdicts
        .iter()
        .take_while(|v| v.meets_limit)
        .last()
        .or(verdicts.first())
        .map_or(0, |v| v.backlog_end);
    r.put("bench.backlog_end", backlog as f64, "count");
    // Client spans of the traced step, on the program's trace clock.
    for x in traced.seen.iter().take(512) {
        let mut node = SpanNode::synthetic(
            "bench.request",
            traced.start_ticks + x.sample.sent_ns,
            x.sample.done_ns - x.sample.sent_ns,
        );
        node.counters
            .push(("request_id", x.request_id.unwrap_or(0)));
        r.trace.push(node);
    }
    // Reconciliation: the replay's per-layer time metrics against its
    // untraced twin. The server's own distill time of the same requests
    // is printed beside them; the machine idles and wakes differently
    // in a replay, so it is not held to the tolerance.
    let ok = reconcile(r, replayed);
    println!(
        "server distill time of the replayed requests (flight recorder): {:.0} ns mean",
        compute_mean_ns
    );
    let traced_latency: Vec<f64> = traced
        .seen
        .iter()
        .map(|x| x.sample.latency_ns() as f64)
        .collect();
    let untraced_latency: Vec<f64> = untraced
        .seen
        .iter()
        .map(|x| x.sample.latency_ns() as f64)
        .collect();
    r.put(
        "obs.tracing_overhead",
        stats::median(&traced_latency) / stats::median(&untraced_latency) - 1.0,
        "ratio",
    );
    ok
}
