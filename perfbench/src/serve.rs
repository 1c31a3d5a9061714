//! The `serve_unique` workload: an open-loop client over persistent
//! keep-alive connections against an in-process
//! `gced_serve::start(ServeConfig::default())`, every request distinct.

use crate::inputs::{self, Request};
use crate::stats::{self, Sample, StepVerdict};
use gced::Gced;
use gced_datasets::json::{self, Json};
use gced_datasets::DatasetKind;
use gced_serve::client::Session;
use gced_serve::wire::{self, DistillRequest};
use gced_serve::{ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Arrival rates of the ladder, ascending. The first is the reference
/// rate that `latency_p50_ms` and `latency_p99_ms` are read at; the top
/// one is above what two connections sustain on a 2-core machine, so
/// the ladder shows where the server stops keeping up.
pub const LADDER_RPS: [f64; 4] = [150.0, 300.0, 450.0, 900.0];

/// The p99 latency limit of `max_rate_rps` and `goodput_rps`.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Untimed warm-up: requests outside the measured set that fault in
/// every lazy path.
const WARMUP: usize = 64;

/// Highest closed-loop rate the request stream is sized for; past it
/// the closed loop runs out of requests and stops early.
const CLOSED_MAX_RPS: f64 = 4000.0;

/// Requests drawn for a closed loop of `seconds`.
pub fn closed_len(seconds: f64) -> usize {
    (CLOSED_MAX_RPS * seconds) as usize
}

/// One phase of a serve run.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Arrival rate; `None` is the closed loop.
    pub rate: Option<f64>,
    pub seconds: f64,
    /// Poll the flight recorder during this phase.
    pub traced: bool,
}

/// The phases of a run of `seconds`: the reference rate for 40 % of
/// the time (about 1200 samples in 20 s, enough for a p99 with ten
/// samples beyond it), the other rates for 40 % together, then the
/// closed loop for 20 %. A traced run splits the reference share into
/// an untraced half first and a half that polls the flight recorder
/// last, so the pipeline replay that follows the run is close in time
/// to it.
pub fn plan(seconds: f64, trace: bool) -> Vec<Phase> {
    let reference = |share: f64, traced| Phase {
        rate: Some(LADDER_RPS[0]),
        seconds: seconds * share,
        traced,
    };
    let mut phases = vec![reference(if trace { 0.2 } else { 0.4 }, false)];
    for &rate in &LADDER_RPS[1..] {
        phases.push(Phase {
            rate: Some(rate),
            seconds: seconds * 0.4 / (LADDER_RPS.len() - 1) as f64,
            traced: false,
        });
    }
    phases.push(Phase {
        rate: None,
        seconds: seconds * 0.2,
        traced: false,
    });
    if trace {
        phases.push(reference(0.2, true));
    }
    phases
}

/// Distinct requests generated, so that no request repeats in a run of
/// `seconds`.
fn pool_len(seconds: f64) -> usize {
    let open: f64 = plan(seconds, false)
        .iter()
        .map(|p| {
            p.rate
                .map_or(closed_len(p.seconds) as f64, |r| r * 1.2 * p.seconds)
        })
        .sum();
    open as usize + WARMUP + 256
}

/// Everything set up before the first timed request.
pub struct Setup {
    pub gced: Gced,
    pub server: ServerHandle,
    pub requests: Vec<Request>,
    pub bodies: Vec<String>,
}

/// Generate the requests, fit, start the server and warm it up.
pub fn setup(seed: u64, seconds: f64, conns: usize) -> Setup {
    let requests = inputs::requests(DatasetKind::Squad11, pool_len(seconds), seed);
    let gced = Gced::fit(
        &inputs::fit_dataset(DatasetKind::Squad11),
        gced::GcedConfig::default(),
    );
    let server =
        gced_serve::start(gced.clone(), ServeConfig::default()).expect("bind an ephemeral port");
    let bodies: Vec<String> = requests.iter().map(render).collect();
    let warm: Vec<usize> = (requests.len() - WARMUP..requests.len()).collect();
    let (seen, _) = run_closed(server.addr(), &bodies, &warm, f64::INFINITY, conns);
    assert!(
        seen.len() == warm.len() && seen.iter().all(|x| x.status == 200),
        "warm-up failed"
    );
    Setup {
        gced,
        server,
        requests,
        bodies,
    }
}

fn render(r: &Request) -> String {
    wire::render_request(&DistillRequest {
        question: r.question.clone(),
        answer: r.answer.clone(),
        context: r.context.clone(),
    })
}

/// One response as the client saw it.
#[derive(Clone, Copy)]
pub struct Seen {
    pub request: usize,
    pub sample: Sample,
    pub status: u16,
    pub body_hash: u64,
    pub request_id: Option<u64>,
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Post one request on `session`, timed against `t0`. The server
/// closes a connection at its per-connection cap (and any failure
/// leaves the stream unusable); the session then dials again, as
/// `client::Session` users do.
fn exchange(
    session: &mut Session,
    t0: Instant,
    request: usize,
    body: &str,
    due_ns: Option<u64>,
) -> Seen {
    let sent_ns = t0.elapsed().as_nanos() as u64;
    let outcome = session.post("/v1/distill", body);
    let done_ns = t0.elapsed().as_nanos() as u64;
    let seen = Seen {
        request,
        sample: Sample {
            due_ns: due_ns.unwrap_or(sent_ns),
            sent_ns,
            done_ns,
            ok: false,
        },
        status: outcome.as_ref().map_or(0, |r| r.status),
        body_hash: outcome.as_ref().map_or(0, |r| hash_bytes(&r.body)),
        request_id: outcome.as_ref().ok().and_then(|r| r.request_id),
    };
    if outcome.map_or(true, |r| !r.keep_alive) {
        while session.reconnect().is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    seen
}

/// Run one open-loop step: request `order[i]` is due `due[i]` ns after
/// the step starts. `conns` client threads each own one persistent
/// connection and take the next due request from a shared cursor, so a
/// stall shows as lateness of later requests instead of lower load.
/// Returns the responses by due time and the step start in trace ticks.
pub fn run_step(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    due: &[u64],
    conns: usize,
) -> (Vec<Seen>, u64) {
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(conns + 1);
    let seen = Mutex::new(Vec::with_capacity(order.len()));
    let start = Mutex::new(None::<(Instant, u64)>);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut session = Session::connect(addr).expect("connect a client session");
                barrier.wait();
                let (t0, _) = start.lock().expect("start lock").expect("start set");
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= order.len() {
                        break;
                    }
                    let due_at = t0 + Duration::from_nanos(due[i]);
                    if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    mine.push(exchange(
                        &mut session,
                        t0,
                        order[i],
                        &bodies[order[i]],
                        Some(due[i]),
                    ));
                }
                seen.lock().expect("seen lock").extend(mine);
            });
        }
        *start.lock().expect("start lock") = Some((Instant::now(), gced_obs::clock::ticks_ns()));
        barrier.wait();
    });
    let mut seen = seen.into_inner().expect("seen lock");
    seen.sort_by_key(|s| s.sample.due_ns);
    let ticks = start
        .into_inner()
        .expect("start lock")
        .expect("start set")
        .1;
    (seen, ticks)
}

/// Closed loop: `conns` connections send `order` back to back until it
/// is used up or `seconds` pass. Returns the responses and the wall
/// time in seconds.
pub fn run_closed(
    addr: SocketAddr,
    bodies: &[String],
    order: &[usize],
    seconds: f64,
    conns: usize,
) -> (Vec<Seen>, f64) {
    let t0 = Instant::now();
    let deadline = Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX);
    let cursor = AtomicUsize::new(0);
    let seen = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut session = Session::connect(addr).expect("connect a client session");
                let mut mine = Vec::new();
                while t0.elapsed() < deadline {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&request) = order.get(i) else { break };
                    mine.push(exchange(&mut session, t0, request, &bodies[request], None));
                }
                seen.lock().expect("seen lock").extend(mine);
            });
        }
    });
    (
        seen.into_inner().expect("seen lock"),
        t0.elapsed().as_secs_f64(),
    )
}

/// Polls `GET /debug/requests` until `stop` is set, collecting each
/// retained request's server-side queue wait and time (ns) by id. The
/// flight recorder keeps the last 64 requests, so a 50 ms period sees
/// every request at the rates of the ladder's traced steps.
pub fn poll_recorder(
    addr: SocketAddr,
    stop: &std::sync::atomic::AtomicBool,
) -> HashMap<u64, (u64, u64)> {
    let mut by_id = HashMap::new();
    loop {
        let last = stop.load(Ordering::Relaxed);
        if let Ok(r) = gced_serve::client::get(addr, "/debug/requests") {
            if let Ok(doc) = json::parse(&r.text()) {
                for req in doc.get("requests").and_then(Json::as_arr).unwrap_or(&[]) {
                    let num = |k: &str| req.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    by_id.insert(num("id"), (num("queue_ns"), num("total_ns")));
                }
            }
        }
        if last {
            return by_id;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The expected response of every request, computed offline with
/// `Gced::distill` on the same fitted pipeline.
pub struct Oracle {
    /// Status and body by request index.
    pub expected: HashMap<usize, (u16, String)>,
    /// Offline distillations of the checked requests, by request index.
    pub distilled: Vec<(usize, gced::Distillation)>,
}

impl Oracle {
    pub fn build(gced: &Gced, requests: &[Request], used: impl Iterator<Item = usize>) -> Oracle {
        let mut ids: Vec<usize> = used.collect();
        ids.sort_unstable();
        ids.dedup();
        let results = gced_par::par_map(&ids, |_, &i| {
            let r = &requests[i];
            gced.distill(&r.question, &r.answer, &r.context)
        });
        let mut expected = HashMap::new();
        let mut distilled = Vec::new();
        for (i, result) in ids.into_iter().zip(results) {
            let r = &requests[i];
            let fp = gced_store::request_fingerprint(&r.question, &r.answer, &r.context);
            let entry = match result {
                Ok(d) => {
                    let body = wire::render_distillation_with_id(&gced_store::evidence_id(fp), &d);
                    distilled.push((i, d));
                    (200, body)
                }
                Err(e) => (422, wire::render_error(&wire::distill_error_message(&e))),
            };
            expected.insert(i, entry);
        }
        Oracle {
            expected,
            distilled,
        }
    }

    /// Mark each response ok when its status and bytes are the expected
    /// ones (a 422 must carry the offline `DistillError`); returns how
    /// many are not.
    pub fn check(&self, seen: &mut [Seen]) -> usize {
        let mut wrong = 0;
        for s in seen.iter_mut() {
            let expected = self.expected.get(&s.request);
            s.sample.ok = expected.is_some_and(|(status, body)| {
                *status == s.status && hash_bytes(body.as_bytes()) == s.body_hash
            });
            wrong += usize::from(!s.sample.ok);
        }
        wrong
    }
}

/// A `/metrics` snapshot.
pub struct Scrape(Json);

impl Scrape {
    pub fn take(addr: SocketAddr) -> Scrape {
        let r = gced_serve::client::get(addr, "/metrics").expect("GET /metrics");
        Scrape(json::parse(&r.text()).expect("/metrics is JSON"))
    }

    pub fn num(&self, path: &[&str]) -> f64 {
        let mut node = &self.0;
        for key in path {
            match node.get(key) {
                Some(n) => node = n,
                None => return 0.0,
            }
        }
        node.as_f64().unwrap_or(0.0)
    }

    /// `later - self` of a counter.
    pub fn delta(&self, later: &Scrape, path: &[&str]) -> f64 {
        later.num(path) - self.num(path)
    }
}

/// Verdict of one ladder step after the output check.
pub fn judge(seen: &[Seen], rate: f64, seconds: f64) -> StepVerdict {
    let samples: Vec<Sample> = seen.iter().map(|s| s.sample).collect();
    stats::judge_step(&samples, rate, seconds, (P99_LIMIT_MS * 1e6) as u64)
}

/// The next `n` unsent requests of the pool (the warm-up requests at its
/// end are never drawn).
pub fn draw(n: usize, next: &mut usize, pool: usize) -> Vec<usize> {
    let first = *next;
    *next = (first + n).min(pool - WARMUP);
    (first..*next).collect()
}
