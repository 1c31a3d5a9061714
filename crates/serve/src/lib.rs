//! # gced-serve — a warm, micro-batching online distillation server
//!
//! PRs 1–3 made the pipeline fast *offline*: `gced run` fits, shards,
//! distills, and exits. This crate opens the online workload the paper
//! frames — evidence distilled per (question, answer, context) request
//! next to a QA model — as a persistent HTTP/1.1 server over
//! `std::net` with zero external dependencies:
//!
//! * the fitted substrates load **once** at startup (from a fit-cache
//!   artifact or a fresh fit) and stay warm across requests;
//! * concurrent `POST /v1/distill` requests are **micro-batched**
//!   ([`batch`]): coalesced up to a batch size bound or a flush
//!   deadline, then run through `Gced::distill_batch` on the persistent
//!   `gced-par` worker pool — server throughput rides the same parallel
//!   path as the offline batch runner;
//! * per-sentence CKY parses are memoized across requests
//!   (`Gced::with_parse_cache`), so repeated or same-shaped sentences
//!   parse once;
//! * backpressure **sheds load**: a bounded queue answers 503 when
//!   full instead of buffering unboundedly;
//! * a sharded, byte-deterministic **response cache** (`gced-store`)
//!   is probed before the batch queue: a warm hit answers with the
//!   exact stored bytes and skips coalescing entirely, and every
//!   successful distillation becomes a durable evidence artifact
//!   replayable via `GET /v1/evidence/{id}` (the id — the hex request
//!   fingerprint — rides the body and the `X-Gced-Evidence-Id`
//!   header); eviction is LRU plus a logical TTL measured in
//!   subsequent insertions, never wall-clock;
//! * `GET /healthz` and `GET /metrics` expose liveness, counters, and
//!   batch-size / latency histograms ([`metrics`]);
//! * shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) is
//!   graceful: accepting stops, in-flight connections finish, queued
//!   requests drain through the batcher, every thread is joined;
//! * failure is **contained** ([`batch`], [`fault`]): a panic inside a
//!   coalesced `distill_batch` answers only that batch with 500 and the
//!   batcher lives on; a dead batcher thread is detected and restarted;
//!   queued requests carry a deadline and are shed (503 +
//!   `Retry-After`) instead of waiting forever; slow-loris peers are
//!   cut off by a total per-request read deadline (408); and a seeded
//!   [`fault::FaultPlan`] can deterministically inject faults at named
//!   sites to prove all of the above (`tests/serve_chaos.rs`).
//!
//! The determinism pin: a served response body is **byte-identical** to
//! the offline rendering of the same input ([`wire::render_distillation`]
//! over [`gced::Gced::distill`]) — cold or warm parse cache, any
//! concurrency, any batching. `tests/serve_parity.rs` hammers this with
//! multi-threaded clients; CI `cmp`s a served body against the offline
//! `gced distill` of the same request.

pub mod batch;
pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod recorder;
pub mod wire;

use batch::{Batcher, BatcherConfig, EnqueueError, Reply};
use fault::{FaultPlan, Site};
use metrics::Metrics;
use recorder::FlightRecorder;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Seconds a shed (503) response tells the client to back off before
/// retrying, via the `Retry-After` header. [`client::Session`] honors
/// it.
pub const RETRY_AFTER_SECS: u64 = 1;

/// splitmix64 — the same finalizer the shard seeder uses. The client's
/// retry jitter and the chaos plan's per-occurrence draws both hash
/// through it.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Server knobs. `Default` is tuned for a laptop-scale deployment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
    pub addr: String,
    /// Maximum requests coalesced into one `distill_batch` call.
    pub batch_max: usize,
    /// How long the batcher waits for co-arriving requests after the
    /// first queued item before flushing a partial batch.
    pub flush: Duration,
    /// Bounded queue depth; requests beyond it are shed with 503.
    pub queue_capacity: usize,
    /// Parse-cache capacity in POS signatures (0 disables).
    pub parse_cache: usize,
    /// Per-connection socket read timeout — also the keep-alive idle
    /// timeout between requests on a persistent connection.
    pub read_timeout: Duration,
    /// Maximum requests served on one persistent connection before the
    /// server answers `Connection: close` (bounds per-client hogging).
    pub max_requests_per_conn: usize,
    /// Maximum time a queued request may wait before it is shed with
    /// 503 + `Retry-After` (expiry is checked at dequeue; the waiting
    /// handler also uses this to size its hang backstop).
    /// `Duration::ZERO` disables expiry.
    pub request_deadline: Duration,
    /// Total time the request head + body may take to arrive
    /// (slow-loris protection on top of `read_timeout`, which bounds
    /// each individual read and keep-alive idle). Exceeding it answers
    /// 408. `Duration::ZERO` disables it.
    pub read_deadline: Duration,
    /// Deterministic fault-injection plan (chaos testing). `None` or an
    /// empty plan means no faults; see [`fault::FaultPlan::parse`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Contexts pre-parsed into the parse cache at startup (typically
    /// the dev corpus of the served fingerprint), so first requests hit
    /// a warm cache. Ignored when `parse_cache` is 0.
    pub warmup_docs: Vec<String>,
    /// Per-request span tracing plus the `/debug/requests` flight
    /// recorder. On by default: traces are a sidecar channel (response
    /// bodies stay byte-identical to offline rendering), and the cost
    /// per span is two monotonic-clock reads and a thread-local push.
    pub trace: bool,
    /// Recent-ring capacity of the flight recorder — the last N traced
    /// requests are kept (the slowest few are kept besides; see
    /// [`recorder::DEFAULT_SLOW`]).
    pub flight_requests: usize,
    /// Response-cache entry capacity across shards (0 disables the
    /// cache and the evidence store).
    pub cache_entries: usize,
    /// Response-cache byte budget across shards (0 disables).
    pub cache_bytes: usize,
    /// Logical TTL: a cached entry expires after this many subsequent
    /// insertions into its shard (0 = entries never expire by age).
    pub cache_ttl_ops: u64,
    /// Response-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_max: 16,
            flush: Duration::from_millis(2),
            queue_capacity: 256,
            parse_cache: 4096,
            read_timeout: Duration::from_secs(10),
            max_requests_per_conn: 128,
            request_deadline: Duration::from_secs(10),
            read_deadline: Duration::from_secs(30),
            fault_plan: None,
            warmup_docs: Vec::new(),
            trace: true,
            flight_requests: recorder::DEFAULT_RECENT,
            cache_entries: 4096,
            cache_bytes: 32 << 20,
            cache_ttl_ops: 0,
            cache_shards: 8,
        }
    }
}

/// What the startup warmup did, reported under `warmup` in `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct WarmupStats {
    docs: usize,
    sentences: usize,
}

struct Shared {
    gced: Arc<gced::Gced>,
    batcher: Batcher,
    faults: Arc<FaultPlan>,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    config: ServeConfig,
    addr: SocketAddr,
    warmup: WarmupStats,
    /// Live connection sockets, keyed by a per-connection id. Shutdown
    /// shrinks every socket's read timeout so idle keep-alive
    /// connections stop blocking in `read_request` promptly instead of
    /// stalling the drain for the full idle timeout; in-flight
    /// exchanges still finish and close via the shutdown flag.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// The flight recorder the batcher feeds (`/debug/requests`).
    recorder: Arc<FlightRecorder>,
    /// Server-assigned `/v1/distill` request ids, echoed as
    /// `X-Gced-Request-Id` (ids start at 1).
    next_request_id: AtomicU64,
    /// The response cache + durable evidence store, probed before the
    /// batch queue and filled on every successful distillation.
    store: gced_store::ResponseStore,
    /// Process-epoch stopwatch behind `uptime_seconds`.
    started: gced_obs::clock::Stopwatch,
}

/// Removes a connection's registry entry when its handler exits (also
/// on unwind).
struct ConnGuard<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut conns) = self.shared.conns.lock() {
            conns.remove(&self.id);
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or `POST /shutdown`) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Bind, spawn the batcher and the accept loop, and return immediately.
/// The pipeline is wrapped with the configured parse cache; pass a
/// pre-warmed `Gced` (fit or fit-cache decode) — `start` never fits.
pub fn start(gced: gced::Gced, mut config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let gced = if config.parse_cache > 0 {
        gced.with_parse_cache(config.parse_cache)
    } else {
        gced
    };
    // Batch-aware warmup: pre-parse the configured corpus through the
    // exact per-sentence path requests use, so the first real batch hits
    // a warm parse cache instead of paying every CKY parse cold. The
    // corpus is taken out of the config — it is startup-only data and
    // would otherwise sit in memory for the server's lifetime.
    let warmup_docs = std::mem::take(&mut config.warmup_docs);
    let mut warmup = WarmupStats::default();
    if config.parse_cache > 0 {
        for doc in &warmup_docs {
            let sentences = gced.warm_parse_cache(doc);
            if sentences > 0 {
                warmup.docs += 1;
                warmup.sentences += sentences;
            }
        }
    }
    drop(warmup_docs);
    let gced = Arc::new(gced);
    let metrics = Arc::new(Metrics::new());
    let faults = config
        .fault_plan
        .clone()
        .unwrap_or_else(|| Arc::new(FaultPlan::none()));
    if config.trace {
        // Tracing is process-global but recording is scoped: spans hit
        // only threads inside a capture (the batcher's traced batches),
        // and traces never touch response bytes.
        gced_obs::set_enabled(true);
    }
    let flight = Arc::new(FlightRecorder::new(
        config.flight_requests,
        recorder::DEFAULT_SLOW,
    ));
    let store_config = gced_store::StoreConfig {
        entries: config.cache_entries,
        bytes: config.cache_bytes,
        ttl_ops: config.cache_ttl_ops,
        shards: config.cache_shards,
    };
    let batcher = Batcher::start(
        Arc::clone(&gced),
        BatcherConfig {
            batch_max: config.batch_max,
            flush: config.flush,
            capacity: config.queue_capacity,
            deadline: config.request_deadline,
        },
        Arc::clone(&faults),
        Arc::clone(&metrics),
        Arc::clone(&flight),
    );
    let shared = Arc::new(Shared {
        gced,
        batcher,
        faults,
        metrics,
        shutdown: AtomicBool::new(false),
        config,
        addr,
        warmup,
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
        recorder: flight,
        next_request_id: AtomicU64::new(0),
        store: gced_store::ResponseStore::new(store_config),
        started: gced_obs::clock::Stopwatch::start(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("gced-serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("spawn accept thread");
    Ok(ServerHandle {
        shared,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (resolved port when `addr` asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin graceful shutdown: stop accepting, let in-flight
    /// connections finish, drain the queue. Returns immediately;
    /// [`ServerHandle::join`] waits for completion. Idempotent.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Block until the server has fully shut down (accept loop exited,
    /// connections joined, batcher drained and joined).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            t.join().expect("accept thread exited cleanly");
        }
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the blocking accept() with a throwaway connection; the
    // accept loop re-checks the flag before handling anything.
    let _ = TcpStream::connect(shared.addr);
    // Idle keep-alive connections are blocked in `read_request` for up
    // to the full idle timeout; shutting down the socket's read half
    // wakes a blocked recv immediately (EOF) while leaving the write
    // half open, so handlers mid-exchange still flush their in-flight
    // response — their loop then closes via the shutdown flag.
    if let Ok(conns) = shared.conns.lock() {
        for stream in conns.values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(shared);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let (Ok(clone), Ok(mut conns)) = (stream.try_clone(), shared.conns.lock()) {
            conns.insert(conn_id, clone);
        }
        match std::thread::Builder::new()
            .name("gced-serve-conn".to_string())
            .spawn(move || {
                let _guard = ConnGuard {
                    shared: &conn_shared,
                    id: conn_id,
                };
                handle_connection(stream, &conn_shared);
            }) {
            Ok(handle) => connections.push(handle),
            Err(_) => {
                // Spawn refused; connection drops (client sees EOF).
                if let Ok(mut conns) = shared.conns.lock() {
                    conns.remove(&conn_id);
                }
                continue;
            }
        }
        // Reap finished connection threads so the vec stays bounded by
        // the number of *live* connections, not total served. Finished
        // handles are **joined**, not dropped, so a handler that exited
        // by panic is observed (`conn_thread_panics`) instead of
        // silently swallowed.
        connections = connections
            .drain(..)
            .filter_map(|h| {
                if h.is_finished() {
                    reap(h, shared);
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
    }
    // Drain: connections still running may enqueue; the batcher is only
    // shut down (and its queue drained) after every handler returned.
    for handle in connections {
        reap(handle, shared);
    }
    shared.batcher.shutdown();
}

/// Join a connection-thread handle, counting a panicked exit.
fn reap(handle: std::thread::JoinHandle<()>, shared: &Shared) {
    if handle.join().is_err() {
        shared
            .metrics
            .conn_thread_panics
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Serve one connection: a keep-alive loop of read → route → respond,
/// bounded by `max_requests_per_conn`, the client's `Connection`
/// preference, the socket read timeout (idle cap), and shutdown.
/// Framing errors answer with `Connection: close` and end the loop (a
/// desynchronized byte stream cannot be trusted for another request).
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    shared
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    let max_requests = shared.config.max_requests_per_conn.max(1);
    for served in 0..max_requests {
        if let Some(ms) = shared.faults.fire(Site::ReadStall) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let request =
            match http::read_request(&mut reader, &mut writer, shared.config.read_deadline) {
                Ok(r) => r,
                // Idle close / timeout between requests: nothing to answer.
                Err(http::HttpError::Io(_)) => return,
                Err(e) => {
                    shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
                    let status = match e {
                        http::HttpError::TooLarge(_) => 413,
                        http::HttpError::TooSlow(_) => 408,
                        _ => 400,
                    };
                    let _ = http::write_response(
                        &mut writer,
                        status,
                        &wire::render_error(&e.to_string()),
                        false,
                    );
                    return;
                }
            };
        if served > 0 {
            shared
                .metrics
                .keepalive_reuses
                .fetch_add(1, Ordering::Relaxed);
        }
        let routed = route(&request, shared);
        // HTTP-layer rejections only: 422/500 are already counted as
        // distill errors, 503 as shed — the counters must decompose.
        if matches!(routed.status, 400 | 404 | 405 | 413) {
            shared.metrics.http_errors.fetch_add(1, Ordering::Relaxed);
        }
        let keep = request.keep_alive
            && served + 1 < max_requests
            && !shared.shutdown.load(Ordering::SeqCst);
        if write_reply(&mut writer, &routed, keep, shared).is_err() || !keep {
            return;
        }
    }
}

/// Write one response frame, routing through the `torn_write` chaos
/// site: when it fires, only a prefix of the frame reaches the socket
/// and the connection is torn down — the retrying client must survive
/// a response cut mid-frame.
fn write_reply(
    writer: &mut TcpStream,
    routed: &Routed,
    keep_alive: bool,
    shared: &Shared,
) -> std::io::Result<()> {
    let frame = http::render_response_with(
        routed.status,
        &routed.body,
        keep_alive,
        routed.retry_after,
        &http::ResponseTags {
            request_id: routed.request_id,
            evidence_id: routed.evidence_id.as_deref(),
            cache: routed.cache,
        },
    );
    if shared.faults.fire(Site::TornWrite).is_some() {
        let cut = (frame.len() / 2).max(1);
        let _ = writer.write_all(&frame[..cut]);
        let _ = writer.flush();
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "chaos: torn_write fired",
        ));
    }
    writer.write_all(&frame)?;
    writer.flush()
}

/// One routed response: status, body, and the optional headers the
/// endpoint asked for (`Retry-After` on sheds, `X-Gced-Request-Id` on
/// distill requests, `X-Gced-Evidence-Id`/`X-Gced-Cache` on cache-aware
/// responses).
struct Routed {
    status: u16,
    body: String,
    retry_after: Option<u64>,
    request_id: Option<u64>,
    evidence_id: Option<String>,
    cache: Option<&'static str>,
}

impl Routed {
    fn plain(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            retry_after: None,
            request_id: None,
            evidence_id: None,
            cache: None,
        }
    }
}

/// Dispatch one parsed request to its endpoint.
fn route(request: &http::Request, shared: &Shared) -> Routed {
    shared
        .metrics
        .requests_total
        .fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Routed::plain(200, healthz_body(shared)),
        ("GET", "/metrics") => Routed::plain(200, metrics_body(shared)),
        ("POST", "/v1/distill") => distill(request, shared),
        ("POST", "/shutdown") => {
            trigger_shutdown(shared);
            Routed::plain(200, "{\"status\":\"shutting down\"}".to_string())
        }
        ("GET", "/debug/requests") => Routed::plain(200, shared.recorder.list_json()),
        ("GET", path) if path.starts_with("/v1/evidence/") => {
            evidence(shared, &path["/v1/evidence/".len()..])
        }
        (_, path) if path.starts_with("/v1/evidence/") => Routed::plain(
            405,
            wire::render_error(&format!(
                "method {} not allowed on {}",
                request.method, request.path
            )),
        ),
        ("GET", path) if path.starts_with("/debug/requests/") => {
            let tail = &path["/debug/requests/".len()..];
            match tail
                .parse::<u64>()
                .ok()
                .and_then(|id| shared.recorder.get_json(id, true))
            {
                Some(body) => Routed::plain(200, body),
                None => Routed::plain(
                    404,
                    wire::render_error(&format!("no recorded request {tail:?}")),
                ),
            }
        }
        (
            "GET" | "POST",
            "/healthz" | "/metrics" | "/v1/distill" | "/shutdown" | "/debug/requests",
        ) => Routed::plain(
            405,
            wire::render_error(&format!(
                "method {} not allowed on {}",
                request.method, request.path
            )),
        ),
        _ => Routed::plain(
            404,
            wire::render_error(&format!("no route for {}", request.path)),
        ),
    }
}

/// How long a handler waits for its batcher reply before presuming the
/// batcher stuck. Generous on purpose — the batcher itself sheds
/// expired requests at dequeue, so this backstop only matters when the
/// batcher stops making progress entirely.
fn recv_backstop(config: &ServeConfig) -> Duration {
    if config.request_deadline.is_zero() {
        Duration::from_secs(300)
    } else {
        config.request_deadline * 2 + config.flush * 2 + Duration::from_secs(1)
    }
}

/// Replay a stored distillation: `GET /v1/evidence/{id}`. A hit serves
/// the exact bytes the original `/v1/distill` response carried;
/// replays count under `evidence_replays_total`, outside the distill
/// decomposition.
fn evidence(shared: &Shared, id: &str) -> Routed {
    let Some(fp) = gced_store::parse_evidence_id(id) else {
        return Routed::plain(
            404,
            wire::render_error(&format!("malformed evidence id {id:?}")),
        );
    };
    match shared.store.get(fp) {
        Some(body) => {
            shared
                .metrics
                .evidence_replays
                .fetch_add(1, Ordering::Relaxed);
            Routed {
                status: 200,
                body,
                retry_after: None,
                request_id: None,
                evidence_id: Some(id.to_string()),
                cache: Some("hit"),
            }
        }
        None => Routed::plain(
            404,
            wire::render_error(&format!("no stored evidence {id:?}")),
        ),
    }
}

/// Run one `/v1/distill` request through the response cache, then (on
/// a miss) the batcher. Every request whose body parses increments
/// `distill_requests_total` and exactly one outcome counter — all from
/// this function, so the `/metrics` decomposition holds exactly (see
/// [`metrics::Metrics`]). With the cache enabled the same requests
/// also increment exactly one of `cache_hits_total` /
/// `cache_misses_total`, probed **before** the batch queue — a warm
/// hit answers the stored bytes and never touches the batcher.
fn distill(request: &http::Request, shared: &Shared) -> Routed {
    let parsed = match wire::parse_request(&request.body) {
        Ok(p) => p,
        Err(e) => return Routed::plain(400, wire::render_error(&e)),
    };
    let m = &shared.metrics;
    m.distill_requests_total.fetch_add(1, Ordering::Relaxed);
    // The id is assigned to every parseable request — shed ones too —
    // and echoed back as `X-Gced-Request-Id`; only requests that rode a
    // traced batch (or probed the cache under tracing) appear under
    // `/debug/requests`.
    let id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    // The fingerprint keys the cache AND derives the evidence id the
    // body carries, so it is computed whether or not the cache is on —
    // offline `gced distill` derives the identical id.
    let fp = gced_store::request_fingerprint(&parsed.question, &parsed.answer, &parsed.context);
    let eid = gced_store::evidence_id(fp);
    if shared.store.enabled() {
        let (probe, tree) = gced_obs::capture("cache.probe", || shared.store.get(fp));
        if let Some(body) = probe {
            m.cache_hits.fetch_add(1, Ordering::Relaxed);
            m.distill_ok.fetch_add(1, Ordering::Relaxed);
            if let Some(tree) = tree {
                // Hits are debuggable too: the flight recorder gets a
                // tree rooted at `cache.probe` instead of
                // `batch.coalesce`, with zero queue wait.
                shared.recorder.record(recorder::RecordedRequest {
                    id,
                    ok: true,
                    queue_ns: 0,
                    total_ns: tree.dur_ns,
                    tree,
                });
            }
            return Routed {
                status: 200,
                body,
                retry_after: None,
                request_id: Some(id),
                evidence_id: Some(eid),
                cache: Some("hit"),
            };
        }
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    let tagged = |status: u16, body: String, retry_after: Option<u64>| Routed {
        status,
        body,
        retry_after,
        request_id: Some(id),
        evidence_id: None,
        cache: None,
    };
    let rx = match shared
        .batcher
        .enqueue(id, parsed.question, parsed.answer, parsed.context)
    {
        Ok(rx) => rx,
        Err(EnqueueError::Full) => {
            m.shed_full.fetch_add(1, Ordering::Relaxed);
            return tagged(
                503,
                wire::render_error("queue full, retry later"),
                Some(RETRY_AFTER_SECS),
            );
        }
        Err(EnqueueError::ShuttingDown) => {
            m.shed_shutdown.fetch_add(1, Ordering::Relaxed);
            return tagged(
                503,
                wire::render_error("server is shutting down"),
                Some(RETRY_AFTER_SECS),
            );
        }
    };
    match rx.recv_timeout(recv_backstop(&shared.config)) {
        Ok(Reply::Done(outcome)) => match *outcome {
            Ok(d) => {
                m.distill_ok.fetch_add(1, Ordering::Relaxed);
                let body = wire::render_distillation_with_id(&eid, &d);
                if shared.store.enabled() {
                    // The single store-fill site: evictions the insert
                    // performed (LRU + logical-TTL sweep) are added
                    // here, keeping `evictions_total` single-sided.
                    let out = shared.store.insert(fp, &body);
                    m.cache_evictions.fetch_add(out.evicted, Ordering::Relaxed);
                }
                Routed {
                    status: 200,
                    body,
                    retry_after: None,
                    request_id: Some(id),
                    evidence_id: Some(eid),
                    cache: shared.store.enabled().then_some("miss"),
                }
            }
            Err(e) => {
                m.distill_error.fetch_add(1, Ordering::Relaxed);
                tagged(
                    422,
                    wire::render_error(&wire::distill_error_message(&e)),
                    None,
                )
            }
        },
        Ok(Reply::Panicked) => {
            m.distill_panics.fetch_add(1, Ordering::Relaxed);
            tagged(
                500,
                wire::render_error("distillation batch panicked, safe to retry"),
                None,
            )
        }
        Ok(Reply::Expired) => {
            m.shed_expired.fetch_add(1, Ordering::Relaxed);
            tagged(
                503,
                wire::render_error("request deadline expired in queue, retry later"),
                Some(RETRY_AFTER_SECS),
            )
        }
        Ok(Reply::Shutdown) => {
            m.shed_shutdown.fetch_add(1, Ordering::Relaxed);
            tagged(
                503,
                wire::render_error("server is shutting down"),
                Some(RETRY_AFTER_SECS),
            )
        }
        // The batcher answers every queued request, so a disconnect
        // means the thread died with this request in flight. Answer
        // 500 (the client may retry — distillation is idempotent) and
        // restart the batcher as a last resort.
        Err(RecvTimeoutError::Disconnected) => {
            m.distill_panics.fetch_add(1, Ordering::Relaxed);
            shared.batcher.revive();
            tagged(
                500,
                wire::render_error("batcher died mid-batch, safe to retry"),
                None,
            )
        }
        // No reply within the backstop: presume the batcher stuck.
        // Never leave the client hanging.
        Err(RecvTimeoutError::Timeout) => {
            m.distill_timeouts.fetch_add(1, Ordering::Relaxed);
            tagged(
                500,
                wire::render_error("no batcher reply within backstop, safe to retry"),
                None,
            )
        }
    }
}

fn healthz_body(shared: &Shared) -> String {
    // The health check doubles as the batcher watchdog: a dead batcher
    // thread (a panic that escaped the per-batch catch) is restarted
    // here as a last resort, so probes heal the server even when no
    // distill traffic is around to notice the corpse.
    if !shared.batcher.is_alive() {
        shared.batcher.revive();
    }
    format!(
        "{{\"status\":\"ok\",\"batcher_alive\":{},\"pool_threads\":{},\"queued\":{},\"batch_max\":{},\"queue_capacity\":{},\"max_requests_per_conn\":{},\"uptime_seconds\":{},\"build_info\":{}}}",
        shared.batcher.is_alive(),
        gced_par::effective_parallelism(),
        shared.batcher.queued(),
        shared.config.batch_max,
        shared.config.queue_capacity,
        shared.config.max_requests_per_conn,
        shared.started.elapsed().as_secs(),
        build_info(),
    )
}

/// Crate version and compiled feature set, under `build_info` in both
/// `/healthz` and `/metrics`.
fn build_info() -> String {
    format!(
        "{{\"version\":\"{}\",\"features\":{{\"chaos\":{}}}}}",
        env!("CARGO_PKG_VERSION"),
        cfg!(feature = "chaos"),
    )
}

fn metrics_body(shared: &Shared) -> String {
    let mut extra = vec![
        (
            "pool_threads",
            gced_par::effective_parallelism().to_string(),
        ),
        ("queued", shared.batcher.queued().to_string()),
        ("batch_max", shared.config.batch_max.to_string()),
        ("queue_capacity", shared.config.queue_capacity.to_string()),
        ("flush_us", shared.config.flush.as_micros().to_string()),
        (
            "max_requests_per_conn",
            shared.config.max_requests_per_conn.to_string(),
        ),
        (
            "request_deadline_ms",
            shared.config.request_deadline.as_millis().to_string(),
        ),
        (
            "read_deadline_ms",
            shared.config.read_deadline.as_millis().to_string(),
        ),
        (
            "uptime_seconds",
            shared.started.elapsed().as_secs().to_string(),
        ),
        ("build_info", build_info()),
        ("trace", shared.config.trace.to_string()),
        (
            "flight_recorded_total",
            shared.recorder.recorded_total().to_string(),
        ),
        (
            "warmup",
            format!(
                "{{\"docs\":{},\"sentences\":{}}}",
                shared.warmup.docs, shared.warmup.sentences
            ),
        ),
    ];
    if let Some(stats) = shared.gced.parse_cache_stats() {
        let mut hit_rate = String::new();
        let lookups = stats.hits + stats.misses;
        gced_datasets::json::push_f64(
            &mut hit_rate,
            if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            },
        );
        extra.push((
            "parse_cache",
            format!(
                "{{\"hits\":{},\"misses\":{},\"len\":{},\"capacity\":{},\"hit_rate\":{}}}",
                stats.hits, stats.misses, stats.len, stats.capacity, hit_rate
            ),
        ));
    }
    let cache_cfg = shared.store.config();
    extra.push((
        "cache",
        format!(
            "{{\"enabled\":{},\"entries\":{},\"bytes\":{},\"ttl_ops\":{},\"shards\":{},\"len\":{},\"bytes_used\":{}}}",
            shared.store.enabled(),
            cache_cfg.entries,
            cache_cfg.bytes,
            cache_cfg.ttl_ops,
            shared.store.shard_count(),
            shared.store.len(),
            shared.store.bytes_used(),
        ),
    ));
    if !shared.faults.is_empty() {
        extra.push(("faults", shared.faults.render_json()));
    }
    shared.metrics.render(&extra)
}
