//! # server — analysis-as-a-service for the ethainter pipeline
//!
//! `ethainter serve` turns the batch analyzer into a long-lived daemon:
//! a zero-dependency HTTP/1.1 + JSON server on [`std::net::TcpListener`]
//! with an async job queue in front of the existing [`driver`] isolation
//! machinery and one [`store::SharedCache`] behind every request.
//!
//! ```text
//!   POST /jobs ──▶ registry.create ──▶ bounded JobQueue ──▶ worker 0..N
//!                      │                    │ full? 429          │
//!   GET /jobs/<id> ◀── registry ◀───────────┴── complete ◀───────┤
//!                                                                │
//!   GET /metrics  ◀── telemetry::metrics (live Prometheus text)  │
//!   GET /healthz  ◀── queue depth + job counts                   │
//!   GET /cache/stats ◀──────── SharedCache ◀── get_or_compute ◀──┘
//! ```
//!
//! ## Routes
//!
//! - `POST /jobs` — body [`api::JobRequest`] (hex bytecode + optional
//!   config patch) → 202 [`api::JobAccepted`] with a job id. Queue
//!   full → 429; draining → 503; bad input → 400; oversized → 413.
//! - `GET /jobs/<id>` — [`api::JobStatusBody`]: `queued`, `running`,
//!   or `done` with the full report (the same [`driver::Outcome`]
//!   record a batch run writes per JSONL line, witness included when
//!   requested).
//! - `GET /jobs/<id>/trace` — [`api::TraceBody`]: the job's complete
//!   span tree (trace id == job id), assembled from the per-trace span
//!   store with self-time per phase; 410 after eviction.
//! - `GET /events[?since=<seq>[&wait_ms=<ms>]]` — [`api::EventsBody`]:
//!   the structured event feed (lifecycle, slow jobs, cache errors).
//!   With `since`, long-polls until something newer arrives.
//! - `GET /healthz` — [`api::Health`] liveness + queue/job counts.
//! - `GET /metrics` — the live global metric registry as Prometheus
//!   text ([`telemetry::metrics::snapshot`]), scrapeable mid-run.
//! - `GET /cache/stats` — [`api::CacheStatsBody`] for the shared
//!   cache (404 when the daemon runs cacheless).
//!
//! ## What each piece guarantees
//!
//! - **Isolation** — every job runs through [`driver::analyze_job`]:
//!   the same sandbox thread + `catch_unwind` + cooperative-deadline
//!   watchdog as batch mode, so a looping or panicking contract costs
//!   one job, never the daemon.
//! - **Cache sharing** — all workers answer out of one
//!   [`store::SharedCache`]; N concurrent submissions of the same
//!   bytecode+config cost exactly one fresh analysis (single-flight),
//!   and a re-submission after restart hits the on-disk segment.
//! - **Backpressure** — the queue is bounded ([`ServerConfig::
//!   queue_depth`]); acceptors never block on workers, they answer 429
//!   and the client retries.
//! - **Graceful shutdown** — [`ServerHandle::shutdown`] (wired to
//!   SIGINT by the CLI) stops accepting *new* jobs (503), drains every
//!   accepted one, keeps `GET` routes alive so pollers can collect
//!   results during the drain, then flushes the cache segment stats
//!   and the span trace.

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod jobs;
pub mod queue;

use jobs::{JobId, JobState, Registry};
use queue::{JobQueue, PushError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection may dribble one request before being dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Ceiling of the accept-loop's idle backoff (the listener is
/// non-blocking so shutdown can interrupt it; under load the loop
/// re-polls immediately, so this bounds only idle wakeups).
const ACCEPT_POLL_MAX: Duration = Duration::from_millis(5);

/// Daemon settings.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8547`; port 0 picks a free port.
    pub addr: String,
    /// Analysis worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bound on queued (accepted, unclaimed) jobs; beyond it → 429.
    pub queue_depth: usize,
    /// Per-job wall-clock budget (the driver isolation timeout).
    pub timeout: Duration,
    /// Maximum request body size in bytes; beyond it → 413.
    pub max_body: usize,
    /// Directory for the shared content-addressed result cache;
    /// `None` runs cacheless (every job is a fresh analysis).
    pub cache_dir: Option<String>,
    /// Bound on retained `Done` records (`--max-done`): beyond it the
    /// oldest completed job ages out and its id answers `410 Gone`.
    pub max_done: usize,
    /// Base analysis configuration; per-job patches apply on top.
    pub analysis: ethainter::Config,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8547".to_string(),
            workers: 0,
            queue_depth: 256,
            timeout: Duration::from_secs(120),
            max_body: 4 * 1024 * 1024,
            cache_dir: None,
            max_done: Registry::DEFAULT_MAX_DONE,
            analysis: ethainter::Config::default(),
        }
    }
}

/// One accepted unit of work flowing acceptor → queue → worker.
struct JobSpec {
    id: JobId,
    label: String,
    bytecode: Vec<u8>,
    analysis: ethainter::Config,
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    registry: Registry,
    job_queue: JobQueue<JobSpec>,
    cache: Option<Arc<store::SharedCache>>,
    config: ServerConfig,
    /// Set first during shutdown: new submissions → 503, GETs live on.
    draining: AtomicBool,
    /// Set last: the accept loop exits.
    stopped: AtomicBool,
}

/// The daemon entry point; [`Server::start`] returns a handle.
pub struct Server;

/// A running daemon: the bound address plus the threads behind it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// What a graceful shutdown drained.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Jobs in the terminal state at exit.
    pub jobs_done: u64,
    /// True when every accepted job reached the terminal state — the
    /// "SIGINT loses no accepted job" invariant.
    pub drained_cleanly: bool,
}

impl Server {
    /// Binds the listener, spawns the worker pool and the accept loop,
    /// and returns a handle. Fails on bind errors or an unopenable
    /// cache directory.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("binding {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;

        let cache = match &config.cache_dir {
            Some(dir) => Some(Arc::new(store::SharedCache::open(dir)?)),
            None => None,
        };
        let worker_count = match config.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        let shared = Arc::new(Shared {
            registry: Registry::new(config.max_done),
            job_queue: JobQueue::new(config.queue_depth),
            cache,
            config,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .map_err(|e| format!("spawning worker: {e}"))?,
            );
        }
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&listener, &s))
                .map_err(|e| format!("spawning accept loop: {e}"))?
        };
        telemetry::metrics::gauge("ethainter_server_workers").set(worker_count as i64);
        telemetry::events::emit(
            telemetry::events::Severity::Info,
            "server_started",
            None,
            vec![("workers".to_string(), worker_count as u64)],
        );
        Ok(ServerHandle { addr, shared, accept: Some(accept), workers })
    }
}

impl ServerHandle {
    /// The bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` for the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Snapshot of per-state job counts.
    pub fn job_counts(&self) -> jobs::JobCounts {
        self.shared.registry.counts()
    }

    /// Point-in-time stats of the shared cache, if one is configured.
    pub fn cache_stats(&self) -> Option<store::CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }

    /// The shared cache the workers answer from, if one is configured.
    /// In-process consumers (tests, embedders) can take single-flight
    /// claims on it — the daemon's workers then cooperate with them
    /// exactly as they do with each other.
    pub fn cache(&self) -> Option<Arc<store::SharedCache>> {
        self.shared.cache.clone()
    }

    /// Graceful shutdown: refuse new submissions (503), drain every
    /// accepted job through the workers, keep `GET` routes serving
    /// until the drain finishes, then stop the accept loop, persist
    /// the cache stats, and flush any installed span writer.
    pub fn shutdown(mut self) -> ShutdownReport {
        telemetry::events::emit(
            telemetry::events::Severity::Info,
            "server_draining",
            None,
            vec![("queued".to_string(), self.shared.registry.counts().queued)],
        );
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.job_queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        if let Some(cache) = &self.shared.cache {
            if let Err(e) = cache.persist_stats() {
                eprintln!("warning: persisting cache stats: {e}");
            }
        }
        telemetry::flush_spans();
        let counts = self.shared.registry.counts();
        ShutdownReport {
            jobs_done: self.shared.registry.completed_total(),
            drained_cleanly: counts.queued == 0 && counts.running == 0,
        }
    }
}

/// The worker loop: claim, analyze (through the shared cache when
/// configured), record, repeat — until the queue closes and drains.
///
/// Each claimed job installs its [`telemetry::trace`] context (trace id
/// == job id) and runs under a `server.job` root span, so everything
/// the analysis records — across the sandbox thread hop included —
/// assembles into one tree `GET /jobs/<id>/trace` can serve.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.job_queue.pop() {
        telemetry::metrics::gauge("ethainter_server_queue_depth")
            .set(shared.job_queue.len() as i64);
        let wait_ms = shared.registry.mark_running(job.id);
        telemetry::metrics::histogram("ethainter_server_job_wait_ms").observe(wait_ms);
        telemetry::metrics::gauge("ethainter_server_jobs_running").add(1);

        let trace = telemetry::trace::TraceId(job.id.0);
        let ctx = telemetry::trace::root(trace);
        let sp_job = telemetry::span("server.job");

        let driver_cfg = driver::DriverConfig { jobs: 1, timeout: shared.config.timeout };
        let (outcome, cached) = match &shared.cache {
            Some(cache) => {
                let key = store::cache_key(&job.bytecode, &job.analysis);
                let label = job.label.clone();
                let analysis = job.analysis;
                let bytecode = job.bytecode;
                let got = cache.get_or_compute(key, move || {
                    let o = driver::analyze_job(&label, bytecode, &driver_cfg, &analysis);
                    store::CachedResult { status: o.status, elapsed_ms: o.elapsed_ms }
                });
                if let Some(e) = &got.put_error {
                    eprintln!("warning: cache append failed: {e}");
                    telemetry::metrics::counter("ethainter_server_cache_put_errors_total").inc();
                    telemetry::events::emit(
                        telemetry::events::Severity::Error,
                        format!("cache_put_failed: {e}"),
                        Some(trace),
                        vec![],
                    );
                }
                let outcome = driver::Outcome {
                    index: 0,
                    id: job.label,
                    status: got.result.status,
                    elapsed_ms: got.result.elapsed_ms,
                };
                (outcome, !got.fresh)
            }
            None => {
                (driver::analyze_job(&job.label, job.bytecode, &driver_cfg, &job.analysis), false)
            }
        };
        if cached {
            telemetry::metrics::counter("ethainter_server_jobs_cached_total").inc();
        }
        // Close the root span (and release the context) *before* the
        // job goes `Done`, so a trace fetched right after completion
        // already contains the fully assembled tree.
        let _job_us = sp_job.finish_us();
        drop(ctx);
        let phase_fields = phase_breakdown(&outcome.status);
        telemetry::metrics::gauge("ethainter_server_jobs_running").add(-1);

        // Slow-job detection compares against the p99 *before* this
        // sample lands (a job cannot dilute the threshold it is judged
        // by), and only once enough history exists to mean anything.
        let latency = telemetry::metrics::histogram("ethainter_server_job_latency_ms");
        let before = latency.snapshot();
        let total_ms = shared.registry.complete(job.id, outcome, cached);
        latency.observe(total_ms);
        telemetry::metrics::counter("ethainter_server_jobs_completed_total").inc();
        if before.count >= SLOW_JOB_MIN_SAMPLES && total_ms > before.quantile(0.99) {
            telemetry::metrics::counter("ethainter_server_jobs_slow_total").inc();
            let mut fields = phase_fields;
            fields.push(("wait_ms".to_string(), wait_ms));
            fields.push(("total_ms".to_string(), total_ms));
            telemetry::events::emit(
                telemetry::events::Severity::Warn,
                "slow_job",
                Some(trace),
                fields,
            );
        }
    }
}

/// Samples `ethainter_server_job_latency_ms` must hold before the
/// slow-job comparison fires — a p99 over three jobs is noise.
const SLOW_JOB_MIN_SAMPLES: u64 = 16;

/// The per-phase timing fields a `slow_job` event attaches, pulled from
/// an analyzed outcome (empty for failed/timed-out jobs — the event's
/// `total_ms` still tells the story).
fn phase_breakdown(status: &driver::Status) -> Vec<(String, u64)> {
    let driver::Status::Analyzed { timings, .. } = status else {
        return Vec::new();
    };
    let mut fields = vec![
        ("decompile_us".to_string(), timings.decompile_us),
        ("index_build_us".to_string(), timings.index_build_us),
        ("fixpoint_us".to_string(), timings.fixpoint_us),
        ("sink_scan_us".to_string(), timings.sink_scan_us),
        ("analysis_total_us".to_string(), timings.total_us),
    ];
    if let Some((detectors_us, effects_us, composite_us)) = timings.sink_scan_breakdown() {
        fields.push(("detectors_us".to_string(), detectors_us));
        fields.push(("effects_us".to_string(), effects_us));
        fields.push(("composite_us".to_string(), composite_us));
    }
    fields
}

/// Polls the non-blocking listener, handing each connection to a short
/// detached handler thread (one request per connection). The poll
/// backoff is adaptive: an accepted connection resets it to re-poll
/// immediately (accept latency under load ≈ 0), and consecutive idle
/// polls double it up to [`ACCEPT_POLL_MAX`] (idle CPU ≈ 0).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut backoff = Duration::from_micros(250);
    loop {
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_micros(250);
                telemetry::metrics::counter("ethainter_server_connections_total").inc();
                let s = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_connection(&s, stream));
                if spawned.is_err() {
                    telemetry::metrics::counter("ethainter_server_spawn_errors_total").inc();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_POLL_MAX);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL_MAX),
        }
    }
}

/// Reads one request, routes it, writes one response.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let req = match http::read_request(&mut stream, shared.config.max_body, READ_TIMEOUT) {
        Ok(r) => r,
        Err(http::RequestError::TooLarge { limit }) => {
            telemetry::metrics::counter("ethainter_server_rejected_total").inc();
            http::respond_json(
                &mut stream,
                413,
                &api::ErrorBody::json(format!("request body exceeds {limit} bytes")),
            );
            return;
        }
        Err(http::RequestError::BadRequest(msg)) => {
            http::respond_json(&mut stream, 400, &api::ErrorBody::json(msg));
            return;
        }
        Err(http::RequestError::Io(_)) => return, // peer gone; nothing to say
    };
    telemetry::metrics::counter("ethainter_server_requests_total").inc();

    // Split the query string off the path: `/events?since=3` routes as
    // `/events` with `since=3` available to the handler.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };

    match (req.method.as_str(), path) {
        ("POST", "/jobs") => submit_job(shared, &mut stream, &req.body),
        ("GET", p)
            if p.starts_with("/jobs/")
                && p.ends_with("/trace")
                && p.len() >= "/jobs/".len() + "/trace".len() =>
        {
            let id = &p["/jobs/".len()..p.len() - "/trace".len()];
            job_trace(shared, &mut stream, id);
        }
        ("GET", p) if p.strip_prefix("/jobs/").is_some() => {
            let id = p.strip_prefix("/jobs/").unwrap_or("");
            job_status(shared, &mut stream, id);
        }
        ("GET", "/events") => events(&mut stream, query),
        ("GET", "/healthz") => healthz(shared, &mut stream),
        ("GET", "/metrics") => {
            let text = telemetry::metrics::snapshot().to_prometheus();
            http::respond(&mut stream, 200, "text/plain; version=0.0.4", text.as_bytes());
        }
        ("GET", "/cache/stats") => cache_stats(shared, &mut stream),
        (method, "/jobs" | "/events" | "/healthz" | "/metrics" | "/cache/stats") => {
            http::respond_json(
                &mut stream,
                405,
                &api::ErrorBody::json(format!("method {method} not allowed here")),
            );
        }
        (_, path) => {
            http::respond_json(
                &mut stream,
                404,
                &api::ErrorBody::json(format!("no route for `{path}`")),
            );
        }
    }
}

/// `POST /jobs`: parse, validate, register, enqueue — or push back.
fn submit_job(shared: &Arc<Shared>, stream: &mut TcpStream, body: &[u8]) {
    if shared.draining.load(Ordering::SeqCst) {
        http::respond_json(stream, 503, &api::ErrorBody::json("daemon is draining"));
        return;
    }
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            http::respond_json(stream, 400, &api::ErrorBody::json("body is not UTF-8"));
            return;
        }
    };
    let request: api::JobRequest = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => {
            http::respond_json(stream, 400, &api::ErrorBody::json(format!("bad JSON: {e}")));
            return;
        }
    };
    let bytecode = match store::parse_hex(&request.bytecode) {
        Ok(b) if !b.is_empty() => b,
        Ok(_) => {
            http::respond_json(stream, 400, &api::ErrorBody::json("empty bytecode"));
            return;
        }
        Err(e) => {
            http::respond_json(stream, 400, &api::ErrorBody::json(e));
            return;
        }
    };
    let analysis = match &request.config {
        Some(patch) => patch.apply(&shared.config.analysis),
        None => shared.config.analysis,
    };

    let id = shared.registry.create();
    // Retain the job's trace from the moment it exists: spans recorded
    // while it is still queued (none today, but the store is the
    // contract) and everything the worker records land in its buffer.
    telemetry::trace::retain(telemetry::trace::TraceId(id.0));
    let label = request.id.clone().unwrap_or_else(|| id.to_string());
    let spec = JobSpec { id, label, bytecode, analysis };
    match shared.job_queue.try_push(spec) {
        Ok(depth) => {
            telemetry::metrics::gauge("ethainter_server_queue_depth").set(depth as i64);
            telemetry::metrics::counter("ethainter_server_jobs_submitted_total").inc();
            let body = api::JobAccepted { id: id.to_string(), state: "queued".to_string() };
            http::respond_json(
                stream,
                202,
                &serde_json::to_string(&body).unwrap_or_default(),
            );
        }
        Err(PushError::Full(_)) => {
            shared.registry.forget(id);
            telemetry::trace::discard(telemetry::trace::TraceId(id.0));
            telemetry::metrics::counter("ethainter_server_rejected_total").inc();
            http::respond_json(
                stream,
                429,
                &api::ErrorBody::json(format!(
                    "queue full ({} jobs); retry later",
                    shared.job_queue.capacity()
                )),
            );
        }
        Err(PushError::Closed(_)) => {
            shared.registry.forget(id);
            telemetry::trace::discard(telemetry::trace::TraceId(id.0));
            http::respond_json(stream, 503, &api::ErrorBody::json("daemon is draining"));
        }
    }
}

/// `GET /jobs/<id>`: the registry record, shaped for the wire.
fn job_status(shared: &Arc<Shared>, stream: &mut TcpStream, id_text: &str) {
    let id = match JobId::parse(id_text) {
        Ok(id) => id,
        Err(e) => {
            http::respond_json(stream, 400, &api::ErrorBody::json(e));
            return;
        }
    };
    let record = match shared.registry.lookup(id) {
        jobs::Lookup::Found(rec) => rec,
        jobs::Lookup::Evicted => {
            http::respond_json(
                stream,
                410,
                &api::ErrorBody::json(format!("job {id} completed but its record was evicted")),
            );
            return;
        }
        jobs::Lookup::Unknown => {
            http::respond_json(stream, 404, &api::ErrorBody::json(format!("no job {id}")));
            return;
        }
    };
    let body = match record.state {
        JobState::Queued => api::JobStatusBody {
            id: id.to_string(),
            state: "queued".to_string(),
            wait_ms: None,
            total_ms: None,
            cached: None,
            report: None,
        },
        JobState::Running { wait_ms } => api::JobStatusBody {
            id: id.to_string(),
            state: "running".to_string(),
            wait_ms: Some(wait_ms),
            total_ms: None,
            cached: None,
            report: None,
        },
        JobState::Done { outcome, cached, wait_ms, total_ms } => api::JobStatusBody {
            id: id.to_string(),
            state: "done".to_string(),
            wait_ms: Some(wait_ms),
            total_ms: Some(total_ms),
            cached: Some(cached),
            report: Some(outcome),
        },
    };
    match serde_json::to_string(&body) {
        Ok(json) => http::respond_json(stream, 200, &json),
        Err(e) => http::respond_json(stream, 500, &api::ErrorBody::json(e.to_string())),
    }
}

/// `GET /jobs/<id>/trace`: the job's span tree, assembled on demand
/// from the per-trace store. Served at any lifecycle state — a trace
/// fetched mid-run is a prefix of the final tree, and the `state`
/// field says which you got.
fn job_trace(shared: &Arc<Shared>, stream: &mut TcpStream, id_text: &str) {
    let id = match JobId::parse(id_text) {
        Ok(id) => id,
        Err(e) => {
            http::respond_json(stream, 400, &api::ErrorBody::json(e));
            return;
        }
    };
    let state = match shared.registry.lookup(id) {
        jobs::Lookup::Found(rec) => match rec.state {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
        },
        jobs::Lookup::Evicted => {
            http::respond_json(
                stream,
                410,
                &api::ErrorBody::json(format!("job {id} completed but its trace was evicted")),
            );
            return;
        }
        jobs::Lookup::Unknown => {
            http::respond_json(stream, 404, &api::ErrorBody::json(format!("no job {id}")));
            return;
        }
    };
    let records = telemetry::trace::spans_for(telemetry::trace::TraceId(id.0))
        .unwrap_or_default();
    let body = api::TraceBody {
        id: id.to_string(),
        state: state.to_string(),
        span_count: records.len() as u64,
        spans: telemetry::trace::build_tree(&records),
    };
    match serde_json::to_string(&body) {
        Ok(json) => http::respond_json(stream, 200, &json),
        Err(e) => http::respond_json(stream, 500, &api::ErrorBody::json(e.to_string())),
    }
}

/// Ceiling on a `GET /events` long-poll, whatever `wait_ms` asks for —
/// the connection read timeout must never fire first on the client.
const EVENTS_WAIT_MAX: Duration = Duration::from_millis(30_000);
/// Default long-poll window when `since` is given without `wait_ms`.
const EVENTS_WAIT_DEFAULT: Duration = Duration::from_millis(15_000);

/// `GET /events[?since=<seq>[&wait_ms=<ms>]]`: a page of the event
/// feed. Without `since` it answers immediately with everything
/// buffered (curl-friendly); with `since` it long-polls until an event
/// newer than the cursor arrives or the window lapses.
fn events(stream: &mut TcpStream, query: &str) {
    let mut since: Option<u64> = None;
    let mut wait = EVENTS_WAIT_DEFAULT;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "since" => match value.parse::<u64>() {
                Ok(v) => since = Some(v),
                Err(_) => {
                    http::respond_json(
                        stream,
                        400,
                        &api::ErrorBody::json(format!("bad since `{value}`")),
                    );
                    return;
                }
            },
            "wait_ms" => match value.parse::<u64>() {
                Ok(ms) => wait = Duration::from_millis(ms).min(EVENTS_WAIT_MAX),
                Err(_) => {
                    http::respond_json(
                        stream,
                        400,
                        &api::ErrorBody::json(format!("bad wait_ms `{value}`")),
                    );
                    return;
                }
            },
            other => {
                http::respond_json(
                    stream,
                    400,
                    &api::ErrorBody::json(format!("unknown query parameter `{other}`")),
                );
                return;
            }
        }
    }
    let (events, latest) = match since {
        None => telemetry::events::events_since(0),
        Some(cursor) => telemetry::events::wait_events_since(cursor, wait),
    };
    let body = api::EventsBody { latest, events };
    match serde_json::to_string(&body) {
        Ok(json) => http::respond_json(stream, 200, &json),
        Err(e) => http::respond_json(stream, 500, &api::ErrorBody::json(e.to_string())),
    }
}

/// `GET /healthz`: liveness + queue/job counts.
fn healthz(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let counts = shared.registry.counts();
    let body = api::Health {
        status: if shared.draining.load(Ordering::SeqCst) { "draining" } else { "ok" }
            .to_string(),
        queued: counts.queued,
        running: counts.running,
        done: counts.done,
        workers: telemetry::metrics::gauge("ethainter_server_workers").get() as u64,
        queue_capacity: shared.job_queue.capacity() as u64,
        cache: shared.cache.is_some(),
    };
    http::respond_json(stream, 200, &serde_json::to_string(&body).unwrap_or_default());
}

/// `GET /cache/stats`: the shared schema, straight off the live cache.
fn cache_stats(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let Some(cache) = &shared.cache else {
        http::respond_json(stream, 404, &api::ErrorBody::json("no cache configured"));
        return;
    };
    let stats = cache.stats();
    let (analyzed, failed) = cache.status_breakdown();
    let body = api::CacheStatsBody::new(&stats, analyzed, failed);
    http::respond_json(stream, 200, &serde_json::to_string(&body).unwrap_or_default());
}

// ---------------------------------------------------------------------
// SIGINT plumbing (no signal crate: one libc call through the C ABI).

static SIGINT_RECEIVED: AtomicBool = AtomicBool::new(false);

/// The C-ABI handler: just flip the flag — everything else (drain,
/// flush) happens on the main thread, where it is safe.
unsafe extern "C" fn on_sigint(_signum: i32) {
    SIGINT_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs the SIGINT → [`sigint_received`] flag handler (Unix only;
/// a no-op elsewhere). Idempotent.
#[cfg(unix)]
pub fn install_sigint_handler() {
    /// `signal(2)`'s handler type.
    type SigHandler = unsafe extern "C" fn(i32);
    extern "C" {
        /// The previous disposition may be `SIG_DFL` (null), which a
        /// Rust fn pointer cannot hold — the return is left opaque.
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Installs the SIGINT flag handler (non-Unix stub: never fires).
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

/// True once SIGINT has been delivered since process start.
pub fn sigint_received() -> bool {
    SIGINT_RECEIVED.load(Ordering::SeqCst)
}
