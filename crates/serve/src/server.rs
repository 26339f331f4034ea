//! The `spp serve` daemon: admission → scheduler → governed workers.
//!
//! One process-wide [`SppCache`] is shared by every request; memory is
//! governed by giving each concurrent worker an equal slice of the
//! server budget as its per-request hard budget (the governed ladder
//! resets its byte account per rung, so a literally shared account would
//! let one request charge another's rungs). Under memory pressure a
//! request degrades down the rung ladder instead of failing: when a
//! budget is configured, `exact` requests are promoted to `governed`
//! so overload shows up as [`spp_core::MinimizeResponse::rung`] — never
//! as a dropped request.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spp_core::{
    execute, CacheConfig, CancelToken, ErrorFrame, Event, EventSink, ExecEnv, FsyncPolicy,
    MinimizeMode, MinimizeRequest, NullSink, RunCtx, SppCache, WireErrorKind, SCHEMA_VERSION,
};
use spp_obs::config::resolve_knob;
use spp_obs::json::Json;

use crate::protocol::{read_frame_deadline, write_frame, FrameError};
use crate::scheduler::{AdmitError, Scheduler};

/// Configuration of a [`Server`]. `Default` gives a loopback ephemeral
/// port, one worker per core, a 1024-deep queue and no memory budget;
/// [`ServeConfig::from_env`] layers the `SPP_SERVE_*` knobs on top.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address (default `127.0.0.1:0` — loopback, ephemeral port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded queue depth across all priority lanes; admission beyond
    /// this is refused with an `overloaded` error frame.
    pub queue_cap: usize,
    /// Process-wide memory budget, in MiB; each worker gets an equal
    /// slice as its per-request hard budget, and `exact` requests are
    /// promoted to `governed` so the budget degrades rather than kills.
    pub mem_budget_mb: Option<u64>,
    /// Worker threads given to each request's own generation/covering
    /// parallelism (default 1: concurrency comes from the pool).
    pub threads_per_request: usize,
    /// Server-side cap on any request's deadline, in milliseconds.
    pub deadline_cap_ms: Option<u64>,
    /// In-memory result-cache budget, in MiB; 0 disables the cache.
    pub cache_mb: u64,
    /// Directory of the persistent result cache, safe to share between
    /// concurrent server processes; `None` keeps the cache memory-only.
    /// Scanned (and corrupt entries quarantined) on startup.
    pub cache_dir: Option<PathBuf>,
    /// Durability policy of the persistent cache.
    pub fsync: FsyncPolicy,
    /// Close a connection that has sent no frame and has no responses
    /// pending for this long, in milliseconds (`None` = never; the
    /// default). The close is announced with a typed `timeout` frame.
    pub idle_timeout_ms: Option<u64>,
    /// Budget for a client that *started* a frame and stalled mid-send,
    /// and the per-connection write timeout, in milliseconds. Exceeding
    /// it earns a typed `timeout` frame and a close (a mid-frame stall
    /// desynchronizes the stream).
    pub stall_timeout_ms: u64,
    /// Supervisor grace period, in milliseconds: how far past its
    /// deadline an in-flight request may run before the worker is
    /// cooperatively cancelled, and how long after *that* before the
    /// request is reclaimed (requeued once, else answered with a typed
    /// `timeout` error).
    pub stall_grace_ms: u64,
    /// Sink receiving the `serve_*` lifecycle events.
    pub sink: Arc<dyn EventSink>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            queue_cap: 1024,
            mem_budget_mb: None,
            threads_per_request: 1,
            deadline_cap_ms: None,
            cache_mb: 64,
            cache_dir: None,
            fsync: FsyncPolicy::Never,
            idle_timeout_ms: None,
            stall_timeout_ms: 5_000,
            stall_grace_ms: 2_000,
            sink: Arc::new(NullSink),
        }
    }
}

impl ServeConfig {
    /// Defaults with the environment knobs applied: `SPP_SERVE_ADDR`,
    /// `SPP_SERVE_WORKERS`, `SPP_SERVE_QUEUE_CAP` and `SPP_SERVE_MEM_MB`.
    /// Invalid values warn once (on stderr) and fall back, like every
    /// other `SPP_*` knob.
    #[must_use]
    pub fn from_env() -> Self {
        let default = ServeConfig::default();
        let addr = resolve_knob(
            "SPP_SERVE_ADDR",
            |s| (!s.is_empty()).then(|| s.to_owned()),
            "127.0.0.1:0 (ephemeral port)",
            || default.addr.clone(),
        );
        let workers = resolve_knob(
            "SPP_SERVE_WORKERS",
            spp_obs::config::parse_positive_usize,
            "one worker per core",
            || default.workers,
        );
        let queue_cap = resolve_knob(
            "SPP_SERVE_QUEUE_CAP",
            spp_obs::config::parse_positive_usize,
            "1024",
            || default.queue_cap,
        );
        let mem_budget_mb = resolve_knob(
            "SPP_SERVE_MEM_MB",
            |s| spp_obs::config::parse_nonzero_u64(s).map(Some),
            "no budget",
            || None,
        );
        ServeConfig { addr, workers, queue_cap, mem_budget_mb, ..default }
    }
}

/// Counters shared across the accept loop, readers and workers.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    /// Panicked workers brought back by the supervisor.
    restarts: AtomicU64,
    /// Requests reclaimed from a wedged worker and requeued.
    requeues: AtomicU64,
    /// Requests answered with a typed `timeout` error by the supervisor.
    timeouts: AtomicU64,
}

/// The supervisor's window into one worker: a liveness flag, a heartbeat
/// (stamped when the worker picks up or finishes work) and the request it
/// is currently executing, if any.
struct WorkerSlot {
    alive: AtomicBool,
    /// Milliseconds since server start of the last heartbeat stamp.
    heartbeat_ms: AtomicU64,
    active: Mutex<Option<ActiveJob>>,
}

impl Default for WorkerSlot {
    fn default() -> Self {
        WorkerSlot {
            alive: AtomicBool::new(true),
            heartbeat_ms: AtomicU64::new(0),
            active: Mutex::new(None),
        }
    }
}

/// Everything the supervisor needs to reclaim an in-flight request from a
/// wedged worker: enough to requeue a twin or answer with a typed error.
struct ActiveJob {
    id: String,
    req: MinimizeRequest,
    writer: Arc<Mutex<TcpStream>>,
    pending: Arc<AtomicU64>,
    responded: Arc<AtomicBool>,
    cancel: CancelToken,
    /// The request's effective deadline; `None` = may run forever (the
    /// supervisor then never intervenes).
    deadline_at: Option<Instant>,
    lane: usize,
    /// Set on a requeued twin: a request is reclaimed at most once.
    requeued: bool,
    /// When the supervisor cooperatively cancelled this job.
    cancelled_at: Option<Instant>,
}

struct Shared {
    scheduler: Scheduler<Job>,
    cache: Option<SppCache>,
    drain: CancelToken,
    sink: Arc<dyn EventSink>,
    counters: Counters,
    config: ServeConfig,
    started_at: Instant,
    workers: Vec<WorkerSlot>,
}

struct Job {
    req: MinimizeRequest,
    writer: Arc<Mutex<TcpStream>>,
    pending: Arc<AtomicU64>,
    queued_at: Instant,
    /// One-shot response guard shared between a job and any requeued
    /// twin: whoever flips it first answers the client; everyone else
    /// stays silent. This is the "exactly one typed response" invariant.
    responded: Arc<AtomicBool>,
    /// Whether this job is a requeued twin (never reclaimed again).
    requeued: bool,
}

/// A running `spp serve` daemon. Dropping the handle does NOT stop the
/// server; call [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let cache = (config.cache_mb > 0 || config.cache_dir.is_some()).then(|| {
            let mut cc = CacheConfig::default()
                .with_byte_budget(config.cache_mb.max(1) << 20)
                .with_fsync(config.fsync);
            if let Some(dir) = &config.cache_dir {
                cc = cc.with_dir(dir);
            }
            let cache = SppCache::new(cc);
            // Startup recovery: quarantine anything corrupt *before* the
            // first request can trip over it (self-healing, never fatal).
            cache.recover(&RunCtx::new().with_sink(Arc::clone(&config.sink)));
            cache
        });
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(config.queue_cap),
            cache,
            drain: CancelToken::new(),
            sink: Arc::clone(&config.sink),
            counters: Counters::default(),
            config,
            started_at: Instant::now(),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
        });
        let mut worker_handles = Vec::new();
        for i in 0..workers {
            worker_handles.push(Some(spawn_worker(&shared, i)?));
        }
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("spp-serve-supervisor".to_owned())
                    .spawn(move || supervisor_loop(&shared, worker_handles))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("spp-serve-accept".to_owned())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        Ok(Server { local_addr, shared, threads })
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts the drain: no new connections or admissions, the cancel
    /// token asks every in-flight session to unwind to its verified
    /// best-so-far form, and queued requests still run (instantly
    /// best-so-far under the cancelled token) — every admitted request
    /// gets a response.
    pub fn shutdown(&self) {
        start_drain(&self.shared);
    }

    /// Whether the drain has started — via [`Server::shutdown`] or the
    /// wire `shutdown` op. The CLI serve loop polls this so a wire-side
    /// shutdown also ends the process.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.scheduler.is_draining()
    }

    /// Waits for the drain to complete and every server thread to exit.
    /// Implies nothing about readers: connections close as their clients
    /// disconnect or observe the drain.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Convenience for tests and the CLI: shutdown + join.
    pub fn stop(self) {
        self.shutdown();
        self.join();
    }
}

/// Cancels everything: drain the scheduler, cancel the drain token, and
/// cancel every in-flight job's own token so running requests unwind to
/// their verified best-so-far answers.
fn start_drain(shared: &Shared) {
    let (in_flight, queued) = shared.scheduler.drain();
    shared.sink.emit(&Event::ServeDraining { in_flight, queued });
    shared.drain.cancel();
    for slot in &shared.workers {
        if let Ok(active) = slot.active.lock() {
            if let Some(job) = active.as_ref() {
                job.cancel.cancel();
            }
        }
    }
}

/// Heartbeat ages in ms (now − last stamp), one per worker.
fn heartbeat_ages(shared: &Shared) -> String {
    let now_ms = shared.started_at.elapsed().as_millis() as u64;
    let ages: Vec<String> = shared
        .workers
        .iter()
        .map(|w| now_ms.saturating_sub(w.heartbeat_ms.load(Ordering::Relaxed)).to_string())
        .collect();
    format!("[{}]", ages.join(","))
}

fn lanes_json(shared: &Shared) -> String {
    let [high, normal, low] = shared.scheduler.lane_depths();
    format!("[{high},{normal},{low}]")
}

fn stats_json(shared: &Shared) -> String {
    let cache = match &shared.cache {
        Some(cache) => cache.stats().to_json(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"op\":\"stats\",\"v\":{},\"workers\":{},\"queue_cap\":{},\"queued\":{},\
         \"in_flight\":{},\"accepted\":{},\"completed\":{},\"rejected\":{},\
         \"draining\":{},\"lanes\":{},\"uptime_ms\":{},\"heartbeat_ms\":{},\
         \"restarts\":{},\"requeues\":{},\"timeouts\":{},\"cache\":{}}}",
        SCHEMA_VERSION,
        shared.config.workers,
        shared.config.queue_cap,
        shared.scheduler.queued(),
        shared.scheduler.in_flight(),
        shared.counters.accepted.load(Ordering::Relaxed),
        shared.counters.completed.load(Ordering::Relaxed),
        shared.counters.rejected.load(Ordering::Relaxed),
        shared.scheduler.is_draining(),
        lanes_json(shared),
        shared.started_at.elapsed().as_millis(),
        heartbeat_ages(shared),
        shared.counters.restarts.load(Ordering::Relaxed),
        shared.counters.requeues.load(Ordering::Relaxed),
        shared.counters.timeouts.load(Ordering::Relaxed),
        cache,
    )
}

/// The `{"op":"health"}` readiness probe: cheap, lock-light, and honest
/// about degradation — `"ok"` only when every worker is alive and the
/// server is not draining.
fn health_json(shared: &Shared) -> String {
    let workers = shared.workers.len();
    let alive = shared.workers.iter().filter(|w| w.alive.load(Ordering::Relaxed)).count();
    let draining = shared.scheduler.is_draining();
    let status = if draining {
        "draining"
    } else if alive < workers {
        "degraded"
    } else {
        "ok"
    };
    let cache = match &shared.cache {
        Some(cache) => cache.stats().to_json(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"op\":\"health\",\"v\":{},\"status\":\"{}\",\"workers\":{},\"alive\":{},\
         \"uptime_ms\":{},\"lanes\":{},\"queued\":{},\"in_flight\":{},\
         \"heartbeat_ms\":{},\"cache\":{}}}",
        SCHEMA_VERSION,
        status,
        workers,
        alive,
        shared.started_at.elapsed().as_millis(),
        lanes_json(shared),
        shared.scheduler.queued(),
        shared.scheduler.in_flight(),
        heartbeat_ages(shared),
        cache,
    )
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.scheduler.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("spp-serve-conn".to_owned())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Let workers finish the queue before join() returns.
    shared.scheduler.wait_idle();
}

fn send(writer: &Mutex<TcpStream>, payload: &str) {
    if let Ok(mut stream) = writer.lock() {
        let _ = write_frame(&mut *stream, payload);
    }
}

/// Half-closes the write side and drains unread client bytes, so the
/// close never turns into an RST that destroys the final frame in flight.
fn close_gracefully(writer: &Mutex<TcpStream>, reader: &mut TcpStream) {
    if let Ok(writer) = writer.lock() {
        let _ = writer.shutdown(std::net::Shutdown::Write);
    }
    let mut sink = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(reader, &mut sink) {
        if n == 0 {
            break;
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // A read timeout keeps the reader responsive to drain even when the
    // client never sends another frame.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // A write timeout bounds how long a response can block on a client
    // that stopped reading (a stalled *receiver*).
    let _ = stream
        .set_write_timeout(Some(Duration::from_millis(shared.config.stall_timeout_ms.max(1))));
    // Frames are written whole; waiting for ACKs between them only adds
    // Nagle latency to pipelined responses.
    let _ = stream.set_nodelay(true);
    let writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    }));
    let pending = Arc::new(AtomicU64::new(0));
    let stall = Duration::from_millis(shared.config.stall_timeout_ms.max(1));
    let idle_cutoff = shared.config.idle_timeout_ms.map(Duration::from_millis);
    let mut last_frame = Instant::now();
    let mut reader = stream;
    loop {
        match read_frame_deadline(&mut reader, Some(stall)) {
            Ok(text) => {
                last_frame = Instant::now();
                handle_frame(&text, shared, &writer, &pending);
            }
            Err(FrameError::Idle) => {
                // Connections idle out once the drain finished their
                // pending responses.
                if shared.scheduler.is_draining() && pending.load(Ordering::Acquire) == 0 {
                    return;
                }
                // An idle cutoff only applies with nothing in flight: a
                // client quietly waiting for its answers is not idle.
                if let Some(cutoff) = idle_cutoff {
                    if pending.load(Ordering::Acquire) == 0 && last_frame.elapsed() > cutoff {
                        send(
                            &writer,
                            &ErrorFrame::new(
                                WireErrorKind::Timeout,
                                format!(
                                    "idle connection closed after {} ms without a frame",
                                    cutoff.as_millis()
                                ),
                            )
                            .to_json(),
                        );
                        close_gracefully(&writer, &mut reader);
                        return;
                    }
                }
            }
            Err(FrameError::Stalled) => {
                // The frame can never be completed: answer, then close.
                send(
                    &writer,
                    &ErrorFrame::new(
                        WireErrorKind::Timeout,
                        format!(
                            "frame stalled mid-send past the {} ms budget",
                            stall.as_millis()
                        ),
                    )
                    .to_json(),
                );
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                close_gracefully(&writer, &mut reader);
                return;
            }
            Err(FrameError::Utf8) => {
                // The stream is still framed: answer and keep serving.
                send(
                    &writer,
                    &ErrorFrame::new(WireErrorKind::BadFrame, "frame payload is not valid UTF-8")
                        .to_json(),
                );
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(FrameError::TooLarge(len)) => {
                // Cannot resync after a bad length: answer, then close.
                send(
                    &writer,
                    &ErrorFrame::new(
                        WireErrorKind::BadFrame,
                        format!(
                            "declared frame length {len} exceeds the {}-byte cap",
                            crate::protocol::MAX_FRAME
                        ),
                    )
                    .to_json(),
                );
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                close_gracefully(&writer, &mut reader);
                return;
            }
            Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) => return,
        }
    }
}

fn handle_frame(
    text: &str,
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    pending: &Arc<AtomicU64>,
) {
    // Control messages carry an `op` field and bypass the scheduler.
    if let Ok(json) = Json::parse(text) {
        if let Some(op) = json.get("op").and_then(Json::as_str) {
            match op {
                "ping" => send(writer, &format!("{{\"op\":\"pong\",\"v\":{SCHEMA_VERSION}}}")),
                "stats" => send(writer, &stats_json(shared)),
                "health" => send(writer, &health_json(shared)),
                "shutdown" => {
                    start_drain(shared);
                    send(writer, &format!("{{\"op\":\"draining\",\"v\":{SCHEMA_VERSION}}}"));
                }
                other => send(
                    writer,
                    &ErrorFrame::new(WireErrorKind::BadRequest, format!("unknown op {other:?}"))
                        .to_json(),
                ),
            }
            return;
        }
    }
    let req = match MinimizeRequest::from_json(text) {
        Ok(req) => req,
        Err(frame) => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            send(writer, &frame.to_json());
            return;
        }
    };
    let id = req.id.clone();
    let lane = req.priority.lane();
    let priority = req.priority.as_str();
    pending.fetch_add(1, Ordering::AcqRel);
    let job = Job {
        req,
        writer: Arc::clone(writer),
        pending: Arc::clone(pending),
        queued_at: Instant::now(),
        responded: Arc::new(AtomicBool::new(false)),
        requeued: false,
    };
    match shared.scheduler.submit(lane, job) {
        Ok(depth) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            shared.sink.emit(&Event::ServeRequestQueued { id, priority, depth });
        }
        Err(admit) => {
            pending.fetch_sub(1, Ordering::AcqRel);
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let (kind, reason) = match admit {
                AdmitError::Overloaded { depth } => (
                    WireErrorKind::Overloaded,
                    format!("queue full ({depth} requests queued)"),
                ),
                AdmitError::ShuttingDown => {
                    (WireErrorKind::ShuttingDown, "server is draining".to_owned())
                }
            };
            shared
                .sink
                .emit(&Event::ServeRequestRejected { id: id.clone(), reason: reason.clone() });
            send(writer, &ErrorFrame::new(kind, reason).with_id(id).to_json());
        }
    }
}

fn exec_env(shared: &Shared, cancel: CancelToken) -> ExecEnv {
    ExecEnv {
        cache: shared.cache.clone(),
        cancel: Some(cancel),
        sink: None,
        deadline_at: shared
            .config
            .deadline_cap_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        mem_soft: None,
        // Each concurrent worker gets an equal slice of the server
        // budget; the session's plan executor resets the byte account
        // before every entrant (each ladder rung, each raced form), so a
        // literally shared governor would mix requests' accounts.
        mem_hard: shared
            .config
            .mem_budget_mb
            .map(|mb| (mb << 20) / shared.config.workers.max(1) as u64),
        threads_default: Some(shared.config.threads_per_request.max(1)),
    }
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("spp-serve-worker-{index}"))
        .spawn(move || worker_loop(&shared, index))
}

/// Sends `payload` iff this caller wins the request's one-shot response
/// guard; the winner also settles the counters and the connection's
/// pending balance. Returns whether this caller won.
fn respond_once(
    shared: &Shared,
    responded: &AtomicBool,
    pending: &AtomicU64,
    writer: &Mutex<TcpStream>,
    payload: &str,
    completed: bool,
) -> bool {
    if responded.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_err() {
        return false;
    }
    if completed {
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }
    send(writer, payload);
    pending.fetch_sub(1, Ordering::AcqRel);
    true
}

fn stamp_heartbeat(shared: &Shared, index: usize) {
    shared.workers[index]
        .heartbeat_ms
        .store(shared.started_at.elapsed().as_millis() as u64, Ordering::Relaxed);
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    stamp_heartbeat(shared, index);
    while let Some(job) = shared.scheduler.next() {
        stamp_heartbeat(shared, index);
        run_one(shared, index, job);
        stamp_heartbeat(shared, index);
        shared.scheduler.finish();
        // Chaos hook: `serve.worker` fires *between* jobs, where a panic
        // kills the thread without losing a response — exactly the crash
        // the supervisor's restart path must absorb.
        RunCtx::new().failpoint("serve.worker");
    }
}

fn run_one(shared: &Arc<Shared>, index: usize, job: Job) {
    let Job { mut req, writer, pending, queued_at, responded, requeued } = job;
    // A requeued twin whose original already answered: nothing to do.
    if responded.load(Ordering::Acquire) {
        return;
    }
    let waited = queued_at.elapsed();
    shared.sink.emit(&Event::ServeRequestStarted { id: req.id.clone(), waited });
    // Degrade-not-error: under a server memory budget, exact requests
    // ride the governed ladder so pressure lowers the rung instead of
    // truncating the answer.
    if shared.config.mem_budget_mb.is_some() && req.mode == MinimizeMode::Exact {
        req.mode = MinimizeMode::Governed;
    }
    // Per-job cancellation: the drain cancels every active token (via
    // `start_drain`), and the supervisor cancels a single wedged job
    // without touching its neighbours.
    let cancel = CancelToken::new();
    if shared.drain.is_cancelled() {
        cancel.cancel();
    }
    let env = exec_env(shared, cancel.clone());
    // The same effective deadline `execute` will enforce, recomputed here
    // so the supervisor knows when overrun starts.
    let deadline_at = env.effective_deadline(&req);
    {
        let active = ActiveJob {
            id: req.id.clone(),
            req: req.clone(),
            writer: Arc::clone(&writer),
            pending: Arc::clone(&pending),
            responded: Arc::clone(&responded),
            cancel,
            deadline_at,
            lane: req.priority.lane(),
            requeued,
            cancelled_at: None,
        };
        if let Ok(mut slot) = shared.workers[index].active.lock() {
            *slot = Some(active);
        }
    }
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(&req, &env)));
    // Publish the result *before* clearing the slot: once the slot is
    // empty the supervisor will never answer for us.
    match outcome {
        Ok(Ok(executed)) => {
            let response = executed.response;
            if respond_once(shared, &responded, &pending, &writer, &response.to_json(), true) {
                shared.sink.emit(&Event::ServeRequestFinished {
                    id: response.id.clone(),
                    outcome: response.outcome,
                    rung: response.rung,
                    wall: response.wall,
                });
            }
        }
        Ok(Err(frame)) => {
            if respond_once(shared, &responded, &pending, &writer, &frame.to_json(), false) {
                shared.sink.emit(&Event::ServeRequestRejected {
                    id: req.id.clone(),
                    reason: frame.kind.as_str().to_owned(),
                });
            }
        }
        Err(_) => {
            // Worker survives a panicking request; the client still
            // gets a typed answer.
            let frame = ErrorFrame::new(
                WireErrorKind::Internal,
                format!("request execution panicked after {:?}", started.elapsed()),
            )
            .with_id(req.id.clone());
            if respond_once(shared, &responded, &pending, &writer, &frame.to_json(), false) {
                shared.sink.emit(&Event::ServeRequestRejected {
                    id: req.id.clone(),
                    reason: "internal panic".to_owned(),
                });
            }
        }
    }
    if let Ok(mut slot) = shared.workers[index].active.lock() {
        *slot = None;
    }
}

/// The worker supervisor: restarts panicked workers, cooperatively
/// cancels requests that overran their deadline, and reclaims requests
/// from wedged workers — requeueing each at most once, else answering
/// with a typed `timeout` error. Exits once the drain has fully
/// completed, after joining every worker.
fn supervisor_loop(shared: &Arc<Shared>, mut handles: Vec<Option<std::thread::JoinHandle<()>>>) {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        for (index, handle) in handles.iter_mut().enumerate() {
            if handle.as_ref().is_some_and(std::thread::JoinHandle::is_finished) {
                let _ = handle.take().expect("checked above").join();
                reclaim_orphan(shared, index);
                // A worker only exits *normally* once the scheduler is
                // draining and its queue is empty; any other exit is a
                // death the supervisor must repair to keep the drain
                // contract ("every admitted request gets a response").
                let finished_cleanly =
                    shared.scheduler.is_draining() && shared.scheduler.queued() == 0;
                if finished_cleanly {
                    shared.workers[index].alive.store(false, Ordering::Relaxed);
                } else {
                    match spawn_worker(shared, index) {
                        Ok(h) => {
                            *handle = Some(h);
                            shared.workers[index].alive.store(true, Ordering::Relaxed);
                            shared.counters.restarts.fetch_add(1, Ordering::Relaxed);
                            shared.sink.emit(&Event::ServeWorkerRestarted { worker: index });
                        }
                        Err(_) => shared.workers[index].alive.store(false, Ordering::Relaxed),
                    }
                }
            }
        }
        scan_stalls(shared);
        if shared.scheduler.is_draining()
            && shared.scheduler.queued() == 0
            && shared.scheduler.in_flight() == 0
            && handles.iter().all(Option::is_none)
        {
            return;
        }
    }
}

/// Belt and braces: if a worker died *while holding a job* (a panic that
/// escaped `catch_unwind`'s coverage), answer the orphan with a typed
/// internal error and settle the scheduler's in-flight account.
fn reclaim_orphan(shared: &Arc<Shared>, index: usize) {
    let orphan = shared.workers[index].active.lock().ok().and_then(|mut slot| slot.take());
    if let Some(job) = orphan {
        let frame = ErrorFrame::new(WireErrorKind::Internal, "worker died mid-request")
            .with_id(job.id.clone());
        if respond_once(shared, &job.responded, &job.pending, &job.writer, &frame.to_json(), false)
        {
            shared.sink.emit(&Event::ServeRequestRejected {
                id: job.id,
                reason: "worker died".to_owned(),
            });
        }
        shared.scheduler.finish();
    }
}

/// One supervisor pass over the active jobs: cancel what has overrun its
/// deadline past the grace period, reclaim what ignored the cancel for
/// another grace period.
fn scan_stalls(shared: &Arc<Shared>) {
    let grace = Duration::from_millis(shared.config.stall_grace_ms.max(1));
    let now = Instant::now();
    for (index, slot) in shared.workers.iter().enumerate() {
        let reclaimed = {
            let Ok(mut active) = slot.active.lock() else { continue };
            let Some(job) = active.as_mut() else { continue };
            let Some(deadline) = job.deadline_at else { continue };
            match job.cancelled_at {
                None if now > deadline + grace => {
                    // Deadline overrun: `execute` should have unwound on
                    // its own by now. Ask it to, cooperatively.
                    job.cancel.cancel();
                    job.cancelled_at = Some(now);
                    shared.sink.emit(&Event::ServeWorkerStalled {
                        worker: index,
                        id: job.id.clone(),
                        overrun: now - deadline,
                    });
                    None
                }
                Some(cancelled_at) if now > cancelled_at + grace => {
                    // The worker ignored the cancel for a whole grace
                    // period: it is wedged. Take the job away.
                    active.take()
                }
                _ => None,
            }
        };
        if let Some(job) = reclaimed {
            reclaim_wedged(shared, index, job);
        }
    }
}

/// Requeues a reclaimed request exactly once (at-most-once semantics);
/// an already-requeued or drain-refused request gets a typed `timeout`
/// error instead. The wedged worker itself keeps running — if it ever
/// completes, the one-shot response guard keeps it silent when someone
/// else already answered.
fn reclaim_wedged(shared: &Arc<Shared>, index: usize, job: ActiveJob) {
    if !job.requeued {
        let twin = Job {
            req: job.req.clone(),
            writer: Arc::clone(&job.writer),
            pending: Arc::clone(&job.pending),
            queued_at: Instant::now(),
            responded: Arc::clone(&job.responded),
            requeued: true,
        };
        if shared.scheduler.requeue(job.lane, twin).is_ok() {
            shared.counters.requeues.fetch_add(1, Ordering::Relaxed);
            shared
                .sink
                .emit(&Event::ServeRequestRequeued { id: job.id.clone(), worker: index });
            return;
        }
        // Draining: no re-execution, fall through to the typed error.
    }
    let frame = ErrorFrame::new(
        WireErrorKind::Timeout,
        "request overran its deadline and its worker did not yield",
    )
    .with_id(job.id.clone());
    if respond_once(shared, &job.responded, &job.pending, &job.writer, &frame.to_json(), false) {
        shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        shared.sink.emit(&Event::ServeRequestRejected {
            id: job.id,
            reason: "timeout".to_owned(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use spp_core::MinimizeResponse;

    fn xor_request(id: &str) -> MinimizeRequest {
        MinimizeRequest::new(id, ".i 2\n.o 1\n01 1\n10 1\n.e\n").with_mode(MinimizeMode::Exact)
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        write_frame(stream, payload).unwrap();
        read_frame(stream).unwrap()
    }

    #[test]
    fn serves_a_request_and_control_ops_end_to_end() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let pong = roundtrip(&mut conn, "{\"op\":\"ping\"}");
        assert!(pong.contains("\"pong\""), "{pong}");
        let resp = roundtrip(&mut conn, &xor_request("t1").to_json());
        let resp = MinimizeResponse::from_json(&resp).unwrap();
        assert_eq!(resp.id, "t1");
        assert_eq!(resp.outputs[0].form, "(x0⊕x1)");
        assert!(resp.verified);
        let stats = roundtrip(&mut conn, "{\"op\":\"stats\"}");
        assert!(stats.contains("\"completed\":1"), "{stats}");
        server.stop();
    }

    #[test]
    fn shutdown_op_drains_and_refuses_new_work() {
        let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let ack = roundtrip(&mut conn, "{\"op\":\"shutdown\"}");
        assert!(ack.contains("draining"), "{ack}");
        write_frame(&mut conn, &xor_request("late").to_json()).unwrap();
        let reply = read_frame(&mut conn).unwrap();
        let frame = ErrorFrame::from_json(&reply).expect("an error frame");
        assert_eq!(frame.kind, WireErrorKind::ShuttingDown);
        server.join();
    }

    #[test]
    fn overload_is_a_typed_error_not_a_drop() {
        // Zero-capacity queue isn't allowed (min 1), so fill it with a
        // request that waits behind a slow one.
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // A deliberately heavier request occupies the worker.
        let slow = MinimizeRequest::new("slow", crate::loadgen::workload_pla(0, 8));
        write_frame(&mut conn, &slow.to_json()).unwrap();
        // Burst until something is refused: with one worker and one slot,
        // the third concurrent submission must shed.
        let mut overloaded = 0;
        let mut responses = 0;
        for i in 0..8 {
            write_frame(&mut conn, &xor_request(&format!("b{i}")).to_json()).unwrap();
        }
        for _ in 0..9 {
            let reply = read_frame(&mut conn).unwrap();
            if let Some(frame) = ErrorFrame::from_json(&reply) {
                assert_eq!(frame.kind, WireErrorKind::Overloaded);
                overloaded += 1;
            } else {
                assert!(MinimizeResponse::from_json(&reply).unwrap().verified);
                responses += 1;
            }
        }
        assert!(overloaded > 0, "no overload observed");
        assert!(responses > 0, "no responses observed");
        server.stop();
    }
}
