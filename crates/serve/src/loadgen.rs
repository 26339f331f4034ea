//! The `spp-loadgen` driver: deterministic open/closed-loop load against
//! a running `spp serve` daemon.
//!
//! Workloads are derived from a seeded LCG, so two runs against the same
//! server are identical — and the `keys` knob bounds the number of
//! *distinct* functions, giving realistic cross-request cache-hit rates
//! (key reuse is how production minimization traffic behaves: the same
//! blocks come back).
//!
//! The closed loop (default) measures true request latency: each of
//! `concurrency` connections keeps up to `in_flight` requests pipelined
//! (1 by default — the classical closed loop), matching replies by id.
//! The open loop paces sends at a fixed aggregate rate regardless of
//! completions (pipelined on each connection) and measures the latency
//! each send actually experienced — the right side of the latency/load
//! curve admission control is supposed to protect.
//!
//! `edit_rate` mixes in *edit* requests — a key's base function with a
//! few minterms flipped — reproducing the incremental-resubmission
//! traffic the server answers by delta-splicing cached generation levels.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spp_core::{ErrorFrame, MinimizeMode, MinimizeRequest, MinimizeResponse, Priority};
use spp_obs::json::Json;

use crate::protocol::{read_frame, write_frame, FrameError};

/// Configuration of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent connections.
    pub concurrency: usize,
    /// Closed-loop requests kept in flight *per connection* (pipelined on
    /// the same stream); total in-flight is `concurrency × in_flight`.
    pub in_flight: usize,
    /// Out of every 100 requests, how many are *edits*: the key's base
    /// function with [`edit_flips`](Self::edit_flips) minterms flipped.
    /// Edits model the incremental-resubmission traffic the server's
    /// delta path answers by splicing. 0 disables edits.
    pub edit_rate: u64,
    /// Minterms flipped per edit (Hamming distance of the edit).
    pub edit_flips: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Distinct functions in the workload; requests cycle through them,
    /// so `requests / keys` is the expected reuse factor.
    pub keys: usize,
    /// Input variables of each workload function (work grows steeply
    /// with this).
    pub vars: usize,
    /// Synthesis mode requested.
    pub mode: MinimizeMode,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Client-side reply timeout (closed loop): how long a connection
    /// waits for *any* reply before treating the wait as a timeout and
    /// entering the retry path. `None` waits forever (the drain contract
    /// guarantees every admitted request an answer; this knob is for
    /// chaos runs where the server may be wedged on purpose).
    pub timeout_ms: Option<u64>,
    /// Reconnect-and-resend attempts per connection before the worker
    /// gives up and retires its pending requests as errors. Retries back
    /// off exponentially with deterministic jitter.
    pub retries: u32,
    /// Open-loop aggregate send rate (requests/second); `None` runs the
    /// closed loop.
    pub open_rps: Option<u64>,
    /// Cycle requests through high/normal/low priorities instead of all
    /// normal.
    pub mix_priorities: bool,
    /// Workload seed.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            concurrency: 8,
            in_flight: 1,
            edit_rate: 0,
            edit_flips: 1,
            requests: 64,
            keys: 8,
            vars: 5,
            mode: MinimizeMode::Governed,
            deadline_ms: None,
            timeout_ms: None,
            retries: 3,
            open_rps: None,
            mix_priorities: false,
            seed: 0x5bd1_e995,
        }
    }
}

/// What a load-generation run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: usize,
    /// Responses received (every one carries a verified flag).
    pub completed: usize,
    /// Typed error frames received (overload, shutdown, …) plus requests
    /// retired client-side (timeouts with retries exhausted), so
    /// `sent == completed + errors` always holds.
    pub errors: usize,
    /// Requests retired by the client-side reply timeout (a subset of
    /// [`errors`](Self::errors)).
    pub timeouts: usize,
    /// Reconnect-and-resend rounds across all connections.
    pub retries: usize,
    /// Responses whose rung degraded below exact.
    pub degraded: usize,
    /// Responses that reported independent verification.
    pub verified: usize,
    /// Median response latency, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response latency, in milliseconds.
    pub p99_ms: f64,
    /// Worst response latency, in milliseconds.
    pub max_ms: f64,
    /// Whole-run wall clock.
    pub wall: Duration,
    /// Completed responses per second of wall clock.
    pub throughput_rps: f64,
    /// Server cache hit rate over the whole run (`hits / (hits+misses)`,
    /// from the `stats` op), when the server has a cache.
    pub cache_hit_rate: Option<f64>,
}

impl LoadgenReport {
    /// The report as one JSON object (what `spp-loadgen --json` prints).
    #[must_use]
    pub fn to_json(&self, concurrency: usize) -> String {
        let hit_rate = match self.cache_hit_rate {
            Some(rate) => format!("{rate:.4}"),
            None => "null".to_owned(),
        };
        format!(
            "{{\"requests\": {}, \"concurrency\": {}, \"completed\": {}, \"errors\": {}, \
             \"timeouts\": {}, \"retries\": {}, \
             \"degraded\": {}, \"verified\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"throughput_rps\": {:.1}, \"cache_hit_rate\": {}}}",
            self.sent,
            concurrency,
            self.completed,
            self.errors,
            self.timeouts,
            self.retries,
            self.degraded,
            self.verified,
            self.p50_ms,
            self.p99_ms,
            self.max_ms,
            self.throughput_rps,
            hit_rate,
        )
    }
}

/// The dense minterm membership of the workload function for `seed`:
/// one flag per point of `{0,1}^vars`, derived by a 64-bit LCG (~3/8
/// minterm density, never empty).
fn workload_bits(seed: u64, vars: usize) -> Vec<bool> {
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) | 1;
    let mut bits = vec![false; 1 << vars];
    let mut any = false;
    for flag in bits.iter_mut() {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        // Top bits of an LCG are the good ones: ~3/8 density.
        if (state >> 61) < 3 {
            any = true;
            *flag = true;
        }
    }
    if !any {
        bits[(seed as usize) & ((1 << vars) - 1)] = true;
    }
    bits
}

fn render_pla(bits: &[bool], vars: usize) -> String {
    let mut rows = String::new();
    for (minterm, &on) in bits.iter().enumerate() {
        if on {
            push_row(&mut rows, minterm as u32, vars);
        }
    }
    format!(".i {vars}\n.o 1\n{rows}.e\n")
}

/// A deterministic single-output PLA over `vars` inputs, derived from
/// `seed` by a 64-bit LCG (~3/8 minterm density, never empty). Same seed,
/// same text — the property the cache-reuse knob and the bit-identical
/// integration checks rest on.
#[must_use]
pub fn workload_pla(seed: u64, vars: usize) -> String {
    let vars = vars.clamp(1, 16);
    render_pla(&workload_bits(seed, vars), vars)
}

/// [`workload_pla`] with exactly `flips` distinct minterms flipped — a
/// deterministic *edit* of the base workload function, at Hamming
/// distance `flips` from it. `variant` selects which edit: the same
/// `(seed, flips, variant)` always produces the same text, so a stream of
/// edits re-submits the same few siblings, exactly the traffic shape the
/// server's delta-splice path exists for.
#[must_use]
pub fn workload_pla_edited(seed: u64, vars: usize, flips: usize, variant: u64) -> String {
    let vars = vars.clamp(1, 16);
    let mut bits = workload_bits(seed, vars);
    let mut on_count = bits.iter().filter(|&&b| b).count();
    let mut changed = vec![false; bits.len()];
    let mut state =
        (seed ^ variant.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(variant) | 1;
    let mut flipped = 0;
    // Bounded walk: each round either flips a fresh minterm or skips a
    // point that is already flipped (or is the last ON minterm — the
    // workload function must never go empty).
    for _ in 0..4096 {
        if flipped >= flips {
            break;
        }
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let i = (state >> 32) as usize % bits.len();
        if changed[i] || (bits[i] && on_count == 1) {
            continue;
        }
        changed[i] = true;
        bits[i] = !bits[i];
        on_count = if bits[i] { on_count + 1 } else { on_count - 1 };
        flipped += 1;
    }
    render_pla(&bits, vars)
}

fn push_row(rows: &mut String, minterm: u32, vars: usize) {
    for bit in (0..vars).rev() {
        rows.push(if minterm >> bit & 1 == 1 { '1' } else { '0' });
    }
    rows.push_str(" 1\n");
}

/// The request the loadgen sends for global request index `idx` — public
/// so integration tests can replay the exact same request through the
/// local one-shot path and compare answers bit for bit.
#[must_use]
pub fn workload_request(config: &LoadgenConfig, idx: usize) -> MinimizeRequest {
    let key = idx % config.keys.max(1);
    let base_seed = config.seed.wrapping_add(key as u64);
    // The first `edit_rate` of every 100 requests are edits; all edits in
    // the same block of 100 share a variant, so the same few siblings
    // recur (the shape delta splicing rewards).
    let pla = if config.edit_rate > 0 && (idx as u64 % 100) < config.edit_rate {
        workload_pla_edited(
            base_seed,
            config.vars,
            config.edit_flips.max(1),
            idx as u64 / 100,
        )
    } else {
        workload_pla(base_seed, config.vars)
    };
    let mut req = MinimizeRequest::new(format!("lg-{idx}"), pla).with_mode(config.mode);
    if let Some(ms) = config.deadline_ms {
        req = req.with_deadline_ms(ms);
    }
    if config.mix_priorities {
        req = req.with_priority(match idx % 3 {
            0 => Priority::Normal,
            1 => Priority::High,
            _ => Priority::Low,
        });
    }
    req
}

#[derive(Default)]
struct WorkerTally {
    latencies_ms: Vec<f64>,
    completed: usize,
    errors: usize,
    timeouts: usize,
    retries: usize,
    degraded: usize,
    verified: usize,
    sent: usize,
}

fn classify(reply: &str, tally: &mut WorkerTally) {
    if ErrorFrame::from_json(reply).is_some() {
        tally.errors += 1;
        return;
    }
    match MinimizeResponse::from_json(reply) {
        Ok(resp) => {
            tally.completed += 1;
            if resp.is_degraded() {
                tally.degraded += 1;
            }
            if resp.verified {
                tally.verified += 1;
            }
        }
        Err(_) => tally.errors += 1,
    }
}

/// Connects with exponential backoff: under a 1k-connection burst the
/// listener's accept backlog can overflow, which on loopback surfaces as
/// refused or reset connections — transient by construction, since the
/// accept loop drains the backlog continuously.
fn connect_with_retry(addr: &str) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(10);
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            // No read timeout: the closed loop is patient by design — on a
            // saturated single-worker daemon the tail of the queue waits as
            // long as it takes, and the drain contract guarantees every
            // admitted request an answer. A dead peer surfaces as FIN/RST,
            // never a silent hang, so a blocking read cannot wedge.
            Ok(conn) => {
                let _ = conn.set_nodelay(true);
                return Ok(conn);
            }
            Err(e) if attempt >= 8 => return Err(e),
            Err(_) => {
                attempt += 1;
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
        }
    }
}

/// Maps a frame-level failure to an `io::Error` that keeps the kind
/// meaningful: connection-level kinds stay retryable, protocol-level
/// failures (truncation, bad UTF-8) become `InvalidData` and abort.
fn frame_io_error(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        FrameError::Closed => {
            io::Error::new(io::ErrorKind::ConnectionReset, "connection closed mid-exchange")
        }
        // A read timeout before a frame starts: the client-side reply
        // timeout fired (only reachable with `timeout_ms` configured).
        FrameError::Idle => {
            io::Error::new(io::ErrorKind::TimedOut, "no reply within the client timeout")
        }
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Deterministic backoff-with-jitter for retry round `attempt` (0-based):
/// 10 ms doubling per round, plus an LCG jitter of up to half the base —
/// the classic decorrelation that keeps a fleet of retrying clients from
/// hammering a recovering server in lockstep.
fn backoff_delay(seed: u64, worker: usize, attempt: u32) -> Duration {
    let base_ms = 10u64.saturating_mul(1 << attempt.min(10));
    let mut state = seed
        .wrapping_add(worker as u64)
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(u64::from(attempt));
    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    let jitter_ms = (state >> 33) % (base_ms / 2).max(1);
    Duration::from_millis(base_ms + jitter_ms)
}

/// Only connection-level failures justify a reconnect-and-resend: the
/// accept-backlog overflow that produces them never admitted the request,
/// so resending cannot duplicate work the daemon already accepted.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// One in-flight request: its wire frame (kept for resend after a
/// reconnect) and the first-send clock (kept across resends, so a retried
/// request reports the latency the caller actually experienced).
struct Pending {
    frame: String,
    sent_at: Instant,
}

fn closed_loop_worker(
    addr: &str,
    config: &LoadgenConfig,
    worker: usize,
    next: &AtomicU64,
) -> io::Result<WorkerTally> {
    // Stagger the connection ramp: a simultaneous burst from every
    // worker overflows the accept backlog for no measurement benefit —
    // the closed loop's latency clock starts per request, not here.
    std::thread::sleep(Duration::from_micros(500) * worker as u32);
    let timeout = config.timeout_ms.map(|ms| Duration::from_millis(ms.max(1)));
    let mut conn = connect_with_retry(addr)?;
    let _ = conn.set_read_timeout(timeout);
    let mut tally = WorkerTally::default();
    // The multiplexing window: up to `in_flight` requests pipelined on
    // this one connection, matched to replies by id (the scheduler may
    // answer out of order under priorities). Insertion order is kept so
    // an id-less error frame can conservatively retire the oldest.
    let window = config.in_flight.max(1);
    let mut pending: Vec<(String, Pending)> = Vec::new();
    // Reconnect-and-resend on connection-level failures only: a reset
    // from an accept-backlog overflow never admitted the frames, so
    // resending every pending request cannot duplicate admitted work.
    let mut attempts = 0;
    let mut exhausted = false;
    while !exhausted || !pending.is_empty() {
        let step = (|| -> io::Result<()> {
            while !exhausted && pending.len() < window {
                let idx = next.fetch_add(1, Ordering::Relaxed) as usize;
                if idx >= config.requests {
                    exhausted = true;
                    break;
                }
                let req = workload_request(config, idx);
                let frame = req.to_json();
                tally.sent += 1;
                write_frame(&mut conn, &frame)?;
                pending.push((req.id, Pending { frame, sent_at: Instant::now() }));
            }
            if pending.is_empty() {
                return Ok(());
            }
            let reply = read_frame(&mut conn).map_err(frame_io_error)?;
            let id = Json::parse(&reply)
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_owned));
            let at = match id.and_then(|id| pending.iter().position(|(pid, _)| *pid == id)) {
                Some(i) => pending.remove(i).1.sent_at,
                // An error frame that lost the request id still answers
                // *some* pending request; retire the oldest.
                None => pending.remove(0).1.sent_at,
            };
            tally.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
            classify(&reply, &mut tally);
            attempts = 0;
            Ok(())
        })();
        if let Err(e) = step {
            let timed_out = e.kind() == io::ErrorKind::TimedOut;
            // Timeouts are only retryable because the old connection is
            // abandoned: its late replies go to a closed socket, so the
            // resend cannot double-answer (the server may redo work —
            // that is what retrying means).
            if attempts >= config.retries || !(retryable(&e) || timed_out) {
                if timed_out || retryable(&e) {
                    // Retries exhausted: retire every pending request as
                    // a client-side failure so `sent == completed +
                    // errors` survives the give-up.
                    tally.errors += pending.len();
                    if timed_out {
                        tally.timeouts += pending.len();
                    }
                    pending.clear();
                    return Ok(tally);
                }
                return Err(e);
            }
            std::thread::sleep(backoff_delay(config.seed, worker, attempts));
            attempts += 1;
            tally.retries += 1;
            conn = connect_with_retry(addr)?;
            let _ = conn.set_read_timeout(timeout);
            for (_, p) in &pending {
                write_frame(&mut conn, &p.frame)?;
            }
        }
    }
    Ok(tally)
}

fn open_loop_worker(
    addr: &str,
    config: &LoadgenConfig,
    worker: usize,
    indices: Vec<usize>,
    interval: Duration,
) -> io::Result<WorkerTally> {
    std::thread::sleep(Duration::from_micros(500) * worker as u32);
    let writer = connect_with_retry(addr)?;
    let mut reader = writer.try_clone()?;
    let sent_at: Arc<Mutex<HashMap<String, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let expect = indices.len();
    let receiver = {
        let sent_at = Arc::clone(&sent_at);
        std::thread::Builder::new()
            .name(format!("spp-loadgen-rx-{worker}"))
            .stack_size(128 << 10)
            .spawn(move || -> io::Result<WorkerTally> {
                let mut tally = WorkerTally::default();
                for _ in 0..expect {
                    let reply = read_frame(&mut reader).map_err(frame_io_error)?;
                    let id = Json::parse(&reply)
                        .ok()
                        .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_owned));
                    if let Some(at) =
                        id.and_then(|id| sent_at.lock().unwrap().remove(&id))
                    {
                        tally.latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                    }
                    classify(&reply, &mut tally);
                }
                Ok(tally)
            })?
    };
    let start = Instant::now();
    let mut writer = writer;
    let mut sent = 0;
    for (k, idx) in indices.into_iter().enumerate() {
        let due = start + interval * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let req = workload_request(config, idx);
        sent_at.lock().unwrap().insert(req.id.clone(), Instant::now());
        write_frame(&mut writer, &req.to_json())?;
        sent += 1;
    }
    let mut tally = receiver.join().map_err(|_| {
        io::Error::other("loadgen receiver thread panicked")
    })??;
    tally.sent = sent;
    Ok(tally)
}

/// Fetches `hits / (hits + misses)` from the server's `stats` op.
fn cache_hit_rate(addr: &str) -> io::Result<Option<f64>> {
    let mut conn = connect_with_retry(addr)?;
    write_frame(&mut conn, "{\"op\":\"stats\"}")?;
    let reply = read_frame(&mut conn).map_err(frame_io_error)?;
    let json = Json::parse(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let Some(cache) = json.get("cache").filter(|c| !matches!(c, Json::Null)) else {
        return Ok(None);
    };
    let hits = cache.get("hits").and_then(Json::as_f64).unwrap_or(0.0);
    let misses = cache.get("misses").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(if hits + misses > 0.0 { Some(hits / (hits + misses)) } else { Some(0.0) })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the configured load against `addr` and aggregates the report.
///
/// # Errors
///
/// Connection failures (including a server that drains mid-run hard
/// enough to close connections).
pub fn run(addr: &str, config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let concurrency = config.concurrency.max(1);
    let start = Instant::now();
    let mut handles = Vec::with_capacity(concurrency);
    if let Some(rps) = config.open_rps {
        let interval =
            Duration::from_secs_f64(concurrency as f64 / (rps.max(1) as f64));
        for w in 0..concurrency {
            let indices: Vec<usize> =
                (0..config.requests).filter(|i| i % concurrency == w).collect();
            let addr = addr.to_owned();
            let config = config.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("spp-loadgen-{w}"))
                    .stack_size(128 << 10)
                    .spawn(move || open_loop_worker(&addr, &config, w, indices, interval))?,
            );
        }
    } else {
        let next = Arc::new(AtomicU64::new(0));
        for w in 0..concurrency {
            let addr = addr.to_owned();
            let config = config.clone();
            let next = Arc::clone(&next);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("spp-loadgen-{w}"))
                    .stack_size(128 << 10)
                    .spawn(move || closed_loop_worker(&addr, &config, w, &next))?,
            );
        }
    }
    let mut latencies = Vec::with_capacity(config.requests);
    let mut report = LoadgenReport::default();
    for handle in handles {
        let tally = handle
            .join()
            .map_err(|_| io::Error::other("loadgen worker panicked"))??;
        latencies.extend(tally.latencies_ms);
        report.sent += tally.sent;
        report.completed += tally.completed;
        report.errors += tally.errors;
        report.timeouts += tally.timeouts;
        report.retries += tally.retries;
        report.degraded += tally.degraded;
        report.verified += tally.verified;
    }
    report.wall = start.elapsed();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    report.p50_ms = percentile(&latencies, 50.0);
    report.p99_ms = percentile(&latencies, 99.0);
    report.max_ms = latencies.last().copied().unwrap_or(0.0);
    report.throughput_rps = if report.wall.as_secs_f64() > 0.0 {
        report.completed as f64 / report.wall.as_secs_f64()
    } else {
        0.0
    };
    report.cache_hit_rate = cache_hit_rate(addr)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_key_bounded() {
        assert_eq!(workload_pla(7, 4), workload_pla(7, 4));
        assert_ne!(workload_pla(7, 4), workload_pla(8, 4));
        assert!(workload_pla(7, 4).starts_with(".i 4\n.o 1\n"));
        // Every workload parses as a PLA.
        for seed in 0..16 {
            assert!(spp_core::parse_pla(&workload_pla(seed, 4)).is_ok(), "seed {seed}");
        }
        // Key reuse: indices congruent mod `keys` get identical PLAs.
        let config = LoadgenConfig { keys: 3, ..LoadgenConfig::default() };
        assert_eq!(workload_request(&config, 1).pla, workload_request(&config, 4).pla);
        assert_ne!(workload_request(&config, 1).pla, workload_request(&config, 2).pla);
    }

    #[test]
    fn edited_workloads_are_deterministic_bounded_edits() {
        // Same (seed, flips, variant) → same text; different variants edit
        // differently (almost surely, and for these seeds concretely).
        assert_eq!(workload_pla_edited(7, 5, 2, 0), workload_pla_edited(7, 5, 2, 0));
        assert_ne!(workload_pla_edited(7, 5, 2, 0), workload_pla_edited(7, 5, 2, 1));
        for seed in 0..8u64 {
            for flips in [1usize, 2, 8] {
                let base = workload_pla(seed, 5);
                let edited = workload_pla_edited(seed, 5, flips, seed ^ 3);
                assert!(spp_core::parse_pla(&edited).is_ok(), "seed {seed} flips {flips}");
                // The edit is exactly `flips` minterm flips away.
                let on = |pla: &str| -> std::collections::HashSet<String> {
                    pla.lines()
                        .filter(|l| l.ends_with(" 1"))
                        .map(str::to_owned)
                        .collect()
                };
                let a = on(&base);
                let b = on(&edited);
                let distance = a.symmetric_difference(&b).count();
                assert_eq!(distance, flips, "seed {seed} flips {flips}");
            }
        }
        // An edit request and a base request for the same key differ.
        let config = LoadgenConfig { edit_rate: 50, keys: 1, ..LoadgenConfig::default() };
        assert_ne!(workload_request(&config, 0).pla, workload_request(&config, 99).pla);
        // Edits within the same block of 100 share the variant.
        assert_eq!(workload_request(&config, 0).pla, workload_request(&config, 49).pla);
    }

    #[test]
    fn percentiles_are_sane() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 51.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn report_json_has_the_bench_schema_fields() {
        let report = LoadgenReport { sent: 10, completed: 10, ..LoadgenReport::default() };
        let json = report.to_json(4);
        for field in [
            "\"requests\"",
            "\"concurrency\"",
            "\"timeouts\"",
            "\"retries\"",
            "\"p50_ms\"",
            "\"p99_ms\"",
            "\"throughput_rps\"",
            "\"cache_hit_rate\"",
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        for attempt in 0..6 {
            let d = backoff_delay(42, 3, attempt);
            assert_eq!(d, backoff_delay(42, 3, attempt), "deterministic");
            let base = 10u64 << attempt;
            // Base plus at most half the base of jitter.
            assert!(d >= Duration::from_millis(base), "attempt {attempt}: {d:?}");
            assert!(d < Duration::from_millis(base + (base / 2).max(1)), "attempt {attempt}");
        }
        // Different workers decorrelate (for these seeds, concretely).
        assert_ne!(backoff_delay(42, 0, 4), backoff_delay(42, 1, 4));
    }
}
