//! `spp` — command-line Sum-of-Pseudoproducts minimizer.
//!
//! ```text
//! spp minimize <file.pla> [options]     minimize every output of a PLA
//! spp bench <name> [options]            minimize a built-in benchmark
//! spp serve [options]                   run the minimization daemon
//! spp list                              list built-in benchmarks
//!
//! serve options (defaults come from SPP_SERVE_ADDR, SPP_SERVE_WORKERS,
//! SPP_SERVE_QUEUE_CAP and SPP_SERVE_MEM_MB):
//!   --addr HOST:PORT   listen address (default 127.0.0.1:0, an ephemeral
//!                      port, printed at startup)
//!   --workers <n>      worker pool size (default: all cores)
//!   --queue-cap <n>    admission-control queue bound; beyond it requests
//!                      get a typed `overloaded` error frame
//!   --threads <n>      worker threads per request (default 1)
//!   --mem-budget-mb <m> process-wide memory budget, sliced per worker;
//!                      overload degrades answers down the rung ladder
//!   --cache-mb <m>     shared result cache (default 64; 0 disables)
//!   --cache-dir <dir>  persist verified results to <dir>; safe to share
//!                      between concurrent spp processes (advisory file
//!                      locks + atomic writes), corrupt entries are
//!                      quarantined at startup and skipped at read time
//!   --fsync <p>        disk-cache durability: never (default) | entry
//!                      (fsync each entry file) | full (entry + directory)
//!   --deadline-ms <t>  server-side cap on every request's deadline
//!   --idle-timeout-ms <t>  close connections idle (no frame, nothing
//!                      pending) longer than <t>, with a typed `timeout`
//!                      error frame first
//!   --progress         print serve events (queued/started/finished) to
//!                      stderr
//! SIGINT or SIGTERM (or a wire `shutdown` op) drains: no new admissions,
//! every accepted request is still answered with a verified response.
//!
//! minimize/bench options:
//!   --sp               two-level SP minimization instead of SPP
//!   --2spp             restrict EXOR factors to two literals
//!   --heuristic <k>    use the SPP_k heuristic instead of the exact algorithm
//!   --form <f>         which normal form to minimize into: spp (default),
//!                      esop | dsop | sop run that single form through the
//!                      portfolio driver, portfolio races all four and keeps
//!                      the cheapest verified realization (prints the
//!                      per-form scoreboard)
//!   --objective <o>    portfolio cost function: literals (default) | gates
//!                      (two-input gates, XOR2 counted double)
//!   --multi            multi-output minimization with shared pseudoproducts
//!   --threads <n>      worker threads; wins over the SPP_THREADS env var
//!                      (default: SPP_THREADS, else all cores; 1 = the
//!                      sequential code path)
//!   --deadline-ms <t>  wall-clock budget for the whole run; on expiry every
//!                      phase unwinds to a valid best-so-far form
//!   --mem-budget-mb <m> memory-accounting budget: a hard cap of m MiB on the
//!                      pseudocube pools and covering matrix (soft cap m/2
//!                      degrades quality first). The default exact run then
//!                      descends a degradation ladder — exact → 2-SPP →
//!                      heuristic → SP — returning the first rung that fits,
//!                      always verified
//!   --cache-dir <dir>  persist verified results to <dir> and reuse them on
//!                      later runs; a second identical invocation answers
//!                      from the cache without re-minimizing
//!   --cache-mb <m>     in-memory result cache of m MiB (implied 64 MiB when
//!                      only --cache-dir is given); entries beyond the budget
//!                      are evicted least-recently-used
//!   --progress         print progress events (levels, covers) to stderr
//!   --events-json <f>  append progress events to <f> as JSON lines
//!   --verilog <mod>    print a structural Verilog module
//!   --blif <model>     print a BLIF model
//!   --quiet            only print the summary line
//! ```

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spp::boolfn::{BoolFn, Pla};
use spp::core::{
    CacheConfig, Event, EventSink, Form, JsonLinesSink, Objective, Outcome, Rung,
    SppCache, StderrSink,
};
use spp::netlist::Netlist;
use spp::serve::{ServeConfig, Server};
use spp::{execute_fns, ExecEnv, MinimizeMode, MinimizeRequest};

/// What `--form` selected: the default SPP pipeline, a single-form run
/// through the portfolio driver, or the full four-form race.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FormArg {
    Spp,
    One(Form),
    Portfolio,
}

struct Options {
    sp: bool,
    two_spp: bool,
    heuristic: Option<usize>,
    form: FormArg,
    objective: Objective,
    multi: bool,
    threads: Option<usize>,
    deadline_ms: Option<u64>,
    mem_budget_mb: Option<u64>,
    cache_dir: Option<String>,
    cache_mb: Option<u64>,
    fsync: Option<spp::core::FsyncPolicy>,
    idle_timeout_ms: Option<u64>,
    progress: bool,
    events_json: Option<String>,
    verilog: Option<String>,
    blif: Option<String>,
    quiet: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
}

/// Forwards each event to both sinks (`--progress` + `--events-json`).
struct TeeSink(Arc<dyn EventSink>, Arc<dyn EventSink>);

impl EventSink for TeeSink {
    fn emit(&self, event: &Event) {
        self.0.emit(event);
        self.1.emit(event);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spp <minimize file.pla | bench name | serve | list> \
         [--sp] [--2spp] [--heuristic k] \
         [--form spp|esop|dsop|sop|portfolio] \
         [--objective literals|gates] [--multi] [--threads n] \
         [--deadline-ms t] [--mem-budget-mb m] [--cache-dir dir] \
         [--cache-mb m] [--progress] [--events-json file] \
         [--verilog module] [--blif model] [--quiet] \
         [--addr host:port] [--workers n] [--queue-cap n] \
         [--fsync never|entry|full] [--idle-timeout-ms t]\n\
         spp serve listens on --addr (default SPP_SERVE_ADDR, else an \
         ephemeral loopback port) and drains cleanly on SIGINT/SIGTERM; \n\
         worker threads default to the SPP_THREADS env var, else all cores; \
         --threads wins over SPP_THREADS"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };

    let mut options = Options {
        sp: false,
        two_spp: false,
        heuristic: None,
        form: FormArg::Spp,
        objective: Objective::Literals,
        multi: false,
        threads: None,
        deadline_ms: None,
        mem_budget_mb: None,
        cache_dir: None,
        cache_mb: None,
        fsync: None,
        idle_timeout_ms: None,
        progress: false,
        events_json: None,
        verilog: None,
        blif: None,
        quiet: false,
        addr: None,
        workers: None,
        queue_cap: None,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sp" => options.sp = true,
            "--2spp" => options.two_spp = true,
            "--multi" => options.multi = true,
            "--quiet" => options.quiet = true,
            "--heuristic" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => options.heuristic = Some(k),
                None => return usage(),
            },
            "--form" => match it.next().map(String::as_str) {
                Some("spp") => options.form = FormArg::Spp,
                Some("portfolio") => options.form = FormArg::Portfolio,
                Some(other) => match Form::parse(other) {
                    Some(f) => options.form = FormArg::One(f),
                    None => return usage(),
                },
                None => return usage(),
            },
            "--objective" => match it.next().and_then(|v| Objective::parse(v)) {
                Some(o) => options.objective = o,
                None => return usage(),
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.threads = Some(n),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => options.deadline_ms = Some(t),
                None => return usage(),
            },
            "--mem-budget-mb" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(m) if m > 0 => options.mem_budget_mb = Some(m),
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(d) => options.cache_dir = Some(d.clone()),
                None => return usage(),
            },
            "--cache-mb" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(m) if m > 0 => options.cache_mb = Some(m),
                _ => return usage(),
            },
            "--fsync" => match it.next().and_then(|v| spp::core::FsyncPolicy::parse(v)) {
                Some(p) => options.fsync = Some(p),
                None => return usage(),
            },
            "--idle-timeout-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) if t > 0 => options.idle_timeout_ms = Some(t),
                _ => return usage(),
            },
            "--progress" => options.progress = true,
            "--events-json" => match it.next() {
                Some(f) => options.events_json = Some(f.clone()),
                None => return usage(),
            },
            "--verilog" => match it.next() {
                Some(m) => options.verilog = Some(m.clone()),
                None => return usage(),
            },
            "--blif" => match it.next() {
                Some(m) => options.blif = Some(m.clone()),
                None => return usage(),
            },
            "--addr" => match it.next() {
                Some(a) => options.addr = Some(a.clone()),
                None => return usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => options.workers = Some(n),
                _ => return usage(),
            },
            "--queue-cap" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => options.queue_cap = Some(n),
                _ => return usage(),
            },
            other if !other.starts_with("--") => positional.push(other),
            _ => return usage(),
        }
    }

    match command.as_str() {
        "list" => {
            for name in spp::benchgen::registry::ALL_NAMES {
                let c = spp::benchgen::registry::circuit(name).expect("registered");
                println!("{c} — {}", c.description());
            }
            ExitCode::SUCCESS
        }
        "minimize" => {
            let Some(path) = positional.first() else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("spp: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let pla: Pla = match text.parse() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("spp: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let labels: Vec<String> = (0..pla.num_outputs())
                .map(|j| {
                    pla.output_labels()
                        .get(j)
                        .cloned()
                        .unwrap_or_else(|| format!("f{j}"))
                })
                .collect();
            run(&pla.output_fns(), &labels, &options)
        }
        "bench" => {
            let Some(name) = positional.first() else {
                return usage();
            };
            let Some(circuit) = spp::benchgen::registry::circuit(name) else {
                eprintln!(
                    "spp: unknown benchmark {name:?}; try `spp list`"
                );
                return ExitCode::FAILURE;
            };
            let labels: Vec<String> =
                (0..circuit.outputs().len()).map(|j| format!("{name}[{j}]")).collect();
            run(circuit.outputs(), &labels, &options)
        }
        "serve" => serve(&options),
        _ => usage(),
    }
}

/// `spp serve`: start the daemon, then block until SIGINT/SIGTERM (or a
/// wire `shutdown` op) starts the drain — every accepted request is
/// still answered with a verified response before the process exits.
fn serve(options: &Options) -> ExitCode {
    // Chaos harness hook: SPP_FAILPOINTS arms deterministic fault sites
    // ("site=action[:arg][@skip],…") in failpoints-enabled builds only.
    #[cfg(feature = "failpoints")]
    if let Ok(spec) = std::env::var("SPP_FAILPOINTS") {
        if let Err(e) = spp::obs::failpoints::arm_from_spec(&spec) {
            eprintln!("spp: bad SPP_FAILPOINTS: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut config = ServeConfig::from_env();
    if let Some(addr) = &options.addr {
        config.addr = addr.clone();
    }
    if let Some(n) = options.workers {
        config.workers = n;
    }
    if let Some(n) = options.queue_cap {
        config.queue_cap = n;
    }
    if let Some(n) = options.threads {
        config.threads_per_request = n.max(1);
    }
    if options.mem_budget_mb.is_some() {
        config.mem_budget_mb = options.mem_budget_mb;
    }
    if let Some(m) = options.cache_mb {
        config.cache_mb = m;
    }
    if let Some(dir) = &options.cache_dir {
        config.cache_dir = Some(dir.into());
    }
    if let Some(policy) = options.fsync {
        config.fsync = policy;
    }
    if options.idle_timeout_ms.is_some() {
        config.idle_timeout_ms = options.idle_timeout_ms;
    }
    if options.deadline_ms.is_some() {
        config.deadline_cap_ms = options.deadline_ms;
    }
    if options.progress {
        config.sink = Arc::new(StderrSink);
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spp: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("spp serve: listening on {}", server.local_addr());
    let shutdown = spp::serve::shutdown_flag();
    while !shutdown.load(Ordering::Relaxed) && !server.is_draining() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("spp serve: draining");
    server.stop();
    ExitCode::SUCCESS
}

/// The sink requested on the command line, if any.
fn build_sink(options: &Options) -> Result<Option<Arc<dyn EventSink>>, String> {
    let json: Option<Arc<dyn EventSink>> = match &options.events_json {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {path}: {e}"))?;
            Some(Arc::new(JsonLinesSink::new(file)))
        }
        None => None,
    };
    let stderr: Option<Arc<dyn EventSink>> =
        if options.progress { Some(Arc::new(StderrSink)) } else { None };
    Ok(match (json, stderr) {
        (Some(a), Some(b)) => Some(Arc::new(TeeSink(a, b))),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    })
}

/// The result cache requested on the command line: present when either
/// `--cache-dir` or `--cache-mb` is given. A bare `--cache-dir` keeps the
/// default in-memory budget; a bare `--cache-mb` caches in memory only.
fn build_cache(options: &Options) -> Option<SppCache> {
    if options.cache_dir.is_none() && options.cache_mb.is_none() {
        return None;
    }
    let mut config = CacheConfig::default();
    if let Some(m) = options.cache_mb {
        config = config.with_byte_budget(m.saturating_mul(1024 * 1024));
    }
    if let Some(dir) = &options.cache_dir {
        config = config.with_dir(dir);
    }
    if let Some(policy) = options.fsync {
        config = config.with_fsync(policy);
    }
    Some(SppCache::new(config))
}

/// The (soft, hard) byte budgets encoded by `--mem-budget-mb m`: a hard
/// cap of `m` MiB and an advisory soft cap at half of it, so sessions
/// degrade (truncate generation, skip exact covering refinement) before
/// they are stopped.
fn mem_budgets(options: &Options) -> Option<(u64, u64)> {
    options.mem_budget_mb.map(|m| {
        let hard = m.saturating_mul(1024 * 1024);
        (hard / 2, hard)
    })
}

/// The status suffix of a summary line: silent on an optimal complete run
/// (keeping the historical output stable), `[upper bound]` on budget
/// truncation, and the outcome name when a deadline or cancellation cut
/// the run short.
fn status_suffix(outcome: Outcome, optimal: bool) -> String {
    match outcome {
        Outcome::Completed if optimal => String::new(),
        Outcome::Completed => " [upper bound]".to_owned(),
        other => format!(" [{}]", other.as_str()),
    }
}

fn run(outputs: &[BoolFn], labels: &[String], options: &Options) -> ExitCode {
    let sink = match build_sink(options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spp: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One shared request envelope: the same `MinimizeRequest` mode +
    // `ExecEnv` pair the library sessions and `spp serve` use, so a CLI
    // one-shot answer is bit-identical to a daemon answer with the same
    // configuration.
    // `--form` (other than the default `spp`) routes through the
    // portfolio driver; the algorithm flags then only shape the SPP
    // entrant's own ladder, not the race.
    let mode = match options.form {
        FormArg::One(_) | FormArg::Portfolio => MinimizeMode::Portfolio,
        FormArg::Spp if options.sp => MinimizeMode::Sop,
        FormArg::Spp if options.two_spp => MinimizeMode::Restricted(2),
        FormArg::Spp => {
            if let Some(k) = options.heuristic {
                let n = outputs.first().map_or(0, BoolFn::num_vars);
                MinimizeMode::Heuristic(k.min(n.saturating_sub(1)))
            } else if options.mem_budget_mb.is_some() {
                MinimizeMode::Governed
            } else {
                MinimizeMode::Exact
            }
        }
    };
    // `--multi` keeps its historical meaning: shared exact covering,
    // ignoring the algorithm flags.
    let req = if options.multi && outputs.len() > 1 {
        MinimizeRequest::new("cli", "").with_mode(MinimizeMode::Exact).with_multi(true)
    } else {
        let mut req = MinimizeRequest::new("cli", "")
            .with_mode(mode)
            .with_objective(options.objective);
        if let FormArg::One(f) = options.form {
            req = req.with_forms(vec![f]);
        }
        req
    };
    let (mem_soft, mem_hard) = match mem_budgets(options) {
        Some((soft, hard)) => (Some(soft), Some(hard)),
        None => (None, None),
    };
    let env = ExecEnv {
        // One cache for the whole invocation, so identical outputs of a
        // multi-output PLA answer each other within a single run.
        cache: build_cache(options),
        cancel: None,
        sink,
        // One absolute deadline for the whole invocation, shared by
        // every output's session.
        deadline_at: options.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        mem_soft,
        mem_hard,
        threads_default: options.threads,
    };
    let executed = match execute_fns(&req, outputs, labels, &env) {
        Ok(x) => x,
        Err(frame) => {
            eprintln!("spp: {}", frame.message);
            return ExitCode::FAILURE;
        }
    };
    let resp = &executed.response;
    if !resp.verified {
        eprintln!("spp: internal verification failed");
        return ExitCode::FAILURE;
    }
    if let (Some(shared_terms), Some(shared_literals)) =
        (resp.shared_terms, resp.shared_literals)
    {
        println!(
            "multi-output SPP: {shared_terms} shared pseudoproducts, \
             {shared_literals} shared literals ({} counted per output){}",
            resp.total_literals(),
            status_suffix(resp.outcome, resp.optimal)
        );
    } else {
        let tag = match req.mode {
            MinimizeMode::Sop => "SP",
            MinimizeMode::Restricted(_) => "2-SPP",
            MinimizeMode::Heuristic(_) => "SPP_k",
            // Under a memory budget the exact run is the top rung of the
            // degradation ladder; name the rung that answered.
            MinimizeMode::Governed => match resp.rung {
                Rung::Exact => "SPP",
                Rung::RestrictedExact => "SPP (2-SPP rung)",
                Rung::Heuristic => "SPP (heuristic rung)",
                Rung::Sop => "SPP (SP fallback)",
            },
            MinimizeMode::Exact => "SPP",
            // Per-output lines name the race; the winning form is in the
            // scoreboard printed below.
            MinimizeMode::Portfolio => "portfolio",
        };
        for report in &resp.outputs {
            println!(
                "{}: {tag} {} literals, {} terms{}",
                report.label,
                report.literals,
                report.terms,
                status_suffix(resp.outcome, resp.optimal)
            );
            if !options.quiet {
                println!("  {}", report.form);
            }
        }
    }
    // The portfolio scoreboard: one line per entrant, winner first.
    if let (Some(winner), Some(reports)) = (resp.winner, resp.forms.as_deref()) {
        println!("portfolio winner: {winner} (by {})", req.objective);
        for report in reports {
            if report.skipped {
                // Not run, which is not the same as run and rejected.
                println!(
                    "  {:<4} skipped: a proved SPP minimum costs no more",
                    report.form.as_str()
                );
                continue;
            }
            let cost = report
                .cost
                .map_or_else(|| "unverified".to_owned(), |c| c.to_string());
            println!(
                "  {:<4} {}: cost {cost}, {:.1} ms{}",
                report.form.as_str(),
                report.outcome.as_str(),
                report.wall.as_secs_f64() * 1e3,
                if report.accepted { "" } else { " [excluded]" },
            );
        }
    }

    if let Some(cache) = &env.cache {
        println!("cache: {}", cache.stats());
    }

    let net = Netlist::from_realizations(&executed.realizations);
    if !options.quiet {
        println!("{net}");
    }
    if let Some(module) = &options.verilog {
        print!("{}", net.to_verilog(module));
    }
    if let Some(model) = &options.blif {
        print!("{}", net.to_blif(model));
    }
    ExitCode::SUCCESS
}
