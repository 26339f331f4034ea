//! Orchestrator: runs every table and figure binary of the harness and
//! collects their output into one markdown report, or — with `--json` —
//! emits the machine-readable perf-regression baseline `BENCH_spp.json`.
//!
//! ```text
//! cargo run --release -p spp-bench --bin report [--full] [-o report.md]
//! cargo run --release -p spp-bench --bin report -- --json [--threads N] \
//!     [--cache-dir DIR] [-o BENCH_spp.json]
//! ```
//!
//! The JSON report times EPPP construction on the harness's hardest
//! outputs (the "additional rows" of `table2`) under three configurations
//! — partition trie sequential, partition trie at the full worker budget,
//! and the quadratic baseline — so a CI diff of two baselines shows both
//! algorithmic and parallel-scaling regressions. Configurations that
//! resolve to the same `(name, grouping, threads)` key (e.g. the trie
//! rows on a one-core budget) collapse into a single entry carrying the
//! number of `runs` plus `wall_ms_min`/`wall_ms_median`. Each entry also
//! records the generation [`spp_core::Outcome`], the covering wall time,
//! the branch-and-bound node count (`cover_nodes`) and the covering
//! worker budget (`cover_threads`); the baseline's header records the
//! worker budget that was actually used (`resolved_threads`). `--threads
//! N` pins that budget and **wins over the `SPP_THREADS` environment
//! variable**; with neither, the budget is the machine's available
//! parallelism.
//!
//! With `--cache-dir DIR` every entry additionally times a cache-warmed
//! re-generation (`warm_wall_ms`, `null` when the set was truncated and
//! therefore uncacheable) through an [`spp_core::SppCache`] persisted at
//! `DIR`, and the baseline's top-level `cache` object carries the final
//! [`spp_core::CacheStats`] — zeros when caching is off, so the schema
//! (`spp-bench/8`) is stable either way.
//!
//! Each entry also carries a `forms` object: the result of racing the
//! row's output through the four-form portfolio
//! ([`spp_core::Minimizer::run_portfolio`]) — the `winner`, its
//! `winner_cost` in literals, and per-form `{outcome, cost, wall_ms}` —
//! so a baseline diff shows cross-form regressions (e.g. the SPP engine
//! losing a race it used to win). The race is function-level, so every
//! configuration entry of the same row records the same `forms` object.
//!
//! Each row is also probed *incrementally*: a cold end-to-end minimize
//! through a fresh in-memory cache, then the same output with one
//! minterm flipped — the shape the delta-splice path serves. Entries
//! carry the generation phase split (`gen_ms`) and the probe's
//! `delta_reuses`/`delta_rejects`; the top-level `incremental` object
//! aggregates cold vs delta end-to-end latency and the resulting
//! `speedup` across all rows.
//!
//! The baseline's `server` object benchmarks the `spp serve` daemon
//! end to end: an in-process server driven by the deterministic
//! `spp-loadgen` closed loop at 1024 concurrent connections, with key
//! reuse exercising the shared result cache. It records request
//! latencies (`p50_ms`/`p99_ms`/`max_ms`), `throughput_rps`, the
//! verified/degraded/error counts and the whole-run `cache_hit_rate`.

use std::io::Write as _;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spp_bench::{circuit_or_die, timed_eppp_cached, timed_eppp_with, Generator, Mode};
use spp_boolfn::BoolFn;
use spp_core::{
    CacheConfig, CacheStats, Event, EventSink, FormPortfolio, Minimizer,
    MinimizeMode, Parallelism, Phase, RunCtx, SppCache,
};
use spp_serve::loadgen::LoadgenConfig;
use spp_serve::{ServeConfig, Server};

const SECTIONS: &[(&str, &str)] = &[
    ("Table 1 — SP vs SPP minimal forms", "table1"),
    ("Table 2 — EPPP construction times", "table2"),
    ("Table 3 — heuristic SPP_0 vs exact", "table3"),
    ("Figure 3 — literals of SPP_k vs k", "fig3"),
    ("Figure 4 — CPU time of SPP_k vs k", "fig4"),
    ("Ablation — grouped vs all-pairs generation", "ablation"),
    ("Extension — SP vs 2-SPP vs SPP", "forms"),
];

/// The benchmark outputs timed by the JSON baseline: the harness's
/// hardest outputs (same list as `table2`'s additional rows).
const JSON_ROWS: &[(&str, usize)] =
    &[("life", 0), ("adr4", 3), ("dist", 1), ("root", 1), ("mlp4", 5)];

/// One measured `(name, grouping, threads)` configuration, with one wall
/// time per run of that configuration.
struct BenchEntry {
    name: String,
    grouping: &'static str,
    threads: usize,
    wall_ms: Vec<f64>,
    /// Wall time of a cache-warmed re-generation; `None` without
    /// `--cache-dir` or when the set was truncated (uncacheable).
    warm_wall_ms: Option<f64>,
    cover_ms: f64,
    cover_nodes: u64,
    cover_threads: usize,
    comparisons: u64,
    eppp: usize,
    max_level: usize,
    spp_literals: u64,
    truncated: bool,
    outcome: &'static str,
    /// Delta counters of the row's incremental probe (shared by every
    /// configuration of the same output).
    delta_reuses: u64,
    delta_rejects: u64,
    /// The row's four-form race, pre-rendered as a JSON object (shared by
    /// every configuration of the same output).
    forms: String,
}

impl BenchEntry {
    /// Median of the recorded wall times (mean of the two middles for an
    /// even run count).
    fn wall_ms_median(&self) -> f64 {
        let mut sorted = self.wall_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    }

    fn to_json(&self) -> String {
        // All fields are numbers, bools or [A-Za-z0-9_()] names — no
        // escaping needed.
        format!(
            "    {{\"name\": \"{}\", \"grouping\": \"{}\", \"threads\": {}, \"runs\": {}, \
             \"wall_ms_min\": {:.3}, \"wall_ms_median\": {:.3}, \"gen_ms\": {:.3}, \
             \"warm_wall_ms\": {}, \"cover_ms\": {:.3}, \
             \"cover_nodes\": {}, \"cover_threads\": {}, \"comparisons\": {}, \"eppp\": {}, \
             \"max_level\": {}, \"spp_literals\": {}, \"truncated\": {}, \"outcome\": \"{}\", \
             \"delta_reuses\": {}, \"delta_rejects\": {}, \"forms\": {}}}",
            self.name,
            self.grouping,
            self.threads,
            self.wall_ms.len(),
            self.wall_ms.iter().copied().fold(f64::INFINITY, f64::min),
            self.wall_ms_median(),
            // The generation-phase wall time: these entries time EPPP
            // construction alone (covering is `cover_ms`), so the phase
            // split is the best observed generation wall.
            self.wall_ms.iter().copied().fold(f64::INFINITY, f64::min),
            self.warm_wall_ms.map_or_else(|| "null".to_owned(), |v| format!("{v:.3}")),
            self.cover_ms,
            self.cover_nodes,
            self.cover_threads,
            self.comparisons,
            self.eppp,
            self.max_level,
            self.spp_literals,
            self.truncated,
            self.outcome,
            self.delta_reuses,
            self.delta_rejects,
            self.forms
        )
    }
}

/// The row's four-form race as a JSON object: the winner and its literal
/// cost, plus each entrant's outcome, cost and wall time. Costs are
/// counter-like (deterministic); only `wall_ms` varies run to run.
fn forms_json(f: &BoolFn, budget: Parallelism) -> String {
    let race = Minimizer::new(f).parallelism(budget).run_portfolio(&FormPortfolio::new());
    let per: Vec<String> = race
        .reports
        .iter()
        .map(|rep| {
            format!(
                "\"{}\": {{\"outcome\": \"{}\", \"cost\": {}, \"wall_ms\": {:.3}}}",
                rep.form.as_str(),
                rep.outcome.as_str(),
                rep.cost.map_or_else(|| "null".to_owned(), |c| c.to_string()),
                rep.wall.as_secs_f64() * 1e3
            )
        })
        .collect();
    format!(
        "{{\"winner\": \"{}\", \"winner_cost\": {}, {}}}",
        race.winner.as_str(),
        race.cost,
        per.join(", ")
    )
}

/// Captures the node count of the final `CoverFinished` event, so the
/// baseline can track branch-and-bound search effort, not just wall time.
#[derive(Default)]
struct CoverNodeSpy(AtomicU64);

impl EventSink for CoverNodeSpy {
    fn emit(&self, event: &Event) {
        if let Event::CoverFinished { nodes, .. } = event {
            self.0.store(*nodes, Ordering::Relaxed);
        }
    }
}

/// Minimum-literal cover over an EPPP set (the `#L` the entries record)
/// plus the covering wall time in milliseconds and branch-and-bound node
/// count. The covering search runs at the `budget` worker count.
fn spp_literals(
    f: &spp_boolfn::BoolFn,
    set: &spp_core::EpppSet,
    mode: Mode,
    budget: Parallelism,
) -> (u64, f64, u64) {
    let on = f.on_set();
    if on.is_empty() {
        return (0, 0.0, 0);
    }
    let mut problem = spp_cover::CoverProblem::new(on.len());
    problem.add_columns_par(Parallelism::AUTO, set.pseudocubes.len(), |c| {
        let pc = &set.pseudocubes[c];
        let rows =
            on.iter().enumerate().filter(|(_, p)| pc.contains(p)).map(|(i, _)| i).collect();
        (rows, pc.literal_count().max(1))
    });
    let limits = mode.sp_limits().with_parallelism(budget);
    let spy = Arc::new(CoverNodeSpy::default());
    let ctx = RunCtx::new().with_sink(spy.clone());
    let (solution, dt) =
        spp_bench::timed(|| spp_cover::solve_auto_ctx(&problem, &limits, &ctx).0);
    let lits = solution.columns.iter().map(|&c| set.pseudocubes[c].literal_count()).sum();
    (lits, dt.as_secs_f64() * 1e3, spy.0.load(Ordering::Relaxed))
}

/// One row's end-to-end incremental measurement: a cold minimize of the
/// output, then the same output with one minterm flipped through the same
/// cache, so the second request is answered by the delta-splice path.
/// `gen_*` are the generation-phase walls inside those two runs — the
/// part the splice replaces; the covering phase is common to both.
struct IncrementalProbe {
    cold_ms: f64,
    delta_ms: f64,
    gen_cold_ms: f64,
    gen_delta_ms: f64,
    /// Largest per-row end-to-end `cold/delta` ratio. The aggregate ratio
    /// is dominated by rows whose covering phase is budget-bound B&B
    /// (common to both runs); this records what an edit gains when the
    /// function's covering is not the bottleneck.
    best_speedup: f64,
    delta_reuses: u64,
    delta_rejects: u64,
}

/// Captures the wall time of the last finished generation phase.
#[derive(Default)]
struct GenPhaseSpy(AtomicU64);

impl GenPhaseSpy {
    fn ms(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 / 1e3
    }
}

impl EventSink for GenPhaseSpy {
    fn emit(&self, event: &Event) {
        if let Event::PhaseFinished { phase: Phase::Generate, wall, .. } = event {
            self.0.store(wall.as_micros() as u64, Ordering::Relaxed);
        }
    }
}

/// `f` with its lowest OFF point flipped ON — a Hamming-distance-1
/// sibling with an identical DC set, i.e. exactly the edit-stream shape
/// the delta path serves.
fn one_flip_edit(f: &BoolFn) -> BoolFn {
    let n = f.num_vars();
    let taken: std::collections::HashSet<u64> =
        f.on_set().iter().chain(f.dc_set()).map(|p| p.as_words()[0]).collect();
    let flip = (0..1u64 << n)
        .find(|i| !taken.contains(i))
        .expect("benchmark outputs are never tautologies");
    let on = f
        .on_set()
        .iter()
        .cloned()
        .chain(std::iter::once(spp_gf2::Gf2Vec::from_u64(n, flip)));
    BoolFn::with_dont_cares(n, on, f.dc_set().iter().cloned())
}

/// Measures the cold-vs-delta end-to-end latency of a one-minterm edit:
/// both runs go through [`Minimizer::run_exact`] with a shared in-memory
/// cache sized to hold the cold run's level snapshot, and the edited
/// result is independently verified against its own function.
fn incremental_probe(f: &BoolFn, mode: Mode, budget: Parallelism) -> IncrementalProbe {
    let cache = SppCache::in_memory(512 * 1024 * 1024);
    let run = |g: &BoolFn, spy: &Arc<GenPhaseSpy>| {
        Minimizer::new(g)
            .options(mode.spp_options())
            .parallelism(budget)
            .cache(cache.clone())
            .on_event(spy.clone())
            .run_exact()
    };
    let edited = one_flip_edit(f);
    let cold_spy = Arc::new(GenPhaseSpy::default());
    let delta_spy = Arc::new(GenPhaseSpy::default());
    let (_, cold_dt) = spp_bench::timed(|| run(f, &cold_spy));
    let (r, delta_dt) = spp_bench::timed(|| run(&edited, &delta_spy));
    r.form.check_realizes(&edited).expect("delta-path result must verify");
    let stats = cache.stats();
    eprintln!(
        "  cold {:.1} ms (gen {:.1}), delta {:.1} ms (gen {:.1}); {} reused, {} rejected",
        cold_dt.as_secs_f64() * 1e3,
        cold_spy.ms(),
        delta_dt.as_secs_f64() * 1e3,
        delta_spy.ms(),
        stats.delta_reuses,
        stats.delta_rejects
    );
    let cold_ms = cold_dt.as_secs_f64() * 1e3;
    let delta_ms = delta_dt.as_secs_f64() * 1e3;
    IncrementalProbe {
        cold_ms,
        delta_ms,
        gen_cold_ms: cold_spy.ms(),
        gen_delta_ms: delta_spy.ms(),
        best_speedup: cold_ms / delta_ms.max(1e-6),
        delta_reuses: stats.delta_reuses,
        delta_rejects: stats.delta_rejects,
    }
}

/// The `server` section of the baseline: an in-process `spp serve`
/// daemon driven by the deterministic loadgen closed loop at 1024
/// concurrent connections. Key reuse (`keys` distinct functions) gives
/// the shared cache a realistic hit profile.
fn server_section(full: bool) -> Result<String, Box<dyn std::error::Error>> {
    let server = Server::start(ServeConfig { queue_cap: 4096, ..ServeConfig::default() })?;
    let config = LoadgenConfig {
        concurrency: 1024,
        requests: if full { 4096 } else { 2048 },
        keys: 64,
        // 5 vars keeps per-request exact cost in the sub-millisecond range,
        // so the measurement is the daemon's pipeline, not the solver.
        vars: 5,
        mode: MinimizeMode::Governed,
        ..LoadgenConfig::default()
    };
    eprintln!(
        "timing spp-serve: {} requests at {} concurrent connections ...",
        config.requests, config.concurrency
    );
    let report = spp_serve::loadgen::run(&server.local_addr().to_string(), &config)?;
    server.stop();
    if report.errors > 0 || report.verified != report.completed {
        return Err(format!(
            "server benchmark run broken: {} errors, {}/{} verified",
            report.errors, report.verified, report.completed
        )
        .into());
    }
    Ok(report.to_json(config.concurrency))
}

/// Writes the machine-readable benchmark baseline.
fn emit_json(
    out_path: &str,
    full: bool,
    threads_flag: Option<usize>,
    cache_dir: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mode = if full { Mode::Full } else { Mode::Fast };
    // `--threads` wins over the SPP_THREADS environment default (which
    // Parallelism::AUTO already folds in).
    let budget = threads_flag.map_or(Parallelism::AUTO, Parallelism::fixed);
    let resolved_threads = budget.threads();
    let cache = cache_dir.map(|dir| SppCache::new(CacheConfig::default().with_dir(dir)));
    let mut entries: Vec<BenchEntry> = Vec::new();
    let mut incremental = IncrementalProbe {
        cold_ms: 0.0,
        delta_ms: 0.0,
        gen_cold_ms: 0.0,
        gen_delta_ms: 0.0,
        best_speedup: 0.0,
        delta_reuses: 0,
        delta_rejects: 0,
    };
    for &(name, idx) in JSON_ROWS {
        let f = circuit_or_die(name).output_on_support(idx);
        eprintln!("racing forms on {name}({idx}) ...");
        let forms = forms_json(&f, budget);
        eprintln!("probing incremental {name}({idx}) ...");
        let probe = incremental_probe(&f, mode, budget);
        incremental.cold_ms += probe.cold_ms;
        incremental.delta_ms += probe.delta_ms;
        incremental.gen_cold_ms += probe.gen_cold_ms;
        incremental.gen_delta_ms += probe.gen_delta_ms;
        incremental.best_speedup = incremental.best_speedup.max(probe.best_speedup);
        incremental.delta_reuses += probe.delta_reuses;
        incremental.delta_rejects += probe.delta_rejects;
        let configs = [
            ("trie", Minimizer::generate as Generator, Parallelism::sequential()),
            ("trie", Minimizer::generate, budget),
            ("quadratic", Minimizer::generate_quadratic, Parallelism::sequential()),
        ];
        let mut literals = None;
        for (grouping_label, generate, parallelism) in configs {
            let limits = spp_bench::table2_gen_limits(mode).with_parallelism(parallelism);
            eprintln!("timing {name}({idx}) {grouping_label} x{} ...", parallelism.threads());
            let (set, dt) = timed_eppp_with(&f, generate, &limits);
            // The cache-warmed re-run: populate once (insertion or an
            // earlier run's disk entry), then time the warm generate.
            // Truncated sets are never cached — their warm time stays
            // null rather than measuring a silent re-generation.
            let warm_wall_ms = cache.as_ref().and_then(|cache| {
                if set.stats.truncated || !set.stats.outcome.is_completed() {
                    return None;
                }
                let _ = timed_eppp_cached(&f, generate, &limits, cache);
                let (warm, warm_dt) = timed_eppp_cached(&f, generate, &limits, cache);
                assert_eq!(
                    warm.pseudocubes.len(),
                    set.pseudocubes.len(),
                    "cached EPPP set diverged from the cold one"
                );
                Some(warm_dt.as_secs_f64() * 1e3)
            });
            // #L depends only on the candidate set; every non-truncated
            // configuration yields the same one, so solve the cover once.
            let (lits, cover_ms, cover_nodes) =
                *literals.get_or_insert_with(|| spp_literals(&f, &set, mode, budget));
            let wall_ms = dt.as_secs_f64() * 1e3;
            // Configurations that resolve to the same key (trie sequential
            // vs trie on a one-core budget) fold into one entry.
            let key = (format!("{name}({idx})"), grouping_label, parallelism.threads());
            if let Some(entry) = entries.iter_mut().find(|e| {
                (e.name.as_str(), e.grouping, e.threads) == (key.0.as_str(), key.1, key.2)
            }) {
                entry.wall_ms.push(wall_ms);
                entry.warm_wall_ms = match (entry.warm_wall_ms, warm_wall_ms) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            } else {
                entries.push(BenchEntry {
                    name: key.0,
                    grouping: grouping_label,
                    threads: parallelism.threads(),
                    wall_ms: vec![wall_ms],
                    warm_wall_ms,
                    cover_ms,
                    cover_nodes,
                    cover_threads: budget.threads(),
                    comparisons: set.stats.comparisons,
                    eppp: set.pseudocubes.len(),
                    max_level: set.stats.levels.iter().map(|l| l.size).max().unwrap_or(0),
                    spp_literals: lits,
                    truncated: set.stats.truncated,
                    outcome: set.stats.outcome.as_str(),
                    delta_reuses: probe.delta_reuses,
                    delta_rejects: probe.delta_rejects,
                    forms: forms.clone(),
                });
            }
        }
    }
    let body: Vec<String> = entries.iter().map(BenchEntry::to_json).collect();
    let cache_stats = cache.as_ref().map_or_else(CacheStats::default, |c| c.stats());
    let server = server_section(full)?;
    let incremental_json = format!(
        "{{\"cold_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.1}, \
         \"gen_cold_ms\": {:.3}, \"gen_delta_ms\": {:.3}, \"gen_speedup\": {:.1}, \
         \"best_speedup\": {:.1}, \"delta_reuses\": {}, \"delta_rejects\": {}}}",
        incremental.cold_ms,
        incremental.delta_ms,
        incremental.cold_ms / incremental.delta_ms.max(1e-6),
        incremental.gen_cold_ms,
        incremental.gen_delta_ms,
        incremental.gen_cold_ms / incremental.gen_delta_ms.max(1e-6),
        incremental.best_speedup,
        incremental.delta_reuses,
        incremental.delta_rejects
    );
    let json = format!(
        "{{\n  \"schema\": \"spp-bench/8\",\n  \"profile\": \"{}\",\n  \
         \"resolved_threads\": {},\n  \"cache\": {},\n  \"incremental\": {},\n  \
         \"server\": {},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        if full { "full" } else { "fast" },
        resolved_threads,
        cache_stats.to_json(),
        incremental_json,
        server,
        body.join(",\n")
    );
    std::fs::write(out_path, json)?;
    eprintln!("wrote {out_path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");
    let threads_flag = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--threads takes a positive integer"));
    let cache_dir = args
        .iter()
        .position(|a| a == "--cache-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| if json { "BENCH_spp.json".to_owned() } else { "report.md".to_owned() });
    if json {
        return emit_json(&out_path, full, threads_flag, cache_dir.as_deref());
    }

    // The sibling binaries live next to this one.
    let own = std::env::current_exe()?;
    let bin_dir = own.parent().ok_or("no parent dir")?;

    let mut report = String::new();
    report.push_str("# spp benchmark report\n\n");
    report.push_str(&format!(
        "profile: {}\n\n",
        if full { "full (paper-scale budgets)" } else { "fast (default budgets)" }
    ));
    for (title, bin) in SECTIONS {
        eprintln!("running {bin} ...");
        let mut cmd = Command::new(bin_dir.join(bin));
        if full {
            cmd.arg("--full");
        }
        let output = cmd.output()?;
        report.push_str(&format!("## {title}\n\n```text\n"));
        report.push_str(&String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            report.push_str(&format!("\n[{bin} exited with {}]\n", output.status));
            report.push_str(&String::from_utf8_lossy(&output.stderr));
        }
        report.push_str("```\n\n");
    }

    let mut file = std::fs::File::create(&out_path)?;
    file.write_all(report.as_bytes())?;
    eprintln!("wrote {out_path}");
    Ok(())
}
