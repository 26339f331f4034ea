//! Result-cache probe: times what the cache saves on the harness's
//! hardest outputs ([`spp_bench::PROBE_ROWS`]) and prints one JSON
//! object, which `scripts/ci.sh` gates on.
//!
//! ```text
//! cargo run --release -p spp-bench --bin cache_probe [-- --threads N]
//! ```
//!
//! - `incremental`: per row, a cold fast-profile [`Minimizer::run_exact`]
//!   through a fresh in-memory cache, then the same output with one
//!   minterm flipped ([`spp_bench::one_flip_edit`]) through that cache, so
//!   the second run is answered by the delta splice. The object sums the
//!   end-to-end and generation-phase walls (`gen_*`, from
//!   [`spp_core::SppMinResult::gen_elapsed`]) over the rows, with their
//!   ratios; `best_speedup` is the largest per-row end-to-end ratio.
//! - `warm`: per row whose Table 2 fast-profile set is complete, the
//!   fastest of two one-worker cache hits of [`Minimizer::generate`]
//!   over the fastest of two cold runs; `ratio_max` is the largest.
//!
//! `--threads N` pins the worker budget of the incremental runs and wins
//! over the `SPP_THREADS` environment variable; with neither, the budget
//! is the machine's available parallelism.

use spp_bench::{
    circuit_or_die, one_flip_edit, table2_gen_limits, timed, timed_eppp_cached, timed_eppp_with,
    Mode, PROBE_ROWS,
};
use spp_boolfn::BoolFn;
use spp_core::{Minimizer, Parallelism, SppCache};

/// Sums of one row's or all rows' cold-vs-delta runs, in milliseconds.
#[derive(Default)]
struct Incremental {
    cold_ms: f64,
    delta_ms: f64,
    gen_cold_ms: f64,
    gen_delta_ms: f64,
    best_speedup: f64,
    delta_reuses: u64,
    delta_rejects: u64,
}

/// Runs `f` cold, then its one-minterm edit through the same cache; the
/// edited result is verified against its own function.
fn incremental_row(f: &BoolFn, budget: Parallelism) -> Incremental {
    let cache = SppCache::in_memory(512 * 1024 * 1024);
    let run = |g: &BoolFn| {
        Minimizer::new(g)
            .options(Mode::Fast.spp_options())
            .parallelism(budget)
            .cache(cache.clone())
            .run_exact()
    };
    let edited = one_flip_edit(f);
    let (cold, cold_dt) = timed(|| run(f));
    let (delta, delta_dt) = timed(|| run(&edited));
    delta.form.check_realizes(&edited).expect("delta-path result must verify");
    let stats = cache.stats();
    let (cold_ms, delta_ms) = (cold_dt.as_secs_f64() * 1e3, delta_dt.as_secs_f64() * 1e3);
    Incremental {
        cold_ms,
        delta_ms,
        gen_cold_ms: cold.gen_elapsed.as_secs_f64() * 1e3,
        gen_delta_ms: delta.gen_elapsed.as_secs_f64() * 1e3,
        best_speedup: cold_ms / delta_ms.max(1e-6),
        delta_reuses: stats.delta_reuses,
        delta_rejects: stats.delta_rejects,
    }
}

/// `warm / cold` generation wall of `f` at one worker, or `None` when the
/// set is truncated (never cached, so a "hit" would regenerate).
fn warm_ratio(f: &BoolFn, cache: &SppCache) -> Option<f64> {
    let limits = table2_gen_limits(Mode::Fast).with_parallelism(Parallelism::sequential());
    let (mut cold_ms, mut warm_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..2 {
        let (set, cold_dt) = timed_eppp_with(f, Minimizer::generate, &limits);
        if set.stats.truncated || !set.stats.outcome.is_completed() {
            return None;
        }
        // Populate (a miss the first time round), then time the hit.
        let _ = timed_eppp_cached(f, Minimizer::generate, &limits, cache);
        let (warm, warm_dt) = timed_eppp_cached(f, Minimizer::generate, &limits, cache);
        assert_eq!(warm.pseudocubes, set.pseudocubes, "cached EPPP set diverged from the cold one");
        cold_ms = cold_ms.min(cold_dt.as_secs_f64() * 1e3);
        warm_ms = warm_ms.min(warm_dt.as_secs_f64() * 1e3);
    }
    Some(warm_ms / cold_ms)
}

fn usage() -> ! {
    eprintln!("usage: cache_probe [--threads N]");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match args.as_slice() {
        [] => Parallelism::AUTO,
        [flag, n] if flag == "--threads" => {
            Parallelism::fixed(n.parse().unwrap_or_else(|_| usage()))
        }
        _ => usage(),
    };
    let cache = SppCache::in_memory(64 * 1024 * 1024);
    let mut sum = Incremental::default();
    let mut warm = Vec::new();
    for &(name, idx) in PROBE_ROWS {
        let f = circuit_or_die(name).output_on_support(idx);
        let row = incremental_row(&f, budget);
        eprintln!(
            "{name}({idx}): cold {:.1} ms (gen {:.1}), delta {:.1} ms (gen {:.1}); \
             {} reused, {} rejected",
            row.cold_ms,
            row.gen_cold_ms,
            row.delta_ms,
            row.gen_delta_ms,
            row.delta_reuses,
            row.delta_rejects
        );
        sum.cold_ms += row.cold_ms;
        sum.delta_ms += row.delta_ms;
        sum.gen_cold_ms += row.gen_cold_ms;
        sum.gen_delta_ms += row.gen_delta_ms;
        sum.best_speedup = sum.best_speedup.max(row.best_speedup);
        sum.delta_reuses += row.delta_reuses;
        sum.delta_rejects += row.delta_rejects;
        warm.extend(warm_ratio(&f, &cache));
    }
    println!(
        "{{\"incremental\": {{\"cold_ms\": {:.3}, \"delta_ms\": {:.3}, \"speedup\": {:.1}, \
         \"gen_cold_ms\": {:.3}, \"gen_delta_ms\": {:.3}, \"gen_speedup\": {:.1}, \
         \"best_speedup\": {:.1}, \"delta_reuses\": {}, \"delta_rejects\": {}}}, \
         \"warm\": {{\"rows\": {}, \"ratio_max\": {:.4}}}}}",
        sum.cold_ms,
        sum.delta_ms,
        sum.cold_ms / sum.delta_ms.max(1e-6),
        sum.gen_cold_ms,
        sum.gen_delta_ms,
        sum.gen_cold_ms / sum.gen_delta_ms.max(1e-6),
        sum.best_speedup,
        sum.delta_reuses,
        sum.delta_rejects,
        warm.len(),
        warm.iter().copied().fold(0.0, f64::max)
    );
}
