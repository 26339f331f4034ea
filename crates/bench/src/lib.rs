//! Shared machinery of the benchmark harness: per-output minimization
//! runs, timing, budget presets and table formatting.
//!
//! One binary per table/figure of the paper regenerates its rows:
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (SP vs SPP minimal forms) | `table1` |
//! | Table 2 (EPPP construction times, \[5\] vs Algorithm 2) | `table2` |
//! | Table 3 (heuristic `SPP_0` vs exact) | `table3` |
//! | Figure 3 (`#L` of `SPP_k` vs `k`) | `fig3` |
//! | Figure 4 (CPU time of `SPP_k` vs `k`) | `fig4` |
//! | §3.3 comparison-count claim | `ablation` |
//!
//! Every binary accepts `--full` for paper-scale budgets (long runs) and
//! defaults to a *fast* profile that finishes in minutes; rows where a
//! budget truncated the computation are starred, mirroring the paper's
//! two-day-timeout stars.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use spp_boolfn::BoolFn;
use spp_core::{EpppSet, Minimizer, SppMinResult, SppOptions};
use spp_sp::{minimize_sp, SpMinResult};

/// Resource profile of a harness run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Default: budgets sized so each table finishes in minutes on a
    /// laptop. Truncated entries are starred.
    Fast,
    /// Paper-scale budgets (tens of minutes to hours).
    Full,
}

impl Mode {
    /// Parses the mode from process arguments (`--full` switches to
    /// [`Mode::Full`]).
    #[must_use]
    pub fn from_args() -> Mode {
        if std::env::args().any(|a| a == "--full") {
            Mode::Full
        } else {
            Mode::Fast
        }
    }

    /// A human-readable banner line describing the profile.
    #[must_use]
    pub fn banner(self) -> &'static str {
        match self {
            Mode::Fast => "profile: fast (default budgets; run with --full for paper-scale budgets; * = budget hit, value is an upper bound)",
            Mode::Full => "profile: full (paper-scale budgets; * = budget hit, value is an upper bound)",
        }
    }

    /// The SPP minimization options of this profile.
    #[must_use]
    pub fn spp_options(self) -> SppOptions {
        match self {
            Mode::Fast => SppOptions::default()
                .with_gen_limits(
                    spp_core::GenLimits::default()
                        .with_max_pseudocubes(150_000)
                        .with_max_level_size(100_000)
                        .with_time_limit(Some(Duration::from_secs(10)))
                        .with_parallelism(spp_core::Parallelism::AUTO),
                )
                .with_cover_limits(
                    spp_cover::Limits::default()
                        .with_max_nodes(200_000)
                        .with_time_limit(Some(Duration::from_secs(5)))
                        .with_max_exact_columns(4_000)
                        .with_parallelism(spp_cover::Parallelism::AUTO),
                ),
            Mode::Full => SppOptions::default()
                .with_gen_limits(
                    spp_core::GenLimits::default()
                        .with_max_pseudocubes(600_000)
                        .with_max_level_size(400_000)
                        .with_time_limit(Some(Duration::from_secs(300)))
                        .with_parallelism(spp_core::Parallelism::AUTO),
                )
                .with_cover_limits(
                    spp_cover::Limits::default()
                        .with_max_nodes(2_000_000)
                        .with_time_limit(Some(Duration::from_secs(60)))
                        .with_max_exact_columns(20_000)
                        .with_parallelism(spp_cover::Parallelism::AUTO),
                ),
        }
    }

    /// Covering limits for SP minimization under this profile.
    #[must_use]
    pub fn sp_limits(self) -> spp_cover::Limits {
        self.spp_options().cover_limits
    }
}

/// Aggregated SP statistics over all outputs of a circuit (the paper's
/// `#PI`, `#L`, `#P` columns — outputs minimized separately, summed).
#[derive(Clone, Debug, Default)]
pub struct SpAggregate {
    /// Total prime implicants.
    pub num_primes: usize,
    /// Total literals of the minimized forms.
    pub literals: u64,
    /// Total products of the minimized forms.
    pub products: usize,
    /// Whether any output's covering fell back to an upper bound.
    pub truncated: bool,
}

/// Aggregated SPP statistics over all outputs (the paper's `#EPPP`, `#L`,
/// `#PP` columns).
#[derive(Clone, Debug, Default)]
pub struct SppAggregate {
    /// Total EPPP candidates.
    pub num_eppp: usize,
    /// Total literals of the synthesized forms.
    pub literals: u64,
    /// Total pseudoproducts of the synthesized forms.
    pub pseudoproducts: usize,
    /// Whether any output hit a generation/covering budget.
    pub truncated: bool,
    /// Total wall-clock time spent.
    pub elapsed: Duration,
}

/// Runs SP minimization on one output and folds it into the aggregate.
pub fn add_sp(agg: &mut SpAggregate, r: &SpMinResult) {
    agg.num_primes += r.num_primes;
    agg.literals += r.literal_count();
    agg.products += r.form.num_products();
    agg.truncated |= !r.optimal;
}

/// Runs SPP minimization on one output and folds it into the aggregate.
pub fn add_spp(agg: &mut SppAggregate, r: &SppMinResult, elapsed: Duration) {
    agg.num_eppp += r.num_candidates;
    agg.literals += r.literal_count();
    agg.pseudoproducts += r.form.num_pseudoproducts();
    agg.truncated |= !r.optimal;
    agg.elapsed += elapsed;
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimizes every output of `outputs` with both SP and exact SPP,
/// verifying each form, and returns the two aggregates.
///
/// # Panics
///
/// Panics if a synthesized form fails verification — the harness treats
/// that as a bug, not a data point.
#[must_use]
pub fn sp_vs_spp(outputs: &[BoolFn], mode: Mode) -> (SpAggregate, SppAggregate) {
    let mut options = mode.spp_options();
    let threads = options.gen_limits.parallelism.threads();
    // Outputs are independent: fan the per-output runs across the worker
    // budget, give each run's own sweep the leftover workers, and fold the
    // results in output order so the aggregates match the serial harness.
    let outer = threads.min(outputs.len()).max(1);
    options.gen_limits.parallelism = spp_core::Parallelism::fixed((threads / outer).max(1));
    let runs = spp_par::par_map_indices(outer, outputs.len(), |i| {
        let f = &outputs[i];
        let sp = minimize_sp(f, &mode.sp_limits());
        assert!(sp.form.realizes(f), "SP form failed verification");
        let (spp, dt) = timed(|| Minimizer::new(f).options(options.clone()).run_exact());
        spp.form.check_realizes(f).expect("SPP form failed verification");
        (sp, spp, dt)
    });
    let mut sp_agg = SpAggregate::default();
    let mut spp_agg = SppAggregate::default();
    for (sp, spp, dt) in &runs {
        add_sp(&mut sp_agg, sp);
        add_spp(&mut spp_agg, spp, *dt);
    }
    (sp_agg, spp_agg)
}

/// Runs the heuristic `SPP_k` over every output in parallel, verifying
/// each form, and returns the per-output results in input order plus the
/// total wall-clock time of the batch.
///
/// # Panics
///
/// Panics if a synthesized form fails verification.
#[must_use]
pub fn heuristic_sum(outputs: &[BoolFn], k: usize, mode: Mode) -> (Vec<SppMinResult>, Duration) {
    let mut options = mode.spp_options();
    let threads = options.gen_limits.parallelism.threads();
    let outer = threads.min(outputs.len()).max(1);
    options.gen_limits.parallelism = spp_core::Parallelism::fixed((threads / outer).max(1));
    timed(|| {
        spp_par::par_map_indices(outer, outputs.len(), |i| {
            let f = &outputs[i];
            let r = Minimizer::new(f)
                .options(options.clone())
                .run_heuristic(k.min(f.num_vars().saturating_sub(1)))
                .expect("clamped k is always in range");
            r.form.check_realizes(f).expect("heuristic SPP form failed verification");
            r
        })
    })
}

/// Runs the heuristic `SPP_k` on one function, verifying the result.
#[must_use]
pub fn heuristic_point(f: &BoolFn, k: usize, mode: Mode) -> (SppMinResult, Duration) {
    let options = mode.spp_options();
    let (r, dt) = timed(|| {
        Minimizer::new(f)
            .options(options.clone())
            .run_heuristic(k)
            .expect("harness callers pass k < n")
    });
    r.form.check_realizes(f).expect("heuristic SPP form failed verification");
    (r, dt)
}

/// An EPPP generator of a session: [`Minimizer::generate`] (Algorithm 2)
/// or [`Minimizer::generate_quadratic`] (Table 2's \[5\] baseline).
pub type Generator<'f> = fn(&Minimizer<'f>) -> EpppSet;

/// Generates the EPPP set of `f` with `generate`, timing it.
#[must_use]
pub fn timed_eppp<'f>(f: &'f BoolFn, generate: Generator<'f>, mode: Mode) -> (EpppSet, Duration) {
    let options = mode.spp_options();
    timed_eppp_with(f, generate, &options.gen_limits)
}

/// Generates the EPPP set of `f` with `generate` under explicit limits,
/// timing it.
#[must_use]
pub fn timed_eppp_with<'f>(
    f: &'f BoolFn,
    generate: Generator<'f>,
    limits: &spp_core::GenLimits,
) -> (EpppSet, Duration) {
    timed(|| generate(&Minimizer::new(f).limits(limits.clone())))
}

/// Generates the EPPP set of `f` under explicit limits with a result
/// cache attached, timing it. A second call against the same (or a
/// persisted) cache answers from it without re-generating — the warm
/// half of `cache_probe`'s `warm` ratio.
#[must_use]
pub fn timed_eppp_cached<'f>(
    f: &'f BoolFn,
    generate: Generator<'f>,
    limits: &spp_core::GenLimits,
    cache: &spp_core::SppCache,
) -> (EpppSet, Duration) {
    timed(|| generate(&Minimizer::new(f).limits(limits.clone()).cache(cache.clone())))
}

/// Generation budgets for the Table 2 timing comparison: generous enough
/// that the partition trie finishes while the quadratic baseline visibly
/// pays its `|X|²/2` comparisons (and stars out on the hardest outputs,
/// like the paper's two-day timeouts).
#[must_use]
pub fn table2_gen_limits(mode: Mode) -> spp_core::GenLimits {
    match mode {
        Mode::Fast => spp_core::GenLimits::default()
            .with_max_pseudocubes(400_000)
            .with_max_level_size(250_000)
            .with_time_limit(Some(Duration::from_secs(30)))
            .with_parallelism(spp_core::Parallelism::AUTO),
        Mode::Full => spp_core::GenLimits::default()
            .with_max_pseudocubes(1_000_000)
            .with_max_level_size(700_000)
            .with_time_limit(Some(Duration::from_secs(900)))
            .with_parallelism(spp_core::Parallelism::AUTO),
    }
}

/// The outputs `cache_probe` times cache hits and delta edits on: the
/// harness's hardest outputs, each with a complete fast-profile EPPP set.
pub const PROBE_ROWS: &[(&str, usize)] =
    &[("life", 0), ("adr4", 3), ("dist", 1), ("root", 1), ("mlp4", 5)];

/// `f` with its lowest OFF point flipped ON — a Hamming-distance-1
/// sibling with an identical DC set, i.e. exactly the edit-stream shape
/// the cache's delta-splice path serves.
///
/// # Panics
///
/// Panics if `f` has no OFF point (a tautology has no such sibling).
#[must_use]
pub fn one_flip_edit(f: &BoolFn) -> BoolFn {
    let n = f.num_vars();
    let taken: std::collections::HashSet<u64> =
        f.on_set().iter().chain(f.dc_set()).map(|p| p.as_words()[0]).collect();
    let flip = (0..1u64 << n).find(|i| !taken.contains(i)).expect("f has an OFF point");
    let on = f.on_set().iter().cloned().chain(std::iter::once(spp_gf2::Gf2Vec::from_u64(n, flip)));
    BoolFn::with_dont_cares(n, on, f.dc_set().iter().cloned())
}

/// Formats a value with the paper's star convention: `{v}*` when the
/// computation was truncated by a budget.
#[must_use]
pub fn starred(value: impl std::fmt::Display, truncated: bool) -> String {
    if truncated {
        format!("{value}*")
    } else {
        value.to_string()
    }
}

/// Formats a duration in seconds with millisecond resolution.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Looks up a benchmark circuit or exits with a clear message.
///
/// # Panics
///
/// Panics (with a benchmark list) if the name is unknown.
#[must_use]
pub fn circuit_or_die(name: &str) -> spp_benchgen::Circuit {
    spp_benchgen::registry::circuit(name).unwrap_or_else(|| {
        panic!(
            "unknown benchmark {name:?}; available: {}",
            spp_benchgen::registry::ALL_NAMES.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starred_formatting() {
        assert_eq!(starred(12, false), "12");
        assert_eq!(starred(12, true), "12*");
    }

    #[test]
    fn mode_parsing_defaults_to_fast() {
        // Can't inject args easily; just exercise both profiles.
        assert!(Mode::Fast.banner().contains("fast"));
        assert!(Mode::Full.banner().contains("full"));
        assert!(Mode::Full.spp_options().gen_limits.max_pseudocubes
            > Mode::Fast.spp_options().gen_limits.max_pseudocubes);
    }

    #[test]
    fn sp_vs_spp_on_a_small_function() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let (sp, spp) = sp_vs_spp(&[f], Mode::Fast);
        assert_eq!(sp.literals, 12);
        assert_eq!(spp.literals, 3);
        assert_eq!(spp.pseudoproducts, 1);
        assert!(!spp.truncated);
    }

    #[test]
    fn heuristic_point_verifies() {
        let f = BoolFn::from_truth_fn(4, |x| x % 5 == 0);
        let (r, _) = heuristic_point(&f, 0, Mode::Fast);
        assert!(r.literal_count() > 0);
    }
}
