//! The incremental heuristic (Algorithm 3): SPP_k forms.

use std::collections::HashSet;
use std::time::Instant;

use spp_boolfn::BoolFn;
use spp_obs::{Event, Outcome, Phase, RunCtx, Rung};

use crate::generate::{approx_pseudocube_bytes, sweep_level, SweepOutcome};
use crate::minimize::{cover_phase, on_set_problem, timed_phase};
use crate::{
    sub_pseudocubes, GenStats, Grouping, LevelStats, Pseudocube, SppError, SppForm, SppMinResult,
    SppOptions,
};

/// The run-control-aware heuristic behind
/// [`crate::Minimizer::run_heuristic`] — the paper's **Algorithm 3**,
/// producing the `SPP_k` form: an upper bound on the minimal SPP form
/// that tightens as the work parameter `k` grows (`k = n − 1` explores
/// down to single points and, in the paper's words, "means that we are
/// looking for the optimal SPP solution").
///
/// The four phases:
///
/// 1. seed one partition trie per degree with the **SP prime implicants**
///    of `f` (much cheaper to obtain than prime pseudoproducts);
/// 2. *descendant phase*: for `k` steps, replace walking degree `n−i`,
///    insert every sub-pseudocube (Theorem 2) one degree down;
/// 3. *ascendant phase*: from degree 0 upward, unite same-structure
///    pseudocubes exactly as in Algorithm 2 step 2 (with the same
///    literal-based discard rule);
/// 4. solve the set-covering problem over everything retained.
///
/// Seeds with the SP prime implicants, then defers to
/// [`heuristic_from_cover_session`].
pub(crate) fn heuristic_session(
    f: &BoolFn,
    k: usize,
    options: &SppOptions,
    ctx: &RunCtx,
) -> Result<SppMinResult, SppError> {
    let primes = spp_sp::prime_implicants(f);
    heuristic_from_cover_session(f, &primes, k, options, ctx)
}

/// The run-control-aware general heuristic behind
/// [`crate::Minimizer::run_heuristic_from_cover`]: seeded by an
/// arbitrary cube cover of `f` instead of the full prime-implicant set —
/// the paper's general form ("the input is an arbitrary cover of the
/// given function F"). Useful when the prime set is too large to build:
/// seed with an Espresso-style heuristic cover (see
/// `spp_sp::minimize_sp_heuristic`).
///
/// One *counted* checkpoint is consumed per descendant step and per
/// non-empty ascendant level (always on the calling thread), so
/// [`spp_obs::CancelToken::cancel_after_checkpoints`] trips at a
/// thread-count-independent point; sweeps additionally poll deadline and
/// cancellation sparsely. A stopped run keeps every level untouched from
/// the stopping point up, which preserves the seed cover inside the
/// candidate pool — the result always realizes `f`.
pub(crate) fn heuristic_from_cover_session(
    f: &BoolFn,
    cover: &[spp_boolfn::Cube],
    k: usize,
    options: &SppOptions,
    ctx: &RunCtx,
) -> Result<SppMinResult, SppError> {
    let n = f.num_vars();
    if k >= n.max(1) {
        return Err(SppError::HeuristicK { k, n });
    }
    let ctx = ctx.clone().cap_deadline(options.gen_limits.time_limit.map(|d| Instant::now() + d));

    // The seed must be a cover of implicants, or the result could not
    // realize f.
    for point in f.on_set() {
        if !cover.iter().any(|c| c.contains_point(point)) {
            return Err(SppError::SeedNotACover { point: point.to_string() });
        }
    }
    for cube in cover {
        if !cube.points().all(|p| f.is_coverable(&p)) {
            return Err(SppError::SeedNotImplicant { cube: cube.to_string() });
        }
    }

    let ((retained, gen_stats), _, gen_elapsed) = timed_phase(&ctx, Phase::Generate, || {
        let (retained, stats) = candidate_pool(f, cover, k, options, &ctx);
        let outcome = stats.outcome;
        ((retained, stats), outcome)
    });
    // Phase 4: minimum-literal covering.
    let ((form, cover_optimal), cover_outcome, cover_elapsed) = cover_phase(
        &ctx,
        options,
        &retained,
        None,
        || on_set_problem(f, &retained, options.gen_limits.parallelism),
        |cover| (SppForm::new(n, cover.terms), cover.optimal),
    );
    let outcome = gen_stats.outcome.merge(cover_outcome);
    Ok(SppMinResult {
        form,
        num_candidates: retained.len(),
        optimal: cover_optimal && !gen_stats.truncated && k + 1 >= n && outcome.is_completed(),
        gen_stats,
        gen_elapsed,
        cover_elapsed,
        outcome,
        rung: Rung::Heuristic,
        faults: ctx.faults(),
    })
}

/// Phases 1–3 of the heuristic: the candidate pool grown from the seed
/// `cover` by `k` descendant steps and the ascendant union sweep, with
/// its generation statistics.
fn candidate_pool(
    f: &BoolFn,
    cover: &[spp_boolfn::Cube],
    k: usize,
    options: &SppOptions,
    ctx: &RunCtx,
) -> (Vec<Pseudocube>, GenStats) {
    let n = f.num_vars();
    // Phase 1: one level per degree, seeded with the input cover.
    let mut levels: Vec<HashSet<Pseudocube>> = vec![HashSet::new(); n + 1];
    for cube in cover {
        let pc = Pseudocube::from_cube(cube);
        let d = pc.degree();
        levels[d].insert(pc);
    }

    // Phase 2: descendant — step i walks degree n−i and inserts all
    // sub-pseudocubes one degree down, so later steps see them too.
    let mut truncated = false;
    let mut outcome = Outcome::Completed;
    let mut generated: usize = levels.iter().map(HashSet::len).sum();
    'descent: for i in 1..=k {
        ctx.failpoint("heuristic.descent");
        // One counted checkpoint per descent step: the deterministic
        // anchor for `cancel_after_checkpoints` fuses.
        if let Some(reason) = ctx.checkpoint() {
            outcome = outcome.merge(reason);
            truncated = true;
            break 'descent;
        }
        let d = n - i; // step i walks degree n−i, inserting one degree down
        let snapshot: Vec<Pseudocube> = sorted(&levels[d]);
        for r in snapshot {
            if let Some(reason) = ctx.stop_reason() {
                outcome = outcome.merge(reason);
                truncated = true;
                break 'descent;
            }
            for sub in sub_pseudocubes(&r) {
                let bytes = approx_pseudocube_bytes(&sub);
                if levels[d - 1].insert(sub) {
                    generated += 1;
                    ctx.governor().charge(bytes);
                    if generated > options.gen_limits.max_pseudocubes {
                        truncated = true;
                        break 'descent;
                    }
                }
            }
        }
    }

    // Phase 3: ascendant — Algorithm 2 step 2 from degree 0 upward,
    // through the same (optionally parallel) union sweep as the exact
    // generator.
    let threads = options.gen_limits.parallelism.threads();
    let mut retained: Vec<Pseudocube> = Vec::new();
    let mut stats = GenStats { thread_unions: vec![0; threads], ..GenStats::default() };
    for d in 0..n {
        let level = sorted(&levels[d]);
        if level.is_empty() {
            continue;
        }
        // One counted checkpoint per non-empty ascendant level.
        if let Some(reason) = ctx.checkpoint() {
            outcome = outcome.merge(reason);
            truncated = true;
        }
        let level_start = std::time::Instant::now();
        let over_budget =
            generated > options.gen_limits.max_pseudocubes || !outcome.is_completed();
        let outcome_sweep = if over_budget {
            // Budget exhausted before this level: keep it untouched.
            truncated = true;
            SweepOutcome {
                next: Vec::new(),
                discarded: vec![false; level.len()],
                comparisons: 0,
                groups: 0,
                truncated: true,
                thread_unions: vec![0],
            }
        } else {
            ctx.emit(Event::GenLevelStarted { degree: d, size: level.len() });
            // The union sweep can dwarf the level size; cap the distinct
            // unions it may produce by the remaining generation budget.
            sweep_level(
                &level,
                Grouping::PartitionTrie,
                threads,
                options.gen_limits.max_pseudocubes.saturating_sub(generated),
                ctx,
                &|_| true,
            )
        };
        if outcome_sweep.truncated {
            truncated = true;
            if let Some(reason) = ctx.stop_reason() {
                outcome = outcome.merge(reason);
            }
        }
        let unions = outcome_sweep.next.len();
        for u in outcome_sweep.next {
            if levels[d + 1].insert(u) {
                generated += 1;
            }
        }
        if generated > options.gen_limits.max_pseudocubes {
            truncated = true;
        }
        let mut kept = 0usize;
        for (pc, dropped) in level.iter().zip(&outcome_sweep.discarded) {
            if !dropped {
                retained.push(pc.clone());
                kept += 1;
            }
        }
        let wall = level_start.elapsed();
        stats.levels.push(LevelStats {
            degree: d,
            size: level.len(),
            groups: outcome_sweep.groups,
            comparisons: outcome_sweep.comparisons,
            retained: kept,
            wall,
        });
        stats.comparisons += outcome_sweep.comparisons;
        for (w, unions) in outcome_sweep.thread_unions.iter().enumerate() {
            stats.thread_unions[w] += unions;
        }
        if !over_budget {
            ctx.emit(Event::GenLevelFinished {
                degree: d,
                size: level.len(),
                groups: outcome_sweep.groups,
                unions,
                retained: kept,
                live: generated,
                wall,
            });
        }
        if truncated {
            break;
        }
    }
    // The top level (degree n, or where generation stopped) is kept as-is.
    for level in &levels[stats.levels.len()..=n] {
        retained.extend(sorted(level));
    }
    stats.total_generated = generated;
    stats.truncated = truncated;
    stats.outcome = outcome;
    (retained, stats)
}

fn sorted(set: &HashSet<Pseudocube>) -> Vec<Pseudocube> {
    let mut v: Vec<Pseudocube> = set.iter().cloned().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::exact_session;
    use crate::SppOptions;

    fn heuristic(f: &BoolFn, k: usize) -> SppMinResult {
        heuristic_session(f, k, &SppOptions::default(), &RunCtx::default()).unwrap()
    }

    #[test]
    fn k0_already_finds_the_paper_example() {
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let r = heuristic(&f, 0);
        assert_eq!(r.literal_count(), 3);
        assert!(r.form.check_realizes(&f).is_ok());
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn upper_bound_tightens_with_k() {
        // SPP_k literal counts are non-increasing in k and SPP_{n−1}
        // matches the exact algorithm, on a batch of functions.
        for (n, seed) in [(4usize, 0x5eedu64), (4, 99), (5, 1234)] {
            let f = BoolFn::from_truth_fn(n, |x| {
                (x.wrapping_mul(seed) >> 3) & 1 == 1 || x % 7 == 1
            });
            if f.is_zero() {
                continue;
            }
            let exact = exact_session(&f, &SppOptions::default(), &RunCtx::default());
            let mut prev = u64::MAX;
            for k in 0..n {
                let r = heuristic(&f, k);
                assert!(r.form.check_realizes(&f).is_ok(), "n={n} seed={seed} k={k}");
                assert!(
                    r.literal_count() <= prev,
                    "n={n} seed={seed}: SPP_{k} = {} worse than SPP_{} = {prev}",
                    r.literal_count(),
                    k - 1
                );
                assert!(
                    r.literal_count() >= exact.literal_count(),
                    "n={n} seed={seed} k={k}: heuristic beat the exact optimum"
                );
                prev = r.literal_count();
            }
            let full = heuristic(&f, n - 1);
            assert_eq!(
                full.literal_count(),
                exact.literal_count(),
                "n={n} seed={seed}: SPP_(n-1) must equal the exact SPP"
            );
        }
    }

    #[test]
    fn parity_found_even_at_k0() {
        // All prime implicants of parity are minterms sharing one structure:
        // the ascent rebuilds the single EXOR factor without any descent.
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = heuristic(&f, 0);
        assert_eq!(r.literal_count(), 4);
        assert_eq!(r.form.num_pseudoproducts(), 1);
    }

    #[test]
    fn k_out_of_range_is_an_error() {
        let f = BoolFn::from_indices(3, &[1]);
        let err =
            heuristic_session(&f, 3, &SppOptions::default(), &RunCtx::default()).unwrap_err();
        assert_eq!(err, SppError::HeuristicK { k: 3, n: 3 });
    }

    #[test]
    fn bad_seeds_are_errors() {
        let f = BoolFn::from_indices(2, &[0b00, 0b11]);
        // Misses point 11.
        let partial = vec!["00".parse::<spp_boolfn::Cube>().unwrap()];
        let err = heuristic_from_cover_session(
            &f,
            &partial,
            0,
            &SppOptions::default(),
            &RunCtx::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SppError::SeedNotACover { .. }), "{err:?}");
        // Covers the OFF point 01.
        let sloppy = vec!["--".parse::<spp_boolfn::Cube>().unwrap()];
        let err = heuristic_from_cover_session(
            &f,
            &sloppy,
            0,
            &SppOptions::default(),
            &RunCtx::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SppError::SeedNotImplicant { .. }), "{err:?}");
    }

    #[test]
    fn expired_deadline_still_realizes_f() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let ctx = RunCtx::new().with_deadline_in(std::time::Duration::ZERO);
        let r = heuristic_session(&f, 2, &SppOptions::default(), &ctx).unwrap();
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn constant_functions() {
        let zero = BoolFn::from_indices(3, &[]);
        let r = heuristic(&zero, 0);
        assert_eq!(r.form.num_pseudoproducts(), 0);
        let one = BoolFn::from_truth_fn(3, |_| true);
        let r = heuristic(&one, 0);
        assert!(r.form.check_realizes(&one).is_ok());
        assert_eq!(r.literal_count(), 0);
    }

    #[test]
    fn candidates_include_the_prime_implicants_not_discarded() {
        let f = BoolFn::from_indices(3, &[0b001, 0b011, 0b111]);
        let r = heuristic(&f, 0);
        assert!(r.num_candidates >= 1);
        assert!(r.form.check_realizes(&f).is_ok());
    }
}
