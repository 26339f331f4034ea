//! Restricted `k`-SPP forms: SPP synthesis where every EXOR factor holds
//! at most `k` literals.
//!
//! The paper's conclusions call for forms whose complexity "no longer
//! depends on the number of pseudoproducts"; the follow-up line of work
//! (2-SPP networks) restricts EXOR factors to two literals, trading a few
//! literals for bounded-fan-in EXOR gates and a far smaller search space.
//! This module implements that restriction for any `k ≥ 1`:
//!
//! - `k = 1` degenerates to plain SP minimization (factors are literals);
//! - `k = 2` is the classical 2-SPP form;
//! - `k ≥ n` places no restriction and agrees with full SPP.

use spp_boolfn::BoolFn;
use spp_obs::{Event, Phase, RunCtx, Rung};

use crate::generate::generate_eppp_session;
use crate::minimize::{cover_with_candidates, sp_minimum};
use crate::{GenLimits, Grouping, Pseudocube, SppError, SppForm, SppMinResult, SppOptions};

/// Whether every EXOR factor of the canonical expression of `pc` has at
/// most `max_literals` literals.
///
/// The factor of non-canonical variable `q` holds `1 + r(q)` literals,
/// where `r(q)` is the number of echelon-basis rows with a 1 in column
/// `q`, so the test runs on the representation without building the CEX.
///
/// # Examples
///
/// ```
/// use spp_core::{factor_width_at_most, Pseudocube};
/// use spp_gf2::Gf2Vec;
///
/// // {01, 10} is x0 ⊕ x1: one factor of width 2.
/// let pc = Pseudocube::from_points(&[
///     Gf2Vec::from_bit_str("01").unwrap(),
///     Gf2Vec::from_bit_str("10").unwrap(),
/// ]).unwrap();
/// assert!(factor_width_at_most(&pc, 2));
/// assert!(!factor_width_at_most(&pc, 1));
/// ```
#[must_use]
pub fn factor_width_at_most(pc: &Pseudocube, max_literals: usize) -> bool {
    let dirs = pc.structure();
    if max_literals == 0 {
        return dirs.dim() == pc.num_vars(); // only the whole space has no factor
    }
    for q in 0..pc.num_vars() {
        if dirs.is_pivot(q) {
            continue;
        }
        let width = 1 + dirs.rows().iter().filter(|r| r.get(q)).count();
        if width > max_literals {
            return false;
        }
    }
    true
}

/// The run-control-aware restricted minimizer behind
/// [`crate::Minimizer::run_restricted`]: minimizes `f` as a `k`-SPP form
/// — an SPP form in which every EXOR factor has at most
/// `max_factor_literals` literals (2 gives the classical 2-SPP form).
///
/// Candidate generation follows Algorithm 2, but a union whose canonical
/// expression violates the width bound is still *traversed* (it may lead
/// to conforming pseudocubes of higher degree) while only conforming
/// pseudocubes are offered to the covering step. Single points always
/// conform, so the result is always a valid cover. Checkpoint behaviour
/// matches the exact pipeline: one counted checkpoint per generation
/// level, sparse deadline/cancel polls in sweeps and the covering
/// search.
pub(crate) fn restricted_session(
    f: &BoolFn,
    max_factor_literals: usize,
    options: &SppOptions,
    ctx: &RunCtx,
) -> Result<SppMinResult, SppError> {
    if max_factor_literals == 0 {
        return Err(SppError::ZeroFactorWidth);
    }
    let gen_start = std::time::Instant::now();
    ctx.emit(Event::PhaseStarted { phase: Phase::Generate });
    let eppp = generate_eppp_session(
        f,
        options.grouping,
        &options.gen_limits,
        &|pc| factor_width_at_most(pc, max_factor_literals),
        ctx,
    );
    let mut outcome = eppp.stats.outcome;
    let mut candidates: Vec<Pseudocube> = eppp.pseudocubes;
    if eppp.stats.truncated {
        // Cubes have width-1 factors, so the SP prime implicants always
        // conform: fold them in so a truncated run never loses to SP.
        let known: std::collections::HashSet<&Pseudocube> = candidates.iter().collect();
        let extra: Vec<Pseudocube> = spp_sp::prime_implicants(f)
            .iter()
            .map(Pseudocube::from_cube)
            .filter(|pc| !known.contains(pc))
            .collect();
        candidates.extend(extra);
    }
    // The width filter can drop the pseudoproducts that covered some
    // minterms (their EPPP substitutes may be wide); single points always
    // conform, so re-add any uncovered ones.
    for point in f.on_set() {
        if !candidates.iter().any(|pc| pc.contains(point)) {
            candidates.push(Pseudocube::from_point(*point));
        }
    }
    let gen_elapsed = gen_start.elapsed();
    ctx.emit(Event::PhaseFinished {
        phase: Phase::Generate,
        wall: gen_elapsed,
        outcome: eppp.stats.outcome,
    });
    let cover_start = std::time::Instant::now();
    ctx.emit(Event::PhaseStarted { phase: Phase::Cover });
    let (mut form, cover_optimal, cover_outcome) = cover_with_candidates(
        f,
        &candidates,
        &options.cover_limits,
        options.gen_limits.parallelism,
        ctx,
    );
    outcome = outcome.merge(cover_outcome);
    if eppp.stats.truncated {
        // As in the unrestricted minimizer: never return worse than SP.
        let sp = sp_minimum(f, &options.cover_limits);
        if sp.form.literal_count() < form.literal_count() {
            form = SppForm::from_sp(&sp.form);
        }
    }
    let cover_elapsed = cover_start.elapsed();
    ctx.emit(Event::PhaseFinished {
        phase: Phase::Cover,
        wall: cover_elapsed,
        outcome: cover_outcome,
    });
    Ok(SppMinResult {
        form,
        num_candidates: candidates.len(),
        optimal: cover_optimal && !eppp.stats.truncated && outcome.is_completed(),
        gen_stats: eppp.stats,
        gen_elapsed,
        cover_elapsed,
        outcome,
        rung: Rung::RestrictedExact,
        faults: ctx.faults(),
    })
}

/// Sanity default used by the harness: generation budget for restricted
/// sweeps mirrors the unrestricted default.
#[must_use]
pub fn restricted_default_limits() -> GenLimits {
    GenLimits::default()
}

/// The grouping used by restricted sweeps (same as the default).
#[must_use]
pub fn restricted_default_grouping() -> Grouping {
    Grouping::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::exact_session;
    use crate::SppForm;
    use spp_gf2::Gf2Vec;
    use spp_sp::minimize_sp;

    fn v(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    fn minimize_spp_restricted(f: &BoolFn, width: usize, options: &SppOptions) -> SppMinResult {
        restricted_session(f, width, options, &RunCtx::default()).unwrap()
    }

    fn minimize_2spp(f: &BoolFn, options: &SppOptions) -> SppMinResult {
        minimize_spp_restricted(f, 2, options)
    }

    fn minimize_spp_exact(f: &BoolFn, options: &SppOptions) -> SppMinResult {
        exact_session(f, options, &RunCtx::default())
    }

    #[test]
    fn width_test_counts_factor_literals() {
        // Figure 1: factors of widths 1, 3, 3.
        let points: Vec<Gf2Vec> =
            ["010101", "010110", "011001", "011010", "110000", "110011", "111100", "111111"]
                .iter()
                .map(|s| v(s))
                .collect();
        let pc = Pseudocube::from_points(&points).unwrap();
        assert!(factor_width_at_most(&pc, 3));
        assert!(!factor_width_at_most(&pc, 2));
        // Cubes have width-1 factors only.
        let cube = Pseudocube::from_cube(&"1-0".parse().unwrap());
        assert!(factor_width_at_most(&cube, 1));
    }

    #[test]
    fn k1_equals_sp() {
        // With factors of one literal, k-SPP is exactly SP minimization.
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() >= 3);
        let restricted = minimize_spp_restricted(&f, 1, &SppOptions::default());
        let sp = minimize_sp(&f, &spp_cover::Limits::default());
        assert_eq!(restricted.literal_count(), sp.literal_count());
        assert!(restricted.form.terms().iter().all(Pseudocube::is_cube));
    }

    #[test]
    fn wide_k_equals_full_spp() {
        let f = BoolFn::from_truth_fn(4, |x| x % 5 == 1 || x.count_ones() % 2 == 0);
        let full = minimize_spp_exact(&f, &SppOptions::default());
        let loose = minimize_spp_restricted(&f, 4, &SppOptions::default());
        assert_eq!(loose.literal_count(), full.literal_count());
    }

    #[test]
    fn two_spp_sits_between_sp_and_spp() {
        let f = BoolFn::from_truth_fn(5, |x| (x ^ (x >> 2)) & 1 == 1 && x & 0b10 != 0);
        let sp = minimize_sp(&f, &spp_cover::Limits::default());
        let spp = minimize_spp_exact(&f, &SppOptions::default());
        let two = minimize_2spp(&f, &SppOptions::default());
        assert!(two.form.check_realizes(&f).is_ok());
        assert!(spp.literal_count() <= two.literal_count());
        assert!(two.literal_count() <= sp.literal_count());
        assert!(two.form.terms().iter().all(|t| factor_width_at_most(t, 2)));
    }

    #[test]
    fn parity_2spp_splits_the_factor() {
        // x0⊕x1⊕x2⊕x3 cannot be one 2-SPP factor; the cover still wins
        // over SP (32 literals).
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let two = minimize_2spp(&f, &SppOptions::default());
        assert!(two.form.check_realizes(&f).is_ok());
        assert!(two.literal_count() > 4);
        assert!(two.literal_count() < 32);
    }

    #[test]
    fn uncoverable_points_are_repaired() {
        // Tight truncation: the width filter plus truncation must never
        // produce an uncoverable instance.
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        let options = SppOptions::default().with_gen_limits(
            GenLimits::default().with_max_pseudocubes(20).with_max_level_size(10),
        );
        let r = minimize_spp_restricted(&f, 2, &options);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn empty_function() {
        let f = BoolFn::from_indices(3, &[]);
        let r = minimize_2spp(&f, &SppOptions::default());
        assert_eq!(r.form, SppForm::new(3, vec![]));
    }

    #[test]
    fn zero_width_is_an_error() {
        let f = BoolFn::from_indices(2, &[1]);
        let err =
            restricted_session(&f, 0, &SppOptions::default(), &RunCtx::default()).unwrap_err();
        assert_eq!(err, SppError::ZeroFactorWidth);
    }
}
