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
//!
//! The minimizer itself is the Algorithm-2 session of the exact path
//! ([`crate::Minimizer::run_restricted`]) run over the family this
//! module's width test admits: a union whose canonical expression
//! violates the bound is still *traversed* (it may lead to conforming
//! pseudocubes of higher degree), while only conforming pseudocubes are
//! offered to the covering step. Single points always conform, so the
//! result is always a valid cover.

use crate::Pseudocube;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::{algorithm2_session, exact_session};
    use crate::{GenLimits, SppError, SppForm, SppMinResult, SppOptions};
    use spp_boolfn::BoolFn;
    use spp_gf2::Gf2Vec;
    use spp_obs::RunCtx;
    use spp_sp::minimize_sp;

    fn v(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    fn minimize_spp_restricted(f: &BoolFn, width: usize, options: &SppOptions) -> SppMinResult {
        algorithm2_session(f, Some(width), options, &RunCtx::default(), None).unwrap()
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
        let err = algorithm2_session(&f, Some(0), &SppOptions::default(), &RunCtx::default(), None)
            .unwrap_err();
        assert_eq!(err, SppError::ZeroFactorWidth);
    }
}
