//! Minimum-literal SP synthesis.

use spp_boolfn::{BoolFn, Cube};
use spp_cover::{solve_auto, CoverProblem, Limits};

use crate::{prime_implicants, SpForm};

/// The outcome of [`minimize_sp`].
#[derive(Clone, Debug)]
pub struct SpMinResult {
    /// The minimized form.
    pub form: SpForm,
    /// Every prime implicant of the function, sorted — the covering
    /// step's columns. Their count is the paper's `#PI` column.
    pub primes: Vec<Cube>,
    /// Whether the covering step proved the literal count minimal.
    pub optimal: bool,
}

impl SpMinResult {
    /// The paper's `#L` column: literals in the minimized form.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        self.form.literal_count()
    }
}

/// Minimizes `f` as a two-level SP form with the fewest literals: generates
/// all prime implicants (Quine–McCluskey) and solves the induced covering
/// problem (rows = ON-set minterms, columns = primes, cost = literals).
///
/// Like the paper, the covering step may fall back to a heuristic upper
/// bound on very large instances; `optimal` reports which case occurred.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_sp::minimize_sp;
///
/// let maj = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
/// let r = minimize_sp(&maj, &spp_cover::Limits::default());
/// assert_eq!(r.form.num_products(), 3);
/// assert_eq!(r.literal_count(), 6);
/// assert!(r.form.realizes(&maj));
/// ```
#[must_use]
pub fn minimize_sp(f: &BoolFn, limits: &Limits) -> SpMinResult {
    let primes = prime_implicants(f);
    let on = f.on_set();
    let mut problem = CoverProblem::new(on.len());
    for prime in &primes {
        let rows: Vec<usize> = on
            .iter()
            .enumerate()
            .filter(|(_, p)| prime.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        // A cube of 0 literals (the universal cube) can only arise for a
        // tautology; give it cost 1 so the covering cost stays positive.
        problem.add_column(&rows, u64::from(prime.literal_count()).max(1));
    }
    let solution = solve_auto(&problem, limits);
    let cubes = solution.columns.iter().map(|&c| primes[c]).collect();
    SpMinResult { form: SpForm::new(f.num_vars(), cubes), primes, optimal: solution.optimal }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adr_like_example_from_paper_intro() {
        // x1·x2·x̄4 + x̄1·x2·x4 (variables renamed to x0,x1,x2): SP needs 6
        // literals; the paper's SPP form x2(x1 ⊕ x4) needs 3.
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let r = minimize_sp(&f, &Limits::default());
        assert_eq!(r.literal_count(), 6);
        assert_eq!(r.form.num_products(), 2);
        assert!(r.optimal);
        assert!(r.form.realizes(&f));
    }

    #[test]
    fn constant_zero() {
        let f = BoolFn::from_indices(3, &[]);
        let r = minimize_sp(&f, &Limits::default());
        assert_eq!(r.form.num_products(), 0);
        assert!(r.form.realizes(&f));
    }

    #[test]
    fn tautology() {
        let f = BoolFn::from_truth_fn(3, |_| true);
        let r = minimize_sp(&f, &Limits::default());
        assert_eq!(r.form.num_products(), 1);
        assert_eq!(r.form.literal_count(), 0);
        assert!(r.form.realizes(&f));
    }

    #[test]
    fn parity_needs_all_minterms() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = minimize_sp(&f, &Limits::default());
        assert_eq!(r.form.num_products(), 4);
        assert_eq!(r.literal_count(), 12);
        assert!(r.form.realizes(&f));
    }

    #[test]
    fn exhaustive_small_functions_are_realized() {
        // All 256 functions on 3 variables: the result must always realize
        // the function, and its cost must never beat the trivial lower
        // bound of 0.
        for tt in 0u16..=255 {
            let f = BoolFn::from_truth_fn(3, |x| tt >> x & 1 == 1);
            let r = minimize_sp(&f, &Limits::default());
            assert!(r.form.realizes(&f), "truth table {tt:#010b}");
        }
    }

    #[test]
    fn dont_cares_reduce_cost() {
        use spp_gf2::Gf2Vec;
        let p = |s: &str| Gf2Vec::from_bit_str(s).unwrap();
        let strict = BoolFn::from_minterms(2, [p("11")]);
        let relaxed = BoolFn::with_dont_cares(2, [p("11")], [p("10"), p("01")]);
        let rs = minimize_sp(&strict, &Limits::default());
        let rr = minimize_sp(&relaxed, &Limits::default());
        assert!(rr.literal_count() < rs.literal_count());
        assert!(rr.form.realizes(&relaxed));
    }
}
