//! Weighted set covering for logic minimization.
//!
//! Both SP and SPP minimization end in the same place (paper §1): a
//! minimum-cost set-covering problem `⟨X, Y, R⟩` where `X` are the ON-set
//! minterms, `Y` are the candidate implicants / extended prime
//! pseudoproducts, and the cost of a column is its literal count. This crate
//! is that shared final step.
//!
//! It provides:
//!
//! - [`CoverProblem`]: a sparse rows × columns incidence structure with
//!   per-column costs;
//! - [`solve_greedy`]: the classical ratio-rule greedy with redundancy
//!   elimination — fast, used for the huge EPPP instances (the paper also
//!   resorts to covering heuristics and reports upper bounds);
//! - [`solve_exact`]: branch & bound with essential-column selection,
//!   row/column dominance reductions and an independent-set lower bound,
//!   under a configurable node/time budget;
//! - [`solve_auto`]: greedy first, then exact refinement when the instance
//!   is within budget.
//!
//! # Examples
//!
//! ```
//! use spp_cover::{CoverProblem, solve_auto, Limits};
//!
//! let mut p = CoverProblem::new(3);
//! p.add_column(&[0, 1], 2);
//! p.add_column(&[1, 2], 2);
//! p.add_column(&[0, 1, 2], 3);
//! let sol = solve_auto(&p, &Limits::default());
//! assert_eq!(sol.cost, 3); // the single wide column wins
//! assert!(p.is_cover(&sol.columns));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod exact;
mod greedy;
mod problem;
mod reduce;

pub use bitset::{BitSet, LoneOne};
pub use exact::{solve_exact, solve_exact_ctx};
pub use greedy::solve_greedy;
pub use problem::{CoverProblem, CoverSolution, Limits};
pub use spp_obs::{Event, Outcome, RunCtx};
pub use spp_par::Parallelism;

/// Solves `problem` with the best strategy for its size: greedy always, and
/// exact branch & bound (seeded with the greedy bound) when the instance is
/// within `limits.max_exact_columns`.
///
/// The returned solution's [`optimal`](CoverSolution::optimal) flag is true
/// only when the branch & bound proved optimality within budget.
///
/// # Examples
///
/// ```
/// use spp_cover::{CoverProblem, solve_auto, Limits};
///
/// let mut p = CoverProblem::new(2);
/// p.add_column(&[0], 1);
/// p.add_column(&[1], 1);
/// let sol = solve_auto(&p, &Limits::default());
/// assert_eq!(sol.columns.len(), 2);
/// assert!(sol.optimal);
/// ```
#[must_use]
pub fn solve_auto(problem: &CoverProblem, limits: &Limits) -> CoverSolution {
    solve_auto_ctx(problem, limits, &RunCtx::default()).0
}

/// [`solve_auto`] under a run-control context (see [`solve_exact_ctx`]):
/// emits `CoverStarted` / `CoverFinished` events, skips the exact
/// refinement when the context has already expired — the greedy cover *is*
/// the best-so-far then — and reports how the step ended.
///
/// The covering matrix is charged to the context's
/// [`ResourceGovernor`](spp_obs::ResourceGovernor) up front: a blown
/// *hard* budget stops the run after the (cheap) greedy pass with
/// [`Outcome::MemoryExceeded`], while a blown *soft* budget only skips the
/// exact refinement — the greedy cover completes the step.
#[must_use]
pub fn solve_auto_ctx(
    problem: &CoverProblem,
    limits: &Limits,
    ctx: &RunCtx,
) -> (CoverSolution, Outcome) {
    solve_auto_warm(problem, limits, None, ctx)
}

/// [`solve_auto_ctx`] seeded with a previously known cover.
///
/// `warm` is a column selection from an earlier run on the *same* problem
/// (e.g. the result cache's warm-start path: same function, different
/// covering budgets). It is re-validated here — its columns must be in
/// range and must cover every row — and its cost is recomputed against
/// this problem's costs, so a stale or mismapped selection degrades to
/// "ignored", never to a wrong answer. The branch & bound then starts from
/// the cheaper of the greedy cover and the warm cover; on a cost tie the
/// greedy cover wins, keeping results bit-identical with and without a
/// warm seed whenever the seed brings no strict improvement.
#[must_use]
pub fn solve_auto_warm(
    problem: &CoverProblem,
    limits: &Limits,
    warm: Option<&CoverSolution>,
    ctx: &RunCtx,
) -> (CoverSolution, Outcome) {
    ctx.emit(Event::CoverStarted { rows: problem.num_rows(), columns: problem.num_columns() });
    ctx.failpoint("cover.columns");
    ctx.governor().charge(problem.approx_bytes());
    let greedy = solve_greedy(problem);
    let mut outcome = ctx.stop_reason().unwrap_or_default();
    let mut solution = greedy;
    if let Some(warm) = warm {
        let in_range = warm.columns.iter().all(|&c| c < problem.num_columns());
        if in_range && problem.is_cover(&warm.columns) {
            let cost = problem.total_cost(&warm.columns);
            if cost < solution.cost {
                solution =
                    CoverSolution { columns: warm.columns.clone(), cost, optimal: false };
            }
        }
    }
    if outcome.is_completed()
        && !ctx.governor().soft_exceeded()
        && problem.num_columns() <= limits.max_exact_columns
    {
        // `solve_exact_ctx` emits the final CoverFinished event itself,
        // with the true node count.
        let (exact, exact_outcome) = solve_exact_ctx(problem, limits, Some(&solution), ctx);
        outcome = exact_outcome;
        if exact.cost <= solution.cost {
            solution = exact;
        }
    } else {
        // Greedy only: report it as the final cover (0 nodes explored).
        ctx.emit(Event::CoverFinished {
            cost: solution.cost,
            nodes: 0,
            optimal: solution.optimal,
        });
    }
    (solution, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn greedy_trap() -> CoverProblem {
        // 5 rows. The wide middle column (1) has the best ratio, so greedy
        // takes it and ends at cost 9 with nothing redundant to drop; the
        // optimum is columns {0, 2, 3} at cost 8.
        let mut p = CoverProblem::new(5);
        p.add_column(&[0, 1], 3); // 0
        p.add_column(&[1, 2, 3], 3); // 1: ratio 1.0, greedy's first pick
        p.add_column(&[3, 4], 3); // 2
        p.add_column(&[2], 2); // 3
        p
    }

    #[test]
    fn warm_seed_is_validated_and_never_worsens_the_result() {
        let p = greedy_trap();
        let limits = Limits::default();
        let ctx = RunCtx::default();
        let (cold, _) = solve_auto_ctx(&p, &limits, &ctx);
        assert_eq!(cold.cost, 8);

        // A valid warm cover — even a suboptimal one — must not change
        // the exact answer.
        let warm = CoverSolution { columns: vec![0, 1, 2], cost: 9, optimal: false };
        let (warmed, _) = solve_auto_warm(&p, &limits, Some(&warm), &ctx);
        assert_eq!(warmed.columns, cold.columns);
        assert_eq!(warmed.cost, cold.cost);

        // Out-of-range and non-covering seeds are ignored, not trusted.
        for bad in [vec![0, 99], vec![0], vec![]] {
            let warm = CoverSolution { columns: bad, cost: 1, optimal: false };
            let (sol, _) = solve_auto_warm(&p, &limits, Some(&warm), &ctx);
            assert_eq!(sol.cost, cold.cost);
            assert!(p.is_cover(&sol.columns));
        }

        // A lying cost field is recomputed, so a "cheap" bad seed cannot
        // displace the greedy incumbent.
        let warm = CoverSolution { columns: vec![0, 1, 2], cost: 0, optimal: false };
        let (sol, _) = solve_auto_warm(&p, &limits, Some(&warm), &ctx);
        assert_eq!(sol.cost, cold.cost);
    }

    #[test]
    fn warm_seed_replaces_greedy_when_strictly_cheaper_and_exact_is_skipped() {
        let p = greedy_trap();
        // Forbid the exact refinement so the chosen incumbent is the
        // observable result.
        let limits = Limits::default().with_max_exact_columns(0);
        let ctx = RunCtx::default();
        let (greedy_only, _) = solve_auto_ctx(&p, &limits, &ctx);
        assert_eq!(greedy_only.cost, 9);
        let warm = CoverSolution { columns: vec![0, 2, 3], cost: 8, optimal: true };
        let (sol, outcome) = solve_auto_warm(&p, &limits, Some(&warm), &ctx);
        assert!(outcome.is_completed());
        assert_eq!(sol.columns, vec![0, 2, 3]);
        assert_eq!(sol.cost, 8);
        assert!(sol.cost < greedy_only.cost);
        // Adopted seeds are incumbents, not proofs.
        assert!(!sol.optimal);
    }
}
