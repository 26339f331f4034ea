//! Fault injection into the covering search. The failpoint registry is
//! process-global, so this test lives in a binary of its own: an armed
//! `cover.subtree` panic must never reach a search from another test.

#![cfg(feature = "failpoints")]

use spp_cover::{
    solve_exact_ctx, solve_greedy, CoverProblem, Limits, Outcome, Parallelism, RunCtx,
};
use spp_obs::failpoints::{self, FailAction};

/// An injected subtree panic at any thread count keeps the warm-start
/// incumbent, records the fault and never escapes `solve_exact_ctx`.
#[test]
fn injected_subtree_panic_keeps_the_incumbent() {
    // Edge cover of K7: the LP-dual bound (7) stays below the optimum
    // (8), so the search must branch into subtrees.
    let mut p = CoverProblem::new(7);
    for i in 0..7 {
        for j in (i + 1)..7 {
            p.add_column(&[i, j], 2);
        }
    }
    let greedy = solve_greedy(&p);
    for threads in [1usize, 2, 4] {
        failpoints::clear_all();
        failpoints::set("cover.subtree", FailAction::Panic("injected".to_owned()));
        let ctx = RunCtx::new();
        let limits = Limits::default().with_parallelism(Parallelism::fixed(threads));
        let (sol, outcome) = solve_exact_ctx(&p, &limits, Some(&greedy), &ctx);
        assert!(p.is_cover(&sol.columns), "threads={threads}");
        assert!(sol.cost <= greedy.cost, "threads={threads}");
        assert!(!sol.optimal, "threads={threads}");
        assert_eq!(outcome, Outcome::Completed, "threads={threads}");
        let faults = ctx.faults();
        assert!(!faults.is_empty(), "threads={threads}");
        assert!(faults.iter().all(|f| f.site == "cover.subtree"), "threads={threads}");
        assert!(faults[0].message.contains("injected"), "threads={threads}");
    }
    failpoints::clear_all();
}
