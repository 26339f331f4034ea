//! Exact branch & bound covering solver.
//!
//! The search keeps **one** mutable [`TrailState`] per worker and journals
//! every mutation in an undo trail, so descending into a node costs a few
//! pushes and backtracking is a replay — nothing on the search path
//! allocates. Root branching decisions fan out as independent subtrees on
//! [`spp_par::par_ranges`] scoped threads; workers share the incumbent
//! through a single packed atomic (see [`pack`]) whose ordering makes the
//! returned cover **bit-identical at any thread count** for completed
//! searches, while deadline/cancel/budget stops still unwind every worker
//! to a verified incumbent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

use spp_obs::{Event, Outcome, RunCtx};

use crate::problem::{CoverProblem, CoverSolution, Limits};
use crate::reduce::{
    branch_row, fix_reduced_costs, lower_bound, remove_dominated_cols, remove_dominated_rows,
    select_essentials, RowIndex, Scratch, TrailState,
};

/// Columns/rows thresholds under which the dominance reductions are
/// applied at an interior node (compared against the *active* counts,
/// so deep subproblems qualify as they shrink). They were tuned on the
/// registry covers while both passes were all-pairs, to small
/// subproblems, where dominance is what closes the proof of optimality.
/// Where dominance runs decides which columns a node branches on, so
/// moving a gate changes node counts, not only wall time.
const COL_DOMINANCE_LIMIT: usize = 64;
const ROW_DOMINANCE_LIMIT: usize = 64;

/// Active-column threshold under which an interior node solves for fresh
/// LP duals (the root always does); every node also has the root's duals
/// ([`TrailState::inherited_bound`]). Fresh duals cost time in the
/// nonzeros of the active submatrix, so on wide nodes they would outweigh
/// the pruning they buy: solving them at every node made the node-capped
/// searches (`life`, `root`) several times slower per node, while this
/// gate keeps their per-node cost and all of the gain on narrow covers.
const LP_DUAL_LIMIT: usize = 256;

/// The root node is reduced once per solve, so it affords a much wider
/// gate: one pass over a few thousand columns is milliseconds and
/// shrinks every subtree underneath.
const ROOT_COL_DOMINANCE_LIMIT: usize = 4096;
const ROOT_ROW_DOMINANCE_LIMIT: usize = 2048;

/// Workers flush their node count and poll for stop requests every this
/// many nodes (more often when the node budget is nearly spent).
const SYNC_INTERVAL: u64 = 256;

/// Low bits of the packed incumbent rank that hold the subtree index.
const SUBTREE_BITS: u32 = 20;

/// Packs an incumbent as `(cost << SUBTREE_BITS) | subtree` so that one
/// atomic `u64` totally orders candidate solutions by *(cost, root-subtree
/// rank)*. A worker prunes iff its packed rank is `>=` the shared bound
/// and records strictly-smaller ranks via compare-and-swap, so the final
/// minimum is the DFS-first minimum-cost solution of the lowest-ranked
/// subtree containing the optimum — the sequential answer — no matter how
/// the workers interleave. (Both fields saturate; costs are literal
/// counts, nowhere near 2^44, and a branch row with 2^20 columns would
/// only soften tie-breaking among those overflow subtrees.)
fn pack(cost: u64, subtree: usize) -> u64 {
    let subtree_mask = (1u64 << SUBTREE_BITS) - 1;
    (cost.min(u64::MAX >> SUBTREE_BITS) << SUBTREE_BITS) | (subtree as u64).min(subtree_mask)
}

/// Shared stop flag values: the first cause wins.
const RUNNING: u8 = 0;
const STOP_BUDGET: u8 = 1;
const STOP_DEADLINE: u8 = 2;
const STOP_CANCELLED: u8 = 3;
const STOP_MEMORY: u8 = 4;

/// State shared by all search workers of one `solve_exact_ctx` call.
struct Shared<'a> {
    problem: &'a CoverProblem,
    index: &'a RowIndex,
    limits: &'a Limits,
    ctx: &'a RunCtx,
    /// The warm start's cost, fixed before any worker starts: reduced-cost
    /// fixing retires columns against it, not against the live `bound`,
    /// so which columns a node retires (and with them the branching row
    /// and the DFS-first optimum) does not depend on worker timing.
    seed_cost: u64,
    /// Packed `(cost, subtree)` rank of the best incumbent (see [`pack`]).
    bound: AtomicU64,
    /// Total nodes explored; starts at 1 for the root node.
    nodes: AtomicU64,
    /// One of the `RUNNING`/`STOP_*` codes.
    stop: AtomicU8,
    /// Whether any subtree panicked (and was isolated): the search is then
    /// incomplete regardless of the stop code, so `optimal` stays `false`
    /// while the other workers run to completion.
    panicked: AtomicBool,
}

impl Shared<'_> {
    /// Latches a stop cause; later causes lose so the report is stable.
    fn flag_stop(&self, code: u8) {
        let _ = self.stop.compare_exchange(RUNNING, code, Ordering::AcqRel, Ordering::Relaxed);
    }
}

/// A recorded incumbent improvement. Workers keep their own lists (no
/// shared solution storage, hence no locks); the driver takes the global
/// minimum by rank at the end.
struct Improvement {
    rank: u64,
    cost: u64,
    columns: Vec<usize>,
}

/// One search worker: a trail state, its scratch buffers and the node
/// accounting against the shared budget.
struct Worker<'a> {
    shared: &'a Shared<'a>,
    state: TrailState,
    scratch: Scratch,
    /// Root-subtree rank of the branch currently being searched.
    subtree: usize,
    /// Nodes counted locally but not yet flushed to `shared.nodes`.
    pending: u64,
    /// Nodes until the next flush/stop poll; starts at 1 so every worker
    /// syncs on its first node and then paces itself off the global count.
    countdown: u64,
    /// Total nodes this worker explored (for subtree events).
    local_nodes: u64,
    stopped: bool,
    improvements: Vec<Improvement>,
}

impl<'a> Worker<'a> {
    fn new(shared: &'a Shared<'a>, state: TrailState) -> Worker<'a> {
        Worker {
            shared,
            state,
            scratch: Scratch::new(shared.problem),
            subtree: 0,
            pending: 0,
            countdown: 1,
            local_nodes: 0,
            stopped: false,
            improvements: Vec::new(),
        }
    }

    /// Flushes the local node count and polls the budget, the deadline and
    /// the cancellation token (uncounted — counted checkpoints are the
    /// main thread's, so the counted trip point stays deterministic).
    fn sync(&mut self) {
        let total = self.shared.nodes.fetch_add(self.pending, Ordering::Relaxed) + self.pending;
        self.pending = 0;
        if total >= self.shared.limits.max_nodes {
            self.shared.flag_stop(STOP_BUDGET);
        } else if let Some(reason) = self.shared.ctx.stop_reason() {
            self.shared.flag_stop(match reason {
                Outcome::Cancelled => STOP_CANCELLED,
                Outcome::MemoryExceeded => STOP_MEMORY,
                _ => STOP_DEADLINE,
            });
        }
        self.stopped = self.shared.stop.load(Ordering::Acquire) != RUNNING;
        // Never outrun the node budget by more than one sync interval.
        self.countdown =
            self.shared.limits.max_nodes.saturating_sub(total).clamp(1, SYNC_INTERVAL);
    }

    /// Accounts one node; returns `false` when the worker must unwind.
    fn enter_node(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        self.pending += 1;
        self.local_nodes += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.sync();
        }
        !self.stopped
    }

    /// Whether a branch whose completions rank at least `cost` is beaten
    /// by the shared incumbent.
    fn pruned(&self, cost: u64) -> bool {
        pack(cost, self.subtree) >= self.shared.bound.load(Ordering::Acquire)
    }

    /// The smallest lower bound on the remaining cost that makes
    /// [`Worker::pruned`] cut the current node.
    fn prune_target(&self) -> u64 {
        let bound = self.shared.bound.load(Ordering::Acquire);
        // `pack` grows with the cost, so the least pruned total is the
        // incumbent's cost if this subtree ranks at or after it, else one
        // more.
        let at = bound >> SUBTREE_BITS;
        let least = if pack(at, self.subtree) >= bound { at } else { at + 1 };
        least.saturating_sub(self.state.cost)
    }

    /// Runs [`lower_bound`] on the current state (with fresh LP duals when
    /// at most `LP_DUAL_LIMIT` columns are active) and returns whether it
    /// prunes the node. Leaves the row order and counts behind for
    /// branching.
    fn pruned_by_lower_bound(&mut self) -> bool {
        let lp_target = (self.state.cols_left() <= LP_DUAL_LIMIT).then(|| self.prune_target());
        let lb = lower_bound(
            self.shared.problem,
            self.shared.index,
            &self.state,
            &mut self.scratch,
            lp_target,
        );
        self.pruned(self.state.cost + lb)
    }

    /// Publishes the current (complete) selection if it still beats the
    /// shared incumbent at this instant.
    fn try_record(&mut self) {
        let cost = self.state.cost;
        let rank = pack(cost, self.subtree);
        let mut current = self.shared.bound.load(Ordering::Acquire);
        while rank < current {
            match self.shared.bound.compare_exchange_weak(
                current,
                rank,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.improvements.push(Improvement {
                        rank,
                        cost,
                        columns: self.state.selected.clone(),
                    });
                    self.shared.ctx.emit(Event::CoverImproved {
                        cost,
                        nodes: self.shared.nodes.load(Ordering::Relaxed) + self.pending,
                    });
                    return;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Searches the subtree below the current trail state. The caller owns
    /// the trail mark: every mutation made here (including on early
    /// returns) is undone by the caller's `undo_to`.
    fn recurse(&mut self, depth: usize) {
        if !self.enter_node() {
            return;
        }
        if !select_essentials(self.shared.problem, self.shared.index, &mut self.state) {
            return; // infeasible branch (a row lost all its columns)
        }
        // The inherited bound costs O(1), so it cuts before any per-node
        // pass does work.
        if self.pruned(self.state.cost + self.state.inherited_bound()) {
            return;
        }
        if self.state.done() {
            self.try_record();
            return;
        }
        self.scratch.enter_node();
        if self.state.rows_left() <= ROW_DOMINANCE_LIMIT {
            remove_dominated_rows(self.shared.index, &mut self.state, &mut self.scratch);
        }
        if self.state.cols_left() <= COL_DOMINANCE_LIMIT {
            remove_dominated_cols(
                self.shared.problem,
                self.shared.index,
                &mut self.state,
                &mut self.scratch,
            );
            // Dominance may have created new essentials.
            if !select_essentials(self.shared.problem, self.shared.index, &mut self.state) {
                return;
            }
            if self.state.done() {
                self.try_record();
                return;
            }
        }
        if self.pruned_by_lower_bound() {
            return;
        }
        // A node that gets here with at most LP_DUAL_LIMIT columns has just
        // solved fresh duals (one whose MIS bound reached the prune target
        // was cut above). Columns whose every completion costs at least
        // the warm start can never be recorded: retire them, then settle
        // the node again before branching.
        let budget = self.shared.seed_cost.saturating_sub(self.state.cost);
        if fix_reduced_costs(&mut self.state, &mut self.scratch, budget) {
            if !select_essentials(self.shared.problem, self.shared.index, &mut self.state) {
                return;
            }
            if self.state.done() {
                self.try_record();
                return;
            }
            if self.pruned_by_lower_bound() {
                return;
            }
        }

        let mut choices = self.scratch.take_choices(depth);
        branch_choices(
            self.shared.problem,
            self.shared.index,
            &self.state,
            &self.scratch,
            &mut choices,
        );
        for &(_, col) in &choices {
            let c = col as usize;
            let mark = self.state.mark();
            self.state.select(self.shared.problem, c);
            self.recurse(depth + 1);
            self.state.undo_to(self.shared.problem, mark);
            if self.stopped {
                break;
            }
            // Any cover avoiding all earlier choices must still cover the
            // branch row with a later column, so excluding tried columns
            // keeps the enumeration complete and duplicate-free.
            self.state.deactivate_col(c);
        }
        self.scratch.put_choices(depth, choices);
    }

    /// Flushes any node count still pending (on exit paths that skipped
    /// the periodic sync).
    fn flush(&mut self) {
        if self.pending > 0 {
            self.shared.nodes.fetch_add(self.pending, Ordering::Relaxed);
            self.pending = 0;
        }
    }
}

/// Takes the most constrained active row ([`branch_row`]) and fills
/// `choices` with its `(coverage, column)` pairs, most promising first:
/// smallest cost per newly covered row, ties broken by column index. The
/// order is a fixed total order on the state, so the branching sequence —
/// and hence the subtree ranks — is identical at any thread count. Runs
/// right after [`lower_bound`] on the same state, reusing its row order
/// and, where still fresh, its column counts.
fn branch_choices(
    problem: &CoverProblem,
    index: &RowIndex,
    state: &TrailState,
    scratch: &Scratch,
    choices: &mut Vec<(u64, u32)>,
) {
    let counts_fresh = scratch.col_count_mark == state.mark();
    choices.clear();
    for c in index.active_cols_of(&state.active_cols, branch_row(scratch)) {
        let coverage = if counts_fresh {
            u64::from(scratch.col_count[c as usize])
        } else {
            problem.rows_of(c as usize).and_count_ones(&state.active_rows) as u64
        };
        choices.push((coverage, c));
    }
    choices.sort_unstable_by(|&(cov_a, a), &(cov_b, b)| {
        // cost(a)/cov(a) < cost(b)/cov(b), compared exactly.
        let ka = u128::from(problem.cost(a as usize)) * u128::from(cov_b);
        let kb = u128::from(problem.cost(b as usize)) * u128::from(cov_a);
        ka.cmp(&kb).then_with(|| a.cmp(&b))
    });
}

/// Runs the root node's reductions on `root` and returns the root
/// branching choices, or `None` when the search is already settled at the
/// root (done, pruned, infeasible or stopped). Any root-level incumbent
/// ends up in `root.improvements`.
fn prepare_root(root: &mut Worker) -> Option<Vec<(u64, u32)>> {
    if root.stopped {
        return None;
    }
    if !select_essentials(root.shared.problem, root.shared.index, &mut root.state) {
        return None;
    }
    if root.pruned(root.state.cost) {
        return None;
    }
    if root.state.done() {
        root.try_record();
        return None;
    }
    root.scratch.enter_node();
    if root.state.rows_left() <= ROOT_ROW_DOMINANCE_LIMIT {
        remove_dominated_rows(root.shared.index, &mut root.state, &mut root.scratch);
    }
    if root.state.cols_left() <= ROOT_COL_DOMINANCE_LIMIT {
        remove_dominated_cols(
            root.shared.problem,
            root.shared.index,
            &mut root.state,
            &mut root.scratch,
        );
        if !select_essentials(root.shared.problem, root.shared.index, &mut root.state) {
            return None;
        }
        if root.state.done() {
            root.try_record();
            return None;
        }
    }
    // The root affords fresh duals at any width: they are solved once,
    // often prove the warm start optimal outright, and every node below
    // inherits them.
    let lp_target = Some(root.prune_target());
    let lb = lower_bound(
        root.shared.problem,
        root.shared.index,
        &root.state,
        &mut root.scratch,
        lp_target,
    );
    if root.pruned(root.state.cost + lb) {
        return None;
    }
    root.state.inherit_duals(&root.scratch.dual);
    let mut choices = Vec::new();
    branch_choices(
        root.shared.problem,
        root.shared.index,
        &root.state,
        &root.scratch,
        &mut choices,
    );
    Some(choices)
}

/// Solves a covering instance to proven optimality with branch & bound, as
/// long as the node/time budget in `limits` suffices; otherwise returns the
/// best cover found with `optimal == false`. Runs on
/// [`Limits::parallelism`] worker threads; the result does not depend on
/// the thread count.
///
/// `warm_start` (typically the greedy solution) seeds the upper bound and
/// is returned if nothing better is found.
///
/// # Panics
///
/// Panics if some row is covered by no column at all.
///
/// # Examples
///
/// ```
/// use spp_cover::{CoverProblem, solve_exact, Limits};
///
/// let mut p = CoverProblem::new(3);
/// p.add_column(&[0, 1], 2);
/// p.add_column(&[1, 2], 2);
/// p.add_column(&[0, 2], 2);
/// let sol = solve_exact(&p, &Limits::default(), None);
/// assert_eq!(sol.cost, 4); // any two of the three columns
/// assert!(sol.optimal);
/// ```
#[must_use]
pub fn solve_exact(
    problem: &CoverProblem,
    limits: &Limits,
    warm_start: Option<&CoverSolution>,
) -> CoverSolution {
    solve_exact_ctx(problem, limits, warm_start, &RunCtx::default()).0
}

/// [`solve_exact`] under a run-control context: the search additionally
/// honours the context's deadline and cancellation token (polled by every
/// worker at its node-count flushes), emits
/// [`CoverImproved`](spp_obs::Event::CoverImproved) whenever the shared
/// incumbent improves and [`CoverSubtreeStarted`](spp_obs::Event::CoverSubtreeStarted)/
/// [`CoverSubtreeFinished`](spp_obs::Event::CoverSubtreeFinished) around
/// each root subtree, and reports how the search ended.
///
/// On deadline or cancellation every worker unwinds and the **incumbent**
/// cover (never worse than the warm start) is returned with
/// `optimal == false`; plain node-budget exhaustion reports
/// [`Outcome::Completed`] — the `optimal` flag already captures the lost
/// proof.
///
/// # Panics
///
/// Panics if some row is covered by no column at all.
#[must_use]
pub fn solve_exact_ctx(
    problem: &CoverProblem,
    limits: &Limits,
    warm_start: Option<&CoverSolution>,
    ctx: &RunCtx,
) -> (CoverSolution, Outcome) {
    assert!(!problem.has_uncoverable_row(), "covering instance is infeasible");
    let seed = warm_start.cloned().unwrap_or_else(|| crate::solve_greedy(problem));
    let ctx = ctx.clone().cap_deadline(limits.time_limit.map(|d| Instant::now() + d));

    // The root is node 1. If the context has already expired, the warm
    // start *is* the verified incumbent.
    if let Some(reason) = ctx.stop_reason() {
        let best = CoverSolution { optimal: false, ..seed };
        ctx.emit(Event::CoverFinished { cost: best.cost, nodes: 1, optimal: false });
        return (best, reason);
    }

    let index = RowIndex::build(problem);
    let shared = Shared {
        problem,
        index: &index,
        limits,
        ctx: &ctx,
        seed_cost: seed.cost,
        bound: AtomicU64::new(pack(seed.cost, 0)),
        nodes: AtomicU64::new(1),
        stop: AtomicU8::new(RUNNING),
        panicked: AtomicBool::new(false),
    };
    let mut root = Worker::new(&shared, TrailState::root(problem));
    if limits.max_nodes <= 1 {
        shared.flag_stop(STOP_BUDGET);
        root.stopped = true;
    }

    let choices = prepare_root(&mut root);
    let mut improvements = std::mem::take(&mut root.improvements);
    if let Some(choices) = &choices {
        // Fan the root branching decisions out as contiguous, in-order
        // subtree ranges. Subtree `i` selects `choices[i]` with all
        // earlier choices excluded — exactly the sequential enumeration,
        // so one thread reproduces the old search shape and many threads
        // reproduce one thread's answer.
        let root_state = &root.state;
        let threads = limits.parallelism.threads();
        let per_worker = spp_par::par_ranges(threads, choices.len(), |range| {
            let mut worker = Worker::new(&shared, root_state.clone());
            for &(_, c) in &choices[..range.start] {
                worker.state.deactivate_col(c as usize);
            }
            for i in range {
                let c = choices[i].1 as usize;
                worker.subtree = i;
                shared.ctx.emit(Event::CoverSubtreeStarted { index: i, column: c });
                let nodes_before = worker.local_nodes;
                let records_before = worker.improvements.len();
                // Isolation boundary: a panic inside one subtree is caught
                // here, so the other workers (and this worker's recorded
                // improvements) survive it. The trail state may be mid-undo
                // after a panic, so this worker abandons its remaining
                // subtrees; they are simply unexplored, like after a stop.
                let searched = catch_unwind(AssertUnwindSafe(|| {
                    shared.ctx.failpoint("cover.subtree");
                    let mark = worker.state.mark();
                    worker.state.select(shared.problem, c);
                    worker.recurse(1);
                    worker.state.undo_to(shared.problem, mark);
                }));
                let improved = worker.improvements.len() > records_before;
                shared.ctx.emit(Event::CoverSubtreeFinished {
                    index: i,
                    nodes: worker.local_nodes - nodes_before,
                    improved,
                });
                if let Err(payload) = searched {
                    shared.panicked.store(true, Ordering::Release);
                    shared
                        .ctx
                        .record_fault("cover.subtree", &spp_par::panic_message(payload.as_ref()));
                    break;
                }
                if worker.stopped {
                    break;
                }
                worker.state.deactivate_col(c);
            }
            worker.flush();
            worker.improvements
        });
        improvements.extend(per_worker.into_iter().flatten());
    }
    root.flush();

    let complete = shared.stop.load(Ordering::Acquire) == RUNNING
        && !shared.panicked.load(Ordering::Acquire);
    let outcome = match shared.stop.load(Ordering::Acquire) {
        STOP_DEADLINE => Outcome::DeadlineExceeded,
        STOP_CANCELLED => Outcome::Cancelled,
        STOP_MEMORY => Outcome::MemoryExceeded,
        _ => Outcome::Completed,
    };
    let mut best = match improvements.into_iter().min_by_key(|imp| imp.rank) {
        Some(imp) => CoverSolution { columns: imp.columns, cost: imp.cost, optimal: complete },
        None => CoverSolution { optimal: complete, ..seed },
    };
    best.columns.sort_unstable();
    ctx.emit(Event::CoverFinished {
        cost: best.cost,
        nodes: shared.nodes.load(Ordering::Relaxed),
        optimal: best.optimal,
    });
    (best, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_on_small_instance() {
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1], 3);
        p.add_column(&[2, 3], 3);
        p.add_column(&[0, 1, 2, 3], 5);
        let sol = solve_exact(&p, &Limits::default(), None);
        assert_eq!(sol.cost, 5);
        assert_eq!(sol.columns, vec![2]);
        assert!(sol.optimal);
    }

    #[test]
    fn beats_greedy_when_greedy_errs() {
        // Classic greedy trap: the ratio rule picks the middle column.
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1, 2], 3); // ratio 1.0, greedy picks this
        p.add_column(&[0, 1], 2);
        p.add_column(&[2, 3], 2);
        p.add_column(&[3], 2);
        let greedy = crate::solve_greedy(&p);
        let exact = solve_exact(&p, &Limits::default(), Some(&greedy));
        assert!(p.is_cover(&exact.columns));
        assert_eq!(exact.cost, 4);
        assert!(exact.cost <= greedy.cost);
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        // Edge cover of K5: the LP-dual bound (5) stays below the optimum
        // (6), so the root cannot settle it and the budget must.
        let mut p = CoverProblem::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_column(&[i, j], 2);
            }
        }
        let limits = Limits::default().with_max_nodes(2);
        let sol = solve_exact(&p, &limits, None);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
    }

    #[test]
    fn empty_problem() {
        let p = CoverProblem::new(0);
        let sol = solve_exact(&p, &Limits::default(), None);
        assert!(sol.columns.is_empty());
        assert_eq!(sol.cost, 0);
        assert!(sol.optimal);
    }

    #[test]
    fn respects_costs_not_counts() {
        let mut p = CoverProblem::new(2);
        p.add_column(&[0, 1], 10);
        p.add_column(&[0], 1);
        p.add_column(&[1], 1);
        let sol = solve_exact(&p, &Limits::default(), None);
        assert_eq!(sol.cost, 2);
        assert_eq!(sol.columns, vec![1, 2]);
    }

    #[test]
    fn cancelled_search_returns_the_incumbent() {
        use spp_obs::CancelToken;
        let mut p = CoverProblem::new(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                p.add_column(&[i, j], 2);
            }
        }
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunCtx::new().with_cancel(token);
        let (sol, outcome) = solve_exact_ctx(&p, &Limits::default(), None, &ctx);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
        assert_eq!(outcome, Outcome::Cancelled);
    }

    #[test]
    fn expired_deadline_returns_the_warm_start() {
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1, 2], 3);
        p.add_column(&[0, 1], 2);
        p.add_column(&[2, 3], 2);
        p.add_column(&[3], 2);
        let greedy = crate::solve_greedy(&p);
        let ctx = RunCtx::new().with_deadline_in(std::time::Duration::ZERO);
        let (sol, outcome) = solve_exact_ctx(&p, &Limits::default(), Some(&greedy), &ctx);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
        assert!(sol.cost <= greedy.cost);
        assert_eq!(outcome, Outcome::DeadlineExceeded);
    }

    #[test]
    fn completed_search_reports_completed_even_when_node_budget_hits() {
        let mut p = CoverProblem::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_column(&[i, j], 2);
            }
        }
        let limits = Limits::default().with_max_nodes(2);
        let (sol, outcome) = solve_exact_ctx(&p, &limits, None, &RunCtx::default());
        assert!(!sol.optimal);
        assert_eq!(outcome, Outcome::Completed);
    }

    #[test]
    fn incumbent_improvements_are_reported() {
        use spp_obs::{Event, EventSink};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        #[derive(Default)]
        struct Spy {
            improvements: AtomicU64,
            finished: AtomicU64,
            subtrees: AtomicU64,
        }
        impl EventSink for Spy {
            fn emit(&self, event: &Event) {
                match event {
                    Event::CoverImproved { .. } => {
                        self.improvements.fetch_add(1, Ordering::Relaxed);
                    }
                    Event::CoverFinished { optimal: true, .. } => {
                        self.finished.fetch_add(1, Ordering::Relaxed);
                    }
                    Event::CoverSubtreeFinished { .. } => {
                        self.subtrees.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        }

        let spy = Arc::new(Spy::default());
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1, 2], 3);
        p.add_column(&[0, 1], 2);
        p.add_column(&[2, 3], 2);
        p.add_column(&[3], 2);
        let ctx = RunCtx::new().with_sink(spy.clone());
        let (sol, outcome) = solve_exact_ctx(&p, &Limits::default(), None, &ctx);
        assert!(sol.optimal);
        assert_eq!(outcome, Outcome::Completed);
        // The exact search beats the greedy warm start on this trap, so at
        // least one improvement event must have fired.
        assert!(spy.improvements.load(Ordering::Relaxed) >= 1);
        assert_eq!(spy.finished.load(Ordering::Relaxed), 1);
        // Every explored root subtree reports in.
        assert!(spy.subtrees.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn random_instances_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let rows = rng.gen_range(1..=6);
            let cols = rng.gen_range(1..=8);
            let mut p = CoverProblem::new(rows);
            for _ in 0..cols {
                let members: Vec<usize> = (0..rows).filter(|_| rng.gen_bool(0.5)).collect();
                let members = if members.is_empty() { vec![0] } else { members };
                p.add_column(&members, rng.gen_range(1..=5));
            }
            if p.has_uncoverable_row() {
                continue;
            }
            let sol = solve_exact(&p, &Limits::default(), None);
            assert!(p.is_cover(&sol.columns), "trial {trial}");
            assert!(sol.optimal, "trial {trial}");
            // Brute force over all subsets.
            let mut best = u64::MAX;
            for mask in 0u32..(1 << p.num_columns()) {
                let cols: Vec<usize> =
                    (0..p.num_columns()).filter(|&c| mask >> c & 1 == 1).collect();
                if p.is_cover(&cols) {
                    best = best.min(p.total_cost(&cols));
                }
            }
            assert_eq!(sol.cost, best, "trial {trial}");
            // The root bound, before and after the essentials, never
            // exceeds the optimum.
            let index = RowIndex::build(&p);
            let mut state = TrailState::root(&p);
            let mut scratch = Scratch::new(&p);
            assert!(
                lower_bound(&p, &index, &state, &mut scratch, Some(u64::MAX)) <= best,
                "trial {trial}"
            );
            if select_essentials(&p, &index, &mut state) {
                let lb = state.cost + lower_bound(&p, &index, &state, &mut scratch, Some(u64::MAX));
                assert!(lb <= best, "trial {trial}");
            }
            for threads in [1usize, 2, 4] {
                let limits = Limits::default().with_parallelism(crate::Parallelism::fixed(threads));
                let parallel = solve_exact(&p, &limits, None);
                assert_eq!(parallel.columns, sol.columns, "trial {trial} t={threads}");
                assert!(parallel.optimal, "trial {trial} t={threads}");
            }
        }
    }

    #[test]
    fn wide_random_instances_match_dynamic_programming() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Distinct 8-row columns over 16 rows never dominate each other,
        // so every node below the root stays wider than LP_DUAL_LIMIT:
        // only the MIS and the inherited bounds prune there.
        const ROWS: usize = 16;
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let mut masks = std::collections::BTreeSet::new();
            while masks.len() < LP_DUAL_LIMIT + 44 {
                let mut mask = 0u32;
                while mask.count_ones() < 8 {
                    mask |= 1 << rng.gen_range(0..ROWS);
                }
                masks.insert(mask);
            }
            let mut p = CoverProblem::new(ROWS);
            let mut columns = Vec::new();
            for &mask in &masks {
                let cost = rng.gen_range(10..=30);
                let rows: Vec<usize> = (0..ROWS).filter(|&r| mask >> r & 1 == 1).collect();
                p.add_column(&rows, cost);
                columns.push((mask, cost));
            }
            // Minimum cost of covering each row subset, by DP over subsets.
            let mut best = vec![u64::MAX; 1 << ROWS];
            best[0] = 0;
            for covered in 0..1usize << ROWS {
                if best[covered] == u64::MAX {
                    continue;
                }
                for &(mask, cost) in &columns {
                    let next = covered | mask as usize;
                    best[next] = best[next].min(best[covered] + cost);
                }
            }
            // Start from the worst cover, so the search itself has to find
            // the optimum under the wide nodes' bounds.
            let all: Vec<usize> = (0..p.num_columns()).collect();
            let worst = CoverSolution { cost: p.total_cost(&all), columns: all, optimal: false };
            let sol = solve_exact(&p, &Limits::default(), Some(&worst));
            assert!(p.is_cover(&sol.columns), "trial {trial}");
            assert!(sol.optimal, "trial {trial}");
            assert_eq!(sol.cost, best[(1 << ROWS) - 1], "trial {trial}");
            let limits = Limits::default().with_parallelism(crate::Parallelism::fixed(4));
            let parallel = solve_exact(&p, &limits, Some(&worst));
            assert_eq!(parallel.columns, sol.columns, "trial {trial}");
        }
    }

    #[test]
    fn narrow_searches_below_the_warm_start_are_thread_invariant() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // At most LP_DUAL_LIMIT columns, so every interior node solves
        // fresh duals. Starting from the all-columns cover, the live bound
        // soon leaves the warm start far behind, at a pace set by worker
        // timing. Costs of one literal per row, plus 0 or 1, give many
        // equal-cost optima, so a search shape that followed the live
        // bound would return a different one of them at a different
        // thread count.
        const ROWS: usize = 12;
        let mut rng = StdRng::seed_from_u64(0x5eed_f1c6);
        for trial in 0..40 {
            let mut p = CoverProblem::new(ROWS);
            let mut columns = Vec::new();
            for _ in 0..rng.gen_range(60..=250usize) {
                let mut mask = 0u32;
                while mask.count_ones() < rng.gen_range(2..=5) {
                    mask |= 1 << rng.gen_range(0..ROWS);
                }
                let cost = u64::from(mask.count_ones()) + rng.gen_range(0..=1u64);
                let rows: Vec<usize> = (0..ROWS).filter(|&r| mask >> r & 1 == 1).collect();
                p.add_column(&rows, cost);
                columns.push((mask, cost));
            }
            if p.has_uncoverable_row() {
                continue;
            }
            assert!(p.num_columns() <= LP_DUAL_LIMIT);
            // Minimum cost of covering each row subset, by DP over subsets.
            let mut best = vec![u64::MAX; 1 << ROWS];
            best[0] = 0;
            for covered in 0..1usize << ROWS {
                if best[covered] == u64::MAX {
                    continue;
                }
                for &(mask, cost) in &columns {
                    let next = covered | mask as usize;
                    best[next] = best[next].min(best[covered] + cost);
                }
            }
            let all: Vec<usize> = (0..p.num_columns()).collect();
            let worst = CoverSolution { cost: p.total_cost(&all), columns: all, optimal: false };
            let solve = |threads: usize| {
                let limits = Limits::default()
                    .with_time_limit(None)
                    .with_parallelism(crate::Parallelism::fixed(threads));
                solve_exact(&p, &limits, Some(&worst))
            };
            let one = solve(1);
            assert!(p.is_cover(&one.columns), "trial {trial}");
            assert!(one.optimal, "trial {trial}");
            assert_eq!(one.cost, best[(1 << ROWS) - 1], "trial {trial}");
            for threads in [2usize, 4, 7] {
                let many = solve(threads);
                assert_eq!(many.columns, one.columns, "trial {trial} t={threads}");
                assert!(many.optimal, "trial {trial} t={threads}");
            }
        }
    }

    #[test]
    fn parallel_search_matches_sequential_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let rows = rng.gen_range(2..=10);
            let cols = rng.gen_range(2..=14);
            let mut p = CoverProblem::new(rows);
            for _ in 0..cols {
                let members: Vec<usize> = (0..rows).filter(|_| rng.gen_bool(0.4)).collect();
                let members = if members.is_empty() { vec![0] } else { members };
                p.add_column(&members, rng.gen_range(1..=6));
            }
            if p.has_uncoverable_row() {
                continue;
            }
            let sequential = solve_exact(&p, &Limits::default(), None);
            for threads in [2usize, 4, 7] {
                let limits = Limits::default().with_parallelism(crate::Parallelism::fixed(threads));
                let parallel = solve_exact(&p, &limits, None);
                assert_eq!(parallel.columns, sequential.columns, "trial {trial} t={threads}");
                assert_eq!(parallel.cost, sequential.cost, "trial {trial} t={threads}");
                assert_eq!(parallel.optimal, sequential.optimal, "trial {trial} t={threads}");
            }
        }
    }

    #[test]
    fn hard_memory_budget_stops_after_greedy() {
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1, 2], 3);
        p.add_column(&[0, 1], 2);
        p.add_column(&[2, 3], 2);
        p.add_column(&[3], 2);
        let ctx = RunCtx::new().with_mem_budget(None, Some(1));
        let (sol, outcome) = crate::solve_auto_ctx(&p, &Limits::default(), &ctx);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
        assert_eq!(outcome, Outcome::MemoryExceeded);
    }

    #[test]
    fn soft_memory_budget_skips_exact_refinement() {
        // Greedy trap: exact would improve the cover, but soft memory
        // pressure keeps the (valid) greedy answer and still completes.
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1, 2], 3);
        p.add_column(&[0, 1], 2);
        p.add_column(&[2, 3], 2);
        p.add_column(&[3], 2);
        let greedy = crate::solve_greedy(&p);
        let ctx = RunCtx::new().with_mem_budget(Some(1), None);
        let (sol, outcome) = crate::solve_auto_ctx(&p, &Limits::default(), &ctx);
        assert_eq!(outcome, Outcome::Completed);
        assert!(!sol.optimal);
        assert_eq!(sol.cost, greedy.cost);
        assert!(p.is_cover(&sol.columns));
    }

    #[test]
    fn mid_search_memory_exhaustion_unwinds_to_the_incumbent() {
        // Arm a hard budget the warm start fits under but the matrix
        // charge blows mid-setup: solve_exact_ctx's workers observe the
        // governor at their syncs and unwind like a deadline.
        let mut p = CoverProblem::new(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                p.add_column(&[i, j], 2);
            }
        }
        let ctx = RunCtx::new().with_mem_budget(None, Some(1));
        ctx.governor().charge(1); // already exhausted
        let limits = Limits::default().with_parallelism(crate::Parallelism::fixed(4));
        let (sol, outcome) = solve_exact_ctx(&p, &limits, None, &ctx);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
        assert_eq!(outcome, Outcome::MemoryExceeded);
    }

    #[test]
    fn parallel_cancel_unwinds_to_a_verified_incumbent() {
        use spp_obs::CancelToken;
        let mut p = CoverProblem::new(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                p.add_column(&[i, j], 2);
            }
        }
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunCtx::new().with_cancel(token);
        let limits = Limits::default().with_parallelism(crate::Parallelism::fixed(4));
        let (sol, outcome) = solve_exact_ctx(&p, &limits, None, &ctx);
        assert!(p.is_cover(&sol.columns));
        assert!(!sol.optimal);
        assert_eq!(outcome, Outcome::Cancelled);
    }
}
