//! Classical covering-matrix reductions shared by the solvers, built on
//! word-level [`BitSet`] kernels and an undo trail.
//!
//! The branch & bound solver used to clone a per-node `State` (two bitsets
//! plus a selection vector) and let every reduction allocate fresh `Vec`s;
//! dominance was therefore gated to tiny subproblems. The engine now keeps
//! **one** mutable [`TrailState`] per worker and journals every mutation in
//! an undo [`Trail`], so entering a node costs a few pushes and leaving it
//! is a replay — no allocation on the search path at all.

use crate::bitset::{word_ones, LoneOne};
use crate::problem::CoverProblem;
use crate::BitSet;

/// One reversible mutation of a [`TrailState`], recorded so the search can
/// unwind to any earlier node.
#[derive(Clone, Copy, Debug)]
enum TrailOp {
    /// A row left the active set.
    RowOff(u32),
    /// A column left the active set.
    ColOff(u32),
    /// A column was selected (cost accounted, pushed on `selected`). The
    /// matching `ColOff`/`RowOff` entries are journalled separately.
    Selected(u32),
}

/// A live view of a covering instance during search: which rows still need
/// covering, which columns are still available, what has been selected —
/// plus the undo trail that makes every mutation reversible.
#[derive(Clone, Debug)]
pub(crate) struct TrailState {
    pub(crate) active_rows: BitSet,
    pub(crate) active_cols: BitSet,
    pub(crate) selected: Vec<usize>,
    pub(crate) cost: u64,
    /// Maintained count of `active_rows` ones, so `done()` is O(1).
    rows_left: usize,
    /// Maintained count of `active_cols` ones, for the dominance gates.
    cols_left: usize,
    /// LP duals adopted from an ancestor's [`lower_bound`] (zero until
    /// [`TrailState::inherit_duals`]), in units of `1 / DUAL_SCALE`.
    row_dual: Vec<u64>,
    /// Maintained sum of `row_dual` over the active rows, so the
    /// inherited bound costs O(1) per node.
    dual_left: u128,
    trail: Vec<TrailOp>,
}

impl TrailState {
    pub(crate) fn root(problem: &CoverProblem) -> TrailState {
        TrailState {
            active_rows: BitSet::all_ones(problem.num_rows()),
            active_cols: BitSet::all_ones(problem.num_columns()),
            selected: Vec::new(),
            cost: 0,
            rows_left: problem.num_rows(),
            cols_left: problem.num_columns(),
            row_dual: vec![0; problem.num_rows()],
            dual_left: 0,
            trail: Vec::new(),
        }
    }

    /// The current trail position; pass it to [`TrailState::undo_to`] to
    /// unwind everything recorded after this point.
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Replays the trail backwards to `mark`, restoring the state at the
    /// time of the matching [`TrailState::mark`] call.
    pub(crate) fn undo_to(&mut self, problem: &CoverProblem, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail shorter than its own mark") {
                TrailOp::RowOff(r) => {
                    self.active_rows.set(r as usize, true);
                    self.rows_left += 1;
                    self.dual_left += u128::from(self.row_dual[r as usize]);
                }
                TrailOp::ColOff(c) => {
                    self.active_cols.set(c as usize, true);
                    self.cols_left += 1;
                }
                TrailOp::Selected(c) => {
                    self.cost -= problem.cost(c as usize);
                    let popped = self.selected.pop();
                    debug_assert_eq!(popped, Some(c as usize));
                }
            }
        }
    }

    /// Retires column `c` from the active set (journalled).
    pub(crate) fn deactivate_col(&mut self, c: usize) {
        debug_assert!(self.active_cols.get(c));
        self.active_cols.set(c, false);
        self.cols_left -= 1;
        self.trail.push(TrailOp::ColOff(c as u32));
    }

    /// Retires row `r` from the active set (journalled).
    pub(crate) fn deactivate_row(&mut self, r: usize) {
        debug_assert!(self.active_rows.get(r));
        self.active_rows.set(r, false);
        self.rows_left -= 1;
        self.dual_left -= u128::from(self.row_dual[r]);
        self.trail.push(TrailOp::RowOff(r as u32));
    }

    /// Adopts `duals` (the `scratch.dual` that [`lower_bound`] just solved
    /// for at this state) for the [`TrailState::inherited_bound`] of
    /// every node below.
    pub(crate) fn inherit_duals(&mut self, duals: &[u64]) {
        self.row_dual.copy_from_slice(duals);
        self.dual_left = self.active_rows.iter_ones().map(|r| u128::from(duals[r])).sum();
    }

    /// A lower bound on the cost of covering the remaining rows, in O(1):
    /// the LP-dual objective of the inherited duals (0 before any). Rows
    /// and columns only ever leave the active sets on the way down, so
    /// restricted to a descendant's active rows the duals stay feasible.
    pub(crate) fn inherited_bound(&self) -> u64 {
        dual_objective(self.dual_left)
    }

    /// Selects column `c`: accounts its cost, retires the column and every
    /// active row it covers. Fully journalled.
    pub(crate) fn select(&mut self, problem: &CoverProblem, c: usize) {
        debug_assert!(self.active_cols.get(c));
        self.trail.push(TrailOp::Selected(c as u32));
        self.selected.push(c);
        self.cost += problem.cost(c);
        self.deactivate_col(c);
        for r in problem.rows_of(c).iter_ones() {
            if self.active_rows.get(r) {
                self.deactivate_row(r);
            }
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.rows_left == 0
    }

    pub(crate) fn rows_left(&self) -> usize {
        self.rows_left
    }

    pub(crate) fn cols_left(&self) -> usize {
        self.cols_left
    }
}

/// Precomputed row → covering-columns adjacency, in two forms: a sorted
/// sparse list per row (cheap iteration) and a dense column bitset per row
/// (word-level subset/count/disjointness kernels).
pub(crate) struct RowIndex {
    pub(crate) row_cols: Vec<Vec<u32>>,
    pub(crate) row_col_sets: Vec<BitSet>,
}

impl RowIndex {
    pub(crate) fn build(problem: &CoverProblem) -> RowIndex {
        let mut row_cols = vec![Vec::new(); problem.num_rows()];
        for (c, col) in problem.columns().iter().enumerate() {
            for r in col.rows.iter_ones() {
                row_cols[r].push(c as u32);
            }
        }
        let row_col_sets = row_cols
            .iter()
            .map(|cols| {
                let mut s = BitSet::new(problem.num_columns());
                for &c in cols {
                    s.set(c as usize, true);
                }
                s
            })
            .collect();
        RowIndex { row_cols, row_col_sets }
    }

    /// The active columns covering row `r`, in ascending order — an
    /// iterator over the precomputed adjacency, so the hot path never
    /// allocates a per-call `Vec`.
    pub(crate) fn active_cols_of<'a>(
        &'a self,
        active_cols: &'a BitSet,
        r: usize,
    ) -> impl Iterator<Item = u32> + 'a {
        self.row_cols[r].iter().copied().filter(move |&c| active_cols.get(c as usize))
    }
}

/// Reusable per-worker scratch buffers for the reduction passes: cleared
/// and refilled on every call, allocated once per search.
pub(crate) struct Scratch {
    /// Active-row coverage count `|rows(c) ∩ active rows|` per column,
    /// valid for every active column while the trail is at
    /// `col_count_mark`. Filled by column dominance or the LP-dual bound,
    /// read by the LP-dual bound and by branching.
    pub(crate) col_count: Vec<u32>,
    /// Trail position at which `col_count` was last filled; like
    /// `fresh_mark`, reset to `usize::MAX` at node entry.
    pub(crate) col_count_mark: usize,
    /// `(count, row)` pairs for the lower bound's constrained-first order.
    pub(crate) lb_rows: Vec<(u32, u32)>,
    /// Entry-time active rows for the row-dominance pass, `(count, index)`
    /// packed into a sortable `u64`, so the pair sweep is quadratic in the
    /// *active* count, not the matrix dimension — and so the lower bound
    /// can reuse the sorted order while the trail mark still matches.
    pub(crate) row_keys: Vec<u64>,
    /// Entry-time active column indices for the column-dominance pass,
    /// and the columns reduced-cost fixing retires.
    pub(crate) col_list: Vec<u32>,
    /// The column-dominance pass's word indices of the entry-time active
    /// columns, and one column's candidate dominators as `(word index,
    /// word)` pairs, nonzero words only.
    pub(crate) dom_words: Vec<u32>,
    pub(crate) dom: Vec<(u32, u64)>,
    /// Per-row OR-fold signature of `cols(r) ∩ active` — subset-monotone,
    /// so `sig[s] ⊄ sig[r]` proves `s` cannot dominate `r` without a span
    /// test. Filled by the row-dominance count pass.
    pub(crate) row_sig: Vec<u64>,
    /// Trail position right after the last row-dominance pass. While the
    /// trail is still at this mark, nothing has mutated the state since,
    /// so the sorted `(count, row)` keys in `row_keys` are exactly the
    /// constrained-first order the lower bound would recompute. Reset to
    /// `usize::MAX` (never a valid mark match) at node entry.
    pub(crate) fresh_mark: usize,
    /// Columns consumed by the disjoint-row lower bound.
    pub(crate) used_cols: BitSet,
    /// Per-row LP dual values `y_r` of the LP-dual bound, in units of
    /// `1 / DUAL_SCALE`.
    pub(crate) dual: Vec<u64>,
    /// Per-column dual slack `cost(c) − Σ_{r ∈ c} y_r`, same units.
    pub(crate) slack: Vec<u64>,
    /// `Σ y_r` over the active rows, in the same units, as the LP-dual
    /// bound last solved it.
    pub(crate) dual_sum: u128,
    /// Trail position at which `dual`, `slack` and `dual_sum` were last
    /// solved; like `fresh_mark`, reset to `usize::MAX` at node entry.
    pub(crate) dual_mark: usize,
    /// The LP-dual bound's row-major copy of the active submatrix: row
    /// `r`'s active columns, ascending, end at `lp_cols[row_end[r]]`.
    pub(crate) row_end: Vec<u32>,
    pub(crate) lp_cols: Vec<u32>,
    /// Per-depth branching-choice buffers `(sort key, column)`, reused
    /// across all nodes at that depth.
    pub(crate) choices: Vec<Vec<(u64, u32)>>,
}

impl Scratch {
    pub(crate) fn new(problem: &CoverProblem) -> Scratch {
        Scratch {
            col_count: vec![0; problem.num_columns()],
            col_count_mark: usize::MAX,
            lb_rows: Vec::with_capacity(problem.num_rows()),
            row_keys: Vec::with_capacity(problem.num_rows()),
            col_list: Vec::with_capacity(problem.num_columns()),
            row_sig: vec![0; problem.num_rows()],
            dom_words: Vec::with_capacity(problem.num_columns().div_ceil(64)),
            dom: Vec::with_capacity(problem.num_columns().div_ceil(64)),
            fresh_mark: usize::MAX,
            used_cols: BitSet::new(problem.num_columns()),
            dual: vec![0; problem.num_rows()],
            slack: vec![0; problem.num_columns()],
            dual_sum: 0,
            dual_mark: usize::MAX,
            row_end: vec![0; problem.num_rows()],
            lp_cols: Vec::new(),
            choices: Vec::new(),
        }
    }

    /// Takes the depth-`d` choice buffer out of the pool (creating it on
    /// first use). Return it with [`Scratch::put_choices`].
    pub(crate) fn take_choices(&mut self, depth: usize) -> Vec<(u64, u32)> {
        while self.choices.len() <= depth {
            self.choices.push(Vec::new());
        }
        std::mem::take(&mut self.choices[depth])
    }

    pub(crate) fn put_choices(&mut self, depth: usize, buf: Vec<(u64, u32)>) {
        self.choices[depth] = buf;
    }

    /// Forgets the cached per-node counts: a trail that shrank back to an
    /// old mark must not revalidate a previous node's counts.
    pub(crate) fn enter_node(&mut self) {
        self.fresh_mark = usize::MAX;
        self.col_count_mark = usize::MAX;
        self.dual_mark = usize::MAX;
    }
}

/// Selects every *essential* column (the only active column covering some
/// active row) until none remains. Returns `false` if an active row has no
/// active covering column (the subproblem is infeasible). All mutations go
/// through the trail.
pub(crate) fn select_essentials(
    problem: &CoverProblem,
    index: &RowIndex,
    state: &mut TrailState,
) -> bool {
    loop {
        let mut changed = false;
        for r in 0..problem.num_rows() {
            if !state.active_rows.get(r) {
                continue; // already covered (possibly by an essential this sweep)
            }
            // One fused span pass instead of a capped count followed by a
            // re-scan for the lone column's position.
            match index.row_col_sets[r].lone_one_in(&state.active_cols) {
                LoneOne::None => return false,
                LoneOne::One(c) => {
                    state.select(problem, c);
                    changed = true;
                }
                LoneOne::Many => {}
            }
        }
        if !changed {
            return true;
        }
    }
}

/// Removes dominated rows: if every active column covering row `s` also
/// covers row `r` (`cols(s) ⊆ cols(r)` within the active columns), covering
/// `s` necessarily covers `r`, so `r` can be dropped from the constraint
/// set. Pure word-level subset tests; ties broken by row index so two
/// identical rows don't delete each other.
pub(crate) fn remove_dominated_rows(index: &RowIndex, state: &mut TrailState, scratch: &mut Scratch) {
    // The gate `cs <= cr && (cs < cr || s < r)` is exactly the lexicographic
    // order `(cs, s) < (cr, r)`, and domination is transitive along it
    // (subsets chain, keys strictly decrease), so whenever `r` has *any*
    // dominator among the rows active at entry, it also has one that is
    // itself undominated — the naive scan's staleness re-checks can never
    // change the removal set. That makes the outcome order-independent:
    // sort the entry-time actives by `(count, index)` and test each row
    // only against its strict predecessors, with the count gate satisfied
    // by construction. Half the pairs, no per-pair gate, same removals
    // (and the trail is a set of `RowOff`s, so entry order is immaterial).
    scratch.row_keys.clear();
    for r in state.active_rows.iter_ones() {
        let (count, sig) = index.row_col_sets[r].and_count_ones_fold(&state.active_cols);
        scratch.row_sig[r] = sig;
        // Pack (count, index) into one sortable key; counts fit u32.
        scratch.row_keys.push((count as u64) << 32 | r as u64);
    }
    scratch.row_keys.sort_unstable();
    for ri in 1..scratch.row_keys.len() {
        let r = (scratch.row_keys[ri] & 0xffff_ffff) as usize;
        let sig_r = scratch.row_sig[r];
        for &key in &scratch.row_keys[..ri] {
            let s = (key & 0xffff_ffff) as usize;
            // The signature test is necessary for the subset, so skipping
            // on it never changes which rows get removed.
            if scratch.row_sig[s] & !sig_r == 0
                && index.row_col_sets[s]
                    .is_subset_within(&index.row_col_sets[r], &state.active_cols)
            {
                state.deactivate_row(r);
                break;
            }
        }
    }
    // The sorted keys double as the lower bound's constrained-first order
    // for as long as the trail stays at this mark.
    scratch.fresh_mark = state.mark();
}

/// Removes dominated columns: if `rows(b) ∩ active ⊆ rows(a) ∩ active` and
/// `cost(a) ≤ cost(b)`, column `b` never beats `a` and is dropped.
///
/// The candidate dominators of `b` are exactly the active columns that
/// cover every active row of `b`: `active_cols ∩ ⋂ cols(r)` over
/// `r ∈ rows(b) ∩ active_rows`, word ANDs over [`RowIndex`]'s per-row
/// column sets. Only the cost and tie-break test then runs, on the few
/// columns that survive the intersection; no pair subset test is made.
/// The pass costs `Σ_b |rows(b) ∩ active|` word ANDs, each over the words
/// that still hold a candidate (the words of the active set at first,
/// fewer with every row), and removes exactly the columns the all-pairs
/// scan removes.
pub(crate) fn remove_dominated_cols(
    problem: &CoverProblem,
    index: &RowIndex,
    state: &mut TrailState,
    scratch: &mut Scratch,
) {
    // Sweep only the columns active at entry, ascending. Domination is a
    // strict partial order (subsets chain, and the tie-break below keeps
    // it acyclic), so a dominated column always has an undominated
    // dominator, which no earlier removal can have retired: the removal
    // set is the same in any visit order and for any candidate set that
    // contains every dominator.
    scratch.col_list.clear();
    for c in state.active_cols.iter_ones() {
        scratch.col_list.push(c as u32);
        scratch.col_count[c] = problem.rows_of(c).and_count_ones(&state.active_rows) as u32;
    }
    // A dominator is active, so only the words of the active set that hold
    // a column at entry can hold one.
    scratch.dom_words.clear();
    let live = state.active_cols.words().iter().enumerate().filter(|&(_, &w)| w != 0);
    scratch.dom_words.extend(live.map(|(wi, _)| wi as u32));
    for bi in 0..scratch.col_list.len() {
        let b = scratch.col_list[bi] as usize;
        if scratch.col_count[b] == 0 {
            state.deactivate_col(b); // covers no active row
            continue;
        }
        // `dom` holds the nonzero words of the candidate set as
        // `(word index, word)` pairs. `b` itself stays in it (it covers
        // every one of its rows), so once it is all that is left no other
        // column can dominate `b`.
        let Scratch { dom, dom_words, col_count, .. } = &mut *scratch;
        let active = state.active_cols.words();
        dom.clear();
        dom.extend(dom_words.iter().map(|&wi| (wi, active[wi as usize])).filter(|&(_, w)| w != 0));
        let only_b = ((b / 64) as u32, 1u64 << (b % 64));
        for r in problem.rows_of(b).iter_ones_and(&state.active_rows) {
            let cols = index.row_col_sets[r].words();
            dom.retain_mut(|(wi, w)| {
                *w &= cols[*wi as usize];
                *w != 0
            });
            if dom.len() == 1 && dom[0] == only_b {
                break;
            }
        }
        let (cost_b, count_b) = (problem.cost(b), col_count[b]);
        let dominated = dom.iter().any(|&(wi, w)| {
            word_ones(wi as usize, w).any(|a| {
                let cost_a = problem.cost(a);
                a != b
                    && cost_a <= cost_b
                    // Strictness or index tie-break so identical columns
                    // don't eliminate each other.
                    && (cost_a < cost_b || count_b < col_count[a] || a < b)
            })
        });
        if dominated {
            state.deactivate_col(b);
        }
    }
    // Only columns left the active set, so the survivors' counts stay
    // exact for as long as the trail stays at this mark.
    scratch.col_count_mark = state.mark();
}

/// Fixed-point scale of the LP dual values: `y_r` is stored as an integer
/// number of `1 / DUAL_SCALE` units. Every quotient is rounded down, so
/// the stored duals are *exactly* feasible and rounding can only weaken
/// the bound, never overstate it.
const DUAL_SCALE: u64 = 1 << 20;

/// A lower bound on the cost of covering the remaining rows: the larger
/// of two.
///
/// The **maximal-disjoint-rows** (MIS) bound packs a maximal set of
/// pairwise column-disjoint rows (most constrained first), each
/// contributing the cost of its cheapest active covering column.
///
/// The **LP-dual** bound takes a feasible solution `y ≥ 0` of the dual of
/// the covering LP (`Σ_{r ∈ c} y_r ≤ cost(c)` for every active column
/// `c`), whose objective `Σ y_r` bounds the LP and hence every cover.
/// The duals start at `y_r = min over active c ∋ r of
/// cost(c) / |rows(c) ∩ active rows|` (feasible: each column's rows share
/// its cost at most evenly), then one ascent pass in the MIS row order
/// raises each `y_r` by the smallest remaining slack among its columns,
/// leaving them in `scratch.dual`. Costs are integers, so the bound is
/// `⌈Σ y_r⌉`. Solving touches every nonzero of the active submatrix a few
/// times, so it runs only with `lp_target = Some(t)`, and not when the
/// MIS bound already reaches `t`, the bound at which the caller prunes: a
/// larger one could not change its decision.
///
/// Both run on the caller's scratch buffers and leave behind the sorted
/// `(count, row)` order in `scratch.lb_rows` (and, after the LP-dual
/// bound, fresh `col_count`s, duals and slacks) for [`branch_row`],
/// branching and [`fix_reduced_costs`] to reuse at the same trail mark.
pub(crate) fn lower_bound(
    problem: &CoverProblem,
    index: &RowIndex,
    state: &TrailState,
    scratch: &mut Scratch,
    lp_target: Option<u64>,
) -> u64 {
    let mis = mis_bound(problem, index, state, scratch);
    match lp_target {
        Some(target) if mis < target => mis.max(lp_dual_bound(problem, state, scratch)),
        _ => mis,
    }
}

/// `⌈sum⌉` for a sum of fixed-point duals.
fn dual_objective(sum: u128) -> u64 {
    // Clamping can only lower the bound, so it stays sound.
    u64::try_from(sum.div_ceil(u128::from(DUAL_SCALE))).unwrap_or(u64::MAX)
}

/// The branching row: the most constrained active row (fewest active
/// covering columns, lowest index first). Reads the order [`lower_bound`]
/// left in `scratch.lb_rows`, so it must run at the same trail mark.
pub(crate) fn branch_row(scratch: &Scratch) -> usize {
    scratch.lb_rows.first().expect("branching on a node with no active row").1 as usize
}

/// The MIS half of [`lower_bound`]; fills `scratch.lb_rows`.
fn mis_bound(
    problem: &CoverProblem,
    index: &RowIndex,
    state: &TrailState,
    scratch: &mut Scratch,
) -> u64 {
    scratch.lb_rows.clear();
    if state.mark() == scratch.fresh_mark {
        // Nothing has touched the state since the row-dominance pass, so
        // its sorted `(count, index)` keys are exactly the order below —
        // minus the rows that pass itself retired. Skip both the count
        // recomputation and the sort.
        for &key in scratch.row_keys.iter() {
            let r = (key & 0xffff_ffff) as u32;
            if state.active_rows.get(r as usize) {
                scratch.lb_rows.push(((key >> 32) as u32, r));
            }
        }
    } else {
        for r in state.active_rows.iter_ones() {
            let count = index.row_col_sets[r].and_count_ones(&state.active_cols) as u32;
            scratch.lb_rows.push((count, r as u32));
        }
        // Most constrained rows first; the (count, row) key is a total
        // order, so the greedy packing is deterministic.
        scratch.lb_rows.sort_unstable();
    }
    scratch.used_cols.clear();
    let mut bound = 0u64;
    for &(_, r) in scratch.lb_rows.iter() {
        let r = r as usize;
        if index.row_col_sets[r].intersects(&scratch.used_cols) {
            continue;
        }
        let min_cost = index
            .active_cols_of(&state.active_cols, r)
            .map(|c| problem.cost(c as usize))
            .min()
            .unwrap_or(0);
        bound += min_cost;
        scratch.used_cols.union_with_masked(&index.row_col_sets[r], &state.active_cols);
    }
    bound
}

/// The LP-dual half of [`lower_bound`]; visits rows in the `lb_rows`
/// order [`mis_bound`] just filled, whose counts size a compact row-major
/// copy of the active submatrix, so every pass touches only its nonzeros.
fn lp_dual_bound(problem: &CoverProblem, state: &TrailState, scratch: &mut Scratch) -> u64 {
    let Scratch {
        lb_rows, col_count, col_count_mark, dual, slack, dual_sum, dual_mark, row_end, lp_cols, ..
    } = scratch;
    // Lay the rows out in `lb_rows` order; `row_end[r]` starts at the
    // row's offset and the fill below advances it to the row's end.
    let mut nnz = 0;
    for &(count, r) in lb_rows.iter() {
        row_end[r as usize] = nnz;
        nnz += count;
        dual[r as usize] = if count == 0 { 0 } else { u64::MAX };
    }
    lp_cols.clear();
    lp_cols.resize(nnz as usize, 0);
    // Ratio start: `y_r` is the smallest `⌊cost(c) / |rows(c) ∩ active|⌋`
    // among its columns. A saturated scaled cost is smaller than the true
    // one, which only tightens the dual constraints: still sound.
    let counts_fresh = *col_count_mark == state.mark();
    for c in state.active_cols.iter_ones() {
        if !counts_fresh {
            col_count[c] = problem.rows_of(c).and_count_ones(&state.active_rows) as u32;
        }
        if col_count[c] == 0 {
            continue;
        }
        let scaled = problem.cost(c).saturating_mul(DUAL_SCALE);
        let ratio = scaled / u64::from(col_count[c]);
        slack[c] = scaled;
        for r in problem.rows_of(c).iter_ones_and(&state.active_rows) {
            lp_cols[row_end[r] as usize] = c as u32;
            row_end[r] += 1;
            dual[r] = dual[r].min(ratio);
        }
    }
    *col_count_mark = state.mark();
    let cols_of = |r: usize, count: u32| (row_end[r] - count) as usize..row_end[r] as usize;
    // `count · ⌊scaled / count⌋ ≤ scaled` keeps every column's load within
    // its cost, so no slack underflows.
    for &(count, r) in lb_rows.iter() {
        for &c in &lp_cols[cols_of(r as usize, count)] {
            slack[c as usize] -= dual[r as usize];
        }
    }
    // Ascent: raising `y_r` by its columns' smallest slack keeps every
    // column feasible and can only grow the objective.
    for &(count, r) in lb_rows.iter() {
        let cols = &lp_cols[cols_of(r as usize, count)];
        let raise = cols.iter().map(|&c| slack[c as usize]).min().unwrap_or(0);
        if raise > 0 {
            dual[r as usize] += raise;
            for &c in cols {
                slack[c as usize] -= raise;
            }
        }
    }
    *dual_sum = lb_rows.iter().map(|&(_, r)| u128::from(dual[r as usize])).sum();
    *dual_mark = state.mark();
    dual_objective(*dual_sum)
}

/// Reduced-cost fixing: retires every active column `c` with
/// `⌈Σ y + slack(c)⌉ ≥ target`, reading the duals [`lower_bound`] solved at
/// this very trail mark (nothing is retired if it solved none here).
///
/// Every cover of the active rows costs `Σ_c cost(c) ≥ Σ_r y_r + Σ_c
/// slack(c)` (each row is covered at least once and `y ≥ 0`), so every
/// cover that uses `c` costs at least `Σ y + slack(c)`: with `target` the
/// budget left under an incumbent, no completion through a retired column
/// beats it. Columns covering no active row are left alone, since the
/// LP pass never wrote their slack. Returns whether anything was retired.
pub(crate) fn fix_reduced_costs(
    state: &mut TrailState,
    scratch: &mut Scratch,
    target: u64,
) -> bool {
    if scratch.dual_mark != state.mark() {
        return false;
    }
    scratch.col_list.clear();
    for c in state.active_cols.iter_ones() {
        if scratch.col_count[c] > 0
            && dual_objective(scratch.dual_sum + u128::from(scratch.slack[c])) >= target
        {
            scratch.col_list.push(c as u32);
        }
    }
    for &c in &scratch.col_list {
        state.deactivate_col(c as usize);
    }
    !scratch.col_list.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> CoverProblem {
        let mut p = CoverProblem::new(4);
        p.add_column(&[0, 1], 2); // 0
        p.add_column(&[1, 2], 2); // 1
        p.add_column(&[3], 1); // 2
        p.add_column(&[2, 3], 5); // 3
        p
    }

    #[test]
    fn essentials_select_forced_columns() {
        let p = problem();
        let index = RowIndex::build(&p);
        let mut st = TrailState::root(&p);
        assert!(select_essentials(&p, &index, &mut st));
        // Row 0 is only covered by column 0: forced.
        assert!(st.selected.contains(&0));
    }

    #[test]
    fn essentials_detect_infeasible() {
        let mut p = CoverProblem::new(2);
        p.add_column(&[0], 1);
        let index = RowIndex::build(&p);
        let mut st = TrailState::root(&p);
        assert!(!select_essentials(&p, &index, &mut st));
    }

    #[test]
    fn trail_round_trips_selections_and_removals() {
        let p = problem();
        let mut st = TrailState::root(&p);
        let rows0 = st.active_rows.clone();
        let cols0 = st.active_cols.clone();
        let mark = st.mark();
        st.select(&p, 0);
        st.deactivate_col(3);
        st.deactivate_row(2);
        assert_eq!(st.selected, vec![0]);
        assert_eq!(st.cost, 2);
        assert_eq!(st.rows_left(), 1); // rows 0,1 covered, row 2 retired
        assert_eq!(st.cols_left(), 2);
        st.undo_to(&p, mark);
        assert_eq!(st.active_rows, rows0);
        assert_eq!(st.active_cols, cols0);
        assert!(st.selected.is_empty());
        assert_eq!(st.cost, 0);
        assert_eq!(st.rows_left(), 4);
        assert_eq!(st.cols_left(), 4);
    }

    #[test]
    fn nested_marks_unwind_independently() {
        let p = problem();
        let mut st = TrailState::root(&p);
        let outer = st.mark();
        st.select(&p, 2);
        let inner = st.mark();
        st.select(&p, 0);
        st.undo_to(&p, inner);
        assert_eq!(st.selected, vec![2]);
        assert_eq!(st.cost, 1);
        st.undo_to(&p, outer);
        assert!(st.selected.is_empty());
        assert!(st.done() == (p.num_rows() == 0));
    }

    #[test]
    fn row_dominance_drops_superset_rows() {
        // Row 1 is covered by columns {0,1}; row 0 by {0} only.
        let mut p = CoverProblem::new(2);
        p.add_column(&[0, 1], 1);
        p.add_column(&[1], 1);
        let index = RowIndex::build(&p);
        let mut st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        remove_dominated_rows(&index, &mut st, &mut scratch);
        assert!(st.active_rows.get(0));
        assert!(!st.active_rows.get(1)); // covering row 0 covers row 1
    }

    #[test]
    fn col_dominance_drops_worse_columns() {
        let mut p = CoverProblem::new(2);
        p.add_column(&[0, 1], 2); // dominates
        p.add_column(&[0], 2); // dominated: fewer rows, same cost
        p.add_column(&[0, 1], 9); // dominated: same rows, higher cost
        let mut st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        remove_dominated_cols(&p, &RowIndex::build(&p), &mut st, &mut scratch);
        assert!(st.active_cols.get(0));
        assert!(!st.active_cols.get(1));
        assert!(!st.active_cols.get(2));
    }

    #[test]
    fn identical_columns_keep_one() {
        let mut p = CoverProblem::new(1);
        p.add_column(&[0], 1);
        p.add_column(&[0], 1);
        let mut st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        remove_dominated_cols(&p, &RowIndex::build(&p), &mut st, &mut scratch);
        assert_eq!(st.active_cols.count_ones(), 1);
    }

    /// The columns an all-pairs scan over the entry-time active columns
    /// retires: the uncovering ones, and every `b` some other active `a`
    /// dominates (`rows(b) ⊆ rows(a)` on the active rows, no dearer,
    /// strictly better or lower-indexed). Also returns each active
    /// column's active-row count.
    fn dominated_cols_oracle(p: &CoverProblem, st: &TrailState) -> (Vec<usize>, Vec<u32>) {
        let rows = |c: usize| -> Vec<usize> {
            p.rows_of(c).iter_ones().filter(|&r| st.active_rows.get(r)).collect()
        };
        let active: Vec<usize> = st.active_cols.iter_ones().collect();
        let mut count = vec![0u32; p.num_columns()];
        for &c in &active {
            count[c] = rows(c).len() as u32;
        }
        let removed = active
            .iter()
            .copied()
            .filter(|&b| {
                count[b] == 0
                    || active.iter().any(|&a| {
                        a != b
                            && p.cost(a) <= p.cost(b)
                            && rows(b).iter().all(|&r| p.rows_of(a).get(r))
                            && (p.cost(a) < p.cost(b) || count[b] < count[a] || a < b)
                    })
            })
            .collect();
        (removed, count)
    }

    /// A random matrix of `num_rows` rows and `num_cols` columns, with
    /// duplicates of earlier columns and costs from a small range, so the
    /// equal-rows and equal-cost tie-breaks get exercised.
    fn random_matrix(
        rng: &mut rand::rngs::StdRng,
        num_rows: usize,
        num_cols: usize,
    ) -> CoverProblem {
        use rand::Rng;
        let mut p = CoverProblem::new(num_rows);
        let density = [0.02, 0.05, 0.1, 0.2, 0.4][rng.gen_range(0..5usize)];
        let mut cols: Vec<Vec<usize>> = Vec::new();
        for _ in 0..num_cols {
            let rows = if !cols.is_empty() && rng.gen_bool(0.2) {
                cols[rng.gen_range(0..cols.len())].clone()
            } else {
                (0..num_rows).filter(|_| rng.gen_bool(density)).collect()
            };
            p.add_column(&rows, rng.gen_range(1..=4u64));
            cols.push(rows);
        }
        p
    }

    /// Runs the pass on `st` and checks it against the all-pairs oracle;
    /// returns how many columns it removed and kept.
    fn check_col_dominance(p: &CoverProblem, mut st: TrailState) -> (usize, usize) {
        let entry_cols = st.active_cols.clone();
        let (removed, count) = dominated_cols_oracle(p, &st);
        let mut scratch = Scratch::new(p);
        remove_dominated_cols(p, &RowIndex::build(p), &mut st, &mut scratch);
        let got: Vec<usize> = entry_cols.iter_ones().filter(|&c| !st.active_cols.get(c)).collect();
        assert_eq!(got, removed, "{} rows, {} columns", p.num_rows(), p.num_columns());
        for c in st.active_cols.iter_ones() {
            assert_eq!(scratch.col_count[c], count[c], "column {c}");
        }
        assert_eq!(scratch.col_count_mark, st.mark());
        (removed.len(), st.cols_left())
    }

    #[test]
    fn col_dominance_matches_an_all_pairs_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xd0_71_4a_7e);
        let (mut removed_total, mut kept_total) = (0, 0);
        for _ in 0..150 {
            let num_rows = rng.gen_range(1..=200usize);
            let num_cols = rng.gen_range(1..=120usize);
            let p = random_matrix(&mut rng, num_rows, num_cols);
            let mut st = TrailState::root(&p);
            for _ in 0..rng.gen_range(0..=3usize) {
                let c = rng.gen_range(0..p.num_columns());
                if st.active_cols.get(c) {
                    st.select(&p, c);
                }
            }
            for _ in 0..rng.gen_range(0..=num_rows / 4) {
                let r = rng.gen_range(0..num_rows);
                if st.active_rows.get(r) {
                    st.deactivate_row(r);
                }
            }
            for _ in 0..rng.gen_range(0..=p.num_columns() / 4) {
                let c = rng.gen_range(0..p.num_columns());
                if st.active_cols.get(c) {
                    st.deactivate_col(c);
                }
            }
            let (removed, kept) = check_col_dominance(&p, st);
            removed_total += removed;
            kept_total += kept;
        }
        // The sample must exercise both outcomes.
        assert!(removed_total > 0 && kept_total > 0, "{removed_total} removed, {kept_total} kept");
    }

    /// The interior-node shape of the wide covers (root, life): over 256
    /// columns, of which at most 64 are still active, scattered over the
    /// words, so the candidate intersections span several words and skip
    /// the empty ones.
    #[test]
    fn col_dominance_matches_the_oracle_on_wide_sparse_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x051d_ec01);
        let (mut removed_total, mut kept_total, mut multi_word) = (0, 0, 0);
        for _ in 0..80 {
            let num_rows = rng.gen_range(1..=80usize);
            let num_cols = rng.gen_range(257..=700usize);
            let p = random_matrix(&mut rng, num_rows, num_cols);
            let mut st = TrailState::root(&p);
            // Keep a random subset of at most 64 columns: either spread
            // over the whole matrix or bunched into a few adjacent words.
            let keep = rng.gen_range(1..=64usize);
            let kept: Vec<usize> = if rng.gen_bool(0.5) {
                (0..keep).map(|_| rng.gen_range(0..num_cols)).collect()
            } else {
                let start = rng.gen_range(0..num_cols - 192);
                (0..keep).map(|_| start + rng.gen_range(0..192usize)).collect()
            };
            for c in 0..num_cols {
                if !kept.contains(&c) {
                    st.deactivate_col(c);
                }
            }
            for _ in 0..rng.gen_range(0..=num_rows / 4) {
                let r = rng.gen_range(0..num_rows);
                if st.active_rows.get(r) {
                    st.deactivate_row(r);
                }
            }
            let words = st.active_cols.words().iter().filter(|&&w| w != 0).count();
            multi_word += usize::from(words > 1);
            let (removed, kept) = check_col_dominance(&p, st);
            removed_total += removed;
            kept_total += kept;
        }
        assert!(removed_total > 0 && kept_total > 0, "{removed_total} removed, {kept_total} kept");
        assert!(multi_word > 40, "only {multi_word} multi-word samples");
    }

    #[test]
    fn lower_bound_is_sound_on_disjoint_rows() {
        let mut p = CoverProblem::new(2);
        p.add_column(&[0], 3);
        p.add_column(&[1], 4);
        let index = RowIndex::build(&p);
        let st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        assert_eq!(lower_bound(&p, &index, &st, &mut scratch, None), 7);
        assert_eq!(lower_bound(&p, &index, &st, &mut scratch, Some(u64::MAX)), 7);
    }

    #[test]
    fn lp_dual_bound_beats_disjoint_rows_on_k5() {
        // Edge cover of K5: any two vertices share an edge, so the MIS
        // bound packs one row (cost 2), while `y_r = 1` on every vertex
        // is dual-feasible and gives 5 (the optimum is 6).
        let mut p = CoverProblem::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_column(&[i, j], 2);
            }
        }
        let index = RowIndex::build(&p);
        let st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        let mis = mis_bound(&p, &index, &st, &mut scratch);
        let lp = lp_dual_bound(&p, &st, &mut scratch);
        assert_eq!((mis, lp), (2, 5));
        assert_eq!(lower_bound(&p, &index, &st, &mut scratch, None), mis);
        assert_eq!(lower_bound(&p, &index, &st, &mut scratch, Some(u64::MAX)), mis.max(lp));
    }

    #[test]
    fn inherited_duals_follow_the_active_rows() {
        let mut p = CoverProblem::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                p.add_column(&[i, j], 2);
            }
        }
        let index = RowIndex::build(&p);
        let mut st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        assert_eq!(st.inherited_bound(), 0);
        assert_eq!(lower_bound(&p, &index, &st, &mut scratch, Some(u64::MAX)), 5);
        st.inherit_duals(&scratch.dual);
        assert_eq!(st.inherited_bound(), 5);
        let mark = st.mark();
        st.select(&p, 0); // edge {0, 1}: y_0 = y_1 = 1 leave the sum
        assert_eq!(st.inherited_bound(), 3);
        st.undo_to(&p, mark);
        assert_eq!(st.inherited_bound(), 5);
    }

    #[test]
    fn dual_ascent_raises_the_ratio_bound() {
        let mut p = CoverProblem::new(3);
        p.add_column(&[0, 1], 2); // ratio 1
        p.add_column(&[1, 2], 4); // ratio 2
        p.add_column(&[2], 3); // ratio 3
        let index = RowIndex::build(&p);
        let st = TrailState::root(&p);
        // The ratio start alone: y = (1, 1, 2), Σ = 4.
        let ratio: f64 = (0..3)
            .map(|r| {
                index
                    .active_cols_of(&st.active_cols, r)
                    .map(|c| p.cost(c as usize) as f64 / p.rows_of(c as usize).count_ones() as f64)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        assert_eq!(ratio, 4.0);
        // Columns 1 and 2 keep one unit of slack each, so the ascent
        // raises y_2 to 3: the bound reaches the optimum (columns 0 + 2).
        let mut scratch = Scratch::new(&p);
        mis_bound(&p, &index, &st, &mut scratch);
        assert_eq!(lp_dual_bound(&p, &st, &mut scratch), 5);
        assert_eq!(scratch.dual[..3], [1 << 20, 1 << 20, 3 << 20]);
    }

    #[test]
    fn fixed_point_duals_round_soundly() {
        // Three rows, every pair a column of cost 1: the LP optimum is
        // 3/2, so the bound is ⌈3/2⌉ = 2, the integer optimum.
        let mut p = CoverProblem::new(3);
        p.add_column(&[0, 1], 1);
        p.add_column(&[1, 2], 1);
        p.add_column(&[0, 2], 1);
        let index = RowIndex::build(&p);
        let st = TrailState::root(&p);
        let mut scratch = Scratch::new(&p);
        mis_bound(&p, &index, &st, &mut scratch);
        assert_eq!(lp_dual_bound(&p, &st, &mut scratch), 2);
        // A unit cost split three ways is not a multiple of the scale:
        // the duals round down, and the ceiling still recovers 1.
        let mut q = CoverProblem::new(3);
        q.add_column(&[0, 1, 2], 1);
        let index = RowIndex::build(&q);
        let st = TrailState::root(&q);
        let mut scratch = Scratch::new(&q);
        mis_bound(&q, &index, &st, &mut scratch);
        assert_eq!(lp_dual_bound(&q, &st, &mut scratch), 1);
    }

    #[test]
    fn reduced_cost_fixing_matches_a_brute_force_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xf1_c5);
        let (mut retired_total, mut kept_total, mut idle_total) = (0, 0, 0);
        for trial in 0..300 {
            let num_rows = rng.gen_range(1..=6usize);
            let mut p = CoverProblem::new(num_rows);
            for _ in 0..rng.gen_range(1..=8usize) {
                let rows: Vec<usize> = (0..num_rows).filter(|_| rng.gen_bool(0.4)).collect();
                p.add_column(&rows, rng.gen_range(1..=5u64));
            }
            let index = RowIndex::build(&p);
            let mut st = TrailState::root(&p);
            // Retired rows leave some columns covering no active row.
            for r in 0..num_rows {
                if rng.gen_bool(0.25) {
                    st.deactivate_row(r);
                }
            }
            if st
                .active_rows
                .iter_ones()
                .any(|r| index.active_cols_of(&st.active_cols, r).count() == 0)
            {
                continue;
            }
            // The cheapest cover of the active rows that uses each column.
            let mut cheapest = vec![u64::MAX; p.num_columns()];
            for mask in 0u32..1 << p.num_columns() {
                let cols: Vec<usize> =
                    (0..p.num_columns()).filter(|&c| mask >> c & 1 == 1).collect();
                let covers =
                    st.active_rows.iter_ones().all(|r| cols.iter().any(|&c| p.rows_of(c).get(r)));
                if covers {
                    for &c in &cols {
                        cheapest[c] = cheapest[c].min(p.total_cost(&cols));
                    }
                }
            }
            let optimum = *cheapest.iter().min().unwrap();
            let covering = |c: usize| p.rows_of(c).iter_ones().any(|r| st.active_rows.get(r));
            let mut scratch = Scratch::new(&p);
            scratch.enter_node();
            lower_bound(&p, &index, &st, &mut scratch, Some(u64::MAX));
            for target in 0..=optimum + 2 {
                let mut fixed = st.clone();
                let any = fix_reduced_costs(&mut fixed, &mut scratch, target);
                let retired: Vec<usize> =
                    st.active_cols.iter_ones().filter(|&c| !fixed.active_cols.get(c)).collect();
                assert_eq!(any, !retired.is_empty(), "trial {trial} target {target}");
                for &c in &retired {
                    assert!(covering(c), "trial {trial}: column {c} covers no active row");
                    assert!(cheapest[c] >= target, "trial {trial}: column {c} at target {target}");
                }
                if target == 0 {
                    // Every covering column's bound reaches 0.
                    assert_eq!(
                        retired.len(),
                        (0..p.num_columns()).filter(|&c| covering(c)).count()
                    );
                }
                if target == optimum + 2 {
                    retired_total += retired.len();
                    kept_total += fixed.cols_left();
                    idle_total += (0..p.num_columns()).filter(|&c| !covering(c)).count();
                }
            }
            // Duals solved at an earlier trail mark retire nothing.
            let mut moved = st.clone();
            moved.deactivate_col(0);
            let cols = moved.active_cols.clone();
            assert!(!fix_reduced_costs(&mut moved, &mut scratch, 0), "trial {trial}");
            assert_eq!(moved.active_cols, cols, "trial {trial}");
        }
        // The sample must retire columns, keep columns and hold idle ones.
        assert!(retired_total > 0 && kept_total > 0 && idle_total > 0);
    }

    #[test]
    fn active_cols_iterator_respects_the_active_set() {
        let p = problem();
        let index = RowIndex::build(&p);
        let mut st = TrailState::root(&p);
        assert_eq!(index.active_cols_of(&st.active_cols, 1).collect::<Vec<_>>(), vec![0, 1]);
        st.deactivate_col(0);
        assert_eq!(index.active_cols_of(&st.active_cols, 1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(index.active_cols_of(&st.active_cols, 3).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn choice_buffers_are_pooled_per_depth() {
        let p = problem();
        let mut scratch = Scratch::new(&p);
        let mut buf = scratch.take_choices(2);
        buf.push((7, 1));
        scratch.put_choices(2, buf);
        let buf = scratch.take_choices(2);
        assert!(buf.capacity() >= 1); // the allocation survived the round trip
        assert!(buf.is_empty() || buf == vec![(7, 1)]);
    }
}
