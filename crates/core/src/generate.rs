//! Generation of the extended prime pseudoproduct (EPPP) set — step 1–2 of
//! Algorithm 2, with the all-pairs baseline of \[5\] beside it and a
//! deterministic parallel union sweep.
//!
//! # Closed levels: each union built once
//!
//! Within a structure group `W`, the union of two members is canonical in
//! closed form: `d = rep_i ⊕ rep_j` is already reduced modulo `W` (both
//! reps are zero at `W`'s pivots), its lowest set bit `p` is the new
//! pivot, the union's canonical representative is whichever of the two
//! reps has bit `p` clear, and the union's reduced-echelon rows are `W`'s
//! rows with `d` XORed into those that have bit `p` set, plus `d` itself
//! at its sorted pivot position.
//!
//! A degree-`m+1` union `U` with direction space `W'` arises from each of
//! its `2^{m+1}−1` hyperplane splits. Exactly one of them is *canonical*:
//! the split along `W = {v ∈ W' : v[p] = 0}` for `W'`'s highest pivot `p`.
//! Seen from a pair of group `W`, the split is canonical iff `p` (the
//! lowest bit of `d`) lies above every pivot of `W` and is clear in every
//! row of `W`; the union's rows are then `W`'s rows plus `d`. (Reduced
//! echelon form is unique, so no other hyperplane passes: it would give
//! `W'` a different highest pivot or different first rows.)
//!
//! The exact generator's levels are *closed* — every sub-pseudocube of a
//! member is a member (a complete level `m` holds every dimension-`m`
//! affine subspace of `ON ∪ DC`, see the `delta` module; a truncated
//! level is never swept). Both canonical halves of every union are then
//! in the level, so a closed sweep builds each union at its canonical
//! pair only, where it is new by construction: no digest, no index, no
//! probe, no lock. Every other pair only decides discard flags, from the
//! union's literal count computed by popcounts; the conforming predicate,
//! if any, is evaluated on the materialized union only at pairs that can
//! still set a flag.
//!
//! Open levels — the heuristic's ascent, seeded from a cover and its
//! sub-pseudocubes — may miss a union's canonical halves, so there every
//! pair records its union. A run lists its reps in increasing order, so a
//! pair's lower member holds the union's canonical rep, and the key
//! `(group, d, lower)` below names the union exactly at any pair,
//! canonical or not. [`UnionScratch`] computes a pair's union into
//! reusable registers, with no per-pair allocation.
//!
//! # Closed levels arrive grouped
//!
//! Every level is swept as a [`Level`]: its members' canonical reps in
//! canonical order, cut into runs that share one structure, with no
//! per-member [`Pseudocube`]. A closed sweep emits the next level in that
//! form directly, because the canonical split already knows its groups:
//!
//! - A union built at group `W`'s canonical pair has the rows
//!   `W.rows ++ [d]`. Its canonical split is unique, so `(W, d) ↔ W'` is
//!   one-to-one: the canonical unions of one `(W, d)` bucket are exactly
//!   one structure group of the next level.
//! - [`Pseudocube`]'s order compares the structure rows first, and every
//!   group of a level has the same number of rows, so the next level's
//!   canonical order is `(W's order, d, rep)`. In a sorted level, `W`'s
//!   order is the order of its first member.
//!
//! So each canonical pair records a plain [`UnionKey`] `(W's first member,
//! d, rep)`, with no allocation; the merge radix-sorts each group's keys
//! on their own (they arrive in group order, see below), on the bits of
//! `(d, rep)` in which they differ, and builds each new structure once,
//! from `W`'s rows plus `d`, in place (a basis of up to 8 rows keeps them
//! inline, so no structure allocates); and the buckets become the next
//! sweep's runs as they are, with no re-sort or trie walk. On an
//! open level one union can arise in two groups (`W₁ + d₁ = W₂ + d₂`), so
//! [`Distinct`] builds each bucket's structure once and keeps each
//! `(structure, rep)` once: the union itself, never its key, decides what
//! is a duplicate. A
//! `Pseudocube` is materialized only where one leaves the generator: a
//! retained member, a truncated level kept whole, and a
//! conforming-predicate call. A [`LevelCapture`] keeps the swept levels
//! grouped, as they are.
//!
//! The degree-0 points all share the empty structure, so they are one run.
//! The only levels that arrive flat are the heuristic's open levels, which
//! are sorted: [`Level::group`] cuts them at structure changes, and those
//! runs are exactly the groups the partition trie would find there. So
//! neither generator walks the trie: Algorithm 2 sweeps the runs as they
//! are, and only the \[5\] baseline
//! ([`Minimizer::generate_quadratic`](crate::Minimizer::generate_quadratic))
//! sweeps differently.
//!
//! # Parallel execution
//!
//! There is one union sweep, at every thread count. Each level's
//! structure groups are split into *units* (contiguous outer-index ranges
//! of a group, weighted by their pair count) and statically assigned to
//! [`GenLimits::parallelism`] workers, heaviest first; one worker runs
//! inline on the calling thread and takes the units in canonical
//! `(group, lo)` order, more run as scoped threads. Every worker runs the
//! same pair loop and keeps the union keys it records in a local vector,
//! with no lock; the loop itself writes nothing shared. A closed level
//! records a key at canonical pairs only, so its keys are its distinct
//! unions. Before each outer index, and when it ends, a worker adds the
//! keys it recorded since its last check to one counter shared by the
//! sweep's workers, charges them to the governor, and reads the counter
//! against the union budget; the merge counts the level's unions exactly.
//! An open level records one key per pair; whenever a worker's keys
//! outnumber the budget, it folds them into its [`Distinct`] unions, and
//! the counter keeps the most distinct unions any one worker holds, which
//! the sweep has produced at least. Discard flags are worker-local, merged
//! by OR — a flag is set iff *some* pair sets it, independent of the
//! partition. The merge concatenates a closed level's keys unit by unit,
//! in planned `(run, lo)` order, whichever worker swept each unit, so each
//! group's keys arrive together and the groups in run order; it then
//! radix-sorts each group's keys on their own into canonical order (an
//! open level's workers' distinct unions are pooled and sorted instead).
//! That
//! makes a **non-truncated** run bit-identical at any thread count;
//! comparison counts are derived from run sizes up front and are likewise
//! identical.
//!
//! Truncation is cooperative: a shared stop flag plus the global counter,
//! and a level whose distinct unions exceed the budget after the merge is
//! truncated too. The *decision* to truncate on the union budget is
//! therefore thread-count-invariant (it holds iff the level has more
//! distinct unions than the budget); only *which* unions were
//! completed when the stop fired differs, so truncated results may differ
//! across thread counts (deadline truncation is time-dependent anyway),
//! while the keep-everything-on-truncation covering guarantee always
//! holds. At one worker the visit order is fixed, so a truncated run
//! keeps the same set on every run.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spp_boolfn::BoolFn;
use spp_gf2::{EchelonBasis, Gf2Vec};
use spp_obs::{Event, Outcome, RunCtx};
use spp_par::{try_par_workers, Parallelism, WorkerPanic};

use crate::Pseudocube;

/// Approximate footprint of one generated pseudocube (the struct plus its
/// basis rows), charged to the context's resource governor per *distinct*
/// union: as its key is recorded on a closed level, at the merge on an
/// open one. An accounting estimate, not an allocator measurement.
pub(crate) fn approx_pseudocube_bytes(pc: &Pseudocube) -> u64 {
    approx_pseudocube_bytes_at(pc.degree())
}

/// [`approx_pseudocube_bytes`] of any pseudocube of degree `m`: the
/// estimate depends on the degree alone, so a union is charged it without
/// being materialized.
///
/// It is an accounting estimate, kept at the layout a pseudocube had
/// before its basis held its rows inline: a rep, the basis's two heap
/// vectors, its digest and its ambient dimension padded to a word, plus
/// one heap row and pivot per degree — 88 + 26·m bytes on x86-64. So the
/// governor's budgets and the cache's weights do not move with
/// `size_of::<Pseudocube>()`.
pub(crate) fn approx_pseudocube_bytes_at(m: usize) -> u64 {
    use std::mem::size_of;
    let fixed = size_of::<Gf2Vec>() + 2 * size_of::<Vec<Gf2Vec>>() + 2 * size_of::<u64>();
    (fixed + m * (size_of::<Gf2Vec>() + size_of::<u16>())) as u64
}

/// Per-degree statistics of a generation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelStats {
    /// The degree `k` of the pseudocubes at this step.
    pub degree: usize,
    /// `|X^k|`: pseudocubes present at this degree.
    pub size: usize,
    /// Number of structure groups (`k` of the paper's `Σ|X_i|²/2`).
    pub groups: usize,
    /// Structure comparisons / unifiable pairs examined at this step.
    pub comparisons: u64,
    /// Pseudocubes of this degree retained as EPPP candidates.
    pub retained: usize,
    /// Wall-clock time spent on this level (union sweep + bookkeeping).
    pub wall: Duration,
}

/// Aggregate statistics of a generation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// One entry per degree processed, in increasing degree order.
    pub levels: Vec<LevelStats>,
    /// Total pseudocubes ever generated (all degrees).
    pub total_generated: usize,
    /// Total pairwise comparisons across all steps.
    pub comparisons: u64,
    /// Same-structure pairs united by each worker thread, summed over all
    /// levels. Length is the resolved worker count; index 0 is the only
    /// entry of a sequential run. The total is the number of pairs
    /// examined, whoever examined them, so the spread shows how well the
    /// sweep balanced. It counts pairs, not distinct unions: each union of
    /// degree `m+1` has `2^{m+1}−1` pairs, and a closed level builds it at
    /// one of them only.
    pub thread_unions: Vec<u64>,
    /// Whether a resource limit stopped generation early (the EPPP set is
    /// then still a valid covering candidate set, but minimality claims
    /// become upper bounds).
    pub truncated: bool,
    /// How generation ended: [`Outcome::Completed`] unless the run-control
    /// deadline expired or the run was cancelled. Cap-based truncation
    /// (pseudocube / level-size budgets) still counts as completed — see
    /// [`GenStats::truncated`] for that.
    pub outcome: Outcome,
}

impl std::fmt::Display for GenStats {
    /// A per-degree table of the run, in the layout of the paper's
    /// comparison-count discussion (§3.3):
    ///
    /// ```text
    ///  deg     |X^k|   groups  comparisons  retained        ms
    ///    0       128        1         8128         0       1.9
    ///    1      8128      253       143904         0      88.2
    ///    ...
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>4} {:>9} {:>8} {:>12} {:>9} {:>9}",
            "deg", "|X^k|", "groups", "comparisons", "retained", "ms"
        )?;
        for l in &self.levels {
            writeln!(
                f,
                "{:>4} {:>9} {:>8} {:>12} {:>9} {:>9.1}",
                l.degree,
                l.size,
                l.groups,
                l.comparisons,
                l.retained,
                l.wall.as_secs_f64() * 1e3,
            )?;
        }
        if self.thread_unions.len() > 1 {
            writeln!(f, "unions per thread {:?}", self.thread_unions)?;
        }
        write!(
            f,
            "total generated {}, comparisons {}{}",
            self.total_generated,
            self.comparisons,
            if self.truncated { " (truncated)" } else { "" }
        )?;
        if !self.outcome.is_completed() {
            write!(f, " [{}]", self.outcome)?;
        }
        Ok(())
    }
}

/// Resource budget for EPPP generation.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`GenLimits::default`] and the `with_*` builder methods.
///
/// # Examples
///
/// ```
/// use spp_core::{GenLimits, Parallelism};
///
/// let limits = GenLimits::default()
///     .with_max_pseudocubes(10_000)
///     .with_parallelism(Parallelism::sequential());
/// assert_eq!(limits.max_pseudocubes, 10_000);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct GenLimits {
    /// Stop once this many pseudocubes have been generated in total.
    pub max_pseudocubes: usize,
    /// Stop when a single degree level exceeds this size.
    pub max_level_size: usize,
    /// Wall-clock budget, if any.
    pub time_limit: Option<Duration>,
    /// Worker threads for the union sweep. The default resolves to the
    /// available cores (`SPP_THREADS` overrides);
    /// [`Parallelism::sequential`] runs the sweep's one worker inline on
    /// the calling thread.
    pub parallelism: Parallelism,
}

impl Default for GenLimits {
    /// Generous defaults sized to the paper's largest reported EPPP sets
    /// (~500 000 pseudoproducts).
    fn default() -> Self {
        GenLimits {
            max_pseudocubes: 600_000,
            max_level_size: 400_000,
            time_limit: None,
            parallelism: Parallelism::AUTO,
        }
    }
}

impl GenLimits {
    /// Sets the total-pseudocube budget.
    #[must_use]
    pub fn with_max_pseudocubes(mut self, max: usize) -> Self {
        self.max_pseudocubes = max;
        self
    }

    /// Sets the per-level size budget.
    #[must_use]
    pub fn with_max_level_size(mut self, max: usize) -> Self {
        self.max_level_size = max;
        self
    }

    /// Sets (or clears) the wall-clock budget.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Option<Duration>) -> Self {
        self.time_limit = limit;
        self
    }

    /// Sets the worker-thread policy for the union sweep.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// The conforming family a sweep generates for: `None` is every
/// pseudoproduct, `Some(p)` those `p` accepts (see
/// [`generate_eppp_session`]).
pub(crate) type Conforming<'a> = Option<&'a (dyn Fn(&Pseudocube) -> bool + Sync)>;

/// The extended prime pseudoproducts of a function, plus how they were
/// obtained.
#[derive(Clone, Debug)]
pub struct EpppSet {
    /// The ambient variable count.
    pub num_vars: usize,
    /// The EPPP candidates (Definition 3, operational form: a pseudocube is
    /// dropped only when some one-step union covers it with no more
    /// literals).
    pub pseudocubes: Vec<Pseudocube>,
    /// Generation statistics.
    pub stats: GenStats,
}

/// The run-control-aware generator behind [`crate::Minimizer::generate`]:
/// EPPP construction by successive same-structure unions (Algorithm 2
/// steps 1–2) restricted to a *conforming* family of pseudoproducts,
/// under a [`RunCtx`].
///
/// A pseudocube with `h` literals is discarded only when a one-step
/// union covers it with at most `h` literals, so the retained set always
/// covers the ON-set and a valid cover exists even when `limits`
/// truncate the run. Non-conforming pseudocubes are traversed (their
/// unions may lead back into the family) but never retained, and only a
/// conforming union may discard its halves. The predicate must be
/// `Sync`: workers call it concurrently when the sweep runs parallel.
/// With `None` (the unrestricted family) no predicate is ever called.
///
/// One *counted* checkpoint is consumed per degree level (on the calling
/// thread, before the level's sweep), so
/// [`spp_obs::CancelToken::cancel_after_checkpoints`] stops the run at a
/// thread-count-independent level boundary; worker threads additionally
/// poll deadline and cancellation sparsely mid-sweep. On any stop the
/// whole in-flight level is retained, preserving the valid-cover
/// guarantee, and the cause lands in [`GenStats::outcome`].
pub(crate) fn generate_eppp_session(
    f: &BoolFn,
    limits: &GenLimits,
    conforming: Conforming,
    ctx: &RunCtx,
) -> EpppSet {
    generate_eppp_session_capture(f, false, limits, conforming, ctx, None)
}

/// A side-channel recording every swept level and its discard flags, so
/// the cache can store a generation snapshot for later delta splicing.
///
/// Capture is best-effort and bounded: once the total captured member
/// count would exceed `cap`, or the run truncates (a truncated snapshot
/// is budget-dependent, not a function-level fact), the buffer is
/// dropped and `overflowed` marks the snapshot unusable.
pub(crate) struct LevelCapture {
    cap: usize,
    total: usize,
    /// One `(members, discard flags)` pair per degree, in degree order:
    /// each swept level as the generator held it, grouped.
    pub(crate) levels: Vec<(Level, Vec<bool>)>,
    pub(crate) overflowed: bool,
}

impl LevelCapture {
    pub(crate) fn new(cap: usize) -> Self {
        LevelCapture { cap, total: 0, levels: Vec::new(), overflowed: false }
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.levels.clear();
        self.levels.shrink_to_fit();
    }

    fn push(&mut self, level: Level, discarded: Vec<bool>) {
        if self.overflowed {
            return;
        }
        if self.total + level.len() > self.cap {
            self.overflow();
            return;
        }
        self.total += level.len();
        self.levels.push((level, discarded));
    }
}

/// [`generate_eppp_session`] with an optional [`LevelCapture`] recording
/// the swept levels. Capture does not change the generated set: each
/// swept level moves into the buffer instead of being dropped.
/// `quadratic` runs Table 2's \[5\] baseline: every level is swept by
/// [`sweep_quadratic`], which compares all member pairs, on one worker.
/// It generates the same set as Algorithm 2's grouped sweep, at the cost
/// of more comparisons.
pub(crate) fn generate_eppp_session_capture(
    f: &BoolFn,
    quadratic: bool,
    limits: &GenLimits,
    conforming: Conforming,
    ctx: &RunCtx,
    mut capture: Option<&mut LevelCapture>,
) -> EpppSet {
    let n = f.num_vars();
    let ctx = ctx.clone().cap_deadline(limits.time_limit.map(|d| Instant::now() + d));
    let threads = limits.parallelism.threads();
    let mut level_start = Instant::now();
    // The points share the empty structure, so they form one run; every
    // later level arrives grouped from the sweep that built it.
    let mut level = Level::points(n, f.on_set().iter().chain(f.dc_set()).copied().collect());

    let mut retained: Vec<Pseudocube> = Vec::new();
    let mut stats = GenStats {
        total_generated: level.len(),
        thread_unions: vec![0; threads],
        ..GenStats::default()
    };
    let mut degree = 0usize;

    // Charge the degree-0 points so a budget too small for even the
    // ON-set trips before any sweep.
    ctx.governor().charge(level.len() as u64 * approx_pseudocube_bytes_at(0));

    while !level.is_empty() {
        // Injection point for memory-pressure / slow-level faults (a Panic
        // armed here unwinds the session — use `generate.worker` for
        // isolated worker faults).
        ctx.failpoint("generate.level");
        // One counted checkpoint per level: the deterministic anchor for
        // `cancel_after_checkpoints` fuses. Also observes a blown hard
        // memory budget (via the governor in `stop_reason`).
        if let Some(reason) = ctx.checkpoint() {
            stats.outcome = stats.outcome.merge(reason);
        }
        let over_budget = stats.truncated
            || stats.total_generated > limits.max_pseudocubes
            || level.len() > limits.max_level_size
            || ctx.governor().soft_exceeded()
            || !stats.outcome.is_completed();
        if over_budget {
            // Keep the whole (conforming part of the) level: every
            // pseudocube discarded earlier has a (transitive) retained
            // substitute with no more literals.
            stats.truncated = true;
            if let Some(cap) = capture.as_deref_mut() {
                cap.overflow();
            }
            let before = retained.len();
            retained.extend(level.pseudocubes().filter(|pc| conforming.is_none_or(|c| c(pc))));
            let kept = retained.len() - before;
            stats.levels.push(LevelStats {
                degree,
                size: kept,
                groups: 0,
                comparisons: 0,
                retained: kept,
                wall: level_start.elapsed(),
            });
            break;
        }

        ctx.emit(Event::GenLevelStarted { degree, size: level.len() });
        // The pair loops can produce far more unions than the level held,
        // so the budget is enforced inside them (sampling the clock and the
        // cancellation flag sparsely).
        let union_cap = limits
            .max_level_size
            .min(limits.max_pseudocubes.saturating_sub(stats.total_generated));
        // Every level swept here is complete, hence closed (module docs).
        let outcome = sweep_level(&level, quadratic, threads, union_cap, &ctx, conforming, true);
        let mut discarded = outcome.discarded;
        if outcome.truncated {
            stats.truncated = true;
            // Distinguish a deadline/cancel stop from a cap stop.
            if let Some(reason) = ctx.stop_reason() {
                stats.outcome = stats.outcome.merge(reason);
            }
        }
        // On truncation the discard flags may be based on a partial union
        // sweep; that is fine (discarded items still have a retained
        // substitute), but items never compared must be kept — simplest is
        // to keep everything at this level plus what was generated so far.
        if stats.truncated {
            discarded.iter_mut().for_each(|d| *d = false);
        }

        let mut kept = 0usize;
        for (i, dirs, rep) in level.members() {
            if discarded[i] {
                continue;
            }
            let pc = Pseudocube::from_canonical_parts(rep, dirs.clone());
            if conforming.is_none_or(|c| c(&pc)) {
                retained.push(pc);
                kept += 1;
            }
        }
        stats.comparisons += outcome.comparisons;
        for (w, unions) in outcome.thread_unions.iter().enumerate() {
            stats.thread_unions[w] += unions;
        }
        let wall = level_start.elapsed();
        stats.levels.push(LevelStats {
            degree,
            size: level.len(),
            groups: outcome.groups,
            comparisons: outcome.comparisons,
            retained: kept,
            wall,
        });

        let swept = std::mem::replace(&mut level, outcome.next);
        let swept_size = swept.len();
        if let Some(cap) = capture.as_deref_mut() {
            if stats.truncated {
                cap.overflow();
            } else {
                cap.push(swept, discarded);
            }
        }
        stats.total_generated += level.len();
        ctx.emit(Event::GenLevelFinished {
            degree,
            size: swept_size,
            groups: outcome.groups,
            unions: level.len(),
            retained: kept,
            live: stats.total_generated,
            wall,
        });
        degree += 1;
        level_start = Instant::now();
    }

    EpppSet { num_vars: n, pseudocubes: retained, stats }
}

/// Reusable per-worker scratch holding one pair's union: the new basis
/// row `d`, its pivot `p` and the canonical rep (from `split`), and its
/// literal count. Every step is O(m) word XOR/popcount operations in
/// registers — no buffer writes, no allocation.
pub(crate) struct UnionScratch {
    pub(crate) d: Gf2Vec,
    pub(crate) p: usize,
    rep: Gf2Vec,
    pub(crate) lit: u64,
}

impl Default for UnionScratch {
    fn default() -> Self {
        UnionScratch { d: Gf2Vec::from_u64(0, 0), p: 0, rep: Gf2Vec::from_u64(0, 0), lit: 0 }
    }
}

/// The literal count of an `n`-variable pseudocube of degree `m1` whose
/// rows hold `ones` set bits in all: `(n − m1) + Σ over rows (ones − 1)`.
#[inline]
fn literals(n: usize, m1: u64, ones: u64) -> u64 {
    (n as u64 - m1) + (ones - m1)
}

impl UnionScratch {
    /// Splits off the union of two distinct pseudocubes sharing a
    /// structure, given their canonical coset representatives: `d = rep_i
    /// ⊕ rep_j` is the new basis row, its lowest set bit `p` the new pivot,
    /// and the canonical rep is whichever input rep has bit `p` clear.
    #[inline]
    pub(crate) fn split(&mut self, rep_i: Gf2Vec, rep_j: Gf2Vec) {
        let d = rep_i ^ rep_j;
        let p = d.lowest_set_bit().expect("same-structure distinct pseudocubes unite");
        // Exactly one of the two reps has bit `p` set; the other is the
        // union's canonical representative (zeros at every new pivot).
        self.rep = if rep_i.get(p) { rep_j } else { rep_i };
        self.d = d;
        self.p = p;
    }

    /// The literal count alone of the union split off in group `g` (see
    /// [`Group::union_literals`]).
    #[inline]
    pub(crate) fn count_literals(&mut self, g: &Group) {
        self.lit = g.union_literals(self.d, self.p);
    }

    /// Builds the split union as a real [`Pseudocube`] through the trusted
    /// constructors (one basis-digest recompute, no re-reduction); `lit`
    /// must already hold the union's literal count.
    fn materialize(&self, dirs: &EchelonBasis) -> Pseudocube {
        let dirs = union_structure(dirs, self.d);
        let pc = Pseudocube::from_canonical_parts(self.rep, dirs);
        debug_assert_eq!(pc.literal_count(), self.lit, "on-the-fly literal count agrees");
        pc
    }
}

/// The structure of the union of two members of structure `dirs` whose
/// reps differ by `d` (module docs): `dirs`'s rows with `d` XORed into
/// those that have `d`'s lowest bit set, plus `d` at its sorted pivot
/// position. At a canonical split that is `dirs`'s rows plus `d`. Both
/// reps are zero at every pivot, so `d` is already reduced: the basis is
/// built in place, and inline up to its capacity, with no allocation.
fn union_structure(dirs: &EchelonBasis, d: Gf2Vec) -> EchelonBasis {
    dirs.extended(d).expect("a union's new row is independent of its halves' structure")
}

/// One run of a [`Level`]: the members `lo..hi`, which share the
/// structure `dirs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) dirs: EchelonBasis,
}

impl Run {
    pub(crate) fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// The run's member indices.
    pub(crate) fn members(&self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }

    /// Moves the run up by `by` members.
    fn shift(&mut self, by: u32) {
        self.lo += by;
        self.hi += by;
    }
}

/// A level held grouped (module docs): the members' canonical reps, cut
/// into runs that share one structure. The runs partition the members in
/// index order, in strictly increasing structure order, and each run
/// lists its members in canonical order, so member `i` is the `i`-th
/// pseudocube of the sorted level. Members are materialized only where
/// they leave the generator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Level {
    reps: Vec<Gf2Vec>,
    runs: Vec<Run>,
}

impl Level {
    /// The degree-0 level of the points `reps` of `{0,1}^n`, distinct and
    /// in any order: they share the empty structure, so they form one run.
    pub(crate) fn points(n: usize, mut reps: Vec<Gf2Vec>) -> Level {
        reps.sort_unstable();
        let runs = if reps.is_empty() {
            Vec::new()
        } else {
            vec![Run { lo: 0, hi: reps.len() as u32, dirs: EchelonBasis::new(n) }]
        };
        Level { reps, runs }
    }

    /// Groups a flat level, sorted and duplicate-free: its runs are the
    /// maximal equal-structure ranges, which are its structure groups
    /// (the order compares structures first).
    pub(crate) fn group(level: &[Pseudocube]) -> Level {
        debug_assert!(level.windows(2).all(|w| w[0] < w[1]), "a flat level arrives sorted");
        let mut runs: Vec<Run> = Vec::new();
        for (i, pc) in level.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if run.dirs == *pc.structure() => run.hi += 1,
                _ => {
                    let dirs = pc.structure().clone();
                    runs.push(Run { lo: i as u32, hi: i as u32 + 1, dirs });
                }
            }
        }
        Level { reps: level.iter().map(Pseudocube::rep).collect(), runs }
    }

    pub(crate) fn len(&self) -> usize {
        self.reps.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// The members' canonical reps, in canonical order.
    pub(crate) fn reps(&self) -> &[Gf2Vec] {
        &self.reps
    }

    /// The runs, in member (hence structure) order.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The degree every member shares (0 for an empty level).
    pub(crate) fn degree(&self) -> usize {
        self.runs.first().map_or(0, |run| run.dirs.dim())
    }

    /// Every member as `(index, structure, rep)`, in canonical order.
    pub(crate) fn members(&self) -> impl Iterator<Item = (usize, &EchelonBasis, Gf2Vec)> + '_ {
        self.runs
            .iter()
            .flat_map(move |run| run.members().map(move |i| (i, &run.dirs, self.reps[i])))
    }

    /// Every member, materialized, in canonical order.
    pub(crate) fn pseudocubes(&self) -> impl Iterator<Item = Pseudocube> + '_ {
        self.members().map(|(_, dirs, rep)| Pseudocube::from_canonical_parts(rep, dirs.clone()))
    }

    /// The unions a closed sweep of `swept` recorded as `keys` (module
    /// docs). The keys arrive in group order: each group's keys are
    /// contiguous, and the groups come in `swept`'s run order. Each group's
    /// keys are radix-sorted on their own (see [`sort_group`]), which puts
    /// the whole in canonical `(group, d, rep)` order; each `(group, d)`
    /// bucket is then one run, whose structure is the group's structure
    /// extended by `d`, and the runs are the next level as it is.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not in group order.
    pub(crate) fn from_keys(swept: &Level, mut keys: Vec<UnionKey>) -> Level {
        // Headroom for the members a delta splice of a cached copy of
        // this level inserts in place (see the `delta` module).
        let mut next =
            Level { reps: Vec::with_capacity(keys.len() + keys.len() / 8), runs: Vec::new() };
        let mut spare = Vec::new();
        let mut rest = keys.as_mut_slice();
        // Only the runs that hold keys are visited: a delta splice's keys
        // come from the few runs that gained a member.
        let mut r = 0;
        while let Some(first) = rest.first() {
            let lo = first.group();
            r = lower_bound_from(&swept.runs, r, |run| run.lo < lo);
            let run = swept.runs.get(r).filter(|run| run.lo == lo);
            let run = run.expect("union keys arrive in group order");
            let len = rest.iter().take_while(|key| key.group() == lo).count();
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            sort_group(group, &mut spare);
            let mut d = None;
            for key in &*group {
                if d != Some(key.d()) {
                    d = Some(key.d());
                    let lo = next.reps.len() as u32;
                    let d = key.row(run.dirs.ambient_dim());
                    next.runs.push(Run { lo, hi: lo, dirs: union_structure(&run.dirs, d) });
                }
                next.reps.push(swept.reps[key.rep()]);
                next.runs.last_mut().expect("a run was opened").hi += 1;
            }
        }
        next
    }

    /// The members that avoid every point of `removed`, with their
    /// `flags`, and the indices of the kept runs that lost a member. A
    /// member `rep ⊕ W` holds `r` iff `r` reduces to `rep` modulo `W`, so
    /// each run reduces each removed point once.
    pub(crate) fn without(
        &self,
        flags: &[bool],
        removed: &[Gf2Vec],
    ) -> (Level, Vec<bool>, Vec<usize>) {
        let mut kept = Level::default();
        let mut kept_flags = Vec::new();
        let mut lossy = Vec::new();
        let mut reduced = Vec::with_capacity(removed.len());
        for run in &self.runs {
            reduced.clear();
            reduced.extend(removed.iter().map(|&r| run.dirs.reduce(r)));
            let lo = kept.reps.len();
            for i in run.members() {
                if !reduced.contains(&self.reps[i]) {
                    kept.reps.push(self.reps[i]);
                    kept_flags.push(flags[i]);
                }
            }
            let hi = kept.reps.len();
            if hi == lo {
                continue;
            }
            if hi - lo < run.len() {
                lossy.push(kept.runs.len());
            }
            kept.runs.push(Run { lo: lo as u32, hi: hi as u32, dirs: run.dirs.clone() });
        }
        (kept, kept_flags, lossy)
    }

    /// Merges `new`, a level of the same degree disjoint from this one,
    /// into it in place, carrying `flags` in step (new members start
    /// unflagged), and returns the sorted positions the new members landed
    /// at. Each new run finds its place among this level's runs by
    /// galloping search over structures. The member buffers then grow once
    /// (in place, given the headroom [`Level::from_keys`] leaves) and fill
    /// from the back: the members between two places move up as one block,
    /// and a run whose structure both sides hold merges its reps. The runs
    /// are then updated front to back.
    pub(crate) fn merge(&mut self, flags: &mut Vec<bool>, new: Level) -> Vec<usize> {
        if new.is_empty() {
            return Vec::new();
        }
        // `new` is sorted, so the places are non-decreasing and galloping
        // from the previous one touches mostly-warm memory.
        let Level { reps, runs } = self;
        let (old_runs, old_len) = (runs.len(), reps.len());
        let mut cuts: Vec<(usize, bool)> = Vec::with_capacity(new.runs.len());
        let mut lo = 0usize;
        for run in &new.runs {
            lo = lower_bound_from(runs, lo, |old| old.dirs < run.dirs);
            cuts.push((lo, lo < old_runs && runs[lo].dirs == run.dirs));
        }
        let Level { reps: new_reps, runs: new_runs } = new;
        let total = old_len + new_reps.len();
        reps.resize(total, Gf2Vec::zeros(new_reps[0].len()));
        flags.resize(total, false);
        let mut new_pos = vec![0usize; new_reps.len()];
        // Backwards: `before` new members precede the run being placed,
        // and the old runs from `k` on have moved. A member lands at its
        // old position plus the new members placed before it.
        let mut before = new_reps.len();
        let mut k = old_runs;
        for (run, &(cut, joined)) in new_runs.iter().zip(&cuts).rev() {
            // The old runs after this new run's place move up by `before`
            // members, as one block.
            let stop = cut + usize::from(joined);
            if k > stop {
                let (lo, hi) = (runs[stop].lo as usize, runs[k - 1].hi as usize);
                reps.copy_within(lo..hi, lo + before);
                flags.copy_within(lo..hi, lo + before);
                k = stop;
            }
            let fresh = &new_reps[run.members()];
            before -= fresh.len();
            if joined {
                // Merge from the back: the larger of the two tails goes
                // last.
                k -= 1;
                let (lo, hi) = (runs[k].lo as usize, runs[k].hi as usize);
                let (mut i, mut f, mut out) = (hi, fresh.len(), hi + before + fresh.len());
                while f > 0 {
                    out -= 1;
                    if i > lo && reps[i - 1] > fresh[f - 1] {
                        i -= 1;
                        reps[out] = reps[i];
                        flags[out] = flags[i];
                    } else {
                        f -= 1;
                        reps[out] = fresh[f];
                        flags[out] = false;
                        new_pos[before + f] = out;
                    }
                }
                reps.copy_within(lo..i, lo + before);
                flags.copy_within(lo..i, lo + before);
            } else {
                // A new structure: its reps go right below the old run it
                // precedes (or at the end).
                let lo = runs.get(cut).map_or(old_len, |next| next.lo as usize) + before;
                let hi = lo + fresh.len();
                reps[lo..hi].copy_from_slice(fresh);
                flags[lo..hi].fill(false);
                for (t, pos) in (lo..hi).enumerate() {
                    new_pos[before + t] = pos;
                }
            }
        }
        debug_assert_eq!(before, 0, "every new member placed");
        // Forwards: each old run moves up by the new members placed before
        // it, and a joined run also grows by its own. Only new structures
        // need room among the runs; for them the runs are rebuilt, each
        // moved once.
        let mut shift = 0u32;
        let mut at = 0usize;
        for (run, &(cut, joined)) in new_runs.iter().zip(&cuts) {
            runs[at..cut].iter_mut().for_each(|old| old.shift(shift));
            at = cut;
            if joined {
                runs[cut].shift(shift);
                runs[cut].hi += run.len() as u32;
                at += 1;
            }
            shift += run.len() as u32;
        }
        runs[at..].iter_mut().for_each(|old| old.shift(shift));
        let joins = cuts.iter().filter(|&&(_, joined)| joined).count();
        if joins < new_runs.len() {
            let mut merged = Vec::with_capacity(old_runs + new_runs.len() - joins);
            let mut old = std::mem::take(runs).into_iter();
            let mut taken = 0usize;
            for (run, (cut, joined)) in new_runs.into_iter().zip(cuts) {
                if !joined {
                    merged.extend(old.by_ref().take(cut - taken));
                    taken = cut;
                    let lo = merged.last().map_or(0, |prev: &Run| prev.hi);
                    merged.push(Run { lo, hi: lo + run.len() as u32, dirs: run.dirs });
                }
            }
            merged.extend(old);
            *runs = merged;
        }
        debug_assert_eq!(runs.last().map(|run| run.hi as usize), Some(total), "runs cover all");
        new_pos
    }
}

/// First index at or after `lo` whose run is not `before` the target, by
/// exponential (galloping) search: doubling steps find a window holding
/// the boundary, a binary search inside the window pins it down. Callers
/// guarantee that `before` holds on a prefix of `runs` reaching `lo`.
fn lower_bound_from(runs: &[Run], mut lo: usize, before: impl Fn(&Run) -> bool) -> usize {
    let mut step = 1usize;
    while lo + step <= runs.len() && before(&runs[lo + step - 1]) {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step - 1).min(runs.len());
    lo + runs[lo..hi].partition_point(before)
}

/// What a sweep records for a pair's union (module docs), packed into
/// three words that compare as the tuple `(group, d, rep)`. The key names
/// the union exactly at any pair; at the union's canonical pair it is
/// also its place in the next level's canonical order:
///
/// - `group`, 32 bits: the first member index of the union's group. The
///   order of first members is canonical group order, whatever order the
///   runs are listed or visited in.
/// - `d`, 128 bits: the [`rank`] of the union's new row.
/// - `rep`, 32 bits: the swept member whose rep is the union's: the pair's
///   lower member (a run lists its reps in increasing order, so the lower
///   rep is the one zero at `d`'s lowest bit, where the two first differ).
///   Index order within a run is rep order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct UnionKey([u64; 3]);

impl UnionKey {
    pub(crate) fn new(group: u32, d: Gf2Vec, rep: u32) -> Self {
        let d = rank(d);
        UnionKey([
            (u64::from(group) << 32) | (d >> 96) as u64,
            (d >> 32) as u64,
            ((d as u64) << 32) | u64::from(rep),
        ])
    }

    fn group(self) -> u32 {
        (self.0[0] >> 32) as u32
    }

    fn d(self) -> u128 {
        (u128::from(self.0[0] as u32) << 96)
            | (u128::from(self.0[1]) << 32)
            | u128::from(self.0[2] >> 32)
    }

    fn rep(self) -> usize {
        self.0[2] as u32 as usize
    }

    /// The `(group, d)` part: the union's structure.
    fn bucket(self) -> [u64; 3] {
        [self.0[0], self.0[1], self.0[2] >> 32]
    }

    /// The union's new row `d`, of length `n`.
    fn row(self, n: usize) -> Gf2Vec {
        from_rank(n, self.d())
    }

    /// The union's split in `swept`: its group's structure and `d` (see
    /// [`union_structure`]).
    fn split(self, swept: &Level) -> (&EchelonBasis, Gf2Vec) {
        // The runs are in first-member order.
        let lo = self.group();
        let run = &swept.runs[swept.runs.partition_point(|r| r.lo < lo)];
        debug_assert_eq!(run.lo, lo);
        (&run.dirs, self.row(run.dirs.ambient_dim()))
    }

    /// The `width` bits of the key, read as one 192-bit integer (its first
    /// word most significant), from bit `at` up.
    #[inline]
    fn bits(self, at: u32, width: u32) -> usize {
        let (word, shift) = (2 - (at / 64) as usize, at % 64);
        let mut bits = self.0[word] >> shift;
        if shift + width > 64 {
            bits |= self.0[word - 1] << (64 - shift);
        }
        (bits & ((1 << width) - 1)) as usize
    }

    /// The lowest set bit of the key, read as in [`UnionKey::bits`], at
    /// or above bit `at`.
    fn lowest_bit_from(self, at: u32) -> Option<u32> {
        if at >= 192 {
            return None;
        }
        let mut w = at / 64;
        let mut word = self.0[2 - w as usize] & (u64::MAX << (at % 64));
        while word == 0 {
            w += 1;
            if w == 3 {
                return None;
            }
            word = self.0[2 - w as usize];
        }
        Some(w * 64 + word.trailing_zeros())
    }
}

/// Radix digits are at most this many bits wide.
const DIGIT_BITS: u32 = 8;

/// Sorts one group's keys into `(d, rep)` order, by a stable
/// least-significant-digit counting sort over the bits in which the keys
/// differ, with `spare` as the other buffer of each pass. The group is
/// common to all of them, so the bits that vary are those of `d`'s top
/// `n` rank bits and of `rep`, and a pass covers up to [`DIGIT_BITS`] of
/// them; bits every key shares cost nothing. Every key width, multi-word
/// `d` included, takes this one path.
///
/// Sorting on `d` alone would not do: a delta splice records a group's
/// keys by new member, so keys with one `d` can arrive out of `rep` order.
fn sort_group(keys: &mut [UnionKey], spare: &mut Vec<UnionKey>) {
    let Some(first) = keys.first().copied() else {
        return;
    };
    let mut varying = [0u64; 3];
    for key in &keys[1..] {
        for (v, (a, b)) in varying.iter_mut().zip(key.0.iter().zip(first.0)) {
            *v |= a ^ b;
        }
    }
    let varying = UnionKey(varying);
    if spare.len() < keys.len() {
        spare.resize(keys.len(), UnionKey([0; 3]));
    }
    let spare = &mut spare[..keys.len()];
    let (mut at, mut in_spare) = (0u32, false);
    let mut counts = [0u32; 1 << DIGIT_BITS];
    // Each digit starts at the lowest varying bit not yet sorted on and
    // ends at the highest varying bit within reach.
    while let Some(lo) = varying.lowest_bit_from(at) {
        let reach = varying.bits(lo, DIGIT_BITS.min(192 - lo)) as u64;
        let width = 64 - reach.leading_zeros();
        let (src, dst): (&[UnionKey], &mut [UnionKey]) =
            if in_spare { (spare, keys) } else { (keys, spare) };
        let counts = &mut counts[..1 << width];
        counts.fill(0);
        for key in src {
            counts[key.bits(lo, width)] += 1;
        }
        let mut start = 0u32;
        for count in counts.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        for &key in src {
            let slot = &mut counts[key.bits(lo, width)];
            dst[*slot as usize] = key;
            *slot += 1;
        }
        in_spare = !in_spare;
        at = lo + width;
    }
    if in_spare {
        keys.copy_from_slice(spare);
    }
}

/// An open sweep's distinct unions (module docs), gathered from the keys
/// it records. One union can be named in two groups (`W₁ + d₁ = W₂ +
/// d₂`), so the union itself, never its key, decides what is a duplicate:
/// each `(group, d)` bucket's structure is computed once and interned,
/// and each `(structure, rep)` is kept once.
#[derive(Default)]
struct Distinct {
    /// Each structure met, and its id.
    ids: WordMap<EchelonBasis, u32>,
    /// Each `(group, d)` bucket's structure id.
    buckets: WordMap<[u64; 3], u32>,
    /// The unions, as `(structure id, rep)`.
    unions: WordSet<(u32, Gf2Vec)>,
}

impl Distinct {
    fn len(&self) -> usize {
        self.unions.len()
    }

    /// Adds the unions a sweep of `swept` recorded as `keys`.
    fn add(&mut self, swept: &Level, keys: &[UnionKey]) {
        let Distinct { ids, buckets, unions } = self;
        for key in keys {
            let id = match buckets.get(&key.bucket()) {
                Some(&id) => id,
                None => {
                    let (dirs, d) = key.split(swept);
                    let next = ids.len() as u32;
                    let id = *ids.entry(union_structure(dirs, d)).or_insert(next);
                    buckets.insert(key.bucket(), id);
                    id
                }
            };
            unions.insert((id, swept.reps[key.rep()]));
        }
    }

    /// Adds another worker's unions.
    fn absorb(&mut self, other: Distinct) {
        if self.ids.is_empty() {
            *self = other;
            return;
        }
        let mut id_of = vec![0u32; other.ids.len()];
        for (dirs, id) in other.ids {
            let next = self.ids.len() as u32;
            id_of[id as usize] = *self.ids.entry(dirs).or_insert(next);
        }
        self.unions.extend(other.unions.into_iter().map(|(id, rep)| (id_of[id as usize], rep)));
    }

    /// The unions as a level, in canonical order: by structure (the rows
    /// decide it within a level), then by rep. Every structure holds a
    /// union, so each becomes one run.
    fn into_level(self) -> Level {
        let mut dirs: Vec<(EchelonBasis, u32)> = self.ids.into_iter().collect();
        dirs.sort_unstable();
        let mut rank = vec![0u32; dirs.len()];
        for (r, &(_, id)) in dirs.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let mut unions: Vec<(u32, Gf2Vec)> =
            self.unions.into_iter().map(|(id, rep)| (rank[id as usize], rep)).collect();
        unions.sort_unstable();
        let mut next = Level { reps: Vec::with_capacity(unions.len()), runs: Vec::new() };
        let mut dirs = dirs.into_iter().map(|(dirs, _)| dirs);
        for (r, rep) in unions {
            if next.runs.len() as u32 == r {
                let lo = next.reps.len() as u32;
                next.runs.push(Run { lo, hi: lo, dirs: dirs.next().expect("one per rank") });
            }
            next.reps.push(rep);
            next.runs.last_mut().expect("a run was opened").hi += 1;
        }
        next
    }
}

/// A multiply-rotate hasher for [`Distinct`]'s tables, whose keys are a
/// few machine words each. It is fast and not collision-resistant: the
/// tables compare the keys themselves, so a collision costs a probe,
/// never a union.
#[derive(Default)]
struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn finish(&self) -> u64 {
        // A product's low bits see only its factors' low bits, and the
        // tables index by the low bits.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
type WordSet<K> = HashSet<K, BuildHasherDefault<WordHasher>>;

/// `v` as an integer ordered like `v` among vectors of its length: bit
/// `x_0` becomes the most significant.
fn rank(v: Gf2Vec) -> u128 {
    let [lo, hi] = v.as_words();
    ((u128::from(hi) << 64) | u128::from(lo)).reverse_bits()
}

/// The length-`n` vector of rank `r`: the inverse of [`rank`].
fn from_rank(n: usize, r: u128) -> Gf2Vec {
    let bits = r.reverse_bits();
    let mut v = Gf2Vec::from_u64(n, bits as u64);
    let mut hi = (bits >> 64) as u64;
    while hi != 0 {
        v.set(64 + hi.trailing_zeros() as usize, true);
        hi &= hi - 1;
    }
    v
}

/// One structure group (a run) as the per-pair step reads it, computed
/// once per unit.
#[derive(Clone, Copy)]
pub(crate) struct Group<'a> {
    pub(crate) dirs: &'a EchelonBasis,
    /// `dirs`'s rows, which a union's literal count reads.
    rows: &'a [Gf2Vec],
    /// The run's first member: its unions' [`UnionKey`] group.
    pub(crate) lo: u32,
    /// The literal count every member shares (it depends on the structure
    /// alone).
    pub(crate) lit: u64,
    /// One above the top pivot: a canonical split's `p` is at least this.
    min_p: usize,
    /// The OR of the rows: a canonical split's `p` is clear in it.
    rows_or: Gf2Vec,
}

impl<'a> Group<'a> {
    fn new(dirs: &'a EchelonBasis, lo: u32) -> Self {
        let n = dirs.ambient_dim();
        let min_p = dirs.pivots().last().map_or(0, |&q| usize::from(q) + 1);
        let rows_or = dirs.rows().iter().fold(Gf2Vec::zeros(n), |or, w| or | *w);
        let ones = dirs.rows().iter().map(|w| u64::from(w.count_ones())).sum();
        let lit = literals(n, dirs.dim() as u64, ones);
        Group { dirs, rows: dirs.rows(), lo, lit, min_p, rows_or }
    }

    pub(crate) fn of(level: &'a Level, run: usize) -> Self {
        let r = &level.runs[run];
        Group::new(&r.dirs, r.lo)
    }

    /// Whether a pair whose `d` has lowest set bit `p` is its union's
    /// canonical split (module docs): `p` lies above every pivot and is
    /// clear in every row.
    #[inline]
    pub(crate) fn is_canonical(&self, p: usize) -> bool {
        p >= self.min_p && !self.rows_or.get(p)
    }

    /// The literal count of the union of two members whose reps differ by
    /// `d`, lowest set bit `p`. Its rows are the group's, with `d` XORed
    /// into those that have bit `p` set, plus `d` (see [`union_structure`]), so
    /// the count is the group's, plus `d`'s popcount, one more row and one
    /// fewer variable, and the popcount change of each row with bit `p`
    /// set. A canonical split has no such row.
    #[inline]
    fn union_literals(&self, d: Gf2Vec, p: usize) -> u64 {
        let mut lit = self.lit + u64::from(d.count_ones()) - 2;
        if self.rows_or.get(p) {
            for w in self.rows.iter().filter(|w| w.get(p)) {
                lit = lit + u64::from((*w ^ d).count_ones()) - u64::from(w.count_ones());
            }
        }
        lit
    }
}

/// What every worker of one level's sweep reads.
struct Sweep<'a> {
    level: &'a Level,
    union_cap: usize,
    ctx: &'a RunCtx,
    conforming: Conforming<'a>,
    /// Whether the level is closed (see [`sweep_level`]).
    closed: bool,
    /// The distinct unions produced so far: on a closed level, the keys
    /// every worker had recorded at its last count (see
    /// [`PairLoop::count`]); on an open one, from below, the most any one
    /// worker holds (see [`PairLoop::compact`]).
    produced: AtomicUsize,
}

/// Where one unit's keys start in its worker's keys: the unit's planned
/// `(run, lo)` and the index of its first key.
type UnitStart = (u32, u32, usize);

/// What a worker hands back.
struct WorkerOut {
    /// Its discard flags, one per level member.
    discarded: Vec<bool>,
    /// The pairs it united.
    unions: u64,
    /// The keys of the unions it recorded.
    keys: Vec<UnionKey>,
    /// On a closed level, where each unit it swept starts in `keys`, in
    /// the order it swept them.
    units: Vec<UnitStart>,
    /// On an open level, the distinct unions of its keys.
    distinct: Distinct,
    /// Whether the sweep stopped early.
    stopped: bool,
}

/// One worker's side of a sweep: its union keys, discard flags and
/// counters.
struct PairLoop<'a> {
    sweep: &'a Sweep<'a>,
    keys: Vec<UnionKey>,
    units: Vec<UnitStart>,
    /// On a closed level, how many of `keys` are counted in the sweep's
    /// `produced` and charged to the governor.
    counted: usize,
    distinct: Distinct,
    discarded: Vec<bool>,
    unions: u64,
    ops: u64,
}

impl<'a> PairLoop<'a> {
    fn new(sweep: &'a Sweep<'a>) -> Self {
        PairLoop {
            sweep,
            keys: Vec::new(),
            units: Vec::new(),
            counted: 0,
            distinct: Distinct::default(),
            discarded: vec![false; sweep.level.len()],
            unions: 0,
            ops: 0,
        }
    }

    /// Whether the sweep must stop before its next outer index: the union
    /// budget is spent, or (sampled every 64 calls, never consuming a
    /// counted checkpoint) the deadline passed or the run was cancelled.
    fn over_budget(&mut self) -> bool {
        self.ops += 1;
        if self.sweep.closed {
            self.count();
        } else if self.keys.len() > self.sweep.union_cap {
            self.compact();
        }
        self.sweep.produced.load(Ordering::Relaxed) > self.sweep.union_cap
            || (self.ops.is_multiple_of(64) && self.sweep.ctx.stop_reason().is_some())
    }

    /// On a closed level, where each key is a distinct union, counts the
    /// keys recorded since the last count in the sweep's shared counter
    /// and charges them to the governor. It runs before each outer index
    /// and at the end, so the pair loop itself writes nothing shared.
    fn count(&mut self) {
        let fresh = self.keys.len() - self.counted;
        if fresh > 0 {
            self.counted = self.keys.len();
            let bytes = approx_pseudocube_bytes_at(self.sweep.level.degree() + 1);
            self.sweep.ctx.governor().charge(fresh as u64 * bytes);
            self.sweep.produced.fetch_add(fresh, Ordering::Relaxed);
        }
    }

    /// On an open level, folds the recorded keys into the distinct unions
    /// this worker holds, so that it keeps no more keys than the union
    /// budget. The sweep has produced at least as many distinct unions as
    /// any one worker holds, so that count can stop it.
    fn compact(&mut self) {
        self.distinct.add(self.sweep.level, &self.keys);
        self.keys.clear();
        self.sweep.produced.fetch_max(self.distinct.len(), Ordering::Relaxed);
    }

    /// The per-pair step, folded into the loop over member `i`'s partners
    /// `js`, later members of its group `g`: unites each pair `i < j`,
    /// records the union's key where the level needs it — at its canonical
    /// pair on a closed level, at every pair on an open one — and marks
    /// the halves it discards. A union discards its halves when it has at
    /// most `g.lit` literals and conforms: otherwise e.g. 2-SPP would lose
    /// conforming pseudocubes to wide ones. The literal count and the
    /// predicate are computed only where a flag can still change. The
    /// group's constants and the sweep's fields are read once, outside the
    /// loop.
    #[inline(always)]
    fn unite(&mut self, g: Group, i: usize, js: impl Iterator<Item = usize>) {
        let Sweep { level, conforming, closed, .. } = *self.sweep;
        let reps = level.reps.as_slice();
        let rep_i = reps[i];
        let PairLoop { keys, discarded, .. } = self;
        let discarded = discarded.as_mut_slice();
        // Only this loop sets member `i`'s flag while it runs.
        let mut discarded_i = discarded[i];
        let mut unions = 0u64;
        for j in js {
            let d = rep_i ^ reps[j];
            let p = d.lowest_set_bit().expect("same-structure distinct pseudocubes unite");
            unions += 1;
            let canonical = g.is_canonical(p);
            if canonical || !closed {
                // A run lists its reps in increasing order, so the lower
                // rep is the one clear at `p`: the union's.
                debug_assert!(!rep_i.get(p), "the lower member's rep is the union's");
                keys.push(UnionKey::new(g.lo, d, i as u32));
            }
            if discarded_i && discarded[j] {
                continue;
            }
            let lit = g.union_literals(d, p);
            if lit <= g.lit
                && conforming.is_none_or(|c| {
                    c(&UnionScratch { d, p, rep: rep_i, lit }.materialize(g.dirs))
                })
            {
                discarded_i = true;
                discarded[j] = true;
            }
        }
        discarded[i] = discarded_i;
        self.unions += unions;
    }

    fn finish(mut self, stopped: bool) -> WorkerOut {
        if self.sweep.closed {
            self.count();
        } else {
            self.compact();
        }
        let PairLoop { discarded, unions, keys, units, distinct, .. } = self;
        WorkerOut { discarded, unions, keys, units, distinct, stopped }
    }

    /// Unites every pair of `units`, in order, until this worker's budget
    /// check or another worker (through `stop`) stops the sweep.
    fn run(mut self, units: &[Unit], stop: &AtomicBool) -> WorkerOut {
        let level = self.sweep.level;
        for unit in units {
            self.sweep.ctx.failpoint("generate.unit");
            self.units.push((unit.run, unit.lo, self.keys.len()));
            let g = Group::of(level, unit.run as usize);
            let hi = level.runs[unit.run as usize].hi as usize;
            for i in unit.lo as usize..unit.hi as usize {
                if stop.load(Ordering::Relaxed) || self.over_budget() {
                    stop.store(true, Ordering::Relaxed);
                    return self.finish(true);
                }
                self.unite(g, i, i + 1..hi);
            }
        }
        self.finish(false)
    }
}

/// The result of one level's union sweep (see [`sweep_level`]).
pub(crate) struct SweepOutcome {
    /// The distinct unions: the next level, grouped.
    pub(crate) next: Level,
    /// Per-index discard flags for the swept level.
    pub(crate) discarded: Vec<bool>,
    /// Structure comparisons performed / accounted.
    pub(crate) comparisons: u64,
    /// Structure groups found (0 for the quadratic baseline).
    pub(crate) groups: usize,
    /// Whether the sweep hit the union budget or the deadline.
    pub(crate) truncated: bool,
    /// Pairs united per worker (length = workers used).
    pub(crate) thread_unions: Vec<u64>,
}

/// Unites all same-structure pairs of the grouped `level`, producing the
/// next level, discard flags, and counters. Shared by the exact generator
/// and the heuristic's ascendant phase. `closed` says whether the level
/// is closed under sub-pseudocubes (module docs): the exact generator's
/// closed levels record each union's key at its canonical pair only, and
/// each worker counts and charges its keys before each outer index, while
/// the heuristic's open levels record one at every pair, fold the keys
/// into each worker's distinct unions, and charge those at the merge. A
/// closed level's merge concatenates the workers' keys unit by unit, in
/// planned `(run, lo)` order, so [`Level::from_keys`] radix-sorts each
/// group's keys on their own. The level's runs are its structure groups, swept in
/// the one unit-planned sweep of the module docs at any thread count; with
/// `quadratic` set, the \[5\] baseline instead scans all member pairs
/// itself and sends each unifiable one through the same per-pair step.
/// `union_cap` bounds the number of distinct unions produced (exactly, at
/// any thread count); the context's deadline, cancellation flag and hard
/// memory budget are sampled every 64 outer iterations, never consuming a
/// counted checkpoint.
pub(crate) fn sweep_level(
    level: &Level,
    quadratic: bool,
    threads: usize,
    union_cap: usize,
    ctx: &RunCtx,
    conforming: Conforming,
    closed: bool,
) -> SweepOutcome {
    let sweep = Sweep { level, union_cap, ctx, conforming, closed, produced: AtomicUsize::new(0) };
    if quadratic {
        let (out, comparisons) = sweep_quadratic(&sweep);
        return merge_workers(&sweep, vec![Ok(out)], comparisons, 0);
    }

    // Sweeping the runs only ever touches unifiable pairs (the paper's
    // "minimum number of comparisons"). Counting them from the run sizes
    // up front keeps the totals independent of the thread count,
    // truncated or not.
    let comparisons = level.runs.iter().map(|r| pairs(r.len())).sum();
    let units = plan_units(&level.runs, threads * 4);
    let workers = threads.min(units.len()).max(1);
    let assignment = assign_units(units, workers);
    let stop = AtomicBool::new(false);
    // Workers run behind a panic-isolation boundary, one worker included:
    // a panicking worker (a bug, or an injected `generate.worker` /
    // `generate.unit` fault) loses its own discards, counters and union
    // keys, and the level is treated as truncated — keep-everything, so
    // the valid-cover guarantee holds.
    let outs = try_par_workers(workers, |w| {
        ctx.failpoint("generate.worker");
        PairLoop::new(&sweep).run(&assignment[w], &stop)
    });
    merge_workers(&sweep, outs, comparisons, level.runs.len())
}

/// Merges one sweep's worker results into its outcome.
fn merge_workers(
    sweep: &Sweep,
    outs: Vec<Result<WorkerOut, WorkerPanic>>,
    comparisons: u64,
    groups: usize,
) -> SweepOutcome {
    let mut swept: Vec<(Vec<UnionKey>, Vec<UnitStart>)> = Vec::new();
    let mut distinct = Distinct::default();
    let mut truncated = false;
    let mut discarded: Option<Vec<bool>> = None;
    let mut thread_unions = vec![0u64; outs.len()];
    for (w, out) in outs.into_iter().enumerate() {
        match out {
            Ok(out) => {
                truncated |= out.stopped;
                thread_unions[w] = out.unions;
                swept.push((out.keys, out.units));
                distinct.absorb(out.distinct);
                // A flag is set iff *some* pair sets it, whoever swept it.
                match &mut discarded {
                    None => discarded = Some(out.discarded),
                    Some(d) => d.iter_mut().zip(out.discarded).for_each(|(d, f)| *d |= f),
                }
            }
            Err(p) => {
                truncated = true;
                sweep.ctx.record_fault("generate.worker", &p.message);
            }
        }
    }
    let next = if sweep.closed {
        Level::from_keys(sweep.level, in_unit_order(&swept))
    } else {
        let next = distinct.into_level();
        let bytes = approx_pseudocube_bytes_at(sweep.level.degree() + 1);
        sweep.ctx.governor().charge(bytes * next.len() as u64);
        // As a crossing mid-sweep would have stopped the workers.
        truncated |= sweep.ctx.governor().hard_exceeded();
        next
    };
    // The last pairs can push the count over the cap after the last
    // outer-index check.
    truncated |= next.len() > sweep.union_cap;
    SweepOutcome {
        next,
        discarded: discarded.unwrap_or_else(|| vec![false; sweep.level.len()]),
        comparisons,
        groups,
        truncated,
        thread_unions,
    }
}

/// The workers' keys concatenated unit by unit, in planned `(run, lo)`
/// order: the group order [`Level::from_keys`] takes.
fn in_unit_order(swept: &[(Vec<UnionKey>, Vec<UnitStart>)]) -> Vec<UnionKey> {
    let mut spans: Vec<((u32, u32), &[UnionKey])> = Vec::new();
    for (keys, units) in swept {
        let ends = units.iter().skip(1).map(|&(.., start)| start).chain([keys.len()]);
        for (&(run, lo, start), end) in units.iter().zip(ends) {
            spans.push(((run, lo), &keys[start..end]));
        }
    }
    spans.sort_unstable_by_key(|&(unit, _)| unit);
    let mut keys = Vec::with_capacity(spans.iter().map(|(_, span)| span.len()).sum());
    for (_, span) in spans {
        keys.extend_from_slice(span);
    }
    keys
}

/// The \[5\] baseline: every pair of members is compared for structure
/// equality — |X|(|X|−1)/2 comparisons — and unifiable pairs are united,
/// by one worker. Each comparison tests the structure hashes, read from
/// each member's run, and a match is confirmed with the full structure
/// comparison (hash collisions unite nothing). It visits the pairs in
/// `(i, j)` order, so its keys arrive in group order as one unit. Returns
/// the worker's result and the comparison count.
fn sweep_quadratic(sweep: &Sweep) -> (WorkerOut, u64) {
    let level = sweep.level;
    let mut pairs = PairLoop::new(sweep);
    pairs.units.push((0, 0, 0));
    let run_of: Vec<usize> =
        level.runs.iter().enumerate().flat_map(|(r, run)| std::iter::repeat_n(r, run.len())).collect();
    let hashes: Vec<u64> = run_of.iter().map(|&r| level.runs[r].dirs.structure_hash()).collect();
    let mut comparisons = 0u64;
    let len = level.len();
    for i in 0..len {
        if pairs.over_budget() {
            return (pairs.finish(true), comparisons);
        }
        comparisons += (len - 1 - i) as u64;
        let (hash, dirs) = (hashes[i], &level.runs[run_of[i]].dirs);
        let partners =
            (i + 1..len).filter(|&j| hashes[j] == hash && level.runs[run_of[j]].dirs == *dirs);
        pairs.unite(Group::of(level, run_of[i]), i, partners);
    }
    (pairs.finish(false), comparisons)
}

/// A contiguous outer-index slice of one run: the sweep work unit. Unit
/// `(r, lo..hi)` unites member `i` with every later member of run `r`,
/// for each `i` in `lo..hi`.
struct Unit {
    run: u32,
    lo: u32,
    hi: u32,
    weight: u64,
}

/// Slices runs into units of roughly `total_pairs / target_units` pairs
/// each, in deterministic (run, offset) order.
fn plan_units(runs: &[Run], target_units: usize) -> Vec<Unit> {
    let total: u64 = runs.iter().map(|r| pairs(r.len())).sum();
    let target = (total / target_units.max(1) as u64).max(1);
    let mut units = Vec::new();
    for (ri, run) in runs.iter().enumerate() {
        let (first, end) = (u64::from(run.lo), u64::from(run.hi));
        if end - first < 2 {
            continue;
        }
        let mut lo = first;
        let mut acc = 0u64;
        // Outer index `i` contributes `end - 1 - i` pairs.
        for i in first..end - 1 {
            acc += end - 1 - i;
            if acc >= target {
                units.push(Unit { run: ri as u32, lo: lo as u32, hi: (i + 1) as u32, weight: acc });
                lo = i + 1;
                acc = 0;
            }
        }
        if lo < end - 1 {
            units.push(Unit { run: ri as u32, lo: lo as u32, hi: (end - 1) as u32, weight: acc });
        }
    }
    units
}

/// Greedy static load balance: heaviest unit to the least-loaded worker.
/// Ties break on (run, lo) and worker index, so the assignment — and
/// with it the per-thread union counters — is deterministic. One worker
/// takes the units in their planned (run, lo) order instead, so it
/// sweeps the runs front to back and a union budget that trips mid-level
/// keeps the same prefix on every run.
fn assign_units(mut units: Vec<Unit>, workers: usize) -> Vec<Vec<Unit>> {
    if workers == 1 {
        return vec![units];
    }
    units.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.run.cmp(&b.run)).then(a.lo.cmp(&b.lo)));
    let mut load = vec![0u64; workers];
    let mut assignment: Vec<Vec<Unit>> = (0..workers).map(|_| Vec::new()).collect();
    for unit in units {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).expect("at least one worker");
        load[w] += unit.weight.max(1);
        assignment[w].push(unit);
    }
    assignment
}

fn pairs(len: usize) -> u64 {
    (len as u64) * (len as u64).saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionTrie;
    use std::collections::HashSet;

    fn generate(f: &BoolFn, limits: &GenLimits) -> EpppSet {
        generate_eppp_session(f, limits, None, &RunCtx::default())
    }

    fn eppp_of(f: &BoolFn) -> EpppSet {
        generate(f, &GenLimits::default())
    }

    fn eppp_threads(f: &BoolFn, threads: usize) -> EpppSet {
        let limits = GenLimits::default().with_parallelism(Parallelism::fixed(threads));
        generate(f, &limits)
    }

    #[test]
    fn paper_intro_example_finds_the_exor_form() {
        // x1x2x̄4 + x̄1x2x4 (renamed): the ascent finds x2·(x1⊕x4).
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let eppp = eppp_of(&f);
        let best = eppp.pseudocubes.iter().map(Pseudocube::literal_count).min().unwrap();
        assert_eq!(best, 3);
        // The two minterms were discarded: 3 ≤ their 3 literals... each
        // minterm has 3 literals and the union also has 3 → discarded.
        assert!(eppp
            .pseudocubes
            .iter()
            .all(|p| p.degree() > 0 || p.literal_count() < 3));
    }

    #[test]
    fn all_groupings_agree_on_the_retained_set() {
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]); // even parity
        let trie: HashSet<_> =
            eppp_of(&f).pseudocubes.into_iter().collect();
        let quad: HashSet<_> = crate::Minimizer::new(&f).generate_quadratic().pseudocubes.into_iter().collect();
        assert_eq!(trie, quad);
    }

    #[test]
    fn grouped_generation_agrees_at_any_thread_count() {
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]);
        let sequential = eppp_threads(&f, 1);
        for threads in [2usize, 3, 8] {
            let par = eppp_threads(&f, threads);
            // Bit-identical: same pseudocubes in the same order.
            assert_eq!(par.pseudocubes, sequential.pseudocubes);
            assert_eq!(par.stats.comparisons, sequential.stats.comparisons);
            assert_eq!(par.stats.total_generated, sequential.stats.total_generated);
        }
    }

    #[test]
    fn parity_collapses_to_single_pseudocube() {
        // Odd parity on 4 variables is one affine subspace: x0⊕x1⊕x2⊕x3 = 1.
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let eppp = eppp_of(&f);
        let best = eppp.pseudocubes.iter().min_by_key(|p| p.literal_count()).unwrap();
        assert_eq!(best.degree(), 3);
        assert_eq!(best.literal_count(), 4); // the single factor (x0⊕x1⊕x2⊕x3)
        // It is the only EPPP: everything below it is discarded.
        assert_eq!(eppp.pseudocubes.len(), 1);
    }

    #[test]
    fn comparison_counts_favor_grouping() {
        let f = BoolFn::from_indices(4, &[0, 1, 2, 4, 7, 8, 11, 13, 14]);
        let trie = eppp_of(&f);
        let quad = crate::Minimizer::new(&f).generate_quadratic();
        // Same sets generated...
        assert_eq!(trie.stats.total_generated, quad.stats.total_generated);
        // ...but the trie performs no wasted comparisons: each one is a
        // union actually built (paper §3.3).
        assert!(trie.stats.comparisons < quad.stats.comparisons);
    }

    #[test]
    fn every_on_point_is_covered_by_the_retained_set() {
        let f = BoolFn::from_indices(5, &[0, 1, 4, 9, 16, 21, 27, 30, 31]);
        let eppp = eppp_of(&f);
        for pt in f.on_set() {
            assert!(
                eppp.pseudocubes.iter().any(|p| p.contains(pt)),
                "point {pt} uncovered"
            );
        }
        // And every retained pseudocube is an implicant of f.
        for pc in &eppp.pseudocubes {
            assert!(pc.points().all(|pt| f.is_coverable(&pt)), "{pc:?} not contained in f");
        }
    }

    #[test]
    fn truncation_keeps_a_valid_candidate_set() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let limits = GenLimits::default().with_max_pseudocubes(10);
        let eppp = generate(&f, &limits);
        assert!(eppp.stats.truncated);
        // Cap truncation is not a run-control stop.
        assert_eq!(eppp.stats.outcome, Outcome::Completed);
        for pt in f.on_set() {
            assert!(eppp.pseudocubes.iter().any(|p| p.contains(pt)));
        }
    }

    #[test]
    fn truncation_keeps_a_valid_candidate_set_under_parallelism() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        // 30 > the 21 degree-0 points, so the budget bites *inside* the
        // parallel union sweep rather than before it.
        for threads in [2usize, 4, 8] {
            let limits = GenLimits::default()
                .with_max_pseudocubes(30)
                .with_parallelism(Parallelism::fixed(threads));
            let eppp = generate(&f, &limits);
            assert!(eppp.stats.truncated, "threads = {threads}");
            for pt in f.on_set() {
                assert!(
                    eppp.pseudocubes.iter().any(|p| p.contains(pt)),
                    "point {pt} uncovered at {threads} threads"
                );
            }
        }
        // A zero deadline truncates before any sweep; coverage still holds
        // and the stop cause is recorded.
        let limits = GenLimits::default()
            .with_time_limit(Some(Duration::ZERO))
            .with_parallelism(Parallelism::fixed(4));
        let eppp = generate(&f, &limits);
        assert!(eppp.stats.truncated);
        assert_eq!(eppp.stats.outcome, Outcome::DeadlineExceeded);
        for pt in f.on_set() {
            assert!(eppp.pseudocubes.iter().any(|p| p.contains(pt)));
        }
    }

    #[test]
    fn stats_level_zero_counts_points() {
        let f = BoolFn::from_indices(3, &[1, 2, 4, 7]);
        let eppp = eppp_of(&f);
        assert_eq!(eppp.stats.levels[0].degree, 0);
        assert_eq!(eppp.stats.levels[0].size, 4);
        // Degree-0: all points share the empty structure → one group.
        assert_eq!(eppp.stats.levels[0].groups, 1);
        assert_eq!(eppp.stats.levels[0].comparisons, 6);
    }

    #[test]
    fn thread_union_counters_total_the_sweep_work() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let sequential = eppp_threads(&f, 1);
        assert_eq!(sequential.stats.thread_unions.len(), 1);
        let par = eppp_threads(&f, 4);
        assert_eq!(par.stats.thread_unions.len(), 4);
        // Every union is examined exactly once, whoever does it.
        assert_eq!(
            par.stats.thread_unions.iter().sum::<u64>(),
            sequential.stats.thread_unions[0],
        );
        // The sweep actually fanned out.
        assert!(par.stats.thread_unions.iter().filter(|&&u| u > 0).count() > 1);
    }

    #[test]
    fn level_walls_are_recorded() {
        let f = BoolFn::from_indices(3, &[1, 2, 4, 7]);
        let eppp = eppp_of(&f);
        assert!(!eppp.stats.levels.is_empty());
        // Wall times are bounded (possibly sub-microsecond) for every level.
        assert!(eppp.stats.levels.iter().all(|l| l.wall < std::time::Duration::from_secs(60)));
    }

    #[test]
    fn stats_display_is_a_table() {
        let f = BoolFn::from_indices(3, &[1, 2, 4, 7]);
        let eppp = eppp_of(&f);
        let s = eppp.stats.to_string();
        assert!(s.contains("deg"));
        assert!(s.contains("total generated"));
        assert!(!s.contains("truncated"));
    }

    #[test]
    fn empty_function_generates_nothing() {
        let f = BoolFn::from_indices(4, &[]);
        let eppp = eppp_of(&f);
        assert!(eppp.pseudocubes.is_empty());
        assert_eq!(eppp.stats.total_generated, 0);
        assert!(!eppp.stats.truncated);
    }

    #[test]
    fn dont_cares_participate_in_generation() {
        use spp_gf2::Gf2Vec;
        let p = |s: &str| Gf2Vec::from_bit_str(s).unwrap();
        // ON = {00}, DC = {11}: together they form the pseudocube (x0⊕x̄1)
        // — wait, {00, 11} is the affine line x0⊕x1 = 0, 2 literals.
        let f = BoolFn::with_dont_cares(2, [p("00")], [p("11")]);
        let eppp = eppp_of(&f);
        let best = eppp.pseudocubes.iter().map(Pseudocube::literal_count).min().unwrap();
        assert_eq!(best, 2);
    }

    /// Runs of the given lengths, back to back from member 0.
    fn runs_of(lens: &[u32]) -> Vec<Run> {
        let mut hi = 0;
        lens.iter()
            .map(|&len| {
                hi += len;
                Run { lo: hi - len, hi, dirs: EchelonBasis::new(1) }
            })
            .collect()
    }

    #[test]
    fn unit_planning_covers_every_pair_exactly_once() {
        // One big run of 9 and one pair run.
        let runs = runs_of(&[9, 2]);
        let units = plan_units(&runs, 5);
        let mut covered = std::collections::HashSet::new();
        for unit in &units {
            let run = &runs[unit.run as usize];
            assert!(run.lo <= unit.lo && unit.hi < run.hi);
            for i in unit.lo..unit.hi {
                for j in i + 1..run.hi {
                    assert!(covered.insert((i, j)), "pair duplicated");
                }
            }
        }
        let expected: u64 = runs.iter().map(|r| pairs(r.len())).sum();
        assert_eq!(covered.len() as u64, expected);
    }

    #[test]
    fn counted_cancellation_stops_at_the_same_level_at_any_thread_count() {
        use spp_obs::CancelToken;
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let baseline: Vec<EpppSet> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let ctx = RunCtx::new().with_cancel(CancelToken::cancel_after_checkpoints(2));
                let limits = GenLimits::default().with_parallelism(Parallelism::fixed(threads));
                generate_eppp_session(&f, &limits, None, &ctx)
            })
            .collect();
        for eppp in &baseline {
            assert!(eppp.stats.truncated);
            assert_eq!(eppp.stats.outcome, Outcome::Cancelled);
            // The fuse trips at the 3rd counted checkpoint = degree-2 loop
            // top, so exactly levels 0 and 1 were swept.
            assert_eq!(eppp.stats.levels.len(), 3);
            for pt in f.on_set() {
                assert!(eppp.pseudocubes.iter().any(|p| p.contains(pt)));
            }
        }
        // Identical best-so-far candidate set at any thread count.
        assert_eq!(baseline[0].pseudocubes, baseline[1].pseudocubes);
        assert_eq!(baseline[0].pseudocubes, baseline[2].pseudocubes);
    }

    #[test]
    fn generation_emits_level_events() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        #[derive(Default)]
        struct Spy {
            started: AtomicUsize,
            finished: AtomicUsize,
        }
        impl spp_obs::EventSink for Spy {
            fn emit(&self, event: &Event) {
                match event {
                    Event::GenLevelStarted { .. } => self.started.fetch_add(1, Ordering::Relaxed),
                    Event::GenLevelFinished { .. } => self.finished.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
            }
        }

        let spy = Arc::new(Spy::default());
        let ctx = RunCtx::new().with_sink(spy.clone());
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]);
        let eppp = generate_eppp_session(&f, &GenLimits::default(), None, &ctx);
        // Every fully swept level reports start and finish.
        let swept = eppp.stats.levels.len();
        assert_eq!(spy.started.load(Ordering::Relaxed), swept);
        assert_eq!(spy.finished.load(Ordering::Relaxed), swept);
    }

    /// FNV-1a over the `Display` forms of `pcs`, in order.
    fn fnv_digest(pcs: &[Pseudocube]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for pc in pcs {
            for b in pc.to_string().bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn one_thread_truncation_mid_level_is_pinned() {
        // 42 ON points and 861 distinct degree-1 unions, then a budget
        // that trips `extra` unions into the degree-1 sweep: the order in
        // which the sweep visits its pairs decides which unions are kept.
        let f = BoolFn::from_truth_fn(6, |x| x % 3 != 0);
        // (extra, degree-2 level size = retained, retained-set length,
        // unions examined, digest of the retained set)
        let pins: [(usize, usize, usize, u64, u64); 3] = [
            (50, 52, 913, 1662, 0xb8b1_0c55_66c5_0074),
            (200, 203, 1064, 2420, 0x5aaf_6bb4_1858_f702),
            (400, 401, 1262, 3204, 0x8746_657f_aa54_ae97),
        ];
        for (extra, top, len, unions, digest) in pins {
            let limits = GenLimits::default()
                .with_max_pseudocubes(42 + 861 + extra)
                .with_parallelism(Parallelism::fixed(1));
            let eppp = generate(&f, &limits);
            assert!(eppp.stats.truncated, "extra = {extra}");
            let levels: Vec<_> = eppp
                .stats
                .levels
                .iter()
                .map(|l| (l.degree, l.size, l.groups, l.comparisons, l.retained))
                .collect();
            assert_eq!(
                levels,
                [(0, 42, 1, 861, 0), (1, 861, 63, 5670, 861), (2, top, 0, 0, top)],
                "extra = {extra}"
            );
            assert_eq!(eppp.pseudocubes.len(), len, "extra = {extra}");
            assert_eq!(eppp.stats.thread_unions, [unions], "extra = {extra}");
            assert_eq!(fnv_digest(&eppp.pseudocubes), digest, "extra = {extra}");
        }
    }

    #[test]
    fn a_budget_crossed_by_the_last_pair_truncates_its_level() {
        // Each pair of the 42 ON points is a distinct union, so a budget
        // of 860 unions is crossed by the degree-0 sweep's very last pair:
        // at any thread count that level must count as truncated and be
        // kept whole.
        let f = BoolFn::from_truth_fn(6, |x| x % 3 != 0);
        for threads in [1usize, 2, 4] {
            let limits = GenLimits::default()
                .with_max_pseudocubes(42 + 860)
                .with_parallelism(Parallelism::fixed(threads));
            let eppp = generate(&f, &limits);
            assert!(eppp.stats.truncated, "threads = {threads}");
            assert_eq!(eppp.stats.levels[0].retained, 42, "threads = {threads}");
        }
    }

    /// A 70-variable function whose unions' rows use both words of a
    /// [`Gf2Vec`]: a 3-dimensional affine subspace plus five more points.
    fn wide_points() -> BoolFn {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            let mut word = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (lo, hi) = (word(), word() & 0x3f);
            let mut v = Gf2Vec::from_u64(70, lo);
            (0..6).filter(|b| hi >> b & 1 == 1).for_each(|b| v.set(64 + b, true));
            v
        };
        let (base, dirs) = (next(), [next(), next(), next()]);
        let mut points: Vec<Gf2Vec> = (0..8usize)
            .map(|k| (0..3).filter(|b| k >> b & 1 == 1).fold(base, |p, b| p ^ dirs[b]))
            .collect();
        points.extend((0..5).map(|_| next()));
        BoolFn::from_minterms(70, points)
    }

    /// A 6-variable function with don't-cares.
    fn with_dont_cares() -> BoolFn {
        let points = |keep: fn(u64) -> bool| {
            (0..64u64).filter(move |&x| keep(x)).map(|x| Gf2Vec::from_u64(6, x))
        };
        BoolFn::with_dont_cares(6, points(|x| x % 3 == 1), points(|x| x % 7 == 0))
    }

    #[test]
    fn generation_charges_one_pseudocube_estimate_per_level_member() {
        // A 4-bit adder's sum bit 3, an XOR-rich 8-input function, and a
        // function with don't-cares: every member of every swept level is
        // charged once, at its degree, at any thread count.
        let adder_bit3 = BoolFn::from_truth_fn(8, |x| ((x & 15) + (x >> 4)) & 8 != 0);
        let xor_rich = BoolFn::from_truth_fn(8, |x| {
            ((x & 0b1011_0101).count_ones() % 2 == 1 && x & 0b0100_0010 == 0b0100_0000)
                || ((x & 0b0110_1100).count_ones() % 2 == 0 && x & 0b1000_0001 == 1)
        });
        let with_dcs = with_dont_cares();
        assert!(!with_dcs.dc_set().is_empty());
        for f in [BoolFn::from_truth_fn(6, |x| x % 3 != 0), adder_bit3, xor_rich, with_dcs] {
            // A member of each degree, for its byte estimate.
            let n = f.num_vars();
            let cube = |m: usize| Pseudocube::from_cube(&"-".repeat(m).parse().unwrap());
            for threads in [1usize, 2] {
                let ctx = RunCtx::default();
                let limits = GenLimits::default().with_parallelism(Parallelism::fixed(threads));
                let eppp = generate_eppp_session(&f, &limits, None, &ctx);
                assert!(!eppp.stats.truncated);
                let expected: u64 = eppp
                    .stats
                    .levels
                    .iter()
                    .map(|l| l.size as u64 * approx_pseudocube_bytes(&cube(l.degree)))
                    .sum();
                assert_eq!(ctx.governor().bytes(), expected, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn closed_and_open_sweeps_agree_on_complete_levels() {
        let width2 = |pc: &Pseudocube| crate::factor_width_at_most(pc, 2);
        let width2: &(dyn Fn(&Pseudocube) -> bool + Sync) = &width2;
        let ctx = RunCtx::default();
        let runs = |level: &Level| -> Vec<(u32, u32, EchelonBasis)> {
            level.runs.iter().map(|r| (r.lo, r.hi, r.dirs.clone())).collect()
        };
        for f in [
            BoolFn::from_truth_fn(5, |x| x % 3 != 0),
            BoolFn::from_truth_fn(6, |x| x.count_ones() % 3 == 1 || x % 11 == 0),
            with_dont_cares(),
            wide_points(),
        ] {
            // Every level from the points up, each complete (no cap): the
            // points as the generator groups them, every later level as
            // the closed sweep emitted it, beside its materialized form.
            let points: Vec<Gf2Vec> = f.on_set().iter().chain(f.dc_set()).copied().collect();
            let mut emitted = Level::points(f.num_vars(), points);
            while !emitted.is_empty() {
                let level: Vec<Pseudocube> = emitted.pseudocubes().collect();
                let what = format!("degree {}", level[0].degree());
                // Cutting the materialized level into groups finds the emitted runs
                // again: by adjacency, and as the trie groups it, hence
                // with the same group count and comparisons.
                assert_eq!(runs(&Level::group(&level)), runs(&emitted), "{what}");
                let ranges: Vec<Vec<u32>> =
                    emitted.runs.iter().map(|r| (r.lo..r.hi).collect()).collect();
                assert_eq!(trie_groups(&level), ranges, "{what}");
                let mut next: Option<Level> = None;
                for quadratic in [false, true] {
                    for threads in [1usize, 2, 4] {
                        for conforming in [None, Some(width2)] {
                            let sweep = |closed| {
                                let cap = usize::MAX;
                                sweep_level(
                                    &emitted, quadratic, threads, cap, &ctx, conforming, closed,
                                )
                            };
                            let (closed, open) = (sweep(true), sweep(false));
                            let what = format!(
                                "{what}, quadratic {quadratic}, {threads} threads, predicate {}",
                                conforming.is_some()
                            );
                            assert!(!closed.truncated && !open.truncated, "{what}");
                            let grouped = closed.next;
                            let open_next: Vec<Pseudocube> = open.next.pseudocubes().collect();
                            let materialized: Vec<Pseudocube> = grouped.pseudocubes().collect();
                            assert_eq!(materialized, open_next, "{what}");
                            // The emitted runs are the maximal equal-structure
                            // runs, in strictly increasing structure order.
                            let emitted_runs = runs(&grouped);
                            assert!(emitted_runs.windows(2).all(|w| w[0].1 == w[1].0 && w[0].2 < w[1].2));
                            assert!(emitted_runs.first().is_none_or(|r| r.0 == 0), "{what}");
                            assert_eq!(closed.discarded, open.discarded, "{what}");
                            assert_eq!(closed.comparisons, open.comparisons, "{what}");
                            assert_eq!(closed.groups, open.groups, "{what}");
                            assert_eq!(closed.thread_unions, open.thread_unions, "{what}");
                            next.get_or_insert(grouped);
                        }
                    }
                }
                emitted = next.expect("at least one sweep");
            }
        }
    }

    #[test]
    fn closed_merges_equal_the_globally_sorted_keys() {
        let ctx = RunCtx::default();
        for f in [BoolFn::from_truth_fn(6, |x| x % 3 != 0), wide_points(), with_dont_cares()] {
            let points: Vec<Gf2Vec> = f.on_set().iter().chain(f.dc_set()).copied().collect();
            let mut level = Level::points(f.num_vars(), points);
            let mut split_runs = 0;
            while !level.is_empty() {
                let what = format!("n = {}, degree {}", f.num_vars(), level.degree());
                // Every canonical key, by brute force, sorted as a whole.
                let mut keys = Vec::new();
                for (r, run) in level.runs.iter().enumerate() {
                    let g = Group::of(&level, r);
                    for i in run.members() {
                        for j in i + 1..run.hi as usize {
                            let mut u = UnionScratch::default();
                            u.split(level.reps[i], level.reps[j]);
                            if g.is_canonical(u.p) {
                                keys.push(UnionKey::new(g.lo, u.d, i as u32));
                            }
                        }
                    }
                }
                keys.sort_unstable();
                let expected = Level::from_keys(&level, keys);
                for threads in [1usize, 2, 4] {
                    // Count the runs whose units the heaviest-first
                    // assignment spreads over more than one worker.
                    let assignment = assign_units(plan_units(&level.runs, threads * 4), threads);
                    split_runs += (0..level.runs.len() as u32)
                        .filter(|&r| {
                            assignment.iter().filter(|w| w.iter().any(|u| u.run == r)).count() > 1
                        })
                        .count();
                    let out = sweep_level(&level, false, threads, usize::MAX, &ctx, None, true);
                    assert!(!out.truncated, "{what}, {threads} threads");
                    assert_eq!(out.next, expected, "{what}, {threads} threads");
                }
                level = expected;
            }
            assert!(split_runs > 0, "n = {}: some run is split over workers", f.num_vars());
        }
    }

    /// `dim`-dimensional affine subspace of `{0,1}^n` plus `extra` more
    /// points, drawn from `seed`: its degree-0 group is large, and so are
    /// the degree-1 groups of the subspace's directions.
    fn affine_points(n: usize, dim: usize, extra: usize, seed: u64) -> BoolFn {
        let mut x = seed;
        let mut next = || {
            let mut word = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (lo, hi) = (word(), word());
            let mut v = Gf2Vec::zeros(n);
            (0..n).filter(|&i| [lo, hi][i / 64] >> (i % 64) & 1 == 1).for_each(|i| v.set(i, true));
            v
        };
        let base = next();
        let dirs: Vec<Gf2Vec> = (0..dim).map(|_| next()).collect();
        let mut points: Vec<Gf2Vec> = (0..1usize << dim)
            .map(|k| (0..dim).filter(|b| k >> b & 1 == 1).fold(base, |p, b| p ^ dirs[b]))
            .collect();
        points.extend((0..extra).map(|_| next()));
        points.sort_unstable();
        points.dedup();
        BoolFn::from_minterms(n, points)
    }

    #[test]
    fn group_radix_sorts_agree_with_a_comparison_sort() {
        // Groups of hundreds or thousands of keys, past any small-group cutoff, at
        // one-word `d` with n ≤ 8 and 33 ≤ n ≤ 64, and at two-word `d`
        // with n > 64. Each group's keys are shuffled before the merge.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for f in [
            BoolFn::from_truth_fn(7, |x| x % 3 != 0),
            affine_points(40, 6, 12, 0x9e37_79b9_7f4a_7c15),
            affine_points(100, 6, 12, 0x5851_f42d_4c95_7f2d),
        ] {
            let points: Vec<Gf2Vec> = f.on_set().iter().chain(f.dc_set()).copied().collect();
            let mut level = Level::points(f.num_vars(), points);
            for _ in 0..2 {
                let what = format!("n = {}, degree {}", f.num_vars(), level.degree());
                let flat: Vec<Pseudocube> = level.pseudocubes().collect();
                // Every canonical key by brute force, in group order, and
                // every union materialized from its two halves.
                let (mut keys, mut unions, mut largest) = (Vec::new(), Vec::new(), 0);
                for (r, run) in level.runs.iter().enumerate() {
                    let g = Group::of(&level, r);
                    let start = keys.len();
                    for i in run.members() {
                        for j in i + 1..run.hi as usize {
                            let mut u = UnionScratch::default();
                            u.split(level.reps[i], level.reps[j]);
                            if g.is_canonical(u.p) {
                                keys.push(UnionKey::new(g.lo, u.d, i as u32));
                                unions.push(flat[i].union(&flat[j]).expect("same structure"));
                            }
                        }
                    }
                    let group = &mut keys[start..];
                    largest = largest.max(group.len());
                    for k in (1..group.len()).rev() {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        group.swap(k, (x % (k as u64 + 1)) as usize);
                    }
                    let mut sorted = group.to_vec();
                    sorted.sort_unstable();
                    let mut radix = group.to_vec();
                    sort_group(&mut radix, &mut Vec::new());
                    assert!(radix == sorted, "{what}, group {r}");
                }
                assert!(largest >= 200, "{what}: largest group {largest}");
                unions.sort_unstable();
                let next = Level::from_keys(&level, keys);
                assert_eq!(next.pseudocubes().collect::<Vec<_>>(), unions, "{what}");
                assert_eq!(next, Level::group(&unions), "{what}");
                level = next;
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn pseudocube_charges_keep_the_heap_row_layout() {
        // The charges a pseudocube of degree m had when its basis kept its
        // rows and pivots in two heap vectors: 88 + 26·m bytes.
        let charges: Vec<u64> = (0..=8).map(approx_pseudocube_bytes_at).collect();
        assert_eq!(charges, [88, 114, 140, 166, 192, 218, 244, 270, 296]);
    }

    #[test]
    fn open_sweeps_emit_each_union_once() {
        // A degree-1 level over four variables, seeded as an open level
        // is: not every half of every union is in it.
        let pc = |points: &[u64]| {
            let points: Vec<Gf2Vec> = points.iter().map(|&x| Gf2Vec::from_u64(4, x)).collect();
            Pseudocube::from_points(&points).expect("an affine subspace")
        };
        let mut flat = vec![
            // {0,1,2,3} arises in two structure groups: canonically from
            // the x0 group, and from the x1 group.
            pc(&[0, 1]),
            pc(&[2, 3]),
            pc(&[14, 15]),
            pc(&[0, 2]),
            pc(&[1, 3]),
            // {0,4,8,12} arises only from the x3 group: of its canonical
            // halves (along x2) {0,4} is here and {8,12} is not. Likewise
            // {0,1,4,5}, whose canonical half {4,5} is missing.
            pc(&[0, 4]),
            pc(&[1, 5]),
            pc(&[0, 8]),
            pc(&[4, 12]),
            // A member with no partner, kept.
            pc(&[5, 10]),
        ];
        flat.sort_unstable();
        let level = Level::group(&flat);
        assert!(flat.contains(&pc(&[0, 4])) && !flat.contains(&pc(&[8, 12])));

        // Every pair's union, with the groups it arises in and whether at
        // its canonical split.
        let mut arises: Vec<(Pseudocube, usize, bool)> = Vec::new();
        for (r, run) in level.runs.iter().enumerate() {
            let g = Group::of(&level, r);
            for i in run.members() {
                for j in i + 1..run.hi as usize {
                    let mut u = UnionScratch::default();
                    u.split(level.reps[i], level.reps[j]);
                    let union = flat[i].union(&flat[j]).expect("same structure");
                    arises.push((union, r, g.is_canonical(u.p)));
                }
            }
        }
        let groups_of = |target: &Pseudocube| -> Vec<(usize, bool)> {
            arises.iter().filter(|(u, ..)| u == target).map(|&(_, r, c)| (r, c)).collect()
        };
        let two_groups = groups_of(&pc(&[0, 1, 2, 3]));
        assert_eq!(two_groups.len(), 2);
        assert_ne!(two_groups[0].0, two_groups[1].0);
        assert_eq!(two_groups.iter().filter(|&&(_, c)| c).count(), 1);
        for half_missing in [pc(&[0, 4, 8, 12]), pc(&[0, 1, 4, 5])] {
            assert_eq!(groups_of(&half_missing).len(), 1);
            assert!(!groups_of(&half_missing)[0].1, "{half_missing:?} has no canonical pair");
        }
        let mut unions: Vec<Pseudocube> = arises.iter().map(|(u, ..)| u.clone()).collect();
        unions.sort_unstable();
        unions.dedup();
        assert!(unions.len() < arises.len());

        let cubes = |pc: &Pseudocube| pc.is_cube();
        let cubes: &(dyn Fn(&Pseudocube) -> bool + Sync) = &cubes;
        let ctx = RunCtx::default();
        for conforming in [None, Some(cubes)] {
            // A member is discarded iff some partner's union conforms and
            // has no more literals.
            let discarded: Vec<bool> = (0..flat.len())
                .map(|i| {
                    level.runs.iter().filter(|run| run.members().contains(&i)).any(|run| {
                        run.members().filter(|&j| j != i).any(|j| {
                            let u = flat[i].union(&flat[j]).expect("same structure");
                            conforming.is_none_or(|c| c(&u))
                                && u.literal_count() <= flat[i].literal_count()
                        })
                    })
                })
                .collect();
            assert!(discarded.contains(&true) && discarded.contains(&false));
            for quadratic in [false, true] {
                for threads in [1usize, 2, 4] {
                    let what = format!(
                        "quadratic {quadratic}, {threads} threads, predicate {}",
                        conforming.is_some()
                    );
                    let out =
                        sweep_level(&level, quadratic, threads, usize::MAX, &ctx, conforming, false);
                    assert!(!out.truncated, "{what}");
                    assert_eq!(out.discarded, discarded, "{what}");
                    assert_eq!(out.next.pseudocubes().collect::<Vec<_>>(), unions, "{what}");
                }
            }
        }
    }

    #[test]
    fn open_sweeps_hold_the_union_budget_to_distinct_unions() {
        // Every line of {0,1}^3 as an open level: each of the 14 planes
        // arises from 3 of the 42 pairs.
        let point = |x: u64| Gf2Vec::from_u64(3, x);
        let mut flat: Vec<Pseudocube> = (0..8)
            .flat_map(|a| (a + 1..8).map(move |b| [point(a), point(b)]))
            .map(|line| Pseudocube::from_points(&line).expect("a line"))
            .collect();
        flat.sort_unstable();
        let level = Level::group(&flat);
        for threads in [1usize, 2, 4] {
            let ctx = RunCtx::default();
            let all = sweep_level(&level, false, threads, usize::MAX, &ctx, None, false);
            assert_eq!((all.next.len(), all.comparisons), (14, 42), "{threads} threads");
            assert_eq!(ctx.governor().bytes(), 14 * approx_pseudocube_bytes_at(2));
            // The keys outnumber a budget of 14, so the workers fold them
            // into their distinct unions mid-sweep, and the level holds.
            let ctx = RunCtx::default();
            let held = sweep_level(&level, false, threads, 14, &ctx, None, false);
            assert!(!held.truncated, "{threads} threads");
            assert_eq!(held.next, all.next, "{threads} threads");
            let short = sweep_level(&level, false, threads, 13, &ctx, None, false);
            assert!(short.truncated, "{threads} threads");
            if threads == 1 {
                // The one worker's distinct unions stop it mid-level.
                assert!(short.thread_unions[0] < 42);
            }
        }
    }

    /// The structure groups the partition trie finds in a sorted level, as
    /// member indices in the trie's group order.
    fn trie_groups(level: &[Pseudocube]) -> Vec<Vec<u32>> {
        let mut trie = PartitionTrie::new(level[0].num_vars());
        for (i, pc) in level.iter().enumerate() {
            trie.insert(pc, i as u32);
        }
        trie.groups().map(|leaves| leaves.iter().map(|l| l.payload).collect()).collect()
    }

    /// Checks, for the union `rep ⊕ W'`, that exactly one hyperplane split
    /// passes the canonical test and builds the union from `W`'s rows plus
    /// `d`, and that every split's popcount literal count is the union's.
    fn assert_one_canonical_split(rep: Gf2Vec, space: &EchelonBasis) {
        let union = Pseudocube::from_parts(rep, space.clone());
        let mut canonical = 0;
        for h in space.hyperplanes() {
            let a = Pseudocube::from_parts(union.rep(), h.basis.clone());
            let b = Pseudocube::from_parts(union.rep() ^ h.offset, h.basis);
            let g = Group::new(a.structure(), 0);
            let mut u = UnionScratch::default();
            u.split(a.rep(), b.rep());
            if g.is_canonical(u.p) {
                canonical += 1;
                u.lit = g.lit + u64::from(u.d.count_ones()) - 2;
                let built = u.materialize(g.dirs);
                assert_eq!(built, union);
                assert_eq!(built.structure().rows()[..g.dirs.dim()], *g.dirs.rows());
            }
            u.count_literals(&g);
            assert_eq!(u.lit, union.literal_count(), "{union:?}");
        }
        assert_eq!(canonical, 1, "{union:?}");
    }

    #[test]
    fn exactly_one_split_of_each_union_is_canonical() {
        // Every nonzero subspace of GF(2)^4, at every coset.
        let n = 4;
        let mut spaces: Vec<EchelonBasis> = Vec::new();
        for mask in 1u32..1 << 15 {
            if mask.count_ones() <= 4 {
                let span: Vec<Gf2Vec> = (0..15u64)
                    .filter(|&i| (mask >> i) & 1 == 1)
                    .map(|i| Gf2Vec::from_u64(n, i + 1))
                    .collect();
                let space = EchelonBasis::from_span(n, &span);
                if !spaces.contains(&space) {
                    spaces.push(space);
                }
            }
        }
        assert_eq!(spaces.len(), 15 + 35 + 15 + 1);
        for space in &spaces {
            for r in 0..1 << n {
                assert_one_canonical_split(Gf2Vec::from_u64(n, r), space);
            }
        }
        // Wider spaces of up to five dimensions in seven variables.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..40 {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Gf2Vec::from_u64(7, x & 0x7f)
            };
            let span: Vec<Gf2Vec> = (0..5).map(|_| next()).collect();
            let space = EchelonBasis::from_span(7, &span);
            if space.dim() > 0 {
                assert_one_canonical_split(next(), &space);
            }
        }
    }

    #[test]
    fn unit_assignment_is_deterministic_and_complete() {
        let runs = runs_of(&[20]);
        let units = || plan_units(&runs, 8);
        let a = assign_units(units(), 3);
        let b = assign_units(units(), 3);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.len(), wb.len());
            for (ua, ub) in wa.iter().zip(wb) {
                assert_eq!((ua.run, ua.lo, ua.hi), (ub.run, ub.lo, ub.hi));
            }
        }
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, units().len());
    }
}
