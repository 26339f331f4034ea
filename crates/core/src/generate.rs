//! Generation of the extended prime pseudoproduct (EPPP) set — step 1–2 of
//! Algorithm 2, with three interchangeable grouping strategies and a
//! deterministic parallel union sweep.
//!
//! # The arena sweep
//!
//! Within a structure group `W`, the union of two members is canonical in
//! closed form: `d = rep_i ⊕ rep_j` is already reduced modulo `W` (both
//! reps are zero at `W`'s pivots), its lowest set bit `p` is the new
//! pivot, the union's canonical representative is whichever of the two
//! reps has bit `p` clear, and the union's reduced-echelon rows are `W`'s
//! rows with `d` XORed into those that have bit `p` set, plus `d` itself
//! at its sorted pivot position. [`UnionScratch`] computes all of that
//! into reusable buffers — no per-pair allocation, no re-reduction, no
//! rehash — and a digest of the canonical form keys a [`UnionArena`] that
//! stores each **distinct** union exactly once, together with its cached
//! conforming/literal-count verdict. Duplicate pairs (each distinct
//! degree-`m+1` union is produced by up to `2^{m+1}−1` group pairs) cost
//! one digest probe and one row comparison instead of a basis clone, a
//! rehash and a fresh conforming evaluation.
//!
//! # Parallel execution
//!
//! With [`GenLimits::parallelism`] above one worker, each level's union
//! sweep is split into *units* (contiguous outer-index ranges of structure
//! groups, weighted by their pair count) and statically assigned to scoped
//! worker threads. Discard flags are worker-local, merged by OR — a flag
//! is set iff *some* pair sets it, independent of the partition. Dedup is
//! global but sharded by the canonical union digest: each distinct union
//! lands in exactly one mutex-guarded arena shard, so contention stays low
//! and the produced-union counter counts every distinct union exactly
//! once. The merged `next` level is sorted into canonical order, which
//! makes a **non-truncated** parallel run bit-identical to the sequential
//! one at any thread count; comparison counts are derived from group sizes
//! up front and are likewise identical.
//!
//! Truncation is cooperative: a shared stop flag plus the exact global
//! produced-union counter. The *decision* to truncate on the union budget
//! is therefore thread-count-invariant (the distinct count reaches the cap
//! in a parallel run iff it does sequentially); only *which* unions were
//! completed when the stop fired differs, so truncated results may differ
//! across thread counts (deadline truncation is time-dependent anyway),
//! while the keep-everything-on-truncation covering guarantee always
//! holds.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use spp_boolfn::BoolFn;
use spp_gf2::EchelonBasis;
use spp_obs::{Event, Outcome, RunCtx};
use spp_par::{par_map, try_par_workers, Parallelism};

use crate::{PartitionTrie, Pseudocube};

/// Approximate footprint of one generated pseudocube (the struct plus its
/// basis rows), charged to the context's resource governor per *distinct*
/// union. An accounting estimate, not an allocator measurement.
pub(crate) fn approx_pseudocube_bytes(pc: &Pseudocube) -> u64 {
    (std::mem::size_of::<Pseudocube>()
        + pc.degree() * (std::mem::size_of::<spp_gf2::Gf2Vec>() + 2)) as u64
}

/// How same-structure pseudocubes are grouped before pairwise union.
///
/// All three strategies produce the same complete EPPP set for
/// non-truncated runs; they differ only in how much work finding the
/// unifiable pairs costs (the subject of the paper's Table 2).
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_core::{Grouping, Minimizer};
///
/// let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
/// let trie = Minimizer::new(&f).grouping(Grouping::PartitionTrie).generate();
/// let quad = Minimizer::new(&f).grouping(Grouping::Quadratic).generate();
/// assert_eq!(trie.pseudocubes, quad.pseudocubes);
/// // ...but the trie examined far fewer candidate pairs:
/// assert!(trie.stats.comparisons <= quad.stats.comparisons);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Grouping {
    /// The paper's partition trie (§3.2) — Algorithm 2.
    #[default]
    PartitionTrie,
    /// A hash map keyed by the structure's normal form: same asymptotic
    /// behaviour as the trie; kept as an ablation of the data structure.
    HashMap,
    /// No grouping: all `|X|(|X|−1)/2` pairs are compared for structure
    /// equality, as in the earlier algorithm of Luccio–Pagli \[5\]. This is
    /// the baseline of Table 2, and always runs sequentially.
    Quadratic,
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
    /// Unions built by each worker thread, summed over all levels. Length
    /// is the resolved worker count; index 0 is the only entry of a
    /// sequential run. The total equals the number of unions examined, so
    /// the spread shows how well the sweep balanced.
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
    /// [`Parallelism::sequential`] recovers the single-threaded code path
    /// exactly.
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
/// steps 1–2 for [`Grouping::PartitionTrie`]; the \[5\] baseline for
/// [`Grouping::Quadratic`]) restricted to a *conforming* family of
/// pseudoproducts, under a [`RunCtx`].
///
/// A pseudocube with `h` literals is discarded only when a one-step
/// union covers it with at most `h` literals, so the retained set always
/// covers the ON-set and a valid cover exists even when `limits`
/// truncate the run. Non-conforming pseudocubes are traversed (their
/// unions may lead back into the family) but never retained, and only a
/// conforming union may discard its halves. The predicate must be
/// `Sync`: workers call it concurrently when the sweep runs parallel.
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
    grouping: Grouping,
    limits: &GenLimits,
    conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
    ctx: &RunCtx,
) -> EpppSet {
    generate_eppp_session_capture(f, grouping, limits, conforming, ctx, None)
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
    /// One `(members, discard flags)` pair per degree, in degree order.
    pub(crate) levels: Vec<(Vec<Pseudocube>, Vec<bool>)>,
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

    fn push(&mut self, level: &[Pseudocube], discarded: &[bool]) {
        if self.overflowed {
            return;
        }
        if self.total + level.len() > self.cap {
            self.overflow();
            return;
        }
        self.total += level.len();
        self.levels.push((level.to_vec(), discarded.to_vec()));
    }
}

/// [`generate_eppp_session`] with an optional [`LevelCapture`] recording
/// the swept levels. Capture does not change the generated set: the only
/// extra work is cloning each level into the buffer.
pub(crate) fn generate_eppp_session_capture(
    f: &BoolFn,
    grouping: Grouping,
    limits: &GenLimits,
    conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
    ctx: &RunCtx,
    mut capture: Option<&mut LevelCapture>,
) -> EpppSet {
    let n = f.num_vars();
    let ctx = ctx.clone().cap_deadline(limits.time_limit.map(|d| Instant::now() + d));
    let threads = limits.parallelism.threads();
    let mut level: Vec<Pseudocube> = f
        .on_set()
        .iter()
        .chain(f.dc_set().iter())
        .map(|&p| Pseudocube::from_point(p))
        .collect();
    level.sort_unstable();

    let mut retained: Vec<Pseudocube> = Vec::new();
    let mut stats = GenStats {
        total_generated: level.len(),
        thread_unions: vec![0; threads],
        ..GenStats::default()
    };
    let mut degree = 0usize;

    // Charge the degree-0 points so a budget too small for even the
    // ON-set trips before any sweep.
    ctx.governor().charge(level.iter().map(approx_pseudocube_bytes).sum());

    while !level.is_empty() {
        let level_start = Instant::now();
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
            level.retain(|pc| conforming(pc));
            stats.levels.push(LevelStats {
                degree,
                size: level.len(),
                groups: 0,
                comparisons: 0,
                retained: level.len(),
                wall: level_start.elapsed(),
            });
            retained.append(&mut level);
            break;
        }

        ctx.emit(Event::GenLevelStarted { degree, size: level.len() });
        // The pair loops can produce far more unions than the level held,
        // so the budget is enforced inside them (sampling the clock and the
        // cancellation flag sparsely).
        let union_cap = limits
            .max_level_size
            .min(limits.max_pseudocubes.saturating_sub(stats.total_generated));
        let outcome = sweep_level(&level, grouping, threads, union_cap, &ctx, conforming);
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
        if let Some(cap) = capture.as_deref_mut() {
            if stats.truncated {
                cap.overflow();
            } else {
                cap.push(&level, &discarded);
            }
        }

        let mut kept = 0usize;
        for (pc, dropped) in level.iter().zip(&discarded) {
            if !dropped && conforming(pc) {
                retained.push(pc.clone());
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

        let swept_size = level.len();
        level = outcome.next;
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
    }

    EpppSet { num_vars: n, pseudocubes: retained, stats }
}

/// Two-lane 128-bit mixing digest for the canonical union identity.
/// Deterministic across runs and threads; ~3 ops per lane per word with a
/// final avalanche on each lane. The arena below keys deduplication on
/// this digest *alone* (the same identity-by-fingerprint bargain rustc's
/// incremental queries make with their 128-bit fingerprints): a collision
/// between two distinct unions of one level — probability on the order of
/// `k²/2^129` for `k ≤ 2^19` distinct unions, i.e. < 2^-90 — would drop
/// one candidate pseudocube. Every emitted form is still verified against
/// the function, so even that astronomically unlikely event could only
/// cost minimality, never correctness.
#[derive(Clone, Copy)]
struct Digest128 {
    a: u64,
    b: u64,
}

impl Digest128 {
    fn new() -> Self {
        // First digits of pi, as in the Blowfish/ChaCha tradition of
        // nothing-up-my-sleeve constants.
        Digest128 { a: 0x243F_6A88_85A3_08D3, b: 0x1319_8A2E_0370_7344 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        self.b = (self.b ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(41);
    }

    fn finish(mut self) -> u128 {
        self.a ^= self.a >> 33;
        self.a = self.a.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        self.a ^= self.a >> 33;
        self.b ^= self.b >> 29;
        self.b = self.b.wrapping_mul(0x94D0_49BB_1331_11EB);
        self.b ^= self.b >> 32;
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Reusable per-worker scratch holding the canonical identity of one
/// union: its 128-bit digest, its literal count, and the ingredients
/// (`d`, new pivot `p`, canonical rep) to rebuild the reduced rows when
/// the union turns out to be new. `canonicalize` performs O(m) word
/// XOR/popcount/fold operations entirely in registers — no buffer writes,
/// no allocation.
pub(crate) struct UnionScratch {
    d: spp_gf2::Gf2Vec,
    p: usize,
    rep: spp_gf2::Gf2Vec,
    pub(crate) lit: u64,
    pub(crate) digest: u128,
}

impl Default for UnionScratch {
    fn default() -> Self {
        UnionScratch {
            d: spp_gf2::Gf2Vec::from_u64(0, 0),
            p: 0,
            rep: spp_gf2::Gf2Vec::from_u64(0, 0),
            lit: 0,
            digest: 0,
        }
    }
}

/// Folds the used words of `v` (those covering its length) into `dg`.
#[inline]
fn fold_words(dg: &mut Digest128, v: &spp_gf2::Gf2Vec, used_words: usize) {
    let words = v.as_words();
    for &w in &words[..used_words] {
        dg.word(w);
    }
}

impl UnionScratch {
    /// Computes the canonical identity of the union of two distinct
    /// pseudocubes sharing structure `dirs`, given their canonical coset
    /// representatives. The closed form (module docs): `d = rep_i ⊕
    /// rep_j` is the new basis row, its lowest set bit `p` the new pivot,
    /// the canonical rep is whichever input rep has bit `p` clear, and
    /// the canonical rows are `dirs`'s rows with `d` XORed into those
    /// that have bit `p` set, plus `d` at its sorted pivot position. The
    /// rows are folded into the digest and the literal count on the fly
    /// without being stored.
    pub(crate) fn canonicalize(
        &mut self,
        dirs: &EchelonBasis,
        rep_i: spp_gf2::Gf2Vec,
        rep_j: spp_gf2::Gf2Vec,
    ) {
        let d = rep_i ^ rep_j;
        let p = d.lowest_set_bit().expect("same-structure distinct pseudocubes unite");
        // Exactly one of the two reps has bit `p` set; the other is the
        // union's canonical representative (zeros at every new pivot).
        let rep = if rep_i.get(p) { rep_j } else { rep_i };
        let n = rep.len();
        let used_words = n.div_ceil(64);
        let mut dg = Digest128::new();
        dg.word(n as u64);
        // Literal count of the union: (n − m') + Σ over rows (ones − 1).
        let m1 = dirs.dim() as u64 + 1;
        let mut ones = u64::from(d.count_ones());
        let mut inserted = false;
        for (w, &q) in dirs.rows().iter().zip(dirs.pivots()) {
            if !inserted && p < q as usize {
                fold_words(&mut dg, &d, used_words);
                inserted = true;
            }
            // Clear the new pivot column in the existing rows. `d` is zero
            // at every old pivot (both reps are), so the old pivot columns
            // stay intact.
            let row = if w.get(p) { *w ^ d } else { *w };
            ones += u64::from(row.count_ones());
            fold_words(&mut dg, &row, used_words);
        }
        if !inserted {
            fold_words(&mut dg, &d, used_words);
        }
        fold_words(&mut dg, &rep, used_words);
        self.d = d;
        self.p = p;
        self.rep = rep;
        self.lit = (n as u64 - m1) + (ones - m1);
        self.digest = dg.finish();
    }

    /// Builds the union as a real [`Pseudocube`] through the trusted
    /// constructors (one basis-digest recompute, no re-reduction). Called
    /// once per *distinct* union; the canonical rows are rebuilt from
    /// `dirs` and the stored `d`/`p` exactly as `canonicalize` folded
    /// them.
    pub(crate) fn materialize(&self, dirs: &EchelonBasis) -> Pseudocube {
        let m = dirs.dim();
        let mut rows = Vec::with_capacity(m + 1);
        let mut pivots = Vec::with_capacity(m + 1);
        let mut inserted = false;
        for (w, &q) in dirs.rows().iter().zip(dirs.pivots()) {
            if !inserted && self.p < q as usize {
                rows.push(self.d);
                pivots.push(self.p as u16);
                inserted = true;
            }
            rows.push(if w.get(self.p) { *w ^ self.d } else { *w });
            pivots.push(q);
        }
        if !inserted {
            rows.push(self.d);
            pivots.push(self.p as u16);
        }
        let dirs = EchelonBasis::from_reduced_rows(self.rep.len(), rows, pivots);
        let pc = Pseudocube::from_canonical_parts(self.rep, dirs);
        debug_assert_eq!(pc.literal_count(), self.lit, "on-the-fly literal count agrees");
        pc
    }
}

/// Identity hasher for the arena's digest-keyed index: the keys are
/// already well-mixed [`Digest128`] values, re-hashing them buys nothing.
#[derive(Default)]
struct DigestIndexHasher(u64);

impl std::hash::Hasher for DigestIndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest keys hash via write_u128")
    }
    fn write_u128(&mut self, v: u128) {
        self.0 = v as u64;
    }
}

/// Deduplicating store for one level's distinct unions: a digest-keyed
/// index carrying each union's conforming verdict inline, plus the arena
/// of materialized pseudocubes (insertion order; re-sorted canonically
/// when the level is handed on). Replaces the former
/// `HashSet<Pseudocube>` — same distinct set, but a duplicate pair costs
/// one map probe instead of a basis clone, a rehash and a fresh
/// conforming evaluation, and the probe returns the cached verdict.
#[derive(Default)]
struct UnionArena {
    index:
        std::collections::HashMap<u128, bool, std::hash::BuildHasherDefault<DigestIndexHasher>>,
    slots: Vec<Pseudocube>,
}

impl UnionArena {
    /// The cached conforming verdict of the union `scratch` holds, if it
    /// was produced before.
    fn find(&self, scratch: &UnionScratch) -> Option<bool> {
        self.index.get(&scratch.digest).copied()
    }

    fn insert(&mut self, digest: u128, pc: Pseudocube, conforming: bool) {
        self.index.insert(digest, conforming);
        self.slots.push(pc);
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn into_pseudocubes(self) -> Vec<Pseudocube> {
        self.slots
    }
}

/// The result of one level's union sweep (see [`sweep_level`]).
pub(crate) struct SweepOutcome {
    /// The distinct unions built, in canonical (sorted) order.
    pub(crate) next: Vec<Pseudocube>,
    /// Per-index discard flags for the swept level.
    pub(crate) discarded: Vec<bool>,
    /// Structure comparisons performed / accounted.
    pub(crate) comparisons: u64,
    /// Structure groups found (0 for the quadratic baseline).
    pub(crate) groups: usize,
    /// Whether the sweep hit the union budget or the deadline.
    pub(crate) truncated: bool,
    /// Unions examined per worker (length = workers used).
    pub(crate) thread_unions: Vec<u64>,
}

/// Unites all same-structure pairs of `level`, producing the deduplicated
/// next level, discard flags, and counters. `union_cap` bounds the number
/// of distinct unions produced (exactly, at any thread count — see the
/// module docs); the context's deadline and cancellation flag are sampled
/// sparsely (every 64 outer iterations, never consuming a counted
/// checkpoint). Shared by the exact generator and the heuristic's
/// ascendant phase.
pub(crate) fn sweep_level(
    level: &[Pseudocube],
    grouping: Grouping,
    threads: usize,
    union_cap: usize,
    ctx: &RunCtx,
    conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
) -> SweepOutcome {
    if threads <= 1 || matches!(grouping, Grouping::Quadratic) {
        return sweep_level_sequential(level, grouping, union_cap, ctx, conforming);
    }

    let mut comparisons = 0u64;
    let groups = group_indices(level, grouping, &mut comparisons);
    let num_groups = groups.len();

    // Slice each group's outer-index range into units of roughly equal pair
    // count, then hand units to workers greedily (heaviest first, least
    // loaded worker first — deterministic for a given level and thread
    // count).
    let units = plan_units(&groups, threads * 4);
    let workers = threads.min(units.len()).max(1);
    if units.is_empty() {
        return SweepOutcome {
            next: Vec::new(),
            discarded: vec![false; level.len()],
            comparisons,
            groups: num_groups,
            truncated: false,
            thread_unions: vec![0; workers],
        };
    }
    let assignment = assign_units(units, workers);

    struct WorkerOut {
        discards: Vec<u32>,
        unions: u64,
        truncated: bool,
    }

    // Global dedup, sharded by the canonical union digest: each distinct
    // union belongs to exactly one shard, so `produced` counts distinct
    // unions exactly (the truncation decision matches the sequential run)
    // and no union is stored twice.
    let shards: Vec<std::sync::Mutex<UnionArena>> =
        (0..workers).map(|_| std::sync::Mutex::new(UnionArena::default())).collect();
    // Reps and literal counts are read per pair; snapshot them once so the
    // inner loop touches plain slices (a rep is two words).
    let reps: Vec<spp_gf2::Gf2Vec> = level.iter().map(Pseudocube::rep).collect();
    let lits: Vec<u64> = level.iter().map(Pseudocube::literal_count).collect();
    let stop = AtomicBool::new(false);
    let produced = AtomicUsize::new(0);
    // Workers run behind a panic-isolation boundary: a panicking worker
    // (a bug, or an injected `generate.worker`/`generate.shard` fault)
    // loses its own discards and counters, but every union it already
    // deduplicated survives in the shards, a possibly-poisoned shard lock
    // is recovered below, and the level is treated as truncated —
    // keep-everything, so the valid-cover guarantee holds.
    let outs = try_par_workers(workers, |w| {
        ctx.failpoint("generate.worker");
        let mut scratch = UnionScratch::default();
        let mut discards: Vec<u32> = Vec::new();
        let mut unions = 0u64;
        let mut ops = 0u64;
        let mut truncated = false;
        'units: for unit in &assignment[w] {
            let group = &groups[unit.group as usize];
            let dirs = level[group[0] as usize].structure();
            for a in unit.lo..unit.hi {
                ops += 1;
                if stop.load(Ordering::Relaxed)
                    || produced.load(Ordering::Relaxed) > union_cap
                    || (ops.is_multiple_of(64) && ctx.stop_reason().is_some())
                {
                    stop.store(true, Ordering::Relaxed);
                    truncated = true;
                    break 'units;
                }
                let i = group[a as usize] as usize;
                for &j in &group[a as usize + 1..] {
                    let j = j as usize;
                    scratch.canonicalize(dirs, reps[i], reps[j]);
                    unions += 1;
                    let shard_i = (scratch.digest as u64 % workers as u64) as usize;
                    let cached = {
                        let shard =
                            shards[shard_i].lock().unwrap_or_else(PoisonError::into_inner);
                        // Held-lock injection point: proves poison recovery.
                        ctx.failpoint("generate.shard");
                        shard.find(&scratch)
                    };
                    let lit = scratch.lit;
                    let conf = match cached {
                        Some(conf) => conf,
                        None => {
                            // First sighting: materialize and evaluate
                            // *outside* the lock (the conforming predicate
                            // can enumerate 2^{m+1} points), then insert
                            // double-checked — a racing worker computes
                            // identical verdicts, so whichever insert wins
                            // is indistinguishable.
                            let pc = scratch.materialize(dirs);
                            let conf = conforming(&pc);
                            let bytes = approx_pseudocube_bytes(&pc);
                            let mut shard =
                                shards[shard_i].lock().unwrap_or_else(PoisonError::into_inner);
                            if shard.find(&scratch).is_none() {
                                shard.insert(scratch.digest, pc, conf);
                                drop(shard);
                                produced.fetch_add(1, Ordering::Relaxed);
                                ctx.governor().charge(bytes);
                            }
                            conf
                        }
                    };
                    if conf {
                        if lit <= lits[i] {
                            discards.push(i as u32);
                        }
                        if lit <= lits[j] {
                            discards.push(j as u32);
                        }
                    }
                }
            }
        }
        WorkerOut { discards, unions, truncated }
    });

    let mut worker_panicked = false;
    let mut truncated = false;
    let mut discarded = vec![false; level.len()];
    let mut thread_unions = vec![0u64; workers];
    for (w, out) in outs.into_iter().enumerate() {
        match out {
            Ok(out) => {
                truncated |= out.truncated;
                thread_unions[w] = out.unions;
                for &i in &out.discards {
                    discarded[i as usize] = true;
                }
            }
            Err(p) => {
                worker_panicked = true;
                ctx.record_fault("generate.worker", &p.message);
            }
        }
    }
    truncated |= worker_panicked;
    let merged: Vec<Vec<Pseudocube>> = par_map(workers, shards, |shard| {
        shard.into_inner().unwrap_or_else(PoisonError::into_inner).into_pseudocubes()
    });
    let mut next: Vec<Pseudocube> = merged.into_iter().flatten().collect();
    next.sort_unstable();

    SweepOutcome { next, discarded, comparisons, groups: num_groups, truncated, thread_unions }
}

/// The single-threaded sweep — the pre-parallel code path, byte for byte
/// the behaviour `Parallelism::sequential()` promises.
fn sweep_level_sequential(
    level: &[Pseudocube],
    grouping: Grouping,
    union_cap: usize,
    ctx: &RunCtx,
    conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
) -> SweepOutcome {
    let mut discarded = vec![false; level.len()];
    let mut arena = UnionArena::default();
    let mut scratch = UnionScratch::default();
    let lits: Vec<u64> = level.iter().map(Pseudocube::literal_count).collect();
    let mut comparisons = 0u64;
    let mut unions = 0u64;
    let mut truncated = false;

    let mut ops = 0u64;
    let over = |arena_len: usize, ops: &mut u64| {
        *ops += 1;
        arena_len > union_cap || ((*ops).is_multiple_of(64) && ctx.stop_reason().is_some())
    };
    let lits_ref = &lits;
    let mut unite = |i: usize,
                     j: usize,
                     arena: &mut UnionArena,
                     scratch: &mut UnionScratch,
                     discarded: &mut [bool]| {
        let dirs = level[i].structure();
        scratch.canonicalize(dirs, level[i].rep(), level[j].rep());
        let lit = scratch.lit;
        let conf = match arena.find(scratch) {
            Some(conf) => conf,
            None => {
                let pc = scratch.materialize(dirs);
                let conf = conforming(&pc);
                ctx.governor().charge(approx_pseudocube_bytes(&pc));
                arena.insert(scratch.digest, pc, conf);
                conf
            }
        };
        // Only a union the family can actually use may discard its halves;
        // otherwise e.g. 2-SPP would lose conforming pseudocubes to wide
        // ones.
        if conf {
            if lit <= lits_ref[i] {
                discarded[i] = true;
            }
            if lit <= lits_ref[j] {
                discarded[j] = true;
            }
        }
        unions += 1;
    };

    let num_groups;
    match grouping {
        Grouping::Quadratic => {
            // The [5] baseline: every pair of pseudocubes is compared for
            // structure equality — |X|(|X|−1)/2 comparisons — and unifiable
            // pairs are united. The inner scan is batched through the
            // vectorized `positions_eq` kernel over the cached structure
            // hashes; candidates it surfaces are confirmed with the full
            // structure comparison (hash collisions unite nothing). Both
            // the unite order and the per-row comparison accounting are
            // exactly the scalar loop's.
            num_groups = 0;
            let hashes: Vec<u64> =
                level.iter().map(|p| p.structure().structure_hash()).collect();
            let mut matches: Vec<u32> = Vec::new();
            'pairs: for i in 0..level.len() {
                if over(arena.len(), &mut ops) {
                    truncated = true;
                    break 'pairs;
                }
                comparisons += (level.len() - 1 - i) as u64;
                matches.clear();
                spp_kernels::positions_eq(hashes[i], &hashes[i + 1..], &mut matches);
                for &off in &matches {
                    let j = i + 1 + off as usize;
                    if level[i].structure() == level[j].structure() {
                        unite(i, j, &mut arena, &mut scratch, &mut discarded);
                    }
                }
            }
        }
        Grouping::PartitionTrie | Grouping::HashMap => {
            let groups = group_indices(level, grouping, &mut comparisons);
            num_groups = groups.len();
            'unions: for group in groups {
                for (a, &i) in group.iter().enumerate() {
                    // A single structure group can hold thousands of cosets
                    // (quadratically many unions).
                    if over(arena.len(), &mut ops) {
                        truncated = true;
                        break 'unions;
                    }
                    for &j in &group[a + 1..] {
                        unite(i as usize, j as usize, &mut arena, &mut scratch, &mut discarded);
                    }
                }
            }
        }
    }

    let mut next: Vec<Pseudocube> = arena.into_pseudocubes();
    next.sort_unstable();
    SweepOutcome {
        next,
        discarded,
        comparisons,
        groups: num_groups,
        truncated,
        thread_unions: vec![unions],
    }
}

/// A contiguous outer-index slice of one structure group: the sweep work
/// unit. Unit `(g, lo..hi)` unites `group[a]` with every later member, for
/// each `a` in `lo..hi`.
struct Unit {
    group: u32,
    lo: u32,
    hi: u32,
    weight: u64,
}

/// Slices groups into units of roughly `total_pairs / target_units` pairs
/// each, in deterministic (group, offset) order.
fn plan_units(groups: &[Vec<u32>], target_units: usize) -> Vec<Unit> {
    let total: u64 = groups.iter().map(|g| pairs(g.len())).sum();
    let target = (total / target_units.max(1) as u64).max(1);
    let mut units = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let len = group.len() as u64;
        if len < 2 {
            continue;
        }
        let mut lo = 0u64;
        let mut acc = 0u64;
        // Outer index `a` contributes `len - 1 - a` pairs.
        for a in 0..len - 1 {
            acc += len - 1 - a;
            if acc >= target {
                units.push(Unit { group: gi as u32, lo: lo as u32, hi: (a + 1) as u32, weight: acc });
                lo = a + 1;
                acc = 0;
            }
        }
        if lo < len - 1 {
            units.push(Unit { group: gi as u32, lo: lo as u32, hi: (len - 1) as u32, weight: acc });
        }
    }
    units
}

/// Greedy static load balance: heaviest unit to the least-loaded worker.
/// Ties break on (group, lo) and worker index, so the assignment — and
/// with it the per-thread union counters — is deterministic.
fn assign_units(mut units: Vec<Unit>, workers: usize) -> Vec<Vec<Unit>> {
    units.sort_by(|a, b| {
        b.weight.cmp(&a.weight).then(a.group.cmp(&b.group)).then(a.lo.cmp(&b.lo))
    });
    let mut load = vec![0u64; workers];
    let mut assignment: Vec<Vec<Unit>> = (0..workers).map(|_| Vec::new()).collect();
    for unit in units {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).expect("at least one worker");
        load[w] += unit.weight.max(1);
        assignment[w].push(unit);
    }
    assignment
}

/// Groups level indices by structure according to the chosen strategy,
/// also accounting the number of *comparisons* the strategy performs:
/// the quadratic baseline pays one structure comparison per pair of
/// pseudocubes, while the trie/hash strategies only ever touch unifiable
/// pairs (the paper's "minimum number of comparisons"). Counting from
/// group sizes up front keeps the comparison totals independent of the
/// thread count, truncated or not.
fn group_indices(level: &[Pseudocube], grouping: Grouping, comparisons: &mut u64) -> Vec<Vec<u32>> {
    match grouping {
        Grouping::PartitionTrie => {
            let n = level.first().map_or(0, Pseudocube::num_vars);
            let mut trie = PartitionTrie::new(n);
            for (i, pc) in level.iter().enumerate() {
                trie.insert(pc, i as u32);
            }
            let groups: Vec<Vec<u32>> = trie
                .groups()
                .map(|leaves| leaves.iter().map(|l| l.payload).collect())
                .collect();
            for g in &groups {
                *comparisons += pairs(g.len());
            }
            groups
        }
        Grouping::HashMap => {
            let mut map: std::collections::HashMap<&EchelonBasis, Vec<u32>> =
                std::collections::HashMap::new();
            for (i, pc) in level.iter().enumerate() {
                map.entry(pc.structure()).or_default().push(i as u32);
            }
            let groups: Vec<Vec<u32>> = map.into_values().collect();
            for g in &groups {
                *comparisons += pairs(g.len());
            }
            groups
        }
        Grouping::Quadratic => {
            unreachable!("the quadratic baseline runs its own all-pairs loop")
        }
    }
}

fn pairs(len: usize) -> u64 {
    (len as u64) * (len as u64).saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn generate(f: &BoolFn, g: Grouping, limits: &GenLimits) -> EpppSet {
        generate_eppp_session(f, g, limits, &|_| true, &RunCtx::default())
    }

    fn eppp_of(f: &BoolFn, g: Grouping) -> EpppSet {
        generate(f, g, &GenLimits::default())
    }

    fn eppp_threads(f: &BoolFn, g: Grouping, threads: usize) -> EpppSet {
        let limits = GenLimits::default().with_parallelism(Parallelism::fixed(threads));
        generate(f, g, &limits)
    }

    #[test]
    fn paper_intro_example_finds_the_exor_form() {
        // x1x2x̄4 + x̄1x2x4 (renamed): the ascent finds x2·(x1⊕x4).
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
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
            eppp_of(&f, Grouping::PartitionTrie).pseudocubes.into_iter().collect();
        let hash: HashSet<_> = eppp_of(&f, Grouping::HashMap).pseudocubes.into_iter().collect();
        let quad: HashSet<_> = eppp_of(&f, Grouping::Quadratic).pseudocubes.into_iter().collect();
        assert_eq!(trie, hash);
        assert_eq!(trie, quad);
    }

    #[test]
    fn all_groupings_agree_at_any_thread_count() {
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]);
        let sequential = eppp_threads(&f, Grouping::PartitionTrie, 1);
        for threads in [2usize, 3, 8] {
            for grouping in [Grouping::PartitionTrie, Grouping::HashMap] {
                let par = eppp_threads(&f, grouping, threads);
                // Bit-identical: same pseudocubes in the same order.
                assert_eq!(par.pseudocubes, sequential.pseudocubes);
                assert_eq!(par.stats.comparisons, sequential.stats.comparisons);
                assert_eq!(par.stats.total_generated, sequential.stats.total_generated);
            }
        }
    }

    #[test]
    fn parity_collapses_to_single_pseudocube() {
        // Odd parity on 4 variables is one affine subspace: x0⊕x1⊕x2⊕x3 = 1.
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
        let best = eppp.pseudocubes.iter().min_by_key(|p| p.literal_count()).unwrap();
        assert_eq!(best.degree(), 3);
        assert_eq!(best.literal_count(), 4); // the single factor (x0⊕x1⊕x2⊕x3)
        // It is the only EPPP: everything below it is discarded.
        assert_eq!(eppp.pseudocubes.len(), 1);
    }

    #[test]
    fn comparison_counts_favor_grouping() {
        let f = BoolFn::from_indices(4, &[0, 1, 2, 4, 7, 8, 11, 13, 14]);
        let trie = eppp_of(&f, Grouping::PartitionTrie);
        let quad = eppp_of(&f, Grouping::Quadratic);
        // Same sets generated...
        assert_eq!(trie.stats.total_generated, quad.stats.total_generated);
        // ...but the trie performs no wasted comparisons: each one is a
        // union actually built (paper §3.3).
        assert!(trie.stats.comparisons < quad.stats.comparisons);
    }

    #[test]
    fn every_on_point_is_covered_by_the_retained_set() {
        let f = BoolFn::from_indices(5, &[0, 1, 4, 9, 16, 21, 27, 30, 31]);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
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
        let eppp = generate(&f, Grouping::PartitionTrie, &limits);
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
            let eppp = generate(&f, Grouping::PartitionTrie, &limits);
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
        let eppp = generate(&f, Grouping::PartitionTrie, &limits);
        assert!(eppp.stats.truncated);
        assert_eq!(eppp.stats.outcome, Outcome::DeadlineExceeded);
        for pt in f.on_set() {
            assert!(eppp.pseudocubes.iter().any(|p| p.contains(pt)));
        }
    }

    #[test]
    fn stats_level_zero_counts_points() {
        let f = BoolFn::from_indices(3, &[1, 2, 4, 7]);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
        assert_eq!(eppp.stats.levels[0].degree, 0);
        assert_eq!(eppp.stats.levels[0].size, 4);
        // Degree-0: all points share the empty structure → one group.
        assert_eq!(eppp.stats.levels[0].groups, 1);
        assert_eq!(eppp.stats.levels[0].comparisons, 6);
    }

    #[test]
    fn thread_union_counters_total_the_sweep_work() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let sequential = eppp_threads(&f, Grouping::PartitionTrie, 1);
        assert_eq!(sequential.stats.thread_unions.len(), 1);
        let par = eppp_threads(&f, Grouping::PartitionTrie, 4);
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
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
        assert!(!eppp.stats.levels.is_empty());
        // Wall times are bounded (possibly sub-microsecond) for every level.
        assert!(eppp.stats.levels.iter().all(|l| l.wall < std::time::Duration::from_secs(60)));
    }

    #[test]
    fn stats_display_is_a_table() {
        let f = BoolFn::from_indices(3, &[1, 2, 4, 7]);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
        let s = eppp.stats.to_string();
        assert!(s.contains("deg"));
        assert!(s.contains("total generated"));
        assert!(!s.contains("truncated"));
    }

    #[test]
    fn empty_function_generates_nothing() {
        let f = BoolFn::from_indices(4, &[]);
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
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
        let eppp = eppp_of(&f, Grouping::PartitionTrie);
        let best = eppp.pseudocubes.iter().map(Pseudocube::literal_count).min().unwrap();
        assert_eq!(best, 2);
    }

    #[test]
    fn unit_planning_covers_every_pair_exactly_once() {
        // One big group of 9 and one pair group.
        let groups = vec![(0u32..9).collect::<Vec<u32>>(), vec![9, 10]];
        let units = plan_units(&groups, 5);
        let mut covered = std::collections::HashSet::new();
        for unit in &units {
            let group = &groups[unit.group as usize];
            for a in unit.lo..unit.hi {
                for &j in &group[a as usize + 1..] {
                    assert!(covered.insert((group[a as usize], j)), "pair duplicated");
                }
            }
        }
        let expected: u64 = groups.iter().map(|g| pairs(g.len())).sum();
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
                generate_eppp_session(&f, Grouping::PartitionTrie, &limits, &|_| true, &ctx)
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
        let eppp = generate_eppp_session(
            &f,
            Grouping::PartitionTrie,
            &GenLimits::default(),
            &|_| true,
            &ctx,
        );
        // Every fully swept level reports start and finish.
        let swept = eppp.stats.levels.len();
        assert_eq!(spy.started.load(Ordering::Relaxed), swept);
        assert_eq!(spy.finished.load(Ordering::Relaxed), swept);
    }

    #[test]
    fn unit_assignment_is_deterministic_and_complete() {
        let groups = vec![(0u32..20).collect::<Vec<u32>>()];
        let units = || plan_units(&groups, 8);
        let a = assign_units(units(), 3);
        let b = assign_units(units(), 3);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.len(), wb.len());
            for (ua, ub) in wa.iter().zip(wb) {
                assert_eq!((ua.group, ua.lo, ua.hi), (ub.group, ub.lo, ub.hi));
            }
        }
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, units().len());
    }
}
