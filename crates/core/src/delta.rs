//! Delta-aware incremental generation: splicing a sibling function's
//! cached level snapshot instead of regenerating from scratch.
//!
//! Service-style minimization traffic is dominated by *edits*: the same
//! function resubmitted with a handful of minterms flipped. Cold
//! generation rebuilds every level of the union lattice; this module
//! rebuilds only the part the edit touched, with a proof-shaped argument
//! that the result is **bit-identical** to a cold run.
//!
//! # Why splicing is sound
//!
//! On the exact rung (conforming predicate identically true, the only
//! configuration this module serves) a non-truncated level `m` is exactly
//! the set of all dimension-`m` affine subspaces of `V = ON ∪ DC`: the
//! union of two parallel same-structure pseudocubes is *precisely* their
//! point-set union (`span(W ∪ {d}) = span(W) ∪ (d + span(W))`), so the
//! level-by-level closure enumerates every subspace of `V` and nothing
//! else. Let the edit be `A = ON' \ ON` (added minterms) and
//! `R = ON \ ON'` (removed), with identical DC sets; then
//! `V' = (V \ R) ∪ A` and `A ∩ V = ∅` (an added point in `V` would have
//! to be a don't-care, contradicting ON′/DC disjointness). Every
//! dimension-`m` subspace of `V'` either
//!
//! - avoids `A` — then it lies inside `V`, is a complete old level-`m`
//!   member, and survives iff it also avoids `R` (**kept**), or
//! - contains a point `a ∈ A` — then splitting along any basis direction
//!   leaves the half through `a` as a dimension-`m−1` subspace of `V'`
//!   containing `a` (**new** by induction), so the subspace arises as a
//!   union of a new member with a kept-or-new member.
//!
//! So the spliced level `kept_m ∪ N_m` (with `N_0 = A` as points and
//! `N_{m+1}` the deduplicated same-structure unions of pairs touching
//! `N_m`) *is* the cold level, and the two parts are disjoint (new
//! members contain an `A`-point, kept members cannot).
//!
//! Discard flags are maintained, not recomputed: a kept member's flag
//! can only have been witnessed by a same-structure partner, so flags in
//! groups that lost no member are carried over verbatim, flags in lossy
//! groups are re-derived against the surviving partners, and the new
//! sweep ORs additional flags onto both halves of every union it builds
//! — together ranging over exactly the cold sweep's witness set.
//!
//! # Why splicing is trusted
//!
//! The math above is re-checked at run time ([`splice`] §verify): every
//! *new* member is point-enumerated against `V'` (kept members lie
//! inside the trusted snapshot and were filtered against every removed
//! minterm, so `kept ⊆ V_old \ R ⊆ V'` holds by construction — this is
//! what keeps splice cost proportional to the edit, not the function),
//! the retained set is checked to cover `ON'`, and every new member must
//! sit strictly between its neighbours (the kept subsequence keeps the
//! trusted snapshot's strict order, so the levels stay canonically
//! sorted). Any failure — including one injected through
//! the `delta.splice` failpoint, which always enters as a new member —
//! returns an error and the caller falls back to cold generation, so a
//! delta answer is never weaker than a cold one.

use spp_boolfn::BoolFn;
use spp_gf2::{EchelonBasis, Gf2Vec};
use spp_obs::RunCtx;

use crate::generate::{Group, Level, Run, UnionKey, UnionScratch};
use crate::{EpppSet, GenStats, Pseudocube};

/// Widest function eligible for level capture and delta reuse. Dense
/// `2^n`-bit point bitmaps stay ≤ 8 KiB per set and point enumeration
/// stays cheap.
pub(crate) const DELTA_MAX_VARS: usize = 16;

/// Total members across all captured levels before a snapshot is dropped
/// as too large to be worth storing. Sized so the hardest bench outputs
/// (root(1): ~107k members, life(0): ~57k) stay delta-eligible; the
/// cache's byte budget still governs what is actually retained.
pub(crate) const DELTA_CAPTURE_CAP: usize = 262_144;

/// Largest ON-set Hamming distance a sibling may be at. Beyond a few
/// flipped minterms the incremental frontier stops being small and cold
/// generation wins anyway.
pub(crate) const DELTA_MAX_DISTANCE: usize = 8;

/// Work budget for one splice (pair canonicalizations, membership probes
/// and verification point enumerations all count). Exceeding it rejects
/// the splice — the point of a delta is to be much cheaper than cold.
const BUDGET: u64 = 4_000_000;

/// A cached generation snapshot: the function's dense point bitmaps plus
/// every level of its (non-truncated, exact-rung) union sweep with the
/// discard flags. This is what [`EntryKind::Levels`] entries decode to.
///
/// [`EntryKind::Levels`]: spp_cache::EntryKind::Levels
#[derive(Clone, Debug)]
pub(crate) struct GenLevels {
    pub(crate) num_vars: usize,
    /// Dense ON-set bitmap, one bit per point of `{0,1}^num_vars`.
    pub(crate) on_words: Vec<u64>,
    /// Dense DC-set bitmap in the same layout.
    pub(crate) dc_words: Vec<u64>,
    /// `(members, discard flags)` per degree, in degree order; each level
    /// is held grouped, in canonical order, exactly as the sweep handed it
    /// on.
    pub(crate) levels: Vec<(Level, Vec<bool>)>,
}

/// The result of a successful [`splice`].
pub(crate) struct DeltaOutcome {
    /// The spliced EPPP set — bit-identical to a cold exact generation.
    pub(crate) eppp: EpppSet,
    /// The new function's own level snapshot, ready to cache.
    pub(crate) levels: Vec<(Level, Vec<bool>)>,
    /// ON-set Hamming distance of the edit.
    pub(crate) distance: usize,
    /// Cached members dropped because they touched removed minterms.
    pub(crate) dropped: usize,
    /// New members generated by the incremental sweep.
    pub(crate) spliced: usize,
}

/// Number of `u64` words in a dense `2^n`-point bitmap.
pub(crate) fn bitmap_words(num_vars: usize) -> usize {
    (1usize << num_vars).div_ceil(64)
}

/// Dense `(ON, DC)` point bitmaps of `f`, or `None` when the function is
/// too wide for the delta machinery.
pub(crate) fn dense_bitmaps(f: &BoolFn) -> Option<(Vec<u64>, Vec<u64>)> {
    let n = f.num_vars();
    if n == 0 || n > DELTA_MAX_VARS {
        return None;
    }
    let words = bitmap_words(n);
    let mut on = vec![0u64; words];
    let mut dc = vec![0u64; words];
    for p in f.on_set() {
        let i = point_index(p);
        on[i / 64] |= 1u64 << (i % 64);
    }
    for p in f.dc_set() {
        let i = point_index(p);
        dc[i / 64] |= 1u64 << (i % 64);
    }
    Some((on, dc))
}

#[inline]
fn point_index(p: &Gf2Vec) -> usize {
    // Eligible functions have ≤ 16 variables, so a point fits the first
    // word.
    p.as_words()[0] as usize
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

struct Budget {
    ops: u64,
}

impl Budget {
    fn charge(&mut self, ops: u64) -> Result<(), &'static str> {
        self.ops = self.ops.saturating_add(ops);
        if self.ops > BUDGET {
            return Err("budget");
        }
        Ok(())
    }
}

/// Splices `old`'s cached levels into the EPPP set of `f`.
///
/// `old` must snapshot a function with the same variable count and an
/// identical DC set, within [`DELTA_MAX_DISTANCE`] in ON-set Hamming
/// distance — the caller's sibling search guarantees candidates, but
/// everything is re-derived from the snapshot itself here. On any
/// irregularity the splice is rejected with a static reason string and
/// the caller falls back to cold generation.
pub(crate) fn splice(
    f: &BoolFn,
    old: GenLevels,
    ctx: &RunCtx,
) -> Result<DeltaOutcome, &'static str> {
    // Counted like any other fault-injection site; the armed checks below
    // additionally let tests corrupt the splice itself.
    ctx.failpoint("delta.splice");

    let n = f.num_vars();
    if n != old.num_vars || n == 0 || n > DELTA_MAX_VARS {
        return Err("shape");
    }
    let words = bitmap_words(n);
    let Some((on, dc)) = dense_bitmaps(f) else { return Err("shape") };
    if old.on_words.len() != words || old.dc_words.len() != words || dc != old.dc_words {
        return Err("dc-mismatch");
    }

    // The edit: added points A = ON' \ ON_old, removed points
    // R = ON_old \ ON'.
    let mut added: Vec<Gf2Vec> = Vec::new();
    let mut removed: Vec<Gf2Vec> = Vec::new();
    for i in 0..(1usize << n) {
        let now = bit(&on, i);
        let was = bit(&old.on_words, i);
        if now != was {
            let p = Gf2Vec::from_u64(n, i as u64);
            if now {
                added.push(p);
            } else {
                removed.push(p);
            }
        }
    }
    let distance = added.len() + removed.len();
    if distance == 0 || distance > DELTA_MAX_DISTANCE {
        return Err("distance");
    }
    // V' = ON' ∪ DC as a bitmap, for verification and the subset checks.
    let v_new: Vec<u64> = on.iter().zip(&dc).map(|(a, b)| a | b).collect();

    let mut budget = Budget { ops: 0 };
    let mut scratch = UnionScratch::default();

    // Seed frontier: the added points, as the degree-0 level they form.
    let mut frontier = Level::points(n, added);

    #[cfg(feature = "failpoints")]
    if spp_obs::failpoints::armed("delta.splice") {
        // Corrupt the splice: inject a point pseudocube *outside* V', so
        // the verification pass below must catch it. (Skip the injection
        // for total functions — no outside point exists.)
        if let Some(i) = (0..(1usize << n)).find(|&i| !bit(&v_new, i)) {
            let outside = Gf2Vec::from_u64(n, i as u64);
            let points = frontier.reps().iter().copied().chain([outside]).collect();
            frontier = Level::points(n, points);
        }
    }

    let mut dropped_total = 0usize;
    let mut spliced_total = 0usize;
    // Per degree: the merged level, its discard flags, and the sorted
    // positions of the *new* (frontier-born) members — everything after
    // the merge works off those positions instead of tagging each member.
    let mut out_members: Vec<(Level, Vec<bool>, Vec<usize>)> = Vec::new();
    let mut old_levels = old.levels.into_iter();

    let mut degree = 0usize;
    loop {
        if degree > n {
            return Err("runaway");
        }

        // --- Keep the old members that avoid every removed minterm. ---
        // The snapshot is consumed by value: a pure add edit (no removed
        // minterms) moves whole levels without touching a single member.
        let (mut level, mut flags, lossy) = match old_levels.next() {
            None => (Level::default(), Vec::new(), Vec::new()),
            Some((members, flags)) => {
                if members.len() != flags.len() {
                    return Err("shape");
                }
                if removed.is_empty() {
                    (members, flags, Vec::new())
                } else {
                    budget.charge((members.len() * (removed.len() + 1)) as u64)?;
                    let kept = members.without(&flags, &removed);
                    dropped_total += members.len() - kept.0.len();
                    kept
                }
            }
        };

        // --- Re-derive flags whose witness may have been dropped. ---
        // A discard flag's witness is always a same-structure partner, so
        // only flags in runs that lost a member can go stale; they are
        // recomputed against the run's surviving members.
        for &r in &lossy {
            let run = &level.runs()[r];
            budget.charge((run.len() * run.len()) as u64)?;
            let g = Group::of(&level, r);
            for i in run.members() {
                if !flags[i] {
                    continue; // a false flag has no witness to lose
                }
                flags[i] = run.members().any(|j| {
                    if j == i {
                        return false;
                    }
                    scratch.split(level.reps()[i], level.reps()[j]);
                    scratch.count_literals(&g);
                    scratch.lit <= g.lit
                });
            }
        }

        // --- Merge kept and new members into the level (sorted). ---
        let new_pos = level.merge(&mut flags, std::mem::take(&mut frontier));
        if level.is_empty() {
            break;
        }

        // --- Sweep: unions of pairs touching a new member. ---
        // Flags OR onto both halves (a union with no more literals than a
        // half discards it, exactly the cold rule with the conforming
        // predicate identically true). The spliced level is complete,
        // hence closed, so each union is built at its canonical pair
        // only (see the `generate` module), and every new union's
        // canonical pair touches a new member: of its two halves, the one
        // holding its added point is new. Only the runs holding a new
        // member are visited, so a large untouched level costs nothing to
        // sweep past.
        let mut keys: Vec<UnionKey> = Vec::new();
        let mut is_new: Vec<bool> = Vec::new();
        let (mut at, mut r) = (0usize, 0usize);
        while at < new_pos.len() {
            r = run_of(level.runs(), r, new_pos[at]);
            let run = &level.runs()[r];
            let news_end = at + new_pos[at..].partition_point(|&p| p < run.hi as usize);
            let news = &new_pos[at..news_end];
            at = news_end;
            budget.charge((run.len() * news.len()) as u64)?;
            is_new.clear();
            is_new.resize(run.len(), false);
            for &i in news {
                is_new[i - run.lo as usize] = true;
            }
            let g = Group::of(&level, r);
            for &i in news {
                for j in run.members() {
                    // Each new-new pair once, from its later new member.
                    if j == i || (j < i && is_new[j - run.lo as usize]) {
                        continue;
                    }
                    let (lo, hi) = (i.min(j), i.max(j));
                    scratch.split(level.reps()[lo], level.reps()[hi]);
                    if g.is_canonical(scratch.p) {
                        keys.push(UnionKey::new(g.lo, scratch.d, lo as u32));
                    } else if flags[lo] && flags[hi] {
                        continue;
                    }
                    scratch.count_literals(&g);
                    if scratch.lit <= g.lit {
                        flags[lo] = true;
                        flags[hi] = true;
                    }
                }
            }
        }
        // The runs were visited in order, so the keys arrive in the group
        // order `Level::from_keys` takes.
        let next = Level::from_keys(&level, keys);
        spliced_total += next.len();
        frontier = next;

        // --- Snapshot; retention happens after verification. ---
        out_members.push((level, flags, new_pos));
        degree += 1;
    }

    // --- Verify-on-splice. ---
    // (1) Every *new* member lies inside V', by point enumeration. Kept
    //     members need no enumeration: they come from the trusted
    //     snapshot (the generator's own levels on a cold capture, this
    //     verifier's output on a delta one), so they lie inside V_old,
    //     and the filter above proved they avoid every removed minterm —
    //     hence ⊆ (V_old \ R) ⊆ V'. An injected corruption enters
    //     through the frontier, so it is always a new member and always
    //     enumerated here.
    // (2) The retained set covers every ON' minterm.
    // (3) Every new member sits strictly between its neighbours, so each
    //     level stays in strict canonical order (the kept subsequence
    //     keeps the trusted snapshot's order — filtering preserves it).
    //     A member's structure is its run's: within a run the reps must
    //     increase, across a run boundary the structures.
    #[cfg(feature = "failpoints")]
    if spp_obs::failpoints::armed("delta.verify") {
        return Err("verify");
    }
    let mut span: Vec<usize> = Vec::new();
    for (level, _, new_pos) in &out_members {
        let (mut r, mut spanned) = (0usize, usize::MAX);
        for &p in new_pos {
            r = run_of(level.runs(), r, p);
            let run = &level.runs()[r];
            let after_prev = if p > run.lo as usize {
                level.reps()[p - 1] < level.reps()[p]
            } else {
                r == 0 || level.runs()[r - 1].dirs < run.dirs
            };
            let before_next = if p + 1 < run.hi as usize {
                level.reps()[p] < level.reps()[p + 1]
            } else {
                r + 1 == level.runs().len() || run.dirs < level.runs()[r + 1].dirs
            };
            if !after_prev || !before_next {
                return Err("verify");
            }
            if spanned != r {
                span_indices(&run.dirs, &mut span);
                spanned = r;
            }
            budget.charge(span.len() as u64)?;
            let base = point_index(&level.reps()[p]);
            if span.iter().any(|&o| !bit(&v_new, base ^ o)) {
                return Err("verify");
            }
        }
    }
    let retained = out_members.iter().map(|(_, flags, _)| flags.iter().filter(|&&f| !f).count());
    let mut eppp: Vec<Pseudocube> = Vec::with_capacity(retained.sum());
    let mut covered = vec![0u64; words];
    let mut out_levels: Vec<(Level, Vec<bool>)> = Vec::with_capacity(out_members.len());
    for (level, flags, _) in out_members {
        for run in level.runs() {
            if run.members().all(|i| flags[i]) {
                continue;
            }
            span_indices(&run.dirs, &mut span);
            for i in run.members().filter(|&i| !flags[i]) {
                budget.charge(span.len() as u64)?;
                let base = point_index(&level.reps()[i]);
                for &o in &span {
                    covered[(base ^ o) / 64] |= 1u64 << ((base ^ o) % 64);
                }
                eppp.push(Pseudocube::from_canonical_parts(level.reps()[i], run.dirs.clone()));
            }
        }
        out_levels.push((level, flags));
    }
    if on.iter().zip(&covered).any(|(o, c)| o & !c != 0) {
        return Err("verify");
    }

    let eppp = EpppSet {
        num_vars: n,
        pseudocubes: eppp,
        // The precedent of cached EPPP hits: a reused set carries default
        // (empty, completed, non-truncated) generation stats.
        stats: GenStats::default(),
    };
    Ok(DeltaOutcome {
        eppp,
        levels: out_levels,
        distance,
        dropped: dropped_total,
        spliced: spliced_total,
    })
}

/// The run at or after `r` that holds member `p`, for members visited in
/// increasing order.
fn run_of(runs: &[Run], mut r: usize, p: usize) -> usize {
    while runs[r].hi as usize <= p {
        r += 1;
    }
    r
}

/// The point indices of the span of `dirs` (eligible functions have ≤ 16
/// variables, so a point fits the first word): the offsets that, XORed
/// onto a member's rep, enumerate its points.
fn span_indices(dirs: &EchelonBasis, span: &mut Vec<usize>) {
    span.clear();
    span.push(0);
    for row in dirs.rows() {
        let r = point_index(row);
        for t in 0..span.len() {
            span.push(span[t] ^ r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_eppp_session_capture, LevelCapture};
    use crate::GenLimits;

    type Levels = Vec<(Level, Vec<bool>)>;

    /// Cold exact generation of `f` with its level snapshot.
    fn cold(f: &BoolFn) -> (EpppSet, Levels) {
        let mut capture = LevelCapture::new(DELTA_CAPTURE_CAP);
        let set = generate_eppp_session_capture(
            f,
            false,
            &GenLimits::default(),
            None,
            &RunCtx::default(),
            Some(&mut capture),
        );
        assert!(!set.stats.truncated && !capture.overflowed);
        (set, capture.levels)
    }

    /// Per-degree comparison counts of a snapshot: one per same-structure
    /// pair, as the cold sweep accounts them.
    fn comparisons(levels: &Levels) -> Vec<u64> {
        levels
            .iter()
            .map(|(level, _)| {
                level.runs().iter().map(|run| (run.len() * (run.len() - 1) / 2) as u64).sum()
            })
            .collect()
    }

    /// A deterministic splitmix64 stream for picking points.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A function of `n` variables with about `on_pct` % ON points and
    /// `dc_pct` % don't-cares.
    fn random_fn(n: usize, on_pct: u64, dc_pct: u64, rng: &mut Rng) -> BoolFn {
        let (mut on, mut dc) = (Vec::new(), Vec::new());
        for x in 0..1u64 << n {
            let roll = rng.below(100);
            if roll < on_pct {
                on.push(Gf2Vec::from_u64(n, x));
            } else if roll < on_pct + dc_pct {
                dc.push(Gf2Vec::from_u64(n, x));
            }
        }
        BoolFn::with_dont_cares(n, on, dc)
    }

    /// `f` with `add` OFF points turned ON and `remove` ON points turned
    /// OFF (the DC set is unchanged).
    fn edit(f: &BoolFn, add: usize, remove: usize, rng: &mut Rng) -> BoolFn {
        let n = f.num_vars();
        let mut on = f.on_set().to_vec();
        let mut off: Vec<Gf2Vec> = (0..1u64 << n)
            .map(|x| Gf2Vec::from_u64(n, x))
            .filter(|p| !on.contains(p) && !f.dc_set().contains(p))
            .collect();
        for _ in 0..remove {
            on.swap_remove(rng.below(on.len() as u64) as usize);
        }
        for _ in 0..add {
            on.push(off.swap_remove(rng.below(off.len() as u64) as usize));
        }
        BoolFn::with_dont_cares(n, on, f.dc_set().to_vec())
    }

    #[test]
    fn splices_are_bit_identical_to_cold_generation() {
        let mut rng = Rng(1);
        // (variables, ON %, DC %)
        let shapes = [(5, 50, 0), (6, 45, 10), (7, 40, 0), (8, 25, 8)];
        // (added, removed): distances 1–8, add-only, remove-only, mixed.
        let edits = [(1, 0), (0, 1), (1, 1), (3, 0), (0, 4), (2, 3), (4, 4), (8, 0), (0, 8)];
        for (n, on_pct, dc_pct) in shapes {
            let f = random_fn(n, on_pct, dc_pct, &mut rng);
            let (_, old_levels) = cold(&f);
            let (on_words, dc_words) = dense_bitmaps(&f).expect("narrow function");
            for (add, remove) in edits {
                let g = edit(&f, add, remove, &mut rng);
                let what = format!("n={n} +{add} -{remove}");
                let old = GenLevels {
                    num_vars: n,
                    on_words: on_words.clone(),
                    dc_words: dc_words.clone(),
                    levels: old_levels.clone(),
                };
                let out = splice(&g, old, &RunCtx::default()).expect(&what);
                assert_eq!(out.distance, add + remove, "{what}");
                let (cold_set, cold_levels) = cold(&g);
                assert_eq!(out.eppp.pseudocubes, cold_set.pseudocubes, "{what}");
                let sizes: Vec<usize> = out.levels.iter().map(|(m, _)| m.len()).collect();
                let cold_sizes: Vec<usize> = cold_set.stats.levels.iter().map(|l| l.size).collect();
                assert_eq!(sizes, cold_sizes, "{what}");
                let per_level = comparisons(&out.levels);
                let cold_per_level: Vec<u64> =
                    cold_set.stats.levels.iter().map(|l| l.comparisons).collect();
                assert_eq!(per_level, cold_per_level, "{what}");
                assert_eq!(per_level.iter().sum::<u64>(), cold_set.stats.comparisons, "{what}");
                assert_eq!(out.levels, cold_levels, "{what}");
            }
        }
    }
}
