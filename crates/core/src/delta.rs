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

use std::collections::HashSet;

use spp_boolfn::BoolFn;
use spp_gf2::Gf2Vec;
use spp_obs::RunCtx;

use crate::generate::UnionScratch;
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
    /// `(members, discard flags)` per degree, in degree order; members
    /// are in canonical sorted order, exactly as the sweep handed them
    /// on.
    pub(crate) levels: Vec<(Vec<Pseudocube>, Vec<bool>)>,
}

/// The result of a successful [`splice`].
pub(crate) struct DeltaOutcome {
    /// The spliced EPPP set — bit-identical to a cold exact generation.
    pub(crate) eppp: EpppSet,
    /// The new function's own level snapshot, ready to cache.
    pub(crate) levels: Vec<(Vec<Pseudocube>, Vec<bool>)>,
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

    // Seed frontier: the added points, as degree-0 pseudocubes in
    // canonical order.
    let mut frontier: Vec<Pseudocube> =
        added.iter().map(|&p| Pseudocube::from_point(p)).collect();
    frontier.sort_unstable();

    #[cfg(feature = "failpoints")]
    if spp_obs::failpoints::armed("delta.splice") {
        // Corrupt the splice: inject a point pseudocube *outside* V', so
        // the verification pass below must catch it. (Skip the injection
        // for total functions — no outside point exists.)
        if let Some(i) = (0..(1usize << n)).find(|&i| !bit(&v_new, i)) {
            frontier.push(Pseudocube::from_point(Gf2Vec::from_u64(n, i as u64)));
            frontier.sort_unstable();
        }
    }

    let mut dropped_total = 0usize;
    let mut spliced_total = 0usize;
    // Per degree: the merged members, their discard flags, and the sorted
    // positions of the *new* (frontier-born) members — everything after
    // the merge works off those positions instead of tagging each member.
    let mut out_members: Vec<(Vec<Pseudocube>, Vec<bool>, Vec<usize>)> = Vec::new();
    let mut old_levels = old.levels.into_iter();

    let mut degree = 0usize;
    loop {
        if degree > n {
            return Err("runaway");
        }

        // --- Keep the old members that avoid every removed minterm. ---
        // The snapshot is consumed by value: kept members move into the
        // merged level without re-allocating their basis storage, and a
        // pure add edit (no removed minterms) moves whole levels without
        // touching a single member.
        let mut kept: Vec<Pseudocube> = Vec::new();
        let mut kept_flags: Vec<bool> = Vec::new();
        let mut lossy_structures: HashSet<u64> = HashSet::new();
        if let Some((members, flags)) = old_levels.next() {
            if members.len() != flags.len() {
                return Err("shape");
            }
            if removed.is_empty() {
                kept = members;
                kept_flags = flags;
            } else {
                budget.charge((members.len() * (removed.len() + 1)) as u64)?;
                for (pc, flag) in members.into_iter().zip(flags) {
                    if removed.iter().any(|r| pc.contains(r)) {
                        dropped_total += 1;
                        lossy_structures.insert(pc.structure().structure_hash());
                    } else {
                        kept.push(pc);
                        kept_flags.push(flag);
                    }
                }
            }
        }

        // --- Re-derive flags whose witness may have been dropped. ---
        // A discard flag's witness is always a same-structure partner, so
        // only flags in groups that lost a member can go stale. Kept
        // members are sorted structure-major, so groups are contiguous
        // runs — no hashing of whole bases. Lossy groups are tracked by
        // structure hash: a collision only re-checks a group that did not
        // need it, and the re-check recomputes the exact condition, so
        // collisions cannot flip a flag wrongly.
        if !lossy_structures.is_empty() {
            for (start, end) in structure_runs(&kept) {
                let hash = kept[start].structure().structure_hash();
                if !lossy_structures.contains(&hash) {
                    continue;
                }
                let len = end - start;
                budget.charge((len * len) as u64)?;
                let lits: Vec<u64> =
                    kept[start..end].iter().map(Pseudocube::literal_count).collect();
                for i in start..end {
                    if !kept_flags[i] {
                        continue; // a false flag has no witness to lose
                    }
                    let dirs = kept[i].structure();
                    let rep_i = kept[i].rep();
                    let lit_i = lits[i - start];
                    kept_flags[i] = (start..end).any(|j| {
                        if j == i {
                            return false;
                        }
                        scratch.canonicalize(dirs, rep_i, kept[j].rep());
                        scratch.lit <= lit_i
                    });
                }
            }
        }

        // --- Merge kept and new members into the level (sorted). ---
        let (level, mut flags, new_pos) =
            merge_members(kept, kept_flags, std::mem::take(&mut frontier));
        if level.is_empty() {
            break;
        }

        // --- Sweep: unions of pairs touching a new member. ---
        // Flags OR onto both halves (a union with no more literals than a
        // half discards it, exactly the cold rule with the conforming
        // predicate identically true), and each distinct new union seeds
        // the next frontier. Same-structure groups are contiguous runs of
        // the sorted level; only the runs holding a new member are even
        // visited — they are found by expanding around the new positions,
        // so a large untouched level costs nothing to sweep past.
        let mut arena: HashSet<u128> = HashSet::new();
        let mut next: Vec<Pseudocube> = Vec::new();
        for (start, end) in news_runs(&level, &new_pos) {
            let lo = new_pos.partition_point(|&p| p < start);
            let hi = new_pos.partition_point(|&p| p < end);
            budget.charge(((end - start) * (hi - lo)) as u64)?;
            let mut is_new = vec![false; end - start];
            for &p in &new_pos[lo..hi] {
                is_new[p - start] = true;
            }
            let lits: Vec<u64> =
                level[start..end].iter().map(Pseudocube::literal_count).collect();
            let dirs = level[start].structure();
            for i in 0..end - start {
                for j in i + 1..end - start {
                    if !is_new[i] && !is_new[j] {
                        continue; // kept-kept unions are already cached
                    }
                    scratch.canonicalize(dirs, level[start + i].rep(), level[start + j].rep());
                    if scratch.lit <= lits[i] {
                        flags[start + i] = true;
                    }
                    if scratch.lit <= lits[j] {
                        flags[start + j] = true;
                    }
                    if arena.insert(scratch.digest) {
                        next.push(scratch.materialize(dirs));
                    }
                }
            }
        }
        next.sort_unstable();
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
    #[cfg(feature = "failpoints")]
    if spp_obs::failpoints::armed("delta.verify") {
        return Err("verify");
    }
    for (level, _, new_pos) in &out_members {
        for &p in new_pos {
            if p > 0 && level[p - 1] >= level[p] {
                return Err("verify");
            }
            if p + 1 < level.len() && level[p] >= level[p + 1] {
                return Err("verify");
            }
            budget.charge(level[p].num_points())?;
            if level[p].points().any(|q| !bit(&v_new, point_index(&q))) {
                return Err("verify");
            }
        }
    }
    let mut eppp: Vec<Pseudocube> = Vec::new();
    let mut out_levels: Vec<(Vec<Pseudocube>, Vec<bool>)> = Vec::new();
    for (level, flags, _) in out_members {
        for (pc, &flag) in level.iter().zip(&flags) {
            if !flag {
                eppp.push(pc.clone());
            }
        }
        out_levels.push((level, flags));
    }
    let mut covered = vec![0u64; words];
    for pc in &eppp {
        budget.charge(pc.num_points())?;
        for p in pc.points() {
            let i = point_index(&p);
            covered[i / 64] |= 1u64 << (i % 64);
        }
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

/// The contiguous same-structure runs `[start, end)` of a canonically
/// sorted member list ([`Pseudocube`]'s order is structure-major, so
/// equal structures are always adjacent).
fn structure_runs(members: &[Pseudocube]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < members.len() {
        let mut end = start + 1;
        while end < members.len()
            && members[end].structure() == members[start].structure()
        {
            end += 1;
        }
        runs.push((start, end));
        start = end;
    }
    runs
}

/// The same-structure runs that contain at least one of the (sorted) new
/// positions, found by expanding outward from each new member. Runs with
/// no new member are never even looked at, so the cost scales with the
/// edit's footprint rather than the level's size.
fn news_runs(members: &[Pseudocube], new_pos: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &p in new_pos {
        if let Some(&(_, end)) = runs.last() {
            if p < end {
                continue; // already inside the previous run
            }
        }
        let dirs = members[p].structure();
        let mut start = p;
        while start > 0 && members[start - 1].structure() == dirs {
            start -= 1;
        }
        let mut end = p + 1;
        while end < members.len() && members[end].structure() == dirs {
            end += 1;
        }
        runs.push((start, end));
    }
    runs
}

/// First index at or after `lo` whose member is not less than `pc`, by
/// exponential (galloping) search: doubling steps find a window holding
/// the boundary, a binary search inside the window pins it down. Callers
/// guarantee every member before `lo` is less than `pc`.
fn lower_bound_from(kept: &[Pseudocube], mut lo: usize, pc: &Pseudocube) -> usize {
    let mut step = 1usize;
    while lo + step <= kept.len() && kept[lo + step - 1] < *pc {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step - 1).min(kept.len());
    lo + kept[lo..hi].partition_point(|k| k < pc)
}

/// Merges the sorted kept members with the sorted new frontier into one
/// sorted level, carrying the flag vector in step and returning the
/// positions the new members landed at. The two sides are disjoint — a
/// new member contains an added point, a kept member cannot — so strict
/// order is preserved. Insertion points come from binary search; the
/// kept run between two cuts moves without a single comparison.
fn merge_members(
    kept: Vec<Pseudocube>,
    kept_flags: Vec<bool>,
    frontier: Vec<Pseudocube>,
) -> (Vec<Pseudocube>, Vec<bool>, Vec<usize>) {
    if frontier.is_empty() {
        return (kept, kept_flags, Vec::new());
    }
    // The frontier is sorted, so cut positions are non-decreasing and
    // consecutive cuts land close together; galloping from the previous
    // cut touches mostly-warm memory where a binary search over the whole
    // remainder takes ~log(level) cold probes per member.
    let mut cuts: Vec<usize> = Vec::with_capacity(frontier.len());
    let mut lo = 0usize;
    for pc in &frontier {
        lo = lower_bound_from(&kept, lo, pc);
        cuts.push(lo);
    }
    let mut out = Vec::with_capacity(kept.len() + frontier.len());
    let mut flags = Vec::with_capacity(kept.len() + frontier.len());
    let mut new_pos = Vec::with_capacity(frontier.len());
    let mut kept_it = kept.into_iter().zip(kept_flags);
    let mut taken = 0usize;
    for (pc, cut) in frontier.into_iter().zip(cuts) {
        while taken < cut {
            let (k, flag) = kept_it.next().expect("cut within kept");
            out.push(k);
            flags.push(flag);
            taken += 1;
        }
        new_pos.push(out.len());
        out.push(pc);
        flags.push(false);
    }
    for (k, flag) in kept_it {
        out.push(k);
        flags.push(flag);
    }
    (out, flags, new_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_eppp_session_capture, LevelCapture};
    use crate::{GenLimits, Grouping};

    type Levels = Vec<(Vec<Pseudocube>, Vec<bool>)>;

    /// Cold exact generation of `f` with its level snapshot.
    fn cold(f: &BoolFn) -> (EpppSet, Levels) {
        let mut capture = LevelCapture::new(DELTA_CAPTURE_CAP);
        let set = generate_eppp_session_capture(
            f,
            Grouping::PartitionTrie,
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
            .map(|(members, _)| {
                structure_runs(members)
                    .iter()
                    .map(|&(s, e)| ((e - s) * (e - s - 1) / 2) as u64)
                    .sum()
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
