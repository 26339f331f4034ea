//! Delta-aware incremental minimization: a function resubmitted with a
//! few minterms flipped must be answered by splicing the cached level
//! snapshot of its sibling — and the answer must be **bit-identical** to
//! a cold from-scratch run, at any thread count.

use proptest::prelude::*;
use spp_boolfn::BoolFn;
use spp_core::{Minimizer, MultiMinimizer, SppCache};
use spp_gf2::Gf2Vec;

const N: usize = 6;

fn from_bits(n: usize, bits: u64) -> BoolFn {
    BoolFn::from_truth_fn(n, |x| bits >> x & 1 == 1)
}

/// Flips `k` distinct minterms of `bits`, chosen by a seed walk so the
/// edit set is deterministic per (bits, seed).
fn flip(n: usize, bits: u64, k: usize, seed: u64) -> u64 {
    let mut out = bits;
    let mut x = seed;
    let mut flipped = 0;
    while flipped < k {
        // xorshift walk over the 2^n points
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % (1 << n)) as u32;
        if out >> i & 1 == bits >> i & 1 {
            out ^= 1u64 << i;
            flipped += 1;
        }
    }
    out
}

/// Runs `edited` cold (fresh session, no cache) and warm (shared cache
/// pre-seeded by a run of `base`), asserting the two results are
/// identical and the warm one actually took the delta path.
fn assert_delta_matches_cold(base: &BoolFn, edited: &BoolFn, threads: usize) {
    let cold = Minimizer::new(edited).threads(threads).run_exact();
    cold.form.check_realizes(edited).expect("cold form must verify");

    let cache = SppCache::in_memory(32 * 1024 * 1024);
    let seed = Minimizer::new(base).threads(threads).cache(cache.clone()).run_exact();
    seed.form.check_realizes(base).expect("seed form must verify");

    let warm = Minimizer::new(edited).threads(threads).cache(cache.clone()).run_exact();
    warm.form.check_realizes(edited).expect("warm form must verify");

    let stats = cache.stats();
    assert_eq!(
        stats.delta_reuses, 1,
        "threads={threads}: the edited run must splice, not regenerate \
         (rejects={})",
        stats.delta_rejects
    );
    assert_eq!(warm.form, cold.form, "threads={threads}");
    assert_eq!(warm.num_candidates, cold.num_candidates, "threads={threads}");
    assert_eq!(warm.optimal, cold.optimal, "threads={threads}");
}

#[test]
fn one_minterm_edit_splices_and_matches_cold() {
    let base = BoolFn::from_truth_fn(N, |x| x % 3 == 1 || x.count_ones() == 4);
    let edited = BoolFn::from_truth_fn(N, |x| x == 14 || x % 3 == 1 || x.count_ones() == 4);
    for threads in [1usize, 2, 4] {
        assert_delta_matches_cold(&base, &edited, threads);
    }
}

#[test]
fn removed_minterm_edit_splices_and_matches_cold() {
    let base = BoolFn::from_truth_fn(N, |x| x % 5 == 2 || x.count_ones() % 2 == 0);
    let edited = BoolFn::from_truth_fn(N, |x| x != 10 && (x % 5 == 2 || x.count_ones() % 2 == 0));
    for threads in [1usize, 2, 4] {
        assert_delta_matches_cold(&base, &edited, threads);
    }
}

#[test]
fn identical_dont_cares_still_splice() {
    let on: Vec<Gf2Vec> =
        (0..1u64 << N).filter(|x| x % 7 == 3).map(|x| Gf2Vec::from_u64(N, x)).collect();
    let dc: Vec<Gf2Vec> =
        (0..1u64 << N).filter(|x| x % 7 == 5).map(|x| Gf2Vec::from_u64(N, x)).collect();
    let base = BoolFn::with_dont_cares(N, on.clone(), dc.clone());
    let mut on_edit = on;
    on_edit.push(Gf2Vec::from_u64(N, 0)); // 0 % 7 == 0: neither ON nor DC
    let edited = BoolFn::with_dont_cares(N, on_edit, dc);
    for threads in [1usize, 2, 4] {
        assert_delta_matches_cold(&base, &edited, threads);
    }
}

#[test]
fn differing_dont_cares_fall_back_to_cold() {
    let on: Vec<Gf2Vec> = (0..1u64 << N)
        .filter(|x| x % 7 == 3)
        .map(|x| Gf2Vec::from_u64(N, x))
        .collect();
    let dc = vec![Gf2Vec::from_u64(N, 5)];
    let base = BoolFn::from_minterms(N, on.clone());
    let edited = BoolFn::with_dont_cares(N, on, dc);

    let cache = SppCache::in_memory(32 * 1024 * 1024);
    let _ = Minimizer::new(&base).cache(cache.clone()).run_exact();
    let warm = Minimizer::new(&edited).cache(cache.clone()).run_exact();
    warm.form.check_realizes(&edited).expect("cold fallback must verify");
    // The sibling index requires an identical DC set, so nothing matches.
    assert_eq!(cache.stats().delta_reuses, 0);
}

#[test]
fn far_edits_fall_back_to_cold() {
    let base = BoolFn::from_truth_fn(N, |x| x % 3 == 1);
    // 12 flips: past DELTA_MAX_DISTANCE, the sibling search must not match.
    let edited_bits =
        flip(N, (0..1u64 << N).filter(|x| x % 3 == 1).fold(0, |a, x| a | 1 << x), 12, 99);
    let edited = from_bits(N, edited_bits);

    let cache = SppCache::in_memory(32 * 1024 * 1024);
    let _ = Minimizer::new(&base).cache(cache.clone()).run_exact();
    let warm = Minimizer::new(&edited).cache(cache.clone()).run_exact();
    warm.form.check_realizes(&edited).expect("cold fallback must verify");
    let cold = Minimizer::new(&edited).run_exact();
    assert_eq!(warm.form, cold.form);
    assert_eq!(cache.stats().delta_reuses, 0);
}

#[test]
fn multi_output_cover_warm_starts_across_option_changes() {
    let f0 = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
    let f1 = BoolFn::from_truth_fn(4, |x| x % 5 == 1 || x.count_ones() % 2 == 0);
    let outputs = [f0, f1];
    let cache = SppCache::in_memory(32 * 1024 * 1024);
    let first = MultiMinimizer::new(&outputs).cache(cache.clone()).run().unwrap();
    // A different (answer-neutral) column gate keys a different multi
    // entry (miss), but the shared pool of the first run warm-starts the
    // covering search.
    let second = MultiMinimizer::new(&outputs)
        .cover_limits(spp_cover::Limits::default().with_max_exact_columns(1_000_000))
        .cache(cache.clone())
        .run()
        .unwrap();
    assert!(cache.stats().warm_starts >= 1, "{}", cache.stats());
    assert_eq!(first.shared_literal_count, second.shared_literal_count);
    assert_eq!(first.forms, second.forms);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for random base functions and random edits
    /// of k ∈ {1, 2, 8} minterms, the delta-spliced minimization of the
    /// edited function is bit-identical to a cold run — same form, same
    /// candidate count — at 1, 2 and 4 threads. 5 variables keeps the
    /// per-case cost low while every splice still spans several levels.
    #[test]
    fn edited_functions_minimize_bit_identically(
        bits in 1u64..u64::MAX,
        seed in 1u64..u64::MAX,
        k_idx in 0usize..3,
    ) {
        let n = 5;
        let k = [1usize, 2, 8][k_idx];
        let base = from_bits(n, bits & ((1 << (1 << n)) - 1));
        let edited = from_bits(n, flip(n, bits & ((1 << (1 << n)) - 1), k, seed));
        prop_assume!(!base.on_set().is_empty() && !edited.on_set().is_empty());
        for threads in [1usize, 2, 4] {
            assert_delta_matches_cold(&base, &edited, threads);
        }
    }
}
