//! Backend-equivalence property tests: every SIMD backend must return
//! bit-identical results to the scalar reference for every kernel.
//!
//! Inputs sweep span lengths around the SIMD block sizes (0..=9 words,
//! plus 16/17/33 to exercise multi-block loops with and without tails)
//! and three value shapes per length: uniformly random words, sparse
//! words (mostly-zero, the covering engine's common case), and the
//! degenerate empty/all-ones sets. Bit-level tail cases from the issue
//! (`len % 64 ∈ {0, 1, 63}`) appear as last words masked to 1 or 63 low
//! bits, exactly the values a tail-masked `BitSet` hands the kernels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_kernels::{Backend, LoneOne};

/// Word-span lengths covering: empty, below/at/above one SIMD block
/// (2 words NEON, 4 words AVX2), multiple blocks, and block + tail.
const LENS: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33];

/// Masks applied to the last word, mirroring `BitSet` tail masking for
/// bit lengths `≡ 1` and `≡ 63 (mod 64)`, plus the no-tail case.
const TAIL_MASKS: &[u64] = &[!0, 1, (1 << 63) - 1];

fn spans(rng: &mut StdRng, len: usize, tail_mask: u64) -> Vec<Vec<u64>> {
    let random = |rng: &mut StdRng| (0..len).map(|_| rng.gen::<u64>()).collect::<Vec<u64>>();
    let sparse = |rng: &mut StdRng| {
        (0..len)
            .map(|_| if rng.gen_bool(0.25) { 1u64 << rng.gen_range(0..64) } else { 0 })
            .collect::<Vec<u64>>()
    };
    let mut out = vec![
        random(rng),
        random(rng),
        sparse(rng),
        vec![0u64; len],
        vec![!0u64; len],
    ];
    for s in &mut out {
        if let Some(last) = s.last_mut() {
            *last &= tail_mask;
        }
    }
    out
}

/// Runs `check` over every (backend, length, tail, a, b, mask) input
/// combination, comparing each supported SIMD backend to scalar.
fn for_all_inputs(mut check: impl FnMut(Backend, &[u64], &[u64], &[u64])) {
    let simd = Backend::detect();
    assert_ne!(
        simd,
        Backend::Scalar,
        "these tests need a SIMD backend to compare against scalar \
         (detection found none on this CPU)"
    );
    let mut rng = StdRng::seed_from_u64(0x5eed_5eed);
    for &len in LENS {
        for &tail in TAIL_MASKS {
            let pool = spans(&mut rng, len, tail);
            for a in &pool {
                for b in &pool {
                    let mask = &pool[rng.gen_range(0..pool.len())];
                    check(simd, a, b, mask);
                }
            }
        }
    }
}

#[test]
fn count_ones_matches_scalar() {
    for_all_inputs(|simd, a, _, _| {
        assert_eq!(simd.count_ones(a), Backend::Scalar.count_ones(a), "a={a:?}");
    });
}

#[test]
fn none_matches_scalar() {
    for_all_inputs(|simd, a, _, _| {
        assert_eq!(simd.none(a), Backend::Scalar.none(a), "a={a:?}");
    });
}

#[test]
fn and_count_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(simd.and_count(a, b), Backend::Scalar.and_count(a, b), "a={a:?} b={b:?}");
    });
}

#[test]
fn xor_count_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(simd.xor_count(a, b), Backend::Scalar.xor_count(a, b), "a={a:?} b={b:?}");
        // Hamming distance facts: d(a, a) = 0 and d(a, 0) = |a|.
        assert_eq!(simd.xor_count(a, a), 0, "a={a:?}");
        let zeros = vec![0u64; a.len()];
        assert_eq!(simd.xor_count(a, &zeros), Backend::Scalar.count_ones(a), "a={a:?}");
    });
}

#[test]
fn and_count_fold_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(
            simd.and_count_fold(a, b),
            Backend::Scalar.and_count_fold(a, b),
            "a={a:?} b={b:?}"
        );
    });
}

#[test]
fn and_count_fold_agrees_with_and_count_and_words() {
    for_all_inputs(|simd, a, b, _| {
        let (count, fold) = simd.and_count_fold(a, b);
        assert_eq!(count, Backend::Scalar.and_count(a, b));
        let expect = a.iter().zip(b).fold(0u64, |acc, (x, y)| acc | (x & y));
        assert_eq!(fold, expect, "a={a:?} b={b:?}");
    });
}

#[test]
fn first_and_one_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(
            simd.first_and_one(a, b),
            Backend::Scalar.first_and_one(a, b),
            "a={a:?} b={b:?}"
        );
    });
}

#[test]
fn lone_and_one_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(
            simd.lone_and_one(a, b),
            Backend::Scalar.lone_and_one(a, b),
            "a={a:?} b={b:?}"
        );
    });
}

#[test]
fn lone_and_one_agrees_with_count_and_first() {
    // Cross-kernel coherence: the fused kernel must equal what the two
    // kernels it replaces would have computed.
    for_all_inputs(|simd, a, b, _| {
        let expected = match Backend::Scalar.and_count(a, b) {
            0 => LoneOne::None,
            1 => LoneOne::One(Backend::Scalar.first_and_one(a, b).unwrap()),
            _ => LoneOne::Many,
        };
        assert_eq!(simd.lone_and_one(a, b), expected, "a={a:?} b={b:?}");
    });
}

#[test]
fn subset_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(simd.subset(a, b), Backend::Scalar.subset(a, b), "a={a:?} b={b:?}");
        // Force some true cases: a ∩ b ⊆ b always holds.
        let mut ab = a.to_vec();
        Backend::Scalar.and_into(&mut ab, b);
        assert!(simd.subset(&ab, b), "ab={ab:?} b={b:?}");
    });
}

#[test]
fn subset_within_matches_scalar() {
    for_all_inputs(|simd, a, b, mask| {
        assert_eq!(
            simd.subset_within(a, b, mask),
            Backend::Scalar.subset_within(a, b, mask),
            "a={a:?} b={b:?} mask={mask:?}"
        );
    });
}

#[test]
fn intersects_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        assert_eq!(simd.intersects(a, b), Backend::Scalar.intersects(a, b), "a={a:?} b={b:?}");
    });
}

#[test]
fn or_into_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        let mut got = a.to_vec();
        let mut want = a.to_vec();
        simd.or_into(&mut got, b);
        Backend::Scalar.or_into(&mut want, b);
        assert_eq!(got, want, "a={a:?} b={b:?}");
    });
}

#[test]
fn and_into_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        let mut got = a.to_vec();
        let mut want = a.to_vec();
        simd.and_into(&mut got, b);
        Backend::Scalar.and_into(&mut want, b);
        assert_eq!(got, want, "a={a:?} b={b:?}");
    });
}

#[test]
fn andnot_into_matches_scalar() {
    for_all_inputs(|simd, a, b, _| {
        let mut got = a.to_vec();
        let mut want = a.to_vec();
        simd.andnot_into(&mut got, b);
        Backend::Scalar.andnot_into(&mut want, b);
        assert_eq!(got, want, "a={a:?} b={b:?}");
    });
}

#[test]
fn or_masked_into_matches_scalar() {
    for_all_inputs(|simd, a, b, mask| {
        let mut got = a.to_vec();
        let mut want = a.to_vec();
        simd.or_masked_into(&mut got, b, mask);
        Backend::Scalar.or_masked_into(&mut want, b, mask);
        assert_eq!(got, want, "a={a:?} b={b:?} mask={mask:?}");
    });
}

/// The public entry points run short spans inline and dispatch the rest,
/// so both sides of that cutoff must equal the scalar reference under
/// every backend the CPU can run.
#[test]
fn public_entry_points_match_scalar_under_every_backend() {
    let backends = [Backend::Scalar, Backend::Avx2, Backend::Neon];
    let mut rng = StdRng::seed_from_u64(0xe4_7e_59);
    for backend in backends.into_iter().filter(|b| b.is_supported()) {
        spp_kernels::set_backend(backend).unwrap();
        for len in 0..=9 {
            for &tail in TAIL_MASKS {
                let pool = spans(&mut rng, len, tail);
                for a in &pool {
                    for b in &pool {
                        let mask = &pool[rng.gen_range(0..pool.len())];
                        let s = Backend::Scalar;
                        let at = format!("{backend} a={a:?} b={b:?} mask={mask:?}");
                        assert_eq!(spp_kernels::count_ones(a), s.count_ones(a), "{at}");
                        assert_eq!(spp_kernels::none(a), s.none(a), "{at}");
                        assert_eq!(spp_kernels::and_count(a, b), s.and_count(a, b), "{at}");
                        assert_eq!(spp_kernels::xor_count(a, b), s.xor_count(a, b), "{at}");
                        assert_eq!(
                            spp_kernels::and_count_fold(a, b),
                            s.and_count_fold(a, b),
                            "{at}"
                        );
                        assert_eq!(
                            spp_kernels::first_and_one(a, b),
                            s.first_and_one(a, b),
                            "{at}"
                        );
                        assert_eq!(spp_kernels::lone_and_one(a, b), s.lone_and_one(a, b), "{at}");
                        assert_eq!(spp_kernels::subset(a, b), s.subset(a, b), "{at}");
                        assert_eq!(
                            spp_kernels::subset_within(a, b, mask),
                            s.subset_within(a, b, mask),
                            "{at}"
                        );
                        assert_eq!(spp_kernels::intersects(a, b), s.intersects(a, b), "{at}");
                        type Update = fn(&mut [u64], &[u64]);
                        let updates: [(Update, Update); 3] = [
                            (spp_kernels::or_into, |d, x| Backend::Scalar.or_into(d, x)),
                            (spp_kernels::and_into, |d, x| Backend::Scalar.and_into(d, x)),
                            (spp_kernels::andnot_into, |d, x| Backend::Scalar.andnot_into(d, x)),
                        ];
                        for (public, reference) in updates {
                            let (mut got, mut want) = (a.clone(), a.clone());
                            public(&mut got, b);
                            reference(&mut want, b);
                            assert_eq!(got, want, "{at}");
                        }
                        let (mut got, mut want) = (a.clone(), a.clone());
                        spp_kernels::or_masked_into(&mut got, b, mask);
                        s.or_masked_into(&mut want, b, mask);
                        assert_eq!(got, want, "{at}");
                    }
                }
            }
        }
    }
    spp_kernels::set_backend(Backend::detect()).unwrap();
}
