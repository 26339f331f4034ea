//! Oracle tests for `BitSet`'s word loops: every word-level method must
//! equal a reference built only from the bit-level `get`/`set` accessors.
//!
//! Inputs sweep word spans 0–9, 16, 17 and 33 (short spans, several-word
//! loops and the 33-word rows of a 2,100-column matrix), three bit lengths
//! per span (`len ≡ 0, 1, 63 mod 64`, so tail masking is covered) and five
//! shapes per length: two uniformly random sets, a sparse set (the
//! covering engine's common case), the empty set and the full set.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_cover::{BitSet, LoneOne};

/// Word-span lengths under test.
const SPANS: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33];

/// Bit lengths whose word span is `words`: full last word, one bit in
/// the last word, and 63 bits in the last word.
fn bit_lengths(words: usize) -> Vec<usize> {
    if words == 0 {
        return vec![0];
    }
    vec![words * 64, (words - 1) * 64 + 1, (words - 1) * 64 + 63]
}

fn from_bits(len: usize, mut bit: impl FnMut(usize) -> bool) -> BitSet {
    let mut s = BitSet::new(len);
    for i in 0..len {
        if bit(i) {
            s.set(i, true);
        }
    }
    s
}

fn pool(rng: &mut StdRng, len: usize) -> Vec<BitSet> {
    vec![
        from_bits(len, |_| rng.gen_bool(0.5)),
        from_bits(len, |_| rng.gen_bool(0.5)),
        from_bits(len, |_| rng.gen_bool(1.0 / 256.0)),
        BitSet::new(len),
        BitSet::all_ones(len),
    ]
}

/// Runs `check` over every `(a, b, mask)` drawn from one length's pool,
/// for every length under test.
fn for_all_inputs(mut check: impl FnMut(&BitSet, &BitSet, &BitSet)) {
    let mut rng = StdRng::seed_from_u64(0x5eed_5eed);
    for &words in SPANS {
        for len in bit_lengths(words) {
            let sets = pool(&mut rng, len);
            for a in &sets {
                for b in &sets {
                    for mask in &sets {
                        check(a, b, mask);
                    }
                }
            }
        }
    }
}

fn ones(s: &BitSet) -> Vec<usize> {
    (0..s.len()).filter(|&i| s.get(i)).collect()
}

fn ones_and(a: &BitSet, b: &BitSet) -> Vec<usize> {
    (0..a.len()).filter(|&i| a.get(i) && b.get(i)).collect()
}

fn at(a: &BitSet, b: &BitSet, mask: &BitSet) -> String {
    format!("len={} a={:?} b={:?} mask={:?}", a.len(), ones(a), ones(b), ones(mask))
}

#[test]
fn the_pool_covers_every_span_and_tail() {
    let mut seen = Vec::new();
    for_all_inputs(|a, _, _| seen.push((a.len().div_ceil(64), a.len() % 64)));
    for &words in SPANS.iter().filter(|&&w| w > 0) {
        for tail in [0, 1, 63] {
            assert!(seen.contains(&(words, tail)), "span {words} tail {tail} untested");
        }
    }
}

#[test]
fn count_ones_and_none_match_the_bit_loop() {
    for_all_inputs(|a, b, m| {
        let n = ones(a).len();
        assert_eq!(a.count_ones(), n, "{}", at(a, b, m));
        assert_eq!(a.none(), n == 0, "{}", at(a, b, m));
    });
}

#[test]
fn in_place_updates_match_the_bit_loop() {
    for_all_inputs(|a, b, m| {
        let mut got = a.clone();
        got.union_with(b);
        assert_eq!(got, from_bits(a.len(), |i| a.get(i) || b.get(i)), "∪ {}", at(a, b, m));

        let mut got = a.clone();
        got.intersect_with(b);
        assert_eq!(got, from_bits(a.len(), |i| a.get(i) && b.get(i)), "∩ {}", at(a, b, m));

        let mut got = a.clone();
        got.difference_with(b);
        assert_eq!(got, from_bits(a.len(), |i| a.get(i) && !b.get(i)), "∖ {}", at(a, b, m));

        let mut got = a.clone();
        got.union_with_masked(b, m);
        let want = from_bits(a.len(), |i| a.get(i) || (b.get(i) && m.get(i)));
        assert_eq!(got, want, "masked ∪ {}", at(a, b, m));
    });
}

#[test]
fn and_counts_match_the_bit_loop() {
    for_all_inputs(|a, b, m| {
        let both = ones_and(a, b);
        assert_eq!(a.and_count_ones(b), both.len(), "{}", at(a, b, m));
        let fold = both.iter().fold(0u64, |acc, &i| acc | 1 << (i % 64));
        assert_eq!(a.and_count_ones_fold(b), (both.len(), fold), "{}", at(a, b, m));
    });
}

#[test]
fn first_and_lone_one_match_the_bit_loop() {
    for_all_inputs(|a, b, m| {
        let both = ones_and(a, b);
        assert_eq!(a.first_one_in(b), both.first().copied(), "{}", at(a, b, m));
        let lone = match both.as_slice() {
            [] => LoneOne::None,
            [i] => LoneOne::One(*i),
            _ => LoneOne::Many,
        };
        assert_eq!(a.lone_one_in(b), lone, "{}", at(a, b, m));
    });
}

#[test]
fn a_lone_common_bit_is_found_in_every_word() {
    // Random pools rarely share exactly one bit, so place one explicitly.
    for &words in SPANS {
        for len in bit_lengths(words) {
            let full = BitSet::all_ones(len);
            for i in (0..len).step_by(7).chain(len.checked_sub(1)) {
                let one = BitSet::from_indices(len, &[i]);
                assert_eq!(full.lone_one_in(&one), LoneOne::One(i), "len={len} i={i}");
                assert_eq!(one.first_one_in(&full), Some(i), "len={len} i={i}");
            }
        }
    }
}

#[test]
fn relations_match_the_bit_loop() {
    for_all_inputs(|a, b, m| {
        let n = a.len();
        assert_eq!(a.intersects(b), (0..n).any(|i| a.get(i) && b.get(i)), "{}", at(a, b, m));
        assert_eq!(a.is_subset_of(b), (0..n).all(|i| !a.get(i) || b.get(i)), "{}", at(a, b, m));
        let within = (0..n).all(|i| !(a.get(i) && m.get(i)) || b.get(i));
        assert_eq!(a.is_subset_within(b, m), within, "{}", at(a, b, m));
        // a ∩ b ⊆ b always holds, so every pool yields true cases too.
        let mut ab = a.clone();
        ab.intersect_with(b);
        assert!(ab.is_subset_of(b), "{}", at(a, b, m));
        assert!(ab.is_subset_within(b, m), "{}", at(a, b, m));
    });
}
