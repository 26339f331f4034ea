//! The portable word-at-a-time kernel bodies.
//!
//! These are the reference implementations: every SIMD backend must return
//! bit-identical results (the dispatch layer's contract), and the property
//! tests compare each backend against this module. The bodies are the
//! word loops that used to live inline in `spp_cover::BitSet`.

use crate::LoneOne;

#[inline]
pub(crate) fn count_ones(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

#[inline]
pub(crate) fn none(a: &[u64]) -> bool {
    a.iter().all(|&w| w == 0)
}

#[inline]
pub(crate) fn and_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones() as usize).sum()
}

#[inline]
pub(crate) fn xor_count(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
}

#[inline]
pub(crate) fn and_count_fold(a: &[u64], b: &[u64]) -> (usize, u64) {
    let mut count = 0usize;
    let mut fold = 0u64;
    for (x, y) in a.iter().zip(b) {
        let w = x & y;
        count += w.count_ones() as usize;
        fold |= w;
    }
    (count, fold)
}

#[inline]
pub(crate) fn first_and_one(a: &[u64], b: &[u64]) -> Option<usize> {
    for (wi, (x, y)) in a.iter().zip(b).enumerate() {
        let w = x & y;
        if w != 0 {
            return Some(wi * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

#[inline]
pub(crate) fn lone_and_one(a: &[u64], b: &[u64]) -> LoneOne {
    let mut found: Option<usize> = None;
    for (wi, (x, y)) in a.iter().zip(b).enumerate() {
        let w = x & y;
        if w == 0 {
            continue;
        }
        if found.is_some() || w & (w - 1) != 0 {
            return LoneOne::Many;
        }
        found = Some(wi * 64 + w.trailing_zeros() as usize);
    }
    match found {
        Some(bit) => LoneOne::One(bit),
        None => LoneOne::None,
    }
}

#[inline]
pub(crate) fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

#[inline]
pub(crate) fn subset_within(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    a.iter().zip(b).zip(mask).all(|((x, y), m)| x & m & !y == 0)
}

#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[inline]
pub(crate) fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

#[inline]
pub(crate) fn and_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

#[inline]
pub(crate) fn andnot_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

#[inline]
pub(crate) fn or_masked_into(dst: &mut [u64], src: &[u64], mask: &[u64]) {
    for ((d, s), m) in dst.iter_mut().zip(src).zip(mask) {
        *d |= s & m;
    }
}
