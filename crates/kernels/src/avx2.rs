//! AVX2 kernel bodies: 4 words (256 bits) per step, scalar tails.
//!
//! Every function here carries `#[target_feature(enable = "avx2,popcnt")]`
//! and must only be reached through the dispatch layer after
//! [`Backend::Avx2`](crate::Backend::Avx2) support was verified — calling
//! them on a CPU without AVX2 is undefined behaviour, which is exactly
//! what the support invariant on [`crate::active`] rules out.
//!
//! Popcounts use the pshufb nibble-lookup reduction (`_mm256_shuffle_epi8`
//! then `_mm256_sad_epu8`): each 256-bit block folds to four 64-bit partial
//! sums with no cross-lane traffic, and the accumulator only collapses
//! once per call. Emptiness tests use `_mm256_testz_si256`, which sets ZF
//! directly from the AND. All loads/stores are unaligned (`loadu`/`storeu`):
//! a `Vec<u64>` is 8-byte aligned, and on every AVX2 core the unaligned
//! forms cost the same as aligned ones when the address happens to be
//! aligned.
//!
//! Exactness, not estimation: each body computes the same function of the
//! full input as its scalar reference, so results are bit-identical by
//! construction. The only early exits (the subset and intersection tests)
//! return values that are pure functions of the whole input, so
//! block-granular exits cannot change them.

use core::arch::x86_64::*;

use crate::LoneOne;

#[inline]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn load(p: *const u64, i: usize) -> __m256i {
    _mm256_loadu_si256(p.add(i).cast::<__m256i>())
}

/// Per-64-bit-lane popcount of `v` (Mula's pshufb nibble lookup).
#[inline]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn popcount_epi64(v: __m256i) -> __m256i {
    #[rustfmt::skip]
    let lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low);
    let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
    let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi));
    _mm256_sad_epu8(cnt, _mm256_setzero_si256())
}

/// Sum of the four 64-bit lanes of `v`.
#[inline]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn hsum_epi64(v: __m256i) -> u64 {
    let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
    _mm_cvtsi128_si64(s) as u64
}

#[inline]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn is_zero(v: __m256i) -> bool {
    _mm256_testz_si256(v, v) != 0
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn count_ones(a: &[u64]) -> usize {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        acc = _mm256_add_epi64(acc, popcount_epi64(load(a.as_ptr(), i)));
        i += 4;
    }
    let mut total = hsum_epi64(acc) as usize;
    while i < n {
        total += a[i].count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn none(a: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        if !is_zero(load(a.as_ptr(), i)) {
            return false;
        }
        i += 4;
    }
    while i < n {
        if a[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn and_count(a: &[u64], b: &[u64]) -> usize {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_and_si256(load(a.as_ptr(), i), load(b.as_ptr(), i));
        acc = _mm256_add_epi64(acc, popcount_epi64(v));
        i += 4;
    }
    let mut total = hsum_epi64(acc) as usize;
    while i < n {
        total += (a[i] & b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn xor_count(a: &[u64], b: &[u64]) -> usize {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_xor_si256(load(a.as_ptr(), i), load(b.as_ptr(), i));
        acc = _mm256_add_epi64(acc, popcount_epi64(v));
        i += 4;
    }
    let mut total = hsum_epi64(acc) as usize;
    while i < n {
        total += (a[i] ^ b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn and_count_fold(a: &[u64], b: &[u64]) -> (usize, u64) {
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut folds = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_and_si256(load(a.as_ptr(), i), load(b.as_ptr(), i));
        acc = _mm256_add_epi64(acc, popcount_epi64(v));
        folds = _mm256_or_si256(folds, v);
        i += 4;
    }
    let mut total = hsum_epi64(acc) as usize;
    // OR the four fold lanes down to one word.
    let s = _mm_or_si128(_mm256_castsi256_si128(folds), _mm256_extracti128_si256::<1>(folds));
    let s = _mm_or_si128(s, _mm_unpackhi_epi64(s, s));
    let mut fold = _mm_cvtsi128_si64(s) as u64;
    while i < n {
        let w = a[i] & b[i];
        total += w.count_ones() as usize;
        fold |= w;
        i += 1;
    }
    (total, fold)
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn first_and_one(a: &[u64], b: &[u64]) -> Option<usize> {
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_and_si256(load(a.as_ptr(), i), load(b.as_ptr(), i));
        if !is_zero(v) {
            break;
        }
        i += 4;
    }
    while i < n {
        let w = a[i] & b[i];
        if w != 0 {
            return Some(i * 64 + w.trailing_zeros() as usize);
        }
        i += 1;
    }
    None
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn lone_and_one(a: &[u64], b: &[u64]) -> LoneOne {
    let n = a.len();
    let mut found: Option<usize> = None;
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_and_si256(load(a.as_ptr(), i), load(b.as_ptr(), i));
        if !is_zero(v) {
            let mut k = i;
            while k < i + 4 {
                let w = a[k] & b[k];
                if w != 0 {
                    if found.is_some() || w & (w - 1) != 0 {
                        return LoneOne::Many;
                    }
                    found = Some(k * 64 + w.trailing_zeros() as usize);
                }
                k += 1;
            }
        }
        i += 4;
    }
    while i < n {
        let w = a[i] & b[i];
        if w != 0 {
            if found.is_some() || w & (w - 1) != 0 {
                return LoneOne::Many;
            }
            found = Some(i * 64 + w.trailing_zeros() as usize);
        }
        i += 1;
    }
    match found {
        Some(bit) => LoneOne::One(bit),
        None => LoneOne::None,
    }
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn subset(a: &[u64], b: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        // !b & a, via ANDNOT's (NOT x) AND y shape.
        let v = _mm256_andnot_si256(load(b.as_ptr(), i), load(a.as_ptr(), i));
        if !is_zero(v) {
            return false;
        }
        i += 4;
    }
    while i < n {
        if a[i] & !b[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn subset_within(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        let am = _mm256_and_si256(load(a.as_ptr(), i), load(mask.as_ptr(), i));
        let v = _mm256_andnot_si256(load(b.as_ptr(), i), am);
        if !is_zero(v) {
            return false;
        }
        i += 4;
    }
    while i < n {
        if a[i] & mask[i] & !b[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn intersects(a: &[u64], b: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 4 <= n {
        if _mm256_testz_si256(load(a.as_ptr(), i), load(b.as_ptr(), i)) == 0 {
            return true;
        }
        i += 4;
    }
    while i < n {
        if a[i] & b[i] != 0 {
            return true;
        }
        i += 1;
    }
    false
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_or_si256(load(dst.as_ptr(), i), load(src.as_ptr(), i));
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), v);
        i += 4;
    }
    while i < n {
        dst[i] |= src[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn and_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_and_si256(load(dst.as_ptr(), i), load(src.as_ptr(), i));
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), v);
        i += 4;
    }
    while i < n {
        dst[i] &= src[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn andnot_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_andnot_si256(load(src.as_ptr(), i), load(dst.as_ptr(), i));
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), v);
        i += 4;
    }
    while i < n {
        dst[i] &= !src[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn or_masked_into(dst: &mut [u64], src: &[u64], mask: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 4 <= n {
        let sm = _mm256_and_si256(load(src.as_ptr(), i), load(mask.as_ptr(), i));
        let v = _mm256_or_si256(load(dst.as_ptr(), i), sm);
        _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast::<__m256i>(), v);
        i += 4;
    }
    while i < n {
        dst[i] |= src[i] & mask[i];
        i += 1;
    }
}

#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn positions_eq(needle: u64, haystack: &[u64], out: &mut Vec<u32>) {
    let n = haystack.len();
    let target = _mm256_set1_epi64x(needle as i64);
    let mut i = 0;
    while i + 4 <= n {
        let eq = _mm256_cmpeq_epi64(load(haystack.as_ptr(), i), target);
        let mut hits = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32 & 0xf;
        while hits != 0 {
            out.push((i + hits.trailing_zeros() as usize) as u32);
            hits &= hits - 1;
        }
        i += 4;
    }
    while i < n {
        if haystack[i] == needle {
            out.push(i as u32);
        }
        i += 1;
    }
}
