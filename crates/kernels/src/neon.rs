//! NEON kernel bodies: 2 words (128 bits) per step, scalar tails.
//!
//! NEON is baseline on aarch64, but these functions still carry
//! `#[target_feature(enable = "neon")]` and are only reached through the
//! dispatch layer after [`Backend::Neon`](crate::Backend::Neon) support
//! was verified, keeping the calling convention uniform across backends.
//!
//! Popcounts use `vcntq_u8` (per-byte popcount, a single instruction on
//! every ARMv8 core) followed by the widening horizontal sum `vaddlvq_u8`.
//! Emptiness tests reduce with `vmaxvq_u32`: the max over all 32-bit lanes
//! is zero exactly when the vector is. As in the AVX2 backend, every body
//! computes the same function of the full input as the scalar reference,
//! so results are bit-identical by construction.

use core::arch::aarch64::*;

use crate::LoneOne;

#[inline]
#[target_feature(enable = "neon")]
unsafe fn load(p: *const u64, i: usize) -> uint64x2_t {
    vld1q_u64(p.add(i))
}

#[inline]
#[target_feature(enable = "neon")]
unsafe fn popcount(v: uint64x2_t) -> usize {
    vaddlvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))) as usize
}

#[inline]
#[target_feature(enable = "neon")]
unsafe fn is_zero(v: uint64x2_t) -> bool {
    vmaxvq_u32(vreinterpretq_u32_u64(v)) == 0
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn count_ones(a: &[u64]) -> usize {
    let n = a.len();
    let mut total = 0usize;
    let mut i = 0;
    while i + 2 <= n {
        total += popcount(load(a.as_ptr(), i));
        i += 2;
    }
    while i < n {
        total += a[i].count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn none(a: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 2 <= n {
        if !is_zero(load(a.as_ptr(), i)) {
            return false;
        }
        i += 2;
    }
    while i < n {
        if a[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn and_count(a: &[u64], b: &[u64]) -> usize {
    let n = a.len();
    let mut total = 0usize;
    let mut i = 0;
    while i + 2 <= n {
        total += popcount(vandq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i)));
        i += 2;
    }
    while i < n {
        total += (a[i] & b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn xor_count(a: &[u64], b: &[u64]) -> usize {
    let n = a.len();
    let mut total = 0usize;
    let mut i = 0;
    while i + 2 <= n {
        total += popcount(veorq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i)));
        i += 2;
    }
    while i < n {
        total += (a[i] ^ b[i]).count_ones() as usize;
        i += 1;
    }
    total
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn and_count_fold(a: &[u64], b: &[u64]) -> (usize, u64) {
    let n = a.len();
    let mut count = 0usize;
    let mut folds = vdupq_n_u64(0);
    let mut i = 0;
    while i + 2 <= n {
        let v = vandq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i));
        count += popcount(v);
        folds = vorrq_u64(folds, v);
        i += 2;
    }
    let mut fold = vgetq_lane_u64::<0>(folds) | vgetq_lane_u64::<1>(folds);
    while i < n {
        let w = a[i] & b[i];
        count += w.count_ones() as usize;
        fold |= w;
        i += 1;
    }
    (count, fold)
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn first_and_one(a: &[u64], b: &[u64]) -> Option<usize> {
    let n = a.len();
    let mut i = 0;
    while i + 2 <= n {
        if !is_zero(vandq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i))) {
            break;
        }
        i += 2;
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

#[target_feature(enable = "neon")]
pub(crate) unsafe fn lone_and_one(a: &[u64], b: &[u64]) -> LoneOne {
    let n = a.len();
    let mut found: Option<usize> = None;
    let mut i = 0;
    while i + 2 <= n {
        if !is_zero(vandq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i))) {
            let mut k = i;
            while k < i + 2 {
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
        i += 2;
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

#[target_feature(enable = "neon")]
pub(crate) unsafe fn subset(a: &[u64], b: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 2 <= n {
        // vbicq_u64(x, y) = x & !y
        if !is_zero(vbicq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i))) {
            return false;
        }
        i += 2;
    }
    while i < n {
        if a[i] & !b[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn subset_within(a: &[u64], b: &[u64], mask: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 2 <= n {
        let am = vandq_u64(load(a.as_ptr(), i), load(mask.as_ptr(), i));
        if !is_zero(vbicq_u64(am, load(b.as_ptr(), i))) {
            return false;
        }
        i += 2;
    }
    while i < n {
        if a[i] & mask[i] & !b[i] != 0 {
            return false;
        }
        i += 1;
    }
    true
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn intersects(a: &[u64], b: &[u64]) -> bool {
    let n = a.len();
    let mut i = 0;
    while i + 2 <= n {
        if !is_zero(vandq_u64(load(a.as_ptr(), i), load(b.as_ptr(), i))) {
            return true;
        }
        i += 2;
    }
    while i < n {
        if a[i] & b[i] != 0 {
            return true;
        }
        i += 1;
    }
    false
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 2 <= n {
        let v = vorrq_u64(load(dst.as_ptr(), i), load(src.as_ptr(), i));
        vst1q_u64(dst.as_mut_ptr().add(i), v);
        i += 2;
    }
    while i < n {
        dst[i] |= src[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn and_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 2 <= n {
        let v = vandq_u64(load(dst.as_ptr(), i), load(src.as_ptr(), i));
        vst1q_u64(dst.as_mut_ptr().add(i), v);
        i += 2;
    }
    while i < n {
        dst[i] &= src[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn andnot_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 2 <= n {
        let v = vbicq_u64(load(dst.as_ptr(), i), load(src.as_ptr(), i));
        vst1q_u64(dst.as_mut_ptr().add(i), v);
        i += 2;
    }
    while i < n {
        dst[i] &= !src[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn or_masked_into(dst: &mut [u64], src: &[u64], mask: &[u64]) {
    let n = dst.len();
    let mut i = 0;
    while i + 2 <= n {
        let sm = vandq_u64(load(src.as_ptr(), i), load(mask.as_ptr(), i));
        let v = vorrq_u64(load(dst.as_ptr(), i), sm);
        vst1q_u64(dst.as_mut_ptr().add(i), v);
        i += 2;
    }
    while i < n {
        dst[i] |= src[i] & mask[i];
        i += 1;
    }
}

#[target_feature(enable = "neon")]
pub(crate) unsafe fn positions_eq(needle: u64, haystack: &[u64], out: &mut Vec<u32>) {
    let n = haystack.len();
    let target = vdupq_n_u64(needle);
    let mut i = 0;
    while i + 2 <= n {
        let eq = vceqq_u64(load(haystack.as_ptr(), i), target);
        if !is_zero(eq) {
            if haystack[i] == needle {
                out.push(i as u32);
            }
            if haystack[i + 1] == needle {
                out.push((i + 1) as u32);
            }
        }
        i += 2;
    }
    while i < n {
        if haystack[i] == needle {
            out.push(i as u32);
        }
        i += 1;
    }
}
