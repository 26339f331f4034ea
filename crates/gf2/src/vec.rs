//! Fixed-capacity bit-vectors over GF(2).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign};

/// Maximum number of bits a [`Gf2Vec`] can hold.
///
/// 128 variables is far beyond what SPP minimization can handle in practice
/// (the ESPRESSO benchmarks of the paper have at most 14 inputs), so a
/// fixed-capacity `Copy` representation is both sufficient and much faster
/// than a heap-allocated bit-vector.
pub const MAX_BITS: usize = 128;

const WORDS: usize = MAX_BITS / 64;

/// A vector over GF(2) with a fixed length of at most [`MAX_BITS`] bits.
///
/// Bit `i` corresponds to variable `x_i`. Unused bits above `len` are kept
/// zero as an internal invariant, so equality and hashing are well-defined.
///
/// The [`Ord`] implementation compares two equal-length vectors as the rows
/// of the paper's canonical matrices are compared: as binary numbers where
/// **bit 0 (`x_0`) is the most significant digit**.
///
/// # Examples
///
/// ```
/// use spp_gf2::Gf2Vec;
///
/// let mut v = Gf2Vec::zeros(6);
/// v.set(1, true);
/// v.set(3, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.to_string(), "010100");
/// assert_eq!(v, Gf2Vec::from_index_bits(6, &[1, 3]));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gf2Vec {
    words: [u64; WORDS],
    len: u16,
}

impl Gf2Vec {
    /// Creates the all-zero vector of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`.
    #[must_use]
    #[inline]
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_BITS, "Gf2Vec length {len} exceeds {MAX_BITS}");
        Gf2Vec { words: [0; WORDS], len: len as u16 }
    }

    /// Creates the all-one vector of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector of length `len` whose lowest 64 bits are taken from
    /// `bits` (bit `i` of the integer becomes coordinate `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS`, or if `bits` has a set bit at or above
    /// position `len`.
    #[must_use]
    #[inline]
    pub fn from_u64(len: usize, bits: u64) -> Self {
        let mut v = Self::zeros(len);
        assert!(
            len >= 64 || bits < (1u64 << len),
            "bit pattern {bits:#x} does not fit in {len} bits"
        );
        v.words[0] = bits;
        v
    }

    /// Creates a vector of length `len` with ones exactly at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_BITS` or any index is out of range.
    #[must_use]
    pub fn from_index_bits(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Creates a vector from a slice of booleans (`bits[i]` becomes `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > MAX_BITS`.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Parses a string of `'0'`/`'1'` characters, index 0 first.
    ///
    /// Returns `None` if the string is longer than [`MAX_BITS`] or contains
    /// other characters.
    #[must_use]
    pub fn from_bit_str(s: &str) -> Option<Self> {
        if s.len() > MAX_BITS {
            return None;
        }
        let mut v = Self::zeros(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => v.set(i, true),
                _ => return None,
            }
        }
        Some(v)
    }

    /// The number of bits in this vector.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector has length zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit index {i} out of range for length {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len(), "bit index {i} out of range for length {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Returns a copy of the vector with bit `i` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn with_bit(mut self, i: usize, value: bool) -> Self {
        self.set(i, value);
        self
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len(), "bit index {i} out of range for length {}", self.len);
        self.words[i / 64] ^= 1 << (i % 64);
    }

    /// The backing words, least-significant first. Bits at positions
    /// `>= len()` are zero by invariant. For word-level consumers (digest
    /// folding) that want to skip the unused tail, the used
    /// word count is `len().div_ceil(64)`.
    #[must_use]
    #[inline]
    pub fn as_words(&self) -> [u64; 2] {
        self.words
    }

    /// The number of set bits (Hamming weight).
    #[must_use]
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether all bits are zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The index of the lowest set bit, or `None` if the vector is zero.
    ///
    /// In the SPP algorithms this is the *pivot* of an echelon-basis row,
    /// i.e. the canonical variable the row introduces.
    #[must_use]
    #[inline]
    pub fn lowest_set_bit(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The index of the highest set bit, or `None` if the vector is zero.
    #[must_use]
    pub fn highest_set_bit(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the indices of set bits in increasing order.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_gf2::Gf2Vec;
    ///
    /// let v = Gf2Vec::from_index_bits(8, &[1, 5, 6]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 5, 6]);
    /// ```
    #[must_use]
    pub fn iter_ones(&self) -> OnesIter {
        OnesIter { words: self.words, word_idx: 0 }
    }

    /// Interprets the lowest 64 bits as an integer (bit `i` of the result is
    /// coordinate `x_i`).
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits and has set bits above
    /// position 63.
    #[must_use]
    pub fn to_u64(&self) -> u64 {
        assert!(
            self.words[1..].iter().all(|&w| w == 0),
            "Gf2Vec does not fit in a u64"
        );
        self.words[0]
    }

    /// Whether `self` and `other` have the same length.
    #[must_use]
    #[inline]
    pub fn same_len(&self, other: &Self) -> bool {
        self.len == other.len
    }

    #[inline]
    fn assert_same_len(&self, other: &Self) {
        assert!(
            self.same_len(other),
            "length mismatch: {} vs {}",
            self.len,
            other.len
        );
    }

    /// Whether the set bits of `self` are a subset of those of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.assert_same_len(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }
}

/// Iterator over the set-bit indices of a [`Gf2Vec`], produced by
/// [`Gf2Vec::iter_ones`].
#[derive(Clone, Debug)]
pub struct OnesIter {
    words: [u64; WORDS],
    word_idx: usize,
}

impl Iterator for OnesIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word_idx < WORDS {
            let w = self.words[self.word_idx];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.word_idx] &= w - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
        }
        None
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $assign_trait for Gf2Vec {
            #[inline]
            fn $assign_method(&mut self, rhs: Self) {
                self.assert_same_len(&rhs);
                for (a, b) in self.words.iter_mut().zip(rhs.words.iter()) {
                    *a $op b;
                }
            }
        }

        impl $trait for Gf2Vec {
            type Output = Gf2Vec;

            #[inline]
            fn $method(mut self, rhs: Self) -> Gf2Vec {
                use $assign_trait;
                self.$assign_method(rhs);
                self
            }
        }
    };
}

impl_bitop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);
impl_bitop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
impl_bitop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);

impl PartialOrd for Gf2Vec {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gf2Vec {
    /// Row order of the paper's canonical matrices: vectors are compared as
    /// binary numbers with `x_0` as the most significant digit. Shorter
    /// vectors order before longer ones.
    ///
    /// Word-level: the first differing word's lowest differing bit is the
    /// most significant position where the vectors disagree, and whichever
    /// vector has a one there is the greater (bits at positions ≥ `len`
    /// are zero by invariant, so they never differ).
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.len.cmp(&other.len).then_with(|| {
            for (&a, &b) in self.words.iter().zip(other.words.iter()) {
                let diff = a ^ b;
                if diff != 0 {
                    let low = diff & diff.wrapping_neg();
                    return if a & low != 0 { Ordering::Greater } else { Ordering::Less };
                }
            }
            Ordering::Equal
        })
    }
}

impl fmt::Display for Gf2Vec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len() {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl fmt::Debug for Gf2Vec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Vec({self})")
    }
}

impl fmt::Binary for Gf2Vec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_zero() {
        let v = Gf2Vec::zeros(10);
        assert!(v.is_zero());
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.is_empty());
        assert!(Gf2Vec::zeros(0).is_empty());
    }

    #[test]
    fn ones_all_set() {
        let v = Gf2Vec::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.lowest_set_bit(), Some(0));
        assert_eq!(v.highest_set_bit(), Some(69));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = Gf2Vec::zeros(100);
        for i in (0..100).step_by(7) {
            v.set(i, true);
        }
        for i in 0..100 {
            assert_eq!(v.get(i), i % 7 == 0, "bit {i}");
        }
    }

    #[test]
    fn set_false_clears() {
        let mut v = Gf2Vec::ones(5);
        v.set(2, false);
        assert_eq!(v.to_string(), "11011");
    }

    #[test]
    fn flip_toggles() {
        let mut v = Gf2Vec::zeros(4);
        v.flip(1);
        assert!(v.get(1));
        v.flip(1);
        assert!(!v.get(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = Gf2Vec::zeros(4).get(4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_long_panics() {
        let _ = Gf2Vec::zeros(MAX_BITS + 1);
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let a = Gf2Vec::from_index_bits(8, &[0, 1, 2]);
        let b = Gf2Vec::from_index_bits(8, &[1, 2, 3]);
        assert_eq!(a ^ b, Gf2Vec::from_index_bits(8, &[0, 3]));
    }

    #[test]
    fn and_or_work() {
        let a = Gf2Vec::from_index_bits(8, &[0, 1, 2]);
        let b = Gf2Vec::from_index_bits(8, &[1, 2, 3]);
        assert_eq!(a & b, Gf2Vec::from_index_bits(8, &[1, 2]));
        assert_eq!(a | b, Gf2Vec::from_index_bits(8, &[0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_length_mismatch_panics() {
        let _ = Gf2Vec::zeros(4) ^ Gf2Vec::zeros(5);
    }

    #[test]
    fn lowest_highest_set_bit() {
        assert_eq!(Gf2Vec::zeros(9).lowest_set_bit(), None);
        assert_eq!(Gf2Vec::zeros(9).highest_set_bit(), None);
        let v = Gf2Vec::from_index_bits(90, &[5, 66, 80]);
        assert_eq!(v.lowest_set_bit(), Some(5));
        assert_eq!(v.highest_set_bit(), Some(80));
    }

    #[test]
    fn iter_ones_in_order() {
        let v = Gf2Vec::from_index_bits(128, &[0, 63, 64, 127]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127]);
    }

    #[test]
    fn from_u64_roundtrip() {
        let v = Gf2Vec::from_u64(10, 0b1010110101);
        assert_eq!(v.to_u64(), 0b1010110101);
        assert_eq!(v.to_string(), "1010110101");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_overflow_panics() {
        let _ = Gf2Vec::from_u64(3, 0b1000);
    }

    #[test]
    fn from_bit_str_parses() {
        let v = Gf2Vec::from_bit_str("0101").unwrap();
        assert_eq!(v, Gf2Vec::from_index_bits(4, &[1, 3]));
        assert!(Gf2Vec::from_bit_str("01x").is_none());
    }

    #[test]
    fn from_bools_matches() {
        let v = Gf2Vec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
    }

    #[test]
    fn row_order_msb_is_x0() {
        // 011 as a row reads as binary 011 = 3; 100 reads as 4.
        let a = Gf2Vec::from_bit_str("011").unwrap();
        let b = Gf2Vec::from_bit_str("100").unwrap();
        assert!(a < b);
        let mut rows = [b, a];
        rows.sort();
        assert_eq!(rows[0].to_string(), "011");
    }

    #[test]
    fn subset_relation() {
        let a = Gf2Vec::from_index_bits(8, &[1, 2]);
        let b = Gf2Vec::from_index_bits(8, &[1, 2, 5]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(Gf2Vec::zeros(8).is_subset_of(&a));
    }

    #[test]
    fn equality_ignores_nothing_beyond_len() {
        // Two vectors built differently but with equal bits must be equal.
        let mut a = Gf2Vec::zeros(5);
        a.set(3, true);
        let b = Gf2Vec::from_index_bits(5, &[3]);
        assert_eq!(a, b);
        // Different length, same bits: not equal.
        let c = Gf2Vec::from_index_bits(6, &[3]);
        assert_ne!(format!("{a}"), format!("{c}"));
    }

    #[test]
    fn display_debug_nonempty() {
        let v = Gf2Vec::zeros(3);
        assert_eq!(format!("{v}"), "000");
        assert_eq!(format!("{v:?}"), "Gf2Vec(000)");
        assert_eq!(format!("{:?}", Gf2Vec::zeros(0)), "Gf2Vec()");
    }
}
