//! A growable, heap-allocated bitset for covering matrices.
//!
//! The word-level methods (popcounts, subset tests, masked unions) are
//! plain portable loops over `u64` words, one body per operation.

use std::fmt;

/// Result of [`BitSet::lone_one_in`]: how many bits `a ∩ b` has,
/// collapsed to the three cases the essential-row scan distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoneOne {
    /// The intersection is empty.
    None,
    /// Exactly one bit is set; its index is reported.
    One(usize),
    /// Two or more bits are set.
    Many,
}

/// A fixed-length, heap-allocated bitset.
///
/// Unlike `spp_gf2::Gf2Vec` (a small `Copy` vector over GF(2) used for
/// points and structures), `BitSet` scales to the thousands of rows of a
/// covering matrix.
///
/// # Examples
///
/// ```
/// use spp_cover::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.set(3, true);
/// s.set(99, true);
/// assert_eq!(s.count_ones(), 2);
/// assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an all-zero bitset of `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Creates a bitset of `len` bits with ones at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = Self::new(len);
        for &i in indices {
            s.set(i, true);
        }
        s
    }

    /// Creates an all-one bitset of `len` bits.
    #[must_use]
    pub fn all_ones(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.mask_tail();
        s
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The number of bits.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset has zero length.
    #[must_use]
    #[inline]
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
        assert!(i < self.len, "bit index {i} out of range for length {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range for length {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The number of set bits.
    #[must_use]
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    #[must_use]
    #[inline]
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d |= s;
        }
    }

    /// In-place intersection: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d &= s;
        }
    }

    /// In-place difference: `self &= !other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (d, s) in self.words.iter_mut().zip(&other.words) {
            *d &= !s;
        }
    }

    /// Word-level popcount of `self & other` — the covering engine's
    /// "how many active rows does this column still cover" kernel.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn and_count_ones(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.iter().zip(&other.words).map(|(x, y)| (x & y).count_ones() as usize).sum()
    }

    /// Popcount of `self & other` together with the OR-fold of its words,
    /// in one sweep. The fold is subset-monotone (if `a & m ⊆ b & m`
    /// word-wise, the folds are ⊆ too), so it serves as a 64-bit signature
    /// that cheaply rejects most subset candidates before a span test.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn and_count_ones_fold(&self, other: &BitSet) -> (usize, u64) {
        assert_eq!(self.len, other.len, "length mismatch");
        let mut count = 0usize;
        let mut fold = 0u64;
        for (x, y) in self.words.iter().zip(&other.words) {
            let w = x & y;
            count += w.count_ones() as usize;
            fold |= w;
        }
        (count, fold)
    }

    /// The index of the first bit set in both `self` and `other`, or
    /// `None` — the "single remaining column of an essential row" kernel.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn first_one_in(&self, other: &BitSet) -> Option<usize> {
        assert_eq!(self.len, other.len, "length mismatch");
        for (wi, (x, y)) in self.words.iter().zip(&other.words).enumerate() {
            let w = x & y;
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Whether `self & other` has zero, exactly one (and which), or many
    /// set bits — the fused kernel behind the essential-row scan, which
    /// needs the count-to-two and the lone bit's position in one pass.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn lone_one_in(&self, other: &BitSet) -> LoneOne {
        assert_eq!(self.len, other.len, "length mismatch");
        let mut found: Option<usize> = None;
        for (wi, (x, y)) in self.words.iter().zip(&other.words).enumerate() {
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

    /// Whether `self & mask ⊆ other & mask`: the dominance-pass subset
    /// test restricted to the still-active universe, without building
    /// either masked set.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn is_subset_within(&self, other: &BitSet, mask: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        assert_eq!(self.len, mask.len, "length mismatch");
        self.words.iter().zip(&other.words).zip(&mask.words).all(|((x, y), m)| x & m & !y == 0)
    }

    /// In-place masked union: `self |= other & mask`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn union_with_masked(&mut self, other: &BitSet, mask: &BitSet) {
        assert_eq!(self.len, other.len, "length mismatch");
        assert_eq!(self.len, mask.len, "length mismatch");
        for ((d, s), m) in self.words.iter_mut().zip(&other.words).zip(&mask.words) {
            *d |= s & m;
        }
    }

    /// Clears every bit in place, keeping the allocation — the reset of a
    /// reusable scratch buffer.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Overwrites `self` with `other` in place (same-length copy without
    /// reallocating) — scratch buffers are recycled, never rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Whether `self` and `other` share at least one set bit.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.iter().zip(&other.words).any(|(x, y)| x & y != 0)
    }

    /// Whether every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[must_use]
    #[inline]
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.iter().zip(&other.words).all(|(x, y)| x & !y == 0)
    }

    /// Iterates over set-bit indices in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| word_ones(wi, w))
    }

    /// Iterates over the indices set in both `self` and `other`, in
    /// increasing order, without building the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub(crate) fn iter_ones_and<'a>(
        &'a self,
        other: &'a BitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(wi, (&a, &b))| word_ones(wi, a & b))
    }

    /// The backing words, bit `i` at bit `i % 64` of word `i / 64`; bits
    /// past `len` are zero.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The index of the first set bit, or `None`.
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The set-bit indices of word `wi` (value `w`) of a bitset, ascending.
pub(crate) fn word_ones(wi: usize, mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if w == 0 {
            None
        } else {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + bit)
        }
    })
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet(len={}, ones={})", self.len, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let s = BitSet::new(130);
        assert!(s.none());
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn all_ones_masks_tail() {
        let s = BitSet::all_ones(70);
        assert_eq!(s.count_ones(), 70);
        assert_eq!(s.iter_ones().last(), Some(69));
    }

    #[test]
    fn set_get() {
        let mut s = BitSet::new(65);
        s.set(64, true);
        assert!(s.get(64));
        assert!(!s.get(63));
        s.set(64, false);
        assert!(s.none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = BitSet::new(10).get(10);
    }

    #[test]
    fn set_ops() {
        let a = BitSet::from_indices(100, &[1, 50, 99]);
        let b = BitSet::from_indices(100, &[50, 99, 3]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_ones(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![50, 99]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.and_count_ones(&b), 2);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&BitSet::new(100)));
    }

    #[test]
    fn subset_relation() {
        let a = BitSet::from_indices(10, &[2, 5]);
        let b = BitSet::from_indices(10, &[2, 5, 7]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(BitSet::new(10).is_subset_of(&a));
    }

    #[test]
    fn first_one_and_iter() {
        let s = BitSet::from_indices(200, &[70, 199]);
        assert_eq!(s.first_one(), Some(70));
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![70, 199]);
        assert_eq!(BitSet::new(5).first_one(), None);
    }

    #[test]
    fn word_level_kernels() {
        let a = BitSet::from_indices(200, &[1, 70, 130, 199]);
        let b = BitSet::from_indices(200, &[70, 130, 131]);
        assert_eq!(a.and_count_ones(&b), 2);
        assert_eq!(a.first_one_in(&b), Some(70));
        assert_eq!(a.first_one_in(&BitSet::new(200)), None);
    }

    #[test]
    fn lone_one_in_distinguishes_none_one_many() {
        let row = BitSet::from_indices(200, &[1, 70, 130, 199]);
        assert_eq!(row.lone_one_in(&BitSet::new(200)), LoneOne::None);
        assert_eq!(row.lone_one_in(&BitSet::from_indices(200, &[70, 71])), LoneOne::One(70));
        assert_eq!(row.lone_one_in(&BitSet::from_indices(200, &[70, 130])), LoneOne::Many);
        assert_eq!(row.lone_one_in(&BitSet::from_indices(200, &[1, 199])), LoneOne::Many);
    }

    #[test]
    fn masked_subset_ignores_bits_outside_the_mask() {
        let a = BitSet::from_indices(100, &[1, 50, 99]);
        let b = BitSet::from_indices(100, &[50]);
        let mask = BitSet::from_indices(100, &[50, 99]);
        // Unmasked: a ⊄ b. Within {50, 99}: a∩mask = {50, 99} ⊄ {50}.
        assert!(!a.is_subset_within(&b, &mask));
        let mask = BitSet::from_indices(100, &[50]);
        assert!(a.is_subset_within(&b, &mask));
        // Bit 1 of `a` lies outside every mask above and never matters.
        assert!(b.is_subset_within(&a, &BitSet::all_ones(100)));
    }

    #[test]
    fn masked_union_and_scratch_reuse() {
        let mut acc = BitSet::new(100);
        let src = BitSet::from_indices(100, &[3, 64, 90]);
        let mask = BitSet::from_indices(100, &[64, 90, 91]);
        acc.union_with_masked(&src, &mask);
        assert_eq!(acc.iter_ones().collect::<Vec<_>>(), vec![64, 90]);
        acc.clear();
        assert!(acc.none());
        acc.copy_from(&src);
        assert_eq!(acc, src);
    }

    #[test]
    fn zero_length_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert!(s.none());
        assert_eq!(s.iter_ones().count(), 0);
    }
}
