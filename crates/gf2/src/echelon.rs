//! Reduced echelon bases of linear subspaces of GF(2)^n.

use std::fmt;

use crate::Gf2Vec;

/// A linear subspace of GF(2)^n in *reduced echelon form*.
///
/// Each basis row has a distinct *pivot*: its lowest set bit. Pivots are kept
/// strictly increasing and every pivot column is zero in all other rows.
/// This normal form is unique per subspace, so `EchelonBasis` equality is
/// subspace equality, and hashing a basis hashes the subspace.
///
/// In SPP terms (Ciriani, DAC 2001): a pseudocube is an affine subspace
/// `rep ⊕ W`; this type represents `W`, its pivots are the paper's
/// **canonical variables**, and the basis itself is the pseudocube's
/// **structure** (Definition 2) — two pseudocubes can be united into a larger
/// pseudocube iff their `EchelonBasis` are equal (Theorem 1).
///
/// A basis of dimension at most 8 keeps its rows and pivots inline, in
/// fixed arrays inside the value, so building, cloning or dropping it never
/// touches the heap; every pseudocube of a function of at most 8 inputs is
/// such a basis. A larger basis spills its rows and pivots to the heap, once,
/// when an insertion crosses the inline capacity. Where the rows live changes
/// nothing observable: [`rows`](Self::rows) and [`pivots`](Self::pivots) are
/// slices either way, and equality, order, hashing and the digest read only
/// those slices.
///
/// # Examples
///
/// ```
/// use spp_gf2::{EchelonBasis, Gf2Vec};
///
/// let mut w = EchelonBasis::new(4);
/// assert!(w.insert(Gf2Vec::from_bit_str("0110").unwrap()));
/// assert!(w.insert(Gf2Vec::from_bit_str("1010").unwrap()));
/// assert!(!w.insert(Gf2Vec::from_bit_str("1100").unwrap())); // dependent
/// assert_eq!(w.dim(), 2);
/// assert_eq!(w.pivots(), &[0, 1]);
/// ```
#[derive(Clone)]
pub struct EchelonBasis {
    n: u16,
    /// FNV-1a digest of `(n, rows)`, maintained by [`EchelonBasis::insert`]
    /// (the only mutator). The reduced echelon form is canonical per
    /// subspace, so equal subspaces always carry equal digests — which makes
    /// `Hash` O(1) and lets `PartialEq` bail out early on a mismatch. The
    /// generator's open-level dedup hashes and compares structures many
    /// times per level; caching here is what keeps that cheap.
    hash: u64,
    store: Store,
}

/// The largest dimension whose rows and pivots an [`EchelonBasis`] keeps
/// inline.
const INLINE: usize = 8;

/// Where an [`EchelonBasis`] keeps its rows and pivots, in pivot order.
#[derive(Clone)]
enum Store {
    /// At most [`INLINE`] rows: the first `len` entries of each array.
    Inline { len: u8, pivots: [u16; INLINE], rows: [Gf2Vec; INLINE] },
    /// More than [`INLINE`] rows.
    Spilled { rows: Vec<Gf2Vec>, pivots: Vec<u16> },
}

impl Store {
    fn rows(&self) -> &[Gf2Vec] {
        match self {
            Store::Inline { len, rows, .. } => &rows[..usize::from(*len)],
            Store::Spilled { rows, .. } => rows,
        }
    }

    fn pivots(&self) -> &[u16] {
        match self {
            Store::Inline { len, pivots, .. } => &pivots[..usize::from(*len)],
            Store::Spilled { pivots, .. } => pivots,
        }
    }

    fn rows_mut(&mut self) -> &mut [Gf2Vec] {
        match self {
            Store::Inline { len, rows, .. } => &mut rows[..usize::from(*len)],
            Store::Spilled { rows, .. } => rows,
        }
    }

    /// Inserts `row` with pivot `pivot` at position `pos`, spilling to the
    /// heap when the inline arrays are full.
    fn insert(&mut self, pos: usize, row: Gf2Vec, pivot: u16) {
        match self {
            Store::Inline { len, pivots, rows } if usize::from(*len) < INLINE => {
                let end = usize::from(*len);
                rows.copy_within(pos..end, pos + 1);
                pivots.copy_within(pos..end, pos + 1);
                rows[pos] = row;
                pivots[pos] = pivot;
                *len += 1;
            }
            Store::Inline { pivots: inline_pivots, rows: inline_rows, .. } => {
                let mut rows = Vec::with_capacity(2 * INLINE);
                rows.extend_from_slice(inline_rows);
                rows.insert(pos, row);
                let mut pivots = Vec::with_capacity(2 * INLINE);
                pivots.extend_from_slice(inline_pivots);
                pivots.insert(pos, pivot);
                *self = Store::Spilled { rows, pivots };
            }
            Store::Spilled { rows, pivots } => {
                rows.insert(pos, row);
                pivots.insert(pos, pivot);
            }
        }
    }
}

/// `EchelonBasis` equality must stay consistent with the cached digest, so
/// these impls are manual: `eq` fast-paths on the digest, `Hash` emits it,
/// and `Ord` replicates the former derived `(n, rows, pivots)` ordering
/// (which downstream types rely on for canonical sort order).
impl PartialEq for EchelonBasis {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.n == other.n && self.rows() == other.rows()
    }
}

impl Eq for EchelonBasis {}

impl std::hash::Hash for EchelonBasis {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Ord for EchelonBasis {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.n
            .cmp(&other.n)
            .then_with(|| self.rows().cmp(other.rows()))
            .then_with(|| self.pivots().cmp(other.pivots()))
    }
}

impl PartialOrd for EchelonBasis {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Fixed-key FNV-1a, so digests are deterministic across runs and across
/// threads (a `RandomState` digest could not be shared between workers).
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    // Whole-word folds: one multiply per word instead of eight. The digest
    // is still deterministic across runs and threads (all it needs to be).
    // A row's `[u64; 2]` arrives here as one 16-byte slice, so `write`
    // folds it eight bytes at a time too; only a tail shorter than a word
    // takes the byte-wise path.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

impl EchelonBasis {
    /// Creates the zero subspace of GF(2)^n.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_BITS`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= crate::MAX_BITS, "dimension {n} exceeds {}", crate::MAX_BITS);
        let store = Store::Inline {
            len: 0,
            pivots: [0; INLINE],
            rows: [Gf2Vec::zeros(0); INLINE],
        };
        let mut basis = EchelonBasis { n: n as u16, hash: 0, store };
        basis.recompute_hash();
        basis
    }

    /// Builds the subspace spanned by `vectors`.
    ///
    /// # Panics
    ///
    /// Panics if any vector has length other than `n`.
    #[must_use]
    pub fn from_span(n: usize, vectors: &[Gf2Vec]) -> Self {
        let mut basis = Self::new(n);
        for &v in vectors {
            basis.insert(v);
        }
        basis
    }

    /// The ambient dimension `n`.
    #[must_use]
    pub fn ambient_dim(&self) -> usize {
        self.n as usize
    }

    /// The dimension `m` of the subspace (number of basis rows).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows().len()
    }

    /// The basis rows, in pivot order.
    #[must_use]
    pub fn rows(&self) -> &[Gf2Vec] {
        self.store.rows()
    }

    /// The pivot positions (the paper's canonical variables), strictly
    /// increasing. `pivots()[j]` is the pivot of `rows()[j]`.
    #[must_use]
    pub fn pivots(&self) -> &[u16] {
        self.store.pivots()
    }

    /// Whether variable `i` is a pivot (canonical) position.
    #[must_use]
    pub fn is_pivot(&self, i: usize) -> bool {
        self.pivots().binary_search(&(i as u16)).is_ok()
    }

    /// Reduces `v` modulo the subspace: XORs away every basis row whose
    /// pivot is set in `v`. The result has zeros at all pivot positions and
    /// is the canonical coset representative of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ambient_dim()`.
    #[must_use]
    pub fn reduce(&self, mut v: Gf2Vec) -> Gf2Vec {
        assert_eq!(v.len(), self.ambient_dim(), "vector length must match ambient dim");
        for (row, &p) in self.rows().iter().zip(self.pivots()) {
            if v.get(p as usize) {
                v ^= *row;
            }
        }
        v
    }

    /// Whether `v` belongs to the subspace.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ambient_dim()`.
    #[must_use]
    pub fn contains(&self, v: &Gf2Vec) -> bool {
        self.reduce(*v).is_zero()
    }

    /// Inserts `v` into the basis. Returns `true` if `v` was independent
    /// (the dimension grew), `false` if it was already in the span.
    ///
    /// The reduced echelon invariant is restored after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.ambient_dim()`.
    pub fn insert(&mut self, v: Gf2Vec) -> bool {
        let reduced = self.reduce(v);
        let Some(p) = reduced.lowest_set_bit() else {
            return false;
        };
        // Clear the new pivot column in existing rows.
        for row in self.store.rows_mut() {
            if row.get(p) {
                *row ^= reduced;
            }
        }
        let pos = self.pivots().partition_point(|&q| (q as usize) < p);
        self.store.insert(pos, reduced, p as u16);
        self.recompute_hash();
        true
    }

    /// A cached 64-bit digest of the subspace (its reduced normal form),
    /// free to read. Equal subspaces have equal digests. The generator uses
    /// it to shard same-structure groups across dedup domains without
    /// rehashing basis rows.
    #[must_use]
    pub fn structure_hash(&self) -> u64 {
        self.hash
    }

    fn recompute_hash(&mut self) {
        use std::hash::{Hash, Hasher};
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.n.hash(&mut h);
        self.rows().hash(&mut h);
        self.hash = h.finish();
    }

    /// Returns the subspace extended by `v`, or `None` if `v` is already in
    /// the span (so the extension would not grow the dimension).
    #[must_use]
    pub fn extended(&self, v: Gf2Vec) -> Option<EchelonBasis> {
        let mut bigger = self.clone();
        bigger.insert(v).then_some(bigger)
    }

    /// Whether `self` is a subspace of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the ambient dimensions differ.
    #[must_use]
    pub fn is_subspace_of(&self, other: &EchelonBasis) -> bool {
        assert_eq!(self.n, other.n, "ambient dimensions must match");
        self.rows().iter().all(|r| other.contains(r))
    }

    /// Iterates over all `2^m` members of the coset `rep ⊕ W` in Gray-code
    /// order (each step flips by a single basis row), starting from `rep`.
    ///
    /// # Panics
    ///
    /// Panics if `rep.len() != self.ambient_dim()` or if the subspace
    /// dimension exceeds 63 (such cosets cannot be materialized anyway).
    #[must_use]
    pub fn coset_iter(&self, rep: Gf2Vec) -> CosetIter<'_> {
        assert_eq!(rep.len(), self.ambient_dim(), "rep length must match ambient dim");
        assert!(self.dim() <= 63, "coset of dimension {} is too large to enumerate", self.dim());
        CosetIter { basis: self, current: rep, index: 0 }
    }

    /// Enumerates all `2^m − 1` hyperplane subspaces (dimension `m − 1`) of
    /// this subspace, per Theorem 2 of the paper.
    ///
    /// Each [`Hyperplane`] carries the sub-basis `W'` and an `offset` vector
    /// in `W ∖ W'`, so the two cosets of `W'` inside a coset `rep ⊕ W` are
    /// `rep' ⊕ W'` and `(rep' ⊕ offset) ⊕ W'`.
    ///
    /// # Panics
    ///
    /// Panics if the subspace dimension exceeds 30 (the enumeration would
    /// not fit in memory).
    #[must_use]
    pub fn hyperplanes(&self) -> Vec<Hyperplane> {
        let m = self.dim();
        assert!(m <= 30, "hyperplane enumeration of dimension {m} is too large");
        let mut out = Vec::new();
        if m == 0 {
            return out;
        }
        // Each hyperplane of W is the kernel of a nonzero functional c on
        // the coordinates over the basis rows.
        for c in 1u64..(1 << m) {
            let j0 = c.trailing_zeros() as usize;
            let mut sub = EchelonBasis::new(self.ambient_dim());
            for j in 0..m {
                if j == j0 {
                    continue;
                }
                let mut v = self.rows()[j];
                if (c >> j) & 1 == 1 {
                    v ^= self.rows()[j0];
                }
                sub.insert(v);
            }
            debug_assert_eq!(sub.dim(), m - 1);
            out.push(Hyperplane { basis: sub, offset: self.rows()[j0] });
        }
        out
    }
}

impl fmt::Debug for EchelonBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EchelonBasis(n={}, dim={})", self.n, self.dim())?;
        for row in self.rows() {
            write!(f, " {row}")?;
        }
        Ok(())
    }
}

impl fmt::Display for EchelonBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows().is_empty() {
            return write!(f, "{{0}}");
        }
        for (i, row) in self.rows().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{row}")?;
        }
        Ok(())
    }
}

/// A hyperplane subspace of an [`EchelonBasis`], produced by
/// [`EchelonBasis::hyperplanes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hyperplane {
    /// The (m−1)-dimensional subspace `W' ⊂ W`.
    pub basis: EchelonBasis,
    /// A vector of `W ∖ W'` separating the two cosets of `W'` inside `W`.
    pub offset: Gf2Vec,
}

/// Iterator over the members of a coset, produced by
/// [`EchelonBasis::coset_iter`].
#[derive(Clone, Debug)]
pub struct CosetIter<'a> {
    basis: &'a EchelonBasis,
    current: Gf2Vec,
    index: u64,
}

impl Iterator for CosetIter<'_> {
    type Item = Gf2Vec;

    fn next(&mut self) -> Option<Gf2Vec> {
        let total = 1u64 << self.basis.dim();
        if self.index >= total {
            return None;
        }
        let out = self.current;
        self.index += 1;
        if self.index < total {
            // Gray code: flip the basis row indexed by the changing bit.
            let gray_prev = (self.index - 1) ^ ((self.index - 1) >> 1);
            let gray_next = self.index ^ (self.index >> 1);
            let flip = (gray_prev ^ gray_next).trailing_zeros() as usize;
            self.current ^= self.basis.rows()[flip];
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = ((1u64 << self.basis.dim()) - self.index) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CosetIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    #[test]
    fn paper_figure1_pivots_are_canonical_variables() {
        // Direction space of the pseudocube of Figure 1: differences of the
        // rows span {000011, 001100, 100101}.
        let w = EchelonBasis::from_span(6, &[v("000011"), v("001100"), v("100101")]);
        assert_eq!(w.dim(), 3);
        assert_eq!(w.pivots(), &[0, 2, 4]); // canonical columns c0, c2, c4
    }

    #[test]
    fn insert_reports_dependence() {
        let mut w = EchelonBasis::new(3);
        assert!(w.insert(v("110")));
        assert!(w.insert(v("011")));
        assert!(!w.insert(v("101")));
        assert_eq!(w.dim(), 2);
    }

    #[test]
    fn zero_vector_never_inserts() {
        let mut w = EchelonBasis::new(3);
        assert!(!w.insert(v("000")));
        assert_eq!(w.dim(), 0);
    }

    #[test]
    fn reduced_form_is_unique() {
        // Same subspace from different spanning sets must normalize equal.
        let a = EchelonBasis::from_span(4, &[v("1100"), v("0110")]);
        let b = EchelonBasis::from_span(4, &[v("1010"), v("0110")]);
        assert_eq!(a, b);
        // Pivot columns are zero in all other rows.
        for (i, &p) in a.pivots().iter().enumerate() {
            for (j, row) in a.rows().iter().enumerate() {
                assert_eq!(row.get(p as usize), i == j);
            }
        }
    }

    #[test]
    fn reduce_clears_pivot_positions() {
        let w = EchelonBasis::from_span(4, &[v("1100"), v("0110")]);
        let r = w.reduce(v("1111"));
        for &p in w.pivots() {
            assert!(!r.get(p as usize));
        }
        // Reduction is idempotent.
        assert_eq!(w.reduce(r), r);
    }

    #[test]
    fn contains_span_members() {
        let w = EchelonBasis::from_span(4, &[v("1100"), v("0110")]);
        assert!(w.contains(&v("1010")));
        assert!(w.contains(&v("0000")));
        assert!(!w.contains(&v("0001")));
    }

    #[test]
    fn extended_grows_or_rejects() {
        let w = EchelonBasis::from_span(4, &[v("1100")]);
        assert!(w.extended(v("1100")).is_none());
        let bigger = w.extended(v("0011")).unwrap();
        assert_eq!(bigger.dim(), 2);
        assert!(w.is_subspace_of(&bigger));
        assert!(!bigger.is_subspace_of(&w));
    }

    #[test]
    fn coset_iter_yields_all_members_once() {
        let w = EchelonBasis::from_span(4, &[v("1100"), v("0011")]);
        let rep = v("0100");
        let members: Vec<_> = w.coset_iter(rep).collect();
        assert_eq!(members.len(), 4);
        let mut unique = members.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        for p in &members {
            assert!(w.contains(&(*p ^ rep)));
        }
    }

    #[test]
    fn coset_iter_of_zero_space_is_singleton() {
        let w = EchelonBasis::new(3);
        let members: Vec<_> = w.coset_iter(v("101")).collect();
        assert_eq!(members, vec![v("101")]);
    }

    #[test]
    fn hyperplanes_count_and_structure() {
        let w = EchelonBasis::from_span(5, &[v("11000"), v("00110"), v("00001")]);
        let hs = w.hyperplanes();
        assert_eq!(hs.len(), 7); // 2^3 - 1
        let mut seen = std::collections::HashSet::new();
        for h in &hs {
            assert_eq!(h.basis.dim(), 2);
            assert!(h.basis.is_subspace_of(&w));
            assert!(w.contains(&h.offset));
            assert!(!h.basis.contains(&h.offset));
            assert!(seen.insert(h.basis.clone()), "hyperplanes must be distinct");
        }
    }

    #[test]
    fn hyperplanes_of_zero_and_line() {
        assert!(EchelonBasis::new(4).hyperplanes().is_empty());
        let line = EchelonBasis::from_span(4, &[v("1010")]);
        let hs = line.hyperplanes();
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].basis.dim(), 0);
        assert_eq!(hs[0].offset, v("1010"));
    }

    #[test]
    fn display_debug_nonempty() {
        let w = EchelonBasis::new(4);
        assert_eq!(w.to_string(), "{0}");
        assert!(format!("{w:?}").contains("dim=0"));
    }

    #[test]
    fn structure_hash_agrees_with_equality() {
        // Same span built from different generator sets — same reduced
        // normal form, so same digest.
        let a = EchelonBasis::from_span(4, &[v("0110"), v("1010")]);
        let b = EchelonBasis::from_span(4, &[v("1100"), v("0110")]);
        assert_eq!(a, b);
        assert_eq!(a.structure_hash(), b.structure_hash());

        let c = EchelonBasis::from_span(4, &[v("0110")]);
        assert_ne!(a, c);
        assert_ne!(a.structure_hash(), c.structure_hash());

        // The digest tracks mutation.
        let mut d = c.clone();
        assert!(d.insert(v("1010")));
        assert_eq!(d.structure_hash(), a.structure_hash());
    }

    #[test]
    fn structure_hash_is_a_word_fold_of_the_normal_form() {
        // What `(n, rows).hash` feeds the digest: `n`, the row count, then
        // per row its word count, its two words and its length, each one
        // folded as a whole word (one multiply per word, none per byte).
        let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        // Spilled bases fold the same way: `e_i + e_{n-1}` for `i < dim`
        // are reduced rows, at and past the inline capacity.
        let spread = |n: usize, dim: usize| -> Vec<Gf2Vec> {
            (0..dim).map(|i| Gf2Vec::from_index_bits(n, &[i, n - 1])).collect()
        };
        for (n, span) in [
            (4, vec![]),
            (4, vec![v("0110"), v("1010")]),
            (6, vec![v("100001"), v("011000"), v("000111")]),
            (24, spread(24, INLINE)),
            (24, spread(24, INLINE + 1)),
            (24, spread(24, 20)),
            (128, spread(128, 20)),
        ] {
            let w = EchelonBasis::from_span(n, &span);
            assert_eq!(w.dim(), span.len());
            let mut h = fold(0xcbf2_9ce4_8422_2325, n as u64);
            h = fold(h, w.dim() as u64);
            for row in w.rows() {
                h = fold(h, 2);
                h = row.as_words().iter().fold(h, |h, &x| fold(h, x));
                h = fold(h, row.len() as u64);
            }
            assert_eq!(w.structure_hash(), h, "n={n} dim={}", w.dim());
        }
        // A 128-bit row: both words feed the digest.
        let wide = EchelonBasis::from_span(128, &[Gf2Vec::from_index_bits(128, &[3, 127])]);
        let narrow = EchelonBasis::from_span(128, &[Gf2Vec::from_index_bits(128, &[3, 126])]);
        assert_ne!(wide.structure_hash(), narrow.structure_hash());
    }

    #[test]
    fn hash_and_ord_are_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(EchelonBasis::from_span(4, &[v("0110"), v("1010")]));
        set.insert(EchelonBasis::from_span(4, &[v("1100"), v("0110")]));
        assert_eq!(set.len(), 1);

        let a = EchelonBasis::new(3);
        let b = EchelonBasis::from_span(3, &[v("100")]);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    /// A `Vec`-backed reduced echelon basis, stored as the type stored its
    /// rows before they moved inline: the reference the inline and spilled
    /// stores must agree with.
    #[derive(Clone)]
    struct Reference {
        n: u16,
        rows: Vec<Gf2Vec>,
        pivots: Vec<u16>,
    }

    impl Reference {
        fn insert(&mut self, mut v: Gf2Vec) -> bool {
            for (row, &p) in self.rows.iter().zip(&self.pivots) {
                if v.get(p as usize) {
                    v ^= *row;
                }
            }
            let Some(p) = v.lowest_set_bit() else {
                return false;
            };
            for row in &mut self.rows {
                if row.get(p) {
                    *row ^= v;
                }
            }
            let pos = self.pivots.partition_point(|&q| (q as usize) < p);
            self.rows.insert(pos, v);
            self.pivots.insert(pos, p as u16);
            true
        }

        fn digest(&self) -> u64 {
            use std::hash::{Hash, Hasher};
            let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
            self.n.hash(&mut h);
            self.rows.hash(&mut h);
            h.finish()
        }

        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.n, &self.rows, &self.pivots).cmp(&(other.n, &other.rows, &other.pivots))
        }
    }

    fn std_hash(x: &impl std::hash::Hash) -> u64 {
        use std::hash::BuildHasher;
        std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default()
            .hash_one(x)
    }

    #[test]
    fn spilled_bases_agree_with_a_vec_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for n in [24usize, 128] {
            let mut next = || {
                let mut word = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let mut v = Gf2Vec::zeros(n);
                let (lo, hi) = (word(), word());
                for i in (0..n).filter(|&i| [lo, hi][i / 64] >> (i % 64) & 1 == 1) {
                    v.set(i, true);
                }
                v
            };
            // One insertion at a time, through dims INLINE − 1, INLINE,
            // INLINE + 1 (the insertion that spills) and on to 20.
            let mut basis = EchelonBasis::new(n);
            let mut reference = Reference { n: n as u16, rows: Vec::new(), pivots: Vec::new() };
            let mut inserted = Vec::new();
            let mut steps = vec![(basis.clone(), reference.clone())];
            while basis.dim() < 20 {
                let v = next();
                assert_eq!(basis.insert(v), reference.insert(v), "n = {n}, dim {}", basis.dim());
                inserted.push(v);
                if steps.last().is_some_and(|(b, _)| b.dim() < basis.dim()) {
                    steps.push((basis.clone(), reference.clone()));
                }
            }
            let dims: Vec<usize> = steps.iter().map(|(b, _)| b.dim()).collect();
            assert_eq!(dims, (0..=20).collect::<Vec<_>>());
            for (b, r) in &steps {
                let what = format!("n = {n}, dim {}", b.dim());
                assert_eq!(b.rows(), r.rows.as_slice(), "{what}");
                assert_eq!(b.pivots(), r.pivots.as_slice(), "{what}");
                assert_eq!(b.structure_hash(), r.digest(), "{what}");
                assert_eq!(std_hash(b), std_hash(&r.digest()), "{what}");
                assert_eq!(b.clone(), *b, "{what}");
                assert_eq!(matches!(b.store, Store::Inline { .. }), b.dim() <= INLINE, "{what}");
            }
            for (a, ra) in &steps {
                for (b, rb) in &steps {
                    assert_eq!(a.cmp(b), ra.cmp(rb), "n = {n}, dims {} {}", a.dim(), b.dim());
                    assert_eq!(a == b, a.dim() == b.dim(), "n = {n}, dims {} {}", a.dim(), b.dim());
                }
            }
            // The same subspace from the same vectors in reverse order: a
            // different insertion path to the same spilled normal form.
            let reversed: Vec<Gf2Vec> = inserted.iter().rev().copied().collect();
            let again = EchelonBasis::from_span(n, &reversed);
            assert_eq!(again, basis, "n = {n}");
            assert_eq!(again.cmp(&basis), std::cmp::Ordering::Equal, "n = {n}");
            assert_eq!(std_hash(&again), std_hash(&basis), "n = {n}");
            // A spilled basis still extends, reduces and enumerates.
            let v = next();
            assert_eq!(basis.extended(v).is_some(), !basis.contains(&v), "n = {n}");
            assert!(basis.rows().iter().all(|row| basis.reduce(*row).is_zero()), "n = {n}");
        }
    }
}
