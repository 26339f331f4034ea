//! Pseudocubes as affine subspaces of GF(2)^n.

use std::fmt;

use spp_boolfn::Cube;
use spp_gf2::{CosetIter, EchelonBasis, Gf2Vec};

use crate::Cex;

/// A pseudocube of degree `m` in `B^n` (Luccio–Pagli / Ciriani): a set of
/// `2^m` points whose matrix is canonical up to row permutation —
/// equivalently, an **affine subspace** `rep ⊕ W` of GF(2)^n of dimension
/// `m`.
///
/// The representation is canonical: `W` is a reduced [`EchelonBasis`]
/// (unique per subspace; its pivots are the paper's *canonical variables*)
/// and `rep` is the unique member of the coset with zeros at every pivot
/// (row 0 of the paper's canonical matrix). Equality of `Pseudocube`s is
/// therefore set equality.
///
/// The characteristic function of a pseudocube is a *pseudoproduct* — an
/// AND of EXOR factors; its canonical expression is computed by
/// [`Pseudocube::cex`] and its cost in literals by
/// [`Pseudocube::literal_count`] without materializing the expression.
///
/// # Examples
///
/// ```
/// use spp_core::Pseudocube;
/// use spp_gf2::Gf2Vec;
///
/// // Two arbitrary points always form a degree-1 pseudocube.
/// let a = Gf2Vec::from_bit_str("0110").unwrap();
/// let b = Gf2Vec::from_bit_str("1011").unwrap();
/// let p = Pseudocube::from_point(a).union(&Pseudocube::from_point(b)).unwrap();
/// assert_eq!(p.degree(), 1);
/// assert!(p.contains(&a) && p.contains(&b));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pseudocube {
    // Order matters for the derived `Ord`: compare structure first so that
    // sorting groups same-structure pseudocubes together.
    dirs: EchelonBasis,
    rep: Gf2Vec,
}

impl Pseudocube {
    /// The degree-0 pseudocube containing exactly `point`.
    #[must_use]
    pub fn from_point(point: Gf2Vec) -> Self {
        Pseudocube { dirs: EchelonBasis::new(point.len()), rep: point }
    }

    /// Builds a pseudocube from a coset representative and direction space,
    /// normalizing the representative.
    #[must_use]
    pub fn from_parts(rep: Gf2Vec, dirs: EchelonBasis) -> Self {
        assert_eq!(rep.len(), dirs.ambient_dim(), "rep length must match ambient dim");
        let rep = dirs.reduce(rep);
        Pseudocube { dirs, rep }
    }

    /// Builds a pseudocube from parts that are **already canonical**:
    /// `dirs` in reduced echelon form and `rep` reduced modulo `dirs`
    /// (zeros at every pivot). Skips the normalizing reduction of
    /// [`from_parts`](Self::from_parts) — the generator's union sweep
    /// maintains the normal form itself in scratch buffers and
    /// materializes unions through here.
    #[must_use]
    pub(crate) fn from_canonical_parts(rep: Gf2Vec, dirs: EchelonBasis) -> Self {
        debug_assert_eq!(rep, dirs.reduce(rep), "rep must be pre-reduced modulo dirs");
        Pseudocube { dirs, rep }
    }

    /// Converts a cube: the free variables become unit direction vectors
    /// (a cube is the pseudocube whose EXOR factors are single literals).
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_core::Pseudocube;
    ///
    /// let p = Pseudocube::from_cube(&"1-0-".parse().unwrap());
    /// assert_eq!(p.degree(), 2);
    /// assert_eq!(p.literal_count(), 2);
    /// ```
    #[must_use]
    pub fn from_cube(cube: &Cube) -> Self {
        let n = cube.num_vars();
        let mut dirs = EchelonBasis::new(n);
        for i in 0..n {
            if !cube.mask().get(i) {
                dirs.insert(Gf2Vec::from_index_bits(n, &[i]));
            }
        }
        Pseudocube { rep: dirs.reduce(cube.values()), dirs }
    }

    /// Checks whether `points` is exactly a pseudocube and returns it.
    ///
    /// Returns `None` when the set is empty, has duplicates, is not a
    /// power of two in size, or is not an affine subspace.
    #[must_use]
    pub fn from_points(points: &[Gf2Vec]) -> Option<Self> {
        let first = *points.first()?;
        let mut dirs = EchelonBasis::new(first.len());
        for p in points {
            dirs.insert(*p ^ first);
        }
        if points.len() != 1usize.checked_shl(dirs.dim() as u32)? {
            return None;
        }
        let mut sorted: Vec<_> = points.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != points.len() {
            return None;
        }
        let pc = Pseudocube::from_parts(first, dirs);
        sorted.iter().all(|p| pc.contains(p)).then_some(pc)
    }

    /// The number of variables `n` of the ambient space.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.rep.len()
    }

    /// The degree `m`: the pseudocube has `2^m` points.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.dirs.dim()
    }

    /// The number of points, `2^m`.
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds 63.
    #[must_use]
    pub fn num_points(&self) -> u64 {
        assert!(self.degree() <= 63, "pseudocube too large to count");
        1 << self.degree()
    }

    /// The canonical coset representative (zeros at all canonical
    /// variables) — row 0 of the paper's canonical matrix.
    #[must_use]
    pub fn rep(&self) -> Gf2Vec {
        self.rep
    }

    /// The direction space `W` — the paper's *structure* `STR(P)`
    /// (Definition 2) in its unique normal form. Two pseudocubes have equal
    /// structure iff their `structure()` are equal.
    #[must_use]
    pub fn structure(&self) -> &EchelonBasis {
        &self.dirs
    }

    /// The canonical (pivot) variables, increasing.
    #[must_use]
    pub fn canonical_vars(&self) -> &[u16] {
        self.dirs.pivots()
    }

    /// Whether `point` belongs to the pseudocube.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn contains(&self, point: &Gf2Vec) -> bool {
        self.dirs.reduce(*point) == self.rep
    }

    /// Whether every point of `other` belongs to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the ambient spaces differ.
    #[must_use]
    pub fn covers(&self, other: &Pseudocube) -> bool {
        other.dirs.is_subspace_of(&self.dirs) && self.contains(&other.rep)
    }

    /// Iterates over the `2^m` points.
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds 63.
    #[must_use]
    pub fn points(&self) -> CosetIter<'_> {
        self.dirs.coset_iter(self.rep)
    }

    /// The paper's transformation `α(P)`: complements the variables in
    /// `alpha` on every point (Proposition 1). For `alpha` disjoint from
    /// the span this yields a disjoint pseudocube with the same structure.
    ///
    /// # Panics
    ///
    /// Panics if `alpha.len() != self.num_vars()`.
    #[must_use]
    pub fn transform(&self, alpha: &Gf2Vec) -> Pseudocube {
        Pseudocube::from_parts(self.rep ^ *alpha, self.dirs.clone())
    }

    /// Whether this pseudocube is an implicant-style pseudoproduct of `f`
    /// (every point is ON or DC — the paper's `P ⊆ F`).
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ or the degree exceeds 63.
    #[must_use]
    pub fn is_within(&self, f: &spp_boolfn::BoolFn) -> bool {
        assert_eq!(self.num_vars(), f.num_vars(), "variable counts must match");
        self.points().all(|p| f.is_coverable(&p))
    }

    /// Whether this pseudocube is a **prime** pseudoproduct of `f`: it is
    /// contained in `F` and no pseudocube of one degree more contains it
    /// and stays within `F`.
    ///
    /// By Proposition 1 every one-degree-larger superset of `P` is
    /// `P ∪ α(P)` for a complementation `α` of non-canonical variables, so
    /// primality is decided by scanning the `2^{n−m} − 1` transforms.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ, or the check would be
    /// intractable (more than 20 non-canonical variables).
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    /// use spp_core::Pseudocube;
    ///
    /// let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
    /// let point = Pseudocube::from_point(f.on_set()[0]);
    /// assert!(!point.is_prime_within(&f)); // the parity plane contains it
    /// ```
    #[must_use]
    pub fn is_prime_within(&self, f: &spp_boolfn::BoolFn) -> bool {
        if !self.is_within(f) {
            return false;
        }
        let nc_count = self.num_vars() - self.degree();
        assert!(nc_count <= 20, "primality scan over 2^{nc_count} transforms is too large");
        let nc_vars: Vec<usize> =
            (0..self.num_vars()).filter(|&q| !self.dirs.is_pivot(q)).collect();
        for alpha_bits in 1u64..(1 << nc_count) {
            let mut alpha = Gf2Vec::zeros(self.num_vars());
            for (i, &q) in nc_vars.iter().enumerate() {
                if alpha_bits >> i & 1 == 1 {
                    alpha.set(q, true);
                }
            }
            let mirror = self.transform(&alpha);
            if mirror.is_within(f) {
                return false; // self ∪ mirror is a bigger pseudoproduct of f
            }
        }
        true
    }

    /// The union of two pseudocubes **when it is itself a pseudocube**,
    /// i.e. exactly when the structures are equal and the cosets are
    /// distinct (Theorem 1). Returns `None` otherwise (including for
    /// `self == other`).
    ///
    /// This is the linear-algebra form of the paper's Algorithm 1; the
    /// literal-level version operating on CEX expressions is
    /// [`Cex::union`], and the two agree.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_core::Pseudocube;
    ///
    /// // x1·x2·x̄4  ∪  x̄1·x2·x4  =  x2·(x1 ⊕ x4)   (paper §3.4, renamed)
    /// let a = Pseudocube::from_cube(&"110".parse().unwrap());
    /// let b = Pseudocube::from_cube(&"011".parse().unwrap());
    /// let u = a.union(&b).unwrap();
    /// assert_eq!(u.literal_count(), 3);
    /// assert_eq!(u.degree(), 1);
    /// ```
    #[must_use]
    pub fn union(&self, other: &Pseudocube) -> Option<Pseudocube> {
        if self.dirs != other.dirs || self.rep == other.rep {
            return None;
        }
        let dirs = self
            .dirs
            .extended(self.rep ^ other.rep)
            .expect("distinct reduced reps differ outside the span");
        Some(Pseudocube::from_parts(self.rep, dirs))
    }

    /// The number of literals of the canonical expression `CEX(P)`
    /// (Definition 1), computed directly from the representation:
    /// `(n − m) + Σ_j (weight(w_j) − 1)` — each of the `n − m` EXOR factors
    /// contributes its non-canonical variable, and basis row `j`
    /// contributes one canonical literal per non-pivot position it sets.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        let m = self.degree() as u64;
        let base = self.num_vars() as u64 - m;
        let canonical_occurrences: u64 = self
            .dirs
            .rows()
            .iter()
            .map(|r| u64::from(r.count_ones()) - 1)
            .sum();
        base + canonical_occurrences
    }

    /// The canonical expression of the pseudoproduct (Definition 1).
    #[must_use]
    pub fn cex(&self) -> Cex {
        Cex::from_pseudocube(self)
    }

    /// Whether the pseudocube is a plain cube (every EXOR factor is a
    /// single literal).
    #[must_use]
    pub fn is_cube(&self) -> bool {
        self.dirs.rows().iter().all(|r| r.count_ones() == 1)
    }

    /// Converts to a [`Cube`] if [`is_cube`](Self::is_cube).
    #[must_use]
    pub fn to_cube(&self) -> Option<Cube> {
        if !self.is_cube() {
            return None;
        }
        let n = self.num_vars();
        let mut mask = Gf2Vec::ones(n);
        for &p in self.dirs.pivots() {
            mask.set(p as usize, false);
        }
        Some(Cube::new(mask, self.rep))
    }
}

impl fmt::Debug for Pseudocube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pseudocube(n={}, deg={}, rep={}, str={})", self.num_vars(), self.degree(), self.rep, self.dirs)
    }
}

impl fmt::Display for Pseudocube {
    /// Displays the canonical expression, e.g. `x1·(x0⊕x2⊕x3)·(x0⊕x4⊕x̄5)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.cex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    /// The eight points of the paper's Figure 1 pseudocube in B^6.
    pub(crate) fn figure1_points() -> Vec<Gf2Vec> {
        ["010101", "010110", "011001", "011010", "110000", "110011", "111100", "111111"]
            .iter()
            .map(|s| v(s))
            .collect()
    }

    #[test]
    fn figure1_is_a_pseudocube_with_expected_canonicals() {
        let pc = Pseudocube::from_points(&figure1_points()).expect("figure 1 is a pseudocube");
        assert_eq!(pc.degree(), 3);
        assert_eq!(pc.canonical_vars(), &[0, 2, 4]);
        assert_eq!(pc.rep(), v("010101")); // row 0 of the canonical matrix
        for p in figure1_points() {
            assert!(pc.contains(&p));
        }
        assert!(!pc.contains(&v("000000")));
        // CEX = x1 · (x0⊕x2⊕x3) · (x0⊕x4⊕x5): 1 + 3 + 3 = 7 literals.
        assert_eq!(pc.literal_count(), 7);
    }

    #[test]
    fn from_points_rejects_non_pseudocubes() {
        assert!(Pseudocube::from_points(&[]).is_none());
        // Three points are never a pseudocube.
        assert!(Pseudocube::from_points(&[v("00"), v("01"), v("10")]).is_none());
        // Four points not forming an affine subspace.
        assert!(Pseudocube::from_points(&[v("000"), v("001"), v("010"), v("100")]).is_none());
        // Duplicates are rejected.
        assert!(Pseudocube::from_points(&[v("00"), v("00")]).is_none());
    }

    #[test]
    fn any_pair_of_points_is_a_pseudocube() {
        let pc = Pseudocube::from_points(&[v("0101"), v("1110")]).unwrap();
        assert_eq!(pc.degree(), 1);
        assert_eq!(pc.num_points(), 2);
    }

    #[test]
    fn from_cube_roundtrip() {
        let cube: Cube = "1-0-".parse().unwrap();
        let pc = Pseudocube::from_cube(&cube);
        assert!(pc.is_cube());
        assert_eq!(pc.to_cube(), Some(cube));
        assert_eq!(pc.degree(), 2);
        assert_eq!(pc.literal_count(), u64::from(cube.literal_count()));
        let mut cube_points: Vec<_> = cube.points().collect();
        let mut pc_points: Vec<_> = pc.points().collect();
        cube_points.sort_unstable();
        pc_points.sort_unstable();
        assert_eq!(cube_points, pc_points);
    }

    #[test]
    fn union_requires_equal_structure() {
        // Paper §3.4: x1·x2·x̄4 + x̄1·x2·x4 = x2·(x1⊕x4), renamed to 3 vars.
        let a = Pseudocube::from_cube(&"110".parse().unwrap());
        let b = Pseudocube::from_cube(&"011".parse().unwrap());
        assert_eq!(a.structure(), b.structure()); // both have structure {0}
        let u = a.union(&b).unwrap();
        assert_eq!(u.degree(), 1);
        assert_eq!(u.literal_count(), 3);
        assert!(u.covers(&a) && u.covers(&b));

        // Different structures cannot unite.
        let c = Pseudocube::from_cube(&"1-0".parse().unwrap());
        assert!(a.union(&c).is_none());
        // Self-union is refused.
        assert!(a.union(&a).is_none());
    }

    #[test]
    fn union_point_set_is_exactly_both() {
        let a = Pseudocube::from_points(&[v("0011"), v("1100")]).unwrap();
        let b = Pseudocube::from_points(&[v("0111"), v("1000")]).unwrap();
        assert_eq!(a.structure(), b.structure());
        let u = a.union(&b).unwrap();
        let mut expected: Vec<_> = a.points().chain(b.points()).collect();
        expected.sort_unstable();
        let mut got: Vec<_> = u.points().collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn transform_matches_proposition1() {
        let p1 = Pseudocube::from_points(&[v("0011"), v("1100")]).unwrap();
        // alpha on a non-canonical variable.
        let alpha = Gf2Vec::from_index_bits(4, &[3]);
        let p2 = p1.transform(&alpha);
        assert_eq!(p1.structure(), p2.structure());
        assert_ne!(p1, p2);
        // Disjoint, and union is a pseudocube of degree m+1.
        for pt in p2.points() {
            assert!(!p1.contains(&pt));
        }
        assert_eq!(p1.union(&p2).unwrap().degree(), 2);
    }

    #[test]
    fn covers_is_a_partial_order() {
        let small = Pseudocube::from_points(&[v("000"), v("011")]).unwrap();
        let big = small
            .union(&Pseudocube::from_points(&[v("100"), v("111")]).unwrap())
            .unwrap();
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&big));
    }

    #[test]
    fn literal_count_matches_cex_by_construction() {
        // A structure with a heavy row: W = span{e0+e2+e3}, rep over x1.
        let dirs = EchelonBasis::from_span(4, &[v("1011")]);
        let pc = Pseudocube::from_parts(v("0100"), dirs);
        // Factors: one per non-pivot var (x1, x2, x3) = 3 nc literals, plus
        // canonical x0 appearing in the factors of x2 and x3.
        assert_eq!(pc.literal_count(), 5);
    }

    #[test]
    fn degree_zero_literal_count_is_n() {
        let pc = Pseudocube::from_point(v("0110"));
        assert_eq!(pc.literal_count(), 4); // a full minterm
        assert_eq!(pc.num_points(), 1);
    }

    #[test]
    fn primality_detects_maximal_pseudoproducts() {
        use spp_boolfn::BoolFn;
        // Odd parity: the only prime pseudoproduct is the full parity plane.
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let plane = Pseudocube::from_points(
            f.on_set(),
        )
        .expect("parity ON-set is an affine subspace");
        assert!(plane.is_prime_within(&f));
        // Any strict sub-pseudocube is non-prime.
        for sub in crate::sub_pseudocubes(&plane) {
            assert!(!sub.is_prime_within(&f));
        }
        // A pseudocube leaking outside F is not even within it.
        let outside = Pseudocube::from_cube(&"---".parse().unwrap());
        assert!(!outside.is_within(&f));
        assert!(!outside.is_prime_within(&f));
    }

    #[test]
    fn prime_implicant_cubes_are_prime_pseudoproducts_only_if_unextendable() {
        use spp_boolfn::BoolFn;
        // f = x1·x2·x̄4 + x̄1·x2·x4: each minterm-cube prime implicant is
        // NOT a prime pseudoproduct (the EXOR union contains it).
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        for cube in spp_sp::prime_implicants(&f) {
            let pc = Pseudocube::from_cube(&cube);
            assert!(!pc.is_prime_within(&f), "{cube} should extend to the EXOR form");
        }
        let union = Pseudocube::from_points(f.on_set()).unwrap();
        assert!(union.is_prime_within(&f));
    }

    #[test]
    fn ordering_groups_by_structure() {
        let a = Pseudocube::from_points(&[v("000"), v("011")]).unwrap();
        let b = a.transform(&Gf2Vec::from_index_bits(3, &[2]));
        let c = Pseudocube::from_points(&[v("000"), v("101")]).unwrap();
        let mut items = [c.clone(), b.clone(), a.clone()];
        items.sort();
        // a and b share a structure and must be adjacent after sorting.
        let pos_a = items.iter().position(|x| *x == a).unwrap();
        let pos_b = items.iter().position(|x| *x == b).unwrap();
        assert_eq!(pos_a.abs_diff(pos_b), 1);
        assert!(items.contains(&c));
    }
}
