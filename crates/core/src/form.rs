//! Sum-of-Pseudoproducts forms.

use std::fmt;

use spp_boolfn::BoolFn;
use spp_gf2::Gf2Vec;

use crate::{verify_cover, Pseudocube, VerifyError};

/// A three-level Sum-of-Pseudoproducts (SPP) form: an OR of pseudoproducts,
/// each an AND of EXOR factors.
///
/// # Examples
///
/// ```
/// use spp_core::{Pseudocube, SppForm};
///
/// let a = Pseudocube::from_cube(&"110".parse().unwrap());
/// let b = Pseudocube::from_cube(&"011".parse().unwrap());
/// let form = SppForm::new(3, vec![a.union(&b).unwrap()]);
/// assert_eq!(form.literal_count(), 3);
/// assert_eq!(form.to_string(), "x1·(x0⊕x2)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SppForm {
    n: usize,
    terms: Vec<Pseudocube>,
}

impl SppForm {
    /// Builds a form from pseudoproduct terms.
    ///
    /// # Panics
    ///
    /// Panics if some term is over a different number of variables.
    #[must_use]
    pub fn new(n: usize, terms: Vec<Pseudocube>) -> Self {
        assert!(terms.iter().all(|t| t.num_vars() == n), "term width must equal n");
        SppForm { n, terms }
    }

    /// An SP form read as an SPP form: every cube is a pseudoproduct.
    pub(crate) fn from_sp(sp: &spp_sp::SpForm) -> Self {
        SppForm::new(sp.num_vars(), sp.cubes().iter().map(Pseudocube::from_cube).collect())
    }

    /// The number of input variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// The pseudoproduct terms.
    #[must_use]
    pub fn terms(&self) -> &[Pseudocube] {
        &self.terms
    }

    /// The number of pseudoproducts (the paper's `#PP`).
    #[must_use]
    pub fn num_pseudoproducts(&self) -> usize {
        self.terms.len()
    }

    /// The number of literals (the paper's `#L`, the minimization cost).
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        self.terms.iter().map(Pseudocube::literal_count).sum()
    }

    /// Evaluates the form at a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.num_vars()`.
    #[must_use]
    pub fn eval(&self, point: &Gf2Vec) -> bool {
        self.terms.iter().any(|t| t.contains(point))
    }

    /// Verifies that the form realizes `f` — every term is an implicant
    /// (covers only ON or DC points) and every ON minterm is covered.
    ///
    /// Unlike truth-table comparison this works at any width: it walks the
    /// points of each term and the ON-set only.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_realizes(&self, f: &BoolFn) -> Result<(), VerifyError> {
        verify_cover(f, &self.terms)
    }
}

impl fmt::Display for SppForm {
    /// Paper notation, e.g. `(x0⊕x̄1)·x4 + x̄4·x̄3`; constant 0 prints as `0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, term) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{}", term.cex())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Gf2Vec {
        Gf2Vec::from_bit_str(s).unwrap()
    }

    #[test]
    fn counts_and_eval() {
        let a = Pseudocube::from_points(&[v("011"), v("110")]).unwrap();
        let b = Pseudocube::from_point(v("000"));
        let form = SppForm::new(3, vec![a, b]);
        assert_eq!(form.num_pseudoproducts(), 2);
        assert_eq!(form.literal_count(), 3 + 3);
        assert!(form.eval(&v("011")));
        assert!(form.eval(&v("000")));
        assert!(!form.eval(&v("111")));
    }

    #[test]
    fn check_realizes_catches_overcover() {
        let f = BoolFn::from_indices(2, &[0b01]);
        let exact = SppForm::new(2, vec![Pseudocube::from_point(v("10"))]);
        assert!(exact.check_realizes(&f).is_ok());
        let over = SppForm::new(2, vec![Pseudocube::from_cube(&"1-".parse().unwrap())]);
        assert!(matches!(over.check_realizes(&f), Err(VerifyError::NotAnImplicant { .. })));
    }

    #[test]
    fn check_realizes_catches_undercover() {
        let f = BoolFn::from_indices(2, &[0b01, 0b10]);
        let partial = SppForm::new(2, vec![Pseudocube::from_point(v("10"))]);
        assert!(matches!(partial.check_realizes(&f), Err(VerifyError::Uncovered { .. })));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SppForm::new(2, vec![]).to_string(), "0");
        // {01, 10} is the odd-parity line x0⊕x1 = 1: uncomplemented factor.
        let a = Pseudocube::from_points(&[v("01"), v("10")]).unwrap();
        assert_eq!(SppForm::new(2, vec![a]).to_string(), "(x0⊕x1)");
        // {00, 11} is even parity: the factor is complemented.
        let b = Pseudocube::from_points(&[v("00"), v("11")]).unwrap();
        assert_eq!(SppForm::new(2, vec![b]).to_string(), "(x0⊕x̄1)");
    }

    #[test]
    fn spp_generalizes_sp() {
        // Any SP form is an SPP form: cubes are pseudocubes.
        let cube: spp_boolfn::Cube = "1-0".parse().unwrap();
        let form = SppForm::new(3, vec![Pseudocube::from_cube(&cube)]);
        assert_eq!(form.literal_count(), u64::from(cube.literal_count()));
        for p in spp_boolfn::all_points(3) {
            assert_eq!(form.eval(&p), cube.contains_point(&p));
        }
    }
}
