//! Disjoint Sum-of-Products (DSOP) minimization.
//!
//! A DSOP is an SOP whose products are pairwise disjoint — no point is
//! covered twice. Disjointness buys two things: the OR is also an XOR
//! (every DSOP is an ESOP), and the form directly gives the function's
//! minterm count as the sum of its products' sizes, which is why DSOPs
//! appear as the seed of spectral and ESOP-synthesis methods.
//!
//! The construction follows Bernasconi, Ciriani, Luccio and Pagli
//! ("Compact DSOP and partial DSOP Forms"): select a small SOP cover,
//! then make it disjoint by *disjoint sharp* — each product, taken
//! largest first, is split against the already-accepted products into
//! fragments that miss them. This crate does the second step,
//! [`disjoint_split`], on an SP cover the caller already has — in the
//! form race, the session's one SP minimum ([`spp_sp::minimize_sp`]),
//! which the SOP entrant answers with too.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod form;
mod sharp;

pub use form::DsopForm;

use spp_boolfn::Cube;
use spp_sp::SpForm;

/// Splits the SP cover `sp` into a DSOP covering exactly the same
/// points, by deterministic disjoint sharp: largest products first, ties
/// broken on the cube encoding.
///
/// So the result realizes every function `sp` realizes — splitting
/// preserves the covered set exactly, and fragments inherit their
/// parent's ON/DC-only points. It is a heuristic: DSOP minimality is
/// not proved.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_dsop::disjoint_split;
///
/// let maj = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
/// let sp = spp_sp::minimize_sp(&maj, &spp_cover::Limits::default());
/// let dsop = disjoint_split(&sp.form);
/// assert!(dsop.realizes(&maj));
/// // The three overlapping majority primes split into disjoint products.
/// assert!(dsop.num_products() >= 3);
/// ```
#[must_use]
pub fn disjoint_split(sp: &SpForm) -> DsopForm {
    // Largest cubes (fewest literals) first keeps the big products whole
    // and splinters only the small ones; the full key fixes the order.
    let mut cubes: Vec<Cube> = sp.cubes().to_vec();
    cubes.sort_unstable_by_key(|c| (c.literal_count(), c.mask().to_u64(), c.values().to_u64()));

    let mut accepted: Vec<Cube> = Vec::new();
    for cube in cubes {
        let mut fragments = vec![cube];
        for d in &accepted {
            fragments = fragments.iter().flat_map(|c| sharp::disjoint_sharp(c, d)).collect();
            if fragments.is_empty() {
                break;
            }
        }
        accepted.extend(fragments);
    }
    DsopForm::new(sp.num_vars(), accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_boolfn::BoolFn;
    use spp_sp::{minimize_sp, SpMinResult};

    fn sp(f: &BoolFn) -> SpMinResult {
        minimize_sp(f, &spp_cover::Limits::default())
    }

    #[test]
    fn result_is_disjoint_and_realizes() {
        for n in 2..=5 {
            let f = BoolFn::from_truth_fn(n, |x| x.wrapping_mul(2654435761) >> 2 & 3 != 1);
            let r = disjoint_split(&sp(&f).form);
            assert!(r.is_disjoint(), "n={n}");
            assert!(r.realizes(&f), "n={n}");
        }
    }

    #[test]
    fn already_disjoint_covers_are_untouched() {
        // x0·x1 + x̄0·x̄1: the two primes are already disjoint.
        let f = BoolFn::from_truth_fn(2, |x| x == 0 || x == 3);
        let r = disjoint_split(&sp(&f).form);
        assert_eq!(r.num_products(), 2);
        assert_eq!(r.literal_count(), 4);
    }

    #[test]
    fn constant_functions() {
        let zero = BoolFn::from_truth_fn(3, |_| false);
        let r = disjoint_split(&sp(&zero).form);
        assert_eq!(r.num_products(), 0);
        assert!(r.realizes(&zero));

        let one = BoolFn::from_truth_fn(3, |_| true);
        let r = disjoint_split(&sp(&one).form);
        assert_eq!(r.num_products(), 1);
        assert!(r.realizes(&one));
    }

    #[test]
    fn dsop_never_beats_its_sop_on_products() {
        let maj = BoolFn::from_truth_fn(5, |x| x.count_ones() >= 3);
        let sp = sp(&maj);
        let r = disjoint_split(&sp.form);
        assert!(r.num_products() >= sp.form.num_products());
        assert!(r.is_disjoint());
        assert!(r.realizes(&maj));
    }
}
