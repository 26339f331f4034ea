//! Quine–McCluskey prime-implicant generation.

use spp_boolfn::{BoolFn, Cube};

/// Computes all prime implicants of `f` (implicants may cover don't-care
/// points, per standard two-level minimization practice), sorted.
///
/// This is the textbook Quine–McCluskey procedure: implicants of degree
/// `k+1` are produced by merging pairs of degree-`k` implicants that bind
/// the same variables and differ in exactly one value; implicants never
/// merged are prime.
///
/// Each level is a sorted, deduplicated `Vec<Cube>`. Cubes order by mask
/// first, so the cubes binding the same variables — the only ones that
/// can merge — form one run, sorted by value. A cube with value 0 at a
/// bound bit looks up its partner (value 1 there) by binary search in its
/// run, so each mergeable pair is found exactly once.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_sp::prime_implicants;
///
/// // f = x̄0 + x̄1 on two variables: primes are 0- and -0.
/// let f = BoolFn::from_indices(2, &[0b00, 0b01, 0b10]);
/// let primes = prime_implicants(&f);
/// assert_eq!(primes.len(), 2);
/// ```
#[must_use]
pub fn prime_implicants(f: &BoolFn) -> Vec<Cube> {
    let mut level: Vec<Cube> = f
        .on_set()
        .iter()
        .chain(f.dc_set())
        .map(|&p| Cube::from_point(p))
        .collect();
    level.sort_unstable();
    level.dedup();
    let mut primes: Vec<Cube> = Vec::new();
    let mut next: Vec<Cube> = Vec::new();
    let mut merged: Vec<bool> = Vec::new();

    while !level.is_empty() {
        merged.clear();
        merged.resize(level.len(), false);
        let mut start = 0;
        while start < level.len() {
            let mask = level[start].mask();
            let len = level[start..].partition_point(|c| c.mask() == mask);
            let group = &level[start..start + len];
            for (i, cube) in group.iter().enumerate() {
                let values = cube.values();
                for bit in mask.iter_ones().filter(|&b| !values.get(b)) {
                    let partner = Cube::new(mask, values.with_bit(bit, true));
                    // The partner is larger, so it can only follow `cube`.
                    if let Ok(j) = group[i + 1..].binary_search(&partner) {
                        merged[start + i] = true;
                        merged[start + i + 1 + j] = true;
                        next.push(Cube::new(mask.with_bit(bit, false), values));
                    }
                }
            }
            start += len;
        }
        primes.extend(level.iter().zip(&merged).filter(|(_, &m)| !m).map(|(c, _)| *c));
        next.sort_unstable();
        next.dedup();
        std::mem::swap(&mut level, &mut next);
        next.clear();
    }

    primes.sort_unstable();
    primes
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_boolfn::all_points;
    use spp_gf2::Gf2Vec;

    fn c(s: &str) -> Cube {
        s.parse().unwrap()
    }

    #[test]
    fn xor_has_minterm_primes() {
        // XOR cannot merge anything: primes are the two minterms.
        let f = BoolFn::from_indices(2, &[0b01, 0b10]);
        assert_eq!(prime_implicants(&f), vec![c("01"), c("10")]);
    }

    #[test]
    fn and_collapses_to_one_prime() {
        let f = BoolFn::from_indices(2, &[0b11]);
        assert_eq!(prime_implicants(&f), vec![c("11")]);
    }

    #[test]
    fn tautology_is_the_full_cube() {
        let f = BoolFn::from_truth_fn(3, |_| true);
        assert_eq!(prime_implicants(&f), vec![c("---")]);
    }

    #[test]
    fn textbook_example() {
        // Classic QM example: f(a,b,c) with on-set {0,1,2,5,6,7} (a = x0 LSB).
        let f = BoolFn::from_indices(3, &[0, 1, 2, 5, 6, 7]);
        let primes = prime_implicants(&f);
        // Known primes: x̄0x̄2? Let's verify structurally instead of by list:
        for p in &primes {
            // Primality: freeing any bound variable leaves the function.
            assert!(p.points().all(|pt| f.is_on(&pt)), "{p} not an implicant");
            for bit in p.mask().iter_ones() {
                let bigger = spp_boolfn::Cube::new(
                    p.mask().with_bit(bit, false),
                    p.values().with_bit(bit, false),
                );
                assert!(
                    !bigger.points().all(|pt| f.is_on(&pt)),
                    "{p} is not prime: {bigger} is also an implicant"
                );
            }
        }
        // Every on-point is covered by some prime.
        for pt in f.on_set() {
            assert!(primes.iter().any(|p| p.contains_point(pt)));
        }
    }

    #[test]
    fn primes_cover_exactly_the_function_union() {
        let f = BoolFn::from_indices(4, &[0, 1, 2, 3, 7, 11, 15]);
        let primes = prime_implicants(&f);
        for point in all_points(4) {
            let covered = primes.iter().any(|p| p.contains_point(&point));
            assert_eq!(covered, f.is_on(&point), "point {point}");
        }
    }

    #[test]
    fn dont_cares_enlarge_primes_but_cover_only_on() {
        // ON = {11}, DC = {10}: the prime can free x1.
        let f = BoolFn::with_dont_cares(
            2,
            [Gf2Vec::from_bit_str("11").unwrap()],
            [Gf2Vec::from_bit_str("10").unwrap()],
        );
        let primes = prime_implicants(&f);
        assert_eq!(primes, vec![c("1-")]);
    }

    #[test]
    fn empty_function_has_no_primes() {
        let f = BoolFn::from_indices(3, &[]);
        assert!(prime_implicants(&f).is_empty());
    }

    #[test]
    fn adder_bit_prime_count_is_stable() {
        // 2-bit adder sum bit: a known XOR-heavy function; QM yields only
        // minterm primes for a pure parity.
        let parity = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let primes = prime_implicants(&parity);
        assert_eq!(primes.len(), 8);
        assert!(primes.iter().all(|p| p.degree() == 0));
    }

    /// The maximal implicants of the point set `care` (bit `p` set when
    /// point `p` is ON or don't-care) over `n ≤ 7` variables, by brute
    /// force over all `3^n` cubes: a cube is prime when all its points lie
    /// in `care` and freeing any one of its bound variables leaves `care`.
    fn brute_force_primes(n: usize, care: u128) -> Vec<Cube> {
        let points = 1u64 << n;
        let implicant = |mask: u64, values: u64| {
            (0..points).filter(|p| p & mask == values).all(|p| care >> p & 1 == 1)
        };
        let mut primes = Vec::new();
        for mask in 0..points {
            for values in (0..points).filter(|v| v & !mask == 0) {
                let prime = implicant(mask, values)
                    && (0..n)
                        .filter(|b| mask >> b & 1 == 1)
                        .all(|b| !implicant(mask & !(1 << b), values & !(1 << b)));
                if prime {
                    primes.push(Cube::new(Gf2Vec::from_u64(n, mask), Gf2Vec::from_u64(n, values)));
                }
            }
        }
        primes.sort_unstable();
        primes
    }

    #[test]
    fn every_4_input_function_matches_the_brute_force_primes() {
        for tt in 0..=u16::MAX {
            let f = BoolFn::from_truth_fn(4, |x| tt >> x & 1 == 1);
            assert_eq!(prime_implicants(&f), brute_force_primes(4, u128::from(tt)), "tt={tt:#06x}");
        }
    }

    #[test]
    fn seeded_functions_with_dont_cares_match_the_brute_force_primes() {
        // SplitMix64, so the drawn functions are the same on every host.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for (n, count) in [(5, 300), (6, 120), (7, 40)] {
            for i in 0..count {
                // ON density 1/8 .. 7/8 and DC density 0 .. 2/8 in eighths.
                let (on_eighths, dc_eighths) = (1 + i % 7, i % 3);
                let (mut on, mut dc, mut care) = (Vec::new(), Vec::new(), 0u128);
                for p in 0..1u64 << n {
                    let r = next() % 8;
                    if r < on_eighths {
                        on.push(Gf2Vec::from_u64(n, p));
                    } else if r < on_eighths + dc_eighths {
                        dc.push(Gf2Vec::from_u64(n, p));
                    } else {
                        continue;
                    }
                    care |= 1 << p;
                }
                let f = BoolFn::with_dont_cares(n, on, dc);
                assert_eq!(prime_implicants(&f), brute_force_primes(n, care), "n={n}, draw {i}");
            }
        }
    }
}
