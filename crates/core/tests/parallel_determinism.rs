//! The parallel execution layer's core guarantee, checked end to end:
//! for a fixed function the retained EPPP set — and the comparison count
//! the sweep reports — are **bit-identical at every thread count**, so
//! parallelism is purely a wall-clock optimization.

use proptest::prelude::*;
use spp_boolfn::BoolFn;
use spp_core::{GenLimits, Minimizer, Parallelism, Pseudocube};

/// Non-truncating generation at a pinned worker count.
fn eppp_at(f: &BoolFn, threads: usize) -> (Vec<Pseudocube>, u64) {
    let limits = GenLimits::default().with_parallelism(Parallelism::fixed(threads));
    let set = Minimizer::new(f).limits(limits).generate();
    assert!(!set.stats.truncated, "determinism is only promised without truncation");
    (set.pseudocubes, set.stats.comparisons)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_functions_generate_identically_at_any_thread_count(
        bits in any::<u32>(),
        n in 3usize..=5,
    ) {
        let f = BoolFn::from_truth_fn(n, |x| bits >> (x % 32) & 1 == 1);
        prop_assume!(!f.is_zero());
        let baseline = eppp_at(&f, 1);
        for threads in [2usize, 8] {
            let parallel = eppp_at(&f, threads);
            prop_assert_eq!(&baseline.0, &parallel.0, "EPPP set diverged: x{}", threads);
            prop_assert_eq!(baseline.1, parallel.1, "comparison count diverged: x{}", threads);
        }
    }
}
