//! Thread-count determinism on a real benchmark workload: `adr4`'s sum
//! bit 3 has thousands of pseudocubes per level, so every worker receives
//! many sweep units and the stable merge is genuinely exercised.

use spp_core::{Minimizer, Pseudocube};

fn eppp_at(f: &spp_boolfn::BoolFn, threads: usize) -> (Vec<Pseudocube>, u64) {
    let set = Minimizer::new(f).threads(threads).generate();
    assert!(!set.stats.truncated, "determinism is only promised without truncation");
    (set.pseudocubes, set.stats.comparisons)
}

#[test]
fn adr4_sum_bit_generates_identically_at_any_thread_count() {
    let f = spp_benchgen::registry::circuit("adr4").unwrap().output_on_support(3);
    let baseline = eppp_at(&f, 1);
    for threads in [2usize, 8] {
        let parallel = eppp_at(&f, threads);
        assert_eq!(baseline.0, parallel.0, "EPPP set diverged at {threads} threads");
        assert_eq!(baseline.1, parallel.1, "comparisons diverged at {threads} threads");
    }
    assert!(baseline.0.len() > 1_000, "adr4(3) should be a non-trivial workload");
}
