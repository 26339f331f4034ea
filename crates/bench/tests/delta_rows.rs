//! The delta splice on real circuits: a one-minterm edit of each of
//! `cache_probe`'s rows, run through a cache seeded by the unedited
//! output, must be answered by exactly one splice and no rejected one,
//! and its form must realize the edited function. The covering node
//! budget is small, so the test times generation and the splice, not
//! branch and bound.

use spp_bench::{circuit_or_die, one_flip_edit, Mode, PROBE_ROWS};
use spp_core::{Minimizer, SppCache};

#[test]
fn one_minterm_edits_of_the_probe_rows_are_spliced_and_verified() {
    let options =
        Mode::Fast.spp_options().with_cover_limits(Mode::Fast.sp_limits().with_max_nodes(1_000));
    for &(name, idx) in PROBE_ROWS {
        let f = circuit_or_die(name).output_on_support(idx);
        let edited = one_flip_edit(&f);
        let cache = SppCache::in_memory(512 * 1024 * 1024);
        let run = |g| Minimizer::new(g).options(options.clone()).threads(1).cache(cache.clone());
        let seed = run(&f).run_exact();
        assert!(!seed.gen_stats.truncated, "{name}({idx}): the seed set must be complete");
        let delta = run(&edited).run_exact();
        delta.form.check_realizes(&edited).expect("delta-path form must verify");
        let stats = cache.stats();
        assert_eq!(
            (stats.delta_reuses, stats.delta_rejects),
            (1, 0),
            "{name}({idx}): the edit must be answered by one splice"
        );
    }
}
