//! Cross-crate integration tests: PLA parsing → SP → SPP pipelines,
//! heuristic vs exact agreement, grouping-strategy equivalence and the
//! benchmark registry.

use std::collections::HashSet;

use spp::benchgen::registry;
use spp::core::{GenLimits, Grouping, Minimizer, Pseudocube, SppOptions};
use spp::prelude::*;
use spp::sp::minimize_sp;

#[test]
fn pla_to_spp_pipeline() {
    // The 2-bit equality comparator: SPP collapses it to one pseudoproduct.
    let text = "\
.i 4
.o 1
.p 4
0000 1
1010 1
0101 1
1111 1
.e
";
    let pla: Pla = text.parse().unwrap();
    let f = pla.output_fn(0);
    let r = Minimizer::new(&f).run_exact();
    r.form.check_realizes(&f).unwrap();
    assert_eq!(r.form.num_pseudoproducts(), 1);
    assert_eq!(r.literal_count(), 4); // (x0⊕x̄2)·(x1⊕x̄3)
    let sp = minimize_sp(&f, &spp::cover::Limits::default());
    assert_eq!(sp.literal_count(), 16); // four disjoint minterms
}

#[test]
fn groupings_generate_identical_eppp_sets_on_benchmarks() {
    // life's single output restricted to a slice keeps this fast.
    let life = registry::circuit("life").unwrap();
    let f = life.output(0).cofactor_slice(&[0, 1, 2, 3, 8], &spp::gf2::Gf2Vec::zeros(9));
    let eppp_with = |grouping| -> HashSet<_> {
        Minimizer::new(&f).grouping(grouping).generate().pseudocubes.into_iter().collect()
    };
    let trie = eppp_with(Grouping::PartitionTrie);
    let quad = eppp_with(Grouping::Quadratic);
    assert_eq!(trie, quad);
}

#[test]
fn heuristic_full_depth_matches_exact_on_benchmark_slices() {
    let adr4 = registry::circuit("adr4").unwrap();
    let f = adr4.output_on_support(2); // 6 inputs, 32 minterms
    let session = Minimizer::new(&f);
    let exact = session.run_exact();
    assert!(exact.optimal, "slice should be solvable exactly");
    let full = session.run_heuristic(f.num_vars() - 1).unwrap();
    assert_eq!(full.literal_count(), exact.literal_count());
    let quick = session.run_heuristic(0).unwrap();
    assert!(quick.literal_count() >= exact.literal_count());
    quick.form.check_realizes(&f).unwrap();
}

#[test]
fn spp_never_exceeds_sp_even_under_tiny_budgets() {
    // Squeeze generation so hard it truncates: the SP fallback must hold
    // the "worst case SP and SPP coincide" guarantee.
    let c = registry::circuit("newtpla2").unwrap();
    let options = SppOptions::default().with_gen_limits(
        GenLimits::default()
            .with_max_pseudocubes(50)
            .with_max_level_size(30)
            .with_time_limit(None),
    );
    for j in 0..c.outputs().len() {
        let f = c.output_on_support(j);
        if f.is_zero() || f.num_vars() == 0 {
            continue;
        }
        let spp = Minimizer::new(&f).options(options.clone()).run_exact();
        spp.form.check_realizes(&f).unwrap();
        let sp = minimize_sp(&f, &options.cover_limits);
        assert!(
            spp.literal_count() <= sp.literal_count(),
            "output {j}: SPP {} > SP {}",
            spp.literal_count(),
            sp.literal_count()
        );
    }
}

#[test]
fn adder_sum_bits_are_pure_parities() {
    // Sum bit k of a + b (no carry-in) restricted to bit 0 is a0 ⊕ b0:
    // the SPP form of output 0 must be a single 2-literal pseudoproduct.
    let adr4 = registry::circuit("adr4").unwrap();
    let f = adr4.output_on_support(0);
    let r = Minimizer::new(&f).run_exact();
    assert_eq!(r.literal_count(), 2);
    assert_eq!(r.form.num_pseudoproducts(), 1);
}

#[test]
fn every_registered_benchmark_minimizes_one_output() {
    // Smoke: first output of each benchmark, under harsh budgets, must
    // produce a verified form.
    let options = SppOptions::default().with_gen_limits(
        GenLimits::default()
            .with_max_pseudocubes(2_000)
            .with_max_level_size(1_500)
            .with_time_limit(Some(std::time::Duration::from_secs(2))),
    );
    for name in registry::ALL_NAMES {
        let c = registry::circuit(name).unwrap();
        let f = c.output_on_support(0);
        if f.is_zero() || f.num_vars() == 0 {
            continue;
        }
        let r = Minimizer::new(&f).options(options.clone()).run_exact();
        r.form
            .check_realizes(&f)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn sp_form_is_a_valid_spp_form() {
    // Cross-crate bridge: SP products convert to pseudocubes and the
    // resulting SppForm verifies against the same function.
    let f = BoolFn::from_truth_fn(5, |x| x % 7 == 3 || x % 5 == 1);
    let sp = minimize_sp(&f, &spp::cover::Limits::default());
    let as_spp = spp::core::SppForm::new(
        5,
        sp.form.cubes().iter().map(Pseudocube::from_cube).collect(),
    );
    as_spp.check_realizes(&f).unwrap();
    assert_eq!(as_spp.literal_count(), sp.literal_count());
}

#[test]
fn pla_roundtrip_preserves_functions() {
    let text = ".i 3\n.o 2\n.p 3\n1-0 10\n011 11\n-11 01\n.e\n";
    let pla: Pla = text.parse().unwrap();
    let again: Pla = pla.to_pla_string().parse().unwrap();
    assert_eq!(pla.output_fns(), again.output_fns());
}

/// Collects the `CoverFinished` node counts a session emits.
#[derive(Default)]
struct CoverNodes(std::sync::Mutex<Vec<u64>>);

impl spp::core::EventSink for CoverNodes {
    fn emit(&self, event: &spp::core::Event) {
        if let spp::core::Event::CoverFinished { nodes, .. } = event {
            self.0.lock().unwrap().push(*nodes);
        }
    }
}

/// maj5 output 0 is the costliest covering proof of the exact registry
/// sweep: a 16 × 65 matrix where greedy already finds the optimum (20)
/// and the root's LP-dual bound (12) is far below it, so the search must
/// close the gap node by node. Pinning its one-worker node count guards the
/// search shape against per-node changes that claim to keep it.
#[test]
fn maj5_exact_cover_and_search_shape_are_pinned() {
    let f = registry::circuit("maj5").unwrap().outputs()[0].clone();
    let sink = std::sync::Arc::new(CoverNodes::default());
    let one = Minimizer::new(&f).threads(1).on_event(sink.clone()).run_exact();
    one.form.check_realizes(&f).unwrap();
    assert!(one.optimal);
    assert_eq!((one.literal_count(), one.form.terms().len()), (20, 5));
    assert_eq!(*sink.0.lock().unwrap(), vec![3_634], "one-worker cover_finished nodes");
    let two = Minimizer::new(&f).threads(2).run_exact();
    assert!(two.optimal);
    assert_eq!(two.literal_count(), 20);
    assert_eq!(two.form.terms(), one.form.terms());
}
