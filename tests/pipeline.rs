//! Cross-crate integration tests: PLA parsing → SP → SPP pipelines,
//! heuristic vs exact agreement, grouping-strategy equivalence and the
//! benchmark registry.

use std::collections::HashSet;

use spp::benchgen::registry;
use spp::core::{GenLimits, Minimizer, Pseudocube, SppOptions};
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
    let session = Minimizer::new(&f);
    let trie: HashSet<_> = session.generate().pseudocubes.into_iter().collect();
    let quad: HashSet<_> = session.generate_quadratic().pseudocubes.into_iter().collect();
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
/// close the gap node by node. Most of its interior nodes are narrow, so
/// they solve fresh duals and retire the columns whose reduced cost
/// already reaches the warm start. Pinning its one-worker node count
/// guards the search shape against per-node changes that claim to keep
/// it; the terms must not depend on the worker count.
#[test]
fn maj5_exact_cover_and_search_shape_are_pinned() {
    let f = registry::circuit("maj5").unwrap().outputs()[0].clone();
    let sink = std::sync::Arc::new(CoverNodes::default());
    let one = Minimizer::new(&f).threads(1).on_event(sink.clone()).run_exact();
    one.form.check_realizes(&f).unwrap();
    assert!(one.optimal);
    assert_eq!((one.literal_count(), one.form.terms().len()), (20, 5));
    assert_eq!(*sink.0.lock().unwrap(), vec![1_190], "one-worker cover_finished nodes");
    for threads in [2, 4] {
        let many = Minimizer::new(&f).threads(threads).run_exact();
        assert!(many.optimal, "{threads} workers");
        assert_eq!(many.literal_count(), 20, "{threads} workers");
        assert_eq!(many.form.terms(), one.form.terms(), "{threads} workers");
    }
}

/// Sums the `unions` of every `GenLevelFinished` a session emits.
#[derive(Default)]
struct LevelUnions(std::sync::atomic::AtomicUsize);

impl spp::core::EventSink for LevelUnions {
    fn emit(&self, event: &spp::core::Event) {
        if let spp::core::Event::GenLevelFinished { unions, .. } = event {
            self.0.fetch_add(*unions, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// The heuristic's ascent sweeps open levels, seeded from a cover: many
/// pairs there name the same union, which the sweep must keep once. Each
/// output's complete run is pinned as `literals candidates unions |
/// size:comparisons:retained per level`, at one and two workers.
#[test]
fn heuristic_open_sweeps_are_pinned() {
    let pins: [(&str, usize, &[&str]); 3] = [
        (
            "adr4",
            0,
            &[
                "2 4 1 | 2:1:0 1:0:1",
                "10 12 3 | 2:1:0 5:2:1 2:0:2",
                "31 34 13 | 4:2:0 14:10:2 10:3:6 1:0:1",
                "83 30 33 | 8:4:0 28:20:4 24:12:12 8:3:4 1:0:1",
                "64 22 0 | 8:0:8 4:0:4 2:0:2 1:0:1",
            ],
        ),
        (
            "test1",
            0,
            &[
                "14 2 292 | 16:120:0 120:420:0 142:211:0 31:15:1 1:0:1",
                "10 18 8 | 7:7:1 7:3:1 1:0:1",
                "7 16 15 | 4:6:0 8:4:0 6:6:2 6:3:0 1:0:1",
                "9 7 2 | 4:1:2 1:0:1 2:1:0 1:0:1",
                "10 23 17 | 6:3:4 11:12:3 12:6:0 2:0:2",
                "5 172 291 | 16:120:0 120:420:0 140:210:0 30:15:0 1:0:1",
                "11 37 296 | 24:124:0 126:421:4 141:210:1 30:15:0 1:0:1",
                "14 8 338 | 32:152:0 153:462:5 154:217:0 31:15:1 1:0:1",
                "10 4 45 | 8:28:0 30:43:0 15:7:1 1:0:1 2:1:0 1:0:1",
                "10 7 58 | 8:12:0 14:7:2 3:0:3 8:28:0 28:42:0 14:7:0 1:0:1",
            ],
        ),
        (
            "root",
            2,
            &[
                "117 69 35 | 14:16:4 41:19:25 31:4:31 7:0:7 1:0:1",
                "70 39 14 | 6:6:6 15:4:15 11:3:9 3:0:3 6:1:4 1:0:1",
                "44 41 4 | 3:0:3 6:0:6 6:0:6 13:4:5 4:0:4",
                "26 1032 265 | 8:0:8 748:636:0 264:127:10 1:0:1",
                "20 8 0 | 4:0:4",
            ],
        ),
    ];
    for (name, k, expected) in pins {
        let circuit = registry::circuit(name).unwrap();
        for threads in [1usize, 2] {
            let runs: Vec<String> = circuit
                .outputs()
                .iter()
                .map(|f| {
                    let sink = std::sync::Arc::new(LevelUnions::default());
                    let r = Minimizer::new(f)
                        .threads(threads)
                        .on_event(sink.clone())
                        .run_heuristic(k)
                        .unwrap();
                    r.form.check_realizes(f).unwrap();
                    assert!(!r.gen_stats.truncated, "{name}, {threads} threads");
                    let levels: Vec<String> = r
                        .gen_stats
                        .levels
                        .iter()
                        .map(|l| format!("{}:{}:{}", l.size, l.comparisons, l.retained))
                        .collect();
                    format!(
                        "{} {} {} | {}",
                        r.literal_count(),
                        r.num_candidates,
                        sink.0.load(std::sync::atomic::Ordering::Relaxed),
                        levels.join(" ")
                    )
                })
                .collect();
            assert_eq!(runs, expected, "{name}, k = {k}, {threads} threads");
        }
    }
}

/// The governed ladder's heuristic rung is charged one pseudocube
/// estimate per distinct union, however many pairs name it: test1's
/// output 0 sweeps 751 pairs into 292 unions. Under a hard budget one
/// byte above that charge, Algorithm 2's rungs overflow and the heuristic
/// answers, with the form it gives on its own, at one and two workers.
#[test]
fn governed_ladder_lands_on_the_heuristic_rung_it_fits() {
    let f = registry::circuit("test1").unwrap().outputs()[0].clone();
    let alone = Minimizer::new(&f).threads(1);
    let heuristic = alone.run_heuristic(0).unwrap();
    let bytes = alone.run_ctx().governor().bytes();
    assert_eq!((bytes, heuristic.literal_count()), (38_730, 14));
    for threads in [1usize, 2] {
        let r = Minimizer::new(&f).threads(threads).mem_budget(None, Some(bytes + 1)).run_governed();
        assert_eq!(r.rung, spp::core::Rung::Heuristic, "{threads} threads");
        assert!(r.outcome.is_completed(), "{threads} threads: {}", r.outcome);
        assert_eq!(r.form.terms(), heuristic.form.terms(), "{threads} threads");
        r.form.check_realizes(&f).unwrap();
    }
}

/// Under Figure 3's fast budget (150,000 pseudocubes), a high-`k` descent
/// leaves the ascent little of it, while one union there has many pairs.
/// The ascent's budget counts distinct unions, so these runs complete.
/// Each is pinned as `candidates generated unions`, at one and two
/// workers.
#[test]
fn heuristic_runs_near_the_fast_budget_complete() {
    let pins = [("dist", 4, 6, "2250 54031 50879"), ("f51m", 3, 7, "14772 83674 83538")];
    for (name, output, k, expected) in pins {
        let f = registry::circuit(name).unwrap().output_on_support(output);
        for threads in [1usize, 2] {
            let sink = std::sync::Arc::new(LevelUnions::default());
            let r = Minimizer::new(&f)
                .threads(threads)
                .limits(GenLimits::default().with_max_pseudocubes(150_000))
                .cover_limits(spp::cover::Limits::default().with_max_nodes(1))
                .on_event(sink.clone())
                .run_heuristic(k)
                .unwrap();
            r.form.check_realizes(&f).unwrap();
            assert!(!r.gen_stats.truncated, "{name}({output}), k = {k}, {threads} threads");
            let unions = sink.0.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(
                format!("{} {} {unions}", r.num_candidates, r.gen_stats.total_generated),
                expected,
                "{name}({output}), k = {k}, {threads} threads"
            );
        }
    }
}
