//! Cross-form invariants of the portfolio layer: every engine's output
//! realizes the same function under its own semantics, a completed race
//! is deterministic — same winner, same cost — at any thread count, and
//! an entrant is skipped only when it could not have beaten the proved
//! SPP minimum.

use proptest::prelude::*;
use spp::core::{Form, FormPortfolio, FormRealization, Minimizer, Objective};
use spp::obs::Rung;
use spp::prelude::*;

/// A random function on `n ≤ 5` variables as an on-set bitmap.
fn small_fn() -> impl Strategy<Value = BoolFn> {
    (2usize..=5).prop_flat_map(|n| {
        proptest::collection::vec(any::<bool>(), 1 << n)
            .prop_map(move |bits| BoolFn::from_truth_fn(n, |x| bits[x as usize]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every entrant that runs realizes `f` under its own form semantics
    /// — XOR of cubes for ESOP, disjoint OR for DSOP, plain OR for SOP and
    /// SPP — at 1, 2 and 4 worker threads: the full literal race (where
    /// DSOP and SOP may be skipped) and a race of the three cube forms
    /// (where every entrant runs).
    #[test]
    fn all_forms_realize_the_same_function(f in small_fn()) {
        use Form::{Dsop, Esop, Sop};
        let cubes = FormPortfolio::new().forms(vec![Esop, Dsop, Sop]);
        for threads in [1usize, 2, 4] {
            for race in [FormPortfolio::new(), cubes.clone()] {
                let r = Minimizer::new(&f).threads(threads).run_portfolio(&race);
                prop_assert!(r.realization.realizes(&f), "winner at {threads} threads");
                prop_assert_eq!(r.reports.len(), race.entrants().len());
                for rep in &r.reports {
                    // Accepted means verified, so every entrant that ran
                    // realized `f`.
                    prop_assert!(
                        rep.accepted != rep.skipped,
                        "{} rejected at {threads} threads", rep.form
                    );
                    prop_assert!(!rep.skipped || matches!(rep.form, Dsop | Sop));
                    // The winner is the cheapest verified entrant.
                    prop_assert!(rep.cost.is_none_or(|c| r.cost <= c));
                }
            }
        }
    }

    /// A completed race is bit-deterministic: the winner, its cost and
    /// every entrant's cost are identical at 1, 2 and 4 threads, under
    /// both objectives.
    #[test]
    fn portfolio_race_is_thread_count_invariant(f in small_fn()) {
        for objective in [Objective::Literals, Objective::Gates] {
            let race = FormPortfolio::new().objective(objective);
            let baseline = Minimizer::new(&f).threads(1).run_portfolio(&race);
            for threads in [2usize, 4] {
                let r = Minimizer::new(&f).threads(threads).run_portfolio(&race);
                prop_assert_eq!(r.winner, baseline.winner, "winner at {} threads", threads);
                prop_assert_eq!(r.cost, baseline.cost, "cost at {} threads", threads);
                let costs: Vec<_> =
                    r.reports.iter().map(|rep| (rep.form, rep.cost, rep.skipped)).collect();
                let base: Vec<_> = baseline
                    .reports
                    .iter()
                    .map(|rep| (rep.form, rep.cost, rep.skipped))
                    .collect();
                prop_assert_eq!(costs, base, "scoreboard at {} threads", threads);
            }
        }
    }

    /// A literal race skips DSOP and SOP exactly when the SPP entrant is
    /// proved minimal on the exact rung, and then each of them, raced
    /// alone, realizes `f` at no lower cost than the SPP entrant. A gate
    /// race never skips.
    #[test]
    fn skipped_entrants_cost_no_less_than_the_proved_spp_minimum(f in small_fn()) {
        use Form::{Dsop, Sop, Spp};
        let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
        let governed = Minimizer::new(&f).run_governed();
        let proved = governed.optimal && governed.rung == Rung::Exact;
        let spp = r.reports.iter().find(|rep| rep.form == Spp).unwrap();
        prop_assert_eq!(spp.cost, Some(governed.literal_count()));
        let skipped: Vec<Form> =
            r.reports.iter().filter(|rep| rep.skipped).map(|rep| rep.form).collect();
        prop_assert_eq!(skipped, if proved { vec![Dsop, Sop] } else { vec![] });
        for rep in r.reports.iter().filter(|rep| rep.skipped) {
            prop_assert!(!rep.accepted && rep.cost.is_none());
            let race = FormPortfolio::new().forms(vec![rep.form]);
            let alone = Minimizer::new(&f).run_portfolio(&race);
            prop_assert_eq!(alone.winner, rep.form);
            prop_assert!(alone.realization.realizes(&f));
            prop_assert!(alone.cost >= governed.literal_count(), "{}: {}", rep.form, alone.cost);
        }
        let gates = FormPortfolio::new().objective(Objective::Gates);
        let g = Minimizer::new(&f).run_portfolio(&gates);
        prop_assert_eq!(g.reports.len(), 4);
        prop_assert!(g.reports.iter().all(|rep| !rep.skipped));
    }

    /// Single-form races return that form, and its cost matches the
    /// realization's own accounting.
    #[test]
    fn single_form_races_return_the_requested_form(f in small_fn()) {
        for form in Form::ALL {
            let race = FormPortfolio::new().forms(vec![form]);
            let r = Minimizer::new(&f).run_portfolio(&race);
            prop_assert_eq!(r.winner, form);
            prop_assert_eq!(r.cost, r.realization.cost(Objective::Literals));
            prop_assert!(r.realization.realizes(&f));
        }
    }
}

/// The four realization variants all map to working netlists — checked
/// once on parity, where SPP/ESOP collapse and SOP/DSOP explode.
#[test]
fn realizations_render_to_equivalent_netlists() {
    let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
    for form in Form::ALL {
        let race = FormPortfolio::new().forms(vec![form]);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let net =
            spp::netlist::Netlist::from_realizations(std::slice::from_ref(&r.realization));
        assert!(net.equivalent_to(&f, 0), "{form} netlist differs");
        assert!(matches!(
            (form, &r.realization),
            (Form::Spp, FormRealization::Spp(_))
                | (Form::Esop, FormRealization::Esop(_))
                | (Form::Dsop, FormRealization::Dsop(_))
                | (Form::Sop, FormRealization::Sop(_))
        ));
    }
}
