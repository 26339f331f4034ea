//! Integration tests of the run-control subsystem: deadlines,
//! deterministic cancellation and the [`SppError`] surface, end to end
//! through the facade crate.

use std::time::{Duration, Instant};

use spp::benchgen::registry;
use spp::core::CancelToken;
use spp::prelude::*;

/// An already-expired deadline must stop every phase promptly and still
/// yield a *verified* form for every registry benchmark — the degraded
/// result is valid, never garbage.
#[test]
fn zero_deadline_yields_valid_forms_on_every_benchmark() {
    for name in registry::ALL_NAMES {
        let c = registry::circuit(name).unwrap();
        let f = c.output_on_support(0);
        if f.is_zero() || f.num_vars() == 0 {
            continue;
        }
        let start = Instant::now();
        let r = Minimizer::new(&f).deadline(Duration::ZERO).run_exact();
        let elapsed = start.elapsed();
        assert_eq!(
            r.outcome,
            Outcome::DeadlineExceeded,
            "{name}: an expired deadline must be reported"
        );
        assert!(!r.optimal, "{name}: a cut-short run can never claim optimality");
        r.form
            .check_realizes(&f)
            .unwrap_or_else(|e| panic!("{name}: best-so-far form invalid: {e}"));
        // "Promptly" allows the SP fallback that guarantees validity, but
        // not a full exact run on the hard benchmarks.
        assert!(
            elapsed < Duration::from_secs(20),
            "{name}: expired deadline took {elapsed:?} to unwind"
        );
    }
}

/// A fuse-armed token trips at a *counted* checkpoint, and counted
/// checkpoints happen at the same algorithmic points at any thread count —
/// so the cancelled best-so-far result is bit-identical across thread
/// counts.
#[test]
fn counted_cancellation_is_thread_count_invariant() {
    let f = registry::circuit("adr4").unwrap().output_on_support(2);
    let run = |threads: usize| {
        let r = Minimizer::new(&f)
            .threads(threads)
            .cancel_token(CancelToken::cancel_after_checkpoints(2))
            .run_exact();
        assert_eq!(r.outcome, Outcome::Cancelled, "x{threads}");
        r.form.check_realizes(&f).unwrap_or_else(|e| panic!("x{threads}: {e}"));
        r.form
    };
    let baseline = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), baseline, "cancelled form diverged at x{threads}");
    }
}

/// The heuristic under a cancelled token also unwinds to a valid form.
#[test]
fn cancelled_heuristic_still_realizes_f() {
    let f = registry::circuit("life").unwrap().output_on_support(0);
    let token = CancelToken::new();
    token.cancel();
    let r = Minimizer::new(&f).cancel_token(token).run_heuristic(1).unwrap();
    assert_eq!(r.outcome, Outcome::Cancelled);
    r.form.check_realizes(&f).unwrap();
}

/// Outcome identifiers round-trip (they are part of the wire protocol
/// and the event stream, so their spelling is load-bearing).
#[test]
fn outcome_identifiers_round_trip() {
    for o in [Outcome::Completed, Outcome::DeadlineExceeded, Outcome::Cancelled] {
        assert_eq!(Outcome::parse(&o.to_string()), Some(o));
    }
    assert_eq!(Outcome::parse("nonsense"), None);
    assert_eq!(
        Outcome::Completed.merge(Outcome::DeadlineExceeded),
        Outcome::DeadlineExceeded
    );
    assert_eq!(Outcome::DeadlineExceeded.merge(Outcome::Cancelled), Outcome::Cancelled);
}

/// Every contract violation surfaces as a typed [`SppError`] whose
/// message keeps the old panic wording.
#[test]
fn spp_errors_are_typed_and_well_worded() {
    let f = BoolFn::from_truth_fn(3, |x| x != 0);
    let e = Minimizer::new(&f).run_heuristic(7).unwrap_err();
    assert!(matches!(e, SppError::HeuristicK { k: 7, n: 3 }), "{e:?}");
    assert!(e.to_string().contains("must satisfy"), "{e}");

    let e = Minimizer::new(&f).run_restricted(0).unwrap_err();
    assert!(matches!(e, SppError::ZeroFactorWidth));
    assert!(e.to_string().contains("at least one literal"), "{e}");

    let e = MultiMinimizer::new(&[]).run().unwrap_err();
    assert!(matches!(e, SppError::NoOutputs));
    assert!(e.to_string().contains("at least one output"), "{e}");

    let g = BoolFn::from_truth_fn(4, |x| x == 1);
    let e = MultiMinimizer::new(&[f.clone(), g]).run().unwrap_err();
    assert!(matches!(e, SppError::MixedVariableCounts { expected: 3, found: 4 }));
    assert!(e.to_string().contains("share the input variables"), "{e}");

    let e = spp::core::parse_pla("not a pla").unwrap_err();
    assert!(matches!(e, SppError::Pla(_)));
    assert!(std::error::Error::source(&e).is_some(), "parse errors keep their source");
}

/// `parse_pla` is the fallible front door to PLA input: the Ok side
/// matches `str::parse`, the Err side is an [`SppError`].
#[test]
fn parse_pla_matches_fromstr() {
    let text = ".i 2\n.o 1\n01 1\n10 1\n.e\n";
    let via_error_api = spp::core::parse_pla(text).unwrap();
    let via_fromstr: Pla = text.parse().unwrap();
    assert_eq!(via_error_api.output_fns(), via_fromstr.output_fns());
}
