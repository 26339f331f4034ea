//! Fault-injection suite: drives every minimization phase through
//! injected faults (worker panics, allocation spikes, delays) and asserts
//! the run survives with a *verified* form — no lost incumbent, no panic
//! crossing the process boundary.
//!
//! Build with `cargo test --features failpoints`. The registry is
//! process-global, so every test serializes itself behind [`registry`]
//! and starts from a clean slate.
//!
//! Site cheat-sheet (where each failpoint fires):
//! - `generate.worker`: at the start of every generation worker, at any
//!   thread count (one worker runs inline) — isolated by `catch_unwind`.
//! - `generate.unit`: inside a generation worker, at the start of each
//!   work unit (a slice of one structure group), so a panic there stops a
//!   worker mid-level, after other units' union keys were recorded —
//!   isolated by the same `catch_unwind`.
//! - `cover.subtree`: inside branch-and-bound subtree workers — isolated.
//! - `generate.level`, `cover.columns`, `heuristic.descent`: on the
//!   session's own thread — NOT isolated; arm only with `Delay` or
//!   `ChargeBytes`, never `Panic`.

#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use spp::boolfn::BoolFn;
use spp::core::{Event, EventSink, Rung, SppCache};
use spp::obs::failpoints::{self, FailAction};
use spp::{Minimizer, Outcome};

/// Serializes registry access across tests and clears leftover state. A
/// test that fails while holding the guard poisons this mutex; later
/// tests recover it instead of cascading.
fn registry() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard =
        GUARD.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner);
    failpoints::clear_all();
    guard
}

/// A 5-variable function with enough structure that generation runs for
/// several levels and covering has real choices to make.
fn test_fn() -> BoolFn {
    BoolFn::from_truth_fn(5, |x| x % 3 == 1 || x.count_ones() == 4)
}

#[test]
fn generation_worker_panics_are_isolated() {
    let _guard = registry();
    let f = test_fn();
    for threads in [1usize, 2, 4] {
        failpoints::clear_all();
        failpoints::set("generate.worker", FailAction::Panic("injected worker fault".into()));
        let r = Minimizer::new(&f).threads(threads).run_exact();
        r.form.check_realizes(&f).expect("form must stay valid");
        assert_eq!(r.outcome, Outcome::Completed, "threads={threads}");
        assert!(!r.faults.is_empty(), "threads={threads} must record the panic");
        assert!(
            r.faults.iter().all(|fault| fault.site == "generate.worker"),
            "threads={threads}: {:?}",
            r.faults
        );
        // Killed workers truncate generation, so optimality is waived.
        assert!(!r.optimal, "threads={threads}");
    }
}

#[test]
fn open_sweep_worker_panic_mid_level_is_isolated() {
    let _guard = registry();
    // test1's first output: its ascent sweeps ~70 units over open levels
    // (`test_fn`'s sweeps three, so a panic after three never fires).
    let f = spp::benchgen::registry::circuit("test1").unwrap().outputs()[0].clone();
    for threads in [2usize, 4] {
        failpoints::clear_all();
        // Let a few units record their unions, then panic at the start of
        // every later one: those workers' keys and discards are lost, the
        // level counts as truncated, and the heuristic keeps every level
        // from there up.
        failpoints::set_after(
            "generate.unit",
            3,
            FailAction::Panic("injected at the start of a sweep unit".into()),
        );
        let r = Minimizer::new(&f).threads(threads).run_heuristic(0).expect("k = 0 < n");
        r.form.check_realizes(&f).expect("form must stay valid");
        assert_eq!(r.outcome, Outcome::Completed, "threads={threads}");
        assert!(!r.faults.is_empty(), "threads={threads} must record the panic");
        for fault in &r.faults {
            // The catch boundary is the worker, the payload names the site.
            assert_eq!(fault.site, "generate.worker", "threads={threads}");
            assert!(fault.message.contains("generate.unit"), "{:?}", fault);
        }
    }
}

#[test]
fn cover_subtree_panics_keep_the_incumbent() {
    let _guard = registry();
    let f = test_fn();
    for threads in [1usize, 2, 4] {
        failpoints::clear_all();
        failpoints::set("cover.subtree", FailAction::Panic("injected mid-cover".into()));
        let r = Minimizer::new(&f).threads(threads).run_exact();
        // Every subtree dies, but the greedy incumbent survives and covers.
        r.form.check_realizes(&f).expect("incumbent must stay valid");
        assert_eq!(r.outcome, Outcome::Completed, "threads={threads}");
        assert!(
            r.faults.iter().any(|fault| fault.site == "cover.subtree"),
            "threads={threads}: {:?}",
            r.faults
        );
        assert!(!r.optimal, "threads={threads}: lost subtrees waive optimality");
    }
}

#[test]
fn allocation_spike_during_generation_descends_the_ladder() {
    let _guard = registry();
    let f = test_fn();
    // Every generation level "allocates" a terabyte: the exact and
    // restricted rungs (which both run EPPP generation) blow the hard
    // budget, while the heuristic rung never enters that generator and
    // fits comfortably.
    failpoints::set("generate.level", FailAction::ChargeBytes(1 << 40));
    let r = Minimizer::new(&f)
        .threads(2)
        .mem_budget(None, Some(64 * 1024 * 1024))
        .run_governed();
    assert_eq!(r.rung, Rung::Heuristic, "outcome={:?}", r.outcome);
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    r.form.check_realizes(&f).expect("accepted rung must verify");
}

#[test]
fn allocation_spike_during_covering_stops_with_memory_exceeded() {
    let _guard = registry();
    let f = test_fn();
    failpoints::set("cover.columns", FailAction::ChargeBytes(1 << 40));
    let r = Minimizer::new(&f).mem_budget(None, Some(1 << 20)).run_exact();
    // The greedy cover lands before the budget check, so the result is
    // valid — only the exact refinement is abandoned.
    assert_eq!(r.outcome, Outcome::MemoryExceeded);
    assert!(!r.optimal);
    r.form.check_realizes(&f).expect("greedy cover must stay valid");
}

#[test]
fn injected_delay_trips_the_deadline() {
    let _guard = registry();
    let f = test_fn();
    failpoints::set("generate.level", FailAction::Delay(Duration::from_millis(40)));
    let r = Minimizer::new(&f).deadline(Duration::from_millis(5)).run_exact();
    assert_eq!(r.outcome, Outcome::DeadlineExceeded);
    assert!(!r.optimal);
    r.form.check_realizes(&f).expect("best-so-far must stay valid");
}

/// Collects every emitted event for later assertions.
#[derive(Default)]
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn events(&self) -> Vec<Event> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: &Event) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

/// Seeds `cache` with a cold run of `base`, then runs `edited` against it
/// with the given delta failpoint armed (benignly — the armed check, not
/// the action, is what flips the splice onto its corrupting path).
/// Returns the edited run's result and the events it emitted.
fn run_edited_with_armed_delta(
    site: &str,
    base: &BoolFn,
    edited: &BoolFn,
    threads: usize,
    cache: &SppCache,
) -> (spp::core::SppMinResult, Vec<Event>) {
    failpoints::clear_all();
    let seed = Minimizer::new(base).threads(threads).cache(cache.clone()).run_exact();
    seed.form.check_realizes(base).expect("seed form must verify");
    failpoints::set(site, FailAction::Delay(Duration::ZERO));
    let sink = Arc::new(Collect::default());
    let r = Minimizer::new(edited)
        .threads(threads)
        .cache(cache.clone())
        .on_event(sink.clone())
        .run_exact();
    failpoints::clear_all();
    (r, sink.events())
}

#[test]
fn corrupt_delta_splice_is_caught_and_falls_back_cold() {
    let _guard = registry();
    let base = test_fn();
    // One added minterm: 0 is OFF in `base`, so the edit is a distance-1
    // sibling and the splice path is the one that must answer it.
    let edited = BoolFn::from_truth_fn(5, |x| x == 0 || x % 3 == 1 || x.count_ones() == 4);
    let cold = Minimizer::new(&edited).run_exact();
    for threads in [1usize, 2, 4] {
        let cache = SppCache::in_memory(32 * 1024 * 1024);
        // Armed `delta.splice` makes the splice inject a pseudocube
        // outside ON' ∪ DC into its frontier; the verify-on-splice pass
        // must catch the corruption, reject the delta, and fall back to
        // cold generation — never serve the corrupt set.
        let (r, events) =
            run_edited_with_armed_delta("delta.splice", &base, &edited, threads, &cache);
        r.form.check_realizes(&edited).expect("fallback form must verify");
        assert_eq!(r.form, cold.form, "threads={threads}");
        let stats = cache.stats();
        assert_eq!(stats.delta_reuses, 0, "threads={threads}");
        assert_eq!(stats.delta_rejects, 1, "threads={threads}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::DeltaRejected { reason } if reason == "verify")),
            "threads={threads}: expected a DeltaRejected(verify) event, got {events:?}"
        );
    }
}

#[test]
fn armed_delta_verify_rejects_the_splice() {
    let _guard = registry();
    let base = test_fn();
    let edited = BoolFn::from_truth_fn(5, |x| x == 0 || x % 3 == 1 || x.count_ones() == 4);
    let cold = Minimizer::new(&edited).run_exact();
    for threads in [1usize, 2, 4] {
        let cache = SppCache::in_memory(32 * 1024 * 1024);
        let (r, events) =
            run_edited_with_armed_delta("delta.verify", &base, &edited, threads, &cache);
        r.form.check_realizes(&edited).expect("fallback form must verify");
        assert_eq!(r.form, cold.form, "threads={threads}");
        assert_eq!(cache.stats().delta_rejects, 1, "threads={threads}");
        assert!(
            events.iter().any(|e| matches!(e, Event::DeltaRejected { .. })),
            "threads={threads}: {events:?}"
        );
    }
}

#[test]
fn unarmed_delta_site_counts_hits() {
    let _guard = registry();
    let base = test_fn();
    let edited = BoolFn::from_truth_fn(5, |x| x == 0 || x % 3 == 1 || x.count_ones() == 4);
    let cache = SppCache::in_memory(32 * 1024 * 1024);
    let _ = Minimizer::new(&base).cache(cache.clone()).run_exact();
    let r = Minimizer::new(&edited).cache(cache.clone()).run_exact();
    r.form.check_realizes(&edited).expect("delta form must verify");
    assert_eq!(failpoints::hits("delta.splice"), 1);
    assert_eq!(cache.stats().delta_reuses, 1);
}

#[test]
fn heuristic_descent_site_fires_and_respects_the_budget() {
    let _guard = registry();
    let f = test_fn();
    // Unarmed, the site still counts hits: one per descent step.
    let r = Minimizer::new(&f).run_heuristic(2).expect("k in range");
    assert_eq!(failpoints::hits("heuristic.descent"), 2);
    r.form.check_realizes(&f).expect("heuristic form must verify");

    // Armed with an allocation spike, the descent trips the hard budget
    // and the session returns its (valid) seed-based best-so-far.
    failpoints::set("heuristic.descent", FailAction::ChargeBytes(1 << 40));
    let r = Minimizer::new(&f).mem_budget(None, Some(1 << 20)).run_heuristic(2).expect("k in range");
    assert_eq!(r.outcome, Outcome::MemoryExceeded);
    r.form.check_realizes(&f).expect("truncated heuristic must stay valid");
}
