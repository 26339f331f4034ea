//! The unified builder-style session API, [`Minimizer`], and the plan
//! executor behind its governed and racing runs.
//!
//! Every minimization entry point of the workspace funnels through one
//! builder, which owns the algorithm configuration ([`SppOptions`]) *and*
//! the run control ([`RunCtx`]: deadline, cancellation, progress events).
//! It is generic over its input: `Minimizer<BoolFn>` runs one output,
//! [`MultiMinimizer`] (`Minimizer<[BoolFn]>`) shares terms across many.
//! The serve daemon and the CLI reach them through the transport-neutral
//! [`crate::MinimizeRequest`] / [`crate::MinimizeResponse`] pair, which is
//! a thin layer over these same sessions.
//!
//! The degradation ladder ([`Minimizer::run_governed`]) and the form race
//! ([`Minimizer::run_portfolio`]) are one *plan* each: an ordered list of
//! entrants plus a selection rule (first accepted, or cheapest accepted),
//! run by one executor that resets the byte account per entrant,
//! traces it, verifies its result, excludes it on memory exhaustion or a
//! failed check, and backstops an all-excluded plan with the SP minimum.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_boolfn::{BoolFn, Cube};
use spp_obs::{CancelToken, Event, EventSink, Form, Outcome, RunCtx, Rung};
use spp_par::Parallelism;
use spp_sp::SpMinResult;

use crate::generate::generate_eppp_session;
use crate::heuristic::{heuristic_from_cover_session, heuristic_session};
use crate::minimize::{algorithm2_session, cached_eppp, sp_minimum};
use crate::multi::multi_session_cached;
use crate::{
    EpppSet, GenLimits, Grouping, MultiSppResult, Pseudocube, SppCache, SppError, SppMinResult,
    SppOptions,
};

/// A configured minimization session — the front door of the crate.
///
/// Build one per run: algorithm knobs (`grouping`, `limits`,
/// `cover_limits`, `threads`) and run control (`deadline`, `cancel_token`,
/// `on_event`) chain fluently, then one of the `run_*` / `generate`
/// methods executes. On deadline or cancellation every phase unwinds to a
/// valid best-so-far form and the cause is recorded in the result's
/// `outcome`. The input `F` is one function (the default) or a slice of
/// outputs ([`MultiMinimizer`]); the builder is the same for both.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spp_boolfn::BoolFn;
/// use spp_core::{Grouping, Minimizer, Outcome};
///
/// let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
/// let r = Minimizer::new(&f)
///     .grouping(Grouping::PartitionTrie)
///     .deadline(Duration::from_secs(5))
///     .run_exact();
/// assert!(r.form.check_realizes(&f).is_ok());
/// assert_eq!(r.outcome, Outcome::Completed);
/// assert_eq!(r.literal_count(), 4);
/// ```
#[derive(Debug)]
pub struct Minimizer<'f, F: ?Sized = BoolFn> {
    pub(crate) f: &'f F,
    pub(crate) options: SppOptions,
    pub(crate) ctx: RunCtx,
    pub(crate) cache: Option<SppCache>,
}

/// A configured multi-output minimization session: per-output EPPP
/// generation plus one shared covering problem in which each chosen
/// pseudoproduct's literals are paid once.
///
/// # Examples
///
/// ```
/// use spp_boolfn::BoolFn;
/// use spp_core::MultiMinimizer;
///
/// let f0 = BoolFn::from_truth_fn(3, |x| (x ^ (x >> 1)) & 1 == 1);
/// let f1 = BoolFn::from_truth_fn(3, |x| (x ^ (x >> 1)) & 1 == 1 && x & 0b100 != 0);
/// let r = MultiMinimizer::new(&[f0.clone(), f1.clone()]).run().unwrap();
/// assert!(r.forms[0].check_realizes(&f0).is_ok());
/// assert!(r.shared_literal_count <= r.separate_literal_count());
/// ```
pub type MultiMinimizer<'f> = Minimizer<'f, [BoolFn]>;

// Not derived: a derive would demand `F: Clone`, which `[BoolFn]` is not.
impl<F: ?Sized> Clone for Minimizer<'_, F> {
    fn clone(&self) -> Self {
        Minimizer {
            f: self.f,
            options: self.options.clone(),
            ctx: self.ctx.clone(),
            cache: self.cache.clone(),
        }
    }
}

impl<'f, F: ?Sized> Minimizer<'f, F> {
    /// Starts a session on `f` with default options and no run control.
    #[must_use]
    pub fn new(f: &'f F) -> Self {
        Minimizer { f, options: SppOptions::default(), ctx: RunCtx::default(), cache: None }
    }

    /// Replaces the whole option block at once.
    #[must_use]
    pub fn options(mut self, options: SppOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the structure-grouping strategy for candidate generation.
    #[must_use]
    pub fn grouping(mut self, grouping: Grouping) -> Self {
        self.options.grouping = grouping;
        self
    }

    /// Sets the generation budget.
    #[must_use]
    pub fn limits(mut self, limits: GenLimits) -> Self {
        self.options.gen_limits = limits;
        self
    }

    /// Sets the covering budget.
    #[must_use]
    pub fn cover_limits(mut self, limits: spp_cover::Limits) -> Self {
        self.options.cover_limits = limits;
        self
    }

    /// Caps the whole run (all outputs, all phases) to `budget` from now.
    /// Tighter per-phase `time_limit`s still apply.
    #[must_use]
    pub fn deadline(self, budget: Duration) -> Self {
        self.deadline_at(Instant::now() + budget)
    }

    /// Caps the whole run with an absolute deadline.
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.ctx = self.ctx.cap_deadline(Some(deadline));
        self
    }

    /// Uses exactly `n` worker threads (`--threads`-style override; wins
    /// over the `SPP_THREADS` environment default).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.options.gen_limits.parallelism = Parallelism::fixed(n);
        self
    }

    /// Sets the full worker-thread policy (e.g. [`Parallelism::AUTO`]).
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.options.gen_limits.parallelism = parallelism;
        self
    }

    /// Installs a cancellation token: the run stops cooperatively (with a
    /// valid best-so-far result) once the token is cancelled.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.ctx = self.ctx.with_cancel(token);
        self
    }

    /// Sets the session's memory-accounting budgets, in bytes. A blown
    /// `soft` budget degrades quality while the run completes (generation
    /// truncates, the covering step skips its exact refinement); a blown
    /// `hard` budget stops phases like a deadline, with
    /// [`Outcome::MemoryExceeded`] — and makes
    /// [`run_governed`](Minimizer::run_governed) descend the ladder.
    #[must_use]
    pub fn mem_budget(mut self, soft: Option<u64>, hard: Option<u64>) -> Self {
        self.ctx = self.ctx.with_mem_budget(soft, hard);
        self
    }

    /// Installs a progress-event sink (see [`spp_obs::EventSink`]).
    #[must_use]
    pub fn on_event(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.ctx = self.ctx.with_sink(sink);
        self
    }

    /// Attaches a cross-call result cache (see [`SppCache`]): a verified
    /// result hit skips both phases, a cached EPPP set skips generation,
    /// and sibling results warm-start the covering search; a multi-output
    /// run hits on the whole circuit or per output. Clones of one cache
    /// share a store, so many sessions can feed each other.
    #[must_use]
    pub fn cache(mut self, cache: SppCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl Minimizer<'_> {
    /// The configured run-control context (for composing with the lower
    /// level `spp_cover` API).
    #[must_use]
    pub fn run_ctx(&self) -> &RunCtx {
        &self.ctx
    }

    /// Generates the EPPP candidate set (Algorithm 2 steps 1–2) without
    /// covering: successive unions of same-structure pseudocubes starting
    /// from single points, where a pseudocube with `h` literals is
    /// discarded only when a one-step union covers it with at most `h`
    /// literals. The retained set always covers the ON-set, so a valid
    /// cover exists even when the limits truncate the run.
    #[must_use]
    pub fn generate(&self) -> EpppSet {
        // Only the unrestricted set is cacheable: a `generate_where`
        // predicate is an arbitrary closure with no stable cache key.
        cached_eppp(self.cache.as_ref(), self.f, self.options.grouping, 0, &self.ctx, || {
            self.generate_where(&|_| true)
        })
    }

    /// [`Minimizer::generate`] restricted to a *conforming* family of
    /// pseudoproducts (e.g. bounded factor width for `k`-SPP synthesis).
    /// Non-conforming pseudocubes are still traversed — their unions may
    /// lead back into the family — but never retained as candidates, and
    /// only a conforming union may discard its halves. The predicate must
    /// be `Sync`: workers call it concurrently when the sweep runs
    /// parallel.
    #[must_use]
    pub fn generate_where(
        &self,
        conforming: &(dyn Fn(&Pseudocube) -> bool + Sync),
    ) -> EpppSet {
        generate_eppp_session(
            self.f,
            self.options.grouping,
            &self.options.gen_limits,
            conforming,
            &self.ctx,
        )
    }

    /// Runs the exact minimizer — the paper's **Algorithm 2** (EPPP
    /// generation + minimum-literal covering).
    #[must_use]
    pub fn run_exact(&self) -> SppMinResult {
        algorithm2_session(self.f, None, &self.options, &self.ctx, self.cache.as_ref())
            .expect("the unrestricted family has no width to reject")
    }

    /// Runs the incremental heuristic — the paper's **Algorithm 3**
    /// (`SPP_k` forms) — seeded with the SP prime implicants.
    ///
    /// # Errors
    ///
    /// [`SppError::HeuristicK`] when `k` is outside `0 ≤ k < n`.
    pub fn run_heuristic(&self, k: usize) -> Result<SppMinResult, SppError> {
        let r = heuristic_session(self.f, k, &self.options, &self.ctx)?;
        if let Some(cache) = &self.cache {
            cache.put_warm_form(self.f, Rung::Heuristic, r.form.terms(), &self.ctx);
        }
        Ok(r)
    }

    /// [`Minimizer::run_heuristic`] seeded by an arbitrary cube cover.
    ///
    /// # Errors
    ///
    /// [`SppError::HeuristicK`] when `k` is out of range,
    /// [`SppError::SeedNotACover`] / [`SppError::SeedNotImplicant`] when
    /// the seed violates its contract.
    pub fn run_heuristic_from_cover(
        &self,
        cover: &[Cube],
        k: usize,
    ) -> Result<SppMinResult, SppError> {
        heuristic_from_cover_session(self.f, cover, k, &self.options, &self.ctx)
    }

    /// Runs the width-restricted minimizer (`k`-SPP: every EXOR factor has
    /// at most `max_factor_literals` literals; 2 gives the classical
    /// 2-SPP form).
    ///
    /// # Errors
    ///
    /// [`SppError::ZeroFactorWidth`] when `max_factor_literals == 0`.
    pub fn run_restricted(
        &self,
        max_factor_literals: usize,
    ) -> Result<SppMinResult, SppError> {
        let r = algorithm2_session(
            self.f,
            Some(max_factor_literals),
            &self.options,
            &self.ctx,
            self.cache.as_ref(),
        )?;
        if let Some(cache) = &self.cache {
            cache.put_warm_form(self.f, Rung::RestrictedExact, r.form.terms(), &self.ctx);
        }
        Ok(r)
    }

    /// Runs the resource-governed degradation ladder: **exact** SPP
    /// (Algorithm 2) → **restricted exact** (2-SPP, a far smaller search
    /// space) → **heuristic** (`SPP_0`, Algorithm 3) → **SP fallback**
    /// (cubes only — always within reach).
    ///
    /// Each rung runs under the session's [`mem_budget`](Minimizer::mem_budget)
    /// with the byte account reset first, and its result is independently
    /// verified against `f`. The first rung that verifies *and* stays
    /// within the hard budget is the answer; a rung ending with
    /// [`Outcome::MemoryExceeded`] (or failing verification — defense in
    /// depth) makes the ladder descend. [`SppMinResult::rung`] records
    /// which rung produced the returned form, and `RungStarted` /
    /// `RungFinished` events trace the descent.
    ///
    /// A deadline or cancellation does *not* descend: the rung's
    /// best-so-far form is already the best answer the remaining time
    /// allows. Without a memory budget this behaves like
    /// [`run_exact`](Self::run_exact) plus ladder events.
    #[must_use]
    pub fn run_governed(&self) -> SppMinResult {
        let rungs = [Rung::Exact, Rung::RestrictedExact, Rung::Heuristic];
        let (r, _) = self.run_plan(&rungs, Pick::First, |rung| match rung {
            Rung::Exact => Some(self.run_exact()),
            Rung::RestrictedExact => {
                let cache = self.cache.as_ref();
                algorithm2_session(self.f, Some(2), &self.options, &self.ctx, cache).ok()
            }
            _ => heuristic_session(self.f, 0, &self.options, &self.ctx).ok(),
        });
        if matches!(r.rung, Rung::RestrictedExact | Rung::Heuristic) {
            if let Some(cache) = &self.cache {
                cache.put_warm_form(self.f, r.rung, r.form.terms(), &self.ctx);
            }
        }
        r
    }

    /// The plan executor: runs `entrants` in order, each after a governor
    /// reset and between its started/finished events, and verifies each
    /// result under its own semantics. An entrant that ends in
    /// [`Outcome::MemoryExceeded`], fails verification or cannot run at
    /// all (`None`) is excluded; `pick` chooses among the rest. When every
    /// entrant is excluded, the SP minimum answers as the backstop entrant
    /// [`Lane::SOP`] — never optimal, with the outcome of the run control.
    /// Returns the answer and one verdict per entrant that ran, in order.
    pub(crate) fn run_plan<L: Lane, A: Attempt>(
        &self,
        entrants: &[L],
        pick: Pick<'_, A>,
        mut run: impl FnMut(L) -> Option<A>,
    ) -> (A, Vec<Verdict<L>>) {
        let mut verdicts = Vec::with_capacity(entrants.len() + 1);
        let mut best: Option<(A, u64)> = None;
        for &lane in entrants {
            self.ctx.governor().reset();
            self.ctx.emit(lane.started());
            let start = Instant::now();
            let attempt = run(lane);
            let outcome = attempt.as_ref().map_or(Outcome::Completed, Attempt::outcome);
            let verified = attempt.as_ref().is_some_and(|a| a.realizes(self.f));
            let accepted = verified && outcome != Outcome::MemoryExceeded;
            let cost = match (&pick, &attempt) {
                (Pick::Cheapest(price), Some(a)) if verified => Some(price(a)),
                _ => None,
            };
            self.ctx.emit(lane.finished(outcome, cost, accepted));
            verdicts.push(Verdict { lane, outcome, cost, wall: start.elapsed(), accepted });
            let Some(a) = attempt.filter(|_| accepted) else { continue };
            if matches!(pick, Pick::First) {
                return (a, verdicts);
            }
            // Strict `<`: ties stay with the earlier entrant, which pins
            // the answer at any thread count.
            let c = cost.unwrap_or(u64::MAX);
            if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                best = Some((a, c));
            }
        }
        if let Some((a, _)) = best {
            return (a, verdicts);
        }
        // Backstop: the SP minimum is always a valid answer and needs no
        // pseudocube generation at all.
        self.ctx.governor().reset();
        self.ctx.emit(L::SOP.started());
        let start = Instant::now();
        let sp = sp_minimum(self.f, &self.options.cover_limits);
        let outcome = self.ctx.stop_reason().unwrap_or_default();
        let a = A::backstop(sp, outcome, start.elapsed(), &self.ctx);
        let cost = match pick {
            Pick::Cheapest(price) => Some(price(&a)),
            Pick::First => None,
        };
        self.ctx.emit(L::SOP.finished(outcome, cost, true));
        let wall = start.elapsed();
        verdicts.push(Verdict { lane: L::SOP, outcome, cost, wall, accepted: true });
        (a, verdicts)
    }
}

impl Minimizer<'_, [BoolFn]> {
    /// Runs the shared-term multi-output minimization.
    ///
    /// # Errors
    ///
    /// [`SppError::NoOutputs`] on an empty slice,
    /// [`SppError::MixedVariableCounts`] when outputs disagree on the
    /// variable count.
    pub fn run(&self) -> Result<MultiSppResult, SppError> {
        multi_session_cached(self.f, &self.options, &self.ctx, self.cache.as_ref())
    }
}

/// How a plan picks its answer among the entrants it accepts.
pub(crate) enum Pick<'a, A> {
    /// The degradation ladder: the first accepted entrant answers and the
    /// ones after it never run.
    First,
    /// The form race: every entrant runs, each verified one is priced,
    /// and the cheapest accepted one answers.
    Cheapest(&'a dyn Fn(&A) -> u64),
}

/// What a plan's entrants are called in the event stream: ladder rungs
/// (`rung_*` events) or race forms (`form_*` events, which carry the
/// entrant's cost too).
pub(crate) trait Lane: Copy {
    /// The SP backstop.
    const SOP: Self;
    /// The event announcing the entrant.
    fn started(self) -> Event;
    /// The event closing the entrant.
    fn finished(self, outcome: Outcome, cost: Option<u64>, accepted: bool) -> Event;
}

impl Lane for Rung {
    const SOP: Self = Rung::Sop;

    fn started(self) -> Event {
        Event::RungStarted { rung: self }
    }

    fn finished(self, outcome: Outcome, _cost: Option<u64>, accepted: bool) -> Event {
        Event::RungFinished { rung: self, outcome, accepted }
    }
}

impl Lane for Form {
    const SOP: Self = Form::Sop;

    fn started(self) -> Event {
        Event::FormStarted { form: self }
    }

    fn finished(self, outcome: Outcome, cost: Option<u64>, accepted: bool) -> Event {
        Event::FormFinished { form: self, outcome, cost, accepted }
    }
}

/// One entrant's finished run, as the plan executor judges it.
pub(crate) trait Attempt: Sized {
    /// How the run ended.
    fn outcome(&self) -> Outcome;
    /// Whether the result computes `f` under its own form's semantics.
    fn realizes(&self, f: &BoolFn) -> bool;
    /// The plan's answer from the SP minimum `sp`, computed in `elapsed`
    /// and ending with `outcome`.
    fn backstop(sp: SpMinResult, outcome: Outcome, elapsed: Duration, ctx: &RunCtx) -> Self;
}

impl Attempt for SppMinResult {
    fn outcome(&self) -> Outcome {
        self.outcome
    }

    fn realizes(&self, f: &BoolFn) -> bool {
        self.form.check_realizes(f).is_ok()
    }

    fn backstop(sp: SpMinResult, outcome: Outcome, elapsed: Duration, ctx: &RunCtx) -> Self {
        SppMinResult {
            gen_elapsed: elapsed,
            faults: ctx.faults(),
            ..SppMinResult::from_sp(&sp.form, outcome)
        }
    }
}

/// How one entrant of a plan fared.
#[derive(Debug)]
pub(crate) struct Verdict<L> {
    /// The entrant.
    pub(crate) lane: L,
    /// How its run ended (`Completed` for an entrant that could not run).
    pub(crate) outcome: Outcome,
    /// Its price in a race, if it verified; always `None` on the
    /// ladder, which compares no costs.
    pub(crate) cost: Option<u64>,
    /// Wall-clock time the entrant took.
    pub(crate) wall: Duration,
    /// Whether it was accepted: verified and within the memory budget.
    pub(crate) accepted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_obs::{Event, Outcome};
    use std::sync::Mutex;

    /// An event sink keeping each event's JSON line.
    struct Log(Mutex<Vec<String>>);

    impl EventSink for Log {
        fn emit(&self, event: &Event) {
            self.0.lock().unwrap().push(event.to_json());
        }
    }

    #[test]
    fn builder_chain_configures_everything() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f)
            .grouping(Grouping::HashMap)
            .limits(GenLimits::default().with_max_pseudocubes(50_000))
            .cover_limits(spp_cover::Limits::default())
            .threads(2)
            .deadline(Duration::from_secs(10))
            .run_exact();
        assert_eq!(r.literal_count(), 3);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.optimal);
    }

    #[test]
    fn session_events_cover_both_phases() {
        let log = Arc::new(Log(Mutex::new(Vec::new())));
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).on_event(log.clone()).run_exact();
        assert!(r.optimal);
        let lines = log.0.lock().unwrap();
        let text = lines.join("\n");
        assert!(text.contains("\"phase_started\""));
        assert!(text.contains("\"generate\""));
        assert!(text.contains("\"cover\""));
        assert!(text.contains("\"gen_level_finished\""));
        assert!(text.contains("\"cover_finished\""));
        // Phase events bracket properly: generate starts first, cover
        // finishes last.
        assert!(lines.first().unwrap().contains("generate"));
        assert!(lines.last().unwrap().contains("phase_finished"));
    }

    #[test]
    fn cancel_token_stops_a_session() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 != 0);
        let token = CancelToken::new();
        token.cancel();
        let r = Minimizer::new(&f).cancel_token(token).run_exact();
        assert_eq!(r.outcome, Outcome::Cancelled);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn heuristic_and_restricted_run_through_the_session() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let h = Minimizer::new(&f).run_heuristic(0).unwrap();
        assert!(h.form.check_realizes(&f).is_ok());
        let r = Minimizer::new(&f).run_restricted(2).unwrap();
        assert!(r.form.check_realizes(&f).is_ok());
        assert!(Minimizer::new(&f).run_heuristic(9).is_err());
        assert!(Minimizer::new(&f).run_restricted(0).is_err());
    }

    #[test]
    fn governed_run_without_budget_stays_on_the_exact_rung() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).run_governed();
        assert_eq!(r.rung, Rung::Exact);
        assert_eq!(r.literal_count(), 3);
        assert!(r.optimal);
        assert!(r.faults.is_empty());
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn impossible_hard_budget_descends_to_the_sp_fallback() {
        let log = Arc::new(Log(Mutex::new(Vec::new())));
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        // One byte: every generating rung trips MemoryExceeded, only the
        // SP fallback (which allocates no pseudocube pool) survives.
        let r = Minimizer::new(&f)
            .mem_budget(None, Some(1))
            .on_event(log.clone())
            .run_governed();
        assert_eq!(r.rung, Rung::Sop);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
        let lines = log.0.lock().unwrap();
        let trace: Vec<&str> = lines
            .iter()
            .map(String::as_str)
            .filter(|l| l.starts_with("{\"event\":\"rung_"))
            .collect();
        assert_eq!(
            trace,
            [
                r#"{"event":"rung_started","rung":"exact"}"#,
                r#"{"event":"rung_finished","rung":"exact","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"restricted_exact"}"#,
                r#"{"event":"rung_finished","rung":"restricted_exact","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"heuristic"}"#,
                r#"{"event":"rung_finished","rung":"heuristic","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"sop"}"#,
                r#"{"event":"rung_finished","rung":"sop","outcome":"completed","accepted":true}"#,
            ]
        );
    }

    #[test]
    fn calibrated_hard_budget_lands_on_a_lower_generating_rung() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1 || x.count_ones() >= 4);
        // Measure what each rung actually charges, then pick a budget
        // between the heuristic's appetite and the exact algorithm's.
        let exact = Minimizer::new(&f).threads(1).mem_budget(None, None);
        let _ = exact.run_exact();
        let exact_bytes = exact.run_ctx().governor().bytes();
        let heur = Minimizer::new(&f).threads(1).mem_budget(None, None);
        let _ = heur.run_heuristic(0).unwrap();
        let heur_bytes = heur.run_ctx().governor().bytes();
        assert!(
            heur_bytes < exact_bytes,
            "calibration broke: heuristic {heur_bytes} >= exact {exact_bytes}"
        );
        let budget = heur_bytes + (exact_bytes - heur_bytes) / 2;
        let r = Minimizer::new(&f)
            .threads(1)
            .mem_budget(None, Some(budget))
            .run_governed();
        // The exact rung cannot fit; some lower rung must have been
        // accepted with a verified form.
        assert!(r.rung > Rung::Exact, "budget {budget} did not trip the exact rung");
        assert!(r.form.check_realizes(&f).is_ok());
        assert!(r.outcome.is_completed(), "accepted rung ended {}", r.outcome);
    }

    #[test]
    fn degenerate_inputs_minimize_at_one_and_four_threads() {
        for threads in [1usize, 4] {
            let zero = BoolFn::from_indices(4, &[]);
            let r = Minimizer::new(&zero).threads(threads).run_exact();
            assert_eq!(r.form.num_pseudoproducts(), 0, "threads={threads}");
            assert!(r.form.check_realizes(&zero).is_ok(), "threads={threads}");
            let r = Minimizer::new(&zero).threads(threads).run_governed();
            assert!(r.form.check_realizes(&zero).is_ok(), "threads={threads}");

            let one = BoolFn::from_truth_fn(4, |_| true);
            let r = Minimizer::new(&one).threads(threads).run_exact();
            assert_eq!(r.literal_count(), 0, "threads={threads}");
            assert!(r.form.check_realizes(&one).is_ok(), "threads={threads}");
            let r = Minimizer::new(&one).threads(threads).run_governed();
            assert!(r.form.check_realizes(&one).is_ok(), "threads={threads}");

            let single = BoolFn::from_indices(4, &[0b1010]);
            for r in [
                Minimizer::new(&single).threads(threads).run_exact(),
                Minimizer::new(&single).threads(threads).run_governed(),
                Minimizer::new(&single).threads(threads).run_heuristic(0).unwrap(),
                Minimizer::new(&single).threads(threads).run_restricted(2).unwrap(),
            ] {
                assert_eq!(r.form.num_pseudoproducts(), 1, "threads={threads}");
                assert_eq!(r.literal_count(), 4, "threads={threads}");
                assert!(r.form.check_realizes(&single).is_ok(), "threads={threads}");
            }
        }
    }

    #[test]
    fn sessions_report_their_own_rung() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        assert_eq!(Minimizer::new(&f).run_exact().rung, Rung::Exact);
        assert_eq!(Minimizer::new(&f).run_heuristic(0).unwrap().rung, Rung::Heuristic);
        assert_eq!(
            Minimizer::new(&f).run_restricted(2).unwrap().rung,
            Rung::RestrictedExact
        );
    }

    /// Replaces every `"wall_ms":<x>` value in an event line with `_`.
    fn mask_wall_ms(json: &str) -> String {
        const KEY: &str = "\"wall_ms\":";
        let mut out = String::new();
        let mut rest = json;
        while let Some(i) = rest.find(KEY) {
            out.push_str(&rest[..i + KEY.len()]);
            out.push('_');
            rest = rest[i + KEY.len()..]
                .trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
        }
        out.push_str(rest);
        out
    }

    /// Pins every SPP pipeline on one 5-variable function (plus a second
    /// output for the multi-output run), with default and truncating
    /// generation limits: the answer, its counters and the whole event
    /// stream with wall times masked.
    #[test]
    fn every_spp_pipeline_is_pinned() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1 || x.count_ones() == 4);
        let g = BoolFn::from_truth_fn(5, |x| x % 3 == 1 && x & 0b100 != 0);
        let mut trace: Vec<String> = Vec::new();
        for limits in [GenLimits::default(), GenLimits::default().with_max_pseudocubes(8)] {
            let single = |name: &str, run: &dyn Fn(&Minimizer) -> SppMinResult| {
                let log = Arc::new(Log(Mutex::new(Vec::new())));
                let m =
                    Minimizer::new(&f).limits(limits.clone()).threads(1).on_event(log.clone());
                let r = run(&m);
                let mut lines = vec![format!(
                    "{name}: {} | candidates {} optimal {} outcome {} rung {}",
                    r.form, r.num_candidates, r.optimal, r.outcome, r.rung
                )];
                lines.extend(log.0.lock().unwrap().iter().map(|l| mask_wall_ms(l)));
                lines
            };
            trace.extend(single("exact", &|m| m.run_exact()));
            trace.extend(single("restricted", &|m| m.run_restricted(2).unwrap()));
            trace.extend(single("heuristic", &|m| m.run_heuristic(0).unwrap()));
            let log = Arc::new(Log(Mutex::new(Vec::new())));
            let outputs = [f.clone(), g.clone()];
            let r = MultiMinimizer::new(&outputs)
                .limits(limits.clone())
                .threads(1)
                .on_event(log.clone())
                .run()
                .unwrap();
            trace.push(format!(
                "multi: {} ; {} | optimal {} outcome {}",
                r.forms[0], r.forms[1], r.optimal, r.outcome
            ));
            trace.extend(log.0.lock().unwrap().iter().map(|l| mask_wall_ms(l)));
        }
        let expected: Vec<&str> = PINNED_PIPELINES.trim().lines().collect();
        for (i, (got, want)) in trace.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "trace line {}", i + 1);
        }
        assert_eq!(trace.len(), expected.len(), "{}", trace.join("\n"));
    }

    /// The trace of [`every_spp_pipeline_is_pinned`], one line per answer
    /// or event.
    const PINNED_PIPELINES: &str = r#"
exact: x0·x1·x2 + x0·x3·x4 + x̄0·(x1⊕x̄3)·(x1⊕x2⊕x4) + x̄1·(x2⊕x̄3)·(x0⊕x4) + x1·(x0⊕x2)·x4 | candidates 63 optimal true outcome completed rung exact
{"event":"phase_started","phase":"generate"}
{"event":"gen_level_started","degree":0,"size":16}
{"event":"gen_level_finished","degree":0,"size":16,"groups":1,"unions":120,"retained":0,"live":136,"wall_ms":_}
{"event":"gen_level_started","degree":1,"size":120}
{"event":"gen_level_finished","degree":1,"size":120,"groups":31,"unions":61,"retained":2,"live":197,"wall_ms":_}
{"event":"gen_level_started","degree":2,"size":61}
{"event":"gen_level_finished","degree":2,"size":61,"groups":61,"unions":0,"retained":61,"live":197,"wall_ms":_}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":63}
{"event":"cover_subtree_started","index":0,"column":2}
{"event":"cover_subtree_finished","index":0,"nodes":83,"improved":false}
{"event":"cover_subtree_started","index":1,"column":3}
{"event":"cover_subtree_finished","index":1,"nodes":85,"improved":false}
{"event":"cover_subtree_started","index":2,"column":5}
{"event":"cover_subtree_finished","index":2,"nodes":47,"improved":false}
{"event":"cover_subtree_started","index":3,"column":6}
{"event":"cover_subtree_finished","index":3,"nodes":47,"improved":false}
{"event":"cover_subtree_started","index":4,"column":18}
{"event":"cover_subtree_finished","index":4,"nodes":62,"improved":false}
{"event":"cover_subtree_started","index":5,"column":19}
{"event":"cover_subtree_finished","index":5,"nodes":32,"improved":false}
{"event":"cover_subtree_started","index":6,"column":8}
{"event":"cover_subtree_finished","index":6,"nodes":12,"improved":false}
{"event":"cover_subtree_started","index":7,"column":16}
{"event":"cover_subtree_finished","index":7,"nodes":12,"improved":false}
{"event":"cover_subtree_started","index":8,"column":32}
{"event":"cover_subtree_finished","index":8,"nodes":12,"improved":false}
{"event":"cover_subtree_started","index":9,"column":34}
{"event":"cover_subtree_finished","index":9,"nodes":13,"improved":false}
{"event":"cover_subtree_started","index":10,"column":55}
{"event":"cover_subtree_finished","index":10,"nodes":12,"improved":false}
{"event":"cover_subtree_started","index":11,"column":57}
{"event":"cover_subtree_finished","index":11,"nodes":12,"improved":false}
{"event":"cover_subtree_started","index":12,"column":0}
{"event":"cover_subtree_finished","index":12,"nodes":1,"improved":false}
{"event":"cover_finished","cost":21,"nodes":431,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
restricted: x̄0·(x1⊕x2)·(x1⊕x̄3)·x̄4 + x0·x1·x2 + x0·x3·x4 + x̄1·(x2⊕x̄3)·(x0⊕x4) + x1·(x0⊕x2)·x4 | candidates 54 optimal true outcome completed rung restricted_exact
{"event":"phase_started","phase":"generate"}
{"event":"gen_level_started","degree":0,"size":16}
{"event":"gen_level_finished","degree":0,"size":16,"groups":1,"unions":120,"retained":0,"live":136,"wall_ms":_}
{"event":"gen_level_started","degree":1,"size":120}
{"event":"gen_level_finished","degree":1,"size":120,"groups":31,"unions":61,"retained":21,"live":197,"wall_ms":_}
{"event":"gen_level_started","degree":2,"size":61}
{"event":"gen_level_finished","degree":2,"size":61,"groups":61,"unions":0,"retained":33,"live":197,"wall_ms":_}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":54}
{"event":"cover_subtree_started","index":0,"column":32}
{"event":"cover_subtree_finished","index":0,"nodes":29,"improved":false}
{"event":"cover_subtree_started","index":1,"column":33}
{"event":"cover_subtree_finished","index":1,"nodes":25,"improved":false}
{"event":"cover_subtree_started","index":2,"column":35}
{"event":"cover_subtree_finished","index":2,"nodes":8,"improved":false}
{"event":"cover_subtree_started","index":3,"column":37}
{"event":"cover_subtree_finished","index":3,"nodes":8,"improved":false}
{"event":"cover_subtree_started","index":4,"column":44}
{"event":"cover_subtree_finished","index":4,"nodes":7,"improved":false}
{"event":"cover_subtree_started","index":5,"column":46}
{"event":"cover_subtree_finished","index":5,"nodes":7,"improved":false}
{"event":"cover_subtree_started","index":6,"column":40}
{"event":"cover_subtree_finished","index":6,"nodes":1,"improved":false}
{"event":"cover_subtree_started","index":7,"column":49}
{"event":"cover_subtree_finished","index":7,"nodes":1,"improved":false}
{"event":"cover_subtree_started","index":8,"column":0}
{"event":"cover_subtree_finished","index":8,"nodes":24,"improved":false}
{"event":"cover_finished","cost":21,"nodes":111,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
heuristic: x̄0·x̄1·x̄3·(x2⊕x4) + (x0⊕x1)·x̄2·(x0⊕x3)·x̄4 + x0·x1·x2 + x0·x1·x4 + x0·x2·x3 + x0·x3·x4 + x1·x2·x4 + x2·x3·x4 | candidates 13 optimal false outcome completed rung heuristic
{"event":"phase_started","phase":"generate"}
{"event":"gen_level_started","degree":0,"size":4}
{"event":"gen_level_finished","degree":0,"size":4,"groups":1,"unions":6,"retained":1,"live":16,"wall_ms":_}
{"event":"gen_level_started","degree":1,"size":6}
{"event":"gen_level_finished","degree":1,"size":6,"groups":6,"unions":0,"retained":6,"live":16,"wall_ms":_}
{"event":"gen_level_started","degree":2,"size":6}
{"event":"gen_level_finished","degree":2,"size":6,"groups":6,"unions":0,"retained":6,"live":16,"wall_ms":_}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":13}
{"event":"cover_finished","cost":29,"nodes":1,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
multi: x1·x3·(x0⊕x2⊕x̄4) + x̄1·(x2⊕x̄3)·(x0⊕x4) + x2·(x1⊕x3)·(x0⊕x4) + x2·(x0⊕x̄3)·(x1⊕x̄4) + x0·(x1⊕x3)·x4 ; x2·(x1⊕x3)·(x0⊕x4) + x2·(x0⊕x̄3)·(x1⊕x̄4) | optimal true outcome completed
{"event":"phase_started","phase":"generate"}
{"event":"gen_level_started","degree":0,"size":16}
{"event":"gen_level_finished","degree":0,"size":16,"groups":1,"unions":120,"retained":0,"live":136,"wall_ms":_}
{"event":"gen_level_started","degree":1,"size":120}
{"event":"gen_level_finished","degree":1,"size":120,"groups":31,"unions":61,"retained":2,"live":197,"wall_ms":_}
{"event":"gen_level_started","degree":2,"size":61}
{"event":"gen_level_finished","degree":2,"size":61,"groups":61,"unions":0,"retained":61,"live":197,"wall_ms":_}
{"event":"gen_level_started","degree":0,"size":6}
{"event":"gen_level_finished","degree":0,"size":6,"groups":1,"unions":15,"retained":0,"live":21,"wall_ms":_}
{"event":"gen_level_started","degree":1,"size":15}
{"event":"gen_level_finished","degree":1,"size":15,"groups":7,"unions":3,"retained":0,"live":24,"wall_ms":_}
{"event":"gen_level_started","degree":2,"size":3}
{"event":"gen_level_finished","degree":2,"size":3,"groups":3,"unions":0,"retained":3,"live":24,"wall_ms":_}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":22,"columns":63}
{"event":"cover_subtree_started","index":0,"column":32}
{"event":"cover_improved","cost":26,"nodes":8}
{"event":"cover_improved","cost":24,"nodes":18}
{"event":"cover_subtree_finished","index":0,"nodes":29,"improved":true}
{"event":"cover_subtree_started","index":1,"column":55}
{"event":"cover_subtree_finished","index":1,"nodes":16,"improved":false}
{"event":"cover_finished","cost":24,"nodes":46,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
exact: x̄0·x̄1·x̄2·x̄3·x4 + x̄0·x̄1·x2·x̄3·x̄4 + x̄0·x1·x̄2·x3·x̄4 + x0·x̄1·x̄2·x̄3·x̄4 + x2·x3·x4 + x1·x2·x4 + x0·x3·x4 + x0·x2·x3 + x0·x1·x4 + x0·x1·x2 | candidates 22 optimal false outcome completed rung exact
{"event":"phase_started","phase":"generate"}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":22}
{"event":"cover_finished","cost":38,"nodes":1,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
restricted: x̄0·x̄1·x̄2·x̄3·x4 + x̄0·x̄1·x2·x̄3·x̄4 + x̄0·x1·x̄2·x3·x̄4 + x0·x̄1·x̄2·x̄3·x̄4 + x2·x3·x4 + x1·x2·x4 + x0·x3·x4 + x0·x2·x3 + x0·x1·x4 + x0·x1·x2 | candidates 22 optimal false outcome completed rung restricted_exact
{"event":"phase_started","phase":"generate"}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":22}
{"event":"cover_finished","cost":38,"nodes":1,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
heuristic: x̄0·x̄1·x̄2·x̄3·x4 + x̄0·x̄1·x2·x̄3·x̄4 + x̄0·x1·x̄2·x3·x̄4 + x0·x̄1·x̄2·x̄3·x̄4 + x0·x1·x2 + x0·x1·x4 + x0·x2·x3 + x0·x3·x4 + x1·x2·x4 + x2·x3·x4 | candidates 10 optimal false outcome completed rung heuristic
{"event":"phase_started","phase":"generate"}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":16,"columns":10}
{"event":"cover_finished","cost":38,"nodes":1,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}
multi: x̄0·x̄1·x̄2·x̄3·x4 + x̄0·x1·x̄2·x3·x̄4 + x̄0·x1·x2·x̄3·x4 + x̄0·x1·x2·x3·x4 + x0·x̄1·x̄2·x̄3·x̄4 + x0·x̄1·x̄2·x3·x4 + x0·x̄1·x2·x3·x̄4 + x0·x̄1·x2·x3·x4 + x0·x1·x̄2·x̄3·x4 + x0·x1·x̄2·x3·x4 + x0·x1·x2·x̄3·x̄4 + x0·x1·x2·x̄3·x4 + x0·x1·x2·x3·x̄4 + x0·x1·x2·x3·x4 + x̄0·x̄1·x2·(x3⊕x̄4) ; x̄0·x1·x2·x̄3·x4 + x0·x̄1·x2·x3·x̄4 + x0·x1·x2·x̄3·x̄4 + x0·x1·x2·x3·x4 + x̄0·x̄1·x2·(x3⊕x̄4) | optimal false outcome completed
{"event":"phase_started","phase":"generate"}
{"event":"gen_level_started","degree":0,"size":6}
{"event":"gen_level_finished","degree":0,"size":6,"groups":1,"unions":5,"retained":6,"live":11,"wall_ms":_}
{"event":"phase_finished","phase":"generate","wall_ms":_,"outcome":"completed"}
{"event":"phase_started","phase":"cover"}
{"event":"cover_started","rows":22,"columns":21}
{"event":"cover_finished","cost":75,"nodes":1,"optimal":true}
{"event":"phase_finished","phase":"cover","wall_ms":_,"outcome":"completed"}"#;

    #[test]
    fn generate_matches_an_explicitly_configured_session() {
        let f = BoolFn::from_indices(4, &[0, 3, 5, 6, 9, 10, 12, 15]);
        let new = Minimizer::new(&f).generate();
        let explicit = Minimizer::new(&f)
            .grouping(Grouping::PartitionTrie)
            .generate_where(&|_| true);
        assert_eq!(new.pseudocubes, explicit.pseudocubes);
        assert_eq!(new.stats.comparisons, explicit.stats.comparisons);
        assert_eq!(new.stats.total_generated, explicit.stats.total_generated);
        assert_eq!(new.stats.outcome, explicit.stats.outcome);
    }
}
