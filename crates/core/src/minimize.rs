//! End-to-end SPP minimization: the Algorithm-2 session behind the exact
//! and `k`-SPP minimizers, and the pieces every SPP path shares — the
//! phase timer, EPPP generation through the cache and the covering
//! phase.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use spp_boolfn::BoolFn;
use spp_cover::{solve_auto_warm, CoverProblem, CoverSolution};
use spp_obs::{Event, Fault, Outcome, Phase, RunCtx, Rung};

use crate::generate::{generate_eppp_session, generate_eppp_session_capture, LevelCapture};
use crate::{
    factor_width_at_most, EpppSet, GenLimits, GenStats, Pseudocube, SppCache, SppError,
    SppForm,
};

/// Configuration of the SPP minimizers.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`SppOptions::default`] and the `with_*` builder methods (or configure
/// a [`crate::Minimizer`] directly, which owns one of these).
///
/// # Examples
///
/// ```
/// use spp_core::{GenLimits, SppOptions};
///
/// let limits = GenLimits::default().with_max_pseudocubes(1_000);
/// let options = SppOptions::default().with_gen_limits(limits);
/// assert_eq!(options.gen_limits.max_pseudocubes, 1_000);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct SppOptions {
    /// Budget of the generation phase.
    pub gen_limits: GenLimits,
    /// Budget of the set-covering phase.
    pub cover_limits: spp_cover::Limits,
}

impl SppOptions {
    /// Sets the generation budget.
    #[must_use]
    pub fn with_gen_limits(mut self, limits: GenLimits) -> Self {
        self.gen_limits = limits;
        self
    }

    /// Sets the covering budget.
    #[must_use]
    pub fn with_cover_limits(mut self, limits: spp_cover::Limits) -> Self {
        self.cover_limits = limits;
        self
    }
}

/// The outcome of an SPP minimization run.
#[derive(Clone, Debug)]
pub struct SppMinResult {
    /// The synthesized SPP form.
    pub form: SppForm,
    /// The number of candidate pseudoproducts offered to the covering step
    /// (the paper's `#EPPP` for the exact algorithm).
    pub num_candidates: usize,
    /// Statistics of the generation phase.
    pub gen_stats: GenStats,
    /// Whether both phases ran to completion with optimality proofs; when
    /// false the literal count is an upper bound, as in the paper's large
    /// entries.
    pub optimal: bool,
    /// Wall-clock time of the candidate-generation phase.
    pub gen_elapsed: Duration,
    /// Wall-clock time of the set-covering phase.
    pub cover_elapsed: Duration,
    /// How the run ended: [`Outcome::Completed`], or the phase-merged
    /// deadline/cancellation/memory cause. Any non-completed outcome
    /// implies the form is a valid best-so-far upper bound (`optimal` is
    /// then false).
    pub outcome: Outcome,
    /// Which degradation-ladder rung produced the form. The direct
    /// `run_exact` / `run_restricted` / `run_heuristic` sessions report
    /// their own rung; [`crate::Minimizer::run_governed`] may have
    /// descended under memory pressure.
    pub rung: Rung,
    /// Worker panics caught and isolated during the run (cumulative over
    /// the session's [`RunCtx`]). A non-empty list means part of the
    /// search was lost — the form is still valid, but `optimal` is not
    /// claimed by a faulted phase.
    pub faults: Vec<Fault>,
}

impl SppMinResult {
    /// The paper's `#L`: literals in the synthesized form.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        self.form.literal_count()
    }

    /// An SP form as an SPP result on the [`Rung::Sop`] rung. It never
    /// claims optimality: an SP form only bounds the minimal SPP form.
    pub(crate) fn from_sp(sp: &spp_sp::SpForm, outcome: Outcome) -> Self {
        let form = SppForm::from_sp(sp);
        SppMinResult {
            num_candidates: form.num_pseudoproducts(),
            form,
            gen_stats: GenStats::default(),
            optimal: false,
            gen_elapsed: Duration::ZERO,
            cover_elapsed: Duration::ZERO,
            outcome,
            rung: Rung::Sop,
            faults: Vec::new(),
        }
    }
}

/// The SP minimum of `f` — the backstop under every SPP path, since cubes
/// are pseudoproducts ("in the worst case, SP and SPP forms coincide" —
/// paper §1). Every SP minimization in this crate goes through here.
pub(crate) fn sp_minimum(f: &BoolFn, limits: &spp_cover::Limits) -> spp_sp::SpMinResult {
    spp_sp::minimize_sp(f, limits)
}

/// One session's SP minimum: [`sp_minimum`] of `f` under the session's
/// covering limits, computed on first use and then shared by every user
/// in the session — the truncated-pool candidates and backstop of
/// [`algorithm2_session`], the plan backstop, and the race's DSOP and
/// SOP entrants. A session is one `run_*` call of a
/// [`crate::Minimizer`]; the ladder nested in a race shares the race's.
pub(crate) struct SessionSp<'a> {
    f: &'a BoolFn,
    limits: &'a spp_cover::Limits,
    minimum: OnceCell<spp_sp::SpMinResult>,
}

impl<'a> SessionSp<'a> {
    pub(crate) fn new(f: &'a BoolFn, limits: &'a spp_cover::Limits) -> Self {
        SessionSp { f, limits, minimum: OnceCell::new() }
    }

    /// The SP minimum, computed by the first call.
    pub(crate) fn get(&self) -> &spp_sp::SpMinResult {
        self.minimum.get_or_init(|| sp_minimum(self.f, self.limits))
    }

    /// Whether [`SessionSp::get`] has computed the minimum yet.
    #[cfg(test)]
    pub(crate) fn is_computed(&self) -> bool {
        self.minimum.get().is_some()
    }
}

/// Runs `body` as one `phase` of a session, between its `PhaseStarted`
/// and `PhaseFinished` events; the latter carries the outcome `body`
/// reports and the phase's wall time, which is returned too. Every phase
/// event of the crate is emitted here.
pub(crate) fn timed_phase<T>(
    ctx: &RunCtx,
    phase: Phase,
    body: impl FnOnce() -> (T, Outcome),
) -> (T, Outcome, Duration) {
    let start = Instant::now();
    ctx.emit(Event::PhaseStarted { phase });
    let (value, outcome) = body();
    let wall = start.elapsed();
    ctx.emit(Event::PhaseFinished { phase, wall, outcome });
    (value, outcome, wall)
}

/// The run-control-aware session behind [`crate::Minimizer::run_exact`]
/// and [`crate::Minimizer::run_restricted`] — the paper's **Algorithm 2**
/// over a conforming family of pseudoproducts: every pseudoproduct
/// (`max_factor_literals` `None`, rung [`Rung::Exact`]), or those whose
/// EXOR factors hold at most `w` literals (`Some(w)`, the `k`-SPP forms,
/// rung [`Rung::RestrictedExact`]). (1–2) build the EPPP set by
/// structure-grouped unions over partition tries, (3) solve the induced
/// minimum-literal covering problem. Emits phase events, merges the
/// generation and covering outcomes and always returns a valid (possibly
/// best-so-far) form.
///
/// With a result cache — unrestricted family only, since no cache key
/// carries a width — a verified result hit skips both phases, an EPPP
/// hit or a sibling's delta splice skips cold generation, and a sibling
/// result (same function, different options) warm-starts the covering
/// search. Completed work flows back into the cache on the way out.
///
/// A truncated generation falls back on the session's SP minimum `sp`
/// (computed under `options.cover_limits`): its primes join the
/// candidates, and its form replaces a costlier cover.
///
/// # Errors
///
/// [`SppError::ZeroFactorWidth`] when `max_factor_literals` is `Some(0)`.
pub(crate) fn algorithm2_session(
    f: &BoolFn,
    max_factor_literals: Option<usize>,
    options: &SppOptions,
    ctx: &RunCtx,
    cache: Option<&SppCache>,
    sp: &SessionSp<'_>,
) -> Result<SppMinResult, SppError> {
    if max_factor_literals == Some(0) {
        return Err(SppError::ZeroFactorWidth);
    }
    let cache = cache.filter(|_| max_factor_literals.is_none());
    if let Some(hit) = cache.and_then(|c| c.get_result(f, options, ctx)) {
        return Ok(hit);
    }
    let ((gen_stats, candidates), _, gen_elapsed) = timed_phase(ctx, Phase::Generate, || {
        let eppp = match max_factor_literals {
            None => exact_eppp(f, options, ctx, cache),
            Some(w) => generate_eppp_session(
                f,
                &options.gen_limits,
                Some(&|pc| factor_width_at_most(pc, w)),
                ctx,
            ),
        };
        let mut candidates = eppp.pseudocubes;
        if eppp.stats.truncated {
            // A truncated run may have lost the high-degree pseudoproducts
            // the minimum needs. Cubes are pseudoproducts of width-1
            // factors, so folding in the SP prime implicants keeps the
            // guarantee that an SPP form is never worse than the SP form
            // ("in the worst case, SP and SPP forms coincide" — paper §1)
            // even under a budget, in every family.
            let known: HashSet<&Pseudocube> = candidates.iter().collect();
            let extra: Vec<Pseudocube> = sp
                .get()
                .primes
                .iter()
                .map(Pseudocube::from_cube)
                .filter(|pc| !known.contains(pc))
                .collect();
            candidates.extend(extra);
        }
        if max_factor_literals.is_some() {
            // The width filter can drop the pseudoproducts that covered
            // some minterms (their EPPP substitutes may be wide); single
            // points always conform, so re-add any uncovered ones.
            for point in f.on_set() {
                if !candidates.iter().any(|pc| pc.contains(point)) {
                    candidates.push(Pseudocube::from_point(*point));
                }
            }
        }
        let outcome = eppp.stats.outcome;
        ((eppp.stats, candidates), outcome)
    });
    let warm = cache.and_then(|c| Some((c, c.warm_form(f)?)));
    let ((form, cover_optimal), cover_outcome, cover_elapsed) = cover_phase(
        ctx,
        options,
        &candidates,
        warm,
        || on_set_problem(f, &candidates, options.gen_limits.parallelism),
        |cover| {
            let mut form = SppForm::new(f.num_vars(), cover.terms);
            if gen_stats.truncated {
                // Junk-heavy truncated pools can mislead the greedy cover;
                // the SP minimum is always a valid SPP form, so never
                // return worse.
                let sp = &sp.get().form;
                if sp.literal_count() < form.literal_count() {
                    form = SppForm::from_sp(sp);
                }
            }
            (form, cover.optimal)
        },
    );
    let outcome = gen_stats.outcome.merge(cover_outcome);
    let result = SppMinResult {
        form,
        num_candidates: candidates.len(),
        optimal: cover_optimal && !gen_stats.truncated && outcome.is_completed(),
        gen_stats,
        gen_elapsed,
        cover_elapsed,
        outcome,
        rung: if max_factor_literals.is_none() { Rung::Exact } else { Rung::RestrictedExact },
        faults: ctx.faults(),
    };
    if let Some(cache) = cache {
        // Only proved-optimal results are inserted (put_result re-verifies
        // the form against `f` before storing).
        cache.put_result(f, options, &result, ctx);
    }
    Ok(result)
}

/// [`algorithm2_session`] on the unrestricted family, without a cache.
#[cfg(test)]
pub(crate) fn exact_session(f: &BoolFn, options: &SppOptions, ctx: &RunCtx) -> SppMinResult {
    let sp = SessionSp::new(f, &options.cover_limits);
    algorithm2_session(f, None, options, ctx, None, &sp).expect("no width to reject")
}

/// The unrestricted EPPP set of `f` through the cache. On a miss, in
/// preference order: splice a near-duplicate sibling's cached generation
/// levels (bit-identical to cold, far cheaper for small edits), else
/// generate cold — capturing the levels so *this* function becomes a
/// future splice donor.
fn exact_eppp(f: &BoolFn, options: &SppOptions, ctx: &RunCtx, cache: Option<&SppCache>) -> EpppSet {
    let mut levels = None;
    let eppp = cached_eppp(cache, f, 0, ctx, || {
        if let Some(set) = cache.and_then(|c| c.delta_eppp(f, ctx)) {
            return set;
        }
        let mut capture = (cache.is_some() && f.num_vars() <= crate::delta::DELTA_MAX_VARS)
            .then(|| LevelCapture::new(crate::delta::DELTA_CAPTURE_CAP));
        let set = generate_eppp_session_capture(
            f,
            false,
            &options.gen_limits,
            None,
            ctx,
            capture.as_mut(),
        );
        levels = capture.filter(|c| !c.overflowed);
        set
    });
    if let (Some(cache), Some(capture)) = (cache, levels) {
        cache.put_levels(f, capture.levels, ctx);
    }
    eppp
}

/// EPPP generation through the cache: the cached set of output
/// `output_index` of `f` answers, else `generate` runs and its set goes
/// back in (the cache keeps only complete sets).
pub(crate) fn cached_eppp(
    cache: Option<&SppCache>,
    f: &BoolFn,
    output_index: u32,
    ctx: &RunCtx,
    generate: impl FnOnce() -> EpppSet,
) -> EpppSet {
    let Some(cache) = cache else { return generate() };
    if let Some(set) = cache.get_eppp(f, output_index, ctx) {
        return set;
    }
    let set = generate();
    cache.put_eppp(f, output_index, &set, ctx);
    set
}

/// The answer of a covering step: the chosen columns, the candidates
/// they stand for, and whether the search proved the choice minimal.
pub(crate) struct Cover {
    pub(crate) columns: Vec<usize>,
    pub(crate) terms: Vec<Pseudocube>,
    pub(crate) optimal: bool,
}

/// The covering phase shared by every SPP path (Algorithm 2 step 3,
/// Algorithm 3 step 4 and the multi-output matrix), as one
/// [`Phase::Cover`]: builds the caller's matrix (`build`, one column per
/// candidate, in order), seeds the branch & bound with `warm` — the terms
/// of a known cover of the same matrix, read from the cache — solves it
/// on the session worker budget and hands the chosen candidates to
/// `finish`. Returns `finish`'s value, the covering outcome and the
/// phase's wall time.
pub(crate) fn cover_phase<T>(
    ctx: &RunCtx,
    options: &SppOptions,
    candidates: &[Pseudocube],
    warm: Option<(&SppCache, Vec<Pseudocube>)>,
    build: impl FnOnce() -> CoverProblem,
    finish: impl FnOnce(Cover) -> T,
) -> (T, Outcome, Duration) {
    timed_phase(ctx, Phase::Cover, || {
        let problem = build();
        // If every warm term is still a candidate, the selection covers
        // the matrix by construction and becomes the initial incumbent
        // ([`solve_auto_warm`] re-validates and re-costs it anyway —
        // defense in depth against a mismapped seed).
        let warm = warm.and_then(|(cache, terms)| {
            let index: HashMap<&Pseudocube, usize> =
                candidates.iter().enumerate().map(|(c, pc)| (pc, c)).collect();
            let columns: Vec<usize> =
                terms.iter().map(|t| index.get(t).copied()).collect::<Option<_>>()?;
            let cost = columns.iter().map(|&c| candidates[c].literal_count().max(1)).sum();
            cache.note_warm_start(columns.len(), ctx);
            Some(CoverSolution { columns, cost, optimal: false })
        });
        // The covering search fans out on the same session worker budget
        // as generation (the result is thread-count-invariant, so this
        // only changes speed).
        let limits = options.cover_limits.clone().with_parallelism(options.gen_limits.parallelism);
        let (solution, outcome) = solve_auto_warm(&problem, &limits, warm.as_ref(), ctx);
        let terms = solution.columns.iter().map(|&c| candidates[c].clone()).collect();
        (finish(Cover { columns: solution.columns, terms, optimal: solution.optimal }), outcome)
    })
}

/// The single-output covering matrix: one row per ON-set minterm of `f`,
/// one column per candidate, costing its literals.
pub(crate) fn on_set_problem(
    f: &BoolFn,
    candidates: &[Pseudocube],
    parallelism: spp_par::Parallelism,
) -> CoverProblem {
    let on = f.on_set();
    let mut problem = CoverProblem::new(on.len());
    // The full-space pseudocube (tautology) has 0 literals; clamp so
    // covering costs stay positive.
    problem.add_columns_par(parallelism, candidates.len(), |c| {
        let pc = &candidates[c];
        (rows_covered(on, pc), pc.literal_count().max(1))
    });
    problem
}

/// The ON-set row indices covered by `pc`, computed by whichever side is
/// smaller: enumerating the pseudocube's points or scanning the ON-set.
fn rows_covered(on: &[spp_gf2::Gf2Vec], pc: &Pseudocube) -> Vec<usize> {
    if pc.degree() < 63 && (1u64 << pc.degree()) < on.len() as u64 {
        let mut rows: Vec<usize> =
            pc.points().filter_map(|p| on.binary_search(&p).ok()).collect();
        rows.sort_unstable();
        rows
    } else {
        on.iter()
            .enumerate()
            .filter(|(_, p)| pc.contains(p))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_cover::Limits;
    use spp_sp::minimize_sp;

    fn exact(f: &BoolFn) -> SppMinResult {
        exact_session(f, &SppOptions::default(), &RunCtx::default())
    }

    #[test]
    fn paper_intro_worked_example() {
        // x1x2x̄4 + x̄1x2x4 → x2·(x1⊕x4): 3 literals, 1 pseudoproduct.
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let r = exact(&f);
        assert_eq!(r.literal_count(), 3);
        assert_eq!(r.form.num_pseudoproducts(), 1);
        assert!(r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn parity_is_one_factor() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 0);
        let r = exact(&f);
        // Even parity = complemented factor (x0⊕x1⊕x2⊕x̄3): 4 literals.
        assert_eq!(r.literal_count(), 4);
        assert_eq!(r.form.num_pseudoproducts(), 1);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn spp_never_beats_nor_loses_to_sp_wrongly() {
        // SPP minimal literals ≤ SP minimal literals (SP forms are SPP
        // forms), checked on a batch of small functions.
        for seed in [3u64, 17, 94, 201, 255, 1021] {
            let f = BoolFn::from_truth_fn(4, |x| (seed >> (x % 7)) & 1 == 1 || x % 5 == seed % 5);
            if f.is_zero() {
                continue;
            }
            let spp = exact(&f);
            let sp = minimize_sp(&f, &Limits::default());
            assert!(
                spp.literal_count() <= sp.literal_count(),
                "seed {seed}: SPP {} > SP {}",
                spp.literal_count(),
                sp.literal_count()
            );
            assert!(spp.form.check_realizes(&f).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn constant_zero_yields_empty_form() {
        let f = BoolFn::from_indices(3, &[]);
        let r = exact(&f);
        assert_eq!(r.form.num_pseudoproducts(), 0);
        assert_eq!(r.literal_count(), 0);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn tautology_yields_trivial_form() {
        let f = BoolFn::from_truth_fn(3, |_| true);
        let r = exact(&f);
        assert_eq!(r.form.num_pseudoproducts(), 1);
        assert_eq!(r.literal_count(), 0); // the empty pseudoproduct "1"
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn exhaustive_3var_spp_is_at_most_sp() {
        for tt in 1u16..=255 {
            let f = BoolFn::from_truth_fn(3, |x| tt >> x & 1 == 1);
            let spp = exact(&f);
            let sp = minimize_sp(&f, &Limits::default());
            assert!(spp.form.check_realizes(&f).is_ok(), "tt={tt:#010b}");
            assert!(
                spp.literal_count() <= sp.literal_count(),
                "tt={tt:#010b}: {} > {}",
                spp.literal_count(),
                sp.literal_count()
            );
        }
    }

    #[test]
    fn truncated_generation_reports_non_optimal() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        let options = SppOptions::default()
            .with_gen_limits(GenLimits::default().with_max_pseudocubes(8));
        let r = exact_session(&f, &options, &RunCtx::default());
        assert!(!r.optimal);
        // Cap truncation is still a completed run.
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.form.check_realizes(&f).is_ok());
    }

    #[test]
    fn completed_runs_report_completed_outcome() {
        let f = BoolFn::from_indices(3, &[0b011, 0b110]);
        let r = exact(&f);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.optimal);
    }

    #[test]
    fn expired_deadline_still_yields_a_valid_form() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        let ctx = RunCtx::new().with_deadline_in(std::time::Duration::ZERO);
        let r = exact_session(&f, &SppOptions::default(), &ctx);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(!r.optimal);
        assert!(r.form.check_realizes(&f).is_ok());
    }
}
