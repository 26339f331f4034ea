//! End-to-end exact SPP minimization (Algorithm 2).

use spp_boolfn::BoolFn;
use spp_cover::{solve_auto_warm, CoverProblem, CoverSolution};
use spp_obs::{Event, Fault, Outcome, Phase, RunCtx, Rung};

use crate::{GenLimits, GenStats, Grouping, Pseudocube, SppCache, SppForm};

/// Configuration of the SPP minimizers.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`SppOptions::default`] and the `with_*` builder methods (or configure
/// a [`crate::Minimizer`] directly, which owns one of these).
///
/// # Examples
///
/// ```
/// use spp_core::{Grouping, SppOptions};
///
/// let options = SppOptions::default().with_grouping(Grouping::HashMap);
/// assert_eq!(options.grouping, Grouping::HashMap);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct SppOptions {
    /// Structure-grouping strategy for pseudocube generation.
    pub grouping: Grouping,
    /// Budget of the generation phase.
    pub gen_limits: GenLimits,
    /// Budget of the set-covering phase.
    pub cover_limits: spp_cover::Limits,
}

impl SppOptions {
    /// Sets the structure-grouping strategy.
    #[must_use]
    pub fn with_grouping(mut self, grouping: Grouping) -> Self {
        self.grouping = grouping;
        self
    }

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
    pub gen_elapsed: std::time::Duration,
    /// Wall-clock time of the set-covering phase.
    pub cover_elapsed: std::time::Duration,
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
            gen_elapsed: std::time::Duration::ZERO,
            cover_elapsed: std::time::Duration::ZERO,
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

/// The run-control-aware exact minimizer behind
/// [`crate::Minimizer::run_exact`] — the paper's **Algorithm 2**: (1–2)
/// build the EPPP set by structure-grouped unions over partition tries,
/// (3) solve the induced minimum-literal covering problem. Emits phase
/// events, merges the generation and covering outcomes and always
/// returns a valid (possibly best-so-far) form.
#[cfg(test)]
pub(crate) fn exact_session(f: &BoolFn, options: &SppOptions, ctx: &RunCtx) -> SppMinResult {
    exact_session_cached(f, options, ctx, None)
}

/// [`exact_session`] with an optional result cache: a verified result hit
/// skips both phases, an EPPP hit skips generation, and a sibling result
/// (same function, different options) warm-starts the covering search.
/// Completed work flows back into the cache on the way out.
pub(crate) fn exact_session_cached(
    f: &BoolFn,
    options: &SppOptions,
    ctx: &RunCtx,
    cache: Option<&SppCache>,
) -> SppMinResult {
    if let Some(cache) = cache {
        if let Some(hit) = cache.get_result(f, options, ctx) {
            return hit;
        }
    }
    let gen_start = std::time::Instant::now();
    ctx.emit(Event::PhaseStarted { phase: Phase::Generate });
    let cached_eppp =
        cache.and_then(|c| c.get_eppp(f, options.grouping, 0, ctx));
    // Miss path, in preference order: splice a near-duplicate sibling's
    // cached generation levels (bit-identical to cold, far cheaper for
    // small edits), else generate cold — capturing the levels so *this*
    // function becomes a future splice donor.
    let delta_eppp = match cached_eppp {
        Some(_) => None,
        None => cache.and_then(|c| c.delta_eppp(f, options.grouping, ctx)),
    };
    let eppp = match cached_eppp.or(delta_eppp) {
        Some(set) => set,
        None => {
            let mut capture = (cache.is_some()
                && f.num_vars() <= crate::delta::DELTA_MAX_VARS)
                .then(|| crate::generate::LevelCapture::new(crate::delta::DELTA_CAPTURE_CAP));
            let set = crate::generate::generate_eppp_session_capture(
                f,
                options.grouping,
                &options.gen_limits,
                &|_| true,
                ctx,
                capture.as_mut(),
            );
            if let Some(cache) = cache {
                cache.put_eppp(f, options.grouping, 0, &set, ctx);
                if let Some(capture) = capture.filter(|c| !c.overflowed) {
                    cache.put_levels(f, capture.levels, ctx);
                }
            }
            set
        }
    };
    let mut outcome = eppp.stats.outcome;
    let mut candidates = eppp.pseudocubes;
    if eppp.stats.truncated {
        // A truncated run may have lost the high-degree pseudoproducts the
        // minimum needs. Cubes are pseudoproducts, so folding in the SP
        // prime implicants keeps the guarantee that an SPP form is never
        // worse than the SP form ("in the worst case, SP and SPP forms
        // coincide" — paper §1) even under a budget.
        let known: std::collections::HashSet<&Pseudocube> = candidates.iter().collect();
        let extra: Vec<Pseudocube> = spp_sp::prime_implicants(f)
            .iter()
            .map(Pseudocube::from_cube)
            .filter(|pc| !known.contains(pc))
            .collect();
        candidates.extend(extra);
    }
    let gen_elapsed = gen_start.elapsed();
    ctx.emit(Event::PhaseFinished {
        phase: Phase::Generate,
        wall: gen_elapsed,
        outcome: eppp.stats.outcome,
    });
    let cover_start = std::time::Instant::now();
    ctx.emit(Event::PhaseStarted { phase: Phase::Cover });
    // A result for the same function under *different* options (say,
    // different covering budgets) can't answer this key, but its terms are
    // a known cover — seed the branch & bound with them.
    let warm_terms = cache.and_then(|c| c.warm_form(f));
    let (mut form, cover_optimal, cover_outcome) = cover_with_candidates_warm(
        f,
        &candidates,
        &options.cover_limits,
        options.gen_limits.parallelism,
        ctx,
        warm_terms.as_deref(),
        cache,
    );
    outcome = outcome.merge(cover_outcome);
    if eppp.stats.truncated {
        // Junk-heavy truncated pools can mislead the greedy cover; the SP
        // minimum is always a valid SPP form, so never return worse.
        let sp = sp_minimum(f, &options.cover_limits);
        if sp.form.literal_count() < form.literal_count() {
            form = SppForm::from_sp(&sp.form);
        }
    }
    let cover_elapsed = cover_start.elapsed();
    ctx.emit(Event::PhaseFinished {
        phase: Phase::Cover,
        wall: cover_elapsed,
        outcome: cover_outcome,
    });
    let result = SppMinResult {
        form,
        num_candidates: candidates.len(),
        optimal: cover_optimal && !eppp.stats.truncated && outcome.is_completed(),
        gen_stats: eppp.stats,
        gen_elapsed,
        cover_elapsed,
        outcome,
        rung: Rung::Exact,
        faults: ctx.faults(),
    };
    if let Some(cache) = cache {
        // Only proved-optimal results are inserted (put_result re-verifies
        // the form against `f` before storing).
        cache.put_result(f, options, &result, ctx);
    }
    result
}

/// Solves the minimum-literal covering of `f`'s ON-set by the given
/// candidate pseudoproducts. Shared by the exact algorithm and the
/// heuristic (steps 3 / 4 respectively).
pub(crate) fn cover_with_candidates(
    f: &BoolFn,
    candidates: &[Pseudocube],
    limits: &spp_cover::Limits,
    parallelism: spp_par::Parallelism,
    ctx: &RunCtx,
) -> (SppForm, bool, Outcome) {
    cover_with_candidates_warm(f, candidates, limits, parallelism, ctx, None, None)
}

/// [`cover_with_candidates`] optionally seeded with the terms of a
/// previously cached cover of the *same function*. The terms are mapped
/// back to candidate indices; if every term is still among the candidates
/// the selection covers the ON-set by construction and becomes the branch
/// & bound's initial incumbent ([`solve_auto_warm`] re-validates and
/// re-costs it anyway — defense in depth against a mismapped seed).
pub(crate) fn cover_with_candidates_warm(
    f: &BoolFn,
    candidates: &[Pseudocube],
    limits: &spp_cover::Limits,
    parallelism: spp_par::Parallelism,
    ctx: &RunCtx,
    warm_terms: Option<&[Pseudocube]>,
    cache: Option<&SppCache>,
) -> (SppForm, bool, Outcome) {
    let on = f.on_set();
    let mut problem = CoverProblem::new(on.len());
    // The full-space pseudocube (tautology) has 0 literals; clamp so
    // covering costs stay positive.
    problem.add_columns_par(parallelism, candidates.len(), |c| {
        let pc = &candidates[c];
        (rows_covered(on, pc), pc.literal_count().max(1))
    });
    let warm = warm_terms.and_then(|terms| {
        let index: std::collections::HashMap<&Pseudocube, usize> =
            candidates.iter().enumerate().map(|(c, pc)| (pc, c)).collect();
        let columns: Vec<usize> =
            terms.iter().map(|t| index.get(t).copied()).collect::<Option<_>>()?;
        let cost = columns.iter().map(|&c| candidates[c].literal_count().max(1)).sum();
        Some(CoverSolution { columns, cost, optimal: false })
    });
    if let (Some(warm), Some(cache)) = (&warm, cache) {
        cache.note_warm_start(warm.columns.len(), ctx);
    }
    // The covering search fans out on the same session worker budget as
    // generation (the result is thread-count-invariant, so this only
    // changes speed).
    let limits = limits.clone().with_parallelism(parallelism);
    let (solution, outcome) = solve_auto_warm(&problem, &limits, warm.as_ref(), ctx);
    let terms: Vec<Pseudocube> =
        solution.columns.iter().map(|&c| candidates[c].clone()).collect();
    (SppForm::new(f.num_vars(), terms), solution.optimal, outcome)
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
