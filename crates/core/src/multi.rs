//! Multi-output SPP minimization with shared pseudoproducts.
//!
//! The paper minimizes "the different outputs of each function ...
//! separately". This module implements the natural multi-output
//! extension: one covering problem over all `(output, minterm)` pairs, in
//! which a pseudoproduct's literals are paid **once** no matter how many
//! outputs reuse it — the sharing that PLA-style implementations exploit.

use spp_boolfn::BoolFn;
use spp_cover::CoverProblem;
use spp_obs::{Outcome, Phase, RunCtx};
use spp_par::{par_map_indices, Parallelism};

use crate::generate::generate_eppp_session;
use crate::minimize::{cached_eppp, cover_phase, timed_phase};
use crate::{EpppSet, Pseudocube, SppCache, SppError, SppForm, SppOptions};

/// The outcome of [`crate::MultiMinimizer::run`].
#[derive(Clone, Debug)]
pub struct MultiSppResult {
    /// One SPP form per output, in input order. Terms are shared: the
    /// same pseudoproduct may appear in several forms.
    pub forms: Vec<SppForm>,
    /// The distinct pseudoproducts used across all outputs.
    pub shared_terms: Vec<Pseudocube>,
    /// Literals when each shared pseudoproduct is counted once (the
    /// multi-output cost that was minimized).
    pub shared_literal_count: u64,
    /// Whether the covering step proved optimality over the generated
    /// candidates.
    pub optimal: bool,
    /// How the run ended: [`Outcome::Completed`], or the worst
    /// deadline/cancellation cause across the per-output generations and
    /// the shared covering step.
    pub outcome: Outcome,
}

impl MultiSppResult {
    /// Literals when each output's form is counted separately (the
    /// paper's per-output accounting, for comparison).
    #[must_use]
    pub fn separate_literal_count(&self) -> u64 {
        self.forms.iter().map(SppForm::literal_count).sum()
    }
}

/// [`multi_session_cached`] without a cache.
#[cfg(test)]
pub(crate) fn multi_session(
    outputs: &[BoolFn],
    options: &SppOptions,
    ctx: &RunCtx,
) -> Result<MultiSppResult, SppError> {
    multi_session_cached(outputs, options, ctx, None)
}

/// The run-control-aware multi-output minimizer behind
/// [`crate::MultiMinimizer::run`]: minimizes a multi-output function as
/// SPP forms sharing pseudoproducts — generates per-output EPPP
/// candidates, merges them, and solves one covering problem over all
/// `(output, minterm)` pairs where each chosen pseudoproduct is an
/// implicant of every output it feeds and its literals are paid once.
///
/// The per-output generations run on fan-out workers, so counted
/// checkpoints are *not* thread-count-deterministic here (the workers race
/// for the fuse); deadline and plain cancellation behave as everywhere
/// else, and the shared covering step polls the context on the calling
/// thread.
///
/// With a result cache, a verified whole-circuit hit returns immediately,
/// each output's EPPP generation consults the per-output entries, and the
/// shared covering step is warm-started from the shared pool of any
/// cached whole-circuit result for the same outputs under different
/// options (single-output covers are unusable here, since the shared
/// matrix depends on the whole output set).
pub(crate) fn multi_session_cached(
    outputs: &[BoolFn],
    options: &SppOptions,
    ctx: &RunCtx,
    cache: Option<&SppCache>,
) -> Result<MultiSppResult, SppError> {
    let n = match outputs.first() {
        Some(f) => f.num_vars(),
        None => return Err(SppError::NoOutputs),
    };
    if let Some(other) = outputs.iter().find(|f| f.num_vars() != n) {
        return Err(SppError::MixedVariableCounts { expected: n, found: other.num_vars() });
    }
    if let Some(cache) = cache {
        if let Some(hit) = cache.get_multi(outputs, options, ctx) {
            return Ok(hit);
        }
    }

    // Candidate pool: the union of the per-output EPPP sets. Outputs are
    // independent, so generation fans out across them; leftover workers go
    // to each output's own union sweep. The pool is merged in output order,
    // so the candidate list is identical at any thread count.
    let threads = options.gen_limits.parallelism.threads();
    let ((pool, truncated), gen_outcome, _) = timed_phase(ctx, Phase::Generate, || {
        let outer = threads.min(outputs.len()).max(1);
        let inner_limits = options
            .gen_limits
            .clone()
            .with_parallelism(Parallelism::fixed((threads / outer).max(1)));
        let per_output: Vec<EpppSet> = par_map_indices(outer, outputs.len(), |j| {
            let f = &outputs[j];
            cached_eppp(cache, f, j as u32, ctx, || {
                generate_eppp_session(f, &inner_limits, None, ctx)
            })
        });
        let mut truncated = false;
        let mut outcome = Outcome::Completed;
        let mut pool: Vec<Pseudocube> = Vec::new();
        let mut seen: std::collections::HashSet<Pseudocube> = std::collections::HashSet::new();
        for eppp in per_output {
            truncated |= eppp.stats.truncated;
            outcome = outcome.merge(eppp.stats.outcome);
            for pc in eppp.pseudocubes {
                if seen.insert(pc.clone()) {
                    pool.push(pc);
                }
            }
        }
        ((pool, truncated), outcome)
    });

    // One covering instance for the whole circuit, on the full session
    // worker budget. A whole-circuit result cached under *different*
    // options can't answer the multi key, but its shared pool is a known
    // feasible cover of this matrix — it seeds the branch & bound.
    let warm = cache.and_then(|c| Some((c, c.warm_multi(outputs)?)));
    let mut valid_outputs = Vec::new();
    let (cover, cover_outcome, _) = cover_phase(
        ctx,
        options,
        &pool,
        warm,
        || {
            let (problem, valid) = shared_problem(outputs, &pool, threads);
            valid_outputs = valid;
            problem
        },
        |cover| cover,
    );
    let outcome = gen_outcome.merge(cover_outcome);
    let shared_literal_count = cover.terms.iter().map(Pseudocube::literal_count).sum();

    // Assemble per-output forms, dropping terms redundant for an output.
    let mut forms = Vec::with_capacity(outputs.len());
    for (j, f) in outputs.iter().enumerate() {
        let mut terms: Vec<Pseudocube> = cover
            .columns
            .iter()
            .zip(&cover.terms)
            .filter(|(&c, _)| valid_outputs[c].contains(&j))
            .map(|(_, t)| t.clone())
            .collect();
        // Keep only terms contributing uncovered minterms (cheapest-last
        // greedy prune keeps the forms tidy without changing the cost
        // model, which counts shared terms once anyway).
        terms.sort_by_key(|t| std::cmp::Reverse(t.literal_count()));
        let mut kept: Vec<Pseudocube> = Vec::new();
        for (i, t) in terms.iter().enumerate() {
            let others_cover = |p: &spp_gf2::Gf2Vec| {
                kept.iter().any(|k| k.contains(p))
                    || terms[i + 1..].iter().any(|k| k.contains(p))
            };
            if f.on_set().iter().any(|p| t.contains(p) && !others_cover(p)) {
                kept.push(t.clone());
            }
        }
        // Safety net: anything still uncovered keeps its original terms.
        for p in f.on_set() {
            if !kept.iter().any(|k| k.contains(p)) {
                let t = terms
                    .iter()
                    .find(|t| t.contains(p))
                    .expect("cover solution covers every pair")
                    .clone();
                kept.push(t);
            }
        }
        forms.push(SppForm::new(n, kept));
    }

    let result = MultiSppResult {
        forms,
        shared_literal_count,
        optimal: cover.optimal && !truncated && outcome.is_completed(),
        shared_terms: cover.terms,
        outcome,
    };
    if let Some(cache) = cache {
        // put_multi re-verifies every form against its output and only
        // stores proved-optimal runs.
        cache.put_multi(outputs, options, &result, ctx);
    }
    Ok(result)
}

/// The shared covering matrix: one row per `(output, minterm)` pair, one
/// column per pool candidate covering the pairs of every output it is an
/// implicant of, its literals paid once. Also returns, per column, the
/// outputs its candidate may feed.
fn shared_problem(
    outputs: &[BoolFn],
    pool: &[Pseudocube],
    threads: usize,
) -> (CoverProblem, Vec<Vec<usize>>) {
    let mut row_base = Vec::with_capacity(outputs.len());
    let mut total_rows = 0usize;
    for f in outputs {
        row_base.push(total_rows);
        total_rows += f.on_set().len();
    }
    // Candidates are independent, so implicant checks and row enumeration
    // fan out; the columns are appended in pool order afterwards.
    let mut problem = CoverProblem::new(total_rows);
    let built: Vec<(Vec<usize>, Vec<usize>)> = par_map_indices(threads, pool.len(), |c| {
        let pc = &pool[c];
        let mut rows = Vec::new();
        let mut valid = Vec::new();
        for (j, f) in outputs.iter().enumerate() {
            if !pc.points().all(|p| f.is_coverable(&p)) {
                continue;
            }
            valid.push(j);
            for (m, point) in f.on_set().iter().enumerate() {
                if pc.contains(point) {
                    rows.push(row_base[j] + m);
                }
            }
        }
        (rows, valid)
    });
    let mut valid_outputs: Vec<Vec<usize>> = Vec::with_capacity(pool.len());
    for (pc, (rows, valid)) in pool.iter().zip(built) {
        valid_outputs.push(valid);
        problem.add_column(&rows, pc.literal_count().max(1));
    }
    (problem, valid_outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::exact_session;

    fn minimize_spp_multi(outputs: &[BoolFn], options: &SppOptions) -> MultiSppResult {
        multi_session(outputs, options, &RunCtx::default()).unwrap()
    }

    fn minimize_spp_exact(f: &BoolFn, options: &SppOptions) -> crate::SppMinResult {
        exact_session(f, options, &RunCtx::default())
    }

    #[test]
    fn forms_verify_and_share() {
        // Sum and carry of a 2-bit half-add chain share parity terms.
        let sum = BoolFn::from_truth_fn(4, |x| ((x & 1) ^ (x >> 2 & 1)) == 1);
        let and = BoolFn::from_truth_fn(4, |x| (x & 1) & (x >> 2 & 1) == 1);
        let r = minimize_spp_multi(&[sum.clone(), and.clone()], &SppOptions::default());
        r.forms[0].check_realizes(&sum).unwrap();
        r.forms[1].check_realizes(&and).unwrap();
        assert!(r.shared_literal_count <= r.separate_literal_count());
    }

    #[test]
    fn sharing_never_loses_to_separate_minimization() {
        let f0 = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let f1 = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1 || x == 0);
        let outputs = [f0.clone(), f1.clone()];
        let multi = minimize_spp_multi(&outputs, &SppOptions::default());
        let separate: u64 = outputs
            .iter()
            .map(|f| minimize_spp_exact(f, &SppOptions::default()).literal_count())
            .sum();
        // Shared accounting can only help (the separate solution is a
        // feasible multi-output solution).
        assert!(
            multi.shared_literal_count <= separate,
            "shared {} > separate {}",
            multi.shared_literal_count,
            separate
        );
    }

    #[test]
    fn identical_outputs_pay_once() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() % 2 == 1);
        let single = minimize_spp_exact(&f, &SppOptions::default());
        let multi = minimize_spp_multi(&[f.clone(), f.clone(), f.clone()], &SppOptions::default());
        assert_eq!(multi.shared_literal_count, single.literal_count());
        for form in &multi.forms {
            form.check_realizes(&f).unwrap();
        }
    }

    #[test]
    fn disjoint_outputs_just_concatenate() {
        let f0 = BoolFn::from_truth_fn(4, |x| x & 0b0011 == 0b0011);
        let f1 = BoolFn::from_truth_fn(4, |x| x & 0b1100 == 0b1100);
        let multi = minimize_spp_multi(&[f0.clone(), f1.clone()], &SppOptions::default());
        let separate: u64 = [&f0, &f1]
            .iter()
            .map(|f| minimize_spp_exact(f, &SppOptions::default()).literal_count())
            .sum();
        assert_eq!(multi.shared_literal_count, separate);
    }

    #[test]
    fn zero_output_is_fine() {
        let f0 = BoolFn::from_indices(3, &[]);
        let f1 = BoolFn::from_indices(3, &[1, 2]);
        let multi = minimize_spp_multi(&[f0.clone(), f1.clone()], &SppOptions::default());
        multi.forms[0].check_realizes(&f0).unwrap();
        multi.forms[1].check_realizes(&f1).unwrap();
        assert_eq!(multi.forms[0].num_pseudoproducts(), 0);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let f0 = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let f1 = BoolFn::from_truth_fn(4, |x| x % 5 == 1 || x.count_ones() % 2 == 0);
        let outputs = [f0, f1];
        let run = |threads: usize| {
            let mut options = SppOptions::default();
            options.gen_limits.parallelism = Parallelism::fixed(threads);
            minimize_spp_multi(&outputs, &options)
        };
        let baseline = run(1);
        for threads in [2usize, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.shared_terms, baseline.shared_terms, "threads={threads}");
            assert_eq!(parallel.shared_literal_count, baseline.shared_literal_count);
            for (a, b) in parallel.forms.iter().zip(&baseline.forms) {
                assert_eq!(a, b, "threads={threads}");
            }
        }
    }

    #[test]
    fn bad_inputs_are_errors() {
        let err = multi_session(&[], &SppOptions::default(), &RunCtx::default()).unwrap_err();
        assert_eq!(err, SppError::NoOutputs);
        let f0 = BoolFn::from_indices(3, &[1]);
        let f1 = BoolFn::from_indices(4, &[1]);
        let err =
            multi_session(&[f0, f1], &SppOptions::default(), &RunCtx::default()).unwrap_err();
        assert_eq!(err, SppError::MixedVariableCounts { expected: 3, found: 4 });
    }

    #[test]
    fn expired_deadline_still_realizes_every_output() {
        let f0 = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let f1 = BoolFn::from_truth_fn(4, |x| x % 5 == 1);
        let ctx = RunCtx::new().with_deadline_in(std::time::Duration::ZERO);
        let r = multi_session(&[f0.clone(), f1.clone()], &SppOptions::default(), &ctx).unwrap();
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(!r.optimal);
        r.forms[0].check_realizes(&f0).unwrap();
        r.forms[1].check_realizes(&f1).unwrap();
    }
}
