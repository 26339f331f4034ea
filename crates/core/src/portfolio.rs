//! Multi-form portfolio racing: SPP vs ESOP vs DSOP vs SOP.
//!
//! The paper's central claim is comparative — SPP forms are on average
//! about half the size of the corresponding SOP forms — and the natural
//! way to *use* that claim is to race the forms and keep the cheapest
//! verified realization. [`FormPortfolio`] configures the race (which
//! forms, which cost [`Objective`]); [`Minimizer::run_portfolio`] runs
//! every entrant under the session's shared deadline and memory budget,
//! independently verifies each result against the input function, and
//! returns a [`PortfolioResult`] naming the winner plus a
//! [`PortfolioReport`] per entrant.
//!
//! The race is the degradation ladder ([`Minimizer::run_governed`])
//! turned sideways: both are plans run by the session's one executor. Each
//! form gets a governor reset (so one entrant's memory spike cannot
//! disqualify the next), a form that ends in [`Outcome::MemoryExceeded`]
//! or fails verification is excluded, and the SP minimum backstops a race
//! whose every entrant was excluded, as it backstops the ladder. Where the
//! ladder takes the first accepted rung, the race runs every form and
//! takes the cheapest; forms always run in the fixed [`Form::ALL`] order
//! and ties break toward the earlier form, so for completed races the
//! winner and its cost are bit-identical at any thread count. The SPP
//! entrant is itself the governed ladder, nested inside the race.

use std::fmt;
use std::time::Duration;

use spp_boolfn::BoolFn;
use spp_dsop::DsopForm;
use spp_esop::{EsopForm, EsopLimits};
use spp_obs::{Form, Outcome, RunCtx, Rung};
use spp_sp::{SpForm, SpMinResult};

use crate::minimize::sp_minimum;
use crate::session::{Attempt, Minimizer, Pick};
use crate::SppForm;

/// What the race minimizes.
///
/// Literal count is the paper's cost function and the default. Gate
/// count prices the two-input network the form maps to — where an XOR
/// gate is *not* the same price as an AND or OR (in CMOS an XOR2 is
/// roughly two NAND-equivalents), so an EXOR-heavy form that wins on
/// literals can lose on gates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Total literal count across the form (the paper's §2 cost).
    #[default]
    Literals,
    /// Weighted two-input gate count: AND2 and OR2 cost 1, XOR2 costs 2,
    /// inverters are free (absorbed into adjacent gates).
    Gates,
}

impl Objective {
    /// The wire name (`literals` / `gates`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::Literals => "literals",
            Objective::Gates => "gates",
        }
    }

    /// Parses a wire name; `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Objective> {
        match s {
            "literals" => Some(Objective::Literals),
            "gates" => Some(Objective::Gates),
            _ => None,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The race configuration: which forms enter and what they are judged
/// on. An empty form list means *all* forms ([`Form::ALL`]).
///
/// # Examples
///
/// ```
/// use spp_core::{FormPortfolio, Objective};
/// use spp_obs::Form;
///
/// let race = FormPortfolio::new()
///     .forms(vec![Form::Esop, Form::Sop])
///     .objective(Objective::Gates);
/// assert_eq!(race.entrants(), vec![Form::Esop, Form::Sop]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FormPortfolio {
    forms: Vec<Form>,
    objective: Objective,
}

impl FormPortfolio {
    /// A race of all forms on the literal-count objective.
    #[must_use]
    pub fn new() -> Self {
        FormPortfolio::default()
    }

    /// Restricts the race to `forms` (duplicates and order are ignored;
    /// the race always runs in [`Form::ALL`] order). Empty means all.
    #[must_use]
    pub fn forms(mut self, forms: Vec<Form>) -> Self {
        self.forms = forms;
        self
    }

    /// Sets the cost function.
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The configured objective.
    #[must_use]
    pub fn cost_objective(&self) -> Objective {
        self.objective
    }

    /// The forms that will actually race, in running order.
    #[must_use]
    pub fn entrants(&self) -> Vec<Form> {
        Form::ALL
            .into_iter()
            .filter(|f| self.forms.is_empty() || self.forms.contains(f))
            .collect()
    }
}

/// A minimized realization in whichever form won (or raced).
#[derive(Clone, Debug)]
pub enum FormRealization {
    /// A Sum-of-Pseudoproducts form.
    Spp(SppForm),
    /// An Exclusive-or Sum-of-Products form.
    Esop(EsopForm),
    /// A Disjoint Sum-of-Products form.
    Dsop(DsopForm),
    /// A plain Sum-of-Products form.
    Sop(SpForm),
}

impl FormRealization {
    /// Which form this realization is in.
    #[must_use]
    pub fn form(&self) -> Form {
        match self {
            FormRealization::Spp(_) => Form::Spp,
            FormRealization::Esop(_) => Form::Esop,
            FormRealization::Dsop(_) => Form::Dsop,
            FormRealization::Sop(_) => Form::Sop,
        }
    }

    /// The number of terms (pseudoproducts or products).
    #[must_use]
    pub fn num_terms(&self) -> usize {
        match self {
            FormRealization::Spp(f) => f.num_pseudoproducts(),
            FormRealization::Esop(f) => f.num_products(),
            FormRealization::Dsop(f) => f.num_products(),
            FormRealization::Sop(f) => f.num_products(),
        }
    }

    /// The total literal count.
    #[must_use]
    pub fn literal_count(&self) -> u64 {
        match self {
            FormRealization::Spp(f) => f.literal_count(),
            FormRealization::Esop(f) => f.literal_count(),
            FormRealization::Dsop(f) => f.literal_count(),
            FormRealization::Sop(f) => f.literal_count(),
        }
    }

    /// Whether the realization provably computes `f`, under the *form's
    /// own* semantics (OR of terms for SPP/SOP, XOR of cubes for ESOP,
    /// disjointness plus coverage for DSOP).
    #[must_use]
    pub fn realizes(&self, f: &BoolFn) -> bool {
        match self {
            FormRealization::Spp(form) => form.check_realizes(f).is_ok(),
            FormRealization::Esop(form) => form.realizes(f),
            FormRealization::Dsop(form) => form.realizes(f),
            FormRealization::Sop(form) => form.realizes(f),
        }
    }

    /// The realization's cost under `objective`.
    ///
    /// Under [`Objective::Gates`] every form is priced as a tree of
    /// two-input gates, mirroring the netlist builder's construction:
    /// a `w`-literal EXOR factor is `w−1` XOR2 gates (weight 2 each), a
    /// `k`-factor pseudoproduct adds `k−1` AND2 gates, an `l`-literal
    /// product is `l−1` AND2 gates, and `m` terms combine with `m−1` OR2
    /// gates — XOR2 for ESOP, whose sum *is* a parity. Inverters are
    /// free.
    #[must_use]
    pub fn cost(&self, objective: Objective) -> u64 {
        match objective {
            Objective::Literals => self.literal_count(),
            Objective::Gates => match self {
                FormRealization::Spp(form) => {
                    let mut cost = 0u64;
                    for term in form.terms() {
                        let cex = term.cex();
                        for factor in cex.factors() {
                            cost += 2 * u64::from(factor.literal_count()).saturating_sub(1);
                        }
                        cost += (cex.factors().len() as u64).saturating_sub(1);
                    }
                    cost + (form.num_pseudoproducts() as u64).saturating_sub(1)
                }
                FormRealization::Esop(form) => gate_cost_cubes(form.cubes(), 2),
                FormRealization::Dsop(form) => gate_cost_cubes(form.cubes(), 1),
                FormRealization::Sop(form) => gate_cost_cubes(form.cubes(), 1),
            },
        }
    }
}

impl fmt::Display for FormRealization {
    /// Delegates to the underlying form's algebraic rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormRealization::Spp(form) => form.fmt(f),
            FormRealization::Esop(form) => form.fmt(f),
            FormRealization::Dsop(form) => form.fmt(f),
            FormRealization::Sop(form) => form.fmt(f),
        }
    }
}

/// AND-tree per cube plus a combine tree across cubes, with the combine
/// gate weighted (1 for OR2, 2 for XOR2).
fn gate_cost_cubes(cubes: &[spp_boolfn::Cube], combine_weight: u64) -> u64 {
    let ands: u64 =
        cubes.iter().map(|c| u64::from(c.literal_count()).saturating_sub(1)).sum();
    ands + combine_weight * (cubes.len() as u64).saturating_sub(1)
}

/// How one entrant fared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioReport {
    /// The form that ran.
    pub form: Form,
    /// How its run ended.
    pub outcome: Outcome,
    /// Its cost under the race objective — `None` if the result failed
    /// verification (in which case it never competes).
    pub cost: Option<u64>,
    /// Wall-clock time this entrant took.
    pub wall: Duration,
    /// Whether the entrant competed: verified and within the memory
    /// budget.
    pub accepted: bool,
}

/// The race outcome: the cheapest verified realization plus the full
/// per-entrant scoreboard.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The winning form.
    pub winner: Form,
    /// The winning realization (always verified against the input).
    pub realization: FormRealization,
    /// The winner's cost under the race objective.
    pub cost: u64,
    /// Whether the winner's engine *proved* optimality within its own
    /// form (never across forms: a proved-minimal ESOP says nothing
    /// about the minimal SPP).
    pub optimal: bool,
    /// The winning entrant's outcome.
    pub outcome: Outcome,
    /// The degradation rung the winner corresponds to, for hosts that
    /// report rungs: the governed ladder's own rung for an SPP winner,
    /// [`Rung::Sop`] for a SOP winner, and exact/heuristic for the cube
    /// engines depending on whether optimality was proved.
    pub rung: Rung,
    /// One report per entrant, in running order (plus the SOP backstop
    /// if the race needed it).
    pub reports: Vec<PortfolioReport>,
}

impl Minimizer<'_> {
    /// Races the configured forms and returns the cheapest *verified*
    /// realization under the portfolio's objective.
    ///
    /// This is the ladder's plan executor with a different plan: every
    /// entrant runs, and the cheapest accepted one wins. All entrants
    /// share this session's deadline, cancellation token and memory
    /// budget; the byte account is reset before each form so one
    /// entrant's spike cannot disqualify the next. Entrants run in
    /// [`Form::ALL`] order, each result is verified against `f` under its
    /// own form semantics, and ties break toward the earlier form — so a
    /// completed race returns the same winner and cost at any thread
    /// count. [`spp_obs::Event::FormStarted`] /
    /// [`spp_obs::Event::FormFinished`] trace the race (the SPP entrant's
    /// rung events nest inside its own); if every requested entrant is
    /// excluded (memory-exceeded or unverified), the SP minimum backstops
    /// the race exactly as it backstops the ladder.
    ///
    /// ESOP, DSOP and SOP results of *complete* runs are cached per form
    /// when the session has a cache, so re-racing a function warms every
    /// lane, not just the SPP one.
    ///
    /// # Examples
    ///
    /// ```
    /// use spp_boolfn::BoolFn;
    /// use spp_core::{FormPortfolio, Minimizer};
    /// use spp_obs::Form;
    ///
    /// // Parity: SPP and ESOP collapse to x0⊕x1⊕x2⊕x3 (4 literals);
    /// // SOP needs 8 products of 4 literals. The tie breaks to SPP.
    /// let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
    /// let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
    /// assert_eq!((r.winner, r.cost), (Form::Spp, 4));
    /// assert!(r.realization.realizes(&f));
    /// assert_eq!(r.reports.len(), 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `f.num_vars() > 24` (the cube engines expand minterms).
    #[must_use]
    pub fn run_portfolio(&self, portfolio: &FormPortfolio) -> PortfolioResult {
        self.race(&portfolio.entrants(), portfolio.cost_objective(), |form| self.run_form(form))
    }

    /// The race plan: `entrants` in order, each run by `run`, the cheapest
    /// accepted one winning under `objective`.
    fn race(
        &self,
        entrants: &[Form],
        objective: Objective,
        mut run: impl FnMut(Form) -> FormRun,
    ) -> PortfolioResult {
        let price = |r: &FormRun| r.realization.cost(objective);
        let pick = Pick::Cheapest(&price);
        let (won, verdicts) = self.run_plan(entrants, pick, |form| Some(run(form)));
        let reports = verdicts
            .into_iter()
            .map(|v| PortfolioReport {
                form: v.lane,
                outcome: v.outcome,
                cost: v.cost,
                wall: v.wall,
                accepted: v.accepted,
            })
            .collect();
        PortfolioResult {
            winner: won.realization.form(),
            cost: won.realization.cost(objective),
            realization: won.realization,
            optimal: won.optimal,
            outcome: won.outcome,
            rung: won.rung,
            reports,
        }
    }

    /// Runs one entrant, going through the per-form cache for the cube
    /// forms (SPP results already flow through the result/EPPP caches
    /// inside the rung ladder).
    fn run_form(&self, form: Form) -> FormRun {
        let cube_rung = |optimal| if optimal { Rung::Exact } else { Rung::Heuristic };
        let (realization, optimal, outcome, rung) = match form {
            Form::Spp => {
                let r = self.run_governed();
                (FormRealization::Spp(r.form), r.optimal, r.outcome, r.rung)
            }
            Form::Esop => {
                if let Some((cubes, optimal)) = self.cached_cubes(Form::Esop) {
                    let form = EsopForm::new(self.f.num_vars(), cubes);
                    let rung = cube_rung(optimal);
                    (FormRealization::Esop(form), optimal, Outcome::Completed, rung)
                } else {
                    let r = spp_esop::minimize_esop(self.f, &EsopLimits::default(), &self.ctx);
                    self.store_cubes(Form::Esop, r.form.cubes(), r.optimal, r.outcome);
                    let rung = cube_rung(r.optimal);
                    (FormRealization::Esop(r.form), r.optimal, r.outcome, rung)
                }
            }
            Form::Dsop => {
                if let Some((cubes, optimal)) = self.cached_cubes(Form::Dsop) {
                    let form = DsopForm::new(self.f.num_vars(), cubes);
                    let rung = cube_rung(optimal);
                    (FormRealization::Dsop(form), optimal, Outcome::Completed, rung)
                } else {
                    let r =
                        spp_dsop::minimize_dsop(self.f, &self.options.cover_limits, &self.ctx);
                    self.store_cubes(Form::Dsop, r.form.cubes(), r.optimal, r.outcome);
                    let rung = cube_rung(r.optimal);
                    (FormRealization::Dsop(r.form), r.optimal, r.outcome, rung)
                }
            }
            Form::Sop => {
                if let Some((cubes, optimal)) = self.cached_cubes(Form::Sop) {
                    let form = SpForm::new(self.f.num_vars(), cubes);
                    (FormRealization::Sop(form), optimal, Outcome::Completed, Rung::Sop)
                } else {
                    let sp = sp_minimum(self.f, &self.options.cover_limits);
                    let outcome = self.ctx.stop_reason().unwrap_or_default();
                    self.store_cubes(Form::Sop, sp.form.cubes(), sp.optimal, outcome);
                    (FormRealization::Sop(sp.form), sp.optimal, outcome, Rung::Sop)
                }
            }
        };
        FormRun { realization, optimal, outcome, rung }
    }

    fn cached_cubes(&self, form: Form) -> Option<(Vec<spp_boolfn::Cube>, bool)> {
        self.cache.as_ref()?.get_form_cubes(self.f, form, &self.options, &self.ctx)
    }

    /// Inserts a *complete* run's cubes into the per-form cache. Partial
    /// (deadline- or cancel-truncated) results are budget-dependent
    /// best-so-far data and are never stored.
    fn store_cubes(
        &self,
        form: Form,
        cubes: &[spp_boolfn::Cube],
        optimal: bool,
        outcome: Outcome,
    ) {
        if outcome != Outcome::Completed {
            return;
        }
        if let Some(cache) = &self.cache {
            cache.put_form_cubes(self.f, form, &self.options, cubes, optimal, &self.ctx);
        }
    }
}

/// One race entrant's run: its realization, whether its engine proved
/// optimality, how it ended, and the ladder rung it corresponds to.
struct FormRun {
    realization: FormRealization,
    optimal: bool,
    outcome: Outcome,
    rung: Rung,
}

impl Attempt for FormRun {
    fn outcome(&self) -> Outcome {
        self.outcome
    }

    fn realizes(&self, f: &BoolFn) -> bool {
        self.realization.realizes(f)
    }

    fn backstop(sp: SpMinResult, outcome: Outcome, _elapsed: Duration, _ctx: &RunCtx) -> Self {
        // The backstop never proves optimality (and a *governed* SOP
        // entrant that lost verification would not have either).
        let realization = FormRealization::Sop(sp.form);
        FormRun { realization, optimal: false, outcome, rung: Rung::Sop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SppCache;
    use spp_obs::{JsonLinesSink, Outcome, RunCtx};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parity_ties_break_to_spp() {
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
        assert_eq!(r.winner, Form::Spp);
        assert_eq!(r.cost, 4);
        assert!(r.realization.realizes(&f));
        assert_eq!(r.reports.len(), 4);
        assert!(r.reports.iter().all(|rep| rep.accepted));
        // Winner's cost is ≤ every entrant's cost — the race invariant.
        assert!(r.reports.iter().all(|rep| rep.cost.is_none_or(|c| r.cost <= c)));
    }

    #[test]
    fn esop_can_beat_spp_on_gates_vs_literals() {
        // Every accepted race satisfies the invariant under both
        // objectives, and costs are internally consistent.
        let f = BoolFn::from_truth_fn(4, |x| x % 5 == 1 || x % 7 == 3);
        for objective in [Objective::Literals, Objective::Gates] {
            let race = FormPortfolio::new().objective(objective);
            let r = Minimizer::new(&f).run_portfolio(&race);
            assert!(r.realization.realizes(&f), "{objective}");
            assert_eq!(r.cost, r.realization.cost(objective));
            assert!(r.reports.iter().all(|rep| rep.cost.is_none_or(|c| r.cost <= c)));
        }
    }

    #[test]
    fn restricted_race_runs_only_requested_forms() {
        let f = BoolFn::from_truth_fn(3, |x| x.count_ones() >= 2);
        let race = FormPortfolio::new().forms(vec![Form::Sop, Form::Esop]);
        assert_eq!(race.entrants(), vec![Form::Esop, Form::Sop]);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let ran: Vec<Form> = r.reports.iter().map(|rep| rep.form).collect();
        assert_eq!(ran, vec![Form::Esop, Form::Sop]);
        assert!(r.realization.realizes(&f));
    }

    #[test]
    fn race_emits_form_events_in_canonical_order() {
        let f = BoolFn::from_truth_fn(3, |x| x != 0 && x != 7);
        let buf = Buf::default();
        let ctx = RunCtx::new().with_sink(Arc::new(JsonLinesSink::new(buf.clone())));
        let m = {
            let mut m = Minimizer::new(&f);
            m.ctx = ctx;
            m
        };
        let _ = m.run_portfolio(&FormPortfolio::new());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let started: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"form_started\""))
            .collect();
        assert_eq!(started.len(), 4);
        for (line, name) in started.iter().zip(["spp", "esop", "dsop", "sop"]) {
            assert!(line.contains(name), "{line} should be {name}");
        }
        assert_eq!(text.lines().filter(|l| l.contains("\"form_finished\"")).count(), 4);
    }

    #[test]
    fn impossible_hard_budget_pins_the_nested_ladder_and_race_trace() {
        let f = BoolFn::from_truth_fn(5, |x| x % 3 == 1);
        let buf = Buf::default();
        let r = Minimizer::new(&f)
            .mem_budget(None, Some(1))
            .on_event(Arc::new(JsonLinesSink::new(buf.clone())))
            .run_portfolio(&FormPortfolio::new());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let trace: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.starts_with("{\"event\":\"rung_") || l.starts_with("{\"event\":\"form_")
            })
            .collect();
        // The SPP entrant runs the whole ladder inside its own form
        // events: every generating rung trips the one-byte budget and the
        // SP bottom rung answers; the cube engines charge nothing.
        assert_eq!(
            trace,
            [
                r#"{"event":"form_started","form":"spp"}"#,
                r#"{"event":"rung_started","rung":"exact"}"#,
                r#"{"event":"rung_finished","rung":"exact","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"restricted_exact"}"#,
                r#"{"event":"rung_finished","rung":"restricted_exact","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"heuristic"}"#,
                r#"{"event":"rung_finished","rung":"heuristic","outcome":"memory_exceeded","accepted":false}"#,
                r#"{"event":"rung_started","rung":"sop"}"#,
                r#"{"event":"rung_finished","rung":"sop","outcome":"completed","accepted":true}"#,
                r#"{"event":"form_finished","form":"spp","outcome":"completed","cost":55,"accepted":true}"#,
                r#"{"event":"form_started","form":"esop"}"#,
                r#"{"event":"form_finished","form":"esop","outcome":"completed","cost":37,"accepted":true}"#,
                r#"{"event":"form_started","form":"dsop"}"#,
                r#"{"event":"form_finished","form":"dsop","outcome":"completed","cost":55,"accepted":true}"#,
                r#"{"event":"form_started","form":"sop"}"#,
                r#"{"event":"form_finished","form":"sop","outcome":"completed","cost":55,"accepted":true}"#,
            ]
        );
        assert_eq!((r.winner, r.cost, r.rung), (Form::Esop, 37, Rung::Heuristic));
    }

    #[test]
    fn race_with_no_verifiable_entrant_falls_back_to_the_sop_backstop() {
        // Real engines always verify, so fake entrants hand the race empty
        // forms: each computes the constant 0, never `f`.
        let f = BoolFn::from_truth_fn(4, |x| x % 3 == 1);
        let buf = Buf::default();
        let m = Minimizer::new(&f).on_event(Arc::new(JsonLinesSink::new(buf.clone())));
        let r = m.race(&[Form::Esop, Form::Dsop], Objective::Literals, |form| FormRun {
            realization: match form {
                Form::Esop => FormRealization::Esop(EsopForm::new(4, Vec::new())),
                _ => FormRealization::Dsop(DsopForm::new(4, Vec::new())),
            },
            optimal: true,
            outcome: Outcome::Completed,
            rung: Rung::Exact,
        });
        let ran: Vec<(Form, Option<u64>, bool)> =
            r.reports.iter().map(|rep| (rep.form, rep.cost, rep.accepted)).collect();
        assert_eq!(
            ran,
            [(Form::Esop, None, false), (Form::Dsop, None, false), (Form::Sop, Some(r.cost), true)]
        );
        assert_eq!((r.winner, r.optimal, r.rung), (Form::Sop, false, Rung::Sop));
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.realization.realizes(&f));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let sop_finished = format!(
            r#"{{"event":"form_finished","form":"sop","outcome":"completed","cost":{},"accepted":true}}"#,
            r.cost
        );
        assert_eq!(
            text.lines().collect::<Vec<_>>(),
            [
                r#"{"event":"form_started","form":"esop"}"#,
                r#"{"event":"form_finished","form":"esop","outcome":"completed","cost":null,"accepted":false}"#,
                r#"{"event":"form_started","form":"dsop"}"#,
                r#"{"event":"form_finished","form":"dsop","outcome":"completed","cost":null,"accepted":false}"#,
                r#"{"event":"form_started","form":"sop"}"#,
                sop_finished.as_str(),
            ]
        );
    }

    #[test]
    fn warm_race_hits_every_form_lane() {
        let cache = SppCache::in_memory(4 * 1024 * 1024);
        let f = BoolFn::from_truth_fn(4, |x| x % 3 == 1);
        let race = FormPortfolio::new();
        let cold = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        let baseline = cache.stats().hits;
        let warm = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        assert_eq!(cold.winner, warm.winner);
        assert_eq!(cold.cost, warm.cost);
        // At least the three cube lanes hit (the SPP lane has its own
        // result cache, counted separately).
        assert!(cache.stats().hits >= baseline + 3, "stats: {:?}", cache.stats());
        assert!(warm.reports.iter().all(|rep| rep.outcome == Outcome::Completed));
    }

    #[test]
    fn gate_costs_weight_xor_double() {
        // x0·x1 + x̄0·x̄1 as DSOP/SOP: 2 AND2 + 1 OR2 = 3.
        // Its ESOP needs the same cubes but an XOR combine: 2 + 2 = 4.
        let f = BoolFn::from_truth_fn(2, |x| x == 0 || x == 3);
        let race = FormPortfolio::new().objective(Objective::Gates);
        let r = Minimizer::new(&f).run_portfolio(&race);
        let by_form = |form: Form| {
            r.reports.iter().find(|rep| rep.form == form).and_then(|rep| rep.cost)
        };
        assert_eq!(by_form(Form::Sop), Some(3));
        assert_eq!(by_form(Form::Dsop), Some(3));
        // SPP on this function is the 2-literal factor chain
        // (x0⊕x̄1): one XOR2 = 2.
        assert_eq!(by_form(Form::Spp), Some(2));
        assert_eq!(r.winner, Form::Spp);
    }
}
