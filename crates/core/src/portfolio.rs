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

use crate::minimize::SessionSp;
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
    /// The form that entered.
    pub form: Form,
    /// How its run ended ([`Outcome::Completed`] for a skipped entrant).
    pub outcome: Outcome,
    /// Its cost under the race objective — `None` if the result failed
    /// verification (in which case it never competes) or the entrant was
    /// skipped.
    pub cost: Option<u64>,
    /// Wall-clock time this entrant took (zero if skipped).
    pub wall: Duration,
    /// Whether the entrant competed: verified and within the memory
    /// budget.
    pub accepted: bool,
    /// Whether the race skipped the entrant without running it, because
    /// an earlier entrant's proved minimum costs no more than any result
    /// it could return (see [`Minimizer::run_portfolio`]). A skipped
    /// entrant is not accepted and has no cost, but, unlike an excluded
    /// one, it did not fail.
    pub skipped: bool,
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
    /// One report per entrant, in running order, skipped ones included
    /// (plus the SOP backstop if the race needed it).
    pub reports: Vec<PortfolioReport>,
}

impl Minimizer<'_> {
    /// Races the configured forms and returns the cheapest *verified*
    /// realization under the portfolio's objective.
    ///
    /// This is the ladder's plan executor with a different plan: every
    /// entrant runs unless skipped (below), and the cheapest accepted one
    /// wins. All entrants
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
    /// **Skipped entrants.** Under [`Objective::Literals`], an accepted SPP
    /// result proved optimal on the exact rung ([`Rung::Exact`]: a cover
    /// proved minimal over the complete EPPP set) costs no more than any
    /// sum of products, since every SP form is an SPP form (paper §1: "in
    /// the worst case, SP and SPP forms coincide") and every DSOP is an SP
    /// form. DSOP and SOP could then at best tie, and a tie stays with
    /// SPP, so they do not run: each gets a report with `skipped` set (not
    /// accepted, no cost) and a [`spp_obs::Event::FormSkipped`] event in
    /// place of its started/finished pair. The winner, its cost and
    /// realization are the same as with the full race; to get DSOP or SOP
    /// costs anyway, name those forms in the portfolio (or race on
    /// [`Objective::Gates`], which never skips). ESOP always runs.
    ///
    /// The race computes the SP minimum at most once, on first use, and
    /// every user shares it: the SOP entrant answers with it, the DSOP
    /// entrant splits its cover into disjoint products, and the ladder
    /// nested in the SPP entrant takes its backstop and truncated-pool
    /// guards from it. A race that skips DSOP and SOP never computes it.
    ///
    /// ESOP, DSOP and SOP results of *complete* runs are cached per form
    /// when the session has a cache, so re-racing a function warms every
    /// lane that ran, not just the SPP one.
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
    /// // The SPP minimum is proved, so DSOP and SOP were skipped.
    /// let skipped: Vec<Form> = r.reports.iter().filter(|r| r.skipped).map(|r| r.form).collect();
    /// assert_eq!(skipped, [Form::Dsop, Form::Sop]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `f.num_vars() > 24` (the cube engines expand minterms).
    #[must_use]
    pub fn run_portfolio(&self, portfolio: &FormPortfolio) -> PortfolioResult {
        let sp = self.session_sp();
        let entrants = portfolio.entrants();
        self.race(&entrants, portfolio.cost_objective(), &sp, |form| self.run_form(form, &sp))
    }

    /// The race plan: `entrants` in order, each run by `run` unless a
    /// proved SPP minimum rules it out, the cheapest accepted one winning
    /// under `objective`; `sp` is the race's SP minimum, which backstops
    /// it.
    fn race(
        &self,
        entrants: &[Form],
        objective: Objective,
        sp: &SessionSp<'_>,
        mut run: impl FnMut(Form) -> FormRun,
    ) -> PortfolioResult {
        let price = |r: &FormRun| r.realization.cost(objective);
        let rules_out = |r: &FormRun, form: Form| {
            objective == Objective::Literals
                && matches!(form, Form::Dsop | Form::Sop)
                && r.proves_spp_minimum()
        };
        let pick = Pick::Cheapest { price: &price, rules_out: &rules_out };
        let (won, verdicts) = self.run_plan(entrants, &pick, sp, |form| Some(run(form)));
        let reports = verdicts
            .into_iter()
            .map(|v| PortfolioReport {
                form: v.lane,
                outcome: v.outcome,
                cost: v.cost,
                wall: v.wall,
                accepted: v.accepted,
                skipped: v.skipped,
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
    /// inside the rung ladder). The DSOP and SOP entrants are both built
    /// from the race's SP minimum `sp`: SOP answers with its cover, DSOP
    /// splits that cover into disjoint products.
    fn run_form(&self, form: Form, sp: &SessionSp<'_>) -> FormRun {
        let cube_rung = |optimal| if optimal { Rung::Exact } else { Rung::Heuristic };
        let (realization, optimal, outcome, rung) = match form {
            Form::Spp => {
                let r = self.governed(sp);
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
                    // A heuristic: DSOP minimality is never proved.
                    let form = spp_dsop::disjoint_split(&sp.get().form);
                    let outcome = self.ctx.stop_reason().unwrap_or_default();
                    self.store_cubes(Form::Dsop, form.cubes(), false, outcome);
                    (FormRealization::Dsop(form), false, outcome, cube_rung(false))
                }
            }
            Form::Sop => {
                if let Some((cubes, optimal)) = self.cached_cubes(Form::Sop) {
                    let form = SpForm::new(self.f.num_vars(), cubes);
                    (FormRealization::Sop(form), optimal, Outcome::Completed, Rung::Sop)
                } else {
                    let sp = sp.get();
                    let outcome = self.ctx.stop_reason().unwrap_or_default();
                    self.store_cubes(Form::Sop, sp.form.cubes(), sp.optimal, outcome);
                    (FormRealization::Sop(sp.form.clone()), sp.optimal, outcome, Rung::Sop)
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

impl FormRun {
    /// Whether this is an SPP form proved minimal over the complete EPPP
    /// set: `optimal` on the exact rung, whose flag requires an
    /// untruncated generation and a completed covering proof.
    fn proves_spp_minimum(&self) -> bool {
        matches!(self.realization, FormRealization::Spp(_))
            && self.optimal
            && self.rung == Rung::Exact
    }
}

impl Attempt for FormRun {
    fn outcome(&self) -> Outcome {
        self.outcome
    }

    fn realizes(&self, f: &BoolFn) -> bool {
        self.realization.realizes(f)
    }

    fn backstop(sp: &SpMinResult, outcome: Outcome, _elapsed: Duration, _ctx: &RunCtx) -> Self {
        // The backstop never proves optimality (and a *governed* SOP
        // entrant that lost verification would not have either).
        let realization = FormRealization::Sop(sp.form.clone());
        FormRun { realization, optimal: false, outcome, rung: Rung::Sop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SppCache, SppOptions};
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

    /// `(form, cost, accepted, skipped)` per report.
    fn board(r: &PortfolioResult) -> Vec<(Form, Option<u64>, bool, bool)> {
        r.reports.iter().map(|rep| (rep.form, rep.cost, rep.accepted, rep.skipped)).collect()
    }

    #[test]
    fn parity_ties_break_to_spp() {
        use Form::{Dsop, Esop, Sop, Spp};
        let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
        let r = Minimizer::new(&f).run_portfolio(&FormPortfolio::new());
        assert_eq!(r.winner, Form::Spp);
        assert_eq!(r.cost, 4);
        assert!(r.realization.realizes(&f));
        // Every entrant that ran is accepted; DSOP and SOP, which cannot
        // beat the proved SPP minimum, are skipped.
        assert_eq!(
            board(&r),
            [
                (Spp, Some(4), true, false),
                (Esop, Some(4), true, false),
                (Dsop, None, false, true),
                (Sop, None, false, true),
            ]
        );
        // Winner's cost is ≤ every entrant's cost — the race invariant.
        assert!(r.reports.iter().all(|rep| rep.cost.is_none_or(|c| r.cost <= c)));
        // Named, the cube forms all run: the ESOP ties SPP's 4 literals,
        // DSOP and SOP need all 8 minterms (32 literals).
        let cubes = FormPortfolio::new().forms(vec![Esop, Dsop, Sop]);
        let r = Minimizer::new(&f).run_portfolio(&cubes);
        assert_eq!((r.winner, r.cost), (Esop, 4));
        assert_eq!(
            board(&r),
            [
                (Esop, Some(4), true, false),
                (Dsop, Some(32), true, false),
                (Sop, Some(32), true, false),
            ]
        );
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
        let _ = m.run_portfolio(&FormPortfolio::new().objective(Objective::Gates));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        // `event:form` per form event, ignoring the finished events' fields.
        let trace: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("{\"event\":\"form_"))
            .map(|l| {
                let field = |key: &str| l.split(key).nth(1).unwrap().split('"').nth(1).unwrap();
                format!("{}:{}", field("\"event\":"), field("\"form\":"))
            })
            .collect();
        assert_eq!(
            trace,
            [
                // Literals: the SPP minimum is proved, so DSOP and SOP
                // are skipped in their turn.
                "form_started:spp",
                "form_finished:spp",
                "form_started:esop",
                "form_finished:esop",
                "form_skipped:dsop",
                "form_skipped:sop",
                // Gates: every form runs.
                "form_started:spp",
                "form_finished:spp",
                "form_started:esop",
                "form_finished:esop",
                "form_started:dsop",
                "form_finished:dsop",
                "form_started:sop",
                "form_finished:sop",
            ]
        );
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
        let sp = m.session_sp();
        let r = m.race(&[Form::Esop, Form::Dsop], Objective::Literals, &sp, |form| FormRun {
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
        use Form::{Dsop, Esop, Sop};
        let f = BoolFn::from_truth_fn(4, |x| x % 3 == 1);
        // The cube lanes run when named, or under the gate objective.
        let races = [
            FormPortfolio::new().forms(vec![Esop, Dsop, Sop]),
            FormPortfolio::new().objective(Objective::Gates),
        ];
        for race in races {
            let cache = SppCache::in_memory(4 * 1024 * 1024);
            let cold = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
            let baseline = cache.stats().hits;
            let warm = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
            assert_eq!(cold.winner, warm.winner);
            assert_eq!(cold.cost, warm.cost);
            // At least the three cube lanes hit (the SPP lane has its own
            // result cache, counted separately).
            assert!(cache.stats().hits >= baseline + 3, "stats: {:?}", cache.stats());
            assert!(warm.reports.iter().all(|rep| rep.outcome == Outcome::Completed));
            assert!(warm.reports.iter().all(|rep| rep.accepted && !rep.skipped));
            // Each warmed lane answers alone from its cache, and realizes f.
            for form in [Esop, Dsop, Sop] {
                let before = cache.stats().hits;
                let single = FormPortfolio::new().forms(vec![form]);
                let r = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&single);
                assert_eq!(cache.stats().hits, before + 1, "{form}: {:?}", cache.stats());
                assert!(r.realization.realizes(&f), "{form}");
            }
        }
        // The literal race skips DSOP and SOP, so it neither reads nor
        // warms their lanes: a warm re-race hits the SPP and ESOP lanes.
        let cache = SppCache::in_memory(4 * 1024 * 1024);
        let race = FormPortfolio::new();
        let cold = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        let baseline = cache.stats().hits;
        let warm = Minimizer::new(&f).cache(cache.clone()).run_portfolio(&race);
        assert_eq!((cold.winner, cold.cost), (warm.winner, warm.cost));
        assert!(cache.stats().hits >= baseline + 2, "stats: {:?}", cache.stats());
        let skipped = warm.reports.iter().filter(|rep| rep.skipped).map(|rep| rep.form);
        assert_eq!(skipped.collect::<Vec<_>>(), [Dsop, Sop]);
        assert!(cache.get_form_cubes(&f, Dsop, &SppOptions::default(), &RunCtx::new()).is_none());
    }

    /// Four dense 5-input functions and four 6-input unions of affine
    /// subspaces (the XOR-rich kind where SPP beats SOP), drawn by
    /// SplitMix64 so they are the same on every host.
    fn seeded_race_functions() -> Vec<BoolFn> {
        let mut state = 0x7ace_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut fns = Vec::new();
        for eighths in [4, 5, 6, 5] {
            let on: Vec<bool> = (0..32).map(|_| next() % 8 < eighths).collect();
            fns.push(BoolFn::from_truth_fn(5, |x| on[x as usize]));
        }
        for _ in 0..4 {
            let mut on = [false; 64];
            for _ in 0..3 {
                // `6 - dim` random parity constraints `a·x = b`.
                let dim = 1 + next() % 3;
                let constraints: Vec<(u64, u64)> =
                    (0..6 - dim).map(|_| (1 + next() % 63, next() % 2)).collect();
                for (p, bit) in (0u64..).zip(on.iter_mut()) {
                    *bit |= constraints
                        .iter()
                        .all(|&(a, b)| u64::from((a & p).count_ones() % 2) == b);
                }
            }
            fns.push(BoolFn::from_truth_fn(6, |x| on[x as usize]));
        }
        fns
    }

    #[test]
    fn dsop_and_sop_entrants_split_one_sp_cover() {
        use Form::{Dsop, Esop, Sop, Spp};
        // Winner, cost and each entrant's cost per race: the SP minimum
        // computed once per race changes none of them.
        let pinned: [(Form, u64, [u64; 4]); 8] = [
            (Spp, 18, [18, 21, 40, 30]),
            (Spp, 12, [12, 19, 32, 20]),
            (Esop, 13, [15, 13, 32, 22]),
            (Spp, 17, [17, 25, 31, 28]),
            (Spp, 22, [22, 46, 79, 77]),
            (Spp, 18, [18, 42, 52, 50]),
            (Spp, 18, [18, 31, 31, 30]),
            (Spp, 19, [19, 32, 49, 49]),
        ];
        let fns = seeded_race_functions();
        for (f, (winner, cost, [spp, esop, dsop, sop])) in fns.iter().zip(pinned) {
            // The full race: every SPP minimum here is proved, so DSOP and
            // SOP are skipped and the SP minimum is never computed.
            let m = Minimizer::new(f);
            let sp = m.session_sp();
            let r = m.race(&Form::ALL, Objective::Literals, &sp, |form| m.run_form(form, &sp));
            let expected = [
                (Spp, Some(spp), true, false),
                (Esop, Some(esop), true, false),
                (Dsop, None, false, true),
                (Sop, None, false, true),
            ];
            assert_eq!((r.winner, r.cost, board(&r)), (winner, cost, expected.to_vec()));
            assert!(!sp.is_computed(), "a race that skips DSOP and SOP computed the SP minimum");

            // The DSOP and SOP entrants, raced alone, share one SP minimum.
            let mut built = Vec::new();
            let r = m.race(&[Dsop, Sop], Objective::Literals, &sp, |form| {
                let run = m.run_form(form, &sp);
                built.push(run.realization.clone());
                run
            });
            let expected = [(Dsop, Some(dsop), true, false), (Sop, Some(sop), true, false)];
            assert_eq!(board(&r), expected);
            let [FormRealization::Dsop(dsop), FormRealization::Sop(sop)] = built.as_slice() else {
                panic!("entrants ran out of order: {built:?}");
            };
            assert_eq!(sop, &sp.get().form);
            for cube in dsop.cubes() {
                assert!(sop.cubes().iter().any(|s| s.contains_cube(cube)), "{cube} in no SOP cube");
            }
            for point in spp_boolfn::all_points(f.num_vars()) {
                let in_dsop = dsop.cubes().iter().any(|c| c.contains_point(&point));
                assert_eq!(in_dsop, sop.eval(&point), "point {point}");
            }
        }
    }

    /// Skipping is sound on the seeded functions: a literal race that
    /// skips DSOP and SOP does so only after a proved SPP minimum, and
    /// each skipped form, raced alone, realizes `f` at no lower cost than
    /// the SPP entrant. The gate objective never skips.
    #[test]
    fn skipped_entrants_cost_no_less_than_the_proved_spp_minimum() {
        use Form::{Dsop, Sop, Spp};
        for f in &seeded_race_functions() {
            let r = Minimizer::new(f).run_portfolio(&FormPortfolio::new());
            let spp = r.reports.iter().find(|rep| rep.form == Spp).unwrap();
            let governed = Minimizer::new(f).run_governed();
            assert!(governed.optimal && governed.rung == Rung::Exact);
            assert_eq!(spp.cost, Some(governed.literal_count()));
            let skipped: Vec<Form> =
                r.reports.iter().filter(|rep| rep.skipped).map(|rep| rep.form).collect();
            assert_eq!(skipped, [Dsop, Sop]);
            for form in [Dsop, Sop] {
                let race = FormPortfolio::new().forms(vec![form]);
                let alone = Minimizer::new(f).run_portfolio(&race);
                assert_eq!(alone.winner, form);
                assert!(alone.realization.realizes(f), "{form}");
                assert!(alone.cost >= governed.literal_count(), "{form}: {}", alone.cost);
            }
            let gates = FormPortfolio::new().objective(Objective::Gates);
            let g = Minimizer::new(f).run_portfolio(&gates);
            assert_eq!(g.reports.len(), 4);
            assert!(g.reports.iter().all(|rep| rep.accepted && !rep.skipped));
        }
    }

    /// An SPP result that is not proved on the exact rung rules nothing
    /// out: the race runs all four entrants, and its answer is the one
    /// the full race would give.
    #[test]
    fn unproved_spp_results_run_the_whole_race() {
        let no_exact = spp_cover::Limits::default().with_max_exact_columns(0);
        let one_node = spp_cover::Limits::default().with_max_nodes(1);
        let mut unproved = 0;
        for f in &seeded_race_functions() {
            for limits in [no_exact.clone(), one_node.clone()] {
                let governed = Minimizer::new(f).cover_limits(limits.clone()).run_governed();
                if governed.optimal && governed.rung == Rung::Exact {
                    continue; // the greedy cover or the root proved it anyway
                }
                unproved += 1;
                let r = Minimizer::new(f).cover_limits(limits).run_portfolio(&FormPortfolio::new());
                assert_eq!(r.reports.len(), 4);
                assert!(r.reports.iter().all(|rep| rep.accepted && !rep.skipped), "{r:?}");
                assert!(r.reports.iter().all(|rep| rep.cost.is_some_and(|c| r.cost <= c)));
            }
        }
        // Both caps must leave some proof unfinished.
        assert!(unproved >= 8, "only {unproved} unproved races");
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
