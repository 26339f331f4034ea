//! The transport-neutral minimization request/response pair — the single
//! API surface shared by the CLI one-shot path, the library sessions and
//! the `spp serve` wire protocol.
//!
//! A [`MinimizeRequest`] names the function (PLA text), the algorithm
//! ([`MinimizeMode`]) and the run-control envelope (deadline, memory
//! budget, [`Priority`]); [`execute`] maps it onto a [`crate::Minimizer`]
//! or [`crate::MultiMinimizer`] session under an [`ExecEnv`] supplied by
//! the host (shared cache, cancel token, event sink, server-side caps)
//! and produces a [`MinimizeResponse`]. Failures are typed
//! [`ErrorFrame`]s, ready to be sent on the wire verbatim, so the daemon,
//! the CLI and library callers all see the same error surface.
//!
//! Both sides serialize to the compact JSON of [`spp_obs::json`]; the
//! schema is versioned by [`SCHEMA_VERSION`] and a request carrying a
//! different `v` is rejected with
//! [`WireErrorKind::UnsupportedVersion`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use spp_boolfn::BoolFn;
use spp_obs::json::Json;
use spp_obs::{CancelToken, EventSink, Form, Outcome, Rung};

use crate::minimize::sp_minimum;
use crate::{
    FormPortfolio, FormRealization, Minimizer, MultiMinimizer, Objective,
    PortfolioReport, SppCache, SppError, SppForm, SppMinResult, SppOptions,
};

/// Version tag of the request/response JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Which synthesis procedure a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MinimizeMode {
    /// Algorithm 2 end to end ([`Minimizer::run_exact`]).
    Exact,
    /// The resource-governed degradation ladder
    /// ([`Minimizer::run_governed`]): exact → restricted → heuristic →
    /// SP, descending under memory pressure.
    Governed,
    /// Algorithm 3 with work parameter `k`
    /// ([`Minimizer::run_heuristic`]).
    Heuristic(usize),
    /// Width-restricted `k`-SPP synthesis with the given maximum factor
    /// width ([`Minimizer::run_restricted`]); 2 is the classical 2-SPP
    /// form.
    Restricted(usize),
    /// Plain SP (sum-of-products) minimization — the ladder's bottom
    /// rung, exposed directly for baselines.
    Sop,
    /// The multi-form portfolio race ([`Minimizer::run_portfolio`]):
    /// SPP / ESOP / DSOP / SOP compete under the shared envelope and the
    /// cheapest verified realization answers. The form subset and cost
    /// objective travel in the sibling `forms` / `objective` request
    /// fields.
    Portfolio,
}

impl MinimizeMode {
    /// The wire identifier (`"exact"`, `"governed"`, `"heuristic"`,
    /// `"restricted"`, `"sop"`, `"portfolio"`). Parameters travel in the
    /// sibling `k` / `width` / `forms` / `objective` request fields.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MinimizeMode::Exact => "exact",
            MinimizeMode::Governed => "governed",
            MinimizeMode::Heuristic(_) => "heuristic",
            MinimizeMode::Restricted(_) => "restricted",
            MinimizeMode::Sop => "sop",
            MinimizeMode::Portfolio => "portfolio",
        }
    }
}

/// Scheduling priority of a request on the serve worker pool. The
/// scheduler drains lanes strictly in this order, with FIFO order inside
/// a lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Served only when the other lanes are empty.
    Low,
}

impl Priority {
    /// The wire identifier (`"high"`, `"normal"`, `"low"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses the identifier produced by [`Priority::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    /// The scheduler lane index (0 = high, 1 = normal, 2 = low).
    #[must_use]
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// The class of a typed wire error, as sent in an [`ErrorFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The frame itself was malformed (bad length prefix, not UTF-8, not
    /// JSON).
    BadFrame,
    /// The frame was well-formed JSON but not a valid request.
    BadRequest,
    /// The request's `v` field names a schema this server does not speak.
    UnsupportedVersion,
    /// The request's PLA (or cube) text failed to parse.
    Parse,
    /// Admission control refused the request: the queue is full.
    Overloaded,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The request (or its connection) overran a deadline or stall budget
    /// and was abandoned server-side.
    Timeout,
    /// An unexpected server-side failure.
    Internal,
}

impl WireErrorKind {
    /// The wire identifier (`"bad_frame"`, `"bad_request"`, …).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WireErrorKind::BadFrame => "bad_frame",
            WireErrorKind::BadRequest => "bad_request",
            WireErrorKind::UnsupportedVersion => "unsupported_version",
            WireErrorKind::Parse => "parse",
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::ShuttingDown => "shutting_down",
            WireErrorKind::Timeout => "timeout",
            WireErrorKind::Internal => "internal",
        }
    }

    /// Parses the identifier produced by [`WireErrorKind::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bad_frame" => Some(WireErrorKind::BadFrame),
            "bad_request" => Some(WireErrorKind::BadRequest),
            "unsupported_version" => Some(WireErrorKind::UnsupportedVersion),
            "parse" => Some(WireErrorKind::Parse),
            "overloaded" => Some(WireErrorKind::Overloaded),
            "shutting_down" => Some(WireErrorKind::ShuttingDown),
            "timeout" => Some(WireErrorKind::Timeout),
            "internal" => Some(WireErrorKind::Internal),
            _ => None,
        }
    }
}

/// A typed error, serializable as a wire frame
/// (`{"v":1,"error":"<kind>","message":"…","id":"…"}`). The `id` echoes
/// the offending request's id when one could be recovered, so clients
/// can correlate errors under pipelining.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request id this error answers, when known.
    pub id: Option<String>,
    /// The error class.
    pub kind: WireErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorFrame {
    /// Builds an error frame with no request id.
    #[must_use]
    pub fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        ErrorFrame { id: None, kind, message: message.into() }
    }

    /// Attaches the request id the error answers.
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = Some(id.into());
        self
    }

    /// Serializes the frame to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), Json::from(SCHEMA_VERSION)),
            ("error".into(), Json::from(self.kind.as_str())),
            ("message".into(), Json::from(self.message.as_str())),
        ];
        if let Some(id) = &self.id {
            fields.push(("id".into(), Json::from(id.as_str())));
        }
        Json::Obj(fields).to_string()
    }

    /// Parses a frame produced by [`ErrorFrame::to_json`]. Returns `None`
    /// when the text is not an error frame (e.g. it is a response).
    #[must_use]
    pub fn from_json(text: &str) -> Option<Self> {
        let json = Json::parse(text).ok()?;
        let kind = WireErrorKind::parse(json.get("error")?.as_str()?)?;
        Some(ErrorFrame {
            id: json.get("id").and_then(Json::as_str).map(str::to_owned),
            kind,
            message: json
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        })
    }
}

impl std::fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ErrorFrame {}

impl From<SppError> for ErrorFrame {
    fn from(e: SppError) -> Self {
        let kind = match &e {
            SppError::Pla(_) | SppError::Cube(_) => WireErrorKind::Parse,
            SppError::WorkerPanic { .. } => WireErrorKind::Internal,
            _ => WireErrorKind::BadRequest,
        };
        ErrorFrame::new(kind, e.to_string())
    }
}

/// A complete minimization request: the function, the algorithm and the
/// run-control envelope. One serde-free serializable struct serves the
/// CLI one-shot path, library callers and the `spp serve` wire protocol.
///
/// # Examples
///
/// ```
/// use spp_core::{MinimizeMode, MinimizeRequest};
///
/// let req = MinimizeRequest::new("r1", ".i 2\n.o 1\n01 1\n10 1\n.e\n")
///     .with_mode(MinimizeMode::Exact)
///     .with_deadline_ms(5_000);
/// let round = MinimizeRequest::from_json(&req.to_json()).unwrap();
/// assert_eq!(round, req);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MinimizeRequest {
    /// Schema version; must equal [`SCHEMA_VERSION`].
    pub v: u64,
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The function, as Espresso `.pla` text (possibly multi-output).
    pub pla: String,
    /// Which synthesis procedure to run.
    pub mode: MinimizeMode,
    /// For multi-output PLAs: minimize all outputs as one shared covering
    /// problem (pseudoproduct literals paid once) instead of
    /// independently. Requires [`MinimizeMode::Exact`].
    pub multi: bool,
    /// For [`MinimizeMode::Portfolio`]: the forms to race. Empty means
    /// all of [`Form::ALL`]; ignored by every other mode.
    pub forms: Vec<Form>,
    /// For [`MinimizeMode::Portfolio`]: the race cost function. Ignored
    /// by every other mode.
    pub objective: Objective,
    /// Worker threads for this request; `None` uses the host default.
    pub threads: Option<usize>,
    /// Whole-run deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
    /// Hard memory-accounting budget, in MiB (see
    /// [`Minimizer::mem_budget`]).
    pub mem_budget_mb: Option<u64>,
    /// Scheduling priority on the serve worker pool.
    pub priority: Priority,
}

impl MinimizeRequest {
    /// Builds a request with default mode ([`MinimizeMode::Governed`]),
    /// priority and no budgets.
    #[must_use]
    pub fn new(id: impl Into<String>, pla: impl Into<String>) -> Self {
        MinimizeRequest {
            v: SCHEMA_VERSION,
            id: id.into(),
            pla: pla.into(),
            mode: MinimizeMode::Governed,
            multi: false,
            forms: Vec::new(),
            objective: Objective::default(),
            threads: None,
            deadline_ms: None,
            mem_budget_mb: None,
            priority: Priority::default(),
        }
    }

    /// Sets the synthesis procedure.
    #[must_use]
    pub fn with_mode(mut self, mode: MinimizeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Requests shared multi-output covering.
    #[must_use]
    pub fn with_multi(mut self, multi: bool) -> Self {
        self.multi = multi;
        self
    }

    /// Restricts a portfolio race to these forms (empty = all).
    #[must_use]
    pub fn with_forms(mut self, forms: Vec<Form>) -> Self {
        self.forms = forms;
        self
    }

    /// Sets the portfolio race's cost function.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Pins the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the whole-run deadline, in milliseconds from admission.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the hard memory budget, in MiB.
    #[must_use]
    pub fn with_mem_budget_mb(mut self, mb: u64) -> Self {
        self.mem_budget_mb = Some(mb);
        self
    }

    /// Sets the scheduling priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Serializes the request to compact JSON (one line, no trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), Json::from(self.v)),
            ("id".into(), Json::from(self.id.as_str())),
            ("pla".into(), Json::from(self.pla.as_str())),
            ("mode".into(), Json::from(self.mode.as_str())),
        ];
        match self.mode {
            MinimizeMode::Heuristic(k) => fields.push(("k".into(), Json::from(k))),
            MinimizeMode::Restricted(w) => fields.push(("width".into(), Json::from(w))),
            MinimizeMode::Portfolio => {
                if !self.forms.is_empty() {
                    let forms: Vec<Json> =
                        self.forms.iter().map(|f| Json::from(f.as_str())).collect();
                    fields.push(("forms".into(), Json::Arr(forms)));
                }
                fields.push(("objective".into(), Json::from(self.objective.as_str())));
            }
            _ => {}
        }
        fields.push(("multi".into(), Json::from(self.multi)));
        if let Some(t) = self.threads {
            fields.push(("threads".into(), Json::from(t)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".into(), Json::from(ms)));
        }
        if let Some(mb) = self.mem_budget_mb {
            fields.push(("mem_budget_mb".into(), Json::from(mb)));
        }
        fields.push(("priority".into(), Json::from(self.priority.as_str())));
        Json::Obj(fields).to_string()
    }

    /// Parses a request produced by [`MinimizeRequest::to_json`] (or any
    /// client speaking the schema).
    ///
    /// # Errors
    ///
    /// A typed [`ErrorFrame`] ready for the wire:
    /// [`WireErrorKind::BadFrame`] when the text is not a JSON object,
    /// [`WireErrorKind::UnsupportedVersion`] when `v` is not
    /// [`SCHEMA_VERSION`], [`WireErrorKind::BadRequest`] for missing or
    /// ill-typed fields. The frame carries the request `id` whenever one
    /// could be recovered.
    pub fn from_json(text: &str) -> Result<Self, ErrorFrame> {
        let json = Json::parse(text).map_err(|e| {
            ErrorFrame::new(WireErrorKind::BadFrame, format!("invalid JSON: {e}"))
        })?;
        if json.as_object().is_none() {
            return Err(ErrorFrame::new(
                WireErrorKind::BadFrame,
                "request must be a JSON object",
            ));
        }
        // Best-effort id recovery so even rejected requests correlate.
        let id_hint = json.get("id").and_then(Json::as_str).map(str::to_owned);
        let fail = |kind: WireErrorKind, message: String| {
            let mut frame = ErrorFrame::new(kind, message);
            frame.id = id_hint.clone();
            Err(frame)
        };

        let Some(v) = json.get("v").and_then(Json::as_u64) else {
            return fail(WireErrorKind::BadRequest, "missing schema version `v`".into());
        };
        if v != SCHEMA_VERSION {
            return fail(
                WireErrorKind::UnsupportedVersion,
                format!("unsupported schema version {v} (this server speaks {SCHEMA_VERSION})"),
            );
        }
        let Some(id) = json.get("id").and_then(Json::as_str) else {
            return fail(WireErrorKind::BadRequest, "missing request `id`".into());
        };
        let Some(pla) = json.get("pla").and_then(Json::as_str) else {
            return fail(WireErrorKind::BadRequest, "missing `pla` text".into());
        };
        let mut forms: Vec<Form> = Vec::new();
        let mut objective = Objective::default();
        let mode = match json.get("mode").and_then(Json::as_str) {
            None => MinimizeMode::Governed,
            Some("exact") => MinimizeMode::Exact,
            Some("governed") => MinimizeMode::Governed,
            Some("sop") => MinimizeMode::Sop,
            Some("portfolio") => {
                if let Some(list) = json.get("forms") {
                    let Some(list) = list.as_array() else {
                        return fail(
                            WireErrorKind::BadRequest,
                            "`forms` must be an array of form names".into(),
                        );
                    };
                    for entry in list {
                        match entry.as_str().and_then(Form::parse) {
                            Some(form) => forms.push(form),
                            None => {
                                return fail(
                                    WireErrorKind::BadRequest,
                                    format!("unknown form {entry}"),
                                )
                            }
                        }
                    }
                }
                if let Some(s) = json.get("objective").and_then(Json::as_str) {
                    match Objective::parse(s) {
                        Some(o) => objective = o,
                        None => {
                            return fail(
                                WireErrorKind::BadRequest,
                                format!("unknown objective {s:?}"),
                            )
                        }
                    }
                }
                MinimizeMode::Portfolio
            }
            Some("heuristic") => {
                let k = match json.get("k") {
                    None => 0,
                    Some(k) => match k.as_u64() {
                        Some(k) => k as usize,
                        None => {
                            return fail(
                                WireErrorKind::BadRequest,
                                "`k` must be a non-negative integer".into(),
                            )
                        }
                    },
                };
                MinimizeMode::Heuristic(k)
            }
            Some("restricted") => {
                let w = match json.get("width") {
                    None => 2,
                    Some(w) => match w.as_u64() {
                        Some(w) => w as usize,
                        None => {
                            return fail(
                                WireErrorKind::BadRequest,
                                "`width` must be a non-negative integer".into(),
                            )
                        }
                    },
                };
                MinimizeMode::Restricted(w)
            }
            Some(other) => {
                return fail(WireErrorKind::BadRequest, format!("unknown mode {other:?}"))
            }
        };
        let numeric = |key: &'static str| -> Result<Option<u64>, ErrorFrame> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(value) => value.as_u64().map(Some).ok_or_else(|| {
                    let mut frame = ErrorFrame::new(
                        WireErrorKind::BadRequest,
                        format!("`{key}` must be a non-negative integer"),
                    );
                    frame.id = id_hint.clone();
                    frame
                }),
            }
        };
        let threads = numeric("threads")?.map(|t| t as usize);
        let deadline_ms = numeric("deadline_ms")?;
        let mem_budget_mb = numeric("mem_budget_mb")?;
        let priority = match json.get("priority").and_then(Json::as_str) {
            None => Priority::default(),
            Some(s) => match Priority::parse(s) {
                Some(p) => p,
                None => {
                    return fail(WireErrorKind::BadRequest, format!("unknown priority {s:?}"))
                }
            },
        };
        Ok(MinimizeRequest {
            v,
            id: id.to_owned(),
            pla: pla.to_owned(),
            mode,
            multi: json.get("multi").and_then(Json::as_bool).unwrap_or(false),
            forms,
            objective,
            threads,
            deadline_ms,
            mem_budget_mb,
            priority,
        })
    }
}

/// One output's synthesis result inside a [`MinimizeResponse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputReport {
    /// The PLA output label (or `y<j>` when the PLA names none).
    pub label: String,
    /// The paper's `#L`: literals of the synthesized form.
    pub literals: u64,
    /// Number of pseudoproducts in the form.
    pub terms: usize,
    /// The form, rendered as `(x0⊕x1)x2 + …`.
    pub form: String,
}

/// The answer to a [`MinimizeRequest`]: per-output forms plus the run
/// verdict (outcome, rung, optimality, independent verification).
#[derive(Clone, Debug, PartialEq)]
pub struct MinimizeResponse {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub v: u64,
    /// The request id this response answers.
    pub id: String,
    /// One report per PLA output, in PLA order.
    pub outputs: Vec<OutputReport>,
    /// How the run ended (worst cause across outputs).
    pub outcome: Outcome,
    /// The degradation-ladder rung that produced the forms (worst rung
    /// across outputs). Under a governed run this is how overload shows
    /// up: a degraded rung, not an error.
    pub rung: Rung,
    /// Whether optimality over the generated candidates was proved for
    /// every output.
    pub optimal: bool,
    /// Whether every form was independently re-verified against its
    /// function ([`SppForm::check_realizes`]).
    pub verified: bool,
    /// For shared multi-output runs: literals with each shared
    /// pseudoproduct counted once.
    pub shared_literals: Option<u64>,
    /// For shared multi-output runs: the number of distinct shared
    /// pseudoproducts across every output's form.
    pub shared_terms: Option<usize>,
    /// For portfolio runs: the winning form (aggregated by summed cost
    /// across outputs when the PLA has several). `None` for every other
    /// mode — and in the rare multi-output race where no single form was
    /// accepted for *all* outputs.
    pub winner: Option<Form>,
    /// For portfolio runs: one report per entrant, aggregated across
    /// outputs (outcomes merged to the worst, costs summed — `None` if
    /// any output's entrant failed verification or was skipped, wall
    /// times summed, accepted only if accepted everywhere, skipped if
    /// skipped anywhere). `None` for other modes.
    pub forms: Option<Vec<PortfolioReport>>,
    /// Wall-clock execution time (excluding queue wait).
    pub wall: Duration,
}

impl MinimizeResponse {
    /// Whether the ladder descended below the exact rung — the governed
    /// overload signal.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.rung > Rung::Exact
    }

    /// Total literals across the per-output forms.
    #[must_use]
    pub fn total_literals(&self) -> u64 {
        self.outputs.iter().map(|o| o.literals).sum()
    }

    /// Serializes the response to compact JSON (one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let outputs: Vec<Json> = self
            .outputs
            .iter()
            .map(|o| {
                Json::Obj(vec![
                    ("label".into(), Json::from(o.label.as_str())),
                    ("literals".into(), Json::from(o.literals)),
                    ("terms".into(), Json::from(o.terms)),
                    ("form".into(), Json::from(o.form.as_str())),
                ])
            })
            .collect();
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), Json::from(self.v)),
            ("id".into(), Json::from(self.id.as_str())),
            ("outputs".into(), Json::Arr(outputs)),
            ("outcome".into(), Json::from(self.outcome.as_str())),
            ("rung".into(), Json::from(self.rung.as_str())),
            ("optimal".into(), Json::from(self.optimal)),
            ("verified".into(), Json::from(self.verified)),
        ];
        if let Some(shared) = self.shared_literals {
            fields.push(("shared_literals".into(), Json::from(shared)));
        }
        if let Some(terms) = self.shared_terms {
            fields.push(("shared_terms".into(), Json::from(terms)));
        }
        if let Some(winner) = self.winner {
            fields.push(("winner".into(), Json::from(winner.as_str())));
        }
        if let Some(reports) = &self.forms {
            let entries: Vec<Json> = reports
                .iter()
                .map(|r| {
                    let mut entry: Vec<(String, Json)> = vec![
                        ("form".into(), Json::from(r.form.as_str())),
                        ("outcome".into(), Json::from(r.outcome.as_str())),
                    ];
                    if let Some(cost) = r.cost {
                        entry.push(("cost".into(), Json::from(cost)));
                    }
                    entry.push((
                        "wall_ms".into(),
                        Json::from(r.wall.as_secs_f64() * 1e3),
                    ));
                    entry.push(("accepted".into(), Json::from(r.accepted)));
                    if r.skipped {
                        // Absent means the entrant ran, as in older replies.
                        entry.push(("skipped".into(), Json::from(true)));
                    }
                    Json::Obj(entry)
                })
                .collect();
            fields.push(("forms".into(), Json::Arr(entries)));
        }
        fields.push(("wall_ms".into(), Json::from(self.wall.as_secs_f64() * 1e3)));
        Json::Obj(fields).to_string()
    }

    /// Parses a response produced by [`MinimizeResponse::to_json`].
    ///
    /// # Errors
    ///
    /// [`WireErrorKind::BadFrame`] when the text is not a well-formed
    /// response object (clients treat this as a protocol error).
    pub fn from_json(text: &str) -> Result<Self, ErrorFrame> {
        let bad = |message: String| ErrorFrame::new(WireErrorKind::BadFrame, message);
        let json = Json::parse(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let v = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing `v`".into()))?;
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing `id`".into()))?
            .to_owned();
        let outputs = json
            .get("outputs")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("missing `outputs`".into()))?
            .iter()
            .map(|o| {
                Some(OutputReport {
                    label: o.get("label")?.as_str()?.to_owned(),
                    literals: o.get("literals")?.as_u64()?,
                    terms: o.get("terms")?.as_u64()? as usize,
                    form: o.get("form")?.as_str()?.to_owned(),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("malformed `outputs` entry".into()))?;
        let outcome = json
            .get("outcome")
            .and_then(Json::as_str)
            .and_then(Outcome::parse)
            .ok_or_else(|| bad("missing or unknown `outcome`".into()))?;
        let rung = json
            .get("rung")
            .and_then(Json::as_str)
            .and_then(Rung::parse)
            .ok_or_else(|| bad("missing or unknown `rung`".into()))?;
        let wall_ms = json
            .get("wall_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("missing `wall_ms`".into()))?;
        let forms = match json.get("forms") {
            None => None,
            Some(list) => Some(
                list.as_array()
                    .ok_or_else(|| bad("`forms` must be an array".into()))?
                    .iter()
                    .map(|entry| {
                        Some(PortfolioReport {
                            form: Form::parse(entry.get("form")?.as_str()?)?,
                            outcome: Outcome::parse(entry.get("outcome")?.as_str()?)?,
                            cost: match entry.get("cost") {
                                None => None,
                                Some(c) => Some(c.as_u64()?),
                            },
                            wall: Duration::from_secs_f64(
                                entry.get("wall_ms")?.as_f64()?.max(0.0) / 1e3,
                            ),
                            accepted: entry.get("accepted")?.as_bool()?,
                            skipped: match entry.get("skipped") {
                                None => false,
                                Some(s) => s.as_bool()?,
                            },
                        })
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("malformed `forms` entry".into()))?,
            ),
        };
        Ok(MinimizeResponse {
            v,
            id,
            outputs,
            outcome,
            rung,
            optimal: json.get("optimal").and_then(Json::as_bool).unwrap_or(false),
            verified: json.get("verified").and_then(Json::as_bool).unwrap_or(false),
            shared_literals: json.get("shared_literals").and_then(Json::as_u64),
            shared_terms: json
                .get("shared_terms")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            winner: json.get("winner").and_then(Json::as_str).and_then(Form::parse),
            forms,
            wall: Duration::from_secs_f64(wall_ms.max(0.0) / 1e3),
        })
    }
}

/// The host-side execution environment an executor threads through every
/// request: the shared cache, the drain/cancel token, the event sink and
/// server-side caps that compose with (never widen) the request's own
/// envelope.
#[derive(Clone, Default)]
pub struct ExecEnv {
    /// Shared cross-call result cache.
    pub cache: Option<SppCache>,
    /// Cooperative cancellation (the daemon's drain path): when
    /// cancelled, in-flight sessions unwind to verified best-so-far
    /// responses.
    pub cancel: Option<CancelToken>,
    /// Progress-event sink installed into each session.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Server-side absolute deadline cap; the effective deadline is the
    /// earlier of this and the request's `deadline_ms`.
    pub deadline_at: Option<Instant>,
    /// Server-side soft memory budget, in bytes.
    pub mem_soft: Option<u64>,
    /// Server-side hard memory budget, in bytes; the effective hard
    /// budget is the smaller of this and the request's `mem_budget_mb`.
    pub mem_hard: Option<u64>,
    /// Thread count used when the request pins none.
    pub threads_default: Option<usize>,
}

impl std::fmt::Debug for ExecEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEnv")
            .field("cache", &self.cache.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("sink", &self.sink.is_some())
            .field("deadline_at", &self.deadline_at)
            .field("mem_soft", &self.mem_soft)
            .field("mem_hard", &self.mem_hard)
            .field("threads_default", &self.threads_default)
            .finish()
    }
}

impl ExecEnv {
    /// The deadline [`execute`] will actually enforce for `req`: the
    /// earlier of the request's own `deadline_ms` (measured from now) and
    /// the environment's `deadline_at` cap. Hosts that supervise stuck
    /// work recompute this to know when overrun starts.
    pub fn effective_deadline(&self, req: &MinimizeRequest) -> Option<Instant> {
        let from_req = req.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        match (from_req, self.deadline_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn effective_mem(&self, req: &MinimizeRequest) -> (Option<u64>, Option<u64>) {
        let from_req = req.mem_budget_mb.map(|mb| mb.saturating_mul(1 << 20));
        let hard = match (from_req, self.mem_hard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        (self.mem_soft, hard)
    }
}

/// A finished execution: the wire-ready response plus the concrete forms
/// (for hosts — like the CLI — that keep rendering netlists from the same
/// run).
#[derive(Clone, Debug)]
pub struct Executed {
    /// The wire-ready response.
    pub response: MinimizeResponse,
    /// The synthesized SPP form of each output, in PLA order. Empty for
    /// [`MinimizeMode::Portfolio`] runs, whose winners may not be SPP
    /// forms at all — use [`realizations`](Self::realizations) there.
    pub forms: Vec<SppForm>,
    /// The synthesized realization of each output in its own form, in
    /// PLA order. For non-portfolio modes these wrap the same forms as
    /// [`forms`](Self::forms).
    pub realizations: Vec<FormRealization>,
}

/// Folds per-output portfolio scoreboards into one report per form:
/// outcomes merge to the worst, costs sum (`None` poisons the sum), wall
/// times sum, a form only stays accepted if it was accepted — and
/// present — for *every* output, and a form skipped on any output is
/// skipped in the aggregate (so it is never accepted and never the
/// aggregate winner). Output order is the canonical [`Form::ALL`] order.
fn aggregate_form_reports(per_output: &[Vec<PortfolioReport>]) -> Vec<PortfolioReport> {
    let mut out: Vec<PortfolioReport> = Vec::new();
    let mut seen: Vec<usize> = Vec::new();
    for reports in per_output {
        for r in reports {
            if let Some(i) = out.iter().position(|a| a.form == r.form) {
                out[i].outcome = out[i].outcome.merge(r.outcome);
                out[i].cost = match (out[i].cost, r.cost) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                };
                out[i].wall += r.wall;
                out[i].accepted &= r.accepted;
                out[i].skipped |= r.skipped;
                seen[i] += 1;
            } else {
                out.push(r.clone());
                seen.push(1);
            }
        }
    }
    for (a, s) in out.iter_mut().zip(seen) {
        if s < per_output.len() {
            // A form that some output never raced (e.g. a backstop that
            // only one output needed) cannot be an aggregate winner.
            a.accepted = false;
            a.cost = None;
        }
    }
    out.sort_by_key(|r| r.form);
    out
}

/// The aggregate winner: cheapest summed cost among the forms accepted
/// for every output (so never a form skipped on any output);
/// `min_by_key` keeps the first of equal minima, so ties break toward
/// the canonical-order earlier form.
fn aggregate_winner(reports: &[PortfolioReport]) -> Option<Form> {
    reports
        .iter()
        .filter(|r| r.accepted)
        .min_by_key(|r| r.cost.unwrap_or(u64::MAX))
        .map(|r| r.form)
}

/// Executes a request end to end: parses the PLA and hands its output
/// functions to [`execute_fns`].
///
/// # Errors
///
/// [`WireErrorKind::Parse`] when the PLA text fails to parse, plus
/// everything [`execute_fns`] reports. Every frame carries the request
/// id.
pub fn execute(req: &MinimizeRequest, env: &ExecEnv) -> Result<Executed, ErrorFrame> {
    let pla = crate::parse_pla(&req.pla)
        .map_err(|e| ErrorFrame::from(e).with_id(req.id.clone()))?;
    let outputs = pla.output_fns();
    execute_fns(req, &outputs, pla.output_labels(), env)
}

/// Executes a request on already-parsed output functions — the shared
/// core of the CLI one-shot path and the serve worker loop. `labels`
/// names the outputs (padded with `y<j>` when short).
///
/// # Errors
///
/// [`WireErrorKind::BadRequest`] for an empty output list, invalid
/// algorithm parameters (heuristic `k` / restricted width out of range)
/// or `multi` combined with a non-exact mode. Run-control stops are NOT
/// errors: deadline, cancellation and memory pressure produce a verified
/// best-so-far response with the cause in
/// [`MinimizeResponse::outcome`].
pub fn execute_fns(
    req: &MinimizeRequest,
    outputs: &[BoolFn],
    labels: &[String],
    env: &ExecEnv,
) -> Result<Executed, ErrorFrame> {
    let fail = |kind, message: String| ErrorFrame { id: Some(req.id.clone()), kind, message };
    if outputs.is_empty() {
        return Err(fail(WireErrorKind::BadRequest, "the PLA has no outputs".into()));
    }
    let start = Instant::now();
    let deadline = env.effective_deadline(req);
    let (mem_soft, mem_hard) = env.effective_mem(req);
    let frame = |e: SppError| ErrorFrame::from(e).with_id(req.id.clone());

    // A run-control stop (deadline, cancellation, memory) can truncate a
    // form mid-search. The SP bottom rung is always realizable and needs
    // no pseudocube generation, so a stopped request still answers with a
    // verified best-so-far form — the drain contract of `spp serve`.
    let sop_fallback =
        |f: &BoolFn| SppForm::from_sp(&sp_minimum(f, &SppOptions::default().cover_limits).form);

    fn configure_generic<'f, F: ?Sized>(
        mut m: Minimizer<'f, F>,
        req: &MinimizeRequest,
        env: &ExecEnv,
        deadline: Option<Instant>,
        mem_soft: Option<u64>,
        mem_hard: Option<u64>,
    ) -> Minimizer<'f, F> {
        if let Some(t) = req.threads.or(env.threads_default) {
            m = m.threads(t);
        }
        if let Some(at) = deadline {
            m = m.deadline_at(at);
        }
        if mem_soft.is_some() || mem_hard.is_some() {
            m = m.mem_budget(mem_soft, mem_hard);
        }
        if let Some(token) = &env.cancel {
            m = m.cancel_token(token.clone());
        }
        if let Some(sink) = &env.sink {
            m = m.on_event(sink.clone());
        }
        if let Some(cache) = &env.cache {
            m = m.cache(cache.clone());
        }
        m
    }

    // Shared multi-output runs cover all outputs at once; every other
    // request runs one session per output. Portfolio runs race the forms,
    // every other mode yields an SPP form, which is also kept in `forms`.
    let race = FormPortfolio::new().forms(req.forms.clone()).objective(req.objective);
    let mut forms = Vec::new();
    let mut realizations = Vec::with_capacity(outputs.len());
    let mut scoreboards = Vec::new();
    let mut shared = None;
    let mut outcome = Outcome::Completed;
    let mut rung = Rung::Exact;
    let mut optimal = true;
    if req.multi && outputs.len() > 1 {
        if req.mode != MinimizeMode::Exact {
            return Err(fail(
                WireErrorKind::BadRequest,
                format!(
                    "shared multi-output covering requires mode \"exact\" (got {:?})",
                    req.mode.as_str()
                ),
            ));
        }
        let m = MultiMinimizer::new(outputs);
        let r = configure_generic(m, req, env, deadline, mem_soft, mem_hard)
            .run()
            .map_err(frame)?;
        (outcome, optimal, forms) = (r.outcome, r.optimal, r.forms);
        shared = Some((r.shared_literal_count, r.shared_terms.len()));
        if outcome != Outcome::Completed {
            for (form, f) in forms.iter_mut().zip(outputs) {
                if form.check_realizes(f).is_err() {
                    *form = sop_fallback(f);
                    rung = Rung::Sop;
                    optimal = false;
                }
            }
            if rung == Rung::Sop {
                // The shared accounting no longer describes the emitted
                // forms once any output fell back; report the plain
                // (unshared) sums instead.
                shared = Some((
                    forms.iter().map(SppForm::literal_count).sum(),
                    forms.iter().map(SppForm::num_pseudoproducts).sum(),
                ));
            }
        }
        realizations = forms.iter().cloned().map(FormRealization::Spp).collect();
    } else {
        for f in outputs {
            let m =
                configure_generic(Minimizer::new(f), req, env, deadline, mem_soft, mem_hard);
            let spp = match req.mode {
                MinimizeMode::Portfolio => None,
                MinimizeMode::Exact => Some(m.run_exact()),
                MinimizeMode::Governed => Some(m.run_governed()),
                MinimizeMode::Heuristic(k) => Some(m.run_heuristic(k).map_err(frame)?),
                MinimizeMode::Restricted(w) => Some(m.run_restricted(w).map_err(frame)?),
                MinimizeMode::Sop => {
                    let sp = sp_minimum(f, &m.options.cover_limits);
                    Some(SppMinResult::from_sp(&sp.form, Outcome::Completed))
                }
            };
            let (realization, r_outcome, r_rung, r_optimal) = match spp {
                Some(mut r) => {
                    if r.outcome != Outcome::Completed && r.form.check_realizes(f).is_err() {
                        r.form = sop_fallback(f);
                        r.rung = Rung::Sop;
                        r.optimal = false;
                    }
                    forms.push(r.form.clone());
                    (FormRealization::Spp(r.form), r.outcome, r.rung, r.optimal)
                }
                None => {
                    let r = m.run_portfolio(&race);
                    scoreboards.push(r.reports);
                    (r.realization, r.outcome, r.rung, r.optimal)
                }
            };
            outcome = outcome.merge(r_outcome);
            rung = rung.max(r_rung);
            optimal &= r_optimal;
            realizations.push(realization);
        }
    }
    let verified = realizations.iter().zip(outputs).all(|(r, f)| r.realizes(f));
    let reports = realizations
        .iter()
        .enumerate()
        .map(|(j, r)| OutputReport {
            label: labels.get(j).cloned().unwrap_or_else(|| format!("y{j}")),
            literals: r.literal_count(),
            terms: r.num_terms(),
            form: r.to_string(),
        })
        .collect();
    let (winner, form_reports) = if req.mode == MinimizeMode::Portfolio {
        let form_reports = aggregate_form_reports(&scoreboards);
        (aggregate_winner(&form_reports), Some(form_reports))
    } else {
        (None, None)
    };
    Ok(Executed {
        response: MinimizeResponse {
            v: SCHEMA_VERSION,
            id: req.id.clone(),
            outputs: reports,
            outcome,
            rung,
            optimal,
            verified,
            shared_literals: shared.map(|(literals, _)| literals),
            shared_terms: shared.map(|(_, terms)| terms),
            winner,
            forms: form_reports,
            wall: start.elapsed(),
        },
        forms,
        realizations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const XOR2: &str = ".i 2\n.o 1\n01 1\n10 1\n.e\n";

    #[test]
    fn request_round_trips_through_json() {
        let req = MinimizeRequest::new("r-1", XOR2)
            .with_mode(MinimizeMode::Heuristic(1))
            .with_threads(2)
            .with_deadline_ms(750)
            .with_mem_budget_mb(64)
            .with_priority(Priority::High)
            .with_multi(true);
        let round = MinimizeRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(round, req);

        let sparse = MinimizeRequest::new("r-2", XOR2);
        assert_eq!(MinimizeRequest::from_json(&sparse.to_json()).unwrap(), sparse);
    }

    #[test]
    fn request_defaults_fill_in_for_omitted_fields() {
        let req =
            MinimizeRequest::from_json(r#"{"v":1,"id":"x","pla":".i 1\n.o 1\n1 1\n.e\n"}"#)
                .unwrap();
        assert_eq!(req.mode, MinimizeMode::Governed);
        assert_eq!(req.priority, Priority::Normal);
        assert!(!req.multi);
        assert_eq!(req.threads, None);
    }

    #[test]
    fn a_legacy_grouping_field_is_ignored() {
        // Grouping is no longer a wire option: every request runs
        // Algorithm 2's grouped sweep, and any value the field once took
        // (or never could) parses to the request without it.
        let plain = r#"{"v":1,"id":"g","pla":".i 1\n.o 1\n1 1\n.e\n","mode":"exact""#;
        let without = MinimizeRequest::from_json(&format!("{plain}}}")).unwrap();
        for grouping in ["partition_trie", "hash_map", "quadratic", "bogus"] {
            let with = format!(r#"{plain},"grouping":"{grouping}"}}"#);
            assert_eq!(MinimizeRequest::from_json(&with).unwrap(), without, "{grouping}");
        }
        assert!(!without.to_json().contains("grouping"));
    }

    #[test]
    fn bad_requests_produce_typed_frames_with_the_id() {
        let err = MinimizeRequest::from_json("not json").unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadFrame);
        let err = MinimizeRequest::from_json(r#"{"v":9,"id":"q","pla":""}"#).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::UnsupportedVersion);
        assert_eq!(err.id.as_deref(), Some("q"));
        let err = MinimizeRequest::from_json(r#"{"v":1,"id":"q"}"#).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        let err =
            MinimizeRequest::from_json(r#"{"v":1,"id":"q","pla":"","mode":"zen"}"#).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        assert!(err.message.contains("zen"));
        let err =
            MinimizeRequest::from_json(r#"{"v":1,"id":"q","pla":"","threads":-1}"#).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
    }

    #[test]
    fn error_frames_round_trip_and_classify() {
        let frame = ErrorFrame::new(WireErrorKind::Overloaded, "queue full").with_id("r9");
        let round = ErrorFrame::from_json(&frame.to_json()).unwrap();
        assert_eq!(round, frame);
        assert_eq!(frame.to_string(), "overloaded: queue full");
        // A response is not an error frame.
        assert!(ErrorFrame::from_json(r#"{"v":1,"id":"a","outputs":[]}"#).is_none());
        for kind in [
            WireErrorKind::BadFrame,
            WireErrorKind::BadRequest,
            WireErrorKind::UnsupportedVersion,
            WireErrorKind::Parse,
            WireErrorKind::Overloaded,
            WireErrorKind::ShuttingDown,
            WireErrorKind::Timeout,
            WireErrorKind::Internal,
        ] {
            assert_eq!(WireErrorKind::parse(kind.as_str()), Some(kind));
        }
    }

    #[test]
    fn execute_matches_the_session_path_bit_for_bit() {
        let req = MinimizeRequest::new("r-exec", XOR2).with_mode(MinimizeMode::Exact);
        let executed = execute(&req, &ExecEnv::default()).unwrap();
        let f = BoolFn::from_truth_fn(2, |x| x.count_ones() % 2 == 1);
        let direct = Minimizer::new(&f).run_exact();
        assert_eq!(executed.forms.len(), 1);
        assert_eq!(executed.forms[0], direct.form);
        let resp = &executed.response;
        assert_eq!(resp.id, "r-exec");
        assert_eq!(resp.outputs[0].form, "(x0⊕x1)");
        assert_eq!(resp.outputs[0].literals, 2);
        assert_eq!(resp.outcome, Outcome::Completed);
        assert_eq!(resp.rung, Rung::Exact);
        assert!(resp.optimal && resp.verified && !resp.is_degraded());
        // And the response survives the wire.
        let round = MinimizeResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(&round, resp);
    }

    #[test]
    fn portfolio_requests_round_trip_and_reject_unknowns() {
        let req = MinimizeRequest::new("p-1", XOR2)
            .with_mode(MinimizeMode::Portfolio)
            .with_forms(vec![Form::Esop, Form::Sop])
            .with_objective(Objective::Gates);
        let round = MinimizeRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(round, req);
        // Empty form list (= all) round-trips too.
        let req = MinimizeRequest::new("p-2", XOR2).with_mode(MinimizeMode::Portfolio);
        assert_eq!(MinimizeRequest::from_json(&req.to_json()).unwrap(), req);

        let err = MinimizeRequest::from_json(
            r#"{"v":1,"id":"q","pla":"","mode":"portfolio","forms":["esop","zen"]}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        assert!(err.message.contains("zen"));
        let err = MinimizeRequest::from_json(
            r#"{"v":1,"id":"q","pla":"","mode":"portfolio","objective":"area"}"#,
        )
        .unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        assert!(err.message.contains("area"));
    }

    #[test]
    fn portfolio_execution_reports_all_forms_and_a_winner() {
        let req = MinimizeRequest::new("pf", XOR2).with_mode(MinimizeMode::Portfolio);
        let executed = execute(&req, &ExecEnv::default()).unwrap();
        let resp = &executed.response;
        assert!(resp.verified);
        assert_eq!(resp.outcome, Outcome::Completed);
        // XOR2 as SPP and ESOP costs 2 literals; the tie breaks to SPP.
        assert_eq!(resp.winner, Some(Form::Spp));
        assert_eq!(resp.outputs[0].literals, 2);
        let reports = resp.forms.as_ref().expect("portfolio responses carry forms");
        assert_eq!(reports.len(), 4);
        let winner_cost = resp.outputs[0].literals;
        assert!(reports
            .iter()
            .all(|r| r.cost.is_none_or(|c| winner_cost <= c)));
        // Portfolio answers carry realizations, not SPP forms.
        assert!(executed.forms.is_empty());
        assert_eq!(executed.realizations.len(), 1);
        // And the whole scoreboard survives the wire.
        let round = MinimizeResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(round.winner, resp.winner);
        assert_eq!(
            round.forms.as_ref().map(|f| f.len()),
            resp.forms.as_ref().map(|f| f.len())
        );
        for (a, b) in round.forms.unwrap().iter().zip(reports) {
            assert_eq!((a.form, a.outcome, a.cost, a.accepted, a.skipped),
                       (b.form, b.outcome, b.cost, b.accepted, b.skipped));
        }
    }

    #[test]
    fn skipped_reports_round_trip_and_an_absent_flag_means_ran() {
        let req = MinimizeRequest::new("pf", XOR2).with_mode(MinimizeMode::Portfolio);
        let resp = execute(&req, &ExecEnv::default()).unwrap().response;
        let skipped = |resp: &MinimizeResponse| -> Vec<Form> {
            let reports = resp.forms.as_deref().unwrap();
            reports.iter().filter(|r| r.skipped).map(|r| r.form).collect()
        };
        // XOR2's SPP minimum is proved, so DSOP and SOP were skipped.
        assert_eq!(skipped(&resp), [Form::Dsop, Form::Sop]);
        let json = resp.to_json();
        assert_eq!(json.matches("\"skipped\":true").count(), 2, "{json}");
        assert!(!json.contains("\"skipped\":false"), "{json}");
        let fields = |resp: &MinimizeResponse| -> Vec<_> {
            let reports = resp.forms.as_deref().unwrap();
            reports.iter().map(|r| (r.form, r.outcome, r.cost, r.accepted, r.skipped)).collect()
        };
        let round = MinimizeResponse::from_json(&json).unwrap();
        assert_eq!(fields(&round), fields(&resp));
        // A reply without the field (as older daemons send) reads as ran.
        let old = MinimizeResponse::from_json(&json.replace(",\"skipped\":true", "")).unwrap();
        assert!(skipped(&old).is_empty());
        assert_eq!(old.forms.unwrap().len(), 4);
        // A non-boolean flag is a malformed entry.
        let bad = json.replacen("\"skipped\":true", "\"skipped\":1", 1);
        assert_eq!(MinimizeResponse::from_json(&bad).unwrap_err().kind, WireErrorKind::BadFrame);
    }

    #[test]
    fn forms_skipped_on_any_output_are_skipped_in_the_aggregate() {
        use Form::{Dsop, Esop, Sop, Spp};
        let report = |form, cost: Option<u64>, skipped: bool| PortfolioReport {
            form,
            outcome: Outcome::Completed,
            cost,
            wall: Duration::from_millis(1),
            accepted: !skipped,
            skipped,
        };
        // Output 0 proved its SPP minimum; output 1 raced all four forms,
        // and there DSOP and SOP beat the rest by far.
        let per_output = [
            vec![
                report(Spp, Some(10), false),
                report(Esop, Some(12), false),
                report(Dsop, None, true),
                report(Sop, None, true),
            ],
            vec![
                report(Spp, Some(30), false),
                report(Esop, Some(20), false),
                report(Dsop, Some(5), false),
                report(Sop, Some(4), false),
            ],
        ];
        let aggregate = aggregate_form_reports(&per_output);
        let board: Vec<_> =
            aggregate.iter().map(|r| (r.form, r.cost, r.accepted, r.skipped)).collect();
        assert_eq!(
            board,
            [
                (Spp, Some(40), true, false),
                (Esop, Some(32), true, false),
                (Dsop, None, false, true),
                (Sop, None, false, true),
            ]
        );
        assert_eq!(aggregate_winner(&aggregate), Some(Esop));
        assert_eq!(aggregate[2].wall, Duration::from_millis(2));
        // Nothing skipped anywhere: the cheapest sum wins.
        let ran = [per_output[1].clone(), per_output[1].clone()];
        assert_eq!(aggregate_winner(&aggregate_form_reports(&ran)), Some(Sop));
    }

    #[test]
    fn portfolio_multi_output_aggregates_a_winner() {
        // Two outputs, raced independently; the scoreboard sums costs.
        let pla = ".i 3\n.o 2\n010 11\n100 11\n111 01\n001 10\n.e\n";
        let req = MinimizeRequest::new("pfm", pla)
            .with_mode(MinimizeMode::Portfolio)
            .with_forms(vec![Form::Esop, Form::Sop]);
        let executed = execute(&req, &ExecEnv::default()).unwrap();
        let resp = &executed.response;
        assert!(resp.verified);
        assert_eq!(resp.outputs.len(), 2);
        assert_eq!(executed.realizations.len(), 2);
        let reports = resp.forms.as_ref().unwrap();
        let ran: Vec<Form> = reports.iter().map(|r| r.form).collect();
        assert_eq!(ran, vec![Form::Esop, Form::Sop]);
        let winner = resp.winner.expect("all entrants complete");
        let winner_cost =
            reports.iter().find(|r| r.form == winner).unwrap().cost.unwrap();
        assert!(reports
            .iter()
            .filter(|r| r.accepted)
            .all(|r| winner_cost <= r.cost.unwrap()));
        // multi + portfolio stays a typed error.
        let err = execute(&req.clone().with_multi(true), &ExecEnv::default()).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
    }

    #[test]
    fn execute_covers_every_mode() {
        for mode in [
            MinimizeMode::Exact,
            MinimizeMode::Governed,
            MinimizeMode::Heuristic(0),
            MinimizeMode::Restricted(2),
            MinimizeMode::Sop,
            MinimizeMode::Portfolio,
        ] {
            let req = MinimizeRequest::new("m", XOR2).with_mode(mode);
            let executed = execute(&req, &ExecEnv::default()).unwrap();
            assert!(executed.response.verified, "{mode:?}");
            assert_eq!(executed.response.outcome, Outcome::Completed, "{mode:?}");
        }
        // SOP cannot use the EXOR: 4 literals instead of 2.
        let req = MinimizeRequest::new("m", XOR2).with_mode(MinimizeMode::Sop);
        assert_eq!(execute(&req, &ExecEnv::default()).unwrap().response.total_literals(), 4);
    }

    #[test]
    fn execute_reports_parse_and_parameter_errors() {
        let err =
            execute(&MinimizeRequest::new("p", "garbage"), &ExecEnv::default()).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::Parse);
        assert_eq!(err.id.as_deref(), Some("p"));
        let req = MinimizeRequest::new("h", XOR2).with_mode(MinimizeMode::Heuristic(7));
        let err = execute(&req, &ExecEnv::default()).unwrap_err();
        assert_eq!(err.kind, WireErrorKind::BadRequest);
        let req = MinimizeRequest::new("w", XOR2).with_mode(MinimizeMode::Restricted(0));
        assert_eq!(
            execute(&req, &ExecEnv::default()).unwrap_err().kind,
            WireErrorKind::BadRequest
        );
    }

    #[test]
    fn multi_output_requests_share_terms() {
        let pla = ".i 3\n.o 2\n.ob f g\n010 11\n100 11\n111 10\n.e\n";
        let req = MinimizeRequest::new("mo", pla).with_mode(MinimizeMode::Exact).with_multi(true);
        let executed = execute(&req, &ExecEnv::default()).unwrap();
        let resp = &executed.response;
        assert_eq!(resp.outputs.len(), 2);
        assert_eq!(resp.outputs[0].label, "f");
        assert_eq!(resp.outputs[1].label, "g");
        assert!(resp.verified);
        let shared = resp.shared_literals.expect("multi run reports shared literals");
        assert!(shared <= resp.total_literals());
        // multi + non-exact is a typed error, not a panic.
        let req = req.with_mode(MinimizeMode::Governed);
        assert_eq!(
            execute(&req, &ExecEnv::default()).unwrap_err().kind,
            WireErrorKind::BadRequest
        );
    }

    #[test]
    fn cancelled_env_yields_a_verified_best_so_far_response() {
        let token = CancelToken::new();
        token.cancel();
        let env = ExecEnv { cancel: Some(token), ..ExecEnv::default() };
        let req = MinimizeRequest::new("c", XOR2).with_mode(MinimizeMode::Exact);
        let executed = execute(&req, &env).unwrap();
        assert_eq!(executed.response.outcome, Outcome::Cancelled);
        assert!(executed.response.verified);
        assert!(!executed.response.optimal);
    }

    #[test]
    fn env_caps_compose_with_request_budgets() {
        let req = MinimizeRequest::new("caps", XOR2).with_deadline_ms(60_000).with_mem_budget_mb(1);
        let env = ExecEnv {
            deadline_at: Some(Instant::now() + Duration::from_secs(1)),
            mem_hard: Some(16 << 20),
            ..ExecEnv::default()
        };
        let at = env.effective_deadline(&req).unwrap();
        assert!(at <= Instant::now() + Duration::from_secs(2));
        let (soft, hard) = env.effective_mem(&req);
        assert_eq!(soft, None);
        assert_eq!(hard, Some(1 << 20));
    }
}
