//! spp-obs: run control and observability for long-running minimization.
//!
//! The exact SPP algorithm (EPPP generation + minimum cover) is worst-case
//! exponential, so every phase of the pipeline accepts a [`RunCtx`]: a
//! deadline, a cooperative [`CancelToken`] and a pluggable [`EventSink`].
//! Phases poll the context at cheap checkpoints and, on deadline or
//! cancellation, unwind to a *valid best-so-far* result instead of hanging
//! or panicking; the cause is recorded as an [`Outcome`].
//!
//! The crate is dependency-free and sits below every other workspace
//! crate. Three sinks are provided: [`NullSink`] (the zero-overhead
//! default), [`StderrSink`] (human one-liners) and [`JsonLinesSink`]
//! (machine-readable JSON lines).
//!
//! # Examples
//!
//! ```
//! use spp_obs::{CancelToken, Outcome, RunCtx};
//!
//! let token = CancelToken::new();
//! let ctx = RunCtx::new().with_cancel(token.clone());
//! assert_eq!(ctx.stop_reason(), None);
//! token.cancel();
//! assert_eq!(ctx.stop_reason(), Some(Outcome::Cancelled));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod json;

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How a run (or one phase of it) ended.
///
/// The variants are ordered by severity: [`Outcome::merge`] keeps the
/// worst of two, so a pipeline can fold per-phase outcomes into one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// The phase ran to completion (resource-budget truncation — node or
    /// pseudocube caps — still counts as completed; see the per-phase
    /// `truncated`/`optimal` flags for that).
    #[default]
    Completed,
    /// The deadline expired; the result is the best found so far.
    DeadlineExceeded,
    /// A hard memory budget was exhausted; the result is the best found so
    /// far (possibly produced by a lower degradation-ladder rung).
    MemoryExceeded,
    /// The run was cancelled; the result is the best found so far.
    Cancelled,
}

impl Outcome {
    /// A stable lower-snake identifier (used by the JSON sink and the
    /// benchmark baseline). Round-trips through [`Outcome::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::DeadlineExceeded => "deadline_exceeded",
            Outcome::MemoryExceeded => "memory_exceeded",
            Outcome::Cancelled => "cancelled",
        }
    }

    /// Parses the identifier produced by [`Outcome::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Outcome> {
        match s {
            "completed" => Some(Outcome::Completed),
            "deadline_exceeded" => Some(Outcome::DeadlineExceeded),
            "memory_exceeded" => Some(Outcome::MemoryExceeded),
            "cancelled" => Some(Outcome::Cancelled),
            _ => None,
        }
    }

    /// The worse of two outcomes (`Cancelled > MemoryExceeded >
    /// DeadlineExceeded > Completed`): folding per-phase outcomes yields
    /// the run's outcome.
    #[must_use]
    pub fn merge(self, other: Outcome) -> Outcome {
        self.max(other)
    }

    /// Whether this outcome is [`Outcome::Completed`].
    #[must_use]
    pub fn is_completed(self) -> bool {
        self == Outcome::Completed
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rung of the degradation ladder: which algorithm family produced a
/// governed run's answer.
///
/// The ladder descends `Exact → RestrictedExact → Heuristic → Sop` under
/// resource pressure; the variants are ordered so that "lower rung"
/// compares greater.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rung {
    /// Full exact SPP minimization (all EPPPs, exact cover).
    #[default]
    Exact,
    /// Restricted exact synthesis (EXOR factors capped at two literals).
    RestrictedExact,
    /// The SPP_k descent/ascent heuristic.
    Heuristic,
    /// Two-level SP (sum of products) fallback.
    Sop,
}

impl Rung {
    /// A stable lower-snake identifier. Round-trips through
    /// [`Rung::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Exact => "exact",
            Rung::RestrictedExact => "restricted_exact",
            Rung::Heuristic => "heuristic",
            Rung::Sop => "sop",
        }
    }

    /// Parses the identifier produced by [`Rung::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Rung> {
        match s {
            "exact" => Some(Rung::Exact),
            "restricted_exact" => Some(Rung::RestrictedExact),
            "heuristic" => Some(Rung::Heuristic),
            "sop" => Some(Rung::Sop),
            _ => None,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An algebraic form family a function can be minimized into.
///
/// The portfolio driver races forms the way the degradation ladder walks
/// rungs: [`Form::ALL`] fixes the race order, and ties on cost are broken
/// toward the earlier form, so a completed race is deterministic at any
/// thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Form {
    /// Sum of Pseudoproducts: an OR of ANDs of EXOR factors (the paper's
    /// three-level form).
    #[default]
    Spp,
    /// Exclusive-or Sum of Products: an XOR of product terms.
    Esop,
    /// Disjoint Sum of Products: an OR of pairwise-disjoint product terms.
    Dsop,
    /// Plain two-level Sum of Products.
    Sop,
}

impl Form {
    /// Every form, in the deterministic portfolio race order.
    pub const ALL: [Form; 4] = [Form::Spp, Form::Esop, Form::Dsop, Form::Sop];

    /// A stable lower-snake identifier. Round-trips through
    /// [`Form::parse`].
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Form::Spp => "spp",
            Form::Esop => "esop",
            Form::Dsop => "dsop",
            Form::Sop => "sop",
        }
    }

    /// Parses the identifier produced by [`Form::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Form> {
        match s {
            "spp" => Some(Form::Spp),
            "esop" => Some(Form::Esop),
            "dsop" => Some(Form::Dsop),
            "sop" => Some(Form::Sop),
            _ => None,
        }
    }
}

impl fmt::Display for Form {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A named phase of the minimization pipeline, for progress events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Candidate generation (EPPP construction / heuristic descent+ascent).
    Generate,
    /// The minimum-literal set-covering step.
    Cover,
}

impl Phase {
    /// A stable lower-snake identifier for the JSON sink.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Cover => "cover",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured progress event emitted at pipeline checkpoints.
///
/// Events are coarse — level and phase granularity, never per-union — so
/// emitting them costs nothing measurable next to the work they report.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Event {
    /// A pipeline phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A pipeline phase ended.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock time the phase took.
        wall: Duration,
        /// How the phase ended.
        outcome: Outcome,
    },
    /// A generation level (one pseudocube degree) began its union sweep.
    GenLevelStarted {
        /// The degree `k` being swept.
        degree: usize,
        /// `|X^k|`: pseudocubes at this degree.
        size: usize,
    },
    /// A generation level finished its union sweep.
    GenLevelFinished {
        /// The degree `k` swept.
        degree: usize,
        /// `|X^k|`: pseudocubes at this degree.
        size: usize,
        /// Structure groups found.
        groups: usize,
        /// Distinct unions produced (the next level's size).
        unions: usize,
        /// Pseudocubes of this degree retained as candidates.
        retained: usize,
        /// Memory-ish counter: total pseudocubes generated so far.
        live: usize,
        /// Wall-clock time of the level.
        wall: Duration,
    },
    /// The covering step started on a rows × columns instance.
    CoverStarted {
        /// ON-set minterms (rows).
        rows: usize,
        /// Candidate pseudoproducts (columns).
        columns: usize,
    },
    /// Branch & bound improved its incumbent cover.
    CoverImproved {
        /// Cost (literals) of the new incumbent.
        cost: u64,
        /// Nodes explored when it was found.
        nodes: u64,
    },
    /// A parallel branch & bound worker began one root subtree (one root
    /// branching decision explored as an independent search).
    CoverSubtreeStarted {
        /// Subtree rank in the root branching order (determinism key).
        index: usize,
        /// The column selected at the root of this subtree.
        column: usize,
    },
    /// A parallel branch & bound worker finished one root subtree.
    CoverSubtreeFinished {
        /// Subtree rank in the root branching order.
        index: usize,
        /// Nodes this subtree explored.
        nodes: u64,
        /// Whether this subtree improved the shared incumbent.
        improved: bool,
    },
    /// The covering step finished.
    CoverFinished {
        /// Cost (literals) of the returned cover.
        cost: u64,
        /// Branch & bound nodes explored (0 when only greedy ran).
        nodes: u64,
        /// Whether the cover was proved optimal.
        optimal: bool,
    },
    /// A degradation-ladder rung began.
    RungStarted {
        /// Which rung.
        rung: Rung,
    },
    /// A degradation-ladder rung finished.
    RungFinished {
        /// Which rung.
        rung: Rung,
        /// How the rung's phases ended.
        outcome: Outcome,
        /// Whether the rung's (verified) result was accepted as the
        /// answer; `false` means the ladder descended to the next rung.
        accepted: bool,
    },
    /// A portfolio race started minimizing one form.
    FormStarted {
        /// Which form.
        form: Form,
    },
    /// A portfolio race finished minimizing one form.
    FormFinished {
        /// Which form.
        form: Form,
        /// How the form's run ended.
        outcome: Outcome,
        /// The form's cost under the race objective, when a verified
        /// realization was produced.
        cost: Option<u64>,
        /// Whether the form's result verified and entered the race;
        /// `false` means it is excluded from winner selection.
        accepted: bool,
    },
    /// A portfolio race skipped one form without running it: an earlier
    /// entrant's accepted result is a proved minimum that the form can
    /// at best tie (a proved SPP minimum under the literal cost costs no
    /// more than any DSOP or SOP form). Takes the place of the form's
    /// started/finished pair.
    FormSkipped {
        /// Which form.
        form: Form,
    },
    /// A worker panic was caught and isolated; the run continues on the
    /// surviving workers.
    WorkerPanicked {
        /// The site that panicked (e.g. `cover.subtree`).
        site: String,
        /// Best-effort panic payload text.
        message: String,
    },
    /// A result-cache lookup returned a stored entry; the corresponding
    /// computation was skipped entirely.
    CacheHit {
        /// Entry kind: `result`, `eppp` or `multi`.
        kind: &'static str,
        /// Whether the entry came from the on-disk store (`false` = it was
        /// already resident in memory).
        disk: bool,
    },
    /// A result-cache lookup found nothing usable; the computation runs.
    CacheMiss {
        /// Entry kind: `result`, `eppp` or `multi`.
        kind: &'static str,
    },
    /// The cache evicted least-recently-used entries to stay within its
    /// byte budget.
    CacheEvicted {
        /// Entries evicted by this insertion.
        entries: usize,
        /// Bytes released back to the cache's governor.
        bytes: u64,
    },
    /// The covering engine was warm-started from a cached cover instead of
    /// searching from the greedy seed alone.
    CacheWarmStart {
        /// Columns in the seed cover.
        columns: usize,
    },
    /// An on-disk cache entry was rejected (corrupt, truncated or
    /// schema-mismatched) and skipped; the lookup proceeds as a miss.
    CacheCorruptEntry {
        /// The offending file.
        path: String,
        /// Why it was rejected (`magic`, `truncated`, `checksum`,
        /// `schema`, `version`, `key`, `decode`).
        reason: String,
    },
    /// The serve daemon admitted a request into its queue.
    ServeRequestQueued {
        /// The client-assigned request id.
        id: String,
        /// The request's priority lane (`high`, `normal`, `low`).
        priority: &'static str,
        /// Requests queued (including this one) after admission.
        depth: usize,
    },
    /// A serve worker dequeued a request and began minimizing.
    ServeRequestStarted {
        /// The client-assigned request id.
        id: String,
        /// Time the request spent queued.
        waited: Duration,
    },
    /// A serve worker finished a request and wrote its response.
    ServeRequestFinished {
        /// The client-assigned request id.
        id: String,
        /// How the minimization ended.
        outcome: Outcome,
        /// The degradation-ladder rung that produced the answer.
        rung: Rung,
        /// Wall-clock service time (excluding queue wait).
        wall: Duration,
    },
    /// The serve daemon rejected a request without running it.
    ServeRequestRejected {
        /// The client-assigned request id (empty when the frame never
        /// parsed far enough to have one).
        id: String,
        /// The typed error-frame kind sent back (e.g. `overloaded`).
        reason: String,
    },
    /// The serve daemon began draining: no new admissions; queued and
    /// in-flight requests still complete (in-flight ones through the
    /// cancel-token path, unwinding to verified best-so-far answers).
    ServeDraining {
        /// Requests currently being minimized by workers.
        in_flight: usize,
        /// Requests still waiting in the queue.
        queued: usize,
    },
    /// A startup recovery scan moved a corrupt on-disk cache entry (or an
    /// orphaned temp file from a crashed writer) aside instead of letting
    /// it trip every later lookup. Self-healing: the store keeps serving.
    CacheQuarantined {
        /// The offending file.
        path: String,
        /// Why it was quarantined: one of the load-failure tokens
        /// (`magic`, `truncated`, `checksum`, `schema`, `version`, `key`,
        /// `decode`), `name` for an unparsable entry filename, or
        /// `orphan` for a stale temp file.
        reason: String,
    },
    /// The supervisor observed a worker still running a request past its
    /// deadline plus the stall grace and requested cooperative
    /// cancellation (the unwind-to-verified-best-so-far path).
    ServeWorkerStalled {
        /// The worker's pool index.
        worker: usize,
        /// The stuck request's client-assigned id.
        id: String,
        /// How far past the request's deadline the worker was.
        overrun: Duration,
    },
    /// The supervisor replaced a worker whose thread died (a panic that
    /// escaped the per-request isolation).
    ServeWorkerRestarted {
        /// The worker's pool index.
        worker: usize,
    },
    /// The supervisor re-queued a request whose worker stayed wedged
    /// after cooperative cancellation. At most one response is ever sent:
    /// the original and the requeued execution race for a shared
    /// first-responder guard.
    ServeRequestRequeued {
        /// The request's client-assigned id.
        id: String,
        /// The pool index of the wedged worker it was taken from.
        worker: usize,
    },
    /// A minimization reused a sibling function's cached generation
    /// levels via a delta splice instead of generating from scratch.
    DeltaReuse {
        /// ON-set Hamming distance between the request and the sibling.
        distance: usize,
        /// Cached pseudocubes dropped because they touched removed minterms.
        dropped: usize,
        /// New pseudocubes generated by the incremental sweep.
        spliced: usize,
    },
    /// A delta reuse attempt was abandoned; the run fell back to cold
    /// generation. The result is still correct — only the shortcut died.
    DeltaRejected {
        /// Why the splice was rejected (e.g. `verify`, `budget`).
        reason: String,
    },
}

use crate::json::escape as json_escape;

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// Payloads are numbers, booleans or fixed identifiers, except the
    /// free-form strings of [`Event::WorkerPanicked`], which are escaped.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Event::PhaseStarted { phase } => {
                format!("{{\"event\":\"phase_started\",\"phase\":\"{phase}\"}}")
            }
            Event::PhaseFinished { phase, wall, outcome } => format!(
                "{{\"event\":\"phase_finished\",\"phase\":\"{phase}\",\
                 \"wall_ms\":{:.3},\"outcome\":\"{outcome}\"}}",
                wall.as_secs_f64() * 1e3
            ),
            Event::GenLevelStarted { degree, size } => format!(
                "{{\"event\":\"gen_level_started\",\"degree\":{degree},\"size\":{size}}}"
            ),
            Event::GenLevelFinished { degree, size, groups, unions, retained, live, wall } => {
                format!(
                    "{{\"event\":\"gen_level_finished\",\"degree\":{degree},\"size\":{size},\
                     \"groups\":{groups},\"unions\":{unions},\"retained\":{retained},\
                     \"live\":{live},\"wall_ms\":{:.3}}}",
                    wall.as_secs_f64() * 1e3
                )
            }
            Event::CoverStarted { rows, columns } => format!(
                "{{\"event\":\"cover_started\",\"rows\":{rows},\"columns\":{columns}}}"
            ),
            Event::CoverImproved { cost, nodes } => format!(
                "{{\"event\":\"cover_improved\",\"cost\":{cost},\"nodes\":{nodes}}}"
            ),
            Event::CoverSubtreeStarted { index, column } => format!(
                "{{\"event\":\"cover_subtree_started\",\"index\":{index},\"column\":{column}}}"
            ),
            Event::CoverSubtreeFinished { index, nodes, improved } => format!(
                "{{\"event\":\"cover_subtree_finished\",\"index\":{index},\"nodes\":{nodes},\
                 \"improved\":{improved}}}"
            ),
            Event::CoverFinished { cost, nodes, optimal } => format!(
                "{{\"event\":\"cover_finished\",\"cost\":{cost},\"nodes\":{nodes},\
                 \"optimal\":{optimal}}}"
            ),
            Event::RungStarted { rung } => {
                format!("{{\"event\":\"rung_started\",\"rung\":\"{rung}\"}}")
            }
            Event::RungFinished { rung, outcome, accepted } => format!(
                "{{\"event\":\"rung_finished\",\"rung\":\"{rung}\",\
                 \"outcome\":\"{outcome}\",\"accepted\":{accepted}}}"
            ),
            Event::FormStarted { form } => {
                format!("{{\"event\":\"form_started\",\"form\":\"{form}\"}}")
            }
            Event::FormFinished { form, outcome, cost, accepted } => format!(
                "{{\"event\":\"form_finished\",\"form\":\"{form}\",\
                 \"outcome\":\"{outcome}\",\"cost\":{},\"accepted\":{accepted}}}",
                cost.map_or_else(|| "null".to_owned(), |c| c.to_string())
            ),
            Event::FormSkipped { form } => {
                format!("{{\"event\":\"form_skipped\",\"form\":\"{form}\"}}")
            }
            Event::WorkerPanicked { site, message } => format!(
                "{{\"event\":\"worker_panicked\",\"site\":\"{}\",\"message\":\"{}\"}}",
                json_escape(site),
                json_escape(message)
            ),
            Event::CacheHit { kind, disk } => {
                format!("{{\"event\":\"cache_hit\",\"kind\":\"{kind}\",\"disk\":{disk}}}")
            }
            Event::CacheMiss { kind } => {
                format!("{{\"event\":\"cache_miss\",\"kind\":\"{kind}\"}}")
            }
            Event::CacheEvicted { entries, bytes } => format!(
                "{{\"event\":\"cache_evicted\",\"entries\":{entries},\"bytes\":{bytes}}}"
            ),
            Event::CacheWarmStart { columns } => {
                format!("{{\"event\":\"cache_warm_start\",\"columns\":{columns}}}")
            }
            Event::CacheCorruptEntry { path, reason } => format!(
                "{{\"event\":\"cache_corrupt_entry\",\"path\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(path),
                json_escape(reason)
            ),
            Event::ServeRequestQueued { id, priority, depth } => format!(
                "{{\"event\":\"serve_request_queued\",\"id\":\"{}\",\
                 \"priority\":\"{priority}\",\"depth\":{depth}}}",
                json_escape(id)
            ),
            Event::ServeRequestStarted { id, waited } => format!(
                "{{\"event\":\"serve_request_started\",\"id\":\"{}\",\
                 \"waited_ms\":{:.3}}}",
                json_escape(id),
                waited.as_secs_f64() * 1e3
            ),
            Event::ServeRequestFinished { id, outcome, rung, wall } => format!(
                "{{\"event\":\"serve_request_finished\",\"id\":\"{}\",\
                 \"outcome\":\"{outcome}\",\"rung\":\"{rung}\",\"wall_ms\":{:.3}}}",
                json_escape(id),
                wall.as_secs_f64() * 1e3
            ),
            Event::ServeRequestRejected { id, reason } => format!(
                "{{\"event\":\"serve_request_rejected\",\"id\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(id),
                json_escape(reason)
            ),
            Event::ServeDraining { in_flight, queued } => format!(
                "{{\"event\":\"serve_draining\",\"in_flight\":{in_flight},\
                 \"queued\":{queued}}}"
            ),
            Event::CacheQuarantined { path, reason } => format!(
                "{{\"event\":\"cache_quarantined\",\"path\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(path),
                json_escape(reason)
            ),
            Event::ServeWorkerStalled { worker, id, overrun } => format!(
                "{{\"event\":\"serve_worker_stalled\",\"worker\":{worker},\
                 \"id\":\"{}\",\"overrun_ms\":{:.3}}}",
                json_escape(id),
                overrun.as_secs_f64() * 1e3
            ),
            Event::ServeWorkerRestarted { worker } => format!(
                "{{\"event\":\"serve_worker_restarted\",\"worker\":{worker}}}"
            ),
            Event::ServeRequestRequeued { id, worker } => format!(
                "{{\"event\":\"serve_request_requeued\",\"id\":\"{}\",\"worker\":{worker}}}",
                json_escape(id)
            ),
            Event::DeltaReuse { distance, dropped, spliced } => format!(
                "{{\"event\":\"delta_reuse\",\"distance\":{distance},\
                 \"dropped\":{dropped},\"spliced\":{spliced}}}"
            ),
            Event::DeltaRejected { reason } => format!(
                "{{\"event\":\"delta_rejected\",\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
        }
    }
}

impl fmt::Display for Event {
    /// The human-readable one-liner the [`StderrSink`] prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::PhaseStarted { phase } => write!(f, "{phase}: started"),
            Event::PhaseFinished { phase, wall, outcome } => {
                write!(f, "{phase}: finished in {:.1} ms ({outcome})", wall.as_secs_f64() * 1e3)
            }
            Event::GenLevelStarted { degree, size } => {
                write!(f, "generate: level {degree} started ({size} pseudocubes)")
            }
            Event::GenLevelFinished { degree, size, groups, unions, retained, live, wall } => {
                write!(
                    f,
                    "generate: level {degree} done — {size} pseudocubes in {groups} groups, \
                     {unions} unions, {retained} retained, {live} generated total, {:.1} ms",
                    wall.as_secs_f64() * 1e3
                )
            }
            Event::CoverStarted { rows, columns } => {
                write!(f, "cover: {rows} minterms x {columns} candidates")
            }
            Event::CoverImproved { cost, nodes } => {
                write!(f, "cover: incumbent improved to {cost} literals at {nodes} nodes")
            }
            Event::CoverSubtreeStarted { index, column } => {
                write!(f, "cover: subtree {index} started (root column {column})")
            }
            Event::CoverSubtreeFinished { index, nodes, improved } => write!(
                f,
                "cover: subtree {index} done after {nodes} nodes{}",
                if *improved { " (improved the incumbent)" } else { "" }
            ),
            Event::CoverFinished { cost, nodes, optimal } => write!(
                f,
                "cover: done — {cost} literals after {nodes} nodes{}",
                if *optimal { " (optimal)" } else { " (upper bound)" }
            ),
            Event::RungStarted { rung } => write!(f, "ladder: rung {rung} started"),
            Event::RungFinished { rung, outcome, accepted } => write!(
                f,
                "ladder: rung {rung} finished ({outcome}, {})",
                if *accepted { "accepted" } else { "descending" }
            ),
            Event::FormStarted { form } => write!(f, "portfolio: form {form} started"),
            Event::FormFinished { form, outcome, cost, accepted } => write!(
                f,
                "portfolio: form {form} finished ({outcome}, {}{})",
                match cost {
                    Some(c) => format!("cost {c}, "),
                    None => String::new(),
                },
                if *accepted { "in the race" } else { "excluded" }
            ),
            Event::FormSkipped { form } => {
                write!(f, "portfolio: form {form} skipped (cannot beat a proved minimum)")
            }
            Event::WorkerPanicked { site, message } => {
                write!(f, "fault: caught worker panic at {site}: {message}")
            }
            Event::CacheHit { kind, disk } => {
                write!(f, "cache: {kind} hit{}", if *disk { " (disk)" } else { "" })
            }
            Event::CacheMiss { kind } => write!(f, "cache: {kind} miss"),
            Event::CacheEvicted { entries, bytes } => {
                write!(f, "cache: evicted {entries} entries ({bytes} bytes)")
            }
            Event::CacheWarmStart { columns } => {
                write!(f, "cache: covering warm-started from {columns} cached columns")
            }
            Event::CacheCorruptEntry { path, reason } => {
                write!(f, "cache: rejected {path} ({reason})")
            }
            Event::ServeRequestQueued { id, priority, depth } => {
                write!(f, "serve: request {id} queued ({priority}, depth {depth})")
            }
            Event::ServeRequestStarted { id, waited } => write!(
                f,
                "serve: request {id} started after {:.1} ms in queue",
                waited.as_secs_f64() * 1e3
            ),
            Event::ServeRequestFinished { id, outcome, rung, wall } => write!(
                f,
                "serve: request {id} finished in {:.1} ms ({outcome}, rung {rung})",
                wall.as_secs_f64() * 1e3
            ),
            Event::ServeRequestRejected { id, reason } => {
                write!(f, "serve: request {id} rejected ({reason})")
            }
            Event::ServeDraining { in_flight, queued } => write!(
                f,
                "serve: draining — {in_flight} in flight, {queued} queued"
            ),
            Event::CacheQuarantined { path, reason } => {
                write!(f, "cache: quarantined {path} ({reason})")
            }
            Event::ServeWorkerStalled { worker, id, overrun } => write!(
                f,
                "serve: worker {worker} stalled on request {id} \
                 ({:.1} ms past its deadline); cancelling",
                overrun.as_secs_f64() * 1e3
            ),
            Event::ServeWorkerRestarted { worker } => {
                write!(f, "serve: worker {worker} died; restarted")
            }
            Event::ServeRequestRequeued { id, worker } => {
                write!(f, "serve: request {id} requeued from wedged worker {worker}")
            }
            Event::DeltaReuse { distance, dropped, spliced } => write!(
                f,
                "delta: reused cached generation at distance {distance} \
                 ({dropped} dropped, {spliced} spliced)"
            ),
            Event::DeltaRejected { reason } => {
                write!(f, "delta: reuse rejected ({reason})")
            }
        }
    }
}

/// A destination for progress [`Event`]s. Implementations must be cheap
/// and non-blocking-ish: sinks are called from the main minimization
/// thread at phase/level checkpoints.
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    fn emit(&self, event: &Event);
}

/// The default sink: drops every event. Dispatch through it is a single
/// virtual call on an event that was already built, so the run-control
/// overhead of an unobserved run stays unmeasurable.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Human-oriented sink: one `spp: <event>` line per event on stderr.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        eprintln!("spp: {event}");
    }
}

/// Machine-oriented sink: one JSON object per line, written (and flushed)
/// to the wrapped writer.
///
/// # Examples
///
/// ```
/// use spp_obs::{Event, EventSink, JsonLinesSink};
///
/// let sink = JsonLinesSink::new(Vec::new());
/// sink.emit(&Event::CoverImproved { cost: 12, nodes: 400 });
/// let bytes = sink.into_inner();
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"event\":\"cover_improved\",\"cost\":12,\"nodes\":400}\n"
/// );
/// ```
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer. Each event becomes one flushed JSON line.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out: Mutex::new(out) }
    }

    /// Unwraps the inner writer. Recovers from a poisoned lock (a panic in
    /// a previous `emit` cannot lose the lines written so far).
    pub fn into_inner(self) -> W {
        self.out.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    /// Writes the event; I/O errors are ignored (progress reporting must
    /// never fail the run) and a poisoned lock is recovered, not
    /// propagated.
    fn emit(&self, event: &Event) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{}", event.to_json());
        let _ = out.flush();
    }
}

#[derive(Debug, Default)]
struct GovernorInner {
    bytes: AtomicU64,
    soft: Option<u64>,
    hard: Option<u64>,
}

/// A shared memory-budget accountant.
///
/// Phases *charge* the governor for their dominant allocations (distinct
/// pseudocube unions, covering-matrix columns) with cheap relaxed atomic
/// adds; the governor compares the running total against two optional
/// budgets:
///
/// * **soft** — advisory pressure: generation truncates its candidate pool
///   and covering skips the exact refinement, but the run still completes
///   with a valid (possibly sub-optimal) answer.
/// * **hard** — a stop condition: [`RunCtx::stop_reason`] reports
///   [`Outcome::MemoryExceeded`] and every phase unwinds to its best
///   so-far, exactly like a deadline.
///
/// Cloning shares the counter (an `Arc` bump); the default governor is
/// unbounded and charges to it are effectively free.
///
/// The accounting is deliberately approximate — it tracks the
/// data-structure growth that is actually exponential, not every
/// allocation — so budgets are a defense against blow-ups, not a precise
/// rlimit.
#[derive(Clone, Debug, Default)]
pub struct ResourceGovernor(Arc<GovernorInner>);

impl ResourceGovernor {
    /// A governor with no budgets: charges are counted but never trip.
    #[must_use]
    pub fn unbounded() -> Self {
        ResourceGovernor::default()
    }

    /// A governor with the given soft/hard byte budgets (`None` =
    /// unlimited).
    #[must_use]
    pub fn with_budgets(soft: Option<u64>, hard: Option<u64>) -> Self {
        ResourceGovernor(Arc::new(GovernorInner {
            bytes: AtomicU64::new(0),
            soft,
            hard,
        }))
    }

    /// Adds `bytes` to the running total (relaxed; safe from hot loops at
    /// a sampling interval).
    pub fn charge(&self, bytes: u64) {
        self.0.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The bytes charged so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.0.bytes.load(Ordering::Relaxed)
    }

    /// The soft budget, if any.
    #[must_use]
    pub fn soft_budget(&self) -> Option<u64> {
        self.0.soft
    }

    /// The hard budget, if any.
    #[must_use]
    pub fn hard_budget(&self) -> Option<u64> {
        self.0.hard
    }

    /// Whether the soft budget is exhausted (always `false` when
    /// unbounded).
    #[must_use]
    pub fn soft_exceeded(&self) -> bool {
        self.0.soft.is_some_and(|b| self.bytes() >= b)
    }

    /// Whether the hard budget is exhausted (always `false` when
    /// unbounded).
    #[must_use]
    pub fn hard_exceeded(&self) -> bool {
        self.0.hard.is_some_and(|b| self.bytes() >= b)
    }

    /// Subtracts `bytes` from the running total, saturating at zero — the
    /// inverse of [`charge`](Self::charge), for owners that release
    /// accounted memory again (e.g. cache eviction).
    pub fn debit(&self, bytes: u64) {
        let _ = self.0.bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(cur.saturating_sub(bytes))
        });
    }

    /// Resets the running total to zero. The degradation ladder calls this
    /// between rungs so each rung gets the full budget.
    pub fn reset(&self) {
        self.0.bytes.store(0, Ordering::Relaxed);
    }

    /// Whether any budget is configured.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.0.soft.is_some() || self.0.hard.is_some()
    }
}

/// A recovered worker fault: a panic that was caught at an isolation
/// boundary and converted into data instead of crossing the API.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Fault {
    /// The isolation site that caught the panic (e.g. `cover.subtree`).
    pub site: String,
    /// Best-effort panic payload text.
    pub message: String,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panic at {}: {}", self.site, self.message)
    }
}

/// The shared fault journal of a run. Poison-proof by construction: a
/// panicking recorder cannot prevent later records or reads.
#[derive(Clone, Debug, Default)]
struct FaultLog(Arc<Mutex<Vec<Fault>>>);

impl FaultLog {
    fn record(&self, fault: Fault) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(fault);
    }

    fn snapshot(&self) -> Vec<Fault> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Checkpoint fuse: `< 0` means disarmed; otherwise the number of
    /// *counted* checkpoints still allowed before the token trips.
    fuse: AtomicI64,
}

/// A cloneable cooperative cancellation token.
///
/// Cancellation is cooperative: phases poll [`CancelToken::is_cancelled`]
/// at cheap intervals and unwind to their best-so-far result. Cloning is a
/// reference-count bump; all clones share one flag, so any clone can
/// cancel the run from another thread.
///
/// For deterministic testing, [`CancelToken::cancel_after_checkpoints`]
/// arms a fuse that trips after a fixed number of *counted* checkpoints —
/// the coarse, main-thread polls done through [`RunCtx::checkpoint`] —
/// making the trip point independent of wall-clock time and thread count.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<CancelInner>);

impl CancelToken {
    /// A fresh token that only trips when [`CancelToken::cancel`] is
    /// called.
    #[must_use]
    pub fn new() -> Self {
        CancelToken(Arc::new(CancelInner {
            cancelled: AtomicBool::new(false),
            fuse: AtomicI64::new(-1),
        }))
    }

    /// A token that trips at the `n`-th counted checkpoint (`n = 0` trips
    /// at the very first one). Counted checkpoints happen at deterministic
    /// points — once per generation level, once per heuristic descent
    /// step, once before covering — so a run cancelled this way stops at
    /// the same place at any thread count.
    #[must_use]
    pub fn cancel_after_checkpoints(n: u64) -> Self {
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        CancelToken(Arc::new(CancelInner {
            cancelled: AtomicBool::new(false),
            fuse: AtomicI64::new(n),
        }))
    }

    /// Requests cancellation: every holder of a clone observes it at its
    /// next poll.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested. A plain relaxed atomic
    /// load — safe to poll from hot loops at a sampling interval.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Relaxed)
    }

    /// Consumes one counted checkpoint (see
    /// [`CancelToken::cancel_after_checkpoints`]); trips the token when
    /// the fuse reaches zero. No-op for disarmed tokens.
    fn tick(&self) {
        if self.0.fuse.load(Ordering::Relaxed) >= 0
            && self.0.fuse.fetch_sub(1, Ordering::Relaxed) <= 0
        {
            self.cancel();
        }
    }
}

/// The run-control context threaded through every pipeline phase: an
/// optional deadline, a [`CancelToken`] and an [`EventSink`].
///
/// `RunCtx` is cheap to clone (two `Arc` bumps and a copy) and designed
/// to be passed by reference into phases, which poll it at checkpoints.
/// The default context never stops anything and drops all events —
/// exactly the pre-run-control behaviour.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use spp_obs::{Outcome, RunCtx};
///
/// let ctx = RunCtx::new().with_deadline_in(Duration::ZERO);
/// assert_eq!(ctx.stop_reason(), Some(Outcome::DeadlineExceeded));
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub struct RunCtx {
    deadline: Option<Instant>,
    cancel: CancelToken,
    sink: Arc<dyn EventSink>,
    governor: ResourceGovernor,
    faults: FaultLog,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            deadline: None,
            cancel: CancelToken::new(),
            sink: Arc::new(NullSink),
            governor: ResourceGovernor::unbounded(),
            faults: FaultLog::default(),
        }
    }
}

impl fmt::Debug for RunCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCtx")
            .field("deadline", &self.deadline)
            .field("cancelled", &self.cancel.is_cancelled())
            .field("governor", &self.governor)
            .finish_non_exhaustive()
    }
}

impl RunCtx {
    /// A context with no deadline, a fresh token and the null sink.
    #[must_use]
    pub fn new() -> Self {
        RunCtx::default()
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` from now.
    #[must_use]
    pub fn with_deadline_in(self, budget: Duration) -> Self {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// Installs a cancellation token (replacing the context's own).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Installs an event sink.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Installs a resource governor (replacing the unbounded default).
    #[must_use]
    pub fn with_governor(mut self, governor: ResourceGovernor) -> Self {
        self.governor = governor;
        self
    }

    /// Sets soft/hard memory budgets in bytes (`None` = unlimited),
    /// replacing the governor and its running total.
    #[must_use]
    pub fn with_mem_budget(self, soft: Option<u64>, hard: Option<u64>) -> Self {
        self.with_governor(ResourceGovernor::with_budgets(soft, hard))
    }

    /// The memory governor (shared with every clone of this context).
    #[must_use]
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Tightens the deadline to `min(current, other)`; `None` leaves it
    /// unchanged. Phases use this to fold per-phase time budgets into the
    /// session deadline.
    #[must_use]
    pub fn cap_deadline(mut self, other: Option<Instant>) -> Self {
        self.deadline = match (self.deadline, other) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// The effective deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline has passed. Samples the clock — poll at an
    /// interval, not per inner-loop iteration.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether cancellation has been requested (relaxed atomic load).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Why the run should stop, if it should: cancellation wins over a
    /// blown hard memory budget, which wins over the deadline (matching
    /// [`Outcome`] severity). Does not consume a counted checkpoint.
    #[must_use]
    pub fn stop_reason(&self) -> Option<Outcome> {
        if self.is_cancelled() {
            Some(Outcome::Cancelled)
        } else if self.governor.hard_exceeded() {
            Some(Outcome::MemoryExceeded)
        } else if self.deadline_exceeded() {
            Some(Outcome::DeadlineExceeded)
        } else {
            None
        }
    }

    /// A *counted* checkpoint: consumes one tick of an armed
    /// [`CancelToken::cancel_after_checkpoints`] fuse, then reports the
    /// stop reason. Phases call this at deterministic coarse points (level
    /// boundaries), never from worker threads, so the counted trip point
    /// is reproducible at any thread count.
    #[must_use]
    pub fn checkpoint(&self) -> Option<Outcome> {
        self.cancel.tick();
        self.stop_reason()
    }

    /// Emits a progress event to the sink.
    pub fn emit(&self, event: Event) {
        self.sink.emit(&event);
    }

    /// Records a caught worker panic on the run's fault journal and emits
    /// an [`Event::WorkerPanicked`]. Called from isolation boundaries; the
    /// run itself continues.
    pub fn record_fault(&self, site: &str, message: &str) {
        self.faults.record(Fault { site: site.to_owned(), message: message.to_owned() });
        self.emit(Event::WorkerPanicked {
            site: site.to_owned(),
            message: message.to_owned(),
        });
    }

    /// A snapshot of the faults recorded so far (shared with every clone).
    #[must_use]
    pub fn faults(&self) -> Vec<Fault> {
        self.faults.snapshot()
    }

    /// Evaluates the named fault-injection site.
    ///
    /// With the `failpoints` feature disabled (the default) this is a
    /// no-op; call sites need no `cfg`. With the feature enabled, an armed
    /// site performs its configured `failpoints::FailAction`.
    #[allow(unused_variables)]
    pub fn failpoint(&self, site: &str) {
        #[cfg(feature = "failpoints")]
        failpoints::hit(site, self);
    }
}

/// A process-global fault-injection registry, compiled in only with the
/// `failpoints` feature.
///
/// Tests arm named sites with [`set`](failpoints::set) /
/// [`set_after`](failpoints::set_after) and production code
/// hits them through [`RunCtx::failpoint`]. Sites are plain strings; the
/// pipeline's instrumented sites are `generate.level`, `generate.worker`,
/// `generate.unit`, `cover.columns`, `cover.subtree`,
/// `heuristic.descent`, `delta.splice` and `delta.verify`.
///
/// The registry is global, so tests that arm failpoints must serialize
/// themselves (e.g. behind a shared mutex) and
/// [`clear_all`](failpoints::clear_all) when done.
#[cfg(feature = "failpoints")]
pub mod failpoints {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::time::Duration;

    use crate::RunCtx;

    /// What an armed failpoint does when hit.
    #[derive(Clone, Debug)]
    #[non_exhaustive]
    pub enum FailAction {
        /// Panic with the given message (simulated worker fault).
        Panic(String),
        /// Sleep for the given duration (simulated slow worker).
        Delay(Duration),
        /// Charge the context's [`crate::ResourceGovernor`] (simulated
        /// allocation spike / allocation failure pressure).
        ChargeBytes(u64),
    }

    struct Entry {
        action: FailAction,
        /// Hits to ignore before the action fires.
        skip: u64,
    }

    #[derive(Default)]
    struct Registry {
        entries: HashMap<String, Entry>,
        hits: HashMap<String, u64>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(Mutex::default)
    }

    fn lock() -> std::sync::MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` to perform `action` on every hit.
    pub fn set(site: &str, action: FailAction) {
        set_after(site, 0, action);
    }

    /// Arms `site` to ignore its first `skip` hits, then perform `action`
    /// on every later hit.
    pub fn set_after(site: &str, skip: u64, action: FailAction) {
        lock().entries.insert(site.to_owned(), Entry { action, skip });
    }

    /// Disarms `site` (hit counting continues).
    pub fn clear(site: &str) {
        lock().entries.remove(site);
    }

    /// Disarms every site and zeroes all hit counters.
    pub fn clear_all() {
        let mut reg = lock();
        reg.entries.clear();
        reg.hits.clear();
    }

    /// How many times `site` has been hit since the last [`clear_all`]
    /// (armed or not).
    #[must_use]
    pub fn hits(site: &str) -> u64 {
        lock().hits.get(site).copied().unwrap_or(0)
    }

    /// Whether `site` is currently armed with its skip count exhausted.
    ///
    /// A pure peek: records no hit and runs no action. Production code
    /// uses this to branch onto a corrupting path (e.g. the delta splice
    /// injecting a bad pseudocube) where the [`FailAction`]s themselves
    /// cannot model the fault.
    #[must_use]
    pub fn armed(site: &str) -> bool {
        lock().entries.get(site).is_some_and(|e| e.skip == 0)
    }

    /// Arms failpoints from a textual spec — the `SPP_FAILPOINTS`
    /// environment contract that lets a *spawned* daemon be chaos-tested
    /// from a shell (the in-process `set` API cannot reach it).
    ///
    /// The spec is a comma-separated list of `site=action` items, where
    /// `action` is `panic[:message]`, `delay:millis` or `charge:bytes`,
    /// each optionally suffixed with `@skip` (hits ignored before the
    /// action starts firing):
    ///
    /// ```text
    /// serve.worker=panic:injected@4,generate.level=delay:250
    /// ```
    ///
    /// # Errors
    ///
    /// A description of the first malformed item; earlier items stay
    /// armed.
    pub fn arm_from_spec(spec: &str) -> Result<(), String> {
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (site, action) = item
                .split_once('=')
                .ok_or_else(|| format!("failpoint item {item:?} is missing `=`"))?;
            let (action, skip) = match action.rsplit_once('@') {
                Some((a, n)) => (
                    a,
                    n.parse::<u64>()
                        .map_err(|_| format!("failpoint skip {n:?} is not a number"))?,
                ),
                None => (action, 0),
            };
            let (kind, arg) = match action.split_once(':') {
                Some((k, v)) => (k, Some(v)),
                None => (action, None),
            };
            let parsed = match kind {
                "panic" => FailAction::Panic(arg.unwrap_or("injected fault").to_owned()),
                "delay" => FailAction::Delay(Duration::from_millis(
                    arg.and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("failpoint {item:?}: delay needs millis"))?,
                )),
                "charge" => FailAction::ChargeBytes(
                    arg.and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("failpoint {item:?}: charge needs bytes"))?,
                ),
                other => return Err(format!("unknown failpoint action {other:?}")),
            };
            set_after(site.trim(), skip, parsed);
        }
        Ok(())
    }

    /// Evaluates a hit on `site` (called by [`RunCtx::failpoint`]). The
    /// registry lock is released before the action runs, so a panicking or
    /// sleeping action cannot wedge the registry.
    pub(crate) fn hit(site: &str, ctx: &RunCtx) {
        let action = {
            let mut reg = lock();
            *reg.hits.entry(site.to_owned()).or_insert(0) += 1;
            match reg.entries.get_mut(site) {
                None => None,
                Some(entry) if entry.skip > 0 => {
                    entry.skip -= 1;
                    None
                }
                Some(entry) => Some(entry.action.clone()),
            }
        };
        match action {
            None => {}
            Some(FailAction::Panic(message)) => panic!("failpoint {site}: {message}"),
            Some(FailAction::Delay(d)) => std::thread::sleep(d),
            Some(FailAction::ChargeBytes(bytes)) => ctx.governor.charge(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_merge_keeps_the_worst() {
        use Outcome::{Cancelled, Completed, DeadlineExceeded, MemoryExceeded};
        assert_eq!(Completed.merge(Completed), Completed);
        assert_eq!(Completed.merge(DeadlineExceeded), DeadlineExceeded);
        assert_eq!(DeadlineExceeded.merge(Cancelled), Cancelled);
        assert_eq!(Cancelled.merge(Completed), Cancelled);
        assert_eq!(DeadlineExceeded.merge(MemoryExceeded), MemoryExceeded);
        assert_eq!(MemoryExceeded.merge(Cancelled), Cancelled);
        assert_eq!(MemoryExceeded.merge(Completed), MemoryExceeded);
    }

    #[test]
    fn outcome_round_trips_through_strings() {
        for o in [
            Outcome::Completed,
            Outcome::DeadlineExceeded,
            Outcome::MemoryExceeded,
            Outcome::Cancelled,
        ] {
            assert_eq!(Outcome::parse(o.as_str()), Some(o));
            assert_eq!(o.to_string(), o.as_str());
        }
        assert_eq!(Outcome::parse("nonsense"), None);
    }

    #[test]
    fn rung_round_trips_through_strings() {
        for r in [Rung::Exact, Rung::RestrictedExact, Rung::Heuristic, Rung::Sop] {
            assert_eq!(Rung::parse(r.as_str()), Some(r));
            assert_eq!(r.to_string(), r.as_str());
        }
        assert_eq!(Rung::parse("nonsense"), None);
        assert!(Rung::Exact < Rung::RestrictedExact);
        assert!(Rung::Heuristic < Rung::Sop);
    }

    #[test]
    fn governor_budgets_trip_in_order() {
        let g = ResourceGovernor::with_budgets(Some(100), Some(200));
        assert!(g.is_bounded());
        assert!(!g.soft_exceeded() && !g.hard_exceeded());
        g.charge(100);
        assert!(g.soft_exceeded() && !g.hard_exceeded());
        g.charge(100);
        assert!(g.soft_exceeded() && g.hard_exceeded());
        assert_eq!(g.bytes(), 200);
        g.reset();
        assert_eq!(g.bytes(), 0);
        assert!(!g.soft_exceeded() && !g.hard_exceeded());
    }

    #[test]
    fn unbounded_governor_never_trips() {
        let g = ResourceGovernor::unbounded();
        assert!(!g.is_bounded());
        g.charge(u64::MAX / 2);
        assert!(!g.soft_exceeded());
        assert!(!g.hard_exceeded());
    }

    #[test]
    fn governor_is_shared_between_ctx_clones() {
        let ctx = RunCtx::new().with_mem_budget(None, Some(10));
        let clone = ctx.clone();
        clone.governor().charge(10);
        assert_eq!(ctx.stop_reason(), Some(Outcome::MemoryExceeded));
    }

    #[test]
    fn stop_reason_priority_matches_severity() {
        // cancelled > memory > deadline
        let token = CancelToken::new();
        let ctx = RunCtx::new()
            .with_cancel(token.clone())
            .with_deadline_in(Duration::ZERO)
            .with_mem_budget(None, Some(1));
        assert_eq!(ctx.stop_reason(), Some(Outcome::DeadlineExceeded));
        ctx.governor().charge(1);
        assert_eq!(ctx.stop_reason(), Some(Outcome::MemoryExceeded));
        token.cancel();
        assert_eq!(ctx.stop_reason(), Some(Outcome::Cancelled));
    }

    #[test]
    fn faults_are_recorded_and_shared() {
        let sink = Arc::new(CollectSink::default());
        let ctx = RunCtx::new().with_sink(sink.clone());
        let clone = ctx.clone();
        clone.record_fault("cover.subtree", "boom");
        let faults = ctx.faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].site, "cover.subtree");
        assert_eq!(faults[0].message, "boom");
        assert!(faults[0].to_string().contains("cover.subtree"));
        let events = sink.0.lock().unwrap();
        assert!(matches!(events[0], Event::WorkerPanicked { .. }));
    }

    #[derive(Default)]
    struct CollectSink(Mutex<Vec<Event>>);

    impl EventSink for CollectSink {
        fn emit(&self, event: &Event) {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
        }
    }

    #[test]
    fn worker_panicked_event_escapes_json_strings() {
        let e = Event::WorkerPanicked {
            site: "cover.subtree".to_owned(),
            message: "bad \"quote\"\nnewline \\ backslash".to_owned(),
        };
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"event\":\"worker_panicked\",\"site\":\"cover.subtree\",\
             \"message\":\"bad \\\"quote\\\"\\nnewline \\\\ backslash\"}"
        );
        assert!(e.to_string().contains("cover.subtree"));
    }

    #[test]
    fn cache_events_serialize() {
        let e = Event::CacheHit { kind: "result", disk: true };
        assert_eq!(e.to_json(), "{\"event\":\"cache_hit\",\"kind\":\"result\",\"disk\":true}");
        assert!(e.to_string().contains("disk"));
        let e = Event::CacheMiss { kind: "eppp" };
        assert_eq!(e.to_json(), "{\"event\":\"cache_miss\",\"kind\":\"eppp\"}");
        let e = Event::CacheEvicted { entries: 3, bytes: 4096 };
        assert_eq!(e.to_json(), "{\"event\":\"cache_evicted\",\"entries\":3,\"bytes\":4096}");
        let e = Event::CacheWarmStart { columns: 17 };
        assert_eq!(e.to_json(), "{\"event\":\"cache_warm_start\",\"columns\":17}");
        assert!(e.to_string().contains("17"));
        let e = Event::CacheCorruptEntry {
            path: "/tmp/a \"b\".sppc".to_owned(),
            reason: "checksum".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"cache_corrupt_entry\",\"path\":\"/tmp/a \\\"b\\\".sppc\",\
             \"reason\":\"checksum\"}"
        );
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn serve_events_serialize() {
        let e = Event::ServeRequestQueued {
            id: "r-1".to_owned(),
            priority: "high",
            depth: 7,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_request_queued\",\"id\":\"r-1\",\
             \"priority\":\"high\",\"depth\":7}"
        );
        assert!(e.to_string().contains("depth 7"));
        let e = Event::ServeRequestStarted {
            id: "r-1".to_owned(),
            waited: Duration::from_millis(2),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_request_started\",\"id\":\"r-1\",\"waited_ms\":2.000}"
        );
        let e = Event::ServeRequestFinished {
            id: "r \"q\"".to_owned(),
            outcome: Outcome::Completed,
            rung: Rung::Heuristic,
            wall: Duration::from_millis(1),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_request_finished\",\"id\":\"r \\\"q\\\"\",\
             \"outcome\":\"completed\",\"rung\":\"heuristic\",\"wall_ms\":1.000}"
        );
        assert!(e.to_string().contains("rung heuristic"));
        let e = Event::ServeRequestRejected {
            id: "r-2".to_owned(),
            reason: "overloaded".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_request_rejected\",\"id\":\"r-2\",\
             \"reason\":\"overloaded\"}"
        );
        let e = Event::ServeDraining { in_flight: 3, queued: 9 };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_draining\",\"in_flight\":3,\"queued\":9}"
        );
        assert!(e.to_string().contains("3 in flight"));
    }

    #[test]
    fn resilience_events_serialize() {
        let e = Event::CacheQuarantined {
            path: "/tmp/x.sppc".to_owned(),
            reason: "checksum".to_owned(),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"cache_quarantined\",\"path\":\"/tmp/x.sppc\",\
             \"reason\":\"checksum\"}"
        );
        assert!(e.to_string().contains("quarantined"));

        let e = Event::ServeWorkerStalled {
            worker: 2,
            id: "r7".to_owned(),
            overrun: Duration::from_millis(1500),
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_worker_stalled\",\"worker\":2,\"id\":\"r7\",\
             \"overrun_ms\":1500.000}"
        );
        assert!(e.to_string().contains("stalled"));

        let e = Event::ServeWorkerRestarted { worker: 1 };
        assert_eq!(e.to_json(), "{\"event\":\"serve_worker_restarted\",\"worker\":1}");
        assert!(e.to_string().contains("restarted"));

        let e = Event::ServeRequestRequeued { id: "r7".to_owned(), worker: 0 };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"serve_request_requeued\",\"id\":\"r7\",\"worker\":0}"
        );
        assert!(e.to_string().contains("requeued"));
    }

    #[test]
    fn delta_events_serialize() {
        let e = Event::DeltaReuse { distance: 2, dropped: 14, spliced: 37 };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"delta_reuse\",\"distance\":2,\"dropped\":14,\"spliced\":37}"
        );
        assert!(e.to_string().contains("distance 2"));
        let e = Event::DeltaRejected { reason: "verify \"x\"".to_owned() };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"delta_rejected\",\"reason\":\"verify \\\"x\\\"\"}"
        );
        assert!(e.to_string().contains("rejected"));
    }

    #[test]
    fn governor_debit_reverses_charges_and_saturates() {
        let g = ResourceGovernor::with_budgets(Some(100), None);
        g.charge(150);
        assert!(g.soft_exceeded());
        g.debit(100);
        assert_eq!(g.bytes(), 50);
        assert!(!g.soft_exceeded());
        g.debit(1000);
        assert_eq!(g.bytes(), 0);
    }

    #[test]
    fn rung_events_serialize() {
        let e = Event::RungStarted { rung: Rung::RestrictedExact };
        assert_eq!(e.to_json(), "{\"event\":\"rung_started\",\"rung\":\"restricted_exact\"}");
        let e = Event::RungFinished {
            rung: Rung::Heuristic,
            outcome: Outcome::MemoryExceeded,
            accepted: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"rung_finished\",\"rung\":\"heuristic\",\
             \"outcome\":\"memory_exceeded\",\"accepted\":true}"
        );
        assert!(e.to_string().contains("accepted"));
    }

    #[test]
    fn form_round_trips_through_strings() {
        for form in Form::ALL {
            assert_eq!(Form::parse(form.as_str()), Some(form));
            assert_eq!(form.to_string(), form.as_str());
        }
        assert_eq!(Form::parse("nonsense"), None);
        // The race order is the declaration order and ties break earlier.
        assert!(Form::Spp < Form::Esop && Form::Esop < Form::Dsop && Form::Dsop < Form::Sop);
    }

    #[test]
    fn form_events_serialize() {
        let e = Event::FormStarted { form: Form::Esop };
        assert_eq!(e.to_json(), "{\"event\":\"form_started\",\"form\":\"esop\"}");
        let e = Event::FormFinished {
            form: Form::Dsop,
            outcome: Outcome::Completed,
            cost: Some(12),
            accepted: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"form_finished\",\"form\":\"dsop\",\
             \"outcome\":\"completed\",\"cost\":12,\"accepted\":true}"
        );
        let e = Event::FormFinished {
            form: Form::Sop,
            outcome: Outcome::MemoryExceeded,
            cost: None,
            accepted: false,
        };
        assert!(e.to_json().contains("\"cost\":null"));
        assert!(e.to_string().contains("excluded"));
        let e = Event::FormSkipped { form: Form::Sop };
        assert_eq!(e.to_json(), "{\"event\":\"form_skipped\",\"form\":\"sop\"}");
        assert!(e.to_string().contains("skipped") && !e.to_string().contains("excluded"));
    }

    /// A writer that panics on its first write, then behaves normally —
    /// poisons the sink's lock exactly the way a faulty sink user would.
    #[derive(Default)]
    struct PanicOnceWriter {
        armed: bool,
        lines: Vec<u8>,
    }

    impl Write for PanicOnceWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.armed {
                self.armed = false;
                panic!("injected writer panic");
            }
            self.lines.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_sink_survives_poisoning() {
        let sink = Arc::new(JsonLinesSink::new(PanicOnceWriter {
            armed: true,
            lines: Vec::new(),
        }));
        // First emit panics inside the lock on a scoped thread, poisoning
        // the mutex; the panic does not cross the join.
        let sink2 = sink.clone();
        let panicked = std::thread::spawn(move || {
            sink2.emit(&Event::PhaseStarted { phase: Phase::Generate });
        })
        .join()
        .is_err();
        assert!(panicked);
        // Both the later emit and into_inner recover from the poison.
        sink.emit(&Event::PhaseStarted { phase: Phase::Cover });
        let writer = Arc::into_inner(sink).expect("sole owner").into_inner();
        let text = String::from_utf8(writer.lines).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"phase\":\"cover\""));
    }

    #[test]
    fn default_ctx_never_stops() {
        let ctx = RunCtx::new();
        assert_eq!(ctx.stop_reason(), None);
        assert_eq!(ctx.checkpoint(), None);
        assert!(!ctx.deadline_exceeded());
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn cancellation_is_shared_between_clones() {
        let token = CancelToken::new();
        let ctx = RunCtx::new().with_cancel(token.clone());
        let ctx2 = ctx.clone();
        assert!(!ctx2.is_cancelled());
        token.cancel();
        assert!(ctx.is_cancelled());
        assert!(ctx2.is_cancelled());
        assert_eq!(ctx.stop_reason(), Some(Outcome::Cancelled));
    }

    #[test]
    fn cancel_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let ctx =
            RunCtx::new().with_cancel(token).with_deadline_in(Duration::ZERO);
        assert_eq!(ctx.stop_reason(), Some(Outcome::Cancelled));
    }

    #[test]
    fn checkpoint_fuse_trips_deterministically() {
        let token = CancelToken::cancel_after_checkpoints(2);
        let ctx = RunCtx::new().with_cancel(token);
        assert_eq!(ctx.checkpoint(), None); // 1st counted checkpoint
        assert_eq!(ctx.checkpoint(), None); // 2nd
        assert_eq!(ctx.checkpoint(), Some(Outcome::Cancelled)); // trips
        assert_eq!(ctx.checkpoint(), Some(Outcome::Cancelled)); // stays
    }

    #[test]
    fn uncounted_polls_do_not_consume_the_fuse() {
        let token = CancelToken::cancel_after_checkpoints(1);
        let ctx = RunCtx::new().with_cancel(token);
        for _ in 0..100 {
            assert!(!ctx.is_cancelled());
            assert_eq!(ctx.stop_reason(), None);
        }
        assert_eq!(ctx.checkpoint(), None);
        assert_eq!(ctx.checkpoint(), Some(Outcome::Cancelled));
    }

    #[test]
    fn deadline_capping_takes_the_minimum() {
        let now = Instant::now();
        let near = now + Duration::from_millis(1);
        let far = now + Duration::from_secs(3600);
        let ctx = RunCtx::new().with_deadline_at(far).cap_deadline(Some(near));
        assert_eq!(ctx.deadline(), Some(near));
        let ctx = RunCtx::new().with_deadline_at(near).cap_deadline(Some(far));
        assert_eq!(ctx.deadline(), Some(near));
        let ctx = RunCtx::new().cap_deadline(Some(near));
        assert_eq!(ctx.deadline(), Some(near));
        let ctx = RunCtx::new().cap_deadline(None);
        assert_eq!(ctx.deadline(), None);
    }

    #[test]
    fn zero_deadline_reports_deadline_exceeded() {
        let ctx = RunCtx::new().with_deadline_in(Duration::ZERO);
        assert!(ctx.deadline_exceeded());
        assert_eq!(ctx.stop_reason(), Some(Outcome::DeadlineExceeded));
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&Event::PhaseStarted { phase: Phase::Generate });
        sink.emit(&Event::GenLevelStarted { degree: 0, size: 42 });
        sink.emit(&Event::CoverFinished { cost: 7, nodes: 19, optimal: true });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"phase_started\""));
        assert!(lines[1].contains("\"degree\":0"));
        assert!(lines[2].contains("\"optimal\":true"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn event_display_is_human_readable() {
        let e = Event::GenLevelFinished {
            degree: 2,
            size: 10,
            groups: 3,
            unions: 12,
            retained: 4,
            live: 22,
            wall: Duration::from_millis(5),
        };
        let s = e.to_string();
        assert!(s.contains("level 2"));
        assert!(s.contains("12 unions"));
        let s = Event::PhaseFinished {
            phase: Phase::Cover,
            wall: Duration::from_millis(1),
            outcome: Outcome::DeadlineExceeded,
        }
        .to_string();
        assert!(s.contains("cover"));
        assert!(s.contains("deadline_exceeded"));
    }

    #[test]
    fn cover_subtree_events_serialize() {
        let started = Event::CoverSubtreeStarted { index: 3, column: 17 };
        assert_eq!(
            started.to_json(),
            "{\"event\":\"cover_subtree_started\",\"index\":3,\"column\":17}"
        );
        assert!(started.to_string().contains("subtree 3"));
        let finished = Event::CoverSubtreeFinished { index: 3, nodes: 512, improved: true };
        assert_eq!(
            finished.to_json(),
            "{\"event\":\"cover_subtree_finished\",\"index\":3,\"nodes\":512,\"improved\":true}"
        );
        assert!(finished.to_string().contains("improved the incumbent"));
        let quiet = Event::CoverSubtreeFinished { index: 0, nodes: 1, improved: false };
        assert!(!quiet.to_string().contains("improved"));
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Generate.as_str(), "generate");
        assert_eq!(Phase::Cover.to_string(), "cover");
    }

    /// Registry-touching tests must not interleave: the registry is
    /// process-global. One test owns all failpoint assertions.
    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoint_registry_actions() {
        use crate::failpoints::{self, FailAction};

        failpoints::clear_all();
        let ctx = RunCtx::new().with_mem_budget(None, Some(100));

        // Unarmed sites count hits and do nothing.
        ctx.failpoint("test.site");
        assert_eq!(failpoints::hits("test.site"), 1);
        assert_eq!(ctx.stop_reason(), None);

        // ChargeBytes feeds the context's governor.
        failpoints::set("test.site", FailAction::ChargeBytes(100));
        ctx.failpoint("test.site");
        assert_eq!(ctx.stop_reason(), Some(Outcome::MemoryExceeded));

        // set_after skips the first `n` hits.
        failpoints::clear_all();
        failpoints::set_after("test.skip", 2, FailAction::ChargeBytes(1));
        let ctx = RunCtx::new().with_mem_budget(None, None);
        ctx.failpoint("test.skip");
        ctx.failpoint("test.skip");
        assert_eq!(ctx.governor().bytes(), 0);
        ctx.failpoint("test.skip");
        ctx.failpoint("test.skip");
        assert_eq!(ctx.governor().bytes(), 2);
        assert_eq!(failpoints::hits("test.skip"), 4);

        // Panic fires a real panic (caught here) and does not wedge the
        // registry for later hits.
        failpoints::set("test.panic", FailAction::Panic("boom".to_owned()));
        let ctx2 = ctx.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx2.failpoint("test.panic");
        }));
        assert!(caught.is_err());
        failpoints::clear("test.panic");
        ctx.failpoint("test.panic"); // disarmed: no panic
        assert_eq!(failpoints::hits("test.panic"), 2);

        // Delay sleeps for the configured duration.
        failpoints::set("test.delay", FailAction::Delay(Duration::from_millis(20)));
        let start = Instant::now();
        ctx.failpoint("test.delay");
        assert!(start.elapsed() >= Duration::from_millis(20));

        // arm_from_spec: the SPP_FAILPOINTS textual contract.
        failpoints::clear_all();
        failpoints::arm_from_spec("test.a=panic:boom@2, test.b=delay:5,test.c=charge:64")
            .expect("valid spec");
        assert!(!failpoints::armed("test.a"), "skip 2 not yet exhausted");
        assert!(failpoints::armed("test.b"));
        assert!(failpoints::armed("test.c"));
        let ctx = RunCtx::new().with_mem_budget(None, None);
        ctx.failpoint("test.c");
        assert_eq!(ctx.governor().bytes(), 64);
        for bad in ["nosuchshape", "x=explode", "x=delay:abc", "x=panic@zz"] {
            assert!(failpoints::arm_from_spec(bad).is_err(), "{bad:?} must be rejected");
        }

        failpoints::clear_all();
        assert_eq!(failpoints::hits("test.skip"), 0);
    }
}
