//! `spp serve`: a governed minimization daemon for the SPP workspace.
//!
//! The daemon accepts concurrent PLA minimization requests over a
//! length-prefixed JSON wire protocol ([`protocol`]), admits them through
//! a bounded three-lane priority scheduler, and executes them on a worker
//! pool that maps each request's deadline/budget/priority onto the
//! workspace's [`spp_core`] run-control: one process-wide result cache,
//! per-worker memory-budget slices, and the governed degradation ladder —
//! so overload lowers the answer's rung instead of dropping requests.
//!
//! The request surface is [`spp_core::MinimizeRequest`] /
//! [`spp_core::MinimizeResponse`] — the same serde-free pair the CLI
//! one-shot path and the library sessions use, so a daemon answer is
//! bit-identical to a local run with the same configuration.
//!
//! Shutdown (the `shutdown` op, or SIGINT/SIGTERM via [`shutdown_flag`]
//! in the CLI) drains: admission refuses with typed `shutting_down`
//! frames, the shared cancel token asks every in-flight session to
//! unwind to its verified best-so-far form, queued requests still
//! execute, and the process exits only after every admitted request was
//! answered. A supervisor thread watches the pool the whole time:
//! panicked workers are restarted, deadline-overrunning requests are
//! cooperatively cancelled, and work held by a wedged worker is
//! reclaimed — requeued at most once, else answered with a typed
//! `timeout` error — so one bad request never takes the daemon down.
//!
//! [`loadgen`] is the matching deterministic load generator (the
//! `spp-loadgen` binary), used by the integration tests and the CI
//! serve smoke.

#![warn(missing_docs)]

pub mod loadgen;
pub mod protocol;
mod scheduler;
mod server;
mod signal;

pub use scheduler::AdmitError;
pub use server::{ServeConfig, Server};
pub use signal::{shutdown_flag, sigint_flag};
