//! Sum-of-Pseudoproducts (SPP) three-level logic minimization — a full
//! implementation of *V. Ciriani, "Logic Minimization using Exclusive OR
//! Gates", DAC 2001*.
//!
//! An SPP form is an OR of *pseudoproducts*, each an AND of EXOR factors —
//! a direct generalization of Sum-of-Products where literals become parity
//! functions. SPP forms are on average about half the size of the
//! corresponding SP forms; this crate provides the paper's two synthesis
//! procedures and every concept they rest on:
//!
//! - [`Pseudocube`] / [`Cex`] / [`Structure`]: pseudocubes as affine
//!   subspaces of GF(2)^n, their canonical expressions (Definition 1) and
//!   structures (Definition 2), with the union Theorem 1 in both its
//!   affine ([`Pseudocube::union`]) and literal-level ([`Cex::union`],
//!   Algorithm 1) forms;
//! - [`PartitionTrie`]: the paper's data structure grouping expressions by
//!   structure (§3.2);
//! - [`Minimizer::generate`]: construction of the extended prime
//!   pseudoproduct set (Definition 3) by structure-grouped unions —
//!   Algorithm 2 steps 1–2 — with the quadratic algorithm of Luccio–Pagli
//!   \[5\] as a selectable baseline;
//! - [`Minimizer::run_exact`]: Algorithm 2 end to end (generation +
//!   minimum-literal covering);
//! - [`Minimizer::run_heuristic`]: Algorithm 3, the incremental `SPP_k`
//!   heuristic seeded by SP prime implicants with descendant/ascendant
//!   phases over [`sub_pseudocubes`] (Theorem 2);
//! - [`verify_cover`]: independent correctness checking of any produced
//!   form.
//!
//! Every entry point is a [`Minimizer`] (or [`MultiMinimizer`]) session,
//! which also carries the run control: a deadline, a cooperative
//! [`spp_obs::CancelToken`] and a progress [`spp_obs::EventSink`]. On
//! deadline or cancellation the pipeline unwinds to a valid best-so-far
//! form and records the cause as an [`Outcome`].
//!
//! # Examples
//!
//! ```
//! use spp_boolfn::BoolFn;
//! use spp_core::Minimizer;
//!
//! // The paper's motivating effect: parity-like functions collapse.
//! let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
//! let result = Minimizer::new(&f).run_exact();
//! assert_eq!(result.form.to_string(), "(x0⊕x1⊕x2⊕x3)");
//! assert!(result.form.check_realizes(&f).is_ok());
//! ```
//!
//! With a deadline and progress events:
//!
//! ```
//! use std::time::Duration;
//! use spp_boolfn::BoolFn;
//! use spp_core::Minimizer;
//!
//! let f = BoolFn::from_truth_fn(4, |x| x % 3 == 1);
//! let result = Minimizer::new(&f)
//!     .deadline(Duration::from_millis(200))
//!     .run_exact();
//! // Deadline or not, the form is always a valid cover.
//! assert!(result.form.check_realizes(&f).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cex;
mod delta;
mod error;
mod form;
mod generate;
mod heuristic;
mod minimize;
mod multi;
mod portfolio;
mod pseudocube;
mod request;
mod restricted;
mod session;
mod structure;
mod subpseudo;
mod trie;
mod verify;

pub use cache::SppCache;
pub use cex::{Cex, EmptyPseudoproductError, ExorFactor};
pub use error::{parse_pla, SppError};
pub use form::SppForm;
pub use generate::{EpppSet, GenLimits, GenStats, LevelStats};
pub use minimize::{SppMinResult, SppOptions};
pub use multi::MultiSppResult;
pub use portfolio::{
    FormPortfolio, FormRealization, Objective, PortfolioReport, PortfolioResult,
};
pub use pseudocube::Pseudocube;
pub use request::{
    execute, execute_fns, ErrorFrame, ExecEnv, Executed, MinimizeMode, MinimizeRequest,
    MinimizeResponse, OutputReport, Priority, WireErrorKind, SCHEMA_VERSION,
};
pub use session::{Minimizer, MultiMinimizer};
pub use spp_cache::{CacheConfig, CacheStats, FsyncPolicy};
pub use spp_obs::{
    CancelToken, Event, EventSink, Fault, Form, JsonLinesSink, NullSink, Outcome,
    Phase, ResourceGovernor, RunCtx, Rung, StderrSink,
};
pub use spp_par::Parallelism;
pub use restricted::factor_width_at_most;
pub use structure::Structure;
pub use subpseudo::sub_pseudocubes;
pub use trie::{Leaf, NodeKind, PartitionTrie};
pub use verify::{verify_cover, verify_cover_par, VerifyError};
