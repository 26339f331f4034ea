//! # spp — Sum-of-Pseudoproducts logic minimization
//!
//! Facade crate re-exporting the whole `spp` workspace. See the individual
//! crates for details; the [`prelude`] brings the common types into scope.
//!
//! The front door is the [`Minimizer`] session builder (and
//! [`MultiMinimizer`] for multi-output functions), which carries both the
//! algorithm configuration and the run control — deadline, cancellation
//! and progress events (the [`obs`] crate):
//!
//! ```
//! use std::time::Duration;
//! use spp::prelude::*;
//! use spp::Minimizer;
//!
//! let f = BoolFn::from_truth_fn(4, |x| x.count_ones() % 2 == 1);
//! let r = Minimizer::new(&f).deadline(Duration::from_secs(5)).run_exact();
//! assert!(r.form.check_realizes(&f).is_ok());
//! ```

#![forbid(unsafe_code)]

pub use spp_benchgen as benchgen;
pub use spp_boolfn as boolfn;
pub use spp_cache as cache;
pub use spp_core as core;
pub use spp_cover as cover;
pub use spp_gf2 as gf2;
pub use spp_netlist as netlist;
pub use spp_obs as obs;
pub use spp_serve as serve;
pub use spp_sp as sp;

pub use spp_core::{CacheConfig, CacheStats, Minimizer, MultiMinimizer, SppCache, SppError};
pub use spp_core::{
    execute, execute_fns, ErrorFrame, ExecEnv, Executed, MinimizeMode, MinimizeRequest,
    MinimizeResponse, OutputReport, Priority, WireErrorKind, SCHEMA_VERSION,
};
pub use spp_obs::{CancelToken, Event, EventSink, Outcome, RunCtx};

/// The most commonly used types and functions of the workspace.
pub mod prelude {
    pub use spp_boolfn::{BoolFn, Cube, Pla};
    pub use spp_core::{Minimizer, MultiMinimizer, Outcome, SppCache, SppError};
    pub use spp_gf2::{EchelonBasis, Gf2Vec};
}
