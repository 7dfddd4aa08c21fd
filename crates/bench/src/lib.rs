//! Shared harness code for regenerating the paper's tables and figures.
//!
//! Each binary under `src/bin/` reproduces one table or figure; this
//! library holds the per-app evaluation driver, the paper's reference
//! numbers (for side-by-side printing), the shared command-line parser,
//! and small formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod paper;
pub mod report;
pub mod runner;

pub use cli::{require_workers, Cli};
pub use report::{fmt_x, geomean, json_rows, JsonValue, Table};
pub use runner::{evaluate_app, record_workload, replay_schemes_fanout, run_scheme, AppResult};
