//! # txrace
//!
//! A reproduction of **TxRace: Efficient Data Race Detection Using
//! Commodity Hardware Transactional Memory** (Tong Zhang, Dongyoon Lee,
//! Changhee Jung — ASPLOS 2016), built on a simulated best-effort HTM
//! ([`txrace_htm`]) and a FastTrack happens-before detector
//! ([`txrace_hb`]) over the [`txrace_sim`] program substrate.
//!
//! ## How TxRace works
//!
//! 1. **Transactionalization** ([`mod@instrument`]): a compile-time pass turns
//!    every synchronization-free region (including critical sections) into
//!    a hardware transaction, cutting at system calls, and makes every
//!    transaction begin by reading a shared `TxFail` flag.
//! 2. **Fast path** ([`engine`]): the HTM's cache-line conflict detection
//!    flags *potential* races as conflict aborts at near-zero cost.
//! 3. **Slow path**: on a conflict abort, the aborted thread writes
//!    `TxFail`; strong isolation + requester-wins then abort every
//!    in-flight transaction. All involved threads roll back to their
//!    region starts and re-execute under sound & complete FastTrack
//!    checking, which pinpoints the racy instruction pair and filters
//!    false sharing. Capacity/unknown aborts send only the aborted thread
//!    to the slow path.
//! 4. **Optimizations**: single-threaded-mode elision, slow-path-only tiny
//!    regions (`K < 5` memory ops), and the loop-cut transformation
//!    ([`loopcut`]) that learns how many loop iterations fit in the HTM
//!    write buffer.
//!
//! ## Quickstart
//!
//! ```
//! use txrace::{Detector, RunConfig, Scheme};
//! use txrace_sim::ProgramBuilder;
//!
//! // Two threads write the same variable with no synchronization.
//! let mut b = ProgramBuilder::new(2);
//! let x = b.var("x");
//! for t in 0..2 {
//!     b.thread(t).compute(10).write_l(x, t as u64, &format!("w{t}")).compute(10);
//! }
//! let program = b.build();
//!
//! let outcome = Detector::new(RunConfig::new(Scheme::txrace(), 42)).run(&program);
//! assert_eq!(outcome.races.distinct_count(), 1);
//! assert!(outcome.overhead >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod control;
pub mod cost;
pub mod detector;
pub mod engine;
pub mod instrument;
pub mod loopcut;
pub mod parallel;
pub mod sa;

pub use baselines::{LocksetConsumer, TsanConsumer};
pub use control::{
    AdaptiveController, ControlDecision, EpochRecord, Knobs, ProductionMode, Telemetry,
};
pub use cost::{CostModel, CycleBreakdown};
pub use detector::{recall, Detector, RunConfig, RunOutcome, SchedKind, Scheme, TxRaceOpts};
pub use engine::EngineConfig;
pub use engine::{EngineStats, SlowTrigger, TxRaceEngine, TXFAIL_ADDR};
pub use instrument::instrument;
pub use instrument::{
    instrument_pruned, InstrumentConfig, InstrumentedProgram, RegionInfo, RegionKind,
};
pub use loopcut::{LoopcutMode, LoopcutProfile, LoopcutState};
pub use parallel::PanelConsumer;
pub use sa::{
    watch_sites, Confirmation, FlowAnalysis, MayRacePairs, PruneStats, RaceFreeReason, SiteClass,
    SiteClassTable, StaticPruneMode,
};
