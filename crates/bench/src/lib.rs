//! # mpdp-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§7). The `repro` binary drives the experiments; this library
//! holds the shared machinery: the algorithm roster, timed runners, the
//! timing-report policy, sweep scales and statistics helpers.
//!
//! ## Timing-report policy (single-core container)
//!
//! Sequential algorithms report *measured* wall time. Multi-core algorithms
//! run their real implementation here (verified result-identical to the
//! sequential ones), then report the work/span-model prediction for the
//! paper's 24-core box, calibrated from the measured run — see
//! `mpdp-parallel::hwmodel` and `DESIGN.md` §2. GPU algorithms execute on
//! the software SIMT machine and report its simulated GTX-1080 time.
//! Reported columns are marked `measured` / `model` accordingly.

#![warn(missing_docs)]

pub mod aws;
pub mod exec;
pub mod regress;
pub mod runner;
pub mod scale;
pub mod starform;
pub mod stats;
pub mod trace;

pub use runner::{run_exact, AlgoKind, RunOutcome, EXACT_ROSTER};
pub use scale::Scale;
pub use trace::{run_trace, TraceConfig, TraceReport};
