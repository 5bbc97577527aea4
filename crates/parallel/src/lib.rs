//! # mpdp-parallel
//!
//! CPU-parallel DP variants and the hardware timing model:
//!
//! * [`level_par`] — parallel MPDP ("MPDP (24CPU)"), parallel DPSUB, and
//!   PDP (parallel DPSIZE, Han et al. \[10\]);
//! * [`dpe`] — DPE (Han & Lee \[11\]): sequential DPCCP enumeration with
//!   dependency-aware parallel costing;
//! * [`pool`] — chunked scoped-thread fork/join;
//! * [`hwmodel`] — the calibrated work/span model predicting multi-core wall
//!   times on this container (see `DESIGN.md` §2).

#![warn(missing_docs)]

pub mod dpe;
pub mod hwmodel;
pub mod level_par;
pub mod pool;

pub use dpe::Dpe;
pub use hwmodel::{Calibration, CpuModel, OpWeights};
