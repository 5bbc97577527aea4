//! # mpdp-dp
//!
//! Exact join-order optimization algorithms:
//!
//! * [`dpsize::DpSize`] — Selinger-style size-driven DP (PostgreSQL's
//!   built-in algorithm; "Postgres (1CPU)" in the paper's figures);
//! * [`dpsub::DpSub`] — subset-driven DP (Algorithm 1);
//! * [`dpccp::DpCcp`] — Moerkotte–Neumann csg-cmp-pair enumeration, which
//!   evaluates only valid Join-Pairs but enumerates sequentially;
//! * [`mpdp::MpdpTree`] — MPDP for tree join graphs (Algorithm 2);
//! * [`mpdp::Mpdp`] — general MPDP with block-level hybrid enumeration
//!   (Algorithm 3), the paper's primary contribution.
//!
//! All algorithms fill the same [`MemoTable`](mpdp_core::MemoTable), price
//! plans with the same [`CostModel`](mpdp_cost::CostModel), and are verified
//! to return identical optimal costs (see the crate tests and
//! `tests/exact_equivalence.rs` at the workspace root).

#![warn(missing_docs)]

pub mod common;
pub mod dpccp;
pub mod dpsize;
pub mod dpsub;
mod lanes;
pub mod mpdp;

pub use common::{OptContext, OptResult};
pub use dpccp::DpCcp;
pub use dpsize::DpSize;
pub use dpsub::DpSub;
pub use mpdp::{Mpdp, MpdpTree};
