//! # mpdp-heuristics
//!
//! Heuristic join-order optimizers for queries beyond exact-DP reach
//! (the paper evaluates up to 1000 relations, Tables 1–2). Each has one
//! entry, `(query, model, [k,] budget) → Result<LargeOptResult, OptError>`:
//!
//! * [`Goo::run`] — Greedy Operator Ordering \[8\];
//! * [`Ikkbz::run`] — optimal left-deep ordering \[14, 18\];
//! * [`LinDp::run`] — linearized DP and the adaptive strategy of \[26\];
//! * [`Geqo::run`] — PostgreSQL's genetic optimizer \[36\];
//! * [`idp1_mpdp`] — IDP1 \[17\], with its own bounded DP;
//! * [`idp2_mpdp`] — IDP2 \[17\] with MPDP as the exact step
//!   ("IDP2-MPDP (k)");
//! * [`uniondp_mpdp`] — the paper's novel partition-based heuristic (§4.2),
//!   "UnionDP-MPDP (k)".
//!
//! [`idp2_with_inner`] and [`uniondp_with_inner`] take the exact step as a
//! parameter: LinDP plans its >100-relation queries with the first, and
//! the tests hold MPDP inside both to DPCCP. Everything is built on
//! [`large`]'s shared machinery: plan validation, re-costing, and the one
//! composite store through which IDP1, IDP2 and UnionDP plan a group,
//! contract it into a composite and substitute its plan back.

#![warn(missing_docs)]

pub mod geqo;
pub mod goo;
pub mod idp;
pub mod ikkbz;
pub mod large;
pub mod lindp;
#[cfg(test)]
mod testkit;
pub mod uniondp;
pub mod unionfind;

pub use geqo::Geqo;
pub use goo::Goo;
pub use idp::{idp1_mpdp, idp2_mpdp, idp2_with_inner};
pub use ikkbz::Ikkbz;
pub use large::{recost, validate_large, Budget, LargeOptResult};
pub use lindp::{interval_dp, linearized_dp, LinDp};
pub use uniondp::{uniondp_mpdp, uniondp_with_inner};
pub use unionfind::UnionFind;
