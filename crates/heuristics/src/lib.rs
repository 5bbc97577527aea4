//! # mpdp-heuristics
//!
//! Heuristic join-order optimizers for queries beyond exact-DP reach
//! (the paper evaluates up to 1000 relations, Tables 1–2):
//!
//! * [`goo::Goo`] — Greedy Operator Ordering \[8\];
//! * [`ikkbz::Ikkbz`] — optimal left-deep ordering \[14, 18\];
//! * [`lindp::LinDp`] — linearized DP and the adaptive strategy of \[26\];
//! * [`geqo::Geqo`] — PostgreSQL's genetic optimizer \[36\];
//! * [`idp`] — IDP1 and IDP2 \[17\], with MPDP as the plugged-in exact step
//!   ("IDP2-MPDP (k)");
//! * [`uniondp::UnionDp`] — the paper's novel partition-based heuristic
//!   (§4.2), "UnionDP-MPDP (k)".
//!
//! Everything is built on [`large`]'s shared machinery: plan validation,
//! re-costing, graph contraction and composite substitution.

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

pub use geqo::{Geqo, GeqoParams};
pub use goo::Goo;
pub use idp::{idp1_mpdp, idp2_mpdp, idp2_with_inner, Idp2};
pub use ikkbz::Ikkbz;
pub use large::{recost, validate_large, Budget, InnerLarge, LargeOptResult, LargeOptimizer};
pub use lindp::{interval_dp, linearized_dp, LinDp};
pub use uniondp::{uniondp_with_inner, UnionDp, UnionDpWith};
pub use unionfind::UnionFind;
