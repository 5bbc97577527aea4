//! # mpdp-cost
//!
//! Catalog, statistics and cost models for the MPDP workspace.
//!
//! * [`model::CostModel`] — the trait every optimizer prices plans with;
//! * [`pglike::PgLikeCost`] — the paper's "PostgreSQL-like" model (§7.1);
//! * [`cout::CoutCost`] — the `C_out` model used by IKKBZ/LinDP;
//! * [`catalog`] — tables, column statistics and equi-join selectivity
//!   estimation.

#![warn(missing_docs)]

pub mod catalog;
pub mod cout;
pub mod model;
pub mod pglike;
pub mod sweep;

pub use catalog::{Catalog, Column, JoinPredicate, Table};
pub use cout::CoutCost;
pub use model::{CostModel, InputEst, JoinAlgo, LaneForm};
pub use pglike::{PgLikeCost, PgParams};
