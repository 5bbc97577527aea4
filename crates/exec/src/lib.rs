//! # mpdp-exec
//!
//! A vectorized in-memory join executor that closes the workspace's
//! estimate→observe→re-optimize loop. Every other crate optimizes against
//! *modeled* costs; this one runs the chosen join orders on real (generated)
//! tuples and feeds what it saw back into the statistics:
//!
//! * [`datagen`] — deterministic columnar table generation from catalog
//!   statistics (key columns, `u32` or `u64` by domain, whose domains
//!   realize the estimated selectivities, optional per-edge skew to violate
//!   them on purpose);
//! * [`executor`] — morsel-parallel, batch-at-a-time hash-join execution
//!   of any [`mpdp_core::plan::PlanTree`] on the process-lifetime worker set
//!   (`mpdp-parallel::pool`), building each join's table on its input with
//!   fewer materialized rows (the physical build; reports keep the plan's
//!   roles, the smaller modeled side as build) and skipping build and probe
//!   of a join with an empty input, with per-operator
//!   [`executor::ExecStats`] and per-join observed selectivities that are
//!   bit-identical at any worker count;
//! * [`feedback`] — folding observations back into a
//!   [`mpdp_cost::Catalog`] as selectivity overrides, plus plan re-pricing
//!   under corrected statistics.
//!
//! The serving layer's `PlanService::observe` consumes this crate's
//! [`ExecReport`] to invalidate cached plans whose estimated root
//! cardinality proved wrong by more than a factor of 10 (a constant of the
//! service, not a setting).

#![warn(missing_docs)]

pub mod datagen;
pub mod executor;
pub mod feedback;

pub use datagen::{materialize, Dataset, ExecTable, GenConfig, KeyColumn, SkewedEdge};
pub use executor::{
    filter_kernel, ExecConfig, ExecError, ExecReport, ExecStats, Executor, ObservedJoin, ResultSet,
};
pub use feedback::{
    fold_observations, recost_plan, selectivity_overrides, synthesize_catalog, SyntheticCatalog,
};
