//! # mpdp
//!
//! Facade crate for the MPDP workspace — a from-scratch Rust reproduction of
//! *"Efficient Massively Parallel Join Optimization for Large Queries"*
//! (SIGMOD 2022). Re-exports the public API of every member crate and hosts
//! the unified planning API:
//!
//! * [`Strategy`] — one trait every algorithm (exact DP, CPU-parallel,
//!   simulated-GPU, heuristic) adapts to;
//! * [`registry()`] — name-keyed strategy lookup using the paper's series
//!   labels (`"MPDP"`, `"Postgres (1CPU)"`, `"UnionDP-MPDP (15)"`, …);
//! * [`PlannerBuilder`] / [`Planner`] — the adaptive deployment the paper
//!   recommends: an exact algorithm (sequential, CPU-parallel or
//!   simulated-GPU) up to a hardware-dependent relation limit, a heuristic
//!   hybrid beyond it;
//! * [`PlanService`] — the concurrent serving layer: a sharded plan cache
//!   that evicts what is cheapest to re-plan, keyed by canonical query
//!   fingerprints in front of the default [`Planner`]'s route, for
//!   workloads that plan repeated query shapes under latency budgets (see
//!   `service`); its [`PlanService::observe`] hook closes the loop with
//!   the [`exec`] executor by invalidating cached plans whose cardinality
//!   estimates an execution disproved.
//!
//! ```
//! use mpdp::prelude::*;
//!
//! let model = PgLikeCost::new();
//! let query = mpdp::workload::gen::star(20, 7, &model);
//!
//! // By name, as the benches do:
//! let planned = mpdp::registry()
//!     .get("MPDP")
//!     .unwrap()
//!     .plan(&query, &model, None)
//!     .unwrap();
//! assert_eq!(planned.plan.num_rels(), 20);
//!
//! // Or composed, as a deployment would:
//! let planner = PlannerBuilder::new()
//!     .exact(ExactAlgo::Mpdp)
//!     .fallback(LargeAlgo::UnionDp { k: 15 })
//!     .exact_limit(18)
//!     .build();
//! let planned = planner.plan_query(&query, &model).unwrap();
//! assert_eq!(planned.plan.num_rels(), 20);
//! ```
//!
//! See the workspace `README.md` for a tour and `examples/` for runnable
//! entry points.

#![warn(missing_docs)]

pub use mpdp_core as core;
pub use mpdp_cost as cost;
pub use mpdp_dp as dp;
pub use mpdp_exec as exec;
pub use mpdp_gpu as gpu;
pub use mpdp_heuristics as heuristics;
pub use mpdp_parallel as parallel;
pub use mpdp_workload as workload;

pub mod cache;
mod flight;
pub mod planner;
pub mod registry;
pub mod service;

pub use cache::{CacheConfig, CachedPlan, PlanCache};
pub use planner::{
    ExactAlgo, ExactStrategy, HeuristicStrategy, LargeAlgo, Planned, Planner, PlannerBuilder,
    Strategy, EXACT_MAX_RELS,
};
pub use registry::{registry, Registry};
pub use service::{
    PlanFuture, PlanRequest, PlanService, PlanServiceBuilder, ServedPlan, ServedVia,
};

/// Most-used items in one import.
pub mod prelude {
    pub use crate::planner::{ExactAlgo, LargeAlgo, Planned, Planner, PlannerBuilder, Strategy};
    pub use crate::registry::registry;
    pub use crate::service::{PlanRequest, PlanService, PlanServiceBuilder, ServedVia};
    pub use mpdp_core::{JoinGraph, LargeQuery, OptError, PlanTree, QueryInfo, RelInfo, RelSet};
    pub use mpdp_cost::{CostModel, CoutCost, PgLikeCost};
    pub use mpdp_dp::{DpCcp, DpSize, DpSub, Mpdp, MpdpTree, OptContext};
    pub use mpdp_exec::{ExecConfig, ExecReport, Executor, GenConfig};
    pub use mpdp_heuristics::LargeOptResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::PgLikeCost;
    use std::time::Duration;

    #[test]
    fn adaptive_small_is_exact() {
        let model = PgLikeCost::new();
        let q = workload::gen::cycle(8, 3, &model);
        let adaptive = Planner::adaptive_default().plan_query(&q, &model).unwrap();
        let qi = q.to_query_info().unwrap();
        let exact = mpdp_dp::Mpdp::run(&mpdp_dp::OptContext::new(&qi, &model)).unwrap();
        assert!((adaptive.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }

    #[test]
    fn adaptive_large_uses_heuristic() {
        let model = PgLikeCost::new();
        let q = workload::gen::snowflake(80, 4, 5, &model);
        let r = PlannerBuilder::new()
            .budget(Duration::from_secs(60))
            .build()
            .plan_query(&q, &model)
            .unwrap();
        assert_eq!(r.plan.num_rels(), 80);
        assert!(mpdp_heuristics::validate_large(&r.plan, &q).is_none());
    }

    #[test]
    fn raised_exact_limit_routes_past_bitmap_ceiling_to_heuristic() {
        // A user-set exact_limit above 64 must send 65+-relation queries to
        // the large path instead of failing with TooLarge.
        let model = PgLikeCost::new();
        let q = workload::gen::snowflake(80, 4, 5, &model);
        let r = PlannerBuilder::new()
            .budget(Duration::from_secs(60))
            .exact_limit(200)
            .build()
            .plan_query(&q, &model)
            .unwrap();
        assert_eq!(r.plan.num_rels(), 80);
        assert!(mpdp_heuristics::validate_large(&r.plan, &q).is_none());
    }
}
