//! DPSIZE — size-driven dynamic programming (Selinger \[27\]).
//!
//! Builds plans in increasing result size: a plan of size `i` is formed by
//! pairing a known plan of size `k` with one of size `i-k`. This is what
//! PostgreSQL's standard join search does ("Postgres (1CPU)" in the paper's
//! figures). Its weakness is evaluating enormous numbers of *overlapping*
//! pairs: two plans of sizes `k` and `i-k` usually share relations, failing
//! the disjointness check after the pair was already enumerated (§7.2.2:
//! "DPSIZE-based algorithms do not perform well due to checking too many
//! overlapping pairs").

use crate::common::{
    emit_pair, finish, init_memo_with_rows, level_plan, union_rows, OptContext, OptResult,
};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::MemoTable;
use mpdp_core::OptError;

/// The DPSIZE optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct DpSize;

impl DpSize {
    /// Runs DPSIZE on `ctx`, returning the optimal plan.
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        // The per-size plan lists are the level plan's. A pair does not know
        // where its union sits in the plan, so the memo carries every set's
        // cardinality.
        let plan = level_plan(ctx)?;
        let mut memo: MemoTable = init_memo_with_rows(q, &plan);
        let mut profile = Profile::default();

        for i in 2..=n {
            let mut level = LevelStats {
                size: i,
                sets: plan.level(i).0.len() as u64,
                ..Default::default()
            };
            for k in 1..i {
                ctx.check_deadline()?;
                // Ordered pairs: (left of size k) × (right of size i-k).
                // Symmetric pairs appear naturally when k and i-k swap.
                for &left in plan.level(k).0 {
                    for &right in plan.level(i - k).0 {
                        level.evaluated += 1;
                        if !left.is_disjoint(right) {
                            continue; // the overlapping-pair tax of DPSIZE
                        }
                        if !q.graph.sets_connected(left, right) {
                            continue; // cross product
                        }
                        // Both sides are connected by construction, so the
                        // pair is a CCP pair.
                        level.ccp += 1;
                        let rows = union_rows(&memo, left, right)?;
                        if emit_pair(&mut memo, ctx.model, left, right, rows)? {
                            level.memo_writes += 1;
                        }
                    }
                }
            }
            profile.record(level);
        }
        finish(&memo, q, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsub::tests::{chain_query, cycle_query, star_query};
    use crate::dpsub::DpSub;
    use mpdp_cost::pglike::PgLikeCost;

    #[test]
    fn matches_dpsub_on_chain() {
        let q = chain_query(7);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert!((a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0));
        assert!(a.plan.validate(&q.graph).is_none());
    }

    #[test]
    fn matches_dpsub_on_star() {
        let q = star_query(6);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert!((a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0));
    }

    #[test]
    fn matches_dpsub_on_cycle() {
        let q = cycle_query(6);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert!((a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0));
    }

    #[test]
    fn ccp_counter_matches_dpsub() {
        // CCP-Counter is algorithm independent (§2.1: "CCP-Counter when
        // profiled on any optimal DP algorithm ... will produce the same
        // value").
        let model = PgLikeCost::new();
        for q in [chain_query(6), star_query(6), cycle_query(6)] {
            let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
            let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
            assert_eq!(a.counters.ccp, b.counters.ccp);
        }
    }

    #[test]
    fn evaluates_overlapping_pairs() {
        // DPSIZE's evaluated counter exceeds DPSUB's on stars because of
        // overlapping pairs.
        let q = star_query(7);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        assert!(a.counters.evaluated > a.counters.ccp);
    }

    #[test]
    fn plans_all_connected_sets() {
        let q = chain_query(5);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        // Intervals of a 5-chain: 15 total; 5 are leaves, 10 joined.
        assert_eq!(a.memo_entries, 15);
        assert_eq!(a.counters.sets, 10);
    }
}
