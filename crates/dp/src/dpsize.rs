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

use crate::common::{emit_pair, finish, init_memo, LevelEnumerator, OptContext, OptResult};
use mpdp_core::counters::{Counters, LevelStats, Profile};
use mpdp_core::enumerate::EnumerationMode;
use mpdp_core::memo::MemoTable;
use mpdp_core::{OptError, RelSet};

/// The DPSIZE optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct DpSize;

impl DpSize {
    /// Runs DPSIZE on `ctx`, returning the optimal plan.
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        // Connected sets grouped by size. In frontier mode the level plan has
        // every list up front (and sizes the memo once); in the legacy mode
        // each level's list is discovered as a by-product of the pair joins
        // and the memo grows as it fills (every connected set of size ≥ 2
        // has a CCP split, so both modes build the same families — asserted
        // in this module's tests).
        let discover = ctx.enumeration != EnumerationMode::Frontier;
        let levels = if discover {
            None
        } else {
            Some(LevelEnumerator::new(ctx)?)
        };
        let mut memo: MemoTable = init_memo(q, levels.as_ref().map_or(0, |l| l.total_sets()));
        let mut counters = Counters::default();
        let mut profile = Profile::default();
        let mut discovered: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        discovered[1] = (0..n).map(RelSet::singleton).collect();

        for i in 2..=n {
            let mut level = LevelStats {
                size: i,
                ..Default::default()
            };
            let sets_of = |k: usize| match &levels {
                Some(levels) => levels.level(k).sets,
                None => &discovered[k],
            };
            let mut new_sets: Vec<RelSet> = Vec::new();
            for k in 1..i {
                ctx.check_deadline()?;
                // Ordered pairs: (left of size k) × (right of size i-k).
                // Symmetric pairs appear naturally when k and i-k swap.
                for &left in sets_of(k) {
                    for &right in sets_of(i - k) {
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
                        let known = memo.len();
                        if emit_pair(&mut memo, q, ctx.model, left, right)? {
                            level.memo_writes += 1;
                        }
                        // A first plan for a set grows the memo by one.
                        if discover && memo.len() > known {
                            new_sets.push(left.union(right));
                        }
                    }
                }
            }
            if discover {
                discovered[i] = new_sets;
            }
            level.sets = match &levels {
                Some(levels) => levels.level(i).sets.len(),
                None => discovered[i].len(),
            } as u64;
            counters.evaluated += level.evaluated;
            counters.ccp += level.ccp;
            counters.sets += level.sets;
            profile.record(level);
        }
        finish(&memo, q, counters, profile)
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
    fn frontier_and_legacy_discovery_agree() {
        // Frontier mode feeds the per-size plan lists from the enumerator;
        // legacy mode discovers them through the pair joins. Same families,
        // same counters, same optimal cost.
        let model = PgLikeCost::new();
        for q in [chain_query(7), star_query(6), cycle_query(6)] {
            let f = DpSize::run(&OptContext::new(&q, &model)).unwrap();
            let u = DpSize::run(
                &OptContext::new(&q, &model)
                    .with_enumeration(mpdp_core::enumerate::EnumerationMode::Unranked),
            )
            .unwrap();
            assert_eq!(f.cost.to_bits(), u.cost.to_bits());
            assert_eq!(f.counters, u.counters);
            assert_eq!(f.memo_entries, u.memo_entries);
        }
    }

    #[test]
    fn discovers_all_connected_sets() {
        let q = chain_query(5);
        let model = PgLikeCost::new();
        let a = DpSize::run(&OptContext::new(&q, &model)).unwrap();
        // Intervals of a 5-chain: 15 total; 5 are leaves, 10 discovered.
        assert_eq!(a.memo_entries, 15);
        assert_eq!(a.counters.sets, 10);
    }
}
