//! DPSUB — subset-driven dynamic programming (Algorithm 1).
//!
//! Enumerates, for each subset size `i`, every connected set `S` of size `i`,
//! and for each such set splits it into every non-empty `(S_left, S_right)`
//! pair via submask enumeration, keeping only pairs that pass the CCP block.
//! Massively parallelizable (every `S` of a level is independent) but wasteful:
//! it evaluates `2^|S|` Join-Pairs per set while only a small fraction are
//! CCP pairs (§2.3, Figure 4).

use crate::common::{emit_pair, finish, init_memo, level_plan, OptContext, OptResult};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::graph::JoinGraph;
use mpdp_core::memo::MemoTable;
use mpdp_core::{OptError, RelSet};

/// Algorithm 1's per-set body, shared by the sequential driver below and
/// the level-parallel one in `mpdp-parallel` (each publishes through its own
/// `emit`): every non-empty `S_left ⊆ S` goes through the CCP block, and
/// `emit(S_left, S \ S_left)` is called for each ordered pair that passes.
/// Returns the Join-Pairs `(evaluated, found to be CCP pairs)`.
#[inline]
pub fn ccp_splits<E>(
    g: &JoinGraph,
    s: RelSet,
    mut emit: impl FnMut(RelSet, RelSet) -> Result<(), E>,
) -> Result<(u64, u64), E> {
    let (mut evaluated, mut ccp) = (0, 0);
    // Line 8: all non-empty S_left ⊆ S (S_right = S \ S_left may be empty;
    // the CCP block filters it).
    for sl in s.subsets() {
        evaluated += 1;
        let sr = s.difference(sl);
        // --- CCP block (lines 12-16) ---
        if sr.is_empty() || sl.is_empty() {
            continue;
        }
        if !g.is_connected(sl) {
            continue;
        }
        if !g.is_connected(sr) {
            continue;
        }
        if !sl.is_disjoint(sr) {
            continue; // never fires (sr = s \ sl) — kept for fidelity
        }
        if !g.sets_connected(sl, sr) {
            continue;
        }
        // --- end CCP block ---
        ccp += 1;
        emit(sl, sr)?;
    }
    Ok((evaluated, ccp))
}

/// The DPSUB optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct DpSub;

impl DpSub {
    /// Runs DPSUB on `ctx`, returning the optimal plan.
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        let plan = level_plan(ctx)?;
        let mut memo: MemoTable = init_memo(q, &plan);
        let mut profile = Profile::default();

        for i in 2..=n {
            let (sets, rows) = plan.level(i);
            let start = plan.starts[i - 1];
            let mut level = LevelStats {
                size: i,
                sets: sets.len() as u64,
                ..Default::default()
            };
            for (k, (&s, &rows)) in sets.iter().zip(rows).enumerate() {
                ctx.poll_deadline(k)?;
                let at = (memo.slot(start + k), rows);
                let (evaluated, ccp) = ccp_splits(&q.graph, s, |sl, sr| {
                    level.memo_writes += emit_pair(&mut memo, ctx.model, sl, sr, at)? as u64;
                    Ok::<(), OptError>(())
                })?;
                level.evaluated += evaluated;
                level.ccp += ccp;
            }
            profile.record(level);
        }
        finish(&memo, q, profile)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mpdp_core::combinatorics::binomial;
    use mpdp_core::graph::JoinGraph;
    use mpdp_core::query::{QueryInfo, RelInfo};
    use mpdp_cost::pglike::PgLikeCost;

    pub(crate) fn star_query(n: usize) -> QueryInfo {
        // Fact table 0 with n-1 dimensions; PK-FK selectivities.
        let mut g = JoinGraph::new(n);
        let mut rels = vec![RelInfo::new(1_000_000.0, 10_000.0)];
        for i in 1..n {
            let rows = 1000.0 * (i as f64);
            g.add_edge(0, i, 1.0 / rows);
            rels.push(RelInfo::new(rows, rows / 100.0));
        }
        QueryInfo::new(g, rels)
    }

    pub(crate) fn chain_query(n: usize) -> QueryInfo {
        let mut g = JoinGraph::new(n);
        let mut rels = Vec::new();
        for i in 0..n {
            rels.push(RelInfo::new(100.0 * (i + 1) as f64, (i + 1) as f64));
            if i > 0 {
                g.add_edge(i - 1, i, 0.01);
            }
        }
        QueryInfo::new(g, rels)
    }

    pub(crate) fn cycle_query(n: usize) -> QueryInfo {
        let mut q = chain_query(n);
        let mut g = q.graph.clone();
        g.add_edge(n - 1, 0, 0.005);
        q.graph = g;
        q
    }

    #[test]
    fn two_relations() {
        let q = star_query(2);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert_eq!(r.plan.num_rels(), 2);
        assert!(r.plan.validate(&q.graph).is_none());
        // One connected 2-set, 3 submask evaluations (3 non-empty subsets),
        // 2 CCP pairs (both orders).
        assert_eq!(r.counters.sets, 1);
        assert_eq!(r.counters.evaluated, 3);
        assert_eq!(r.counters.ccp, 2);
    }

    #[test]
    fn star5_counters() {
        // Star with hub 0 and 4 leaves: connected sets of size i all contain
        // the hub -> C(4, i-1) sets; CCP (ordered) per set = 2(i-1).
        let q = star_query(5);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        let mut expect_sets = 0u64;
        let mut expect_ccp = 0u64;
        let mut expect_eval = 0u64;
        for i in 2..=5u64 {
            let sets = binomial(4, i - 1);
            expect_sets += sets;
            expect_ccp += sets * 2 * (i - 1);
            expect_eval += sets * ((1u64 << i) - 1);
        }
        assert_eq!(r.counters.sets, expect_sets);
        assert_eq!(r.counters.ccp, expect_ccp);
        assert_eq!(r.counters.evaluated, expect_eval);
        assert!(r.plan.validate(&q.graph).is_none());
    }

    #[test]
    fn chain_plan_valid_and_memo_sized() {
        let q = chain_query(6);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert!(r.plan.validate(&q.graph).is_none());
        // Chain of n: connected sets are intervals: n*(n+1)/2 of them.
        assert_eq!(r.memo_entries, 6 * 7 / 2);
    }

    #[test]
    fn cycle_handles_blocks() {
        let q = cycle_query(5);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert!(r.plan.validate(&q.graph).is_none());
        assert_eq!(r.plan.num_rels(), 5);
    }

    #[test]
    fn single_relation_query() {
        let q = star_query(1);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert_eq!(r.plan.num_rels(), 1);
        assert_eq!(r.counters.evaluated, 0);
    }

    #[test]
    fn profile_levels_match_sizes() {
        let q = chain_query(5);
        let model = PgLikeCost::new();
        let r = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        let sizes: Vec<usize> = r.profile.levels.iter().map(|l| l.size).collect();
        assert_eq!(sizes, vec![2, 3, 4, 5]);
        assert_eq!(r.profile.totals(), r.counters);
    }
}
