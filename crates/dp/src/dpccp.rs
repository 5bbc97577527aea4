//! DPCCP — connected-subgraph / complement-pair enumeration
//! (Moerkotte–Neumann \[24\]).
//!
//! Enumerates *exactly* the CCP pairs of the join graph via `EnumerateCsg` /
//! `EnumerateCmp`, so `EvaluatedCounter == CCP-Counter`. The price is a
//! strictly sequential, graph-order-dependent enumeration: each emission
//! depends on the DFS state, which is why the paper classifies DPCCP as hard
//! to parallelize (§1, Figure 2) — parallel derivatives (DPE) only
//! parallelize the *costing* of pairs, not their enumeration.
//!
//! The recursion follows the original paper's pseudo-code:
//!
//! ```text
//! DPccp:      for i = n-1 .. 0:  EmitCsg({v_i});  EnumerateCsgRec({v_i}, B_i)
//! CsgRec:     N = N(S) \ X;  ∀ S' ⊆ N, S' ≠ ∅: EmitCsg(S ∪ S')
//!                            ∀ S' ⊆ N, S' ≠ ∅: EnumerateCsgRec(S ∪ S', X ∪ N)
//! EmitCsg:    X = S₁ ∪ B_min(S₁);  N = N(S₁) \ X
//!             ∀ v ∈ N (desc.): emit (S₁, {v});  EnumerateCmpRec(S₁, {v}, X ∪ (B_v ∩ N))
//! CmpRec:     N = N(S₂) \ X;  ∀ S' ⊆ N, S' ≠ ∅: emit (S₁, S₂ ∪ S')
//!                             ∀ S' ⊆ N, S' ≠ ∅: EnumerateCmpRec(S₁, S₂ ∪ S', X ∪ N)
//! ```
//!
//! where `B_i = {v_j | j ≤ i}`. Each unordered CCP pair is emitted exactly
//! once; we cost both join orders, so counters report ordered pairs like the
//! other algorithms.

use crate::common::{
    emit_both, finish, init_memo_with_rows, level_plan, union_rows, OptContext, OptResult,
};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::graph::JoinGraph;
use mpdp_core::memo::MemoTable;
use mpdp_core::{OptError, RelSet};

/// The DPCCP optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct DpCcp;

/// The recursion of the module docs over `g`, handing each csg-cmp pair to
/// `emit`.
struct CsgCmp<'g, F> {
    g: &'g JoinGraph,
    emit: F,
    /// Connected subgraphs visited (`EmitCsg` calls).
    csgs: u64,
}

impl<F: FnMut(RelSet, RelSet) -> Result<(), OptError>> CsgCmp<'_, F> {
    fn enumerate_csg_rec(&mut self, s: RelSet, x: RelSet) -> Result<(), OptError> {
        let n = self.g.neighbors(s).difference(x);
        if n.is_empty() {
            return Ok(());
        }
        for sp in n.subsets_ascending() {
            self.emit_csg(s.union(sp))?;
        }
        for sp in n.subsets_ascending() {
            self.enumerate_csg_rec(s.union(sp), x.union(n))?;
        }
        Ok(())
    }

    fn emit_csg(&mut self, s1: RelSet) -> Result<(), OptError> {
        self.csgs += 1;
        let min = s1.first().expect("csg is non-empty");
        let b_min = RelSet::first_n(min + 1);
        let x = s1.union(b_min);
        let n = self.g.neighbors(s1).difference(x);
        // Descending vertex order, as in the original pseudo-code.
        let mut vs: Vec<usize> = n.iter().collect();
        vs.reverse();
        for v in vs {
            let s2 = RelSet::singleton(v);
            (self.emit)(s1, s2)?;
            let b_v_in_n = RelSet::first_n(v + 1).intersect(n);
            self.enumerate_cmp_rec(s1, s2, x.union(b_v_in_n))?;
        }
        Ok(())
    }

    fn enumerate_cmp_rec(&mut self, s1: RelSet, s2: RelSet, x: RelSet) -> Result<(), OptError> {
        let n = self.g.neighbors(s2).difference(x);
        if n.is_empty() {
            return Ok(());
        }
        for sp in n.subsets_ascending() {
            (self.emit)(s1, s2.union(sp))?;
        }
        for sp in n.subsets_ascending() {
            self.enumerate_cmp_rec(s1, s2.union(sp), x.union(n))?;
        }
        Ok(())
    }
}

/// DPCCP's enumeration without its costing: calls `emit(S₁, S₂)` once per
/// csg-cmp pair of the context's join graph — every unordered CCP pair
/// exactly once, each after all pairs its two sides are unions of — and
/// returns the number of connected subgraphs visited. The deadline is polled
/// once per start vertex; an `emit` that wants it polled per pair does so
/// itself. [`DpCcp`] costs the pairs as they arrive, DPE (`mpdp-parallel`)
/// buffers them for its consumers.
pub fn csg_cmp_pairs(
    ctx: &OptContext<'_>,
    emit: impl FnMut(RelSet, RelSet) -> Result<(), OptError>,
) -> Result<u64, OptError> {
    let g = &ctx.query.graph;
    let mut walk = CsgCmp { g, emit, csgs: 0 };
    for i in (0..g.num_vertices()).rev() {
        ctx.check_deadline()?;
        let v = RelSet::singleton(i);
        walk.emit_csg(v)?;
        // B_i = {v_j | j ≤ i}
        walk.enumerate_csg_rec(v, RelSet::first_n(i + 1))?;
    }
    Ok(walk.csgs)
}

impl DpCcp {
    /// Runs DPCCP on `ctx`, returning the optimal plan.
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        // The pairs arrive in an order of their own, but what they join is
        // the level plan's sets: enumerating those first (a fraction of one
        // pair's cost per set) sizes the memo once and puts each set's
        // cardinality where its pairs will look for it.
        let mut memo: MemoTable = init_memo_with_rows(q, &level_plan(ctx)?);
        // DPCCP has no level structure; record the run as one pseudo-level so
        // the hardware model sees its sequential profile.
        let mut level = LevelStats {
            size: n,
            ..Default::default()
        };
        if n > 1 {
            let mut pairs_since_poll = 0u32;
            level.sets = csg_cmp_pairs(ctx, |s1, s2| {
                // Cost both orders (counters track ordered pairs
                // workspace-wide).
                level.evaluated += 2;
                level.ccp += 2;
                let rows = union_rows(&memo, s1, s2)?;
                level.memo_writes += emit_both(&mut memo, ctx.model, s1, s2, rows)? as u64;
                pairs_since_poll += 1;
                if pairs_since_poll >= 4096 {
                    pairs_since_poll = 0;
                    ctx.check_deadline()?;
                }
                Ok(())
            })?;
        }
        let mut profile = Profile::default();
        profile.record(level);
        finish(&memo, q, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpsub::tests::{chain_query, cycle_query, star_query};
    use crate::dpsub::DpSub;
    use mpdp_core::graph::JoinGraph;
    use mpdp_core::query::{QueryInfo, RelInfo};
    use mpdp_cost::pglike::PgLikeCost;

    #[test]
    fn evaluated_equals_ccp() {
        // DPCCP evaluates only valid Join-Pairs.
        let model = PgLikeCost::new();
        for q in [chain_query(7), star_query(7), cycle_query(7)] {
            let r = DpCcp::run(&OptContext::new(&q, &model)).unwrap();
            assert_eq!(r.counters.evaluated, r.counters.ccp);
        }
    }

    #[test]
    fn ccp_counter_matches_dpsub() {
        let model = PgLikeCost::new();
        for q in [chain_query(6), star_query(6), cycle_query(6)] {
            let a = DpCcp::run(&OptContext::new(&q, &model)).unwrap();
            let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
            assert_eq!(a.counters.ccp, b.counters.ccp, "graph mismatch");
        }
    }

    #[test]
    fn optimal_cost_matches_dpsub() {
        let model = PgLikeCost::new();
        for q in [chain_query(8), star_query(7), cycle_query(7)] {
            let a = DpCcp::run(&OptContext::new(&q, &model)).unwrap();
            let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
            assert!(
                (a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0),
                "dpccp={} dpsub={}",
                a.cost,
                b.cost
            );
            assert!(a.plan.validate(&q.graph).is_none());
        }
    }

    #[test]
    fn chain_ccp_closed_form() {
        // For a chain of n relations, unordered CCP pairs = number of
        // (interval, split point) choices = sum over intervals of
        // (len-1) = n(n^2-1)/6; ordered doubles it.
        let model = PgLikeCost::new();
        for n in [3usize, 5, 8] {
            let q = chain_query(n);
            let r = DpCcp::run(&OptContext::new(&q, &model)).unwrap();
            let unordered = (n * (n * n - 1) / 6) as u64;
            assert_eq!(r.counters.ccp, 2 * unordered, "n={n}");
        }
    }

    #[test]
    fn clique_enumeration_complete() {
        // Clique of 5: all 2^5-1 non-empty subsets are connected; every
        // (disjoint, covering) split of every subset is a CCP pair.
        let mut g = JoinGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j, 0.1);
            }
        }
        let q = QueryInfo::new(g, vec![RelInfo::new(100.0, 1.0); 5]);
        let model = PgLikeCost::new();
        let r = DpCcp::run(&OptContext::new(&q, &model)).unwrap();
        // Ordered CCP pairs in a clique of n: sum over sets S (|S|=i>=2) of
        // (2^i - 2) = sum_i C(5,i)(2^i-2) = (3^5 - 2*2^5 + 1) = 180.
        let expect: u64 = (2..=5u32)
            .map(|i| mpdp_core::combinatorics::binomial(5, i as u64) * ((1u64 << i) - 2))
            .sum();
        assert_eq!(r.counters.ccp, expect);
        assert_eq!(r.memo_entries, 31);
    }
}
