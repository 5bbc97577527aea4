//! MPDP — Massively Parallel Dynamic Programming (§3, Algorithms 2 and 3).
//!
//! MPDP keeps DPSUB's level-by-level, per-set independence (the property that
//! makes it massively parallelizable) but replaces the powerset split of each
//! set `S` with a *hybrid* enumeration: decompose the subgraph induced by `S`
//! into biconnected components (*blocks*); run vertex-based enumeration only
//! *within* each block, then extend each block-level CCP pair `(lb, rb)` to a
//! set-level pair with the `grow` function. Per-set work drops from `2^|S|`
//! to `Σ_blocks 2^|block|` (Lemma 7), with `EvaluatedCounter == CCP-Counter`
//! whenever all blocks are cliques (Lemma 9) — which covers trees (blocks are
//! single edges, Theorem 3) and cycles.
//!
//! The per-set loop exists once, as [`SetKernel`]; the sequential driver here,
//! the CPU-parallel one in `mpdp-parallel` and the simulated-GPU one in
//! `mpdp-gpu` all call it and differ only in scheduling and in how they
//! publish each set's winner. See `DESIGN.md` §4 "The MPDP set kernel".

use crate::common::{
    finish, init_memo, join_inputs, level_plan, OptContext, OptResult, PricedSplit,
};
use mpdp_core::blocks::{BlockFinder, BlockIndex};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::{candidate_key, MemoEntry, MemoStore, MemoTable};
use mpdp_core::{OptError, QueryInfo, RelSet};
use mpdp_cost::model::CostModel;

/// Watches the block-level splits of a set as [`SetKernel`] visits them.
/// The simulated GPU charges lane cycles from here; everyone else passes
/// `()`.
pub trait SplitObserver {
    /// Report the right side's connectivity even when the left side already
    /// failed (the kernel itself stops at the first failure).
    const BOTH_SIDES: bool = false;

    /// One split `{lb, rb}` of a block of `s`, standing for the Join-Pairs
    /// `(lb, rb)` and `(rb, lb)`; the sides' connectivity decides whether
    /// they are CCP pairs.
    #[inline]
    fn split(&mut self, _s: RelSet, _lb: RelSet, _rb: RelSet, _lb_ok: bool, _rb_ok: bool) {}
}

impl SplitObserver for () {}

/// What [`SetKernel::evaluate`] found for one set.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetOutcome {
    /// Join-Pairs evaluated (both orders of every block split).
    pub evaluated: u64,
    /// CCP pairs among them (both orders).
    pub ccp: u64,
    /// The entry the set should get: its best plan over all those pairs under
    /// the memo's own [`candidate_key`] order, so publishing it once leaves
    /// the memo exactly as publishing every pair would. `None` only if a
    /// side was missing from the memo.
    pub best: Option<MemoEntry>,
}

/// Algorithm 3's per-set body: find the blocks of `S`, enumerate CCP pairs
/// inside each block, grow them to set-level pairs, price them and keep the
/// best. Holds the per-query block structure by reference and its own
/// scratch (in place of a `find_blocks` per set), so a call allocates
/// nothing; each worker owns one.
///
/// Five things keep a set cheap, none of which changes a result:
///
/// * bridges of the whole graph split `S` by a precomputed mask, and block
///   finding runs only inside the graph's cyclic blocks ([`BlockIndex`]) — on
///   a tree-shaped `S` there is no DFS and no `grow`, which is Algorithm 2;
/// * each block split is visited once, from the side holding the block's
///   lowest vertex, and stands for both Join-Pairs: `(lb, rb)` grows to
///   `(sl, S \ sl)` and `(rb, lb)` to exactly the mirrored `(S \ sl, sl)`;
/// * both orders are priced by one `join_cost_both`, as `common::price_both`
///   does, from the set's cardinality, which the caller reads off the level
///   plan: nothing about a split is derived that belongs to the set;
/// * a split is not priced at all when its inputs plus the model's
///   [`join_cost_floor`](CostModel::join_cost_floor) already exceed the best
///   plan found for the set — it cannot win (it is still counted and still
///   reaches the observer);
/// * the set's candidates are reduced here and published once by the caller
///   (the paper's fused prune, §5).
pub struct SetKernel<'a> {
    q: &'a QueryInfo,
    model: &'a dyn CostModel,
    index: &'a BlockIndex,
    finder: BlockFinder,
}

impl<'a> SetKernel<'a> {
    /// A kernel for `q`, whose graph `index` was built from.
    pub fn new(q: &'a QueryInfo, model: &'a dyn CostModel, index: &'a BlockIndex) -> Self {
        SetKernel {
            q,
            model,
            index,
            finder: BlockFinder::new(),
        }
    }

    /// Evaluates the connected set `s`, of cardinality `rows`, against
    /// `memo`, which must hold every connected proper subset of `s`.
    // Out of line on purpose: the drivers' loops around it are a few lines,
    // and inlined into each of them the kernel's inner loops were laid out per
    // caller (`cycle-18`, one 18-vertex block: 1.70 ms in the level-parallel
    // worker, 1.90 ms in the sequential driver, from the same source).
    #[inline(never)]
    pub fn evaluate<M: MemoStore, O: SplitObserver>(
        &mut self,
        memo: &M,
        s: RelSet,
        rows: f64,
        observer: &mut O,
    ) -> SetOutcome {
        let (model, g) = (self.model, &self.q.graph);
        let mut out = SetOutcome::default();
        let mut best_key = (u64::MAX, u64::MAX);
        // What any join into `s` costs on top of its inputs, and the cost of
        // the set's best plan so far.
        let floor = model.join_cost_floor(rows);
        let mut best_cost = f64::INFINITY;
        // Prices both orders of the CCP split `{left, s \ left}` and keeps
        // the set's running minimum.
        let mut consider = |left: RelSet, out: &mut SetOutcome| {
            let right = s.difference(left);
            debug_assert!(!left.is_empty() && !right.is_empty());
            out.ccp += 2;
            let Some((a, b)) = join_inputs(memo, left, right) else {
                return;
            };
            // Both orders cost at least the bound, so a bound above the best
            // loses under `candidate_key` and is not priced. An `f64`
            // comparison, so a NaN bound prunes nothing; the floor's contract
            // covers non-negative row counts only.
            if (a.cost + b.cost) + floor > best_cost && a.rows >= 0.0 && b.rows >= 0.0 {
                return;
            }
            let (cost_ab, cost_ba) = model.join_cost_both(a, b, rows);
            let (left, cost) = PricedSplit { cost_ab, cost_ba }.better(left, right);
            let key = candidate_key(cost, left);
            if key < best_key {
                best_key = key;
                best_cost = cost;
                out.best = Some(MemoEntry {
                    set: s,
                    left,
                    cost,
                    rows,
                });
            }
        };
        for bridge in &self.index.bridges {
            if bridge.ends.is_subset(s) {
                out.evaluated += 2;
                let lb = bridge.ends.lowest_bit();
                observer.split(s, lb, bridge.ends.difference(lb), true, true);
                consider(s.intersect(bridge.side), &mut out);
            }
        }
        for &cyclic in &self.index.cyclic {
            let inside = s.intersect(cyclic);
            if inside.len() < 2 {
                continue;
            }
            for &block in self.finder.find(g, inside) {
                // Line 6, halved: rb ranges over the non-empty subsets that
                // avoid the block's lowest vertex, lb is the rest.
                for rb in block.difference(block.lowest_bit()).subsets() {
                    let lb = block.difference(rb);
                    out.evaluated += 2;
                    // CCP block (lines 10-14): a block is connected, so an
                    // edge between its two sides always exists.
                    let lb_ok = g.is_connected(lb);
                    let rb_ok = (lb_ok || O::BOTH_SIDES) && g.is_connected(rb);
                    observer.split(s, lb, rb, lb_ok, rb_ok);
                    if lb_ok && rb_ok {
                        // Lines 17-18: grow the block pair to a set-level pair.
                        consider(g.grow(lb, s.difference(rb)), &mut out);
                    }
                }
            }
        }
        out
    }
}

/// General MPDP with block-level hybrid enumeration — Algorithm 3.
#[derive(Copy, Clone, Debug, Default)]
pub struct Mpdp;

impl Mpdp {
    /// Runs general MPDP on `ctx`, returning the optimal plan.
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        let plan = level_plan(ctx)?;
        let mut memo: MemoTable = init_memo(q, plan.sets.len() - n);
        let mut profile = Profile::default();

        let index = BlockIndex::new(&q.graph);
        let mut kernel = SetKernel::new(q, ctx.model, &index);
        for i in 2..=n {
            let (sets, rows) = plan.level(i);
            let mut level = LevelStats {
                size: i,
                sets: sets.len() as u64,
                ..Default::default()
            };
            for (k, (&s, &rows)) in sets.iter().zip(rows).enumerate() {
                ctx.poll_deadline(k)?;
                let out = kernel.evaluate(&memo, s, rows, &mut ());
                level.evaluated += out.evaluated;
                level.ccp += out.ccp;
                if let Some(e) = out.best {
                    level.memo_writes += memo.insert_if_better(s, e.left, e.cost, e.rows) as u64;
                }
            }
            profile.record(level);
        }
        finish(&memo, q, profile)
    }
}

/// MPDP on tree (acyclic) join graphs — Algorithm 2. On a tree every block
/// is a bridge, so [`SetKernel`] already *is* Algorithm 2 (the `|S| - 1`
/// splits of a connected `S`, one per induced edge, no CCP check, Theorem 3);
/// this only insists that the graph is a tree.
#[derive(Copy, Clone, Debug, Default)]
pub struct MpdpTree;

impl MpdpTree {
    /// Runs MPDP:Tree. Fails with [`OptError::Internal`] if the join graph is
    /// not a tree (use [`Mpdp`] for general graphs).
    pub fn run(ctx: &OptContext<'_>) -> Result<OptResult, OptError> {
        let (edges, n) = (ctx.query.graph.num_edges(), ctx.query.query_size());
        if edges != n.saturating_sub(1) {
            return Err(OptError::Internal(format!(
                "MPDP:Tree requires a tree join graph ({edges} edges for {n} relations)"
            )));
        }
        Mpdp::run(ctx)
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

    /// The Figure 5 nine-relation cyclic query.
    fn figure5_query() -> QueryInfo {
        let mut g = JoinGraph::new(9);
        for &(u, v) in &[
            (1, 2),
            (2, 4),
            (4, 3),
            (3, 1),
            (4, 5),
            (5, 9),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 6),
        ] {
            g.add_edge(u - 1, v - 1, 0.01);
        }
        let rels = (0..9)
            .map(|i| RelInfo::new(100.0 * (i + 1) as f64, (i + 1) as f64))
            .collect();
        QueryInfo::new(g, rels)
    }

    #[test]
    fn tree_variant_is_general_mpdp_at_the_ccp_lower_bound() {
        // Theorem 3: EvaluatedCounter == CCP-Counter on trees; Lemma 2.
        let model = PgLikeCost::new();
        for q in [chain_query(7), star_query(7)] {
            let ctx = OptContext::new(&q, &model);
            let a = MpdpTree::run(&ctx).unwrap();
            assert_eq!(a.counters.evaluated, a.counters.ccp);
            assert_eq!(a.counters.ccp, DpSub::run(&ctx).unwrap().counters.ccp);
            let b = Mpdp::run(&ctx).unwrap();
            assert_eq!((a.plan, a.counters), (b.plan, b.counters));
        }
    }

    #[test]
    fn tree_variant_rejects_cycles() {
        let q = cycle_query(5);
        let model = PgLikeCost::new();
        assert!(MpdpTree::run(&OptContext::new(&q, &model)).is_err());
    }

    #[test]
    fn general_matches_dpsub_everywhere() {
        let model = PgLikeCost::new();
        for q in [
            chain_query(7),
            star_query(7),
            cycle_query(7),
            figure5_query(),
        ] {
            let a = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
            let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
            assert!(
                (a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0),
                "mpdp={} dpsub={}",
                a.cost,
                b.cost
            );
            assert_eq!(a.counters.ccp, b.counters.ccp, "Lemma 4");
            assert!(a.plan.validate(&q.graph).is_none());
        }
    }

    #[test]
    fn general_on_cycle_meets_lower_bound() {
        // A cycle's blocks are the whole cycle... no: the *induced subgraphs*
        // of a cycle are chains except the full set. Chains' blocks are
        // edges; the full cycle is one block but not a clique for n > 3.
        // Lemma 9 therefore guarantees equality only for n = 3.
        let model = PgLikeCost::new();
        let q = cycle_query(3);
        let r = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
        assert_eq!(r.counters.evaluated, r.counters.ccp);
    }

    #[test]
    fn figure5_block_reduction() {
        // §3.2: "For our cyclic graph example, it reduces from 512 to just
        // 32": set S = {1..9} has blocks of sizes 4,2,2,4 ->
        // Σ 2^b = 16+4+4+16 = 40; minus the 2 empty/full splits per block
        // (2^b - 2 proper non-empty submasks) gives 32 evaluated pairs.
        let q = figure5_query();
        let model = PgLikeCost::new();
        let r = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
        let top_level = r
            .profile
            .levels
            .iter()
            .find(|l| l.size == 9)
            .expect("level 9 present");
        assert_eq!(top_level.evaluated, 32);
        // DPSUB would evaluate 2^9 - 1 = 511 splits for the same set.
    }

    #[test]
    fn mpdp_evaluates_fewer_than_dpsub() {
        // Lemma 7 aggregate check.
        let model = PgLikeCost::new();
        for q in [star_query(8), cycle_query(8), figure5_query()] {
            let a = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
            let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
            assert!(a.counters.evaluated <= b.counters.evaluated);
        }
    }

    #[test]
    fn ccp_pairs_unique_per_set() {
        // Lemma 8: every CCP pair enumerated once. We verify through the
        // aggregate: MPDP's ccp count equals DPSUB's (which enumerates each
        // ordered pair exactly once by construction).
        let model = PgLikeCost::new();
        let q = figure5_query();
        let a = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
        let b = DpSub::run(&OptContext::new(&q, &model)).unwrap();
        assert_eq!(a.counters.ccp, b.counters.ccp);
    }

    #[test]
    fn a_spent_budget_times_out_between_polls() {
        // The per-set loops look at the clock once per 1 024 sets, not per
        // set. A budget that is gone before the run starts must still end
        // it, and so must one that runs out somewhere inside a run that
        // takes milliseconds.
        use std::time::Duration;
        let q = star_query(14);
        let model = PgLikeCost::new();
        for budget in [Duration::from_nanos(1), Duration::from_micros(300)] {
            for run in [Mpdp::run, DpSub::run] {
                let ctx = OptContext::with_budget(&q, &model, budget);
                assert_eq!(run(&ctx).err(), Some(OptError::Timeout { budget }));
            }
        }
    }

    #[test]
    fn clique_all_pairs_valid() {
        // Lemma 9 for a clique: one block = the clique; every submask pair
        // is a CCP pair.
        let mut g = JoinGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j, 0.1);
            }
        }
        let q = QueryInfo::new(g, vec![RelInfo::new(100.0, 1.0); 5]);
        let model = PgLikeCost::new();
        let r = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
        assert_eq!(r.counters.evaluated, r.counters.ccp);
    }
}
