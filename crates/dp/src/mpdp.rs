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
//! Lemma 9's bound is the paper's vertex-based walk, which visits every
//! submask of a block. The CPU kernel counts `evaluated` as that walk would,
//! but it walks only the splits whose left side is connected: on a cycle of
//! 18 relations the full set's one block has 131 071 submask splits and 153
//! CCP splits. What a block contributes depends only on its intersection with
//! the set, so a small block's splits are read from a table built once per
//! run. The simulated GPU keeps the submask walk, whose lanes it charges.
//!
//! The per-set loop exists once, as [`SetKernel`]; the sequential driver here,
//! the CPU-parallel one in `mpdp-parallel` and the simulated-GPU one in
//! `mpdp-gpu` all call it and differ only in scheduling and in how they
//! publish each set's winner. See `DESIGN.md` §4 "The MPDP set kernel". The
//! first two hand it a level's sets eight at a time
//! ([`SetKernel::evaluate_chunk`]), and where the CPU has AVX-512 it prices
//! their bridge splits one set per lane (§4 "One set per lane"); the
//! simulator keeps the scalar per-split walk its lane charges need.

use crate::common::{
    finish, init_memo, join_inputs, level_plan, OptContext, OptResult, PricedSplit,
};
use crate::lanes;
pub use crate::lanes::LANES;
use mpdp_core::blocks::{BlockIndex, SplitFinder};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::{candidate_key, MemoEntry, MemoStore, MemoTable};
use mpdp_core::{OptError, QueryInfo, RelSet};
use mpdp_cost::model::{CostModel, LaneForm};

/// Watches the block-level splits of a set as [`SetKernel`] visits them.
/// The simulated GPU charges lane cycles from here; everyone else passes
/// `()`.
pub trait SplitObserver {
    /// Visit every submask split of every block, connected sides or not, and
    /// report each with both sides' connectivity: the paper's
    /// lane-per-submask walk, which the simulator charges. Without it the
    /// kernel reports nothing, walks only the splits whose left side is
    /// connected, and reads a tabled block's splits from its
    /// [`SplitTable`](mpdp_core::blocks::SplitTable), which keeps no
    /// block-level sides.
    const EVERY_SPLIT: bool = false;

    /// One split `{lb, rb}` of a block of `s`, standing for the Join-Pairs
    /// `(lb, rb)` and `(rb, lb)`; the sides' connectivity decides whether
    /// they are CCP pairs. Called only where `EVERY_SPLIT` is set.
    #[inline]
    fn split(&mut self, _s: RelSet, _lb: RelSet, _rb: RelSet, _lb_ok: bool, _rb_ok: bool) {}
}

impl SplitObserver for () {}

/// What [`SetKernel::evaluate`] found for one set.
#[derive(Copy, Clone, Debug, Default)]
pub struct SetOutcome {
    /// Join-Pairs evaluated: Algorithm 3's EvaluatedCounter, both orders of
    /// every submask split of every block, `2·(2^(|b|−1) − 1)` per block `b`
    /// however many of them the kernel walks.
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
/// inside each block, extend them to set-level pairs, price them and keep
/// the best. Holds the per-query block structure by reference and its own
/// scratch (in place of a `find_blocks` per set), so a call allocates
/// nothing; each worker owns one.
///
/// Eight things keep a set cheap, none of which changes a result:
///
/// * bridges of the whole graph split `S` by a precomputed mask, and block
///   finding runs only inside the graph's cyclic blocks ([`BlockIndex`]) — on
///   a tree-shaped `S` there is no DFS and no `grow`, which is Algorithm 2;
/// * a cyclic block `B` with fewer subsets than the query has connected sets
///   keeps the outcome of what follows for every `S ∩ B` in a split table,
///   built once per run ([`BlockIndex::with_tables`]): per set it costs one
///   intersection, one rank and one AND per CCP split, the bridge's form;
/// * inside any other cyclic block there is no DFS either when `S ⊇ B` or
///   `|S ∩ B| = 2`, where the blocks are known
///   ([`BlockFinder::find_in_block`](mpdp_core::blocks::BlockFinder::find_in_block));
/// * inside a block only the connected left sides are walked
///   ([`SplitWalk`](mpdp_core::blocks::SplitWalk)), so the work is per CCP
///   split, not per submask; only the right side is tested, and `evaluated`
///   — Algorithm 3's counter, which counts every submask — is counted in
///   closed form;
/// * a block split becomes a set split through the block's hanging masks
///   ([`CyclicBlock::hanging`](mpdp_core::blocks::CyclicBlock::hanging)),
///   not a `grow` across `S`; the walk from `S ∩ B` to those masks is one
///   function, [`SplitFinder::splits`], which also builds the tables;
/// * each block split is visited once, from the side holding the block's
///   lowest vertex, and stands for both Join-Pairs: `(lb, rb)` extends to
///   `(sl, S \ sl)` and `(rb, lb)` to exactly the mirrored `(S \ sl, sl)`;
/// * both orders are priced by one `join_cost_both`, as `common::price_both`
///   does, from the set's cardinality, which the caller reads off the level
///   plan; a split is not priced at all when its inputs plus the model's
///   [`join_cost_floor`](CostModel::join_cost_floor) already exceed the best
///   plan found for the set — it cannot win;
/// * the set's candidates are reduced here under [`candidate_key`] and
///   published once by the caller, into the slot the memo's layout gave the
///   set (the paper's fused prune, §5). The minimum does not depend on the
///   order the splits arrive in, so neither walk order, table order nor the
///   floor can change the winner.
///
/// [`evaluate_chunk`](Self::evaluate_chunk) runs the bridge loop of eight
/// sets at once, one set per AVX-512 lane (the paper's thread per set, §5),
/// and each set's cyclic blocks through the code above, tables included.
pub struct SetKernel<'a> {
    q: &'a QueryInfo,
    model: &'a dyn CostModel,
    index: &'a BlockIndex,
    splits: SplitFinder,
    /// The model's lane form, where the lanes can run: the CPU has them,
    /// the model declares a form and the query has bridges.
    lanes: Option<LaneForm>,
}

/// The fewest sets a level needs for its chunks to run on lanes: below it
/// the per-chunk set-up (floors, stores, eight seeded minimums, the
/// outcomes' array) is not repaid.
const LANE_LEVEL_MIN: usize = 4 * LANES;

impl<'a> SetKernel<'a> {
    /// A kernel for `q`, whose graph `index` was built from. An index with
    /// split tables ([`BlockIndex::with_tables`]) is read-only, so every
    /// worker's kernel can share one.
    pub fn new(q: &'a QueryInfo, model: &'a dyn CostModel, index: &'a BlockIndex) -> Self {
        let lanes = match lanes::detected() && !index.bridges.is_empty() {
            true => model.lane_form(),
            false => None,
        };
        SetKernel {
            q,
            model,
            index,
            splits: SplitFinder::new(),
            lanes,
        }
    }

    /// Whether a driver should hand a level of `sets` connected sets to
    /// [`evaluate_chunk`](Self::evaluate_chunk), eight at a time, rather
    /// than to [`evaluate`](Self::evaluate) one at a time: where the kernel
    /// has lanes and the level is long enough to repay a chunk's set-up.
    pub fn lanes_for(&self, sets: usize) -> bool {
        self.lanes.is_some() && sets >= LANE_LEVEL_MIN
    }

    /// [`evaluate`](Self::evaluate) for each of `sets` (at most [`LANES`]
    /// of one level, with their cardinalities `rows`), with no observer:
    /// `out[j]` is `sets[j]`'s outcome, to the bit. Where the kernel has
    /// lanes, the chunk is whole and the memo offers a gather view, the
    /// bridge splits of all eight are priced one set per lane, and each
    /// set's cyclic blocks, seeded with its lane's minimum, by the scalar
    /// code; otherwise `evaluate` runs per set.
    // Out of line for the reason `evaluate` is.
    #[inline(never)]
    pub fn evaluate_chunk<M: MemoStore>(
        &mut self,
        memo: &M,
        sets: &[RelSet],
        rows: &[f64],
    ) -> [SetOutcome; LANES] {
        let mut out = [SetOutcome::default(); LANES];
        let whole = <&[RelSet; LANES]>::try_from(sets)
            .ok()
            .zip(<&[f64; LANES]>::try_from(rows).ok());
        let (Some(form), Some(view), Some((sets8, rows8))) = (self.lanes, memo.lanes(), whole)
        else {
            for ((o, &s), &rows) in out.iter_mut().zip(sets).zip(rows) {
                *o = self.evaluate(memo, s, rows, &mut ());
            }
            return out;
        };
        let model = self.model;
        let floors = rows8.map(|rows| model.join_cost_floor(rows));
        let bridges = &self.index.bridges;
        let mins = lanes::bridge_mins(form, view, bridges, sets8, rows8, &floors)
            .expect("a kernel has a lane form only where the lanes were detected");
        for (j, o) in out.iter_mut().enumerate() {
            let (s, rows) = (sets8[j], rows8[j]);
            let key = mins.key[j];
            let mut min = SetMin {
                memo,
                model,
                s,
                rows,
                floor: floors[j],
                cost: mins.cost[j],
                key,
                out: SetOutcome {
                    evaluated: mins.pairs[j],
                    ccp: mins.pairs[j],
                    best: (key != (u64::MAX, u64::MAX)).then_some(MemoEntry {
                        set: s,
                        left: RelSet(key.1),
                        cost: mins.cost[j],
                        rows,
                    }),
                },
            };
            if mins.any_pending >> j & 1 != 0 {
                for (bridge, &pending) in bridges.iter().zip(&mins.pending) {
                    if pending >> j & 1 != 0 {
                        min.price(s.intersect(bridge.side));
                    }
                }
            }
            self.blocks(&mut min, &mut ());
            *o = min.out;
        }
        out
    }

    /// Evaluates the connected set `s`, of cardinality `rows`, against
    /// `memo`, which must hold every connected proper subset of `s`.
    // Out of line on purpose: the drivers' loops around it are a few lines,
    // and inlined into each of them the kernel's inner loops were laid out
    // per caller, so one source timed differently in the sequential driver
    // and the level-parallel worker (DESIGN.md §4, "One connected set").
    #[inline(never)]
    pub fn evaluate<M: MemoStore, O: SplitObserver>(
        &mut self,
        memo: &M,
        s: RelSet,
        rows: f64,
        observer: &mut O,
    ) -> SetOutcome {
        let mut min = SetMin {
            memo,
            model: self.model,
            s,
            rows,
            floor: self.model.join_cost_floor(rows),
            cost: f64::INFINITY,
            key: (u64::MAX, u64::MAX),
            out: SetOutcome::default(),
        };
        for bridge in &self.index.bridges {
            if bridge.ends.is_subset(s) {
                min.out.evaluated += 2;
                if O::EVERY_SPLIT {
                    let lb = bridge.ends.lowest_bit();
                    observer.split(s, lb, bridge.ends.difference(lb), true, true);
                }
                min.consider(s.intersect(bridge.side));
            }
        }
        self.blocks(&mut min, observer);
        min.out
    }

    /// The splits of the set of `min` inside the graph's cyclic blocks,
    /// into `min`: a tabled block's from its table, any other's from the
    /// walk, and every submask's from the walk for an observer that asks.
    // Inlined into both callers, so `evaluate` stays one function (see the
    // note on it).
    #[inline(always)]
    fn blocks<M: MemoStore, O: SplitObserver>(
        &mut self,
        min: &mut SetMin<'_, M>,
        observer: &mut O,
    ) {
        let SetKernel {
            q, index, splits, ..
        } = self;
        let (g, s) = (&q.graph, min.s);
        for cyclic in index.cyclic_blocks() {
            let inside = s.intersect(cyclic.vertices);
            if inside.difference(inside.lowest_bit()).is_empty() {
                continue; // no edge of the block in `s`
            }
            if let Some(table) = cyclic.table().filter(|_| !O::EVERY_SPLIT) {
                let (evaluated, masks) = table.splits(inside);
                min.out.evaluated += evaluated;
                for &hang in masks {
                    min.consider(hang.intersect(s));
                }
                continue;
            }
            min.out.evaluated += splits.splits(g, &cyclic, inside, O::EVERY_SPLIT, |split| {
                if O::EVERY_SPLIT {
                    observer.split(s, split.lb, split.rb, split.lb_ok, split.rb_ok);
                }
                if split.lb_ok && split.rb_ok {
                    let left = split.hang.intersect(s);
                    debug_assert_eq!(left, g.grow(split.lb, s.difference(split.rb)));
                    min.consider(left);
                }
            });
        }
    }
}

/// A set's running minimum while [`SetKernel::evaluate`] prices its splits.
struct SetMin<'k, M> {
    memo: &'k M,
    model: &'k dyn CostModel,
    s: RelSet,
    rows: f64,
    /// What any join into `s` costs on top of its inputs.
    floor: f64,
    /// The cost of the set's best plan so far, and its `candidate_key`.
    cost: f64,
    key: (u64, u64),
    out: SetOutcome,
}

impl<M: MemoStore> SetMin<'_, M> {
    /// Prices both orders of the CCP split `{left, s \ left}` and keeps the
    /// set's running minimum.
    // Inlined into each walk on purpose: called out of line, the bridge loop
    // (all that a tree-shaped set runs) paid a call per split, `star-15`
    // 7-13 % slower.
    #[inline(always)]
    fn consider(&mut self, left: RelSet) {
        self.out.ccp += 2;
        self.price(left);
    }

    /// [`consider`](Self::consider) without the count: the split's pricing
    /// and the running minimum.
    #[inline(always)]
    fn price(&mut self, left: RelSet) {
        let (s, rows) = (self.s, self.rows);
        let right = s.difference(left);
        debug_assert!(!left.is_empty() && !right.is_empty());
        let Some((a, b)) = join_inputs(self.memo, left, right) else {
            return;
        };
        // Both orders cost at least the bound, so a bound above the best
        // loses under `candidate_key` and is not priced. An `f64`
        // comparison, so a NaN bound prunes nothing; the floor's contract
        // covers non-negative row counts only.
        if (a.cost + b.cost) + self.floor > self.cost && a.rows >= 0.0 && b.rows >= 0.0 {
            return;
        }
        let (cost_ab, cost_ba) = self.model.join_cost_both(a, b, rows);
        let (left, cost) = PricedSplit { cost_ab, cost_ba }.better(left, right);
        let key = candidate_key(cost, left);
        if key < self.key {
            self.key = key;
            self.cost = cost;
            self.out.best = Some(MemoEntry {
                set: s,
                left,
                cost,
                rows,
            });
        }
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
        let mut memo: MemoTable = init_memo(q, &plan);
        let mut profile = Profile::default();

        let index = BlockIndex::with_tables(&q.graph, plan.sets.len());
        let mut kernel = SetKernel::new(q, ctx.model, &index);
        for i in 2..=n {
            let (sets, rows) = plan.level(i);
            let start = plan.starts[i - 1];
            let mut level = LevelStats {
                size: i,
                sets: sets.len() as u64,
                ..Default::default()
            };
            let publish = |memo: &mut MemoTable, level: &mut LevelStats, k, out: &SetOutcome| {
                level.evaluated += out.evaluated;
                level.ccp += out.ccp;
                if let Some(e) = out.best {
                    level.memo_writes += memo.update(memo.slot(start + k), e.left, e.cost) as u64;
                }
            };
            if kernel.lanes_for(sets.len()) {
                for (c, (sets, rows)) in sets.chunks(LANES).zip(rows.chunks(LANES)).enumerate() {
                    ctx.poll_deadline(c * LANES)?;
                    let outs = kernel.evaluate_chunk(&memo, sets, rows);
                    for (j, out) in outs[..sets.len()].iter().enumerate() {
                        publish(&mut memo, &mut level, c * LANES + j, out);
                    }
                }
            } else {
                for (k, (&s, &rows)) in sets.iter().zip(rows).enumerate() {
                    ctx.poll_deadline(k)?;
                    let out = kernel.evaluate(&memo, s, rows, &mut ());
                    publish(&mut memo, &mut level, k, &out);
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
