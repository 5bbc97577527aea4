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
//! run. The simulated GPU runs this kernel too, tables included, and counts
//! its CCC lane charges from what the kernel counts; only its lockstep
//! entries keep the submask walk, whose lanes they charge one by one.
//!
//! The per-set loop exists once, as [`SetKernel`]; the sequential driver here,
//! the CPU-parallel one in `mpdp-parallel` and the simulated-GPU one in
//! `mpdp-gpu` all call it and differ only in scheduling and in how they
//! publish each set's winner. See `DESIGN.md` §4 "The MPDP set kernel". The
//! first two hand it a level's sets eight at a time
//! ([`SetKernel::evaluate_chunk`]), and where the CPU has AVX-512 it prices
//! their bridge, leaf and tabled-block splits one set per lane (§4 "One set
//! per lane", "Every split on lanes"); only the blocks without a table, and
//! what the lanes hand back, stay scalar. The simulator hands it its levels
//! the same way under CCC (§4 "The simulator's charges, counted"); its
//! lockstep entries keep the scalar per-split walk their lane charges need.

use crate::common::{
    finish, init_memo, join_inputs, level_plan, OptContext, OptResult, PricedSplit,
};
use crate::lanes;
pub use crate::lanes::LANES;
use mpdp_core::blocks::{BlockIndex, Bridge, SplitFinder, SplitTable, Walk};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::{candidate_key, MemoEntry, MemoRead, MemoTable};
use mpdp_core::{OptError, QueryInfo, RelSet};
use mpdp_cost::model::{CostModel, LaneForm};

/// Watches the block-level splits of a set as [`SetKernel`] visits them.
/// The simulated GPU's lockstep entries charge lane cycles from here, lane
/// by lane; everyone else passes `()`.
pub trait SplitObserver {
    /// Visit every submask split of every block, connected sides or not, and
    /// report each with both sides' connectivity: the paper's
    /// lane-per-submask walk, which the simulator charges where it needs
    /// the lanes in order. Without it the kernel reports nothing, walks
    /// only the splits whose left side is connected, and reads a tabled
    /// block's splits from its [`SplitTable`], which keeps no
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
    /// On a kernel that counts grow steps ([`SetKernel::counting`]): over
    /// the blocks the kernel walked rather than read from a split table,
    /// the [grow steps](mpdp_core::blocks::BlockSplit::grow_steps) of every
    /// submask split beyond the four of a bridge's split, `T(I) − 2·E(I)`
    /// for each such block's intersection `I`. 0 on any other kernel.
    pub excess_steps: u64,
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
/// [`evaluate_chunk`](Self::evaluate_chunk) prices eight sets at once, one
/// set per AVX-512 lane (the paper's thread per set, §5): the bridges, one
/// per step for all eight; the leaf bridges, each lane's own lowest leaf per
/// step; and each tabled block, each lane its own row of the table. Only
/// the blocks without a table, and what the lanes spill, go through the
/// scalar code above.
///
/// `STEPS` is set only on the simulated GPU's kernel
/// ([`counting`](SetKernel::counting)): its untabled blocks also count the
/// grow steps the device's lanes would take ([`SetOutcome::excess_steps`]),
/// from the same walk. The CPU kernels are compiled without that code.
pub struct SetKernel<'a, const STEPS: bool = false> {
    q: &'a QueryInfo,
    model: &'a dyn CostModel,
    index: &'a BlockIndex,
    splits: SplitFinder,
    /// The model's lane form, where the lanes can run: the CPU has them,
    /// the model declares a form and the query has bridges or split tables.
    lanes: Option<LaneForm>,
    /// What the lanes read besides the sets, built at the first chunk.
    chunks: Option<Box<Chunks<'a>>>,
}

/// What [`SetKernel::evaluate_chunk`] hands the lanes besides the sets,
/// built at a kernel's first chunk: the level-parallel driver makes a
/// kernel per level and worker, and many of them never reach the lanes.
struct Chunks<'a> {
    /// Whether some cyclic block has no table, and so is walked per set.
    walked: bool,
    /// The bridges with no leaf end, which the lanes broadcast.
    inner: Vec<Bridge>,
    /// The leaf of every leaf bridge, and those of them that are their
    /// bridge's lower end (see [`lanes::Sources`]).
    leaves: RelSet,
    low: RelSet,
    /// The leaves' memo entries.
    singles: lanes::Singles,
    /// The split tables.
    tables: Vec<SplitTable<'a>>,
    /// A chunk's spilled splits, kept across chunks.
    spills: Vec<(usize, RelSet)>,
}

impl<'a> Chunks<'a> {
    /// Sorts `index`'s bridges into inner and leaf bridges and reads each
    /// leaf's entry from `memo`.
    fn new<M: MemoRead>(q: &QueryInfo, index: &'a BlockIndex, memo: &M) -> Self {
        // A leaf is a relation of degree 1; of a 2-relation query's one
        // bridge, the higher end, so that the bridge is priced once.
        let (mut inner, mut leaves, mut low) = (Vec::new(), RelSet::EMPTY, RelSet::EMPTY);
        for bridge in &index.bridges {
            let lower = bridge.ends.lowest_bit();
            let leaf = [bridge.ends.difference(lower), lower]
                .into_iter()
                .find(|v| q.graph.adjacency(v.bits().trailing_zeros() as usize).len() == 1);
            match leaf {
                Some(v) => {
                    leaves = leaves.union(v);
                    if v == lower {
                        low = low.union(v);
                    }
                }
                None => inner.push(*bridge),
            }
        }
        let mut singles = lanes::Singles::default();
        for v in leaves.iter() {
            let (cost, rows) = memo
                .cost_rows(RelSet::singleton(v))
                .expect("every relation is laid out");
            (singles.cost[v], singles.rows[v]) = (cost, rows);
        }
        Chunks {
            walked: index.cyclic_blocks().any(|b| b.table().is_none()),
            inner,
            leaves,
            low,
            singles,
            tables: index.cyclic_blocks().filter_map(|b| b.table()).collect(),
            spills: Vec::new(),
        }
    }
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
        Self::build(q, model, index)
    }
}

impl<'a> SetKernel<'a, true> {
    /// [`new`](SetKernel::new), for a kernel that also counts the grow
    /// steps of the blocks it walks ([`SetOutcome::excess_steps`]).
    pub fn counting(q: &'a QueryInfo, model: &'a dyn CostModel, index: &'a BlockIndex) -> Self {
        Self::build(q, model, index)
    }
}

impl<'a, const STEPS: bool> SetKernel<'a, STEPS> {
    fn build(q: &'a QueryInfo, model: &'a dyn CostModel, index: &'a BlockIndex) -> Self {
        let tabled = index.cyclic_blocks().any(|b| b.table().is_some());
        let lanes = match lanes::detected() && (!index.bridges.is_empty() || tabled) {
            true => model.lane_form(),
            false => None,
        };
        SetKernel {
            q,
            model,
            index,
            splits: SplitFinder::new(),
            lanes,
            chunks: None,
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
    /// bridge, leaf and tabled-block splits of all eight are priced one set
    /// per lane, and what the lanes spill and each set's untabled cyclic
    /// blocks, seeded with its lane's minimum, by the scalar code; otherwise
    /// `evaluate` runs per set. The leaves' entries are read from the memo
    /// of the first chunk and kept, so a kernel serves one memo, whose level
    /// 1 is written before the first chunk.
    // Out of line for the reason `evaluate` is.
    #[inline(never)]
    pub fn evaluate_chunk<M: MemoRead>(
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
        let (q, index) = (self.q, self.index);
        let Chunks {
            walked,
            inner,
            leaves,
            low,
            singles,
            tables,
            spills,
        } = &mut **self
            .chunks
            .get_or_insert_with(|| Box::new(Chunks::new(q, index, memo)));
        let src = lanes::Sources {
            bridges: inner,
            leaves: *leaves,
            low: *low,
            singles,
            tables,
        };
        spills.clear();
        let mins = lanes::set_mins(form, view, &src, sets8, rows8, &floors, spills)
            .expect("a kernel has a lane form only where the lanes were detected");
        let mut min: [SetMin<'_, M>; LANES] = std::array::from_fn(|j| {
            let (s, rows, key) = (sets8[j], rows8[j], mins.key[j]);
            SetMin {
                memo,
                model,
                s,
                rows,
                floor: floors[j],
                cost: mins.cost[j],
                key,
                out: SetOutcome {
                    evaluated: mins.evaluated[j],
                    ccp: mins.ccp[j],
                    best: (key != (u64::MAX, u64::MAX)).then_some(MemoEntry {
                        set: s,
                        left: RelSet(key.1),
                        cost: mins.cost[j],
                        rows,
                    }),
                    excess_steps: 0,
                },
            }
        });
        for &(j, left) in spills.iter() {
            min[j].price(left);
        }
        let walked = *walked;
        for (o, min) in out.iter_mut().zip(&mut min) {
            if walked {
                self.blocks::<_, _, false>(min, &mut ());
            }
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
    pub fn evaluate<M: MemoRead, O: SplitObserver>(
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
        self.blocks::<_, _, true>(&mut min, observer);
        min.out
    }

    /// The splits of the set of `min` inside the graph's cyclic blocks,
    /// into `min`: a tabled block's from its table (none where not
    /// `TABLES`: the lanes priced them), any other's from the walk, and
    /// every submask's from the walk for an observer that asks. Where
    /// `STEPS`, the walked blocks' excess grow steps too.
    // Inlined into both callers, so `evaluate` stays one function (see the
    // note on it).
    #[inline(always)]
    fn blocks<M: MemoRead, O: SplitObserver, const TABLES: bool>(
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
                if !TABLES {
                    continue;
                }
                let (evaluated, masks) = table.splits(inside);
                min.out.evaluated += evaluated;
                for &hang in masks {
                    min.consider(hang.intersect(s));
                }
                continue;
            }
            let walk = match (O::EVERY_SPLIT, STEPS) {
                (true, _) => Walk::Every,
                (false, true) => Walk::Counted,
                (false, false) => Walk::Ccp,
            };
            let count = splits.splits(g, &cyclic, inside, walk, |split| {
                if O::EVERY_SPLIT {
                    observer.split(s, split.lb, split.rb, split.lb_ok, split.rb_ok);
                }
                if split.lb_ok && split.rb_ok {
                    let left = split.hang.intersect(s);
                    debug_assert_eq!(left, g.grow(split.lb, s.difference(split.rb)));
                    min.consider(left);
                }
            });
            min.out.evaluated += count.evaluated;
            if STEPS {
                min.out.excess_steps += count.grow_steps - 2 * count.evaluated;
            }
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

impl<M: MemoRead> SetMin<'_, M> {
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
    use mpdp_core::atomic_memo::AtomicMemo;
    use mpdp_core::enumerate::ConnectedSets;
    use mpdp_core::graph::JoinGraph;
    use mpdp_core::memo::{Addressing, MemoStore};
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

    /// A star of `n` relations around relation `hub`, of `hub_rows` rows,
    /// whose leaves have `leaf_rows` rows in turn and each a key join, so
    /// that every set has the hub's rows. The hub has leaves below and
    /// above it: a leaf's split is `{v}` on one side of the hub, the rest
    /// of the set on the other.
    fn star_around(n: usize, hub: usize, hub_rows: f64, leaf_rows: &[f64]) -> QueryInfo {
        let mut g = JoinGraph::new(n);
        let mut rels = vec![RelInfo::new(hub_rows, hub_rows / 100.0); n];
        for (i, leaf) in (0..n).filter(|&v| v != hub).enumerate() {
            let rows = leaf_rows[i % leaf_rows.len()];
            g.add_edge(hub, leaf, 1.0 / rows.max(1.0));
            rels[leaf] = RelInfo::new(rows, rows / 100.0);
        }
        QueryInfo::new(g, rels)
    }

    /// The splits [`SetKernel::evaluate_chunk`] spilled to the scalar code,
    /// as `(set, left)`.
    type Spills = Vec<(RelSet, RelSet)>;

    /// Runs MPDP's levels on a memo laid out over a universe of `universe`
    /// relations and asserts that every chunk of eight consecutive sets of a
    /// level, and eight copies of each set, come out of `evaluate_chunk`
    /// as they come out of `evaluate`, to the bit; the chunks read the split
    /// tables on lanes, `evaluate` walks every block. Returns the spilled
    /// splits and the chunks, or `None` without lanes.
    fn chunk_oracle<M: MemoStore>(
        q: &QueryInfo,
        model: &dyn CostModel,
        universe: usize,
    ) -> Option<(Spills, Vec<[RelSet; LANES]>)> {
        let plan = ConnectedSets::enumerate(q);
        let mut memo = M::laid_out(universe, &plan.sets, &plan.rows);
        for (i, rel) in q.rels.iter().enumerate() {
            memo.update(memo.slot(i), RelSet::EMPTY, rel.cost);
        }
        let (tabled, walked) = (
            BlockIndex::with_tables(&q.graph, plan.sets.len()),
            BlockIndex::new(&q.graph),
        );
        let mut kernel = SetKernel::new(q, model, &tabled);
        kernel.lanes?;
        let mut scalar = SetKernel::new(q, model, &walked);
        let bits = |o: &SetOutcome| {
            let best = o.best.map(|e| (e.left, e.cost.to_bits()));
            (o.evaluated, o.ccp, best)
        };
        let (mut spills, mut seen) = (Vec::new(), Vec::new());
        for i in 2..=q.query_size() {
            let (sets, set_rows) = plan.level(i);
            let want: Vec<SetOutcome> = (sets.iter().zip(set_rows))
                .map(|(&s, &r)| scalar.evaluate(&memo, s, r, &mut ()))
                .collect();
            let eights = sets
                .iter()
                .zip(set_rows)
                .enumerate()
                .map(|(k, (&s, &r))| (k, vec![s; LANES], vec![r; LANES]));
            let chunks = (0..sets.len().saturating_sub(LANES - 1)).map(|k| {
                (
                    k,
                    sets[k..k + LANES].to_vec(),
                    set_rows[k..k + LANES].to_vec(),
                )
            });
            for (k, chunk, chunk_rows) in chunks.chain(eights) {
                let outs = kernel.evaluate_chunk(&memo, &chunk, &chunk_rows);
                for (j, out) in outs.iter().enumerate() {
                    let at = if chunk[0] == chunk[LANES - 1] {
                        k
                    } else {
                        k + j
                    };
                    assert_eq!(bits(out), bits(&want[at]), "{} in a chunk", chunk[j]);
                }
                let spilled = &kernel.chunks.as_ref().unwrap().spills;
                spills.extend(spilled.iter().map(|&(j, left)| (chunk[j], left)));
                seen.push(<[RelSet; LANES]>::try_from(chunk).unwrap());
            }
            for (k, out) in want.iter().enumerate() {
                let e = out.best.expect("every side is laid out");
                memo.update(memo.slot(plan.starts[i - 1] + k), e.left, e.cost);
            }
        }
        Some((spills, seen))
    }

    /// Whether `{left, s \ left}` is a leaf's split: one side is a relation
    /// of degree 1.
    fn is_leaf_split(q: &QueryInfo, s: RelSet, left: RelSet) -> bool {
        [left, s.difference(left)]
            .iter()
            .any(|side| side.len() == 1 && q.graph.adjacency(side.first().unwrap()).len() == 1)
    }

    #[test]
    fn lanes_orient_leaf_splits_both_ways_and_spill_what_they_cannot_price() {
        let model = PgLikeCost::new();
        // Where both inputs are under eight rows the sort-merge is priced,
        // which the lanes hand back, on a direct table too.
        let small = star_around(10, 4, 6.0, &[3.0, 5e3, 5.0, 1e6, 40.0]);
        let Some((spills, _)) = chunk_oracle::<MemoTable>(&small, &model, 10) else {
            return println!("skipped: no lanes (AVX-512 F, DQ not detected)");
        };
        assert!(!spills.is_empty());
        assert!(spills
            .iter()
            .all(|&(s, left)| is_leaf_split(&small, s, left)));
        chunk_oracle::<AtomicMemo>(&small, &model, 10);
        // With no input under eight rows nothing is handed back from a
        // direct table; a universe of 64 relations hashes every home, and
        // a side displaced from its home is handed back.
        let large = star_around(10, 4, 1e6, &[3.0, 5e3, 5.0, 1e6, 40.0]);
        for universe in [10, 64] {
            let (spills, _) = chunk_oracle::<MemoTable>(&large, &model, universe).unwrap();
            chunk_oracle::<AtomicMemo>(&large, &model, universe);
            let plan = ConnectedSets::enumerate(&large);
            let memo = MemoTable::laid_out(universe, &plan.sets, &plan.rows);
            let at = Addressing::for_universe(universe, plan.sets.len());
            let displaced = |side: RelSet| memo.find(side).0 != at.home(side.bits());
            assert_eq!(spills.is_empty(), universe == 10);
            for &(s, left) in &spills {
                assert!(is_leaf_split(&large, s, left));
                assert!(
                    displaced(left) || displaced(s.difference(left)),
                    "{left} of {s}"
                );
            }
        }
    }

    #[test]
    fn lanes_price_the_one_bridge_of_two_relations_once() {
        // Both relations are leaves; the bridge is one split, two pairs.
        let model = PgLikeCost::new();
        let q = star_query(2);
        if chunk_oracle::<MemoTable>(&q, &model, 2).is_some() {
            chunk_oracle::<AtomicMemo>(&q, &model, 64);
            let r = Mpdp::run(&OptContext::new(&q, &model)).unwrap();
            assert_eq!((r.counters.evaluated, r.counters.ccp), (2, 2));
        }
    }

    #[test]
    fn lanes_walk_table_rows_of_every_length_and_spill_what_they_cannot_price() {
        // Figure 5's two 4-cycles have split tables beside two inner
        // bridges, and no leaves. In a chunk, the lanes whose set meets a
        // cycle in one vertex or none have an empty row beside lanes with
        // several splits.
        let model = PgLikeCost::new();
        let q = figure5_query();
        let index = BlockIndex::with_tables(&q.graph, ConnectedSets::enumerate(&q).sets.len());
        let tables: Vec<SplitTable<'_>> = index.cyclic_blocks().filter_map(|b| b.table()).collect();
        assert_eq!(tables.len(), 2);
        let bridge_split = |s: RelSet, left: RelSet| {
            let inside = index.bridges.iter().filter(|b| b.ends.is_subset(s));
            inside.map(|b| s.intersect(b.side)).any(|l| l == left)
        };
        // Where every input is under eight rows, table splits are handed
        // back for their sort-merge; on a universe of 64 relations, for a
        // side displaced from its home.
        let tiny = QueryInfo::new(q.graph.clone(), vec![RelInfo::new(2.0, 1.0); 9]);
        for (q, universe, spill) in [(&q, 9, false), (&tiny, 9, true), (&q, 64, true)] {
            let Some((spills, chunks)) = chunk_oracle::<MemoTable>(q, &model, universe) else {
                return println!("skipped: no lanes (AVX-512 F, DQ not detected)");
            };
            chunk_oracle::<AtomicMemo>(q, &model, universe);
            let (mut mixed, mut lengths) = (0, std::collections::BTreeSet::new());
            for (chunk, table) in chunks
                .iter()
                .flat_map(|c| tables.iter().map(move |t| (c, t)))
            {
                let len = chunk.map(|s| table.splits(s.intersect(table.vertices())).1.len());
                mixed += (len.contains(&0) && len.iter().any(|&l| l > 1)) as usize;
                lengths.extend(len);
            }
            assert!(mixed > 0 && lengths.len() >= 3, "{mixed} {lengths:?}");
            let from_tables = spills.iter().filter(|&&(s, left)| !bridge_split(s, left));
            assert_eq!(from_tables.count() > 0, spill, "universe {universe}");
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
