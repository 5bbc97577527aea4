//! Shared plumbing for the exact DP algorithms: optimization context,
//! results, memo initialization and Join-Pair evaluation.

use mpdp_core::counters::{Counters, Profile};
use mpdp_core::enumerate::ConnectedSets;
use mpdp_core::memo::{candidate_key, MemoRead, MemoStore};
use mpdp_core::plan::{extract_plan, PlanTree};
use mpdp_core::query::QueryInfo;
use mpdp_core::{OptError, RelSet};
use mpdp_cost::model::{CostModel, InputEst};
use std::time::{Duration, Instant};

/// Everything an optimizer run needs.
pub struct OptContext<'a> {
    /// The query to optimize.
    pub query: &'a QueryInfo,
    /// The cost model pricing candidate plans.
    pub model: &'a dyn CostModel,
    /// Optional wall-clock deadline. Algorithms poll it every thousand or
    /// so sets or pairs and abort with [`OptError::Timeout`] when exceeded —
    /// mirroring the paper's 1-minute optimization timeouts (§7.2).
    pub deadline: Option<Instant>,
    /// The budget used to construct `deadline` (for error reporting).
    pub budget: Option<Duration>,
}

impl<'a> OptContext<'a> {
    /// Context without a deadline.
    pub fn new(query: &'a QueryInfo, model: &'a dyn CostModel) -> Self {
        OptContext {
            query,
            model,
            deadline: None,
            budget: None,
        }
    }

    /// Context with a time budget starting now.
    pub fn with_budget(query: &'a QueryInfo, model: &'a dyn CostModel, budget: Duration) -> Self {
        OptContext {
            query,
            model,
            deadline: Some(Instant::now() + budget),
            budget: Some(budget),
        }
    }

    /// Returns `Err(Timeout)` if the deadline has passed.
    #[inline]
    pub fn check_deadline(&self) -> Result<(), OptError> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(OptError::Timeout {
                    budget: self.budget.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }

    /// [`check_deadline`](Self::check_deadline) for a per-set loop at its
    /// `k`-th set: polls the clock (an `Instant::now()`, tens of nanoseconds
    /// against a few hundred of work per set) once per 1 024 sets.
    #[inline]
    pub fn poll_deadline(&self, k: usize) -> Result<(), OptError> {
        if k.is_multiple_of(1024) {
            self.check_deadline()
        } else {
            Ok(())
        }
    }

    /// Validates the query is non-empty, connected and within the 64-relation
    /// exact-DP limit.
    pub fn validate_exact(&self) -> Result<(), OptError> {
        let n = self.query.query_size();
        if n == 0 {
            return Err(OptError::EmptyQuery);
        }
        if n > 64 {
            return Err(OptError::TooLarge { got: n, max: 64 });
        }
        if !self
            .query
            .graph
            .is_connected(self.query.graph.all_vertices())
        {
            return Err(OptError::DisconnectedGraph);
        }
        Ok(())
    }
}

/// The outcome of a successful optimizer run.
#[derive(Clone, Debug)]
pub struct OptResult {
    /// The chosen plan.
    pub plan: PlanTree,
    /// Total plan cost under the run's cost model.
    pub cost: f64,
    /// Estimated output cardinality of the full join.
    pub rows: f64,
    /// Join-Pair counters (`EvaluatedCounter` / `CCP-Counter`).
    pub counters: Counters,
    /// Per-level statistics feeding the hardware timing model.
    pub profile: Profile,
    /// Final memo-table size (number of connected sets materialized).
    pub memo_entries: usize,
}

/// Lays a memo store out from the level plan — every connected set with its
/// cardinality, in one pass before the first pair is priced — and plans the
/// base-relation leaves in it (Algorithm 1 lines 1–3 / Algorithm 5 lines
/// 2–4). Generic over [`MemoStore`]: sequential backends instantiate the
/// single-threaded [`mpdp_core::MemoTable`], the parallel and simulated-GPU
/// backends the shared [`mpdp_core::AtomicMemo`]. This is where a store
/// learns the query's relation count, and with it whether a set's bitmap can
/// be its slot ([`mpdp_core::memo::Addressing`]).
pub fn init_memo<M: MemoStore>(q: &QueryInfo, plan: &ConnectedSets) -> M {
    let mut memo = M::laid_out(q.query_size(), &plan.sets, &plan.rows);
    // Level 1 is the singletons in ascending order: relation `i` is plan
    // position `i`.
    for (i, rel) in q.rels.iter().enumerate() {
        let slot = memo.slot(i);
        memo.update(slot, RelSet::EMPTY, rel.cost);
    }
    memo
}

/// Looks both sides of a split up — the part of `CreatePlan` that does not
/// depend on the join order. `None` if either side has no memo entry yet.
/// The first half of [`price_both`]. Each side is one
/// [`MemoStore::cost_rows`]: its best cost and cardinality, nothing else.
#[inline]
pub(crate) fn join_inputs<M: MemoRead>(
    memo: &M,
    a: RelSet,
    b: RelSet,
) -> Option<(InputEst, InputEst)> {
    let est = |(cost, rows)| InputEst { cost, rows };
    Some((est(memo.cost_rows(a)?), est(memo.cost_rows(b)?)))
}

/// Prices the ordered Join-Pair `(sl, sr)` against a read-only view of the
/// memo — the `CreatePlan` step shared by every backend. `out_rows` is the
/// cardinality of `sl ∪ sr`, which belongs to the set and not to the pair:
/// callers read it off the level plan. Returns `None` if either side has no
/// memo entry yet.
///
/// This and [`price_both`] are the only costing the exact backends run (the
/// MPDP set kernel does `price_both`'s two steps itself, with its floor check
/// between them); keeping it in one place is what makes costs bit-identical
/// across them.
#[inline]
pub fn price_pair<M: MemoRead>(
    memo: &M,
    model: &dyn CostModel,
    sl: RelSet,
    sr: RelSet,
    out_rows: f64,
) -> Option<f64> {
    let (l, r) = join_inputs(memo, sl, sr)?;
    Some(model.join_cost(l, r, out_rows))
}

/// Both join orders of one split, priced by [`price_both`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PricedSplit {
    /// Cost of `a ⋈ b` (`a` on the left).
    pub cost_ab: f64,
    /// Cost of `b ⋈ a`.
    pub cost_ba: f64,
}

impl PricedSplit {
    /// The order the memo would keep, as `(left side, cost)`: the smaller
    /// [`candidate_key`].
    #[inline]
    pub fn better(&self, a: RelSet, b: RelSet) -> (RelSet, f64) {
        if candidate_key(self.cost_ab, a) <= candidate_key(self.cost_ba, b) {
            (a, self.cost_ab)
        } else {
            (b, self.cost_ba)
        }
    }
}

/// Prices both orders of the split `{a, b}` of a set of `out_rows` rows from
/// one pair of memo lookups. Each cost is bit-identical to what
/// [`price_pair`] returns for that order, so algorithms that walk unordered
/// splits (DPCCP, DPE, MPDP) agree exactly with those that walk ordered pairs
/// (DPSUB, DPSIZE).
#[inline]
pub fn price_both<M: MemoRead>(
    memo: &M,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
    out_rows: f64,
) -> Option<PricedSplit> {
    let (ia, ib) = join_inputs(memo, a, b)?;
    let (cost_ab, cost_ba) = model.join_cost_both(ia, ib, out_rows);
    Some(PricedSplit { cost_ab, cost_ba })
}

fn missing_entry(sl: RelSet, sr: RelSet) -> OptError {
    OptError::Internal(format!("missing memo entry for {sl} ⋈ {sr}"))
}

/// Prices the ordered Join-Pair `(sl, sr)` and records it in the memo if it
/// beats the incumbent plan for `sl ∪ sr` (`CreatePlan` + best-plan update in
/// Algorithms 1–3). Returns whether it did. `(slot, out_rows)` are the
/// union's slot and cardinality: a level-synchronous caller takes them from
/// its level plan position ([`MemoStore::slot`]), a pair-driven one from its
/// one [`MemoStore::find`] of the union.
///
/// Both sides must already have memo entries; a missing entry indicates an
/// enumeration-order bug and is reported as [`OptError::Internal`].
#[inline]
pub fn emit_pair<M: MemoStore>(
    memo: &mut M,
    model: &dyn CostModel,
    sl: RelSet,
    sr: RelSet,
    (slot, out_rows): (usize, f64),
) -> Result<bool, OptError> {
    let cost = price_pair(memo, model, sl, sr, out_rows).ok_or_else(|| missing_entry(sl, sr))?;
    Ok(memo.update(slot, sl, cost))
}

/// [`emit_pair`] for both orders of the split `{a, b}` at once: one
/// [`price_both`], then one memo update with the better order.
#[inline]
pub(crate) fn emit_both<M: MemoStore>(
    memo: &mut M,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
    (slot, out_rows): (usize, f64),
) -> Result<bool, OptError> {
    let priced = price_both(memo, model, a, b, out_rows).ok_or_else(|| missing_entry(a, b))?;
    let (left, cost) = priced.better(a, b);
    Ok(memo.update(slot, left, cost))
}

/// The level plan of every exact backend: every connected set of the query
/// with its cardinality ([`ConnectedSets`]), enumerated before the first
/// pair is priced — polling the context's deadline along the way — and kept
/// level by level in two parallel vectors (16 bytes per set). Knowing all of
/// it up front is what lets a backend lay its memo out once, at its final
/// size ([`init_memo`]), and read a set's cardinality instead of deriving it
/// per split.
pub fn level_plan(ctx: &OptContext<'_>) -> Result<ConnectedSets, OptError> {
    ConnectedSets::try_enumerate(ctx.query, || ctx.check_deadline())
}

/// Extracts the final plan and packages the run result: the run's counters
/// are the profile's totals, and the memo's final health (load factor,
/// probes, retries) is stamped into the profile.
pub fn finish<M: MemoStore>(
    memo: &M,
    q: &QueryInfo,
    mut profile: Profile,
) -> Result<OptResult, OptError> {
    let root = q.graph.all_vertices();
    let plan = extract_plan(memo, root)
        .ok_or_else(|| OptError::Internal("memo has no plan for the full query".into()))?;
    let health = memo.health();
    profile.memo = Some(health);
    Ok(OptResult {
        cost: plan.cost(),
        rows: plan.rows(),
        plan,
        counters: profile.totals(),
        profile,
        memo_entries: health.entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::graph::JoinGraph;
    use mpdp_core::memo::MemoTable;
    use mpdp_core::query::RelInfo;
    use mpdp_cost::pglike::PgLikeCost;

    fn two_rel_query() -> QueryInfo {
        let mut g = JoinGraph::new(2);
        g.add_edge(0, 1, 0.01);
        QueryInfo::new(g, vec![RelInfo::new(100.0, 2.0), RelInfo::new(200.0, 3.0)])
    }

    /// The two-relation query's memo, laid out and with its leaves planned.
    fn two_rel_memo(q: &QueryInfo) -> MemoTable {
        init_memo(q, &ConnectedSets::enumerate(q))
    }

    #[test]
    fn init_memo_lays_out_every_set_and_plans_the_leaves() {
        let q = two_rel_query();
        let memo = two_rel_memo(&q);
        assert_eq!(memo.health().entries, 3);
        let e = memo.get(RelSet::singleton(1)).unwrap();
        assert_eq!((e.rows, e.cost), (200.0, 3.0));
        assert!(e.is_leaf());
        // The join reads unplanned, with rows = 100 * 200 * 0.01.
        let both = RelSet::from_indices([0, 1]);
        let e = memo.get(both).unwrap();
        assert_eq!((e.left, e.cost), (both, f64::INFINITY));
        assert!((e.rows - 200.0).abs() < 1e-9);
    }

    #[test]
    fn emit_pair_costs_and_stores() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo = two_rel_memo(&q);
        let sl = RelSet::singleton(0);
        let sr = RelSet::singleton(1);
        let at = memo.find(sl.union(sr));
        assert!(emit_pair(&mut memo, &model, sl, sr, at).unwrap());
        let e = memo.get(sl.union(sr)).unwrap();
        assert_eq!((e.left, e.rows), (sl, at.1));
        // The mirrored pair lands on the same entry: no new set.
        emit_pair(&mut memo, &model, sr, sl, at).unwrap();
        assert_eq!(memo.health().entries, 3);
    }

    #[test]
    fn price_both_is_price_pair_twice() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo = two_rel_memo(&q);
        let (a, b) = (RelSet::singleton(0), RelSet::singleton(1));
        let at = memo.find(a.union(b));
        let both = price_both(&memo, &model, a, b, at.1).unwrap();
        let ab = price_pair(&memo, &model, a, b, at.1).unwrap();
        let ba = price_pair(&memo, &model, b, a, at.1).unwrap();
        assert_eq!(both.cost_ab.to_bits(), ab.to_bits());
        assert_eq!(both.cost_ba.to_bits(), ba.to_bits());
        // emit_both leaves what the two emit_pairs would.
        let mut twice = memo.clone();
        emit_pair(&mut twice, &model, a, b, at).unwrap();
        emit_pair(&mut twice, &model, b, a, at).unwrap();
        assert!(emit_both(&mut memo, &model, a, b, at).unwrap());
        let (x, y) = (
            memo.get(a.union(b)).unwrap(),
            twice.get(a.union(b)).unwrap(),
        );
        assert_eq!((x.left, x.cost.to_bits()), (y.left, y.cost.to_bits()));
    }

    #[test]
    fn emit_pair_missing_side_is_internal_error() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo = two_rel_memo(&q);
        let both = RelSet::from_indices([0, 1]);
        let at = memo.find(both);
        let err = emit_pair(&mut memo, &model, both, RelSet::empty(), at);
        assert!(err.is_err());
    }

    #[test]
    fn deadline_expires() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let ctx = OptContext::with_budget(&q, &model, Duration::from_nanos(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ctx.check_deadline(),
            Err(OptError::Timeout { .. })
        ));
        let ctx2 = OptContext::new(&q, &model);
        assert!(ctx2.check_deadline().is_ok());
    }

    #[test]
    fn validate_exact_rejects_disconnected() {
        let g = JoinGraph::new(2); // no edges
        let q = QueryInfo::new(g, vec![RelInfo::new(1.0, 1.0); 2]);
        let model = PgLikeCost::new();
        let ctx = OptContext::new(&q, &model);
        assert_eq!(ctx.validate_exact(), Err(OptError::DisconnectedGraph));
    }
}
