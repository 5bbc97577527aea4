//! Shared plumbing for the exact DP algorithms: optimization context,
//! results, memo initialization and Join-Pair evaluation.

use mpdp_core::counters::{Counters, Profile};
use mpdp_core::enumerate::ConnectedSets;
use mpdp_core::memo::{candidate_key, MemoStore};
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

/// Creates a memo store pre-loaded with the base-relation leaves
/// (Algorithm 1 lines 1–3 / Algorithm 5 lines 2–4) and room for `sets`
/// joined sets on top of them — every set of the [`level_plan`] past its
/// first level, so no backend's table ever fills up. Generic over
/// [`MemoStore`]: sequential backends instantiate the single-threaded
/// [`mpdp_core::MemoTable`], the parallel and simulated-GPU backends the
/// lock-free [`mpdp_core::AtomicMemo`]. This is where a store learns the
/// query's relation count, and with it whether a set's bitmap can be its slot
/// ([`mpdp_core::memo::Addressing`]).
pub fn init_memo<M: MemoStore>(q: &QueryInfo, sets: usize) -> M {
    let n = q.query_size();
    let mut memo = M::for_universe(n, n + sets);
    for (i, rel) in q.rels.iter().enumerate() {
        memo.insert_leaf(i, rel.rows, rel.cost);
    }
    memo
}

/// [`init_memo`] for the backends that meet a set as the union of a pair and
/// so cannot read its cardinality off the level plan by position (DPCCP, DPE,
/// the DPSIZE family): every connected set is entered up front with its
/// cardinality and a placeholder plan — infinite cost, the whole set as its
/// left side — that loses to every real candidate under [`candidate_key`].
/// Pricing a pair then reads `rows` from the entry it is about to update
/// ([`union_rows`]).
pub fn init_memo_with_rows<M: MemoStore>(q: &QueryInfo, plan: &ConnectedSets) -> M {
    let n = q.query_size();
    let mut memo: M = init_memo(q, plan.sets.len() - n);
    for (&s, &rows) in plan.sets.iter().zip(&plan.rows).skip(n) {
        memo.insert_if_better(s, s, f64::INFINITY, rows);
    }
    memo
}

/// The cardinality of `a ∪ b` in a memo made by [`init_memo_with_rows`].
#[inline]
pub fn union_rows<M: MemoStore>(memo: &M, a: RelSet, b: RelSet) -> Result<f64, OptError> {
    match memo.get(a.union(b)) {
        Some(entry) => Ok(entry.rows),
        None => Err(OptError::Internal(format!(
            "{a} ⋈ {b} is not a set of the level plan"
        ))),
    }
}

/// Looks both sides of a split up — the part of `CreatePlan` that does not
/// depend on the join order. `None` if either side has no memo entry yet.
/// The first half of [`price_both`].
#[inline]
pub(crate) fn join_inputs<M: MemoStore>(
    memo: &M,
    a: RelSet,
    b: RelSet,
) -> Option<(InputEst, InputEst)> {
    let est = |e: mpdp_core::MemoEntry| InputEst {
        cost: e.cost,
        rows: e.rows,
    };
    Some((est(memo.get(a)?), est(memo.get(b)?)))
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
pub fn price_pair<M: MemoStore>(
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
pub fn price_both<M: MemoStore>(
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
/// Algorithms 1–3). Returns whether it did.
///
/// Both sides must already have memo entries; a missing entry indicates an
/// enumeration-order bug and is reported as [`OptError::Internal`].
#[inline]
pub fn emit_pair<M: MemoStore>(
    memo: &mut M,
    model: &dyn CostModel,
    sl: RelSet,
    sr: RelSet,
    out_rows: f64,
) -> Result<bool, OptError> {
    let cost = price_pair(memo, model, sl, sr, out_rows).ok_or_else(|| missing_entry(sl, sr))?;
    Ok(memo.insert_if_better(sl.union(sr), sl, cost, out_rows))
}

/// [`emit_pair`] for both orders of the split `{a, b}` at once: one
/// [`price_both`], then one memo update with the better order.
#[inline]
pub(crate) fn emit_both<M: MemoStore>(
    memo: &mut M,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
    out_rows: f64,
) -> Result<bool, OptError> {
    let priced = price_both(memo, model, a, b, out_rows).ok_or_else(|| missing_entry(a, b))?;
    let (left, cost) = priced.better(a, b);
    Ok(memo.insert_if_better(a.union(b), left, cost, out_rows))
}

/// The level plan of every exact backend: every connected set of the query
/// with its cardinality ([`ConnectedSets`]), enumerated before the first
/// pair is priced — polling the context's deadline along the way — and kept
/// level by level in two parallel vectors (16 bytes per set). Knowing all of
/// it up front is what lets a backend create its memo once, at its final size
/// ([`init_memo`]), and read a set's cardinality instead of deriving it per
/// split.
pub fn level_plan(ctx: &OptContext<'_>) -> Result<ConnectedSets, OptError> {
    ConnectedSets::try_enumerate(ctx.query, || ctx.check_deadline())
}

/// Extracts the final plan and packages the run result: the run's counters
/// are the profile's totals, and the memo's final health (load factor,
/// probes, CAS retries) is stamped into the profile.
pub fn finish<M: MemoStore>(
    memo: &M,
    q: &QueryInfo,
    mut profile: Profile,
) -> Result<OptResult, OptError> {
    let root = q.graph.all_vertices();
    let plan = extract_plan(memo, root)
        .ok_or_else(|| OptError::Internal("memo has no plan for the full query".into()))?;
    profile.memo = Some(memo.health());
    Ok(OptResult {
        cost: plan.cost(),
        rows: plan.rows(),
        plan,
        counters: profile.totals(),
        profile,
        memo_entries: memo.len(),
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

    #[test]
    fn init_memo_loads_leaves() {
        let q = two_rel_query();
        let memo: MemoTable = init_memo(&q, 1);
        assert_eq!(memo.len(), 2);
        let e = memo.get(RelSet::singleton(1)).unwrap();
        assert_eq!(e.rows, 200.0);
        assert!(e.is_leaf());
    }

    #[test]
    fn emit_pair_costs_and_stores() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo: MemoTable = init_memo(&q, 1);
        let sl = RelSet::singleton(0);
        let sr = RelSet::singleton(1);
        assert!(emit_pair(&mut memo, &model, sl, sr, 200.0).unwrap());
        assert_eq!(memo.get(sl.union(sr)).unwrap().rows, 200.0);
        // The mirrored pair lands on the same entry: no new set.
        emit_pair(&mut memo, &model, sr, sl, 200.0).unwrap();
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn price_both_is_price_pair_twice() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo: MemoTable = init_memo(&q, 1);
        let (a, b) = (RelSet::singleton(0), RelSet::singleton(1));
        let both = price_both(&memo, &model, a, b, 200.0).unwrap();
        let ab = price_pair(&memo, &model, a, b, 200.0).unwrap();
        let ba = price_pair(&memo, &model, b, a, 200.0).unwrap();
        assert_eq!(both.cost_ab.to_bits(), ab.to_bits());
        assert_eq!(both.cost_ba.to_bits(), ba.to_bits());
        // emit_both leaves what the two emit_pairs would.
        let mut twice = memo.clone();
        emit_pair(&mut twice, &model, a, b, 200.0).unwrap();
        emit_pair(&mut twice, &model, b, a, 200.0).unwrap();
        assert!(emit_both(&mut memo, &model, a, b, 200.0).unwrap());
        let (x, y) = (
            memo.get(a.union(b)).unwrap(),
            twice.get(a.union(b)).unwrap(),
        );
        assert_eq!((x.left, x.cost.to_bits()), (y.left, y.cost.to_bits()));
    }

    #[test]
    fn a_memo_with_rows_holds_every_set_and_any_plan_beats_the_placeholder() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let plan = level_plan(&OptContext::new(&q, &model)).unwrap();
        let mut memo: MemoTable = init_memo_with_rows(&q, &plan);
        let (a, b) = (RelSet::singleton(0), RelSet::singleton(1));
        assert_eq!(memo.len(), 3);
        // rows = 100 * 200 * 0.01
        let rows = union_rows(&memo, a, b).unwrap();
        assert!((rows - 200.0).abs() < 1e-9);
        assert!(union_rows(&memo, a, RelSet::singleton(5)).is_err());
        // Even an infinitely expensive real plan replaces the placeholder.
        assert!(memo.insert_if_better(a.union(b), b, f64::INFINITY, rows));
        assert_eq!(memo.get(a.union(b)).unwrap().left, b);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn emit_pair_missing_side_is_internal_error() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo: MemoTable = init_memo(&q, 1);
        let err = emit_pair(
            &mut memo,
            &model,
            RelSet::from_indices([0, 1]),
            RelSet::empty(),
            1.0,
        );
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
