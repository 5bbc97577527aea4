//! Shared plumbing for the exact DP algorithms: optimization context,
//! results, memo initialization and Join-Pair evaluation.

use mpdp_core::combinatorics::{binomial, KSubsets};
use mpdp_core::counters::{Counters, Profile};
use mpdp_core::enumerate::{EnumerationMode, FrontierEnumerator};
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
    /// Optional wall-clock deadline. Algorithms poll it at set granularity
    /// and abort with [`OptError::Timeout`] when exceeded — mirroring the
    /// paper's 1-minute optimization timeouts (§7.2).
    pub deadline: Option<Instant>,
    /// The budget used to construct `deadline` (for error reporting).
    pub budget: Option<Duration>,
    /// How level-structured algorithms enumerate each level's connected
    /// sets: frontier expansion (default) or the paper's unrank-and-filter.
    pub enumeration: EnumerationMode,
}

impl<'a> OptContext<'a> {
    /// Context without a deadline.
    pub fn new(query: &'a QueryInfo, model: &'a dyn CostModel) -> Self {
        OptContext {
            query,
            model,
            deadline: None,
            budget: None,
            enumeration: EnumerationMode::default(),
        }
    }

    /// Context with a time budget starting now.
    pub fn with_budget(query: &'a QueryInfo, model: &'a dyn CostModel, budget: Duration) -> Self {
        OptContext {
            query,
            model,
            deadline: Some(Instant::now() + budget),
            budget: Some(budget),
            enumeration: EnumerationMode::default(),
        }
    }

    /// Selects the connected-set enumeration mode (builder style).
    pub fn with_enumeration(mut self, mode: EnumerationMode) -> Self {
        self.enumeration = mode;
        self
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
/// joined sets on top of them — [`LevelEnumerator::total_sets`] for the
/// level-structured backends, which never re-hash; 0 for one that cannot
/// count its sets first and lets the table grow as it inserts (DPCCP).
/// Generic over [`MemoStore`]: sequential backends instantiate the
/// single-threaded [`mpdp_core::MemoTable`], the parallel and simulated-GPU
/// backends the lock-free [`mpdp_core::AtomicMemo`].
pub fn init_memo<M: MemoStore>(q: &QueryInfo, sets: usize) -> M {
    let mut memo = M::with_capacity(q.query_size() + sets);
    for (i, rel) in q.rels.iter().enumerate() {
        memo.insert_leaf(i, rel.rows, rel.cost);
    }
    memo
}

/// Looks both sides of a split up and estimates the join's output rows from
/// the selectivity `sel` between them — the part of `CreatePlan` that does
/// not depend on the join order. `None` if either side has no memo entry yet.
#[inline]
fn join_inputs<M: MemoStore>(
    memo: &M,
    a: RelSet,
    b: RelSet,
    sel: f64,
) -> Option<(InputEst, InputEst, f64)> {
    let (ea, eb) = (memo.get(a)?, memo.get(b)?);
    let est = |e: mpdp_core::MemoEntry| InputEst {
        cost: e.cost,
        rows: e.rows,
    };
    Some((est(ea), est(eb), ea.rows * eb.rows * sel))
}

/// Prices the ordered Join-Pair `(sl, sr)` against a read-only view of the
/// memo, returning `(cost, output rows)` — the `CreatePlan` step shared by
/// every backend. Returns `None` if either side has no memo entry yet.
///
/// This and [`price_both`] are the only costing the exact backends run;
/// keeping it in one place is what makes costs bit-identical across them.
#[inline]
pub fn price_pair<M: MemoStore>(
    memo: &M,
    q: &QueryInfo,
    model: &dyn CostModel,
    sl: RelSet,
    sr: RelSet,
) -> Option<(f64, f64)> {
    let (l, r, rows) = join_inputs(memo, sl, sr, q.graph.selectivity_between(sl, sr))?;
    Some((model.join_cost(l, r, rows), rows))
}

/// Both join orders of one split, priced by [`price_both`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PricedSplit {
    /// Cost of `a ⋈ b` (`a` on the left).
    pub cost_ab: f64,
    /// Cost of `b ⋈ a`.
    pub cost_ba: f64,
    /// Estimated output rows, the same for both orders.
    pub rows: f64,
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

/// Prices both orders of the split `{a, b}` from one pair of memo lookups
/// and one selectivity product. Each cost is bit-identical to what
/// [`price_pair`] returns for that order (the row estimate is symmetric to
/// the bit, see `JoinGraph::selectivity_between`), so algorithms that walk
/// unordered splits (DPCCP, DPE, MPDP) agree exactly with those that walk
/// ordered pairs (DPSUB, DPSIZE).
#[inline]
pub fn price_both<M: MemoStore>(
    memo: &M,
    q: &QueryInfo,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
) -> Option<PricedSplit> {
    price_both_at(memo, model, a, b, q.graph.selectivity_between(a, b))
}

/// [`price_both`] for a caller that already knows `selectivity_between(a, b)`
/// to the bit (MPDP, for splits along a bridge of the join graph).
#[inline]
pub(crate) fn price_both_at<M: MemoStore>(
    memo: &M,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
    sel: f64,
) -> Option<PricedSplit> {
    let (ia, ib, rows) = join_inputs(memo, a, b, sel)?;
    let (cost_ab, cost_ba) = model.join_cost_both(ia, ib, rows);
    Some(PricedSplit {
        cost_ab,
        cost_ba,
        rows,
    })
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
    q: &QueryInfo,
    model: &dyn CostModel,
    sl: RelSet,
    sr: RelSet,
) -> Result<bool, OptError> {
    let (cost, out_rows) =
        price_pair(memo, q, model, sl, sr).ok_or_else(|| missing_entry(sl, sr))?;
    Ok(memo.insert_if_better(sl.union(sr), sl, cost, out_rows))
}

/// [`emit_pair`] for both orders of the split `{a, b}` at once: one
/// [`price_both`], then one memo update with the better order.
#[inline]
pub(crate) fn emit_both<M: MemoStore>(
    memo: &mut M,
    q: &QueryInfo,
    model: &dyn CostModel,
    a: RelSet,
    b: RelSet,
) -> Result<bool, OptError> {
    let priced = price_both(memo, q, model, a, b).ok_or_else(|| missing_entry(a, b))?;
    let (left, cost) = priced.better(a, b);
    Ok(memo.insert_if_better(a.union(b), left, cost, priced.rows))
}

/// The level plan of every level-synchronous backend (DPSUB, MPDP, DPSIZE,
/// the CPU-parallel drivers and the simulated-GPU drivers): every level's
/// connected sets, enumerated before the first level is evaluated and kept
/// back to back in one vector (8 bytes per set). Knowing all of it up front
/// is what lets a backend create its memo once, at its final size
/// ([`init_memo`] with [`total_sets`](Self::total_sets)).
///
/// Dispatches on [`EnumerationMode`]: the frontier path expands each level's
/// connected sets from the previous one through [`FrontierEnumerator`]; the
/// unranked path streams Gosper's `C(n, i)` candidates and keeps the
/// connected survivors. Both produce the same levels in the same
/// (ascending-bitmap) order, so consumers are bit-identical across modes —
/// only the `unranked` counter and the work spent enumerating differ.
pub struct LevelEnumerator {
    /// Levels `1..=n` (level 1 is the singletons), each ascending by bitmap.
    sets: Vec<RelSet>,
    /// Level `i` is `sets[starts[i - 1]..starts[i]]`.
    starts: Vec<usize>,
    n: usize,
    mode: EnumerationMode,
}

/// One DP level of a [`LevelEnumerator`].
pub struct LevelSets<'a> {
    /// The level's connected sets, ascending by bitmap.
    pub sets: &'a [RelSet],
    /// Candidate subsets unranked to produce them (0 in frontier mode).
    pub unranked: u64,
}

impl LevelEnumerator {
    /// Enumerates levels `1..=n` of the context's query in its enumeration
    /// mode, polling its deadline along the way.
    pub fn new(ctx: &OptContext<'_>) -> Result<Self, OptError> {
        Self::with_mode(ctx, ctx.enumeration)
    }

    /// [`new`](Self::new) in a given mode, for the drivers that take their
    /// lists from the frontier engine whatever the context says (PDP, the
    /// simulated GPU's host side).
    pub fn with_mode(ctx: &OptContext<'_>, mode: EnumerationMode) -> Result<Self, OptError> {
        let graph = &ctx.query.graph;
        let n = graph.num_vertices();
        let (sets, mut starts) = match mode {
            EnumerationMode::Frontier => {
                let mut frontier = FrontierEnumerator::new(graph);
                for _ in 2..=n {
                    frontier.try_advance(|| ctx.check_deadline())?;
                }
                frontier.into_levels()
            }
            EnumerationMode::Unranked => {
                let mut sets: Vec<RelSet> = (0..n).map(RelSet::singleton).collect();
                let mut starts = vec![0];
                for i in 2..=n {
                    starts.push(sets.len());
                    for (k, s) in KSubsets::new(n, i).enumerate() {
                        if k % 4096 == 0 {
                            ctx.check_deadline()?;
                        }
                        if graph.is_connected(s) {
                            sets.push(s);
                        }
                    }
                }
                (sets, starts)
            }
        };
        starts.push(sets.len());
        Ok(LevelEnumerator {
            sets,
            starts,
            n,
            mode,
        })
    }

    /// Connected sets of two or more relations, over all levels — the entries
    /// a run adds to the memo on top of the leaves.
    pub fn total_sets(&self) -> usize {
        self.sets.len() - self.n
    }

    /// Level `i`'s connected sets, `1 ≤ i ≤ n`.
    pub fn level(&self, i: usize) -> LevelSets<'_> {
        let unranked = match self.mode {
            EnumerationMode::Unranked if i >= 2 => binomial(self.n as u64, i as u64),
            _ => 0,
        };
        LevelSets {
            sets: &self.sets[self.starts[i - 1]..self.starts[i]],
            unranked,
        }
    }
}

/// Extracts the final plan and packages the run result, stamping the memo's
/// final health (load factor, probes, CAS retries) into the profile.
pub fn finish<M: MemoStore>(
    memo: &M,
    q: &QueryInfo,
    counters: Counters,
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
        counters,
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
        assert!(emit_pair(&mut memo, &q, &model, sl, sr).unwrap());
        let e = memo.get(sl.union(sr)).unwrap();
        // out rows = 100*200*0.01 = 200
        assert!((e.rows - 200.0).abs() < 1e-9);
        // The mirrored pair lands on the same entry: no new set.
        emit_pair(&mut memo, &q, &model, sr, sl).unwrap();
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn price_both_is_price_pair_twice() {
        let q = two_rel_query();
        let model = PgLikeCost::new();
        let mut memo: MemoTable = init_memo(&q, 1);
        let (a, b) = (RelSet::singleton(0), RelSet::singleton(1));
        let both = price_both(&memo, &q, &model, a, b).unwrap();
        let (ab, rows) = price_pair(&memo, &q, &model, a, b).unwrap();
        let (ba, rows_ba) = price_pair(&memo, &q, &model, b, a).unwrap();
        assert_eq!(both.cost_ab.to_bits(), ab.to_bits());
        assert_eq!(both.cost_ba.to_bits(), ba.to_bits());
        assert_eq!(both.rows.to_bits(), rows.to_bits());
        assert_eq!(rows.to_bits(), rows_ba.to_bits());
        // emit_both leaves what the two emit_pairs would.
        let mut twice = memo.clone();
        emit_pair(&mut twice, &q, &model, a, b).unwrap();
        emit_pair(&mut twice, &q, &model, b, a).unwrap();
        assert!(emit_both(&mut memo, &q, &model, a, b).unwrap());
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
        let mut memo: MemoTable = init_memo(&q, 1);
        let err = emit_pair(
            &mut memo,
            &q,
            &model,
            RelSet::from_indices([0, 1]),
            RelSet::empty(),
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
