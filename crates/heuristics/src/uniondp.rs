//! UnionDP — the paper's novel graph-partitioning heuristic (§4.2,
//! Algorithm 4).
//!
//! The key idea: partition the join graph into sub-problems of at most `k`
//! relations, solve each *optimally* with MPDP, contract each solved
//! partition into a composite node, and recurse on the contracted graph
//! until it fits one exact invocation.
//!
//! Partitioning balances two pulls (§4.2): partitions should be as close to
//! `k` as possible (bigger exact sub-problems → better plans), and the total
//! weight of *cut* edges should be high, pushing expensive joins towards the
//! top of the plan tree. Edges are therefore processed "in increasing order
//! of size(leftRelSet + rightRelSet)" with ties broken by increasing weight,
//! and two partitions union only while their combined size stays ≤ `k`.

use crate::large::{
    check_selectivities, mpdp_inner_with_budget, Budget, Composites, LargeOptResult,
};
use crate::unionfind::UnionFind;
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Heap entry: lazily re-keyed edge, popped in increasing (size-sum, weight)
/// order.
struct HeapEdge {
    size_sum: usize,
    weight: f64,
    u: usize,
    v: usize,
}

impl PartialEq for HeapEdge {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEdge {}
impl PartialOrd for HeapEdge {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEdge {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for min-by-(size, weight).
        // `total_cmp`, so the heap's order stays total with a NaN weight
        // among the edges. It agrees with `partial_cmp` on every other
        // weight but −0.0, and a weight is a join cost, which is never −0.0.
        other
            .size_sum
            .cmp(&self.size_sum)
            .then_with(|| other.weight.total_cmp(&self.weight))
    }
}

/// Edge weight: the cost (under the run's model) of joining the two endpoint
/// relations across the edge ("assignEdgeWeights" in Algorithm 4, line 6).
fn edge_weight(q: &LargeQuery, model: &dyn CostModel, u: usize, v: usize, sel: f64) -> f64 {
    let (ru, rv) = (q.rels[u], q.rels[v]);
    let rows = ru.rows * rv.rows * sel;
    model.join_cost(
        InputEst {
            cost: ru.cost,
            rows: ru.rows,
        },
        InputEst {
            cost: rv.cost,
            rows: rv.rows,
        },
        rows,
    )
}

/// The partition phase of one level of UnionDP's recursion (Algorithm 4
/// lines 7-14): the groups of vertices of `q` to plan and contract, each
/// sorted, ordered by their smallest member, and of at most `k` vertices.
fn partition(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: &Budget,
) -> Result<Vec<Vec<usize>>, OptError> {
    // Requirement (2) of §4.2 — "the sum of weight of cut edges of the
    // partitions needs to be as high as possible" — is implemented by
    // reserving the heaviest edges as cut edges: they are withheld from the
    // union pass so the most expensive joins land as late as possible in
    // the plan tree. If withholding them stalls the partitioning entirely
    // (no union possible), they are released, honouring the trade-off with
    // requirement (1).
    let weights: Vec<f64> = q
        .edges
        .iter()
        .map(|e| edge_weight(q, model, e.u as usize, e.v as usize, e.sel))
        .collect();
    let heavy_threshold = {
        let mut sorted = weights.clone();
        // `total_cmp` agrees with `partial_cmp` on every weight but −0.0,
        // and a weight is a join cost, a sum of non-negative scan costs and
        // terms that is never −0.0. A NaN weight sorts last instead of
        // panicking.
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((sorted.len() as f64) * 0.85) as usize;
        sorted.get(idx).copied().unwrap_or(f64::INFINITY)
    };
    let mut uf = UnionFind::new(q.num_rels());
    let mut heavy_pass = false;
    loop {
        let mut heap: BinaryHeap<HeapEdge> = q
            .edges
            .iter()
            .zip(weights.iter())
            .filter(|(_, &w)| heavy_pass || w < heavy_threshold)
            .map(|(e, &w)| HeapEdge {
                size_sum: uf.set_size(e.u as usize) + uf.set_size(e.v as usize),
                weight: w,
                u: e.u as usize,
                v: e.v as usize,
            })
            .collect();
        let mut unions = 0usize;
        while let Some(e) = heap.pop() {
            budget.check()?;
            if uf.find(e.u) == uf.find(e.v) {
                continue;
            }
            let sum = uf.set_size(e.u) + uf.set_size(e.v);
            if sum > k {
                continue; // stays a cut edge
            }
            if sum != e.size_sum {
                // Stale key: re-push with the current size.
                heap.push(HeapEdge { size_sum: sum, ..e });
                continue;
            }
            uf.union(e.u, e.v);
            unions += 1;
        }
        if unions > 0 || heavy_pass {
            break;
        }
        // Light edges alone made no progress; release the heavy ones.
        heavy_pass = true;
    }
    Ok(uf.groups())
}

/// Runs UnionDP with `inner` as the exact step, which receives a
/// *projected* sub-query (scan indices `0..len`) of at most `k` relations.
/// `k` must be at least 2: a smaller bound can contract nothing and returns
/// [`OptError::Internal`].
pub fn uniondp_with_inner(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    if k < 2 {
        return Err(OptError::Internal(format!(
            "UnionDP needs k >= 2, got k = {k}"
        )));
    }
    if q.num_rels() == 0 {
        return Err(OptError::EmptyQuery);
    }
    if !q.is_connected() {
        return Err(OptError::DisconnectedGraph);
    }
    check_selectivities(q)?;
    let mut store = Composites::new(q);
    loop {
        budget.check()?;
        let n = store.query().num_rels();
        if n <= k {
            // Line 1-3: the remaining graph fits one exact invocation.
            let all: Vec<usize> = (0..n).collect();
            store.collapse(&all, model, inner)?;
            return Ok(store.into_plan(q, model));
        }
        // Solve each partition optimally and contract (lines 15-19);
        // singleton partitions stay as they are. `at[v]` is the current id
        // of this level's vertex `v`.
        let mut at: Vec<u32> = (0..n as u32).collect();
        for group in partition(store.query(), model, k, budget)? {
            if group.len() == 1 {
                continue;
            }
            budget.check()?;
            let group: Vec<usize> = group.iter().map(|&v| at[v] as usize).collect();
            let (map, _) = store.collapse(&group, model, inner)?;
            for v in at.iter_mut() {
                *v = map[*v as usize];
            }
        }
        if store.query().num_rels() >= n {
            return Err(OptError::Internal(
                "UnionDP made no progress (partition phase produced no unions)".into(),
            ));
        }
    }
}

/// UnionDP with MPDP as the exact step: the paper's "UnionDP-MPDP (k)"
/// (paper default `k` = 15; "plan quality were similar with k = 25, while
/// running much faster" with 15).
pub fn uniondp_mpdp(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: Option<Duration>,
) -> Result<LargeOptResult, OptError> {
    let b = Budget::new(budget);
    let inner = mpdp_inner_with_budget(model, b);
    Ok(uniondp_with_inner(q, model, k, &inner, &b)?.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goo::Goo;
    use crate::large::validate_large;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;

    #[test]
    fn equals_exact_when_k_covers_query() {
        let m = PgLikeCost::new();
        let q = gen::cycle(9, 3, &m);
        let r = uniondp_mpdp(&q, &m, 9, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }

    #[test]
    fn valid_and_never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..4 {
            let q = gen::random_connected(11, 3, seed, &m);
            let r = uniondp_mpdp(&q, &m, 4, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none(), "seed {seed}");
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(r.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn partitions_respect_k() {
        // Verified indirectly: with k = 4 on a 30-rel snowflake the result
        // must still be a valid full plan (partition projection would fail
        // loudly if sizes leaked past k ≤ 64 invariants).
        let m = PgLikeCost::new();
        let q = gen::snowflake(30, 4, 6, &m);
        let r = uniondp_mpdp(&q, &m, 4, None).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 30);
    }

    #[test]
    fn beats_goo_on_snowflakes() {
        // The paper's Table 1 headline: UnionDP finds much cheaper snowflake
        // plans than GOO. Check it's at least never materially worse across
        // a few seeds, and strictly better on at least one.
        let m = PgLikeCost::new();
        let mut strictly_better = false;
        for seed in 0..5 {
            let q = gen::snowflake(40, 4, seed, &m);
            let u = uniondp_mpdp(&q, &m, 15, None).unwrap();
            let g = Goo::run(&q, &m, None).unwrap();
            if u.cost < g.cost * 0.999 {
                strictly_better = true;
            }
            assert!(
                u.cost <= g.cost * 1.15,
                "seed {seed}: uniondp {} vs goo {}",
                u.cost,
                g.cost
            );
        }
        assert!(strictly_better);
    }

    #[test]
    fn plans_are_the_scalar_kernels_on_the_oracle_queries() {
        // UnionDP's exact step is MPDP, whose set kernel prices bridge
        // splits on lanes where the CPU has them; DPCCP walks the same CCP
        // splits one at a time and keeps the same `candidate_key` minimum.
        // Every plan must match to the bit. A debug build stops at 30
        // relations: DPCCP's 15-relation stars are slow there.
        use crate::testkit::{max_oracle_rels, oracle_queries, plan_bits};
        use mpdp_dp::DpCcp;
        let m = PgLikeCost::new();
        let dpccp = |q: &LargeQuery| {
            let qi = q.to_query_info().expect("at most 64 relations");
            Ok(DpCcp::run(&OptContext::new(&qi, &m))?.plan)
        };
        let b = Budget::new(None);
        let max_n = if cfg!(debug_assertions) {
            30
        } else {
            max_oracle_rels()
        };
        for (name, q) in oracle_queries(max_n) {
            let lanes = uniondp_mpdp(&q, &m, 15, None).unwrap().plan;
            let scalar = uniondp_with_inner(&q, &m, 15, &dpccp, &b).unwrap();
            assert_eq!(plan_bits(&lanes), plan_bits(&scalar), "{name}");
        }
    }

    #[test]
    fn scales_to_hundreds() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(200, 4, 2, &m);
        let r = uniondp_mpdp(&q, &m, 10, Some(Duration::from_secs(120))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 200);
    }
}
