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

use crate::idp::project_large;
use crate::large::{
    check_selectivities, contract, mpdp_inner_with_budget, recost, substitute_leaves, Budget,
    InnerLarge, LargeOptResult, LargeOptimizer,
};
use crate::unionfind::UnionFind;
use mpdp_core::plan::PlanTree;
use mpdp_core::query::{LargeQuery, RelInfo};
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

/// One level of UnionDP's recursion: partition, solve each partition with
/// `inner`, contract. Returns the contracted query and the composite plans.
fn partition_and_solve(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    comps: Vec<PlanTree>,
    budget: &Budget,
) -> Result<(LargeQuery, Vec<PlanTree>), OptError> {
    let n = q.num_rels();
    // Partition phase (Algorithm 4 lines 7-14). Requirement (2) of §4.2 —
    // "the sum of weight of cut edges of the partitions needs to be as high
    // as possible" — is implemented by reserving the heaviest edges as cut
    // edges: they are withheld from the union pass so the most expensive
    // joins land as late as possible in the plan tree. If withholding them
    // stalls the partitioning entirely (no union possible), they are
    // released, honouring the trade-off with requirement (1).
    let mut weights: Vec<f64> = q
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
    let mut uf = UnionFind::new(n);
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
    weights.clear();

    // Solve each partition optimally and contract (lines 15-19).
    let groups = uf.groups();
    let mut cur = q.clone();
    let mut cur_comps = comps;
    // Track current indices through successive contractions.
    let mut cur_index: Vec<usize> = (0..n).collect();
    for group in groups {
        if group.len() == 1 {
            continue; // singleton partitions stay as they are
        }
        budget.check()?;
        let cur_group: Vec<usize> = group.iter().map(|&g| cur_index[g]).collect();
        let (sub, _) = project_large(&cur, &cur_group);
        let sub_plan = inner(&sub)?;
        let sub_plan = recost(&sub_plan, &sub, model);
        let mapping: Vec<PlanTree> = cur_group.iter().map(|&g| cur_comps[g].clone()).collect();
        let full = substitute_leaves(&sub_plan, &mapping);
        let info = RelInfo::new(sub_plan.rows(), sub_plan.cost());
        let (next, idx_map) = contract(&cur, &cur_group, info);
        let comp_idx = idx_map[cur_group[0]];
        let mut next_comps = vec![
            PlanTree::Scan {
                rel: 0,
                rows: 0.0,
                cost: 0.0
            };
            next.num_rels()
        ];
        for (old, plan) in cur_comps.into_iter().enumerate() {
            let ni = idx_map[old];
            if ni != comp_idx {
                next_comps[ni] = plan;
            }
        }
        next_comps[comp_idx] = full;
        cur_comps = next_comps;
        for ci in cur_index.iter_mut() {
            *ci = idx_map[*ci];
        }
        cur = next;
    }
    Ok((cur, cur_comps))
}

/// Runs UnionDP with a pluggable exact step.
pub fn uniondp_with_inner(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    assert!(k >= 2, "UnionDP needs k >= 2");
    if q.num_rels() == 0 {
        return Err(OptError::EmptyQuery);
    }
    if !q.is_connected() {
        return Err(OptError::DisconnectedGraph);
    }
    check_selectivities(q)?;
    let mut cur = q.clone();
    let mut comps: Vec<PlanTree> = (0..q.num_rels())
        .map(|i| PlanTree::Scan {
            rel: i as u32,
            rows: q.rels[i].rows,
            cost: q.rels[i].cost,
        })
        .collect();
    loop {
        budget.check()?;
        if cur.num_rels() <= k {
            // Line 1-3: the remaining graph fits one exact invocation.
            let plan = inner(&cur)?;
            let plan = recost(&plan, &cur, model);
            let full = substitute_leaves(&plan, &comps);
            return Ok(recost(&full, q, model));
        }
        let before = cur.num_rels();
        let (next, next_comps) = partition_and_solve(&cur, model, k, inner, comps, budget)?;
        cur = next;
        comps = next_comps;
        if cur.num_rels() >= before {
            return Err(OptError::Internal(
                "UnionDP made no progress (partition phase produced no unions)".into(),
            ));
        }
    }
}

/// The UnionDP optimizer with MPDP as the exact step — the paper's
/// "UnionDP-MPDP (k)".
#[derive(Copy, Clone, Debug)]
pub struct UnionDp {
    /// Maximum partition size (paper default 15; "plan quality were similar
    /// with k = 25, while running much faster" with 15).
    pub k: usize,
}

impl Default for UnionDp {
    fn default() -> Self {
        UnionDp { k: 15 }
    }
}

impl LargeOptimizer for UnionDp {
    fn name(&self) -> String {
        format!("UnionDP-MPDP ({})", self.k)
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let inner = mpdp_inner_with_budget(model, b);
        let plan = uniondp_with_inner(q, model, self.k, &inner, &b)?;
        Ok(LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        })
    }
}

/// UnionDP with a caller-chosen inner optimizer (for ablations).
pub struct UnionDpWith<'a> {
    /// Maximum partition size.
    pub k: usize,
    /// Exact step.
    pub inner: InnerLarge<'a>,
    /// Report label.
    pub label: String,
}

impl LargeOptimizer for UnionDpWith<'_> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let plan = uniondp_with_inner(q, model, self.k, self.inner, &b)?;
        Ok(LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        })
    }
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
        let r = UnionDp { k: 9 }.optimize(&q, &m, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }

    #[test]
    fn valid_and_never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..4 {
            let q = gen::random_connected(11, 3, seed, &m);
            let r = UnionDp { k: 4 }.optimize(&q, &m, None).unwrap();
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
        let r = UnionDp { k: 4 }.optimize(&q, &m, None).unwrap();
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
            let u = UnionDp { k: 15 }.optimize(&q, &m, None).unwrap();
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
            let lanes = UnionDp { k: 15 }.optimize(&q, &m, None).unwrap().plan;
            let scalar = uniondp_with_inner(&q, &m, 15, &dpccp, &b).unwrap();
            assert_eq!(plan_bits(&lanes), plan_bits(&scalar), "{name}");
        }
    }

    #[test]
    fn scales_to_hundreds() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(200, 4, 2, &m);
        let r = UnionDp { k: 10 }
            .optimize(&q, &m, Some(Duration::from_secs(120)))
            .unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 200);
    }
}
