//! IKKBZ — optimal left-deep ordering for acyclic join graphs
//! (Ibaraki–Kameda \[14\], Krishnamurthy–Boral–Zaniolo \[18\]).
//!
//! For a rooted precedence tree the algorithm linearizes subtrees into chains
//! ordered by *rank* `(T − 1) / C`, merging adjacent groups whenever
//! precedence forces a higher-rank group before a lower-rank one. Under the
//! `C_out`-style recursive cost model this yields the optimal left-deep order
//! for each root in `O(n log n)`; trying all roots gives `O(n² log n)`.
//!
//! Per the paper (§7.3) IKKBZ "uses the C_out cost function to estimate the
//! best left-deep join order"; the resulting order is then priced with the
//! evaluation cost model so Tables 1–2 compare like with like. Cyclic graphs
//! are handled the way LinDP's authors do: run IKKBZ on a maximum-selectivity
//! (minimum `sel` value, i.e. most selective) spanning tree and keep all real
//! edges for pricing.

use crate::large::{Budget, LargeOptResult, LargeOptimizer};
use crate::unionfind::UnionFind;
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::time::Duration;

/// A chain group of relations with its compound `T`, `C` and rank.
#[derive(Clone, Debug)]
struct Group {
    rels: Vec<usize>,
    t: f64,
    c: f64,
}

impl Group {
    fn single(rel: usize, t: f64) -> Self {
        Group {
            rels: vec![rel],
            t,
            c: t.max(f64::MIN_POSITIVE),
        }
    }

    fn rank(&self) -> f64 {
        (self.t - 1.0) / self.c
    }

    fn merge(&mut self, next: Group) {
        // C(AB) = C(A) + T(A)·C(B); T(AB) = T(A)·T(B).
        self.c += self.t * next.c;
        self.t *= next.t;
        self.rels.extend(next.rels);
    }
}

/// Normalizes a sequence so ranks ascend, merging groups whose successor has
/// a smaller rank (precedence-forced merges).
fn normalize(mut seq: Vec<Group>) -> Vec<Group> {
    let mut i = 0usize;
    while i + 1 < seq.len() {
        if seq[i].rank() > seq[i + 1].rank() + 1e-15 {
            let next = seq.remove(i + 1);
            seq[i].merge(next);
            // Step back: the merge may have violated the predecessor's rank.
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
    seq
}

/// Stable merge of independent ascending chains by rank.
fn merge_chains(chains: Vec<Vec<Group>>) -> Vec<Group> {
    let mut all: Vec<Group> = chains.into_iter().flatten().collect();
    all.sort_by(|a, b| a.rank().partial_cmp(&b.rank()).unwrap());
    all
}

/// Spanning tree of a (possibly cyclic) query, preferring the most selective
/// edges. Returns `children`/`parent_sel` arrays for the root-free tree as an
/// adjacency list of `(neighbor, sel)`.
fn spanning_tree(q: &LargeQuery) -> Vec<Vec<(usize, f64)>> {
    let mut edges: Vec<(f64, usize, usize)> = q
        .edges
        .iter()
        .map(|e| (e.sel, e.u as usize, e.v as usize))
        .collect();
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut uf = UnionFind::new(q.num_rels());
    let mut adj = vec![Vec::new(); q.num_rels()];
    for (sel, u, v) in edges {
        if uf.union(u, v) {
            adj[u].push((v, sel));
            adj[v].push((u, sel));
        }
    }
    adj
}

/// Linearizes the subtree rooted at `v` (excluding `v`'s own placement
/// constraints above it): returns an ascending-rank group sequence whose
/// relations must all come after `v`.
fn linearize(v: usize, parent: usize, tree: &[Vec<(usize, f64)>], rows: &[f64]) -> Vec<Group> {
    let mut chains: Vec<Vec<Group>> = Vec::new();
    for &(c, sel) in &tree[v] {
        if c == parent {
            continue;
        }
        let mut chain = vec![Group::single(c, sel * rows[c])];
        chain.extend(linearize(c, v, tree, rows));
        chains.push(normalize(chain));
    }
    normalize(merge_chains(chains))
}

/// Computes the left-deep order for a given root.
fn order_for_root(root: usize, tree: &[Vec<(usize, f64)>], rows: &[f64]) -> Vec<usize> {
    let mut order = vec![root];
    for g in linearize(root, usize::MAX, tree, rows) {
        order.extend(g.rels);
    }
    order
}

/// Walks a left-deep order under the real cost model with *all* original
/// edges (selectivities applied once both endpoints are in the prefix),
/// reporting each join as `(relation joined, output rows, cost so far)`.
/// Returns the final `(rows, cost)`, or `None` if the order is empty or
/// implies a cross product.
fn fold_left_deep(
    q: &LargeQuery,
    order: &[usize],
    model: &dyn CostModel,
    mut joined: impl FnMut(usize, f64, f64),
) -> Option<(f64, f64)> {
    let mut in_prefix = vec![false; q.num_rels()];
    let first = *order.first()?;
    let (mut rows, mut cost) = (q.rels[first].rows, q.rels[first].cost);
    in_prefix[first] = true;
    for &v in &order[1..] {
        let mut sel = 1.0;
        let mut connected = false;
        for &(w, s) in &q.adj[v] {
            if in_prefix[w as usize] {
                sel *= s;
                connected = true;
            }
        }
        if !connected {
            return None;
        }
        let right = q.rels[v];
        let out_rows = rows * right.rows * sel;
        cost = model.join_cost(
            InputEst { cost, rows },
            InputEst {
                cost: right.cost,
                rows: right.rows,
            },
            out_rows,
        );
        rows = out_rows;
        joined(v, rows, cost);
        in_prefix[v] = true;
    }
    Some((rows, cost))
}

/// Prices a left-deep order under the real cost model with *all* original
/// edges and builds its plan. Returns `None` if the order implies a cross
/// product.
pub fn cost_left_deep(
    q: &LargeQuery,
    order: &[usize],
    model: &dyn CostModel,
) -> Option<LargeOptResult> {
    let scan = |rel: usize| PlanTree::Scan {
        rel: rel as u32,
        rows: q.rels[rel].rows,
        cost: q.rels[rel].cost,
    };
    let mut plan = Some(scan(*order.first()?));
    let (rows, cost) = fold_left_deep(q, order, model, |v, rows, cost| {
        plan = Some(PlanTree::Join {
            left: Box::new(plan.take().expect("the prefix's plan")),
            right: Box::new(scan(v)),
            rows,
            cost,
        });
    })?;
    Some(LargeOptResult {
        cost,
        rows,
        plan: plan.expect("the whole order's plan"),
    })
}

/// The IKKBZ optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ikkbz;

impl Ikkbz {
    /// Returns the best left-deep *order* (for LinDP's linearization step).
    pub fn best_order(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: &Budget,
    ) -> Result<Vec<usize>, OptError> {
        let n = q.num_rels();
        if n == 0 {
            return Err(OptError::EmptyQuery);
        }
        if !q.is_connected() {
            return Err(OptError::DisconnectedGraph);
        }
        if n == 1 {
            return Ok(vec![0]);
        }
        let tree = spanning_tree(q);
        let rows: Vec<f64> = q.rels.iter().map(|r| r.rows).collect();
        let mut best: Option<(f64, Vec<usize>)> = None;
        for root in 0..n {
            budget.check()?;
            let order = order_for_root(root, &tree, &rows);
            debug_assert_eq!(order.len(), n);
            // Cost only: the plan is built once, for the winner.
            if let Some((_, cost)) = fold_left_deep(q, &order, model, |_, _, _| {}) {
                match &best {
                    Some((c, _)) if *c <= cost => {}
                    _ => best = Some((cost, order)),
                }
            }
        }
        best.map(|(_, o)| o)
            .ok_or_else(|| OptError::Internal("IKKBZ found no valid order".into()))
    }

    /// Runs IKKBZ, returning the best left-deep plan.
    pub fn run(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let order = Self::best_order(q, model, &b)?;
        cost_left_deep(q, &order, model)
            .ok_or_else(|| OptError::Internal("IKKBZ order not connected".into()))
    }
}

impl LargeOptimizer for Ikkbz {
    fn name(&self) -> String {
        "IKKBZ".into()
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        Ikkbz::run(q, model, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::validate_large;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;

    #[test]
    fn produces_valid_left_deep_plans() {
        let m = PgLikeCost::new();
        for q in [
            gen::star(15, 1, &m),
            gen::snowflake(30, 3, 2, &m),
            gen::chain(20, 3, &m),
            gen::cycle(12, 4, &m),
        ] {
            let r = Ikkbz::run(&q, &m, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none());
            assert!(r.plan.is_left_deep());
            assert_eq!(r.plan.num_rels(), q.num_rels());
        }
    }

    #[test]
    fn cost_only_fold_prices_what_the_plan_builder_prices() {
        // `best_order` ranks roots by the fold alone; the plan built for the
        // winner must carry exactly that cost, and no root may beat it.
        let m = PgLikeCost::new();
        for q in [
            gen::snowflake(30, 3, 2, &m),
            gen::star(15, 1, &m),
            gen::cycle(12, 4, &m),
        ] {
            let tree = spanning_tree(&q);
            let rows: Vec<f64> = q.rels.iter().map(|r| r.rows).collect();
            let best = Ikkbz::run(&q, &m, None).unwrap();
            for root in 0..q.num_rels() {
                let order = order_for_root(root, &tree, &rows);
                let folded = fold_left_deep(&q, &order, &m, |_, _, _| {});
                let built = cost_left_deep(&q, &order, &m);
                assert_eq!(
                    folded.map(|(rows, cost)| (rows.to_bits(), cost.to_bits())),
                    built
                        .as_ref()
                        .map(|r| (r.plan.rows().to_bits(), r.plan.cost().to_bits()))
                );
                if let Some(built) = built {
                    assert!(built.cost >= best.cost, "root {root}");
                }
            }
        }
    }

    #[test]
    fn never_beats_exact_bushy() {
        let m = PgLikeCost::new();
        for seed in 0..5 {
            let q = gen::random_connected(9, 2, seed, &m);
            let ik = Ikkbz::run(&q, &m, None).unwrap();
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(ik.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn optimal_on_two_and_three_chain() {
        // For tiny chains the optimal plan is left-deep, so IKKBZ should be
        // close to exact (it optimizes under Cout-style ranks, then prices
        // with the real model — allow small slack).
        let m = PgLikeCost::new();
        let q = gen::chain(3, 7, &m);
        let ik = Ikkbz::run(&q, &m, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!(ik.cost <= exact.cost * 2.0 + 1e-9);
    }

    #[test]
    fn rank_merge_math() {
        let mut a = Group::single(1, 4.0); // T=4, C=4, rank=0.75
        let b = Group::single(2, 2.0); // T=2, C=2, rank=0.5
        assert!(a.rank() > b.rank());
        a.merge(b);
        // T=8, C=4+4*2=12, rank=(8-1)/12
        assert!((a.t - 8.0).abs() < 1e-12);
        assert!((a.c - 12.0).abs() < 1e-12);
        assert!((a.rank() - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(a.rels, vec![1, 2]);
    }

    #[test]
    fn normalize_orders_ranks() {
        let seq = vec![
            Group::single(0, 8.0), // rank 7/8
            Group::single(1, 2.0), // rank 1/2 < 7/8 -> merge
            Group::single(2, 16.0),
        ];
        let out = normalize(seq);
        for w in out.windows(2) {
            assert!(w[0].rank() <= w[1].rank() + 1e-12);
        }
        // All rels preserved.
        let total: usize = out.iter().map(|g| g.rels.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn scales_to_hundreds() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(200, 4, 5, &m);
        let r = Ikkbz::run(&q, &m, Some(Duration::from_secs(60))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
    }
}
