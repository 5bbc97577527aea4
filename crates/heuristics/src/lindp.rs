//! LinDP — linearized DP and the adaptive optimizer of Neumann & Radke \[26\].
//!
//! Linearized DP restricts the bushy search space to *intervals* of a linear
//! relation order (here: the best IKKBZ left-deep order) and runs an
//! interval DP over it — "a novel technique that optimizes the left-deep
//! plan found by IKKBZ in polynomial time" (§7.3). The DP walks only the
//! splits whose upper side has a plan: `O(n²)` steps plus one per such
//! split, `O(n³)` only where most intervals are connected.
//!
//! The adaptive driver follows the original paper's thresholds, quoted in
//! §6: "DPCCP for small queries (<14 tables), linearized DP for medium
//! queries (between 14 and 100), and IDP2 with linearized DP for large
//! queries (>100 tables)".

use crate::idp::idp2_with_inner;
use crate::ikkbz::Ikkbz;
use crate::large::{check_selectivities, Budget, LargeOptResult};
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::time::Duration;

/// Interval DP over a fixed linear order: the plan space is all bushy trees
/// whose every subtree covers a contiguous interval of `order`.
///
/// Every table is one flat `n × n` array, `[i * n + j]` for the interval
/// `[i, j]`, and the edges are one list of position pairs.
pub fn interval_dp(
    q: &LargeQuery,
    order: &[usize],
    model: &dyn CostModel,
    budget: &Budget,
) -> Result<LargeOptResult, OptError> {
    let n = order.len();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let at = |i: usize, j: usize| i * n + j;
    let mut pos_of = vec![usize::MAX; q.num_rels()];
    for (p, &r) in order.iter().enumerate() {
        pos_of[r] = p;
    }
    // Each position's edges to the positions below it: `(lower position,
    // higher position, selectivity)`, sorted stably by the pair, so the
    // parallel edges of a pair keep their edge-list order.
    let mut pairs: Vec<(u32, u32, f64)> = Vec::with_capacity(q.edges.len());
    for e in &q.edges {
        let (pu, pv) = (pos_of[e.u as usize], pos_of[e.v as usize]);
        // A self-loop joins nothing: no interval splits between its ends.
        if pu != usize::MAX && pv != usize::MAX && pu != pv {
            pairs.push((pu.min(pv) as u32, pu.max(pv) as u32, e.sel));
        }
    }
    pairs.sort_by_key(|&(lo, hi, _)| (hi, lo));
    // rows[[i, j]]: cardinality of interval [i, j]; edges[[i, j]]: how
    // many position pairs in it share an edge — both built incrementally.
    // Interval [i, j] adds position j's pairs with positions i..j: the
    // pair selectivities (each edge's `sel` multiplied onto 1.0 in edge-list
    // order) multiplied in ascending position order.
    let mut rows = vec![0.0f64; n * n];
    let mut edges = vec![0u32; n * n];
    for i in 0..n {
        rows[at(i, i)] = q.rels[order[i]].rows;
    }
    // lower: j's edged positions below j, ascending, with each pair's
    // selectivity.
    let mut lower: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut next = 0;
    for j in 1..n {
        lower.clear();
        while next < pairs.len() && pairs[next].1 as usize == j {
            let p = pairs[next].0 as usize;
            let mut sel = 1.0;
            while next < pairs.len() && pairs[next].1 as usize == j && pairs[next].0 as usize == p {
                sel *= pairs[next].2;
                next += 1;
            }
            lower.push((p, sel));
        }
        let rows_j = q.rels[order[j]].rows;
        // lower[first..] are the edged positions in i..j.
        let mut first = lower.len();
        for i in (0..j).rev() {
            while first > 0 && lower[first - 1].0 >= i {
                first -= 1;
            }
            let mut cross_sel = 1.0;
            for &(_, sel) in &lower[first..] {
                cross_sel *= sel;
            }
            rows[at(i, j)] = rows[at(i, j - 1)] * rows_j * cross_sel;
            edges[at(i, j)] = edges[at(i, j - 1)] + (lower.len() - first) as u32;
        }
    }
    // DP over intervals: best (cost, split, order) per [i, j]. A split
    // `k` needs both `[i, k]` and `[k + 1, j]` to have a plan, so `[i, j]`
    // walks only the starts `s = k + 1` of `j`'s intervals that have one:
    // `starts[at(j, ..)]`, the first `n_starts[j]` of the row, in the order
    // they were planned, shortest interval first, so read backwards they
    // ascend. They are the candidates of the dense `k in i..j` loop whose
    // upper side passes its infinity test, in its order, so every cost,
    // split and swap is the same.
    let mut cost = vec![f64::INFINITY; n * n];
    let mut split = vec![u32::MAX; n * n];
    let mut swapped = vec![false; n * n];
    let mut starts = vec![0u32; n * n];
    let mut n_starts = vec![0usize; n];
    for i in 0..n {
        cost[at(i, i)] = q.rels[order[i]].cost;
        if !cost[at(i, i)].is_infinite() {
            starts[at(i, 0)] = i as u32;
            n_starts[i] = 1;
        }
    }
    for len in 2..=n {
        budget.check()?;
        for i in 0..=(n - len) {
            let j = i + len - 1;
            let out_rows = rows[at(i, j)];
            for &s in starts[at(j, 0)..at(j, n_starts[j])].iter().rev() {
                let k = s as usize - 1;
                let lo_cost = cost[at(i, k)];
                if lo_cost.is_infinite() {
                    continue;
                }
                // Cross-product-free: the two sides must share an edge.
                let crossing = edges[at(i, j)] - edges[at(i, k)] - edges[at(k + 1, j)];
                if crossing == 0 {
                    continue;
                }
                let lo = InputEst {
                    cost: lo_cost,
                    rows: rows[at(i, k)],
                };
                let hi = InputEst {
                    cost: cost[at(k + 1, j)],
                    rows: rows[at(k + 1, j)],
                };
                // The cost model is order-sensitive (hash build side); try
                // both orders like the exact DP does.
                let c_fwd = model.join_cost(lo, hi, out_rows);
                let c_rev = model.join_cost(hi, lo, out_rows);
                let (c, sw) = if c_fwd <= c_rev {
                    (c_fwd, false)
                } else {
                    (c_rev, true)
                };
                if c < cost[at(i, j)] {
                    cost[at(i, j)] = c;
                    split[at(i, j)] = k as u32;
                    swapped[at(i, j)] = sw;
                }
            }
            if !cost[at(i, j)].is_infinite() {
                starts[at(j, n_starts[j])] = i as u32;
                n_starts[j] += 1;
            }
        }
    }
    if cost[at(0, n - 1)].is_infinite() {
        return Err(OptError::Internal(
            "interval DP found no cross-product-free plan for the order".into(),
        ));
    }
    // Reconstruct.
    struct Tables<'a> {
        n: usize,
        order: &'a [usize],
        rows: &'a [f64],
        cost: &'a [f64],
        split: &'a [u32],
        swapped: &'a [bool],
    }
    fn build(t: &Tables, i: usize, j: usize) -> PlanTree {
        let ij = i * t.n + j;
        if i == j {
            return PlanTree::Scan {
                rel: t.order[i] as u32,
                rows: t.rows[ij],
                cost: t.cost[ij],
            };
        }
        let k = t.split[ij] as usize;
        let lo = build(t, i, k);
        let hi = build(t, k + 1, j);
        let (l, r) = if t.swapped[ij] { (hi, lo) } else { (lo, hi) };
        PlanTree::Join {
            left: Box::new(l),
            right: Box::new(r),
            rows: t.rows[ij],
            cost: t.cost[ij],
        }
    }
    let tables = Tables {
        n,
        order,
        rows: &rows,
        cost: &cost,
        split: &split,
        swapped: &swapped,
    };
    Ok(build(&tables, 0, n - 1).into())
}

/// Linearized DP on one query: IKKBZ order, then interval DP.
pub fn linearized_dp(
    q: &LargeQuery,
    model: &dyn CostModel,
    budget: &Budget,
) -> Result<LargeOptResult, OptError> {
    let order = Ikkbz::best_order(q, model, budget)?;
    interval_dp(q, &order, model, budget)
}

/// The adaptive LinDP optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct LinDp;

impl LinDp {
    /// Below this many relations LinDP plans exactly, with DPCCP.
    const EXACT_THRESHOLD: usize = 14;
    /// Above this many relations LinDP runs IDP2 with linearized-DP blocks
    /// of up to this many relations.
    const IDP_THRESHOLD: usize = 100;

    /// Runs adaptive LinDP.
    pub fn run(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let n = q.num_rels();
        if n < Self::EXACT_THRESHOLD {
            check_selectivities(q)?;
            let qi = q.to_query_info().expect("at most 13 relations");
            let ctx = mpdp_dp::common::OptContext::new(&qi, model);
            let r = mpdp_dp::dpccp::DpCcp::run(&ctx)?;
            return Ok(LargeOptResult {
                cost: r.cost,
                rows: r.rows,
                plan: r.plan,
            });
        }
        if n <= Self::IDP_THRESHOLD {
            return linearized_dp(q, model, &b);
        }
        let inner = |sub: &LargeQuery| -> Result<PlanTree, OptError> {
            Ok(linearized_dp(sub, model, &b)?.plan)
        };
        Ok(idp2_with_inner(q, model, Self::IDP_THRESHOLD, &inner, &b)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::validate_large;
    use crate::testkit::{max_oracle_rels, oracle_queries, plan_bits, property_graphs};
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn interval_dp_on_chain_is_exact() {
        // For a chain whose order equals the chain, every connected set is
        // an interval, so interval DP covers the full bushy space.
        let m = PgLikeCost::new();
        let q = gen::chain(8, 3, &m);
        let order: Vec<usize> = (0..8).collect();
        let b = Budget::new(None);
        let r = interval_dp(&q, &order, &m, &b).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
        assert!(validate_large(&r.plan, &q).is_none());
    }

    /// Plans `order` with `interval_dp` and its reference: both must fail,
    /// or return the same plan bit for bit. Returns whether they planned.
    fn same_as_the_reference(name: &str, q: &LargeQuery, order: &[usize]) -> bool {
        let (m, b) = (PgLikeCost::new(), Budget::new(None));
        match (
            interval_dp(q, order, &m, &b),
            reference::interval_dp(q, order, &m, &b),
        ) {
            (Ok(f), Ok(r)) => {
                assert_eq!(plan_bits(&f.plan), plan_bits(&r.plan), "{name}");
                assert_eq!(f.cost.to_bits(), r.cost.to_bits(), "{name}");
                assert_eq!(f.rows.to_bits(), r.rows.to_bits(), "{name}");
                true
            }
            (Err(_), Err(_)) => false,
            (f, r) => panic!("{name}: {:?} against {:?}", f.is_ok(), r.is_ok()),
        }
    }

    #[test]
    fn interval_dp_plans_equal_the_reference_bit_for_bit() {
        let m = PgLikeCost::new();
        let b = Budget::new(None);
        for (name, q) in oracle_queries(max_oracle_rels()) {
            let best = Ikkbz::best_order(&q, &m, &b).unwrap();
            // The identity order mostly implies cross products; both sides
            // must then fail alike.
            let identity: Vec<usize> = (0..q.num_rels()).collect();
            for order in [best, identity] {
                same_as_the_reference(&name, &q, &order);
            }
        }
    }

    #[test]
    fn interval_dp_equals_the_reference_on_random_orders() {
        // Orders IKKBZ would not choose, on random graphs, cliques, cycles
        // and equal-statistics stars: a seeded shuffle, which leaves many
        // intervals without a plan (often the whole order too), and a seeded
        // random traversal, each relation next to one before it, so every
        // prefix has a plan. A clique's or cycle's split can cross more than
        // one edge.
        let mut rng = StdRng::seed_from_u64(49);
        let (mut planned, mut orders) = (0, 0);
        for (name, q) in property_graphs(max_oracle_rels(), 24) {
            let n = q.num_rels();
            for _ in 0..4 {
                let mut shuffled: Vec<usize> = (0..n).collect();
                shuffled.shuffle(&mut rng);
                let mut traversal = vec![rng.gen_range(0..n)];
                let mut seen = vec![false; n];
                seen[traversal[0]] = true;
                let mut frontier: Vec<usize> = Vec::new();
                while traversal.len() < n {
                    let last = *traversal.last().unwrap();
                    frontier.extend(q.adj[last].iter().map(|&(w, _)| w as usize));
                    let next = loop {
                        let w = frontier.swap_remove(rng.gen_range(0..frontier.len()));
                        if !seen[w] {
                            break w;
                        }
                    };
                    seen[next] = true;
                    traversal.push(next);
                }
                assert!(same_as_the_reference(&name, &q, &traversal), "{name}");
                planned += same_as_the_reference(&name, &q, &shuffled) as usize;
                orders += 1;
            }
        }
        // Some shuffles plan and some do not.
        assert!(planned > 0 && planned < orders, "{planned} of {orders}");
    }

    #[test]
    fn interval_dp_never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..4 {
            let q = gen::random_connected(9, 3, seed, &m);
            let b = Budget::new(None);
            let r = linearized_dp(&q, &m, &b).unwrap();
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(r.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
            assert!(validate_large(&r.plan, &q).is_none());
        }
    }

    #[test]
    fn lindp_at_least_as_good_as_ikkbz() {
        // Interval DP searches a superset of the left-deep plans over the
        // same order.
        let m = PgLikeCost::new();
        for q in [gen::star(20, 2, &m), gen::snowflake(40, 4, 3, &m)] {
            let lin = LinDp::run(&q, &m, None).unwrap();
            let ik = Ikkbz::run(&q, &m, None).unwrap();
            assert!(lin.cost <= ik.cost * (1.0 + 1e-9));
        }
    }

    #[test]
    fn adaptive_small_uses_exact() {
        let m = PgLikeCost::new();
        let q = gen::cycle(8, 1, &m);
        let lin = LinDp::run(&q, &m, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((lin.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }

    #[test]
    fn adaptive_large_uses_idp_blocks() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(150, 4, 8, &m);
        let r = LinDp::run(&q, &m, Some(Duration::from_secs(120))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 150);
    }
}

/// The interval DP as it was before the flat tables — `Vec<Vec<_>>` per
/// table and each interval's selectivity multiplied over the whole `i..j`
/// row — kept as the oracle the flat version must equal bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn interval_dp(
        q: &LargeQuery,
        order: &[usize],
        model: &dyn CostModel,
        budget: &Budget,
    ) -> Result<LargeOptResult, OptError> {
        let n = order.len();
        let mut sel = vec![vec![1.0f64; n]; n];
        let mut has_edge = vec![vec![false; n]; n];
        let mut pos_of = vec![usize::MAX; q.num_rels()];
        for (p, &r) in order.iter().enumerate() {
            pos_of[r] = p;
        }
        for e in &q.edges {
            let (pu, pv) = (pos_of[e.u as usize], pos_of[e.v as usize]);
            if pu == usize::MAX || pv == usize::MAX {
                continue;
            }
            sel[pu][pv] *= e.sel;
            sel[pv][pu] *= e.sel;
            has_edge[pu][pv] = true;
            has_edge[pv][pu] = true;
        }
        let mut rows = vec![vec![0.0f64; n]; n];
        let mut edges = vec![vec![0u32; n]; n];
        for i in 0..n {
            rows[i][i] = q.rels[order[i]].rows;
        }
        for j in 1..n {
            for i in (0..j).rev() {
                let mut cross_sel = 1.0;
                let mut cross_edges = 0u32;
                for p in i..j {
                    cross_sel *= sel[p][j];
                    cross_edges += has_edge[p][j] as u32;
                }
                rows[i][j] = rows[i][j - 1] * q.rels[order[j]].rows * cross_sel;
                edges[i][j] = edges[i][j - 1] + cross_edges;
            }
        }
        let mut cost = vec![vec![f64::INFINITY; n]; n];
        let mut split = vec![vec![usize::MAX; n]; n];
        let mut swapped = vec![vec![false; n]; n];
        for i in 0..n {
            cost[i][i] = q.rels[order[i]].cost;
        }
        for len in 2..=n {
            budget.check()?;
            for i in 0..=(n - len) {
                let j = i + len - 1;
                for k in i..j {
                    let crossing = edges[i][j] - edges[i][k] - edges[k + 1][j];
                    if crossing == 0 {
                        continue;
                    }
                    if cost[i][k].is_infinite() || cost[k + 1][j].is_infinite() {
                        continue;
                    }
                    let out_rows = rows[i][j];
                    let lo = InputEst {
                        cost: cost[i][k],
                        rows: rows[i][k],
                    };
                    let hi = InputEst {
                        cost: cost[k + 1][j],
                        rows: rows[k + 1][j],
                    };
                    let c_fwd = model.join_cost(lo, hi, out_rows);
                    let c_rev = model.join_cost(hi, lo, out_rows);
                    let (c, sw) = if c_fwd <= c_rev {
                        (c_fwd, false)
                    } else {
                        (c_rev, true)
                    };
                    if c < cost[i][j] {
                        cost[i][j] = c;
                        split[i][j] = k;
                        swapped[i][j] = sw;
                    }
                }
            }
        }
        if cost[0][n - 1].is_infinite() {
            return Err(OptError::Internal("no cross-product-free plan".into()));
        }
        #[allow(clippy::too_many_arguments)]
        fn build(
            i: usize,
            j: usize,
            order: &[usize],
            rows: &[Vec<f64>],
            cost: &[Vec<f64>],
            split: &[Vec<usize>],
            swapped: &[Vec<bool>],
        ) -> PlanTree {
            if i == j {
                return PlanTree::Scan {
                    rel: order[i] as u32,
                    rows: rows[i][i],
                    cost: cost[i][i],
                };
            }
            let k = split[i][j];
            let lo = build(i, k, order, rows, cost, split, swapped);
            let hi = build(k + 1, j, order, rows, cost, split, swapped);
            let (l, r) = if swapped[i][j] { (hi, lo) } else { (lo, hi) };
            PlanTree::Join {
                left: Box::new(l),
                right: Box::new(r),
                rows: rows[i][j],
                cost: cost[i][j],
            }
        }
        let plan = build(0, n - 1, order, &rows, &cost, &split, &swapped);
        Ok(LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        })
    }
}
