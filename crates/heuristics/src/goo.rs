//! GOO — Greedy Operator Ordering (Fegaras \[8\]).
//!
//! Repeatedly joins the pair of current sub-plans whose join produces the
//! smallest intermediate result ("uses the resulting join relation size to
//! greedily pick the best join at each step", §7.3). Produces bushy trees in
//! `O(n·E)` time, scales to thousands of relations, and is the paper's
//! initial-plan builder for all IDP2 variants ("For all IDP2 variants, we use
//! GOO for the heuristic step").

use crate::large::{validate_large, Budget, LargeOptResult};
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::collections::BTreeMap;
use std::time::Duration;

/// The GOO optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Goo;

impl Goo {
    /// Runs GOO, returning a bushy plan.
    pub fn run(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let n = q.num_rels();
        if n == 0 {
            return Err(OptError::EmptyQuery);
        }
        if !q.is_connected() {
            return Err(OptError::DisconnectedGraph);
        }
        let timer = Budget::new(budget);

        // Active sub-plans ("clumps"); adjacency holds combined selectivity
        // between active entries. Ordered map, NOT a hash map: the greedy
        // scan below keeps the *first* pair at the minimal output size, so
        // iteration order is tie-breaking order — it must be identical on
        // every run for plans (and downstream executed row counts) to be
        // reproducible.
        struct Clump {
            plan: PlanTree,
            adj: BTreeMap<usize, f64>,
        }
        let mut clumps: Vec<Option<Clump>> = q
            .rels
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Some(Clump {
                    plan: PlanTree::Scan {
                        rel: i as u32,
                        rows: r.rows,
                        cost: r.cost,
                    },
                    adj: BTreeMap::new(),
                })
            })
            .collect();
        for e in &q.edges {
            let (u, v) = (e.u as usize, e.v as usize);
            *clumps[u].as_mut().unwrap().adj.entry(v).or_insert(1.0) *= e.sel;
            *clumps[v].as_mut().unwrap().adj.entry(u).or_insert(1.0) *= e.sel;
        }

        for _ in 1..n {
            timer.check()?;
            // Find the connected pair minimizing output rows.
            let mut best: Option<(usize, usize, f64)> = None;
            for (u, c) in clumps.iter().enumerate() {
                let Some(c) = c else { continue };
                for (&v, &sel) in &c.adj {
                    if v <= u {
                        continue;
                    }
                    let other = clumps[v].as_ref().expect("adjacency must be live");
                    let out_rows = c.plan.rows() * other.plan.rows() * sel;
                    match best {
                        Some((_, _, b)) if b <= out_rows => {}
                        _ => best = Some((u, v, out_rows)),
                    }
                }
            }
            let (u, v, out_rows) =
                best.ok_or(OptError::Internal("GOO found no joinable pair".into()))?;
            let cu = clumps[u].take().unwrap();
            let cv = clumps[v].take().unwrap();
            // Order the pair by cheaper cost (both orders priced).
            let (lc, rc) = (
                InputEst {
                    cost: cu.plan.cost(),
                    rows: cu.plan.rows(),
                },
                InputEst {
                    cost: cv.plan.cost(),
                    rows: cv.plan.rows(),
                },
            );
            let c_uv = model.join_cost(lc, rc, out_rows);
            let c_vu = model.join_cost(rc, lc, out_rows);
            let (lp, rp, cost) = if c_uv <= c_vu {
                (cu.plan, cv.plan, c_uv)
            } else {
                (cv.plan, cu.plan, c_vu)
            };
            let joined = PlanTree::Join {
                left: Box::new(lp),
                right: Box::new(rp),
                rows: out_rows,
                cost,
            };
            // Merge adjacency: neighbours of u and v (excluding each other),
            // multiplying selectivities where both touched the same target.
            let mut adj: BTreeMap<usize, f64> = BTreeMap::new();
            for (w, sel) in cu.adj.into_iter().chain(cv.adj) {
                if w == u || w == v {
                    continue;
                }
                *adj.entry(w).or_insert(1.0) *= sel;
            }
            // Install at slot u; rewire neighbours to point at u.
            for (&w, &sel) in &adj {
                let cw = clumps[w].as_mut().expect("neighbour must be live");
                cw.adj.remove(&u);
                cw.adj.remove(&v);
                *cw.adj.entry(u).or_insert(1.0) = sel;
            }
            clumps[u] = Some(Clump { plan: joined, adj });
        }

        let final_plan = clumps
            .into_iter()
            .flatten()
            .next()
            .ok_or(OptError::Internal("GOO produced no plan".into()))?
            .plan;
        debug_assert!(validate_large(&final_plan, q).is_none());
        Ok(final_plan.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;

    #[test]
    fn goo_produces_valid_plans() {
        let m = PgLikeCost::new();
        for q in [
            gen::star(20, 1, &m),
            gen::snowflake(40, 4, 2, &m),
            gen::cycle(15, 3, &m),
            gen::clique(10, 4, &m),
        ] {
            let r = Goo::run(&q, &m, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none());
            assert_eq!(r.plan.num_rels(), q.num_rels());
        }
    }

    #[test]
    fn goo_never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..5 {
            let q = gen::random_connected(9, 4, seed, &m);
            let goo = Goo::run(&q, &m, None).unwrap();
            let qi = q.to_query_info().unwrap();
            let exact = Mpdp::run(&OptContext::new(&qi, &m)).unwrap();
            assert!(
                goo.cost >= exact.cost * (1.0 - 1e-9),
                "seed {seed}: goo {} < optimal {}",
                goo.cost,
                exact.cost
            );
        }
    }

    /// Repeated runs in one process produce the identical plan, even when
    /// every candidate pair ties on output size. Tie-breaking is iteration
    /// order of the adjacency map — with the old `HashMap` (per-instance
    /// random state) two in-process runs could pick different equal-size
    /// pairs, which the executor's cross-worker-count determinism gate
    /// caught as diverging rows-touched counts on the JOB shape.
    #[test]
    fn goo_is_deterministic_across_runs() {
        let m = PgLikeCost::new();
        // A star of identical dimensions: all first-step pairs tie exactly.
        let mut q = LargeQuery::new(vec![mpdp_core::RelInfo::new(1_000.0, 10.0); 9]);
        for i in 1..9 {
            q.add_edge(0, i, 1e-3);
        }
        let baseline = Goo::run(&q, &m, None).unwrap();
        for _ in 0..5 {
            let again = Goo::run(&q, &m, None).unwrap();
            assert_eq!(
                format!("{:?}", again.plan),
                format!("{:?}", baseline.plan),
                "tie-breaking must not vary between runs"
            );
        }
    }

    #[test]
    fn goo_is_exact_on_two_relations() {
        let m = PgLikeCost::new();
        let q = gen::chain(2, 5, &m);
        let goo = Goo::run(&q, &m, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((goo.cost - exact.cost).abs() < 1e-9 * exact.cost.max(1.0));
    }

    #[test]
    fn goo_scales_to_1000_rels() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(1000, 4, 9, &m);
        let r = Goo::run(&q, &m, Some(Duration::from_secs(60))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 1000);
    }

    #[test]
    fn goo_rejects_disconnected() {
        let q = LargeQuery::new(vec![mpdp_core::RelInfo::new(1.0, 1.0); 2]);
        let m = PgLikeCost::new();
        assert_eq!(
            Goo::run(&q, &m, None).unwrap_err(),
            OptError::DisconnectedGraph
        );
    }
}
