//! GE-QO — genetic join-order optimization (PostgreSQL's `geqo` \[36\]).
//!
//! PostgreSQL falls back to a genetic algorithm beyond
//! `geqo_threshold` (12) relations. Individuals are relation permutations;
//! fitness is the cost of the plan grown from the permutation with
//! PostgreSQL's `gimme_tree` clumping procedure (scan the permutation,
//! joining each relation into the first clump it connects to — no cross
//! products); recombination is edge-recombination crossover (ERX), the PG
//! default; evolution is steady-state (each generation breeds one child that
//! replaces the worst individual), also as in PostgreSQL.

use crate::large::{validate_large, Budget, LargeOptResult, LargeOptimizer};
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// GE-QO parameters (PostgreSQL-like defaults).
#[derive(Copy, Clone, Debug)]
pub struct GeqoParams {
    /// Population size; PG uses `2^(1 + log2(n))`-ish pools, clamped.
    pub pool_size: usize,
    /// Number of generations (PG default: equal to pool size × effort).
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GeqoParams {
    /// PostgreSQL-flavoured defaults for an `n`-relation query.
    pub fn for_query(n: usize, seed: u64) -> Self {
        let pool = (2 * n).clamp(16, 128);
        GeqoParams {
            pool_size: pool,
            generations: pool * 4,
            seed,
        }
    }
}

/// The GE-QO optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Geqo {
    /// Algorithm parameters (`None` = PostgreSQL-flavoured defaults).
    pub params: Option<GeqoParams>,
}

/// Grows a plan from a permutation with PG's clump procedure. Returns `None`
/// only for disconnected queries.
fn gimme_tree(q: &LargeQuery, perm: &[usize], model: &dyn CostModel) -> Option<PlanTree> {
    // Clumps of (plan, member-mask as Vec<bool>).
    struct Clump {
        plan: PlanTree,
        members: Vec<bool>,
    }
    let n = q.num_rels();
    let mut clumps: Vec<Clump> = Vec::new();
    for &r in perm {
        let scan = PlanTree::Scan {
            rel: r as u32,
            rows: q.rels[r].rows,
            cost: q.rels[r].cost,
        };
        let mut members = vec![false; n];
        members[r] = true;
        let mut new_clump = Clump {
            plan: scan,
            members,
        };
        // Try to join the new clump into an existing one; repeat because a
        // merge may connect previously separate clumps.
        loop {
            let mut joined_with: Option<usize> = None;
            for (ci, c) in clumps.iter().enumerate() {
                // Connected?
                let mut sel = 1.0;
                let mut connected = false;
                for e in &q.edges {
                    let (u, v) = (e.u as usize, e.v as usize);
                    if (c.members[u] && new_clump.members[v])
                        || (c.members[v] && new_clump.members[u])
                    {
                        sel *= e.sel;
                        connected = true;
                    }
                }
                if !connected {
                    continue;
                }
                let rows = c.plan.rows() * new_clump.plan.rows() * sel;
                let cost = model.join_cost(
                    InputEst {
                        cost: c.plan.cost(),
                        rows: c.plan.rows(),
                    },
                    InputEst {
                        cost: new_clump.plan.cost(),
                        rows: new_clump.plan.rows(),
                    },
                    rows,
                );
                joined_with = Some(ci);
                // Build merged clump (old clump as left input, PG-style).
                let old = &clumps[ci];
                let mut members = old.members.clone();
                for (i, &m) in new_clump.members.iter().enumerate() {
                    members[i] = members[i] || m;
                }
                new_clump = Clump {
                    plan: PlanTree::Join {
                        left: Box::new(old.plan.clone()),
                        right: Box::new(new_clump.plan),
                        rows,
                        cost,
                    },
                    members,
                };
                break;
            }
            match joined_with {
                Some(ci) => {
                    clumps.swap_remove(ci);
                }
                None => break,
            }
        }
        clumps.push(new_clump);
    }
    if clumps.len() == 1 {
        Some(clumps.pop().unwrap().plan)
    } else {
        None
    }
}

/// Edge-recombination crossover: builds a child permutation preferring
/// neighbours shared by the parents (the PG `gimme_edge_table` scheme,
/// simplified).
fn erx(a: &[usize], b: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let n = a.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let add = |edges: &mut Vec<Vec<usize>>, p: &[usize]| {
        for i in 0..n {
            let x = p[i];
            let prev = p[(i + n - 1) % n];
            let next = p[(i + 1) % n];
            for y in [prev, next] {
                if !edges[x].contains(&y) {
                    edges[x].push(y);
                }
            }
        }
    };
    add(&mut edges, a);
    add(&mut edges, b);
    let mut used = vec![false; n];
    let mut out = Vec::with_capacity(n);
    let mut cur = a[0];
    loop {
        out.push(cur);
        used[cur] = true;
        if out.len() == n {
            break;
        }
        // Next: unused neighbour with fewest remaining neighbours; random
        // unused fallback.
        let mut cand: Option<(usize, usize)> = None;
        for &nb in &edges[cur] {
            if used[nb] {
                continue;
            }
            let degree = edges[nb].iter().filter(|&&x| !used[x]).count();
            match cand {
                Some((_, d)) if d <= degree => {}
                _ => cand = Some((nb, degree)),
            }
        }
        cur = match cand {
            Some((nb, _)) => nb,
            None => {
                let unused: Vec<usize> = (0..n).filter(|&i| !used[i]).collect();
                *unused.choose(rng).unwrap()
            }
        };
    }
    out
}

impl Geqo {
    /// Runs GE-QO.
    pub fn run(
        q: &LargeQuery,
        model: &dyn CostModel,
        params: GeqoParams,
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
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x4745_514f);

        // Initial pool: random permutations.
        let base: Vec<usize> = (0..n).collect();
        let mut pool: Vec<(f64, Vec<usize>)> = Vec::with_capacity(params.pool_size);
        for _ in 0..params.pool_size.max(2) {
            timer.check()?;
            let mut p = base.clone();
            p.shuffle(&mut rng);
            let plan = gimme_tree(q, &p, model).ok_or(OptError::Internal(
                "gimme_tree failed on connected query".into(),
            ))?;
            pool.push((plan.cost(), p));
        }
        // `total_cmp` agrees with `partial_cmp` on every cost but −0.0, and
        // a plan's cost, a sum of non-negative scan and join terms, is never
        // −0.0. A NaN cost sorts last instead of panicking.
        pool.sort_by(|x, y| x.0.total_cmp(&y.0));

        // Steady-state evolution.
        for _ in 0..params.generations {
            timer.check()?;
            // Rank-biased parent selection (PG's linear bias).
            let pick = |rng: &mut StdRng| -> usize {
                let r: f64 = rng.gen::<f64>();
                ((r * r) * pool.len() as f64) as usize
            };
            let (i, j) = (pick(&mut rng), pick(&mut rng));
            let child = erx(&pool[i].1.clone(), &pool[j].1.clone(), &mut rng);
            let plan = gimme_tree(q, &child, model)
                .ok_or(OptError::Internal("gimme_tree failed on child".into()))?;
            let cost = plan.cost();
            // Replace the worst if the child improves on it.
            if cost < pool.last().unwrap().0 {
                pool.pop();
                let pos = pool
                    // The order the pool was sorted in.
                    .binary_search_by(|e| e.0.total_cmp(&cost))
                    .unwrap_or_else(|p| p);
                pool.insert(pos, (cost, child));
            }
        }
        let best = &pool[0];
        let plan = gimme_tree(q, &best.1, model).expect("best individual must build");
        Ok(LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        })
    }
}

impl LargeOptimizer for Geqo {
    fn name(&self) -> String {
        "GE-QO".into()
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let params = self
            .params
            .unwrap_or_else(|| GeqoParams::for_query(q.num_rels(), 0x5147));
        let r = Geqo::run(q, model, params, budget)?;
        debug_assert!(validate_large(&r.plan, q).is_none());
        Ok(r)
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
    fn produces_valid_plans() {
        let m = PgLikeCost::new();
        for q in [
            gen::star(15, 1, &m),
            gen::snowflake(25, 3, 2, &m),
            gen::cycle(12, 3, &m),
        ] {
            let r = Geqo::default().optimize(&q, &m, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none());
            assert_eq!(r.plan.num_rels(), q.num_rels());
        }
    }

    #[test]
    fn never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..3 {
            let q = gen::random_connected(9, 3, seed, &m);
            let r = Geqo::default().optimize(&q, &m, None).unwrap();
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(r.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn evolution_not_worse_than_initial_random() {
        // The pool's best can only improve over generations.
        let m = PgLikeCost::new();
        let q = gen::star(20, 7, &m);
        let short = Geqo::run(
            &q,
            &m,
            GeqoParams {
                pool_size: 32,
                generations: 0,
                seed: 5,
            },
            None,
        )
        .unwrap();
        let long = Geqo::run(
            &q,
            &m,
            GeqoParams {
                pool_size: 32,
                generations: 256,
                seed: 5,
            },
            None,
        )
        .unwrap();
        assert!(long.cost <= short.cost * (1.0 + 1e-12));
    }

    #[test]
    fn erx_produces_permutations() {
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<usize> = vec![0, 1, 2, 3, 4, 5];
        let b: Vec<usize> = vec![5, 3, 1, 0, 2, 4];
        for _ in 0..20 {
            let c = erx(&a, &b, &mut rng);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, a);
        }
    }

    #[test]
    fn gimme_tree_respects_connectivity() {
        let m = PgLikeCost::new();
        let q = gen::chain(6, 4, &m);
        // Adversarial permutation: ends before middles.
        let p = vec![0, 5, 2, 4, 1, 3];
        let plan = gimme_tree(&q, &p, &m).unwrap();
        assert!(validate_large(&plan, &q).is_none());
    }
}
