//! What `--seed` varies, and what it deliberately does not.
//!
//! Planning time depends on join-graph *topology* by a factor of 50 between
//! two random-walk queries of one size, on relation statistics by tens of
//! percent (heuristics partition differently), and execution time on table
//! sizes just as strongly. A ruler that moved that much from seed to seed
//! could not resolve a regression, so topologies, statistics of the planning
//! grids and template pools are fixed. The seed varies what the program's
//! *timing* must not be sensitive to but its *input* is: relation labels
//! (every query arrives as a different isomorphic copy), request order,
//! template statistics where every request is a cache hit anyway, and table
//! contents.

use crate::rng::SplitMix64;
use mpdp::core::{LargeQuery, RelInfo};
use mpdp::cost::CostModel;

/// Seed of what is the same at every `--seed`: the template pools of the
/// two serving workloads and the relabelled copies of the plan workloads.
pub const POOL_SEED: u64 = 42;

/// `q` under a seeded random relabeling: an isomorphic copy, so the search
/// space, the statistics and the optimal cost are exactly `q`'s, while every
/// enumeration and tie-break in the planners sees other relation ids.
pub fn relabel_by_seed(q: &LargeQuery, seed: u64) -> LargeQuery {
    q.relabel(&SplitMix64::new(seed).permutation(q.num_rels()))
}

/// `q` with every relation's row count scaled by a seeded log-uniform
/// factor in `[1/2, 2]` and its scan cost re-priced — the same schema under
/// different selection predicates. Edges and selectivities are untouched,
/// so the search space is exactly `q`'s.
pub fn perturb_stats(q: &LargeQuery, seed: u64, model: &dyn CostModel) -> LargeQuery {
    let mut rng = SplitMix64::new(seed);
    let rels = q
        .rels
        .iter()
        .map(|r| {
            let factor = (2.0 * rng.next_f64() - 1.0).exp2();
            let rows = (r.rows * factor).round().max(1.0);
            RelInfo::new(rows, model.scan_cost(rows))
        })
        .collect();
    let mut out = LargeQuery::new(rels);
    for e in &q.edges {
        out.add_edge(e.u as usize, e.v as usize, e.sel);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp::cost::PgLikeCost;

    #[test]
    fn relabeling_is_an_isomorphic_copy_that_depends_on_seed() {
        let m = PgLikeCost::new();
        let q = mpdp::workload::gen::snowflake(12, 4, 3, &m);
        let a = relabel_by_seed(&q, 1);
        assert_eq!(a.rels, relabel_by_seed(&q, 1).rels);
        assert_eq!(a.edges, relabel_by_seed(&q, 1).edges);
        assert_ne!(a.rels, relabel_by_seed(&q, 2).rels);
        assert_eq!(
            mpdp::core::canonicalize(&a).fingerprint,
            mpdp::core::canonicalize(&q).fingerprint
        );
    }

    #[test]
    fn perturbation_keeps_topology_and_depends_on_seed() {
        let m = PgLikeCost::new();
        let q = mpdp::workload::gen::snowflake(12, 4, 3, &m);
        let a = perturb_stats(&q, 1, &m);
        let b = perturb_stats(&q, 1, &m);
        let c = perturb_stats(&q, 2, &m);
        assert_eq!(a.edges, q.edges);
        assert_eq!(a.rels, b.rels);
        assert_ne!(a.rels, c.rels);
        for (new, old) in a.rels.iter().zip(&q.rels) {
            assert!(new.rows >= (old.rows / 2.0).floor() && new.rows <= (old.rows * 2.0).ceil());
        }
    }
}
