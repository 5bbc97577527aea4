//! DPE — dependency-aware parallel DP (Han & Lee \[11\]).
//!
//! DPE wraps a sequential enumerator (here DPCCP, the strongest choice and
//! the one the paper benchmarks as "DPE (24CPU)") in a producer/consumer
//! pipeline: a producer thread enumerates Join-Pairs into a dependency-aware
//! buffer, and consumer threads evaluate their costs. Because the *plan* for
//! a set must be final before any pair uses that set as an input, pairs are
//! partitioned into dependency classes by the size of their union; class `k`
//! may only be costed after class `k-1` is merged.
//!
//! This structure is exactly why DPE scales poorly (Figure 12): the
//! enumeration itself is sequential, only the costing parallelizes, and the
//! reordering buffer adds per-pair overhead — Amdahl caps the speedup near
//! `(t_enum + t_cost) / t_enum`.
//!
//! Two consumers may price pairs of one set, so a consumer keeps every
//! candidate it prices and hands it back, and the caller, the memo's one
//! writer, applies them when the class's job has returned
//! (`level_par::Candidates`); consumers price from the memo's read-only view
//! and poll the deadline per pair.

use crate::level_par::{poll, Candidates};
use crate::pool::{chunk_range, with_pool};
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::{OptError, RelSet};
use mpdp_dp::common::{finish, init_memo, level_plan, price_both, OptContext, OptResult};
use mpdp_dp::dpccp::csg_cmp_pairs;

/// The DPE optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Dpe;

impl Dpe {
    /// Runs DPE: sequential DPCCP enumeration into a dependency buffer, then
    /// parallel costing per dependency class, each consumer handing its
    /// candidates back to the caller, which writes them into the memo.
    pub fn run(ctx: &OptContext<'_>, threads: usize) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        with_pool(threads, |pool| {
            // Producer: DPCCP's csg-cmp recursion, sequential and without
            // costing, into the dependency-aware buffer — one bucket of
            // csg-cmp pairs per union size; consumers cost both join orders.
            let mut classes: Vec<Vec<(RelSet, RelSet)>> = vec![Vec::new(); n + 1];
            csg_cmp_pairs(ctx, |s1, s2| {
                classes[s1.union(s2).len()].push((s1, s2));
                Ok(())
            })?;

            // The unions of class `k` are the connected sets of size `k`:
            // the level plan counts them, lays the memo out once (the table
            // never grows under the consumers) and puts each set's
            // cardinality in the slot its pairs will find.
            let plan = level_plan(ctx)?;
            let mut memo = init_memo(q, &plan);
            let mut profile = Profile::default();

            // Consumers: cost each class in parallel; the class barrier is
            // the pool's job boundary. Class 1, the leaves, has no pairs,
            // but the producer walked its sets as DPCCP does.
            for (k, class) in classes.iter().enumerate().skip(1) {
                ctx.check_deadline()?;
                let mut level = LevelStats {
                    size: k,
                    sets: plan.level(k).0.len() as u64,
                    ..Default::default()
                };
                if !class.is_empty() {
                    let view = memo.view();
                    let parts = pool.map(|worker| {
                        let mut part = Candidates::default();
                        let mine = &class[chunk_range(class.len(), pool.workers(), worker)];
                        for (j, &(s1, s2)) in mine.iter().enumerate() {
                            if let Err(e) = poll(ctx, pool, class.len(), j) {
                                part.err = Some(e);
                                break;
                            }
                            let (slot, rows, steps) = view.find(s1.union(s2));
                            part.probes += steps;
                            // Counters track ordered pairs workspace-wide.
                            part.evaluated += 2;
                            part.ccp += 2;
                            if let Some(priced) = price_both(&view, ctx.model, s1, s2, rows) {
                                let (left, cost) = priced.better(s1, s2);
                                part.list.push((slot, left, cost));
                            }
                        }
                        part
                    });
                    Candidates::publish(parts, &mut memo, &mut level)?;
                }
                profile.record(level);
            }
            finish(&memo, q, profile)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::dpccp::DpCcp;
    use mpdp_dp::dpsub::DpSub;
    use mpdp_workload::gen;

    #[test]
    fn matches_sequential_optimum() {
        let m = PgLikeCost::new();
        for (i, q) in [
            gen::star(7, 1, &m),
            gen::cycle(7, 1, &m),
            gen::random_connected(8, 3, 5, &m),
        ]
        .iter()
        .enumerate()
        {
            let qi = q.to_query_info().unwrap();
            let ctx = OptContext::new(&qi, &m);
            let seq = DpSub::run(&ctx).unwrap();
            let dpe = Dpe::run(&ctx, 3).unwrap();
            assert!(
                (dpe.cost - seq.cost).abs() < 1e-6 * seq.cost.max(1.0),
                "query {i}"
            );
            assert!(dpe.plan.validate(&qi.graph).is_none());
        }
    }

    #[test]
    fn pair_count_matches_dpccp() {
        // DPE costs exactly the pairs DPCCP enumerates.
        let m = PgLikeCost::new();
        let q = gen::star(7, 2, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let a = Dpe::run(&ctx, 2).unwrap();
        let b = DpCcp::run(&ctx).unwrap();
        assert_eq!(a.counters.ccp, b.counters.ccp);
        assert_eq!(a.counters.evaluated, a.counters.ccp);
    }

    #[test]
    fn single_relation() {
        let m = PgLikeCost::new();
        let q = gen::star(1, 2, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let r = Dpe::run(&ctx, 2).unwrap();
        assert_eq!(r.plan.num_rels(), 1);
    }
}
