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

use crate::pool::{chunk_range, with_pool};
use mpdp_core::atomic_memo::AtomicMemo;
use mpdp_core::counters::{Counters, LevelStats, Profile};
use mpdp_core::enumerate::EnumerationMode;
use mpdp_core::{OptError, RelSet};
use mpdp_dp::common::{
    finish, init_memo_with_rows, price_both, union_rows, LevelEnumerator, OptContext, OptResult,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// One enumerated csg-cmp pair in the dependency buffer; consumers cost both
/// of its join orders.
#[derive(Copy, Clone, Debug)]
struct PendingPair {
    left: RelSet,
    right: RelSet,
}

/// Enumerates all CCP pairs with DPCCP's csg-cmp recursion, *without*
/// costing them (the producer side of DPE).
fn enumerate_all_pairs(
    q: &mpdp_core::QueryInfo,
    ctx: &OptContext<'_>,
    buffer: &mut Vec<PendingPair>,
) -> Result<(), OptError> {
    struct Enum<'q> {
        q: &'q mpdp_core::QueryInfo,
        out: Vec<PendingPair>,
    }
    impl<'q> Enum<'q> {
        fn emit(&mut self, s1: RelSet, s2: RelSet) {
            self.out.push(PendingPair {
                left: s1,
                right: s2,
            });
        }
        fn csg_rec(&mut self, s: RelSet, x: RelSet) {
            let n = self.q.graph.neighbors(s).difference(x);
            if n.is_empty() {
                return;
            }
            for sp in n.subsets_ascending() {
                self.emit_csg(s.union(sp));
            }
            for sp in n.subsets_ascending() {
                self.csg_rec(s.union(sp), x.union(n));
            }
        }
        fn emit_csg(&mut self, s1: RelSet) {
            let min = s1.first().expect("csg non-empty");
            let x = s1.union(RelSet::first_n(min + 1));
            let n = self.q.graph.neighbors(s1).difference(x);
            let mut vs: Vec<usize> = n.iter().collect();
            vs.reverse();
            for v in vs {
                let s2 = RelSet::singleton(v);
                self.emit(s1, s2);
                let b_v_in_n = RelSet::first_n(v + 1).intersect(n);
                self.cmp_rec(s1, s2, x.union(b_v_in_n));
            }
        }
        fn cmp_rec(&mut self, s1: RelSet, s2: RelSet, x: RelSet) {
            let n = self.q.graph.neighbors(s2).difference(x);
            if n.is_empty() {
                return;
            }
            for sp in n.subsets_ascending() {
                self.emit(s1, s2.union(sp));
            }
            for sp in n.subsets_ascending() {
                self.cmp_rec(s1, s2.union(sp), x.union(n));
            }
        }
    }
    let mut e = Enum {
        q,
        out: std::mem::take(buffer),
    };
    for i in (0..q.query_size()).rev() {
        ctx.check_deadline()?;
        e.emit_csg(RelSet::singleton(i));
        e.csg_rec(RelSet::singleton(i), RelSet::first_n(i + 1));
    }
    *buffer = e.out;
    Ok(())
}

/// The DPE optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Dpe;

impl Dpe {
    /// Runs DPE: sequential DPCCP enumeration into a dependency buffer,
    /// parallel costing per dependency class with winners published straight
    /// into the shared atomic memo (no per-thread candidate lists).
    pub fn run(ctx: &OptContext<'_>, threads: usize) -> Result<OptResult, OptError> {
        ctx.validate_exact()?;
        let q = ctx.query;
        let n = q.query_size();
        with_pool(threads, |pool| {
            // Producer: enumerate all pairs (sequential).
            let mut buffer = Vec::new();
            enumerate_all_pairs(q, ctx, &mut buffer)?;

            // Dependency-aware reordering: bucket by union size.
            let mut classes: Vec<Vec<PendingPair>> = vec![Vec::new(); n + 1];
            for p in buffer {
                classes[p.left.union(p.right).len()].push(p);
            }

            // The unions of class `k` are the connected sets of size `k`:
            // the level plan counts them, sizes the shared memo once (the
            // table never grows under the consumers) and puts each set's
            // cardinality where its pairs will look for it.
            let levels = LevelEnumerator::with_mode(ctx, EnumerationMode::Frontier)?;
            let memo: AtomicMemo = init_memo_with_rows(q, &levels);
            let mut counters = Counters::default();
            let mut profile = Profile::default();

            // Consumers: cost each class in parallel; the class barrier is
            // the pool's run boundary.
            for (k, class) in classes.iter().enumerate().skip(2) {
                ctx.check_deadline()?;
                if class.is_empty() {
                    continue;
                }
                let probes0 = memo.probe_count();
                let retries0 = memo.cas_retry_count();
                let memo_ref = &memo;
                let writes = AtomicU64::new(0);
                pool.run(&|worker| {
                    let mut mine = 0u64;
                    for p in &class[chunk_range(class.len(), pool.workers(), worker)] {
                        let Ok(rows) = union_rows(memo_ref, p.left, p.right) else {
                            continue;
                        };
                        let Some(priced) = price_both(memo_ref, ctx.model, p.left, p.right, rows)
                        else {
                            continue;
                        };
                        let (left, cost) = priced.better(p.left, p.right);
                        let union = p.left.union(p.right);
                        mine += memo_ref.insert_if_better(union, left, cost, rows) as u64;
                    }
                    writes.fetch_add(mine, Ordering::Relaxed);
                });
                let level = LevelStats {
                    size: k,
                    // Counters track ordered pairs workspace-wide.
                    evaluated: 2 * class.len() as u64,
                    ccp: 2 * class.len() as u64,
                    sets: levels.level(k).sets.len() as u64,
                    memo_writes: writes.load(Ordering::Relaxed),
                    memo_probes: memo.probe_count() - probes0,
                    cas_retries: memo.cas_retry_count() - retries0,
                    ..Default::default()
                };
                counters.evaluated += level.evaluated;
                counters.ccp += level.ccp;
                counters.sets += level.sets;
                profile.record(level);
            }
            finish(&memo, q, counters, profile)
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
