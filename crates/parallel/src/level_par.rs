//! CPU-parallel level-synchronous DP: parallel MPDP, DPSUB and DPSIZE (PDP).
//!
//! All three share the paper's MPDP-GPU skeleton (§5), transplanted to
//! shared-memory CPUs:
//!
//! 1. enumerate the level's work items sequentially (cheap),
//! 2. fan the items out to the persistent worker pool; each worker evaluates
//!    Join-Pairs against the previous levels' entries (quiescent, read-only)
//!    and writes winners *straight into the shared
//!    [`mpdp_core::atomic_memo::AtomicMemo`]* with CAS min-updates — the CPU
//!    analogue of the paper's `atomicMin` on the device-global hash table,
//! 3. barrier, next level.
//!
//! There is no thread-local candidate buffering and no sequential merge
//! step (the "deferred pruning" shape of PDP \[10\] that used to live here):
//! the table itself is the reduction. Result equality with the sequential
//! algorithms is exact and bit-identical at any worker count: the same pairs
//! are priced by the same shared costing (`mpdp_dp::common`), and every memo
//! keeps the minimum under the same deterministic `(cost, left)` tie-break,
//! which is order-insensitive. MPDP's per-set work is `mpdp_dp`'s
//! [`SetKernel`], the same one the sequential driver runs: it reduces a set's
//! candidates locally and the worker publishes the winner once.

use crate::pool::{chunk_range, with_pool};
use mpdp_core::atomic_memo::AtomicMemo;
use mpdp_core::blocks::BlockIndex;
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::{OptError, RelSet};
use mpdp_dp::common::{
    finish, init_memo, init_memo_with_rows, level_plan, price_pair, union_rows, OptContext,
    OptResult,
};
use mpdp_dp::dpsub::ccp_splits;
use mpdp_dp::mpdp::SetKernel;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which level-parallel algorithm to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LevelAlgo {
    /// Parallel MPDP (block-level hybrid enumeration).
    Mpdp,
    /// Parallel DPSUB (powerset splits).
    DpSub,
}

/// Level-wide accumulators: each worker tallies its slice of a level in a
/// `LevelStats` of its own and folds it in here when the slice is done (sums
/// are partition-invariant, so totals are deterministic at any worker
/// count).
#[derive(Default)]
struct LevelTally {
    evaluated: AtomicU64,
    ccp: AtomicU64,
    writes: AtomicU64,
}

impl LevelTally {
    fn absorb(&self, mine: &LevelStats) {
        self.evaluated.fetch_add(mine.evaluated, Ordering::Relaxed);
        self.ccp.fetch_add(mine.ccp, Ordering::Relaxed);
        self.writes.fetch_add(mine.memo_writes, Ordering::Relaxed);
    }

    fn fill(&self, level: &mut LevelStats) {
        level.evaluated += self.evaluated.load(Ordering::Relaxed);
        level.ccp += self.ccp.load(Ordering::Relaxed);
        level.memo_writes += self.writes.load(Ordering::Relaxed);
    }
}

/// Prices `(sl, sr)` against the shared memo and publishes the candidate
/// with an atomic min-update — the worker-side `CreatePlan` + `atomicMin`.
/// Both sides live in strictly smaller (quiescent) levels; a missing entry
/// is skipped here and surfaces as a plan-extraction failure, exactly as in
/// the old deferred-merge path.
#[inline]
fn emit_atomic(
    model: &dyn mpdp_cost::model::CostModel,
    memo: &AtomicMemo,
    sl: RelSet,
    sr: RelSet,
    rows: f64,
    writes: &mut u64,
) {
    if let Some(cost) = price_pair(memo, model, sl, sr, rows) {
        *writes += memo.insert_if_better(sl.union(sr), sl, cost, rows) as u64;
    }
}

/// Snapshot of the memo's cumulative probe/CAS counters, used to attribute
/// per-level deltas to [`LevelStats`].
struct MemoMarks {
    probes: u64,
    retries: u64,
}

impl MemoMarks {
    fn take(memo: &AtomicMemo) -> MemoMarks {
        MemoMarks {
            probes: memo.probe_count(),
            retries: memo.cas_retry_count(),
        }
    }

    fn delta_into(&self, memo: &AtomicMemo, level: &mut LevelStats) {
        level.memo_probes = memo.probe_count() - self.probes;
        level.cas_retries = memo.cas_retry_count() - self.retries;
    }
}

/// Runs a level-parallel algorithm with `threads` workers sharing one
/// atomic memo.
pub fn run_level_parallel(
    ctx: &OptContext<'_>,
    algo: LevelAlgo,
    threads: usize,
) -> Result<OptResult, OptError> {
    ctx.validate_exact()?;
    let q = ctx.query;
    let n = q.query_size();
    with_pool(threads, |pool| {
        // Every level's connected sets and their cardinalities — sequential,
        // before the first parallel phase, so the shared memo is created at
        // its final size and never moves under the workers.
        let plan = level_plan(ctx)?;
        let memo: AtomicMemo = init_memo(q, plan.sets.len() - n);
        let mut profile = Profile::default();
        let index = BlockIndex::new(&q.graph);
        for i in 2..=n {
            ctx.check_deadline()?;
            let (sets, rows) = plan.level(i);
            let mut level = LevelStats {
                size: i,
                sets: sets.len() as u64,
                ..Default::default()
            };
            let marks = MemoMarks::take(&memo);

            let memo_ref = &memo;
            let tally = LevelTally::default();
            pool.run(&|worker| {
                let mut mine = LevelStats::default();
                let mine_of = chunk_range(sets.len(), pool.workers(), worker);
                let slice = sets[mine_of.clone()].iter().zip(&rows[mine_of]);
                match algo {
                    LevelAlgo::Mpdp => {
                        // The shared per-set kernel; its winner is the one
                        // atomic publish this set gets.
                        let mut kernel = SetKernel::new(q, ctx.model, &index);
                        for (&s, &rows) in slice {
                            let out = kernel.evaluate(memo_ref, s, rows, &mut ());
                            mine.evaluated += out.evaluated;
                            mine.ccp += out.ccp;
                            if let Some(e) = out.best {
                                mine.memo_writes +=
                                    memo_ref.insert_if_better(s, e.left, e.cost, e.rows) as u64;
                            }
                        }
                    }
                    LevelAlgo::DpSub => {
                        for (&s, &rows) in slice {
                            let Ok((evaluated, ccp)) = ccp_splits(&q.graph, s, |sl, sr| {
                                emit_atomic(
                                    ctx.model,
                                    memo_ref,
                                    sl,
                                    sr,
                                    rows,
                                    &mut mine.memo_writes,
                                );
                                Ok::<(), Infallible>(())
                            });
                            mine.evaluated += evaluated;
                            mine.ccp += ccp;
                        }
                    }
                }
                tally.absorb(&mine);
            });
            // Implicit level barrier: pool.run returned, so every winner of
            // this level is published before the next level reads it.
            tally.fill(&mut level);
            marks.delta_into(&memo, &mut level);
            profile.record(level);
        }
        finish(&memo, q, profile)
    })
}

/// PDP — parallel DPSIZE \[10\]: per level, the cross products of the
/// previous levels' plan lists are split among workers, which now publish
/// winners straight into the shared atomic memo (no deferred pruning).
///
/// The per-size plan lists are the level plan's. A pair does not know where
/// its union sits in the plan, so the memo is created with every set's
/// cardinality already in it.
pub fn run_dpsize_parallel(ctx: &OptContext<'_>, threads: usize) -> Result<OptResult, OptError> {
    ctx.validate_exact()?;
    let q = ctx.query;
    let n = q.query_size();
    with_pool(threads, |pool| {
        let plan = level_plan(ctx)?;
        let memo: AtomicMemo = init_memo_with_rows(q, &plan);
        let mut profile = Profile::default();
        // Work items, reused across levels: (right-size, left set).
        let mut items: Vec<(usize, RelSet)> = Vec::new();

        for i in 2..=n {
            ctx.check_deadline()?;
            let mut level = LevelStats {
                size: i,
                sets: plan.level(i).0.len() as u64,
                ..Default::default()
            };

            items.clear();
            for k in 1..i {
                for &l in plan.level(k).0 {
                    items.push((i - k, l));
                }
            }
            let marks = MemoMarks::take(&memo);
            let memo_ref = &memo;
            let items_ref = &items;
            let plan_ref = &plan;
            let tally = LevelTally::default();
            pool.run(&|worker| {
                let mut mine = LevelStats::default();
                for &(rk, left) in &items_ref[chunk_range(items_ref.len(), pool.workers(), worker)]
                {
                    for &right in plan_ref.level(rk).0 {
                        mine.evaluated += 1;
                        if !left.is_disjoint(right) {
                            continue;
                        }
                        if !q.graph.sets_connected(left, right) {
                            continue;
                        }
                        mine.ccp += 1;
                        // Every CCP pair's union is a connected set, so it
                        // is in the plan and the lookup cannot fail.
                        if let Ok(rows) = union_rows(memo_ref, left, right) {
                            emit_atomic(
                                ctx.model,
                                memo_ref,
                                left,
                                right,
                                rows,
                                &mut mine.memo_writes,
                            );
                        }
                    }
                }
                tally.absorb(&mine);
            });
            tally.fill(&mut level);
            marks.delta_into(&memo, &mut level);
            profile.record(level);
        }
        finish(&memo, q, profile)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::dpsub::DpSub;
    use mpdp_workload::gen;

    fn check_matches_sequential(q: &mpdp_core::QueryInfo) {
        let model = PgLikeCost::new();
        let ctx = OptContext::new(q, &model);
        let seq = DpSub::run(&ctx).unwrap();
        for threads in [1, 2, 4] {
            let par_mpdp = run_level_parallel(&ctx, LevelAlgo::Mpdp, threads).unwrap();
            assert!(
                (par_mpdp.cost - seq.cost).abs() < 1e-6 * seq.cost.max(1.0),
                "mpdp threads={threads}"
            );
            assert_eq!(par_mpdp.counters.ccp, seq.counters.ccp);
            let par_sub = run_level_parallel(&ctx, LevelAlgo::DpSub, threads).unwrap();
            assert_eq!(par_sub.cost.to_bits(), seq.cost.to_bits());
            assert_eq!(par_sub.counters.evaluated, seq.counters.evaluated);
            let pdp = run_dpsize_parallel(&ctx, threads).unwrap();
            assert!((pdp.cost - seq.cost).abs() < 1e-6 * seq.cost.max(1.0));
        }
    }

    #[test]
    fn parallel_matches_sequential_on_star() {
        let m = PgLikeCost::new();
        let q = gen::star(7, 3, &m).to_query_info().unwrap();
        check_matches_sequential(&q);
    }

    #[test]
    fn parallel_matches_sequential_on_cycle() {
        let m = PgLikeCost::new();
        let q = gen::cycle(7, 3, &m).to_query_info().unwrap();
        check_matches_sequential(&q);
    }

    #[test]
    fn parallel_matches_sequential_on_random() {
        let m = PgLikeCost::new();
        for seed in 0..3 {
            let q = gen::random_connected(8, 4, seed, &m)
                .to_query_info()
                .unwrap();
            check_matches_sequential(&q);
        }
    }

    #[test]
    fn plans_validate() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(9, 3, 11, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, 3).unwrap();
        assert!(r.plan.validate(&q.graph).is_none());
        assert_eq!(r.plan.num_rels(), 9);
    }

    #[test]
    fn plans_bit_identical_across_worker_counts() {
        // The tie-break makes the whole memo — and therefore the extracted
        // plan — a pure function of the candidate multiset, independent of
        // scheduling. Compare the plan trees structurally.
        let m = PgLikeCost::new();
        for q in [
            gen::star(8, 2, &m).to_query_info().unwrap(),
            gen::random_connected(9, 5, 7, &m).to_query_info().unwrap(),
        ] {
            let ctx = OptContext::new(&q, &m);
            let base = run_level_parallel(&ctx, LevelAlgo::Mpdp, 1).unwrap();
            for threads in [2, 4, 8] {
                let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, threads).unwrap();
                assert_eq!(r.plan, base.plan, "threads={threads}");
                assert_eq!(r.cost.to_bits(), base.cost.to_bits());
                assert_eq!(r.counters, base.counters);
            }
        }
    }

    #[test]
    fn profile_reports_memo_health() {
        let m = PgLikeCost::new();
        let q = gen::cycle(8, 1, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, 2).unwrap();
        let health = r.profile.memo.expect("finish stamps memo health");
        assert_eq!(health.entries, r.memo_entries);
        assert!(health.load_factor() > 0.0 && health.load_factor() <= 0.7 + 1e-9);
        assert!(r.profile.levels.iter().map(|l| l.memo_probes).sum::<u64>() > 0);
    }
}
