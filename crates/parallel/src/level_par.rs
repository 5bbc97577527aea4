//! CPU-parallel level-synchronous DP: parallel MPDP, DPSUB and DPSIZE (PDP).
//!
//! All three share the paper's MPDP-GPU skeleton (§5), transplanted to
//! shared-memory CPUs: per level, fan the level's work out to the process's
//! worker set ([`crate::pool`]), let every participant evaluate Join-Pairs
//! against the previous levels' entries (quiescent, read-only), and cross
//! the level barrier when the job returns.
//!
//! MPDP and DPSUB ([`run_level_parallel`]) have one writer per memo slot:
//! a level's sets are independent, so a participant reduces each set it
//! claims to its one winner — MPDP with `mpdp_dp`'s [`SetKernel`], the same
//! per-set kernel and the same eight-set chunks `Mpdp::run` uses, DPSUB
//! under the memo's own `(cost, left)` key — and hands the winners back.
//! The caller writes them into the run's [`MemoTable`] at the level's end,
//! where it holds the table by `&mut`; during the level every participant
//! prices from the table's shared [`view`](MemoTable::view). A level's sets
//! are claimed from a cursor of the level, a run of chunks at a time, so a
//! helper that arrives late takes what is left. A level whose sets the
//! previous level's pace puts below [`MIN_PACE`] each, or below [`GRAIN`]
//! in all, runs on the caller with no hand-off, writing each winner as soon
//! as it is known, as `Mpdp::run` does. Each participant polls the deadline
//! per chunk, as `Mpdp::run` does.
//!
//! PDP ([`run_dpsize_parallel`]) meets a set as the union of many pairs,
//! which different workers price, so its workers publish into the shared
//! [`AtomicMemo`] with a min-update under the slot's lock — the CPU analogue
//! of the paper's `atomicMin` on the device-global hash table.
//!
//! Result equality with the sequential algorithms is exact and
//! bit-identical at any worker count: the same pairs are priced by the same
//! shared costing (`mpdp_dp::common`), and every memo keeps the minimum
//! under the same deterministic `(cost, left)` tie-break, which is
//! order-insensitive.

use crate::pool::{chunk_range, with_pool, PoolHandle};
use mpdp_core::atomic_memo::AtomicMemo;
use mpdp_core::blocks::BlockIndex;
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::{candidate_key, MemoTable, MemoView};
use mpdp_core::{OptError, RelSet};
use mpdp_dp::common::{finish, init_memo, level_plan, price_pair, OptContext, OptResult};
use mpdp_dp::dpsub::ccp_splits;
use mpdp_dp::mpdp::{SetKernel, SetOutcome, LANES};
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which level-parallel algorithm to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LevelAlgo {
    /// Parallel MPDP (block-level hybrid enumeration).
    Mpdp,
    /// Parallel DPSUB (powerset splits).
    DpSub,
}

/// A level runs as a job of the worker set if it has more than one chunk
/// of sets, the previous level's pace — its busy time per set — and the
/// one before it are at least [`MIN_PACE`], and the previous level's pace
/// puts the level at this much work or more; otherwise it runs on the
/// caller alone (DESIGN §6 "Measured
/// scaling": below it, the hand-off costs more than the second thread
/// saves). A pace, not a set count: a set of `chain-20` costs a third of
/// one of `cycle-18`, which walks the cycle's block.
pub const GRAIN: Duration = Duration::from_micros(50);

/// The lightest sets a level is handed off for (DESIGN §6 "Measured
/// scaling"): a star's or a small tree's set, a few gathered lookups of
/// ~40–90 ns, ran no faster on two threads than on one, however many of
/// them a level has; sets of 110 ns and more ran 0.65–0.90× of one thread.
pub const MIN_PACE: Duration = Duration::from_nanos(100);

/// How many claims a level is cut into, and the largest claim: a level's
/// participants claim `sets / CLAIMS_PER_LEVEL` sets at a time, in whole
/// eight-set chunks, at least one and at most [`MAX_CLAIM`] (DESIGN §6
/// "Measured scaling": small levels balance, large ones keep each
/// participant on runs of neighbouring sets).
const CLAIMS_PER_LEVEL: usize = 8;
const MAX_CLAIM: usize = 16 * LANES;

/// The sets a participant claims at once from a level of `sets` sets.
fn sets_per_claim(sets: usize) -> usize {
    (sets / CLAIMS_PER_LEVEL / LANES * LANES).clamp(LANES, MAX_CLAIM)
}

/// One level of a [`run_level_parallel`] run: what every participant reads,
/// and the cursor it claims sets from.
struct Level<'a> {
    ctx: &'a OptContext<'a>,
    algo: LevelAlgo,
    /// The run's memo, read-only while the level runs.
    memo: MemoView<'a>,
    sets: &'a [RelSet],
    rows: &'a [f64],
    claims: Claims,
}

/// A level's claim state, on cache lines of its own: every claim writes it,
/// and every chunk reads the level's other fields.
#[derive(Default)]
#[repr(align(128))]
struct Claims {
    /// The first set no participant has claimed.
    next: AtomicUsize,
    /// Set by a participant whose deadline poll failed: the others stop at
    /// their next claim.
    stop: AtomicBool,
}

/// A part's state across a run's levels — its set kernel, whose chunk
/// set-up is built once, and its share of the current level, which the
/// caller empties at the level's end. Aligned so that two parts' counters
/// share no cache line.
#[repr(align(128))]
struct Part<'a> {
    kernel: SetKernel<'a>,
    /// `(k, left, cost)`: the winner of the level's `k`-th set.
    winners: Vec<(u32, RelSet, f64)>,
    evaluated: u64,
    ccp: u64,
    /// DPSUB's improvements of a set's running best: what a publish per
    /// ordered pair would have written.
    improved: u64,
    /// The part's time in the level.
    busy: Duration,
    err: Option<OptError>,
}

impl<'a> Part<'a> {
    fn new(kernel: SetKernel<'a>) -> Self {
        Part {
            kernel,
            winners: Vec::new(),
            evaluated: 0,
            ccp: 0,
            improved: 0,
            busy: Duration::ZERO,
            err: None,
        }
    }

    fn take(&mut self, k: usize, out: &SetOutcome) {
        self.evaluated += out.evaluated;
        self.ccp += out.ccp;
        if let Some(e) = out.best {
            self.winners.push((k as u32, e.left, e.cost));
        }
    }
}

impl Level<'_> {
    /// Runs the level: as one job on `pool`, each part claiming sets, if
    /// `hand_off`, else on the caller's part alone.
    fn run(&self, pool: &PoolHandle<'_>, parts: &mut [Mutex<Part<'_>>], hand_off: bool) {
        if hand_off {
            pool.run(&|idx| self.participate(pool, &mut parts[idx].lock().expect(UNPOISONED)));
        } else {
            self.participate(pool, parts[0].get_mut().expect(UNPOISONED));
        }
    }

    /// Claims runs of sets until the level's cursor is exhausted or a
    /// participant's deadline poll fails.
    fn participate(&self, pool: &PoolHandle<'_>, part: &mut Part<'_>) {
        let start = Instant::now();
        let len = self.sets.len();
        let claim = sets_per_claim(len);
        let step = match self.algo {
            LevelAlgo::Mpdp if part.kernel.lanes_for(len) => LANES,
            _ => 1,
        };
        'claims: while !self.claims.stop.load(Ordering::Relaxed) {
            let first = self.claims.next.fetch_add(claim, Ordering::Relaxed);
            if first >= len {
                break;
            }
            for k in (first..(first + claim).min(len)).step_by(step) {
                if let Err(e) = self.poll(pool, k) {
                    self.claims.stop.store(true, Ordering::Relaxed);
                    part.err = Some(e);
                    break 'claims;
                }
                match self.algo {
                    LevelAlgo::Mpdp if step == LANES => {
                        let end = (k + LANES).min(len);
                        let (sets, rows) = (&self.sets[k..end], &self.rows[k..end]);
                        let outs = part.kernel.evaluate_chunk(&self.memo, sets, rows);
                        for (j, out) in outs[..end - k].iter().enumerate() {
                            part.take(k + j, out);
                        }
                    }
                    LevelAlgo::Mpdp => {
                        let (s, rows) = (self.sets[k], self.rows[k]);
                        let out = part.kernel.evaluate(&self.memo, s, rows, &mut ());
                        part.take(k, &out);
                    }
                    LevelAlgo::DpSub => self.dpsub_set(k, part),
                }
            }
        }
        part.busy += start.elapsed();
    }

    /// DPSUB's every ordered split of the level's `k`-th set, reduced to its
    /// winner under [`candidate_key`] from the unplanned `(∞, S)` the memo
    /// holds, counting the improvements a publish per pair would make. A
    /// pair with a side missing from the memo is skipped.
    fn dpsub_set(&self, k: usize, part: &mut Part<'_>) {
        let (s, rows) = (self.sets[k], self.rows[k]);
        let mut best = candidate_key(f64::INFINITY, s);
        let mut winner = None;
        let Ok((evaluated, ccp)) = ccp_splits(&self.ctx.query.graph, s, |sl, sr| {
            if let Some(cost) = price_pair(&self.memo, self.ctx.model, sl, sr, rows) {
                let key = candidate_key(cost, sl);
                if key < best {
                    (best, winner) = (key, Some((sl, cost)));
                    part.improved += 1;
                }
            }
            Ok::<(), Infallible>(())
        });
        part.evaluated += evaluated;
        part.ccp += ccp;
        if let Some((left, cost)) = winner {
            part.winners.push((k as u32, left, cost));
        }
    }

    /// The deadline poll before the level's `k`-th set: the context's, once
    /// per 1 024 sets. Under a test schedule, a poll may report expiry.
    #[cfg_attr(not(test), allow(unused_variables))]
    fn poll(&self, pool: &PoolHandle<'_>, k: usize) -> Result<(), OptError> {
        #[cfg(test)]
        if crate::pool::sched::expired(pool, self.sets.len()) {
            return Err(OptError::Timeout {
                budget: self.ctx.budget.unwrap_or_default(),
            });
        }
        self.ctx.poll_deadline(k)
    }
}

/// MPDP's level of `sets` (whose first is the plan's `start`-th set) on the
/// caller alone: `Mpdp::run`'s level loop, each winner written into `memo`
/// as soon as it is known, but pricing from the table's view. `&MemoTable`
/// is not `Freeze` (its probe counter is a `Cell`), so the compiler may not
/// treat the table's fields as constant across the kernel's stores; priced
/// through it, as `Mpdp::run` does, this loop ran 4 % slower over the
/// `plan-exact` grid and 10 % on cliques (DESIGN §6 "Measured scaling").
fn mpdp_alone(
    ctx: &OptContext<'_>,
    kernel: &mut SetKernel<'_>,
    memo: &mut MemoTable,
    (sets, rows): (&[RelSet], &[f64]),
    start: usize,
    level: &mut LevelStats,
) -> Result<(), OptError> {
    let mut publish = |memo: &mut MemoTable, k: usize, out: &SetOutcome| {
        level.evaluated += out.evaluated;
        level.ccp += out.ccp;
        if let Some(e) = out.best {
            level.memo_writes += u64::from(memo.update(memo.slot(start + k), e.left, e.cost));
        }
    };
    if kernel.lanes_for(sets.len()) {
        for (c, (sets, rows)) in sets.chunks(LANES).zip(rows.chunks(LANES)).enumerate() {
            ctx.poll_deadline(c * LANES)?;
            let outs = kernel.evaluate_chunk(&memo.view(), sets, rows);
            for (j, out) in outs[..sets.len()].iter().enumerate() {
                publish(memo, c * LANES + j, out);
            }
        }
    } else {
        for (k, (&s, &rows)) in sets.iter().zip(rows).enumerate() {
            ctx.poll_deadline(k)?;
            let out = kernel.evaluate(&memo.view(), s, rows, &mut ());
            publish(memo, k, &out);
        }
    }
    Ok(())
}

/// Why a part's lock cannot be poisoned: a panicking part unwinds the run.
const UNPOISONED: &str = "a panicking part takes its run down with it";

/// Runs a level-parallel algorithm with `threads` parts per level on the
/// process's worker set (`min(threads, available_parallelism())` threads),
/// the caller writing each level's winners into one [`MemoTable`].
pub fn run_level_parallel(
    ctx: &OptContext<'_>,
    algo: LevelAlgo,
    threads: usize,
) -> Result<OptResult, OptError> {
    ctx.validate_exact()?;
    let q = ctx.query;
    let n = q.query_size();
    with_pool(threads, |pool| {
        // Every level's connected sets and their cardinalities, before the
        // first level, so the memo is laid out at its final size and each
        // set is written by the slot its plan position names.
        let plan = level_plan(ctx)?;
        let mut memo: MemoTable = init_memo(q, &plan);
        let mut profile = Profile::default();
        // The block structure and split tables, built once and shared by
        // every level and part.
        let index = match algo {
            LevelAlgo::Mpdp => BlockIndex::with_tables(&q.graph, plan.sets.len()),
            LevelAlgo::DpSub => BlockIndex::default(),
        };
        let mut parts: Vec<Mutex<Part<'_>>> = (0..pool.workers())
            .map(|_| Mutex::new(Part::new(SetKernel::new(q, ctx.model, &index))))
            .collect();
        // The last level's busy time and sets: its pace predicts the next
        // level's work (level 1, the leaves, is no guide). Its sets count
        // as heavy only if the level before it was heavy too: one slow
        // level, such as a hiccup of the host, is no guide.
        let mut pace = (Duration::ZERO, 1);
        let mut heavy_before = false;
        for i in 2..=n {
            ctx.check_deadline()?;
            let started = Instant::now();
            let (sets, rows) = plan.level(i);
            let work = pace.0.as_nanos() * sets.len() as u128 / pace.1 as u128;
            let heavy_last = pace.0.as_nanos() >= MIN_PACE.as_nanos() * pace.1 as u128;
            let heavy = heavy_last && heavy_before;
            heavy_before = heavy_last;
            let hand_off =
                pool.threads() > 1 && sets.len() > LANES && heavy && work >= GRAIN.as_nanos();
            // A scheduled test run hands off every level it can, so that a
            // small query exercises the worker set.
            #[cfg(test)]
            let hand_off = hand_off || sets.len() > LANES && crate::pool::sched::on(pool);
            let mut level = LevelStats {
                size: i,
                sets: sets.len() as u64,
                memo_probes: memo.layout_probes(i),
                ..Default::default()
            };
            // From when the caller works alone: its time from then on is
            // busy time.
            let alone = match (algo, hand_off) {
                // On the caller alone, MPDP's level is `Mpdp::run`'s: each
                // winner is written as soon as it is known.
                (LevelAlgo::Mpdp, false) => {
                    let kernel = &mut parts[0].get_mut().expect(UNPOISONED).kernel;
                    let start = plan.starts[i - 1];
                    mpdp_alone(ctx, kernel, &mut memo, (sets, rows), start, &mut level)?;
                    started
                }
                _ => {
                    Level {
                        ctx,
                        algo,
                        memo: memo.view(),
                        sets,
                        rows,
                        claims: Claims::default(),
                    }
                    .run(pool, &mut parts, hand_off);
                    // The level barrier has been crossed: every part has
                    // handed its winners back, and the caller, the table's
                    // one writer, publishes them.
                    let alone = Instant::now();
                    let start = plan.starts[i - 1];
                    for part in &mut parts {
                        let part = part.get_mut().expect(UNPOISONED);
                        if let Some(e) = part.err.take() {
                            return Err(e);
                        }
                        for (k, left, cost) in part.winners.drain(..) {
                            let wrote = memo.update(memo.slot(start + k as usize), left, cost);
                            level.memo_writes += u64::from(algo == LevelAlgo::Mpdp && wrote);
                        }
                        level.memo_writes += std::mem::take(&mut part.improved);
                        level.evaluated += std::mem::take(&mut part.evaluated);
                        level.ccp += std::mem::take(&mut part.ccp);
                        level.busy += std::mem::take(&mut part.busy);
                    }
                    alone
                }
            };
            level.busy += alone.elapsed();
            level.wall = started.elapsed();
            pace = (level.busy, sets.len());
            profile.record(level);
        }
        finish(&memo, q, profile)
    })
}

/// Level-wide accumulators of PDP: each worker tallies its slice of a level
/// in a `LevelStats` of its own and folds it in here when the slice is done
/// (sums are partition-invariant, so totals are deterministic at any worker
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

/// PDP — parallel DPSIZE \[10\]: per level, the cross products of the
/// previous levels' plan lists are split among workers, which publish every
/// candidate straight into the shared atomic memo (no deferred pruning).
///
/// The per-size plan lists are the level plan's. A pair does not know where
/// its union sits in the plan: it finds the union's slot, and with it the
/// set's cardinality, in the laid-out memo.
pub fn run_dpsize_parallel(ctx: &OptContext<'_>, threads: usize) -> Result<OptResult, OptError> {
    ctx.validate_exact()?;
    let q = ctx.query;
    let n = q.query_size();
    with_pool(threads, |pool| {
        let plan = level_plan(ctx)?;
        let memo: AtomicMemo = init_memo(q, &plan);
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
            let marks = (memo.probe_count(), memo.cas_retry_count());
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
                        // was laid out.
                        let (slot, rows) = memo_ref.find(left.union(right));
                        if let Some(cost) = price_pair(memo_ref, ctx.model, left, right, rows) {
                            mine.memo_writes += memo_ref.update(slot, left, cost) as u64;
                        }
                    }
                }
                tally.absorb(&mine);
            });
            tally.fill(&mut level);
            level.memo_probes = memo.probe_count() - marks.0;
            level.cas_retries = memo.cas_retry_count() - marks.1;
            profile.record(level);
        }
        finish(&memo, q, profile)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::sched::{self, Fault};
    use mpdp_core::enumerate::ConnectedSets;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::dpsub::DpSub;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
            gen::star(13, 2, &m).to_query_info().unwrap(),
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

    /// The schedule tests' query: a star of 9, whose five widest levels
    /// (28 to 70 sets, four to eight claims each) a scheduled run hands to
    /// the worker set, and its sequential MPDP run, which every scheduled
    /// run must equal.
    fn handed_off() -> (mpdp_core::QueryInfo, PgLikeCost, OptResult) {
        let m = PgLikeCost::new();
        let q = gen::star(9, 2, &m).to_query_info().unwrap();
        let seq = Mpdp::run(&OptContext::new(&q, &m)).unwrap();
        let jobs = seq.profile.levels.iter().filter(|l| l.sets > LANES as u64);
        assert_eq!(jobs.count(), 5, "the widest levels are handed off");
        (q, m, seq)
    }

    /// The plan, the cost bits and the counters of `Mpdp::run`.
    fn assert_sequential(r: &OptResult, seq: &OptResult, what: &str) {
        assert_eq!(r.plan, seq.plan, "{what}: plan");
        assert_eq!(r.cost.to_bits(), seq.cost.to_bits(), "{what}: cost");
        assert_eq!(r.counters, seq.counters, "{what}: counters");
    }

    #[test]
    fn helpers_late_absent_or_past_the_cursor_change_nothing() {
        let (q, m, seq) = handed_off();
        let ctx = OptContext::new(&q, &m);
        let (mut helped, mut alone) = (0, 0);
        for seed in 0..1_000 {
            let run = || run_level_parallel(&ctx, LevelAlgo::Mpdp, 2);
            let r = sched::scheduled(seed, Fault::None, run).unwrap();
            assert_sequential(&r, &seq, &format!("seed {seed}"));
            match sched::helper_claims() {
                0 => alone += 1,
                _ => helped += 1,
            }
        }
        // Both kinds of schedule occurred, where there is a helper at all.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            assert!(helped > 0 && alone > 0, "{helped} helped, {alone} alone");
        }
    }

    #[test]
    fn a_panicking_part_is_rethrown_and_the_next_run_plans_exactly() {
        sched::quiet_panics();
        let (q, m, seq) = handed_off();
        let ctx = OptContext::new(&q, &m);
        // Five jobs of two parts: every claim of the run is one of ten.
        for seed in 0..1_000 {
            let run = || run_level_parallel(&ctx, LevelAlgo::Mpdp, 2);
            let out = catch_unwind(AssertUnwindSafe(|| {
                sched::scheduled(seed, Fault::Panic(seed % 10), run)
            }));
            assert!(out.is_err(), "seed {seed}: the part's panic is re-thrown");
            let next = run_level_parallel(&ctx, LevelAlgo::Mpdp, 2).unwrap();
            assert_sequential(&next, &seq, &format!("after seed {seed}"));
        }
    }

    #[test]
    fn a_deadline_expiring_mid_level_times_out_and_the_next_run_plans_exactly() {
        let (q, m, seq) = handed_off();
        let ctx = OptContext::new(&q, &m);
        let run = || run_level_parallel(&ctx, LevelAlgo::Mpdp, 2);
        sched::scheduled(0, Fault::None, run).unwrap();
        let (polls, _) = sched::polls();
        for seed in 0..1_000u64 {
            // Spread over the handed-off levels' chunks: a level of at most
            // one chunk runs `mpdp_alone`, which polls only the clock.
            let at = seed * 7919 % polls;
            let r = sched::scheduled(seed, Fault::Expire(at), run);
            assert!(
                matches!(r, Err(OptError::Timeout { .. })),
                "seed {seed}: poll {at} of {polls}"
            );
            let next = run_level_parallel(&ctx, LevelAlgo::Mpdp, 2).unwrap();
            assert_sequential(&next, &seq, &format!("after seed {seed}"));
        }
    }

    #[test]
    fn two_concurrent_callers_both_plan_exactly() {
        let (q, m, seq) = handed_off();
        let ctx = OptContext::new(&q, &m);
        let run = || run_level_parallel(&ctx, LevelAlgo::Mpdp, 2).unwrap();
        for seed in 0..1_000 {
            // One of them holds the set; the other runs inline, or takes
            // the set once the first has closed its run.
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| sched::scheduled(seed, Fault::None, run));
                let b = s.spawn(run);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_sequential(&a, &seq, &format!("seed {seed}"));
            assert_sequential(&b, &seq, &format!("seed {seed}"));
        }
    }

    #[test]
    fn a_budget_expiring_in_star_18s_widest_level_times_out_mid_level() {
        let m = PgLikeCost::new();
        let q = gen::star(18, 1, &m).to_query_info().unwrap();
        let plan = ConnectedSets::enumerate(&q);
        let widest = (1..=18).map(|i| plan.level(i).0.len()).max().unwrap();
        let seq_ctx = OptContext::new(&q, &m);
        let index = BlockIndex::with_tables(&q.graph, plan.sets.len());
        let step = match SetKernel::new(&q, &m, &index).lanes_for(widest) {
            true => LANES,
            false => 1,
        };
        let started = Instant::now();
        let seq = Mpdp::run(&seq_ctx).unwrap();
        let whole = started.elapsed();
        // Every poll of the widest level waits until well after the budget
        // has run out; the levels before it take far less than the budget
        // unless this run is thrice as slow as the one just timed.
        let budget = 2 * whole + Duration::from_millis(50);
        let stall = Fault::Stall {
            sets: widest,
            dur: 3 * whole + Duration::from_millis(100),
        };
        let r = sched::scheduled(7, stall, || {
            let ctx = OptContext::with_budget(&q, &m, budget);
            run_level_parallel(&ctx, LevelAlgo::Mpdp, 2)
        });
        assert!(matches!(r, Err(OptError::Timeout { .. })), "{r:?}");
        // It stopped inside the level: a participant polls the clock every
        // 1 024 sets, and a level of `widest` sets has `widest / step`
        // polls.
        let (_, in_level) = sched::polls();
        let all = widest.div_ceil(step) as u64;
        assert!(in_level > 0 && in_level < all / 4, "{in_level} of {all}");
        let next = run_level_parallel(&seq_ctx, LevelAlgo::Mpdp, 2).unwrap();
        assert_sequential(&next, &seq, "the next call");
    }
}
