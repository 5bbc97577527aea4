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
//! as it is known: MPDP's is `Mpdp::run`'s own level loop
//! ([`run_level`]). Each participant polls the deadline per chunk, as that
//! loop does.
//!
//! PDP ([`run_dpsize_parallel`]) meets a set as the union of many pairs,
//! which different workers price, so a set has no one winner a worker could
//! reduce it to. Each part keeps every candidate it prices as `(slot, left,
//! cost)` (`Candidates`), and the caller applies them all with
//! [`MemoTable::update`] once the job has returned, as DPE
//! ([`crate::dpe`]) does: the table still has one writer. Both poll the
//! deadline per item, as a level's claims do.
//!
//! Result equality with the sequential algorithms is exact and
//! bit-identical at any worker count: the same pairs are priced by the same
//! shared costing (`mpdp_dp::common`), and the memo keeps the minimum under
//! the deterministic `(cost, left)` tie-break, which does not depend on the
//! order the candidates arrive in.

use crate::pool::{chunk_range, with_pool, PoolHandle};
use mpdp_core::blocks::BlockIndex;
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::{candidate_key, MemoTable, MemoView};
use mpdp_core::{OptError, RelSet};
use mpdp_dp::common::{finish, init_memo, level_plan, price_pair, OptContext, OptResult};
use mpdp_dp::dpsub::ccp_splits;
use mpdp_dp::mpdp::{run_level, SetKernel, SetOutcome, LANES};
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
                if let Err(e) = poll(self.ctx, pool, len, k) {
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
}

/// The deadline poll before the `k`-th of a job's `items` items (a level's
/// sets, or a part's share of a class or level of pairs): the context's,
/// once per 1 024 items. Under a test schedule, a poll may report expiry.
#[cfg_attr(not(test), allow(unused_variables))]
pub(crate) fn poll(
    ctx: &OptContext<'_>,
    pool: &PoolHandle<'_>,
    items: usize,
    k: usize,
) -> Result<(), OptError> {
    #[cfg(test)]
    if crate::pool::sched::expired(pool, items) {
        return Err(OptError::Timeout {
            budget: ctx.budget.unwrap_or_default(),
        });
    }
    ctx.poll_deadline(k)
}

/// What one part of a DPE or PDP job hands back: every candidate it priced,
/// as `(slot, left, cost)`, its counts, and the error of its deadline poll,
/// where one failed.
#[derive(Default)]
pub(crate) struct Candidates {
    pub(crate) list: Vec<(usize, RelSet, f64)>,
    pub(crate) evaluated: u64,
    pub(crate) ccp: u64,
    /// The probe steps of the part's finds, which a view does not count.
    pub(crate) probes: u64,
    pub(crate) err: Option<OptError>,
}

impl Candidates {
    /// Writes the parts' candidates into `memo`, the caller being its one
    /// writer once the job has returned, and counts them into `level`; or
    /// returns the first part's error.
    pub(crate) fn publish(
        mut parts: Vec<Candidates>,
        memo: &mut MemoTable,
        level: &mut LevelStats,
    ) -> Result<(), OptError> {
        if let Some(e) = parts.iter_mut().find_map(|part| part.err.take()) {
            return Err(e);
        }
        for part in parts {
            for (slot, left, cost) in part.list {
                level.memo_writes += u64::from(memo.update(slot, left, cost));
            }
            level.evaluated += part.evaluated;
            level.ccp += part.ccp;
            level.memo_probes += part.probes;
        }
        Ok(())
    }
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
                    run_level(ctx, kernel, &mut memo, (sets, rows), start, &mut level)?;
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

/// PDP — parallel DPSIZE \[10\]: per level, the cross products of the
/// previous levels' plan lists are split among workers, which price every
/// pair from the memo's view and hand every candidate back (no deferred
/// pruning); the caller writes them in at the level's end.
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
        let mut memo: MemoTable = init_memo(q, &plan);
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
            let view = memo.view();
            let parts = pool.map(|worker| {
                let mut part = Candidates::default();
                let mine = &items[chunk_range(items.len(), pool.workers(), worker)];
                for (k, &(rk, left)) in mine.iter().enumerate() {
                    if let Err(e) = poll(ctx, pool, items.len(), k) {
                        part.err = Some(e);
                        break;
                    }
                    for &right in plan.level(rk).0 {
                        part.evaluated += 1;
                        if !left.is_disjoint(right) || !q.graph.sets_connected(left, right) {
                            continue;
                        }
                        part.ccp += 1;
                        // Every CCP pair's union is a connected set, so it
                        // was laid out.
                        let (slot, rows, steps) = view.find(left.union(right));
                        part.probes += steps;
                        if let Some(cost) = price_pair(&view, ctx.model, left, right, rows) {
                            part.list.push((slot, left, cost));
                        }
                    }
                }
                part
            });
            Candidates::publish(parts, &mut memo, &mut level)?;
            profile.record(level);
        }
        finish(&memo, q, profile)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpe::Dpe;
    use crate::pool::sched::{self, Fault};
    use mpdp_core::enumerate::ConnectedSets;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::dpccp::DpCcp;
    use mpdp_dp::dpsize::DpSize;
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

    /// A driver run at two parts, or its sequential counterpart.
    type Driver = fn(&OptContext<'_>) -> Result<OptResult, OptError>;

    /// Every driver that runs jobs on the worker set, beside the sequential
    /// driver whose plan, cost bits and counters it must equal.
    const DRIVERS: [(&str, Driver, Driver); 3] = [
        (
            "MPDP",
            |ctx| run_level_parallel(ctx, LevelAlgo::Mpdp, 2),
            Mpdp::run,
        ),
        ("PDP", |ctx| run_dpsize_parallel(ctx, 2), DpSize::run),
        ("DPE", |ctx| Dpe::run(ctx, 2), DpCcp::run),
    ];

    #[test]
    fn helpers_late_absent_or_past_the_cursor_change_nothing() {
        let (q, m, _) = handed_off();
        let ctx = OptContext::new(&q, &m);
        for (name, par, seq) in DRIVERS {
            let seq = seq(&ctx).unwrap();
            let (mut helped, mut alone) = (0, 0);
            for seed in 0..1_000 {
                let r = sched::scheduled(seed, Fault::None, || par(&ctx)).unwrap();
                assert_sequential(&r, &seq, &format!("{name}, seed {seed}"));
                match sched::parts_claimed().1 {
                    0 => alone += 1,
                    _ => helped += 1,
                }
            }
            // Both kinds of schedule occurred, where there is a helper at
            // all.
            if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
                assert!(
                    helped > 0 && alone > 0,
                    "{name}: {helped} helped, {alone} alone"
                );
            }
        }
    }

    #[test]
    fn a_panicking_part_is_rethrown_and_the_next_run_plans_exactly() {
        sched::quiet_panics();
        let (q, m, _) = handed_off();
        let ctx = OptContext::new(&q, &m);
        for (name, par, seq) in DRIVERS {
            let seq = seq(&ctx).unwrap();
            // Every job has two parts: MPDP's five, PDP's and DPE's eight.
            sched::scheduled(0, Fault::None, || par(&ctx)).unwrap();
            let (claims, _) = sched::parts_claimed();
            for seed in 0..1_000 {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    sched::scheduled(seed, Fault::Panic(seed % claims), || par(&ctx))
                }));
                assert!(out.is_err(), "{name}, seed {seed}: the panic is re-thrown");
                let next = par(&ctx).unwrap();
                assert_sequential(&next, &seq, &format!("{name}, after seed {seed}"));
            }
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

    /// Runs `par` on `q` under a budget that runs out in its job of
    /// `widest` items, whose every deadline poll waits until well after
    /// then, and asserts that the run times out inside that job, after
    /// fewer than a quarter of its `polls` polls, and that the next run
    /// plans as `seq` does.
    fn assert_times_out_inside_the_widest_job(
        q: &mpdp_core::QueryInfo,
        (name, par, seq): (&str, Driver, Driver),
        widest: usize,
        polls: u64,
    ) {
        let m = PgLikeCost::new();
        let ctx = OptContext::new(q, &m);
        let started = Instant::now();
        par(&ctx).unwrap();
        let whole = started.elapsed();
        // The jobs before the widest take far less than the budget unless
        // this run is thrice as slow as the one just timed.
        let budget = 2 * whole + Duration::from_millis(50);
        let stall = Fault::Stall {
            sets: widest,
            dur: 3 * whole + Duration::from_millis(100),
        };
        let r = sched::scheduled(7, stall, || par(&OptContext::with_budget(q, &m, budget)));
        assert!(matches!(r, Err(OptError::Timeout { .. })), "{name}: {r:?}");
        let (_, in_job) = sched::polls();
        assert!(
            in_job > 0 && in_job < polls / 4,
            "{name}: {in_job} of {polls}"
        );
        let next = par(&ctx).unwrap();
        assert_sequential(
            &next,
            &seq(&ctx).unwrap(),
            &format!("{name}: the next call"),
        );
    }

    #[test]
    fn a_budget_expiring_in_star_18s_widest_level_times_out_mid_level() {
        let m = PgLikeCost::new();
        let q = gen::star(18, 1, &m).to_query_info().unwrap();
        let plan = ConnectedSets::enumerate(&q);
        let widest = (1..=18).map(|i| plan.level(i).0.len()).max().unwrap();
        let index = BlockIndex::with_tables(&q.graph, plan.sets.len());
        let step = match SetKernel::new(&q, &m, &index).lanes_for(widest) {
            true => LANES,
            false => 1,
        };
        // A participant polls once per chunk or set.
        let polls = widest.div_ceil(step) as u64;
        assert_times_out_inside_the_widest_job(&q, DRIVERS[0], widest, polls);
    }

    #[test]
    fn a_budget_expiring_in_star_11s_last_pdp_level_times_out_mid_level() {
        // The last level's items are every set but the full one, each
        // joined with the sets that complete it.
        let m = PgLikeCost::new();
        let q = gen::star(11, 1, &m).to_query_info().unwrap();
        let widest = ConnectedSets::enumerate(&q).sets.len() - 1;
        let polls = widest as u64;
        assert_times_out_inside_the_widest_job(&q, DRIVERS[1], widest, polls);
    }

    #[test]
    fn a_budget_expiring_in_star_16s_widest_dpe_class_times_out_mid_class() {
        // A class's pairs are the csg-cmp pairs whose union has its size:
        // half its ordered pairs.
        let m = PgLikeCost::new();
        let q = gen::star(16, 1, &m).to_query_info().unwrap();
        let r = Dpe::run(&OptContext::new(&q, &m), 1).unwrap();
        let widest = r.profile.levels.iter().map(|l| l.ccp / 2).max().unwrap();
        let widest = widest as usize;
        assert_times_out_inside_the_widest_job(&q, DRIVERS[2], widest, widest as u64);
    }
}
