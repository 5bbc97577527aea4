//! The Algorithm 5 kernel pipeline as this repository runs it: expand →
//! evaluate (→ prune), executed on the software SIMT machine. The paper's
//! device produces a level's sets by unranking all `C(n, i)` candidates and
//! filtering the disconnected ones; here the level's sets are the host's
//! level plan and the simulator charges the `expand` launches that would
//! produce them on the device (the filter survives as the plan's test
//! oracle, `tests/property_tests.rs::check_level_plan`).
//!
//! Each phase does its *real* work (the same enumeration and costing as the
//! CPU algorithms, producing bit-identical memo contents; the one exception
//! is the expand launch, whose output the host's level plan already
//! holds) while charging
//! cycles, memory transactions and transfers to [`GpuStats`]. Cycle costs per
//! micro-operation are rough GTX-1080 instruction-latency figures; absolute
//! times are therefore approximate, but the *relative* behaviour the paper's
//! figures rest on — evaluated-pair counts, divergence, global-write volume —
//! is measured, not assumed.
//!
//! The device memo is the lock-free [`AtomicMemo`] — the same global hash
//! table the paper's lanes hit with `atomicMin`. Evaluate kernels publish
//! winners into it directly: with kernel fusion (§5) a warp first reduces
//! its set's candidates in shared memory and issues *one* atomic publish per
//! set; without fusion every surviving pair performs its own global
//! `atomicMin` and a separate prune launch is charged, as in the \[23\]
//! baselines. Either way the table converges to the identical
//! `(cost, left)`-minimum — the fusion flag only changes the *traffic*, which
//! is exactly what the §7.2.5 ablation measures. The former host-side
//! `scatter` merge no longer exists.
//!
//! The MPDP evaluate kernel does not have a per-set loop of its own: it runs
//! `mpdp-dp`'s `SetKernel`, the loop of the CPU backends, and charges the
//! lanes through its observer hook. That kernel always reduces a set before
//! it publishes, so for unfused MPDP the per-pair atomics are charged (one
//! probe read each) rather than executed.

use crate::simt::{schedule_warp, GpuStats, WarpPolicy, WARP_WIDTH};
use mpdp_core::atomic_memo::AtomicMemo;
use mpdp_core::counters::LevelStats;
use mpdp_core::memo::MemoEntry;
use mpdp_core::query::QueryInfo;
use mpdp_core::RelSet;
use mpdp_cost::model::CostModel;
use mpdp_dp::common::price_pair;
use mpdp_dp::mpdp::{SetKernel, SplitObserver};

/// Cycle-cost constants for the simulated lanes.
pub mod cycles {
    /// One step of the `grow`/connectivity loop.
    pub const GROW_STEP: u32 = 4;
    /// One CCP-block check (empty/disjoint/edge tests).
    pub const CHECK: u32 = 3;
    /// Evaluating the cost function for a valid pair (selectivity product +
    /// three operator costings).
    pub const COST_EVAL: u32 = 48;
    /// Finding blocks for one set (per vertex of the set).
    pub const BLOCKS_PER_VERTEX: u32 = 10;
    /// One hash-table probe.
    pub const HASH_PROBE: u32 = 6;
}

/// Expand kernel — where the paper's device unranks and filters (§5 pipeline
/// with the connected-subset enumerator): one lane per (set, neighbor) pair
/// of the previous level's connected sets; each lane ORs one neighbor bit
/// into its set and publishes the candidate through a device hash set, and
/// a compaction pass (sort + unique, as `thrust::sort`/`unique` would)
/// yields the level's connected sets in ascending bitmap order. Every
/// candidate is connected by construction, so no `grow` walk ever runs.
/// Charged as two launches: the expansion map and the compaction.
///
/// The sets themselves are `level`, which the host's level plan already
/// holds (it had to count them to allocate the device memo): this charges
/// the launches that would turn `prev` into it on the device. (The host
/// itself reaches each set once, see `mpdp_core::enumerate`; a lane per
/// (set, neighbor) pair with a dedup is the data-parallel form.)
pub fn expand_kernel(q: &QueryInfo, prev: &[RelSet], level: &[RelSet], stats: &mut GpuStats) {
    stats.kernel_launches += 2;
    // Neighborhood of the whole set: a handful of word ORs per lane, then
    // one OR + one hash-table publish; uniform cost.
    let lanes: u64 = prev
        .iter()
        .map(|&s| q.graph.neighbors(s).len() as u64)
        .sum();
    charge_uniform(lanes, cycles::CHECK + cycles::HASH_PROBE, stats);
    stats.global_reads += lanes; // each lane loads its source set
    stats.global_writes += level.len() as u64; // compaction output
}

/// Prices one ordered pair of a set of `rows` rows against the device memo
/// with the shared costing, charging the lane's two memo probes.
fn price_lane(
    model: &dyn CostModel,
    memo: &AtomicMemo,
    sl: RelSet,
    sr: RelSet,
    rows: f64,
    stats: &mut GpuStats,
) -> Option<MemoEntry> {
    let cost = price_pair(memo, model, sl, sr, rows)?;
    stats.global_reads += 2;
    Some(MemoEntry {
        set: sl.union(sr),
        left: sl,
        cost,
        rows,
    })
}

/// Charges `tasks` lanes of `cost` cycles each under plain lockstep: every
/// 32-lane batch costs `cost` — what `schedule_warp(Lockstep, ..)` returns
/// for a uniform task list, without building the list.
fn charge_uniform(tasks: u64, cost: u32, stats: &mut GpuStats) {
    stats.warp_cycles += tasks.div_ceil(WARP_WIDTH as u64) * cost as u64;
    stats.busy_cycles += tasks * cost as u64;
}

/// Publishes candidates into the device memo as atomic min-updates,
/// charging the traffic of `atomics` global atomics plus the table's probe
/// reads (the paper's "parallel store on the GPU hash table"). `atomics` is
/// the number of candidates, except for unfused MPDP: the shared set kernel
/// hands over one reduced winner per set, while the device being modelled
/// issues an `atomicMin` per surviving pair, each charged one probe read.
/// Returns the number of successful updates.
fn publish_atomic(
    memo: &AtomicMemo,
    candidates: impl IntoIterator<Item = MemoEntry>,
    atomics: Option<u64>,
    stats: &mut GpuStats,
) -> u64 {
    let probes_before = memo.probe_count();
    let mut published = 0u64;
    let mut writes = 0u64;
    for c in candidates {
        published += 1;
        writes += memo.insert_if_better(c.set, c.left, c.cost, c.rows) as u64;
    }
    let atomics = atomics.unwrap_or(published);
    stats.global_writes += atomics;
    stats.global_reads += memo.probe_count() - probes_before + (atomics - published);
    charge_uniform(atomics, cycles::HASH_PROBE, stats);
    writes
}

/// Keeps the better of two candidates for the same set under the memo's
/// deterministic `(cost, left)` order — the in-warp shared-memory reduction
/// of the fused prune. Using the memo's own tie-break is what keeps the
/// fused and unfused paths (and every CPU backend) bit-identical on exact
/// cost ties.
#[inline]
fn warp_min(best: &mut Option<MemoEntry>, c: MemoEntry) {
    match best {
        Some(b)
            if mpdp_core::memo::candidate_key(b.cost, b.left)
                <= mpdp_core::memo::candidate_key(c.cost, c.left) => {}
        _ => *best = Some(c),
    }
}

/// Evaluate kernel, DPSUB style (§5 / \[23\] COMB-GPU): one warp per set; each
/// lane takes one submask (expanded with PDEP), runs the CCP block and costs
/// survivors. Highly divergent: most lanes fail an early check while a few
/// run the full costing. Winners go straight into the device-global
/// [`AtomicMemo`]: one reduced publish per set with the fused prune, one
/// `atomicMin` per surviving pair (plus a separate prune launch) without.
/// `sets` are the level's and `rows`, parallel to them, their cardinalities;
/// what comes back is the level's counts (`sets`, `evaluated`, `ccp`,
/// `memo_writes` — the winners are already in the device memo).
pub fn evaluate_dpsub_kernel(
    q: &QueryInfo,
    model: &dyn CostModel,
    memo: &AtomicMemo,
    (sets, rows): (&[RelSet], &[f64]),
    policy: WarpPolicy,
    fused_prune: bool,
    stats: &mut GpuStats,
) -> LevelStats {
    stats.kernel_launches += 1;
    let mut out = LevelStats {
        sets: sets.len() as u64,
        ..Default::default()
    };
    let mut pending: Vec<MemoEntry> = Vec::new();
    let mut lane_costs: Vec<u32> = Vec::new(); // per-launch scratch
    for (&s, &rows) in sets.iter().zip(rows) {
        lane_costs.clear();
        let mut best: Option<MemoEntry> = None;
        for sl in s.subsets() {
            out.evaluated += 1;
            let mut lane = cycles::CHECK; // emptiness checks
            let sr = s.difference(sl);
            let candidate = 'eval: {
                if sl.is_empty() || sr.is_empty() {
                    break 'eval None;
                }
                lane += cycles::GROW_STEP * sl.len() as u32;
                if !q.graph.is_connected(sl) {
                    break 'eval None;
                }
                lane += cycles::GROW_STEP * sr.len() as u32;
                if !q.graph.is_connected(sr) {
                    break 'eval None;
                }
                lane += cycles::CHECK; // disjointness + edge test
                if !q.graph.sets_connected(sl, sr) {
                    break 'eval None;
                }
                lane += cycles::COST_EVAL;
                out.ccp += 1;
                price_lane(model, memo, sl, sr, rows, stats)
            };
            if let Some(c) = candidate {
                if fused_prune {
                    warp_min(&mut best, c);
                } else {
                    pending.push(c);
                }
            }
            lane_costs.push(lane);
        }
        let (c, sh) = schedule_warp(policy, &lane_costs);
        stats.warp_cycles += c;
        stats.busy_cycles += lane_costs.iter().map(|&x| x as u64).sum::<u64>();
        stats.shared_ops += sh;
        if fused_prune {
            // In-warp reduction in shared memory; one atomic publish per set.
            stats.shared_ops += lane_costs.len() as u64;
            out.memo_writes += publish_atomic(memo, best, None, stats);
        }
    }
    if !fused_prune {
        // Separate prune kernel: every surviving pair re-read from global
        // memory and min-merged into the table with its own atomic.
        stats.kernel_launches += 1;
        stats.global_reads += pending.len() as u64;
        out.memo_writes += publish_atomic(memo, pending, None, stats);
    }
    out
}

/// Charges the lanes of one set's block splits: every split the shared
/// [`SetKernel`] visits stands for two lanes, `(lb, rb)` and its mirror, each
/// running the CCP block on its own and stalling where its own check fails.
struct LaneCharges<'a>(&'a mut Vec<u32>);

impl SplitObserver for LaneCharges<'_> {
    const BOTH_SIDES: bool = true;

    fn split(&mut self, s: RelSet, lb: RelSet, rb: RelSet, lb_ok: bool, rb_ok: bool) {
        for (first, second, first_ok, second_ok) in [(lb, rb, lb_ok, rb_ok), (rb, lb, rb_ok, lb_ok)]
        {
            let mut lane = cycles::CHECK + cycles::GROW_STEP * first.len() as u32;
            if first_ok {
                lane += cycles::GROW_STEP * second.len() as u32;
                if second_ok {
                    // Edge test, the grow to S-level, the costing.
                    lane += cycles::CHECK + cycles::GROW_STEP * s.len() as u32 + cycles::COST_EVAL;
                }
            }
            self.0.push(lane);
        }
    }
}

/// Evaluate kernel, MPDP style (§5 "Evaluate"): one warp per set; the warp
/// first finds the blocks of the set (the parallel Find-Blocks of \[29\]),
/// then each lane takes one block submask, grows it, and costs the pair. The
/// real work is the shared [`SetKernel`] (the CPU backends' own per-set
/// loop), watched by `LaneCharges`; its reduced winner is the warp's one
/// atomic publish with the fused prune. Without it the winners are published
/// by the separate prune launch, charged one atomic per surviving pair.
pub fn evaluate_mpdp_kernel(
    kernel: &mut SetKernel<'_>,
    memo: &AtomicMemo,
    (sets, rows): (&[RelSet], &[f64]),
    policy: WarpPolicy,
    fused_prune: bool,
    stats: &mut GpuStats,
) -> LevelStats {
    stats.kernel_launches += 1;
    let mut out = LevelStats {
        sets: sets.len() as u64,
        ..Default::default()
    };
    let mut pending: Vec<MemoEntry> = Vec::new();
    let mut lane_costs: Vec<u32> = Vec::new(); // per-launch scratch
    for (&s, &rows) in sets.iter().zip(rows) {
        lane_costs.clear();
        // Warp-cooperative block finding: charged once per set.
        lane_costs.push(cycles::BLOCKS_PER_VERTEX * s.len() as u32);
        let set = kernel.evaluate(memo, s, rows, &mut LaneCharges(&mut lane_costs));
        stats.global_reads += 2 * set.ccp; // two memo probes per costing lane
        out.evaluated += set.evaluated;
        out.ccp += set.ccp;
        let (c, sh) = schedule_warp(policy, &lane_costs);
        stats.warp_cycles += c;
        stats.busy_cycles += lane_costs.iter().map(|&x| x as u64).sum::<u64>();
        stats.shared_ops += sh;
        if fused_prune {
            stats.shared_ops += lane_costs.len() as u64;
            out.memo_writes += publish_atomic(memo, set.best, None, stats);
        } else {
            pending.extend(set.best);
        }
    }
    if !fused_prune {
        stats.kernel_launches += 1; // the separate prune kernel for the level
        stats.global_reads += out.ccp;
        out.memo_writes += publish_atomic(memo, pending, Some(out.ccp), stats);
    }
    out
}

/// Charges the per-level host↔device transfer: the host ships level metadata
/// down and reads the level's best-plan count back.
pub fn level_transfer(sets: usize, stats: &mut GpuStats) {
    stats.levels += 1;
    stats.bytes_transferred += (sets * std::mem::size_of::<u64>()) as u64 + 64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::init_memo;
    use mpdp_workload::gen;

    /// `evaluate_dpsub_kernel` over hand-picked sets, sized by the
    /// definition of a set's cardinality.
    fn evaluate_dpsub_kernel(
        q: &QueryInfo,
        model: &dyn CostModel,
        memo: &AtomicMemo,
        sets: &[RelSet],
        policy: WarpPolicy,
        fused_prune: bool,
        stats: &mut GpuStats,
    ) -> LevelStats {
        let rows: Vec<f64> = sets.iter().map(|&s| q.cardinality(s)).collect();
        super::evaluate_dpsub_kernel(q, model, memo, (sets, &rows), policy, fused_prune, stats)
    }

    fn setup(n: usize) -> (QueryInfo, PgLikeCost, AtomicMemo) {
        let m = PgLikeCost::new();
        let q = gen::star(n, 5, &m).to_query_info().unwrap();
        // Room for every connected set of a star: the hub with any leaves.
        let memo: AtomicMemo = init_memo(&q, 1 << (n - 1));
        (q, m, memo)
    }

    #[test]
    fn evaluate_dpsub_finds_pairs() {
        let (q, m, memo) = setup(4);
        let mut stats = GpuStats::default();
        let sets: Vec<RelSet> = (1..4).map(|d| RelSet::from_indices([0, d])).collect();
        let out =
            evaluate_dpsub_kernel(&q, &m, &memo, &sets, WarpPolicy::Lockstep, true, &mut stats);
        assert_eq!(out.memo_writes, 3); // one published winner per set
        assert_eq!(out.ccp, 6); // 2 ordered pairs per 2-set
        assert_eq!(out.evaluated, 9); // 2^2-1 submasks per set
        for s in sets {
            assert!(memo.get(s).is_some(), "winner for {s} is in the table");
        }
    }

    #[test]
    fn fused_prune_writes_less() {
        let (q, m, _) = setup(6);
        let sets: Vec<RelSet> = (1..6).map(|d| RelSet::from_indices([0, d])).collect();
        let mut fused = GpuStats::default();
        let mut separate = GpuStats::default();
        let memo_a: AtomicMemo = init_memo(&q, sets.len());
        let memo_b: AtomicMemo = init_memo(&q, sets.len());
        let a = evaluate_dpsub_kernel(
            &q,
            &m,
            &memo_a,
            &sets,
            WarpPolicy::Lockstep,
            true,
            &mut fused,
        );
        let b = evaluate_dpsub_kernel(
            &q,
            &m,
            &memo_b,
            &sets,
            WarpPolicy::Lockstep,
            false,
            &mut separate,
        );
        assert!(fused.global_writes < separate.global_writes);
        // Both paths converge the table to the identical winners.
        assert_eq!(a.ccp, b.ccp);
        for s in &sets {
            let (ea, eb) = (memo_a.get(*s).unwrap(), memo_b.get(*s).unwrap());
            assert_eq!(ea.cost.to_bits(), eb.cost.to_bits());
            assert_eq!(ea.left, eb.left);
        }
    }

    #[test]
    fn ccc_reduces_cycles_on_divergent_work() {
        // Level-3 star sets: 7 submasks per set, most failing an early CCP
        // check while two run the full costing — classic divergence.
        let m = PgLikeCost::new();
        let q = gen::star(8, 5, &m).to_query_info().unwrap();
        let memo: AtomicMemo = init_memo(&q, 7 + 21);
        let mut memo_stats = GpuStats::default();
        // Fill level 2 so pricing works at level 3 (the evaluate kernel
        // publishes winners directly into the device table).
        let l2: Vec<RelSet> = (1..8).map(|d| RelSet::from_indices([0, d])).collect();
        evaluate_dpsub_kernel(
            &q,
            &m,
            &memo,
            &l2,
            WarpPolicy::Lockstep,
            true,
            &mut memo_stats,
        );
        // Level 3 sets {0, a, b}.
        let mut l3 = Vec::new();
        for a in 1..8 {
            for b in (a + 1)..8 {
                l3.push(RelSet::from_indices([0, a, b]));
            }
        }
        let mut lockstep = GpuStats::default();
        let mut ccc = GpuStats::default();
        let o1 = evaluate_dpsub_kernel(
            &q,
            &m,
            &memo,
            &l3,
            WarpPolicy::Lockstep,
            true,
            &mut lockstep,
        );
        let o2 = evaluate_dpsub_kernel(
            &q,
            &m,
            &memo,
            &l3,
            WarpPolicy::Ccc {
                overhead_per_pass: 4,
            },
            true,
            &mut ccc,
        );
        assert_eq!(o1.ccp, o2.ccp);
        assert!(ccc.warp_cycles < lockstep.warp_cycles);
        assert!(lockstep.divergence_factor() > 1.2);
    }

    #[test]
    fn evaluate_publishes_then_lookup() {
        let (q, m, memo) = setup(3);
        let mut stats = GpuStats::default();
        let sets: Vec<RelSet> = (1..3).map(|d| RelSet::from_indices([0, d])).collect();
        let out =
            evaluate_dpsub_kernel(&q, &m, &memo, &sets, WarpPolicy::Lockstep, true, &mut stats);
        assert_eq!(out.memo_writes, 2);
        assert!(memo.get(RelSet::from_indices([0, 1])).is_some());
        // Publishing charged the hash-table traffic.
        assert!(stats.global_writes >= 2);
        assert!(stats.global_reads >= 2);
    }
}
