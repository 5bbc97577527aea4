//! GPU optimizer drivers: MPDP (GPU), DPSUB (GPU) and DPSIZE (GPU).
//!
//! Each driver runs the Algorithm 5 host loop: it allocates the device memo
//! for every connected set the host's level plan counted, per DP level
//! launches the expand / evaluate / (prune) kernels on the software SIMT
//! machine (the paper's device unranks and filters where this one expands;
//! see [`crate::kernels`]), then at the end extracts the plan from the device
//! memo — "the final relation is recursively fetched using its left and right
//! join relations, building a join tree in CPU memory".
//!
//! Configuration mirrors the paper's §5 enhancements and §7.2.5 ablation:
//!
//! * `fused_prune` — prune inside the evaluate kernel via shared memory (one
//!   global write per warp) instead of a separate prune kernel;
//! * `ccc` — Collaborative Context Collection for the evaluate kernels.
//!
//! MPDP (GPU) defaults to both on (the paper's configuration); the Meister &
//! Saake baselines (DPSUB-GPU "COMB", DPSIZE-GPU "H+F") default to both off,
//! as in the original work the paper compares against.

use crate::kernels::{
    self, evaluate_dpsub_kernel, evaluate_mpdp_counted, evaluate_mpdp_kernel, expand_kernel,
    level_transfer, TabledSteps,
};
use crate::simt::{GpuConfig, GpuStats, WarpPolicy};
use mpdp_core::blocks::BlockIndex;
use mpdp_core::counters::{LevelStats, Profile};
use mpdp_core::memo::MemoTable;
use mpdp_core::OptError;
use mpdp_dp::common::{finish, init_memo, level_plan, price_pair, OptContext, OptResult};
use mpdp_dp::mpdp::SetKernel;
use std::time::Duration;

/// Which evaluate kernel a GPU driver uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum GpuAlgo {
    Mpdp,
    DpSub,
    DpSize,
}

/// Result bundle of a GPU run: the usual optimizer result plus device stats.
#[derive(Clone, Debug)]
pub struct GpuRun {
    /// Plan, counters, profile — identical semantics to the CPU optimizers.
    pub result: OptResult,
    /// Device execution statistics.
    pub stats: GpuStats,
    /// Simulated wall time under the driver's [`GpuConfig`].
    pub simulated_time: Duration,
}

/// Shared driver configuration.
#[derive(Copy, Clone, Debug)]
pub struct GpuDriverConfig {
    /// Device constants.
    pub device: GpuConfig,
    /// Fuse pruning into the evaluate kernel (§5 "Reducing the number of
    /// global memory writes").
    pub fused_prune: bool,
    /// Use Collaborative Context Collection (§5 "Avoiding 'If' branch
    /// divergence").
    pub ccc: bool,
}

impl GpuDriverConfig {
    /// The paper's MPDP (GPU) configuration: both enhancements on.
    pub fn enhanced() -> Self {
        GpuDriverConfig {
            device: GpuConfig::gtx1080(),
            fused_prune: true,
            ccc: true,
        }
    }

    /// The \[23\] baseline configuration: separate prune, no CCC.
    pub fn baseline() -> Self {
        GpuDriverConfig {
            device: GpuConfig::gtx1080(),
            fused_prune: false,
            ccc: false,
        }
    }

    /// The warp policy of the evaluate launches: CCC where `ccc` is set.
    pub fn policy(&self) -> WarpPolicy {
        if self.ccc {
            WarpPolicy::Ccc {
                overhead_per_pass: 4,
            }
        } else {
            WarpPolicy::Lockstep
        }
    }
}

fn run_level_structured(
    ctx: &OptContext<'_>,
    algo: GpuAlgo,
    cfg: &GpuDriverConfig,
) -> Result<GpuRun, OptError> {
    ctx.validate_exact()?;
    let q = ctx.query;
    let n = q.query_size();
    // The host's level plan, free of stats charges: it sizes the device memo
    // (device memory cannot grow under a kernel), is the output the expand
    // launches are charged for, carries each set's cardinality to the
    // evaluate lanes, and is DPSIZE-GPU's per-size plan lists (the real H+F
    // driver reads those back from the previous level, which is the same
    // list).
    let plan = level_plan(ctx)?;
    // The simulated *device-global* memo: the table every kernel lane
    // publishes into with min-updates, laid out once with every set and its
    // cardinality; the host loop only extracts the plan from it at the end.
    // The lanes run one after another here, so it is written through
    // `&mut`. Lanes publish by key, as the device does: each publish finds
    // its set's slot.
    let mut memo: MemoTable = init_memo(q, &plan);
    let mut profile = Profile::default();
    let mut stats = GpuStats::default();
    // Host-side state of the simulation, not device traffic: MPDP's block
    // structure with the CPU's split tables, the per-set kernel its
    // evaluate launches run, and, under CCC, the grow steps of the tabled
    // blocks, which the kernel reads rather than walks. The lockstep
    // entries' walk of every submask split reads no table.
    let policy = cfg.policy();
    let block_index = match algo {
        GpuAlgo::Mpdp => BlockIndex::with_tables(&q.graph, plan.sets.len()),
        GpuAlgo::DpSub | GpuAlgo::DpSize => BlockIndex::default(),
    };
    let tabled = match policy {
        WarpPolicy::Ccc { .. } => TabledSteps::new(q, &block_index),
        WarpPolicy::Lockstep => TabledSteps::default(),
    };
    let mut set_kernel = SetKernel::counting(q, ctx.model, &block_index);

    for i in 2..=n {
        ctx.check_deadline()?;
        let mut level = LevelStats {
            size: i,
            ..Default::default()
        };
        let probes = memo.health().probes;
        match algo {
            GpuAlgo::Mpdp | GpuAlgo::DpSub => {
                let level_sets = plan.level(i);
                expand_kernel(q, plan.level(i - 1).0, level_sets.0, &mut stats);
                let counted = match (algo, policy) {
                    (GpuAlgo::Mpdp, WarpPolicy::Ccc { overhead_per_pass }) => {
                        evaluate_mpdp_counted(
                            &mut set_kernel,
                            &tabled,
                            &mut memo,
                            level_sets,
                            overhead_per_pass,
                            cfg.fused_prune,
                            &mut stats,
                        )
                    }
                    (GpuAlgo::Mpdp, WarpPolicy::Lockstep) => evaluate_mpdp_kernel(
                        &mut set_kernel,
                        &mut memo,
                        level_sets,
                        policy,
                        cfg.fused_prune,
                        &mut stats,
                    ),
                    _ => evaluate_dpsub_kernel(
                        q,
                        ctx.model,
                        &mut memo,
                        level_sets,
                        policy,
                        cfg.fused_prune,
                        &mut stats,
                    ),
                };
                level = LevelStats { size: i, ..counted };
            }
            GpuAlgo::DpSize => {
                // H+F-GPU: lanes take (left, right) pairs from the size-(k,
                // i-k) lists; invalid (overlapping / cross-product) pairs
                // stall their warp. Survivors hit the global table with
                // their own atomicMin (fused: one per set after an in-warp
                // reduction).
                let level_sets = plan.level(i).0;
                stats.kernel_launches += 1;
                let probes_before = memo.health().probes;
                let mut lane_costs: Vec<u32> = Vec::new();
                let mut publishes = 0u64;
                for k in 1..i {
                    for &left in plan.level(k).0 {
                        for &right in plan.level(i - k).0 {
                            level.evaluated += 1;
                            let mut lane = kernels::cycles::CHECK;
                            if !left.is_disjoint(right) {
                                lane_costs.push(lane);
                                continue;
                            }
                            lane += kernels::cycles::CHECK;
                            if !q.graph.sets_connected(left, right) {
                                lane_costs.push(lane);
                                continue;
                            }
                            level.ccp += 1;
                            lane += kernels::cycles::COST_EVAL;
                            lane_costs.push(lane);
                            let (slot, rows) = memo.find(left.union(right));
                            if let Some(cost) = price_pair(&memo, ctx.model, left, right, rows) {
                                stats.global_reads += 2; // two memo probes
                                publishes += 1;
                                if memo.update(slot, left, cost) {
                                    level.memo_writes += 1;
                                }
                            }
                        }
                    }
                }
                let (cyc, sh) = crate::simt::schedule_warp(policy, &lane_costs);
                stats.warp_cycles += cyc;
                stats.busy_cycles += lane_costs.iter().map(|&x| x as u64).sum::<u64>();
                stats.shared_ops += sh;
                stats.global_reads += memo.health().probes - probes_before;
                if cfg.fused_prune {
                    // In-warp reduction first: one global atomic per set.
                    stats.global_writes += level_sets.len() as u64;
                } else {
                    stats.global_writes += publishes + level_sets.len() as u64;
                    stats.global_reads += publishes;
                    stats.kernel_launches += 1;
                }
                level.sets = level_sets.len() as u64;
            }
        }
        level.memo_probes = memo.health().probes - probes;
        level_transfer(level.sets as usize, &mut stats);
        profile.record(level);
    }

    let result = finish(&memo, q, profile)?;
    let simulated_time = stats.simulated_time(&cfg.device);
    Ok(GpuRun {
        result,
        stats,
        simulated_time,
    })
}

/// MPDP on the simulated GPU — the paper's primary configuration.
#[derive(Copy, Clone, Debug)]
pub struct MpdpGpu {
    /// Driver configuration (enhancements + device constants).
    pub config: GpuDriverConfig,
}

impl MpdpGpu {
    /// Paper configuration: kernel fusion + CCC on a GTX-1080 model.
    pub fn new() -> Self {
        MpdpGpu {
            config: GpuDriverConfig::enhanced(),
        }
    }

    /// Runs and returns the full GPU bundle (plan + device stats +
    /// simulated time).
    pub fn run(&self, ctx: &OptContext<'_>) -> Result<GpuRun, OptError> {
        run_level_structured(ctx, GpuAlgo::Mpdp, &self.config)
    }
}

impl Default for MpdpGpu {
    fn default() -> Self {
        Self::new()
    }
}

/// DPSUB on the simulated GPU (COMB-GPU of \[23\]).
#[derive(Copy, Clone, Debug)]
pub struct DpSubGpu {
    /// Driver configuration.
    pub config: GpuDriverConfig,
}

impl DpSubGpu {
    /// Baseline configuration (no fusion, no CCC) as in \[23\].
    pub fn new() -> Self {
        DpSubGpu {
            config: GpuDriverConfig::baseline(),
        }
    }

    /// Runs and returns the full GPU bundle.
    pub fn run(&self, ctx: &OptContext<'_>) -> Result<GpuRun, OptError> {
        run_level_structured(ctx, GpuAlgo::DpSub, &self.config)
    }
}

impl Default for DpSubGpu {
    fn default() -> Self {
        Self::new()
    }
}

/// DPSIZE on the simulated GPU (H+F-GPU of \[23\]).
#[derive(Copy, Clone, Debug)]
pub struct DpSizeGpu {
    /// Driver configuration.
    pub config: GpuDriverConfig,
}

impl DpSizeGpu {
    /// Baseline configuration as in \[23\].
    pub fn new() -> Self {
        DpSizeGpu {
            config: GpuDriverConfig::baseline(),
        }
    }

    /// Runs and returns the full GPU bundle.
    pub fn run(&self, ctx: &OptContext<'_>) -> Result<GpuRun, OptError> {
        run_level_structured(ctx, GpuAlgo::DpSize, &self.config)
    }
}

impl Default for DpSizeGpu {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::dpsub::DpSub;
    use mpdp_workload::gen;

    fn queries() -> Vec<mpdp_core::QueryInfo> {
        let m = PgLikeCost::new();
        vec![
            gen::star(7, 1, &m).to_query_info().unwrap(),
            gen::cycle(7, 2, &m).to_query_info().unwrap(),
            gen::random_connected(8, 3, 3, &m).to_query_info().unwrap(),
        ]
    }

    #[test]
    fn gpu_drivers_match_cpu_optimum() {
        let m = PgLikeCost::new();
        for q in queries() {
            let ctx = OptContext::new(&q, &m);
            let seq = DpSub::run(&ctx).unwrap();
            for (name, run) in [
                ("mpdp", MpdpGpu::new().run(&ctx).unwrap()),
                ("dpsub", DpSubGpu::new().run(&ctx).unwrap()),
                ("dpsize", DpSizeGpu::new().run(&ctx).unwrap()),
            ] {
                assert!(
                    (run.result.cost - seq.cost).abs() < 1e-6 * seq.cost.max(1.0),
                    "{name}: gpu={} cpu={}",
                    run.result.cost,
                    seq.cost
                );
                assert!(run.result.plan.validate(&q.graph).is_none());
            }
        }
    }

    #[test]
    fn gpu_counters_match_cpu_counterparts() {
        // The simulated MPDP counts its lanes from the CPU kernel's run
        // (CCC) or walks every submask of a block (lockstep), where the CPU
        // kernel walks only the connected left sides; all count Algorithm
        // 3's submasks and find the same plan. Cyclic graphs are where the
        // walks differ.
        let m = PgLikeCost::new();
        let mut qs = vec![
            gen::star(7, 4, &m).to_query_info().unwrap(),
            gen::cycle(9, 4, &m).to_query_info().unwrap(),
        ];
        for seed in 0..6 {
            qs.push(
                gen::random_connected(9, 3 + seed as usize, seed, &m)
                    .to_query_info()
                    .unwrap(),
            );
        }
        for q in qs {
            let ctx = OptContext::new(&q, &m);
            let cpu_sub = DpSub::run(&ctx).unwrap();
            let gpu_sub = DpSubGpu::new().run(&ctx).unwrap();
            assert_eq!(
                gpu_sub.result.counters.evaluated,
                cpu_sub.counters.evaluated
            );
            assert_eq!(gpu_sub.result.counters.ccp, cpu_sub.counters.ccp);
            let cpu_mpdp = mpdp_dp::mpdp::Mpdp::run(&ctx).unwrap();
            let gpu_mpdp = MpdpGpu::new().run(&ctx).unwrap();
            assert_eq!(gpu_mpdp.result.counters, cpu_mpdp.counters);
            assert_eq!(gpu_mpdp.result.cost.to_bits(), cpu_mpdp.cost.to_bits());
            assert_eq!(gpu_mpdp.result.plan, cpu_mpdp.plan);
        }
    }

    #[test]
    fn mpdp_gpu_fewer_cycles_than_dpsub_gpu() {
        // The core claim: fewer evaluated pairs -> fewer device cycles.
        let m = PgLikeCost::new();
        let q = gen::star(9, 6, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let a = MpdpGpu::new().run(&ctx).unwrap();
        let b = DpSubGpu::new().run(&ctx).unwrap();
        assert!(a.stats.warp_cycles < b.stats.warp_cycles);
        assert!(a.result.counters.evaluated < b.result.counters.evaluated);
    }

    #[test]
    fn ablation_fusion_reduces_global_writes() {
        let m = PgLikeCost::new();
        let q = gen::cycle(8, 3, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let mut fused = MpdpGpu::new();
        fused.config.fused_prune = true;
        let mut unfused = MpdpGpu::new();
        unfused.config.fused_prune = false;
        let a = fused.run(&ctx).unwrap();
        let b = unfused.run(&ctx).unwrap();
        assert!(a.stats.global_writes < b.stats.global_writes);
        assert!(a.simulated_time <= b.simulated_time);
    }

    #[test]
    fn ablation_ccc_reduces_divergence() {
        let m = PgLikeCost::new();
        let q = gen::star(9, 2, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let mut with = MpdpGpu::new();
        with.config.ccc = true;
        let mut without = MpdpGpu::new();
        without.config.ccc = false;
        let a = with.run(&ctx).unwrap();
        let b = without.run(&ctx).unwrap();
        assert!(a.stats.warp_cycles <= b.stats.warp_cycles);
        assert!(b.stats.divergence_factor() >= a.stats.divergence_factor());
    }

    #[test]
    fn simulated_time_positive_and_stats_filled() {
        let m = PgLikeCost::new();
        let q = gen::star(6, 8, &m).to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let run = MpdpGpu::new().run(&ctx).unwrap();
        assert!(run.simulated_time > Duration::ZERO);
        // ≥3 kernels × 5 levels: expand (map + compaction) + fused
        // evaluate — the scatter launch is gone, the table is updated by
        // the evaluate lanes themselves.
        assert!(run.stats.kernel_launches >= 3 * 5);
        assert!(run.stats.bytes_transferred > 0);
        assert_eq!(run.stats.levels, 5);
    }
}
