//! A software SIMT machine: warps, lockstep execution, branch divergence and
//! Collaborative Context Collection.
//!
//! This is the workspace's substitute for CUDA hardware (see `DESIGN.md` §2).
//! GPU "kernels" in `mpdp-gpu` execute their real per-lane work in ordinary
//! Rust, and charge their cycle costs to the warp scheduler ([`schedule_warp`]): tasks are assigned to
//! 32-lane warps that advance in lockstep, so a warp's batch costs
//! `max(lane costs)` cycles — lanes that exit early (an invalid Join-Pair
//! failing its first CCP check) stall until the slowest lane finishes. That
//! is exactly the §5 divergence problem, and Collaborative Context Collection
//! \[16\] is modelled the way the technique works on hardware: deferred work is
//! stashed in shared memory until a full warp's worth is available, so lane
//! utilization approaches 100% at the price of a small stash-management
//! overhead per pass.

use std::time::Duration;

/// Lanes per warp (CUDA warp width).
pub const WARP_WIDTH: usize = 32;

/// Aggregate execution statistics of one simulated GPU run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Kernel launches performed.
    pub kernel_launches: u64,
    /// Total warp-cycles consumed (the device's busy time in cycles,
    /// summed over warps).
    pub warp_cycles: u64,
    /// Sum of per-task costs — the work a perfectly converged machine would
    /// do. `warp_cycles ≥ busy_cycles / 32`.
    pub busy_cycles: u64,
    /// Global-memory write transactions.
    pub global_writes: u64,
    /// Global-memory read transactions.
    pub global_reads: u64,
    /// Shared-memory operations (CCC stash traffic, warp reductions).
    pub shared_ops: u64,
    /// Host↔device bytes moved.
    pub bytes_transferred: u64,
    /// DP levels executed (each costs one round of launches + transfers).
    pub levels: u64,
}

impl GpuStats {
    /// Merges another run's stats (e.g. per-level accumulation).
    pub fn merge(&mut self, o: &GpuStats) {
        self.kernel_launches += o.kernel_launches;
        self.warp_cycles += o.warp_cycles;
        self.busy_cycles += o.busy_cycles;
        self.global_writes += o.global_writes;
        self.global_reads += o.global_reads;
        self.shared_ops += o.shared_ops;
        self.bytes_transferred += o.bytes_transferred;
        self.levels += o.levels;
    }

    /// Ratio of actual warp-cycles to the perfectly-converged lower bound —
    /// 1.0 means no SIMD waste; DPSUB-style kernels without CCC typically
    /// sit at 2–4.
    pub fn divergence_factor(&self) -> f64 {
        let ideal = (self.busy_cycles as f64 / WARP_WIDTH as f64).max(1.0);
        (self.warp_cycles as f64 / ideal).max(1.0)
    }

    /// Converts the counters into simulated wall time under `cfg`.
    pub fn simulated_time(&self, cfg: &GpuConfig) -> Duration {
        let compute_ns = self.warp_cycles as f64 / (cfg.parallel_warps * cfg.clock_ghz);
        let mem_ns = (self.global_reads + self.global_writes) as f64 * cfg.global_mem_ns
            / cfg.parallel_warps;
        let launch_ns = self.kernel_launches as f64 * cfg.kernel_launch_us * 1000.0;
        let transfer_ns = self.bytes_transferred as f64 / cfg.pcie_gb_per_s
            + self.levels as f64 * cfg.transfer_latency_us * 1000.0;
        Duration::from_nanos((compute_ns + mem_ns + launch_ns + transfer_ns) as u64)
    }
}

/// Device constants (defaults model the paper's NVIDIA GTX 1080).
#[derive(Copy, Clone, Debug)]
pub struct GpuConfig {
    /// Warps the device retires concurrently (SMs × dual issue).
    pub parallel_warps: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Kernel launch latency in µs.
    pub kernel_launch_us: f64,
    /// Amortized cost of one global-memory transaction in ns (per warp).
    pub global_mem_ns: f64,
    /// PCIe bandwidth in bytes/ns (≈ GB/s ÷ 1e9 × 1e9).
    pub pcie_gb_per_s: f64,
    /// Per-level host↔device round-trip latency in µs.
    pub transfer_latency_us: f64,
}

impl GpuConfig {
    /// GTX 1080: 20 SMs at ~1.6 GHz, PCIe 3.0 x16.
    pub fn gtx1080() -> Self {
        GpuConfig {
            parallel_warps: 40.0,
            clock_ghz: 1.6,
            kernel_launch_us: 8.0,
            global_mem_ns: 4.0,
            pcie_gb_per_s: 12.0,
            transfer_latency_us: 25.0,
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx1080()
    }
}

/// Scheduling policy of a simulated kernel.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WarpPolicy {
    /// Plain lockstep: a warp's batch costs `max(lane costs)`.
    Lockstep,
    /// Collaborative Context Collection: deferred tasks are stashed in
    /// shared memory and re-packed, so cycles approach `Σ costs / 32` plus a
    /// stash overhead per repacking pass.
    Ccc {
        /// Shared-memory stash management cost per warp pass, in cycles.
        overhead_per_pass: u32,
    },
}

/// Executes one warp-scheduled task list and returns the consumed cycles.
///
/// `costs` holds the per-task cycle counts (the caller computed the tasks'
/// real work). Returns `(warp_cycles, shared_ops)`.
pub fn schedule_warp(policy: WarpPolicy, costs: &[u32]) -> (u64, u64) {
    if costs.is_empty() {
        return (0, 0);
    }
    match policy {
        WarpPolicy::Lockstep => {
            let mut cycles = 0u64;
            for batch in costs.chunks(WARP_WIDTH) {
                cycles += *batch.iter().max().unwrap() as u64;
            }
            (cycles, 0)
        }
        WarpPolicy::Ccc { overhead_per_pass } => {
            let total: u64 = costs.iter().map(|&c| c as u64).sum();
            schedule_ccc(overhead_per_pass, costs.len() as u64, total)
        }
    }
}

/// [`schedule_warp`] under [`WarpPolicy::Ccc`] for a task list given by its
/// length, `tasks`, and the sum of its costs, `total` — all that the policy
/// reads of it. Returns `(warp_cycles, shared_ops)`.
pub fn schedule_ccc(overhead_per_pass: u32, tasks: u64, total: u64) -> (u64, u64) {
    let passes = tasks.div_ceil(WARP_WIDTH as u64);
    let packed = total.div_ceil(WARP_WIDTH as u64);
    // Each pass stashes/unstashes via shared memory: 2 shared ops per task
    // plus bookkeeping.
    let shared = 2 * tasks + passes;
    (packed + passes * overhead_per_pass as u64, shared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_charges_max_per_batch() {
        // One warp: 31 cheap lanes + 1 expensive -> whole warp pays 100.
        let mut costs = vec![4u32; 31];
        costs.push(100);
        let (cycles, _) = schedule_warp(WarpPolicy::Lockstep, &costs);
        assert_eq!(cycles, 100);
        // Two warps.
        let costs2 = vec![10u32; 33];
        let (cycles2, _) = schedule_warp(WarpPolicy::Lockstep, &costs2);
        assert_eq!(cycles2, 20);
    }

    #[test]
    fn ccc_packs_work() {
        let mut costs = vec![4u32; 31];
        costs.push(100);
        let (lockstep, _) = schedule_warp(WarpPolicy::Lockstep, &costs);
        let (ccc, shared) = schedule_warp(
            WarpPolicy::Ccc {
                overhead_per_pass: 4,
            },
            &costs,
        );
        assert!(ccc < lockstep, "ccc={ccc} lockstep={lockstep}");
        assert!(shared > 0);
        // Lower bound: ceil(sum/32).
        let sum: u64 = costs.iter().map(|&c| c as u64).sum();
        assert!(ccc >= sum.div_ceil(32));
    }

    #[test]
    fn ccc_never_helps_uniform_work() {
        // Uniform costs have no divergence; CCC's overhead makes it slightly
        // worse — matching the paper's "impact depends on graph topology".
        let costs = vec![50u32; 64];
        let (lockstep, _) = schedule_warp(WarpPolicy::Lockstep, &costs);
        let (ccc, _) = schedule_warp(
            WarpPolicy::Ccc {
                overhead_per_pass: 4,
            },
            &costs,
        );
        assert!(ccc >= lockstep);
    }

    #[test]
    fn empty_task_list() {
        assert_eq!(schedule_warp(WarpPolicy::Lockstep, &[]), (0, 0));
        assert_eq!(
            schedule_warp(
                WarpPolicy::Ccc {
                    overhead_per_pass: 4
                },
                &[]
            ),
            (0, 0)
        );
    }

    #[test]
    fn divergence_factor_sane() {
        let s = GpuStats {
            warp_cycles: 300,
            busy_cycles: 3200, // ideal = 100
            ..Default::default()
        };
        assert!((s.divergence_factor() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_time_components() {
        let cfg = GpuConfig::gtx1080();
        let a = GpuStats {
            warp_cycles: 1_000_000,
            ..Default::default()
        };
        let base = a.simulated_time(&cfg);
        let mut b = a;
        b.kernel_launches = 100;
        assert!(b.simulated_time(&cfg) > base);
        let mut c = a;
        c.bytes_transferred = 100_000_000;
        assert!(c.simulated_time(&cfg) > base);
    }

    #[test]
    fn stats_merge() {
        let mut a = GpuStats {
            kernel_launches: 1,
            warp_cycles: 10,
            busy_cycles: 20,
            global_writes: 3,
            global_reads: 4,
            shared_ops: 5,
            bytes_transferred: 6,
            levels: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.kernel_launches, 2);
        assert_eq!(a.warp_cycles, 20);
        assert_eq!(a.levels, 2);
    }
}
