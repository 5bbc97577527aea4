//! Work/span hardware timing model.
//!
//! The paper's headline numbers come from a 24-core Xeon box and a GTX 1080.
//! This container has one core and no GPU, so — per the substitution policy
//! in `DESIGN.md` — multi-core and GPU wall-clock times are *predicted* from
//! each run's per-level [`Profile`] with a calibrated work/span model:
//!
//! * per-operation costs are calibrated from a *measured* single-thread run
//!   in this container (so the model's absolute scale is grounded in real
//!   executions of the real code);
//! * a level-synchronous algorithm's level time is `work / speedup(P) +
//!   sync`, with a contention-degraded `speedup(P)` reproducing Figure 12's
//!   sublinear scaling;
//! * DPE's time keeps enumeration and buffer management sequential, which is
//!   what caps its speedup (Amdahl) and reproduces its Figure 12 plateau;
//! * the GPU model charges kernel launches and PCIe transfers per DP level
//!   (the paper: "MPDP (GPU) does not perform that well [below 10 rels]
//!   because of data transfers cost between CPU and GPU for every level")
//!   plus lane-throughput-limited work.

use mpdp_core::counters::Profile;
use std::time::Duration;

/// Relative operation weights used to turn a profile into "pair-equivalent"
/// work units. An *evaluated Join-Pair* is the unit; unranking a candidate
/// set is far cheaper; per-set overhead (connectivity check, block finding)
/// is a few pair-equivalents.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OpWeights {
    /// Weight of one unranked candidate set.
    pub unrank: f64,
    /// Weight of one connected set's fixed overhead.
    pub set: f64,
    /// Weight of one evaluated Join-Pair.
    pub pair: f64,
    /// Weight of one memo publish that changed the table (`memo_writes`:
    /// one per connected set under MPDP's fused prune, one per improving
    /// candidate under DPSUB/DPSIZE) — a probe chain plus the slot update.
    pub write: f64,
}

impl Default for OpWeights {
    fn default() -> Self {
        OpWeights {
            unrank: 0.15,
            set: 2.0,
            pair: 1.0,
            write: 0.5,
        }
    }
}

/// Calibrated scalar cost: nanoseconds per pair-equivalent operation on one
/// CPU thread of *this* machine.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Calibration {
    /// ns per pair-equivalent unit.
    pub ns_per_unit: f64,
    /// The weights the units were computed with.
    pub weights: OpWeights,
}

impl Calibration {
    /// Default calibration (used when no measured run is available):
    /// ~40 ns per evaluated pair, typical for the release build on this
    /// container.
    pub fn default_for_container() -> Self {
        Calibration {
            ns_per_unit: 40.0,
            weights: OpWeights::default(),
        }
    }

    /// Calibrates from a measured single-thread run.
    pub fn from_measurement(profile: &Profile, elapsed: Duration) -> Self {
        let w = OpWeights::default();
        let units = work_units(profile, &w).max(1.0);
        Calibration {
            ns_per_unit: elapsed.as_nanos() as f64 / units,
            weights: w,
        }
    }
}

/// Total pair-equivalent work units of a profile.
pub fn work_units(profile: &Profile, w: &OpWeights) -> f64 {
    profile
        .levels
        .iter()
        .map(|l| {
            l.unranked as f64 * w.unrank
                + l.sets as f64 * w.set
                + l.evaluated as f64 * w.pair
                + l.memo_writes as f64 * w.write
        })
        .sum()
}

/// A-priori estimate of the pair-equivalent work an *exact* DP spends on an
/// `n`-relation query with `edges` join edges, before any run exists to
/// profile.
///
/// The two closed forms that bracket exact enumeration are the chain
/// (`#CCP ≈ n³/6`, the sparse floor) and the clique (`#CCP ≈ (3ⁿ − 2ⁿ⁺¹)/2`,
/// the dense ceiling); real topologies land in between, roughly
/// log-linearly in edge density. This estimate interpolates the two in log
/// space by density and adds a couple of set-overhead units per pair. It is
/// deliberately coarse — a deadline router only needs the right order of
/// magnitude to decide "can this budget afford exact planning at all", and
/// callers refine it with observed walls (EWMA) as traffic repeats.
pub fn estimate_exact_units(n: usize, edges: usize) -> f64 {
    let n = n.max(2);
    let nf = n as f64;
    let sparse = nf.powi(3) / 2.0;
    // Cap the dense exponent so the estimate stays finite and comparable
    // even for inputs beyond the exact-DP regime.
    let dense = 3f64.powf(nf.min(40.0));
    let min_e = n - 1;
    let max_e = n * (n - 1) / 2;
    let density = if max_e > min_e {
        ((edges.max(min_e) - min_e) as f64 / (max_e - min_e) as f64).clamp(0.0, 1.0)
    } else {
        0.0
    };
    sparse * (dense / sparse).max(1.0).powf(density)
}

/// [`estimate_exact_units`] turned into predicted single-thread wall time
/// with a calibration — the deadline router's "can I afford exact?" check.
pub fn estimate_exact_planning(n: usize, edges: usize, cal: &Calibration) -> Duration {
    Duration::from_nanos((estimate_exact_units(n, edges) * cal.ns_per_unit) as u64)
}

/// Multi-core CPU model.
#[derive(Copy, Clone, Debug)]
pub struct CpuModel {
    /// Number of worker threads.
    pub threads: usize,
    /// Per-extra-thread efficiency loss from cache/memory contention
    /// (Figure 12: "MPDP scales sub-linearly beyond 6 threads since the CPU
    /// caches get swapped out").
    pub contention: f64,
    /// Per-level synchronization barrier cost.
    pub level_sync: Duration,
}

impl CpuModel {
    /// A model for `threads` workers with the defaults used throughout the
    /// benchmarks. The 2 µs level sync reflects the persistent worker pool's
    /// barrier crossings (`mpdp-parallel::pool`); the old per-level
    /// spawn/join + sequential candidate merge is modelled separately by
    /// [`CpuModel::predict_deferred_merge`].
    pub fn new(threads: usize) -> Self {
        CpuModel {
            threads,
            contention: 0.04,
            level_sync: Duration::from_micros(2),
        }
    }

    /// Effective speedup over one thread.
    pub fn speedup(&self) -> f64 {
        let p = self.threads.max(1) as f64;
        p / (1.0 + self.contention * (p - 1.0))
    }

    /// Predicted wall time of a *level-synchronous* algorithm (MPDP, DPSUB,
    /// DPSIZE and their parallel forms) with this CPU.
    pub fn predict_level_parallel(&self, profile: &Profile, cal: &Calibration) -> Duration {
        let mut total_ns = 0.0;
        for l in &profile.levels {
            let units = l.unranked as f64 * cal.weights.unrank
                + l.sets as f64 * cal.weights.set
                + l.evaluated as f64 * cal.weights.pair
                + l.memo_writes as f64 * cal.weights.write;
            total_ns += units * cal.ns_per_unit / self.speedup();
            total_ns += self.level_sync.as_nanos() as f64;
        }
        Duration::from_nanos(total_ns as u64)
    }

    /// Predicted wall time of the *pre-atomic* level-parallel design —
    /// thread-local `Vec<Candidate>` buffers, a sequential per-level merge
    /// into the memo, and a spawn/join round per level (the "deferred
    /// pruning" shape of PDP). `repro scale` reports this next to
    /// [`CpuModel::predict_level_parallel`] so the shared-memo win is
    /// measured against the design it replaced, not asserted.
    pub fn predict_deferred_merge(&self, profile: &Profile, cal: &Calibration) -> Duration {
        // The old pool spawned + joined scoped threads every level.
        const SPAWN_JOIN: Duration = Duration::from_micros(15);
        let mut total_ns = 0.0;
        for l in &profile.levels {
            let par_units = l.unranked as f64 * cal.weights.unrank
                + l.sets as f64 * cal.weights.set
                + l.evaluated as f64 * cal.weights.pair;
            // Every CCP pair became a buffered candidate that the main
            // thread later merged sequentially (insert_if_better + the
            // buffer push/drain, ~3 write-equivalents per candidate).
            let merge_units = l.ccp as f64 * cal.weights.write * 3.0;
            total_ns += par_units * cal.ns_per_unit / self.speedup();
            total_ns += merge_units * cal.ns_per_unit;
            total_ns += SPAWN_JOIN.as_nanos() as f64;
        }
        Duration::from_nanos(total_ns as u64)
    }

    /// Predicted wall time of DPE: enumeration and the dependency buffer are
    /// sequential; only costing scales.
    pub fn predict_dpe(&self, profile: &Profile, cal: &Calibration) -> Duration {
        // Split of per-pair work in DPE: enumeration 25%, buffer insert /
        // reorder 10%, costing 65% (Meister & Saake [22]: parallel DP pays
        // off only when the cost function dominates).
        const ENUM_FRAC: f64 = 0.18;
        const BUFFER_FRAC: f64 = 0.07;
        const COST_FRAC: f64 = 0.75;
        let mut total_ns = 0.0;
        for l in &profile.levels {
            let units =
                l.evaluated as f64 * cal.weights.pair + l.memo_writes as f64 * cal.weights.write;
            let ns = units * cal.ns_per_unit;
            total_ns += ns * (ENUM_FRAC + BUFFER_FRAC);
            total_ns += ns * COST_FRAC / self.speedup();
            total_ns += self.level_sync.as_nanos() as f64;
        }
        Duration::from_nanos(total_ns as u64)
    }
}

/// GPU model with GTX-1080-like constants.
#[derive(Copy, Clone, Debug)]
pub struct GpuModel {
    /// Effective concurrent lanes (SMs × resident warps × 32, derated for
    /// occupancy).
    pub lanes: f64,
    /// How much slower one GPU lane is than one CPU thread on this scalar
    /// workload (clock + memory-latency derating).
    pub lane_slowdown: f64,
    /// Kernel launch latency, charged per kernel per level.
    pub kernel_launch: Duration,
    /// Kernels per DP level (unrank, filter, evaluate+prune fused, scatter).
    pub kernels_per_level: f64,
    /// Host↔device transfer per DP level.
    pub transfer_per_level: Duration,
}

impl GpuModel {
    /// GTX 1080 defaults: 20 SMs, ~64 resident warps each at realistic
    /// occupancy → ~2048 effective lanes, each ~8× slower than a Xeon thread
    /// on branchy scalar code.
    pub fn gtx1080() -> Self {
        GpuModel {
            lanes: 2048.0,
            lane_slowdown: 8.0,
            kernel_launch: Duration::from_micros(8),
            kernels_per_level: 4.0,
            transfer_per_level: Duration::from_micros(60),
        }
    }

    /// Effective throughput multiple over one CPU thread.
    pub fn throughput(&self) -> f64 {
        self.lanes / self.lane_slowdown
    }

    /// Predicted wall time of a level-synchronous algorithm on this GPU.
    ///
    /// `divergence` ≥ 1.0 inflates the work to account for SIMD lockstep
    /// waste (1.0 = perfectly converged warps, e.g. with Collaborative
    /// Context Collection; the `mpdp-gpu` simulator measures the real
    /// factor).
    pub fn predict(&self, profile: &Profile, cal: &Calibration, divergence: f64) -> Duration {
        let mut total_ns = 0.0;
        let per_level_overhead = self.kernel_launch.as_nanos() as f64 * self.kernels_per_level
            + self.transfer_per_level.as_nanos() as f64;
        for l in &profile.levels {
            let units = l.unranked as f64 * cal.weights.unrank
                + l.sets as f64 * cal.weights.set
                + l.evaluated as f64 * cal.weights.pair
                + l.memo_writes as f64 * cal.weights.write;
            total_ns += units * divergence * cal.ns_per_unit / self.throughput();
            total_ns += per_level_overhead;
        }
        Duration::from_nanos(total_ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::counters::LevelStats;

    fn profile(levels: &[(usize, u64, u64, u64)]) -> Profile {
        let mut p = Profile::default();
        for &(size, unranked, sets, evaluated) in levels {
            p.record(LevelStats {
                size,
                unranked,
                sets,
                evaluated,
                ccp: evaluated / 2,
                memo_writes: sets,
                ..Default::default()
            });
        }
        p
    }

    #[test]
    fn speedup_is_sublinear() {
        let m1 = CpuModel::new(1);
        let m6 = CpuModel::new(6);
        let m24 = CpuModel::new(24);
        assert!((m1.speedup() - 1.0).abs() < 1e-9);
        assert!(m6.speedup() > 4.5 && m6.speedup() < 6.0);
        assert!(m24.speedup() > 10.0 && m24.speedup() < 14.0);
    }

    #[test]
    fn more_threads_less_time() {
        let p = profile(&[(2, 100, 50, 5000), (3, 200, 80, 20000)]);
        let cal = Calibration::default_for_container();
        let t1 = CpuModel::new(1).predict_level_parallel(&p, &cal);
        let t8 = CpuModel::new(8).predict_level_parallel(&p, &cal);
        let t24 = CpuModel::new(24).predict_level_parallel(&p, &cal);
        assert!(t1 > t8 && t8 > t24);
    }

    #[test]
    fn deferred_merge_slower_than_atomic_at_scale() {
        // The sequential merge is an Amdahl term the atomic design deletes:
        // at 8+ threads the deferred model must trail, and its speedup over
        // one thread must cap below the atomic design's.
        let p = profile(&[(2, 0, 1000, 200_000), (3, 0, 2000, 800_000)]);
        let cal = Calibration::default_for_container();
        for threads in [4usize, 8, 24] {
            let m = CpuModel::new(threads);
            assert!(
                m.predict_deferred_merge(&p, &cal) > m.predict_level_parallel(&p, &cal),
                "threads={threads}"
            );
        }
        let atomic_speedup = CpuModel::new(8)
            .predict_level_parallel(&p, &cal)
            .as_secs_f64();
        let atomic_speedup = CpuModel::new(1)
            .predict_level_parallel(&p, &cal)
            .as_secs_f64()
            / atomic_speedup;
        let deferred_speedup = CpuModel::new(8)
            .predict_deferred_merge(&p, &cal)
            .as_secs_f64();
        let deferred_speedup = CpuModel::new(1)
            .predict_deferred_merge(&p, &cal)
            .as_secs_f64()
            / deferred_speedup;
        assert!(
            atomic_speedup > deferred_speedup,
            "atomic {atomic_speedup:.2} vs deferred {deferred_speedup:.2}"
        );
    }

    #[test]
    fn dpe_caps_below_level_parallel() {
        // For the same profile and thread count, DPE's sequential enumeration
        // keeps it slower than a level-parallel algorithm at high P.
        let p = profile(&[(2, 0, 100, 100_000), (3, 0, 100, 400_000)]);
        let cal = Calibration::default_for_container();
        let cpu = CpuModel::new(24);
        assert!(cpu.predict_dpe(&p, &cal) > cpu.predict_level_parallel(&p, &cal));
        // And its speedup over 1 thread plateaus under ~3.5x.
        let t1 = CpuModel::new(1).predict_dpe(&p, &cal);
        let t24 = cpu.predict_dpe(&p, &cal);
        let speedup = t1.as_nanos() as f64 / t24.as_nanos() as f64;
        assert!(speedup > 2.0 && speedup < 4.5, "speedup={speedup}");
    }

    #[test]
    fn gpu_wins_big_loses_small() {
        let cal = Calibration::default_for_container();
        let gpu = GpuModel::gtx1080();
        let cpu1 = CpuModel::new(1);
        // Tiny query: overhead dominates; 1-CPU wins.
        let small = profile(&[(2, 10, 5, 20), (3, 10, 4, 30)]);
        assert!(gpu.predict(&small, &cal, 1.0) > cpu1.predict_level_parallel(&small, &cal));
        // Huge level: GPU throughput wins by orders of magnitude.
        let big = profile(&[(20, 1_000_000, 500_000, 500_000_000)]);
        let tg = gpu.predict(&big, &cal, 1.0);
        let tc = cpu1.predict_level_parallel(&big, &cal);
        assert!(tc.as_nanos() > 50 * tg.as_nanos());
    }

    #[test]
    fn divergence_inflates_gpu_time() {
        let cal = Calibration::default_for_container();
        let gpu = GpuModel::gtx1080();
        let p = profile(&[(10, 100_000, 50_000, 10_000_000)]);
        let converged = gpu.predict(&p, &cal, 1.0);
        let diverged = gpu.predict(&p, &cal, 3.0);
        assert!(diverged > converged);
        let ratio = diverged.as_nanos() as f64 / converged.as_nanos() as f64;
        assert!(ratio > 2.0 && ratio < 3.2);
    }

    #[test]
    fn exact_estimate_orders_topologies() {
        // Denser graphs cost more at equal n; bigger n costs more at equal
        // density; and the absolute scale is sane (chain-16 predicted in
        // the µs–ms band with the default container calibration).
        let chain16 = estimate_exact_units(16, 15);
        let dense16 = estimate_exact_units(16, 60);
        let clique16 = estimate_exact_units(16, 120);
        assert!(chain16 < dense16 && dense16 < clique16);
        assert!(estimate_exact_units(10, 9) < chain16);
        let cal = Calibration::default_for_container();
        let t = estimate_exact_planning(16, 15, &cal);
        assert!(t > Duration::from_micros(10) && t < Duration::from_millis(50));
        // Degenerate inputs do not panic or go non-finite.
        assert!(estimate_exact_units(1, 0).is_finite());
        assert!(estimate_exact_units(64, 2016).is_finite());
    }

    #[test]
    fn calibration_from_measurement() {
        let p = profile(&[(2, 0, 10, 1000)]);
        let cal = Calibration::from_measurement(&p, Duration::from_micros(100));
        // 1000 pairs + 10 sets*2 + 10 writes*0.5 = 1025 units over 100µs.
        assert!((cal.ns_per_unit - 100_000.0 / 1025.0).abs() < 1e-6);
    }
}
