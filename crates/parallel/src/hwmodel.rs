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
//!   what caps its speedup (Amdahl) and reproduces its Figure 12 plateau.
//!
//! GPU times are not modelled here: `mpdp-gpu`'s SIMT simulator counts them.

use mpdp_core::counters::Profile;
use std::time::Duration;

/// Relative operation weights used to turn a profile into "pair-equivalent"
/// work units. An *evaluated Join-Pair* is the unit; per-set overhead
/// (connectivity check, block finding) is a few pair-equivalents.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OpWeights {
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
            l.sets as f64 * w.set + l.evaluated as f64 * w.pair + l.memo_writes as f64 * w.write
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
    /// barrier crossings (`mpdp-parallel::pool`).
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
            let units = l.sets as f64 * cal.weights.set
                + l.evaluated as f64 * cal.weights.pair
                + l.memo_writes as f64 * cal.weights.write;
            total_ns += units * cal.ns_per_unit / self.speedup();
            total_ns += self.level_sync.as_nanos() as f64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::counters::LevelStats;

    fn profile(levels: &[(usize, u64, u64)]) -> Profile {
        let mut p = Profile::default();
        for &(size, sets, evaluated) in levels {
            p.record(LevelStats {
                size,
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
        let p = profile(&[(2, 50, 5000), (3, 80, 20000)]);
        let cal = Calibration::default_for_container();
        let t1 = CpuModel::new(1).predict_level_parallel(&p, &cal);
        let t8 = CpuModel::new(8).predict_level_parallel(&p, &cal);
        let t24 = CpuModel::new(24).predict_level_parallel(&p, &cal);
        assert!(t1 > t8 && t8 > t24);
    }

    #[test]
    fn dpe_caps_below_level_parallel() {
        // For the same profile and thread count, DPE's sequential enumeration
        // keeps it slower than a level-parallel algorithm at high P.
        let p = profile(&[(2, 100, 100_000), (3, 100, 400_000)]);
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
        let p = profile(&[(2, 10, 1000)]);
        let cal = Calibration::from_measurement(&p, Duration::from_micros(100));
        // 1000 pairs + 10 sets*2 + 10 writes*0.5 = 1025 units over 100µs.
        assert!((cal.ns_per_unit - 100_000.0 / 1025.0).abs() < 1e-6);
    }
}
