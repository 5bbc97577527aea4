//! Unified timed runners for the exact-algorithm roster of Figures 6–9/11.
//!
//! Since the `Planner` API landed, this module is a thin veneer over
//! [`mpdp::registry()`]: [`AlgoKind`] enumerates the paper's roster in
//! legend order and [`run_exact`] resolves each entry by its series label —
//! there is no direct algorithm dispatch here anymore.

use mpdp::Strategy;
use mpdp_core::counters::Counters;
use mpdp_core::{JoinGraph, OptError, QueryInfo, RelInfo};
use mpdp_cost::model::CostModel;
use mpdp_cost::pglike::PgLikeCost;
use std::time::Duration;

/// The Figure 5 nine-relation cyclic query (two 4-blocks + two bridges) —
/// the paper's running example, shared by `repro bench` and `repro exec`.
pub fn figure5_query(model: &PgLikeCost) -> QueryInfo {
    let mut g = JoinGraph::new(9);
    for &(u, v) in &[
        (1, 2),
        (2, 4),
        (4, 3),
        (3, 1),
        (4, 5),
        (5, 9),
        (6, 7),
        (7, 8),
        (8, 9),
        (9, 6),
    ] {
        g.add_edge(u - 1, v - 1, 0.01);
    }
    let rels = (0..9)
        .map(|i| {
            let rows = 1000.0 * (i + 1) as f64;
            RelInfo::new(rows, model.scan_cost(rows))
        })
        .collect();
    QueryInfo::new(g, rels)
}

/// The algorithms of the paper's exact-evaluation figures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// "Postgres (1CPU)": sequential DPSIZE.
    PostgresDpSize,
    /// "DPCCP (1CPU)".
    DpCcp,
    /// "DPE (24CPU)".
    Dpe24,
    /// "DPSub (GPU)" — COMB-GPU of \[23\] on the SIMT simulator.
    DpSubGpu,
    /// "DPSize (GPU)" — H+F-GPU of \[23\] on the SIMT simulator.
    DpSizeGpu,
    /// "MPDP (24CPU)".
    MpdpCpu24,
    /// "MPDP (GPU)".
    MpdpGpu,
    /// Sequential MPDP (for calibration and counter studies).
    MpdpSeq,
    /// Sequential DPSUB (for counter studies).
    DpSubSeq,
}

/// The Figure 6–9 roster, in the paper's legend order.
pub const EXACT_ROSTER: [AlgoKind; 7] = [
    AlgoKind::PostgresDpSize,
    AlgoKind::DpCcp,
    AlgoKind::Dpe24,
    AlgoKind::DpSubGpu,
    AlgoKind::DpSizeGpu,
    AlgoKind::MpdpCpu24,
    AlgoKind::MpdpGpu,
];

impl AlgoKind {
    /// Paper legend name; also the registry key this kind resolves through.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::PostgresDpSize => "Postgres(1CPU)",
            AlgoKind::DpCcp => "DPCCP(1CPU)",
            AlgoKind::Dpe24 => "DPE(24CPU)",
            AlgoKind::DpSubGpu => "DPSub(GPU)",
            AlgoKind::DpSizeGpu => "DPSize(GPU)",
            AlgoKind::MpdpCpu24 => "MPDP(24CPU)",
            AlgoKind::MpdpGpu => "MPDP(GPU)",
            AlgoKind::MpdpSeq => "MPDP(1CPU)",
            AlgoKind::DpSubSeq => "DPSub(1CPU)",
        }
    }

    /// The registry strategy backing this roster entry.
    pub fn strategy(self) -> std::sync::Arc<dyn Strategy> {
        mpdp::registry()
            .get(self.name())
            .expect("every roster entry is registered")
    }

    /// `true` if the reported time comes from the hardware model / SIMT
    /// simulation rather than a direct wall-clock measurement.
    pub fn reported_is_model(self) -> bool {
        self.strategy().reported_is_model()
    }
}

/// Outcome of one timed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Wall time of the real execution on this container.
    pub wall: Duration,
    /// The time reported in figures: wall time for sequential algorithms,
    /// model-predicted 24-core / GTX-1080 time for parallel and GPU ones.
    pub reported: Duration,
    /// Run counters.
    pub counters: Counters,
    /// Optimal plan cost (identical across algorithms; asserted in tests).
    pub cost: f64,
}

/// Runs one algorithm on one query with a time budget. `Err(Timeout)` means
/// the budget was exhausted (the paper reports these as missing points).
pub fn run_exact(
    kind: AlgoKind,
    q: &QueryInfo,
    model: &dyn CostModel,
    budget: Duration,
) -> Result<RunOutcome, OptError> {
    let planned = kind.strategy().plan_exact(q, model, Some(budget))?;
    Ok(RunOutcome {
        wall: planned.wall,
        reported: planned.reported,
        counters: planned.counters.unwrap_or_default(),
        cost: planned.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_workload::gen;

    #[test]
    fn all_roster_algorithms_agree_on_cost() {
        let m = PgLikeCost::new();
        let q = gen::star(7, 11, &m).to_query_info().unwrap();
        let budget = Duration::from_secs(30);
        let baseline = run_exact(AlgoKind::MpdpSeq, &q, &m, budget).unwrap();
        for kind in EXACT_ROSTER {
            let r = run_exact(kind, &q, &m, budget).unwrap();
            assert!(
                (r.cost - baseline.cost).abs() < 1e-6 * baseline.cost.max(1.0),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn roster_resolves_through_registry() {
        for kind in EXACT_ROSTER {
            let s = kind.strategy();
            assert!(s.is_exact(), "{}", kind.name());
        }
        // Legend labels normalize to the canonical registry names.
        assert_eq!(
            AlgoKind::PostgresDpSize.strategy().name(),
            "Postgres (1CPU)"
        );
        assert_eq!(AlgoKind::MpdpSeq.strategy().name(), "MPDP");
        assert_eq!(AlgoKind::MpdpGpu.strategy().name(), "MPDP (GPU)");
    }

    #[test]
    fn timeout_propagates() {
        let m = PgLikeCost::new();
        let q = gen::clique(14, 1, &m).to_query_info().unwrap();
        let r = run_exact(AlgoKind::DpSubSeq, &q, &m, Duration::from_micros(50));
        assert!(matches!(r, Err(OptError::Timeout { .. })));
    }

    #[test]
    fn model_reported_differs_from_wall_for_parallel() {
        let m = PgLikeCost::new();
        let q = gen::star(9, 2, &m).to_query_info().unwrap();
        let r = run_exact(AlgoKind::MpdpCpu24, &q, &m, Duration::from_secs(30)).unwrap();
        // 24-thread prediction must beat the single-thread wall measurement.
        assert!(r.reported < r.wall);
    }
}
