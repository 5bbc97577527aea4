//! Sweep scales: `quick` (default, sized for this single-core container) and
//! `paper` (the full sweeps of §7, which need hours).

use std::time::Duration;

/// Experiment scale, selected with `REPRO_SCALE={quick,paper}`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweeps + short per-query timeout; minutes on one core.
    Quick,
    /// Paper-sized sweeps + 60 s timeout (the paper's budget).
    Paper,
}

impl Scale {
    /// Reads `REPRO_SCALE` (default `quick`).
    pub fn from_env() -> Scale {
        match std::env::var("REPRO_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Per-query optimization timeout; `REPRO_TIMEOUT_MS` overrides.
    pub fn timeout(self) -> Duration {
        if let Ok(ms) = std::env::var("REPRO_TIMEOUT_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                return Duration::from_millis(ms);
            }
        }
        match self {
            Scale::Quick => Duration::from_millis(2500),
            Scale::Paper => Duration::from_secs(60),
        }
    }

    /// Relation counts for the exact-algorithm sweeps (Figures 6, 7, 9).
    pub fn exact_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
            Scale::Paper => (2..=30).step_by(1).collect(),
        }
    }

    /// Relation counts for the clique sweep (Figure 8; cliques are much more
    /// expensive per relation).
    pub fn clique_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![4, 6, 8, 10, 12, 14],
            Scale::Paper => (2..=20).collect(),
        }
    }

    /// Hard upper bound on exact sizes for the simulated-GPU drivers: the
    /// host's level plan and the device memo hold every connected set (`2²⁵`
    /// on a 26-relation star), which is memory-prohibitive past ~26 relations
    /// on this container.
    pub fn gpu_max_rels(self) -> usize {
        26
    }

    /// Queries per size for averaged experiments (the paper uses 15 for
    /// MusicBrainz and 100 for Tables 1–2).
    pub fn queries_per_size(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Paper => 15,
        }
    }

    /// Queries per size for the heuristic quality tables.
    pub fn table_queries(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Paper => 100,
        }
    }

    /// Table 1 (snowflake) size sweep.
    pub fn table1_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![30, 40, 50, 60, 80, 100, 200],
            Scale::Paper => vec![30, 40, 50, 60, 80, 100, 200, 400, 500, 600, 800, 1000],
        }
    }

    /// Table 2 (star) size sweep.
    pub fn table2_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![30, 40, 50, 60, 80, 100],
            Scale::Paper => vec![30, 40, 50, 60, 80, 100, 200, 300, 400, 500, 600],
        }
    }

    /// Clique heuristic sweep (§7.3 text).
    pub fn table3_sizes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![30, 40, 50],
            Scale::Paper => vec![30, 40, 50, 60, 70, 80, 100],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_default() {
        // Cannot touch the process env safely in parallel tests; just check
        // the accessors are consistent.
        assert!(Scale::Quick.timeout() < Scale::Paper.timeout());
        assert!(Scale::Quick.exact_sizes().len() < Scale::Paper.exact_sizes().len());
        assert!(Scale::Quick.table_queries() < Scale::Paper.table_queries());
    }

    #[test]
    fn sizes_ascending() {
        for s in [Scale::Quick, Scale::Paper] {
            for sizes in [
                s.exact_sizes(),
                s.clique_sizes(),
                s.table1_sizes(),
                s.table2_sizes(),
            ] {
                for w in sizes.windows(2) {
                    assert!(w[0] < w[1]);
                }
            }
        }
    }
}
