//! Name-keyed strategy registry.
//!
//! Every algorithm in the workspace is registered under the paper's series
//! label (`"MPDP"`, `"Postgres (1CPU)"`, `"UnionDP-MPDP (15)"`, …) so
//! benches, tests and CLIs select strategies by string:
//!
//! ```
//! use mpdp::registry;
//! use mpdp_cost::PgLikeCost;
//!
//! let model = PgLikeCost::new();
//! let q = mpdp_workload::gen::star(8, 1, &model);
//! let mpdp = registry().get("MPDP").unwrap();
//! let planned = mpdp.plan(&q, &model, None).unwrap();
//! assert_eq!(planned.strategy, "MPDP");
//! ```
//!
//! Lookup is whitespace- and case-insensitive (`"MPDP(GPU)"` ≡
//! `"mpdp (gpu)"`), knows the aliases used across the paper's figures, and
//! resolves *parameterized* families on the fly: `"IDP2-MPDP (7)"`,
//! `"UnionDP-MPDP (20)"`, `"DPE (8CPU)"`, `"MPDP (4CPU)"` all work without
//! being pre-registered.

use crate::planner::{ExactAlgo, ExactStrategy, HeuristicStrategy, LargeAlgo, Planner, Strategy};
use mpdp_heuristics::idp::IDP1_MAX_K;
use std::sync::{Arc, OnceLock};

/// One registered strategy: canonical paper label plus lookup aliases.
struct Entry {
    canonical: &'static str,
    aliases: &'static [&'static str],
    strategy: Arc<dyn Strategy>,
}

/// The name-keyed strategy registry. Obtain the process-wide instance with
/// [`registry()`].
pub struct Registry {
    entries: Vec<Entry>,
}

/// Lookup key normalization: strip whitespace, fold case.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| !c.is_whitespace())
        .collect::<String>()
        .to_lowercase()
}

impl Registry {
    fn build() -> Registry {
        fn exact(
            canonical: &'static str,
            aliases: &'static [&'static str],
            algo: ExactAlgo,
        ) -> Entry {
            Entry {
                canonical,
                aliases,
                strategy: Arc::new(ExactStrategy::new(algo)),
            }
        }
        fn heur(
            canonical: &'static str,
            aliases: &'static [&'static str],
            algo: LargeAlgo,
        ) -> Entry {
            Entry {
                canonical,
                aliases,
                strategy: Arc::new(HeuristicStrategy::new(algo)),
            }
        }
        const NO_ALIAS: &[&str] = &[];
        let entries = vec![
            // Exact, sequential (legend order of Figures 6–9 where present).
            exact(
                "Postgres (1CPU)",
                &["DPSize", "DPSize (1CPU)"],
                ExactAlgo::DpSize,
            ),
            exact("DPSub (1CPU)", &["DPSub"], ExactAlgo::DpSub),
            exact("DPCCP (1CPU)", &["DPCCP"], ExactAlgo::DpCcp),
            exact("MPDP", &["MPDP (1CPU)"], ExactAlgo::Mpdp),
            exact("MPDP-Tree", NO_ALIAS, ExactAlgo::MpdpTree),
            // Exact, CPU-parallel (24 cores = the paper's evaluation box).
            exact("DPE (24CPU)", NO_ALIAS, ExactAlgo::Dpe { threads: 24 }),
            exact("MPDP (24CPU)", NO_ALIAS, ExactAlgo::MpdpCpu { threads: 24 }),
            exact(
                "DPSub (24CPU)",
                NO_ALIAS,
                ExactAlgo::DpSubCpu { threads: 24 },
            ),
            exact("PDP (24CPU)", NO_ALIAS, ExactAlgo::Pdp { threads: 24 }),
            // Exact, simulated GPU.
            exact(
                "MPDP (GPU)",
                NO_ALIAS,
                ExactAlgo::MpdpGpu {
                    fused_prune: true,
                    ccc: true,
                },
            ),
            exact(
                "MPDP (GPU, baseline)",
                NO_ALIAS,
                ExactAlgo::MpdpGpu {
                    fused_prune: false,
                    ccc: false,
                },
            ),
            exact(
                "MPDP (GPU, +fusion)",
                NO_ALIAS,
                ExactAlgo::MpdpGpu {
                    fused_prune: true,
                    ccc: false,
                },
            ),
            exact(
                "MPDP (GPU, +CCC)",
                NO_ALIAS,
                ExactAlgo::MpdpGpu {
                    fused_prune: false,
                    ccc: true,
                },
            ),
            exact("DPSub (GPU)", NO_ALIAS, ExactAlgo::DpSubGpu),
            exact("DPSize (GPU)", NO_ALIAS, ExactAlgo::DpSizeGpu),
            // Heuristics (Tables 1–2).
            heur("GE-QO", &["GEQO"], LargeAlgo::Geqo),
            heur("GOO", NO_ALIAS, LargeAlgo::Goo),
            heur("LinDP", NO_ALIAS, LargeAlgo::LinDp),
            heur("IKKBZ", NO_ALIAS, LargeAlgo::Ikkbz),
            heur("IDP1-MPDP (4)", NO_ALIAS, LargeAlgo::Idp1 { k: 4 }),
            heur("IDP2-MPDP (15)", NO_ALIAS, LargeAlgo::Idp2 { k: 15 }),
            heur("IDP2-MPDP (25)", NO_ALIAS, LargeAlgo::Idp2 { k: 25 }),
            heur("UnionDP-MPDP (15)", NO_ALIAS, LargeAlgo::UnionDp { k: 15 }),
            // The adaptive deployment (§6): exact MPDP ≤ 18, UnionDP beyond.
            Entry {
                canonical: "Adaptive",
                aliases: NO_ALIAS,
                strategy: Arc::new(Planner::adaptive_default()),
            },
        ];
        Registry { entries }
    }

    /// Canonical names in registration order (paper legend order within each
    /// family).
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.canonical).collect()
    }

    /// Resolves `name` to a strategy.
    ///
    /// Tries canonical names and aliases first (whitespace/case-insensitive),
    /// then the parameterized families `IDP1-MPDP (k)` (2 ≤ k ≤ 8),
    /// `IDP2-MPDP (k)`, `UnionDP-MPDP (k)` (k ≥ 2), `DPE (nCPU)`,
    /// `MPDP (nCPU)`, `DPSub (nCPU)`, `PDP (nCPU)`.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Strategy>> {
        let key = normalize(name);
        for e in &self.entries {
            if normalize(e.canonical) == key || e.aliases.iter().any(|a| normalize(a) == key) {
                return Some(Arc::clone(&e.strategy));
            }
        }
        match parse_parameterized(&key)? {
            Parameterized::Exact(a) => Some(Arc::new(ExactStrategy::new(a))),
            Parameterized::Heuristic(a) => Some(Arc::new(HeuristicStrategy::new(a))),
        }
    }
}

/// Outcome of parameterized-name parsing.
enum Parameterized {
    Exact(ExactAlgo),
    Heuristic(LargeAlgo),
}

/// Resolves `base(param)`-shaped names not in the static table.
fn parse_parameterized(key: &str) -> Option<Parameterized> {
    let open = key.find('(')?;
    if !key.ends_with(')') {
        return None;
    }
    let base = &key[..open];
    let param = &key[open + 1..key.len() - 1];
    if let Some(cores) = param.strip_suffix("cpu") {
        let threads: usize = cores.parse().ok().filter(|&t| t >= 1)?;
        let algo = match base {
            "dpe" => ExactAlgo::Dpe { threads },
            "mpdp" => ExactAlgo::MpdpCpu { threads },
            "dpsub" => ExactAlgo::DpSubCpu { threads },
            "pdp" => ExactAlgo::Pdp { threads },
            "dpsize" | "postgres" => ExactAlgo::Pdp { threads },
            _ => return None,
        };
        return Some(Parameterized::Exact(algo));
    }
    let k: usize = param.parse().ok().filter(|&k| k >= 2)?;
    let algo = match base {
        "idp1-mpdp" if k <= IDP1_MAX_K => LargeAlgo::Idp1 { k },
        "idp2-mpdp" => LargeAlgo::Idp2 { k },
        "uniondp-mpdp" | "uniondp" => LargeAlgo::UnionDp { k },
        _ => return None,
    };
    Some(Parameterized::Heuristic(algo))
}

/// The process-wide strategy registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::build)
}
