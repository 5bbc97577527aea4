//! The unified planning API.
//!
//! Every optimizer in the workspace — exact DP (`mpdp-dp`), CPU-parallel
//! (`mpdp-parallel`), simulated-GPU (`mpdp-gpu`) and heuristic
//! (`mpdp-heuristics`) — is adapted to one [`Strategy`] trait, so benches,
//! tests and CLIs can treat "Postgres (1CPU)", "MPDP (GPU)" and
//! "UnionDP-MPDP (15)" uniformly and select them by the paper's series
//! labels via [`crate::registry()`].
//!
//! [`PlannerBuilder`] composes the paper's *adaptive deployment* (§6–7):
//! an exact algorithm for queries up to a hardware-dependent relation limit,
//! a large-query heuristic beyond it, and a backend
//! ([`Backend::Sequential`], [`Backend::CpuParallel`], [`Backend::GpuSim`])
//! chosen per platform.

use mpdp_core::counters::{Counters, Profile};
use mpdp_core::plan::PlanTree;
use mpdp_core::{LargeQuery, OptError, QueryInfo};
use mpdp_cost::model::CostModel;
use mpdp_gpu::drivers::{DpSizeGpu, DpSubGpu, MpdpGpu};
use mpdp_gpu::GpuStats;
use mpdp_heuristics::{
    idp1_mpdp, idp2_mpdp, Geqo, Goo, Ikkbz, LargeOptResult, LargeOptimizer, LinDp, UnionDp,
};
use mpdp_parallel::hwmodel::{Calibration, CpuModel};
use mpdp_parallel::{level_par, Dpe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard ceiling of the bitmap-based exact-DP representation (`RelSet` is a
/// 64-bit bitmap).
pub const EXACT_MAX_RELS: usize = 64;

/// Execution backend for the exact side of a [`Planner`].
///
/// On this single-core container, `CpuParallel` and `GpuSim` run their real
/// implementations (plans and counters are identical to `Sequential` —
/// enforced by `tests/exact_equivalence.rs`) while the *reported* time comes
/// from the calibrated work/span model resp. the SIMT simulator (see
/// `DESIGN.md` §2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Plain sequential execution; reported time is measured wall time.
    Sequential,
    /// Level-parallel CPU execution; reported time is the work/span-model
    /// prediction for this many cores.
    CpuParallel(usize),
    /// Software-SIMT execution; reported time is the simulated GTX-1080 time.
    GpuSim,
}

/// Outcome of a [`Strategy`] run: the plan plus uniform observability.
#[derive(Clone, Debug)]
pub struct Planned {
    /// The chosen join plan (leaves carry original relation indices).
    pub plan: PlanTree,
    /// Plan cost under the run's cost model.
    pub cost: f64,
    /// Estimated output cardinality of the full join.
    pub rows: f64,
    /// Measured wall time of the run on this machine.
    pub wall: Duration,
    /// The time to report in figures: `wall` for sequential strategies, the
    /// hardware-model / SIMT-simulated prediction for parallel and GPU ones.
    pub reported: Duration,
    /// Join-Pair counters (exact strategies only).
    pub counters: Option<Counters>,
    /// Per-level statistics feeding the hardware timing model (exact
    /// strategies only).
    pub profile: Option<Profile>,
    /// Device statistics (GPU-simulated strategies only).
    pub gpu: Option<GpuStats>,
    /// Name of the strategy that produced this plan (for adaptive planners,
    /// the branch that actually ran).
    pub strategy: String,
}

impl Planned {
    /// The same result with plan leaves renamed through `new_of_old`
    /// (see [`PlanTree::relabel`]); every other field carries over.
    ///
    /// Built field-wise so the only tree allocated is the relabeled one —
    /// this is the serving layer's canonical-slot translation, run on every
    /// cache hit and store.
    pub fn with_relabeled_plan(&self, new_of_old: &[u32]) -> Planned {
        Planned {
            plan: self.plan.relabel(new_of_old),
            cost: self.cost,
            rows: self.rows,
            wall: self.wall,
            reported: self.reported,
            counters: self.counters,
            profile: self.profile.clone(),
            gpu: self.gpu,
            strategy: self.strategy.clone(),
        }
    }
}

/// A join-order planning algorithm selectable by name.
///
/// This is the single front door over the exact (`QueryInfo`-based) and
/// heuristic (`LargeQuery`-based) algorithms: every strategy accepts both
/// query representations and reports through [`Planned`].
pub trait Strategy: Send + Sync {
    /// The paper's series label for this strategy (e.g. `"MPDP"`,
    /// `"UnionDP-MPDP (15)"`, `"Postgres (1CPU)"`). Round-trips through
    /// [`crate::registry()`].
    fn name(&self) -> String;

    /// `true` if this strategy finds the optimal plan (within the ≤ 64
    /// relation exact regime).
    fn is_exact(&self) -> bool;

    /// `true` if [`Planned::reported`] is a hardware-model or SIMT-simulated
    /// prediction rather than a wall-clock measurement.
    fn reported_is_model(&self) -> bool {
        false
    }

    /// Plans a query of arbitrary size. Exact strategies fail with
    /// [`OptError::TooLarge`] beyond [`EXACT_MAX_RELS`] relations.
    fn plan(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError>;

    /// Plans an already-projected bitmap query (≤ 64 relations). The default
    /// converts back to the adjacency-list form; exact strategies override
    /// this with a direct run.
    fn plan_exact(
        &self,
        q: &QueryInfo,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError> {
        self.plan(&q.to_large(), model, budget)
    }
}

// ---------------------------------------------------------------- exact

/// The exact-algorithm roster behind [`ExactStrategy`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ExactAlgo {
    /// Selinger-style size-driven DP ("Postgres (1CPU)").
    DpSize,
    /// Subset-driven DP (Algorithm 1).
    DpSub,
    /// Moerkotte–Neumann csg-cmp-pair enumeration.
    DpCcp,
    /// MPDP specialized to tree join graphs (Algorithm 2).
    MpdpTree,
    /// General MPDP (Algorithm 3) — the paper's primary contribution.
    Mpdp,
    /// DPE: sequential DPCCP enumeration, dependency-aware parallel costing.
    Dpe {
        /// Cores assumed by the reported-time prediction.
        threads: usize,
    },
    /// Level-parallel MPDP on CPU.
    MpdpCpu {
        /// Cores assumed by the reported-time prediction.
        threads: usize,
    },
    /// Level-parallel DPSUB on CPU.
    DpSubCpu {
        /// Cores assumed by the reported-time prediction.
        threads: usize,
    },
    /// PDP — parallel DPSIZE.
    Pdp {
        /// Cores assumed by the reported-time prediction.
        threads: usize,
    },
    /// MPDP on the simulated GPU, with optional §5 enhancements.
    MpdpGpu {
        /// Kernel fusion of the prune step.
        fused_prune: bool,
        /// Collaborative Context Collection.
        ccc: bool,
    },
    /// DPSUB on the simulated GPU (COMB-GPU baseline).
    DpSubGpu,
    /// DPSIZE on the simulated GPU (H+F-GPU baseline).
    DpSizeGpu,
}

/// Adapter running one [`ExactAlgo`] behind the [`Strategy`] interface.
///
/// CPU-parallel algorithms execute with a single real worker on this
/// container and report the work/span-model prediction for their configured
/// core count, calibrated from the measured run — the same policy the bench
/// harness has always used (see `DESIGN.md` §2).
#[derive(Clone, Debug)]
pub struct ExactStrategy {
    algo: ExactAlgo,
    label: String,
}

impl ExactStrategy {
    /// Creates the adapter with its canonical registry label.
    pub fn new(algo: ExactAlgo) -> Self {
        let label = match algo {
            ExactAlgo::DpSize => "Postgres (1CPU)".to_string(),
            ExactAlgo::DpSub => "DPSub (1CPU)".to_string(),
            ExactAlgo::DpCcp => "DPCCP (1CPU)".to_string(),
            ExactAlgo::MpdpTree => "MPDP-Tree".to_string(),
            ExactAlgo::Mpdp => "MPDP".to_string(),
            ExactAlgo::Dpe { threads } => format!("DPE ({threads}CPU)"),
            ExactAlgo::MpdpCpu { threads } => format!("MPDP ({threads}CPU)"),
            ExactAlgo::DpSubCpu { threads } => format!("DPSub ({threads}CPU)"),
            ExactAlgo::Pdp { threads } => format!("PDP ({threads}CPU)"),
            ExactAlgo::MpdpGpu {
                fused_prune: true,
                ccc: true,
            } => "MPDP (GPU)".to_string(),
            ExactAlgo::MpdpGpu {
                fused_prune: false,
                ccc: false,
            } => "MPDP (GPU, baseline)".to_string(),
            ExactAlgo::MpdpGpu {
                fused_prune: true,
                ccc: false,
            } => "MPDP (GPU, +fusion)".to_string(),
            ExactAlgo::MpdpGpu {
                fused_prune: false,
                ccc: true,
            } => "MPDP (GPU, +CCC)".to_string(),
            ExactAlgo::DpSubGpu => "DPSub (GPU)".to_string(),
            ExactAlgo::DpSizeGpu => "DPSize (GPU)".to_string(),
        };
        ExactStrategy { algo, label }
    }

    /// The wrapped algorithm.
    pub fn algo(&self) -> ExactAlgo {
        self.algo
    }
}

impl Strategy for ExactStrategy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn reported_is_model(&self) -> bool {
        !matches!(
            self.algo,
            ExactAlgo::DpSize
                | ExactAlgo::DpSub
                | ExactAlgo::DpCcp
                | ExactAlgo::MpdpTree
                | ExactAlgo::Mpdp
        )
    }

    fn plan(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError> {
        let qi = q.to_query_info().ok_or(OptError::TooLarge {
            got: q.num_rels(),
            max: EXACT_MAX_RELS,
        })?;
        self.plan_exact(&qi, model, budget)
    }

    fn plan_exact(
        &self,
        q: &QueryInfo,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError> {
        let ctx = match budget {
            Some(b) => mpdp_dp::OptContext::with_budget(q, model, b),
            None => mpdp_dp::OptContext::new(q, model),
        };
        let start = Instant::now();
        let (result, gpu) = match self.algo {
            ExactAlgo::DpSize => (mpdp_dp::DpSize::run(&ctx)?, None),
            ExactAlgo::DpSub => (mpdp_dp::DpSub::run(&ctx)?, None),
            ExactAlgo::DpCcp => (mpdp_dp::DpCcp::run(&ctx)?, None),
            ExactAlgo::MpdpTree => (mpdp_dp::MpdpTree::run(&ctx)?, None),
            ExactAlgo::Mpdp => (mpdp_dp::Mpdp::run(&ctx)?, None),
            // One real worker on this container; `reported` below carries the
            // multi-core prediction.
            ExactAlgo::Dpe { .. } => (Dpe::run(&ctx, 1)?, None),
            ExactAlgo::MpdpCpu { .. } => (
                level_par::run_level_parallel(&ctx, level_par::LevelAlgo::Mpdp, 1)?,
                None,
            ),
            ExactAlgo::DpSubCpu { .. } => (
                level_par::run_level_parallel(&ctx, level_par::LevelAlgo::DpSub, 1)?,
                None,
            ),
            ExactAlgo::Pdp { .. } => (level_par::run_dpsize_parallel(&ctx, 1)?, None),
            ExactAlgo::MpdpGpu { fused_prune, ccc } => {
                let mut drv = MpdpGpu::new();
                drv.config.fused_prune = fused_prune;
                drv.config.ccc = ccc;
                let run = drv.run(&ctx)?;
                (run.result, Some((run.stats, run.simulated_time)))
            }
            ExactAlgo::DpSubGpu => {
                let run = DpSubGpu::new().run(&ctx)?;
                (run.result, Some((run.stats, run.simulated_time)))
            }
            ExactAlgo::DpSizeGpu => {
                let run = DpSizeGpu::new().run(&ctx)?;
                (run.result, Some((run.stats, run.simulated_time)))
            }
        };
        let wall = start.elapsed();
        let reported = match (self.algo, &gpu) {
            (_, Some((_, simulated))) => *simulated,
            (ExactAlgo::Dpe { threads }, None) => {
                let cal = Calibration::from_measurement(&result.profile, wall);
                CpuModel::new(threads).predict_dpe(&result.profile, &cal)
            }
            (
                ExactAlgo::MpdpCpu { threads }
                | ExactAlgo::DpSubCpu { threads }
                | ExactAlgo::Pdp { threads },
                None,
            ) => {
                let cal = Calibration::from_measurement(&result.profile, wall);
                CpuModel::new(threads).predict_level_parallel(&result.profile, &cal)
            }
            _ => wall,
        };
        Ok(Planned {
            plan: result.plan,
            cost: result.cost,
            rows: result.rows,
            wall,
            reported,
            counters: Some(result.counters),
            profile: Some(result.profile),
            gpu: gpu.map(|(stats, _)| stats),
            strategy: self.label.clone(),
        })
    }
}

// ------------------------------------------------------------ heuristic

/// The large-query roster behind [`HeuristicStrategy`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LargeAlgo {
    /// Greedy Operator Ordering.
    Goo,
    /// Optimal left-deep ordering.
    Ikkbz,
    /// Adaptive linearized DP.
    LinDp,
    /// PostgreSQL's genetic optimizer.
    Geqo,
    /// IDP1 with MPDP as the exact step.
    Idp1 {
        /// Sub-problem size bound.
        k: usize,
    },
    /// IDP2 with MPDP as the exact step ("IDP2-MPDP (k)").
    Idp2 {
        /// Sub-problem size bound.
        k: usize,
    },
    /// The paper's partition-based heuristic ("UnionDP-MPDP (k)").
    UnionDp {
        /// Partition size bound.
        k: usize,
    },
}

/// Adapter running one [`LargeAlgo`] behind the [`Strategy`] interface.
#[derive(Copy, Clone, Debug)]
pub struct HeuristicStrategy {
    algo: LargeAlgo,
}

impl HeuristicStrategy {
    /// Creates the adapter.
    pub fn new(algo: LargeAlgo) -> Self {
        HeuristicStrategy { algo }
    }

    /// The wrapped algorithm.
    pub fn algo(&self) -> LargeAlgo {
        self.algo
    }
}

impl Strategy for HeuristicStrategy {
    fn name(&self) -> String {
        match self.algo {
            LargeAlgo::Goo => "GOO".to_string(),
            LargeAlgo::Ikkbz => "IKKBZ".to_string(),
            LargeAlgo::LinDp => "LinDP".to_string(),
            LargeAlgo::Geqo => "GE-QO".to_string(),
            LargeAlgo::Idp1 { k } => format!("IDP1-MPDP ({k})"),
            LargeAlgo::Idp2 { k } => format!("IDP2-MPDP ({k})"),
            LargeAlgo::UnionDp { k } => format!("UnionDP-MPDP ({k})"),
        }
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn plan(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError> {
        let start = Instant::now();
        let r: LargeOptResult = match self.algo {
            LargeAlgo::Goo => Goo.optimize(q, model, budget)?,
            LargeAlgo::Ikkbz => Ikkbz.optimize(q, model, budget)?,
            LargeAlgo::LinDp => LinDp::default().optimize(q, model, budget)?,
            LargeAlgo::Geqo => Geqo::default().optimize(q, model, budget)?,
            LargeAlgo::Idp1 { k } => idp1_mpdp(q, model, k, budget)?,
            LargeAlgo::Idp2 { k } => idp2_mpdp(q, model, k, budget)?,
            LargeAlgo::UnionDp { k } => UnionDp { k }.optimize(q, model, budget)?,
        };
        let wall = start.elapsed();
        Ok(Planned {
            plan: r.plan,
            cost: r.cost,
            rows: r.rows,
            wall,
            reported: wall,
            counters: None,
            profile: None,
            gpu: None,
            strategy: self.name(),
        })
    }
}

// -------------------------------------------------------------- planner

/// The adaptive deployment the paper recommends: exact up to a relation
/// limit, heuristic beyond it. Built by [`PlannerBuilder`]; itself a
/// [`Strategy`] (registered as `"Adaptive"`), so adaptive planners compose
/// anywhere a single algorithm does.
#[derive(Clone)]
pub struct Planner {
    exact: Arc<dyn Strategy>,
    fallback: Arc<dyn Strategy>,
    exact_limit: usize,
    budget: Option<Duration>,
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("exact", &self.exact.name())
            .field("fallback", &self.fallback.name())
            .field("exact_limit", &self.exact_limit)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Planner {
    /// The default adaptive planner (sequential MPDP up to 18 relations,
    /// UnionDP-MPDP (15) beyond).
    pub fn adaptive_default() -> Self {
        PlannerBuilder::new()
            .build()
            .expect("default config is valid")
    }

    /// The exact-side strategy.
    pub fn exact_strategy(&self) -> &Arc<dyn Strategy> {
        &self.exact
    }

    /// The large-query fallback strategy.
    pub fn fallback_strategy(&self) -> &Arc<dyn Strategy> {
        &self.fallback
    }

    /// Largest query size routed to the exact side. Values above
    /// [`EXACT_MAX_RELS`] are honoured by routing the excess to the fallback
    /// (never by failing with [`OptError::TooLarge`]).
    pub fn exact_limit(&self) -> usize {
        self.exact_limit
    }

    /// Plans a query, routing by size. The per-call `budget` of
    /// [`Strategy::plan`] overrides the builder-configured one.
    pub fn plan_query(&self, q: &LargeQuery, model: &dyn CostModel) -> Result<Planned, OptError> {
        self.plan(q, model, self.budget)
    }
}

impl Strategy for Planner {
    fn name(&self) -> String {
        "Adaptive".to_string()
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn plan(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<Planned, OptError> {
        let budget = budget.or(self.budget);
        // A user-raised `exact_limit` must never push a 65+-relation query
        // into the 64-bit bitmap regime: the representable ceiling wins and
        // everything above it routes to the fallback rather than erroring
        // with `TooLarge`.
        if q.num_rels() <= self.exact_limit.min(EXACT_MAX_RELS) {
            self.exact.plan(q, model, budget)
        } else {
            self.fallback.plan(q, model, budget)
        }
    }
}

/// Builder for [`Planner`]: exact algorithm × backend × large-query fallback
/// × exact-limit × budget.
///
/// ```
/// use mpdp::{Backend, ExactAlgo, LargeAlgo, PlannerBuilder};
/// use mpdp_cost::PgLikeCost;
///
/// let model = PgLikeCost::new();
/// let planner = PlannerBuilder::new()
///     .exact(ExactAlgo::Mpdp)
///     .backend(Backend::GpuSim)
///     .fallback(LargeAlgo::UnionDp { k: 15 })
///     .exact_limit(25)
///     .build()
///     .unwrap();
/// let q = mpdp_workload::gen::star(20, 7, &model);
/// let planned = planner.plan_query(&q, &model).unwrap();
/// assert_eq!(planned.plan.num_rels(), 20);
/// ```
#[derive(Clone, Debug)]
pub struct PlannerBuilder {
    exact: ExactChoice,
    backend: Backend,
    fallback: FallbackChoice,
    exact_limit: usize,
    budget: Option<Duration>,
}

#[derive(Clone, Debug)]
enum ExactChoice {
    Algo(ExactAlgo),
    Custom(Arc<dyn Strategy>),
}

impl std::fmt::Debug for dyn Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

#[derive(Clone, Debug)]
enum FallbackChoice {
    Algo(LargeAlgo),
    Custom(Arc<dyn Strategy>),
}

impl Default for PlannerBuilder {
    fn default() -> Self {
        PlannerBuilder {
            exact: ExactChoice::Algo(ExactAlgo::Mpdp),
            backend: Backend::Sequential,
            fallback: FallbackChoice::Algo(LargeAlgo::UnionDp { k: 15 }),
            // 18 is a sensible exact limit for a single CPU core; the paper
            // reaches 25 with a GPU.
            exact_limit: 18,
            budget: None,
        }
    }
}

impl PlannerBuilder {
    /// Paper-default configuration: sequential MPDP up to 18 relations,
    /// UnionDP-MPDP (15) beyond, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the exact algorithm family (combined with [`Self::backend`]).
    /// Parallel/GPU [`ExactAlgo`] variants are also accepted directly, in
    /// which case the backend setting is ignored.
    pub fn exact(mut self, algo: ExactAlgo) -> Self {
        self.exact = ExactChoice::Algo(algo);
        self
    }

    /// Uses a custom exact-side strategy (e.g. one obtained from
    /// [`crate::registry()`]). Overrides [`Self::exact`] and
    /// [`Self::backend`].
    pub fn exact_strategy(mut self, s: Arc<dyn Strategy>) -> Self {
        self.exact = ExactChoice::Custom(s);
        self
    }

    /// Selects the execution backend for the exact side.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the large-query fallback heuristic.
    pub fn fallback(mut self, algo: LargeAlgo) -> Self {
        self.fallback = FallbackChoice::Algo(algo);
        self
    }

    /// Uses a custom fallback strategy. Overrides [`Self::fallback`].
    pub fn fallback_strategy(mut self, s: Arc<dyn Strategy>) -> Self {
        self.fallback = FallbackChoice::Custom(s);
        self
    }

    /// Largest query size optimized exactly. May exceed
    /// [`EXACT_MAX_RELS`]; queries above the representable ceiling always
    /// route to the fallback.
    pub fn exact_limit(mut self, n: usize) -> Self {
        self.exact_limit = n;
        self
    }

    /// Default optimization budget for [`Planner::plan_query`].
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Resolves the configuration. Fails with [`OptError::Internal`] on
    /// combinations that have no implementation (e.g. DPCCP on the GPU).
    pub fn build(self) -> Result<Planner, OptError> {
        let exact: Arc<dyn Strategy> = match self.exact {
            ExactChoice::Custom(s) => s,
            ExactChoice::Algo(algo) => {
                Arc::new(ExactStrategy::new(resolve_backend(algo, self.backend)?))
            }
        };
        let fallback: Arc<dyn Strategy> = match self.fallback {
            FallbackChoice::Custom(s) => s,
            FallbackChoice::Algo(algo) => Arc::new(HeuristicStrategy::new(algo)),
        };
        Ok(Planner {
            exact,
            fallback,
            exact_limit: self.exact_limit,
            budget: self.budget,
        })
    }
}

/// Maps a (sequential algorithm, backend) pair to the concrete roster entry.
fn resolve_backend(algo: ExactAlgo, backend: Backend) -> Result<ExactAlgo, OptError> {
    use ExactAlgo::*;
    Ok(match (algo, backend) {
        // Already-concrete parallel/GPU variants pass through untouched.
        (
            a @ (Dpe { .. }
            | MpdpCpu { .. }
            | DpSubCpu { .. }
            | Pdp { .. }
            | MpdpGpu { .. }
            | DpSubGpu
            | DpSizeGpu),
            _,
        ) => a,
        (a, Backend::Sequential) => a,
        (Mpdp, Backend::CpuParallel(threads)) => MpdpCpu { threads },
        (Mpdp, Backend::GpuSim) => MpdpGpu {
            fused_prune: true,
            ccc: true,
        },
        (DpSub, Backend::CpuParallel(threads)) => DpSubCpu { threads },
        (DpSub, Backend::GpuSim) => DpSubGpu,
        (DpSize, Backend::CpuParallel(threads)) => Pdp { threads },
        (DpSize, Backend::GpuSim) => DpSizeGpu,
        // DPE *is* DPCCP with parallel costing.
        (DpCcp, Backend::CpuParallel(threads)) => Dpe { threads },
        (DpCcp, Backend::GpuSim) => {
            return Err(OptError::Internal(
                "DPCCP has no GPU variant (its enumeration is inherently sequential); \
                 use MPDP, DPSub or DPSize with Backend::GpuSim"
                    .into(),
            ))
        }
        (MpdpTree, b) => {
            return Err(OptError::Internal(format!(
                "MPDP-Tree is sequential-only; backend {b:?} is not supported"
            )))
        }
    })
}
