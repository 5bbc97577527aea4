//! `repro exec` — the executor-backed modeled-cost vs measured-runtime
//! experiment.
//!
//! For each query shape the harness (1) lifts the query into a catalog via
//! `mpdp_exec::synthesize_catalog` (the JOB shape's *statistics* come from
//! the real `ImdbSchema::catalog()` at scale factor 1/100, then take the
//! same synthesized-catalog path as every other shape), (2) materializes
//! columnar tables from the catalog statistics with a deterministic seed,
//! (3) plans the *scaled*
//! query with every strategy of [`EXEC_STRATEGIES`] and executes each plan,
//! and (4) reports modeled plan cost next to measured execution wall time
//! and the executor's deterministic rows-touched work measure, with
//! Spearman rank correlations per query.
//!
//! One built-in check makes this a test as much as a report: all
//! strategies' plans of one query must produce the identical root
//! cardinality (joins are commutative and associative; any divergence is a
//! planner or executor bug and fails the run).

use crate::runner::figure5_query;
use crate::stats::{mean, spearman};
use mpdp::registry;
use mpdp_core::counters::ExecCounters;
use mpdp_core::LargeQuery;
use mpdp_cost::{CostModel, PgLikeCost};
use mpdp_exec::{materialize, synthesize_catalog, ExecConfig, Executor, GenConfig};
use mpdp_parallel::pool::with_pool;
use mpdp_workload::ImdbSchema;
use std::time::Duration;

/// The strategy roster executed per query: three exact entries (which must
/// agree on the optimal plan) and two heuristics (whose worse modeled costs
/// should show up as worse measured runtimes).
pub const EXEC_STRATEGIES: [&str; 5] = ["DPCCP (1CPU)", "MPDP", "MPDP (4CPU)", "GOO", "IKKBZ"];

/// One query shape of the experiment.
pub struct ExecCase {
    /// Shape label.
    pub shape: &'static str,
    /// The query, with its original (unscaled) statistics.
    pub query: LargeQuery,
    /// Per-table materialized row cap for this shape (dense shapes need a
    /// lower cap to keep intermediate results in memory).
    pub max_table_rows: usize,
}

/// Deterministic log-uniform draw in `[lo, hi]` (no RNG state — the shape
/// builders below must produce the same statistics on every run).
fn log_uniform(seed: u64, i: u64, lo: f64, hi: f64) -> f64 {
    use mpdp_core::memo::murmur3_fmix64;
    let u = murmur3_fmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as f64 / u64::MAX as f64;
    (lo.ln() + u * (hi.ln() - lo.ln())).exp().round()
}

/// The default shape set: fig5 / chain / star / cycle plus a JOB-shaped
/// catalog query over the (scaled) IMDB-like schema.
///
/// The synthetic shapes mirror the paper's workload generators but carry
/// **executor-scale statistics**: key domains commensurate with the
/// materialized row counts, so multi-way joins neither explode nor starve
/// to zero rows — the warehouse-sized `gen::*` statistics (10⁶–10⁸-row
/// tables) would need that many actual tuples for their PK–FK joins to
/// produce output at all. The JOB shape takes the real `ImdbSchema`
/// catalog through [`mpdp_cost::Catalog::scaled`] (factor 1/100) for the
/// same reason — the scale factor, not the shape, is the concession.
pub fn default_cases(model: &PgLikeCost) -> Vec<ExecCase> {
    let seed = 0x45584543; // "EXEC"

    // chain 0-1-…-9: PK-FK edges between neighbours, sel = 1/max(pair).
    let chain_rows: Vec<f64> = (0..10)
        .map(|i| log_uniform(seed, i, 3_000.0, 15_000.0))
        .collect();
    let mut chain = LargeQuery::new(
        chain_rows
            .iter()
            .map(|&r| mpdp_core::RelInfo::new(r, model.scan_cost(r)))
            .collect(),
    );
    for i in 1..10 {
        chain.add_edge(i - 1, i, 1.0 / chain_rows[i - 1].max(chain_rows[i]));
    }
    // cycle: the chain closed by a *non-PK-FK* predicate (NDV ≪ rows, the
    // Figure 10(b) convention) — a PK-FK closing edge would filter the few
    // hundred surviving chain rows by 1/15000 and leave an empty result.
    let mut cycle = chain.clone();
    cycle.add_edge(9, 0, 1.0 / 30.0);
    // star: one 15k-row fact, 9 dimensions with selection factors in
    // [0.4, 0.95] (kept rows over a full PK domain), sel = 1/base.
    let mut star_rows = vec![15_000.0];
    let mut star_base = vec![0.0];
    for i in 0..9u64 {
        let base = log_uniform(seed ^ 0x5354, i, 300.0, 2_000.0);
        let sel_frac = 0.4 + (log_uniform(seed ^ 0x53454c, i, 100.0, 155.0) - 100.0) / 100.0;
        star_base.push(base);
        star_rows.push((base * sel_frac).max(1.0).round());
    }
    let mut star = LargeQuery::new(
        star_rows
            .iter()
            .map(|&r| mpdp_core::RelInfo::new(r, model.scan_cost(r)))
            .collect(),
    );
    for (i, &base) in star_base.iter().enumerate().skip(1) {
        star.add_edge(0, i, 1.0 / base);
    }
    // fig5: the paper's Figure 5 topology at 1/10 of its row counts (its
    // uniform 0.01 selectivities over 10 edges multiply intermediates).
    let mut fig5 = figure5_query(model).to_large();
    for r in &mut fig5.rels {
        r.rows = (r.rows / 10.0).round();
        r.cost = model.scan_cost(r.rows);
    }
    // JOB: the IMDB-like schema at scale factor 1/100.
    let schema = ImdbSchema::new();
    let (tables, preds) = schema.catalog_query(7);
    let job = schema
        .catalog()
        .scaled(0.01)
        .build_query(&tables, &preds, model);
    vec![
        ExecCase {
            shape: "fig5",
            query: fig5,
            max_table_rows: 30_000,
        },
        ExecCase {
            shape: "chain",
            query: chain,
            max_table_rows: 30_000,
        },
        ExecCase {
            shape: "star",
            query: star,
            max_table_rows: 30_000,
        },
        ExecCase {
            shape: "cycle",
            query: cycle,
            max_table_rows: 30_000,
        },
        ExecCase {
            shape: "job",
            query: job,
            max_table_rows: 30_000,
        },
    ]
}

/// One strategy's planned-and-executed run on one query.
pub struct StrategyRun {
    /// Registry label.
    pub algorithm: String,
    /// Modeled plan cost (on the scaled query the executor ran).
    pub modeled_cost: f64,
    /// Execution wall time in milliseconds (median of 3 runs).
    pub exec_wall_ms: f64,
    /// Observed root cardinality.
    pub root_rows: u64,
    /// Executor counters (rows built/probed/emitted, batches, joins).
    pub counters: ExecCounters,
    /// Payload bytes per result row (table widths summed over the join).
    pub bytes_per_row: u64,
}

impl StrategyRun {
    /// Rows touched per second of measured execution wall — the executor's
    /// throughput figure (work measure over wall, so comparable across
    /// plans that produce the same result).
    pub fn rows_per_sec(&self) -> f64 {
        if self.exec_wall_ms <= 0.0 {
            0.0
        } else {
            self.counters.rows_touched() as f64 / (self.exec_wall_ms / 1000.0)
        }
    }
}

/// All strategies' runs on one query, with the rank correlations.
pub struct CaseReport {
    /// Shape label.
    pub shape: &'static str,
    /// Relation count.
    pub n: usize,
    /// Worker count of this case's runs.
    pub workers: usize,
    /// Materialized rows across all tables.
    pub dataset_rows: usize,
    /// Per-strategy runs, in [`EXEC_STRATEGIES`] order.
    pub runs: Vec<StrategyRun>,
    /// Spearman correlation of modeled cost vs measured execution wall.
    pub spearman_wall: f64,
    /// Spearman correlation of modeled cost vs rows touched (deterministic,
    /// noise-free work measure).
    pub spearman_work: f64,
}

/// Runs one case: catalog → data → plan × strategies → execute → oracle
/// check. `Err` carries a description of an oracle violation, a failed
/// strategy, or (at `workers > 1`) any divergence between the parallel and
/// the sequential execution of the same plan.
pub fn run_case(
    case: &ExecCase,
    model: &PgLikeCost,
    seed: u64,
    workers: usize,
) -> Result<CaseReport, String> {
    let workers = workers.max(1);
    let sc = synthesize_catalog(&case.query);
    let q = sc.build_query(model);
    let data = materialize(
        &q,
        &GenConfig {
            seed,
            max_table_rows: case.max_table_rows,
            ..Default::default()
        },
        model,
    );
    let executor = Executor::new(
        &data.scaled,
        &data,
        ExecConfig {
            workers,
            ..Default::default()
        },
    );
    let sequential = Executor::new(&data.scaled, &data, ExecConfig::default());
    let budget = Some(Duration::from_secs(60));
    let mut runs = Vec::with_capacity(EXEC_STRATEGIES.len());
    // One pool for the whole case: the same persistent-barrier handle the
    // DP backends use, here amortized across strategies and repetitions.
    with_pool(workers, |pool| -> Result<(), String> {
        for name in EXEC_STRATEGIES {
            let strategy = registry()
                .get(name)
                .ok_or_else(|| format!("strategy {name} not registered"))?;
            let planned = strategy.plan(&data.scaled, model, budget).map_err(|e| {
                format!(
                    "{case_shape}/{name}: planning failed: {e}",
                    case_shape = case.shape
                )
            })?;
            let mut walls = Vec::with_capacity(3);
            let mut report = None;
            for _ in 0..3 {
                let r = executor
                    .execute_in(pool, &planned.plan)
                    .map_err(|e| format!("{}/{name}: execution failed: {e}", case.shape))?;
                walls.push(r.wall.as_secs_f64() * 1000.0);
                report = Some(r);
            }
            walls.sort_by(|a, b| a.total_cmp(b));
            let report = report.expect("three runs happened");
            if workers > 1 {
                // Determinism gate: re-run the plan sequentially and demand
                // bit-identical observable state — root cardinality, merged
                // counters, and every per-join observed selectivity.
                let seq = sequential
                    .execute(&planned.plan)
                    .map_err(|e| format!("{}/{name}: sequential run failed: {e}", case.shape))?;
                if seq.root_rows != report.root_rows || seq.counters != report.counters {
                    return Err(format!(
                        "DETERMINISM VIOLATION on {}/{name}: {workers}-worker run \
                         (root {}, counters {:?}) diverged from sequential \
                         (root {}, counters {:?})",
                        case.shape, report.root_rows, report.counters, seq.root_rows, seq.counters,
                    ));
                }
                for (jp, js) in report.joins.iter().zip(&seq.joins) {
                    if jp.observed_sel.to_bits() != js.observed_sel.to_bits() {
                        return Err(format!(
                            "DETERMINISM VIOLATION on {}/{name}: observed selectivity of \
                             join {:?}⋈{:?} differs at {workers} workers \
                             ({} vs sequential {})",
                            case.shape, jp.left, jp.right, jp.observed_sel, js.observed_sel,
                        ));
                    }
                }
            }
            let bytes_per_row = report
                .result_bytes
                .checked_div(report.root_rows)
                .unwrap_or(0);
            runs.push(StrategyRun {
                algorithm: name.to_string(),
                modeled_cost: planned.cost,
                exec_wall_ms: walls[1],
                root_rows: report.root_rows,
                counters: report.counters,
                bytes_per_row,
            });
        }
        Ok(())
    })?;
    // Oracle: every join order of one query computes the same result.
    let root = runs[0].root_rows;
    for r in &runs[1..] {
        if r.root_rows != root {
            return Err(format!(
                "ORACLE VIOLATION on {}: {} produced {} root rows, {} produced {}",
                case.shape, runs[0].algorithm, root, r.algorithm, r.root_rows
            ));
        }
    }
    let costs: Vec<f64> = runs.iter().map(|r| r.modeled_cost).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.exec_wall_ms).collect();
    let work: Vec<f64> = runs
        .iter()
        .map(|r| r.counters.rows_touched() as f64)
        .collect();
    Ok(CaseReport {
        shape: case.shape,
        n: case.query.num_rels(),
        workers,
        dataset_rows: data.total_rows(),
        spearman_wall: spearman(&costs, &walls),
        spearman_work: spearman(&costs, &work),
        runs,
    })
}

/// Renders the tab-separated `repro exec` report: one row per strategy run,
/// then the cost-vs-runtime rank correlations per shape.
pub fn render(cases: &[CaseReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "shape\tn\talgorithm\tmodeled_cost\texec_wall_ms\troot_rows\t\
         rows_touched\trows_per_sec\tbytes_per_row\tbatches\n",
    );
    for c in cases {
        for r in &c.runs {
            out.push_str(&format!(
                "{}\t{}\t{}\t{:.3e}\t{:.3}\t{}\t{}\t{:.3e}\t{}\t{}\n",
                c.shape,
                c.n,
                r.algorithm,
                r.modeled_cost,
                r.exec_wall_ms,
                r.root_rows,
                r.counters.rows_touched(),
                r.rows_per_sec(),
                r.bytes_per_row,
                r.counters.batches,
            ));
        }
    }
    out.push_str("\nshape\tdataset_rows\tspearman(cost,wall)\tspearman(cost,work)\n");
    for c in cases {
        out.push_str(&format!(
            "{}\t{}\t{:.2}\t{:.2}\n",
            c.shape, c.dataset_rows, c.spearman_wall, c.spearman_work
        ));
    }
    let walls: Vec<f64> = cases
        .iter()
        .map(|c| c.spearman_wall)
        .filter(|s| s.is_finite())
        .collect();
    out.push_str(&format!(
        "# mean spearman(cost,wall) across shapes: {:.2}\n",
        mean(&walls)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_case_runs_and_correlates_work() {
        let model = PgLikeCost::new();
        let case = default_cases(&model).remove(0); // fig5
        let report = run_case(&case, &model, 5, 1).expect("case runs");
        assert_eq!(report.runs.len(), EXEC_STRATEGIES.len());
        // Executor-scale statistics produce a non-trivial result set, so
        // the oracle check (inside run_case) compared real cardinalities.
        assert!(report.runs[0].root_rows > 0, "degenerate dataset");
        // Exact strategies agree on the modeled optimum.
        assert!(
            (report.runs[0].modeled_cost - report.runs[1].modeled_cost).abs()
                <= 1e-9 * report.runs[0].modeled_cost,
            "exact strategies disagree on cost"
        );
        assert!(report.spearman_work >= -1.0 && report.spearman_work <= 1.0);
    }

    /// The in-run determinism gate passes on real shapes, and the parallel
    /// runs' deterministic fields equal the sequential ones exactly.
    #[test]
    fn parallel_case_matches_sequential() {
        let model = PgLikeCost::new();
        let mut case = default_cases(&model).remove(1); // chain
        case.max_table_rows = 2_000;
        let seq = run_case(&case, &model, 5, 1).expect("sequential run");
        let par = run_case(&case, &model, 5, 4).expect("parallel run (in-run check green)");
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.root_rows, b.root_rows);
            assert_eq!(a.counters, b.counters);
        }
    }
}
