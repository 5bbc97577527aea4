//! Cross-strategy execution oracle + determinism guarantees.
//!
//! Joins are commutative and associative: *every* valid join order of one
//! query over one dataset must produce the identical root cardinality. The
//! oracle test runs the plans of five registry strategies (three exact, two
//! heuristic) through the executor and asserts exactly that — any
//! divergence is a planner bug (invalid plan) or an executor bug (join
//! order leaking into results).
//!
//! The determinism tests pin the data generator's contract: the same
//! catalog statistics and seed produce bit-identical tables and identical
//! per-operator row counts on every run, from any number of concurrent
//! threads, and at any probe-phase worker count (generation is a pure
//! per-cell hash; parallel execution merges private per-worker buffers in
//! morsel order). Morsel accounting is pinned exactly, including the
//! probe-rows-divide-batch boundary.

use mpdp::exec::{materialize, ExecConfig, ExecStats, Executor, GenConfig};
use mpdp::registry;
use mpdp_bench::exec::{run_case, ExecCase, EXEC_STRATEGIES};
use mpdp_core::{LargeQuery, RelInfo};
use mpdp_cost::{CostModel, PgLikeCost};

/// Executor-scale test queries: key domains commensurate with row counts so
/// multi-way joins produce non-trivial results.
fn oracle_queries(model: &PgLikeCost) -> Vec<(&'static str, LargeQuery)> {
    let rel = |rows: f64| RelInfo::new(rows, model.scan_cost(rows));
    // chain 0-1-2-3-4
    let mut chain = LargeQuery::new((0..5).map(|i| rel(1_000.0 + 300.0 * i as f64)).collect());
    for i in 1..5 {
        chain.add_edge(i - 1, i, 1.0 / 700.0);
    }
    // star: fact + 4 dims
    let mut star = LargeQuery::new(vec![
        rel(4_000.0),
        rel(400.0),
        rel(300.0),
        rel(500.0),
        rel(250.0),
    ]);
    for (i, base) in [(1, 500.0), (2, 450.0), (3, 600.0), (4, 400.0)] {
        star.add_edge(0, i, 1.0 / base);
    }
    // cycle of 5 with a weak closing predicate
    let mut cycle = chain.clone();
    cycle.add_edge(4, 0, 1.0 / 20.0);
    // dense-ish: star plus two dimension-dimension equivalence edges
    let mut dense = star.clone();
    dense.add_edge(1, 2, 1.0 / 25.0);
    dense.add_edge(3, 4, 1.0 / 25.0);
    vec![
        ("chain", chain),
        ("star", star),
        ("cycle", cycle),
        ("dense", dense),
    ]
}

#[test]
fn all_strategies_agree_on_root_cardinality_at_every_worker_count() {
    let model = PgLikeCost::new();
    for (shape, q) in oracle_queries(&model) {
        let data = materialize(
            &q,
            &GenConfig {
                seed: 31,
                ..Default::default()
            },
            &model,
        );
        // The oracle quantifies over join orders AND worker counts: every
        // (strategy, workers) pair must produce the identical root.
        let mut roots = Vec::new();
        for workers in [1usize, 2, 4] {
            let executor = Executor::new(
                &data.scaled,
                &data,
                ExecConfig {
                    workers,
                    ..Default::default()
                },
            );
            for name in EXEC_STRATEGIES {
                let planned = registry()
                    .get(name)
                    .unwrap()
                    .plan(&data.scaled, &model, None)
                    .unwrap_or_else(|e| panic!("{shape}/{name}: {e}"));
                // The plan must be structurally valid before it is executed.
                let qi = data.scaled.to_query_info().unwrap();
                assert!(
                    planned.plan.validate(&qi.graph).is_none(),
                    "{shape}/{name}: invalid plan"
                );
                let report = executor
                    .execute(&planned.plan)
                    .unwrap_or_else(|e| panic!("{shape}/{name}@{workers}w: {e}"));
                roots.push((name, workers, report.root_rows));
            }
        }
        let expected = roots[0].2;
        assert!(
            expected > 0,
            "{shape}: degenerate dataset (0 rows) makes the oracle vacuous"
        );
        for (name, workers, root) in &roots {
            assert_eq!(
                *root, expected,
                "{shape}: {name} at {workers} workers produced {root} root rows, \
                 {} at 1 worker produced {expected}",
                roots[0].0
            );
        }
    }
}

/// Morsel accounting is exact: `batches == ⌈probe_rows / batch⌉` for every
/// batch size — **including when probe rows divide the batch size exactly**
/// (4096/1024: the final morsel is full, the boundary where a loop shaped
/// around "last partial morsel" double-counts) — and the count is invariant
/// under the worker count because per-worker counts sum over a partition of
/// the morsel range.
#[test]
fn morsel_counts_are_exact() {
    let model = PgLikeCost::new();
    let mut q = LargeQuery::new(vec![
        RelInfo::new(4_096.0, model.scan_cost(4_096.0)),
        RelInfo::new(100.0, model.scan_cost(100.0)),
    ]);
    q.add_edge(0, 1, 1.0 / 50.0);
    let data = materialize(&q, &GenConfig::default(), &model);
    assert_eq!(data.tables[0].rows, 4_096, "probe side materialized fully");
    let planned = registry()
        .get("MPDP")
        .unwrap()
        .plan(&data.scaled, &model, None)
        .unwrap();
    for (batch, expected) in [
        (1usize, 4_096u64),
        (7, 586),
        (1_000, 5),
        (1_024, 4), // exact multiple: 4 full morsels, never 5
        (2_048, 2), // exact multiple
        (4_096, 1), // the whole probe side is one exact morsel
        (10_000, 1),
    ] {
        for workers in [1usize, 3, 4] {
            let executor = Executor::new(
                &data.scaled,
                &data,
                ExecConfig {
                    batch,
                    workers,
                    ..Default::default()
                },
            );
            let report = executor.execute(&planned.plan).unwrap();
            let join = report.stats.last().unwrap();
            assert_eq!(
                join.probe_rows, 4_096,
                "build side must be the 100-row table"
            );
            assert_eq!(
                join.batches, expected,
                "batch={batch} workers={workers}: expected exactly {expected} morsels"
            );
            assert_eq!(report.counters.batches, expected);
        }
    }
}

/// The bench harness's own shape set (including the catalog-scaled JOB
/// query) runs end-to-end with the oracle check inside `run_case` — at 1
/// worker and at 4 workers, where `run_case` additionally re-executes every
/// plan sequentially and demands bit-identical results.
#[test]
fn bench_cases_pass_oracle_at_reduced_scale() {
    let model = PgLikeCost::new();
    for workers in [1usize, 4] {
        for mut case in mpdp_bench::exec::default_cases(&model) {
            // Reduced scale for test runtime; domains are untouched so the
            // shapes stay non-degenerate except where capping starves
            // matches.
            case = ExecCase {
                max_table_rows: case.max_table_rows.min(4_000),
                ..case
            };
            let report = run_case(&case, &model, 42, workers)
                .unwrap_or_else(|e| panic!("{}@{workers}w: {e}", case.shape));
            assert_eq!(report.runs.len(), EXEC_STRATEGIES.len());
            assert_eq!(report.workers, workers);
        }
    }
}

#[test]
fn same_seed_same_tables_and_stats_across_threads() {
    let model = PgLikeCost::new();
    let (_, q) = oracle_queries(&model).remove(3); // dense
    let config = GenConfig {
        seed: 77,
        ..Default::default()
    };
    /// Wall time legitimately varies between runs; every other stat field
    /// is covered by the determinism contract.
    fn row_counts(stats: &[ExecStats]) -> Vec<(u64, u64, u64, u64, u64)> {
        stats
            .iter()
            .map(|s| {
                (
                    s.rels.bits(),
                    s.build_rows,
                    s.probe_rows,
                    s.output_rows,
                    s.batches,
                )
            })
            .collect()
    }
    type RunResult = (
        Vec<mpdp::exec::ExecTable>,
        Vec<(u64, u64, u64, u64, u64)>,
        u64,
    );
    let run_once = || -> RunResult {
        let model = PgLikeCost::new();
        let data = materialize(&q, &config, &model);
        let planned = registry()
            .get("MPDP")
            .unwrap()
            .plan(&data.scaled, &model, None)
            .unwrap();
        let report = Executor::new(&data.scaled, &data, ExecConfig::default())
            .execute(&planned.plan)
            .unwrap();
        (
            data.tables.clone(),
            row_counts(&report.stats),
            report.root_rows,
        )
    };
    let baseline = run_once();
    // Same thread, run again: bit-identical.
    let again = run_once();
    assert_eq!(baseline.0, again.0, "tables must be bit-identical");
    assert_eq!(baseline.1, again.1, "per-operator stats must be identical");
    // Four concurrent threads: generation and execution have no shared
    // state, so results cannot depend on the thread count.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(run_once)).collect();
        for h in handles {
            let (tables, stats, root) = h.join().expect("worker panicked");
            assert_eq!(tables, baseline.0);
            assert_eq!(stats, baseline.1);
            assert_eq!(root, baseline.2);
        }
    });
}

/// The modeled build-side choice is visible in the stats: the smaller
/// estimated side is built, whatever side of the tree it is on.
#[test]
fn build_side_follows_model_estimate() {
    let model = PgLikeCost::new();
    let mut q = LargeQuery::new(vec![
        RelInfo::new(5_000.0, model.scan_cost(5_000.0)),
        RelInfo::new(200.0, model.scan_cost(200.0)),
    ]);
    q.add_edge(0, 1, 1.0 / 250.0);
    let data = materialize(&q, &GenConfig::default(), &model);
    let planned = registry()
        .get("MPDP")
        .unwrap()
        .plan(&data.scaled, &model, None)
        .unwrap();
    let report = Executor::new(&data.scaled, &data, ExecConfig::default())
        .execute(&planned.plan)
        .unwrap();
    let join = report.stats.last().unwrap();
    assert_eq!(join.build_rows, 200, "the smaller modeled side is built");
    assert_eq!(join.probe_rows, 5_000);
}

// ---- Golden digests -------------------------------------------------------
//
// Each case pins three digests, and they are not the same kind of promise.
//
// The two *data* digests — the result set, and every count the executor
// reports about what it did (rows built, probed and emitted, batches,
// observed selectivities to the bit) — were recorded at the commit *before*
// the probe side was rewritten around the fused filter kernel, from the old
// three-pass murmur/two-load kernels, and no executor or planner change may
// edit them: same rows in the same order, same per-operator statistics, at
// 1, 2 and 4 workers. (The report half was split out of a combined digest at
// the commit before the level plan began to carry cardinalities; its values
// were taken there, from the code that produced the combined ones.)
//
// The *estimate* digest folds the optimizer's cardinality estimates
// (`est_rows` per operator and join, `est_root_rows`). Those are products of
// the same factors in whatever order the planner multiplies them, so a
// planner change may move them in the last ulps; it then re-records this
// digest, and only this one, and says so.

use mpdp::exec::{ExecReport, ResultSet, SkewedEdge};
use mpdp_core::PlanTree;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the result set: relation list, then every rowid column.
fn result_digest(rs: &ResultSet) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &(rs.len as u64).to_le_bytes());
    for &r in &rs.rels {
        fnv1a(&mut h, &r.to_le_bytes());
    }
    for col in &rs.rowids {
        assert_eq!(col.len(), rs.len, "every column has one rowid per row");
        for &rid in col {
            fnv1a(&mut h, &rid.to_le_bytes());
        }
    }
    h
}

/// FNV-1a over every deterministic thing the report says the executor *did*
/// (walls and the per-worker busy vector are the only schedule-visible fields
/// and are left out; the estimates are [`estimate_digest`]'s).
fn report_digest(r: &ExecReport) -> u64 {
    let mut h = FNV_OFFSET;
    let mut put = |v: u64| fnv1a(&mut h, &v.to_le_bytes());
    for s in &r.stats {
        put(s.rels.bits());
        put(s.build_rows);
        put(s.probe_rows);
        put(s.output_rows);
        put(s.batches);
    }
    for j in &r.joins {
        put(j.left.bits());
        put(j.right.bits());
        for &e in &j.edges {
            put(e as u64);
        }
        put(j.inputs.0);
        put(j.inputs.1);
        put(j.output);
        put(j.observed_sel.to_bits());
    }
    put(r.root_rows);
    put(r.counters.build_rows);
    put(r.counters.probe_rows);
    put(r.counters.output_rows);
    put(r.counters.batches);
    put(r.counters.joins);
    put(r.result_bytes);
    h
}

/// FNV-1a over the bits of every cardinality estimate the plan carried into
/// the report.
fn estimate_digest(r: &ExecReport) -> u64 {
    let mut h = FNV_OFFSET;
    let estimates = (r.stats.iter().map(|s| s.est_rows))
        .chain(r.joins.iter().map(|j| j.est_rows))
        .chain([r.est_root_rows]);
    for est in estimates {
        fnv1a(&mut h, &est.to_bits().to_le_bytes());
    }
    h
}

fn scan(rel: u32, rows: f64) -> PlanTree {
    PlanTree::Scan {
        rel,
        rows,
        cost: 1.0,
    }
}

fn join(left: PlanTree, right: PlanTree, rows: f64) -> PlanTree {
    PlanTree::Join {
        left: Box::new(left),
        right: Box::new(right),
        rows,
        cost: 1.0,
    }
}

/// How a golden case gets its plan: a registry strategy, or a hand-built
/// tree (for shapes no optimizer emits on purpose).
enum GoldenPlan {
    Strategy(&'static str),
    Hand(PlanTree),
}

struct GoldenCase {
    name: &'static str,
    query: LargeQuery,
    gen: GenConfig,
    plan: GoldenPlan,
    /// `(result_digest, report_digest, root_rows)`: the data.
    expected: (u64, u64, u64),
    /// `estimate_digest`.
    estimates: u64,
}

fn golden_cases(model: &PgLikeCost) -> Vec<GoldenCase> {
    let rel = |rows: f64| RelInfo::new(rows, model.scan_cost(rows));
    let mut shapes = oracle_queries(model);
    let (_, dense) = shapes.remove(3);
    let (_, cycle) = shapes.remove(2);
    let (_, star) = shapes.remove(1);
    let (_, chain) = shapes.remove(0);
    let seeded = |seed: u64| GenConfig {
        seed,
        ..Default::default()
    };
    // A 5-relation clique with per-edge domains 3..12: every join above the
    // leaves crosses several edges at once.
    let mut clique = LargeQuery::new((0..5).map(|i| rel(300.0 + 37.0 * i as f64)).collect());
    let mut d = 3.0;
    for u in 0..5 {
        for v in u + 1..5 {
            clique.add_edge(u, v, 1.0 / d);
            d += 1.0;
        }
    }
    // chain 0-1-2 executed as (0 × 2) ⋈ 1: the lower join has no crossing
    // edge (a guarded cross product), the upper one crosses both edges.
    let mut cross = LargeQuery::new(vec![rel(60.0), rel(900.0), rel(50.0)]);
    cross.add_edge(0, 1, 1.0 / 40.0);
    cross.add_edge(1, 2, 1.0 / 30.0);
    let cross_plan = join(
        join(scan(0, 60.0), scan(2, 50.0), 3_000.0),
        scan(1, 900.0),
        2_250.0,
    );
    // One relation, no edges: the plan is a single Scan.
    let single = LargeQuery::new(vec![rel(5_000.0)]);
    // A triangle whose 0-1 edge has a domain of 5·10⁹ (> u32::MAX) and is
    // skewed so it matches at all; the other two edges are narrow. Joining
    // {1,2} with 0 mixes a wide and a narrow key in one composite hash.
    let mut wide = LargeQuery::new(vec![rel(6_000.0), rel(5_000.0), rel(700.0)]);
    wide.add_edge(0, 1, 1.0 / 5.0e9);
    wide.add_edge(1, 2, 1.0 / 600.0);
    wide.add_edge(0, 2, 1.0 / 9.0);
    let wide_plan = join(
        join(scan(1, 5_000.0), scan(2, 700.0), 5_833.0),
        scan(0, 6_000.0),
        1.0,
    );
    let skew01 = |hot_fraction: f64| {
        vec![SkewedEdge {
            u: 0,
            v: 1,
            hot_fraction,
        }]
    };
    vec![
        GoldenCase {
            name: "chain/MPDP",
            query: chain.clone(),
            gen: seeded(31),
            plan: GoldenPlan::Strategy("MPDP"),
            expected: (0xb789_e75c_8010_3720, 0x3f32_e625_b4fe_974d, 36_368),
            estimates: 0x2f96_ee04_a722_6523,
        },
        GoldenCase {
            name: "star/GOO",
            query: star,
            gen: seeded(32),
            plan: GoldenPlan::Strategy("GOO"),
            expected: (0x1f47_8303_2653_5def, 0xaee8_e9c9_d4fd_1a17, 1_004),
            estimates: 0x2fa3_d711_44d1_c067,
        },
        GoldenCase {
            name: "cycle/MPDP",
            query: cycle,
            gen: seeded(33),
            plan: GoldenPlan::Strategy("MPDP"),
            expected: (0xa7e1_ca31_fee6_258e, 0xf53e_1760_8e3a_5361, 1_869),
            estimates: 0xed37_8461_b308_e8d0,
        },
        GoldenCase {
            name: "dense/IKKBZ",
            query: dense,
            gen: seeded(77),
            plan: GoldenPlan::Strategy("IKKBZ"),
            expected: (0x58b9_789e_5da7_1a77, 0xb620_e47c_c40a_cae6, 2),
            estimates: 0xb4fe_360a_e9f4_611e,
        },
        GoldenCase {
            name: "clique/DPCCP",
            query: clique,
            gen: seeded(34),
            plan: GoldenPlan::Strategy("DPCCP (1CPU)"),
            expected: (0x80db_5d9c_46be_39be, 0x93f4_fe5e_b3e6_064d, 28_546),
            estimates: 0x82f2_b59a_be8f_2ba2,
        },
        GoldenCase {
            name: "chain-skewed/MPDP",
            query: chain,
            gen: GenConfig {
                seed: 35,
                max_table_rows: 1_000,
                skew: skew01(0.3),
                ..Default::default()
            },
            plan: GoldenPlan::Strategy("MPDP"),
            expected: (0xd617_e847_cadf_c26d, 0x4a84_b123_42fb_4b2b, 255_293),
            estimates: 0x5168_127a_0e61_90ca,
        },
        GoldenCase {
            name: "cross-product/hand",
            query: cross,
            gen: seeded(36),
            plan: GoldenPlan::Hand(cross_plan),
            expected: (0xb4f7_b7ab_9b54_aebf, 0xb9dd_7fc7_304e_3861, 2_267),
            estimates: 0x8ce1_8019_f7ab_1a1b,
        },
        GoldenCase {
            name: "single-scan/hand",
            query: single,
            gen: seeded(37),
            plan: GoldenPlan::Hand(scan(0, 5_000.0)),
            expected: (0x684b_6010_9cb6_716c, 0x0951_1217_c832_4c5e, 5_000),
            estimates: 0xfd70_9933_560c_2ae5,
        },
        GoldenCase {
            name: "wide-domain/hand",
            query: wide.clone(),
            gen: GenConfig {
                seed: 38,
                skew: skew01(0.2),
                ..Default::default()
            },
            plan: GoldenPlan::Hand(wide_plan),
            expected: (0x1722_50be_9572_7dd6, 0x3a03_0bd9_6ac3_e5ec, 160_687),
            estimates: 0xd563_a7dd_f0c6_6869,
        },
        GoldenCase {
            name: "wide-domain/GOO",
            query: wide,
            gen: GenConfig {
                seed: 39,
                skew: skew01(0.25),
                ..Default::default()
            },
            plan: GoldenPlan::Strategy("GOO"),
            expected: (0xd2f5_1e08_b1c0_c60b, 0x7eec_bde9_ffa4_af1e, 237_988),
            estimates: 0x234a_5fe0_85e6_7010,
        },
    ]
}

#[test]
fn golden_digests_hold_at_every_worker_count() {
    let model = PgLikeCost::new();
    let mut failures = Vec::new();
    for case in golden_cases(&model) {
        let data = materialize(&case.query, &case.gen, &model);
        let plan = match &case.plan {
            GoldenPlan::Strategy(name) => {
                registry()
                    .get(name)
                    .unwrap()
                    .plan(&data.scaled, &model, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", case.name))
                    .plan
            }
            GoldenPlan::Hand(plan) => plan.clone(),
        };
        for workers in [1usize, 2, 4] {
            // Cutoff 0 sends every multi-worker probe through the pool, so
            // the digests also pin the pooled merge.
            let config = ExecConfig {
                workers,
                sequential_cutoff: 0,
                ..Default::default()
            };
            let (report, rows) = Executor::new(&data.scaled, &data, config)
                .execute_with_result(&plan)
                .unwrap_or_else(|e| panic!("{}@{workers}w: {e}", case.name));
            assert_eq!(rows.len as u64, report.root_rows);
            let got = (
                result_digest(&rows),
                report_digest(&report),
                report.root_rows,
            );
            if got != case.expected {
                failures.push(format!(
                    "{}@{workers}w data: (0x{:016x}, 0x{:016x}, {})",
                    case.name, got.0, got.1, got.2
                ));
            }
            let estimates = estimate_digest(&report);
            if estimates != case.estimates {
                failures.push(format!(
                    "{}@{workers}w estimates: 0x{estimates:016x}",
                    case.name
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digests moved:\n{}",
        failures.join("\n")
    );
}

// ---- The two seams of the rewrite -------------------------------------------

/// `execute` prunes rowid columns no upper join reads and keeps none at the
/// root; `execute_with_result` keeps every column. Different column paths,
/// one report: every deterministic field agrees, over the oracle grid and
/// the golden cases, sequentially and through the pool.
#[test]
fn execute_and_execute_with_result_report_the_same() {
    let model = PgLikeCost::new();
    // One dataset per shape, several plans over each.
    let mut grid: Vec<(String, mpdp::exec::Dataset, Vec<PlanTree>)> = Vec::new();
    for (shape, q) in oracle_queries(&model) {
        let data = materialize(&q, &GenConfig::default(), &model);
        let plan_of = |name| {
            registry()
                .get(name)
                .unwrap()
                .plan(&data.scaled, &model, None)
        };
        let plans = EXEC_STRATEGIES.map(|name| plan_of(name).unwrap().plan);
        grid.push((shape.to_string(), data, plans.to_vec()));
    }
    for case in golden_cases(&model) {
        let data = materialize(&case.query, &case.gen, &model);
        let plan = match case.plan {
            GoldenPlan::Strategy(name) => {
                registry()
                    .get(name)
                    .unwrap()
                    .plan(&data.scaled, &model, None)
                    .unwrap()
                    .plan
            }
            GoldenPlan::Hand(plan) => plan,
        };
        grid.push((case.name.to_string(), data, vec![plan]));
    }
    for (name, data, plan) in grid
        .iter()
        .flat_map(|(name, data, plans)| plans.iter().map(move |plan| (name, data, plan)))
    {
        for workers in [1usize, 4] {
            let config = ExecConfig {
                workers,
                sequential_cutoff: 0,
                ..Default::default()
            };
            let executor = Executor::new(&data.scaled, data, config);
            let counted = executor.execute(plan).unwrap();
            let (kept, rows) = executor.execute_with_result(plan).unwrap();
            assert_eq!(
                (report_digest(&counted), estimate_digest(&counted)),
                (report_digest(&kept), estimate_digest(&kept)),
                "{name}@{workers}w: reports diverge"
            );
            assert_eq!(rows.len as u64, counted.root_rows, "{name}@{workers}w");
            assert_eq!(rows.rowids.len(), plan.num_rels(), "{name}@{workers}w");
        }
    }
}

/// A nested-loop oracle across the key-width boundary. Triangle queries
/// whose edges into relation 0 have domains just below and just above
/// `u32::MAX` — one narrow and one wide key column — are executed as
/// `(1 ⋈ 2) ⋈ 0`, so the upper join folds a `u32` and a `u64` key into one
/// composite hash. Such domains match only through a hot key, so both edges
/// are skewed. The executor's result must equal the brute-force join, row
/// for row.
#[test]
fn narrow_and_wide_keys_match_a_nested_loop_oracle() {
    use mpdp::exec::KeyColumn;
    let model = PgLikeCost::new();
    let narrow = u32::MAX as u64;
    for (seed, domains, rows) in [
        (1u64, [narrow, narrow + 1], [90usize, 70, 50]),
        (2, [narrow + 1, narrow], [60, 80, 40]),
        (3, [narrow - 1, narrow + 2], [75, 45, 65]),
        (4, [narrow + 1, narrow + 1], [50, 50, 50]),
    ] {
        let rel = |n: usize| RelInfo::new(n as f64, model.scan_cost(n as f64));
        let mut q = LargeQuery::new(rows.iter().map(|&n| rel(n)).collect());
        q.add_edge(0, 1, 1.0 / domains[0] as f64);
        q.add_edge(0, 2, 1.0 / domains[1] as f64);
        q.add_edge(1, 2, 1.0 / 6.0);
        let skew = |v: u32, hot_fraction: f64| SkewedEdge {
            u: 0,
            v,
            hot_fraction,
        };
        let gen = GenConfig {
            seed,
            skew: vec![skew(1, 0.4), skew(2, 0.5)],
            ..Default::default()
        };
        let data = materialize(&q, &gen, &model);
        assert_eq!(data.domains[..2], domains, "domains survive 1/(1/d)");
        for (edge, &d) in domains.iter().enumerate() {
            let wide = matches!(data.tables[0].keys[edge], Some(KeyColumn::U64(_)));
            assert_eq!(
                wide,
                d > narrow,
                "edge {edge} (domain {d}) has the wrong width"
            );
        }
        let key = |r: usize, edge: usize, row: usize| {
            data.tables[r].keys[edge]
                .as_ref()
                .expect("endpoint carries the key")
                .get(row)
        };
        let mut expected = Vec::new();
        for r0 in 0..rows[0] {
            for r1 in 0..rows[1] {
                for r2 in 0..rows[2] {
                    if key(0, 0, r0) == key(1, 0, r1)
                        && key(0, 1, r0) == key(2, 1, r2)
                        && key(1, 2, r1) == key(2, 2, r2)
                    {
                        expected.push([r0 as u32, r1 as u32, r2 as u32]);
                    }
                }
            }
        }
        assert!(expected.len() > 100, "seed {seed}: the oracle is vacuous");
        let plan = join(
            join(scan(1, rows[1] as f64), scan(2, rows[2] as f64), 500.0),
            scan(0, rows[0] as f64),
            1.0,
        );
        for workers in [1usize, 3] {
            let config = ExecConfig {
                workers,
                batch: 16,
                sequential_cutoff: 0,
                ..Default::default()
            };
            let executor = Executor::new(&data.scaled, &data, config);
            let (report, result) = executor.execute_with_result(&plan).unwrap();
            assert_eq!(
                report.joins[1].edges,
                [0, 1],
                "the upper join is multi-edge"
            );
            assert_eq!(result.rels, [0, 1, 2]);
            let mut got: Vec<[u32; 3]> = (0..result.len)
                .map(|i| [0, 1, 2].map(|c: usize| result.rowids[c][i]))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "seed {seed}@{workers}w");
            assert_eq!(executor.execute(&plan).unwrap().root_rows, got.len() as u64);
        }
    }
}
