//! Execute a plan: materialize tables from catalog statistics, run the
//! optimizer's chosen join order through the vectorized executor, and close
//! the cardinality-feedback loop when the statistics turn out to be wrong.
//!
//! ```sh
//! cargo run --release --example execute_plan
//! ```

use mpdp::exec::{
    filter_kernel, fold_observations, materialize, recost_plan, synthesize_catalog, ExecConfig,
    Executor, GenConfig, SkewedEdge,
};
use mpdp::prelude::*;
use mpdp::PlanServiceBuilder;

fn main() {
    let model = PgLikeCost::new();

    // A 3-relation chain a — b — c: the a⋈b predicate is *estimated* highly
    // selective (1/1000), the b⋈c one moderate (1/100).
    let mut q = LargeQuery::new(
        [500.0, 500.0, 500.0]
            .iter()
            .map(|&rows| RelInfo::new(rows, model.scan_cost(rows)))
            .collect(),
    );
    q.add_edge(0, 1, 1.0 / 1000.0);
    q.add_edge(1, 2, 1.0 / 100.0);
    let mut catalog = synthesize_catalog(&q);

    // Materialize columnar tables from those statistics — but with 30% of
    // the a/b rows sharing one hot join key, which the catalog knows
    // nothing about (true a⋈b selectivity ≈ 0.09, ninety times the
    // estimate).
    let data = materialize(
        &q,
        &GenConfig {
            seed: 7,
            skew: vec![SkewedEdge {
                u: 0,
                v: 1,
                hot_fraction: 0.3,
            }],
            ..Default::default()
        },
        &model,
    );

    // Plan through the serving layer and execute the chosen order.
    let service = PlanServiceBuilder::new().build();
    let served = service.plan(&data.scaled, &model).unwrap();
    println!(
        "— plan under estimated statistics ({}):",
        served.planned.strategy
    );
    print!("{}", served.planned.plan.render());

    let executor = Executor::new(&data.scaled, &data, ExecConfig::default());
    let report = executor.execute(&served.planned.plan).unwrap();
    println!(
        "\nestimated root rows {:>8.0} | observed {:>8} | deviation {:.0}x (filter kernel: {})",
        report.est_root_rows,
        report.root_rows,
        report.root_deviation(),
        filter_kernel()
    );
    for s in report.stats.iter().filter(|s| s.probe_rows > 0) {
        println!(
            "  join {:>12}: build {:>6} probe {:>6} -> out {:>7} ({} batches, {:?})",
            format!("{}", s.rels),
            s.build_rows,
            s.probe_rows,
            s.output_rows,
            s.batches,
            s.wall
        );
    }

    // Feed the observation back: the cached plan is invalidated (>10x
    // miss), the catalog learns the observed selectivities, and re-planning
    // the corrected query picks a better join order.
    let invalidated = service.observe(served.fingerprint, &model, &report);
    println!("\ncached plan invalidated: {invalidated}");
    fold_observations(&mut catalog, &report);
    let corrected = catalog.build_query(&model);
    let replanned = service.plan(&corrected, &model).unwrap();
    let stale_recosted = recost_plan(
        &served.planned.plan,
        &corrected.to_query_info().unwrap(),
        &model,
    );
    println!(
        "stale order re-priced under corrected stats: {:.0}",
        stale_recosted.cost()
    );
    println!(
        "re-planned order cost:                       {:.0}",
        replanned.planned.cost
    );
    let report2 = executor.execute(&replanned.planned.plan).unwrap();
    println!(
        "rows touched: stale {} -> re-planned {}",
        report.counters.rows_touched(),
        report2.counters.rows_touched()
    );
    assert!(invalidated, "88x deviation must invalidate");
    assert!(replanned.planned.cost < stale_recosted.cost());
    assert!(report2.counters.rows_touched() < report.counters.rows_touched());
    println!("\nfeedback loop closed: corrected statistics bought a cheaper plan.");
}
