//! End-to-end cardinality-feedback loop: estimate → execute → observe →
//! invalidate → correct statistics → re-plan → cheaper plan.
//!
//! The scenario is a 3-relation chain a—b—c whose a⋈b predicate the catalog
//! estimates at 1/1000 while the data is 30% hot-key skewed (true
//! selectivity ≈ 0.09). Under the wrong estimate every optimizer joins a⋈b
//! first; after one execution the observation is folded back into the
//! catalog, the service's cached plan is invalidated, and the re-planned
//! order (b⋈c first) is cheaper both under the corrected cost model and in
//! real executor work on the *same* physical data.

use mpdp::exec::{
    fold_observations, materialize, recost_plan, synthesize_catalog, ExecConfig, Executor,
    GenConfig, SkewedEdge,
};
use mpdp::{PlanService, PlanServiceBuilder};
use mpdp_core::{LargeQuery, PlanTree, RelInfo};
use mpdp_cost::{CostModel, PgLikeCost};

fn skewed_chain(model: &PgLikeCost) -> (LargeQuery, mpdp::exec::Dataset) {
    let mut q = LargeQuery::new(
        [500.0, 500.0, 500.0]
            .iter()
            .map(|&rows| RelInfo::new(rows, model.scan_cost(rows)))
            .collect(),
    );
    q.add_edge(0, 1, 1.0 / 1000.0);
    q.add_edge(1, 2, 1.0 / 100.0);
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
        model,
    );
    (q, data)
}

/// Which relation pair the plan joins first (the deepest join's leaves).
fn first_join_rels(plan: &PlanTree) -> mpdp_core::RelSet {
    match plan {
        PlanTree::Scan { .. } => plan.rel_set(),
        PlanTree::Join { left, right, .. } => {
            for side in [left, right] {
                if let PlanTree::Join { .. } = side.as_ref() {
                    return first_join_rels(side);
                }
            }
            plan.rel_set()
        }
    }
}

#[test]
fn miss_invalidates_and_replan_is_measurably_cheaper() {
    let model = PgLikeCost::new();
    let (q, data) = skewed_chain(&model);
    let mut catalog = synthesize_catalog(&q);
    let service: PlanService = PlanServiceBuilder::new().build();

    // Cold plan: under the wrong estimate the optimizer joins a⋈b first.
    let served = service.plan(&data.scaled, &model).unwrap();
    assert!(!served.cache_hit);
    assert_eq!(
        first_join_rels(&served.planned.plan),
        mpdp_core::RelSet::from_indices([0, 1])
    );

    let executor = Executor::new(&data.scaled, &data, ExecConfig::default());
    let stale = executor.execute(&served.planned.plan).unwrap();
    assert!(
        stale.root_deviation() > 10.0,
        "skew must blow the estimate: {}",
        stale.root_deviation()
    );

    // The >10x miss evicts the cached plan; counters record it.
    assert!(service.observe(served.fingerprint, &model, &stale));
    let counters = service.cache_counters();
    assert_eq!(counters.feedback_checks, 1);
    assert_eq!(counters.feedback_invalidations, 1);
    assert!(
        !service.plan(&data.scaled, &model).unwrap().cache_hit,
        "invalidated entry must not serve hits"
    );

    // Fold the observation into the catalog: the corrected query carries
    // the observed selectivity and re-plans to b⋈c first.
    assert_eq!(fold_observations(&mut catalog, &stale), 2);
    let corrected = catalog.build_query(&model);
    assert!(
        corrected.edges[0].sel > 0.05,
        "observed a-b selectivity {}",
        corrected.edges[0].sel
    );
    let replanned = service.plan(&corrected, &model).unwrap();
    assert_eq!(
        first_join_rels(&replanned.planned.plan),
        mpdp_core::RelSet::from_indices([1, 2]),
        "corrected statistics must flip the join order"
    );

    // Cheaper under the corrected model…
    let stale_recosted = recost_plan(
        &served.planned.plan,
        &corrected.to_query_info().unwrap(),
        &model,
    );
    assert!(
        replanned.planned.cost < stale_recosted.cost(),
        "replanned {} vs stale-recosted {}",
        replanned.planned.cost,
        stale_recosted.cost()
    );
    // …and in measured executor work on the same physical data.
    let fresh = executor.execute(&replanned.planned.plan).unwrap();
    assert_eq!(
        fresh.root_rows, stale.root_rows,
        "both orders compute the same result"
    );
    assert!(
        fresh.counters.rows_touched() < stale.counters.rows_touched(),
        "replanned {} vs stale {} rows touched",
        fresh.counters.rows_touched(),
        stale.counters.rows_touched()
    );

    // The corrected plan's estimate survives its own execution: the loop
    // converges instead of thrashing.
    assert!(!service.observe(replanned.fingerprint, &model, &fresh));
    let counters = service.cache_counters();
    assert_eq!(counters.feedback_checks, 2);
    assert_eq!(counters.feedback_invalidations, 1);
}

#[test]
fn accurate_estimates_never_invalidate() {
    let model = PgLikeCost::new();
    // Same chain, no skew: uniform keys make the observation match the
    // estimate and the cached plan must survive.
    let mut q = LargeQuery::new(
        [2_000.0, 2_000.0, 2_000.0]
            .iter()
            .map(|&rows| RelInfo::new(rows, model.scan_cost(rows)))
            .collect(),
    );
    q.add_edge(0, 1, 1.0 / 100.0);
    q.add_edge(1, 2, 1.0 / 100.0);
    let data = materialize(
        &q,
        &GenConfig {
            seed: 13,
            ..Default::default()
        },
        &model,
    );
    let service = PlanServiceBuilder::new().build();
    let served = service.plan(&data.scaled, &model).unwrap();
    let report = Executor::new(&data.scaled, &data, ExecConfig::default())
        .execute(&served.planned.plan)
        .unwrap();
    assert!(report.root_deviation() < 2.0, "{}", report.root_deviation());
    assert!(!service.observe(served.fingerprint, &model, &report));
    // Observing an unknown fingerprint is a no-op check, not a panic.
    let ghost = mpdp_core::Fingerprint { hi: 1, lo: 2 };
    assert!(!service.observe(ghost, &model, &report));
    let counters = service.cache_counters();
    assert_eq!(counters.feedback_checks, 2);
    assert_eq!(counters.feedback_invalidations, 0);
    assert!(
        service.plan(&data.scaled, &model).unwrap().cache_hit,
        "accurate plan stays cached"
    );
}
