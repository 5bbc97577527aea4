//! Cross-crate integration for the heuristic layer: the Tables 1–2 pipeline
//! end to end — generators → heuristics → plan validity, quality ordering
//! and budget behaviour.

use mpdp::prelude::*;
use mpdp_cost::PgLikeCost;
use mpdp_heuristics::{
    idp1_mpdp, idp2_mpdp, uniondp_mpdp, validate_large, Geqo, Goo, Ikkbz, LinDp,
};
use mpdp_workload::{gen, MusicBrainz};
use std::time::Duration;

#[test]
fn every_heuristic_produces_valid_plans_on_every_workload() {
    let m = PgLikeCost::new();
    let budget = Some(Duration::from_secs(60));
    let queries = vec![
        ("star30", gen::star(30, 1, &m)),
        ("snowflake40", gen::snowflake(40, 4, 2, &m)),
        ("clique15", gen::clique(15, 3, &m)),
        (
            "mb30",
            MusicBrainz::new().random_walk_query(30, 4, true, &m),
        ),
    ];
    for (name, q) in &queries {
        let runs: Vec<(&str, LargeOptResult)> = vec![
            ("goo", Goo::run(q, &m, budget).unwrap()),
            ("ikkbz", Ikkbz::run(q, &m, budget).unwrap()),
            ("lindp", LinDp::run(q, &m, budget).unwrap()),
            ("geqo", Geqo::run(q, &m, budget).unwrap()),
            ("idp2", idp2_mpdp(q, &m, 8, budget).unwrap()),
            ("uniondp", uniondp_mpdp(q, &m, 8, budget).unwrap()),
        ];
        for (algo, r) in &runs {
            assert!(
                validate_large(&r.plan, q).is_none(),
                "{name}/{algo}: {:?}",
                validate_large(&r.plan, q)
            );
            assert_eq!(r.plan.num_rels(), q.num_rels(), "{name}/{algo}");
            assert!(r.cost.is_finite() && r.cost > 0.0, "{name}/{algo}");
        }
        // IKKBZ is restricted to left-deep trees.
        let ikkbz = &runs.iter().find(|(a, _)| *a == "ikkbz").unwrap().1;
        assert!(ikkbz.plan.is_left_deep(), "{name}");
    }
}

#[test]
fn every_registered_heuristic_plans_under_a_budget() {
    // Every name a request can send: the static entries and the smallest
    // of IDP1's parameterized names, whose bounded DP is O(n^k) and which
    // resolve only for k <= 8. IDP2-MPDP (25)'s exact step on a
    // 25-relation star (2^24 connected sets) outlasts the budget; that is a
    // timeout, not a panic.
    let m = PgLikeCost::new();
    let budget = Some(Duration::from_secs(5));
    let reg = registry();
    for name in ["IDP1-MPDP (1)", "IDP1-MPDP (9)", "IDP1-MPDP (15)"] {
        assert!(reg.get(name).is_none(), "{name} resolves");
    }
    for q in [gen::star(30, 1, &m), gen::snowflake(40, 4, 1, &m)] {
        for name in reg.names().into_iter().chain(["IDP1-MPDP (2)"]) {
            let strategy = reg.get(name).unwrap();
            if strategy.is_exact() {
                continue;
            }
            match strategy.plan(&q, &m, budget) {
                Ok(planned) => {
                    let invalid = validate_large(&planned.plan, &q);
                    assert!(invalid.is_none(), "{name}: {invalid:?}");
                }
                Err(OptError::Timeout { .. }) if name == "IDP2-MPDP (25)" => {}
                Err(e) => panic!("{name} on {} relations: {e}", q.num_rels()),
            }
        }
    }
}

#[test]
fn dp_based_heuristics_dominate_on_small_queries() {
    // Where the exact optimum is computable, IDP2(k≥n) and UnionDP(k≥n)
    // must hit it and the others must not beat it.
    let m = PgLikeCost::new();
    for seed in 0..3u64 {
        let q = gen::snowflake(10, 3, seed, &m);
        let qi = q.to_query_info().unwrap();
        let exact = Mpdp::run(&OptContext::new(&qi, &m)).unwrap();
        let idp = idp2_mpdp(&q, &m, 10, None).unwrap();
        assert!((idp.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
        let tol = exact.cost * (1.0 - 1e-9);
        for r in [
            Goo::run(&q, &m, None).unwrap(),
            Ikkbz::run(&q, &m, None).unwrap(),
            Geqo::run(&q, &m, None).unwrap(),
        ] {
            assert!(r.cost >= tol, "seed {seed}");
        }
    }
}

#[test]
fn idp1_and_idp2_agree_with_exact_at_full_k() {
    let m = PgLikeCost::new();
    let q = gen::cycle(7, 9, &m);
    let qi = q.to_query_info().unwrap();
    let exact = Mpdp::run(&OptContext::new(&qi, &m)).unwrap();
    let i1 = idp1_mpdp(&q, &m, 7, None).unwrap();
    let i2 = idp2_mpdp(&q, &m, 7, None).unwrap();
    assert!((i1.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    assert!((i2.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
}

#[test]
fn budgets_time_out_cleanly() {
    let m = PgLikeCost::new();
    let q = gen::snowflake(400, 4, 1, &m);
    // A microsecond budget must produce a Timeout, not a hang or panic.
    let r = idp2_mpdp(&q, &m, 15, Some(Duration::from_micros(1)));
    assert!(matches!(r, Err(OptError::Timeout { .. })));
    let r = uniondp_mpdp(&q, &m, 15, Some(Duration::from_micros(1)));
    assert!(matches!(r, Err(OptError::Timeout { .. })));
}

#[test]
fn adaptive_planner_handles_both_regimes() {
    let m = PgLikeCost::new();
    let small = gen::chain(6, 1, &m);
    let large = gen::snowflake(120, 4, 1, &m);
    let planner = PlannerBuilder::new()
        .exact(ExactAlgo::Mpdp)
        .fallback(LargeAlgo::UnionDp { k: 15 })
        .budget(Duration::from_secs(60))
        .build();
    let rs = planner.plan_query(&small, &m).unwrap();
    assert_eq!(rs.plan.num_rels(), 6);
    assert_eq!(rs.strategy, "MPDP");
    let rl = planner.plan_query(&large, &m).unwrap();
    assert_eq!(rl.plan.num_rels(), 120);
    assert_eq!(rl.strategy, "UnionDP-MPDP (15)");
    assert!(validate_large(&rl.plan, &large).is_none());
}

#[test]
fn adaptive_registry_entry_matches_planner() {
    let m = PgLikeCost::new();
    let q = gen::snowflake(40, 4, 3, &m);
    let via_registry = registry()
        .get("Adaptive")
        .unwrap()
        .plan(&q, &m, Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(via_registry.plan.num_rels(), 40);
    assert!(validate_large(&via_registry.plan, &q).is_none());
}

#[test]
fn adaptive_planner_covers_both_regimes() {
    // The composed deployment (successor of the removed pre-Planner
    // `Optimizer` facade) must produce valid plans on both sides of the
    // exact limit.
    let m = PgLikeCost::new();
    let small = gen::chain(6, 1, &m);
    let large = gen::snowflake(120, 4, 1, &m);
    let planner = mpdp::PlannerBuilder::new()
        .budget(Duration::from_secs(60))
        .build();
    let rs = planner.plan_query(&small, &m).unwrap();
    assert_eq!(rs.plan.num_rels(), 6);
    let rl = planner.plan_query(&large, &m).unwrap();
    assert_eq!(rl.plan.num_rels(), 120);
    assert!(validate_large(&rl.plan, &large).is_none());
}

#[test]
fn thousand_relation_snowflake_under_a_minute() {
    // The paper's headline heuristic claim: "it also optimizes queries with
    // 1000 relations under 1 minute". GOO + UnionDP both must finish a
    // 1000-relation snowflake within the budget on this machine.
    let m = PgLikeCost::new();
    let q = gen::snowflake(1000, 4, 7, &m);
    let start = std::time::Instant::now();
    let goo = Goo::run(&q, &m, Some(Duration::from_secs(60))).unwrap();
    assert!(validate_large(&goo.plan, &q).is_none());
    let ud = uniondp_mpdp(&q, &m, 10, Some(Duration::from_secs(60))).unwrap();
    assert!(validate_large(&ud.plan, &q).is_none());
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "took {:?}",
        start.elapsed()
    );
}
