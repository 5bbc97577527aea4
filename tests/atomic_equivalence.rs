//! The lock-free shared memo's headline guarantee: plans, costs and
//! counters are **bit-identical** across the sequential, CPU-parallel and
//! simulated-GPU backends at any worker count — including on exact cost
//! ties, which the `(cost, left)` tie-break makes scheduling-independent.

use mpdp::core::Profile;
use mpdp::prelude::*;
use mpdp_cost::PgLikeCost;
use mpdp_gpu::drivers::{DpSizeGpu, DpSubGpu, MpdpGpu};
use mpdp_parallel::level_par::{run_dpsize_parallel, run_level_parallel, LevelAlgo};
use mpdp_parallel::Dpe;
use mpdp_workload::{gen, MusicBrainz};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn queries() -> Vec<(String, QueryInfo)> {
    let m = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let mut out = vec![
        ("star8".into(), gen::star(8, 1, &m).to_query_info().unwrap()),
        (
            "chain9".into(),
            gen::chain(9, 3, &m).to_query_info().unwrap(),
        ),
        (
            "cycle8".into(),
            gen::cycle(8, 2, &m).to_query_info().unwrap(),
        ),
        (
            "snowflake9".into(),
            gen::snowflake(9, 3, 2, &m).to_query_info().unwrap(),
        ),
        (
            "clique7".into(),
            gen::clique(7, 4, &m).to_query_info().unwrap(),
        ),
        (
            "mb8".into(),
            mb.random_walk_query(8, 5, true, &m)
                .to_query_info()
                .unwrap(),
        ),
    ];
    for seed in 0..3u64 {
        out.push((
            format!("random{seed}"),
            gen::random_connected(9, 4, seed, &m)
                .to_query_info()
                .unwrap(),
        ));
    }
    out
}

/// A query built to produce *many* exact cost ties: a clique of identical
/// relations with uniform selectivities is fully symmetric, so most sets
/// have several equal-cost winning splits and only the deterministic
/// tie-break keeps backends in agreement.
fn tie_heavy_query() -> QueryInfo {
    let n = 7;
    let mut g = JoinGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b, 0.1);
        }
    }
    QueryInfo::new(g, vec![RelInfo::new(1000.0, 10.0); n])
}

/// The fused prune: every MPDP backend reduces a set's candidates before it
/// touches the memo, so a level publishes once per connected set — never
/// once per improving pair.
fn assert_one_publish_per_set(profile: &Profile, what: &str) {
    for l in &profile.levels {
        assert!(l.sets > 0, "{what}: level {} is empty", l.size);
        assert_eq!(l.memo_writes, l.sets, "{what}: level {}", l.size);
    }
}

#[test]
fn plans_costs_counters_identical_across_backends_and_workers() {
    let m = PgLikeCost::new();
    for (name, q) in queries() {
        let ctx = OptContext::new(&q, &m);
        let seq = Mpdp::run(&ctx).unwrap();
        assert_one_publish_per_set(&seq.profile, &name);

        // CPU-parallel MPDP at 1/2/4/8 workers: everything identical to
        // sequential MPDP.
        for w in WORKER_COUNTS {
            let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, w).unwrap();
            assert_eq!(r.plan, seq.plan, "{name}: mpdp plan at {w} workers");
            assert_eq!(r.cost.to_bits(), seq.cost.to_bits(), "{name} ({w}w)");
            assert_eq!(r.counters, seq.counters, "{name}: mpdp counters ({w}w)");
            assert_one_publish_per_set(&r.profile, &format!("{name} ({w}w)"));
        }
        // Simulated GPU MPDP: same plan and counters as sequential, with the
        // prune fused or as its own launch.
        let gpu = MpdpGpu::new().run(&ctx).unwrap();
        assert_eq!(gpu.result.plan, seq.plan, "{name}: gpu plan");
        assert_eq!(gpu.result.cost.to_bits(), seq.cost.to_bits(), "{name}");
        assert_eq!(gpu.result.counters, seq.counters, "{name}: gpu counters");
        assert_one_publish_per_set(&gpu.result.profile, &format!("{name} (gpu)"));
        let mut unfused = MpdpGpu::new();
        unfused.config.fused_prune = false;
        let unfused = unfused.run(&ctx).unwrap();
        assert_eq!(unfused.result.plan, seq.plan, "{name}: unfused gpu plan");
        assert_eq!(unfused.result.counters, seq.counters, "{name}");
        assert!(unfused.stats.global_writes > gpu.stats.global_writes);

        // DPSUB family.
        let sub_seq = DpSub::run(&ctx).unwrap();
        assert_eq!(sub_seq.plan, seq.plan, "{name}: dpsub vs mpdp plan");
        for w in WORKER_COUNTS {
            let r = run_level_parallel(&ctx, LevelAlgo::DpSub, w).unwrap();
            assert_eq!(r.plan, sub_seq.plan, "{name}: dpsub plan ({w}w)");
            assert_eq!(
                r.counters, sub_seq.counters,
                "{name}: dpsub counters ({w}w)"
            );
        }
        let sub_gpu = DpSubGpu::new().run(&ctx).unwrap();
        assert_eq!(sub_gpu.result.plan, sub_seq.plan, "{name}: dpsub gpu plan");
        assert_eq!(sub_gpu.result.counters, sub_seq.counters, "{name}");

        // DPSIZE family: sequential Postgres-style, PDP workers, GPU.
        let size_seq = DpSize::run(&ctx).unwrap();
        assert_eq!(size_seq.plan, seq.plan, "{name}: dpsize vs mpdp plan");
        for w in WORKER_COUNTS {
            let r = run_dpsize_parallel(&ctx, w).unwrap();
            assert_eq!(r.plan, size_seq.plan, "{name}: pdp plan ({w}w)");
            assert_eq!(r.counters, size_seq.counters, "{name}: pdp counters ({w}w)");
        }
        let size_gpu = DpSizeGpu::new().run(&ctx).unwrap();
        assert_eq!(
            size_gpu.result.plan, size_seq.plan,
            "{name}: dpsize gpu plan"
        );

        // DPE and DPCCP price the same CCP pairs: identical winners.
        for w in WORKER_COUNTS {
            let dpe = Dpe::run(&ctx, w).unwrap();
            assert_eq!(dpe.plan, seq.plan, "{name}: dpe plan ({w}w)");
        }
        let ccp = DpCcp::run(&ctx).unwrap();
        assert_eq!(ccp.plan, seq.plan, "{name}: dpccp plan");
    }
}

#[test]
fn tie_heavy_query_is_scheduling_independent() {
    let m = PgLikeCost::new();
    let q = tie_heavy_query();
    let ctx = OptContext::new(&q, &m);
    let seq = Mpdp::run(&ctx).unwrap();
    // Run the parallel backend repeatedly at high worker counts: with ~7!
    // symmetric orderings, any arrival-order dependence in the tie-break
    // would show up as a differing `left` somewhere within a few rounds.
    for round in 0..5 {
        for w in [2usize, 4, 8] {
            let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, w).unwrap();
            assert_eq!(r.plan, seq.plan, "round {round}, {w} workers");
            assert_eq!(r.cost.to_bits(), seq.cost.to_bits());
        }
    }
    // And across algorithm families.
    let gpu = MpdpGpu::new().run(&ctx).unwrap();
    assert_eq!(gpu.result.plan, seq.plan);
    let pdp = run_dpsize_parallel(&ctx, 8).unwrap();
    assert_eq!(pdp.plan, seq.plan);
    let sub = run_level_parallel(&ctx, LevelAlgo::DpSub, 8).unwrap();
    assert_eq!(sub.plan, seq.plan);
}

#[test]
fn memo_health_is_reported_end_to_end() {
    // The Planned result carries the memo health the bench reports print.
    let m = PgLikeCost::new();
    let q = gen::star(9, 1, &m);
    let planned = mpdp::registry()
        .get("MPDP (4CPU)")
        .unwrap()
        .plan(&q, &m, None)
        .unwrap();
    let profile = planned.profile.expect("exact strategies profile runs");
    let health = profile.memo.expect("finish stamps memo health");
    assert!(health.entries > 0);
    assert!(health.slots.is_power_of_two());
    assert!(health.load_factor() > 0.0 && health.load_factor() <= 0.7 + 1e-9);
    assert!(health.probes > 0);
    assert!(profile.levels.iter().map(|l| l.memo_probes).sum::<u64>() > 0);
}
