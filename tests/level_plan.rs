//! The level plan's promise: every level-structured backend counts its
//! connected sets before the first level, creates its memo once at that size
//! and never re-hashes it — in both enumeration modes.

use mpdp::core::memo::slots_for;
use mpdp::prelude::*;
use mpdp_dp::common::OptResult;
use mpdp_gpu::drivers::{DpSizeGpu, DpSubGpu, MpdpGpu};
use mpdp_parallel::level_par::{run_dpsize_parallel, run_level_parallel, LevelAlgo};
use mpdp_parallel::Dpe;
use mpdp_workload::gen;

fn shapes() -> Vec<(&'static str, QueryInfo)> {
    let m = PgLikeCost::new();
    let small = |q: LargeQuery| q.to_query_info().unwrap();
    vec![
        ("star-9", small(gen::star(9, 1, &m))),
        ("chain-12", small(gen::chain(12, 1, &m))),
        ("cycle-10", small(gen::cycle(10, 1, &m))),
        ("clique-7", small(gen::clique(7, 1, &m))),
        ("figure-5", mpdp_bench::runner::figure5_query(&m)),
    ]
}

/// `memo_entries == n + Σ level sizes`, in a table that was created for
/// exactly that many entries and is the one the first insert went into.
fn assert_sized_once(r: &OptResult, n: usize, what: &str) {
    let level_sets: u64 = r.profile.levels.iter().map(|l| l.sets).sum();
    assert_eq!(r.memo_entries as u64, n as u64 + level_sets, "{what}");
    let health = r.profile.memo.expect("finish stamps memo health");
    assert_eq!(health.entries, r.memo_entries, "{what}");
    assert_eq!(health.slots, slots_for(r.memo_entries), "{what}: slots");
    assert_eq!(health.grows, 0, "{what}: re-hashed mid-run");
}

#[test]
fn every_leveled_driver_sizes_its_memo_once() {
    let m = PgLikeCost::new();
    for (name, q) in shapes() {
        let n = q.query_size();
        for mode in [EnumerationMode::Frontier, EnumerationMode::Unranked] {
            let ctx = OptContext::new(&q, &m).with_enumeration(mode);
            let what = |driver: &str| format!("{driver} on {name} ({mode:?})");
            assert_sized_once(&Mpdp::run(&ctx).unwrap(), n, &what("MPDP"));
            assert_sized_once(&DpSub::run(&ctx).unwrap(), n, &what("DPSUB"));
            for (algo, label) in [(LevelAlgo::Mpdp, "MPDP"), (LevelAlgo::DpSub, "DPSUB")] {
                let r = run_level_parallel(&ctx, algo, 2).unwrap();
                assert_sized_once(&r, n, &what(&format!("{label} (2CPU)")));
            }
            let r = run_dpsize_parallel(&ctx, 2).unwrap();
            assert_sized_once(&r, n, &what("PDP (2CPU)"));
            let gpu = MpdpGpu::new().run(&ctx).unwrap().result;
            assert_sized_once(&gpu, n, &what("MPDP (GPU)"));
            let gpu = DpSubGpu::new().run(&ctx).unwrap().result;
            assert_sized_once(&gpu, n, &what("DPSUB (GPU)"));
            let gpu = DpSizeGpu::new().run(&ctx).unwrap().result;
            assert_sized_once(&gpu, n, &what("DPSIZE (GPU)"));
            // DPE is not leveled, but counts its unions before it costs any.
            assert_sized_once(&Dpe::run(&ctx, 2).unwrap(), n, &what("DPE"));
        }
        // DPSIZE has a level plan in frontier mode only: its legacy mode
        // discovers each level's sets as it joins pairs, so like DPCCP it
        // cannot know the count and lets the table grow.
        let ctx = OptContext::new(&q, &m);
        assert_sized_once(&DpSize::run(&ctx).unwrap(), n, &format!("DPSIZE on {name}"));
        for grown in [
            DpSize::run(&ctx.with_enumeration(EnumerationMode::Unranked)).unwrap(),
            DpCcp::run(&OptContext::new(&q, &m)).unwrap(),
        ] {
            let health = grown.profile.memo.unwrap();
            assert_eq!(health.entries, grown.memo_entries, "{name}");
            assert!(health.grows > 0, "{name}: {health:?}");
        }
    }
}
