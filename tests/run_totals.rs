//! A run's counters are its profile's totals (`mpdp_dp::common::finish`
//! computes them; no driver keeps a second tally), so what a driver writes
//! into its `LevelStats` is the only source of every count the benches gate
//! on.

use mpdp::core::LevelStats;
use mpdp::prelude::*;
use mpdp_dp::common::OptResult;
use mpdp_gpu::drivers::{DpSizeGpu, DpSubGpu, MpdpGpu};
use mpdp_parallel::level_par::{run_level_parallel, LevelAlgo};
use mpdp_parallel::Dpe;
use mpdp_workload::gen;

/// What a level counted, without the memo traffic (which differs between
/// drivers that write per set and those that write per pair).
fn counts(r: &OptResult) -> Vec<(usize, u64, u64, u64)> {
    let of = |l: &LevelStats| (l.size, l.sets, l.evaluated, l.ccp);
    r.profile.levels.iter().map(of).collect()
}

#[test]
fn counters_are_the_profiles_totals_on_every_driver() {
    let m = PgLikeCost::new();
    for (name, q) in [
        ("star-8", gen::star(8, 1, &m)),
        ("cycle-8", gen::cycle(8, 2, &m)),
        ("random-9", gen::random_connected(9, 4, 3, &m)),
    ] {
        let q = q.to_query_info().unwrap();
        let ctx = OptContext::new(&q, &m);
        let sequential = Mpdp::run(&ctx).unwrap();
        let parallel = run_level_parallel(&ctx, LevelAlgo::Mpdp, 2).unwrap();
        let gpu = MpdpGpu::new().run(&ctx).unwrap().result;
        for (driver, r) in [
            ("MPDP", &sequential),
            ("MPDP (2CPU)", &parallel),
            ("MPDP (GPU)", &gpu),
            ("DPSUB", &DpSub::run(&ctx).unwrap()),
            ("DPSIZE", &DpSize::run(&ctx).unwrap()),
            ("DPCCP", &DpCcp::run(&ctx).unwrap()),
            ("DPE (2CPU)", &Dpe::run(&ctx, 2).unwrap()),
            ("DPSUB (GPU)", &DpSubGpu::new().run(&ctx).unwrap().result),
            ("DPSIZE (GPU)", &DpSizeGpu::new().run(&ctx).unwrap().result),
        ] {
            let what = format!("{driver} on {name}");
            assert_eq!(r.counters, r.profile.totals(), "{what}");
            assert!(r.counters.sets > 0, "{what}");
            assert_eq!(r.counters.ccp, sequential.counters.ccp, "{what}");
        }
        // One kernel, one level plan, three schedulers: level by level.
        assert_eq!(counts(&parallel), counts(&sequential), "{name}: 2CPU");
        assert_eq!(counts(&gpu), counts(&sequential), "{name}: GPU");
        assert_eq!(parallel.counters, sequential.counters, "{name}");
        assert_eq!(gpu.counters, sequential.counters, "{name}");
    }
}
