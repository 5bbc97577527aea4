//! The level plan's promise: every exact backend counts its connected sets
//! before it prices the first pair and creates its memo once, at that size.

use mpdp::core::enumerate::ConnectedSets;
use mpdp::core::memo::{slots_for, MemoTable};
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

/// The memo holds every connected set of the query (`sets`, leaves
/// included), in a table that was created for exactly that many entries and
/// is the one the first insert went into.
fn assert_sized_once(r: &OptResult, sets: usize, what: &str) {
    assert_eq!(r.memo_entries, sets, "{what}");
    let health = r.profile.memo.expect("finish stamps memo health");
    assert_eq!(health.entries, r.memo_entries, "{what}");
    assert_eq!(health.slots, slots_for(r.memo_entries), "{what}: slots");
}

#[test]
#[should_panic(expected = "MemoTable full")]
fn a_memo_asked_to_hold_more_than_it_announced_panics() {
    let announced = 4;
    let mut memo = MemoTable::with_capacity(announced);
    for rel in 0..slots_for(announced) {
        memo.insert_leaf(rel, 1.0, 1.0);
    }
}

#[test]
fn every_leveled_driver_sizes_its_memo_once() {
    let m = PgLikeCost::new();
    for (name, q) in shapes() {
        let n = ConnectedSets::enumerate(&q).sets.len();
        let ctx = OptContext::new(&q, &m);
        let what = |driver: &str| format!("{driver} on {name}");
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
        // DPSIZE joins pairs of plan lists and DPCCP / DPE walk edges:
        // none of them meets its sets level by level, all of them build
        // the level plan first.
        assert_sized_once(&DpSize::run(&ctx).unwrap(), n, &what("DPSIZE"));
        assert_sized_once(&DpCcp::run(&ctx).unwrap(), n, &what("DPCCP"));
        assert_sized_once(&Dpe::run(&ctx, 2).unwrap(), n, &what("DPE"));
    }
}
