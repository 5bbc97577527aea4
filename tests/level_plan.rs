//! The level plan's promise: every exact backend counts its connected sets
//! before it prices the first pair and lays its memo out once, with exactly
//! those sets.

use mpdp::core::enumerate::ConnectedSets;
use mpdp::core::memo::{Addressing, MemoTable};
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
/// included), in a table that was laid out for exactly that many entries
/// over the query's `n` relations.
fn assert_sized_once(r: &OptResult, n: usize, sets: usize, what: &str) {
    assert_eq!(r.memo_entries, sets, "{what}");
    let health = r.profile.memo.expect("finish stamps memo health");
    assert_eq!(health.entries, r.memo_entries, "{what}");
    let slots = Addressing::for_universe(n, r.memo_entries).slots();
    assert_eq!(health.slots, slots, "{what}: slots");
}

/// A memo holds the sets it was laid out with and no other: a write needs a
/// slot, and a set outside the plan has none.
#[test]
#[should_panic(expected = "was not laid out")]
fn writing_a_set_that_was_not_laid_out_panics() {
    let (_, q) = shapes().swap_remove(1);
    let plan = ConnectedSets::enumerate(&q);
    let memo = MemoTable::laid_out(q.query_size(), &plan.sets, &plan.rows);
    // Relations 0 and 2 of the chain are not adjacent.
    memo.find(RelSet::from_indices([0, 2]));
}

#[test]
fn every_leveled_driver_sizes_its_memo_once() {
    let m = PgLikeCost::new();
    for (name, q) in shapes() {
        let (rels, n) = (q.query_size(), ConnectedSets::enumerate(&q).sets.len());
        let ctx = OptContext::new(&q, &m);
        let what = |driver: &str| format!("{driver} on {name}");
        assert_sized_once(&Mpdp::run(&ctx).unwrap(), rels, n, &what("MPDP"));
        assert_sized_once(&DpSub::run(&ctx).unwrap(), rels, n, &what("DPSUB"));
        for (algo, label) in [(LevelAlgo::Mpdp, "MPDP"), (LevelAlgo::DpSub, "DPSUB")] {
            let r = run_level_parallel(&ctx, algo, 2).unwrap();
            assert_sized_once(&r, rels, n, &what(&format!("{label} (2CPU)")));
        }
        let r = run_dpsize_parallel(&ctx, 2).unwrap();
        assert_sized_once(&r, rels, n, &what("PDP (2CPU)"));
        let gpu = MpdpGpu::new().run(&ctx).unwrap().result;
        assert_sized_once(&gpu, rels, n, &what("MPDP (GPU)"));
        let gpu = DpSubGpu::new().run(&ctx).unwrap().result;
        assert_sized_once(&gpu, rels, n, &what("DPSUB (GPU)"));
        let gpu = DpSizeGpu::new().run(&ctx).unwrap().result;
        assert_sized_once(&gpu, rels, n, &what("DPSIZE (GPU)"));
        // DPSIZE joins pairs of plan lists and DPCCP / DPE walk edges:
        // none of them meets its sets level by level, all of them build
        // the level plan first.
        assert_sized_once(&DpSize::run(&ctx).unwrap(), rels, n, &what("DPSIZE"));
        assert_sized_once(&DpCcp::run(&ctx).unwrap(), rels, n, &what("DPCCP"));
        assert_sized_once(&Dpe::run(&ctx, 2).unwrap(), rels, n, &what("DPE"));
    }
}
