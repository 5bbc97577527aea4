//! The simulated GPU's MPDP charges under Collaborative Context Collection
//! are counted, not walked: a set's lanes are `1 + evaluated` and the sum of
//! their cycles follows in closed form from `evaluated`, `ccp` and the grow
//! steps of its blocks (DESIGN.md §4, "The simulator's charges, counted").
//! These tests hold the counted charges to the walk of every submask split
//! they replace, the closed forms of the grow steps to that walk, and every
//! GPU entry's device statistics to goldens.

use mpdp::core::blocks::{closed_form_steps, BlockIndex, SplitFinder, Walk};
use mpdp::core::{ConnectedSets, LargeQuery, MemoTable, Profile, QueryInfo, RelSet};
use mpdp::dp::common::{finish, init_memo, level_plan};
use mpdp::dp::mpdp::SetKernel;
use mpdp::gpu::kernels::{evaluate_mpdp_kernel, expand_kernel, level_transfer};
use mpdp::gpu::{GpuDriverConfig, GpuRun, GpuStats};
use mpdp::prelude::*;
use mpdp_bench::runner::figure5_query;
use mpdp_workload::{gen, ImdbSchema, MusicBrainz};

/// The walk the counted charges replace: the MPDP (GPU) driver's level loop
/// with every set's lanes walked one submask split at a time through
/// `evaluate_mpdp_kernel`, on the same laid-out memo and the same index.
fn walked(ctx: &OptContext<'_>, config: GpuDriverConfig) -> GpuRun {
    let q = ctx.query;
    let plan = level_plan(ctx).unwrap();
    let mut memo: MemoTable = init_memo(q, &plan);
    let index = BlockIndex::with_tables(&q.graph, plan.sets.len());
    let mut kernel = SetKernel::new(q, ctx.model, &index);
    let (mut profile, mut stats) = (Profile::default(), GpuStats::default());
    for i in 2..=q.query_size() {
        let probes = memo.health().probes;
        expand_kernel(q, plan.level(i - 1).0, plan.level(i).0, &mut stats);
        let mut level = evaluate_mpdp_kernel(
            &mut kernel,
            &mut memo,
            plan.level(i),
            config.policy(),
            config.fused_prune,
            &mut stats,
        );
        level.size = i;
        level.memo_probes = memo.health().probes - probes;
        level_transfer(level.sets as usize, &mut stats);
        profile.record(level);
    }
    GpuRun {
        result: finish(&memo, q, profile).unwrap(),
        simulated_time: stats.simulated_time(&config.device),
        stats,
    }
}

/// Asserts that both CCC entries plan `q` with exactly the statistics,
/// simulated time, plan, cost, counters and per-level profile of the walk.
fn assert_counted_equals_walked(name: &str, q: &QueryInfo) {
    let m = PgLikeCost::new();
    let ctx = OptContext::new(q, &m);
    for (entry, fused_prune) in [("MPDP (GPU)", true), ("MPDP (GPU, +CCC)", false)] {
        let config = GpuDriverConfig {
            fused_prune,
            ..GpuDriverConfig::enhanced()
        };
        let want = walked(&ctx, config);
        let got = mpdp::registry()
            .get(entry)
            .unwrap()
            .plan_exact(q, &m, None)
            .unwrap();
        let at = format!("{name}, {entry}");
        assert_eq!(got.gpu, Some(want.stats), "{at}");
        assert_eq!(got.reported, want.simulated_time, "{at}");
        assert_eq!(got.plan, want.result.plan, "{at}");
        assert_eq!(got.cost.to_bits(), want.result.cost.to_bits(), "{at}");
        assert_eq!(got.counters, Some(want.result.counters), "{at}");
        let levels = got.profile.map(|p| p.levels);
        assert_eq!(levels, Some(want.result.profile.levels), "{at}");
    }
}

/// A query on `n` relations with the statistics of a generated clique and
/// the join edges `edges`.
fn shaped(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> QueryInfo {
    let m = PgLikeCost::new();
    let mut q = LargeQuery::new(gen::clique(n, 3, &m).rels);
    for (u, v) in edges {
        q.add_edge(u, v, 1.0 / q.rels[u].rows.max(q.rels[v].rows).max(1.0));
    }
    q.to_query_info().unwrap()
}

fn ring(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).map(move |i| (i, (i + 1) % n))
}

#[test]
fn counted_charges_equal_walked_charges_on_the_plan_exact_grid() {
    // The benchmark's twelve `plan-exact` queries as generated.
    let m = PgLikeCost::new();
    let (mb, job) = (MusicBrainz::new(), ImdbSchema::new());
    for (name, q) in [
        ("star-14", gen::star(14, 1, &m)),
        ("star-16", gen::star(16, 1, &m)),
        ("snowflake-16", gen::snowflake(16, 4, 1, &m)),
        ("snowflake-20", gen::snowflake(20, 4, 7, &m)),
        ("clique-10", gen::clique(10, 1, &m)),
        ("clique-11", gen::clique(11, 1, &m)),
        ("musicbrainz-16", mb.random_walk_query(16, 7, true, &m)),
        ("musicbrainz-18", mb.random_walk_query(18, 12, true, &m)),
        ("job-12", job.query(12, 7, &m)),
        ("job-17", job.query(17, 8, &m)),
        ("cycle-18", gen::cycle(18, 1, &m)),
        ("chain-20", gen::chain(20, 1, &m)),
    ] {
        assert_counted_equals_walked(name, &q.to_query_info().unwrap());
    }
}

#[test]
fn counted_charges_equal_walked_charges_on_named_shapes() {
    // Blocks whose induced blocks are neither edges, cliques nor cycles
    // (the grid, Figure 5's squares, the wheel, the chorded cycle), and the
    // closed forms' own shapes.
    let m = PgLikeCost::new();
    let grid = (0..9).flat_map(|v| {
        let right = (v % 3 < 2).then_some((v, v + 1));
        let down = (v < 6).then_some((v, v + 3));
        right.into_iter().chain(down)
    });
    let wheel = ring(8)
        .map(|(u, v)| (u + 1, v + 1))
        .chain((1..9).map(|v| (0, v)));
    let mut named = vec![
        ("grid-3x3".to_string(), shaped(9, grid)),
        ("figure-5".to_string(), figure5_query(&m)),
        ("wheel-9".to_string(), shaped(9, wheel)),
        (
            "chorded-cycle-10".to_string(),
            shaped(10, ring(10).chain([(0, 5)])),
        ),
    ];
    for n in 4..=11 {
        let clique = gen::clique(n, 1, &m).to_query_info().unwrap();
        named.push((format!("clique-{n}"), clique));
    }
    for n in 3..=18 {
        named.push((
            format!("cycle-{n}"),
            gen::cycle(n, 1, &m).to_query_info().unwrap(),
        ));
    }
    for (name, q) in &named {
        assert_counted_equals_walked(name, q);
    }
}

#[test]
fn counted_charges_equal_walked_charges_on_random_graphs() {
    // Counts the cyclic blocks that are neither a clique nor a cycle, with
    // and without a split table: their grow steps come from the walk, once
    // per intersection or once per set.
    let m = PgLikeCost::new();
    let (mut tabled, mut untabled) = (0, 0);
    for seed in 0..200u64 {
        let n = 8 + (seed % 5) as usize;
        let extra = (seed % 11) as usize;
        let q = gen::random_connected(n, extra, seed, &m)
            .to_query_info()
            .unwrap();
        let sets = ConnectedSets::enumerate(&q).sets.len();
        let index = BlockIndex::with_tables(&q.graph, sets);
        for block in index.cyclic_blocks() {
            if closed_form_steps(&q.graph, block.vertices).is_none() {
                match block.table() {
                    Some(_) => tabled += 1,
                    None => untabled += 1,
                }
            }
        }
        let name = format!("random {n} relations, {extra} extra edges, seed {seed}");
        assert_counted_equals_walked(&name, &q);
    }
    assert!(tabled >= 10 && untabled >= 10, "{tabled} {untabled}");
}

#[test]
fn closed_form_grow_steps_equal_the_walk() {
    // `T` of a block `b` by its definition: `|b|` per split, and `|b| − |C|`
    // per connected proper side `C`; by every submask split; and, where it
    // exists, in closed form.
    fn by_definition(g: &JoinGraph, b: RelSet) -> u64 {
        let m = b.len() as u64;
        let sides = b.subsets().filter(|&c| c != b && g.is_connected(c));
        ((1 << (m - 1)) - 1) * m + sides.map(|c| m - c.len() as u64).sum::<u64>()
    }
    fn walk(g: &JoinGraph, inside: RelSet, walk: Walk) -> u64 {
        let index = BlockIndex::new(g);
        let block = index.cyclic_blocks().next().expect("one cyclic block");
        SplitFinder::new()
            .splits(g, &block, inside, walk, |_| {})
            .grow_steps
    }
    let graph = |n: usize, edges: &mut dyn Iterator<Item = (usize, usize)>| {
        let mut g = JoinGraph::new(n);
        edges.for_each(|(u, v)| g.add_edge(u, v, 0.5));
        g
    };
    for m in 3..=14 {
        let clique = graph(m, &mut (0..m).flat_map(|i| (i + 1..m).map(move |j| (i, j))));
        let cycle = graph(m, &mut ring(m));
        let (m, all) = (m as u64, RelSet::first_n(m));
        for (g, closed) in [
            (&clique, 2 * m * ((1 << (m - 1)) - 1)),
            (&cycle, ((1 << (m - 1)) - 1) * m + m * m * (m - 1) / 2),
        ] {
            assert_eq!(closed_form_steps(g, all), Some(closed), "m = {m}");
            assert_eq!(by_definition(g, all), closed, "m = {m}");
            assert_eq!(walk(g, all, Walk::Every), closed, "m = {m}");
            assert_eq!(walk(g, all, Walk::Counted), closed, "m = {m}");
        }
        // An edge of the cycle: a block of two relations, four steps.
        let edge = RelSet::from_indices([0, 1]);
        assert_eq!(closed_form_steps(&cycle, edge), Some(4));
        assert_eq!(by_definition(&cycle, edge), 4);
        assert_eq!(walk(&cycle, edge, Walk::Every), 4);
    }
    // A cycle with a chord is neither: its steps come from the walk.
    for m in 4..=14 {
        let g = graph(m, &mut ring(m).chain([(0, m / 2)]));
        let all = RelSet::first_n(m);
        assert_eq!(closed_form_steps(&g, all), None, "m = {m}");
        let t = by_definition(&g, all);
        assert_eq!(walk(&g, all, Walk::Every), t, "m = {m}");
        assert_eq!(walk(&g, all, Walk::Counted), t, "m = {m}");
    }
}

/// Every GPU entry's device statistics on four shapes, computed before the
/// MPDP entries' CCC charges were counted rather than walked: `[launches,
/// warp cycles, busy cycles, global writes, global reads, shared ops, bytes
/// transferred, levels]` and the simulated time in ns. A change to the
/// charges of any ablation column fails here.
const GOLDEN: [(&str, &str, [u64; 8], u64); 24] = [
    (
        "fig5-9",
        "MPDP (GPU)",
        [24, 3125, 72478, 162, 1783, 2665, 1160, 8],
        392339,
    ),
    (
        "fig5-9",
        "MPDP (GPU, baseline)",
        [32, 7106, 76456, 825, 3190, 0, 1160, 8],
        456609,
    ),
    (
        "fig5-9",
        "MPDP (GPU, +fusion)",
        [24, 7436, 72478, 162, 1783, 861, 1160, 8],
        392407,
    ),
    (
        "fig5-9",
        "MPDP (GPU, +CCC)",
        [32, 2795, 76456, 825, 3190, 1804, 1160, 8],
        456541,
    ),
    (
        "fig5-9",
        "DPSub (GPU)",
        [32, 15032, 153823, 825, 3190, 0, 1160, 8],
        456733,
    ),
    (
        "fig5-9",
        "DPSize (GPU)",
        [16, 6858, 53124, 825, 2976, 0, 1160, 8],
        328583,
    ),
    (
        "cycle-9",
        "MPDP (GPU)",
        [24, 2822, 66453, 128, 1351, 3313, 1024, 8],
        392277,
    ),
    (
        "cycle-9",
        "MPDP (GPU, baseline)",
        [32, 7196, 69525, 640, 2439, 0, 1024, 8],
        456505,
    ),
    (
        "cycle-9",
        "MPDP (GPU, +fusion)",
        [24, 7448, 66453, 128, 1351, 1078, 1024, 8],
        392349,
    ),
    (
        "cycle-9",
        "MPDP (GPU, +CCC)",
        [32, 2570, 69525, 640, 2439, 2235, 1024, 8],
        456433,
    ),
    (
        "cycle-9",
        "DPSub (GPU)",
        [32, 13250, 137955, 640, 2439, 0, 1024, 8],
        456600,
    ),
    (
        "cycle-9",
        "DPSize (GPU)",
        [16, 4980, 39636, 640, 2304, 0, 1024, 8],
        328457,
    ),
    (
        "star-9",
        "MPDP (GPU)",
        [24, 8764, 195640, 510, 5383, 7164, 2552, 8],
        392938,
    ),
    (
        "star-9",
        "MPDP (GPU, baseline)",
        [32, 21658, 206398, 2303, 9224, 0, 2552, 8],
        457703,
    ),
    (
        "star-9",
        "MPDP (GPU, +fusion)",
        [24, 22780, 195640, 510, 5383, 2303, 2552, 8],
        393157,
    ),
    (
        "star-9",
        "MPDP (GPU, +CCC)",
        [32, 7642, 206398, 2303, 9224, 4861, 2552, 8],
        457484,
    ),
    (
        "star-9",
        "DPSub (GPU)",
        [32, 36734, 414127, 2303, 9224, 0, 2552, 8],
        457939,
    ),
    (
        "star-9",
        "DPSize (GPU)",
        [16, 10365, 196047, 2303, 8192, 0, 2552, 8],
        329424,
    ),
    (
        "clique-8",
        "MPDP (GPU)",
        [21, 21855, 611038, 494, 13363, 19197, 2424, 7],
        344929,
    ),
    (
        "clique-8",
        "MPDP (GPU, baseline)",
        [28, 29255, 645856, 6297, 25216, 0, 2424, 7],
        402810,
    ),
    (
        "clique-8",
        "MPDP (GPU, +fusion)",
        [21, 29585, 611038, 494, 13363, 6297, 2424, 7],
        345049,
    ),
    (
        "clique-8",
        "MPDP (GPU, +CCC)",
        [28, 21525, 645856, 6297, 25216, 12900, 2424, 7],
        402689,
    ),
    (
        "clique-8",
        "DPSub (GPU)",
        [28, 23623, 504661, 6297, 25216, 0, 2424, 7],
        402722,
    ),
    (
        "clique-8",
        "DPSize (GPU)",
        [14, 55143, 424626, 6297, 24200, 0, 2424, 7],
        291113,
    ),
];

#[test]
fn every_gpu_entry_matches_its_golden_device_statistics() {
    let m = PgLikeCost::new();
    let shape = |name: &str| match name {
        "fig5-9" => figure5_query(&m),
        "cycle-9" => gen::cycle(9, 1, &m).to_query_info().unwrap(),
        "star-9" => gen::star(9, 1, &m).to_query_info().unwrap(),
        "clique-8" => gen::clique(8, 1, &m).to_query_info().unwrap(),
        _ => unreachable!("{name}"),
    };
    for (name, entry, [launches, warp, busy, writes, reads, shared, bytes, levels], ns) in GOLDEN {
        let want = GpuStats {
            kernel_launches: launches,
            warp_cycles: warp,
            busy_cycles: busy,
            global_writes: writes,
            global_reads: reads,
            shared_ops: shared,
            bytes_transferred: bytes,
            levels,
        };
        let strategy = mpdp::registry().get(entry).unwrap();
        let got = strategy.plan_exact(&shape(name), &m, None).unwrap();
        assert_eq!(got.gpu, Some(want), "{name}, {entry}");
        assert_eq!(got.reported.as_nanos(), u128::from(ns), "{name}, {entry}");
    }
}
