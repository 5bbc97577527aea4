//! Property-based tests over random join graphs: the workspace's core
//! invariants must hold for *arbitrary* connected topologies and statistics,
//! not just the hand-picked test graphs.

// Explicit imports (not the facade prelude glob): both `mpdp::prelude` and
// `proptest::prelude` export a `Strategy` trait, and the glob-glob collision
// would make either unusable.
use mpdp::core::blocks::{find_blocks, BlockIndex};
use mpdp::core::combinatorics::KSubsets;
use mpdp::core::enumerate::ConnectedSets;
use mpdp::core::memo::{MemoRead, MemoTable};
use mpdp::core::{JoinGraph, QueryInfo};
use mpdp::dp::mpdp::{SetKernel, SetOutcome, SplitObserver, LANES};
use mpdp::prelude::{DpCcp, DpSize, DpSub, LargeQuery, Mpdp, OptContext, RelSet};
use mpdp_cost::{CostModel, CoutCost, InputEst, JoinAlgo, PgLikeCost};
use mpdp_dp::common::init_memo;
use mpdp_heuristics::{validate_large, Goo, LargeOptimizer, UnionDp};
use mpdp_workload::{gen, ImdbSchema, MusicBrainz};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Strategy: a connected random query with 2..=9 relations and 0..=6 extra
/// (cycle-forming) edges.
fn query_strategy() -> impl Strategy<Value = LargeQuery> {
    (2usize..=9, 0usize..=6, any::<u64>()).prop_map(|(n, extra, seed)| {
        let m = PgLikeCost::new();
        gen::random_connected(n, extra, seed, &m)
    })
}

/// Strategy: a connected random query with up to 12 relations (the
/// enumeration property sweeps every DP level, so sizes stay exhaustive but
/// cheap).
fn enumeration_query_strategy() -> impl Strategy<Value = LargeQuery> {
    (2usize..=12, 0usize..=8, any::<u64>()).prop_map(|(n, extra, seed)| {
        let m = PgLikeCost::new();
        gen::random_connected(n, extra, seed, &m)
    })
}

/// Algorithm 3's per-set loop as it was before the fused kernel, kept as
/// the oracle: blocks of `G[S]` by a fresh DFS, every non-empty proper
/// subset of every block as `lb`, the full CCP check and a `grow` per
/// ordered pair. Returns `(evaluated, ordered CCP pairs)`.
fn full_subset_enumeration(g: &JoinGraph, s: RelSet) -> (u64, Vec<(RelSet, RelSet)>) {
    let (mut evaluated, mut pairs) = (0, Vec::new());
    for &block in &find_blocks(g, s).blocks {
        for lb in block.subsets() {
            if lb == block {
                continue;
            }
            let rb = block.difference(lb);
            evaluated += 1;
            if !g.is_connected(lb) || !g.is_connected(rb) || !g.sets_connected(lb, rb) {
                continue;
            }
            let sleft = g.grow(lb, s.difference(rb));
            pairs.push((sleft, s.difference(sleft)));
        }
    }
    (evaluated, pairs)
}

/// The level plan's three promises. **Once:** per DP level the enumerator
/// yields exactly the connected sets the KSubsets + `is_connected` filter
/// yields — same family, same (ascending bitmap) order, and no set twice
/// anywhere (counted as a multiset: the enumerator has no table that would
/// absorb a second discovery, so one would show up here). **Sized:** each
/// set comes with its cardinality, equal to the definition's up to the
/// rounding of a different multiplication order. **Laid out:** see
/// [`check_layout`].
fn check_level_plan(qi: &QueryInfo) {
    let n = qi.query_size();
    let plan = ConnectedSets::enumerate(qi);
    assert_eq!(plan.starts.len(), n + 1);
    assert_eq!(plan.rows.len(), plan.sets.len());
    let mut times = std::collections::BTreeMap::new();
    for &s in &plan.sets {
        *times.entry(s.bits()).or_insert(0u32) += 1;
    }
    let twice: Vec<_> = times.iter().filter(|(_, &t)| t != 1).collect();
    assert!(twice.is_empty(), "emitted more than once: {:?}", twice);
    let mut total = 0;
    for i in 1..=n {
        let filtered: Vec<RelSet> = KSubsets::new(n, i)
            .filter(|s| qi.graph.is_connected(*s))
            .collect();
        total += filtered.len();
        assert_eq!(plan.level(i).0, &filtered[..], "level {}", i);
    }
    assert_eq!(plan.sets.len(), total);
    for (&s, &rows) in plan.sets.iter().zip(&plan.rows) {
        let want = qi.cardinality(s);
        assert!(
            (rows - want).abs() <= 1e-12 * want,
            "{}: rows {:e}, by definition {:e}",
            s,
            rows,
            want
        );
    }
    check_layout(qi, &plan);
}

/// The memo lays a plan out as its view finds it: `slot(k)` names the slot
/// of `sets[k]`, which is where the set's probe finds it with its
/// cardinality, through the table and through its view alike, and the set
/// reads unplanned — `(∞, S, rows)` — until a candidate replaces it.
fn check_layout(qi: &QueryInfo, plan: &ConnectedSets) {
    let n = qi.query_size();
    let table = MemoTable::laid_out(n, &plan.sets, &plan.rows);
    let view = table.view();
    for (k, (&s, &rows)) in plan.sets.iter().zip(&plan.rows).enumerate() {
        assert_eq!(table.find(s), (table.slot(k), rows), "{s}");
        let (slot, view_rows, steps) = view.find(s);
        assert_eq!((slot, view_rows), (table.slot(k), rows), "{s}");
        assert!(steps >= 1, "{s}");
        let e = table.get(s).unwrap();
        let got = (e.left, e.cost, e.rows.to_bits());
        assert_eq!(got, (s, f64::INFINITY, rows.to_bits()), "{s}");
    }
}

#[test]
fn named_shapes_enumerate_once_and_sized() {
    let m = PgLikeCost::new();
    let small = |q: LargeQuery| q.to_query_info().unwrap();
    for (name, q) in [
        ("star", small(gen::star(12, 1, &m))),
        ("chain", small(gen::chain(12, 1, &m))),
        ("cycle", small(gen::cycle(12, 1, &m))),
        ("clique", small(gen::clique(9, 1, &m))),
        ("figure-5", mpdp_bench::runner::figure5_query(&m)),
    ] {
        println!("{name}");
        check_level_plan(&q);
    }
}

#[test]
fn a_chain_of_64_billion_row_relations_plans_to_a_finite_cost() {
    // The cardinality recursion multiplies a set's rows by the next
    // relation's rows *times its selectivities*, so no partial product is a
    // cross product: 10⁹-row relations 64 deep stay far from overflow.
    let mut q = LargeQuery::new(vec![mpdp::core::RelInfo::new(1e9, 1e7); 64]);
    for i in 1..64 {
        q.add_edge(i - 1, i, 1e-9);
    }
    let qi = q.to_query_info().unwrap();
    let plan = ConnectedSets::enumerate(&qi);
    assert_eq!(plan.sets.len(), 64 * 65 / 2);
    assert!(plan.rows.iter().all(|r| r.is_finite() && *r > 0.0));
    let m = PgLikeCost::new();
    let r = Mpdp::run(&OptContext::new(&qi, &m)).unwrap();
    assert!(r.cost.is_finite() && r.cost > 0.0, "cost {}", r.cost);
    assert!((r.rows - 1e9).abs() <= 1e-3, "rows {}", r.rows);
    assert!(r.plan.validate(&qi.graph).is_none());
}

/// A memo that answers every lookup and writes the looked-up sets down: the
/// kernel prices a split `{a, b}` by looking `a` up, then `b`.
#[derive(Default)]
struct LookupLog(std::cell::RefCell<Vec<RelSet>>);

impl MemoRead for LookupLog {
    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        self.0.borrow_mut().push(set);
        Some((1.0, 1.0))
    }
}

/// Forwards every pricing call to a model and counts the `join_cost_both`
/// calls — the splits a kernel priced.
struct Counted<'a>(&'a dyn CostModel, AtomicU64);

impl CostModel for Counted<'_> {
    fn join_cost(&self, l: InputEst, r: InputEst, out: f64) -> f64 {
        self.0.join_cost(l, r, out)
    }
    fn join_cost_both(&self, a: InputEst, b: InputEst, out: f64) -> (f64, f64) {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.join_cost_both(a, b, out)
    }
    fn join_cost_floor(&self, out: f64) -> f64 {
        self.0.join_cost_floor(out)
    }
    fn join_algo(&self, l: InputEst, r: InputEst, out: f64) -> JoinAlgo {
        self.0.join_algo(l, r, out)
    }
    fn scan_cost(&self, rows: f64) -> f64 {
        self.0.scan_cost(rows)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The same model with the trait's default floor (−∞): nothing is pruned.
struct NoFloor<'a>(&'a dyn CostModel);

impl CostModel for NoFloor<'_> {
    fn join_cost(&self, l: InputEst, r: InputEst, out: f64) -> f64 {
        self.0.join_cost(l, r, out)
    }
    fn join_cost_both(&self, a: InputEst, b: InputEst, out: f64) -> (f64, f64) {
        self.0.join_cost_both(a, b, out)
    }
    fn join_algo(&self, l: InputEst, r: InputEst, out: f64) -> JoinAlgo {
        self.0.join_algo(l, r, out)
    }
    fn scan_cost(&self, rows: f64) -> f64 {
        self.0.scan_cost(rows)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Runs the MPDP level loop with two kernels over one memo — one under
/// `model`, one under `NoFloor(model)` — and asserts that every set's
/// [`SetOutcome`] is the same to the bit: best entry, `evaluated`, `ccp`.
/// Returns how many splits each priced.
fn assert_the_floor_changes_no_outcome(qi: &QueryInfo, model: &dyn CostModel) -> (u64, u64) {
    let pruned = Counted(model, AtomicU64::new(0));
    let full = Counted(&NoFloor(model), AtomicU64::new(0));
    let index = BlockIndex::new(&qi.graph);
    let (mut with, mut without) = (
        SetKernel::new(qi, &pruned, &index),
        SetKernel::new(qi, &full, &index),
    );
    let plan = ConnectedSets::enumerate(qi);
    let n = qi.query_size();
    let mut memo: MemoTable = init_memo(qi, &plan);
    let bits = |o: &SetOutcome| {
        let best = o.best.map(|e| (e.left, e.cost.to_bits(), e.rows.to_bits()));
        (o.evaluated, o.ccp, best)
    };
    for (k, (&s, &rows)) in plan.sets.iter().zip(&plan.rows).enumerate().skip(n) {
        let a = with.evaluate(&memo, s, rows, &mut ());
        let b = without.evaluate(&memo, s, rows, &mut ());
        assert_eq!(bits(&a), bits(&b), "set {s} under {}", model.name());
        let e = a.best.expect("every side is memoized");
        memo.update(memo.slot(k), e.left, e.cost);
    }
    (pruned.1.into_inner(), full.1.into_inner())
}

/// `q`'s graph with every relation and every edge alike: 100 rows, free
/// scans, selectivity 1/100. Under `CoutCost` every join then costs a whole
/// number of rows and exact ties between splits are the rule.
fn uniform(q: &LargeQuery) -> QueryInfo {
    let mut u = LargeQuery::new(vec![mpdp::core::RelInfo::new(100.0, 0.0); q.rels.len()]);
    for e in &q.edges {
        u.add_edge(e.u as usize, e.v as usize, 0.01);
    }
    u.to_query_info().unwrap()
}

#[test]
fn the_cost_floor_prunes_named_shapes_and_changes_nothing() {
    let m = PgLikeCost::new();
    let small = |q: LargeQuery| q.to_query_info().unwrap();
    for (name, q) in [
        ("star-12", gen::star(12, 1, &m)),
        ("cycle-10", gen::cycle(10, 1, &m)),
        ("clique-8", gen::clique(8, 1, &m)),
    ] {
        let (with, without) = assert_the_floor_changes_no_outcome(&small(q.clone()), &m);
        assert!(with < without, "{name}: {with} of {without} priced");
        assert_the_floor_changes_no_outcome(&uniform(&q), &CoutCost);
    }
    // A uniform star under C_out: every intermediate result has 100 rows, so
    // every plan of a set costs the same — each split ties the best exactly
    // at its bound, and none may be skipped.
    let (with, without) =
        assert_the_floor_changes_no_outcome(&uniform(&gen::star(12, 1, &m)), &CoutCost);
    assert_eq!(with, without);
}

/// Records every split a kernel reports, asking it for every submask split
/// — the walk the simulated GPU charges.
#[derive(Default)]
struct EverySplit(Vec<(RelSet, RelSet, bool, bool)>);

impl SplitObserver for EverySplit {
    const EVERY_SPLIT: bool = true;

    fn split(&mut self, _s: RelSet, lb: RelSet, rb: RelSet, lb_ok: bool, rb_ok: bool) {
        self.0.push((lb, rb, lb_ok, rb_ok));
    }
}

/// Evaluates `s` against a [`LookupLog`] and returns the outcome with the
/// ordered Join-Pairs the kernel priced, sorted.
fn priced_pairs(
    kernel: &mut SetKernel<'_>,
    s: RelSet,
    rows: f64,
    observer: &mut impl SplitObserver,
) -> (SetOutcome, Vec<(RelSet, RelSet)>) {
    let log = LookupLog::default();
    let out = kernel.evaluate(&log, s, rows, observer);
    let mut got = Vec::new();
    for split in log.0.borrow().chunks(2) {
        got.push((split[0], split[1]));
        got.push((split[1], split[0]));
    }
    got.sort_unstable();
    (out, got)
}

/// Bridge masks, blocks known without a DFS, the walk over connected left
/// sides, hanging masks, split tables and mirror splits must leave the
/// multiset of ordered Join-Pairs — and both counters — exactly what the
/// full-subset loop produced, for every connected set of the graph: on a
/// kernel whose blocks all walk, on one that reads every block with a split
/// table from it, and on the submask walk the simulator asks for, which
/// reports every split once with both sides' connectivity (and reads no
/// table). Returns how many of the graph's blocks have a table.
fn assert_the_kernel_prices_the_old_loops_pairs(qi: &QueryInfo) -> usize {
    let m = PgLikeCost::new();
    let g = &qi.graph;
    let plan = ConnectedSets::enumerate(qi);
    let walked = BlockIndex::new(g);
    let tabled = BlockIndex::with_tables(g, plan.sets.len());
    let mut walk = SetKernel::new(qi, &m, &walked);
    let mut table = SetKernel::new(qi, &m, &tabled);
    for (&s, &rows) in plan.sets.iter().zip(&plan.rows).skip(qi.query_size()) {
        let (evaluated, mut want) = full_subset_enumeration(g, s);
        want.sort_unstable();
        let mut every = EverySplit::default();
        for (out, got) in [
            priced_pairs(&mut walk, s, rows, &mut ()),
            priced_pairs(&mut table, s, rows, &mut ()),
            priced_pairs(&mut table, s, rows, &mut every),
        ] {
            assert_eq!(got, want, "set {s}");
            assert_eq!(out.evaluated, evaluated, "set {s}");
            assert_eq!(out.ccp, want.len() as u64, "set {s}");
            // The winner carries the set's cardinality, as handed in.
            assert_eq!(out.best.map(|e| e.rows.to_bits()), Some(rows.to_bits()));
        }
        let mut splits: Vec<(RelSet, RelSet)> = every.0.iter().map(|&(l, r, ..)| (l, r)).collect();
        splits.sort_unstable();
        splits.dedup();
        assert_eq!(2 * splits.len() as u64, evaluated, "set {s}");
        for &(lb, rb, lb_ok, rb_ok) in &every.0 {
            assert_eq!((lb_ok, rb_ok), (g.is_connected(lb), g.is_connected(rb)));
        }
    }
    tabled
        .cyclic_blocks()
        .filter(|b| b.table().is_some())
        .count()
}

#[test]
fn set_kernel_prices_the_old_loops_pairs_on_named_shapes() {
    // Blocks larger than the random graphs below reach: an induced cycle of
    // 14, a clique of 9, Figure 5's two squares, and schema walks. The
    // cycle's and the clique's one block is the whole graph, which never
    // gets a split table; the snowflakes' triangles and the schema walks'
    // blocks get one (`plan-exact`'s draws of those shapes among them).
    let m = PgLikeCost::new();
    let (mb, job) = (MusicBrainz::new(), ImdbSchema::new());
    let small = |q: LargeQuery| q.to_query_info().unwrap();
    for (name, q, tables) in [
        ("cycle-14", small(gen::cycle(14, 1, &m)), false),
        ("clique-9", small(gen::clique(9, 1, &m)), false),
        ("figure-5", mpdp_bench::runner::figure5_query(&m), true),
        ("mb-14", small(mb.random_walk_query(14, 7, true, &m)), true),
        ("job-12", small(job.query(12, 7, &m)), true),
        ("job-14", small(job.query(14, 8, &m)), true),
        ("snowflake-16", small(gen::snowflake(16, 4, 1, &m)), true),
        ("snowflake-20", small(gen::snowflake(20, 4, 7, &m)), true),
        ("job-17", small(job.query(17, 8, &m)), true),
        (
            "musicbrainz-18",
            small(mb.random_walk_query(18, 12, true, &m)),
            true,
        ),
    ] {
        let largest = find_blocks(&q.graph, q.graph.all_vertices()).max_block_size();
        let tabled = assert_the_kernel_prices_the_old_loops_pairs(&q);
        println!("{name}: largest block {largest}, {tabled} with a split table");
        assert_eq!(tabled > 0, tables, "{name}");
    }
}

/// A memo laid out from `plan` over a universe of `universe` relations,
/// with the query's leaves planned. A universe of 64 hashes every home,
/// whatever the query: on a table more than a few dozen sets large, some
/// keys then sit past their home slot.
fn laid_out_with_leaves(qi: &QueryInfo, plan: &ConnectedSets, universe: usize) -> MemoTable {
    let mut memo = MemoTable::laid_out(universe, &plan.sets, &plan.rows);
    for (i, rel) in qi.rels.iter().enumerate() {
        let slot = memo.slot(i);
        memo.update(slot, RelSet::EMPTY, rel.cost);
    }
    memo
}

/// Runs the MPDP level loop over `memo` and asserts that
/// `SetKernel::evaluate_chunk` on lanes returns, for every chunk of eight
/// consecutive sets of a level, what `evaluate` returns per set, to the bit:
/// best entry, `evaluated`, `ccp`. The chunks are the ones a driver makes and
/// the ones three sets later, each level's partial last chunk among them.
/// Returns whether the kernel had lanes to run.
fn assert_lanes_equal_scalar_in(
    qi: &QueryInfo,
    model: &dyn CostModel,
    plan: &ConnectedSets,
    mut memo: MemoTable,
) -> bool {
    // The chunks read the split tables in their per-set block step; the
    // per-set oracle walks every block.
    let tabled = BlockIndex::with_tables(&qi.graph, plan.sets.len());
    let walked = BlockIndex::new(&qi.graph);
    let mut kernel = SetKernel::new(qi, model, &tabled);
    let mut scalar_kernel = SetKernel::new(qi, model, &walked);
    let bits = |o: &SetOutcome| {
        let best = o
            .best
            .map(|e| (e.set, e.left, e.cost.to_bits(), e.rows.to_bits()));
        (o.evaluated, o.ccp, best)
    };
    for i in 2..=qi.query_size() {
        let (sets, rows) = plan.level(i);
        let start = plan.starts[i - 1];
        let scalar: Vec<SetOutcome> = (sets.iter().zip(rows))
            .map(|(&s, &rows)| scalar_kernel.evaluate(&memo, s, rows, &mut ()))
            .collect();
        for from in [0, 3.min(sets.len())] {
            let chunks = sets[from..].chunks(LANES).zip(rows[from..].chunks(LANES));
            for (c, (chunk, chunk_rows)) in chunks.enumerate() {
                let outs = kernel.evaluate_chunk(&memo, chunk, chunk_rows);
                for (j, out) in outs[..chunk.len()].iter().enumerate() {
                    let k = from + c * LANES + j;
                    let name = model.name();
                    assert_eq!(bits(out), bits(&scalar[k]), "set {} under {name}", sets[k]);
                }
            }
        }
        for (k, out) in scalar.iter().enumerate() {
            let e = out.best.expect("every side is memoized");
            memo.update(memo.slot(start + k), e.left, e.cost);
        }
    }
    kernel.lanes_for(usize::MAX)
}

/// [`assert_lanes_equal_scalar_in`] on the memo laid out at the query's own
/// addressing and at a hashed one. Returns whether the
/// lanes ran, and how many probe steps past one per set the hashed layout
/// took (keys displaced from their home, which the lanes hand back to the
/// scalar kernel).
fn assert_lanes_equal_scalar(qi: &QueryInfo, model: &dyn CostModel) -> (bool, u64) {
    let plan = ConnectedSets::enumerate(qi);
    let (mut ran, mut displaced) = (false, 0);
    for universe in [qi.query_size(), 64] {
        let table = laid_out_with_leaves(qi, &plan, universe);
        if universe == 64 {
            displaced = table.health().probes - plan.sets.len() as u64;
        }
        ran |= assert_lanes_equal_scalar_in(qi, model, &plan, table);
    }
    (ran, displaced)
}

#[test]
fn lanes_equal_scalar_on_named_shapes() {
    // Stars and snowflakes (the lanes' shapes), a star whose hub is
    // relation 6 (leaves below and above it, so leaf splits of both
    // orientations), a chain (short levels), a schema walk with cycles
    // beside its bridges, and a cycle (no bridges, no tables: no lanes).
    // The snowflakes' triangles and the schema walks' blocks have split
    // tables, which the lanes read too. The larger ones in release only:
    // `plan-exact`'s draws of `snowflake-20` and `job-17` among them.
    let m = PgLikeCost::new();
    let release = !cfg!(debug_assertions);
    let (mb, job) = (MusicBrainz::new(), ImdbSchema::new());
    let around_6: Vec<usize> = (0..12).map(|v| (v + 6) % 12).collect();
    let mut shapes = vec![
        ("star-12", gen::star(12, 1, &m)),
        ("star-12 around 6", gen::star(12, 1, &m).relabel(&around_6)),
        ("snowflake-14", gen::snowflake(14, 4, 1, &m)),
        ("chain-20", gen::chain(20, 1, &m)),
        ("mb-14", mb.random_walk_query(14, 7, true, &m)),
        ("cycle-10", gen::cycle(10, 1, &m)),
    ];
    if release {
        shapes.push(("star-16", gen::star(16, 1, &m)));
        shapes.push(("snowflake-20", gen::snowflake(20, 4, 7, &m)));
        shapes.push(("job-17", job.query(17, 8, &m)));
    }
    for (name, q) in shapes {
        let qi = q.to_query_info().unwrap();
        let (ran, displaced) = assert_lanes_equal_scalar(&qi, &m);
        assert_lanes_equal_scalar(&uniform(&q), &CoutCost);
        println!("{name}: lanes {ran}, {displaced} displaced probe steps");
        if !ran && !name.starts_with("cycle") {
            return println!("skipped: no lanes (AVX-512 F, DQ not detected)");
        }
        assert!(displaced > 0, "{name}: the hashed layout displaced no key");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_cost_floor_changes_no_set_outcome(q in query_strategy()) {
        // Random statistics under the PostgreSQL-like model, and the same
        // graph with uniform statistics under C_out, where the bound is the
        // cost itself and a split that ties the best must still be priced
        // for the tie-break on `left`.
        assert_the_floor_changes_no_outcome(&q.to_query_info().unwrap(), &PgLikeCost::new());
        assert_the_floor_changes_no_outcome(&uniform(&q), &CoutCost);
    }

    #[test]
    fn lanes_equal_scalar_on_random_graphs(q in query_strategy()) {
        // As `the_cost_floor_changes_no_set_outcome`: random statistics under
        // the PostgreSQL-like model, uniform ones (exact ties) under C_out.
        assert_lanes_equal_scalar(&q.to_query_info().unwrap(), &PgLikeCost::new());
        assert_lanes_equal_scalar(&uniform(&q), &CoutCost);
    }

    #[test]
    fn set_kernel_prices_exactly_the_old_loops_pairs(q in query_strategy()) {
        assert_the_kernel_prices_the_old_loops_pairs(&q.to_query_info().unwrap());
    }

    #[test]
    fn selectivity_between_is_symmetric_to_the_bit(params in (query_strategy(), any::<u64>())) {
        // price_both prices both join orders from one product; that is only
        // exact if the product does not depend on the argument order — also
        // when both sides have the same size, where "iterate the smaller
        // side" alone does not decide the multiplication order.
        let (q, mut state) = params;
        let qi = q.to_query_info().unwrap();
        let all = qi.graph.all_vertices();
        let mut draw = || {
            state = mpdp::core::memo::murmur3_fmix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            RelSet(state & all.bits())
        };
        for _ in 0..32 {
            let a = draw();
            let b = draw().difference(a);
            let ab = qi.graph.selectivity_between(a, b);
            prop_assert_eq!(ab.to_bits(), qi.graph.selectivity_between(b, a).to_bits());
            // Equal sizes: trim the larger side down to the smaller one's.
            let k = a.len().min(b.len());
            let trim = |s: RelSet| RelSet::from_indices(s.iter().take(k));
            let (a, b) = (trim(a), trim(b));
            let ab = qi.graph.selectivity_between(a, b);
            prop_assert_eq!(ab.to_bits(), qi.graph.selectivity_between(b, a).to_bits());
        }
    }

    #[test]
    fn exact_algorithms_agree(q in query_strategy()) {
        let m = PgLikeCost::new();
        let qi = q.to_query_info().unwrap();
        let ctx = OptContext::new(&qi, &m);
        let a = DpSub::run(&ctx).unwrap();
        let b = DpCcp::run(&ctx).unwrap();
        let c = Mpdp::run(&ctx).unwrap();
        let d = DpSize::run(&ctx).unwrap();
        let tol = 1e-6 * a.cost.max(1.0);
        prop_assert!((a.cost - b.cost).abs() < tol, "dpccp {} vs dpsub {}", b.cost, a.cost);
        prop_assert!((a.cost - c.cost).abs() < tol, "mpdp {} vs dpsub {}", c.cost, a.cost);
        prop_assert!((a.cost - d.cost).abs() < tol, "dpsize {} vs dpsub {}", d.cost, a.cost);
        // CCP counter is algorithm independent.
        prop_assert_eq!(a.counters.ccp, b.counters.ccp);
        prop_assert_eq!(a.counters.ccp, c.counters.ccp);
        prop_assert_eq!(a.counters.ccp, d.counters.ccp);
        // DPCCP is tight; MPDP evaluates no more than DPSUB.
        prop_assert_eq!(b.counters.evaluated, b.counters.ccp);
        prop_assert!(c.counters.evaluated <= a.counters.evaluated);
    }

    #[test]
    fn optimal_plans_validate(q in query_strategy()) {
        let m = PgLikeCost::new();
        let qi = q.to_query_info().unwrap();
        let ctx = OptContext::new(&qi, &m);
        let r = Mpdp::run(&ctx).unwrap();
        prop_assert!(r.plan.validate(&qi.graph).is_none());
        prop_assert_eq!(r.plan.num_rels(), qi.query_size());
        // The memoized cost/rows at the root must be reproducible bottom-up.
        let re = mpdp_heuristics::recost(&r.plan, &q, &m);
        prop_assert!((re.cost() - r.cost).abs() < 1e-6 * r.cost.max(1.0));
        prop_assert!((re.rows() - r.rows).abs() < 1e-6 * r.rows.max(1.0));
    }

    #[test]
    fn heuristics_bounded_below_by_optimum(q in query_strategy()) {
        let m = PgLikeCost::new();
        let qi = q.to_query_info().unwrap();
        let exact = Mpdp::run(&OptContext::new(&qi, &m)).unwrap();
        let lower = exact.cost * (1.0 - 1e-9);
        let goo = Goo.optimize(&q, &m, None).unwrap();
        prop_assert!(goo.cost >= lower, "goo {} < exact {}", goo.cost, exact.cost);
        prop_assert!(validate_large(&goo.plan, &q).is_none());
        let ud = UnionDp { k: 4 }.optimize(&q, &m, None).unwrap();
        prop_assert!(ud.cost >= lower, "uniondp {} < exact {}", ud.cost, exact.cost);
        prop_assert!(validate_large(&ud.plan, &q).is_none());
    }

    #[test]
    fn cardinality_split_invariance(q in query_strategy()) {
        // rows(S) must be identical however S is split (the property that
        // makes the DP optimum well-defined).
        let qi = q.to_query_info().unwrap();
        let g = &qi.graph;
        let full = g.all_vertices();
        let total = qi.cardinality(full);
        for v in 0..qi.query_size() {
            let part = g.grow(RelSet::singleton(v), full.without((v + 1) % qi.query_size()));
            let rest = full.difference(part);
            if part.is_empty() || rest.is_empty() { continue; }
            let recomposed = qi.cardinality(part)
                * qi.cardinality(rest)
                * g.selectivity_between(part, rest);
            prop_assert!((total - recomposed).abs() <= 1e-9 * total.max(1.0));
        }
    }

    #[test]
    fn frontier_enumeration_matches_filtered_unranking(q in enumeration_query_strategy()) {
        // The tentpole invariant, see `check_level_plan`.
        check_level_plan(&q.to_query_info().unwrap());
    }

    #[test]
    fn parallel_backends_bit_identical_to_sequential(q in query_strategy()) {
        // The shared-memo guarantee over arbitrary topologies: identical
        // plans, costs and counters at any worker count.
        use mpdp_parallel::level_par::{run_level_parallel, LevelAlgo};
        let m = PgLikeCost::new();
        let qi = q.to_query_info().unwrap();
        let ctx = OptContext::new(&qi, &m);
        let seq = Mpdp::run(&ctx).unwrap();
        for w in [2usize, 4] {
            let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, w).unwrap();
            prop_assert_eq!(r.cost.to_bits(), seq.cost.to_bits(), "{} workers", w);
            prop_assert_eq!(&r.plan, &seq.plan, "{} workers", w);
            prop_assert_eq!(r.counters, seq.counters, "{} workers", w);
        }
    }

    #[test]
    fn cout_model_also_consistent(q in query_strategy()) {
        // The whole stack is cost-model generic: rerun equivalence under Cout.
        let m = CoutCost;
        let qi = q.to_query_info().unwrap();
        let ctx = OptContext::new(&qi, &m);
        let a = DpSub::run(&ctx).unwrap();
        let b = Mpdp::run(&ctx).unwrap();
        prop_assert!((a.cost - b.cost).abs() < 1e-6 * a.cost.max(1.0));
    }
}

/// The sub-queries IDP2-MPDP (15) hands its inner MPDP on `q`, as IDP2
/// contracts them.
fn idp2_sub_queries(q: &LargeQuery, m: &dyn CostModel) -> Vec<LargeQuery> {
    let seen = std::sync::Mutex::new(Vec::new());
    let inner = mpdp_heuristics::large::mpdp_inner(m);
    let capture = |sub: &LargeQuery| {
        seen.lock().unwrap().push(sub.clone());
        inner(sub)
    };
    mpdp_heuristics::idp2_with_inner(q, m, 15, &capture, &mpdp_heuristics::Budget::new(None))
        .unwrap();
    seen.into_inner().unwrap()
}

/// The sizes of `qi`'s blocks that get a split table.
fn tabled_blocks(qi: &QueryInfo) -> Vec<usize> {
    let sets = ConnectedSets::enumerate(qi).sets.len();
    let index = BlockIndex::with_tables(&qi.graph, sets);
    let tabled = index.cyclic_blocks().filter(|b| b.table().is_some());
    tabled.map(|b| b.vertices.len()).collect()
}

#[test]
fn lanes_equal_scalar_on_idp2_sub_queries() {
    // IDP2's contracted 15-relation sub-problems, what `plan-large` spends
    // its time on: leaves, inner bridges and tabled blocks side by side
    // (snowflake-200's triangles, musicbrainz-50's 9-vertex block), and
    // inputs far under eight rows, whose sort-merge is priced. Every
    // sub-query in release, the first two of each query in a debug build.
    let m = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let limit = if cfg!(debug_assertions) {
        2
    } else {
        usize::MAX
    };
    for (name, q, shown, largest) in [
        ("snowflake-200", gen::snowflake(200, 4, 1, &m), 3, 5),
        (
            "musicbrainz-50",
            mb.random_walk_query(50, 1, true, &m),
            9,
            9,
        ),
    ] {
        let mut blocks = Vec::new();
        for sub in idp2_sub_queries(&q, &m).into_iter().take(limit) {
            let qi = sub.to_query_info().unwrap();
            let (ran, _) = assert_lanes_equal_scalar(&qi, &m);
            assert_lanes_equal_scalar(&uniform(&sub), &CoutCost);
            if !ran {
                return println!("skipped: no lanes (AVX-512 F, DQ not detected)");
            }
            blocks.extend(tabled_blocks(&qi));
        }
        println!("{name}: tabled blocks of {blocks:?} relations");
        assert!(blocks.contains(&shown), "{name}: no tabled {shown}-block");
        if limit == usize::MAX {
            assert_eq!(blocks.iter().max(), Some(&largest), "{name}");
        }
    }
}
