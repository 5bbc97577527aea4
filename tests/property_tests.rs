//! Property-based tests over random join graphs: the workspace's core
//! invariants must hold for *arbitrary* connected topologies and statistics,
//! not just the hand-picked test graphs.

// Explicit imports (not the facade prelude glob): both `mpdp::prelude` and
// `proptest::prelude` export a `Strategy` trait, and the glob-glob collision
// would make either unusable.
use mpdp::core::blocks::{find_blocks, BlockIndex};
use mpdp::core::combinatorics::KSubsets;
use mpdp::core::enumerate::ConnectedSets;
use mpdp::core::memo::{MemoEntry, MemoHealth, MemoStore, MemoTable};
use mpdp::core::{JoinGraph, QueryInfo};
use mpdp::dp::mpdp::{SetKernel, SetOutcome};
use mpdp::prelude::{DpCcp, DpSize, DpSub, LargeQuery, Mpdp, OptContext, RelSet};
use mpdp_cost::{CostModel, CoutCost, InputEst, JoinAlgo, PgLikeCost};
use mpdp_dp::common::init_memo;
use mpdp_heuristics::{validate_large, Goo, LargeOptimizer, UnionDp};
use mpdp_workload::gen;
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

/// The level plan's two promises. **Once:** per DP level the enumerator
/// yields exactly the connected sets the KSubsets + `is_connected` filter
/// yields — same family, same (ascending bitmap) order, and no set twice
/// anywhere (counted as a multiset: the enumerator has no table that would
/// absorb a second discovery, so one would show up here). **Sized:** each
/// set comes with its cardinality, equal to the definition's up to the
/// rounding of a different multiplication order.
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

impl MemoStore for LookupLog {
    fn for_universe(_: usize, _: usize) -> Self {
        Self::default()
    }
    fn len(&self) -> usize {
        0
    }
    fn get(&self, set: RelSet) -> Option<MemoEntry> {
        self.0.borrow_mut().push(set);
        Some(MemoEntry {
            set,
            left: RelSet::empty(),
            cost: 1.0,
            rows: 1.0,
        })
    }
    fn insert_leaf(&mut self, _: usize, _: f64, _: f64) {}
    fn insert_if_better(&mut self, _: RelSet, _: RelSet, _: f64, _: f64) -> bool {
        false
    }
    fn health(&self) -> MemoHealth {
        MemoHealth::default()
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
    let mut memo: MemoTable = init_memo(qi, plan.sets.len() - n);
    let bits = |o: &SetOutcome| {
        let best = o.best.map(|e| (e.left, e.cost.to_bits(), e.rows.to_bits()));
        (o.evaluated, o.ccp, best)
    };
    for (&s, &rows) in plan.sets.iter().zip(&plan.rows).skip(n) {
        let a = with.evaluate(&memo, s, rows, &mut ());
        let b = without.evaluate(&memo, s, rows, &mut ());
        assert_eq!(bits(&a), bits(&b), "set {s} under {}", model.name());
        let e = a.best.expect("every side is memoized");
        memo.insert_if_better(s, e.left, e.cost, e.rows);
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
    fn set_kernel_prices_exactly_the_old_loops_pairs(q in query_strategy()) {
        // Bridge masks, block finding restricted to the cyclic blocks and
        // mirror splits must leave the multiset of ordered Join-Pairs — and
        // both counters — exactly what the full-subset loop produced, for
        // every connected set of the graph.
        let m = PgLikeCost::new();
        let qi = q.to_query_info().unwrap();
        let g = &qi.graph;
        let index = BlockIndex::new(g);
        let mut kernel = SetKernel::new(&qi, &m, &index);
        let plan = ConnectedSets::enumerate(&qi);
        for (&s, &rows) in plan.sets.iter().zip(&plan.rows).skip(qi.query_size()) {
            let (evaluated, mut want) = full_subset_enumeration(g, s);
            let log = LookupLog::default();
            let out = kernel.evaluate(&log, s, rows, &mut ());
            let mut got = Vec::new();
            for split in log.0.borrow().chunks(2) {
                got.push((split[0], split[1]));
                got.push((split[1], split[0]));
            }
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "set {}", s);
            prop_assert_eq!(out.evaluated, evaluated);
            prop_assert_eq!(out.ccp, want.len() as u64);
            // The winner carries the set's cardinality, as handed in.
            prop_assert_eq!(out.best.map(|e| e.rows.to_bits()), Some(rows.to_bits()));
        }
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
    fn atomic_memo_hammer_converges_to_sequential_min(
        params in (2u64..48, any::<u64>(), 64usize..1500)
    ) {
        // 8 threads race pseudorandom insert_if_better streams (few distinct
        // costs -> frequent exact ties) against one AtomicMemo; the table
        // must converge to exactly the sequential MemoTable's (cost, left)
        // minimum per key. Streams are derived deterministically from the
        // drawn seed so the parallel run and the sequential replay see the
        // same candidate multiset.
        use mpdp::core::atomic_memo::AtomicMemo;
        use mpdp::core::memo::{murmur3_fmix64, MemoStore, MemoTable};
        let (keys, seed, per_thread) = params;
        let step = |state: &mut u64| -> (RelSet, RelSet, f64) {
            *state = murmur3_fmix64(state.wrapping_add(0xa076_1d64_78bd_642f));
            let raw = *state;
            let key = RelSet(raw % keys + 1);
            let l = RelSet((raw >> 13) & key.bits()).lowest_bit();
            let left = if l.is_empty() { key.lowest_bit() } else { l };
            (key, left, ((raw >> 32) % 5) as f64)
        };
        let atomic = AtomicMemo::with_capacity(keys as usize);
        let atomic_ref = &atomic;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    let mut state = seed ^ (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    for _ in 0..per_thread {
                        let (key, left, cost) = step(&mut state);
                        atomic_ref.insert_if_better(key, left, cost, 1.0);
                    }
                });
            }
        });
        let mut expected = MemoTable::with_capacity(keys as usize);
        for t in 0..8u64 {
            let mut state = seed ^ (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..per_thread {
                let (key, left, cost) = step(&mut state);
                expected.insert_if_better(key, left, cost, 1.0);
            }
        }
        prop_assert_eq!(MemoStore::len(&atomic), expected.len());
        for e in expected.iter() {
            let got = atomic.get(e.set).unwrap();
            prop_assert_eq!(got.cost.to_bits(), e.cost.to_bits());
            prop_assert_eq!(got.left, e.left);
        }
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
