//! Integration tests for the serving layer: fingerprint canonicalization,
//! the sharded plan cache and its cost-aware eviction, and `PlanService`
//! under concurrency.

use mpdp::cache::{CacheConfig, PlanCache};
use mpdp::registry;
use mpdp::service::{PlanRequest, PlanService, PlanServiceBuilder, ServedVia};
use mpdp_core::fingerprint::canonicalize;
use mpdp_core::{LargeQuery, RelInfo};
use mpdp_cost::PgLikeCost;
use mpdp_workload::{gen, StreamSpec, ZipfStream};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// A random permutation of `0..n`, deterministic in `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

/// A random connected query of 4–14 relations, deterministic in `seed`.
fn random_query(seed: u64) -> LargeQuery {
    let m = PgLikeCost::new();
    let n = 4 + (seed % 11) as usize;
    let extra = (seed % 5) as usize;
    gen::random_connected(n, extra, seed, &m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical fingerprints are equal exactly when the queries are
    /// relabelings of one another — equal across every random permutation
    /// of one query, different across queries from different seeds — and an
    /// equal fingerprint really does mean the cached plan remaps onto the
    /// relabeled query as a valid, cost-identical plan.
    #[test]
    fn fingerprints_collide_iff_plans_remap(seed in 0u64..10_000) {
        let m = PgLikeCost::new();
        let q = random_query(seed);
        let n = q.num_rels();
        let fp = canonicalize(&q).fingerprint;

        // Equal for every relabeling...
        let relabeled = q.relabel(&permutation(n, seed ^ 0xabcd));
        prop_assert_eq!(canonicalize(&relabeled).fingerprint, fp);

        // ...different for a different query (same size family, other seed).
        let other = random_query(seed + 17);
        prop_assert_ne!(canonicalize(&other).fingerprint, fp);

        // Remap equivalence: plan q cold, then serve the relabeling from
        // cache; the remapped plan must be valid for the relabeled query
        // and cost-identical (plan quality survives the round trip).
        let svc = PlanService::new();
        let cold = svc.plan(&q, &m).unwrap();
        prop_assert!(!cold.cache_hit);
        let hit = svc.plan(&relabeled, &m).unwrap();
        prop_assert!(hit.cache_hit, "equal fingerprints must hit");
        let qi = relabeled.to_query_info().unwrap();
        prop_assert!(hit.planned.plan.validate(&qi.graph).is_none());
        let tol = 1e-9 * cold.planned.cost.max(1.0);
        prop_assert!((hit.planned.cost - cold.planned.cost).abs() <= tol);
    }
}

#[test]
fn cost_order_eviction_across_the_facade() {
    // Single shard, capacity 3: a clique-12, which takes about a thousand
    // times as long to plan as a chain-5, outlives a stream of one-shot
    // chain-5 requests, though it is the least recently used entry at
    // every eviction.
    let m = PgLikeCost::new();
    let svc = PlanServiceBuilder::new()
        .cache_capacity(3)
        .cache_shards(1)
        .build();
    let clique = gen::clique(12, 7, &m);
    let cold = svc.plan(&clique, &m).unwrap();
    assert!(!cold.cache_hit);
    let chains: Vec<LargeQuery> = (0..20).map(|i| gen::chain(5, 100 + i, &m)).collect();
    let mut slowest_chain = std::time::Duration::ZERO;
    for q in &chains {
        let served = svc.plan(q, &m).unwrap();
        assert!(!served.cache_hit);
        slowest_chain = slowest_chain.max(served.planned.wall);
    }
    assert_eq!(svc.cache_counters().evictions, 18);
    assert_eq!(svc.cached_plans(), 3);
    assert!(
        svc.plan(&clique, &m).unwrap().cache_hit,
        "the clique (planned in {:?}) was evicted; slowest chain {slowest_chain:?}",
        cold.planned.wall
    );
    assert!(svc.plan(&chains[19], &m).unwrap().cache_hit);
}

#[test]
fn sharded_cache_respects_total_capacity() {
    let cache = PlanCache::new(CacheConfig {
        capacity: 8,
        shards: 4,
    });
    assert!(cache.is_empty());
    // The cache only ever holds ceil(capacity/shards) entries per shard.
    let m = PgLikeCost::new();
    let svc = PlanServiceBuilder::new()
        .cache_capacity(8)
        .cache_shards(4)
        .build();
    for i in 0..40 {
        svc.plan(&gen::chain(5, i, &m), &m).unwrap();
    }
    assert!(
        svc.cached_plans() <= 8,
        "40 inserts, capacity 8, got {}",
        svc.cached_plans()
    );
    assert!(svc.cache_counters().evictions >= 32);
}

#[test]
fn concurrent_hammer_counts_stay_consistent() {
    // 8 threads × 200 requests over 10 shapes: every request is exactly one
    // hit or one miss, and every plan is valid for its (relabeled) query.
    const THREADS: usize = 8;
    const PER_THREAD: usize = 200;
    const SHAPES: usize = 10;

    let m = PgLikeCost::new();
    let svc = Arc::new(
        PlanServiceBuilder::new()
            .cache_capacity(256)
            .cache_shards(8)
            .build(),
    );
    let shapes: Arc<Vec<LargeQuery>> = Arc::new(
        (0..SHAPES as u64)
            .map(|i| gen::star(8 + (i % 4) as usize, 900 + i, &m))
            .collect(),
    );

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let shapes = Arc::clone(&shapes);
            scope.spawn(move || {
                let m = PgLikeCost::new();
                let mut rng = StdRng::seed_from_u64(t as u64);
                for i in 0..PER_THREAD {
                    let shape = &shapes[(t + i) % SHAPES];
                    let q = shape.relabel(&permutation(shape.num_rels(), rng.gen()));
                    let served = svc.plan(&q, &m).expect("plan");
                    let qi = q.to_query_info().unwrap();
                    assert!(
                        served.planned.plan.validate(&qi.graph).is_none(),
                        "thread {t} request {i} got an invalid plan"
                    );
                }
            });
        }
    });

    let s = svc.cache_counters();
    assert_eq!(
        s.hits + s.misses,
        (THREADS * PER_THREAD) as u64,
        "hit/miss accounting lost requests: {s:?}"
    );
    // Every miss leads to exactly one insertion (capacity 256 > 10 shapes,
    // so nothing is evicted and re-planned).
    assert_eq!(s.misses, s.insertions, "{s:?}");
    assert_eq!(s.evictions, 0, "{s:?}");
    // At least one thread must have missed per shape; everything else hits.
    assert!(s.misses >= SHAPES as u64, "{s:?}");
    assert!(
        s.hit_rate() > 0.9,
        "10 shapes over 1600 requests should mostly hit: {s:?}"
    );
}

#[test]
fn per_request_override_and_bypass_coexist_with_concurrency() {
    // A bypassed request must not pollute the cache; an override must
    // resolve through the registry even while other threads hit the cache.
    let m = PgLikeCost::new();
    let svc = Arc::new(PlanService::new());
    let q = gen::cycle(10, 77, &m);
    svc.plan(&q, &m).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let svc = Arc::clone(&svc);
            let q = q.clone();
            scope.spawn(move || {
                let m = PgLikeCost::new();
                let bypass = PlanRequest {
                    bypass_cache: true,
                    strategy: Some("DPSub (1CPU)".into()),
                    ..Default::default()
                };
                for _ in 0..20 {
                    let cold = svc.plan_with(&q, &m, &bypass).unwrap();
                    assert!(!cold.cache_hit);
                    assert_eq!(cold.planned.strategy, "DPSub (1CPU)");
                    let hit = svc.plan(&q, &m).unwrap();
                    assert!(hit.cache_hit);
                }
            });
        }
    });
    // One cold plan populated the cache; bypasses added nothing.
    assert_eq!(svc.cache_counters().insertions, 1);
}

/// A query with every relation and every edge statistically identical:
/// refined signatures tie on any symmetric shape, so canonicalization takes
/// its tie path.
fn uniform(n: usize, edges: &[(usize, usize)]) -> LargeQuery {
    let mut q = LargeQuery::new(vec![RelInfo::new(1_000.0, 10.0); n]);
    for &(u, v) in edges {
        q.add_edge(u, v, 0.01);
    }
    q
}

/// The canonical form itself: `q` relabeled into its canonical slots, as
/// its relation statistics and sorted edge list.
fn canonical_form(q: &LargeQuery) -> (Vec<RelInfo>, Vec<(u32, u32, u64)>) {
    let slot: Vec<usize> = canonicalize(q).slot.iter().map(|&s| s as usize).collect();
    let c = q.relabel(&slot);
    let mut edges: Vec<(u32, u32, u64)> = c
        .edges
        .iter()
        .map(|e| (e.u.min(e.v), e.u.max(e.v), e.sel.to_bits()))
        .collect();
    edges.sort_unstable();
    (c.rels, edges)
}

/// Uniform chains, cycles, stars, cliques and a 3×3 grid, each under 16
/// random relabelings: the fingerprint is relabel-invariant, and `order`
/// maps corresponding relations — relabeling any copy into its canonical
/// slots yields the one canonical query, so a plan stored in canonical
/// slots remaps onto every copy.
#[test]
fn tied_signatures_canonicalize_to_one_form() {
    let mut shapes: Vec<(String, LargeQuery)> = Vec::new();
    for n in 2..=14 {
        let path: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        shapes.push((format!("chain-{n}"), uniform(n, &path)));
        let spokes: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        shapes.push((format!("star-{n}"), uniform(n, &spokes)));
        if n >= 3 {
            let mut ring = path.clone();
            ring.push((n - 1, 0));
            shapes.push((format!("cycle-{n}"), uniform(n, &ring)));
        }
        if n <= 12 {
            let all: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .collect();
            shapes.push((format!("clique-{n}"), uniform(n, &all)));
        }
    }
    let grid: Vec<(usize, usize)> = (0..9)
        .flat_map(|i| {
            let right = (i % 3 < 2).then_some((i, i + 1));
            let down = (i < 6).then_some((i, i + 3));
            right.into_iter().chain(down)
        })
        .collect();
    shapes.push(("grid-3x3".to_string(), uniform(9, &grid)));

    for (name, q) in &shapes {
        let n = q.num_rels();
        let fp = canonicalize(q).fingerprint;
        let form = canonical_form(q);
        for round in 0..16 {
            let r = q.relabel(&permutation(n, 0x7119 + round));
            assert_eq!(
                canonicalize(&r).fingerprint,
                fp,
                "{name}, relabeling {round}"
            );
            assert!(canonical_form(&r) == form, "{name}, relabeling {round}");
        }
    }
}

/// The serving stream's default pool (400 templates of 8–18 relations):
/// every template has its own fingerprint.
#[test]
fn default_stream_pool_fingerprints_are_distinct() {
    let m = PgLikeCost::new();
    let stream = ZipfStream::new(&StreamSpec::default(), &m);
    let fps: HashSet<_> = stream
        .templates()
        .iter()
        .map(|t| canonicalize(&t.query).fingerprint)
        .collect();
    assert_eq!(fps.len(), stream.templates().len());
}

/// Every cold request plans through the adaptive planner: MPDP up to 18
/// relations. On the serving stream's 400 templates of 8–14 relations, the
/// plan served for each template of at most 10 relations is DPCCP's, tree
/// and cost bits; on dense queries of 11–13 relations it is the simulated
/// GPU's. DPCCP and the simulator were the routes these queries took under
/// the size/density router the planner replaced, so the change of route
/// moved no served plan.
#[test]
fn cold_plans_match_the_retired_routes() {
    let m = PgLikeCost::new();
    let spec = StreamSpec {
        min_rels: 8,
        max_rels: 14,
        ..StreamSpec::default()
    };
    let stream = ZipfStream::new(&spec, &m);
    let small: Vec<&LargeQuery> = stream
        .templates()
        .iter()
        .map(|t| &t.query)
        .filter(|q| q.num_rels() <= 10)
        .collect();
    assert_eq!(small.len(), 180);
    let dense = [
        gen::clique(11, 7, &m),
        gen::clique(12, 7, &m),
        gen::clique(13, 7, &m),
        gen::random_connected(12, 40, 3, &m),
    ];
    let dpccp = registry().get("DPCCP (1CPU)").unwrap();
    let gpu = registry().get("MPDP (GPU)").unwrap();
    let svc = PlanService::new();
    let cases = small
        .into_iter()
        .map(|q| (q, &dpccp))
        .chain(dense.iter().map(|q| (q, &gpu)));
    for (q, retired) in cases {
        let served = svc.plan(q, &m).unwrap();
        let want = retired.plan(q, &m, None).unwrap();
        let n = q.num_rels();
        assert_eq!(served.via, ServedVia::Cold, "n = {n}");
        assert_eq!(served.planned.strategy, "MPDP", "n = {n}");
        assert_eq!(served.planned.plan, want.plan, "{} n = {n}", want.strategy);
        assert_eq!(
            served.planned.cost.to_bits(),
            want.cost.to_bits(),
            "{} n = {n}",
            want.strategy
        );
    }
}
