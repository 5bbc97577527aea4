//! Sharded planning tier: properties of the consistent-hash ring
//! (balance, minimal disruption, node-loss routability) and of the
//! cluster's feedback gossip (an invalidation recorded on one shard
//! evicts every replica within the documented staleness window — and
//! not instantly, which would mean the bound is vacuous), and the steady
//! state of a warmed cluster under a Zipf stream (sharding costs no hits;
//! a rehash leaves the survivors warm).

use mpdp::exec::{ExecReport, ObservedJoin};
use mpdp::PlanRequest;
use mpdp_cluster::{ClusterConfig, PlanCluster};
use mpdp_core::fingerprint::canonicalize;
use mpdp_core::ring::HashRing;
use mpdp_core::{LargeQuery, RelSet};
use mpdp_cost::PgLikeCost;
use mpdp_workload::{gen, StreamSpec, ZipfStream};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const VNODES: usize = 128;
const KEYS: usize = 8_000;

/// Well-spread probe keys: the ring hashes them again internally, so a
/// simple counter-derived sequence is as good as random fingerprints.
fn probe_keys() -> impl Iterator<Item = u128> {
    (0..KEYS as u128).map(|i| i * 0x9e37_79b9_7f4a_7c15 + 0x0123_4567_89ab_cdef)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Load balance: with 128 vnodes per shard, no shard's key share may
    /// stray far from 1/N (max/mean bounded; no shard starves).
    #[test]
    fn ring_balance_is_bounded(params in (any::<u64>(), 2u32..=12)) {
        let (seed, shards) = params;
        let ids: Vec<u32> = (0..shards).collect();
        let ring = HashRing::new(seed, VNODES, &ids);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for key in probe_keys() {
            *counts.entry(ring.shard_of(key)).or_insert(0) += 1;
        }
        let mean = KEYS as f64 / shards as f64;
        let max = *counts.values().max().unwrap() as f64;
        let min = counts.values().copied().min().unwrap_or(0) as f64;
        prop_assert!(
            max / mean <= 1.8,
            "seed {seed}: busiest of {shards} shards owns {max} keys (mean {mean:.0})"
        );
        prop_assert!(
            min / mean >= 0.3,
            "seed {seed}: emptiest of {shards} shards owns {min} keys (mean {mean:.0})"
        );
    }

    /// Minimal disruption: adding a shard moves roughly 1/(N+1) of the
    /// keys, and every mover lands on the new shard — survivors' caches
    /// are never invalidated by a rehash.
    #[test]
    fn adding_a_shard_moves_only_its_fair_share(params in (any::<u64>(), 1u32..=10)) {
        let (seed, shards) = params;
        let ids: Vec<u32> = (0..shards).collect();
        let ring = HashRing::new(seed, VNODES, &ids);
        let grown = ring.with_shard(shards);
        let mut moved = 0usize;
        for key in probe_keys() {
            let before = ring.shard_of(key);
            let after = grown.shard_of(key);
            if before != after {
                prop_assert_eq!(after, shards, "a moved key must land on the new shard");
                moved += 1;
            }
        }
        let fair = KEYS as f64 / (shards + 1) as f64;
        let frac = moved as f64;
        prop_assert!(
            frac <= 1.8 * fair,
            "seed {seed}: {moved} of {KEYS} keys moved at {shards}→{} shards (fair {fair:.0})",
            shards + 1
        );
        prop_assert!(
            frac >= 0.3 * fair,
            "seed {seed}: only {moved} keys moved — the new shard is starved (fair {fair:.0})"
        );
    }

    /// Node loss: removing a shard reassigns exactly its keys (survivors'
    /// assignments are untouched) and every key stays routable to a live
    /// shard, with a full, distinct, live replica set.
    #[test]
    fn removing_a_shard_keeps_every_key_routable(
        params in (any::<u64>(), 2u32..=10, any::<u32>())
    ) {
        let (seed, shards, victim_pick) = params;
        let ids: Vec<u32> = (0..shards).collect();
        let ring = HashRing::new(seed, VNODES, &ids);
        let victim = victim_pick % shards;
        let shrunk = ring.without_shard(victim);
        prop_assert_eq!(shrunk.len(), (shards - 1) as usize);
        let replicas = 3.min(shrunk.len());
        for key in probe_keys().take(2_000) {
            let before = ring.shard_of(key);
            let after = shrunk.shard_of(key);
            prop_assert_ne!(after, victim, "routed to the removed shard");
            if before != victim {
                prop_assert_eq!(
                    before, after,
                    "key not owned by the victim changed owner on removal"
                );
            }
            let set = shrunk.shards_of(key, replicas);
            prop_assert_eq!(set.len(), replicas);
            prop_assert_eq!(set[0], after, "replica set is led by the owner");
            let mut distinct = set.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), set.len(), "replica set has duplicates");
            for s in &set {
                prop_assert!(*s != victim && *s < shards, "replica {s} is not live");
            }
        }
    }
}

/// An [`ExecReport`] carrying only a root-cardinality observation (plus one
/// observed join so selectivity overrides gossip too): what a serving layer
/// would feed back after running the plan and seeing `root_rows`.
fn feedback_report(root_rows: u64, est_root_rows: f64) -> ExecReport {
    ExecReport {
        stats: Vec::new(),
        joins: vec![ObservedJoin {
            left: RelSet::singleton(0),
            right: RelSet::singleton(1),
            edges: vec![0],
            inputs: (100, 100),
            output: 500,
            observed_sel: 0.05,
            est_rows: est_root_rows,
        }],
        root_rows,
        est_root_rows,
        wall: Duration::ZERO,
        counters: Default::default(),
        result_bytes: 0,
        worker_busy: Vec::new(),
    }
}

/// The staleness window, end to end: a hot template is replicated onto R
/// shards; a 20× cardinality miss observed on ONE shard must evict the
/// replica on every OTHER shard within `staleness_bound()` gossip rounds —
/// and must NOT have evicted them before any round ran (gossip is
/// asynchronous; the bound is the contract, not instant coherence).
#[test]
fn invalidation_on_one_shard_evicts_all_replicas_within_the_bound() {
    let model = PgLikeCost::new();
    let cluster = PlanCluster::new(ClusterConfig {
        shards: 5,
        // Hot from the first request: every arrival round-robins over the
        // replica set, so a handful of plans warm all three replicas.
        hot_threshold: 0,
        replicas: 3,
        ..ClusterConfig::default()
    });
    let q = gen::random_connected(8, 2, 42, &model);

    let mut fp = None;
    let mut est = 0.0;
    for _ in 0..9 {
        let served = cluster.plan(&q, &model).expect("plan");
        fp = Some(served.served.fingerprint);
        est = served.served.planned.rows;
    }
    let fp = fp.unwrap();
    assert_eq!(cluster.replica_set(fp).len(), 3);
    assert_eq!(
        cluster.cached_replicas(fp, &model),
        3,
        "nine round-robined arrivals must warm all three replicas"
    );

    // Observe a 20× miss on one caching shard (a replica, not necessarily
    // the owner — feedback arrives wherever the plan executed).
    let observed = (est.max(1.0) * 20.0) as u64;
    let report = feedback_report(observed, est);
    let shard_a = cluster.replica_set(fp)[1];
    assert!(
        cluster.observe_on(shard_a, fp, &model, &report),
        "the observing shard evicts its own replica immediately"
    );

    // Not instant: the other replicas still serve the stale plan until
    // anti-entropy runs.
    assert_eq!(
        cluster.cached_replicas(fp, &model),
        2,
        "gossip has not run yet; remote replicas must still be cached"
    );

    let bound = cluster.staleness_bound();
    assert_eq!(bound, 2, "floor(5/2)");
    let mut rounds = 0;
    while cluster.cached_replicas(fp, &model) > 0 {
        assert!(
            rounds < bound,
            "invalidation still not everywhere after {rounds} rounds (bound {bound})"
        );
        cluster.run_gossip_round();
        rounds += 1;
    }
    assert!(rounds <= bound, "{rounds} rounds used, bound {bound}");

    // The selectivity overrides ride the same flood: after the bound's
    // worth of rounds every shard knows the corrected edge selectivity.
    for _ in rounds..bound {
        cluster.run_gossip_round();
    }
    for id in cluster.shard_ids() {
        let overrides = cluster
            .overrides_for(id, fp)
            .unwrap_or_else(|| panic!("shard {id} never learned the overrides"));
        assert_eq!(overrides, vec![(0, 0.05)]);
    }

    // Idempotence: replaying the same logs delivers nothing new.
    assert_eq!(cluster.run_gossip_round(), 0, "seen-set must dedup");
}

/// Cold traffic stays put: below the hot threshold every request for a
/// fingerprint is served by its primary owner, and only that shard's cache
/// fills.
#[test]
fn cold_templates_are_served_by_their_owner_only() {
    let model = PgLikeCost::new();
    let cluster = PlanCluster::new(ClusterConfig {
        shards: 4,
        hot_threshold: 1_000_000,
        replicas: 2,
        ..ClusterConfig::default()
    });
    let q = gen::random_connected(7, 1, 7, &model);
    let mut shards_seen = std::collections::HashSet::new();
    let mut fp = None;
    for _ in 0..12 {
        let served = cluster.plan(&q, &model).expect("plan");
        shards_seen.insert(served.shard);
        fp = Some(served.served.fingerprint);
    }
    let fp = fp.unwrap();
    assert_eq!(shards_seen.len(), 1, "cold routing is deterministic");
    assert!(shards_seen.contains(&cluster.owner(fp)));
    assert_eq!(cluster.cached_replicas(fp, &model), 1);
    assert_eq!(cluster.hot_count(fp), 12);
}

/// A round pushes only what is new since the last one, so a shard that joins
/// later would never hear of older observations — unless a topology change
/// makes every shard offer its whole log again. It does: the newcomer learns
/// the overrides within the bound, and a settled cluster delivers nothing.
#[test]
fn a_shard_added_after_the_flood_still_catches_up() {
    let model = PgLikeCost::new();
    let cluster = PlanCluster::new(ClusterConfig {
        shards: 4,
        ..ClusterConfig::default()
    });
    let q = gen::random_connected(8, 2, 42, &model);
    let served = cluster.plan(&q, &model).expect("plan");
    let (fp, est) = (served.served.fingerprint, served.served.planned.rows);
    cluster.observe(fp, &model, &feedback_report((est * 20.0) as u64, est));
    for _ in 0..cluster.staleness_bound() {
        cluster.run_gossip_round();
    }
    assert_eq!(cluster.run_gossip_round(), 0, "flooded and settled");

    let newcomer = cluster.add_shard();
    assert!(cluster.overrides_for(newcomer, fp).is_none());
    for _ in 0..cluster.staleness_bound() {
        cluster.run_gossip_round();
    }
    assert_eq!(cluster.overrides_for(newcomer, fp), Some(vec![(0, 0.05)]));
    assert_eq!(cluster.run_gossip_round(), 0, "settled again");

    // Removing a shard rewires the ring; nothing is lost or re-applied.
    assert!(cluster.remove_shard(newcomer));
    assert_eq!(cluster.run_gossip_round(), 0);
    for id in cluster.shard_ids() {
        assert_eq!(cluster.overrides_for(id, fp), Some(vec![(0, 0.05)]));
    }
}

/// The 24-template Zipf stream the two steady-state tests below replay.
fn zipf_spec() -> StreamSpec {
    StreamSpec {
        templates: 24,
        min_rels: 5,
        max_rels: 8,
        skew: 1.1,
        seed: 7,
    }
}

/// A cluster in steady state: one 600-request pass of the stream, so hot
/// counts cross their threshold, then every template planned once on each
/// shard of its replica set — otherwise a template that turns hot during the
/// replay cold-plans on its second replica inside the measured window.
/// Returned with the stream, 600 draws in.
fn warmed_cluster(shards: usize, model: &PgLikeCost) -> (PlanCluster, ZipfStream) {
    let cluster = PlanCluster::new(ClusterConfig {
        shards,
        hot_threshold: 8,
        replicas: 2,
        ..ClusterConfig::default()
    });
    let mut stream = ZipfStream::new(&zipf_spec(), model);
    replay_hit_rate(&cluster, model, &stream.take(600));
    let req = PlanRequest::default();
    for t in stream.templates() {
        let fp = canonicalize(&t.query).fingerprint;
        for id in cluster.replica_set(fp) {
            let shard = cluster.shard_service(id).expect("replica set is live");
            shard.plan_coalesced(&t.query, model, &req).expect("plan");
        }
    }
    (cluster, stream)
}

/// Replays `queries` one after another and returns the request hit rate of
/// exactly that window, summed over all shards.
fn replay_hit_rate(
    cluster: &PlanCluster,
    model: &PgLikeCost,
    queries: &[(usize, LargeQuery)],
) -> f64 {
    let before = cluster.aggregate_cache();
    for (_, q) in queries {
        cluster.plan(q, model).expect("plan");
    }
    cluster.aggregate_cache().delta(&before).request_hit_rate()
}

/// Sharding must not cost hits: the same stream through a warmed 4-shard
/// cluster keeps the 1-shard request hit rate to within two points.
#[test]
fn four_shards_keep_the_one_shard_hit_rate() {
    let model = PgLikeCost::new();
    let [one, four] = [1, 4].map(|shards| {
        let (cluster, mut stream) = warmed_cluster(shards, &model);
        replay_hit_rate(&cluster, &model, &stream.take(600))
    });
    assert!(one > 0.9, "a warmed replay should hit: {one}");
    assert!(
        (one - four).abs() <= 0.02,
        "hit rate {four:.4} at 4 shards vs {one:.4} at 1"
    );
}

/// A shard added to a warm cluster takes over only some templates, and the
/// survivors' caches keep serving: the window after the rehash still hits
/// more often than not.
#[test]
fn a_rehash_moves_some_templates_and_survivors_stay_warm() {
    let model = PgLikeCost::new();
    let (cluster, mut stream) = warmed_cluster(4, &model);

    let templates = stream.templates().iter();
    let fps: Vec<_> = templates
        .map(|t| canonicalize(&t.query).fingerprint)
        .collect();
    let owners = || -> Vec<u32> { fps.iter().map(|&fp| cluster.owner(fp)).collect() };
    let before = owners();
    cluster.add_shard();
    let after = owners();
    let moved = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    assert!(
        (1..before.len()).contains(&moved),
        "{moved} of {} templates moved",
        before.len()
    );

    let hit_rate = replay_hit_rate(&cluster, &model, &stream.take(300));
    assert!(hit_rate > 0.5, "survivor caches went cold: {hit_rate}");
}
