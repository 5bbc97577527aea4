//! Sharded planning tier: the consistent-hash ring's balance, routing
//! pinned against a recorded table, the gossip contract (an observation on
//! one shard reaches every other shard after exactly one round, and not
//! before), and the steady state of a warmed cluster under a Zipf stream
//! (sharding costs no hits).

use mpdp::exec::ExecReport;
use mpdp::PlanRequest;
use mpdp_cluster::{ClusterConfig, PlanCluster};
use mpdp_core::fingerprint::canonicalize;
use mpdp_core::ring::HashRing;
use mpdp_core::LargeQuery;
use mpdp_cost::PgLikeCost;
use mpdp_workload::{gen, StreamSpec, ZipfStream};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const VNODES: usize = 128;
const KEYS: usize = 8_000;

/// The cluster's hot threshold: a template's first 32 routed requests go to
/// its owner, later ones round-robin over its replica set.
const HOT_AFTER: usize = 32;

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
}

/// An [`ExecReport`] carrying only a root-cardinality observation: what a
/// serving layer would feed back after running the plan and seeing
/// `root_rows`.
fn feedback_report(root_rows: u64, est_root_rows: f64) -> ExecReport {
    ExecReport {
        stats: Vec::new(),
        joins: Vec::new(),
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
/// replica on every OTHER shard after one gossip round — and must NOT have
/// evicted them before any round ran (gossip is asynchronous; the round is
/// the contract, not instant coherence).
#[test]
fn invalidation_on_one_shard_evicts_all_replicas_within_the_bound() {
    let model = PgLikeCost::new();
    let cluster = PlanCluster::new(ClusterConfig {
        shards: 5,
        replicas: 3,
        ..ClusterConfig::default()
    });
    let q = gen::random_connected(8, 2, 42, &model);

    // The first 32 requests warm the owner; the template is hot after
    // them, so the next nine round-robin over the replica set.
    let mut fp = None;
    let mut est = 0.0;
    for _ in 0..HOT_AFTER + 9 {
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
    // a gossip round runs.
    assert_eq!(
        cluster.cached_replicas(fp, &model),
        2,
        "gossip has not run yet; remote replicas must still be cached"
    );

    assert_eq!(cluster.run_gossip_round(), 4, "four other shards");
    assert_eq!(
        cluster.cached_replicas(fp, &model),
        0,
        "invalidation still not everywhere after one round"
    );
}

/// The gossip contract at N ∈ {2, 3, 4}: an observation on any shard is
/// applied there at once, on no other shard before a round, and on every
/// other shard after exactly one; the next round delivers nothing, and
/// after 10 000 observe/round cycles a round still delivers each
/// observation once to each other shard — the outboxes hold nothing back.
#[test]
fn one_gossip_round_delivers_each_observation_once_to_every_other_shard() {
    let model = PgLikeCost::new();
    let q = gen::random_connected(8, 2, 42, &model);
    let fp = canonicalize(&q).fingerprint;
    let req = PlanRequest::default();
    for n in 2..=4u32 {
        let cluster = PlanCluster::new(ClusterConfig {
            shards: n as usize,
            replicas: n as usize,
            ..ClusterConfig::default()
        });
        let others = u64::from(n - 1);
        for origin in 0..n {
            let mut est = 0.0;
            for id in 0..n {
                let shard = cluster.shard_service(id).expect("shard ids are 0..n");
                est = shard
                    .plan_coalesced(&q, &model, &req)
                    .expect("plan")
                    .planned
                    .rows;
            }
            assert_eq!(cluster.cached_replicas(fp, &model), n as usize);

            let report = feedback_report((est.max(1.0) * 20.0) as u64, est);
            assert!(cluster.observe_on(origin, fp, &model, &report));
            assert_eq!(
                cluster.cached_replicas(fp, &model),
                n as usize - 1,
                "N = {n}, origin {origin}: another shard applied it before a round"
            );
            assert_eq!(
                cluster.run_gossip_round(),
                others,
                "N = {n}, origin {origin}"
            );
            assert_eq!(
                cluster.cached_replicas(fp, &model),
                0,
                "N = {n}, origin {origin}: still cached after one round"
            );
            assert_eq!(cluster.run_gossip_round(), 0, "N = {n}: delivered twice");
        }

        let report = feedback_report(1, 1.0);
        for cycle in 0..10_000u32 {
            let observations = 1 + cycle % 3;
            for k in 0..observations {
                cluster.observe_on((cycle + k) % n, fp, &model, &report);
            }
            assert_eq!(
                cluster.run_gossip_round(),
                u64::from(observations) * others,
                "N = {n}, cycle {cycle}"
            );
        }
    }
}

/// Cold traffic stays put: up to the hot threshold every request for a
/// fingerprint is served by its primary owner, and only that shard's cache
/// fills; the request after the threshold is the first to go elsewhere.
#[test]
fn cold_templates_are_served_by_their_owner_only() {
    let model = PgLikeCost::new();
    let cluster = PlanCluster::new(ClusterConfig {
        shards: 4,
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

    // Every one of the twelve requests counted: twenty more reach the
    // threshold on the owner, and the next goes to the other replica.
    for _ in 12..HOT_AFTER {
        assert_eq!(
            cluster.plan(&q, &model).expect("plan").shard,
            cluster.owner(fp)
        );
    }
    assert_eq!(cluster.cached_replicas(fp, &model), 1);
    let next = cluster.plan(&q, &model).expect("plan").shard;
    assert_eq!(
        next,
        cluster.replica_set(fp)[1],
        "request 33 is round-robined"
    );
}

/// The 24-template Zipf stream the steady-state test below replays.
fn zipf_spec() -> StreamSpec {
    StreamSpec {
        templates: 24,
        min_rels: 5,
        max_rels: 8,
        skew: 1.1,
        seed: 7,
    }
}

/// A cluster in steady state: one 600-request pass of the stream, so the
/// head's hot counts cross the threshold, then every template planned once
/// on each shard of its replica set — otherwise a template that turns hot
/// during the replay cold-plans on its second replica inside the measured
/// window. Returned with the stream, 600 draws in.
fn warmed_cluster(shards: usize, model: &PgLikeCost) -> (PlanCluster, ZipfStream) {
    let cluster = PlanCluster::new(ClusterConfig {
        shards,
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

/// Sixty-four fixed templates of 6–9 relations, the fingerprints
/// [`GOLDEN_ROUTES`] was recorded for.
fn golden_queries(model: &PgLikeCost) -> Vec<LargeQuery> {
    (0..64u64)
        .map(|i| gen::random_connected(6 + i as usize % 4, 1 + i as usize % 3, 9_000 + i, model))
        .collect()
}

/// Routing of [`golden_queries`] on a fresh default cluster of 2 shards,
/// then of 4: one line per template, `<replica set><40 routed shards>` at 2
/// shards, a `/`, and the same at 4. Forty consecutive requests cross the
/// hot threshold, so each line holds both the owner-pinned and the
/// round-robin phase. Recorded while the cluster still had an elastic
/// topology and a settable threshold.
const GOLDEN_ROUTES: [&str; 64] = [
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/010000000000000000000000000000000010101010",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "010000000000000000000000000000000010101010/303333333333333333333333333333333303030303",
    "010000000000000000000000000000000010101010/010000000000000000000000000000000010101010",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "010000000000000000000000000000000010101010/020000000000000000000000000000000020202020",
    "010000000000000000000000000000000010101010/303333333333333333333333333333333303030303",
    "010000000000000000000000000000000010101010/323333333333333333333333333333333323232323",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "010000000000000000000000000000000010101010/202222222222222222222222222222222202020202",
    "101111111111111111111111111111111101010101/313333333333333333333333333333333313131313",
    "010000000000000000000000000000000010101010/303333333333333333333333333333333303030303",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/323333333333333333333333333333333323232323",
    "101111111111111111111111111111111101010101/212222222222222222222222222222222212121212",
    "101111111111111111111111111111111101010101/121111111111111111111111111111111121212121",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/010000000000000000000000000000000010101010",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "101111111111111111111111111111111101010101/101111111111111111111111111111111101010101",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "010000000000000000000000000000000010101010/020000000000000000000000000000000020202020",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/202222222222222222222222222222222202020202",
    "010000000000000000000000000000000010101010/202222222222222222222222222222222202020202",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/010000000000000000000000000000000010101010",
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "101111111111111111111111111111111101010101/313333333333333333333333333333333313131313",
    "010000000000000000000000000000000010101010/202222222222222222222222222222222202020202",
    "101111111111111111111111111111111101010101/212222222222222222222222222222222212121212",
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/121111111111111111111111111111111121212121",
    "101111111111111111111111111111111101010101/121111111111111111111111111111111121212121",
    "101111111111111111111111111111111101010101/323333333333333333333333333333333323232323",
    "101111111111111111111111111111111101010101/313333333333333333333333333333333313131313",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/131111111111111111111111111111111131313131",
    "101111111111111111111111111111111101010101/313333333333333333333333333333333313131313",
    "101111111111111111111111111111111101010101/101111111111111111111111111111111101010101",
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/101111111111111111111111111111111101010101",
    "101111111111111111111111111111111101010101/121111111111111111111111111111111121212121",
    "010000000000000000000000000000000010101010/010000000000000000000000000000000010101010",
    "101111111111111111111111111111111101010101/323333333333333333333333333333333323232323",
    "101111111111111111111111111111111101010101/212222222222222222222222222222222212121212",
    "010000000000000000000000000000000010101010/303333333333333333333333333333333303030303",
    "010000000000000000000000000000000010101010/020000000000000000000000000000000020202020",
    "010000000000000000000000000000000010101010/030000000000000000000000000000000030303030",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "010000000000000000000000000000000010101010/202222222222222222222222222222222202020202",
    "010000000000000000000000000000000010101010/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/212222222222222222222222222222222212121212",
    "101111111111111111111111111111111101010101/232222222222222222222222222222222232323232",
    "101111111111111111111111111111111101010101/313333333333333333333333333333333313131313",
    "010000000000000000000000000000000010101010/020000000000000000000000000000000020202020",
];

#[test]
fn routing_matches_the_recorded_table() {
    let model = PgLikeCost::new();
    let queries = golden_queries(&model);
    let mut lines = vec![String::new(); queries.len()];
    for shards in [2, 4] {
        let cluster = PlanCluster::new(ClusterConfig {
            shards,
            ..ClusterConfig::default()
        });
        for (q, line) in queries.iter().zip(&mut lines) {
            if shards == 4 {
                line.push('/');
            }
            let fp = canonicalize(q).fingerprint;
            for id in cluster.replica_set(fp) {
                line.push_str(&id.to_string());
            }
            for _ in 0..40 {
                line.push_str(&cluster.route_service(q).shard.to_string());
            }
        }
    }
    for (i, (got, want)) in lines.iter().zip(GOLDEN_ROUTES).enumerate() {
        assert_eq!(got, want, "template {i}");
    }
}
