//! Admission-control integration tests: driving a small-queue front-end
//! past capacity must shed explicitly (counted, never silent), every
//! accepted request must still complete with a valid plan, and nothing —
//! submitters, dispatchers, shutdown — may hang.

use mpdp_cost::PgLikeCost;
use mpdp_serve::{Rejected, ServeConfig, ServeFront, TenantConfig};
use mpdp_workload::gen;
use std::sync::Arc;

#[test]
fn overload_sheds_explicitly_and_accepted_requests_complete() {
    const FLOOD: usize = 400;

    let m = PgLikeCost::new();
    // A deliberately tiny queue with one dispatcher, flooded with distinct
    // cold queries (no template repeats, so nothing coalesces away): the
    // queue must fill and subsequent submissions must shed.
    let front = ServeFront::new(
        ServeConfig {
            queue_depth: 8,
            dispatchers: 1,
            tenants: vec![TenantConfig::named("flood")],
            ..Default::default()
        },
        Arc::new(PgLikeCost::new()),
    );

    let mut tickets = Vec::new();
    let mut shed = 0u64;
    for i in 0..FLOOD {
        // 10–14 relations: slow enough to plan cold that one dispatcher
        // cannot drain an 8-deep queue as fast as this loop fills it.
        let q = gen::random_connected(10 + i % 5, 2, 9_000 + i as u64, &m);
        match front.submit(0, q.clone()) {
            Ok(t) => tickets.push((q, t)),
            Err(Rejected::QueueFull) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(
        shed > 0,
        "an 8-deep queue must overflow under a {FLOOD}-burst"
    );
    assert!(!tickets.is_empty(), "some submissions must be admitted");

    // Every accepted request completes — admission control sheds at the
    // door; it never abandons work it let in.
    for (q, ticket) in tickets {
        let done = ticket.wait();
        let plan = done.result.expect("accepted requests complete");
        let qi = q.to_query_info().unwrap();
        assert!(plan.planned.plan.validate(&qi.graph).is_none());
    }

    let s = front.serve_counters();
    assert_eq!(s.shed_queue_full, shed, "every shed is counted: {s:?}");
    assert_eq!(s.accepted, FLOOD as u64 - shed, "{s:?}");
    assert_eq!(s.accepted + s.sheds(), FLOOD as u64, "{s:?}");
    assert_eq!(s.completed, s.accepted, "{s:?}");
    assert_eq!(s.failed, 0, "{s:?}");
    // All work drained: the gauges are back to zero.
    assert_eq!((s.queue_depth, s.in_flight), (0, 0), "{s:?}");
    assert!(s.queue_depth_peak <= 8, "peak bounded by capacity: {s:?}");
}

#[test]
fn tenant_quota_sheds_independently_of_queue() {
    let m = PgLikeCost::new();
    let mut strict = TenantConfig::named("strict");
    strict.max_in_flight = 2;
    let front = ServeFront::new(
        ServeConfig {
            queue_depth: 64,
            dispatchers: 1,
            tenants: vec![strict, TenantConfig::named("lax")],
            ..Default::default()
        },
        Arc::new(PgLikeCost::new()),
    );

    let mut quota_sheds = 0u64;
    let mut tickets = Vec::new();
    for i in 0..16 {
        let q = gen::random_connected(11, 2, 77_000 + i, &m);
        // The strict tenant trips its own quota long before the queue
        // fills; the lax tenant riding the same queue is never shed.
        match front.submit(0, q) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QuotaExhausted) => quota_sheds += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
        let lax = gen::random_connected(9, 1, 88_000 + i, &m);
        tickets.push(front.submit(1, lax).expect("lax tenant under quota"));
    }
    assert!(
        quota_sheds > 0,
        "max_in_flight=2 must shed under a 16-burst"
    );

    for t in tickets {
        t.wait().result.expect("accepted requests complete");
    }
    let s = front.serve_counters();
    assert_eq!(s.shed_quota, quota_sheds, "{s:?}");
    assert_eq!(s.shed_queue_full, 0, "{s:?}");
    assert_eq!(s.completed, s.accepted, "{s:?}");
}

#[test]
fn aggregate_cache_is_the_exact_fieldwise_sum() {
    use mpdp_cluster::ClusterConfig;
    use mpdp_core::counters::CacheSnapshot;

    let m = PgLikeCost::new();
    // One plain tenant, one cluster-backed tenant: the front-door aggregate
    // must be the exact field-wise [`CacheSnapshot::merge`] fold across
    // both backends — counters are sums, not samples.
    let clustered = TenantConfig::named("sharded").clustered(ClusterConfig {
        shards: 3,
        ..ClusterConfig::default()
    });
    let front = ServeFront::new(
        ServeConfig {
            queue_depth: 64,
            dispatchers: 2,
            tenants: vec![TenantConfig::named("plain"), clustered],
            ..Default::default()
        },
        Arc::new(PgLikeCost::new()),
    );

    let mut tickets = Vec::new();
    for i in 0..24u64 {
        let q = gen::random_connected(6 + (i % 3) as usize, 1, 400 + i, &m);
        let tenant = (i % 2) as usize;
        // Submit each query twice so both backends record hits (or
        // coalesced joins) as well as misses.
        tickets.push(front.submit(tenant, q.clone()).expect("under quota"));
        tickets.push(front.submit(tenant, q).expect("under quota"));
    }
    for t in tickets {
        t.wait().result.expect("accepted requests complete");
    }

    let plain = front.cache_counters(0);
    let sharded = front.cache_counters(1);
    let mut manual = plain;
    manual.merge(&sharded);
    assert_eq!(
        front.aggregate_cache(),
        manual,
        "front-door aggregate must equal the field-wise tenant sum"
    );
    // Commutativity: fold order cannot change the totals.
    let mut swapped = sharded;
    swapped.merge(&plain);
    assert_eq!(manual, swapped);

    // The cluster tenant's own counters are in turn the exact fold of its
    // per-shard snapshots (associativity one level down).
    let cluster = front.cluster(1).expect("tenant 1 is cluster-backed");
    let mut fold = CacheSnapshot::default();
    for (_, snap) in cluster.shard_snapshots() {
        fold.merge(&snap);
    }
    assert_eq!(fold, sharded, "cluster aggregate must equal its shard fold");

    // Both backends actually did work: every request is exactly one hit,
    // miss or coalesced join, across tenants and shards.
    assert_eq!(manual.hits + manual.misses + manual.coalesced, 48);
    assert!(manual.hits > 0, "repeat submissions must hit: {manual:?}");
    assert!(manual.misses > 0, "{manual:?}");
}

#[test]
fn shutdown_refuses_new_work_without_hanging() {
    let m = PgLikeCost::new();
    let mut front = ServeFront::new(ServeConfig::default(), Arc::new(PgLikeCost::new()));
    let q = gen::random_connected(8, 1, 5, &m);
    let ticket = front.submit(0, q).expect("open front accepts");
    assert!(ticket.wait().result.is_ok());

    front.shutdown();
    let late = gen::random_connected(8, 1, 6, &m);
    assert_eq!(front.submit(0, late).err(), Some(Rejected::ShuttingDown));
}
