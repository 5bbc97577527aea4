//! A routed request canonicalizes once, and is still served in its own
//! labels.
//!
//! `PlanCluster::route_service` canonicalizes a query to pick its shard and
//! hands that form to the shard, which probes its cache with it instead of
//! canonicalizing again. These tests hold both halves: every routed hit is
//! a valid plan for the caller's labeling at the warm template's exact cost
//! (a form paired with the wrong query would remap the plan wrongly), and
//! `canonicalize` runs exactly once per request on every entry point.
//!
//! `canonicalize_calls` is process-wide, so the tests of this file take one
//! lock and nothing else in the binary canonicalizes.

use mpdp::service::{PlanRequest, PlanService, ServedPlan, ServedVia};
use mpdp_cluster::{ClusterConfig, PlanCluster};
use mpdp_core::fingerprint::{canonicalize, canonicalize_calls};
use mpdp_core::LargeQuery;
use mpdp_cost::PgLikeCost;
use mpdp_serve::{ServeConfig, ServeFront, TenantConfig};
use mpdp_workload::{StreamSpec, ZipfStream};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};

/// Relabelings per template: past the cluster's hot threshold of 32, so
/// each template's first 32 go to its owner and the rest round-robin over
/// its replica set.
const RELABELINGS: u64 = 40;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A random permutation of `0..n`, deterministic in `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

/// Twelve templates of 8–12 relations over every generator family.
fn pool() -> Vec<LargeQuery> {
    let spec = StreamSpec {
        templates: 12,
        min_rels: 8,
        max_rels: 12,
        seed: 34,
        ..StreamSpec::default()
    };
    ZipfStream::new(&spec, &PgLikeCost::new())
        .templates()
        .iter()
        .map(|t| t.query.clone())
        .collect()
}

/// A 3-shard cluster with replica sets of two.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        shards: 3,
        replicas: 2,
        ..ClusterConfig::default()
    }
}

/// Plans every template on every shard of its replica set, so no routed
/// request can miss; returns each template's cost.
fn warm(cluster: &PlanCluster, pool: &[LargeQuery]) -> Vec<f64> {
    let m = PgLikeCost::new();
    pool.iter()
        .map(|q| {
            let costs: Vec<f64> = cluster
                .replica_set(canonicalize(q).fingerprint)
                .into_iter()
                .map(|shard| {
                    let service = cluster.shard_service(shard).expect("live shard");
                    let served = service.plan_coalesced(q, &m, &PlanRequest::default());
                    served.expect("warm-up plan").planned.cost
                })
                .collect();
            assert!(costs.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()));
            costs[0]
        })
        .collect()
}

/// Every relabeling of every template, with the template's index.
fn relabelings(pool: &[LargeQuery]) -> Vec<(usize, LargeQuery)> {
    pool.iter()
        .enumerate()
        .flat_map(|(t, q)| {
            (0..RELABELINGS).map(move |i| (t, q.relabel(&permutation(q.num_rels(), 97 * i + 5))))
        })
        .collect()
}

/// A hit, at the warm cost to the bit, whose plan is valid in `q`'s labels.
fn assert_served_in_callers_labels(served: &ServedPlan, q: &LargeQuery, warm_cost: f64) {
    assert_eq!(served.via, ServedVia::Hit);
    assert_eq!(served.planned.cost.to_bits(), warm_cost.to_bits());
    assert_eq!(served.planned.plan.num_rels(), q.num_rels());
    let qi = q.to_query_info().expect("connected template");
    assert!(served.planned.plan.validate(&qi.graph).is_none());
}

/// A front-end whose one tenant is a cluster.
fn clustered_front() -> ServeFront {
    front_with(TenantConfig::named("routed").clustered(cluster_config()))
}

/// A front-end with one tenant and two dispatchers.
fn front_with(tenant: TenantConfig) -> ServeFront {
    let config = ServeConfig {
        dispatchers: 2,
        tenants: vec![tenant],
        ..ServeConfig::default()
    };
    ServeFront::new(config, Arc::new(PgLikeCost::new()))
}

/// Submits every request and waits for each; returns the served plans.
fn serve_all(front: &ServeFront, requests: &[(usize, LargeQuery)]) -> Vec<ServedPlan> {
    let tickets: Vec<_> = requests
        .iter()
        .map(|(_, q)| front.submit(0, q.clone()).expect("admitted"))
        .collect();
    tickets
        .into_iter()
        .map(|ticket| ticket.wait().result.expect("served"))
        .collect()
}

#[test]
fn routed_hits_are_served_in_the_callers_labels() {
    let _serial = serial();
    let m = PgLikeCost::new();
    let pool = pool();
    let requests = relabelings(&pool);

    let cluster = PlanCluster::new(cluster_config());
    let costs = warm(&cluster, &pool);
    for (t, q) in &requests {
        let served = cluster.plan(q, &m).expect("routed hit").served;
        assert_served_in_callers_labels(&served, q, costs[*t]);
    }

    let front = clustered_front();
    let costs = warm(front.cluster(0).expect("cluster tenant"), &pool);
    for ((t, q), served) in requests.iter().zip(serve_all(&front, &requests)) {
        assert_served_in_callers_labels(&served, q, costs[*t]);
    }
}

#[test]
fn a_request_canonicalizes_once() {
    let _serial = serial();
    let m = PgLikeCost::new();
    let pool = pool();
    let requests = relabelings(&pool);
    let count = requests.len() as u64;

    // Through `PlanCluster::plan`.
    let cluster = PlanCluster::new(cluster_config());
    warm(&cluster, &pool);
    let before = canonicalize_calls();
    for (_, q) in &requests {
        cluster.plan(q, &m).expect("routed hit");
    }
    assert_eq!(canonicalize_calls() - before, count, "PlanCluster::plan");

    // Through `ServeFront`, cluster-backed and single-service: the
    // dispatchers canonicalize, and each ticket's completion orders their
    // counts before `wait` returns.
    let front = clustered_front();
    warm(front.cluster(0).expect("cluster tenant"), &pool);
    let before = canonicalize_calls();
    serve_all(&front, &requests);
    assert_eq!(canonicalize_calls() - before, count, "ServeFront, cluster");
    let front = front_with(TenantConfig::named("single"));
    let before = canonicalize_calls();
    serve_all(&front, &requests);
    assert_eq!(
        canonicalize_calls() - before,
        count,
        "ServeFront, one service"
    );

    // Directly on one service, hits and misses alike.
    let service = PlanService::new();
    let before = canonicalize_calls();
    for (_, q) in &requests {
        service
            .plan_coalesced(q, &m, &PlanRequest::default())
            .expect("plans");
    }
    assert_eq!(canonicalize_calls() - before, count, "plan_coalesced");
}
