//! Single-flight integration tests: N concurrent requesters racing
//! relabeled isomorphic queries onto a cold cache must produce exactly one
//! cold plan, with every requester receiving a valid plan in its *own*
//! relation labeling and the hit/miss/coalesced accounting staying exact.

use mpdp::service::{PlanRequest, PlanServiceBuilder, ServedVia};
use mpdp_cost::PgLikeCost;
use mpdp_serve::{ServeConfig, ServeFront, TenantConfig};
use mpdp_workload::gen;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};

/// A random permutation of `0..n`, deterministic in `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

#[test]
fn racing_relabeled_queries_plan_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 4;

    let m = PgLikeCost::new();
    let svc = Arc::new(PlanServiceBuilder::new().build());
    // One 12-relation template; every request is a different relabeling of
    // it, so they all canonicalize to one fingerprint but none are
    // byte-identical.
    let template = gen::star(12, 4242, &m);
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = Arc::clone(&svc);
            let template = template.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let m = PgLikeCost::new();
                let req = PlanRequest::default();
                // Line all threads up so the cold window really races.
                barrier.wait();
                for i in 0..PER_THREAD {
                    let q =
                        template.relabel(&permutation(template.num_rels(), (t * 31 + i) as u64));
                    let served = svc.plan_coalesced(&q, &m, &req).expect("plans");
                    // The plan must be valid under THIS requester's labels —
                    // a coalesced result is remapped from the leader's
                    // canonical plan onto this request's permutation.
                    let qi = q.to_query_info().unwrap();
                    assert!(
                        served.planned.plan.validate(&qi.graph).is_none(),
                        "thread {t} request {i} got a plan for the wrong labeling"
                    );
                    assert_eq!(served.planned.plan.num_rels(), 12);
                    assert_eq!(served.cache_hit, served.via == ServedVia::Hit);
                }
            });
        }
    });

    let s = svc.cache_counters();
    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(
        s.hits + s.misses + s.coalesced,
        total,
        "every request is exactly one of hit/miss/coalesced: {s:?}"
    );
    // The protocol guarantee, not a timing accident: the flight entry is
    // removed only after the cache insert, so a second cold plan for this
    // fingerprint is impossible.
    assert_eq!(s.misses, 1, "single-flight must plan exactly once: {s:?}");
    assert_eq!(s.insertions, 1, "{s:?}");
    assert_eq!(s.hits + s.coalesced, total - 1, "{s:?}");
}

#[test]
fn relabeled_floods_coalesce_through_the_front() {
    const REQUESTS: usize = 32;

    let m = PgLikeCost::new();
    let front = ServeFront::new(
        ServeConfig {
            dispatchers: 4,
            tenants: vec![TenantConfig::named("flood")],
            ..Default::default()
        },
        Arc::new(PgLikeCost::new()),
    );
    let template = gen::chain(10, 99, &m);

    // Submit a burst of relabelings before waiting on anything: the
    // dispatchers race them through `plan_coalesced`, where all but the flight
    // leader coalesce.
    let submissions: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let q = template.relabel(&permutation(template.num_rels(), 7000 + i as u64));
            (q.clone(), front.submit(0, q).expect("under capacity"))
        })
        .collect();

    let mut via_counts = [0usize; 4];
    for (q, ticket) in submissions {
        let done = ticket.wait();
        let plan = done.result.expect("accepted requests complete");
        let qi = q.to_query_info().unwrap();
        assert!(
            plan.planned.plan.validate(&qi.graph).is_none(),
            "plan not valid under the submitter's labeling"
        );
        via_counts[match plan.via {
            ServedVia::Hit => 0,
            ServedVia::Cold => 1,
            ServedVia::Coalesced => 2,
            ServedVia::Degraded => 3,
        }] += 1;
    }
    assert_eq!(via_counts.iter().sum::<usize>(), REQUESTS);
    assert_eq!(via_counts[1], 1, "exactly one cold plan: {via_counts:?}");

    let c = front.cache_counters(0);
    assert_eq!(c.hits + c.misses + c.coalesced, REQUESTS as u64, "{c:?}");
    assert_eq!(c.misses, 1, "{c:?}");
    let s = front.serve_counters();
    assert_eq!((s.accepted, s.completed, s.failed), (32, 32, 0));
}
