//! `serve_throughput` — the PlanService serving layer end to end.
//!
//! Builds a [`mpdp::PlanService`], demonstrates the fingerprint cache on a
//! pair of isomorphic queries (same shape, relabeled relations), shows the
//! adaptive planner's route on both sides of its exact limit, then replays a
//! short Zipf stream from four threads and prints the rate and the cache
//! counters. (For measured serving numbers see `benchmark/run.sh`.)
//!
//! ```sh
//! cargo run --release --example serve_throughput
//! ```

use mpdp::prelude::*;
use mpdp_workload::{gen, StreamSpec, ZipfStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let model = PgLikeCost::new();
    let service = PlanServiceBuilder::new()
        .cache_capacity(2048)
        .cache_shards(8)
        .budget(Duration::from_secs(30))
        .build();

    // --- one query, twice: cold plan, then an isomorphic relabeled hit ----
    println!("== fingerprint cache on isomorphic queries ==");
    let q = gen::star(14, 3, &model);
    let cold = service.plan(&q, &model).expect("cold plan");
    println!(
        "cold:  strategy={:<12} cost={:.3e}  service_time={:?}  hit={}",
        cold.planned.strategy, cold.planned.cost, cold.service_time, cold.cache_hit
    );
    let relabeled = q.relabel(&(0..14).rev().collect::<Vec<_>>());
    let hit = service.plan(&relabeled, &model).expect("cached plan");
    println!(
        "hit:   strategy={:<12} cost={:.3e}  service_time={:?}  hit={}",
        hit.planned.strategy, hit.planned.cost, hit.service_time, hit.cache_hit
    );
    assert!(hit.cache_hit);
    let qi = relabeled.to_query_info().expect("≤64 rels");
    assert!(
        hit.planned.plan.validate(&qi.graph).is_none(),
        "remapped plan must be valid for the relabeled query"
    );
    println!(
        "speedup: {:.0}x (fingerprint {})\n",
        cold.service_time.as_secs_f64() / hit.service_time.as_secs_f64().max(1e-9),
        hit.fingerprint
    );

    // --- the planner's route, by size -----------------------------------
    println!("== adaptive routes ==");
    let req = PlanRequest::default();
    for (label, q) in [
        ("chain(8)", gen::chain(8, 1, &model)),
        ("star(16)", gen::star(16, 1, &model)),
        ("clique(12)", gen::clique(12, 1, &model)),
        ("snowflake(40)", gen::snowflake(40, 4, 1, &model)),
    ] {
        println!("{label:<24} -> {}", service.route_for(&q, &req));
    }
    println!();

    // --- four threads race down one Zipf stream ---------------------------
    println!("== Zipf replay (2000 queries, 4 workers) ==");
    let spec = StreamSpec {
        templates: 200,
        ..StreamSpec::default()
    };
    let queries = ZipfStream::new(&spec, &model).take(2000);
    let fresh = PlanServiceBuilder::new()
        .budget(Duration::from_secs(30))
        .build();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                while let Some((_, q)) = queries.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    fresh.plan_coalesced(q, &model, &req).expect("plan");
                }
            });
        }
    });
    let rate = queries.len() as f64 / start.elapsed().as_secs_f64();
    println!("served {} queries, {rate:.0}/s", queries.len());
    println!("{:#?}", fresh.cache_counters());
}
