//! `deadline_degrade` — per-request deadline budgets and heuristic fallback.
//!
//! Submits the same queries twice through an [`mpdp_serve::ServeFront`]:
//! once with no deadline (exact planning, whatever it costs) and once with
//! a deadline exact planning cannot meet (the affordability check reroutes
//! to the degrade heuristic, `ServedVia::Degraded`). Prints the per-shape
//! latency/cost comparison — the plan-quality price of meeting a deadline.
//!
//! ```sh
//! cargo run --release --example deadline_degrade
//! ```

use mpdp::service::ServedVia;
use mpdp_cost::PgLikeCost;
use mpdp_serve::{ServeConfig, ServeFront, TenantConfig};
use mpdp_workload::gen;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let m = PgLikeCost::new();
    let shapes: Vec<(&str, mpdp_core::LargeQuery)> = vec![
        ("star-12", gen::star(12, 7, &m)),
        ("star-14", gen::star(14, 7, &m)),
        ("cycle-14", gen::cycle(14, 7, &m)),
        ("clique-11", gen::clique(11, 7, &m)),
        ("clique-12", gen::clique(12, 7, &m)),
    ];

    // Two fronts so the exact runs can't serve the degraded runs from cache
    // (and vice versa): same planner stack, only the deadline differs.
    let make_front = |deadline: Option<Duration>| {
        ServeFront::new(
            ServeConfig {
                dispatchers: 1,
                default_deadline: deadline,
                tenants: vec![TenantConfig::named("demo")],
                ..ServeConfig::default()
            },
            Arc::new(PgLikeCost::new()),
        )
    };
    let exact_front = make_front(None);
    let deadline = Duration::from_millis(10);
    let degrade_front = make_front(Some(deadline));

    println!("== exact vs degraded (deadline {deadline:?}) ==");
    println!("shape\t\texact_ms\tdegraded_ms\tcost_ratio\tvia");
    for (name, q) in &shapes {
        let t0 = Instant::now();
        let exact = exact_front
            .submit(0, q.clone())
            .expect("admitted")
            .wait()
            .result
            .expect("exact plan");
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_ne!(exact.via, ServedVia::Degraded, "no deadline, no degrade");

        let t1 = Instant::now();
        let degraded = degrade_front
            .submit(0, q.clone())
            .expect("admitted")
            .wait()
            .result
            .expect("degraded requests still resolve with a plan");
        let degraded_ms = t1.elapsed().as_secs_f64() * 1e3;

        println!(
            "{name}\t{exact_ms:>8.2}\t{degraded_ms:>8.2}\t{:>7.3}x\t\t{:?}",
            degraded.planned.cost / exact.planned.cost,
            degraded.via,
        );
    }
    println!(
        "\nA degraded request answers inside its budget with a heuristic plan \
         (GOO); the cost ratio is the plan-quality price paid for the latency \
         bound. Degraded plans are never cached as exact — a later request \
         with headroom plans cold and repairs the cache."
    );
}
