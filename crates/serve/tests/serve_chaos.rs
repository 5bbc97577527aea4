//! Chaos suite: the serving front-end under seeded fault injection.
//!
//! Each case arms a deterministic [`FaultPlan`] (panics, stalls, and errors
//! at the queue, dispatcher, and planner sites — see
//! `mpdp_core::faults::site`) and drives a real [`ServeFront`] through it.
//! The assertions are the failure-domain contract, not performance:
//!
//! - **No hung waiter.** Every ticket resolves within a generous timeout,
//!   whatever died underneath it.
//! - **Exact accounting.** `accepted == completed + failed` — a panicked
//!   dispatcher may *fail* requests, it may never *lose* one — and the
//!   queue-depth / in-flight gauges return to zero once drained.
//! - **Single-flight survives.** At most one successful cold plan per
//!   fingerprint, even while injected faults error and panic flights.
//! - **Deadlines degrade, not explode.** Requests that cannot afford exact
//!   planning resolve with a heuristic plan inside their budget.
//!
//! Schedules are seeded, so a failing seed replays exactly:
//! `cargo test --test serve_chaos`.

use mpdp::service::ServedVia;
use mpdp_core::faults::{FaultPlan, Faults};
use mpdp_core::LargeQuery;
use mpdp_cost::PgLikeCost;
use mpdp_serve::{PlanTicket, Rejected, ServeConfig, ServeFront, TenantConfig};
use mpdp_workload::gen;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pool of distinct query templates (mixed topologies and sizes, small
/// enough that a single case stays fast).
fn templates(count: usize) -> Vec<LargeQuery> {
    let m = PgLikeCost::new();
    (0..count)
        .map(|i| {
            let n = 5 + i % 4;
            let seed = i as u64;
            match i % 3 {
                0 => gen::star(n, seed, &m),
                1 => gen::chain(n, seed, &m),
                _ => gen::cycle(n, seed, &m),
            }
        })
        .collect()
}

/// Drives one seeded fault schedule through a small front-end and asserts
/// the failure-domain contract. Returns the armed handle, for its fired
/// counts.
fn run_chaos_seed(seed: u64) -> Faults {
    let faults = FaultPlan::seeded(seed).arm();
    let pool = templates(32);
    let mut front = ServeFront::new(
        ServeConfig {
            queue_depth: 64,
            dispatchers: 2,
            default_deadline: Some(Duration::from_millis(300)),
            faults: faults.clone(),
            tenants: vec![TenantConfig::named("chaos")],
            ..ServeConfig::default()
        },
        Arc::new(PgLikeCost::new()),
    );

    // No pre-warm: cold planning, single-flight leadership, and degradation
    // all happen *during* the fault schedule.
    let mut tickets: Vec<PlanTicket> = Vec::new();
    for i in 0..120usize {
        match front.submit(0, pool[i % pool.len()].clone()) {
            Ok(t) => tickets.push(t),
            // Injected queue.push errors shed as QueueFull; both sheds are
            // legitimate answers under chaos, never a lost request.
            Err(Rejected::QueueFull) | Err(Rejected::QuotaExhausted) => {}
            Err(Rejected::ShuttingDown) => panic!("front closed itself (seed {seed})"),
        }
    }

    // No hung waiters: every ticket resolves, served or explicitly failed.
    for (i, t) in tickets.iter_mut().enumerate() {
        assert!(
            t.wait_timeout(Duration::from_secs(30)).is_some(),
            "seed {seed}: ticket {i} hung"
        );
    }
    drop(tickets);
    front.shutdown();

    let s = front.serve_counters();
    assert_eq!(
        s.accepted,
        s.completed + s.failed,
        "seed {seed}: accepted requests must complete or fail, never vanish"
    );
    assert_eq!(
        (s.queue_depth, s.in_flight),
        (0, 0),
        "seed {seed}: gauges must return to zero after drain"
    );
    let c = front.cache_counters(0);
    // Single-flight under fire: at most one *successful* cold plan (= cache
    // insertion) per fingerprint. `misses` may exceed the fingerprint count
    // because a flight failed by an injected planner error counts as a miss
    // and the next request legitimately plans cold again.
    assert!(
        c.insertions <= 32,
        "seed {seed}: {} cold insertions for 32 fingerprints — single-flight broken",
        c.insertions
    );
    // Every request that reached planning is exactly one of
    // hit/miss/coalesced/degraded; requests failed before planning (lease
    // settlement of a panicked dispatcher's chunk) touch no cache counter.
    let served_subtotal = c.hits + c.misses + c.coalesced + c.degraded;
    assert!(
        served_subtotal >= s.completed && served_subtotal <= s.completed + s.failed,
        "seed {seed}: cache partition {served_subtotal} outside \
         [completed {} .. completed+failed {}]",
        s.completed,
        s.completed + s.failed
    );
    faults
}

/// 32 seeded schedules, exercised end to end. Aggregate, the schedules must
/// actually fire (a chaos suite that injects nothing tests nothing) — and at
/// every site they name: a site that is scheduled 32 times over and never
/// reached is seeded surface the suite only pretends to cover.
#[test]
fn thirty_two_seeded_schedules_hold_the_contract() {
    let mut fired_total = 0;
    let mut fired_at: BTreeMap<String, u64> = BTreeMap::new();
    for seed in 0..32u64 {
        let faults = run_chaos_seed(seed);
        fired_total += faults.fired();
        // The schedule's own listing (`site@index action` per line) says
        // which sites this seed draws from.
        let schedule = FaultPlan::seeded(seed).describe();
        let sites: BTreeSet<&str> = schedule
            .lines()
            .map(|line| line.split('@').next().expect("site@index action"))
            .collect();
        for site in sites {
            *fired_at.entry(site.to_string()).or_default() += faults.fired_at(site);
        }
    }
    assert!(
        fired_total >= 32,
        "only {fired_total} injected faults fired across 32 schedules"
    );
    for (site, fired) in &fired_at {
        assert!(
            *fired >= 1,
            "{site} is scheduled but never fired across 32 schedules: {fired_at:?}"
        );
    }
}

/// Deadline-carrying requests resolve *within* their budget (plus scheduling
/// slack) by degrading to a heuristic plan — never by blowing through it
/// with exact planning, never by failing.
#[test]
fn deadline_requests_degrade_within_budget() {
    let deadline = Duration::from_millis(60);
    let front = ServeFront::new(
        ServeConfig {
            dispatchers: 2,
            default_deadline: Some(deadline),
            ..ServeConfig::default()
        },
        Arc::new(PgLikeCost::new()),
    );
    let m = PgLikeCost::new();
    // Cliques: exact planning enumerates every connected subgraph (dense —
    // orders of magnitude past the deadline), so the affordability check
    // must reroute. (Chains of the same size are *cheap* for DP and would
    // be planned exactly well inside 60ms.)
    let queries: Vec<LargeQuery> = (0..6)
        .map(|i| gen::clique(12 + i % 2, i as u64, &m))
        .collect();
    let start = Instant::now();
    let tickets: Vec<PlanTicket> = queries
        .into_iter()
        .map(|q| front.submit(0, q).expect("admitted"))
        .collect();
    let mut degraded = 0;
    for t in tickets {
        let done = t.wait();
        let plan = done.result.expect("deadline requests resolve with a plan");
        if plan.via == ServedVia::Degraded {
            degraded += 1;
        }
        // Generous slack over the 60ms budget: CI boxes stall, but an exact
        // 14-relation plan (seconds) would still blow far past this.
        assert!(
            done.latency < deadline + Duration::from_millis(500),
            "latency {:?} ignored the deadline budget",
            done.latency
        );
    }
    assert!(
        degraded > 0,
        "tight deadlines must reroute to the heuristic"
    );
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// The close-during-push / ticket-drop hammer: eight submitter threads race
/// a closing front-end while randomly abandoning tickets. However the race
/// lands, `close()` must drain every accepted request and the books must
/// balance.
fn hammer_close_race(case_seed: u64) {
    let pool = Arc::new(templates(8));
    let front = Arc::new(ServeFront::new(
        ServeConfig {
            queue_depth: 32,
            dispatchers: 2,
            tenants: vec![TenantConfig {
                max_in_flight: 48,
                ..TenantConfig::named("hammer")
            }],
            ..ServeConfig::default()
        },
        Arc::new(PgLikeCost::new()),
    ));

    let submitters: Vec<_> = (0..8u64)
        .map(|tid| {
            let front = Arc::clone(&front);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut kept: Vec<PlanTicket> = Vec::new();
                let mut rng = case_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tid;
                for i in 0..50usize {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    match front.submit(0, pool[i % pool.len()].clone()) {
                        // Keep some tickets, abandon the rest mid-flight.
                        Ok(t) if rng & 1 == 0 => kept.push(t),
                        Ok(_abandoned) => {}
                        Err(Rejected::ShuttingDown) => break,
                        Err(_shed) => {}
                    }
                }
                kept
            })
        })
        .collect();

    // Close at a seed-dependent moment inside the submission storm.
    std::thread::sleep(Duration::from_micros(200 * (case_seed % 20)));
    front.close();

    for s in submitters {
        for mut ticket in s.join().expect("submitter panicked") {
            assert!(
                ticket.wait_timeout(Duration::from_secs(30)).is_some(),
                "ticket hung across close()"
            );
        }
    }
    // Take the front back (all submitter clones are joined) and drain.
    let mut front =
        Arc::try_unwrap(front).unwrap_or_else(|_| panic!("submitters still hold the front"));
    front.shutdown();

    let s = front.serve_counters();
    assert_eq!(
        s.accepted,
        s.completed + s.failed,
        "close() must drain every accepted request (case {case_seed})"
    );
    assert_eq!((s.queue_depth, s.in_flight), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized close-timing and abandonment patterns for the hammer.
    #[test]
    fn close_during_push_and_ticket_drop_races(case_seed in 0u64..10_000) {
        hammer_close_race(case_seed);
    }
}
