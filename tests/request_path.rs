//! Entry-point equivalence: `plan_with`, `plan_coalesced` and `plan_async`
//! drive one request state machine, so the same scenario must end the same
//! way through each of them — same `ServedVia`, same `CacheSnapshot` delta,
//! same plan cost, same span sites in the same order. The one permitted
//! difference is the one the design names: only the coalesced entry points
//! register a flight, so only they wrap their planning in a `flight.lead`
//! span.
//!
//! Interleavings are forced, never slept for: a leader is held inside its
//! planning by a gate in the cost model, and a joiner is known to have
//! joined once the tracer has handed out the id of its `flight.wait` span.

use mpdp::service::{PlanRequest, PlanService, PlanServiceBuilder, ServedPlan};
use mpdp_core::counters::CacheSnapshot;
use mpdp_core::faults::{site, FaultAction, FaultPlan};
use mpdp_core::{LargeQuery, OptError};
use mpdp_cost::model::{CostModel, InputEst, JoinAlgo};
use mpdp_cost::PgLikeCost;
use mpdp_obs::{sites, SpanRec, Tracer};
use mpdp_workload::gen;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Anything that takes this long is a hang, and fails instead.
const HANG: Duration = Duration::from_secs(30);

#[derive(Copy, Clone, Debug, PartialEq)]
enum Entry {
    With,
    Coalesced,
    Async,
}
use Entry::{Async, Coalesced, With};

struct Unpark(Thread);
impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The whole executor: poll, park until woken, poll again.
fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut fut = pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut Context::from_waker(&waker)) {
            return out;
        }
        std::thread::park();
    }
}

fn call(
    entry: Entry,
    svc: &PlanService,
    q: &LargeQuery,
    model: &(dyn CostModel + Sync),
    req: &PlanRequest,
) -> Result<ServedPlan, OptError> {
    match entry {
        With => svc.plan_with(q, model, req),
        Coalesced => svc.plan_coalesced(q, model, req),
        Async => block_on(svc.plan_async(q, model, req)),
    }
}

/// What one scenario looked like from outside, through one entry point.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `ServedVia` of the request under test, or its error, or `"panic"`.
    outcome: String,
    /// Everything the scenario tallied (for joiner scenarios that includes
    /// the leader the joiner waited on).
    delta: CacheSnapshot,
    /// Plan cost, bit for bit.
    cost: Option<u64>,
    /// Span sites recorded under the request's trace, in start order.
    sites: Vec<&'static str>,
}

fn outcome(result: &Result<ServedPlan, OptError>) -> String {
    match result {
        Ok(served) => format!("{:?}", served.via),
        Err(e) => format!("Err({e})"),
    }
}

/// One traced request: a root span to hang the request's spans under, and
/// the bookkeeping to read them back.
struct Traced {
    tracer: Tracer,
    before: CacheSnapshot,
    /// Records drained while waiting for a joiner (see `wait_for_new_span`).
    kept: Vec<SpanRec>,
}

impl Traced {
    fn new(svc: &PlanService) -> Traced {
        Traced {
            tracer: Tracer::armed(1024),
            before: svc.cache_counters(),
            kept: Vec::new(),
        }
    }

    /// Runs `f` with a request carrying a fresh trace; returns the trace id
    /// with `f`'s result.
    fn request<T>(&self, base: PlanRequest, f: impl FnOnce(&PlanRequest) -> T) -> (u64, T) {
        let root = self.tracer.begin_request(sites::REQUEST);
        let req = PlanRequest {
            trace: root.ctx(),
            ..base
        };
        (req.trace.trace_id(), f(&req))
    }

    /// Emits a probe event and returns its span id; every other record the
    /// drain picks up is kept for `finish`.
    fn probe(&mut self) -> u64 {
        self.tracer.event(sites::GOSSIP, 0);
        let recs = self.tracer.drain();
        let id = recs
            .iter()
            .filter(|r| r.site == sites::GOSSIP)
            .map(|r| r.span)
            .max()
            .expect("the probe event itself");
        self.kept
            .extend(recs.into_iter().filter(|r| r.site != sites::GOSSIP));
        id
    }

    /// Blocks until some *other* thread has been handed a span id since
    /// `base` was probed: span ids come from one counter, so a gap between
    /// our own consecutive probes is somebody else's span being opened.
    fn wait_for_new_span(&mut self, base: u64) {
        let t0 = Instant::now();
        let mut mine = 0;
        loop {
            mine += 1;
            if self.probe() - base > mine {
                return;
            }
            assert!(t0.elapsed() < HANG, "nobody opened a span");
            std::thread::yield_now();
        }
    }

    fn finish(
        mut self,
        svc: &PlanService,
        trace: u64,
        result: &Result<ServedPlan, OptError>,
    ) -> Observed {
        self.kept.extend(self.tracer.drain());
        self.kept.sort_by_key(|r| (r.start_ns, r.span));
        Observed {
            outcome: outcome(result),
            delta: svc.cache_counters().delta(&self.before),
            cost: result.as_ref().ok().map(|s| s.planned.cost.to_bits()),
            sites: self
                .kept
                .iter()
                .filter(|r| r.trace == trace && r.site != sites::REQUEST)
                .map(|r| r.site.name())
                .collect(),
        }
    }
}

/// A far deadline: always affordable, only matters once something fails.
fn far_deadline() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(3600))
}

fn query() -> LargeQuery {
    gen::chain(8, 11, &PgLikeCost::new())
}

/// Runs one request on a fresh (or `prepare`d) service and observes it.
fn solo(
    entry: Entry,
    svc: PlanService,
    q: &LargeQuery,
    base: PlanRequest,
    prepare: impl FnOnce(&PlanService),
) -> Observed {
    let m = PgLikeCost::new();
    prepare(&svc);
    let traced = Traced::new(&svc);
    let (trace, result) = traced.request(base, |req| call(entry, &svc, q, &m, req));
    traced.finish(&svc, trace, &result)
}

fn hit(entry: Entry) -> Observed {
    let q = query();
    // Warm with one labeling, ask with another: the hit must remap.
    let perm: Vec<usize> = (0..q.num_rels()).rev().collect();
    let warm = q.relabel(&perm);
    solo(
        entry,
        PlanService::new(),
        &q,
        PlanRequest::default(),
        |svc| {
            svc.plan(&warm, &PgLikeCost::new()).expect("warm-up plans");
        },
    )
}

fn cold(entry: Entry) -> Observed {
    let svc = PlanService::new();
    solo(entry, svc, &query(), PlanRequest::default(), |_| {})
}

fn cache_bypass(entry: Entry) -> Observed {
    let base = PlanRequest {
        bypass_cache: true,
        ..Default::default()
    };
    // Warm first: a bypass must neither be served from the cache nor join
    // or lead anything.
    solo(entry, PlanService::new(), &query(), base, |svc| {
        svc.plan(&query(), &PgLikeCost::new()).expect("warm-up");
    })
}

fn strategy_override(entry: Entry) -> Observed {
    let base = PlanRequest {
        strategy: Some("MPDP".into()),
        ..Default::default()
    };
    solo(entry, PlanService::new(), &query(), base, |_| {})
}

fn degrade_up_front(entry: Entry) -> Observed {
    // A 12-clique cannot be planned exactly in 50 µs.
    let q = gen::clique(12, 3, &PgLikeCost::new());
    let base = PlanRequest {
        deadline: Some(Instant::now() + Duration::from_micros(50)),
        ..Default::default()
    };
    solo(entry, PlanService::new(), &q, base, |_| {})
}

fn degrade_after_timeout(entry: Entry) -> Observed {
    // Affordable by the deadline, but the exact attempt gets a budget that
    // has run out by its first check.
    let base = PlanRequest {
        deadline: far_deadline(),
        budget: Some(Duration::from_nanos(1)),
        ..Default::default()
    };
    solo(entry, PlanService::new(), &query(), base, |_| {})
}

fn cold_failure(entry: Entry) -> Observed {
    let faults = FaultPlan::new()
        .fault(site::PLANNER_INVOKE, 0, FaultAction::Error)
        .arm();
    let svc = PlanServiceBuilder::new().faults(faults).build();
    solo(entry, svc, &query(), PlanRequest::default(), |_| {})
}

/// The request under test leads and its planner panics. The panic reaches
/// the caller, nothing is tallied or cached, and — the guard having
/// completed and removed the flight on its way down — the next request
/// plans as if nothing had happened.
fn leader_panic(entry: Entry) -> Observed {
    let faults = FaultPlan::new()
        .fault(site::PLANNER_INVOKE, 0, FaultAction::Panic)
        .arm();
    let svc = PlanServiceBuilder::new().faults(faults).build();
    let (m, q) = (PgLikeCost::new(), query());
    let traced = Traced::new(&svc);
    let (trace, panicked) = traced.request(PlanRequest::default(), |req| {
        catch_unwind(AssertUnwindSafe(|| call(entry, &svc, &q, &m, req))).is_err()
    });
    assert!(panicked, "{entry:?}: the planner's panic must propagate");
    assert_eq!(svc.cached_plans(), 0);
    let mut seen = traced.finish(&svc, trace, &Err(OptError::EmptyQuery));
    let retry = call(entry, &svc, &q, &m, &PlanRequest::default());
    seen.outcome = format!("panic, then {}", outcome(&retry));
    seen
}

/// A settable, awaitable flag.
#[derive(Default)]
struct Flag(Mutex<bool>, Condvar);

impl Flag {
    fn set(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let guard = self.0.lock().unwrap();
        let (_guard, timeout) = self.1.wait_timeout_while(guard, HANG, |set| !*set).unwrap();
        assert!(!timeout.timed_out(), "flag never set");
    }
}

/// `PgLikeCost` with a gate on the first `join_cost` call: the caller — a
/// flight leader in the middle of planning — announces itself, waits to be
/// released, and then either carries on or panics.
struct Gated {
    inner: PgLikeCost,
    armed: AtomicBool,
    entered: Flag,
    release: Flag,
    panic_on_release: bool,
}

impl CostModel for Gated {
    fn join_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.entered.set();
            self.release.wait();
            assert!(!self.panic_on_release, "gated leader told to fail");
        }
        self.inner.join_cost(left, right, out_rows)
    }
    fn join_algo(&self, left: InputEst, right: InputEst, out_rows: f64) -> JoinAlgo {
        self.inner.join_algo(left, right, out_rows)
    }
    fn scan_cost(&self, rows: f64) -> f64 {
        self.inner.scan_cost(rows)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The request under test arrives while a leader is planning the same
/// fingerprint, joins its flight, and is delivered whatever the leader
/// publishes.
fn joiner(entry: Entry, leader_fails: bool, deadline: Option<Instant>) -> Observed {
    let svc = PlanService::new();
    let leader_q = query();
    let perm: Vec<usize> = (0..leader_q.num_rels()).rev().collect();
    let joiner_q = leader_q.relabel(&perm);
    let model = Gated {
        inner: PgLikeCost::new(),
        armed: AtomicBool::new(true),
        entered: Flag::default(),
        release: Flag::default(),
        panic_on_release: leader_fails,
    };
    let mut traced = Traced::new(&svc);
    let leader_root = traced.tracer.begin_request(sites::REQUEST);
    let joiner_root = traced.tracer.begin_request(sites::REQUEST);
    let leader_req = PlanRequest {
        trace: leader_root.ctx(),
        ..Default::default()
    };
    let joiner_req = PlanRequest {
        trace: joiner_root.ctx(),
        deadline,
        ..Default::default()
    };
    let result = std::thread::scope(|scope| {
        let leader = scope.spawn(|| svc.plan_coalesced(&leader_q, &model, &leader_req));
        model.entered.wait();
        // The leader is parked inside its strategy span; from here on the
        // only span anyone can open is the joiner's `flight.wait`.
        let base = traced.probe();
        let joiner = scope.spawn(|| call(entry, &svc, &joiner_q, &model, &joiner_req));
        traced.wait_for_new_span(base);
        model.release.set();
        assert_eq!(leader.join().is_err(), leader_fails);
        joiner.join().expect("a joiner never panics")
    });
    drop((leader_root, joiner_root));
    traced.finish(&svc, joiner_req.trace.trace_id(), &result)
}

fn joiner_of_successful_leader(entry: Entry) -> Observed {
    joiner(entry, false, None)
}

fn joiner_of_failed_leader(entry: Entry) -> Observed {
    joiner(entry, true, None)
}

fn joiner_of_failed_leader_with_deadline(entry: Entry) -> Observed {
    joiner(entry, true, far_deadline())
}

/// `(hits, misses, coalesced, degraded, deadline_exceeded, insertions)`.
type Tally = (u64, u64, u64, u64, u64, u64);

struct Scenario {
    name: &'static str,
    run: fn(Entry) -> Observed,
    entries: &'static [Entry],
    /// Prefix of the expected outcome string.
    outcome: &'static str,
    tally: Tally,
    /// Sites through a coalesced entry point; `plan_with` lacks `flight.lead`.
    sites: &'static [&'static str],
}

const ALL: &[Entry] = &[With, Coalesced, Async];
/// `plan_with` registers no flight, so there is nothing for it to join.
const FLIGHTS: &[Entry] = &[Coalesced, Async];

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "hit",
        run: hit,
        entries: ALL,
        outcome: "Hit",
        tally: (1, 0, 0, 0, 0, 0),
        sites: &["cache.hit"],
    },
    Scenario {
        name: "cold",
        run: cold,
        entries: ALL,
        outcome: "Cold",
        tally: (0, 1, 0, 0, 0, 1),
        sites: &["flight.lead", "strategy.invoke"],
    },
    Scenario {
        name: "cache-bypass",
        run: cache_bypass,
        entries: ALL,
        outcome: "Cold",
        tally: (0, 1, 0, 0, 0, 0),
        sites: &["strategy.invoke"],
    },
    Scenario {
        name: "strategy-override",
        run: strategy_override,
        entries: ALL,
        outcome: "Cold",
        tally: (0, 1, 0, 0, 0, 0),
        sites: &["strategy.invoke"],
    },
    Scenario {
        name: "degrade-up-front",
        run: degrade_up_front,
        entries: ALL,
        outcome: "Degraded",
        tally: (0, 0, 0, 1, 0, 0),
        sites: &["service.degrade", "strategy.invoke"],
    },
    Scenario {
        name: "degrade-after-timeout",
        run: degrade_after_timeout,
        entries: ALL,
        outcome: "Degraded",
        tally: (0, 0, 0, 1, 1, 0),
        sites: &[
            "flight.lead",
            "strategy.invoke",
            "service.degrade",
            "strategy.invoke",
        ],
    },
    Scenario {
        name: "cold-failure",
        run: cold_failure,
        entries: ALL,
        outcome: "Err(internal error: injected planner fault)",
        tally: (0, 1, 0, 0, 0, 0),
        sites: &["flight.lead", "fault.injected"],
    },
    Scenario {
        name: "leader-panic",
        run: leader_panic,
        entries: ALL,
        outcome: "panic, then Cold",
        tally: (0, 0, 0, 0, 0, 0),
        sites: &["flight.lead"],
    },
    Scenario {
        name: "joiner-of-successful-leader",
        run: joiner_of_successful_leader,
        entries: FLIGHTS,
        outcome: "Coalesced",
        tally: (0, 1, 1, 0, 0, 1),
        sites: &["flight.wait"],
    },
    Scenario {
        name: "joiner-of-failed-leader",
        run: joiner_of_failed_leader,
        entries: FLIGHTS,
        outcome: "Err(internal error: single-flight leader abandoned",
        tally: (0, 0, 1, 0, 0, 0),
        sites: &["flight.wait"],
    },
    Scenario {
        name: "joiner-of-failed-leader-with-deadline",
        run: joiner_of_failed_leader_with_deadline,
        entries: FLIGHTS,
        outcome: "Degraded",
        tally: (0, 0, 0, 1, 0, 0),
        sites: &["flight.wait", "service.degrade", "strategy.invoke"],
    },
];

#[test]
fn every_entry_point_takes_the_same_path() {
    for s in SCENARIOS {
        let mut reference: Option<Observed> = None;
        for &entry in s.entries {
            let mut seen = (s.run)(entry);
            let at = format!("{} via {entry:?}: {seen:?}", s.name);

            assert!(seen.outcome.starts_with(s.outcome), "{at}");
            let delivered = !(seen.outcome.contains("Err(") || seen.outcome.starts_with("panic"));
            assert_eq!(seen.cost.is_some(), delivered, "{at}");
            let d = &seen.delta;
            let tally = (
                d.hits,
                d.misses,
                d.coalesced,
                d.degraded,
                d.deadline_exceeded,
                d.insertions,
            );
            assert_eq!(tally, s.tally, "{at}");

            // The one difference between the entry points.
            if entry == With {
                let without_lead: Vec<_> = s
                    .sites
                    .iter()
                    .copied()
                    .filter(|&n| n != "flight.lead")
                    .collect();
                assert_eq!(seen.sites, without_lead, "{at}");
                seen.sites = s.sites.to_vec();
            }
            assert_eq!(seen.sites, s.sites, "{at}");

            // Everything else is identical, field for field.
            match &reference {
                None => reference = Some(seen),
                Some(first) => assert_eq!(&seen, first, "{at}"),
            }
        }
    }
}

/// The partition the counters document, on every entry point: however a
/// request ends, it is tallied under exactly one of the four outcomes.
#[test]
fn outcomes_partition_requests_on_every_entry_point() {
    for &entry in ALL {
        let m = PgLikeCost::new();
        let faults = FaultPlan::new()
            .fault(site::PLANNER_INVOKE, 1, FaultAction::Error)
            .arm();
        let svc = PlanServiceBuilder::new().faults(faults).build();
        let small = query();
        let big = gen::clique(12, 3, &m);
        let pressed = || PlanRequest {
            deadline: Some(Instant::now() + Duration::from_micros(50)),
            ..Default::default()
        };
        let plain = PlanRequest::default();
        let bypass = PlanRequest {
            bypass_cache: true,
            ..Default::default()
        };
        let results = [
            call(entry, &svc, &small, &m, &plain),   // cold
            call(entry, &svc, &small, &m, &plain),   // hit
            call(entry, &svc, &big, &m, &pressed()), // degraded up front
            call(entry, &svc, &small, &m, &bypass),  // cold, injected error
            call(entry, &svc, &small, &m, &bypass),  // cold
            call(entry, &svc, &big, &m, &pressed()), // degraded up front
        ];
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        let c = svc.cache_counters();
        assert_eq!(
            (c.hits, c.misses, c.coalesced, c.degraded),
            (1, 3, 0, 2),
            "{entry:?}: {c:?}"
        );
        assert_eq!(
            c.hits + c.misses + c.coalesced + c.degraded,
            results.len() as u64
        );
        assert!(c.deadline_exceeded <= c.degraded);
    }
}
