//! Single-flight coordination for the serving layer.
//!
//! When N requests miss the cache on one fingerprint *concurrently*, planning
//! the query N times wastes N−1 full DP runs. [`FlightTable`] turns those N
//! misses into one planner invocation: the first request to register becomes
//! the **leader** and plans; everyone else becomes a **waiter** on the
//! leader's [`Flight`] and receives the same canonical-slot [`Planned`] when
//! it completes. Each waiter then remaps the plan's leaves onto its *own*
//! relation ids (remap-on-delivery) — exactly the translation a cache hit
//! performs, so waiters are indistinguishable from hits except in the
//! counters (`coalesced`, not `hits`).
//!
//! A [`Flight`] is a result slot plus a waker list, and there is one kind of
//! waiter: whoever polls it ([`Flight::poll_result`]) leaves a [`Waker`]
//! behind and is woken when the leader publishes. An async task
//! (`PlanService::plan_async`) passes its task waker and suspends; a blocking
//! caller — the `mpdp-serve` dispatcher threads among them — passes a
//! [`park_waker`] for its own thread and parks.
//!
//! Liveness: the leader completes its flight through a [`FlightGuard`] whose
//! `Drop` fires even on panic, completing the flight with an error instead of
//! stranding waiters forever. The flight is removed from the table *after*
//! the planned result is inserted into the plan cache, so at every instant a
//! concurrent request finds the result in the cache, in the flight table, or
//! is early enough to become the (only) leader — a second cold plan for one
//! fingerprint is impossible.

use crate::planner::Planned;
use mpdp_core::sync::lock_recover;
use mpdp_core::OptError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::task::{Wake, Waker};
use std::thread::Thread;

/// Outcome of one in-flight planning, shared by leader and waiters. The
/// payload is in canonical relation slots; every consumer remaps on delivery.
pub(crate) type FlightResult = Result<Arc<Planned>, OptError>;

/// One in-flight planning of a fingerprint.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    state: Mutex<FlightState>,
}

#[derive(Debug, Default)]
struct FlightState {
    /// Empty until the leader publishes.
    result: Option<FlightResult>,
    /// Whoever is waiting for `result`.
    wakers: Vec<Waker>,
}

impl Flight {
    /// Publishes the result and wakes every registered waiter, outside the
    /// lock. Idempotent (the guard's panic path may race a regular
    /// completion only if `complete` itself panicked, in which case the
    /// first result stands).
    fn complete(&self, result: FlightResult) {
        let wakers = {
            let mut state = lock_recover(&self.state);
            if state.result.is_some() {
                return;
            }
            state.result = Some(result);
            std::mem::take(&mut state.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }

    /// Returns the result if the flight is done; otherwise registers `waker`
    /// (replacing a stale clone of itself, so one task is woken once however
    /// often it polled) and returns `None`. Check and registration happen
    /// under one lock, so a completion cannot slip between them. A caller
    /// that only wants to look passes no waker.
    pub(crate) fn poll_result(&self, waker: Option<&Waker>) -> Option<FlightResult> {
        let mut state = lock_recover(&self.state);
        if let (None, Some(waker)) = (&state.result, waker) {
            state.wakers.retain(|w| !w.will_wake(waker));
            state.wakers.push(waker.clone());
        }
        state.result.clone()
    }
}

/// A [`Waker`] that unparks the calling thread: what a blocking caller
/// registers on a flight before it `std::thread::park`s. An unpark that
/// lands before the park is not lost (the thread's token stays set), and a
/// spurious return from `park` only costs the caller one more poll.
pub(crate) fn park_waker() -> Waker {
    struct Unpark(Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    Waker::from(Arc::new(Unpark(std::thread::current())))
}

/// What a request found when it asked the table about a fingerprint.
pub(crate) enum Admission<'a> {
    /// No flight and still no cached plan: the caller is the leader and must
    /// plan, then finish through the returned guard.
    Lead(FlightGuard<'a>),
    /// Another request is already planning this fingerprint: wait on it.
    Join(Arc<Flight>),
    /// The previous leader finished between the caller's cache probe and its
    /// table registration: the cached plan is the answer.
    Cached(crate::cache::CachedPlan),
}

/// Sharded registry of in-flight plannings, keyed like the plan cache
/// (model-folded canonical fingerprint), so two cost models never coalesce.
#[derive(Debug)]
pub(crate) struct FlightTable {
    shards: Vec<Mutex<HashMap<u128, Arc<Flight>>>>,
}

impl FlightTable {
    pub(crate) fn new(shards: usize) -> FlightTable {
        FlightTable {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, Arc<Flight>>> {
        let fold = (key as u64) ^ ((key >> 64) as u64);
        &self.shards[(fold % self.shards.len() as u64) as usize]
    }

    /// Join an existing flight, or lead a new one. `recheck_cache` runs
    /// under the shard lock to close the race where the previous leader
    /// completed (cache insert + table removal) after the caller's lock-free
    /// cache probe missed: its hit means nobody needs to plan.
    pub(crate) fn join_or_lead(
        &self,
        key: u128,
        recheck_cache: impl FnOnce() -> Option<crate::cache::CachedPlan>,
    ) -> Admission<'_> {
        let shard = self.shard(key);
        let mut map = lock_recover(shard);
        if let Some(flight) = map.get(&key) {
            return Admission::Join(Arc::clone(flight));
        }
        if let Some(cached) = recheck_cache() {
            return Admission::Cached(cached);
        }
        let flight = Arc::new(Flight::default());
        map.insert(key, Arc::clone(&flight));
        Admission::Lead(FlightGuard {
            table: self,
            key,
            flight: Some(flight),
        })
    }

    fn remove(&self, key: u128) {
        lock_recover(self.shard(key)).remove(&key);
    }
}

/// Leader-side completion obligation for one flight.
///
/// The guard pins the flight's table entry; [`FlightGuard::finish`] removes
/// it and publishes the result. If the leader panics before finishing (a
/// planner bug), `Drop` removes the entry and completes the flight with an
/// error so waiters never hang — bounded-queue liveness does not depend on
/// planner code being panic-free.
pub(crate) struct FlightGuard<'a> {
    table: &'a FlightTable,
    key: u128,
    flight: Option<Arc<Flight>>,
}

impl FlightGuard<'_> {
    /// Completes the flight: the result becomes visible to waiters and the
    /// table entry is removed. Call *after* inserting a successful plan into
    /// the cache, so no instant exists where a new request would re-plan.
    pub(crate) fn finish(mut self, result: FlightResult) {
        let flight = self.flight.take().expect("finish called once");
        self.table.remove(self.key);
        flight.complete(result);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if let Some(flight) = self.flight.take() {
            self.table.remove(self.key);
            flight.complete(Err(OptError::Internal(
                "single-flight leader abandoned the flight (planner panic?)".to_string(),
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::PlanTree;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Blocks on a flight the way the service's blocking entry points do.
    fn block_on(flight: &Flight) -> FlightResult {
        let waker = park_waker();
        loop {
            if let Some(result) = flight.poll_result(Some(&waker)) {
                return result;
            }
            std::thread::park();
        }
    }

    fn planned() -> Arc<Planned> {
        Arc::new(Planned {
            plan: PlanTree::Scan {
                rel: 0,
                rows: 1.0,
                cost: 1.0,
            },
            cost: 1.0,
            rows: 1.0,
            wall: Duration::ZERO,
            reported: Duration::ZERO,
            counters: None,
            profile: None,
            gpu: None,
            strategy: "test".into(),
        })
    }

    #[test]
    fn waiters_receive_the_leaders_result() {
        let table = FlightTable::new(4);
        let Admission::Lead(guard) = table.join_or_lead(7, || None) else {
            panic!("first arrival must lead");
        };
        let Admission::Join(flight) = table.join_or_lead(7, || None) else {
            panic!("second arrival must join");
        };
        let waiter = std::thread::spawn(move || block_on(&flight));
        guard.finish(Ok(planned()));
        let got = waiter.join().unwrap().expect("leader succeeded");
        assert_eq!(got.cost, 1.0);
        // The table entry is gone: the next arrival leads again.
        assert!(matches!(table.join_or_lead(7, || None), Admission::Lead(_)));
    }

    #[test]
    fn dropped_guard_fails_waiters_instead_of_hanging() {
        let table = FlightTable::new(4);
        let Admission::Lead(guard) = table.join_or_lead(9, || None) else {
            panic!("must lead");
        };
        let Admission::Join(flight) = table.join_or_lead(9, || None) else {
            panic!("must join");
        };
        drop(guard); // leader "panicked"
        assert!(matches!(block_on(&flight), Err(OptError::Internal(_))));
        assert!(matches!(table.join_or_lead(9, || None), Admission::Lead(_)));
    }

    #[test]
    fn recheck_under_lock_short_circuits_to_cache() {
        let table = FlightTable::new(4);
        let cached = crate::cache::CachedPlan { planned: planned() };
        match table.join_or_lead(3, || Some(cached)) {
            Admission::Cached(c) => assert_eq!(c.planned.cost, 1.0),
            _ => panic!("fresh cache entry must short-circuit"),
        };
    }

    #[test]
    fn a_waker_registered_twice_is_woken_once() {
        struct Count(AtomicUsize);
        impl Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let table = FlightTable::new(1);
        let Admission::Lead(guard) = table.join_or_lead(5, || None) else {
            panic!("must lead");
        };
        let Admission::Join(flight) = table.join_or_lead(5, || None) else {
            panic!("must join");
        };
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        // One task polling twice (the second time through a clone of its
        // waker, as executors hand out) holds one registration, and a
        // look without a waker adds none.
        assert!(flight.poll_result(Some(&waker)).is_none());
        assert!(flight.poll_result(Some(&waker.clone())).is_none());
        assert!(flight.poll_result(None).is_none());
        guard.finish(Ok(planned()));
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        assert!(flight.poll_result(Some(&waker)).is_some());
    }
}
