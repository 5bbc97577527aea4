//! A bounded MPMC queue: the admission-control buffer of the front-end.
//!
//! Producers never wait (`try_push` from any thread — the submit path must
//! answer *reject or accept* immediately, never block the caller), and
//! consumers are dispatcher threads that park in [`Bounded::pop`] on a
//! condvar while the queue is empty. Capacity is the admission policy: a
//! full queue is an explicit [`PushError::Full`] the front-end converts into
//! a counted shed, never a silent drop. Closing the queue lets
//! already-accepted items drain — `pop` keeps returning items until the
//! queue is empty, then returns `None` — which is what gives the front-end
//! its "every accepted request completes" guarantee during shutdown.

use mpdp_core::faults::{site, Faults};
use mpdp_core::sync::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused. The payload is handed back so the caller can
/// report the rejected request (it still owns it).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control says shed.
    Full(T),
    /// The queue is closed (front-end shutting down).
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    /// Highest `items.len()` ever reached. Updated where items are pushed,
    /// under the same lock, so it is exact and never exceeds the capacity.
    peak: usize,
    closed: bool,
    /// Consumers parked on `available` right now. `try_push` signals only
    /// when this is non-zero: a futex `notify_one` is a system call even
    /// with nobody waiting, and on a busy queue nobody is.
    waiting: usize,
}

/// The shared bounded queue. Cheap to clone by wrapping in `Arc` at the
/// call site; internally one mutex (the hot path holds it for a
/// `VecDeque` operation, and the capacity bound keeps it small).
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    /// Signalled once per push that found a consumer parked; all on close.
    available: Condvar,
    capacity: usize,
    /// Fault-injection handle ([`site::QUEUE_PUSH`] on the submitter's
    /// thread, [`site::QUEUE_POP`] on the consumer's); disarmed by default.
    faults: Faults,
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (clamped to at least 1).
    pub fn new(capacity: usize) -> Bounded<T> {
        Bounded::with_faults(capacity, Faults::disarmed())
    }

    /// [`Bounded::new`] with an armed fault-injection handle (chaos tests).
    pub fn with_faults(capacity: usize, faults: Faults) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                peak: 0,
                closed: false,
                waiting: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            faults,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).items.len()
    }

    /// Highest occupancy since the queue was created.
    pub fn peak(&self) -> usize {
        lock_recover(&self.state).peak
    }

    /// `true` if no item is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push: enqueues `item` or explains why not.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        // Fault site on the submitter's thread: seeded plans only stall
        // here (never panic — `submit` callers must not unwind); an
        // explicit `Error` sheds as if the queue were full.
        if self.faults.apply_panic_stall(site::QUEUE_PUSH) {
            return Err(PushError::Full(item));
        }
        let parked = {
            let mut state = lock_recover(&self.state);
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.items.push_back(item);
            state.peak = state.peak.max(state.items.len());
            state.waiting > 0
        };
        if parked {
            self.available.notify_one();
        }
        Ok(())
    }

    /// `true` once [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Pops up to `max` items into `buf` under one lock acquisition,
    /// returning how many were taken: a dispatcher that drains its backlog
    /// in chunks pays one lock per chunk instead of one per request.
    pub fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> usize {
        // Consumer-side fault site, checked before any item is removed so
        // an injected panic never loses a request (it unwinds into the
        // dispatcher supervisor with the queue intact). `Error` has no
        // channel here and is a no-op.
        let _ = self.faults.apply_panic_stall(site::QUEUE_POP);
        let mut state = lock_recover(&self.state);
        let take = state.items.len().min(max);
        buf.extend(state.items.drain(..take));
        take
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed *and* drained. Whoever takes the lock first
    /// wins; a woken consumer that loses the race parks again.
    pub fn pop(&self) -> Option<T> {
        // Consumer-side fault site, checked with the queue lock released (a
        // stalled consumer must not block submitters) and before any item
        // moves. `Error` is a no-op: `pop` has no error channel, and
        // returning `None` early would fake a shutdown.
        let _ = self.faults.apply_panic_stall(site::QUEUE_POP);
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.waiting += 1;
            state = wait_recover(&self.available, state);
            state.waiting -= 1;
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// parked consumers are woken, and `pop` drains the remaining items
    /// before reporting the end of the stream.
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// Spins until exactly `n` consumers are parked in `pop`.
    fn await_parked<T>(q: &Bounded<T>, n: usize) {
        let deadline = Instant::now() + TIMEOUT;
        while lock_recover(&q.state).waiting != n {
            assert!(Instant::now() < deadline, "consumers never parked");
            std::thread::yield_now();
        }
    }

    /// `n` threads that each pop once and report what they got.
    fn spawn_poppers(q: &Arc<Bounded<u32>>, n: usize) -> mpsc::Receiver<Option<u32>> {
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            let (q, tx) = (Arc::clone(q), tx.clone());
            std::thread::spawn(move || tx.send(q.pop()).expect("test still listening"));
        }
        rx
    }

    #[test]
    fn capacity_is_enforced_and_reported() {
        let q: Bounded<u32> = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(4)) => {}
            other => panic!("expected Closed(4), got {other:?}"),
        }
    }

    #[test]
    fn peak_is_the_high_water_mark_and_never_exceeds_capacity() {
        let q: Bounded<u32> = Bounded::new(4);
        assert_eq!((q.len(), q.peak()), (0, 0));
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 8), 2);
        assert_eq!((q.len(), q.peak()), (0, 2), "draining keeps the peak");
        // Filling past the room stops at capacity, and so does the peak;
        // refused pushes do not move it.
        let admitted = (0..10).filter(|&v| q.try_push(v).is_ok()).count();
        assert_eq!(admitted, 4);
        assert!(matches!(q.try_push(99), Err(PushError::Full(99))));
        assert_eq!((q.len(), q.peak()), (4, 4));
    }

    #[test]
    fn consumers_drain_across_threads_then_observe_close() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(64));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut total = 0u64;
                    while let Some(v) = q.pop() {
                        total += v;
                    }
                    total
                })
            })
            .collect();
        let mut pushed = 0u64;
        for v in 1..=200u64 {
            // Push with backpressure: retry while full.
            let mut item = v;
            loop {
                match q.try_push(item) {
                    Ok(()) => break,
                    Err(PushError::Full(back)) => {
                        item = back;
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => unreachable!("not closed yet"),
                }
            }
            pushed += v;
        }
        q.close();
        let total: u64 = consumers
            .into_iter()
            .map(|c| c.join().expect("consumer panicked"))
            .sum();
        assert_eq!(total, pushed, "every accepted item served");
    }

    #[test]
    fn close_releases_every_parked_consumer() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let popped = spawn_poppers(&q, 3);
        await_parked(&q, 3);
        q.close();
        for _ in 0..3 {
            assert_eq!(popped.recv_timeout(TIMEOUT), Ok(None), "consumer hung");
        }
        await_parked(&q, 0);
    }

    #[test]
    fn push_with_nobody_parked_is_found_by_the_next_pop() {
        let q: Bounded<u32> = Bounded::new(4);
        assert!(q.try_push(7).is_ok());
        assert_eq!(lock_recover(&q.state).waiting, 0, "nobody to signal");
        // The item is taken off the deque under the lock; a consumer that
        // arrives after the push never touches the condvar.
        assert_eq!(q.pop(), Some(7));
        assert_eq!(lock_recover(&q.state).waiting, 0);
    }

    #[test]
    fn two_pushes_wake_two_parked_consumers() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let popped = spawn_poppers(&q, 2);
        await_parked(&q, 2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let mut got = [
            popped.recv_timeout(TIMEOUT).expect("first consumer hung"),
            popped.recv_timeout(TIMEOUT).expect("second consumer hung"),
        ];
        got.sort();
        assert_eq!(got, [Some(1), Some(2)]);
    }
}
