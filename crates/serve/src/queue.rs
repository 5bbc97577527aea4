//! A bounded MPMC queue: the admission-control buffer of the front-end.
//!
//! Producers are synchronous (`try_push` from any thread — the submit path
//! must answer *reject or accept* immediately, never block the caller), and
//! consumers are async dispatcher tasks (`pop().await`). Capacity is the
//! admission policy: a full queue is an explicit [`PushError::Full`] the
//! front-end converts into a counted shed, never a silent drop. Closing the
//! queue lets already-accepted items drain — `pop` keeps returning items
//! until the queue is empty, then resolves to `None` — which is what gives
//! the front-end its "every accepted request completes" guarantee during
//! shutdown.

use mpdp_core::faults::{site, Faults};
use mpdp_core::sync::lock_recover;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

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
    /// Wakers of dispatcher tasks parked in [`Pop`]. One waker per push;
    /// all on close.
    poppers: Vec<Waker>,
}

/// The shared bounded queue. Cheap to clone by wrapping in `Arc` at the
/// call site; internally one mutex (the hot path holds it for a
/// `VecDeque` operation, and the capacity bound keeps it small).
pub struct Bounded<T> {
    state: Mutex<State<T>>,
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
                poppers: Vec::new(),
            }),
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
        let waker = {
            let mut state = lock_recover(&self.state);
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.items.push_back(item);
            state.peak = state.peak.max(state.items.len());
            state.poppers.pop()
        };
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// `true` once [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Free slots remaining (0 when closed). A snapshot — concurrent
    /// producers and consumers move it — useful for sizing an admission
    /// batch before building per-request state that a full queue would
    /// throw away.
    pub fn free_capacity(&self) -> usize {
        let state = lock_recover(&self.state);
        if state.closed {
            0
        } else {
            self.capacity - state.items.len().min(self.capacity)
        }
    }

    /// Pushes a whole batch under one lock acquisition, stopping at
    /// capacity (or rejecting everything once closed). Returns the number
    /// pushed; the unpushed tail is handed back in `items` (order
    /// preserved). Wakes as many parked poppers as items pushed.
    pub fn try_push_batch(&self, items: &mut Vec<T>) -> usize {
        // Same submitter-thread fault site as `try_push`; an `Error` sheds
        // the whole batch (handed back untouched, like a full queue).
        if self.faults.apply_panic_stall(site::QUEUE_PUSH) {
            return 0;
        }
        let (pushed, wakers) = {
            let mut state = lock_recover(&self.state);
            if state.closed {
                return 0;
            }
            let room = self.capacity - state.items.len().min(self.capacity);
            let pushed = items.len().min(room);
            state.items.extend(items.drain(..pushed));
            state.peak = state.peak.max(state.items.len());
            let n_wake = pushed.min(state.poppers.len());
            let at = state.poppers.len() - n_wake;
            (pushed, state.poppers.split_off(at))
        };
        for w in wakers {
            w.wake();
        }
        pushed
    }

    /// Pops up to `max` items into `buf` under one lock acquisition,
    /// returning how many were taken. The consumer-side batch half of
    /// [`Bounded::try_push_batch`]: a dispatcher that drains its backlog in
    /// chunks pays one lock per chunk instead of one per request.
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

    /// Resolves to the next item, or `None` once the queue is closed *and*
    /// drained. Fair enough for dispatchers (whoever polls first wins); a
    /// woken popper that loses the race simply re-registers.
    pub fn pop(self: &Arc<Self>) -> Pop<T> {
        Pop {
            queue: Arc::clone(self),
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// parked poppers are woken, and `pop` drains the remaining items
    /// before reporting the end of the stream.
    pub fn close(&self) {
        let poppers = {
            let mut state = lock_recover(&self.state);
            state.closed = true;
            std::mem::take(&mut state.poppers)
        };
        for w in poppers {
            w.wake();
        }
    }
}

/// Future returned by [`Bounded::pop`].
#[derive(Debug)]
pub struct Pop<T> {
    queue: Arc<Bounded<T>>,
}

impl<T> Future for Pop<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        // Consumer-side fault site, checked with the queue lock released
        // (a stalled popper must not block submitters). `Error` is a no-op:
        // `pop` has no error channel, and resolving `None` early would
        // fake a shutdown.
        let _ = self.queue.faults.apply_panic_stall(site::QUEUE_POP);
        let mut state = lock_recover(&self.queue.state);
        if let Some(item) = state.items.pop_front() {
            return Poll::Ready(Some(item));
        }
        if state.closed {
            return Poll::Ready(None);
        }
        state.poppers.retain(|w| !w.will_wake(cx.waker()));
        state.poppers.push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;

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
        // A batch larger than the room is clipped at capacity, and so is
        // the peak; refused pushes do not move it.
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(q.try_push_batch(&mut batch), 4);
        assert!(matches!(q.try_push(99), Err(PushError::Full(99))));
        assert_eq!((q.len(), q.peak()), (4, 4));
    }

    #[test]
    fn consumers_drain_across_threads_then_observe_close() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(64));
        let ex = Executor::new(3);
        let total = Arc::new(Mutex::new(0u64));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                ex.spawn(async move {
                    while let Some(v) = q.pop().await {
                        *total.lock().unwrap() += v;
                    }
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
        for c in consumers {
            c.wait();
        }
        assert_eq!(*total.lock().unwrap(), pushed, "every accepted item served");
    }
}
