//! A persistent, barrier-synchronized worker pool for level-parallel DP.
//!
//! The paper's GPU design has no per-worker buffers and no merge pass:
//! every lane writes winners straight into the device-global hash table with
//! `atomicMin`, and the only synchronization is the level barrier between
//! kernel launches. The CPU backends mirror that — workers share one
//! `&AtomicMemo` and publish winners with its `update`, a min-update under
//! the slot's lock — so all this module provides is the *shape* of the
//! paper's host loop: a pool of workers spawned once per optimizer run
//! ([`with_pool`]), a fan-out point per DP level ([`PoolHandle::run`]), and
//! the implicit barrier when it returns. There are no candidate lists, no
//! channels and no per-level thread spawns; a level costs two barrier
//! crossings (~1 µs each), not a spawn/join round (~tens of µs).
//!
//! With one worker (or on a single-core host) the pool degenerates to an
//! inline call with zero thread overhead — important on this single-core
//! container, where real fan-out only adds noise.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

/// The per-level task: called once per worker with the worker index in
/// `0..workers`. Workers partition their inputs with [`chunk_range`].
type Task<'a> = &'a (dyn Fn(usize) + Sync);

/// State shared between the driver thread and the pool workers.
struct Shared {
    /// Crossed by all workers + the driver to begin a level.
    start: Barrier,
    /// Crossed again when every worker finished its slice (the level
    /// barrier of the paper's host loop).
    done: Barrier,
    /// The current level's task, valid strictly between the two barriers.
    job: Mutex<Option<SendTask>>,
    /// Set (before a final `start` crossing) to shut the pool down.
    stop: AtomicBool,
    /// First panic payload from any worker, re-thrown by the driver.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A raw task pointer that may cross threads. Soundness: the pointee is a
/// borrow held by [`PoolHandle::run`] for the entire start→done window, and
/// workers dereference it only inside that window (both barriers are
/// acquire/release synchronization points).
struct SendTask(*const (dyn Fn(usize) + Sync));
unsafe impl Send for SendTask {}

/// Handle the driver uses to fan a level out to the pool.
pub struct PoolHandle<'env> {
    shared: Option<&'env Shared>,
    workers: usize,
}

impl PoolHandle<'_> {
    /// Number of workers (including the driver thread, which takes slice 0).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(idx)` on every worker and collects the return values in
    /// worker order — the fan-out/merge shape used outside the DP loop
    /// (e.g. the executor's probe phase: each worker owns a contiguous
    /// morsel range and returns a private output buffer; collecting in
    /// index order keeps the merged result independent of scheduling).
    pub fn map<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..self.workers).map(|_| Mutex::new(None)).collect();
        self.run(&|idx| {
            let v = f(idx);
            *slots[idx].lock().unwrap() = Some(v);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap()
                    .expect("every worker filled its slot")
            })
            .collect()
    }

    /// Runs `task(idx)` on every worker `idx in 0..workers` and returns when
    /// all are done — one DP level. The driver thread participates as
    /// worker 0, so `workers == threads` with no idle coordinator.
    pub fn run(&self, task: Task<'_>) {
        let Some(shared) = self.shared else {
            task(0);
            return;
        };
        // Extend the task borrow for the workers; they only use it inside
        // the start→done window, which this call's borrow of `task` spans.
        *shared.job.lock().unwrap() = Some(SendTask(unsafe {
            std::mem::transmute::<Task<'_>, Task<'static>>(task)
        }));
        shared.start.wait();
        // Catch so the done barrier is always reached; re-thrown below.
        let mine = catch_unwind(AssertUnwindSafe(|| task(0))).err();
        shared.done.wait();
        if let Some(p) = mine.or_else(|| shared.panic.lock().unwrap().take()) {
            resume_unwind(p);
        }
    }
}

/// Event loop of pool worker `idx` (1-based; the driver is worker 0).
fn worker_loop(shared: &Shared, idx: usize) {
    loop {
        shared.start.wait();
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let task = shared.job.lock().unwrap().as_ref().map(|t| t.0);
        if let Some(ptr) = task {
            // SAFETY: the driver keeps the task borrow alive until the done
            // barrier below; see `SendTask`.
            let f: &(dyn Fn(usize) + Sync) = unsafe { &*ptr };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(idx))) {
                shared.panic.lock().unwrap().get_or_insert(p);
            }
        }
        shared.done.wait();
    }
}

/// Releases the workers into their shutdown path even if the driver
/// unwinds, so the enclosing thread scope can always join.
struct Shutdown<'a>(&'a Shared);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.start.wait();
    }
}

/// Spawns a persistent pool of `threads` workers (scoped), hands the driver
/// closure a [`PoolHandle`], and tears the pool down when it returns. With
/// `threads <= 1` no thread is spawned and [`PoolHandle::run`] is an inline
/// call.
pub fn with_pool<T>(threads: usize, driver: impl FnOnce(&PoolHandle<'_>) -> T) -> T {
    let threads = threads.max(1);
    if threads == 1 {
        return driver(&PoolHandle {
            shared: None,
            workers: 1,
        });
    }
    let shared = Shared {
        start: Barrier::new(threads),
        done: Barrier::new(threads),
        job: Mutex::new(None),
        stop: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for idx in 1..threads {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, idx));
        }
        let _teardown = Shutdown(&shared);
        driver(&PoolHandle {
            shared: Some(&shared),
            workers: threads,
        })
    })
}

/// The contiguous slice of `0..len` that worker `idx` of `workers` owns:
/// balanced within one item, deterministic, and covering `0..len` exactly.
/// Which worker evaluates which item never affects results — the shared
/// memo's `(cost, left)` min is commutative — so this is purely a load
/// balancing choice.
pub fn chunk_range(len: usize, workers: usize, idx: usize) -> std::ops::Range<usize> {
    let workers = workers.max(1);
    debug_assert!(idx < workers);
    let base = len / workers;
    let rem = len % workers;
    let start = idx * base + idx.min(rem);
    let end = start + base + usize::from(idx < rem);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunks_partition_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for workers in [1usize, 2, 3, 8, 16] {
                let mut covered = 0;
                for idx in 0..workers {
                    let r = chunk_range(len, workers, idx);
                    assert_eq!(r.start, covered, "len={len} workers={workers} idx={idx}");
                    covered = r.end;
                }
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let sum = AtomicU64::new(0);
        with_pool(1, |pool| {
            assert_eq!(pool.workers(), 1);
            pool.run(&|idx| {
                assert_eq!(idx, 0);
                sum.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn all_workers_run_every_level() {
        let sum = AtomicU64::new(0);
        with_pool(4, |pool| {
            for level in 0..50u64 {
                pool.run(&|idx| {
                    sum.fetch_add(level * 10 + idx as u64, Ordering::Relaxed);
                });
            }
        });
        // Σ_level Σ_idx (10*level + idx) = 10*1225*4 + 50*6
        assert_eq!(sum.load(Ordering::Relaxed), 10 * 1225 * 4 + 50 * 6);
    }

    #[test]
    fn levels_are_barriers() {
        // Writes of level k must be visible to every worker at level k+1.
        let cells: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        with_pool(4, |pool| {
            for round in 1..=20u64 {
                pool.run(&|idx| {
                    cells[idx].store(round, Ordering::Relaxed);
                });
                pool.run(&|_| {
                    for c in &cells {
                        assert_eq!(c.load(Ordering::Relaxed), round);
                    }
                });
            }
        });
    }

    #[test]
    fn map_collects_in_worker_order() {
        for workers in [1usize, 2, 4] {
            let out = with_pool(workers, |pool| pool.map(|idx| idx * 10));
            assert_eq!(out, (0..workers).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_pool(3, |pool| {
                pool.run(&|idx| {
                    if idx == 2 {
                        panic!("worker 2 exploded");
                    }
                });
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn driver_return_value_passes_through() {
        let out = with_pool(2, |pool| {
            let sum = AtomicU64::new(0);
            pool.run(&|idx| {
                sum.fetch_add(idx as u64 + 1, Ordering::Relaxed);
            });
            sum.into_inner()
        });
        assert_eq!(out, 3);
    }
}
