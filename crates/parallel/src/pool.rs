//! The process's worker set: the threads every level-parallel DP driver and
//! the executor's probe phase fan out to.
//!
//! The paper's host loop (§5) launches one kernel per DP level and waits at
//! the level barrier; nothing else synchronizes. This module gives the CPU
//! backends that shape at the cost of a few atomic operations per level:
//!
//! * **One set, for the whole process.** The first [`with_pool`] that asks
//!   for more than one thread spawns `available_parallelism() − 1` helpers,
//!   which live as long as the process. No call spawns or joins a thread.
//! * **Runs and jobs.** A `with_pool` call with `threads > 1` opens a *run*
//!   on the set and closes it when its driver returns; each
//!   [`PoolHandle::run`] in it is a *job* of `workers` parts. The run's
//!   first `min(threads, available_parallelism()) − 1` helpers take part:
//!   its first job unparks them, and they spin between its jobs and park
//!   after ~80 µs without one. A job unparks only the parked helpers of its
//!   own run, so every other helper, and every helper between runs, sleeps
//!   on: a run of two threads on a 32-thread host wakes one helper.
//! * **An atomic cursor beside the caller.** A job is published as a task
//!   pointer and one cursor word; every participant, the caller first,
//!   claims the next part with a compare-and-swap and runs it. So the
//!   caller never waits for a helper to start: a part no helper claimed is
//!   the caller's. It waits only for parts a helper has claimed and not yet
//!   finished — the level barrier — spinning, then parked, so that a helper
//!   whose vCPU the hypervisor runs on the caller's core gets it back.
//! * **One run, and one job, at a time.** The set belongs to one open run.
//!   A second caller that asks while a run is open — another thread, or a
//!   nested `with_pool` — gets a handle that runs every part inline, in part
//!   order. So does a job started while one of the run's jobs is running: a
//!   part that calls its own handle, or a second thread sharing the handle.
//!
//! A job's parts are the handle's `workers` slots, however many threads
//! claim them, so what a part computes never depends on which thread runs
//! it (the executor's morsel ranges, [`chunk_range`]); the level-parallel DP
//! drivers claim their own work, runs of whole eight-set chunks, from a
//! cursor of the level inside each part (`crate::level_par`). DESIGN §6
//! "Measured scaling" has the card: the hand-off's cost per level, the grain
//! below which a level runs inline, the claim size, and the walls at one
//! and two threads beside the host probe.
//!
//! With `threads <= 1`, on a host with one hardware thread, or while the set
//! is taken, the handle runs inline with no synchronization at all; the
//! serving executor's `with_pool(1)` is a plain call.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread::Thread;

/// A part of a job: called once per part index in `0..workers`.
/// Participants partition their inputs with [`chunk_range`].
type Task<'a> = &'a (dyn Fn(usize) + Sync);

/// A job's task pointer, which may cross threads. Soundness: the pointee is
/// a borrow held by [`PoolHandle::run`] until every part of the job has
/// finished, and a helper dereferences it only for a part it claimed from
/// the job's cursor, which the job cannot finish without. One job runs on
/// the set at a time (`WorkerSet::busy`), so the cursor, the task and the
/// finished count are the job's alone.
struct SendTask(*const (dyn Fn(usize) + Sync));
// SAFETY: see `SendTask`; the pointee is `Sync`.
unsafe impl Send for SendTask {}

/// Idle spins between two yields of the CPU, for a helper waiting for a job
/// and a caller waiting for a helper's part.
const SPINS_PER_YIELD: u32 = 1 << 10;

/// Idle spins after which a helper of the open run parks until the next
/// job: ~80 µs here, longer than a level's write-back and shorter than a
/// run's serial prefix (DESIGN §6 "Measured scaling").
const SPINS_BEFORE_PARK: u32 = 4 * SPINS_PER_YIELD;

/// One helper thread of the set, as the caller that publishes a job sees
/// it.
#[derive(Default)]
struct Helper {
    /// Set by the helper itself when it starts.
    thread: OnceLock<Thread>,
    /// Whether it is parked, or about to park: a job that uses it unparks
    /// it only then.
    parked: AtomicBool,
}

/// The process's worker set (module docs).
struct WorkerSet {
    /// Helper `i` (1-based) is `helpers[i - 1]`: `available_parallelism()
    /// − 1` of them.
    helpers: Box<[Helper]>,
    /// Threads of the open run, the caller included; 0 while the set is
    /// free. Helper `i` takes part iff `i < open`.
    open: AtomicUsize,
    /// Whether a job is running: a second job on the same run — a part
    /// that calls its handle, or two threads sharing one handle — runs
    /// inline instead of taking the cursor.
    busy: AtomicBool,
    /// Where a caller waits for its job's last parts, and whether it does:
    /// a finished part wakes it only then.
    park: Mutex<()>,
    finish: Condvar,
    waiting: AtomicBool,
    /// The current job: its part count in the high 32 bits, the next
    /// unclaimed part in the low 32.
    cursor: AtomicU64,
    /// The current job's task.
    task: Mutex<Option<SendTask>>,
    /// Parts of the current job finished.
    finished: AtomicUsize,
    /// The first panic of a helper's part, re-thrown by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl WorkerSet {
    /// The set, spawning its helpers on first use.
    fn get() -> &'static WorkerSet {
        static SET: OnceLock<WorkerSet> = OnceLock::new();
        let mut fresh = false;
        let set = SET.get_or_init(|| {
            fresh = true;
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            WorkerSet {
                helpers: (1..threads).map(|_| Helper::default()).collect(),
                open: AtomicUsize::new(0),
                busy: AtomicBool::new(false),
                park: Mutex::new(()),
                finish: Condvar::new(),
                waiting: AtomicBool::new(false),
                cursor: AtomicU64::new(0),
                task: Mutex::new(None),
                finished: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }
        });
        if fresh {
            for me in 1..=set.helpers.len() {
                // Never joined: a helper lives as long as the process, and
                // the panic of a part it runs is caught and re-thrown by
                // the part's caller. One that cannot be spawned is one that
                // never arrives: its parts are claimed by the others.
                let _ = std::thread::Builder::new()
                    .name(format!("mpdp-pool-{me}"))
                    .spawn(move || set.helper(me));
            }
        }
        set
    }

    /// Opens a run of `threads` threads, if the set is free. Its helpers
    /// wake at its first job.
    fn open(&self, threads: usize) -> bool {
        let free = self
            .open
            .compare_exchange(0, threads, Ordering::Acquire, Ordering::Relaxed);
        free.is_ok()
    }

    /// Closes the open run: its helpers park at their next idle check.
    fn close(&self) {
        #[cfg(test)]
        sched::close();
        self.open.store(0, Ordering::Release);
    }

    /// Claims the next part of the current job, if one is left. A claim
    /// that succeeds holds the job open until the part is finished, so the
    /// task it reads next is the job's.
    fn next_part(&self) -> Option<usize> {
        let mut cur = self.cursor.load(Ordering::Acquire);
        loop {
            if cur & u64::from(u32::MAX) >= cur >> 32 {
                return None;
            }
            #[cfg(test)]
            sched::point(sched::Step::Claim);
            match self.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((cur & u64::from(u32::MAX)) as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Runs part `idx` of the current job, which this thread claimed, and
    /// reports it finished. A panic is kept for the caller.
    fn run_part(&self, idx: usize, task: Task<'_>) {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            sched::part_started();
            task(idx)
        }));
        if let Err(p) = ran {
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(p);
        }
        #[cfg(test)]
        sched::point(sched::Step::Finish);
        // SeqCst with a parking caller's flag and check, as in `job`.
        self.finished.fetch_add(1, Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) {
            drop(self.park.lock().unwrap_or_else(PoisonError::into_inner));
            self.finish.notify_one();
        }
    }

    /// Runs `task` as one job of `parts` parts on the open run, the calling
    /// thread claiming parts like any helper, and returns when every part
    /// has finished; re-throws the first panic of any part. While another
    /// job runs — this is one of its parts, or another thread shares the
    /// handle — the parts run inline, in order, on the calling thread.
    fn job(&self, threads: usize, parts: usize, task: Task<'_>) {
        // Acquire with the Release that ends the previous job: its reset
        // of the task and its panic slot happen before this one starts.
        if self.busy.swap(true, Ordering::Acquire) {
            return (0..parts).for_each(task);
        }
        // SAFETY: the lifetime is extended only for helpers, which use the
        // pointer only for a part they claimed, and this call returns only
        // after every part of the job has finished (see `SendTask`).
        let ptr = unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(task) };
        *self.task.lock().unwrap_or_else(PoisonError::into_inner) = Some(SendTask(ptr));
        self.finished.store(0, Ordering::Relaxed);
        // SeqCst with a parking helper's flag and check of the cursor:
        // either it sees this job's parts, or this sees it parked and
        // unparks it. Only the run's helpers: the others sleep on.
        self.cursor.store((parts as u64) << 32, Ordering::SeqCst);
        for helper in self.helpers.iter().take(threads - 1) {
            if helper.parked.load(Ordering::SeqCst) {
                // A helper flags itself only after it has set its thread.
                if let Some(thread) = helper.thread.get() {
                    thread.unpark();
                }
            }
        }
        while let Some(idx) = self.next_part() {
            self.run_part(idx, task);
        }
        // The level barrier: spin for the helpers' last parts, then park —
        // a helper whose vCPU the hypervisor has descheduled gets it back
        // only once this one sleeps.
        let done = || self.finished.load(Ordering::SeqCst) >= parts;
        let mut spins = 0u32;
        while !done() {
            if spins == SPINS_BEFORE_PARK {
                // Flagged before the check, under the lock a finishing part
                // takes to notify: no finish is missed.
                let parked = self.park.lock().unwrap_or_else(PoisonError::into_inner);
                self.waiting.store(true, Ordering::SeqCst);
                let parked = self
                    .finish
                    .wait_while(parked, |_| !done())
                    .unwrap_or_else(PoisonError::into_inner);
                // Under the lock, and a stale `true` costs one spare notify.
                self.waiting.store(false, Ordering::Relaxed);
                drop(parked);
                break;
            }
            spins = idle(spins);
        }
        *self.task.lock().unwrap_or_else(PoisonError::into_inner) = None;
        let panic = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        self.busy.store(false, Ordering::Release);
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Event loop of helper `me` (1-based; the caller is participant 0):
    /// while a run that uses it is open, claim parts and spin between them;
    /// after [`SPINS_BEFORE_PARK`] idle spins, or outside such a run, park
    /// until a job of a run that uses it is published.
    fn helper(&self, me: usize) {
        let this = &self.helpers[me - 1];
        this.thread.get_or_init(std::thread::current);
        let wanted = || me < self.open.load(Ordering::Relaxed);
        let mut spins = 0u32;
        loop {
            #[cfg(test)]
            sched::point(sched::Step::Park);
            if wanted() {
                if let Some(idx) = self.next_part() {
                    let task = self
                        .task
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .as_ref()
                        .map(|t| t.0)
                        .expect("a claimed part's job has a task");
                    // SAFETY: the part is claimed, so the job and its task
                    // borrow outlive it (see `SendTask`).
                    self.run_part(idx, unsafe { &*task });
                    spins = 0;
                    continue;
                }
                if spins < SPINS_BEFORE_PARK {
                    spins = idle(spins);
                    continue;
                }
            }
            // Flagged before the check, SeqCst with a job's cursor store
            // and flag load: either this sees the job, or the job sees the
            // flag and unparks this thread (an unpark before the park makes
            // it return at once). The cursor first: a job's store that this
            // load sees orders the run's opening before the `wanted` load.
            this.parked.store(true, Ordering::SeqCst);
            if !(self.has_part() && wanted()) {
                std::thread::park();
            }
            // Publishes nothing: a stale `true` costs one spare unpark,
            // after which `park` returns at once and the loop re-checks.
            this.parked.store(false, Ordering::Relaxed);
            spins = 0;
        }
    }

    /// Whether the current job has a part left, without claiming it.
    fn has_part(&self) -> bool {
        let cur = self.cursor.load(Ordering::SeqCst);
        cur & u64::from(u32::MAX) < cur >> 32
    }
}

/// One idle step of a spin-wait: a spin hint, and a yield of the CPU every
/// [`SPINS_PER_YIELD`] steps so that a waiter never starves a thread it
/// waits for. Returns the next step's count.
#[inline]
fn idle(spins: u32) -> u32 {
    if spins % SPINS_PER_YIELD == SPINS_PER_YIELD - 1 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
    spins.wrapping_add(1)
}

/// Handle the driver uses to fan its levels out to the worker set.
pub struct PoolHandle<'env> {
    /// The set, while this handle's run holds it; `None` runs inline.
    set: Option<&'static WorkerSet>,
    /// The run's threads, the caller included: 1 on an inline handle.
    threads: usize,
    workers: usize,
    _env: PhantomData<&'env ()>,
}

impl PoolHandle<'_> {
    /// Number of parts every job of this handle has: the `threads` its
    /// [`with_pool`] asked for, however many threads claim them.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Threads that run this handle's jobs: 1 on an inline handle.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(idx)` for every part and collects the return values in part
    /// order — the fan-out/merge shape used outside the DP loop (e.g. the
    /// executor's probe phase: each part owns a contiguous morsel range and
    /// returns a private output buffer; collecting in index order keeps the
    /// merged result independent of scheduling).
    pub fn map<T: Send>(&self, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..self.workers).map(|_| Mutex::new(None)).collect();
        self.run(&|idx| {
            let v = f(idx);
            *slots[idx].lock().unwrap() = Some(v);
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("every part filled its slot"))
            .collect()
    }

    /// Runs `task(idx)` for every part `idx in 0..workers` and returns when
    /// all are done — one DP level. The calling thread claims parts like
    /// every helper of the run; on an inline handle it runs them all, in
    /// order. A panic in any part is re-thrown here once every part has
    /// finished.
    pub fn run(&self, task: Task<'_>) {
        match self.set {
            Some(set) => set.job(self.threads, self.workers, task),
            None => (0..self.workers).for_each(task),
        }
    }
}

/// Closes the run when the driver returns or unwinds.
struct Close(&'static WorkerSet);

impl Drop for Close {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Hands the driver closure a [`PoolHandle`] whose jobs have `threads`
/// parts, run by `min(threads, available_parallelism())` threads of the
/// process's worker set while this call holds it (module docs). With
/// `threads <= 1`, on a one-thread host or while another run holds the
/// set, no other thread is involved and [`PoolHandle::run`] is an inline
/// loop.
pub fn with_pool<T>(threads: usize, driver: impl FnOnce(&PoolHandle<'_>) -> T) -> T {
    let threads = threads.max(1);
    let run = (threads > 1).then(WorkerSet::get).and_then(|set| {
        let real = threads.min(set.helpers.len() + 1);
        #[cfg(test)]
        if let Some(opened) = sched::take_pending() {
            return Some((set, opened));
        }
        (real > 1 && set.open(real)).then_some((set, real))
    });
    let _close = run.map(|(set, _)| Close(set));
    driver(&PoolHandle {
        set: run.map(|(set, _)| set),
        threads: run.map_or(1, |(_, real)| real),
        workers: threads,
        _env: PhantomData,
    })
}

/// The contiguous slice of `0..len` that part `idx` of `workers` owns:
/// balanced within one item, deterministic, and covering `0..len` exactly.
/// Which thread runs which part never affects results — PDP's and DPE's
/// shared memo keeps an order-insensitive `(cost, left)` minimum, and the
/// executor merges parts in index order — so this is purely a load
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

/// Seeded schedules for the worker set's tests, in the style of
/// `mpdp_core::faults`: a run opened under a seed perturbs its claim,
/// finish and park steps with yields, spins and sleeps drawn from the seed,
/// so that thousands of seeds explore helpers that arrive late, never
/// arrive or arrive after the cursor is exhausted. A schedule may also
/// carry one [`Fault`](sched::Fault): a claimed part that panics, or a
/// deadline poll of a DP level that reports expiry or stalls.
#[cfg(test)]
pub(crate) mod sched {
    use super::PoolHandle;
    use mpdp_core::memo::murmur3_fmix64;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Where a schedule may act.
    #[derive(Copy, Clone)]
    pub(crate) enum Step {
        Claim = 1,
        Finish = 2,
        Park = 3,
    }

    /// The one fault a scheduled run may carry besides its timing.
    #[derive(Copy, Clone, Debug)]
    pub(crate) enum Fault {
        None,
        /// The part claimed `n`-th in the run (0-based) panics.
        Panic(u64),
        /// The run's `n`-th deadline poll (0-based) reports expiry.
        Expire(u64),
        /// Every deadline poll in a level of at least `sets` sets waits
        /// until `dur` after the first of them.
        Stall {
            sets: usize,
            dur: Duration,
        },
    }

    /// The open scheduled run's seed; 0 while none is open. Only one run
    /// holds the set at a time, so there is one.
    static SEED: AtomicU64 = AtomicU64::new(0);

    /// What the open scheduled run has drawn and counted so far.
    struct Run {
        fault: Fault,
        stall_until: Option<Instant>,
        draws: u64,
        claims: u64,
        helper_claims: u64,
        polls: u64,
        stalled_polls: u64,
    }

    const FRESH: Run = Run {
        fault: Fault::None,
        stall_until: None,
        draws: 0,
        claims: 0,
        helper_claims: 0,
        polls: 0,
        stalled_polls: 0,
    };

    static RUN: Mutex<Run> = Mutex::new(FRESH);

    fn run() -> MutexGuard<'static, Run> {
        RUN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The open scheduled run's seed, if `pool` is its handle.
    fn seed_of(pool: &PoolHandle<'_>) -> Option<u64> {
        pool.set.and(seed())
    }

    fn seed() -> Option<u64> {
        Some(SEED.load(Ordering::Relaxed)).filter(|&seed| seed != 0)
    }

    thread_local! {
        /// The threads of the scheduled run this thread holds for its next
        /// `with_pool` to take over; 0 if none.
        static PENDING: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs `f` with the set opened under `seed` and `fault` for its first
    /// `with_pool` of more than one thread: the set is taken, waiting for
    /// another run to close if need be, before `f` starts, so that nothing
    /// `f` times includes the wait.
    pub(crate) fn scheduled<T>(seed: u64, fault: Fault, f: impl FnOnce() -> T) -> T {
        /// Closes the run if `f` did not hand it to a `with_pool`.
        struct Unused(&'static super::WorkerSet);
        impl Drop for Unused {
            fn drop(&mut self) {
                if PENDING.with(|p| p.replace(0)) > 0 {
                    self.0.close();
                }
            }
        }
        let set = super::WorkerSet::get();
        let threads = (set.helpers.len() + 1).max(2);
        while !set.open(threads) {
            std::thread::sleep(Duration::from_micros(50));
        }
        *run() = Run { fault, ..FRESH };
        // Hashed, and odd: 0 means no schedule.
        SEED.store(murmur3_fmix64(seed) | 1, Ordering::Relaxed);
        PENDING.with(|p| p.set(threads));
        let _unused = Unused(set);
        f()
    }

    /// The threads of the scheduled run this thread holds for its
    /// `with_pool`, if it holds one.
    pub(super) fn take_pending() -> Option<usize> {
        Some(PENDING.with(|p| p.replace(0))).filter(|&threads| threads > 0)
    }

    /// Keeps the scheduled panics off stderr: the default hook prints every
    /// other panic.
    pub(crate) fn quiet_panics() {
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let scheduled = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with("scheduled panic"));
                if !scheduled {
                    default(info);
                }
            }));
        });
    }

    /// Deadline polls of the last scheduled run, and those of them in its
    /// stalled level.
    pub(crate) fn polls() -> (u64, u64) {
        let run = run();
        (run.polls, run.stalled_polls)
    }

    /// Parts of the last scheduled run that a helper claimed.
    pub(crate) fn helper_claims() -> u64 {
        run().helper_claims
    }

    /// The open run closes: no schedule is open any more.
    pub(super) fn close() {
        SEED.store(0, Ordering::Relaxed);
    }

    /// A step of the open run: nothing, a yield, a spin or a short sleep.
    pub(super) fn point(step: Step) {
        let Some(seed) = seed() else {
            return;
        };
        let draw = {
            let mut run = run();
            run.draws += 1;
            run.draws
        };
        let h = murmur3_fmix64(seed ^ murmur3_fmix64(draw * 4 + step as u64));
        match h % 16 {
            0..=7 => {}
            8..=10 => std::thread::yield_now(),
            11..=13 => (0..h >> 54).for_each(|_| std::hint::spin_loop()),
            // A helper that parks long enough to miss a small run.
            14 if matches!(step, Step::Park) => std::thread::sleep(Duration::from_millis(2)),
            _ => std::thread::sleep(Duration::from_micros(h >> 58)),
        }
    }

    /// A part was claimed: the scheduled panic fires here.
    pub(super) fn part_started() {
        if seed().is_none() {
            return;
        }
        let helper = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("mpdp-pool-"));
        let (claim, fault) = {
            let mut run = run();
            run.claims += 1;
            run.helper_claims += u64::from(helper);
            (run.claims - 1, run.fault)
        };
        if matches!(fault, Fault::Panic(n) if n == claim) {
            panic!("scheduled panic in part claim {claim}");
        }
        point(Step::Claim);
    }

    /// Whether `pool`'s run is a scheduled one.
    pub(crate) fn on(pool: &PoolHandle<'_>) -> bool {
        seed_of(pool).is_some()
    }

    /// A deadline poll of a DP level of `sets` sets under `pool`: whether
    /// the scheduled run it belongs to, if any, has it report expiry.
    pub(crate) fn expired(pool: &PoolHandle<'_>, sets: usize) -> bool {
        if seed_of(pool).is_none() {
            return false;
        }
        let mut run = run();
        let poll = run.polls;
        run.polls += 1;
        match run.fault {
            Fault::Expire(n) => n == poll,
            Fault::Stall {
                sets: at_least,
                dur,
            } if sets >= at_least => {
                run.stalled_polls += 1;
                let until = *run.stall_until.get_or_insert_with(|| Instant::now() + dur);
                drop(run);
                std::thread::sleep(until.saturating_duration_since(Instant::now()));
                false
            }
            _ => false,
        }
    }
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
            assert!(pool.set.is_none());
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
        // Writes of level k must be visible to every part at level k+1.
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
        // The set is free again and the next call runs every part.
        let sum = AtomicU64::new(0);
        with_pool(3, |pool| {
            pool.run(&|idx| {
                sum.fetch_add(idx as u64 + 1, Ordering::Relaxed);
            })
        });
        assert_eq!(sum.into_inner(), 6);
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

    #[test]
    fn a_nested_or_concurrent_caller_runs_inline() {
        with_pool(2, |outer| {
            with_pool(2, |inner| {
                if outer.set.is_some() {
                    assert!(inner.set.is_none(), "one run holds the set");
                }
                assert_eq!(inner.map(|idx| idx), vec![0, 1]);
            });
        });
    }

    #[test]
    fn a_part_that_calls_its_own_handle_runs_that_job_inline() {
        for _ in 0..200 {
            let hits: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(0)).collect();
            let inner = with_pool(3, |pool| {
                pool.run(&|outer| {
                    pool.run(&|idx| {
                        hits[outer * 3 + idx].fetch_add(1, Ordering::Relaxed);
                    });
                });
                pool.map(|outer| pool.map(|idx| outer * 3 + idx))
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let flat: Vec<usize> = inner.into_iter().flatten().collect();
            assert_eq!(flat, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_threads_sharing_one_handle_each_run_every_part() {
        for _ in 0..200 {
            let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
            with_pool(4, |pool| {
                std::thread::scope(|s| {
                    for thread in 0..2u64 {
                        let hits = &hits;
                        s.spawn(move || {
                            for _ in 0..20 {
                                pool.run(&|idx| {
                                    // Long enough for the two jobs to overlap.
                                    std::thread::yield_now();
                                    hits[thread as usize * 4 + idx].fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 20));
        }
    }

    #[test]
    fn scheduled_runs_cover_every_part_once() {
        sched::quiet_panics();
        for seed in 0..1_000u64 {
            let hits: Vec<AtomicU64> = (0..5).map(|_| AtomicU64::new(0)).collect();
            let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
                sched::scheduled(seed, sched::Fault::Panic(seed % 24), || {
                    with_pool(5, |pool| {
                        for _ in 0..3 {
                            pool.run(&|idx| {
                                hits[idx].fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                })
            }))
            .is_err();
            // A panicking part still lets every other part of its job run;
            // the job after it does not start.
            let total: u64 = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
            match panicked {
                false => assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3)),
                true => assert!(total % 5 == 4 && total < 15, "seed {seed}: {total}"),
            }
        }
    }
}
