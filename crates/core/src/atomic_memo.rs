//! Lock-free shared memo: the CPU analogue of the paper's global hash table.
//!
//! The paper's central device (§5) is a *device-global* open-addressing hash
//! table that every GPU lane updates in place with `atomicMin`: there are no
//! per-worker plan buffers and no reduction pass — the table itself is the
//! reduction. [`AtomicMemo`] is that structure for shared-memory CPUs (and
//! for the simulated-GPU drivers, whose "device memory" it now is): an
//! open-addressing table of `AtomicU64` slot pairs, claimed and updated with
//! CAS loops, that many workers hammer concurrently while each key still
//! converges to the exact `(cost, left)` minimum.
//!
//! ## Slot layout and the packed-CAS update
//!
//! Each slot is a pair of `AtomicU64`s:
//!
//! * **key** — the relation-set bitmap, claimed once via
//!   `CAS(0 → bits)` (linear probing on collision from the start slot
//!   [`crate::memo::Addressing`] picks, the same probe sequence as
//!   [`crate::memo::MemoTable`]);
//! * **val** — a handle (index + 1) into an append-only candidate arena
//!   whose records hold `(cost, left, rows)` and are immutable once
//!   published.
//!
//! The winner per key must be the minimum under the 128-bit lexicographic
//! key `(cost-as-ordered-bits, left bitmap)` — see
//! [`crate::memo::candidate_key`] — and 128 bits cannot be
//! CAS'd at once on stable Rust. Splitting the pair across two words is
//! *not* an option: a writer that lowers the cost word and a tying writer
//! that min-updates the left word can interleave into a `(cost, left)` pair
//! that no candidate ever proposed (a torn winner), which would break the
//! bit-identity guarantee the equivalence tests enforce. The arena
//! indirection solves this the way lock-free maps do: a candidate is
//! published as one immutable record, and a single 64-bit CAS on the handle
//! word atomically swings the slot from one *consistent* `(cost, left,
//! rows)` triple to another. `f64` costs stay exact — no truncation into a
//! packed word — so results are bit-identical to the sequential
//! [`crate::memo::MemoTable`].
//!
//! ## Memory ordering
//!
//! * Key claim is `AcqRel`: a claimed key happens-before any reader that
//!   observes it; losers re-read with `Acquire`.
//! * Arena records are written *before* the handle CAS publishes them; the
//!   CAS is `AcqRel` and handle loads are `Acquire`, so a reader that sees
//!   handle `h` also sees the fully written record `h-1` (release/acquire
//!   pairing on the same atomic). Records are never mutated after
//!   publication, so no tearing is possible.
//! * Diagnostics (probe and CAS-retry counters) are `Relaxed` — statistics,
//!   not synchronization.
//!
//! The level barrier of every parallel backend provides the cross-level
//! ordering: within a level, workers only *read* strictly smaller sets
//! (previous levels, already quiescent) and only *write* current-level sets,
//! so the CAS loop is the only point of contention.
//!
//! ## What is lock-free here
//!
//! Claim, update and lookup are all CAS/fetch-add loops with no mutex and no
//! waiting on other threads' progress: a failed CAS means another writer
//! *succeeded*, so the system always advances. The one exception is arena
//! segment creation (amortized `O(log n)` events per run): competing
//! allocators race a CAS on the segment pointer and the losers free their
//! allocation — still lock-free, just briefly wasteful. The table never
//! grows: every backend counts its connected sets before the first level and
//! creates the memo at that size ([`AtomicMemo::for_universe`]), and the
//! claim loop panics rather than spins forever if it was given too few.

use crate::bitset::RelSet;
use crate::memo::{candidate_key, ordered_cost_bits, Addressing, MemoEntry, MemoHealth, MemoStore};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One immutable published candidate.
#[derive(Copy, Clone, Debug, Default)]
struct Candidate {
    cost: f64,
    left: u64,
    rows: f64,
}

/// Interior-mutable candidate cell; sound because each arena index is handed
/// to exactly one writer (a unique `fetch_add` ticket) and published records
/// are never written again.
struct CandidateCell(UnsafeCell<Candidate>);

// SAFETY: cross-thread access is mediated by the publish protocol above —
// a cell is written by its unique ticket holder and only read after the
// handle CAS (release) is observed (acquire).
unsafe impl Sync for CandidateCell {}

/// Number of doubling segments; segment `k` holds `base << k` cells, so 48
/// segments cover any conceivable run.
const SEGMENTS: usize = 48;

/// Append-only segmented arena of published candidates. Indices are stable
/// forever (segments never move), which is what makes the handle-word CAS
/// ABA-free: every published handle refers to a distinct, immutable record.
struct Arena {
    segments: [AtomicPtr<CandidateCell>; SEGMENTS],
    cursor: AtomicUsize,
    /// Capacity of segment 0 (power of two).
    base: usize,
}

impl Arena {
    fn new(base: usize) -> Arena {
        let base = base.max(16).next_power_of_two();
        Arena {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            cursor: AtomicUsize::new(0),
            base,
        }
    }

    /// Segment index and in-segment offset of arena index `id`.
    #[inline]
    fn locate(&self, id: usize) -> (usize, usize) {
        // Segment k covers ids [base*(2^k - 1), base*(2^{k+1} - 1)).
        let t = id / self.base + 1;
        let k = (usize::BITS - 1 - t.leading_zeros()) as usize;
        (k, id - self.base * ((1 << k) - 1))
    }

    #[inline]
    fn segment_len(&self, k: usize) -> usize {
        self.base << k
    }

    /// Returns the segment pointer for `k`, allocating it if absent.
    fn segment(&self, k: usize) -> *const CandidateCell {
        let ptr = self.segments[k].load(Ordering::Acquire);
        if !ptr.is_null() {
            return ptr;
        }
        // Race to install: losers free their allocation (lock-free helping).
        let len = self.segment_len(k);
        let mut fresh: Vec<CandidateCell> = Vec::with_capacity(len);
        fresh.resize_with(len, || CandidateCell(UnsafeCell::new(Candidate::default())));
        let raw = Box::into_raw(fresh.into_boxed_slice()) as *mut CandidateCell;
        match self.segments[k].compare_exchange(
            std::ptr::null_mut(),
            raw,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => raw,
            Err(winner) => {
                // SAFETY: `raw` came from `Box::into_raw` above and lost the
                // race, so no other thread has seen it.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, len)) });
                winner
            }
        }
    }

    /// Publishes a candidate and returns its arena index. The record's
    /// contents become visible to other threads only through a subsequent
    /// release operation on the slot's handle word.
    fn publish(&self, c: Candidate) -> usize {
        let id = self.cursor.fetch_add(1, Ordering::Relaxed);
        let (k, off) = self.locate(id);
        assert!(k < SEGMENTS, "AtomicMemo arena exhausted");
        let seg = self.segment(k);
        // SAFETY: `id` is a unique ticket, so this cell has exactly one
        // writer; `off < segment_len(k)` by `locate`'s arithmetic.
        unsafe { *(*seg.add(off)).0.get() = c };
        id
    }

    /// Reads a published record. Caller must have observed the publishing
    /// release (an `Acquire` load of a handle naming `id`).
    #[inline]
    fn read(&self, id: usize) -> Candidate {
        let (k, off) = self.locate(id);
        let seg = self.segments[k].load(Ordering::Acquire);
        debug_assert!(!seg.is_null());
        // SAFETY: published records are immutable; visibility follows from
        // the caller's acquire on the handle word.
        unsafe { *(*seg.add(off)).0.get() }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for (k, seg) in self.segments.iter_mut().enumerate() {
            let ptr = *seg.get_mut();
            if !ptr.is_null() {
                let len = self.base << k;
                // SAFETY: pointer was produced by Box::into_raw of a boxed
                // slice of exactly `len` cells and is dropped exactly once.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, len)) });
            }
        }
    }
}

/// The lock-free shared memo table (see the module docs for the design).
///
/// All hot-path operations take `&self` so scoped worker threads can share
/// one `&AtomicMemo`; the [`MemoStore`] trait methods delegate to them.
/// Capacity is fixed at creation.
pub struct AtomicMemo {
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    at: Addressing,
    len: AtomicUsize,
    probes: AtomicU64,
    cas_retries: AtomicU64,
    arena: Arena,
}

impl AtomicMemo {
    /// Creates a table for `expected` entries (same ≤70% load policy as
    /// [`crate::memo::MemoTable`]) — all it will ever hold. The candidate
    /// arena starts at one record per entry, which is what a backend that
    /// publishes each set once needs, and doubles from there. Keys may name
    /// any relations (hashed addressing).
    pub fn with_capacity(expected: usize) -> Self {
        AtomicMemo::for_universe(64, expected)
    }

    /// [`with_capacity`](Self::with_capacity) for sets over the relations
    /// `0..n`, addressed as [`Addressing::for_universe`] decides.
    pub fn for_universe(n: usize, expected: usize) -> Self {
        let at = Addressing::for_universe(n, expected);
        AtomicMemo {
            keys: (0..at.slots()).map(|_| AtomicU64::new(0)).collect(),
            vals: (0..at.slots()).map(|_| AtomicU64::new(0)).collect(),
            at,
            len: AtomicUsize::new(0),
            probes: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
            arena: Arena::new(expected),
        }
    }

    /// Number of claimed entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// `true` if no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative insert-path probe steps (diagnostics).
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Cumulative CAS retries across claim and update loops (diagnostics;
    /// 0 in any single-threaded run).
    pub fn cas_retry_count(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Point-in-time health metrics.
    pub fn health(&self) -> MemoHealth {
        MemoHealth {
            entries: self.len(),
            slots: self.keys.len(),
            probes: self.probe_count(),
            cas_retries: self.cas_retry_count(),
        }
    }

    /// Looks up the best entry for `set`. Safe concurrently with writers,
    /// but the backends only read keys whose level is already quiescent
    /// (previous DP levels); a key claimed but not yet published reads as
    /// absent.
    pub fn get(&self, set: RelSet) -> Option<MemoEntry> {
        if set.is_empty() {
            return None;
        }
        let bits = set.bits();
        let mut idx = self.at.home(bits);
        loop {
            let k = self.keys[idx].load(Ordering::Acquire);
            if k == 0 {
                return None;
            }
            if k == bits {
                let handle = self.vals[idx].load(Ordering::Acquire);
                if handle == 0 {
                    return None;
                }
                let c = self.arena.read(handle as usize - 1);
                return Some(MemoEntry {
                    set,
                    left: RelSet(c.left),
                    cost: c.cost,
                    rows: c.rows,
                });
            }
            idx = self.at.next(idx);
        }
    }

    /// Inserts a leaf entry for a base relation (init-time; single writer
    /// per relation, but safe concurrently regardless).
    pub fn insert_leaf(&self, rel: usize, rows: f64, cost: f64) {
        self.insert_if_better(RelSet::singleton(rel), RelSet::empty(), cost, rows);
    }

    /// The paper's `atomicMin` on the global table: records the candidate
    /// for `set` iff its `(cost, left)` [`candidate_key`] beats the
    /// incumbent's, with a CAS loop resolving races. Any number of threads
    /// may call this for the same key; the slot converges to the exact
    /// minimum regardless of interleaving. Returns `true` if the candidate
    /// became (transiently, at its linearization point) the best.
    pub fn insert_if_better(&self, set: RelSet, left: RelSet, cost: f64, rows: f64) -> bool {
        debug_assert!(!set.is_empty() && left.is_subset(set));
        let slot = self.claim(set.bits());
        let my_key = candidate_key(cost, left);
        let val = &self.vals[slot];
        let mut published: Option<u64> = None;
        let mut cur = val.load(Ordering::Acquire);
        loop {
            if cur != 0 {
                let inc = self.arena.read(cur as usize - 1);
                if (ordered_cost_bits(inc.cost), inc.left) <= my_key {
                    return false;
                }
            }
            let handle = *published.get_or_insert_with(|| {
                self.arena.publish(Candidate {
                    cost,
                    left: left.bits(),
                    rows,
                }) as u64
                    + 1
            });
            match val.compare_exchange_weak(cur, handle, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(now) => {
                    self.cas_retries.fetch_add(1, Ordering::Relaxed);
                    cur = now;
                }
            }
        }
    }

    /// Finds the slot index for `bits`, claiming an empty slot if the key is
    /// new. Panics (rather than spinning forever) if the table is full —
    /// backends create it with room for every set.
    fn claim(&self, bits: u64) -> usize {
        debug_assert_ne!(bits, 0);
        let mut idx = self.at.home(bits);
        let mut steps = 0usize;
        loop {
            self.probes.fetch_add(1, Ordering::Relaxed);
            let k = self.keys[idx].load(Ordering::Acquire);
            if k == bits {
                return idx;
            }
            if k == 0 {
                match self.keys[idx].compare_exchange(0, bits, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        self.len.fetch_add(1, Ordering::AcqRel);
                        return idx;
                    }
                    Err(winner) => {
                        self.cas_retries.fetch_add(1, Ordering::Relaxed);
                        if winner == bits {
                            return idx;
                        }
                        // Another key took this slot; keep probing.
                    }
                }
            }
            idx = self.at.next(idx);
            steps += 1;
            assert!(
                steps < self.keys.len(),
                "AtomicMemo full: with_capacity() must cover every set the run inserts"
            );
        }
    }

    /// Iterates over all published entries (arbitrary order). Intended for
    /// quiescent states (after the run, or between barriers).
    pub fn iter(&self) -> impl Iterator<Item = MemoEntry> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter_map(move |(k, v)| {
                let bits = k.load(Ordering::Acquire);
                let handle = v.load(Ordering::Acquire);
                if bits == 0 || handle == 0 {
                    return None;
                }
                let c = self.arena.read(handle as usize - 1);
                Some(MemoEntry {
                    set: RelSet(bits),
                    left: RelSet(c.left),
                    cost: c.cost,
                    rows: c.rows,
                })
            })
    }
}

impl std::fmt::Debug for AtomicMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicMemo")
            .field("entries", &self.len())
            .field("slots", &self.keys.len())
            .field("probes", &self.probe_count())
            .field("cas_retries", &self.cas_retry_count())
            .finish()
    }
}

impl MemoStore for AtomicMemo {
    fn for_universe(n: usize, expected: usize) -> Self {
        AtomicMemo::for_universe(n, expected)
    }

    fn len(&self) -> usize {
        AtomicMemo::len(self)
    }

    fn get(&self, set: RelSet) -> Option<MemoEntry> {
        AtomicMemo::get(self, set)
    }

    fn insert_leaf(&mut self, rel: usize, rows: f64, cost: f64) {
        AtomicMemo::insert_leaf(self, rel, rows, cost)
    }

    fn insert_if_better(&mut self, set: RelSet, left: RelSet, cost: f64, rows: f64) -> bool {
        AtomicMemo::insert_if_better(self, set, left, cost, rows)
    }

    fn health(&self) -> MemoHealth {
        AtomicMemo::health(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{murmur3_fmix64, slots_for, MemoTable};

    #[test]
    fn insert_get_roundtrip() {
        let m = AtomicMemo::with_capacity(4);
        m.insert_leaf(3, 100.0, 7.0);
        let e = m.get(RelSet::singleton(3)).unwrap();
        assert!(e.is_leaf());
        assert_eq!(e.rows, 100.0);
        assert_eq!(e.cost, 7.0);
        assert!(m.get(RelSet::singleton(2)).is_none());
        assert!(m.get(RelSet::empty()).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn keeps_minimum_and_breaks_ties_like_memo_table() {
        let a = AtomicMemo::with_capacity(8);
        let mut t = MemoTable::with_capacity(8);
        let s = RelSet::from_indices([0, 1, 2]);
        let candidates = [
            (RelSet::from_indices([1, 2]), 10.0),
            (RelSet::singleton(0), 8.0),
            (RelSet::singleton(1), 8.0), // tie with a larger left
            (RelSet::from_indices([0, 1]), 9.0),
        ];
        for &(left, cost) in &candidates {
            assert_eq!(
                a.insert_if_better(s, left, cost, 1.0),
                t.insert_if_better(s, left, cost, 1.0)
            );
        }
        let (ea, et) = (a.get(s).unwrap(), t.get(s).unwrap());
        assert_eq!(ea.left, et.left);
        assert_eq!(ea.cost.to_bits(), et.cost.to_bits());
        assert_eq!(ea.left, RelSet::singleton(0));
    }

    #[test]
    fn with_capacity_holds_its_entries_and_panics_past_the_table() {
        let m = AtomicMemo::with_capacity(100);
        assert_eq!(m.health().slots, slots_for(100));
        for i in 0..100u64 {
            m.insert_if_better(RelSet(i + 1), RelSet(i + 1).lowest_bit(), i as f64, 1.0);
        }
        assert_eq!((m.len(), m.iter().count()), (100, 100));
        for i in 0..100u64 {
            assert_eq!(m.get(RelSet(i + 1)).unwrap().cost, i as f64);
        }
        let full = std::panic::catch_unwind(|| {
            let m = AtomicMemo::with_capacity(4);
            for i in 0..=slots_for(4) as u64 {
                m.insert_if_better(RelSet(i + 1), RelSet(i + 1).lowest_bit(), 1.0, 1.0);
            }
        });
        assert!(full.is_err(), "a full table panics instead of spinning");
    }

    #[test]
    fn arena_indexing_is_dense_and_stable() {
        let arena = Arena::new(16);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            let id = arena.publish(Candidate {
                cost: i as f64,
                left: i,
                rows: 0.0,
            });
            assert!(seen.insert(id));
        }
        for id in 0..1000usize {
            assert_eq!(arena.read(id).left, id as u64);
        }
    }

    const THREADS: usize = 8;
    const KEYS: u64 = 64;
    const PER_THREAD: usize = 2000;

    /// Thread `t`'s stream of `(set, left, cost)` candidates over the keys
    /// `1..=KEYS` — sets over seven relations — with few distinct costs, so
    /// exact ties are frequent.
    fn candidates(t: usize) -> impl Iterator<Item = (RelSet, RelSet, f64)> {
        let mut state = 0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1);
        (0..PER_THREAD).map(move |_| {
            state = murmur3_fmix64(state.wrapping_add(0xa076_1d64_78bd_642f));
            let key = RelSet(state % KEYS + 1);
            let left = RelSet((state >> 17) & key.bits()).lowest_bit();
            let left = if left.is_empty() {
                key.lowest_bit()
            } else {
                left
            };
            (key, left, ((state >> 32) % 7) as f64)
        })
    }

    #[test]
    fn concurrent_hammer_converges_to_exact_minimum() {
        // 8 threads race interleaved insert_if_better calls over a shared
        // key space, including exact-cost ties; the table must converge to
        // the same (cost, left) the sequential table computes — under either
        // addressing: 64 entries get 128 = 2⁷ slots, so a table over the
        // seven relations the keys name is direct.
        let mut expect = MemoTable::with_capacity(KEYS as usize);
        for t in 0..THREADS {
            for (key, left, cost) in candidates(t) {
                expect.insert_if_better(key, left, cost, 1.0);
            }
        }
        for universe in [64, 7] {
            let memo = &AtomicMemo::for_universe(universe, KEYS as usize);
            assert_eq!(memo.at.is_direct(), universe == 7);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    scope.spawn(move || {
                        for (key, left, cost) in candidates(t) {
                            memo.insert_if_better(key, left, cost, 1.0);
                        }
                    });
                }
            });
            assert_eq!(memo.len(), expect.len());
            for e in expect.iter() {
                let got = memo.get(e.set).unwrap();
                assert_eq!(got.cost.to_bits(), e.cost.to_bits(), "key {}", e.set);
                assert_eq!(got.left, e.left, "key {}", e.set);
            }
        }
    }

    #[test]
    fn a_fitting_universe_takes_one_probe_per_insert_and_lookup() {
        // Single-threaded replay of the hammer's streams into a direct
        // table: every insert is one probe, every key sits in the slot its
        // bitmap names (so a lookup reads that one slot), and the entries
        // are the hashed sequential table's.
        let memo = AtomicMemo::for_universe(7, KEYS as usize);
        let mut hashed = MemoTable::with_capacity(KEYS as usize);
        let mut inserts = 0;
        for t in 0..THREADS {
            for (key, left, cost) in candidates(t) {
                memo.insert_if_better(key, left, cost, 1.0);
                hashed.insert_if_better(key, left, cost, 1.0);
                inserts += 1;
            }
        }
        assert_eq!((memo.probe_count(), memo.cas_retry_count()), (inserts, 0));
        for (slot, key) in memo.keys.iter().enumerate() {
            let key = key.load(Ordering::Relaxed);
            assert!(key == 0 || key == slot as u64, "{key} in slot {slot}");
        }
        assert_eq!(memo.len(), hashed.len());
        for e in hashed.iter() {
            let got = memo.get(e.set).unwrap();
            assert_eq!((got.left, got.cost.to_bits()), (e.left, e.cost.to_bits()));
        }
    }

    #[test]
    fn an_unfitting_universe_hashes_as_before() {
        // Eight relations do not fit 128 slots: the home slot is Murmur3's,
        // exactly as for a table over any relations.
        let memo = AtomicMemo::for_universe(8, KEYS as usize);
        assert_eq!(memo.at, Addressing::for_universe(64, KEYS as usize));
        assert!(!memo.at.is_direct());
        for k in 1..=KEYS {
            memo.insert_if_better(RelSet(k), RelSet(k).lowest_bit(), 1.0, 1.0);
        }
        let mask = memo.keys.len() - 1;
        for k in 1..=KEYS {
            let mut idx = murmur3_fmix64(k) as usize & mask;
            while memo.keys[idx].load(Ordering::Relaxed) != k {
                assert_ne!(memo.keys[idx].load(Ordering::Relaxed), 0, "key {k}");
                idx = (idx + 1) & mask;
            }
        }
    }

    #[test]
    fn claim_collisions_across_distinct_keys() {
        // Distinct keys racing for the same probe chain must all land.
        let memo = &AtomicMemo::with_capacity(512);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..128u64 {
                        let key = RelSet(t * 128 + i + 1);
                        memo.insert_if_better(key, key.lowest_bit(), i as f64, 2.0);
                    }
                });
            }
        });
        assert_eq!(memo.len(), 512);
        for k in 1..=512u64 {
            assert!(memo.get(RelSet(k)).is_some(), "key {k}");
        }
    }
}
