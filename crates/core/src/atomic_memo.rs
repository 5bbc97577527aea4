//! Shared memo: the CPU analogue of the paper's global hash table.
//!
//! The paper's central device (§5) is a *device-global* open-addressing hash
//! table that every GPU lane updates in place with `atomicMin`: there are no
//! per-worker plan buffers and no reduction pass — the table itself is the
//! reduction. [`AtomicMemo`] is that structure for shared-memory CPUs (and
//! for the simulated-GPU drivers, whose "device memory" it is): a table laid
//! out once from the level plan, whose slots many workers then min-update
//! concurrently while each set still converges to the exact `(cost, left)`
//! minimum.
//!
//! ## Slot layout
//!
//! Each slot holds, in three parallel arrays:
//!
//! * **key** — the relation-set bitmap, written once by
//!   [`AtomicMemo::laid_out`] into the slot the set's linear probe reaches
//!   from the home slot [`crate::memo::Addressing`] picks (multiply-shift,
//!   or the bitmap itself — the same slots [`crate::memo::MemoTable`] lays
//!   the same plan out in), single-threaded, before the table is shared. A
//!   plain word: nothing writes it again;
//! * **record** — 16 B: the set's cardinality, a plain `f64` written by the
//!   layout beside the key, and the **cost** of its best candidate as an
//!   `AtomicU64` of [`ordered_cost_bits`], which starts at ∞;
//! * **left** — the best candidate's left input, behind the slot's own
//!   `Mutex`; the layout writes the set itself, so a slot starts as the
//!   unplanned `(∞, S)`.
//!
//! Pricing a split needs only a side's cost and cardinality
//! ([`AtomicMemo::cost_rows`]): the key and the record, never the lock. The
//! lock is for what needs `left` — the exact `(cost, left)` tie-break of
//! [`AtomicMemo::update`] and plan extraction through [`AtomicMemo::get`].
//!
//! ## One lock per slot
//!
//! The winner per set must be the minimum under the lexicographic key
//! `(cost-as-ordered-bits, left bitmap)` — see
//! [`crate::memo::candidate_key`]. Two words updated independently can
//! tear: a writer that lowers the cost word and a tying writer that
//! min-updates the left word can interleave into a `(cost, left)` pair no
//! candidate ever proposed. So an update takes the slot's lock, compares the
//! incumbent `(cost, left)` with its own key, and writes both words before
//! it unlocks: every pair a slot holds was written whole by one candidate,
//! and the last one is the minimum of all that were offered. `f64` costs
//! stay exact — no truncation into a packed word — so results are
//! bit-identical to the sequential [`crate::memo::MemoTable`].
//!
//! The backends publish one winner per set, from the one worker the set was
//! given to, so the lock is uncontended except where a baseline (DPE, PDP)
//! puts several writers on one set; [`AtomicMemo::cas_retry_count`] counts
//! the updates that found their slot's lock held.
//!
//! ## Memory ordering
//!
//! * Keys, rows and the layout's `left`s are written before the table is
//!   shared with any worker; handing the `&AtomicMemo` to a thread publishes
//!   them.
//! * Every write of a slot's cost and `left` happens under the slot's lock,
//!   whose release and acquire order one writer's pair before the next
//!   writer's comparison, so the cost is `Relaxed` inside it.
//!   [`AtomicMemo::get`] reads the pair under the lock too.
//! * [`AtomicMemo::cost_rows`] loads the cost `Relaxed` without the lock,
//!   and only for sets whose level (or class) has ended: the barrier that
//!   ends it orders every write of the word before every later load.
//! * Diagnostics (probe and retry counters) are `Relaxed` — statistics, not
//!   synchronization.
//!
//! The level barrier of every parallel backend provides the cross-level
//! ordering: within a level, workers only *read* strictly smaller sets
//! (previous levels, already quiescent) and only *write* current-level sets.
//! The table never grows and no set enters it after the layout: a write names
//! a laid-out slot, and a lookup of a set that was not laid out ends at a
//! free slot.

use crate::bitset::RelSet;
use crate::memo::{
    candidate_key, cost_from_ordered_bits, ordered_cost_bits, Addressing, MemoEntry, MemoHealth,
    MemoLanes, MemoStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Why a slot's lock cannot be poisoned: nothing that holds it can panic.
const UNPOISONED: &str = "no code that holds a memo slot's lock panics";

/// What a split reads of a slot: the cost of its best candidate and its
/// cardinality, in 16 B, in declaration order so a gather can name a word by
/// its offset.
#[repr(C)]
pub struct CostRecord {
    /// [`ordered_cost_bits`] of the best cost; ∞ while unplanned, written
    /// under the slot's lock.
    cost: AtomicU64,
    /// Written by the layout only.
    rows: f64,
}

impl CostRecord {
    /// Byte offset of the best cost, as [`ordered_cost_bits`].
    pub const COST: usize = std::mem::offset_of!(CostRecord, cost);
    /// Byte offset of the cardinality, an `f64`.
    pub const ROWS: usize = std::mem::offset_of!(CostRecord, rows);
}

/// The shared memo table (see the module docs for the design).
///
/// All hot-path operations take `&self` so scoped worker threads can share
/// one `&AtomicMemo`; the [`MemoStore`] trait methods delegate to them.
/// Capacity is fixed at creation.
pub struct AtomicMemo {
    /// Each slot's set bitmap, 0 for a free slot; written by the layout only.
    keys: Box<[u64]>,
    /// Each slot's best cost and cardinality, for the lookups that price.
    records: Box<[CostRecord]>,
    /// Each slot's best `left`, and the lock every write of the slot's
    /// `(cost, left)` holds.
    lefts: Box<[Mutex<u64>]>,
    at: Addressing,
    /// `layout[k]` is the slot of the `k`-th set laid out: 4 bytes per set.
    layout: Box<[u32]>,
    /// `by_size[i]`: the layout's probe steps for the sets of `i` relations.
    by_size: Box<[u64]>,
    probes: AtomicU64,
    cas_retries: AtomicU64,
}

impl AtomicMemo {
    /// See [`MemoStore::laid_out`].
    pub fn laid_out(n: usize, sets: &[RelSet], rows: &[f64]) -> Self {
        debug_assert_eq!(sets.len(), rows.len());
        let at = Addressing::for_universe(n, sets.len());
        let unplanned = ordered_cost_bits(f64::INFINITY);
        let mut m = AtomicMemo {
            keys: vec![0u64; at.slots()].into_boxed_slice(),
            records: (0..at.slots())
                .map(|_| CostRecord {
                    cost: AtomicU64::new(unplanned),
                    rows: 0.0,
                })
                .collect(),
            lefts: (0..at.slots()).map(|_| Mutex::new(0)).collect(),
            at,
            layout: Box::default(),
            by_size: vec![0u64; n + 1].into_boxed_slice(),
            probes: AtomicU64::new(0),
            cas_retries: AtomicU64::new(0),
        };
        m.layout = sets
            .iter()
            .zip(rows)
            .map(|(&set, &rows)| {
                let (idx, steps) = m.probe(set);
                debug_assert!(!set.is_empty() && m.keys[idx] == 0, "{set} laid out twice");
                m.keys[idx] = set.bits();
                m.records[idx].rows = rows;
                *m.lefts[idx].get_mut().expect(UNPOISONED) = set.bits();
                m.by_size[set.len()] += steps;
                idx as u32
            })
            .collect();
        *m.probes.get_mut() = m.by_size.iter().sum();
        m
    }

    /// The slot `set`'s probe ends at — its own, or a free one if it was not
    /// laid out — and the slots it read.
    #[inline]
    fn probe(&self, set: RelSet) -> (usize, u64) {
        self.at.probe(set.bits(), |i| self.keys[i])
    }

    /// See [`MemoStore::slot`].
    #[inline]
    pub fn slot(&self, k: usize) -> usize {
        self.layout[k] as usize
    }

    /// See [`MemoStore::find`].
    #[inline]
    pub fn find(&self, set: RelSet) -> (usize, f64) {
        let (slot, steps) = self.probe(set);
        self.probes.fetch_add(steps, Ordering::Relaxed);
        assert!(self.keys[slot] != 0, "{set} was not laid out");
        (slot, self.records[slot].rows)
    }

    /// Probe steps the layout took for the sets of `size` relations — what
    /// a level's sets cost to place, which is all the probing a driver that
    /// writes by slot does for them.
    pub fn layout_probes(&self, size: usize) -> u64 {
        self.by_size[size]
    }

    /// Cumulative probe steps of the layout and of [`find`](Self::find)
    /// (diagnostics).
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Updates that found their slot's lock held by another writer
    /// (diagnostics; 0 in any single-threaded run).
    pub fn cas_retry_count(&self) -> u64 {
        self.cas_retries.load(Ordering::Relaxed)
    }

    /// Point-in-time health metrics.
    pub fn health(&self) -> MemoHealth {
        MemoHealth {
            entries: self.layout.len(),
            slots: self.keys.len(),
            probes: self.probe_count(),
            cas_retries: self.cas_retry_count(),
        }
    }

    /// Looks up the best entry for `set`. Safe concurrently with writers —
    /// it reads the slot's pair under its lock — but the backends only read
    /// sets whose level is already quiescent (previous DP levels).
    #[inline]
    pub fn get(&self, set: RelSet) -> Option<MemoEntry> {
        let (slot, _) = self.probe(set);
        (self.keys[slot] != 0).then(|| {
            let left = self.lefts[slot].lock().expect(UNPOISONED);
            let r = &self.records[slot];
            MemoEntry {
                set,
                left: RelSet(*left),
                cost: cost_from_ordered_bits(r.cost.load(Ordering::Relaxed)),
                rows: r.rows,
            }
        })
    }

    /// See [`MemoStore::cost_rows`]: the key and the slot's record, never
    /// the lock. Exact for a set whose level (or class) has ended, which is
    /// every set a backend prices from (module docs).
    #[inline]
    pub fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        let (slot, _) = self.probe(set);
        (self.keys[slot] != 0).then(|| {
            let r = &self.records[slot];
            // Relaxed: the barrier that ended the set's level (or class)
            // orders every write of this word before this load.
            (
                cost_from_ordered_bits(r.cost.load(Ordering::Relaxed)),
                r.rows,
            )
        })
    }

    /// The paper's `atomicMin` on the global table: records the candidate
    /// for the set in `slot` iff its `(cost, left)` [`candidate_key`] beats
    /// the incumbent's, under the slot's lock. Any number of threads may
    /// call this for the same slot; it converges to the exact minimum
    /// regardless of interleaving. Returns `true` if the candidate became
    /// (transiently, until a better one) the best.
    pub fn update(&self, slot: usize, left: RelSet, cost: f64) -> bool {
        debug_assert!(left.is_subset(RelSet(self.keys[slot])));
        let mine = candidate_key(cost, left);
        let mut best = self.lock(slot);
        let cost_word = &self.records[slot].cost;
        // Relaxed: every write of this word holds the lock we hold.
        if (cost_word.load(Ordering::Relaxed), *best) <= mine {
            return false;
        }
        cost_word.store(mine.0, Ordering::Relaxed);
        *best = mine.1;
        true
    }

    /// Takes `slot`'s lock, counting a wait for another writer in
    /// [`cas_retry_count`](Self::cas_retry_count).
    #[inline]
    fn lock(&self, slot: usize) -> MutexGuard<'_, u64> {
        let lock = &self.lefts[slot];
        lock.try_lock().unwrap_or_else(|_| {
            self.cas_retries.fetch_add(1, Ordering::Relaxed);
            lock.lock().expect(UNPOISONED)
        })
    }
}

impl std::fmt::Debug for AtomicMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicMemo")
            .field("health", &self.health())
            .finish()
    }
}

impl MemoStore for AtomicMemo {
    fn laid_out(n: usize, sets: &[RelSet], rows: &[f64]) -> Self {
        AtomicMemo::laid_out(n, sets, rows)
    }

    fn slot(&self, k: usize) -> usize {
        AtomicMemo::slot(self, k)
    }

    fn find(&self, set: RelSet) -> (usize, f64) {
        AtomicMemo::find(self, set)
    }

    fn get(&self, set: RelSet) -> Option<MemoEntry> {
        AtomicMemo::get(self, set)
    }

    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        AtomicMemo::cost_rows(self, set)
    }

    fn update(&mut self, slot: usize, left: RelSet, cost: f64) -> bool {
        AtomicMemo::update(self, slot, left, cost)
    }

    fn health(&self) -> MemoHealth {
        AtomicMemo::health(self)
    }

    /// The keys and records [`cost_rows`](Self::cost_rows) reads, read the
    /// way it reads them: plainly for the key and the rows, which the layout
    /// wrote before the table was shared, and without an ordering for the
    /// cost, which `cost_rows` loads `Relaxed`. No writer races such a read.
    /// A backend reads only sets of earlier levels (or classes), and the
    /// barrier that ended those orders every write of their records before
    /// any read in this one. A gathering kernel reads a record only where
    /// the key it read first is the set it looks up, or on a direct table,
    /// where the home slot is the set's own or a free one, which no writer
    /// names.
    fn lanes(&self) -> Option<MemoLanes<'_>> {
        Some(MemoLanes::Atomic {
            keys: &self.keys,
            records: &self.records,
            at: self.at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::{murmur3_fmix64, slots_for, MemoTable};

    /// The sets `1..=count` (as bitmaps), each of one row.
    fn numbered(count: u64) -> (Vec<RelSet>, Vec<f64>) {
        ((1..=count).map(RelSet).collect(), vec![1.0; count as usize])
    }

    #[test]
    fn a_laid_out_set_reads_unplanned_until_a_candidate_replaces_it() {
        let s = RelSet::from_indices([0, 1]);
        let sets = [RelSet::singleton(0), RelSet::singleton(1), s];
        let m = AtomicMemo::laid_out(2, &sets, &[100.0, 200.0, 5.0]);
        for (k, &set) in sets.iter().enumerate() {
            let e = m.get(set).unwrap();
            assert_eq!(
                (e.left, e.cost, e.right()),
                (set, f64::INFINITY, RelSet::EMPTY)
            );
            assert_eq!(m.find(set), (m.slot(k), e.rows));
            assert_eq!(m.cost_rows(set), Some((f64::INFINITY, e.rows)));
        }
        assert!(m.update(m.slot(0), RelSet::EMPTY, 7.0));
        assert!(m.update(m.slot(2), RelSet::singleton(1), f64::INFINITY));
        let (leaf, join) = (m.get(sets[0]).unwrap(), m.get(s).unwrap());
        assert!(leaf.is_leaf() && leaf.cost == 7.0 && leaf.rows == 100.0);
        assert_eq!(m.cost_rows(sets[0]), Some((7.0, 100.0)));
        assert_eq!(
            (join.left, join.right(), join.rows),
            (sets[1], sets[0], 5.0)
        );
        assert_eq!(m.cost_rows(s), Some((f64::INFINITY, 5.0)));
        assert!(m.get(RelSet::singleton(2)).is_none());
        assert!(m.get(RelSet::EMPTY).is_none());
        assert!(m.cost_rows(RelSet::singleton(2)).is_none());
        assert_eq!(m.health().entries, 3);
    }

    #[test]
    fn writing_a_set_that_was_not_laid_out_panics() {
        let (sets, rows) = numbered(100);
        let m = AtomicMemo::laid_out(64, &sets, &rows);
        assert_eq!(m.health().slots, slots_for(100));
        for (k, set) in sets.iter().enumerate() {
            m.update(m.slot(k), set.lowest_bit(), k as f64);
        }
        for (k, set) in sets.iter().enumerate() {
            assert_eq!(m.get(*set).unwrap().cost, k as f64);
        }
        let absent = std::panic::catch_unwind(|| m.find(RelSet(101)));
        let message = *absent
            .expect_err("no slot to name")
            .downcast::<String>()
            .unwrap();
        assert!(message.contains("was not laid out"), "{message}");
    }

    #[test]
    fn keeps_minimum_and_breaks_ties_like_memo_table() {
        let s = RelSet::from_indices([0, 1, 2]);
        let a = AtomicMemo::laid_out(3, &[s], &[1.0]);
        let mut t = MemoTable::laid_out(3, &[s], &[1.0]);
        let candidates = [
            (RelSet::from_indices([1, 2]), 10.0),
            (RelSet::singleton(0), 8.0),
            (RelSet::singleton(1), 8.0), // tie with a larger left
            (RelSet::from_indices([0, 1]), 9.0),
        ];
        for &(left, cost) in &candidates {
            assert_eq!(
                a.update(a.slot(0), left, cost),
                t.update(t.slot(0), left, cost)
            );
        }
        let (ea, et) = (a.get(s).unwrap(), t.get(s).unwrap());
        assert_eq!(ea.left, et.left);
        assert_eq!(ea.cost.to_bits(), et.cost.to_bits());
        assert_eq!(ea.left, RelSet::singleton(0));
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
        // 8 threads race interleaved updates over a shared, laid-out key
        // space, including exact-cost ties; the table must converge to the
        // same (cost, left) the sequential table computes — under either
        // addressing: 64 entries get 128 = 2⁷ slots, so a table over the
        // seven relations the keys name is direct. Key `k` is plan position
        // `k - 1`.
        let (sets, rows) = numbered(KEYS);
        let mut expect = MemoTable::laid_out(64, &sets, &rows);
        let mut proposed = std::collections::HashSet::new();
        for t in 0..THREADS {
            for (key, left, cost) in candidates(t) {
                expect.update(expect.slot(key.bits() as usize - 1), left, cost);
                proposed.insert((key.bits(), left.bits(), ordered_cost_bits(cost)));
            }
        }
        for universe in [64, 7] {
            let memo = &AtomicMemo::laid_out(universe, &sets, &rows);
            assert_eq!(memo.at.is_direct(), universe == 7);
            // The barrier starts every stream at once: a stream takes about
            // as long as spawning a thread, so unsynchronized threads would
            // barely overlap.
            let start = &std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    scope.spawn(move || {
                        start.wait();
                        for (key, left, cost) in candidates(t) {
                            memo.update(memo.slot(key.bits() as usize - 1), left, cost);
                        }
                    });
                }
            });
            for &set in &sets {
                let (got, want) = (memo.get(set).unwrap(), expect.get(set).unwrap());
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "key {set}");
                assert_eq!(got.left, want.left, "key {set}");
                // The narrow lookup reads the record, never the lock, and
                // must read the winner's cost and rows to the bit.
                let (cost, rows) = memo.cost_rows(set).unwrap();
                assert_eq!(
                    (cost.to_bits(), rows.to_bits()),
                    (got.cost.to_bits(), got.rows.to_bits()),
                    "key {set}"
                );
            }
            // No torn pair: every laid-out slot's final (cost, left) is a
            // candidate some thread proposed, or the unplanned (∞, S).
            for (slot, &key) in memo.keys.iter().enumerate() {
                if key == 0 {
                    continue;
                }
                let cost = memo.records[slot].cost.load(Ordering::Relaxed);
                let left = *memo.lefts[slot].lock().unwrap();
                assert!(
                    proposed.contains(&(key, left, cost))
                        || (cost, left) == (ordered_cost_bits(f64::INFINITY), key),
                    "slot {slot} holds ({}, {left:#b}), never proposed for {key:#b}",
                    cost_from_ordered_bits(cost)
                );
            }
        }
    }

    #[test]
    fn a_fitting_universe_takes_one_probe_per_set_and_lookup() {
        // The hammer's streams, single-threaded, into a direct table: the
        // layout and every find are one probe each, every key sits in the
        // slot its bitmap names (so a lookup reads that one slot), and the
        // entries are the hashed sequential table's.
        let (sets, rows) = numbered(KEYS);
        let memo = AtomicMemo::laid_out(7, &sets, &rows);
        let mut hashed = MemoTable::laid_out(64, &sets, &rows);
        assert_eq!(memo.probe_count(), KEYS);
        assert_eq!((1..=7).map(|i| memo.layout_probes(i)).sum::<u64>(), KEYS);
        let mut finds = KEYS;
        for t in 0..THREADS {
            for (key, left, cost) in candidates(t) {
                memo.update(memo.find(key).0, left, cost);
                hashed.update(hashed.find(key).0, left, cost);
                finds += 1;
            }
        }
        assert_eq!((memo.probe_count(), memo.cas_retry_count()), (finds, 0));
        for (slot, &key) in memo.keys.iter().enumerate() {
            assert!(key == 0 || key == slot as u64, "{key} in slot {slot}");
        }
        for &set in &sets {
            let (got, want) = (memo.get(set).unwrap(), hashed.get(set).unwrap());
            assert_eq!(
                (got.left, got.cost.to_bits()),
                (want.left, want.cost.to_bits())
            );
        }
    }

    #[test]
    fn an_unfitting_universe_hashes_as_before() {
        // Sixteen relations are more than a memo addresses directly and do
        // not fit 128 slots: the home slot is the top seven bits of
        // k · 2⁶⁴/φ, exactly as for a table over any relations.
        let (sets, rows) = numbered(KEYS);
        let memo = AtomicMemo::laid_out(16, &sets, &rows);
        assert_eq!(memo.at, Addressing::for_universe(64, KEYS as usize));
        assert!(!memo.at.is_direct());
        let mask = memo.keys.len() - 1;
        assert_eq!(memo.keys.len(), 128);
        for k in 1..=KEYS {
            let mut idx = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as usize;
            while memo.keys[idx] != k {
                assert_ne!(memo.keys[idx], 0, "key {k}");
                idx = (idx + 1) & mask;
            }
            assert_eq!(idx, memo.slot(k as usize - 1));
        }
    }
}
