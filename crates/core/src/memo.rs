//! The DP memo table.
//!
//! The paper's GPU implementation (§5) keeps the memo as "a simple
//! open-addressing hash table" keyed by the relation-set bitmap and hashed
//! with Murmur3. We use the same structure for *all* optimizers (CPU
//! sequential, CPU parallel and simulated GPU) so that memory behaviour and
//! results are identical across them. Where a set starts its probe is the
//! one thing that depends on the query ([`Addressing`]): when every subset of
//! the query's `n` relations has a slot of its own in the table the memo
//! creates anyway (`2ⁿ ≤` [`slots_for`]`(entries)` — stars, cliques), the
//! set's bitmap *is* its slot and no hash is computed; otherwise the home
//! slot is the Murmur3 finalizer of the bitmap, as in the paper. Both use the
//! same slot count, so the choice never costs memory.
//!
//! Each entry stores the best plan found so far for a set `S`: its cost, its
//! (split-invariant) output cardinality and the left side of the winning
//! split. The right side is implicit (`S \ left`), which keeps an entry at 32
//! bytes. Plans are reconstructed by walking the table from the root set —
//! exactly how the paper extracts the final join tree from GPU memory.
//!
//! Two implementations share the [`MemoStore`] interface: this module's
//! single-threaded [`MemoTable`] and the lock-free
//! [`AtomicMemo`](crate::atomic_memo::AtomicMemo) that the parallel backends
//! update in place (the CPU analogue of the paper's global hash table with
//! `atomicMin`). Both break best-plan ties on `(cost, left.bits())` so the
//! winning split is a pure function of the candidate *set*, never of the
//! order — sequential, thread-interleaved or simulated-SIMT — in which
//! candidates arrive.

use crate::bitset::RelSet;

/// Murmur3 64-bit finalizer — the hash the paper uses for its GPU memo.
#[inline]
pub fn murmur3_fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// Maps an `f64` cost to a `u64` whose unsigned order matches the float
/// order (the standard IEEE-754 total-order fold).
///
/// For non-negative finite floats the raw bit pattern is already
/// monotonically increasing, so on the costs a cost model produces the fold
/// reduces to setting the sign bit — a constant offset that preserves every
/// comparison (it is *not* the identity on the bits; always compare two
/// folded values, never a folded value against raw `to_bits`). For negative
/// inputs the fold inverts all bits, keeping the mapping a total order even
/// for `-0.0` or negative values rather than relying on the caller never
/// producing them.
#[inline]
pub fn ordered_cost_bits(cost: f64) -> u64 {
    let b = cost.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// The `(cost, left)` ordering key under which every memo keeps the minimum:
/// lexicographic on (order-preserving cost bits, left bitmap). All stores —
/// sequential [`MemoTable`] and concurrent
/// [`AtomicMemo`](crate::atomic_memo::AtomicMemo) — use this exact key, which
/// is what makes plans bit-identical across backends and worker counts even
/// on exact cost ties.
#[inline]
pub fn candidate_key(cost: f64, left: RelSet) -> (u64, u64) {
    (ordered_cost_bits(cost), left.bits())
}

/// Slots an open-addressing memo allocates to hold `entries` at no more than
/// 70 % load (a power of two, at least 16) — the one sizing rule of both
/// stores, and the bound past which [`MemoTable`] refuses a new entry.
#[inline]
pub fn slots_for(entries: usize) -> usize {
    ((entries + 1) * 10 / 7 + 1).next_power_of_two().max(16)
}

/// Where a set's probe starts in a memo of [`slots_for`]`(entries)` slots,
/// and where it goes on a collision — the addressing both stores use, chosen
/// once per table by [`Addressing::for_universe`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Addressing {
    mask: usize,
    direct: bool,
}

impl Addressing {
    /// The one choice, from the number `n` of relations a key may name and
    /// the `entries` the table is created for. The table gets
    /// [`slots_for`]`(entries)` slots either way. If that is at least `2ⁿ`,
    /// every subset of the `n` relations has a slot of its own and a set's
    /// bitmap is its home slot: the map is injective, so every lookup and
    /// insert hits on its first probe, and a level's ascending sets land in
    /// ascending slots. Otherwise the home slot is the Murmur3 finalizer of
    /// the bitmap. `n = 64` (any set) always hashes.
    pub fn for_universe(n: usize, entries: usize) -> Self {
        let slots = slots_for(entries);
        Addressing {
            mask: slots - 1,
            direct: n < 64 && 1u64 << n <= slots as u64,
        }
    }

    /// Number of slots.
    #[inline]
    pub fn slots(self) -> usize {
        self.mask + 1
    }

    /// `true` if a set's bitmap is its slot (no hash, no collision).
    #[inline]
    pub fn is_direct(self) -> bool {
        self.direct
    }

    /// The slot a probe for the set `bits` starts at. A key outside the
    /// announced universe still lands in range (the mask) and is found by
    /// the linear probe like any hashed key.
    #[inline]
    pub fn home(self, bits: u64) -> usize {
        let h = if self.direct {
            bits
        } else {
            murmur3_fmix64(bits)
        };
        h as usize & self.mask
    }

    /// The slot after `idx` in the linear probe.
    #[inline]
    pub fn next(self, idx: usize) -> usize {
        (idx + 1) & self.mask
    }
}

/// Point-in-time health metrics of a memo store (observability for the
/// bench reports; none of these feed back into planning).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoHealth {
    /// Occupied entries.
    pub entries: usize,
    /// Total slots (open-addressing capacity).
    pub slots: usize,
    /// Cumulative linear-probe steps taken by inserts.
    pub probes: u64,
    /// Cumulative CAS retries (always 0 for the single-threaded table).
    pub cas_retries: u64,
}

impl MemoHealth {
    /// `entries / slots` (0.0 for an empty table).
    pub fn load_factor(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.entries as f64 / self.slots as f64
        }
    }
}

/// The interface every DP backend's memo speaks: creation at a known size,
/// leaf loading, best-plan lookup and the Algorithm-1 `insert_if_better`
/// update. Implemented by the single-threaded [`MemoTable`] and the
/// lock-free [`AtomicMemo`](crate::atomic_memo::AtomicMemo); `mpdp-dp`'s
/// shared plumbing (`init_memo` / `emit_pair` / `finish` /
/// [`extract_plan`](crate::plan::extract_plan)) is generic over it, so the
/// sequential algorithms are untouched while the parallel ones swap in the
/// shared-state table.
///
/// Writes take `&mut self` here; `AtomicMemo` additionally exposes the same
/// operations through `&self` for concurrent workers (the trait methods
/// simply delegate).
pub trait MemoStore {
    /// Creates a store that takes `expected` entries, each a set over the
    /// relations `0..n`, without re-hashing (at most 70 % full, see
    /// [`slots_for`]; addressed as [`Addressing::for_universe`] decides).
    fn for_universe(n: usize, expected: usize) -> Self
    where
        Self: Sized;

    /// Number of entries.
    fn len(&self) -> usize;

    /// `true` if no entry is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the best entry for `set`.
    fn get(&self, set: RelSet) -> Option<MemoEntry>;

    /// Inserts a leaf entry for a base relation.
    fn insert_leaf(&mut self, rel: usize, rows: f64, cost: f64);

    /// Records a candidate plan for `set`, keeping it only if its
    /// [`candidate_key`] beats the incumbent's. Returns `true` if the
    /// candidate became the new best. `rows` is the cardinality of `set` —
    /// a property of the set, so every candidate for it must carry the same
    /// value (the exact backends read it off their level plan).
    fn insert_if_better(&mut self, set: RelSet, left: RelSet, cost: f64, rows: f64) -> bool;

    /// Current health metrics.
    fn health(&self) -> MemoHealth;
}

/// One memo entry: the best plan known for the key set.
#[derive(Copy, Clone, Debug)]
pub struct MemoEntry {
    /// The relation set (never empty for occupied slots).
    pub set: RelSet,
    /// Left side of the best split; `RelSet::EMPTY` marks a leaf (base rel).
    pub left: RelSet,
    /// Total cost of the best plan for `set`.
    pub cost: f64,
    /// Estimated output rows of `set` (identical for all plans of `set`).
    pub rows: f64,
}

impl MemoEntry {
    /// The right side of the best split (empty for leaves).
    #[inline]
    pub fn right(&self) -> RelSet {
        self.set.difference(self.left)
    }

    /// `true` if this entry is a base relation.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left.is_empty()
    }
}

/// Open-addressing (linear probing) memo table keyed by `RelSet`.
#[derive(Clone, Debug)]
pub struct MemoTable {
    slots: Vec<Slot>,
    at: Addressing,
    len: usize,
    /// Number of probe steps performed (useful for the GPU memory model).
    probes: u64,
}

#[derive(Copy, Clone, Debug)]
struct Slot {
    key: u64, // 0 = empty (the empty set is never memoized)
    left: u64,
    cost: f64,
    rows: f64,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    left: 0,
    cost: 0.0,
    rows: 0.0,
};

impl MemoTable {
    /// Creates a table that takes `expected` entries over any relations
    /// (hashed); it never grows.
    pub fn with_capacity(expected: usize) -> Self {
        MemoTable::for_universe(64, expected)
    }

    /// Creates a table that takes `expected` sets over the relations `0..n`;
    /// it never grows.
    pub fn for_universe(n: usize, expected: usize) -> Self {
        let at = Addressing::for_universe(n, expected);
        MemoTable {
            slots: vec![EMPTY_SLOT; at.slots()],
            at,
            len: 0,
            probes: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entry is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total linear-probe steps taken so far (diagnostics).
    #[inline]
    pub fn probe_count(&self) -> u64 {
        self.probes
    }

    /// Counts the entry an insert just put into an empty slot — the one
    /// place `len` rises. Panics past 70 % load, i.e. on a caller that inserts
    /// more sets than it announced (no optimizer does: each creates its memo
    /// for every set its level plan counted); a linear-probe table allowed to
    /// fill up would never end the probe for an absent key.
    #[inline]
    fn count_new_entry(&mut self) {
        self.len += 1;
        assert!(
            self.len * 10 <= self.slots.len() * 7,
            "MemoTable full: with_capacity() must cover every set the run inserts"
        );
    }

    /// Looks up the best entry for `set`.
    pub fn get(&self, set: RelSet) -> Option<MemoEntry> {
        if set.is_empty() {
            return None;
        }
        let mut idx = self.at.home(set.bits());
        loop {
            let s = self.slots[idx];
            if s.key == 0 {
                return None;
            }
            if s.key == set.bits() {
                return Some(MemoEntry {
                    set,
                    left: RelSet(s.left),
                    cost: s.cost,
                    rows: s.rows,
                });
            }
            idx = self.at.next(idx);
        }
    }

    /// Inserts a leaf entry for a base relation.
    pub fn insert_leaf(&mut self, rel: usize, rows: f64, cost: f64) {
        let leaf = Slot {
            key: RelSet::singleton(rel).bits(),
            left: 0,
            cost,
            rows,
        };
        let mut idx = self.at.home(leaf.key);
        while self.slots[idx].key != 0 && self.slots[idx].key != leaf.key {
            idx = self.at.next(idx);
        }
        let new = self.slots[idx].key == 0;
        self.slots[idx] = leaf;
        if new {
            self.count_new_entry();
        }
    }

    /// Records a candidate plan for `set` with the given split and cost,
    /// keeping it only if it beats the incumbent (Algorithm 1, lines 20–21)
    /// under the deterministic [`candidate_key`] order — strictly cheaper
    /// wins, exact cost ties go to the smaller `left` bitmap. Returns `true`
    /// if the candidate became the new best.
    pub fn insert_if_better(&mut self, set: RelSet, left: RelSet, cost: f64, rows: f64) -> bool {
        debug_assert!(!set.is_empty() && left.is_subset(set));
        let mut idx = self.at.home(set.bits());
        loop {
            self.probes += 1;
            let s = &mut self.slots[idx];
            if s.key == 0 {
                *s = Slot {
                    key: set.bits(),
                    left: left.bits(),
                    cost,
                    rows,
                };
                self.count_new_entry();
                return true;
            }
            if s.key == set.bits() {
                // `rows` belongs to the set, not to the plan: it was stored
                // with the first candidate and every later one carries the
                // same value.
                debug_assert_eq!(s.rows.to_bits(), rows.to_bits(), "rows of {set}");
                if candidate_key(cost, left) < (ordered_cost_bits(s.cost), s.left) {
                    s.left = left.bits();
                    s.cost = cost;
                    return true;
                }
                return false;
            }
            idx = self.at.next(idx);
        }
    }

    /// Iterates over all occupied entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = MemoEntry> + '_ {
        self.slots.iter().filter(|s| s.key != 0).map(|s| MemoEntry {
            set: RelSet(s.key),
            left: RelSet(s.left),
            cost: s.cost,
            rows: s.rows,
        })
    }
}

impl MemoStore for MemoTable {
    fn for_universe(n: usize, expected: usize) -> Self {
        MemoTable::for_universe(n, expected)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, set: RelSet) -> Option<MemoEntry> {
        MemoTable::get(self, set)
    }

    fn insert_leaf(&mut self, rel: usize, rows: f64, cost: f64) {
        MemoTable::insert_leaf(self, rel, rows, cost)
    }

    fn insert_if_better(&mut self, set: RelSet, left: RelSet, cost: f64, rows: f64) -> bool {
        MemoTable::insert_if_better(self, set, left, cost, rows)
    }

    fn health(&self) -> MemoHealth {
        MemoHealth {
            entries: self.len,
            slots: self.slots.len(),
            probes: self.probes,
            cas_retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur_mixes() {
        // Finalizer is a bijection; a few sanity spot checks.
        assert_ne!(murmur3_fmix64(1), 1);
        assert_ne!(murmur3_fmix64(1), murmur3_fmix64(2));
        assert_eq!(murmur3_fmix64(0), 0); // fixed point of the finalizer
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut m = MemoTable::with_capacity(4);
        m.insert_leaf(3, 100.0, 7.0);
        let e = m.get(RelSet::singleton(3)).unwrap();
        assert!(e.is_leaf());
        assert_eq!(e.rows, 100.0);
        assert_eq!(e.cost, 7.0);
        assert!(m.get(RelSet::singleton(2)).is_none());
    }

    #[test]
    fn insert_if_better_keeps_minimum() {
        let mut m = MemoTable::with_capacity(4);
        let s = RelSet::from_indices([0, 1]);
        let l = RelSet::singleton(0);
        let r = RelSet::singleton(1);
        assert!(m.insert_if_better(s, l, 10.0, 5.0));
        assert!(!m.insert_if_better(s, r, 12.0, 5.0)); // worse: rejected
        assert_eq!(m.get(s).unwrap().left, l);
        assert!(m.insert_if_better(s, r, 8.0, 5.0)); // better: replaces
        let e = m.get(s).unwrap();
        assert_eq!(e.left, r);
        assert_eq!(e.cost, 8.0);
        assert_eq!(e.right(), l);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn ties_break_on_left_bits() {
        let mut m = MemoTable::with_capacity(4);
        let s = RelSet::from_indices([0, 1, 2]);
        let hi = RelSet::from_indices([1, 2]);
        let lo = RelSet::singleton(0);
        assert!(m.insert_if_better(s, hi, 5.0, 1.0));
        // Equal cost, smaller left bitmap: replaces.
        assert!(m.insert_if_better(s, lo, 5.0, 1.0));
        assert_eq!(m.get(s).unwrap().left, lo);
        // Equal cost, larger left bitmap: rejected.
        assert!(!m.insert_if_better(s, hi, 5.0, 1.0));
        // Exact duplicate: rejected (not an improvement).
        assert!(!m.insert_if_better(s, lo, 5.0, 1.0));
        assert_eq!(m.get(s).unwrap().left, lo);
    }

    #[test]
    fn ordered_cost_bits_monotone() {
        let vals = [-1.0, -0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 1e300, f64::INFINITY];
        for w in vals.windows(2) {
            // Strict except the -0.0/0.0 pair, which the total order splits.
            assert!(
                ordered_cost_bits(w[0]) < ordered_cost_bits(w[1]),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn iter_visits_all() {
        let mut m = MemoTable::with_capacity(20);
        for i in 0..20u64 {
            m.insert_if_better(RelSet(i + 1), RelSet(i + 1).lowest_bit(), 1.0, 1.0);
        }
        assert_eq!(m.iter().count(), 20);
    }

    #[test]
    fn with_capacity_holds_its_entries_and_updates_them_at_full_size() {
        for expected in [0usize, 1, 10, 11, 300, 16_398, 32_783] {
            let mut m = MemoTable::with_capacity(expected);
            let slots = m.slots.len();
            assert_eq!(slots, slots_for(expected));
            assert!(slots * 7 >= expected * 10, "≤ 70 % load for {expected}");
            for i in 0..expected as u64 {
                m.insert_if_better(RelSet(i + 1), RelSet(i + 1).lowest_bit(), i as f64, 1.0);
            }
            assert_eq!((m.slots.len(), m.len()), (slots, expected));
        }
        // A table at exactly the load bound (11 of 16 slots) still takes
        // updates of the sets it holds: only a new entry can overfill it.
        let mut m = MemoTable::with_capacity(10);
        assert_eq!(m.slots.len(), 16);
        for rel in 0..11 {
            m.insert_leaf(rel, 1.0, 2.0);
        }
        m.insert_leaf(3, 5.0, 1.0);
        assert!(m.insert_if_better(RelSet::singleton(4), RelSet::EMPTY, 1.0, 1.0));
        assert_eq!(
            (m.len(), m.get(RelSet::singleton(3)).unwrap().rows),
            (11, 5.0)
        );
    }

    #[test]
    fn addressing_is_direct_exactly_when_every_subset_has_a_slot() {
        // (n, entries): a star of n relations has 2ⁿ⁻¹ + n − 1 connected
        // sets, which slots_for rounds up to exactly 2ⁿ slots; 16 398 is
        // IDP2's and UnionDP's 15-relation star-like sub-problem.
        for (n, entries) in [(14, 8_205), (16, 32_783), (15, 16_398), (10, 1_023), (4, 0)] {
            let at = Addressing::for_universe(n, entries);
            assert!(at.is_direct(), "{n} relations, {entries} entries");
            assert_eq!(at.slots(), slots_for(entries));
        }
        for (n, entries) in [(17, 16_398), (5, 0), (20, 6_000), (64, 1 << 20)] {
            let at = Addressing::for_universe(n, entries);
            assert!(!at.is_direct(), "{n} relations, {entries} entries");
            assert_eq!(at, Addressing::for_universe(64, entries));
        }
    }

    /// Every non-empty subset of `0..n` several times over, in a scrambled
    /// order, with few distinct costs (exact ties) and a `left` that depends
    /// on the draw.
    fn subset_stream(n: u32, rounds: u64) -> impl Iterator<Item = (RelSet, RelSet, f64)> {
        let full = (1u64 << n) - 1;
        (0..rounds * full).map(move |i| {
            let h = murmur3_fmix64(i);
            let set = RelSet(h % full + 1);
            let left = RelSet((h >> 20) & set.bits()).lowest_bit();
            let left = if left.is_empty() {
                set.lowest_bit()
            } else {
                left
            };
            (set, left, ((h >> 40) % 5) as f64)
        })
    }

    #[test]
    fn a_fitting_universe_takes_one_probe_per_insert_and_lookup() {
        let n = 10;
        let entries = (1 << n) - 1;
        let mut direct = MemoTable::for_universe(n as usize, entries);
        let mut hashed = MemoTable::with_capacity(entries);
        assert!(direct.at.is_direct() && !hashed.at.is_direct());
        let mut inserts = 0;
        for (set, left, cost) in subset_stream(n, 3) {
            assert_eq!(
                direct.insert_if_better(set, left, cost, 1.0),
                hashed.insert_if_better(set, left, cost, 1.0)
            );
            inserts += 1;
            assert_eq!(direct.probe_count(), inserts, "one probe per insert");
        }
        assert!(hashed.probe_count() > inserts, "the hashed table collides");
        // Every key sits in the slot its bitmap names, so a lookup reads
        // that one slot; and the entries are the hashed table's.
        for (slot, s) in direct.slots.iter().enumerate() {
            assert!(s.key == 0 || s.key == slot as u64, "{} in {slot}", s.key);
        }
        assert_eq!(direct.len(), hashed.len());
        for e in hashed.iter() {
            let got = direct.get(e.set).unwrap();
            assert_eq!((got.left, got.cost.to_bits()), (e.left, e.cost.to_bits()));
        }
    }

    #[test]
    fn an_unfitting_universe_hashes_as_before() {
        // The same stream into a table over 20 relations (which does not
        // fit) and one over any relations: the same slots, probe for probe,
        // and each key reached from its Murmur3 home slot.
        let entries = 700;
        let mut narrow = MemoTable::for_universe(20, entries);
        let mut any = MemoTable::with_capacity(entries);
        for (set, left, cost) in subset_stream(20, 1).take(entries) {
            narrow.insert_if_better(set, left, cost, 1.0);
            any.insert_if_better(set, left, cost, 1.0);
        }
        assert_eq!(narrow.probe_count(), any.probe_count());
        let keys = |m: &MemoTable| m.slots.iter().map(|s| s.key).collect::<Vec<_>>();
        assert_eq!(keys(&narrow), keys(&any));
        let mask = narrow.slots.len() - 1;
        for e in narrow.iter() {
            let mut idx = murmur3_fmix64(e.set.bits()) as usize & mask;
            while narrow.slots[idx].key != e.set.bits() {
                assert_ne!(narrow.slots[idx].key, 0, "{}", e.set);
                idx = (idx + 1) & mask;
            }
        }
    }

    #[test]
    fn empty_set_lookup_is_none() {
        let m = MemoTable::with_capacity(4);
        assert!(m.get(RelSet::empty()).is_none());
    }
}
