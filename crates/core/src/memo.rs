//! The DP memo table.
//!
//! The paper's GPU implementation (§5) keeps the memo as "a simple
//! open-addressing hash table" keyed by the relation-set bitmap and hashed
//! with Murmur3. We use the same structure for *all* optimizers (CPU
//! sequential, CPU parallel and simulated GPU) so that memory behaviour and
//! results are identical across them. Where a set starts its probe is the
//! one thing that depends on the query ([`Addressing`]): a query of at most
//! [`DIRECT_MAX`] = 15 relations gets a slot for every subset of its
//! relations (at most 2¹⁵ slots, 1 MiB of them), as does any query whose
//! table has that many slots anyway (`2ⁿ ≤` [`slots_for`]`(entries)` —
//! stars, cliques); there the set's bitmap *is* its slot and no hash is
//! computed. Otherwise the home slot is the multiply-shift hash of the
//! bitmap (Dietzfelbinger et al., 1997): one multiply by the 64-bit golden
//! ratio, the top `log₂ slots` bits of the product. Here the repository
//! departs from the paper's Murmur3. A lookup is on the critical path of
//! every split, and Murmur3's finalizer is about 12 dependent cycles before
//! the load can issue, where multiply-shift is a multiply and a shift. On
//! the connected-set families measured, its layouts take fewer probes
//! overall than Murmur3's (DESIGN §4 "One lookup"; `tests/memo_addressing.rs`
//! holds each shape to bounds calibrated from Murmur3 on the same sets).
//! Above 15 relations both addressings use the same slot count, so the
//! choice costs no memory there.
//!
//! Every exact backend knows every connected set, with its cardinality,
//! before it prices the first split (the level plan,
//! [`ConnectedSets`](crate::enumerate::ConnectedSets)). So a memo is *laid
//! out* once from that plan ([`MemoStore::laid_out`]): each set's key and
//! cardinality are written into the slot its probe reaches, single-threaded,
//! before any worker exists, and never move again. A laid-out set reads as
//! *unplanned* — infinite cost, the whole set as its left side — until a
//! candidate replaces it. Every write then names its slot
//! ([`MemoStore::update`]): a level-synchronous driver takes it from the
//! layout by plan position ([`MemoStore::slot`]), a driver that meets a set
//! as the union of a pair from its one lookup of that union
//! ([`MemoStore::find`]), which also yields the set's cardinality. Pricing a
//! split reads each side's best cost and cardinality and nothing else
//! ([`MemoStore::cost_rows`]): one probe, one slot.
//!
//! Each entry stores the best plan found so far for a set `S`: its cost, its
//! (split-invariant) output cardinality and the left side of the winning
//! split. The right side is implicit (`S \ left`), which keeps an entry at 32
//! bytes. Plans are reconstructed by walking the table from the root set —
//! exactly how the paper extracts the final join tree from GPU memory.
//!
//! Two implementations share the [`MemoStore`] interface: this module's
//! single-threaded [`MemoTable`] and the shared
//! [`AtomicMemo`](crate::atomic_memo::AtomicMemo) that the parallel backends
//! update in place (the CPU analogue of the paper's global hash table with
//! `atomicMin`). Both lay a plan out into the same slots and break best-plan
//! ties on `(cost, left.bits())`, so the winning split is a pure function of
//! the candidate *set*, never of the order — sequential, thread-interleaved
//! or simulated-SIMT — in which candidates arrive.

use crate::bitset::RelSet;
use std::cell::Cell;

/// Murmur3 64-bit finalizer — the hash the paper uses for its GPU memo, and
/// the workspace's general-purpose mixer (fingerprints, the hash ring,
/// seeded streams). The memo stores address by [`Addressing`] instead.
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

/// The inverse of [`ordered_cost_bits`]: the cost whose folded bits are
/// `ordered`, bit for bit (NaN payloads and the sign of zero included).
#[inline]
pub fn cost_from_ordered_bits(ordered: u64) -> f64 {
    // A set top bit was a non-negative cost, whose fold set the sign bit;
    // a clear one was a negative cost, whose fold inverted every bit.
    f64::from_bits(ordered ^ (!(((ordered as i64) >> 63) as u64) | 0x8000_0000_0000_0000))
}

/// The `(cost, left)` ordering key under which every memo keeps the minimum:
/// lexicographic on (order-preserving cost bits, left bitmap). All stores —
/// sequential [`MemoTable`] and concurrent
/// [`AtomicMemo`](crate::atomic_memo::AtomicMemo) — use this exact key, which
/// is what makes plans bit-identical across backends and worker counts even
/// on exact cost ties.
///
/// A laid-out set that no candidate has replaced yet holds `(∞, S)`, which
/// loses to every real candidate: a split's left side is a proper subset of
/// `S`, hence a smaller bitmap, and a leaf's is empty.
#[inline]
pub fn candidate_key(cost: f64, left: RelSet) -> (u64, u64) {
    (ordered_cost_bits(cost), left.bits())
}

/// Slots an open-addressing memo needs to hold `entries` at no more than
/// 70 % load (a power of two, at least 16) — the one sizing rule of both
/// stores, which [`Addressing::for_universe`] raises to `2ⁿ` for a universe
/// of at most [`DIRECT_MAX`] relations.
#[inline]
pub fn slots_for(entries: usize) -> usize {
    ((entries + 1) * 10 / 7 + 1).next_power_of_two().max(16)
}

/// The most relations a memo addresses directly however few sets it holds:
/// up to here every subset of the universe gets a slot, at most 2¹⁵ of them
/// (1 MiB of [`MemoTable`] slots, 1.25 MiB of
/// [`AtomicMemo`](crate::atomic_memo::AtomicMemo) ones). IDP2's and
/// UnionDP's sub-problems are 15 relations, so every one of them takes one
/// probe per lookup and no multiply (DESIGN §4 "Every split on lanes").
pub const DIRECT_MAX: usize = 15;

/// The multiplier of the hashed home slot: `2⁶⁴ / φ`, odd. Public for the
/// one kernel that computes homes eight at a time ([`MemoLanes`]).
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// How many slots a memo has, where a set's probe starts and where it goes
/// on a collision — the addressing both stores use, chosen once per table by
/// [`Addressing::for_universe`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Addressing {
    mask: usize,
    /// `64 − log₂ slots`: a hashed home is the product's top bits.
    shift: u32,
    direct: bool,
}

impl Addressing {
    /// The one choice, from the number `n` of relations a key may name and
    /// the `entries` the table is created for. The table gets
    /// [`slots_for`]`(entries)` slots, or `2ⁿ` if that is more and `n ≤`
    /// [`DIRECT_MAX`]. If the slots are at least `2ⁿ`, every subset of the
    /// `n` relations has a slot of its own and a set's bitmap is its home
    /// slot: the map is injective, so every probe ends at its first slot,
    /// and a level's ascending sets land in ascending slots. Otherwise the
    /// home slot is the multiply-shift hash of the bitmap. `n = 64` (any
    /// set) always hashes.
    pub fn for_universe(n: usize, entries: usize) -> Self {
        let mut slots = slots_for(entries);
        if n <= DIRECT_MAX {
            slots = slots.max(1 << n);
        }
        Addressing {
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
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

    /// `64 − log₂ slots`: how far a hashed home shifts the product.
    #[inline]
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// The slot a probe for the set `bits` starts at: the bitmap itself on a
    /// direct table, else the top `log₂ slots` bits of `bits · 2⁶⁴/φ` — one
    /// multiply and one shift, where Murmur3's finalizer is two multiplies
    /// and three shift-xors in a dependent chain. A key outside the
    /// announced universe still lands in range (the mask) and is found by
    /// the linear probe like any hashed key.
    #[inline]
    pub fn home(self, bits: u64) -> usize {
        if self.direct {
            bits as usize & self.mask
        } else {
            (bits.wrapping_mul(GOLDEN) >> self.shift) as usize
        }
    }

    /// Walks the linear probe of the set `bits` — `key(slot)` reads a slot's
    /// key, 0 for a free slot — to the first slot that holds `bits` or is
    /// free, and returns it with the number of slots read. The walk ends
    /// because a table is at most 70 % full.
    #[inline]
    pub fn probe(self, bits: u64, key: impl Fn(usize) -> u64) -> (usize, u64) {
        let (mut idx, mut steps) = (self.home(bits), 1);
        loop {
            let k = key(idx);
            if k == bits || k == 0 {
                return (idx, steps);
            }
            idx = (idx + 1) & self.mask;
            steps += 1;
        }
    }
}

/// Point-in-time health metrics of a memo store (observability for the
/// bench reports; none of these feed back into planning).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoHealth {
    /// Laid-out entries: every set of the level plan.
    pub entries: usize,
    /// Total slots (open-addressing capacity).
    pub slots: usize,
    /// Cumulative linear-probe steps taken by the layout and by
    /// [`MemoStore::find`].
    pub probes: u64,
    /// Cumulative updates that found their slot's lock held by another
    /// writer (always 0 for the single-threaded table).
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

/// The interface every DP backend's memo speaks: one layout from the level
/// plan, a slot per set, best-plan lookup and the Algorithm-1 best-plan
/// update by slot. Implemented by the single-threaded [`MemoTable`] and the
/// shared [`AtomicMemo`](crate::atomic_memo::AtomicMemo); `mpdp-dp`'s
/// shared plumbing (`init_memo` / `emit_pair` / `finish` /
/// [`extract_plan`](crate::plan::extract_plan)) is generic over it, so the
/// sequential algorithms are untouched while the parallel ones swap in the
/// shared-state table.
///
/// Writes take `&mut self` here; `AtomicMemo` additionally exposes the same
/// operations through `&self` for concurrent workers (the trait methods
/// simply delegate).
pub trait MemoStore {
    /// Lays out a store for the sets `sets` over the relations `0..n`, each
    /// with its cardinality `rows[k]` and reading as unplanned, in the slots
    /// and at the addressing [`Addressing::for_universe`]`(n, sets.len())`
    /// decides. No set may appear twice.
    fn laid_out(n: usize, sets: &[RelSet], rows: &[f64]) -> Self
    where
        Self: Sized;

    /// The slot `sets[k]` was laid out in.
    fn slot(&self, k: usize) -> usize;

    /// The slot of the laid-out `set` and its cardinality, found by its
    /// probe. Panics if `set` was not laid out: no write can name it.
    fn find(&self, set: RelSet) -> (usize, f64);

    /// Looks up the best entry for `set`; `None` if it was not laid out.
    fn get(&self, set: RelSet) -> Option<MemoEntry>;

    /// The cost of the best plan for `set` (∞ while unplanned) and its
    /// cardinality — all a split reads of a side, and so all that
    /// `mpdp-dp`'s pricing looks up; `None` if `set` was not laid out. The
    /// two are [`get`](Self::get)'s `cost` and `rows`, to the bit, read from
    /// the set's one slot.
    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)>;

    /// Records a candidate plan — split `left`, total `cost` — for the set
    /// in `slot`, keeping it only if its [`candidate_key`] beats the
    /// incumbent's (Algorithm 1, lines 20–21). Returns `true` if the
    /// candidate became the new best.
    fn update(&mut self, slot: usize, left: RelSet, cost: f64) -> bool;

    /// Current health metrics.
    fn health(&self) -> MemoHealth;

    /// The store's lookup words as a read-only [`MemoLanes`] view, for a
    /// kernel that gathers the lookups of eight splits at once; `None` (the
    /// default) has every lookup go through [`cost_rows`](Self::cost_rows).
    fn lanes(&self) -> Option<MemoLanes<'_>> {
        None
    }
}

/// What pricing a split reads of a memo: a side's best cost and
/// cardinality ([`MemoStore::cost_rows`]) and the gather view
/// ([`MemoStore::lanes`]). Every [`MemoStore`] is one, and so is a
/// [`MemoView`], which a level's participants price from while the table's
/// one writer waits for the level's end. The MPDP set kernel and the split
/// pricing of `mpdp-dp` read through it.
pub trait MemoRead {
    /// See [`MemoStore::cost_rows`].
    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)>;

    /// See [`MemoStore::lanes`].
    fn lanes(&self) -> Option<MemoLanes<'_>>;
}

impl<M: MemoStore + ?Sized> MemoRead for M {
    #[inline]
    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        MemoStore::cost_rows(self, set)
    }

    #[inline]
    fn lanes(&self) -> Option<MemoLanes<'_>> {
        MemoStore::lanes(self)
    }
}

/// What [`MemoStore::cost_rows`] reads, laid bare for a gather: each slot's
/// key, best cost and cardinality, at the addressing the store was laid out
/// with. A lane reads the key, the cost and the rows in the home slot of a
/// set and has found the set where the key is the set's bitmap; anywhere
/// else (a displaced key on a hashed table) it asks `cost_rows`. On a
/// direct table a laid-out set is always in its home slot, so a kernel that
/// looks up only laid-out sets may skip the key.
#[derive(Copy, Clone)]
pub enum MemoLanes<'a> {
    /// [`MemoTable`]'s slots: key, cost and rows are the words at
    /// [`Slot::KEY`], [`Slot::COST`] and [`Slot::ROWS`] of each.
    Table {
        /// One per slot of `at`.
        slots: &'a [Slot],
        /// The table's addressing.
        at: Addressing,
    },
    /// [`AtomicMemo`](crate::atomic_memo::AtomicMemo)'s key array beside its
    /// records, whose cost is folded by [`ordered_cost_bits`].
    Atomic {
        /// One per slot of `at`.
        keys: &'a [u64],
        /// One per slot of `at`.
        records: &'a [crate::atomic_memo::CostRecord],
        /// The table's addressing.
        at: Addressing,
    },
}

/// One memo entry: the best plan known for the key set.
#[derive(Copy, Clone, Debug)]
pub struct MemoEntry {
    /// The relation set (never empty for occupied slots).
    pub set: RelSet,
    /// Left side of the best split; `RelSet::EMPTY` marks a leaf (base rel),
    /// `set` itself a set not planned yet.
    pub left: RelSet,
    /// Total cost of the best plan for `set` (∞ while unplanned).
    pub cost: f64,
    /// Estimated output rows of `set` (identical for all plans of `set`).
    pub rows: f64,
}

impl MemoEntry {
    /// The right side of the best split (empty for leaves and unplanned
    /// sets).
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
///
/// Its one writer holds it by `&mut`. Threads that price from it while that
/// writer waits share its [`view`](MemoTable::view) instead: the table's
/// probe counter is a `Cell`, so the table itself is not `Sync`.
#[derive(Clone, Debug)]
pub struct MemoTable {
    slots: Vec<Slot>,
    at: Addressing,
    /// `layout[k]` is the slot of the `k`-th set laid out: 4 bytes per set.
    layout: Box<[u32]>,
    /// `by_size[i]`: the layout's probe steps for the sets of `i` relations.
    by_size: Box<[u64]>,
    /// Probe steps taken by the layout and by `find` (diagnostics).
    probes: Cell<u64>,
}

/// One slot of a [`MemoTable`]: 32 B in declaration order, so a lookup
/// reads one line, and so a gather can name a word by its offset.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
pub struct Slot {
    key: u64, // 0 = free (the empty set is never memoized)
    left: u64,
    cost: f64,
    rows: f64,
}

impl Slot {
    /// Byte offset of the key.
    pub const KEY: usize = std::mem::offset_of!(Slot, key);
    /// Byte offset of the best cost, an `f64`.
    pub const COST: usize = std::mem::offset_of!(Slot, cost);
    /// Byte offset of the cardinality, an `f64`.
    pub const ROWS: usize = std::mem::offset_of!(Slot, rows);
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    left: 0,
    cost: 0.0,
    rows: 0.0,
};

impl MemoTable {
    /// See [`MemoStore::laid_out`].
    pub fn laid_out(n: usize, sets: &[RelSet], rows: &[f64]) -> Self {
        debug_assert_eq!(sets.len(), rows.len());
        let at = Addressing::for_universe(n, sets.len());
        let mut m = MemoTable {
            slots: vec![EMPTY_SLOT; at.slots()],
            at,
            layout: Box::default(),
            by_size: vec![0u64; n + 1].into_boxed_slice(),
            probes: Cell::new(0),
        };
        m.layout = sets
            .iter()
            .zip(rows)
            .map(|(&set, &rows)| {
                let (idx, steps) = m.probe(set);
                debug_assert!(
                    !set.is_empty() && m.slots[idx].key == 0,
                    "{set} laid out twice"
                );
                m.by_size[set.len()] += steps;
                m.slots[idx] = Slot {
                    key: set.bits(),
                    left: set.bits(),
                    cost: f64::INFINITY,
                    rows,
                };
                idx as u32
            })
            .collect();
        m.probes.set(m.by_size.iter().sum());
        m
    }

    /// See [`MemoStore::slot`].
    #[inline]
    pub fn slot(&self, k: usize) -> usize {
        self.layout[k] as usize
    }

    /// Probe steps the layout took for the sets of `size` relations — what
    /// a level's sets cost to place, which is all the probing a driver that
    /// writes by slot does for them.
    pub fn layout_probes(&self, size: usize) -> u64 {
        self.by_size[size]
    }

    /// The table's slots, read-only, for threads to share while the table's
    /// writer waits.
    #[inline]
    pub fn view(&self) -> MemoView<'_> {
        MemoView {
            slots: &self.slots,
            at: self.at,
        }
    }

    /// The slot `set`'s probe ends at — its own, or a free one if it was not
    /// laid out — and the slots it read.
    #[inline]
    fn probe(&self, set: RelSet) -> (usize, u64) {
        self.at.probe(set.bits(), |i| self.slots[i].key)
    }

    /// See [`MemoStore::find`].
    #[inline]
    pub fn find(&self, set: RelSet) -> (usize, f64) {
        let (idx, steps) = self.probe(set);
        self.probes.set(self.probes.get() + steps);
        let s = &self.slots[idx];
        assert!(s.key != 0, "{set} was not laid out");
        (idx, s.rows)
    }

    /// See [`MemoStore::get`].
    #[inline]
    pub fn get(&self, set: RelSet) -> Option<MemoEntry> {
        let s = self.slots[self.probe(set).0];
        (s.key != 0).then_some(MemoEntry {
            set,
            left: RelSet(s.left),
            cost: s.cost,
            rows: s.rows,
        })
    }

    /// See [`MemoStore::cost_rows`]: the 32 B slot the probe ends at holds
    /// the key, the cost and the rows, so a direct lookup touches one line.
    #[inline]
    pub fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        // The same two lines as `MemoView::cost_rows`: written out here,
        // because calling through the view cost `Mpdp::run` 3.5 %.
        let s = &self.slots[self.probe(set).0];
        (s.key != 0).then_some((s.cost, s.rows))
    }

    /// See [`MemoStore::update`]: strictly cheaper wins, exact cost ties go
    /// to the smaller `left` bitmap.
    #[inline]
    pub fn update(&mut self, slot: usize, left: RelSet, cost: f64) -> bool {
        let s = &mut self.slots[slot];
        debug_assert!(left.is_subset(RelSet(s.key)), "{left} ⊄ {}", RelSet(s.key));
        if candidate_key(cost, left) < (ordered_cost_bits(s.cost), s.left) {
            s.left = left.bits();
            s.cost = cost;
            return true;
        }
        false
    }

    /// Current health metrics.
    pub fn health(&self) -> MemoHealth {
        MemoHealth {
            entries: self.layout.len(),
            slots: self.slots.len(),
            probes: self.probes.get(),
            cas_retries: 0,
        }
    }
}

impl MemoStore for MemoTable {
    fn laid_out(n: usize, sets: &[RelSet], rows: &[f64]) -> Self {
        MemoTable::laid_out(n, sets, rows)
    }

    fn slot(&self, k: usize) -> usize {
        MemoTable::slot(self, k)
    }

    fn find(&self, set: RelSet) -> (usize, f64) {
        MemoTable::find(self, set)
    }

    fn get(&self, set: RelSet) -> Option<MemoEntry> {
        MemoTable::get(self, set)
    }

    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        MemoTable::cost_rows(self, set)
    }

    fn update(&mut self, slot: usize, left: RelSet, cost: f64) -> bool {
        MemoTable::update(self, slot, left, cost)
    }

    fn health(&self) -> MemoHealth {
        MemoTable::health(self)
    }

    fn lanes(&self) -> Option<MemoLanes<'_>> {
        Some(MemoLanes::Table {
            slots: &self.slots,
            at: self.at,
        })
    }
}

/// A [`MemoTable`]'s slots, read-only ([`MemoTable::view`]): what the
/// participants of a level price from, on any thread, while the table's one
/// writer waits for the level's end. Its lookups are the table's, to the
/// bit.
#[derive(Copy, Clone)]
pub struct MemoView<'a> {
    slots: &'a [Slot],
    at: Addressing,
}

impl MemoRead for MemoView<'_> {
    #[inline]
    fn cost_rows(&self, set: RelSet) -> Option<(f64, f64)> {
        let s = &self.slots[self.at.probe(set.bits(), |i| self.slots[i].key).0];
        (s.key != 0).then_some((s.cost, s.rows))
    }

    #[inline]
    fn lanes(&self) -> Option<MemoLanes<'_>> {
        Some(MemoLanes::Table {
            slots: self.slots,
            at: self.at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sets `1..=count` (as bitmaps), each of one row.
    fn numbered(count: u64) -> (Vec<RelSet>, Vec<f64>) {
        ((1..=count).map(RelSet).collect(), vec![1.0; count as usize])
    }

    #[test]
    fn murmur_mixes() {
        // Finalizer is a bijection; a few sanity spot checks.
        assert_ne!(murmur3_fmix64(1), 1);
        assert_ne!(murmur3_fmix64(1), murmur3_fmix64(2));
        assert_eq!(murmur3_fmix64(0), 0); // fixed point of the finalizer
    }

    #[test]
    fn a_laid_out_set_reads_unplanned_until_a_candidate_replaces_it() {
        let s = RelSet::from_indices([0, 1]);
        let sets = [RelSet::singleton(0), RelSet::singleton(1), s];
        let mut m = MemoTable::laid_out(2, &sets, &[100.0, 200.0, 5.0]);
        for (k, &set) in sets.iter().enumerate() {
            let e = m.get(set).unwrap();
            assert_eq!(
                (e.left, e.cost, e.right()),
                (set, f64::INFINITY, RelSet::EMPTY)
            );
            assert_eq!(m.find(set), (m.slot(k), e.rows));
            assert_eq!(m.cost_rows(set), Some((f64::INFINITY, e.rows)));
        }
        assert_eq!(m.get(s).unwrap().rows, 5.0);
        // A leaf is planned like any set; even an infinitely expensive
        // real plan replaces the placeholder.
        assert!(m.update(m.slot(0), RelSet::EMPTY, 7.0));
        assert!(m.update(m.slot(2), RelSet::singleton(1), f64::INFINITY));
        let (leaf, join) = (m.get(sets[0]).unwrap(), m.get(s).unwrap());
        assert!(leaf.is_leaf() && leaf.cost == 7.0 && leaf.rows == 100.0);
        assert_eq!(m.cost_rows(sets[0]), Some((7.0, 100.0)));
        assert_eq!((join.left, join.right()), (sets[1], sets[0]));
        assert!(m.get(RelSet::singleton(2)).is_none());
        assert!(m.get(RelSet::EMPTY).is_none());
        assert!(m.cost_rows(RelSet::singleton(2)).is_none());
        assert_eq!(m.health().entries, 3);
    }

    #[test]
    fn update_keeps_minimum() {
        let s = RelSet::from_indices([0, 1]);
        let mut m = MemoTable::laid_out(2, &[s], &[5.0]);
        let (l, r) = (RelSet::singleton(0), RelSet::singleton(1));
        let slot = m.slot(0);
        assert!(m.update(slot, l, 10.0));
        assert!(!m.update(slot, r, 12.0)); // worse: rejected
        assert_eq!(m.get(s).unwrap().left, l);
        assert!(m.update(slot, r, 8.0)); // better: replaces
        let e = m.get(s).unwrap();
        assert_eq!((e.left, e.cost, e.rows, e.right()), (r, 8.0, 5.0, l));
    }

    #[test]
    fn ties_break_on_left_bits() {
        let s = RelSet::from_indices([0, 1, 2]);
        let mut m = MemoTable::laid_out(3, &[s], &[1.0]);
        let hi = RelSet::from_indices([1, 2]);
        let lo = RelSet::singleton(0);
        assert!(m.update(m.slot(0), hi, 5.0));
        // Equal cost, smaller left bitmap: replaces.
        assert!(m.update(m.slot(0), lo, 5.0));
        assert_eq!(m.get(s).unwrap().left, lo);
        // Equal cost, larger left bitmap: rejected.
        assert!(!m.update(m.slot(0), hi, 5.0));
        // Exact duplicate: rejected (not an improvement).
        assert!(!m.update(m.slot(0), lo, 5.0));
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
    fn ordered_cost_bits_inverts_to_the_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1), // the smallest subnormal
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xfff8_dead_beef_0001), // negative quiet NaN payload
        ];
        // And a stream of arbitrary bit patterns, every class among them.
        let arbitrary = (0..10_000u64).map(|i| f64::from_bits(murmur3_fmix64(i)));
        for cost in specials.into_iter().chain(arbitrary) {
            let back = cost_from_ordered_bits(ordered_cost_bits(cost));
            assert_eq!(back.to_bits(), cost.to_bits(), "{cost:e}");
        }
        // Both directions: every folded value comes from exactly one cost.
        for ordered in [0, 1, 1 << 63, (1 << 63) - 1, u64::MAX, u64::MAX - 1] {
            assert_eq!(ordered_cost_bits(cost_from_ordered_bits(ordered)), ordered);
        }
    }

    #[test]
    fn a_layout_holds_every_set_at_most_70_percent_full() {
        for count in [0u64, 1, 10, 11, 300, 16_398, 32_783] {
            let (sets, rows) = numbered(count);
            let mut m = MemoTable::laid_out(64, &sets, &rows);
            let slots = m.slots.len();
            assert_eq!(slots, slots_for(sets.len()));
            assert!(slots * 7 >= sets.len() * 10, "≤ 70 % load for {count}");
            for (k, &set) in sets.iter().enumerate() {
                assert_eq!(m.slots[m.slot(k)].key, set.bits());
                m.update(m.slot(k), set.lowest_bit(), k as f64);
            }
            let h = m.health();
            assert_eq!((h.slots, h.entries), (slots, sets.len()));
        }
    }

    #[test]
    fn addressing_is_direct_exactly_when_every_subset_has_a_slot() {
        // (n, entries): a star of n relations has 2ⁿ⁻¹ + n − 1 connected
        // sets, which slots_for rounds up to exactly 2ⁿ slots; 16 398 is
        // IDP2's and UnionDP's 15-relation star-like sub-problem. Above 15
        // relations only such a table is direct, at its own size.
        for (n, entries) in [(14, 8_205), (16, 32_783), (15, 16_398), (10, 1_023), (4, 0)] {
            let at = Addressing::for_universe(n, entries);
            assert!(at.is_direct(), "{n} relations, {entries} entries");
            assert_eq!(at.slots(), slots_for(entries));
        }
        // Up to 15 relations a table with too few slots for every subset is
        // given 2ⁿ: a 15-relation chain has 120 connected sets, a 5-relation
        // one has none laid out here.
        for (n, entries) in [(15, 120), (5, 0), (DIRECT_MAX, 1)] {
            let at = Addressing::for_universe(n, entries);
            assert!(at.is_direct(), "{n} relations, {entries} entries");
            assert_eq!(at.slots(), 1 << n);
        }
        for (n, entries) in [(17, 16_398), (16, 0), (20, 6_000), (64, 1 << 20)] {
            let at = Addressing::for_universe(n, entries);
            assert!(!at.is_direct(), "{n} relations, {entries} entries");
            assert_eq!(at, Addressing::for_universe(64, entries));
            assert_eq!(at.slots(), slots_for(entries));
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
    fn a_fitting_universe_takes_one_probe_per_set_and_lookup() {
        let n = 10;
        let (sets, rows) = numbered((1 << n) - 1);
        let mut direct = MemoTable::laid_out(n as usize, &sets, &rows);
        let mut hashed = MemoTable::laid_out(64, &sets, &rows);
        assert!(direct.at.is_direct() && !hashed.at.is_direct());
        let laid = sets.len() as u64;
        assert_eq!(direct.health().probes, laid, "one probe per set laid out");
        assert!(hashed.health().probes > laid, "the hashed table collides");
        let mut finds = laid;
        for (set, left, cost) in subset_stream(n, 3) {
            let (d, h) = (direct.find(set).0, hashed.find(set).0);
            assert_eq!(direct.update(d, left, cost), hashed.update(h, left, cost));
            finds += 1;
            assert_eq!(direct.health().probes, finds, "one probe per find");
        }
        // Every key sits in the slot its bitmap names, so a lookup reads
        // that one slot; and the entries are the hashed table's.
        for (slot, s) in direct.slots.iter().enumerate() {
            assert!(s.key == 0 || s.key == slot as u64, "{} in {slot}", s.key);
        }
        for &set in &sets {
            let (d, h) = (direct.get(set).unwrap(), hashed.get(set).unwrap());
            assert_eq!((d.left, d.cost.to_bits()), (h.left, h.cost.to_bits()));
        }
    }

    #[test]
    fn an_unfitting_universe_hashes_as_before() {
        // The same sets laid out in a table over 20 relations (which does
        // not fit) and one over any relations: the same slots, probe for
        // probe, and each key reached from its multiply-shift home slot, the
        // top log₂(1 024) = 10 bits of bits · 2⁶⁴/φ.
        let sets: std::collections::BTreeSet<RelSet> = subset_stream(20, 1)
            .take(1_000)
            .map(|(s, _, _)| s)
            .collect();
        let sets: Vec<RelSet> = sets.into_iter().take(700).collect();
        let rows = vec![1.0; sets.len()];
        let narrow = MemoTable::laid_out(20, &sets, &rows);
        let any = MemoTable::laid_out(64, &sets, &rows);
        assert_eq!(narrow.health().probes, any.health().probes);
        let keys = |m: &MemoTable| m.slots.iter().map(|s| s.key).collect::<Vec<_>>();
        assert_eq!(keys(&narrow), keys(&any));
        let mask = narrow.slots.len() - 1;
        assert_eq!(narrow.slots.len(), 1 << 10);
        for (k, set) in sets.iter().enumerate() {
            let mut idx = (set.bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54) as usize;
            while narrow.slots[idx].key != set.bits() {
                assert_ne!(narrow.slots[idx].key, 0, "{set}");
                idx = (idx + 1) & mask;
            }
            assert_eq!(idx, narrow.slot(k));
        }
    }
}
