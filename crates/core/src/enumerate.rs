//! Connected-subset frontier enumeration.
//!
//! The level-synchronous DP algorithms (DPSUB, MPDP and their parallel /
//! simulated-GPU forms) need, per level `i`, every *connected* vertex set of
//! size `i`. The paper's vertex-based enumeration unranks all `C(n, i)`
//! candidate subsets and filters the disconnected ones — fine on cliques
//! where every subset survives, but catastrophic on sparse shapes: a chain
//! of 20 relations has 210 connected subsets yet the filter walks all
//! `2^20` candidates.
//!
//! [`FrontierEnumerator`] replaces generate-and-filter with frontier
//! expansion: level `i+1`'s connected sets are obtained by extending each
//! level-`i` connected set `S` with one vertex of its neighbourhood `N(S)`.
//! Every candidate produced this way is connected *by construction*, so no
//! connectivity check is ever run; duplicates (the same set reached from
//! several sub-sets) are discarded through a Murmur3 open-addressing
//! [`SeenTable`] — the same hashing machinery as the memo table
//! (`crate::memo`). Work per level is `O(Σ_S |N(S)|)` — proportional to the
//! number of connected sets times average degree, never to `C(n, i)`.
//!
//! Completeness: every connected set `T` with `|T| ≥ 2` has a spanning tree,
//! and removing one of its leaves yields a connected `|T|-1`-subset whose
//! neighbourhood contains the removed vertex — so `T` is generated at least
//! once. Each level is sorted ascending by bitmap, which is exactly the
//! order Gosper's hack ([`crate::combinatorics::KSubsets`]) visits the same
//! sets in, making frontier and filter enumeration *bit-identical* from the
//! consuming DP's point of view.

use crate::bitset::RelSet;
use crate::graph::JoinGraph;
use crate::memo::murmur3_fmix64;

/// How a level-structured DP backend enumerates each level's connected sets.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum EnumerationMode {
    /// Connected-subgraph frontier expansion (this module) — work scales
    /// with the number of connected sets. The default.
    #[default]
    Frontier,
    /// Legacy generate-and-filter: unrank all `C(n, i)` subsets per level
    /// and drop the disconnected ones. Kept for the paper's `unranked`
    /// counter ablations (Figure 12 / §7) and as the reference
    /// implementation the frontier path is verified against.
    Unranked,
}

/// Open-addressing hash *set* of `u64` keys (Murmur3-mixed, linear probing)
/// — the membership-only sibling of [`crate::memo::MemoTable`], used to
/// deduplicate frontier expansion. Key `0` (the empty set) is reserved as
/// the empty-slot marker, which is safe because expansion never produces an
/// empty set.
#[derive(Clone, Debug)]
pub struct SeenTable {
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

impl SeenTable {
    /// Creates a table sized for roughly `expected` keys.
    pub fn with_capacity(expected: usize) -> Self {
        let cap = (expected.max(8) * 2).next_power_of_two();
        SeenTable {
            slots: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Number of distinct keys inserted.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no key has been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all keys, re-sizing for roughly `expected` upcoming inserts
    /// (reuses the allocation when it is already big enough).
    pub fn clear_for(&mut self, expected: usize) {
        let cap = (expected.max(8) * 2).next_power_of_two();
        if cap > self.slots.len() {
            self.slots = vec![0; cap];
            self.mask = cap - 1;
        } else {
            self.slots.fill(0);
        }
        self.len = 0;
    }

    /// Inserts `key`, returning `true` if it was not present before.
    ///
    /// # Panics
    /// Debug-panics on the reserved key `0`.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, 0, "key 0 is the empty-slot marker");
        if (self.len + 1) * 10 > self.slots.len() * 7 {
            self.grow();
        }
        let mut idx = (murmur3_fmix64(key) as usize) & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                self.slots[idx] = key;
                self.len += 1;
                return true;
            }
            if slot == key {
                return false;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// `true` if `key` has been inserted.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let mut idx = (murmur3_fmix64(key) as usize) & self.mask;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                return false;
            }
            if slot == key {
                return true;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![0; (self.mask + 1) * 2]);
        self.mask = self.slots.len() - 1;
        for key in old {
            if key != 0 {
                let mut idx = (murmur3_fmix64(key) as usize) & self.mask;
                while self.slots[idx] != 0 {
                    idx = (idx + 1) & self.mask;
                }
                self.slots[idx] = key;
            }
        }
    }
}

/// Level-by-level connected-subset enumerator over a [`JoinGraph`].
///
/// Starts at level 1 (the singletons); each [`advance`](Self::advance)
/// produces the next level's connected sets, sorted ascending by bitmap.
/// Levels are kept back to back in one vector — the frontier being expanded
/// is simply its tail — so a backend that wants every level before it starts
/// (to size its memo once) takes the whole thing with
/// [`into_levels`](Self::into_levels): 8 bytes per connected set.
#[derive(Clone, Debug)]
pub struct FrontierEnumerator<'g> {
    graph: &'g JoinGraph,
    /// Levels `1..=level()`, each ascending by bitmap.
    sets: Vec<RelSet>,
    /// `starts[l - 1]` is where level `l` begins in `sets`.
    starts: Vec<usize>,
    seen: SeenTable,
    expansions: u64,
}

impl<'g> FrontierEnumerator<'g> {
    /// Creates the enumerator positioned at level 1 (all singletons).
    pub fn new(graph: &'g JoinGraph) -> Self {
        let n = graph.num_vertices();
        FrontierEnumerator {
            graph,
            sets: (0..n).map(RelSet::singleton).collect(),
            starts: vec![0],
            seen: SeenTable::with_capacity(n),
            expansions: 0,
        }
    }

    /// The subset size of the current level.
    #[inline]
    pub fn level(&self) -> usize {
        self.starts.len()
    }

    /// The current level's connected sets, ascending by bitmap.
    #[inline]
    pub fn current(&self) -> &[RelSet] {
        &self.sets[self.starts[self.starts.len() - 1]..]
    }

    /// Total candidate expansions attempted so far (duplicate hits
    /// included) — the frontier analogue of the `unranked` counter.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Advances to the next level, returning its connected sets (ascending
    /// by bitmap). Returns an empty slice once the frontier is exhausted
    /// (level `n` reached, or no larger connected set exists).
    pub fn advance(&mut self) -> &[RelSet] {
        self.try_advance(|| Ok::<(), std::convert::Infallible>(()))
            .expect("infallible poll")
    }

    /// Like [`advance`](Self::advance), but invokes `poll` every 4096 source
    /// sets so long levels can honour deadlines (the DP backends pass their
    /// `check_deadline`). On `Err` the expansion aborts mid-level and the
    /// enumerator is left in an unspecified state — callers are expected to
    /// abandon the whole run.
    pub fn try_advance<E>(
        &mut self,
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<&[RelSet], E> {
        let (lo, hi) = (self.starts[self.starts.len() - 1], self.sets.len());
        // Guess ~same cardinality as the current level for the seen-table.
        self.seen.clear_for(hi - lo);
        for i in lo..hi {
            if (i - lo) % 4096 == 0 {
                poll()?;
            }
            let s = self.sets[i];
            for v in self.graph.neighbors(s).iter() {
                self.expansions += 1;
                let t = s.with(v);
                if self.seen.insert(t.bits()) {
                    self.sets.push(t);
                }
            }
        }
        self.sets[hi..].sort_unstable();
        self.starts.push(hi);
        Ok(&self.sets[hi..])
    }

    /// Every level enumerated so far: the sets of levels `1..=level()` back
    /// to back, and where each level starts (`starts[l - 1]` for level `l`).
    pub fn into_levels(self) -> (Vec<RelSet>, Vec<usize>) {
        (self.sets, self.starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::KSubsets;

    /// The Figure 5 nine-relation cyclic graph (same shape as
    /// `graph::tests::figure5_graph`).
    fn figure5_graph() -> JoinGraph {
        let mut g = JoinGraph::new(9);
        for &(u, v) in &[
            (1, 2),
            (2, 4),
            (4, 3),
            (3, 1),
            (4, 5),
            (5, 9),
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 6),
        ] {
            g.add_edge(u - 1, v - 1, 0.1);
        }
        g
    }

    fn chain_graph(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i, 0.5);
        }
        g
    }

    fn star_graph(n: usize) -> JoinGraph {
        let mut g = JoinGraph::new(n);
        for i in 1..n {
            g.add_edge(0, i, 0.5);
        }
        g
    }

    fn filtered_level(g: &JoinGraph, i: usize) -> Vec<RelSet> {
        KSubsets::new(g.num_vertices(), i)
            .filter(|s| g.is_connected(*s))
            .collect()
    }

    #[test]
    fn seen_table_insert_contains() {
        let mut t = SeenTable::with_capacity(2);
        assert!(t.is_empty());
        for k in 1..=200u64 {
            assert!(t.insert(k), "{k} fresh");
            assert!(!t.insert(k), "{k} dup");
            assert!(t.contains(k));
        }
        assert_eq!(t.len(), 200);
        assert!(!t.contains(9999));
        t.clear_for(4);
        assert!(t.is_empty());
        assert!(!t.contains(5));
        assert!(t.insert(5));
    }

    #[test]
    fn frontier_matches_filter_on_named_shapes() {
        for g in [figure5_graph(), chain_graph(9), star_graph(9)] {
            let n = g.num_vertices();
            let mut fe = FrontierEnumerator::new(&g);
            assert_eq!(fe.level(), 1);
            assert_eq!(fe.current().len(), n);
            for i in 2..=n {
                let got: Vec<RelSet> = fe.advance().to_vec();
                assert_eq!(fe.level(), i);
                assert_eq!(got, filtered_level(&g, i), "level {i}");
            }
            // Past level n the frontier is exhausted.
            assert!(fe.advance().is_empty());
            // All of it, back to back.
            let (sets, starts) = fe.into_levels();
            assert_eq!(starts.len(), n + 1);
            assert_eq!(sets[..starts[1]].len(), n);
            for i in 2..=n {
                assert_eq!(sets[starts[i - 1]..starts[i]], filtered_level(&g, i));
            }
            assert_eq!(starts[n], sets.len());
        }
    }

    #[test]
    fn frontier_levels_sorted_ascending() {
        let g = figure5_graph();
        let mut fe = FrontierEnumerator::new(&g);
        for _ in 2..=9 {
            let lvl = fe.advance().to_vec();
            for w in lvl.windows(2) {
                assert!(w[0].bits() < w[1].bits());
            }
        }
    }

    #[test]
    fn chain_visits_polynomially_many_sets() {
        // A 20-chain has exactly n-i+1 connected i-sets; the frontier
        // enumerator must never touch more than sets × max-degree candidates.
        let g = chain_graph(20);
        let mut fe = FrontierEnumerator::new(&g);
        let mut total_sets = 0u64;
        for i in 2..=20 {
            let lvl = fe.advance();
            assert_eq!(lvl.len(), 20 - i + 1, "level {i}");
            total_sets += lvl.len() as u64;
        }
        assert_eq!(total_sets, 19 * 20 / 2);
        // Degree ≤ 2, so expansions ≤ 2 × (singletons + all connected sets).
        assert!(fe.expansions() <= 2 * (20 + total_sets));
    }

    #[test]
    fn disconnected_graph_frontier_stays_within_components() {
        let mut g = JoinGraph::new(4);
        g.add_edge(0, 1, 0.5);
        g.add_edge(2, 3, 0.5);
        let mut fe = FrontierEnumerator::new(&g);
        let l2 = fe.advance().to_vec();
        assert_eq!(
            l2,
            vec![RelSet::from_indices([0, 1]), RelSet::from_indices([2, 3])]
        );
        assert!(fe.advance().is_empty());
    }

    #[test]
    fn single_vertex_graph() {
        let g = JoinGraph::new(1);
        let mut fe = FrontierEnumerator::new(&g);
        assert_eq!(fe.current().len(), 1);
        assert!(fe.advance().is_empty());
    }
}
