//! Connected-subset enumeration: every connected set once, with its
//! cardinality.
//!
//! The level-synchronous DP algorithms (DPSUB, MPDP and their parallel /
//! simulated-GPU forms) need, per level `i`, every *connected* vertex set of
//! size `i`. The paper's vertex-based enumeration unranks all `C(n, i)`
//! candidate subsets and filters the disconnected ones — fine on cliques
//! where every subset survives, but catastrophic on sparse shapes: a chain
//! of 20 relations has 210 connected subsets yet the filter walks all
//! `2^20` candidates.
//!
//! [`ConnectedSets`] reaches each connected set **exactly once**, by
//! single-vertex extension — the `EnumerateCsg` scheme of Moerkotte–Neumann
//! (DPCCP's outer loop) with one vertex added per step, also known as ESU.
//! A set `S` grown from start vertex `v` carries an *extension set*: the
//! vertices above `v` that are adjacent to `S` and were not adjacent to the
//! set any of them could have been added to earlier. Taking `w` out of the
//! extension set and recursing on `S ∪ {w}` with `w`'s *exclusive*
//! neighbourhood added (neighbours above `v` that are neither in nor next to
//! `S`) gives every connected set containing `v` and nothing below it one
//! parent, so there is nothing to deduplicate and no table. Work per set is
//! a few word operations plus the degree of the added vertex.
//!
//! The same step sizes the set. A set's cardinality is split-invariant —
//! ∏ rows × ∏ induced selectivities — so it is per-*set* work, and the
//! recursion already holds everything it needs:
//! `rows(S ∪ {w}) = rows(S) · (rows(w) · ∏ sel(w, u ∈ S))`. One parent per
//! set makes the value a pure function of (query, set): the same bits in
//! every backend, at every worker count.
//!
//! Discovery order is the recursion's; consumers want levels (sets of equal
//! size) back to back, each ascending by bitmap — exactly the order Gosper's
//! hack ([`crate::combinatorics::KSubsets`]) visits the same sets in, which
//! makes this and filter enumeration *bit-identical* from the consuming DP's
//! point of view. The recursion knows a set's size, so it files each set
//! under its level as it finds it, and a level is then ordered on its own:
//! the keys are small integers, so a level long enough to pay for 256
//! counters gets stable counting passes, one per bitmap byte, instead of a
//! comparison sort.

use crate::bitset::RelSet;
use crate::query::QueryInfo;

/// Sets emitted between two calls of the enumeration's `poll`.
const POLL_STRIDE: u32 = 4096;

/// Levels shorter than this are ordered by a comparison sort: a counting
/// pass costs 256 counters however few sets it moves (a 20-relation chain
/// has 20 levels of at most 20 sets).
const RADIX_MIN: usize = 256;

/// Every connected set of a query with its cardinality: 16 bytes per set,
/// levels back to back.
#[derive(Clone, Debug)]
pub struct ConnectedSets {
    /// Levels `1..=n` (level 1 is the singletons), each ascending by bitmap.
    pub sets: Vec<RelSet>,
    /// `rows[k]` is the estimated cardinality of `sets[k]`, within a few ulps
    /// of [`QueryInfo::cardinality`].
    pub rows: Vec<f64>,
    /// Level `l` is `starts[l - 1]..starts[l]`; `n + 1` entries.
    pub starts: Vec<usize>,
}

/// The recursion's state: what it found, by size, in discovery order.
struct Discovery<'q, P> {
    q: &'q QueryInfo,
    /// `levels[l - 1]` holds the sets of size `l`.
    levels: Vec<Vec<(RelSet, f64)>>,
    poll: P,
    until_poll: u32,
}

impl<E, P: FnMut() -> Result<(), E>> Discovery<'_, P> {
    /// Emits `s` (of `level + 1` vertices) and every connected superset of
    /// it reachable through `ext`. `seen` is `s`, its neighbourhood and
    /// everything at or below the start vertex: what may never (again) enter
    /// an extension set below here.
    fn extend(
        &mut self,
        level: usize,
        (s, rows): (RelSet, f64),
        mut ext: RelSet,
        seen: RelSet,
    ) -> Result<(), E> {
        self.until_poll -= 1;
        if self.until_poll == 0 {
            self.until_poll = POLL_STRIDE;
            (self.poll)()?;
        }
        self.levels[level].push((s, rows));
        while let Some(w) = ext.first() {
            ext = ext.without(w);
            let mut factor = self.q.rels[w].rows;
            for &(u, sel) in self.q.graph.incident(w) {
                if s.contains(u as usize) {
                    factor *= sel;
                }
            }
            let adj = self.q.graph.adjacency(w);
            self.extend(
                level + 1,
                (s.with(w), rows * factor),
                ext.union(adj.difference(seen)),
                seen.union(adj),
            )?;
        }
        Ok(())
    }
}

/// Orders `level` ascending by bitmap with one stable counting pass per
/// bitmap byte, least significant first. `scratch` is the passes' other
/// buffer (contents irrelevant, left in an unspecified state).
fn radix_by_bitmap(level: &mut Vec<(RelSet, f64)>, scratch: &mut Vec<(RelSet, f64)>, bytes: usize) {
    scratch.resize(level.len(), (RelSet::EMPTY, 0.0));
    for byte in 0..bytes {
        let digit = |s: RelSet| (s.bits() >> (8 * byte)) as u8 as usize;
        let mut next = [0usize; 256];
        for &(s, _) in level.iter() {
            next[digit(s)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            at += std::mem::replace(slot, at);
        }
        for &pair in level.iter() {
            let slot = &mut next[digit(pair.0)];
            scratch[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(level, scratch);
    }
}

impl ConnectedSets {
    /// Enumerates every connected set of `q`'s join graph.
    pub fn enumerate(q: &QueryInfo) -> Self {
        Self::try_enumerate(q, || Ok::<(), std::convert::Infallible>(()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`enumerate`](Self::enumerate), calling `poll` before the first set
    /// and then every 4096 sets so a long enumeration can honour a deadline
    /// (the DP backends pass their `check_deadline`); its first `Err` aborts
    /// the enumeration.
    pub fn try_enumerate<E>(q: &QueryInfo, poll: impl FnMut() -> Result<(), E>) -> Result<Self, E> {
        let n = q.query_size();
        let mut found = Discovery {
            q,
            // A chain's levels hold `n - i + 1` sets, and few graphs' fewer:
            // room for `n` spares the short levels their first re-allocations.
            levels: (0..n).map(|_| Vec::with_capacity(n)).collect(),
            poll,
            until_poll: 1,
        };
        // Start vertices descending, as in DPCCP: everything found from `v`
        // has `v` as its lowest vertex.
        for v in (0..n).rev() {
            let (adj, below) = (q.graph.adjacency(v), RelSet::first_n(v + 1));
            found.extend(
                0,
                (RelSet::singleton(v), q.rels[v].rows),
                adj.difference(below),
                adj.union(below),
            )?;
        }
        let total = found.levels.iter().map(Vec::len).sum();
        let mut plan = ConnectedSets {
            sets: Vec::with_capacity(total),
            rows: Vec::with_capacity(total),
            starts: Vec::with_capacity(n + 1),
        };
        let mut scratch = Vec::new();
        for mut level in found.levels {
            if level.len() < RADIX_MIN {
                level.sort_unstable_by_key(|&(s, _)| s);
            } else {
                radix_by_bitmap(&mut level, &mut scratch, n.div_ceil(8));
            }
            plan.starts.push(plan.sets.len());
            plan.sets.extend(level.iter().map(|&(s, _)| s));
            plan.rows.extend(level.iter().map(|&(_, rows)| rows));
        }
        plan.starts.push(total);
        Ok(plan)
    }

    /// Level `i`'s connected sets and their cardinalities, `1 ≤ i ≤ n`.
    #[inline]
    pub fn level(&self, i: usize) -> (&[RelSet], &[f64]) {
        let range = self.starts[i - 1]..self.starts[i];
        (&self.sets[range.clone()], &self.rows[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::KSubsets;
    use crate::graph::JoinGraph;
    use crate::query::RelInfo;

    fn query(n: usize, edges: &[(usize, usize)]) -> QueryInfo {
        let mut g = JoinGraph::new(n);
        for (k, &(u, v)) in edges.iter().enumerate() {
            g.add_edge(u, v, 1.0 / (k + 2) as f64);
        }
        let rels = (0..n)
            .map(|i| RelInfo::new(10.0 * (i + 3) as f64, 1.0))
            .collect();
        QueryInfo::new(g, rels)
    }

    /// The Figure 5 nine-relation cyclic graph (same shape as
    /// `graph::tests::figure5_graph`).
    fn figure5() -> QueryInfo {
        let paper = [
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
        ];
        query(9, &paper.map(|(u, v)| (u - 1, v - 1)))
    }

    fn chain(n: usize) -> QueryInfo {
        query(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>())
    }

    fn star(n: usize) -> QueryInfo {
        query(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>())
    }

    fn filtered_level(q: &QueryInfo, i: usize) -> Vec<RelSet> {
        KSubsets::new(q.query_size(), i)
            .filter(|s| q.graph.is_connected(*s))
            .collect()
    }

    #[test]
    fn levels_match_filter_on_named_shapes() {
        // Element for element: each connected set once, ascending by bitmap.
        for q in [figure5(), chain(9), star(9), chain(20)] {
            let n = q.query_size();
            let cs = ConnectedSets::enumerate(&q);
            assert_eq!(cs.starts.len(), n + 1);
            assert_eq!(cs.starts[n], cs.sets.len());
            assert_eq!(cs.rows.len(), cs.sets.len());
            for i in 1..=n {
                assert_eq!(cs.level(i).0, filtered_level(&q, i), "level {i}");
            }
        }
        // A 20-chain has n-i+1 connected i-sets: 210 in all, not 2^20.
        assert_eq!(ConnectedSets::enumerate(&chain(20)).sets.len(), 210);
    }

    #[test]
    fn rows_are_the_sets_cardinalities() {
        for q in [figure5(), chain(9), star(9)] {
            let cs = ConnectedSets::enumerate(&q);
            for (&s, &rows) in cs.sets.iter().zip(&cs.rows) {
                let want = q.cardinality(s);
                assert!((rows - want).abs() <= 1e-12 * want, "{s}: {rows} vs {want}");
            }
        }
    }

    #[test]
    fn long_levels_of_wide_bitmaps_stay_ordered() {
        // A star whose hub and 11 leaves are spread over three bitmap bytes:
        // levels 5-8 have 330-462 sets, enough for the counting passes.
        let (hub, leaves) = (3, [0, 5, 7, 8, 10, 13, 15, 16, 18, 21, 23]);
        let q = query(24, &leaves.map(|leaf| (hub, leaf)));
        let cs = ConnectedSets::enumerate(&q);
        for i in 2..=12 {
            let mut want: Vec<RelSet> = RelSet::from_indices(leaves)
                .subsets()
                .filter(|s| s.len() == i - 1)
                .map(|s| s.with(hub))
                .collect();
            want.sort_unstable();
            assert_eq!(cs.level(i).0, want, "level {i}");
        }
        assert!(cs.level(6).0.len() >= RADIX_MIN);
    }

    #[test]
    fn disconnected_graph_stays_within_components() {
        let cs = ConnectedSets::enumerate(&query(4, &[(0, 1), (2, 3)]));
        assert_eq!(
            cs.level(2).0,
            [RelSet::from_indices([0, 1]), RelSet::from_indices([2, 3])]
        );
        assert!(cs.level(3).0.is_empty() && cs.level(4).0.is_empty());
    }

    #[test]
    fn single_vertex_graph() {
        let cs = ConnectedSets::enumerate(&query(1, &[]));
        assert_eq!(cs.sets, [RelSet::singleton(0)]);
        assert_eq!(cs.rows, [30.0]);
    }

    #[test]
    fn poll_error_aborts() {
        let mut calls = 0;
        let r = ConnectedSets::try_enumerate(&star(15), || {
            calls += 1;
            if calls > 2 {
                Err("late")
            } else {
                Ok(())
            }
        });
        // 2^14 + 14 sets: polled at 0, 4096 and 8192.
        assert_eq!((r.err(), calls), (Some("late"), 3));
    }
}
