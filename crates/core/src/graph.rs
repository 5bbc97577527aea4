//! Join graphs over at most 64 relations.
//!
//! A query's inner-join predicates form an undirected graph `G(R, E)` whose
//! vertices are the relations of the FROM clause (§2.1). All exact DP
//! algorithms in `mpdp-dp`, `mpdp-parallel` and `mpdp-gpu` consume this
//! representation. Each vertex keeps its adjacency as a [`RelSet`] bitmap so
//! the neighbourhood of a whole *set* of vertices is a handful of word ORs.

use crate::bitset::RelSet;

/// An undirected join edge with its estimated join-predicate selectivity.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Edge {
    /// Lower endpoint (vertex index).
    pub u: u32,
    /// Upper endpoint (vertex index).
    pub v: u32,
    /// Selectivity of the predicate, in `(0, 1]`.
    pub sel: f64,
}

/// An undirected join graph over vertices `0..n`, `n ≤ 64`.
#[derive(Clone, Debug)]
pub struct JoinGraph {
    n: usize,
    adj: Vec<RelSet>,
    /// Per-vertex incident edges: `(neighbor, selectivity)`.
    adj_list: Vec<Vec<(u32, f64)>>,
    edges: Vec<Edge>,
}

impl JoinGraph {
    /// Creates a graph with `n` isolated vertices.
    ///
    /// # Panics
    /// Panics if `n > 64`; use the heuristic layer's `LargeQuery` for bigger
    /// graphs.
    pub fn new(n: usize) -> Self {
        assert!(n <= 64, "JoinGraph supports at most 64 relations (got {n})");
        JoinGraph {
            n,
            adj: vec![RelSet::empty(); n],
            adj_list: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The full vertex set.
    #[inline]
    pub fn all_vertices(&self) -> RelSet {
        RelSet::first_n(self.n)
    }

    /// Adds an undirected edge `u — v` with the given selectivity.
    ///
    /// Parallel edges are merged by multiplying selectivities (they represent
    /// conjunctive predicates over the same relation pair). Self-loops are
    /// rejected.
    ///
    /// # Panics
    /// Panics on out-of-range vertices, a self-loop, or a selectivity outside
    /// `(0, 1]`.
    pub fn add_edge(&mut self, u: usize, v: usize, sel: f64) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self-loop on vertex {u}");
        assert!(
            sel > 0.0 && sel <= 1.0 && sel.is_finite(),
            "selectivity {sel} outside (0, 1]"
        );
        let sel = sel.max(1e-300); // avoid products underflowing to zero
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if let Some(e) = self
            .edges
            .iter_mut()
            .find(|e| e.u == a as u32 && e.v == b as u32)
        {
            e.sel = (e.sel * sel).max(1e-300);
            // Update adjacency lists in both directions.
            for &(x, y) in &[(a, b), (b, a)] {
                for entry in self.adj_list[x].iter_mut() {
                    if entry.0 == y as u32 {
                        entry.1 = (entry.1 * sel).max(1e-300);
                    }
                }
            }
            return;
        }
        self.edges.push(Edge {
            u: a as u32,
            v: b as u32,
            sel,
        });
        self.adj[a] = self.adj[a].with(b);
        self.adj[b] = self.adj[b].with(a);
        self.adj_list[a].push((b as u32, sel));
        self.adj_list[b].push((a as u32, sel));
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The adjacency bitmap of a single vertex.
    #[inline]
    pub fn adjacency(&self, v: usize) -> RelSet {
        self.adj[v]
    }

    /// Incident `(neighbor, selectivity)` pairs of a vertex.
    #[inline]
    pub fn incident(&self, v: usize) -> &[(u32, f64)] {
        &self.adj_list[v]
    }

    /// The neighbourhood of a vertex set: all vertices adjacent to some member
    /// of `set`, excluding `set` itself.
    #[inline]
    pub fn neighbors(&self, set: RelSet) -> RelSet {
        let mut nb = RelSet::empty();
        for v in set.iter() {
            nb = nb.union(self.adj[v]);
        }
        nb.difference(set)
    }

    /// The *grow* function of §3.2.1: starting from `source`, repeatedly adds
    /// every vertex of `restrict` adjacent to the current set, returning all
    /// vertices of `restrict` reachable from `source` without leaving
    /// `restrict`.
    ///
    /// `source` must be a subset of `restrict` ("restricted nodes (superset of
    /// source nodes)").
    ///
    /// Each round ORs the adjacency of only the vertices the previous round
    /// added (a breadth-first frontier): every vertex's adjacency is read
    /// once, not once per round.
    pub fn grow(&self, source: RelSet, restrict: RelSet) -> RelSet {
        debug_assert!(source.is_subset(restrict));
        let (mut reached, mut frontier) = (source, source);
        while !frontier.is_empty() {
            let mut nb = RelSet::empty();
            for v in frontier.iter() {
                nb = nb.union(self.adj[v]);
            }
            frontier = nb.intersect(restrict).difference(reached);
            reached = reached.union(frontier);
        }
        reached
    }

    /// `true` if the subgraph induced by `set` is connected (empty and
    /// singleton sets count as connected).
    #[inline]
    pub fn is_connected(&self, set: RelSet) -> bool {
        match set.first() {
            None => true,
            Some(v) => self.grow(RelSet::singleton(v), set) == set,
        }
    }

    /// `true` if there is at least one edge between `a` and `b`.
    #[inline]
    pub fn sets_connected(&self, a: RelSet, b: RelSet) -> bool {
        self.neighbors(a).overlaps(b)
    }

    /// Product of the selectivities of all edges with one endpoint in `a` and
    /// the other in `b`. Returns 1.0 when no edge crosses.
    ///
    /// This is the factor by which the cross-product cardinality
    /// `|a| × |b|` shrinks when joining the two sides, and — because every
    /// induced edge of `a ∪ b` is counted exactly once across the recursive
    /// decomposition — it makes estimated cardinalities split-invariant.
    ///
    /// Symmetric to the bit: the factors are multiplied in an order that
    /// depends on the unordered pair only, so both join orders of a split
    /// can be priced from one call.
    pub fn selectivity_between(&self, a: RelSet, b: RelSet) -> f64 {
        debug_assert!(a.is_disjoint(b));
        // Iterate from the smaller side; equal sizes go by bitmap.
        let (from, to) = if (a.len(), a.bits()) <= (b.len(), b.bits()) {
            (a, b)
        } else {
            (b, a)
        };
        let mut sel = 1.0;
        for v in from.iter() {
            for &(w, s) in &self.adj_list[v] {
                if to.contains(w as usize) {
                    sel *= s;
                }
            }
        }
        sel
    }

    /// Iterates over the edges of the subgraph induced by `set`.
    pub fn induced_edges<'a>(&'a self, set: RelSet) -> impl Iterator<Item = &'a Edge> + 'a {
        self.edges
            .iter()
            .filter(move |e| set.contains(e.u as usize) && set.contains(e.v as usize))
    }

    /// Counts the edges of the subgraph induced by `set`.
    pub fn induced_edge_count(&self, set: RelSet) -> usize {
        self.induced_edges(set).count()
    }

    /// `true` if the whole graph is connected.
    pub fn is_fully_connected_graph(&self) -> bool {
        self.is_connected(self.all_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 9-relation example graph of Figure 5 (0-indexed: paper vertex k is
    /// our k-1). Edges: cycle 1-2-4-3-1 plus chord... per Figure 5:
    /// {1,2,3,4} is a block (cycle 1-2, 2-4?, ...). We reconstruct: block
    /// {1,2,3,4} fully cyclic via edges (1,2),(2,4),(4,3),(3,1); bridges
    /// (4,5),(5,9); block {6,7,8,9} via (6,7),(7,8),(8,9),(9,6).
    pub(crate) fn figure5_graph() -> JoinGraph {
        let mut g = JoinGraph::new(9);
        // paper vertices 1..9 -> indices 0..8
        for &(u, v) in &[
            (1, 2),
            (2, 4),
            (4, 3),
            (3, 1), // block {1,2,3,4}
            (4, 5), // bridge
            (5, 9), // bridge
            (6, 7),
            (7, 8),
            (8, 9),
            (9, 6), // block {6,7,8,9}
        ] {
            g.add_edge(u - 1, v - 1, 0.1);
        }
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = figure5_graph();
        assert_eq!(g.num_vertices(), 9);
        assert_eq!(g.num_edges(), 10);
        assert!(g.is_fully_connected_graph());
    }

    #[test]
    fn neighbors_of_sets() {
        let g = figure5_graph();
        // Vertex 4 (paper 5) neighbors paper {4, 9} = idx {3, 8}.
        assert_eq!(
            g.neighbors(RelSet::singleton(4)),
            RelSet::from_indices([3, 8])
        );
        // Neighborhood excludes the set itself.
        let s = RelSet::from_indices([0, 1]);
        assert!(g.neighbors(s).is_disjoint(s));
    }

    #[test]
    fn grow_example_from_paper() {
        // §3.2.1: source {1,2,3}, restricted {1,2,3,4,5,9} -> all of it.
        let g = figure5_graph();
        let src = RelSet::from_indices([0, 1, 2]);
        let restrict = RelSet::from_indices([0, 1, 2, 3, 4, 8]);
        assert_eq!(g.grow(src, restrict), restrict);
    }

    #[test]
    fn grow_stops_at_restriction() {
        let g = figure5_graph();
        // From paper vertex 1 restricted to {1,2}: cannot reach 3,4.
        let got = g.grow(RelSet::singleton(0), RelSet::from_indices([0, 1]));
        assert_eq!(got, RelSet::from_indices([0, 1]));
    }

    #[test]
    fn grow_matches_a_reference_bfs_on_random_graphs() {
        // Vertex-at-a-time BFS over the incidence lists, restricted to
        // `restrict`, against the frontier grow and is_connected.
        let bfs = |g: &JoinGraph, source: RelSet, restrict: RelSet| {
            let mut seen = source;
            let mut queue: Vec<usize> = source.iter().collect();
            while let Some(v) = queue.pop() {
                for &(w, _) in g.incident(v) {
                    let w = w as usize;
                    if restrict.contains(w) && !seen.contains(w) {
                        seen = seen.with(w);
                        queue.push(w);
                    }
                }
            }
            seen
        };
        let mut state = 7u64;
        let mut draw = || {
            state = crate::memo::murmur3_fmix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            state
        };
        for _ in 0..200 {
            let n = 2 + (draw() % 40) as usize;
            let mut g = JoinGraph::new(n);
            for _ in 0..(draw() % (2 * n as u64 + 1)) {
                let (u, v) = ((draw() % n as u64) as usize, (draw() % n as u64) as usize);
                if u != v {
                    g.add_edge(u, v, 0.5);
                }
            }
            let all = g.all_vertices().bits();
            for _ in 0..50 {
                let restrict = RelSet(draw() & all);
                let source = RelSet(draw() & restrict.bits() & draw());
                assert_eq!(g.grow(source, restrict), bfs(&g, source, restrict));
                let connected = match restrict.first() {
                    None => true,
                    Some(v) => bfs(&g, RelSet::singleton(v), restrict) == restrict,
                };
                assert_eq!(g.is_connected(restrict), connected, "{restrict}");
            }
        }
    }

    #[test]
    fn connectivity_checks() {
        let g = figure5_graph();
        assert!(g.is_connected(RelSet::empty()));
        assert!(g.is_connected(RelSet::singleton(3)));
        assert!(g.is_connected(RelSet::from_indices([0, 1, 2, 3])));
        // Paper {1,2,4} with edges (1,2),(2,4): connected.
        assert!(g.is_connected(RelSet::from_indices([0, 1, 3])));
        // Paper {1, 9}: not connected.
        assert!(!g.is_connected(RelSet::from_indices([0, 8])));
        // Paper example from §2.1: {1,2,4} vs {6,7,8} not connected to each other.
        let a = RelSet::from_indices([0, 1, 3]);
        let b = RelSet::from_indices([5, 6, 7]);
        assert!(!g.sets_connected(a, b));
        // {1,2,4} vs {5,6}: edge (4,5) paper = (3,4) ours.
        let c = RelSet::from_indices([4, 5]);
        assert!(g.sets_connected(a, c));
    }

    #[test]
    fn selectivity_between_multiplies_crossing_edges() {
        let mut g = JoinGraph::new(4);
        g.add_edge(0, 1, 0.5);
        g.add_edge(1, 2, 0.25);
        g.add_edge(2, 3, 0.1);
        g.add_edge(0, 3, 0.2);
        let a = RelSet::from_indices([0, 1]);
        let b = RelSet::from_indices([2, 3]);
        // Crossing edges: (1,2) and (0,3).
        let s = g.selectivity_between(a, b);
        assert!((s - 0.25 * 0.2).abs() < 1e-12);
        // No crossing edge -> 1.0
        let mut h = JoinGraph::new(3);
        h.add_edge(0, 1, 0.5);
        assert_eq!(
            h.selectivity_between(RelSet::singleton(0), RelSet::singleton(2)),
            1.0
        );
    }

    #[test]
    fn parallel_edges_merge_multiplicatively() {
        let mut g = JoinGraph::new(2);
        g.add_edge(0, 1, 0.5);
        g.add_edge(1, 0, 0.5);
        assert_eq!(g.num_edges(), 1);
        let s = g.selectivity_between(RelSet::singleton(0), RelSet::singleton(1));
        assert!((s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn induced_edges_filtering() {
        let g = figure5_graph();
        let s = RelSet::from_indices([0, 1, 2, 3]); // paper block {1,2,3,4}
        assert_eq!(g.induced_edge_count(s), 4);
        assert_eq!(g.induced_edge_count(RelSet::singleton(0)), 0);
        assert_eq!(g.induced_edge_count(g.all_vertices()), 10);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = JoinGraph::new(2);
        g.add_edge(1, 1, 0.5);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn bad_selectivity_rejected() {
        let mut g = JoinGraph::new(2);
        g.add_edge(0, 1, 0.0);
    }
}
