//! Query representations consumed by the optimizers.
//!
//! Two layers, matching the paper's two regimes:
//!
//! * [`QueryInfo`] — at most 64 relations, bitmap-based, consumed by the exact
//!   DP algorithms (`QI` in Algorithms 1–3 and 5).
//! * [`LargeQuery`] — arbitrary relation count, adjacency-list based, consumed
//!   by the heuristics of §4 (IDP2, UnionDP, GOO, …) which scale to 1000+
//!   relations and call the exact DP only on *projected* sub-problems.

use crate::bitset::RelSet;
use crate::graph::JoinGraph;

/// Per-relation information the optimizers need: the estimated output
/// cardinality of scanning the relation and the cost of doing so.
///
/// For a base table these come from the catalog (`mpdp-cost`); for a
/// *composite* relation (a temporary table standing for an already-optimized
/// subtree, as used by IDP2 and UnionDP) they are the subtree's estimated
/// rows and plan cost.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RelInfo {
    /// Estimated number of output rows.
    pub rows: f64,
    /// Cost of producing those rows (scan cost or subplan cost).
    pub cost: f64,
}

impl RelInfo {
    /// Convenience constructor.
    pub fn new(rows: f64, cost: f64) -> Self {
        RelInfo { rows, cost }
    }
}

/// A join-order optimization problem over at most 64 relations.
#[derive(Clone, Debug)]
pub struct QueryInfo {
    /// The join graph; vertex `i` corresponds to `rels[i]`.
    pub graph: JoinGraph,
    /// Scan info per relation.
    pub rels: Vec<RelInfo>,
}

impl QueryInfo {
    /// Creates a query; panics if `rels` and the graph disagree on the number
    /// of relations.
    pub fn new(graph: JoinGraph, rels: Vec<RelInfo>) -> Self {
        assert_eq!(
            graph.num_vertices(),
            rels.len(),
            "graph/relation count mismatch"
        );
        QueryInfo { graph, rels }
    }

    /// Number of relations ("query size" in the paper's pseudo-code).
    #[inline]
    pub fn query_size(&self) -> usize {
        self.rels.len()
    }

    /// Converts to the adjacency-list representation consumed by the
    /// heuristic optimizers. Always succeeds (bitmap queries are ≤ 64
    /// relations); the inverse of [`LargeQuery::to_query_info`].
    pub fn to_large(&self) -> LargeQuery {
        let mut q = LargeQuery::new(self.rels.clone());
        for e in self.graph.edges() {
            q.add_edge(e.u as usize, e.v as usize, e.sel);
        }
        q
    }

    /// Estimated cardinality of the join of all relations in `set`:
    /// ∏ rows × ∏ selectivities of the edges induced by `set`.
    ///
    /// Split-invariant by construction, so every DP decomposition agrees.
    pub fn cardinality(&self, set: RelSet) -> f64 {
        let mut rows = 1.0;
        for v in set.iter() {
            rows *= self.rels[v].rows;
        }
        for e in self.graph.induced_edges(set) {
            rows *= e.sel;
        }
        rows
    }
}

/// An edge of a [`LargeQuery`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LargeEdge {
    /// One endpoint (relation index).
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Join-predicate selectivity in `(0, 1]`.
    pub sel: f64,
}

/// A join-order optimization problem of arbitrary size (heuristic regime).
#[derive(Clone, Debug, Default)]
pub struct LargeQuery {
    /// Scan info per relation.
    pub rels: Vec<RelInfo>,
    /// Undirected join edges (no duplicates; `u < v`).
    pub edges: Vec<LargeEdge>,
    /// Per-vertex incident `(neighbor, selectivity)` lists.
    pub adj: Vec<Vec<(u32, f64)>>,
}

impl LargeQuery {
    /// Creates a query with `n` relations and no edges.
    pub fn new(rels: Vec<RelInfo>) -> Self {
        let n = rels.len();
        LargeQuery {
            rels,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of relations.
    #[inline]
    pub fn num_rels(&self) -> usize {
        self.rels.len()
    }

    /// Adds an undirected edge, merging duplicates multiplicatively.
    ///
    /// Whether the pair is new is read from the adjacency list of the
    /// endpoint with the smaller degree, so a new edge costs `O(min deg)`;
    /// only a duplicate searches `edges` for the entry to merge into.
    pub fn add_edge(&mut self, u: usize, v: usize, sel: f64) {
        assert!(u < self.num_rels() && v < self.num_rels());
        assert_ne!(u, v);
        assert!(
            sel.is_finite() && (0.0..=1.0).contains(&sel),
            "selectivity {sel}"
        );
        // Clamp away from zero: products of hundreds of tiny selectivities
        // (contracted clique partitions) otherwise underflow to 0, which
        // would zero out all downstream cardinalities.
        let sel = sel.max(1e-300);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let (near, far) = if self.adj[a].len() <= self.adj[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        let known = self.adj[near].iter().any(|&(w, _)| w == far as u32);
        let merge_into = if known {
            let pair = (a as u32, b as u32);
            self.edges.iter_mut().find(|e| (e.u, e.v) == pair)
        } else {
            None
        };
        if let Some(e) = merge_into {
            e.sel = (e.sel * sel).max(1e-300);
            for &(x, y) in &[(a, b), (b, a)] {
                for entry in self.adj[x].iter_mut() {
                    if entry.0 == y as u32 {
                        entry.1 = (entry.1 * sel).max(1e-300);
                    }
                }
            }
            return;
        }
        self.edges.push(LargeEdge {
            u: a as u32,
            v: b as u32,
            sel,
        });
        self.adj[a].push((b as u32, sel));
        self.adj[b].push((a as u32, sel));
    }

    /// `true` if the whole query graph is connected.
    pub fn is_connected(&self) -> bool {
        let n = self.num_rels();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w as usize);
                }
            }
        }
        count == n
    }

    /// Converts to the bitmap representation. Fails (returns `None`) when the
    /// query has more than 64 relations.
    pub fn to_query_info(&self) -> Option<QueryInfo> {
        if self.num_rels() > 64 {
            return None;
        }
        let mut g = JoinGraph::new(self.num_rels());
        for e in &self.edges {
            g.add_edge(e.u as usize, e.v as usize, e.sel);
        }
        Some(QueryInfo::new(g, self.rels.clone()))
    }

    /// Returns the same query with relation `i` renamed to `new_of_old[i]`
    /// (`new_of_old` must be a permutation of `0..num_rels()`).
    ///
    /// Statistics and selectivities are untouched, so the result is
    /// isomorphic to `self` — the identity the serving layer's fingerprint
    /// cache is built on (see `crate::fingerprint`). Also how the Zipf
    /// replay stream disguises repeated query shapes.
    pub fn relabel(&self, new_of_old: &[usize]) -> LargeQuery {
        let n = self.num_rels();
        assert_eq!(new_of_old.len(), n, "permutation length mismatch");
        let mut rels = vec![RelInfo::new(0.0, 0.0); n];
        let mut seen = vec![false; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            assert!(new < n && !seen[new], "not a permutation");
            seen[new] = true;
            rels[new] = self.rels[old];
        }
        let mut q = LargeQuery::new(rels);
        for e in &self.edges {
            q.add_edge(new_of_old[e.u as usize], new_of_old[e.v as usize], e.sel);
        }
        q
    }

    /// Projects the sub-problem induced by `vertices` (given as original
    /// relation indices, at most 64 of them) onto a fresh [`QueryInfo`].
    ///
    /// Returns the projected query and the mapping from projected index to
    /// original index. Edges between projected vertices keep their
    /// selectivities; edges to outside vertices are dropped (they become cut
    /// edges at the caller's level).
    ///
    /// This is how the heuristics invoke MPDP "with the correct subset of the
    /// query information" (§4.1.1).
    pub fn project(&self, vertices: &[usize]) -> (QueryInfo, Vec<usize>) {
        assert!(vertices.len() <= 64, "projection wider than 64 relations");
        let mut index_of = vec![usize::MAX; self.num_rels()];
        for (new, &old) in vertices.iter().enumerate() {
            index_of[old] = new;
        }
        let mut g = JoinGraph::new(vertices.len());
        for e in &self.edges {
            let (iu, iv) = (index_of[e.u as usize], index_of[e.v as usize]);
            if iu != usize::MAX && iv != usize::MAX {
                g.add_edge(iu, iv, e.sel);
            }
        }
        let rels = vertices.iter().map(|&v| self.rels[v]).collect();
        (QueryInfo::new(g, rels), vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain4() -> LargeQuery {
        let mut q = LargeQuery::new(vec![
            RelInfo::new(100.0, 10.0),
            RelInfo::new(200.0, 20.0),
            RelInfo::new(300.0, 30.0),
            RelInfo::new(400.0, 40.0),
        ]);
        q.add_edge(0, 1, 0.01);
        q.add_edge(1, 2, 0.005);
        q.add_edge(2, 3, 0.002);
        q
    }

    #[test]
    fn cardinality_is_split_invariant() {
        let q = chain4().to_query_info().unwrap();
        let full = q.graph.all_vertices();
        let total = q.cardinality(full);
        // product of rows * product of sels
        let expect = 100.0 * 200.0 * 300.0 * 400.0 * 0.01 * 0.005 * 0.002;
        assert!((total - expect).abs() / expect < 1e-12);
        // Recursive consistency: card(S) = card(A)*card(B)*sel(A,B)
        let a = RelSet::from_indices([0, 1]);
        let b = RelSet::from_indices([2, 3]);
        let lhs = q.cardinality(full);
        let rhs = q.cardinality(a) * q.cardinality(b) * q.graph.selectivity_between(a, b);
        assert!((lhs - rhs).abs() / lhs < 1e-12);
    }

    #[test]
    fn large_query_connectivity() {
        let q = chain4();
        assert!(q.is_connected());
        let mut d = LargeQuery::new(vec![RelInfo::new(1.0, 1.0); 3]);
        d.add_edge(0, 1, 0.5);
        assert!(!d.is_connected());
        assert!(LargeQuery::new(vec![]).is_connected());
    }

    #[test]
    fn projection_keeps_internal_edges_only() {
        let q = chain4();
        let (sub, mapping) = q.project(&[1, 2]);
        assert_eq!(mapping, vec![1, 2]);
        assert_eq!(sub.query_size(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
        let e = sub.graph.edges()[0];
        assert!((e.sel - 0.005).abs() < 1e-15);
        assert_eq!(sub.rels[0].rows, 200.0);
        assert_eq!(sub.rels[1].rows, 300.0);
    }

    #[test]
    fn projection_of_disconnected_subset() {
        let q = chain4();
        let (sub, _) = q.project(&[0, 3]);
        assert_eq!(sub.graph.num_edges(), 0);
        assert!(!sub.graph.is_connected(RelSet::from_indices([0, 1])));
    }

    #[test]
    fn to_large_roundtrip() {
        let q = chain4();
        let back = q.to_query_info().unwrap().to_large();
        assert_eq!(back.rels, q.rels);
        assert_eq!(back.edges.len(), q.edges.len());
        for (a, b) in back.edges.iter().zip(&q.edges) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.sel - b.sel).abs() < 1e-15);
        }
    }

    #[test]
    fn to_query_info_roundtrip() {
        let q = chain4();
        let qi = q.to_query_info().unwrap();
        assert_eq!(qi.query_size(), 4);
        assert_eq!(qi.graph.num_edges(), 3);
        assert!(qi.graph.is_connected(qi.graph.all_vertices()));
    }

    /// `add_edge` as first written, kept as the oracle of the degree check:
    /// searches the whole edge list for the pair on every call.
    fn add_edge_scan(q: &mut LargeQuery, u: usize, v: usize, sel: f64) {
        assert!(u < q.num_rels() && v < q.num_rels());
        assert_ne!(u, v);
        assert!(sel.is_finite() && (0.0..=1.0).contains(&sel));
        let sel = sel.max(1e-300);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if let Some(e) = q
            .edges
            .iter_mut()
            .find(|e| e.u == a as u32 && e.v == b as u32)
        {
            e.sel = (e.sel * sel).max(1e-300);
            for &(x, y) in &[(a, b), (b, a)] {
                for entry in q.adj[x].iter_mut() {
                    if entry.0 == y as u32 {
                        entry.1 = (entry.1 * sel).max(1e-300);
                    }
                }
            }
            return;
        }
        q.edges.push(LargeEdge {
            u: a as u32,
            v: b as u32,
            sel,
        });
        q.adj[a].push((b as u32, sel));
        q.adj[b].push((a as u32, sel));
    }

    /// Edges and adjacency as bits, so two queries compare equal only when
    /// every selectivity is the same to the bit.
    type GraphBits = (Vec<(u32, u32, u64)>, Vec<Vec<(u32, u64)>>);

    fn graph_bits(q: &LargeQuery) -> GraphBits {
        let edges = q.edges.iter().map(|e| (e.u, e.v, e.sel.to_bits()));
        let adj = q
            .adj
            .iter()
            .map(|a| a.iter().map(|&(w, s)| (w, s.to_bits())).collect());
        (edges.collect(), adj.collect())
    }

    /// SplitMix64: the property test's seeded stream (the crate has no
    /// random-number dependency).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn sel(&mut self) -> f64 {
            // (0, 1], with some tiny factors so products reach the clamp.
            let x = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            if self.below(8) == 0 {
                1e-200 * (1.0 - x)
            } else {
                1.0 - x
            }
        }
    }

    #[test]
    fn the_degree_check_builds_what_the_edge_scan_built() {
        // Each graph is inserted pair by pair through both forms, then
        // contracted group by group (the heuristics' `contract`: outside
        // vertices in order, the group last, every edge re-inserted in edge
        // order) down to one vertex, and relabelled in between; after every
        // step both forms hold the same edges, adjacency and selectivities,
        // bit for bit. Random connected graphs of 2–200 relations (60 in a
        // debug build) with duplicate insertions, cliques and cycles, whose
        // contractions merge parallel edges, and stars.
        let max_n = if cfg!(debug_assertions) { 60 } else { 200 };
        let mut mix = Mix(47);
        for seed in 0..40 {
            let n = match seed {
                0 => 2,
                1 => max_n,
                _ => 2 + mix.below(max_n - 1),
            };
            let mut pairs: Vec<(usize, usize)> = match seed % 4 {
                0 => (1..n).map(|i| (mix.below(i), i)).collect(),
                1 => (0..n.min(40))
                    .flat_map(|i| (i + 1..n.min(40)).map(move |j| (i, j)))
                    .collect(),
                2 => (0..n)
                    .map(|i| (i, (i + 1) % n))
                    .filter(|&(i, j)| i != j)
                    .collect(),
                _ => (1..n).map(|i| (0, i)).collect(),
            };
            let n = if seed % 4 == 1 { n.min(40) } else { n };
            if seed % 4 == 0 {
                // Extra edges, some of them repeats (merged on insertion).
                for _ in 0..n {
                    let (a, b) = (mix.below(n), mix.below(n));
                    if a != b {
                        pairs.push((a, b));
                    }
                }
                let again = pairs[mix.below(pairs.len())];
                pairs.push((again.1, again.0));
            }
            let rels = vec![RelInfo::new(10.0, 1.0); n];
            let (mut new, mut old) = (LargeQuery::new(rels.clone()), LargeQuery::new(rels));
            for &(a, b) in &pairs {
                let sel = mix.sel();
                new.add_edge(a, b, sel);
                add_edge_scan(&mut old, a, b, sel);
            }
            assert_eq!(graph_bits(&new), graph_bits(&old), "graph {seed} as built");
            while new.num_rels() > 1 {
                let n = new.num_rels();
                // A relabelling, then a contraction of 2–5 vertices.
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, mix.below(i + 1));
                }
                let q = new.relabel(&perm);
                let mut r = LargeQuery::new(q.rels.clone());
                for e in &old.edges {
                    let (u, v) = (perm[e.u as usize], perm[e.v as usize]);
                    add_edge_scan(&mut r, u, v, e.sel);
                }
                assert_eq!(
                    graph_bits(&q),
                    graph_bits(&r),
                    "graph {seed} relabelled at {n}"
                );
                let mut in_group = vec![false; n];
                for _ in 0..2 + mix.below(4) {
                    in_group[mix.below(n)] = true;
                }
                let mut map = vec![0; n];
                let mut outside = 0;
                for (v, &g) in in_group.iter().enumerate() {
                    if !g {
                        map[v] = outside;
                        outside += 1;
                    }
                }
                for (v, &g) in in_group.iter().enumerate() {
                    if g {
                        map[v] = outside;
                    }
                }
                let rels = vec![RelInfo::new(10.0, 1.0); outside + 1];
                let (mut c_new, mut c_old) = (LargeQuery::new(rels.clone()), LargeQuery::new(rels));
                for (e, f) in q.edges.iter().zip(&r.edges) {
                    let (u, v) = (map[e.u as usize], map[e.v as usize]);
                    if u != v {
                        c_new.add_edge(u, v, e.sel);
                        add_edge_scan(&mut c_old, u, v, f.sel);
                    }
                }
                assert_eq!(
                    graph_bits(&c_new),
                    graph_bits(&c_old),
                    "graph {seed} contracted at {n}"
                );
                (new, old) = (c_new, c_old);
            }
        }
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut q = LargeQuery::new(vec![RelInfo::new(1.0, 1.0); 2]);
        q.add_edge(0, 1, 0.5);
        q.add_edge(1, 0, 0.1);
        assert_eq!(q.edges.len(), 1);
        assert!((q.edges[0].sel - 0.05).abs() < 1e-15);
        assert!((q.adj[0][0].1 - 0.05).abs() < 1e-15);
    }
}
