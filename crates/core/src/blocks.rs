//! Biconnected components ("blocks") of induced subgraphs.
//!
//! MPDP's general-graph enumeration (§3.2, Algorithm 3) decomposes the
//! subgraph induced by each DP set `S` into its blocks — maximal nonseparable
//! subgraphs — with the Hopcroft–Tarjan algorithm \[12\], then runs vertex-based
//! enumeration *inside* each block and edge-based `grow` across the cut
//! vertices. Per Lemma 7 this cuts the per-set work from `2^|S|` to
//! `Σ_blocks 2^|block|`.
//!
//! The implementation is an iterative DFS (no recursion, so deep chains do not
//! overflow the stack) restricted to the vertices of `S`.

use crate::bitset::RelSet;
use crate::graph::JoinGraph;

/// Result of a block decomposition of an induced subgraph.
#[derive(Clone, Debug, Default)]
pub struct BlockDecomposition {
    /// Vertex sets of the biconnected components. A bridge edge forms a
    /// two-vertex block. Blocks overlap exactly at cut vertices.
    pub blocks: Vec<RelSet>,
    /// The cut (articulation) vertices of the induced subgraph.
    pub cut_vertices: RelSet,
}

impl BlockDecomposition {
    /// The number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Largest block size (0 when there are no edges).
    pub fn max_block_size(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).max().unwrap_or(0)
    }
}

/// Finds the biconnected components of the subgraph of `g` induced by `s`
/// (the `Find-Blocks` function of Algorithm 3, line 4).
///
/// Works for disconnected `s` too (each connected component is decomposed
/// independently). Isolated vertices produce no block. One-shot convenience
/// over [`BlockFinder`]; per-set callers keep a finder and reuse it.
pub fn find_blocks(g: &JoinGraph, s: RelSet) -> BlockDecomposition {
    let mut finder = BlockFinder::new();
    BlockDecomposition {
        blocks: finder.find(g, s).to_vec(),
        cut_vertices: finder.cut_vertices(),
    }
}

/// One DFS frame: the vertex, its DFS parent (64 for a root) and the
/// neighbours inside the set still to visit.
#[derive(Copy, Clone)]
struct Frame {
    v: u8,
    parent: u8,
    remaining: RelSet,
}

const NO_PARENT: u8 = 64;

/// Reusable Hopcroft–Tarjan scratch: every array is fixed-size (a set has at
/// most 64 vertices, so DFS depth, open vertices and blocks are all ≤ 64),
/// so [`BlockFinder::find`] never allocates and only touches the entries of
/// the vertices it visits — what MPDP wants when it decomposes hundreds of
/// thousands of small sets per query.
pub struct BlockFinder {
    disc: [u8; 64],
    low: [u8; 64],
    frames: [Frame; 64],
    /// Visited vertices not yet assigned to a block, in discovery order.
    open: [u8; 64],
    blocks: [RelSet; 64],
    num_blocks: usize,
    cuts: RelSet,
}

impl Default for BlockFinder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockFinder {
    /// Fresh scratch.
    pub fn new() -> Self {
        BlockFinder {
            disc: [0; 64],
            low: [0; 64],
            frames: [Frame {
                v: 0,
                parent: NO_PARENT,
                remaining: RelSet::EMPTY,
            }; 64],
            open: [0; 64],
            blocks: [RelSet::EMPTY; 64],
            num_blocks: 0,
            cuts: RelSet::EMPTY,
        }
    }

    /// The cut (articulation) vertices found by the last [`BlockFinder::find`].
    pub fn cut_vertices(&self) -> RelSet {
        self.cuts
    }

    /// Decomposes the subgraph of `g` induced by `s` into its blocks; same
    /// contract as [`find_blocks`]. The slice is valid until the next call.
    pub fn find(&mut self, g: &JoinGraph, s: RelSet) -> &[RelSet] {
        for v in s.iter() {
            self.disc[v] = 0;
        }
        self.num_blocks = 0;
        self.cuts = RelSet::EMPTY;
        let mut time = 0u8;

        for start in s.iter() {
            if self.disc[start] != 0 {
                continue;
            }
            time += 1;
            self.disc[start] = time;
            self.low[start] = time;
            let mut root_children = 0usize;
            let mut open = 0usize; // the root is never popped, so not pushed
            let mut depth = 1usize;
            self.frames[0] = Frame {
                v: start as u8,
                parent: NO_PARENT,
                remaining: g.adjacency(start).intersect(s),
            };

            while depth > 0 {
                let Frame {
                    v,
                    parent,
                    remaining,
                } = self.frames[depth - 1];
                let v = v as usize;
                if let Some(w) = remaining.first() {
                    self.frames[depth - 1].remaining = remaining.without(w);
                    if w == parent as usize {
                        continue; // skip the tree edge back to the parent
                    }
                    if self.disc[w] == 0 {
                        // Tree edge.
                        time += 1;
                        self.disc[w] = time;
                        self.low[w] = time;
                        self.open[open] = w as u8;
                        open += 1;
                        if v == start {
                            root_children += 1;
                        }
                        self.frames[depth] = Frame {
                            v: w as u8,
                            parent: v as u8,
                            remaining: g.adjacency(w).intersect(s),
                        };
                        depth += 1;
                    } else {
                        // Back edge (or a forward view of one: then
                        // disc[w] > disc[v] ≥ low[v] and the min is a no-op).
                        self.low[v] = self.low[v].min(self.disc[w]);
                    }
                } else {
                    // Done with v: propagate low to the parent, and if the
                    // parent separates v's subtree, pop it as one block.
                    depth -= 1;
                    if parent == NO_PARENT {
                        continue;
                    }
                    let p = parent as usize;
                    self.low[p] = self.low[p].min(self.low[v]);
                    if self.low[v] >= self.disc[p] {
                        let mut block = RelSet::singleton(p);
                        loop {
                            open -= 1;
                            let x = self.open[open] as usize;
                            block = block.with(x);
                            if x == v {
                                break;
                            }
                        }
                        self.blocks[self.num_blocks] = block;
                        self.num_blocks += 1;
                        if p != start {
                            self.cuts = self.cuts.with(p);
                        }
                    }
                }
            }
            if root_children >= 2 {
                self.cuts = self.cuts.with(start);
            }
        }
        &self.blocks[..self.num_blocks]
    }
}

/// A bridge of the whole join graph with the vertex set on one side of it.
#[derive(Copy, Clone, Debug)]
pub struct Bridge {
    /// Both endpoints.
    pub ends: RelSet,
    /// Every vertex on the lower endpoint's side of the bridge (the
    /// component of that endpoint once the bridge is removed).
    pub side: RelSet,
}

/// The block structure of a whole join graph, computed once per query so
/// that per-set work can be restricted to where cycles can exist.
///
/// Every cycle of an induced subgraph `G[S]` is a cycle of `G` and so lies
/// inside one block of `G`; hence `blocks(G[S])` is the union over the
/// blocks `B` of `G` of `blocks(G[S ∩ B])`. For a two-vertex `B` (a bridge
/// of `G`) that is the bridge itself whenever both ends are in `S`, and
/// removing it splits a connected `S` into `S ∩ side` and the rest — a
/// mask, no DFS and no `grow`. Only the blocks with three or more vertices
/// ever need [`BlockFinder`], on `S ∩ B`.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    /// The bridges of the graph.
    pub bridges: Vec<Bridge>,
    /// The blocks of the graph with at least three vertices.
    pub cyclic: Vec<RelSet>,
}

impl BlockIndex {
    /// Decomposes `g`.
    pub fn new(g: &JoinGraph) -> Self {
        let all = g.all_vertices();
        let mut index = BlockIndex::default();
        for &b in BlockFinder::new().find(g, all) {
            if b.len() > 2 {
                index.cyclic.push(b);
                continue;
            }
            let (u, v) = (b.lowest_bit(), b.difference(b.lowest_bit()));
            index.bridges.push(Bridge {
                ends: b,
                side: g.grow(u, all.difference(v)),
            });
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn sorted_blocks(d: &BlockDecomposition) -> Vec<u64> {
        let mut v: Vec<u64> = d.blocks.iter().map(|b| b.bits()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn figure5_full_decomposition() {
        // §2.4: blocks {1,2,3,4}; {4,5}; {5,9}; {6,7,8,9}, cuts {4,5,9}.
        let g = figure5_graph();
        let d = find_blocks(&g, g.all_vertices());
        let expect: Vec<u64> = vec![
            RelSet::from_indices([0, 1, 2, 3]).bits(),
            RelSet::from_indices([3, 4]).bits(),
            RelSet::from_indices([4, 8]).bits(),
            RelSet::from_indices([5, 6, 7, 8]).bits(),
        ]
        .into_iter()
        .collect();
        let mut e = expect.clone();
        e.sort_unstable();
        assert_eq!(sorted_blocks(&d), e);
        assert_eq!(d.cut_vertices, RelSet::from_indices([3, 4, 8]));
    }

    #[test]
    fn figure5_induced_subset() {
        // §3.2 example: S = {1,2,3,4,5} -> blocks {1,2,3,4} and {4,5}.
        let g = figure5_graph();
        let s = RelSet::from_indices([0, 1, 2, 3, 4]);
        let d = find_blocks(&g, s);
        let mut e = vec![
            RelSet::from_indices([0, 1, 2, 3]).bits(),
            RelSet::from_indices([3, 4]).bits(),
        ];
        e.sort_unstable();
        assert_eq!(sorted_blocks(&d), e);
        assert_eq!(d.cut_vertices, RelSet::singleton(3));
    }

    #[test]
    fn tree_decomposes_into_bridge_blocks() {
        // A star: every edge is its own block; the hub is the only cut vertex.
        let mut g = JoinGraph::new(5);
        for i in 1..5 {
            g.add_edge(0, i, 0.1);
        }
        let d = find_blocks(&g, g.all_vertices());
        assert_eq!(d.num_blocks(), 4);
        for b in &d.blocks {
            assert_eq!(b.len(), 2);
            assert!(b.contains(0));
        }
        assert_eq!(d.cut_vertices, RelSet::singleton(0));
    }

    #[test]
    fn cycle_is_a_single_block() {
        let mut g = JoinGraph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, 0.1);
        }
        let d = find_blocks(&g, g.all_vertices());
        assert_eq!(d.num_blocks(), 1);
        assert_eq!(d.blocks[0], g.all_vertices());
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn clique_is_a_single_block() {
        let mut g = JoinGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j, 0.1);
            }
        }
        let d = find_blocks(&g, g.all_vertices());
        assert_eq!(d.num_blocks(), 1);
        assert_eq!(d.max_block_size(), 5);
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn two_vertex_edge() {
        let mut g = JoinGraph::new(2);
        g.add_edge(0, 1, 0.5);
        let d = find_blocks(&g, g.all_vertices());
        assert_eq!(d.num_blocks(), 1);
        assert_eq!(d.blocks[0], RelSet::from_indices([0, 1]));
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn isolated_vertices_and_disconnected_input() {
        let mut g = JoinGraph::new(5);
        g.add_edge(0, 1, 0.5);
        g.add_edge(2, 3, 0.5);
        // Vertex 4 isolated.
        let d = find_blocks(&g, g.all_vertices());
        assert_eq!(d.num_blocks(), 2);
        assert!(d.cut_vertices.is_empty());
    }

    #[test]
    fn restriction_to_subset_ignores_outside_edges() {
        let g = figure5_graph();
        // S = {4,5,9} (paper {5,6,10}? no — idx 3,4,8 = paper 4,5,9): chain
        // 4-5-9 via bridges -> two bridge blocks, cut vertex 5 (idx 4).
        let s = RelSet::from_indices([3, 4, 8]);
        let d = find_blocks(&g, s);
        let mut e = vec![
            RelSet::from_indices([3, 4]).bits(),
            RelSet::from_indices([4, 8]).bits(),
        ];
        e.sort_unstable();
        assert_eq!(sorted_blocks(&d), e);
        assert_eq!(d.cut_vertices, RelSet::singleton(4));
    }

    #[test]
    fn blocks_partition_induced_edges() {
        // Every induced edge belongs to exactly one block (property used by
        // Lemma 4's proof).
        let g = figure5_graph();
        for s in [
            g.all_vertices(),
            RelSet::from_indices([0, 1, 2, 3, 4]),
            RelSet::from_indices([3, 4, 8, 5, 6, 7]),
        ] {
            let d = find_blocks(&g, s);
            let mut edge_count = 0;
            for b in &d.blocks {
                edge_count += g.induced_edge_count(*b);
            }
            assert_eq!(edge_count, g.induced_edge_count(s));
        }
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let mut g = JoinGraph::new(5);
        g.add_edge(0, 1, 0.1);
        g.add_edge(1, 2, 0.1);
        g.add_edge(2, 0, 0.1);
        g.add_edge(2, 3, 0.1);
        g.add_edge(3, 4, 0.1);
        g.add_edge(4, 2, 0.1);
        let d = find_blocks(&g, g.all_vertices());
        let mut e = vec![
            RelSet::from_indices([0, 1, 2]).bits(),
            RelSet::from_indices([2, 3, 4]).bits(),
        ];
        e.sort_unstable();
        assert_eq!(sorted_blocks(&d), e);
        assert_eq!(d.cut_vertices, RelSet::singleton(2));
    }

    /// A random connected graph on `n` vertices: a random spanning tree plus
    /// `extra` random edges, driven by the Murmur3 finalizer as a generator.
    fn random_graph(n: usize, extra: usize, state: &mut u64) -> JoinGraph {
        let mut next = |m: usize| {
            *state = crate::memo::murmur3_fmix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            (*state % m as u64) as usize
        };
        let mut g = JoinGraph::new(n);
        for v in 1..n {
            g.add_edge(next(v), v, 0.5);
        }
        for _ in 0..extra {
            let (a, b) = (next(n), next(n));
            if a != b && !g.adjacency(a).contains(b) {
                g.add_edge(a, b, 0.5);
            }
        }
        g
    }

    fn random_subset(of: RelSet, state: &mut u64) -> RelSet {
        *state = crate::memo::murmur3_fmix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
        RelSet(*state & of.bits())
    }

    fn sorted(blocks: &[RelSet]) -> Vec<u64> {
        let mut v: Vec<u64> = blocks.iter().map(|b| b.bits()).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn reused_finder_equals_fresh_and_blocks_are_maximal_nonseparable() {
        let mut state = 7u64;
        let mut finder = BlockFinder::new();
        for round in 0..1000 {
            let n = 3 + round % 12;
            let g = random_graph(n, round % 7, &mut state);
            let s = random_subset(g.all_vertices(), &mut state);
            let fresh = find_blocks(&g, s);
            let reused = finder.find(&g, s).to_vec();
            assert_eq!(sorted(&reused), sorted(&fresh.blocks), "round {round}");
            assert_eq!(finder.cut_vertices(), fresh.cut_vertices);
            // Independent of the DFS: the blocks partition the induced
            // edges, each is connected and has no cut vertex of its own,
            // and no two that touch could be merged into one.
            let edges: usize = reused.iter().map(|b| g.induced_edge_count(*b)).sum();
            assert_eq!(edges, g.induced_edge_count(s));
            let nonseparable =
                |b: RelSet| g.is_connected(b) && b.iter().all(|v| g.is_connected(b.without(v)));
            for (i, &b) in reused.iter().enumerate() {
                assert!(b.is_subset(s) && b.len() >= 2 && nonseparable(b));
                for &c in &reused[..i] {
                    assert!(b.intersect(c).len() <= 1);
                    assert!(!b.overlaps(c) || !nonseparable(b.union(c)));
                }
            }
        }
    }

    #[test]
    fn induced_blocks_are_the_union_over_global_blocks() {
        // What BlockIndex rests on: blocks(G[S]) is the union over the
        // blocks B of G of blocks(G[S ∩ B]); a bridge of G inside a
        // connected S splits it along the precomputed side mask.
        let mut state = 11u64;
        let mut finder = BlockFinder::new();
        for round in 0..1000 {
            let n = 3 + round % 12;
            let g = random_graph(n, round % 6, &mut state);
            let index = BlockIndex::new(&g);
            let s = random_subset(g.all_vertices(), &mut state);
            let mut pieces: Vec<RelSet> = Vec::new();
            for br in &index.bridges {
                if br.ends.is_subset(s) {
                    pieces.push(br.ends);
                }
            }
            for &b in &index.cyclic {
                pieces.extend_from_slice(finder.find(&g, s.intersect(b)));
            }
            assert_eq!(sorted(&pieces), sorted(&find_blocks(&g, s).blocks));
            if !g.is_connected(s) {
                continue;
            }
            for br in index.bridges.iter().filter(|br| br.ends.is_subset(s)) {
                let u = br.ends.lowest_bit();
                let left = g.grow(u, s.difference(br.ends.difference(u)));
                assert_eq!(s.intersect(br.side), left, "round {round}");
            }
        }
    }
}
