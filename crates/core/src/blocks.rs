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
//! overflow the stack) restricted to the vertices of `S`. [`BlockIndex`]
//! decomposes the whole graph once, so that per set the DFS runs only where
//! the blocks are not already known, and a block split becomes a set split by
//! precomputed masks; [`SplitWalk`] visits only a block's connected splits,
//! and [`SplitFinder`] is the one walk from a block's intersection with a set
//! to those masks. A small block keeps the masks of every intersection in a
//! [`SplitTable`], built once per query with that walk.

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

    /// The blocks of `G[S ∩ B]`, given `inside = S ∩ B` for a connected `S`
    /// and a block `B` of `g`, with no DFS where the answer is known: a
    /// block of `g` is biconnected, so `S ⊇ B` leaves `B` one block; and two
    /// vertices of `B` in a connected `S` are adjacent (a path of `S`
    /// between them cannot leave `B` and come back), so `|S ∩ B| = 2` is
    /// that edge. Otherwise [`BlockFinder::find`] on `inside`.
    pub fn find_in_block(&mut self, g: &JoinGraph, inside: RelSet, block: RelSet) -> &[RelSet] {
        debug_assert!(inside.is_subset(block));
        if inside.len() == 2 || inside == block {
            self.blocks[0] = inside;
            self.num_blocks = 1;
            self.cuts = RelSet::EMPTY;
            return &self.blocks[..1];
        }
        self.find(g, inside)
    }
}

/// Walks the connected left sides of a block's splits: every connected
/// `lb ⊂ b` holding `b`'s lowest vertex, `lb ≠ b`, each once. It is
/// `EnumerateCsgRec` (Moerkotte–Neumann) restricted to `b`, one vertex per
/// step as in [`crate::enumerate`]: a set carries the vertices that may
/// still extend it and everything its extensions may not add again, so every
/// set has one parent and there is nothing to deduplicate. The stack is
/// fixed (a set grows by one vertex per level, so it is at most 64 deep), and
/// a walk allocates nothing.
pub struct SplitWalk {
    stack: [WalkStep; 64],
}

/// One level of [`SplitWalk`]: a connected set, the vertices that may still
/// extend it, and every vertex an extension may not add again.
#[derive(Copy, Clone, Default)]
struct WalkStep {
    set: RelSet,
    ext: RelSet,
    seen: RelSet,
}

impl Default for SplitWalk {
    fn default() -> Self {
        Self::new()
    }
}

impl SplitWalk {
    /// Fresh scratch.
    pub fn new() -> Self {
        SplitWalk {
            stack: [WalkStep::default(); 64],
        }
    }

    /// Every connected `lb ⊂ block` that holds `block`'s lowest vertex,
    /// `lb ≠ block`, once each. `block` must be connected and have at least
    /// two vertices. An iterator rather than a callback, so that what the
    /// caller's loop updates can stay in registers (DESIGN.md §4).
    #[inline]
    pub fn lefts<'w>(&'w mut self, g: &'w JoinGraph, block: RelSet) -> Lefts<'w> {
        debug_assert!(block.len() >= 2);
        let low = block.lowest_bit();
        let adj = g.adjacency(block.first().expect("a block has vertices"));
        self.stack[0] = WalkStep {
            set: low,
            ext: adj.intersect(block),
            seen: adj.union(low),
        };
        Lefts {
            stack: &mut self.stack,
            depth: 1,
            g,
            block,
            low: Some(low),
        }
    }
}

/// The iterator of [`SplitWalk::lefts`].
pub struct Lefts<'w> {
    stack: &'w mut [WalkStep; 64],
    depth: usize,
    g: &'w JoinGraph,
    block: RelSet,
    /// The block's lowest vertex, the walk's root, until it is yielded.
    low: Option<RelSet>,
}

impl Iterator for Lefts<'_> {
    type Item = RelSet;

    #[inline]
    fn next(&mut self) -> Option<RelSet> {
        if let Some(low) = self.low.take() {
            return Some(low);
        }
        while self.depth > 0 {
            let top = &mut self.stack[self.depth - 1];
            let Some(w) = top.ext.first() else {
                self.depth -= 1;
                continue;
            };
            top.ext = top.ext.without(w);
            let adj = self.g.adjacency(w);
            let fresh = adj.intersect(self.block).difference(top.seen);
            let next = WalkStep {
                set: top.set.with(w),
                ext: top.ext.union(fresh),
                seen: top.seen.union(adj),
            };
            if !next.ext.is_empty() {
                self.stack[self.depth] = next;
                self.depth += 1;
            }
            if next.set != self.block {
                return Some(next.set);
            }
        }
        None
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
/// ever need [`BlockFinder`], on `S ∩ B`, and there the *hanging masks* do
/// for a split of a block what `side` does for a bridge (see
/// [`CyclicBlock::hanging`]). What happens inside such a block depends on
/// `S ∩ B` only, so a small block can keep the outcome for every
/// intersection in a [`SplitTable`] ([`BlockIndex::with_tables`]).
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    /// The bridges of the graph.
    pub bridges: Vec<Bridge>,
    /// The blocks of the graph with at least three vertices.
    pub cyclic: Vec<RelSet>,
    /// `hang_B(v)` for every block `B` of `cyclic` and every `v ∈ B`: `v`
    /// and everything reachable from `v` without entering `B \ {v}` — the
    /// cyclic-block analogue of a bridge's `side`. A block's masks are its
    /// vertices' in increasing order, the blocks' back to back in `cyclic`'s
    /// order: one vector per query, empty on a tree.
    hang: Vec<RelSet>,
    /// Bit `i` is set when `cyclic[i]` has a split table. A graph of at most
    /// 64 vertices has at most 31 blocks of three or more.
    tabled: u64,
    /// The tabled blocks' rows, `2^|B| + 1` per block, back to back in
    /// `cyclic`'s order.
    rows: Vec<u64>,
    /// Every tabled block's hanging masks of its CCP splits, in the order
    /// the rows point into.
    masks: Vec<RelSet>,
}

/// A block of the whole join graph with three or more vertices, with the
/// masks hanging off its vertices ([`BlockIndex::cyclic_blocks`]).
#[derive(Copy, Clone, Debug)]
pub struct CyclicBlock<'a> {
    /// The block's vertices.
    pub vertices: RelSet,
    /// `hang_B(v)` of the block's vertices, in increasing order.
    hang: &'a [RelSet],
    table: Option<SplitTable<'a>>,
}

impl<'a> CyclicBlock<'a> {
    /// The union of `hang_B(v)` over `v ∈ reach`, for `reach ⊆ B`.
    ///
    /// This is how a split of a block of a connected `G[S]` becomes a split
    /// of `S` without a `grow` over `S`. Let `L′` be the vertices of `S ∩ B`
    /// that the block's left side reaches inside `S ∩ B` without crossing
    /// its right side. Then `hanging(L′) ∩ S` is the set-level left side.
    /// A block is maximal, so a path that leaves `B` at `v` cannot re-enter
    /// it anywhere but at `v`. Every vertex of `S` outside `B` therefore
    /// hangs off exactly one vertex of `S ∩ B`, and it joins the side that
    /// vertex is on.
    #[inline]
    pub fn hanging(&self, reach: RelSet) -> RelSet {
        debug_assert!(reach.is_subset(self.vertices));
        let mut out = RelSet::EMPTY;
        for v in reach.iter() {
            out = out.union(self.hang[self.vertices.intersect(RelSet::first_n(v)).len()]);
        }
        out
    }

    /// The block's split table, if [`BlockIndex::with_tables`] gave it one.
    #[inline]
    pub fn table(&self) -> Option<SplitTable<'a>> {
        self.table
    }
}

/// The rank of `inside ⊆ within` among the subsets of `within`: `inside`'s
/// bits moved down to `within`'s positions (what BMI2's `pext` computes),
/// one shift per vertex of `within`. For subsets of one `within` it keeps
/// the bitmap order, so [`RelSet::subsets_ascending`] visits ranks `1, 2, …`.
#[inline]
pub fn rank(within: RelSet, inside: RelSet) -> usize {
    let mut r = 0;
    for (k, v) in within.iter().enumerate() {
        r |= (inside.bits() >> v & 1) << k;
    }
    r as usize
}

/// One split `{lb, rb}` of a block `b` of `G[I]`, where `I = S ∩ B` for a
/// connected `S` and a cyclic block `B` of the graph, as
/// [`SplitFinder::splits`] reports it.
#[derive(Copy, Clone, Debug)]
pub struct BlockSplit {
    /// The side holding `b`'s lowest vertex.
    pub lb: RelSet,
    /// The rest of `b`.
    pub rb: RelSet,
    /// Whether `lb` is connected.
    pub lb_ok: bool,
    /// Whether `rb` is connected.
    pub rb_ok: bool,
    /// For a CCP split (both sides connected) its hanging mask `H`: for
    /// every connected `S` with `S ∩ B = I`, `H ∩ S` is the set-level left
    /// side, `grow(lb, S \ rb)`. Empty otherwise.
    pub hang: RelSet,
}

impl BlockSplit {
    /// The grow steps of the split's two Join-Pairs, `(lb, rb)` and
    /// `(rb, lb)`, where each grows its first side and, if that is
    /// connected, its second: `|b| + [lb ok]·|rb| + [rb ok]·|lb|`.
    #[inline]
    pub fn grow_steps(&self) -> u64 {
        let (l, r) = (self.lb.len() as u64, self.rb.len() as u64);
        l + r + self.lb_ok as u64 * r + self.rb_ok as u64 * l
    }
}

/// How [`SplitFinder::splits`] walks each block of `G[I]`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Walk {
    /// The CCP splits only, from their connected left sides
    /// ([`SplitWalk`]); no grow steps are counted.
    Ccp,
    /// Every submask split, connected sides or not — the simulated GPU's
    /// lane per submask — with its grow steps.
    Every,
    /// The CCP splits, with the grow steps every submask split would take:
    /// in closed form where the block of `G[I]` is a clique or a cycle
    /// ([`closed_form_steps`]), otherwise by every submask split, reported
    /// as under [`Walk::Every`].
    Counted,
}

/// What [`SplitFinder::splits`] counts for the blocks of `G[I]`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SplitCount {
    /// Algorithm 3's EvaluatedCounter: both orders of every submask split,
    /// `2·(2^(|b|−1) − 1)` per block `b`.
    pub evaluated: u64,
    /// `T(I)`, the sum of [`BlockSplit::grow_steps`] over every submask
    /// split; 0 under [`Walk::Ccp`].
    pub grow_steps: u64,
}

/// `T` of a block `b` of an induced subgraph (biconnected, two vertices or
/// more) that is a clique `K_m` — an edge is `K_2` — or a cycle `C_m`, in
/// closed form; `None` for any other block. Every connected proper side `C`
/// of `b` is one side of exactly one split, and adds `|b| − |C|` to the
/// `|b|` every split takes, so
///
/// * `K_m`: `(2^(m−1) − 1)·m + Σ_k C(m, k)·(m − k) = 2m·(2^(m−1) − 1)`;
/// * `C_m`: the connected sides are the `m` arcs of each length `k < m`,
///   `(2^(m−1) − 1)·m + m²(m − 1)/2`.
///
/// A biconnected graph with as many edges as vertices is a cycle.
pub fn closed_form_steps(g: &JoinGraph, b: RelSet) -> Option<u64> {
    let m = b.len() as u64;
    let splits = (1u64 << (m - 1)) - 1;
    if m == 2 {
        return Some(4);
    }
    let degrees: u64 = b
        .iter()
        .map(|v| g.adjacency(v).intersect(b).len() as u64)
        .sum();
    match degrees / 2 {
        e if e == m * (m - 1) / 2 => Some(2 * m * splits),
        e if e == m => Some(splits * m + m * m * (m - 1) / 2),
        _ => None,
    }
}

/// The one walk from an intersection to split masks: the blocks of `G[I]`
/// ([`BlockFinder::find_in_block`]), their splits ([`SplitWalk`], or every
/// submask when asked) and each CCP split's hanging mask, with the grow
/// steps the simulated GPU charges when asked. The split tables are built
/// with it, and the MPDP set kernel runs it per set for a block without a
/// table. Owns its scratch, so a call allocates nothing.
#[derive(Default)]
pub struct SplitFinder {
    finder: BlockFinder,
    lefts: SplitWalk,
}

impl SplitFinder {
    /// Fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Algorithm 3 inside the cyclic block `block` of `g` for `I = inside`,
    /// the block's intersection with a connected set (so `I` is connected):
    /// calls `each` with every CCP split of every block of `G[I]`, visited
    /// from the side holding the block's lowest vertex, each standing for
    /// both orders — and, for a block `walk` takes through every submask
    /// split, with every other split too, connected sides or not. Returns
    /// Algorithm 3's EvaluatedCounter for those blocks and, unless `walk` is
    /// [`Walk::Ccp`], their grow steps `T(I)`.
    // Inlined into each caller, so that what `each` updates stays in
    // registers (DESIGN.md §4).
    #[inline(always)]
    pub fn splits(
        &mut self,
        g: &JoinGraph,
        block: &CyclicBlock<'_>,
        inside: RelSet,
        walk: Walk,
        mut each: impl FnMut(BlockSplit),
    ) -> SplitCount {
        // Nothing hangs off a block that is the whole graph.
        let bare = block.vertices == g.all_vertices();
        let SplitFinder { finder, lefts } = self;
        let mut count = SplitCount::default();
        for &b in finder.find_in_block(g, inside, block.vertices) {
            // Line 6, halved: the splits whose left side holds the block's
            // lowest vertex, each standing for both orders.
            count.evaluated += 2 * ((1u64 << (b.len() - 1)) - 1);
            // Lines 17-18: what `lb` reaches in `I` without crossing `rb`
            // (`lb` itself when the block is all of `I`), with what hangs
            // off it.
            let hang = |lb: RelSet, rb: RelSet| {
                let reach = if b == inside {
                    lb
                } else {
                    g.grow(lb, inside.difference(rb))
                };
                if bare {
                    reach
                } else {
                    block.hanging(reach)
                }
            };
            let every_split = match walk {
                Walk::Ccp => false,
                Walk::Every => true,
                Walk::Counted => match closed_form_steps(g, b) {
                    Some(steps) => {
                        count.grow_steps += steps;
                        false
                    }
                    None => true,
                },
            };
            // CCP block (lines 10-14): a block is connected, so an edge
            // between its two sides always exists.
            if every_split {
                for rb in b.difference(b.lowest_bit()).subsets() {
                    let lb = b.difference(rb);
                    let (lb_ok, rb_ok) = (g.is_connected(lb), g.is_connected(rb));
                    let hang = match lb_ok && rb_ok {
                        true => hang(lb, rb),
                        false => RelSet::EMPTY,
                    };
                    let split = BlockSplit {
                        lb,
                        rb,
                        lb_ok,
                        rb_ok,
                        hang,
                    };
                    count.grow_steps += split.grow_steps();
                    each(split);
                }
            } else {
                for lb in lefts.lefts(g, b) {
                    let rb = b.difference(lb);
                    if g.is_connected(rb) {
                        each(BlockSplit {
                            lb,
                            rb,
                            lb_ok: true,
                            rb_ok: true,
                            hang: hang(lb, rb),
                        });
                    }
                }
            }
        }
        count
    }
}

/// One intersection's row of a [`SplitTable`] as a word: where its masks
/// start in the low 32 bits (they end where the next row's start), its
/// EvaluatedCounter in the high 32.
fn row(start: usize, evaluated: u64) -> u64 {
    debug_assert!(start <= u32::MAX as usize && evaluated <= u64::from(u32::MAX));
    start as u64 | evaluated << 32
}

/// A cyclic block's CCP splits by intersection: for every connected
/// `I ⊆ B`, what [`SplitFinder::splits`] returns and reports for it, kept
/// once per query. Row `r` is the `I` whose bits, moved down to `B`'s
/// positions (BMI2's `pext`), read `r`; a disconnected `I` (never the
/// intersection of `B` with a connected set) has an empty row.
#[derive(Copy, Clone, Debug)]
pub struct SplitTable<'a> {
    vertices: RelSet,
    /// `2^|B| + 1` rows, the last one only for its start.
    rows: &'a [u64],
    masks: &'a [RelSet],
}

impl<'a> SplitTable<'a> {
    /// For `inside ⊆ B`: the EvaluatedCounter of the blocks of `G[inside]`,
    /// and the hanging mask of each of their CCP splits, in the order the
    /// walk found them. The set-level left side of a split of a connected
    /// `S` with `S ∩ B = inside` is its mask `∩ S`.
    #[inline]
    pub fn splits(&self, inside: RelSet) -> (u64, &'a [RelSet]) {
        debug_assert!(inside.is_subset(self.vertices));
        let r = rank(self.vertices, inside);
        let (row, end) = (self.rows[r], self.rows[r + 1]);
        let range = row as u32 as usize..end as u32 as usize;
        (row >> 32, &self.masks[range])
    }

    /// The block's vertices, `B`.
    #[inline]
    pub fn vertices(&self) -> RelSet {
        self.vertices
    }

    /// What [`splits`](Self::splits) reads, for a kernel that reads eight
    /// rows at once: `2^|B| + 1` rows, row `r` for the `I` of rank `r`, each
    /// a word whose low 32 bits are where `I`'s masks start in
    /// [`masks`](Self::masks) (they end where row `r + 1`'s start) and whose
    /// high 32 bits are its EvaluatedCounter.
    #[inline]
    pub fn rows(&self) -> &'a [u64] {
        self.rows
    }

    /// The hanging masks of every tabled block of the index, which the
    /// [`rows`](Self::rows) of each point into.
    #[inline]
    pub fn masks(&self) -> &'a [RelSet] {
        self.masks
    }
}

impl BlockIndex {
    /// The blocks of `cyclic`, each with its hanging masks and its split
    /// table, if it has one.
    pub fn cyclic_blocks(&self) -> impl Iterator<Item = CyclicBlock<'_>> {
        let (mut hang, mut rows) = (&self.hang[..], &self.rows[..]);
        self.cyclic.iter().enumerate().map(move |(i, &vertices)| {
            let (mine, tail) = hang.split_at(vertices.len());
            hang = tail;
            let table = (self.tabled >> i & 1 != 0).then(|| {
                let (mine, tail) = rows.split_at((1 << vertices.len()) + 1);
                rows = tail;
                SplitTable {
                    vertices,
                    rows: mine,
                    masks: &self.masks,
                }
            });
            CyclicBlock {
                vertices,
                hang: mine,
                table,
            }
        })
    }

    /// Decomposes `g`, with no split tables.
    pub fn new(g: &JoinGraph) -> Self {
        let all = g.all_vertices();
        let mut finder = BlockFinder::new();
        let blocks = finder.find(g, all);
        let masks = blocks.iter().map(|b| b.len()).filter(|&len| len > 2).sum();
        let mut index = BlockIndex {
            hang: Vec::with_capacity(masks),
            ..Default::default()
        };
        for &b in blocks {
            if b.len() > 2 {
                index.cyclic.push(b);
                for v in b.iter() {
                    let v = RelSet::singleton(v);
                    index.hang.push(g.grow(v, all.difference(b.difference(v))));
                }
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

    /// Decomposes `g`, a query with `connected_sets` connected sets in its
    /// level plan, and gives a split table to every cyclic block `B` with
    /// fewer subsets than that, `2^|B| < connected_sets`, while the tables
    /// together take no more than the memo's 32 B per set. A table is built
    /// for every subset of `B` and read by every set that meets `B`, so past
    /// that point it would cost more than it saves, and a block that is the
    /// whole graph never qualifies: a query has fewer than `2ⁿ` connected
    /// sets. Built once; read-only after.
    pub fn with_tables(g: &JoinGraph, connected_sets: usize) -> Self {
        let mut index = Self::new(g);
        // 8 B per row or mask, against 32 B per set; and every start fits
        // a row's low 32 bits.
        let budget = connected_sets.saturating_mul(4).min(u32::MAX as usize);
        let (mut rows, mut masks) = (Vec::new(), Vec::new());
        let mut splitter = SplitFinder::new();
        let mut tabled = 0u64;
        'blocks: for (i, block) in index.cyclic_blocks().enumerate() {
            let b = block.vertices;
            if b.len() >= 32 || 1 << b.len() >= connected_sets {
                continue;
            }
            let (rows_at, masks_at) = (rows.len(), masks.len());
            // One row per subset in rank order, the empty one first.
            for inside in std::iter::once(RelSet::EMPTY).chain(b.subsets_ascending()) {
                let start = masks.len();
                let mut evaluated = 0;
                if inside.len() >= 2 && g.is_connected(inside) {
                    let push = |split: BlockSplit| masks.push(split.hang);
                    evaluated = splitter
                        .splits(g, &block, inside, Walk::Ccp, push)
                        .evaluated;
                }
                rows.push(row(start, evaluated));
                if rows.len() + masks.len() >= budget {
                    rows.truncate(rows_at);
                    masks.truncate(masks_at);
                    continue 'blocks;
                }
            }
            rows.push(row(masks.len(), 0));
            tabled |= 1 << i;
        }
        index.rows = rows;
        index.masks = masks;
        index.tabled = tabled;
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

    /// A random connected set: the component of a random subset's lowest
    /// vertex, or every vertex one round in four.
    fn random_connected_subset(g: &JoinGraph, round: usize, state: &mut u64) -> RelSet {
        let all = g.all_vertices();
        let raw = random_subset(all, state);
        if round.is_multiple_of(4) || raw.is_empty() {
            return all;
        }
        g.grow(raw.lowest_bit(), raw)
    }

    #[test]
    fn hanging_masks_extend_every_block_split_as_grow_does() {
        // For every CCP split {lb, rb} of every block of a connected G[S]:
        // what lb reaches in S ∩ B without crossing rb, with what hangs off
        // it, is `grow(lb, S \ rb)`. And the blocks the DFS is skipped for
        // are the ones it finds.
        let mut state = 13u64;
        let (mut finder, mut shortcut) = (BlockFinder::new(), BlockFinder::new());
        let (mut whole, mut edges, mut splits) = (0, 0, 0);
        for round in 0..1000 {
            let n = 3 + round % 12;
            let g = random_graph(n, round % 8, &mut state);
            let index = BlockIndex::new(&g);
            let s = random_connected_subset(&g, round, &mut state);
            for cyclic in index.cyclic_blocks() {
                let inside = s.intersect(cyclic.vertices);
                let found = finder.find(&g, inside).to_vec();
                let known = shortcut.find_in_block(&g, inside, cyclic.vertices);
                assert_eq!(sorted(known), sorted(&found), "round {round}");
                whole += (inside == cyclic.vertices) as usize;
                edges += (inside.len() == 2) as usize;
                for &b in &found {
                    for lb in b.subsets().filter(|lb| lb.contains(b.first().unwrap())) {
                        let rb = b.difference(lb);
                        if rb.is_empty() || !g.is_connected(lb) || !g.is_connected(rb) {
                            continue;
                        }
                        splits += 1;
                        let reach = if b == inside {
                            lb
                        } else {
                            g.grow(lb, inside.difference(rb))
                        };
                        let left = cyclic.hanging(reach).intersect(s);
                        assert_eq!(left, g.grow(lb, s.difference(rb)), "round {round}");
                    }
                }
            }
        }
        assert!(
            whole > 100 && edges > 100 && splits > 1000,
            "{whole} {edges} {splits}"
        );
    }

    /// Every connected subset of `g`, by brute force.
    fn connected_sets(g: &JoinGraph) -> Vec<RelSet> {
        let all = g.all_vertices().subsets();
        all.filter(|&s| g.is_connected(s)).collect()
    }

    #[test]
    fn split_tables_hold_every_intersections_splits() {
        // On the hanging-mask test's graphs: for every connected S and every
        // tabled block B, the table's masks cut down to S are the set-level
        // left sides `grow(lb, S \ rb)` of the CCP splits of the blocks of
        // G[S ∩ B] (found here by a fresh DFS and every submask), and its
        // EvaluatedCounter is the closed form, 2·(2^(|b|−1) − 1) per block.
        let mut state = 13u64;
        let (mut tables, mut untabled, mut checked) = (0, 0, 0);
        for round in 0..1000 {
            let n = 3 + round % 12;
            let g = random_graph(n, round % 8, &mut state);
            random_connected_subset(&g, round, &mut state); // the same graphs
            let connected = connected_sets(&g);
            let index = BlockIndex::with_tables(&g, connected.len());
            for block in index.cyclic_blocks() {
                let Some(table) = block.table() else {
                    untabled += 1;
                    continue;
                };
                tables += 1;
                for &s in &connected {
                    let inside = s.intersect(block.vertices);
                    let (evaluated, masks) = table.splits(inside);
                    let mut got: Vec<u64> = masks.iter().map(|h| h.intersect(s).bits()).collect();
                    let (mut want, mut closed) = (Vec::new(), 0);
                    for &b in &find_blocks(&g, inside).blocks {
                        closed += 2 * ((1u64 << (b.len() - 1)) - 1);
                        for lb in b.subsets().filter(|lb| lb.contains(b.first().unwrap())) {
                            let rb = b.difference(lb);
                            if !rb.is_empty() && g.is_connected(lb) && g.is_connected(rb) {
                                want.push(g.grow(lb, s.difference(rb)).bits());
                            }
                        }
                    }
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(
                        got, want,
                        "round {round}, set {s}, block {}",
                        block.vertices
                    );
                    assert_eq!(evaluated, closed, "round {round}, set {s}");
                    checked += 1;
                }
            }
        }
        assert!(
            tables > 100 && untabled > 10 && checked > 10_000,
            "{tables} {untabled} {checked}"
        );
    }

    #[test]
    fn a_block_with_as_many_subsets_as_sets_gets_no_table() {
        // A clique's and a cycle's one block is the whole graph, and a graph
        // of n vertices has fewer than 2ⁿ connected sets.
        let (mut clique, mut cycle) = (JoinGraph::new(6), JoinGraph::new(8));
        for i in 0..6 {
            for j in (i + 1)..6 {
                clique.add_edge(i, j, 0.5);
            }
        }
        for i in 0..8 {
            cycle.add_edge(i, (i + 1) % 8, 0.5);
        }
        for g in [&clique, &cycle] {
            let index = BlockIndex::with_tables(g, connected_sets(g).len());
            assert_eq!(index.cyclic.len(), 1);
            assert!(index.cyclic_blocks().all(|b| b.table().is_none()));
        }
        // A clique of 8 with one relation hanging off it: 384 connected
        // sets against 2⁸ subsets, but the block's 3 025 masks would take
        // more than the memo's 32 B per set; with a tail of ten, the table
        // fits.
        for (tail, tabled) in [(1, false), (10, true)] {
            let mut g = JoinGraph::new(8 + tail);
            for i in 0..8 {
                for j in (i + 1)..8 {
                    g.add_edge(i, j, 0.5);
                }
            }
            for v in 8..8 + tail {
                g.add_edge(v - 1, v, 0.5);
            }
            let sets = connected_sets(&g).len();
            assert_eq!(sets, [384, 1590][tabled as usize]);
            let index = BlockIndex::with_tables(&g, sets);
            let block = index.cyclic_blocks().next().unwrap();
            assert_eq!(block.table().is_some(), tabled, "tail {tail}, {sets} sets");
        }
    }

    #[test]
    fn a_hanging_mask_is_its_vertex_and_what_only_it_reaches() {
        // Figure 5: the square {1,2,3,4} carries {5,9,6,7,8} on 4; the
        // square {6,7,8,9} carries {1,2,3,4,5} on 9.
        let g = figure5_graph();
        let index = BlockIndex::new(&g);
        let blocks: Vec<CyclicBlock> = index.cyclic_blocks().collect();
        assert_eq!(blocks.len(), 2);
        let set = |v: &[usize]| RelSet::from_indices(v.iter().map(|i| i - 1));
        for b in blocks {
            for v in b.vertices.iter() {
                let want = match (b.vertices == set(&[1, 2, 3, 4]), v + 1) {
                    (true, 4) => set(&[4, 5, 6, 7, 8, 9]),
                    (false, 9) => set(&[1, 2, 3, 4, 5, 9]),
                    _ => RelSet::singleton(v),
                };
                assert_eq!(b.hanging(RelSet::singleton(v)), want);
            }
        }
        // A tree keeps no masks.
        let mut star = JoinGraph::new(4);
        for leaf in 1..4 {
            star.add_edge(0, leaf, 0.5);
        }
        let index = BlockIndex::new(&star);
        assert!(index.cyclic.is_empty() && index.hang.is_empty());
    }

    #[test]
    fn the_split_walk_visits_each_connected_left_side_once() {
        let mut state = 17u64;
        let mut walk = SplitWalk::new();
        let mut finder = BlockFinder::new();
        for round in 0..500 {
            let n = 3 + round % 12;
            let g = random_graph(n, round % 9, &mut state);
            let s = random_subset(g.all_vertices(), &mut state);
            for &b in finder.find(&g, s) {
                let mut got: Vec<u64> = walk.lefts(&g, b).map(RelSet::bits).collect();
                let low = b.first().unwrap();
                let mut want: Vec<u64> = b
                    .subsets()
                    .filter(|&lb| lb != b && lb.contains(low) && g.is_connected(lb))
                    .map(RelSet::bits)
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "round {round}, block {b}");
            }
        }
    }
}
