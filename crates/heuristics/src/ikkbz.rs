//! IKKBZ — optimal left-deep ordering for acyclic join graphs
//! (Ibaraki–Kameda \[14\], Krishnamurthy–Boral–Zaniolo \[18\]).
//!
//! For a rooted precedence tree the algorithm linearizes subtrees into chains
//! ordered by *rank* `(T − 1) / C`, merging adjacent groups whenever
//! precedence forces a higher-rank group before a lower-rank one. Under the
//! `C_out`-style recursive cost model this yields the optimal left-deep order
//! for each root. The chain a subtree is linearized into depends only on the
//! directed tree edge it hangs from, not on the root, so every root's order
//! comes from one rerooting pass (`Chains`): each directed edge's chain is
//! built once, and a root's order is its neighbours' chains merged by rank
//! (one stable sort of at most `n − 1` group ids), expanded one relation at
//! a time as the fold that prices it asks for the next. A fold stops once a
//! lower bound on its root's cost exceeds the best whole order priced so far
//! (`Cutoff`), so a root that cannot win is neither expanded nor priced
//! past that point.
//!
//! Per the paper (§7.3) IKKBZ "uses the C_out cost function to estimate the
//! best left-deep join order"; the resulting order is then priced with the
//! evaluation cost model so Tables 1–2 compare like with like. Cyclic graphs
//! are handled the way LinDP's authors do: run IKKBZ on a maximum-selectivity
//! (minimum `sel` value, i.e. most selective) spanning tree and keep all real
//! edges for pricing.

use crate::large::{Budget, LargeOptResult};
use crate::unionfind::UnionFind;
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::time::Duration;

/// Spanning tree of a (possibly cyclic) query, preferring the most selective
/// edges, as an adjacency list of `(neighbor, sel)`.
fn spanning_tree(q: &LargeQuery) -> Vec<Vec<(usize, f64)>> {
    let mut edges: Vec<(f64, usize, usize)> = q
        .edges
        .iter()
        .map(|e| (e.sel, e.u as usize, e.v as usize))
        .collect();
    // `total_cmp` agrees with `partial_cmp` on every selectivity but −0.0,
    // which `LargeQuery::add_edge` never stores (it clamps to ≥ 1e-300); a
    // NaN sorts last instead of panicking.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut uf = UnionFind::new(q.num_rels());
    let mut adj = vec![Vec::new(); q.num_rels()];
    for (sel, u, v) in edges {
        if uf.union(u, v) {
            adj[u].push((v, sel));
            adj[v].push((u, sel));
        }
    }
    adj
}

/// No parent: relation 0's entry in [`Chains::parent`].
const NONE: u32 = u32::MAX;

/// Where a group's list lives in [`Chains::links`]: the groups it absorbed,
/// in order, are `links[start..split]`, and the rest of its chain is
/// `links[split..end]`. Both halves are one rank-sorted list, the one its
/// head was normalized against.
#[derive(Copy, Clone, Default)]
struct Span {
    start: usize,
    split: usize,
    end: usize,
}

/// One query's spanning tree with the normalized chain of every directed
/// tree edge, from which any root's order is expanded.
///
/// Under any root, the subtree of `v` below its parent `p` is linearized
/// into the same chain: a new group of `v` alone, normalized against the
/// chains of `v`'s other neighbours merged by rank (it absorbs their front
/// groups while it outranks the next one), followed by the groups it did
/// not absorb. That chain depends only on the directed edge `p → v`, so its
/// head group is named by that edge, and every group is some edge's head.
/// With the tree hung from relation 0, relation `v > 0` has the down edge
/// `parent(v) → v`, group `v` (head `v`), and the up edge `v → parent(v)`,
/// group `n + v` (head `parent(v)`). The down pass builds the down chains
/// leaves first. The up pass builds the up chains parents first: the
/// chains around `v` merged by rank are `v`'s own order, and without the
/// chain of a child `w` they are what `w`'s up chain is normalized against.
/// The merges and the stable rank sort are those of the per-root
/// linearization, so every root's order is the same, bit for bit.
struct Chains {
    tree: Vec<Vec<(usize, f64)>>,
    rows: Vec<f64>,
    /// Relations breadth-first from relation 0: every parent before its
    /// children.
    top_down: Vec<u32>,
    /// Per relation: its parent with the tree hung from relation 0 (`NONE`
    /// for relation 0), and the selectivity of the edge to it.
    parent: Vec<u32>,
    parent_sel: Vec<f64>,
    /// Compound `T` per group.
    t: Vec<f64>,
    /// Compound `C` per group.
    c: Vec<f64>,
    /// `(T − 1) / C` per group.
    rank: Vec<f64>,
    span: Vec<Span>,
    /// Every group's list, one after another.
    links: Vec<u32>,
    /// Scratch: one relation's neighbours' chains merged by rank.
    merged: Vec<u32>,
    /// Scratch: per group in `merged`, the adjacency slot of the neighbour
    /// whose chain it came from.
    slot: Vec<u32>,
    /// Scratch: the absorbed groups a [`Walk`] has still to expand.
    stack: Vec<u32>,
}

impl Chains {
    fn new(q: &LargeQuery) -> Self {
        let n = q.num_rels();
        let tree = spanning_tree(q);
        let (mut parent, mut parent_sel) = (vec![NONE; n], vec![1.0; n]);
        let mut top_down = Vec::with_capacity(n);
        top_down.push(0u32);
        let mut i = 0;
        while i < top_down.len() {
            let v = top_down[i] as usize;
            for &(c, sel) in &tree[v] {
                if c != 0 && parent[c] == NONE {
                    parent[c] = v as u32;
                    parent_sel[c] = sel;
                    top_down.push(c as u32);
                }
            }
            i += 1;
        }
        Chains {
            rows: q.rels.iter().map(|r| r.rows).collect(),
            tree,
            top_down,
            parent,
            parent_sel,
            t: vec![0.0; 2 * n],
            c: vec![0.0; 2 * n],
            rank: vec![0.0; 2 * n],
            span: vec![Span::default(); 2 * n],
            links: Vec::new(),
            merged: Vec::with_capacity(n),
            slot: vec![0; 2 * n],
            stack: Vec::with_capacity(n),
        }
    }

    /// Sets `merged` to the chains of `v`'s neighbours other than `skip`,
    /// merged by rank: a stable sort of their concatenation in adjacency
    /// order, as the per-root linearization sorts them.
    fn merge_around(&mut self, v: usize, skip: usize) {
        let Chains {
            tree,
            rows,
            parent,
            span,
            links,
            merged,
            slot,
            rank,
            ..
        } = self;
        merged.clear();
        for (k, &(w, _)) in tree[v].iter().enumerate() {
            if w == skip {
                continue;
            }
            let g = if parent[v] == w as u32 {
                rows.len() + v
            } else {
                w
            };
            let Span { split, end, .. } = span[g];
            let from = merged.len();
            merged.push(g as u32);
            merged.extend_from_slice(&links[split..end]);
            for &x in &merged[from..] {
                slot[x as usize] = k as u32;
            }
        }
        // A NaN rank sorts to an end instead of panicking.
        merged.sort_by(|&a, &b| rank[a as usize].total_cmp(&rank[b as usize]));
    }

    /// Closes group `g`: a new group of its head relation alone, of
    /// compound `T = t`, followed by the rank-sorted groups `links[start..]`,
    /// is normalized by letting the head absorb groups while it outranks
    /// the next one (precedence-forced merges).
    ///
    /// The comparison is exact. Any tolerance would leave a child group
    /// ranked just below its parent, and the stable rank sort would then put
    /// the child first, where joining it needs a cross product.
    fn close(&mut self, g: usize, mut t: f64, start: usize) {
        let mut c = t.max(f64::MIN_POSITIVE);
        let mut rank = (t - 1.0) / c;
        let mut split = start;
        while split < self.links.len() && rank > self.rank[self.links[split] as usize] {
            // C(AB) = C(A) + T(A)·C(B); T(AB) = T(A)·T(B).
            let b = self.links[split] as usize;
            c += t * self.c[b];
            t *= self.t[b];
            rank = (t - 1.0) / c;
            split += 1;
        }
        (self.t[g], self.c[g], self.rank[g]) = (t, c, rank);
        self.span[g] = Span {
            start,
            split,
            end: self.links.len(),
        };
    }

    /// Builds every down chain, leaves first.
    fn down_pass(&mut self, budget: &Budget) -> Result<(), OptError> {
        for i in (1..self.top_down.len()).rev() {
            budget.check()?;
            let v = self.top_down[i] as usize;
            self.merge_around(v, self.parent[v] as usize);
            let start = self.links.len();
            self.links.extend_from_slice(&self.merged);
            self.close(v, self.parent_sel[v] * self.rows[v], start);
        }
        Ok(())
    }

    /// `root`'s order, relation by relation, once `merged` holds the chains
    /// around `root`.
    fn walk(&mut self, root: usize) -> Walk<'_> {
        self.stack.clear();
        Walk {
            root: Some(root),
            merged: self.merged.iter(),
            stack: &mut self.stack,
            span: &self.span,
            links: &self.links,
            parent: &self.parent,
        }
    }

    /// Builds every up chain, parents first, and hands each root's order to
    /// `visit` on the way, as a [`Walk`] that expands only what `visit`
    /// reads: the order of `v` is its neighbours' chains merged, which is
    /// what its children's up chains are made of.
    fn up_pass(
        &mut self,
        budget: &Budget,
        mut visit: impl FnMut(usize, Walk<'_>),
    ) -> Result<(), OptError> {
        for i in 0..self.top_down.len() {
            budget.check()?;
            let v = self.top_down[i] as usize;
            self.merge_around(v, usize::MAX);
            visit(v, self.walk(v));
            for k in 0..self.tree[v].len() {
                let (w, sel) = self.tree[v][k];
                if self.parent[v] == w as u32 {
                    continue;
                }
                let start = self.links.len();
                let Chains {
                    links,
                    merged,
                    slot,
                    ..
                } = self;
                links.extend(merged.iter().filter(|&&g| slot[g as usize] != k as u32));
                self.close(self.rows.len() + w, sel * self.rows[v], start);
            }
        }
        Ok(())
    }

    /// Hands every root's left-deep order to `visit`, roots in breadth-first
    /// order from relation 0.
    fn every_root(
        &mut self,
        budget: &Budget,
        visit: impl FnMut(usize, Walk<'_>),
    ) -> Result<(), OptError> {
        self.down_pass(budget)?;
        self.up_pass(budget, visit)
    }

    /// The left-deep order for `root`, once [`Chains::every_root`] has built
    /// every chain.
    fn order_for_root(&mut self, root: usize) -> Vec<usize> {
        self.merge_around(root, usize::MAX);
        self.walk(root).collect()
    }
}

/// One root's left-deep order, expanded as it is read: the root, then the
/// groups of its neighbours' chains merged by rank, each group its head
/// followed by the groups it absorbed, depth first.
struct Walk<'a> {
    root: Option<usize>,
    /// The merged groups not yet started.
    merged: std::slice::Iter<'a, u32>,
    /// The absorbed groups of the groups started, still to expand, the next
    /// on top.
    stack: &'a mut Vec<u32>,
    span: &'a [Span],
    links: &'a [u32],
    parent: &'a [u32],
}

impl Iterator for Walk<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if let Some(root) = self.root.take() {
            return Some(root);
        }
        let g = match self.stack.pop() {
            Some(g) => g,
            None => *self.merged.next()?,
        } as usize;
        let Span { start, split, .. } = self.span[g];
        self.stack.extend(self.links[start..split].iter().rev());
        // The relation the group starts with: `v` for the down edge
        // `parent(v) → v`, `parent(v)` for the up edge `n + v`.
        let n = self.parent.len();
        Some(if g < n {
            g
        } else {
            self.parent[g - n] as usize
        })
    }
}

/// The relations a fold has joined so far. Emptying it resets only the
/// flags its last fold set, not all `n`.
struct Prefix {
    joined: Vec<bool>,
    rels: Vec<u32>,
}

impl Prefix {
    fn new(n: usize) -> Self {
        Prefix {
            joined: vec![false; n],
            rels: Vec::with_capacity(n),
        }
    }

    fn clear(&mut self) {
        for v in self.rels.drain(..) {
            self.joined[v as usize] = false;
        }
    }

    fn insert(&mut self, v: usize) {
        self.joined[v] = true;
        self.rels.push(v as u32);
    }
}

/// Walks a left-deep order under the real cost model with *all* original
/// edges (selectivities applied once both endpoints are in the prefix),
/// reporting each join as `(relation joined, output rows, cost so far)` to
/// `joined`, which returns whether to go on. Returns the final `(rows,
/// cost)`, or `None` if the order is empty, implies a cross product, or
/// `joined` stopped it. Reads `order` only as far as it goes.
fn fold_left_deep(
    q: &LargeQuery,
    order: impl IntoIterator<Item = usize>,
    model: &dyn CostModel,
    prefix: &mut Prefix,
    mut joined: impl FnMut(usize, f64, f64) -> bool,
) -> Option<(f64, f64)> {
    prefix.clear();
    let mut order = order.into_iter();
    let first = order.next()?;
    let (mut rows, mut cost) = (q.rels[first].rows, q.rels[first].cost);
    prefix.insert(first);
    for v in order {
        let mut sel = 1.0;
        let mut connected = false;
        for &(w, s) in &q.adj[v] {
            if prefix.joined[w as usize] {
                sel *= s;
                connected = true;
            }
        }
        if !connected {
            return None;
        }
        let right = q.rels[v];
        let out_rows = rows * right.rows * sel;
        cost = model.join_cost(
            InputEst { cost, rows },
            InputEst {
                cost: right.cost,
                rows: right.rows,
            },
            out_rows,
        );
        rows = out_rows;
        if !joined(v, rows, cost) {
            return None;
        }
        prefix.insert(v);
    }
    Some((rows, cost))
}

/// A lower bound on what a left-deep order costs in the end, from a priced
/// prefix of it: the prefix's cost plus the scan costs of the relations
/// still to join.
///
/// It holds because every join then costs at least its two inputs: the
/// model's [`join_cost_floor`](CostModel::join_cost_floor) is
/// non-decreasing, so `join_cost_floor(0) ≥ 0` puts every output's floor at
/// or above 0, and the floor's contract puts each join at or above
/// `(left.cost + right.cost) + floor ≥ left.cost + right.cost`, rounded
/// addition being monotone. The contract asks for input rows `≥ 0` and a
/// bound that is a number, so [`Cutoff::new`] wants every statistic finite
/// and non-negative. An output's rows can then be NaN only as `0 · ∞`, once
/// a prefix's rows have overflowed `f64`: the one case where a stopped root
/// might have priced NaN, which the scan for the winner would have let
/// displace the roots before it.
struct Cutoff {
    /// The scan costs of all relations, summed in index order.
    scans: f64,
    /// `1 − 4(n + 1)·ε`: what rounding may cost the bound, taken off it.
    slack: f64,
}

impl Cutoff {
    /// `None` where the bound may not hold: a floor below 0, or a
    /// statistic that is negative, infinite or NaN.
    fn new(q: &LargeQuery, model: &dyn CostModel) -> Option<Self> {
        let stat = |x: f64| (0.0..f64::INFINITY).contains(&x);
        let sound = model.join_cost_floor(0.0) >= 0.0
            && q.rels.iter().all(|r| stat(r.rows) && stat(r.cost))
            && q.adj.iter().flatten().all(|&(_, sel)| stat(sel));
        let scans: f64 = q.rels.iter().map(|r| r.cost).sum();
        let n = q.num_rels() as f64;
        (sound && scans.is_finite()).then_some(Cutoff {
            scans,
            slack: 1.0 - 4.0 * (n + 1.0) * f64::EPSILON,
        })
    }

    /// The bound for a prefix that cost `cost` and whose relations' scan
    /// costs sum, in fold order, to `scanned`.
    ///
    /// Rounding, with `u = ε/2`, all terms `≥ 0` and `m` relations in the
    /// prefix: the fold's rounded sums lose at most a factor `(1 − u)` per
    /// addition, so the final cost is `≥ (cost + R)(1 − n·u)`, `R` the exact
    /// scan costs still to join. `scans` and `scanned` are each within
    /// `n·u·S` of their exact sums (`S` all scan costs), so their difference
    /// is within `2n·u·S` of `R`, and `S ≤ (cost + R)(1 + n·u)` since the
    /// prefix cost covers its own scans. The bound as computed is then at
    /// most `(cost + R)(1 + (2n + 3)·u)·slack < (cost + R)(1 − n·u)` for
    /// any `n` below ~10¹⁴, which is at most the final cost.
    fn bound(&self, cost: f64, scanned: f64) -> f64 {
        (cost + (self.scans - scanned)) * self.slack
    }
}

/// Prices a left-deep order under the real cost model with *all* original
/// edges and builds its plan. Returns `None` if the order implies a cross
/// product.
pub fn cost_left_deep(
    q: &LargeQuery,
    order: &[usize],
    model: &dyn CostModel,
) -> Option<LargeOptResult> {
    let scan = |rel: usize| PlanTree::Scan {
        rel: rel as u32,
        rows: q.rels[rel].rows,
        cost: q.rels[rel].cost,
    };
    let mut plan = Some(scan(*order.first()?));
    let mut prefix = Prefix::new(q.num_rels());
    let (rows, cost) = fold_left_deep(
        q,
        order.iter().copied(),
        model,
        &mut prefix,
        |v, rows, cost| {
            plan = Some(PlanTree::Join {
                left: Box::new(plan.take().expect("the prefix's plan")),
                right: Box::new(scan(v)),
                rows,
                cost,
            });
            true
        },
    )?;
    Some(LargeOptResult {
        cost,
        rows,
        plan: plan.expect("the whole order's plan"),
    })
}

/// The IKKBZ optimizer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Ikkbz;

impl Ikkbz {
    /// Returns the best left-deep *order* (for LinDP's linearization step).
    pub fn best_order(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: &Budget,
    ) -> Result<Vec<usize>, OptError> {
        let n = q.num_rels();
        if n == 0 {
            return Err(OptError::EmptyQuery);
        }
        if !q.is_connected() {
            return Err(OptError::DisconnectedGraph);
        }
        if n == 1 {
            return Ok(vec![0]);
        }
        let mut chains = Chains::new(q);
        let cutoff = Cutoff::new(q, model);
        let mut prefix = Prefix::new(n);
        let mut costs = vec![None; n];
        // The least cost of a whole order so far. A root whose bound rises
        // above it costs more than some other root, so it cannot be the
        // winner; a root that ties it is never stopped.
        let mut least = f64::INFINITY;
        chains.every_root(budget, |root, order| {
            let mut scanned = q.rels[root].cost;
            // Cost only: the plan is built once, for the winner.
            let priced = fold_left_deep(q, order, model, &mut prefix, |v, _, cost| {
                scanned += q.rels[v].cost;
                !cutoff
                    .as_ref()
                    .is_some_and(|cut| cut.bound(cost, scanned) > least)
            });
            costs[root] = priced.map(|(_, cost)| cost);
            if let Some(cost) = costs[root] {
                least = least.min(cost);
            }
        })?;
        // The roots come breadth-first; the winner is the one a scan in
        // index order keeps: the first of least cost. A stopped root has no
        // cost, like one whose order needs a cross product.
        let mut best: Option<(usize, f64)> = None;
        for (root, &cost) in costs.iter().enumerate() {
            let Some(cost) = cost else { continue };
            match best {
                Some((_, c)) if c <= cost => {}
                _ => best = Some((root, cost)),
            }
        }
        let (root, _) =
            best.ok_or_else(|| OptError::Internal("IKKBZ found no valid order".into()))?;
        Ok(chains.order_for_root(root))
    }

    /// Runs IKKBZ, returning the best left-deep plan.
    pub fn run(
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let order = Self::best_order(q, model, &b)?;
        cost_left_deep(q, &order, model)
            .ok_or_else(|| OptError::Internal("IKKBZ order not connected".into()))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::per_root::Linearizer;
    use super::*;
    use crate::large::validate_large;
    use crate::testkit::{max_oracle_rels, oracle_queries, property_graphs};
    use mpdp_cost::model::JoinAlgo;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every root's order from the rerooting passes, by root.
    fn every_root_order(q: &LargeQuery) -> Vec<Vec<usize>> {
        let mut orders = vec![Vec::new(); q.num_rels()];
        Chains::new(q)
            .every_root(&Budget::new(None), |root, order| {
                assert!(orders[root].is_empty(), "root {root} visited twice");
                orders[root] = order.collect();
            })
            .unwrap();
        orders
    }

    /// `best_order` as it was before the cutoff: every root's order folded
    /// whole, the first of least cost in index order kept.
    fn best_order_by_every_fold(q: &LargeQuery, model: &dyn CostModel) -> Vec<usize> {
        let mut prefix = Prefix::new(q.num_rels());
        let mut best: Option<(usize, f64)> = None;
        let orders = every_root_order(q);
        for (root, order) in orders.iter().enumerate() {
            let folded =
                fold_left_deep(q, order.iter().copied(), model, &mut prefix, |_, _, _| true);
            let Some((_, cost)) = folded else { continue };
            match best {
                Some((_, c)) if c <= cost => {}
                _ => best = Some((root, cost)),
            }
        }
        orders[best.expect("a priced root").0].clone()
    }

    /// `PgLikeCost`'s prices, counting `join_cost` calls; with `floor`
    /// false it keeps the trait's default floor, `−∞`.
    struct Counted {
        floor: bool,
        calls: AtomicUsize,
    }

    impl Counted {
        fn new(floor: bool) -> Self {
            Counted {
                floor,
                calls: AtomicUsize::new(0),
            }
        }

        fn take_calls(&self) -> usize {
            self.calls.swap(0, Ordering::Relaxed)
        }
    }

    impl CostModel for Counted {
        fn join_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            PgLikeCost::new().join_cost(left, right, out_rows)
        }

        fn join_cost_floor(&self, out_rows: f64) -> f64 {
            if self.floor {
                PgLikeCost::new().join_cost_floor(out_rows)
            } else {
                f64::NEG_INFINITY
            }
        }

        fn join_algo(&self, left: InputEst, right: InputEst, out_rows: f64) -> JoinAlgo {
            PgLikeCost::new().join_algo(left, right, out_rows)
        }

        fn scan_cost(&self, rows: f64) -> f64 {
            PgLikeCost::new().scan_cost(rows)
        }

        fn name(&self) -> &'static str {
            "counted"
        }
    }

    /// IKKBZ's rows of `heuristic_cards`, each the minimum ns over `reps`
    /// calls: every root's order linearized root by root (the oracle) and
    /// by the rerooting passes, every root's order folded, and one
    /// `best_order`.
    pub(crate) fn card_ns(q: &LargeQuery, model: &dyn CostModel, reps: usize) -> [f64; 4] {
        use std::hint::black_box;
        use std::time::Instant;
        let min_ns = |mut pass: Box<dyn FnMut() -> f64 + '_>| {
            (0..reps).map(|_| pass()).fold(f64::INFINITY, f64::min)
        };
        let per_root = min_ns(Box::new(|| {
            let t0 = Instant::now();
            let (mut lin, mut order) = (Linearizer::new(q), Vec::new());
            for root in 0..q.num_rels() {
                lin.order_for_root(root, &mut order);
                black_box(&order);
            }
            t0.elapsed().as_secs_f64() * 1e9
        }));
        let rerooted = min_ns(Box::new(|| {
            let t0 = Instant::now();
            Chains::new(q)
                .every_root(&Budget::new(None), |_, order| {
                    order.for_each(|v| {
                        black_box(v);
                    });
                })
                .unwrap();
            t0.elapsed().as_secs_f64() * 1e9
        }));
        let orders = every_root_order(q);
        let mut prefix = Prefix::new(q.num_rels());
        let fold = min_ns(Box::new(|| {
            let t0 = Instant::now();
            for order in &orders {
                black_box(fold_left_deep(
                    q,
                    order.iter().copied(),
                    model,
                    &mut prefix,
                    |_, _, _| true,
                ));
            }
            t0.elapsed().as_secs_f64() * 1e9
        }));
        let best = min_ns(Box::new(|| {
            let t0 = Instant::now();
            black_box(Ikkbz::best_order(q, model, &Budget::new(None)).unwrap());
            t0.elapsed().as_secs_f64() * 1e9
        }));
        [per_root, rerooted, fold, best]
    }

    /// The share of the `n (n − 1)` joins of every root's whole order that
    /// `best_order`'s folds do not price.
    pub(crate) fn skipped_share(q: &LargeQuery) -> f64 {
        let m = Counted::new(true);
        Ikkbz::best_order(q, &m, &Budget::new(None)).unwrap();
        let n = q.num_rels();
        1.0 - m.take_calls() as f64 / (n * (n - 1)) as f64
    }

    /// The entries and capacity of the `links` arena once every chain is
    /// built: its peak, since the passes only ever append to it.
    pub(crate) fn links_peak(q: &LargeQuery) -> (usize, usize) {
        let mut chains = Chains::new(q);
        chains.every_root(&Budget::new(None), |_, _| {}).unwrap();
        (chains.links.len(), chains.links.capacity())
    }

    #[test]
    fn produces_valid_left_deep_plans() {
        let m = PgLikeCost::new();
        for q in [
            gen::star(15, 1, &m),
            gen::snowflake(30, 3, 2, &m),
            gen::chain(20, 3, &m),
            gen::cycle(12, 4, &m),
        ] {
            let r = Ikkbz::run(&q, &m, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none());
            assert!(r.plan.is_left_deep());
            assert_eq!(r.plan.num_rels(), q.num_rels());
        }
    }

    #[test]
    fn cost_only_fold_prices_what_the_plan_builder_prices() {
        // `best_order` ranks roots by the fold alone; the plan built for the
        // winner must carry exactly that cost, and no root may beat it.
        let m = PgLikeCost::new();
        for q in [
            gen::snowflake(30, 3, 2, &m),
            gen::star(15, 1, &m),
            gen::cycle(12, 4, &m),
        ] {
            let mut prefix = Prefix::new(q.num_rels());
            let best = Ikkbz::run(&q, &m, None).unwrap();
            for (root, order) in every_root_order(&q).iter().enumerate() {
                let folded =
                    fold_left_deep(&q, order.iter().copied(), &m, &mut prefix, |_, _, _| true);
                let built = cost_left_deep(&q, order, &m);
                assert_eq!(
                    folded.map(|(rows, cost)| (rows.to_bits(), cost.to_bits())),
                    built
                        .as_ref()
                        .map(|r| (r.plan.rows().to_bits(), r.plan.cost().to_bits()))
                );
                if let Some(built) = built {
                    assert!(built.cost >= best.cost, "root {root}");
                }
            }
        }
    }

    #[test]
    fn every_root_order_equals_the_per_root_and_reference_linearizations() {
        // Every generated query and property graph to 200 relations in
        // release (60 in debug), and `snowflake-1000` in release. The
        // property graphs add cliques and cycles, whose spanning trees come
        // from many more edges, and equal-statistics stars, whose ranks all
        // tie, so only the stable sort's adjacency order decides. The
        // reference linearization normalizes by the general step-back scan,
        // so it also checks that only a chain's head ever absorbs groups,
        // which the per-root arena and the rerooting passes both assume.
        let mut queries = oracle_queries(max_oracle_rels());
        queries.extend(property_graphs(max_oracle_rels(), 24));
        if cfg!(not(debug_assertions)) {
            let m = PgLikeCost::new();
            queries.push(("snowflake-1000".into(), gen::snowflake(1000, 4, 1, &m)));
        }
        for (name, q) in queries {
            let tree = spanning_tree(&q);
            let rows: Vec<f64> = q.rels.iter().map(|r| r.rows).collect();
            let mut lin = Linearizer::new(&q);
            let mut order = Vec::new();
            for (root, rerooted) in every_root_order(&q).iter().enumerate() {
                lin.order_for_root(root, &mut order);
                assert_eq!(*rerooted, order, "{name} root {root}");
                assert_eq!(
                    order,
                    reference::order_for_root(root, &tree, &rows),
                    "{name} root {root}"
                );
            }
        }
    }

    #[test]
    fn the_cutoff_keeps_the_winner_of_every_fold() {
        // Every generated query and property graph to 200 relations in
        // release (60 in debug), and `snowflake-1000` in release. The
        // equal-statistics stars tie exactly: every leaf root costs the
        // same, and the first must win. The folds must also have stopped
        // somewhere, or this compares the old search with itself.
        let mut queries = oracle_queries(max_oracle_rels());
        queries.extend(property_graphs(max_oracle_rels(), 24));
        if cfg!(not(debug_assertions)) {
            let m = PgLikeCost::new();
            queries.push(("snowflake-1000".into(), gen::snowflake(1000, 4, 1, &m)));
        }
        let m = Counted::new(true);
        let (mut folded, mut every) = (0, 0);
        for (name, q) in &queries {
            let b = Budget::new(None);
            let order = Ikkbz::best_order(q, &m, &b).unwrap();
            folded += m.take_calls();
            every += q.num_rels() * (q.num_rels() - 1);
            assert_eq!(order, best_order_by_every_fold(q, &m), "{name}");
            m.take_calls();
        }
        assert!(folded * 2 < every, "{folded} of {every} joins priced");
    }

    #[test]
    fn a_root_that_ties_at_zero_is_not_stopped() {
        // The slack keeps a positive tie's bound below it; at cost 0 only
        // the strict `>` does. Under `C_out` with free scans, a root whose
        // order joins an empty relation first costs 0: roots 1, 2 and 3 do,
        // and root 0 does not. The passes visit 0, then 3, then 3's
        // leaves, so 3 sets the least cost before 1 and 2 are folded, and
        // 1, the first in index order, must still win.
        let mut q = LargeQuery::new(
            [10.0, 0.0, 0.0, 10.0]
                .map(|rows| mpdp_core::query::RelInfo::new(rows, 0.0))
                .to_vec(),
        );
        q.add_edge(0, 3, 0.5);
        q.add_edge(3, 1, 0.1);
        q.add_edge(3, 2, 0.2);
        let m = mpdp_cost::cout::CoutCost;
        assert!(Cutoff::new(&q, &m).is_some());
        let order = Ikkbz::best_order(&q, &m, &Budget::new(None)).unwrap();
        assert_eq!(order[0], 1, "{order:?}");
        assert_eq!(order, best_order_by_every_fold(&q, &m));
    }

    #[test]
    fn the_bound_never_exceeds_the_cost_of_the_whole_order() {
        // The bound of every prefix of every root's order, against what
        // that order costs once folded whole.
        let m = PgLikeCost::new();
        let mut queries = oracle_queries(max_oracle_rels().min(100));
        queries.extend(property_graphs(max_oracle_rels().min(100), 12));
        for (name, q) in queries {
            let cut = Cutoff::new(&q, &m).expect("finite, non-negative statistics");
            let mut prefix = Prefix::new(q.num_rels());
            for (root, order) in every_root_order(&q).iter().enumerate() {
                let mut scanned = q.rels[root].cost;
                let mut bounds = vec![cut.bound(q.rels[root].cost, scanned)];
                let (_, cost) =
                    fold_left_deep(&q, order.iter().copied(), &m, &mut prefix, |v, _, cost| {
                        scanned += q.rels[v].cost;
                        bounds.push(cut.bound(cost, scanned));
                        true
                    })
                    .unwrap();
                for (at, bound) in bounds.into_iter().enumerate() {
                    assert!(
                        bound <= cost,
                        "{name} root {root} prefix {at}: {bound} > {cost}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_model_without_a_floor_prunes_nothing() {
        // The trait's default floor, `−∞`, bounds nothing: every root's order
        // is folded whole, n − 1 joins each, and the winner is the same.
        let floorless = Counted::new(false);
        let pglike = PgLikeCost::new();
        for (name, q) in oracle_queries(max_oracle_rels().min(100)) {
            let n = q.num_rels();
            let b = Budget::new(None);
            let order = Ikkbz::best_order(&q, &floorless, &b).unwrap();
            assert_eq!(floorless.take_calls(), n * (n - 1), "{name}");
            assert_eq!(order, Ikkbz::best_order(&q, &pglike, &b).unwrap(), "{name}");
        }
    }

    #[test]
    fn the_cutoff_needs_a_floor_and_finite_non_negative_statistics() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(40, 4, 1, &m);
        assert!(Cutoff::new(&q, &m).is_some());
        assert!(Cutoff::new(&q, &Counted::new(false)).is_none());
        let spoilt: [&dyn Fn(&mut LargeQuery); 5] = [
            &|q| q.rels[7].rows = f64::NAN,
            &|q| q.rels[7].rows = f64::INFINITY,
            &|q| q.rels[7].cost = -1.0,
            &|q| q.adj[7][0].1 = f64::NAN,
            &|q| q.rels.iter_mut().for_each(|r| r.cost = f64::MAX),
        ];
        for (k, spoil) in spoilt.iter().enumerate() {
            let mut bad = q.clone();
            spoil(&mut bad);
            assert!(Cutoff::new(&bad, &m).is_none(), "case {k}");
            // Without the cutoff every root is folded whole, NaN and all.
            let b = Budget::new(None);
            let order = Ikkbz::best_order(&bad, &m, &b).unwrap();
            assert_eq!(order, best_order_by_every_fold(&bad, &m), "case {k}");
        }
    }

    #[test]
    fn every_root_order_is_a_precedence_order_of_its_rooted_tree() {
        // In a tree, "every relation after the first has a tree neighbour
        // before it" is the same as "every relation comes after its parent
        // under the root". Tree edges are query edges, so no order may then
        // need a cross product: every root is priced.
        let m = PgLikeCost::new();
        for (name, q) in oracle_queries(max_oracle_rels()) {
            let n = q.num_rels();
            let tree = spanning_tree(&q);
            let (mut pos, mut prefix) = (vec![0; n], Prefix::new(n));
            for (root, order) in every_root_order(&q).iter().enumerate() {
                assert_eq!(order[0], root, "{name}");
                for (p, &r) in order.iter().enumerate() {
                    pos[r] = p;
                }
                for (p, &r) in order.iter().enumerate().skip(1) {
                    assert!(
                        tree[r].iter().any(|&(w, _)| pos[w] < p),
                        "{name} root {root}: relation {r} before its parent"
                    );
                }
                let priced =
                    fold_left_deep(&q, order.iter().copied(), &m, &mut prefix, |_, _, _| true);
                assert!(priced.is_some(), "{name} root {root}");
            }
        }
    }

    #[test]
    fn a_rank_a_rounding_error_below_the_parents_stays_behind_it() {
        // `chain-30` at seed 13 has group [1] at rank 0.0 and its child [0]
        // at −1.1e-16; rooted at 10, relation 0 must still come after 1.
        let q = gen::chain(30, 13, &PgLikeCost::new());
        let order = &every_root_order(&q)[10];
        let at = |r: usize| order.iter().position(|&x| x == r).unwrap();
        assert!(at(1) < at(0), "{order:?}");
    }

    #[test]
    fn the_winners_order_is_the_order_it_was_priced_by() {
        // `best_order` re-expands the winner after the passes; every root's
        // re-expanded order must be the one the up pass handed out, and a
        // second call must return the first's order.
        let m = PgLikeCost::new();
        for q in [
            gen::snowflake(60, 4, 3, &m),
            gen::random_connected(40, 8, 15, &m),
        ] {
            let b = Budget::new(None);
            let first = Ikkbz::best_order(&q, &m, &b).unwrap();
            assert_eq!(first, Ikkbz::best_order(&q, &m, &b).unwrap());
            let visited = every_root_order(&q);
            let mut chains = Chains::new(&q);
            chains.every_root(&b, |_, _| {}).unwrap();
            for root in (0..q.num_rels()).rev() {
                assert_eq!(chains.order_for_root(root), visited[root], "root {root}");
            }
        }
    }

    #[test]
    fn ikkbz_times_out_within_twice_its_budget() {
        // An unbudgeted call on snowflake-8000 takes ~80 ms in release (far
        // more in debug), at least ten times the budget; `snowflake-1000`
        // takes only ~2 ms, since most roots' folds stop early, and would
        // not time out. The passes poll the budget per relation, so every call
        // with 5 ms must time out, ~0.1 ms past it when nothing else runs.
        // Being preempted only makes a call later, so the fastest of five
        // calls is held to twice the budget: one call alone read over 10 ms
        // in about one run in five while the crate's tests ran beside it on
        // two cores.
        let m = PgLikeCost::new();
        let q = gen::snowflake(8000, 4, 1, &m);
        let budget = Duration::from_millis(5);
        let fastest = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                let r = Ikkbz::run(&q, &m, Some(budget));
                let took = start.elapsed();
                assert!(matches!(r, Err(OptError::Timeout { .. })), "{r:?}");
                took
            })
            .min()
            .unwrap();
        assert!(fastest < 2 * budget, "returned after {fastest:?}");
    }

    #[test]
    fn never_beats_exact_bushy() {
        let m = PgLikeCost::new();
        for seed in 0..5 {
            let q = gen::random_connected(9, 2, seed, &m);
            let ik = Ikkbz::run(&q, &m, None).unwrap();
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(ik.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn optimal_on_two_and_three_chain() {
        // For tiny chains the optimal plan is left-deep, so IKKBZ should be
        // close to exact (it optimizes under Cout-style ranks, then prices
        // with the real model — allow small slack).
        let m = PgLikeCost::new();
        let q = gen::chain(3, 7, &m);
        let ik = Ikkbz::run(&q, &m, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!(ik.cost <= exact.cost * 2.0 + 1e-9);
    }

    /// Chains over `n` relations with no tree, and groups `1..` of the
    /// given `T` sorted into `links`, for closing group 0 against them by
    /// hand.
    fn closing_against(n: usize, ts: &[f64]) -> Chains {
        let mut chains = Chains::new(&LargeQuery::new(vec![
            mpdp_core::query::RelInfo::new(
                1.0, 1.0
            );
            n
        ]));
        for (g, &t) in (1..).zip(ts) {
            (chains.t[g], chains.c[g], chains.rank[g]) = (t, t, (t - 1.0) / t);
            chains.links.push(g as u32);
        }
        chains
    }

    #[test]
    fn rank_merge_math() {
        let mut chains = closing_against(3, &[2.0]); // T=2, C=2, rank=0.5
        chains.close(0, 4.0, 0); // T=4, C=4, rank=0.75 > 0.5: absorbs 1
                                 // T=8, C=4+4*2=12, rank=(8-1)/12
        assert!((chains.t[0] - 8.0).abs() < 1e-12);
        assert!((chains.c[0] - 12.0).abs() < 1e-12);
        assert!((chains.rank[0] - 7.0 / 12.0).abs() < 1e-12);
        let Span { start, split, end } = chains.span[0];
        assert_eq!((start, split, end), (0, 1, 1));
    }

    #[test]
    fn close_absorbs_only_while_the_head_outranks() {
        // Head rank 7/8 absorbs rank 1/2 (giving 15/24), then stops before
        // rank 15/16.
        let mut chains = closing_against(3, &[2.0, 16.0]);
        chains.close(0, 8.0, 0);
        assert!(chains.rank[0] <= chains.rank[2]);
        let Span { start, split, end } = chains.span[0];
        assert_eq!((start, split, end), (0, 1, 2));
        // An exact tie absorbs nothing: head rank 1/2 against rank 1/2.
        let mut chains = closing_against(2, &[2.0]);
        chains.close(0, 2.0, 0);
        assert_eq!(chains.rank[0], chains.rank[1]);
        let Span { start, split, end } = chains.span[0];
        assert_eq!((start, split, end), (0, 0, 1));
    }

    #[test]
    fn scales_to_hundreds() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(200, 4, 5, &m);
        let r = Ikkbz::run(&q, &m, Some(Duration::from_secs(60))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
    }
}

/// The linearization as it was before the rerooting passes: the whole
/// spanning tree linearized again for every root, on one reused arena of
/// groups. Kept as the oracle the passes must equal root for root.
#[cfg(test)]
mod per_root {
    use super::spanning_tree;
    use mpdp_core::query::LargeQuery;

    /// End of a group's relation list.
    const NONE: u32 = u32::MAX;

    /// One query's spanning tree plus the scratch that linearizes it for any
    /// root, reused across roots.
    ///
    /// A chain group starts as one relation and only ever absorbs the groups
    /// after it, so a group is named by its first relation: `t`, `c` and `rank`
    /// are indexed by that relation, and the group's relations are the linked
    /// list `next` from it to `tail`. A merge is O(1) and copies no relations.
    /// `seq` is the working sequence of group ids: each call of `linearize`
    /// appends its subtree's segment to it.
    pub(super) struct Linearizer {
        tree: Vec<Vec<(usize, f64)>>,
        rows: Vec<f64>,
        /// Compound `T` per group.
        t: Vec<f64>,
        /// Compound `C` per group.
        c: Vec<f64>,
        /// `(T − 1) / C`, recomputed only when the group changes.
        rank: Vec<f64>,
        /// Last relation per group.
        tail: Vec<u32>,
        /// Per relation: the next relation of its group, or `NONE`.
        next: Vec<u32>,
        seq: Vec<u32>,
    }

    impl Linearizer {
        pub(super) fn new(q: &LargeQuery) -> Self {
            let n = q.num_rels();
            Linearizer {
                tree: spanning_tree(q),
                rows: q.rels.iter().map(|r| r.rows).collect(),
                t: vec![0.0; n],
                c: vec![0.0; n],
                rank: vec![0.0; n],
                tail: vec![NONE; n],
                next: vec![NONE; n],
                seq: Vec::with_capacity(n),
            }
        }

        /// Writes the left-deep order for `root` into `order`.
        pub(super) fn order_for_root(&mut self, root: usize, order: &mut Vec<usize>) {
            self.seq.clear();
            self.linearize(root, usize::MAX);
            order.clear();
            order.push(root);
            for &g in &self.seq {
                let mut r = g;
                while r != NONE {
                    order.push(r as usize);
                    r = self.next[r as usize];
                }
            }
        }

        /// Appends the linearization of the subtree below `v` (every relation
        /// of which must come after `v`) to `seq` as an ascending-rank segment.
        fn linearize(&mut self, v: usize, parent: usize) {
            let base = self.seq.len();
            for k in 0..self.tree[v].len() {
                let (c, sel) = self.tree[v][k];
                if c == parent {
                    continue;
                }
                // The child's chain: the child, then its own subtree's segment.
                let start = self.seq.len();
                self.push_single(c, sel * self.rows[c]);
                self.linearize(c, v);
                self.normalize(start);
            }
            // Stable merge of the independent ascending chains by rank.
            // `total_cmp` agrees with `partial_cmp` on every rank but −0.0, and
            // no rank is −0.0: `t − 1` is never −0.0 and `c > 0`. A NaN rank (a
            // NaN `rows`) sorts to an end instead of panicking.
            //
            // The sorted segment is normalized as it stands: no group's rank
            // exceeds its successor's, and no comparison with a NaN holds, so a
            // normalization pass here would merge nothing.
            let Linearizer { seq, rank, .. } = self;
            seq[base..].sort_by(|&a, &b| rank[a as usize].total_cmp(&rank[b as usize]));
        }

        /// Starts a group of the single relation `rel`.
        fn push_single(&mut self, rel: usize, t: f64) {
            let c = t.max(f64::MIN_POSITIVE);
            self.t[rel] = t;
            self.c[rel] = c;
            self.rank[rel] = (t - 1.0) / c;
            self.tail[rel] = rel as u32;
            self.next[rel] = NONE;
            self.seq.push(rel as u32);
        }

        /// Appends group `b` to group `a`.
        fn merge(&mut self, a: usize, b: usize) {
            // C(AB) = C(A) + T(A)·C(B); T(AB) = T(A)·T(B).
            self.c[a] += self.t[a] * self.c[b];
            self.t[a] *= self.t[b];
            self.rank[a] = (self.t[a] - 1.0) / self.c[a];
            self.next[self.tail[a] as usize] = b as u32;
            self.tail[a] = self.tail[b];
        }

        /// Normalizes the chain `seq[start..]` so ranks ascend, merging a group
        /// into its predecessor whenever the predecessor's rank is the larger
        /// (precedence-forced merges).
        ///
        /// The comparison is exact. Any tolerance would leave a child group
        /// ranked just below its parent, and the stable rank sort would then put
        /// the child first, where joining it needs a cross product.
        ///
        /// The chain is one new group followed by a subtree's segment, which is
        /// already normalized. Normalizing is a stack: push each group, then
        /// merge it down while the group below outranks it. On this input only
        /// the bottom merges: the head absorbs the segment's groups while it
        /// outranks the next one, and from the first group it does not outrank
        /// on, every push meets the predecessor it had in the normalized
        /// segment. The step-back scan makes the same merges in the same order:
        /// it stays at the head while it merges, then walks the rest without a
        /// violation.
        fn normalize(&mut self, start: usize) {
            let head = self.seq[start] as usize;
            let mut end = start + 1;
            while end < self.seq.len() && self.rank[head] > self.rank[self.seq[end] as usize] {
                self.merge(head, self.seq[end] as usize);
                end += 1;
            }
            self.seq.drain(start + 1..end);
        }
    }

    #[test]
    fn normalize_orders_ranks() {
        let mut lin = Linearizer::new(&LargeQuery::new(vec![
            mpdp_core::query::RelInfo::new(
                1.0, 1.0
            );
            3
        ]));
        lin.push_single(0, 8.0); // rank 7/8
        lin.push_single(1, 2.0); // rank 1/2 < 7/8 -> merge
        lin.push_single(2, 16.0);
        lin.normalize(0);
        for w in lin.seq.windows(2) {
            assert!(lin.rank[w[0] as usize] <= lin.rank[w[1] as usize]);
        }
        // All rels preserved, in order.
        assert_eq!(lin.seq, vec![0, 2]);
        assert_eq!((lin.next[0], lin.next[1]), (1, NONE));
    }
}

/// The linearization as it was before the group arena: a `Vec` of
/// relations per group, fresh sequences from every call, and the general
/// step-back normalization after every chain and every merge by rank. The
/// per-root arena and the rerooting passes both rely on only a chain's head
/// ever absorbing groups; this oracle assumes nothing of the kind, and
/// every root's order of both must equal its order.
#[cfg(test)]
mod reference {
    /// A chain group of relations with its compound `T`, `C` and rank.
    struct Group {
        rels: Vec<usize>,
        t: f64,
        c: f64,
    }

    impl Group {
        fn single(rel: usize, t: f64) -> Self {
            Group {
                rels: vec![rel],
                t,
                c: t.max(f64::MIN_POSITIVE),
            }
        }

        fn rank(&self) -> f64 {
            (self.t - 1.0) / self.c
        }

        fn merge(&mut self, next: Group) {
            self.c += self.t * next.c;
            self.t *= next.t;
            self.rels.extend(next.rels);
        }
    }

    /// Normalizes by the step-back scan.
    fn normalize(mut seq: Vec<Group>) -> Vec<Group> {
        let mut i = 0usize;
        while i + 1 < seq.len() {
            if seq[i].rank() > seq[i + 1].rank() {
                let next = seq.remove(i + 1);
                seq[i].merge(next);
                i = i.saturating_sub(1);
            } else {
                i += 1;
            }
        }
        seq
    }

    fn merge_chains(chains: Vec<Vec<Group>>) -> Vec<Group> {
        let mut all: Vec<Group> = chains.into_iter().flatten().collect();
        all.sort_by(|a, b| a.rank().total_cmp(&b.rank()));
        all
    }

    fn linearize(v: usize, parent: usize, tree: &[Vec<(usize, f64)>], rows: &[f64]) -> Vec<Group> {
        let mut chains: Vec<Vec<Group>> = Vec::new();
        for &(c, sel) in &tree[v] {
            if c == parent {
                continue;
            }
            let mut chain = vec![Group::single(c, sel * rows[c])];
            chain.extend(linearize(c, v, tree, rows));
            chains.push(normalize(chain));
        }
        normalize(merge_chains(chains))
    }

    pub(super) fn order_for_root(
        root: usize,
        tree: &[Vec<(usize, f64)>],
        rows: &[f64],
    ) -> Vec<usize> {
        let mut order = vec![root];
        for g in linearize(root, usize::MAX, tree, rows) {
            order.extend(g.rels);
        }
        order
    }

    #[test]
    fn normalize_steps_back_after_a_merge() {
        // Ranks 1/2, 3/4, 0: the second absorbs the third (T 4, C 8, rank
        // 3/8), which now ranks below the first, so the scan steps back and
        // the first absorbs it too: T 8, C 2 + 2·8.
        let seq = normalize(vec![
            Group::single(0, 2.0),
            Group::single(1, 4.0),
            Group::single(2, 1.0),
        ]);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].rels, vec![0, 1, 2]);
        assert!((seq[0].t - 8.0).abs() < 1e-12);
        assert!((seq[0].c - 18.0).abs() < 1e-12);
        // Already ascending: nothing merges.
        let seq = normalize(vec![Group::single(0, 2.0), Group::single(1, 4.0)]);
        assert_eq!(
            seq.iter().map(|g| g.rels.clone()).collect::<Vec<_>>(),
            [[0], [1]]
        );
    }
}
