//! IKKBZ — optimal left-deep ordering for acyclic join graphs
//! (Ibaraki–Kameda \[14\], Krishnamurthy–Boral–Zaniolo \[18\]).
//!
//! For a rooted precedence tree the algorithm linearizes subtrees into chains
//! ordered by *rank* `(T − 1) / C`, merging adjacent groups whenever
//! precedence forces a higher-rank group before a lower-rank one. Under the
//! `C_out`-style recursive cost model this yields the optimal left-deep order
//! for each root in `O(n log n)`; trying all roots gives `O(n² log n)`.
//!
//! Per the paper (§7.3) IKKBZ "uses the C_out cost function to estimate the
//! best left-deep join order"; the resulting order is then priced with the
//! evaluation cost model so Tables 1–2 compare like with like. Cyclic graphs
//! are handled the way LinDP's authors do: run IKKBZ on a maximum-selectivity
//! (minimum `sel` value, i.e. most selective) spanning tree and keep all real
//! edges for pricing.

use crate::large::{Budget, LargeOptResult, LargeOptimizer};
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
struct Linearizer {
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
    fn new(q: &LargeQuery) -> Self {
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
    fn order_for_root(&mut self, root: usize, order: &mut Vec<usize>) {
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

/// Walks a left-deep order under the real cost model with *all* original
/// edges (selectivities applied once both endpoints are in the prefix),
/// reporting each join as `(relation joined, output rows, cost so far)`.
/// Returns the final `(rows, cost)`, or `None` if the order is empty or
/// implies a cross product. `in_prefix` is scratch of `q.num_rels()` flags.
fn fold_left_deep(
    q: &LargeQuery,
    order: &[usize],
    model: &dyn CostModel,
    in_prefix: &mut [bool],
    mut joined: impl FnMut(usize, f64, f64),
) -> Option<(f64, f64)> {
    in_prefix.fill(false);
    let first = *order.first()?;
    let (mut rows, mut cost) = (q.rels[first].rows, q.rels[first].cost);
    in_prefix[first] = true;
    for &v in &order[1..] {
        let mut sel = 1.0;
        let mut connected = false;
        for &(w, s) in &q.adj[v] {
            if in_prefix[w as usize] {
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
        joined(v, rows, cost);
        in_prefix[v] = true;
    }
    Some((rows, cost))
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
    let mut in_prefix = vec![false; q.num_rels()];
    let (rows, cost) = fold_left_deep(q, order, model, &mut in_prefix, |v, rows, cost| {
        plan = Some(PlanTree::Join {
            left: Box::new(plan.take().expect("the prefix's plan")),
            right: Box::new(scan(v)),
            rows,
            cost,
        });
    })?;
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
        let mut lin = Linearizer::new(q);
        let mut in_prefix = vec![false; n];
        let (mut order, mut best) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut best_cost: Option<f64> = None;
        for root in 0..n {
            budget.check()?;
            lin.order_for_root(root, &mut order);
            debug_assert_eq!(order.len(), n);
            // Cost only: the plan is built once, for the winner.
            if let Some((_, cost)) = fold_left_deep(q, &order, model, &mut in_prefix, |_, _, _| {})
            {
                match best_cost {
                    Some(c) if c <= cost => {}
                    _ => {
                        best_cost = Some(cost);
                        std::mem::swap(&mut best, &mut order);
                    }
                }
            }
        }
        best_cost
            .map(|_| best)
            .ok_or_else(|| OptError::Internal("IKKBZ found no valid order".into()))
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

impl LargeOptimizer for Ikkbz {
    fn name(&self) -> String {
        "IKKBZ".into()
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        Ikkbz::run(q, model, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::validate_large;
    use crate::testkit::{max_oracle_rels, oracle_queries};
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;

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
            let mut lin = Linearizer::new(&q);
            let (mut order, mut in_prefix) = (Vec::new(), vec![true; q.num_rels()]);
            let best = Ikkbz::run(&q, &m, None).unwrap();
            for root in 0..q.num_rels() {
                lin.order_for_root(root, &mut order);
                let folded = fold_left_deep(&q, &order, &m, &mut in_prefix, |_, _, _| {});
                let built = cost_left_deep(&q, &order, &m);
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
    fn every_root_order_equals_the_reference_linearization() {
        for (name, q) in oracle_queries(max_oracle_rels()) {
            let tree = spanning_tree(&q);
            let rows: Vec<f64> = q.rels.iter().map(|r| r.rows).collect();
            let mut lin = Linearizer::new(&q);
            let mut order = Vec::new();
            for root in 0..q.num_rels() {
                lin.order_for_root(root, &mut order);
                assert_eq!(
                    order,
                    reference::order_for_root(root, &tree, &rows),
                    "{name} root {root}"
                );
            }
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
            let mut lin = Linearizer::new(&q);
            let (mut order, mut pos) = (Vec::new(), vec![0; n]);
            let mut in_prefix = vec![false; n];
            for root in 0..n {
                lin.order_for_root(root, &mut order);
                assert_eq!(order[0], root, "{name}");
                for (p, &r) in order.iter().enumerate() {
                    pos[r] = p;
                }
                for (p, &r) in order.iter().enumerate().skip(1) {
                    assert!(
                        lin.tree[r].iter().any(|&(w, _)| pos[w] < p),
                        "{name} root {root}: relation {r} before its parent"
                    );
                }
                let priced = fold_left_deep(&q, &order, &m, &mut in_prefix, |_, _, _| {});
                assert!(priced.is_some(), "{name} root {root}");
            }
        }
    }

    #[test]
    fn a_rank_a_rounding_error_below_the_parents_stays_behind_it() {
        // `chain-30` at seed 13 has group [1] at rank 0.0 and its child [0]
        // at −1.1e-16; rooted at 10, relation 0 must still come after 1.
        let q = gen::chain(30, 13, &PgLikeCost::new());
        let mut order = Vec::new();
        Linearizer::new(&q).order_for_root(10, &mut order);
        let at = |r: usize| order.iter().position(|&x| x == r).unwrap();
        assert!(at(1) < at(0), "{order:?}");
    }

    #[test]
    fn reused_scratch_gives_the_orders_of_fresh_scratch() {
        let m = PgLikeCost::new();
        for q in [
            gen::snowflake(60, 4, 3, &m),
            gen::random_connected(40, 8, 15, &m),
        ] {
            let b = Budget::new(None);
            let first = Ikkbz::best_order(&q, &m, &b).unwrap();
            assert_eq!(first, Ikkbz::best_order(&q, &m, &b).unwrap());
            // One scratch, roots backwards, against a fresh one per root.
            let mut lin = Linearizer::new(&q);
            let (mut reused, mut fresh) = (Vec::new(), Vec::new());
            for root in (0..q.num_rels()).rev() {
                lin.order_for_root(root, &mut reused);
                Linearizer::new(&q).order_for_root(root, &mut fresh);
                assert_eq!(reused, fresh, "root {root}");
            }
        }
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

    /// A linearizer over `n` relations with no tree, for driving groups by
    /// hand.
    fn bare(n: usize) -> Linearizer {
        Linearizer::new(&LargeQuery::new(vec![
            mpdp_core::query::RelInfo::new(
                1.0, 1.0
            );
            n
        ]))
    }

    #[test]
    fn rank_merge_math() {
        let mut lin = bare(3);
        lin.push_single(1, 4.0); // T=4, C=4, rank=0.75
        lin.push_single(2, 2.0); // T=2, C=2, rank=0.5
        assert!(lin.rank[1] > lin.rank[2]);
        lin.merge(1, 2);
        // T=8, C=4+4*2=12, rank=(8-1)/12
        assert!((lin.t[1] - 8.0).abs() < 1e-12);
        assert!((lin.c[1] - 12.0).abs() < 1e-12);
        assert!((lin.rank[1] - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!((lin.next[1], lin.tail[1], lin.next[2]), (2, 2, NONE));
    }

    #[test]
    fn normalize_orders_ranks() {
        let mut lin = bare(3);
        lin.push_single(0, 8.0); // rank 7/8
        lin.push_single(1, 2.0); // rank 1/2 < 7/8 -> merge
        lin.push_single(2, 16.0);
        lin.normalize(0);
        for w in lin.seq.windows(2) {
            assert!(lin.rank[w[0] as usize] <= lin.rank[w[1] as usize] + 1e-12);
        }
        // All rels preserved, in order.
        assert_eq!(lin.seq, vec![0, 2]);
        assert_eq!((lin.next[0], lin.next[1]), (1, NONE));
    }

    #[test]
    fn scales_to_hundreds() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(200, 4, 5, &m);
        let r = Ikkbz::run(&q, &m, Some(Duration::from_secs(60))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
    }
}

/// The linearization as it was before the group arena — a `Vec` of
/// relations per group and fresh sequences from every call — kept as the
/// oracle the arena must equal root for root.
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
}
