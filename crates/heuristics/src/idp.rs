//! IDP — Iterative Dynamic Programming (Kossmann & Stocker \[17\]).
//!
//! * **IDP1** builds optimal plans bottom-up like plain DP but stops at
//!   subplans of `k` relations, materializes the cheapest `k`-relation plan
//!   as a temporary table, and iterates. `O(n^k)` — only viable for small
//!   `k`, which is why the paper uses IDP2 for its evaluation. Its bounded
//!   DP is its own, over set-keyed hash maps; MPDP is not involved.
//! * **IDP2** applies the heuristic *a priori*: build a full tentative plan
//!   (GOO here, as in §7.3), then repeatedly select the most costly subtree
//!   with at most `k` leaves, re-optimize it exactly, and replace it by a
//!   temporary table until one table remains (§4.1).
//!
//! Both materialize a table through the composite store in
//! [`crate::large`], as UnionDP does. The paper's contribution is plugging
//! MPDP in as IDP2's exact step ("IDP2-MPDP (k)"), enabling `k` up to 25 on
//! the GPU. The exact step is a parameter of [`idp2_with_inner`] so LinDP's
//! >100-relation mode can reuse the same driver with linearized-DP blocks.

use crate::goo::Goo;
use crate::large::{
    check_selectivities, mpdp_inner_with_budget, recost, recost_spine, Budget, Composites,
    LargeOptResult,
};
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_core::OptError;
use mpdp_cost::model::{CostModel, InputEst};
use std::time::Duration;

/// The largest `k` IDP1 accepts: its bounded DP is `O(n^k)`.
pub const IDP1_MAX_K: usize = 8;

/// IDP2's working state: the composite store and the tentative plan over
/// its vertex ids.
struct Working {
    store: Composites,
    tree: PlanTree,
}

impl Working {
    /// Every relation its own composite, under GOO's tentative plan priced
    /// once in full.
    fn start(q: &LargeQuery, model: &dyn CostModel) -> Result<Self, OptError> {
        Ok(Working {
            store: Composites::new(q),
            tree: recost(&Goo::run(q, model, None)?.plan, q, model),
        })
    }

    /// One IDP2 step: plans the leaves under `path` exactly, contracts them
    /// into a new composite and puts that composite's leaf where the subtree
    /// was. The leaf's ancestors still carry the prices they had with the
    /// old subtree; re-costing them is the caller's business.
    fn collapse(
        &mut self,
        path: &[bool],
        model: &dyn CostModel,
        inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    ) -> Result<(), OptError> {
        let node = subtree_at(&mut self.tree, path);
        let mut group: Vec<usize> = Vec::new();
        collect_leaves(node, &mut group);
        group.sort_unstable();
        group.dedup();
        let (map, info) = self.store.collapse(&group, model, inner)?;
        // A member's id, which the relabelling maps to the composite's.
        *node = PlanTree::Scan {
            rel: group[0] as u32,
            rows: info.rows,
            cost: info.cost,
        };
        self.tree = self.tree.relabel(&map);
        Ok(())
    }
}

/// Runs the IDP2 loop with `inner` as the exact step. `inner` receives a
/// *projected* sub-query (scan indices `0..group.len()`) of at most `k`
/// relations and must return its plan; MPDP inners take at most 64,
/// linearized-DP inners any number. `k` must be at least 2: a smaller bound
/// can contract nothing and returns [`OptError::Internal`].
pub fn idp2_with_inner(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    if k < 2 {
        return Err(OptError::Internal(format!(
            "IDP2 needs k >= 2, got k = {k}"
        )));
    }
    let n = q.num_rels();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    if !q.is_connected() {
        return Err(OptError::DisconnectedGraph);
    }
    check_selectivities(q)?;
    if n <= k {
        // Whole query fits one exact invocation.
        return Ok(recost(&inner(q)?, q, model));
    }

    // The tentative plan is priced in full once; after that a step re-prices
    // only what it changed.
    let mut w = Working::start(q, model)?;
    loop {
        budget.check()?;
        if let PlanTree::Scan { .. } = w.tree {
            // One temporary table remains: revert to its full tree.
            return Ok(w.store.into_plan(q, model));
        }
        // The most costly subtree with 2..=k leaves becomes a composite; of
        // the working tree's prices only its ancestors' depend on that.
        let path = most_costly_subtree(&w.tree, k)
            .ok_or_else(|| OptError::Internal("IDP2 found no candidate subtree".into()))?;
        w.collapse(&path, model, inner)?;
        recost_spine(&mut w.tree, &path, w.store.query(), model);
    }
}

fn collect_leaves(plan: &PlanTree, out: &mut Vec<usize>) {
    match plan {
        PlanTree::Scan { rel, .. } => out.push(*rel as usize),
        PlanTree::Join { left, right, .. } => {
            collect_leaves(left, out);
            collect_leaves(right, out);
        }
    }
}

/// Path to the most costly internal node with at most `k` leaves
/// (`false` = left child, `true` = right child).
fn most_costly_subtree(tree: &PlanTree, k: usize) -> Option<Vec<bool>> {
    fn rec(
        plan: &PlanTree,
        k: usize,
        path: &mut Vec<bool>,
        best: &mut Option<(f64, Vec<bool>)>,
    ) -> usize {
        match plan {
            PlanTree::Scan { .. } => 1,
            PlanTree::Join {
                left, right, cost, ..
            } => {
                path.push(false);
                let l = rec(left, k, path, best);
                path.pop();
                path.push(true);
                let r = rec(right, k, path, best);
                path.pop();
                let leaves = l + r;
                if leaves <= k {
                    match best {
                        Some((c, _)) if *c >= *cost => {}
                        _ => *best = Some((*cost, path.clone())),
                    }
                }
                leaves
            }
        }
    }
    let mut best = None;
    let mut path = Vec::new();
    rec(tree, k, &mut path, &mut best);
    best.map(|(_, p)| p)
}

fn subtree_at<'a>(tree: &'a mut PlanTree, path: &[bool]) -> &'a mut PlanTree {
    let mut cur = tree;
    for &dir in path {
        match cur {
            PlanTree::Join { left, right, .. } => {
                cur = if dir { right } else { left };
            }
            PlanTree::Scan { .. } => unreachable!("path descends past a leaf"),
        }
    }
    cur
}

/// IDP2 with MPDP as the exact step: the paper's "IDP2-MPDP (k)".
pub fn idp2_mpdp(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: Option<Duration>,
) -> Result<LargeOptResult, OptError> {
    let b = Budget::new(budget);
    let inner = mpdp_inner_with_budget(model, b);
    Ok(idp2_with_inner(q, model, k, &inner, &b)?.into())
}

/// IDP1 with bounded subplan size `k`, which must be in
/// `2..=`[`IDP1_MAX_K`].
pub fn idp1_mpdp(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: Option<Duration>,
) -> Result<LargeOptResult, OptError> {
    if !(2..=IDP1_MAX_K).contains(&k) {
        return Err(OptError::Internal(format!(
            "IDP1 needs 2 <= k <= {IDP1_MAX_K}, got k = {k}"
        )));
    }
    let b = Budget::new(budget);
    if !q.is_connected() {
        return Err(OptError::DisconnectedGraph);
    }
    if q.num_rels() == 0 {
        return Err(OptError::EmptyQuery);
    }
    check_selectivities(q)?;
    let mut store = Composites::new(q);
    while store.query().num_rels() > 1 {
        let cur = store.query();
        // Exhaustive bounded DP over the composite graph: the cheapest plan
        // of exactly k composites (or all that are left), relabelled onto
        // the projection of its leaves.
        let best = best_bounded_plan(cur, model, k.min(cur.num_rels()), &b)?;
        let mut group: Vec<usize> = Vec::new();
        collect_leaves(&best, &mut group);
        group.sort_unstable();
        let mut local = vec![u32::MAX; cur.num_rels()];
        for (i, &g) in group.iter().enumerate() {
            local[g] = i as u32;
        }
        let localized = best.relabel(&local);
        store.collapse(&group, model, |_| Ok(localized))?;
    }
    Ok(store.into_plan(q, model).into())
}

/// Cheapest plan covering exactly `kk` composites: enumerate connected sets
/// of size ≤ kk via BFS extension, DP over set-keyed maps. The budget is
/// checked per extended set.
fn best_bounded_plan(
    q: &LargeQuery,
    model: &dyn CostModel,
    kk: usize,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    use std::collections::HashMap;
    type Key = Vec<u32>;
    let mut levels: Vec<HashMap<Key, PlanTree>> = vec![HashMap::new(); kk + 1];
    for i in 0..q.num_rels() {
        let scan = PlanTree::Scan {
            rel: i as u32,
            rows: q.rels[i].rows,
            cost: q.rels[i].cost,
        };
        levels[1].insert(vec![i as u32], scan);
    }
    for size in 2..=kk {
        let mut next: HashMap<Key, PlanTree> = HashMap::new();
        // Extend every (size-1)-set by a neighbour, then try all splits of
        // the result via its sub-entries.
        let prev: Vec<Key> = levels[size - 1].keys().cloned().collect();
        for key in prev {
            let members: Vec<usize> = key.iter().map(|&x| x as usize).collect();
            let mut neighbours: Vec<usize> = Vec::new();
            for &m in &members {
                for &(w, _) in &q.adj[m] {
                    if !key.contains(&w) {
                        neighbours.push(w as usize);
                    }
                }
            }
            neighbours.sort_unstable();
            neighbours.dedup();
            for v in neighbours {
                // Per extended set: one level can take seconds.
                budget.check()?;
                let mut new_key: Key = key.clone();
                new_key.push(v as u32);
                new_key.sort_unstable();
                if next.contains_key(&new_key) {
                    continue;
                }
                // Best split: iterate all submask splits of the new set.
                let s = new_key.len();
                let mut best: Option<PlanTree> = None;
                for mask in 1u32..(1 << s) - 1 {
                    let left_key: Key = (0..s)
                        .filter(|&i| mask & (1 << i) != 0)
                        .map(|i| new_key[i])
                        .collect();
                    let right_key: Key = (0..s)
                        .filter(|&i| mask & (1 << i) == 0)
                        .map(|i| new_key[i])
                        .collect();
                    let (Some(le), Some(re)) = (
                        levels[left_key.len()].get(&left_key),
                        levels[right_key.len()].get(&right_key),
                    ) else {
                        continue;
                    };
                    // Cross-product check + selectivity.
                    let mut sel = 1.0;
                    let mut connected = false;
                    for e in &q.edges {
                        let lu = left_key.contains(&e.u) && right_key.contains(&e.v);
                        let lv = left_key.contains(&e.v) && right_key.contains(&e.u);
                        if lu || lv {
                            sel *= e.sel;
                            connected = true;
                        }
                    }
                    if !connected {
                        continue;
                    }
                    let rows = le.rows() * re.rows() * sel;
                    let cost = model.join_cost(
                        InputEst {
                            cost: le.cost(),
                            rows: le.rows(),
                        },
                        InputEst {
                            cost: re.cost(),
                            rows: re.rows(),
                        },
                        rows,
                    );
                    match &best {
                        Some(b) if b.cost() <= cost => {}
                        _ => {
                            best = Some(PlanTree::Join {
                                left: Box::new(le.clone()),
                                right: Box::new(re.clone()),
                                rows,
                                cost,
                            })
                        }
                    }
                }
                if let Some(plan) = best {
                    next.insert(new_key, plan);
                }
            }
        }
        levels[size] = next;
    }
    levels[kk]
        .iter()
        // `total_cmp`: as `partial_cmp` on costs, which are never −0.0, and
        // no panic on a NaN. A tie goes to the smaller set, not to the hash
        // map's per-process iteration order.
        .min_by(|(ka, a), (kb, b)| a.cost().total_cmp(&b.cost()).then_with(|| ka.cmp(kb)))
        .map(|(_, plan)| plan.clone())
        .ok_or_else(|| OptError::Internal("IDP1 found no bounded plan".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ikkbz::Ikkbz;
    use crate::large::validate_large;
    use crate::lindp::interval_dp;
    use crate::testkit::{plan_bits, plan_large_queries};
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_dp::common::OptContext;
    use mpdp_dp::mpdp::Mpdp;
    use mpdp_workload::gen;

    /// `idp2_with_inner`'s loop with MPDP inside, checking after every step
    /// that the spine re-costing left the working tree exactly as the full
    /// re-costing IDP2 used to run per iteration would have — so both pick
    /// the same subtree next.
    fn idp2_checked_against_full_recost(
        q: &LargeQuery,
        model: &dyn CostModel,
        k: usize,
    ) -> PlanTree {
        let inner = mpdp_inner_with_budget(model, Budget::new(None));
        let mut w = Working::start(q, model).unwrap();
        loop {
            if let PlanTree::Scan { .. } = w.tree {
                return w.store.into_plan(q, model);
            }
            let path = most_costly_subtree(&w.tree, k).unwrap();
            w.collapse(&path, model, &inner).unwrap();
            let cur = w.store.query();
            recost_spine(&mut w.tree, &path, cur, model);
            let full = recost(&w.tree, cur, model);
            assert_eq!(
                plan_bits(&w.tree),
                plan_bits(&full),
                "{} composites left",
                cur.num_rels()
            );
        }
    }

    #[test]
    fn spine_recost_leaves_idp2_bit_identical_on_the_plan_large_grid() {
        // The benchmark's `plan-large` queries, at its k.
        let m = PgLikeCost::new();
        for (name, q) in plan_large_queries() {
            let run = idp2_mpdp(&q, &m, 15, None).unwrap().plan;
            let checked = idp2_checked_against_full_recost(&q, &m, 15);
            assert_eq!(plan_bits(&run), plan_bits(&checked), "{name}");
        }
    }

    /// The timings of DESIGN §13's card "Contraction, re-pricing and GOO":
    /// `cargo test --release -p mpdp-heuristics heuristic_cards -- --ignored
    /// --nocapture` (~1 s). Every figure is the minimum over repeats: ns per
    /// `add_edge` (rebuilding the query's edge list), per full `recost` of
    /// GOO's plan, per `recost_spine` step of IDP2-MPDP (15) and per GOO run,
    /// on `snowflake-200` and `snowflake-1000`, with IKKBZ's rows (every
    /// root's order linearized root by root and by the rerooting passes,
    /// every order folded whole, one `best_order` and the share of the
    /// joins its cut-off folds skip, and the peak of its `links` arena, also
    /// on `star-1000`); per `plan-large` query, one `best_order`, its
    /// skipped share, and the interval DP over its order against the dense
    /// reference; then where one IDP2-MPDP (15) call on `snowflake-200`
    /// spends its time.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn heuristic_cards() {
        use std::cell::Cell;
        use std::hint::black_box;
        use std::time::Instant;
        fn min_ns(reps: usize, mut pass: impl FnMut() -> f64) -> f64 {
            (0..reps).map(|_| pass()).fold(f64::INFINITY, f64::min)
        }
        fn ns_since(t0: Instant) -> f64 {
            t0.elapsed().as_secs_f64() * 1e9
        }
        let m = PgLikeCost::new();
        for n in [200, 1000] {
            let q = gen::snowflake(n, 4, 1, &m);
            let add_edge = min_ns(15, || {
                let t0 = Instant::now();
                let mut r = LargeQuery::new(q.rels.clone());
                for e in &q.edges {
                    r.add_edge(e.u as usize, e.v as usize, e.sel);
                }
                black_box(&r);
                ns_since(t0) / q.edges.len() as f64
            });
            let goo = min_ns(15, || {
                let t0 = Instant::now();
                black_box(Goo::run(&q, &m, None).unwrap());
                ns_since(t0)
            });
            let tentative = Goo::run(&q, &m, None).unwrap().plan;
            let full = min_ns(15, || {
                let t0 = Instant::now();
                black_box(recost(&tentative, &q, &m));
                ns_since(t0)
            });
            // IDP2's loop, timing each step's spine re-costing on a copy.
            let inner = mpdp_inner_with_budget(&m, Budget::new(None));
            let mut w = Working::start(&q, &m).unwrap();
            let (mut spine, mut steps) = (0.0, 0);
            while let Some(path) = most_costly_subtree(&w.tree, 15) {
                w.collapse(&path, &m, &inner).unwrap();
                spine += min_ns(15, || {
                    let mut tree = w.tree.clone();
                    let t0 = Instant::now();
                    recost_spine(&mut tree, &path, w.store.query(), &m);
                    let ns = ns_since(t0);
                    black_box(tree);
                    ns
                });
                steps += 1;
                recost_spine(&mut w.tree, &path, w.store.query(), &m);
            }
            println!(
                "snowflake-{n}: add_edge {add_edge:.1} ns, recost {:.1} us, \
                 recost_spine {:.1} us/step ({steps} steps), GOO {:.1} us",
                full / 1e3,
                spine / steps as f64 / 1e3,
                goo / 1e3
            );
            let [per_root, rerooted, fold, best] = crate::ikkbz::tests::card_ns(&q, &m, 15);
            let (links, cap) = crate::ikkbz::tests::links_peak(&q);
            println!(
                "snowflake-{n}: IKKBZ linearize-all {:.1} us root by root / {:.1} us rerooted, \
                 fold-all {:.1} us, best_order {:.1} us ({:.1} % of the joins skipped), \
                 links {links} entries ({cap} capacity, {:.2} MB)",
                per_root / 1e3,
                rerooted / 1e3,
                fold / 1e3,
                best / 1e3,
                100.0 * crate::ikkbz::tests::skipped_share(&q),
                (cap * 4) as f64 / 1e6
            );
        }
        // Per `plan-large` query: the share of every root's joins that
        // IKKBZ's folds skip, one `best_order`, and the interval DP over its
        // order against the reference's dense split loop.
        for (name, q) in plan_large_queries() {
            let b = Budget::new(None);
            let best = min_ns(15, || {
                let t0 = Instant::now();
                black_box(Ikkbz::best_order(&q, &m, &b).unwrap());
                ns_since(t0)
            });
            let order = Ikkbz::best_order(&q, &m, &b).unwrap();
            let dp = min_ns(15, || {
                let t0 = Instant::now();
                black_box(interval_dp(&q, &order, &m, &b).unwrap());
                ns_since(t0)
            });
            let dense = min_ns(15, || {
                let t0 = Instant::now();
                black_box(crate::lindp::reference::interval_dp(&q, &order, &m, &b).unwrap());
                ns_since(t0)
            });
            println!(
                "{name}: IKKBZ best_order {:.1} us ({:.1} % of the joins skipped), \
                 interval_dp {:.1} us (dense reference {:.1} us)",
                best / 1e3,
                100.0 * crate::ikkbz::tests::skipped_share(&q),
                dp / 1e3,
                dense / 1e3
            );
        }
        // A star is the arena's worst case: each leaf's up chain holds
        // every other leaf.
        let (links, cap) = crate::ikkbz::tests::links_peak(&gen::star(1000, 1, &m));
        println!(
            "star-1000: IKKBZ links {links} entries ({cap} capacity, {:.2} MB)",
            (cap * 4) as f64 / 1e6
        );
        // One IDP2-MPDP (15) call on snowflake-200 by phase: the loop of
        // `idp2_with_inner` and `Working::collapse`, with a timer per phase.
        let q = gen::snowflake(200, 4, 1, &m);
        let names = [
            "GOO",
            "full recosts",
            "subtree choice",
            "MPDP",
            "collapse without MPDP",
            "leaves and relabel",
            "recost_spine",
        ];
        let mut best = [f64::INFINITY; 7];
        for _ in 0..15 {
            let mut t = [0.0; 7];
            let mpdp = Cell::new(0.0);
            let exact = mpdp_inner_with_budget(&m, Budget::new(None));
            let inner = |sub: &LargeQuery| {
                let t0 = Instant::now();
                let plan = exact(sub);
                mpdp.set(mpdp.get() + ns_since(t0));
                plan
            };
            let t0 = Instant::now();
            let tentative = Goo::run(&q, &m, None).unwrap().plan;
            t[0] += ns_since(t0);
            let t0 = Instant::now();
            let mut w = Working {
                store: Composites::new(&q),
                tree: recost(&tentative, &q, &m),
            };
            t[1] += ns_since(t0);
            loop {
                let t0 = Instant::now();
                let Some(path) = most_costly_subtree(&w.tree, 15) else {
                    break;
                };
                t[2] += ns_since(t0);
                let t0 = Instant::now();
                let node = subtree_at(&mut w.tree, &path);
                let mut group: Vec<usize> = Vec::new();
                collect_leaves(node, &mut group);
                group.sort_unstable();
                t[5] += ns_since(t0);
                let t0 = Instant::now();
                let (map, info) = w.store.collapse(&group, &m, inner).unwrap();
                t[4] += ns_since(t0);
                let t0 = Instant::now();
                *node = PlanTree::Scan {
                    rel: group[0] as u32,
                    rows: info.rows,
                    cost: info.cost,
                };
                w.tree = w.tree.relabel(&map);
                t[5] += ns_since(t0);
                let t0 = Instant::now();
                recost_spine(&mut w.tree, &path, w.store.query(), &m);
                t[6] += ns_since(t0);
            }
            let t0 = Instant::now();
            black_box(w.store.into_plan(&q, &m));
            t[1] += ns_since(t0);
            t[3] = mpdp.get();
            t[4] -= t[3];
            for (b, x) in best.iter_mut().zip(t) {
                *b = b.min(x);
            }
        }
        let total: f64 = best.iter().sum();
        println!("IDP2-MPDP (15) on snowflake-200, {:.2} ms:", total / 1e6);
        for (name, ns) in names.iter().zip(best) {
            println!(
                "  {name:<22} {:>6.3} ms  {:>4.1} %",
                ns / 1e6,
                100.0 * ns / total
            );
        }
    }

    #[test]
    fn spine_recost_equals_the_full_scan_oracle_on_random_graphs() {
        // IDP2-MPDP (4)'s loop on every property graph: GOO's tentative
        // plan priced in full, and the working tree after every contraction
        // and spine re-costing, each against the full-scan pricing of the
        // same tree over the contracted query, every node to the bit.
        use crate::large::tests::recost_scan;
        use crate::testkit::{max_oracle_rels, property_graphs};
        let m = PgLikeCost::new();
        let inner = mpdp_inner_with_budget(&m, Budget::new(None));
        for (name, q) in property_graphs(max_oracle_rels(), 24) {
            let mut w = Working::start(&q, &m).unwrap();
            let oracle = recost_scan(&w.tree, &q, &m);
            assert_eq!(plan_bits(&w.tree), plan_bits(&oracle), "{name}");
            while let Some(path) = most_costly_subtree(&w.tree, 4) {
                w.collapse(&path, &m, &inner).unwrap();
                recost_spine(&mut w.tree, &path, w.store.query(), &m);
                let oracle = recost_scan(&w.tree, w.store.query(), &m);
                let left = w.store.query().num_rels();
                assert_eq!(
                    plan_bits(&w.tree),
                    plan_bits(&oracle),
                    "{name}, {left} left"
                );
            }
        }
    }

    #[test]
    fn idp2_equals_exact_when_k_covers_query() {
        let m = PgLikeCost::new();
        let q = gen::cycle(9, 2, &m);
        let r = idp2_mpdp(&q, &m, 10, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }

    #[test]
    fn idp2_valid_and_never_beats_exact() {
        let m = PgLikeCost::new();
        for seed in 0..4 {
            let q = gen::random_connected(10, 3, seed, &m);
            let r = idp2_mpdp(&q, &m, 4, None).unwrap();
            assert!(validate_large(&r.plan, &q).is_none(), "seed {seed}");
            let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
            assert!(r.cost >= exact.cost * (1.0 - 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn idp2_improves_over_goo() {
        // IDP2 re-optimizes GOO's costly subtrees, so it should never be
        // worse than GOO itself.
        let m = PgLikeCost::new();
        for seed in [1, 5, 9] {
            let q = gen::star(30, seed, &m);
            let goo = Goo::run(&q, &m, None).unwrap();
            let idp = idp2_mpdp(&q, &m, 10, None).unwrap();
            assert!(
                idp.cost <= goo.cost * (1.0 + 1e-9),
                "seed {seed}: idp {} goo {}",
                idp.cost,
                goo.cost
            );
        }
    }

    #[test]
    fn idp2_scales_to_large_snowflakes() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(120, 4, 4, &m);
        let r = idp2_mpdp(&q, &m, 8, Some(Duration::from_secs(120))).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        assert_eq!(r.plan.num_rels(), 120);
    }

    #[test]
    fn idp1_valid_and_reasonable() {
        let m = PgLikeCost::new();
        let q = gen::star(12, 3, &m);
        let r = idp1_mpdp(&q, &m, 4, None).unwrap();
        assert!(validate_large(&r.plan, &q).is_none());
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!(r.cost >= exact.cost * (1.0 - 1e-9));
    }

    #[test]
    fn idp1_rejects_a_k_past_its_bound() {
        let m = PgLikeCost::new();
        let q = gen::star(12, 3, &m);
        for k in [0, 1, IDP1_MAX_K + 1, 15] {
            let r = idp1_mpdp(&q, &m, k, None);
            assert!(matches!(r, Err(OptError::Internal(_))), "k = {k}");
        }
    }

    #[test]
    fn idp1_times_out_within_twice_its_budget() {
        // One level of the bounded DP on star-60 at k = 5 takes far longer
        // than the budget; the per-set check stops it early.
        let m = PgLikeCost::new();
        let q = gen::star(60, 1, &m);
        let budget = Duration::from_millis(50);
        let start = std::time::Instant::now();
        let r = idp1_mpdp(&q, &m, 5, Some(budget));
        let took = start.elapsed();
        assert!(matches!(r, Err(OptError::Timeout { .. })), "{r:?}");
        assert!(took < 2 * budget, "returned after {took:?}");
    }

    #[test]
    fn idp1_exact_when_k_equals_n() {
        let m = PgLikeCost::new();
        let q = gen::chain(6, 2, &m);
        let r = idp1_mpdp(&q, &m, 6, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }
}
