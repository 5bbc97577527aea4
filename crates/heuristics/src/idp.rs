//! IDP — Iterative Dynamic Programming (Kossmann & Stocker \[17\]).
//!
//! * **IDP1** builds optimal plans bottom-up like plain DP but stops at
//!   subplans of `k` relations, materializes the cheapest `k`-relation plan
//!   as a temporary table, and iterates. `O(n^k)` — only viable for small
//!   `k`, which is why the paper uses IDP2 for its evaluation.
//! * **IDP2** applies the heuristic *a priori*: build a full tentative plan
//!   (GOO here, as in §7.3), then repeatedly select the most costly subtree
//!   with at most `k` leaves, re-optimize it exactly, and replace it by a
//!   temporary table until one table remains (§4.1).
//!
//! The paper's contribution is plugging MPDP in as IDP2's exact step
//! ("IDP2-MPDP (k)"), enabling `k` up to 25 on the GPU. The inner optimizer
//! is pluggable ([`InnerLarge`]) so LinDP's >100-relation mode can reuse the
//! same driver with linearized-DP blocks.

use crate::goo::Goo;
use crate::large::{
    check_selectivities, contract, mpdp_inner_with_budget, recost, recost_spine, substitute_leaves,
    Budget, InnerLarge, LargeOptResult, LargeOptimizer,
};
use mpdp_core::plan::PlanTree;
use mpdp_core::query::{LargeQuery, RelInfo};
use mpdp_core::OptError;
use mpdp_cost::model::CostModel;
use std::time::Duration;

/// IDP2's working state: the contracted query, the full original-relation
/// plan behind each of its composites, and the tentative plan over composite
/// ids.
struct Working {
    cur: LargeQuery,
    comps: Vec<PlanTree>,
    tree: PlanTree,
}

impl Working {
    /// Every relation its own composite, under GOO's tentative plan priced
    /// once in full.
    fn start(q: &LargeQuery, model: &dyn CostModel) -> Result<Self, OptError> {
        Ok(Working {
            cur: q.clone(),
            comps: (0..q.num_rels())
                .map(|i| PlanTree::Scan {
                    rel: i as u32,
                    rows: q.rels[i].rows,
                    cost: q.rels[i].cost,
                })
                .collect(),
            tree: recost(&Goo::run(q, model, None)?.plan, q, model),
        })
    }

    /// One IDP2 step: optimizes the leaves under `path` exactly, contracts
    /// them into a new composite and puts that composite's leaf where the
    /// subtree was. The leaf's ancestors still carry the prices they had
    /// with the old subtree; re-costing them is the caller's business.
    fn collapse(
        &mut self,
        path: &[bool],
        model: &dyn CostModel,
        inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    ) -> Result<(), OptError> {
        let mut group: Vec<usize> = Vec::new();
        collect_leaves(subtree_at(&self.tree, path), &mut group);
        group.sort_unstable();
        group.dedup();

        // Optimize the group exactly over the projected sub-query.
        let (sub_query, _) = project_large(&self.cur, &group);
        let sub_plan = inner(&sub_query)?;
        let sub_plan = recost(&sub_plan, &sub_query, model);
        // Translate projected leaves back to full original-relation plans.
        let mapping: Vec<PlanTree> = group.iter().map(|&g| self.comps[g].clone()).collect();
        let full_sub_plan = substitute_leaves(&sub_plan, &mapping);

        // Contract the group into a new composite.
        let info = RelInfo::new(sub_plan.rows(), sub_plan.cost());
        let (new_cur, idx_map) = contract(&self.cur, &group, info);
        let comp_idx = idx_map[group[0]];
        let mut new_comps: Vec<PlanTree> = vec![
            PlanTree::Scan {
                rel: 0,
                rows: 0.0,
                cost: 0.0
            };
            new_cur.num_rels()
        ];
        for (old, plan) in std::mem::take(&mut self.comps).into_iter().enumerate() {
            let ni = idx_map[old];
            if ni != comp_idx {
                new_comps[ni] = plan;
            }
        }
        new_comps[comp_idx] = full_sub_plan;
        self.comps = new_comps;

        // Rewrite the working tree: replace the chosen subtree by the new
        // composite leaf and remap all other leaves.
        self.tree = replace_subtree(
            &self.tree,
            path,
            PlanTree::Scan {
                rel: comp_idx as u32,
                rows: info.rows,
                cost: info.cost,
            },
            &idx_map,
        );
        self.cur = new_cur;
        Ok(())
    }
}

/// Runs the pluggable-inner IDP2 loop. `inner` receives a *projected*
/// sub-query (scan indices `0..group.len()`) of at most `k` relations and
/// must return its plan.
pub fn idp2_with_inner(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    inner: &dyn Fn(&LargeQuery) -> Result<PlanTree, OptError>,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    assert!(k >= 2, "IDP2 needs k >= 2");
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
        let plan = inner(q)?;
        return Ok(recost(&plan, q, model));
    }

    // The tentative plan is priced in full once; after that a step re-prices
    // only what it changed.
    let mut w = Working::start(q, model)?;
    loop {
        budget.check()?;
        if let PlanTree::Scan { rel, .. } = w.tree {
            // One temporary table remains: revert to its full tree.
            return Ok(recost(&w.comps[rel as usize], q, model));
        }
        // The most costly subtree with 2..=k leaves becomes a composite; of
        // the working tree's prices only its ancestors' depend on that.
        let path = most_costly_subtree(&w.tree, k)
            .ok_or_else(|| OptError::Internal("IDP2 found no candidate subtree".into()))?;
        w.collapse(&path, model, inner)?;
        recost_spine(&mut w.tree, &path, &w.cur, model);
    }
}

/// Projects `q` onto `group` as a [`LargeQuery`] over indices
/// `0..group.len()`, dropping outside edges.
pub fn project_large(q: &LargeQuery, group: &[usize]) -> (LargeQuery, Vec<usize>) {
    let mut index_of = vec![usize::MAX; q.num_rels()];
    for (new, &old) in group.iter().enumerate() {
        index_of[old] = new;
    }
    let rels: Vec<RelInfo> = group.iter().map(|&g| q.rels[g]).collect();
    let mut sub = LargeQuery::new(rels);
    for e in &q.edges {
        let (u, v) = (index_of[e.u as usize], index_of[e.v as usize]);
        if u != usize::MAX && v != usize::MAX {
            sub.add_edge(u, v, e.sel);
        }
    }
    (sub, group.to_vec())
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

fn subtree_at<'a>(tree: &'a PlanTree, path: &[bool]) -> &'a PlanTree {
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

/// Rebuilds `tree` with the node at `path` replaced by `replacement` and all
/// other scan leaves remapped through `idx_map`.
fn replace_subtree(
    tree: &PlanTree,
    path: &[bool],
    replacement: PlanTree,
    idx_map: &[usize],
) -> PlanTree {
    fn remap(plan: &PlanTree, idx_map: &[usize]) -> PlanTree {
        match plan {
            PlanTree::Scan { rel, rows, cost } => PlanTree::Scan {
                rel: idx_map[*rel as usize] as u32,
                rows: *rows,
                cost: *cost,
            },
            PlanTree::Join {
                left,
                right,
                rows,
                cost,
            } => PlanTree::Join {
                left: Box::new(remap(left, idx_map)),
                right: Box::new(remap(right, idx_map)),
                rows: *rows,
                cost: *cost,
            },
        }
    }
    if path.is_empty() {
        return replacement;
    }
    match tree {
        PlanTree::Join {
            left,
            right,
            rows,
            cost,
        } => {
            let (dir, rest) = (path[0], &path[1..]);
            let (l, r) = if dir {
                (
                    remap(left, idx_map),
                    replace_subtree(right, rest, replacement, idx_map),
                )
            } else {
                (
                    replace_subtree(left, rest, replacement, idx_map),
                    remap(right, idx_map),
                )
            };
            PlanTree::Join {
                left: Box::new(l),
                right: Box::new(r),
                rows: *rows,
                cost: *cost,
            }
        }
        PlanTree::Scan { .. } => unreachable!("path descends past a leaf"),
    }
}

/// IDP2 with a pluggable exact step; the paper's "IDP2-MPDP (k)".
pub struct Idp2<'a> {
    /// Maximum sub-problem size handed to the exact step.
    pub k: usize,
    /// The exact optimizer (default: MPDP).
    pub inner: InnerLarge<'a>,
    /// Label for reports.
    pub label: String,
}

impl<'a> Idp2<'a> {
    /// IDP2 with a caller-supplied inner optimizer.
    pub fn with_inner(k: usize, inner: InnerLarge<'a>, label: impl Into<String>) -> Idp2<'a> {
        Idp2 {
            k,
            inner,
            label: label.into(),
        }
    }
}

impl LargeOptimizer for Idp2<'_> {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError> {
        let b = Budget::new(budget);
        let plan = idp2_with_inner(q, model, self.k, self.inner, &b)?;
        Ok(LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        })
    }
}

/// Convenience: runs IDP2-MPDP(k) end to end.
pub fn idp2_mpdp(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: Option<Duration>,
) -> Result<LargeOptResult, OptError> {
    let b = Budget::new(budget);
    let inner = mpdp_inner_with_budget(model, b);
    let plan = idp2_with_inner(q, model, k, &inner, &b)?;
    Ok(LargeOptResult {
        cost: plan.cost(),
        rows: plan.rows(),
        plan,
    })
}

/// IDP1 with bounded subplan size `k` (kept small; `O(n^k)`).
pub fn idp1_mpdp(
    q: &LargeQuery,
    model: &dyn CostModel,
    k: usize,
    budget: Option<Duration>,
) -> Result<LargeOptResult, OptError> {
    assert!((2..=8).contains(&k), "IDP1 is only tractable for small k");
    let b = Budget::new(budget);
    if !q.is_connected() {
        return Err(OptError::DisconnectedGraph);
    }
    let n = q.num_rels();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    check_selectivities(q)?;
    let mut cur = q.clone();
    let mut comps: Vec<PlanTree> = (0..n)
        .map(|i| PlanTree::Scan {
            rel: i as u32,
            rows: q.rels[i].rows,
            cost: q.rels[i].cost,
        })
        .collect();
    while cur.num_rels() > 1 {
        b.check()?;
        let kk = k.min(cur.num_rels());
        // Exhaustive bounded DP over the composite graph: cheapest plan of
        // exactly kk composites.
        let best = best_bounded_plan(&cur, model, kk, &b)?;
        let mut group: Vec<usize> = Vec::new();
        collect_leaves(&best, &mut group);
        group.sort_unstable();
        let mapping: Vec<PlanTree> = group.iter().map(|&g| comps[g].clone()).collect();
        // best's leaves are composite ids; project them to 0.. for
        // substitution.
        let mut local = vec![usize::MAX; cur.num_rels()];
        for (i, &g) in group.iter().enumerate() {
            local[g] = i;
        }
        let localized = remap_leaves(&best, &local);
        let full = substitute_leaves(&localized, &mapping);
        let info = RelInfo::new(best.rows(), best.cost());
        let (new_cur, idx_map) = contract(&cur, &group, info);
        let comp_idx = idx_map[group[0]];
        let mut new_comps = vec![
            PlanTree::Scan {
                rel: 0,
                rows: 0.0,
                cost: 0.0
            };
            new_cur.num_rels()
        ];
        for (old, plan) in comps.into_iter().enumerate() {
            let ni = idx_map[old];
            if ni != comp_idx {
                new_comps[ni] = plan;
            }
        }
        new_comps[comp_idx] = full;
        comps = new_comps;
        cur = new_cur;
    }
    let plan = recost(&comps.pop().expect("one composite left"), q, model);
    Ok(LargeOptResult {
        cost: plan.cost(),
        rows: plan.rows(),
        plan,
    })
}

fn remap_leaves(plan: &PlanTree, map: &[usize]) -> PlanTree {
    match plan {
        PlanTree::Scan { rel, rows, cost } => PlanTree::Scan {
            rel: map[*rel as usize] as u32,
            rows: *rows,
            cost: *cost,
        },
        PlanTree::Join {
            left,
            right,
            rows,
            cost,
        } => PlanTree::Join {
            left: Box::new(remap_leaves(left, map)),
            right: Box::new(remap_leaves(right, map)),
            rows: *rows,
            cost: *cost,
        },
    }
}

/// Cheapest plan covering exactly `kk` composites: enumerate connected sets
/// of size ≤ kk via BFS extension, DP over set-keyed maps.
fn best_bounded_plan(
    q: &LargeQuery,
    model: &dyn CostModel,
    kk: usize,
    budget: &Budget,
) -> Result<PlanTree, OptError> {
    use std::collections::HashMap;
    type Key = Vec<u32>;
    #[derive(Clone)]
    struct Entry {
        plan: PlanTree,
    }
    let mut levels: Vec<HashMap<Key, Entry>> = vec![HashMap::new(); kk + 1];
    for i in 0..q.num_rels() {
        levels[1].insert(
            vec![i as u32],
            Entry {
                plan: PlanTree::Scan {
                    rel: i as u32,
                    rows: q.rels[i].rows,
                    cost: q.rels[i].cost,
                },
            },
        );
    }
    for size in 2..=kk {
        budget.check()?;
        let mut next: HashMap<Key, Entry> = HashMap::new();
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
                    let rows = le.plan.rows() * re.plan.rows() * sel;
                    let cost = model.join_cost(
                        mpdp_cost::model::InputEst {
                            cost: le.plan.cost(),
                            rows: le.plan.rows(),
                        },
                        mpdp_cost::model::InputEst {
                            cost: re.plan.cost(),
                            rows: re.plan.rows(),
                        },
                        rows,
                    );
                    match &best {
                        Some(b) if b.cost() <= cost => {}
                        _ => {
                            best = Some(PlanTree::Join {
                                left: Box::new(le.plan.clone()),
                                right: Box::new(re.plan.clone()),
                                rows,
                                cost,
                            })
                        }
                    }
                }
                if let Some(plan) = best {
                    next.insert(new_key, Entry { plan });
                }
            }
        }
        levels[size] = next;
    }
    levels[kk]
        .values()
        // `total_cmp`: as `partial_cmp` on costs, which are never −0.0, and
        // no panic on a NaN.
        .min_by(|a, b| a.plan.cost().total_cmp(&b.plan.cost()))
        .map(|e| e.plan.clone())
        .ok_or_else(|| OptError::Internal("IDP1 found no bounded plan".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::large::validate_large;
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
            if let PlanTree::Scan { rel, .. } = w.tree {
                return recost(&w.comps[rel as usize], q, model);
            }
            let path = most_costly_subtree(&w.tree, k).unwrap();
            w.collapse(&path, model, &inner).unwrap();
            recost_spine(&mut w.tree, &path, &w.cur, model);
            let full = recost(&w.tree, &w.cur, model);
            assert_eq!(
                plan_bits(&w.tree),
                plan_bits(&full),
                "{} composites left",
                w.cur.num_rels()
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
    fn idp1_exact_when_k_equals_n() {
        let m = PgLikeCost::new();
        let q = gen::chain(6, 2, &m);
        let r = idp1_mpdp(&q, &m, 6, None).unwrap();
        let exact = Mpdp::run(&OptContext::new(&q.to_query_info().unwrap(), &m)).unwrap();
        assert!((r.cost - exact.cost).abs() < 1e-6 * exact.cost.max(1.0));
    }
}
