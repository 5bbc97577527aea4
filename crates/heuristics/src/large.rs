//! Shared infrastructure for the heuristic (large-query) optimizers:
//! results, validation, re-costing, graph contraction and the exact-DP
//! plug-in interface.

use mpdp_core::plan::PlanTree;
use mpdp_core::query::{LargeQuery, QueryInfo, RelInfo};
use mpdp_core::{BigSet, OptError};
use mpdp_cost::model::{CostModel, InputEst};
use std::time::{Duration, Instant};

/// Result of a heuristic optimization over a [`LargeQuery`].
#[derive(Clone, Debug)]
pub struct LargeOptResult {
    /// The plan (scan leaves carry *original* relation indices).
    pub plan: PlanTree,
    /// Plan cost under the run's cost model.
    pub cost: f64,
    /// Estimated output rows of the full join.
    pub rows: f64,
}

/// A heuristic join-order optimizer for arbitrarily large queries.
pub trait LargeOptimizer {
    /// Identifier used in Tables 1–2 (e.g. `"GOO"`, `"UnionDP-MPDP (15)"`).
    fn name(&self) -> String;

    /// Runs the optimization with an optional time budget.
    fn optimize(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        budget: Option<Duration>,
    ) -> Result<LargeOptResult, OptError>;
}

/// The exact plug-in used inside IDP2, UnionDP and adaptive LinDP: takes a
/// *projected* sub-problem (scan indices `0..len`) and returns its plan.
/// MPDP inners require ≤ 64 relations; linearized-DP inners take any size.
pub type InnerLarge<'a> = &'a (dyn Fn(&LargeQuery) -> Result<PlanTree, OptError> + Sync);

/// The default inner exact algorithm: MPDP (the paper augments both IDP2 and
/// UnionDP with MPDP), without a deadline.
pub fn mpdp_inner(
    model: &dyn CostModel,
) -> impl Fn(&LargeQuery) -> Result<PlanTree, OptError> + '_ {
    mpdp_inner_with_budget(model, Budget::new(None))
}

/// MPDP as the inner exact algorithm, bounded by an outer budget's deadline
/// so sub-problems respect it too.
pub fn mpdp_inner_with_budget(
    model: &dyn CostModel,
    b: Budget,
) -> impl Fn(&LargeQuery) -> Result<PlanTree, OptError> + '_ {
    move |q: &LargeQuery| {
        let qi: QueryInfo = q.to_query_info().ok_or(OptError::TooLarge {
            got: q.num_rels(),
            max: 64,
        })?;
        let ctx = mpdp_dp::common::OptContext {
            query: &qi,
            model,
            deadline: b.deadline(),
            budget: b.budget(),
        };
        Ok(mpdp_dp::mpdp::Mpdp::run(&ctx)?.plan)
    }
}

/// Deadline helper for heuristics.
#[derive(Copy, Clone, Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    budget: Option<Duration>,
}

impl Budget {
    /// Creates a budget starting now (or unlimited when `None`).
    pub fn new(budget: Option<Duration>) -> Self {
        Budget {
            deadline: budget.map(|b| Instant::now() + b),
            budget,
        }
    }

    /// The absolute deadline, if any (for propagating into inner exact
    /// optimizer contexts so sub-problems also respect the budget).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// Errors with [`OptError::Timeout`] once exceeded.
    pub fn check(&self) -> Result<(), OptError> {
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(OptError::Timeout {
                    budget: self.budget.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }
}

/// Replaces every `Scan { rel: i }` leaf of `plan` by `mapping[i]`
/// (clone-substitution used when translating a projected sub-plan back to
/// original relation indices).
pub fn substitute_leaves(plan: &PlanTree, mapping: &[PlanTree]) -> PlanTree {
    match plan {
        PlanTree::Scan { rel, .. } => mapping[*rel as usize].clone(),
        PlanTree::Join {
            left,
            right,
            rows,
            cost,
        } => PlanTree::Join {
            left: Box::new(substitute_leaves(left, mapping)),
            right: Box::new(substitute_leaves(right, mapping)),
            rows: *rows,
            cost: *cost,
        },
    }
}

/// Collects the original relation indices covered by a plan.
pub fn plan_rels(plan: &PlanTree, out: &mut BigSet) {
    match plan {
        PlanTree::Scan { rel, .. } => {
            out.insert(*rel as usize);
        }
        PlanTree::Join { left, right, .. } => {
            plan_rels(left, out);
            plan_rels(right, out);
        }
    }
}

/// Validates a large-query plan: every relation appears exactly once, every
/// join's sides are connected to each other (no cross products), and the
/// plan covers the whole query.
pub fn validate_large(plan: &PlanTree, q: &LargeQuery) -> Option<String> {
    fn rec(plan: &PlanTree, q: &LargeQuery) -> Result<BigSet, String> {
        match plan {
            PlanTree::Scan { rel, .. } => {
                if (*rel as usize) >= q.num_rels() {
                    return Err(format!("scan of unknown relation {rel}"));
                }
                Ok(BigSet::singleton(*rel as usize))
            }
            PlanTree::Join { left, right, .. } => {
                let ls = rec(left, q)?;
                let rs = rec(right, q)?;
                if !ls.is_disjoint(&rs) {
                    return Err("join inputs overlap".into());
                }
                let connected = q.edges.iter().any(|e| {
                    (ls.contains(e.u as usize) && rs.contains(e.v as usize))
                        || (ls.contains(e.v as usize) && rs.contains(e.u as usize))
                });
                if !connected {
                    return Err("cross product in plan".into());
                }
                Ok(ls.union(&rs))
            }
        }
    }
    match rec(plan, q) {
        Err(e) => Some(e),
        Ok(covered) => {
            if covered.len() != q.num_rels() {
                Some(format!(
                    "plan covers {} of {} relations",
                    covered.len(),
                    q.num_rels()
                ))
            } else {
                None
            }
        }
    }
}

/// Output rows and cost of joining two priced subplans over the relation
/// sets `ls` and `rs`: every edge of `q` between the two sets contributes its
/// selectivity, in edge order.
fn price_join(
    (l, ls): (&PlanTree, &BigSet),
    (r, rs): (&PlanTree, &BigSet),
    q: &LargeQuery,
    model: &dyn CostModel,
) -> (f64, f64) {
    let mut sel = 1.0;
    for e in &q.edges {
        let (u, v) = (e.u as usize, e.v as usize);
        if (ls.contains(u) && rs.contains(v)) || (ls.contains(v) && rs.contains(u)) {
            sel *= e.sel;
        }
    }
    let rows = l.rows() * r.rows() * sel;
    let cost = model.join_cost(
        InputEst {
            cost: l.cost(),
            rows: l.rows(),
        },
        InputEst {
            cost: r.cost(),
            rows: r.rows(),
        },
        rows,
    );
    (rows, cost)
}

/// Recomputes a plan's cost and cardinality from scratch against the original
/// query and cost model (used to make heuristic costs comparable regardless
/// of how the plan was assembled).
pub fn recost(plan: &PlanTree, q: &LargeQuery, model: &dyn CostModel) -> PlanTree {
    fn rec(plan: &PlanTree, q: &LargeQuery, model: &dyn CostModel) -> (PlanTree, BigSet) {
        match plan {
            PlanTree::Scan { rel, .. } => {
                let info = q.rels[*rel as usize];
                (
                    PlanTree::Scan {
                        rel: *rel,
                        rows: info.rows,
                        cost: info.cost,
                    },
                    BigSet::singleton(*rel as usize),
                )
            }
            PlanTree::Join { left, right, .. } => {
                let (l, ls) = rec(left, q, model);
                let (r, rs) = rec(right, q, model);
                let (rows, cost) = price_join((&l, &ls), (&r, &rs), q, model);
                let set = ls.union(&rs);
                (
                    PlanTree::Join {
                        left: Box::new(l),
                        right: Box::new(r),
                        rows,
                        cost,
                    },
                    set,
                )
            }
        }
    }
    rec(plan, q, model).0
}

/// [`recost`], in place, for a plan in which only the node at `path`
/// (`false` = left child, `true` = right) changed since the last full
/// re-costing against a query with the same statistics everywhere else:
/// re-prices that node's ancestors, deepest first, and nothing else. Every
/// other join keeps inputs, crossing edges and edge order, so what it
/// carries is already what `recost` would compute, to the bit. Returns the
/// relations under `plan`.
pub(crate) fn recost_spine(
    plan: &mut PlanTree,
    path: &[bool],
    q: &LargeQuery,
    model: &dyn CostModel,
) -> BigSet {
    match (plan, path.split_first()) {
        (
            PlanTree::Join {
                left,
                right,
                rows,
                cost,
            },
            Some((&go_right, rest)),
        ) => {
            let (on, off) = if go_right {
                (&mut **right, &**left)
            } else {
                (&mut **left, &**right)
            };
            let on_set = recost_spine(on, rest, q, model);
            let mut off_set = BigSet::new();
            plan_rels(off, &mut off_set);
            let (ls, rs) = if go_right {
                (off_set, on_set)
            } else {
                (on_set, off_set)
            };
            (*rows, *cost) = price_join((left, &ls), (right, &rs), q, model);
            ls.union(&rs)
        }
        (plan, _) => {
            let mut set = BigSet::new();
            plan_rels(plan, &mut set);
            set
        }
    }
}

/// Contracts a group of vertices of `q` into one composite vertex.
///
/// Returns the contracted query and the mapping `old index → new index`
/// (`usize::MAX` for contracted members; the composite gets the index
/// `mapping[group\[0\]]`). Edges from group members to an outside vertex merge
/// multiplicatively; edges inside the group disappear.
pub fn contract(q: &LargeQuery, group: &[usize], composite: RelInfo) -> (LargeQuery, Vec<usize>) {
    let n = q.num_rels();
    let mut in_group = vec![false; n];
    for &g in group {
        in_group[g] = true;
    }
    let mut mapping = vec![usize::MAX; n];
    let mut rels: Vec<RelInfo> = Vec::with_capacity(n - group.len() + 1);
    for (old, &ing) in in_group.iter().enumerate() {
        if !ing {
            mapping[old] = rels.len();
            rels.push(q.rels[old]);
        }
    }
    let comp_idx = rels.len();
    rels.push(composite);
    for &g in group {
        mapping[g] = comp_idx;
    }
    let mut out = LargeQuery::new(rels);
    for e in &q.edges {
        let (nu, nv) = (mapping[e.u as usize], mapping[e.v as usize]);
        if nu == nv {
            continue; // edge inside the group
        }
        out.add_edge(nu, nv, e.sel);
    }
    (out, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;
    use mpdp_workload::gen;

    fn scan(rel: u32, rows: f64) -> PlanTree {
        PlanTree::Scan {
            rel,
            rows,
            cost: 1.0,
        }
    }

    fn join(l: PlanTree, r: PlanTree) -> PlanTree {
        PlanTree::Join {
            rows: l.rows() * r.rows(),
            cost: 0.0,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn validate_large_accepts_good_plan() {
        let m = PgLikeCost::new();
        let q = gen::chain(3, 1, &m);
        let p = join(join(scan(0, 1.0), scan(1, 1.0)), scan(2, 1.0));
        assert!(validate_large(&p, &q).is_none());
    }

    #[test]
    fn validate_large_rejects_cross_product_and_partial_cover() {
        let m = PgLikeCost::new();
        let q = gen::chain(4, 1, &m);
        // 0-1, then join with 3 (no edge 0/1 - 3).
        let cross = join(join(scan(0, 1.0), scan(1, 1.0)), scan(3, 1.0));
        assert!(validate_large(&cross, &q)
            .unwrap()
            .contains("cross product"));
        let partial = join(scan(0, 1.0), scan(1, 1.0));
        assert!(validate_large(&partial, &q).unwrap().contains("covers"));
        let dup = join(join(scan(0, 1.0), scan(1, 1.0)), scan(1, 1.0));
        assert!(validate_large(&dup, &q).is_some());
    }

    #[test]
    fn recost_matches_exact_dp_cost() {
        // Recosting the exact optimizer's plan must reproduce its cost.
        let m = PgLikeCost::new();
        let lq = gen::cycle(6, 3, &m);
        let q = lq.to_query_info().unwrap();
        let ctx = mpdp_dp::common::OptContext::new(&q, &m);
        let r = mpdp_dp::mpdp::Mpdp::run(&ctx).unwrap();
        let re = recost(&r.plan, &lq, &m);
        assert!((re.cost() - r.cost).abs() < 1e-6 * r.cost.max(1.0));
        assert!((re.rows() - r.rows).abs() < 1e-6 * r.rows.max(1.0));
    }

    #[test]
    fn substitute_replaces_leaves() {
        let inner = join(scan(0, 1.0), scan(1, 1.0));
        let mapping = vec![scan(7, 2.0), join(scan(3, 1.0), scan(4, 1.0))];
        let out = substitute_leaves(&inner, &mapping);
        let mut set = BigSet::new();
        plan_rels(&out, &mut set);
        let v: Vec<usize> = set.iter().collect();
        assert_eq!(v, vec![3, 4, 7]);
    }

    #[test]
    fn contract_merges_edges() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(10.0, 1.0); 4]);
        q.add_edge(0, 1, 0.5);
        q.add_edge(0, 2, 0.1);
        q.add_edge(1, 2, 0.2);
        q.add_edge(2, 3, 0.3);
        let _ = m;
        let (c, mapping) = contract(&q, &[0, 1], RelInfo::new(50.0, 9.0));
        assert_eq!(c.num_rels(), 3);
        // Composite index is last.
        let comp = mapping[0];
        assert_eq!(comp, mapping[1]);
        assert_eq!(c.rels[comp].rows, 50.0);
        // Edges comp-2 merged: 0.1 * 0.2 = 0.02.
        let sel_c2: f64 = c
            .edges
            .iter()
            .filter(|e| {
                (e.u as usize, e.v as usize) == (mapping[2].min(comp), mapping[2].max(comp))
            })
            .map(|e| e.sel)
            .product();
        assert!((sel_c2 - 0.02).abs() < 1e-12);
        // Edge 2-3 survives with its selectivity.
        let sel_23: f64 = c
            .edges
            .iter()
            .filter(|e| {
                (e.u as usize, e.v as usize)
                    == (mapping[2].min(mapping[3]), mapping[2].max(mapping[3]))
            })
            .map(|e| e.sel)
            .product();
        assert!((sel_23 - 0.3).abs() < 1e-12);
        assert_eq!(c.edges.len(), 2);
    }
}
