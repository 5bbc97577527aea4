//! Shared infrastructure for the heuristic (large-query) optimizers:
//! results, validation, re-costing, and the composite store through which
//! IDP1, IDP2 and UnionDP contract planned groups.

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

impl From<PlanTree> for LargeOptResult {
    /// The result whose cost and rows are the plan root's.
    fn from(plan: PlanTree) -> Self {
        LargeOptResult {
            cost: plan.cost(),
            rows: plan.rows(),
            plan,
        }
    }
}

/// MPDP as the exact step of IDP2 and UnionDP (the paper augments both with
/// MPDP), bounded by an outer budget's deadline so sub-problems respect it
/// too. Takes a *projected* sub-problem (scan indices `0..len`) of at most
/// 64 relations and returns its plan.
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

/// Errors unless every edge's selectivity is in `(0, 1]`, as
/// `LargeQuery::add_edge` and `JoinGraph::add_edge` assert. A heuristic that
/// rebuilds the graph (contraction, projection, the exact step) checks this
/// first, so a NaN written into `edges` comes back as an error, not a panic.
pub(crate) fn check_selectivities(q: &LargeQuery) -> Result<(), OptError> {
    match q.edges.iter().find(|e| !(e.sel > 0.0 && e.sel <= 1.0)) {
        Some(e) => Err(OptError::Internal(format!(
            "edge ({}, {}) has selectivity {}, outside (0, 1]",
            e.u, e.v, e.sel
        ))),
        None => Ok(()),
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
fn substitute_leaves(plan: &PlanTree, mapping: &[PlanTree]) -> PlanTree {
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

/// The edges of a query by vertex, as ascending edge ids in one flat array:
/// vertex `v`'s are `ids[start[v]..start[v + 1]]`. Built once per re-costing
/// so that pricing a join reads only the edges at its smaller side.
struct Incidence {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl Incidence {
    fn new(q: &LargeQuery) -> Self {
        let mut start = vec![0u32; q.num_rels() + 1];
        for e in &q.edges {
            start[e.u as usize + 1] += 1;
            start[e.v as usize + 1] += 1;
        }
        for v in 1..start.len() {
            start[v] += start[v - 1];
        }
        let mut next = start.clone();
        let mut ids = vec![0u32; 2 * q.edges.len()];
        for (id, e) in q.edges.iter().enumerate() {
            for end in [e.u as usize, e.v as usize] {
                ids[next[end] as usize] = id as u32;
                next[end] += 1;
            }
        }
        Incidence { start, ids }
    }

    fn of(&self, v: usize) -> &[u32] {
        &self.ids[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// Prices joins against one query and cost model; what [`recost`] and
/// [`recost_spine`] share.
struct Pricer<'a> {
    q: &'a LargeQuery,
    model: &'a dyn CostModel,
    incidence: Incidence,
    /// One join's crossing edge ids, reused across joins.
    crossing: Vec<u32>,
}

impl<'a> Pricer<'a> {
    fn new(q: &'a LargeQuery, model: &'a dyn CostModel) -> Self {
        Pricer {
            q,
            model,
            incidence: Incidence::new(q),
            crossing: Vec::new(),
        }
    }

    /// Output rows and cost of joining two priced subplans over the
    /// disjoint relation sets `ls` and `rs`: every edge of the query between
    /// the two sets contributes its selectivity, in edge order. The crossing
    /// edges are collected from the smaller set's incidence lists and
    /// sorted by id, so the product has the same factors in the same order
    /// as a scan of the whole edge list.
    fn price_join(
        &mut self,
        (l, ls): (&PlanTree, &BigSet),
        (r, rs): (&PlanTree, &BigSet),
    ) -> (f64, f64) {
        let (near, far) = if ls.len() <= rs.len() {
            (ls, rs)
        } else {
            (rs, ls)
        };
        self.crossing.clear();
        for x in near.iter() {
            for &id in self.incidence.of(x) {
                let e = &self.q.edges[id as usize];
                let y = if e.u as usize == x { e.v } else { e.u };
                if far.contains(y as usize) {
                    self.crossing.push(id);
                }
            }
        }
        self.crossing.sort_unstable();
        let mut sel = 1.0;
        for &id in &self.crossing {
            sel *= self.q.edges[id as usize].sel;
        }
        let rows = l.rows() * r.rows() * sel;
        let cost = self.model.join_cost(
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
}

/// Recomputes a plan's cost and cardinality from scratch against the original
/// query and cost model (used to make heuristic costs comparable regardless
/// of how the plan was assembled).
pub fn recost(plan: &PlanTree, q: &LargeQuery, model: &dyn CostModel) -> PlanTree {
    fn rec(plan: &PlanTree, pricer: &mut Pricer) -> (PlanTree, BigSet) {
        match plan {
            PlanTree::Scan { rel, .. } => {
                let info = pricer.q.rels[*rel as usize];
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
                let (l, ls) = rec(left, pricer);
                let (r, rs) = rec(right, pricer);
                let (rows, cost) = pricer.price_join((&l, &ls), (&r, &rs));
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
    rec(plan, &mut Pricer::new(q, model)).0
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
    fn rec(plan: &mut PlanTree, path: &[bool], pricer: &mut Pricer) -> BigSet {
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
                let on_set = rec(on, rest, pricer);
                let mut off_set = BigSet::new();
                plan_rels(off, &mut off_set);
                let (ls, rs) = if go_right {
                    (off_set, on_set)
                } else {
                    (on_set, off_set)
                };
                (*rows, *cost) = pricer.price_join((left, &ls), (right, &rs));
                ls.union(&rs)
            }
            (plan, _) => {
                let mut set = BigSet::new();
                plan_rels(plan, &mut set);
                set
            }
        }
    }
    rec(plan, path, &mut Pricer::new(q, model))
}

/// A query with groups of its relations contracted into composite
/// vertices, and the original-relation plan behind each vertex. IDP1, IDP2
/// and UnionDP all advance by [`Composites::collapse`], one group at a time,
/// until one vertex is left.
pub(crate) struct Composites {
    query: LargeQuery,
    plans: Vec<PlanTree>,
}

impl Composites {
    /// Every relation of `q` its own composite.
    pub(crate) fn new(q: &LargeQuery) -> Self {
        let plans = (0..q.num_rels())
            .map(|i| PlanTree::Scan {
                rel: i as u32,
                rows: q.rels[i].rows,
                cost: q.rels[i].cost,
            })
            .collect();
        Composites {
            query: q.clone(),
            plans,
        }
    }

    /// The contracted query.
    pub(crate) fn query(&self) -> &LargeQuery {
        &self.query
    }

    /// The one contraction step. Projects the contracted query onto `group`
    /// (ascending vertex ids; the projection's scan `i` is `group[i]`),
    /// plans the projection with `plan`, re-costs that plan against it, puts
    /// each member's plan in place of its leaf, and contracts the group into
    /// one composite priced as the re-costed plan. Returns the map from each
    /// old vertex id to its new one (every member maps to the composite) and
    /// the composite's statistics.
    pub(crate) fn collapse(
        &mut self,
        group: &[usize],
        model: &dyn CostModel,
        plan: impl FnOnce(&LargeQuery) -> Result<PlanTree, OptError>,
    ) -> Result<(Vec<u32>, RelInfo), OptError> {
        debug_assert!(group.windows(2).all(|w| w[0] < w[1]), "{group:?}");
        let sub = project(&self.query, group);
        let sub_plan = recost(&plan(&sub)?, &sub, model);
        let info = RelInfo::new(sub_plan.rows(), sub_plan.cost());
        let (query, map) = contract(&self.query, group, info);
        // `contract` numbers the outside vertices in order and the composite
        // last; the members come out in `group`'s order.
        let composite = map[group[0]];
        let mut members = Vec::with_capacity(group.len());
        let mut plans = Vec::with_capacity(query.num_rels());
        for (p, &v) in std::mem::take(&mut self.plans).into_iter().zip(&map) {
            if v == composite {
                members.push(p);
            } else {
                plans.push(p);
            }
        }
        plans.push(substitute_leaves(&sub_plan, &members));
        self.plans = plans;
        self.query = query;
        Ok((map, info))
    }

    /// The plan behind the one vertex left, re-costed against the original
    /// query `q`.
    pub(crate) fn into_plan(self, q: &LargeQuery, model: &dyn CostModel) -> PlanTree {
        debug_assert_eq!(self.plans.len(), 1, "more than one composite left");
        recost(&self.plans[0], q, model)
    }
}

/// `q` projected onto `group`, as a query over indices `0..group.len()`;
/// edges leaving the group are dropped.
fn project(q: &LargeQuery, group: &[usize]) -> LargeQuery {
    let mut index_of = vec![usize::MAX; q.num_rels()];
    for (new, &old) in group.iter().enumerate() {
        index_of[old] = new;
    }
    let mut sub = LargeQuery::new(group.iter().map(|&g| q.rels[g]).collect());
    for e in &q.edges {
        let (u, v) = (index_of[e.u as usize], index_of[e.v as usize]);
        if u != usize::MAX && v != usize::MAX {
            sub.add_edge(u, v, e.sel);
        }
    }
    sub
}

/// Contracts a group of vertices of `q` into one composite vertex.
///
/// Returns the contracted query and the map `old index → new index`: the
/// vertices outside the group keep their order and the composite comes
/// last. Edges from group members to an outside vertex merge
/// multiplicatively; edges inside the group disappear.
fn contract(q: &LargeQuery, group: &[usize], composite: RelInfo) -> (LargeQuery, Vec<u32>) {
    let n = q.num_rels();
    let mut in_group = vec![false; n];
    for &g in group {
        in_group[g] = true;
    }
    let mut map = vec![0u32; n];
    let mut rels: Vec<RelInfo> = Vec::with_capacity(n - group.len() + 1);
    for (old, &ing) in in_group.iter().enumerate() {
        if !ing {
            map[old] = rels.len() as u32;
            rels.push(q.rels[old]);
        }
    }
    let comp_idx = rels.len() as u32;
    rels.push(composite);
    for &g in group {
        map[g] = comp_idx;
    }
    let mut out = LargeQuery::new(rels);
    for e in &q.edges {
        let (nu, nv) = (map[e.u as usize], map[e.v as usize]);
        if nu == nv {
            continue; // edge inside the group
        }
        out.add_edge(nu as usize, nv as usize, e.sel);
    }
    (out, map)
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// `price_join` as first written, kept as the oracle of the
    /// incidence-list form: scans the whole edge list for crossing edges.
    fn price_join_scan(
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

    /// [`recost`] over [`price_join_scan`].
    pub(crate) fn recost_scan(plan: &PlanTree, q: &LargeQuery, model: &dyn CostModel) -> PlanTree {
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
                    let (rows, cost) = price_join_scan((&l, &ls), (&r, &rs), q, model);
                    let set = ls.union(&rs);
                    let (left, right) = (Box::new(l), Box::new(r));
                    (
                        PlanTree::Join {
                            left,
                            right,
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

    /// A random bushy plan of a connected `q`: its edges in a seeded random
    /// order, each joining the plans of its two endpoints unless one plan
    /// holds both already. Rows and costs are left for a re-costing.
    fn random_plan(q: &LargeQuery, seed: u64) -> PlanTree {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut edges = q.edges.clone();
        edges.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut owner: Vec<usize> = (0..q.num_rels()).collect();
        let mut plans: Vec<Option<PlanTree>> = (0..q.num_rels())
            .map(|v| Some(scan(v as u32, 1.0)))
            .collect();
        for e in edges {
            let (a, b) = (owner[e.u as usize], owner[e.v as usize]);
            if a != b {
                let joined = join(plans[a].take().unwrap(), plans[b].take().unwrap());
                plans[a] = Some(joined);
                owner.iter_mut().filter(|o| **o == b).for_each(|o| *o = a);
            }
        }
        plans.into_iter().flatten().next().unwrap()
    }

    #[test]
    fn edge_indexed_pricing_equals_the_full_scan() {
        // GOO's plan and a random bushy plan of every property graph,
        // re-costed both ways: every node's rows and cost to the bit. The
        // cliques' joins have up to hundreds of crossing edges, whose product
        // rounds differently in any other order. `idp.rs` holds the spine
        // re-costing to the same oracle after every contraction.
        use crate::testkit::{max_oracle_rels, plan_bits, property_graphs};
        let m = PgLikeCost::new();
        for (seed, (name, q)) in property_graphs(max_oracle_rels(), 24).iter().enumerate() {
            let goo = crate::Goo::run(q, &m, None).unwrap().plan;
            for plan in [goo, random_plan(q, seed as u64)] {
                let (new, old) = (recost(&plan, q, &m), recost_scan(&plan, q, &m));
                assert_eq!(plan_bits(&new), plan_bits(&old), "{name}");
            }
        }
    }

    #[test]
    fn no_heuristic_panics_on_a_nan_statistic() {
        use crate::{idp1_mpdp, idp2_mpdp, uniondp_mpdp, Geqo, Goo, Ikkbz, LinDp};
        let m = PgLikeCost::new();
        let mut queries = Vec::new();
        for q in [gen::star(30, 1, &m), gen::snowflake(40, 4, 1, &m)] {
            let mut rows = q.clone();
            rows.rels[q.num_rels() / 2].rows = f64::NAN;
            // One edge's selectivity, in the edge list and both adjacency
            // entries alike.
            let mut sel = q.clone();
            let k = sel.edges.len() / 2;
            let e = sel.edges[k];
            sel.edges[k].sel = f64::NAN;
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                for entry in sel.adj[a as usize].iter_mut() {
                    if entry.0 == b {
                        entry.1 = f64::NAN;
                    }
                }
            }
            queries.extend([rows, sel]);
        }
        let budget = Some(std::time::Duration::from_secs(60));
        for q in &queries {
            // `Ok` or a typed `OptError`; a panic fails the test.
            let _ = Goo::run(q, &m, budget);
            let _ = Ikkbz::run(q, &m, budget);
            let _ = LinDp::run(q, &m, budget);
            let _ = idp1_mpdp(q, &m, 4, budget);
            let _ = idp2_mpdp(q, &m, 15, budget);
            let _ = uniondp_mpdp(q, &m, 15, budget);
            let _ = Geqo::run(q, &m, budget);
        }
    }

    #[test]
    fn the_contracting_heuristics_keep_their_golden_plans() {
        // `plan_digest` of IDP1-MPDP (4), IDP2-MPDP (15), UnionDP-MPDP (15)
        // and LinDP (whose snowflake-200 plan is IDP2 with linearized-DP
        // blocks) on each `plan-large` query, recorded before the three
        // contraction loops shared one composite store. IDP1 takes seconds
        // per query past 50 relations in a debug build, so there it stops
        // at 50; CI runs every digest in release.
        use crate::testkit::{plan_digest, plan_large_queries};
        use crate::{idp1_mpdp, idp2_mpdp, uniondp_mpdp, LinDp};
        #[rustfmt::skip]
        const GOLDEN: [(&str, [u64; 4]); 7] = [
            ("snowflake-40", [0x8216c9818da5da3e, 0x1d59fd11151bcc1d, 0x60d3fccfdcb7ccb1, 0x0d97664fa42b563e]),
            ("snowflake-100", [0x7b11253837d7c4bf, 0x875edd34120b8448, 0x07c049ccbdbe7cb6, 0xd7c63744ae8593a6]),
            ("snowflake-200", [0xad7094b1854dc3b4, 0xbfeeaf26f3619730, 0xeb56949d60138b1a, 0xa83db1f011a2cf01]),
            ("star-30", [0x69599c005698eb99, 0x1424477be4fa6699, 0xa7e348a9c2f306e7, 0xef88c080f94ced72]),
            ("star-60", [0x3c2eb267ff8f7fd5, 0xeb73daa7111f7355, 0xa3fa34a67f08b9bb, 0x4889f72415ef9058]),
            ("musicbrainz-30", [0xed6a7d7fdd020c2f, 0x5164b273c533aed9, 0xc32aede21162ce6b, 0x2ffc90991e5ba871]),
            ("musicbrainz-50", [0xafda37114ed583f3, 0x0a36224cea18e6df, 0x0f71529c5b7ee5ba, 0x3ed7cf5b19fd9c1c]),
        ];
        let m = PgLikeCost::new();
        let queries = plan_large_queries();
        assert_eq!(queries.len(), GOLDEN.len());
        for ((name, q), (golden_name, [idp1, idp2, uniondp, lindp])) in queries.iter().zip(GOLDEN) {
            assert_eq!(*name, golden_name);
            if cfg!(not(debug_assertions)) || q.num_rels() <= 50 {
                let plan = idp1_mpdp(q, &m, 4, None).unwrap().plan;
                assert_eq!(plan_digest(&plan), idp1, "IDP1-MPDP (4) on {name}");
            }
            let plan = idp2_mpdp(q, &m, 15, None).unwrap().plan;
            assert_eq!(plan_digest(&plan), idp2, "IDP2-MPDP (15) on {name}");
            let plan = uniondp_mpdp(q, &m, 15, None).unwrap().plan;
            assert_eq!(plan_digest(&plan), uniondp, "UnionDP-MPDP (15) on {name}");
            let plan = LinDp::run(q, &m, None).unwrap().plan;
            assert_eq!(plan_digest(&plan), lindp, "LinDP on {name}");
        }
    }

    #[test]
    fn goo_and_relabelled_copies_keep_their_golden_plans() {
        // `plan_digest` of GOO on each `plan-large` query, and of IDP2-MPDP
        // (15), UnionDP-MPDP (15) and LinDP on its relabelled copies 1 and 2
        // (the benchmark plans relabelled copies), recorded before GOO's
        // adjacency became sorted vectors, `add_edge` stopped scanning the
        // edge list and re-pricing read edges by vertex.
        use crate::testkit::{plan_digest, plan_large_queries, relabelled};
        use crate::{idp2_mpdp, uniondp_mpdp, Goo, LinDp};
        #[rustfmt::skip]
        const GOLDEN: [(&str, u64, [[u64; 3]; 2]); 7] = [
            ("snowflake-40", 0x3abf54ef79d2927c, [[0x1de2c07d3d155477, 0x572f9a8096dd458a, 0x00d51a3ef2900b72], [0xd19991836939b08c, 0x5cc6ef06ea3cd6d2, 0x0282b2971e8bd7f6]]),
            ("snowflake-100", 0x98b634582cbe6983, [[0xf65662555f2502cd, 0x230db601c2a33134, 0x1fe3292a2685872a], [0x1aa183a24b5084af, 0x8d7790ffa5e009aa, 0x910f4b46c04cbf6e]]),
            ("snowflake-200", 0x4c41d18fd3c1ab5b, [[0x27eb6264ce3ef614, 0x5933fc8f30269cb3, 0xee8189892f45c85e], [0x9d53f9866c7336ee, 0x11b5bd1941725643, 0xae539c25b9c8047f]]),
            ("star-30", 0xef88c080f94ced72, [[0xfea2ae7ff5f310d1, 0x58ab7fae833add20, 0xd1e8b12fe49babb6], [0x7e0c84d7b09a0605, 0xe3186c1930e797a5, 0xf19dda349a728ace]]),
            ("star-60", 0x4889f72415ef9058, [[0xe41950c675d7bc72, 0x71fa1cc109717d0c, 0xb71cbd1869a965dc], [0xf97bbc5e5d8753e3, 0x153bb6df507cccaa, 0x8f129e8341e0e788]]),
            ("musicbrainz-30", 0x9bd11a3afce7fad8, [[0xda3ef6cdf12a1047, 0xd2b685e62cf2fba8, 0x5c01554226c77f51], [0xca1ddcc8f27bdccc, 0x02850323ebb53fd5, 0xa3da34cd5286f3e9]]),
            ("musicbrainz-50", 0x550875777f463ba4, [[0xcee998c91143c60b, 0xabeb8f5983924fbf, 0xefaaf98875327e3c], [0x1282825695afb184, 0x312574c31528fd9d, 0x127ad9cbdd3bf730]]),
        ];
        let m = PgLikeCost::new();
        let queries = plan_large_queries();
        assert_eq!(queries.len(), GOLDEN.len());
        for ((name, q), (golden_name, goo, copies)) in queries.iter().zip(GOLDEN) {
            assert_eq!(*name, golden_name);
            let plan = Goo::run(q, &m, None).unwrap().plan;
            assert_eq!(plan_digest(&plan), goo, "GOO on {name}");
            for (copy, [idp2, uniondp, lindp]) in (1..).zip(copies) {
                let q = relabelled(q, copy);
                let plan = idp2_mpdp(&q, &m, 15, None).unwrap().plan;
                assert_eq!(
                    plan_digest(&plan),
                    idp2,
                    "IDP2-MPDP (15) on {name}/copy{copy}"
                );
                let plan = uniondp_mpdp(&q, &m, 15, None).unwrap().plan;
                assert_eq!(
                    plan_digest(&plan),
                    uniondp,
                    "UnionDP-MPDP (15) on {name}/copy{copy}"
                );
                let plan = LinDp::run(&q, &m, None).unwrap().plan;
                assert_eq!(plan_digest(&plan), lindp, "LinDP on {name}/copy{copy}");
            }
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
        let mut q = LargeQuery::new(vec![RelInfo::new(10.0, 1.0); 4]);
        q.add_edge(0, 1, 0.5);
        q.add_edge(0, 2, 0.1);
        q.add_edge(1, 2, 0.2);
        q.add_edge(2, 3, 0.3);
        let (c, mapping) = contract(&q, &[0, 1], RelInfo::new(50.0, 9.0));
        assert_eq!(c.num_rels(), 3);
        // Composite index is last.
        let comp = mapping[0];
        assert_eq!(comp, mapping[1]);
        assert_eq!(c.rels[comp as usize].rows, 50.0);
        let sel = |a: u32, b: u32| -> f64 {
            c.edges
                .iter()
                .filter(|e| (e.u, e.v) == (a.min(b), a.max(b)))
                .map(|e| e.sel)
                .product()
        };
        // Edges comp-2 merged: 0.1 * 0.2 = 0.02.
        assert!((sel(mapping[2], comp) - 0.02).abs() < 1e-12);
        // Edge 2-3 survives with its selectivity.
        assert!((sel(mapping[2], mapping[3]) - 0.3).abs() < 1e-12);
        assert_eq!(c.edges.len(), 2);
    }
}
