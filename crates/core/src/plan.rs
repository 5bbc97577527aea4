//! Join-tree plans and their validation.

use crate::bitset::RelSet;
use crate::graph::JoinGraph;
use crate::memo::MemoTable;
use std::fmt;

/// A (bushy) join tree annotated with cost estimates.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanTree {
    /// A base-relation scan.
    Scan {
        /// Relation index.
        rel: u32,
        /// Estimated rows.
        rows: f64,
        /// Scan cost.
        cost: f64,
    },
    /// An inner join of two subplans.
    Join {
        /// Left input.
        left: Box<PlanTree>,
        /// Right input.
        right: Box<PlanTree>,
        /// Estimated output rows.
        rows: f64,
        /// Cumulative cost including both inputs.
        cost: f64,
    },
}

impl PlanTree {
    /// The set of base relations covered by this plan. Only valid for plans
    /// over ≤64 relations (the exact-DP regime).
    pub fn rel_set(&self) -> RelSet {
        match self {
            PlanTree::Scan { rel, .. } => RelSet::singleton(*rel as usize),
            PlanTree::Join { left, right, .. } => left.rel_set().union(right.rel_set()),
        }
    }

    /// Total cost at the root.
    pub fn cost(&self) -> f64 {
        match self {
            PlanTree::Scan { cost, .. } | PlanTree::Join { cost, .. } => *cost,
        }
    }

    /// Estimated output rows at the root.
    pub fn rows(&self) -> f64 {
        match self {
            PlanTree::Scan { rows, .. } | PlanTree::Join { rows, .. } => *rows,
        }
    }

    /// Number of base relations in the tree.
    pub fn num_rels(&self) -> usize {
        match self {
            PlanTree::Scan { .. } => 1,
            PlanTree::Join { left, right, .. } => left.num_rels() + right.num_rels(),
        }
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> usize {
        match self {
            PlanTree::Scan { .. } => 0,
            PlanTree::Join { left, right, .. } => 1 + left.num_joins() + right.num_joins(),
        }
    }

    /// `true` if the tree is left-deep (every right child is a scan).
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanTree::Scan { .. } => true,
            PlanTree::Join { left, right, .. } => {
                matches!(**right, PlanTree::Scan { .. }) && left.is_left_deep()
            }
        }
    }

    /// Validates the structural invariants of a plan against a join graph:
    ///
    /// 1. every join's inputs cover disjoint relation sets;
    /// 2. every join's two sides are connected to each other in the graph
    ///    (no cross products — condition 4 of §2.1);
    /// 3. every join's inputs induce connected subgraphs (conditions 2);
    ///
    /// Returns a human-readable violation description, or `None` if valid.
    pub fn validate(&self, graph: &JoinGraph) -> Option<String> {
        match self {
            PlanTree::Scan { .. } => None,
            PlanTree::Join { left, right, .. } => {
                let (ls, rs) = (left.rel_set(), right.rel_set());
                if !ls.is_disjoint(rs) {
                    return Some(format!("overlapping join inputs {ls} and {rs}"));
                }
                if !graph.is_connected(ls) {
                    return Some(format!("left input {ls} not connected"));
                }
                if !graph.is_connected(rs) {
                    return Some(format!("right input {rs} not connected"));
                }
                if !graph.sets_connected(ls, rs) {
                    return Some(format!("cross product between {ls} and {rs}"));
                }
                left.validate(graph).or_else(|| right.validate(graph))
            }
        }
    }

    /// Returns the same tree with each leaf's relation `r` renamed to
    /// `new_of_old[r]`. Costs and cardinalities are untouched — a pure
    /// relabeling, valid because plan statistics are label-invariant.
    ///
    /// The serving layer uses this in both directions: storing plans in
    /// canonical relation slots, and remapping a cached canonical plan onto
    /// a caller's own relation ids.
    pub fn relabel(&self, new_of_old: &[u32]) -> PlanTree {
        match self {
            PlanTree::Scan { rel, rows, cost } => PlanTree::Scan {
                rel: new_of_old[*rel as usize],
                rows: *rows,
                cost: *cost,
            },
            PlanTree::Join {
                left,
                right,
                rows,
                cost,
            } => PlanTree::Join {
                left: Box::new(left.relabel(new_of_old)),
                right: Box::new(right.relabel(new_of_old)),
                rows: *rows,
                cost: *cost,
            },
        }
    }

    /// Renders an indented tree, e.g. for the examples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PlanTree::Scan { rel, rows, cost } => {
                out.push_str(&format!(
                    "{pad}Scan R{rel} (rows={rows:.0}, cost={cost:.1})\n"
                ));
            }
            PlanTree::Join {
                left,
                right,
                rows,
                cost,
            } => {
                out.push_str(&format!("{pad}Join (rows={rows:.0}, cost={cost:.1})\n"));
                left.render_into(out, depth + 1);
                right.render_into(out, depth + 1);
            }
        }
    }
}

impl fmt::Display for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Reconstructs the best plan for `root` from a filled memo (the final step
/// of Algorithm 5: "The final relation is recursively fetched using its
/// left and right join relations, building a join tree in CPU memory").
///
/// Returns `None` if the memo has no plan for `root` or one of its splits —
/// which indicates a bug in the filling algorithm.
pub fn extract_plan(memo: &MemoTable, root: RelSet) -> Option<PlanTree> {
    let e = memo.get(root)?;
    if e.is_leaf() {
        let rel = root.first()? as u32;
        return Some(PlanTree::Scan {
            rel,
            rows: e.rows,
            cost: e.cost,
        });
    }
    if e.right().is_empty() {
        // Laid out but never planned: the whole set is still its own left
        // side.
        return None;
    }
    let left = extract_plan(memo, e.left)?;
    let right = extract_plan(memo, e.right())?;
    Some(PlanTree::Join {
        left: Box::new(left),
        right: Box::new(right),
        rows: e.rows,
        cost: e.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: u32, rows: f64) -> PlanTree {
        PlanTree::Scan {
            rel,
            rows,
            cost: rows / 10.0,
        }
    }

    fn join(l: PlanTree, r: PlanTree) -> PlanTree {
        let rows = l.rows() * r.rows() * 0.01;
        let cost = l.cost() + r.cost() + rows;
        PlanTree::Join {
            left: Box::new(l),
            right: Box::new(r),
            rows,
            cost,
        }
    }

    #[test]
    fn rel_set_and_shape_accessors() {
        let p = join(join(scan(0, 100.0), scan(1, 100.0)), scan(2, 100.0));
        assert_eq!(p.rel_set(), RelSet::from_indices([0, 1, 2]));
        assert_eq!(p.num_rels(), 3);
        assert_eq!(p.num_joins(), 2);
        assert!(p.is_left_deep());
        let bushy = join(
            join(scan(0, 10.0), scan(1, 10.0)),
            join(scan(2, 10.0), scan(3, 10.0)),
        );
        assert!(!bushy.is_left_deep());
    }

    #[test]
    fn validate_detects_cross_product() {
        let mut g = JoinGraph::new(3);
        g.add_edge(0, 1, 0.1);
        // 2 is connected to nothing: joining {0,1} with {2} is a cross product.
        let p = join(join(scan(0, 10.0), scan(1, 10.0)), scan(2, 10.0));
        let err = p.validate(&g).unwrap();
        assert!(err.contains("cross product"), "{err}");
        // Chain 0-1-2 is fine.
        let mut g2 = JoinGraph::new(3);
        g2.add_edge(0, 1, 0.1);
        g2.add_edge(1, 2, 0.1);
        assert!(p.validate(&g2).is_none());
    }

    #[test]
    fn validate_detects_disconnected_input() {
        let mut g = JoinGraph::new(4);
        g.add_edge(0, 1, 0.1);
        g.add_edge(1, 2, 0.1);
        g.add_edge(2, 3, 0.1);
        // {0, 2} is not connected (0-1-2 requires 1).
        let bad = join(
            join(scan(0, 10.0), scan(2, 10.0)),
            join(scan(1, 10.0), scan(3, 10.0)),
        );
        assert!(bad.validate(&g).is_some());
    }

    #[test]
    fn extract_plan_from_memo() {
        let (s01, s12) = (RelSet::from_indices([0, 1]), RelSet::from_indices([1, 2]));
        let s012 = RelSet::from_indices([0, 1, 2]);
        let sets = [0, 1, 2].map(RelSet::singleton);
        let sets = [sets[0], sets[1], sets[2], s01, s12, s012];
        let mut m = MemoTable::laid_out(3, &sets, &[10.0, 20.0, 30.0, 5.0, 6.0, 2.0]);
        for (k, cost) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            m.update(m.slot(k), RelSet::EMPTY, cost);
        }
        m.update(m.slot(3), RelSet::singleton(0), 10.0);
        m.update(m.slot(5), s01, 20.0);
        let p = extract_plan(&m, s012).unwrap();
        assert_eq!(p.rel_set(), s012);
        assert_eq!(p.cost(), 20.0);
        assert_eq!(p.num_joins(), 2);
        // Missing root -> None.
        assert!(extract_plan(&m, RelSet::from_indices([0, 2])).is_none());
        // Laid out but never planned (left side = the whole set) -> None.
        assert!(extract_plan(&m, s12).is_none());
    }

    #[test]
    fn render_contains_structure() {
        let p = join(scan(0, 10.0), scan(1, 20.0));
        let s = p.render();
        assert!(s.contains("Join"));
        assert!(s.contains("Scan R0"));
        assert!(s.contains("Scan R1"));
    }
}
