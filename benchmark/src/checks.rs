//! Output checks written against the public data types only, so they do not
//! share code with the planners and executors they check.

use mpdp::core::{LargeQuery, PlanTree};
use mpdp::cost::model::{CostModel, InputEst};

/// `a` and `b` agree to `tol` relative.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// What a bottom-up walk of a plan yields for one subtree.
struct Walked {
    /// Membership bitmap over the query's relations.
    rels: Vec<bool>,
    rows: f64,
    cost: f64,
}

fn walk(plan: &PlanTree, q: &LargeQuery, model: &dyn CostModel) -> Result<Walked, String> {
    match plan {
        PlanTree::Scan { rel, .. } => {
            let r = *rel as usize;
            let info = q
                .rels
                .get(r)
                .ok_or_else(|| format!("scan of unknown relation {r}"))?;
            let mut rels = vec![false; q.num_rels()];
            rels[r] = true;
            Ok(Walked {
                rels,
                rows: info.rows,
                cost: info.cost,
            })
        }
        PlanTree::Join { left, right, .. } => {
            let l = walk(left, q, model)?;
            let r = walk(right, q, model)?;
            if l.rels.iter().zip(&r.rels).any(|(a, b)| *a && *b) {
                return Err("a relation appears on both sides of a join".to_string());
            }
            let mut sel = 1.0;
            let mut crossing = 0usize;
            for e in &q.edges {
                let (u, v) = (e.u as usize, e.v as usize);
                if (l.rels[u] && r.rels[v]) || (l.rels[v] && r.rels[u]) {
                    sel *= e.sel;
                    crossing += 1;
                }
            }
            if crossing == 0 {
                return Err("cross product: no predicate joins the two sides".to_string());
            }
            let rows = l.rows * r.rows * sel;
            let cost = model.join_cost(
                InputEst {
                    cost: l.cost,
                    rows: l.rows,
                },
                InputEst {
                    cost: r.cost,
                    rows: r.rows,
                },
                rows,
            );
            let rels = l.rels.iter().zip(&r.rels).map(|(a, b)| *a || *b).collect();
            Ok(Walked { rels, rows, cost })
        }
    }
}

/// Checks that `plan` is a valid join tree for `q` — every relation exactly
/// once, no cross product — and returns its root cost re-derived bottom-up
/// from the query's own rows, scan costs and selectivities.
pub fn validate_and_recost(
    plan: &PlanTree,
    q: &LargeQuery,
    model: &dyn CostModel,
) -> Result<f64, String> {
    let root = walk(plan, q, model)?;
    let covered = root.rels.iter().filter(|&&b| b).count();
    if covered != q.num_rels() {
        return Err(format!(
            "plan covers {covered} of {} relations",
            q.num_rels()
        ));
    }
    Ok(root.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp::cost::PgLikeCost;

    fn scan(rel: u32) -> PlanTree {
        PlanTree::Scan {
            rel,
            rows: 0.0,
            cost: 0.0,
        }
    }

    fn join(l: PlanTree, r: PlanTree) -> PlanTree {
        PlanTree::Join {
            left: Box::new(l),
            right: Box::new(r),
            rows: 0.0,
            cost: 0.0,
        }
    }

    #[test]
    fn rejects_cross_products_duplicates_and_partial_cover() {
        let m = PgLikeCost::new();
        let q = mpdp::workload::gen::chain(4, 1, &m);
        let good = join(join(join(scan(0), scan(1)), scan(2)), scan(3));
        assert!(validate_and_recost(&good, &q, &m).is_ok());
        let cross = join(join(join(scan(0), scan(1)), scan(3)), scan(2));
        assert!(validate_and_recost(&cross, &q, &m)
            .unwrap_err()
            .contains("cross product"));
        let dup = join(join(join(scan(0), scan(1)), scan(1)), scan(2));
        assert!(validate_and_recost(&dup, &q, &m).is_err());
        let partial = join(join(scan(0), scan(1)), scan(2));
        assert!(validate_and_recost(&partial, &q, &m)
            .unwrap_err()
            .contains("covers 3 of 4"));
    }
}
