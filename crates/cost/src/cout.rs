//! The `C_out` cost model.
//!
//! `C_out(plan) = Σ |intermediate results|` — the sum of the cardinalities of
//! all intermediate join results. The paper notes that "recent works such as
//! \[26\] have used a cost model based on output size of different operators,
//! i.e. c_out" (§7.1) and that IKKBZ "uses the C_out cost function to
//! estimate the best left-deep join order" (§7.3). We provide it both as a
//! baseline-faithful component of IKKBZ/LinDP and as an alternative model for
//! ablations.

use crate::model::{CostModel, InputEst, JoinAlgo, LaneForm};

/// The `C_out` model: each join costs its output cardinality; scans are free.
#[derive(Copy, Clone, Debug, Default)]
pub struct CoutCost;

impl CostModel for CoutCost {
    fn join_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        left.cost + right.cost + out_rows
    }

    /// Exact: a join costs its inputs plus `out_rows`, added in that order.
    fn join_cost_floor(&self, out_rows: f64) -> f64 {
        out_rows
    }

    fn lane_form(&self) -> Option<LaneForm> {
        Some(LaneForm::Cout)
    }

    fn join_algo(&self, _: InputEst, _: InputEst, _: f64) -> JoinAlgo {
        JoinAlgo::Hash
    }

    fn scan_cost(&self, _rows: f64) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "cout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cout_sums_intermediate_sizes() {
        let m = CoutCost;
        let a = InputEst {
            cost: 0.0,
            rows: 100.0,
        };
        let b = InputEst {
            cost: 0.0,
            rows: 200.0,
        };
        let ab_cost = m.join_cost(a, b, 50.0);
        assert_eq!(ab_cost, 50.0);
        let ab = InputEst {
            cost: ab_cost,
            rows: 50.0,
        };
        let c = InputEst {
            cost: 0.0,
            rows: 10.0,
        };
        assert_eq!(m.join_cost(ab, c, 5.0), 55.0);
    }

    #[test]
    fn scans_are_free() {
        assert_eq!(CoutCost.scan_cost(1e9), 0.0);
    }

    #[test]
    fn symmetric() {
        let m = CoutCost;
        let a = InputEst {
            cost: 1.0,
            rows: 10.0,
        };
        let b = InputEst {
            cost: 2.0,
            rows: 20.0,
        };
        assert_eq!(m.join_cost(a, b, 7.0), m.join_cost(b, a, 7.0));
        // The floor is the whole join's share: the bound is the cost.
        assert_eq!(
            m.join_cost(a, b, 7.0),
            (a.cost + b.cost) + m.join_cost_floor(7.0)
        );
    }
}
