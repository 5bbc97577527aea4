//! The cost-model abstraction shared by all optimizers.
//!
//! The paper uses "a more realistic cost model which is close to the one used
//! by PostgreSQL" restricted to inner equi-joins (§7.1, footnote 7), plus the
//! simpler `C_out` model for IKKBZ. Both are implementations of [`CostModel`].
//!
//! A cost model sees only *aggregates* of the two inputs — their cumulative
//! cost and cardinalities — plus the estimated output cardinality. This is
//! exactly the information the paper's GPU kernels carry per memo entry, and
//! it is what keeps every DP variant's inner loop identical.

/// Join operator chosen by a cost model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Build a hash table on the right input, probe with the left.
    Hash,
    /// Nested-loop join (left outer loop).
    NestedLoop,
    /// Sort both inputs and merge.
    SortMerge,
}

/// Aggregate description of a subplan, as seen by the cost model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct InputEst {
    /// Cumulative cost of producing the input.
    pub cost: f64,
    /// Estimated input cardinality.
    pub rows: f64,
}

/// A formula the exact DP can evaluate eight splits at a time, declared by a
/// model through [`CostModel::lane_form`]. Declaring a form is a promise:
/// the model's [`join_cost_both`](CostModel::join_cost_both) returns, bit for
/// bit, what that form's model returns. The lanes themselves live with the
/// kernel that runs them (`mpdp-dp`), not here.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum LaneForm {
    /// [`PgLikeCost`](crate::pglike::PgLikeCost) with these constants.
    PgLike(crate::pglike::PgParams),
    /// [`CoutCost`](crate::cout::CoutCost).
    Cout,
}

/// A deterministic cost model over inner joins.
///
/// Implementations must be pure functions of their arguments: the DP
/// algorithms rely on cost equality across enumeration orders.
pub trait CostModel: Sync {
    /// Cost of the cheapest join operator for the ordered pair
    /// `(left, right)` producing `out_rows` rows, *including* both input
    /// costs.
    fn join_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64;

    /// Both orders of one join: exactly
    /// `(join_cost(a, b, out_rows), join_cost(b, a, out_rows))`, bit for bit.
    /// The exact DP backends price every split this way (one virtual call
    /// per split); a model overrides it only to share the work the two
    /// orders have in common.
    fn join_cost_both(&self, a: InputEst, b: InputEst, out_rows: f64) -> (f64, f64) {
        (
            self.join_cost(a, b, out_rows),
            self.join_cost(b, a, out_rows),
        )
    }

    /// What every join of `out_rows` output rows costs on top of its two
    /// inputs, at least. The contract: for inputs `a`, `b` whose row counts
    /// are `≥ 0` (so not NaN), each of `join_cost(a, b, out_rows)`,
    /// `join_cost(b, a, out_rows)` and both halves of
    /// `join_cost_both(a, b, out_rows)` is `≥ (a.cost + b.cost) +
    /// join_cost_floor(out_rows)` as an `f64` comparison, unless that bound
    /// is NaN or `−∞`. The exact DP reads it once per set and does not price
    /// a split whose bound already exceeds the set's best plan so far: such a
    /// split cannot win, so skipping it changes no result.
    ///
    /// The floor is also non-decreasing in `out_rows`: `x ≤ y` implies
    /// `join_cost_floor(x) ≤ join_cost_floor(y)`. So `join_cost_floor(0.0)
    /// ≥ 0` puts every join with `out_rows ≥ 0` at or above the sum of its
    /// inputs' costs, which is what lets IKKBZ stop pricing a left-deep order
    /// once its cost plus the scans still to join exceeds the best order's.
    /// PgLike's `out_rows · cpu_tuple_cost`, `C_out`'s `out_rows` and the
    /// default are all non-decreasing.
    ///
    /// The default, `−∞`, bounds nothing, so a model that does not override
    /// it has every split priced and every order priced whole.
    fn join_cost_floor(&self, _out_rows: f64) -> f64 {
        f64::NEG_INFINITY
    }

    /// The [`LaneForm`] whose arithmetic is this model's `join_cost_both`,
    /// if there is one. The default, `None`, has every split priced through
    /// the trait, one at a time. A model that wraps another and changes any
    /// price keeps the default.
    fn lane_form(&self) -> Option<LaneForm> {
        None
    }

    /// The operator [`join_cost`](CostModel::join_cost) would pick (for plan
    /// explanation; the DP itself only needs the cost).
    fn join_algo(&self, left: InputEst, right: InputEst, out_rows: f64) -> JoinAlgo;

    /// Cost of scanning a base relation with `rows` tuples.
    fn scan_cost(&self, rows: f64) -> f64;

    /// Short identifier for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Unit;
    impl CostModel for Unit {
        fn join_cost(&self, l: InputEst, r: InputEst, out: f64) -> f64 {
            l.cost + r.cost + out
        }
        fn join_algo(&self, _: InputEst, _: InputEst, _: f64) -> JoinAlgo {
            JoinAlgo::Hash
        }
        fn scan_cost(&self, rows: f64) -> f64 {
            rows
        }
        fn name(&self) -> &'static str {
            "unit"
        }
    }

    #[test]
    fn trait_object_usable() {
        let m: &dyn CostModel = &Unit;
        let a = InputEst {
            cost: 1.0,
            rows: 10.0,
        };
        let b = InputEst {
            cost: 2.0,
            rows: 20.0,
        };
        assert_eq!(m.join_cost(a, b, 5.0), 8.0);
        assert_eq!(m.join_cost_both(a, b, 5.0), (8.0, 8.0));
        assert_eq!(m.join_cost_floor(5.0), f64::NEG_INFINITY);
        assert_eq!(m.lane_form(), None);
        assert_eq!(m.join_algo(a, b, 5.0), JoinAlgo::Hash);
        assert_eq!(m.name(), "unit");
    }
}
