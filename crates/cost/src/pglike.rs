//! A PostgreSQL-like cost model for inner equi-joins.
//!
//! The paper's evaluation uses a model that "returns nearly the same cost as
//! PostgreSQL (within 5% in the worst case)" for its query suite while
//! covering only inner equi-joins (§7.1 footnote 7). We mirror that: the
//! constants below are PostgreSQL 12's planner defaults, and the three join
//! operators are costed with the same first-order formulas `costsize.c`
//! uses, dropping the refinements (bucket skew, rescan caching, semi-join
//! factors) that only apply to plan shapes outside this workspace's scope.

use crate::model::{CostModel, InputEst, JoinAlgo};

/// Planner constants (PostgreSQL defaults).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PgParams {
    /// Cost of a sequentially-fetched page (`seq_page_cost`).
    pub seq_page_cost: f64,
    /// Cost of processing one tuple (`cpu_tuple_cost`).
    pub cpu_tuple_cost: f64,
    /// Cost of processing one operator/expression (`cpu_operator_cost`).
    pub cpu_operator_cost: f64,
    /// Tuples per page used to translate cardinality into page reads.
    pub tuples_per_page: f64,
}

impl Default for PgParams {
    fn default() -> Self {
        PgParams {
            seq_page_cost: 1.0,
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
            tuples_per_page: 100.0,
        }
    }
}

/// The PostgreSQL-like model.
#[derive(Copy, Clone, Debug, Default)]
pub struct PgLikeCost {
    /// Planner constants.
    pub params: PgParams,
}

impl PgLikeCost {
    /// Creates the model with default PostgreSQL constants.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        let p = &self.params;
        // Build a hash table on the (right) inner side, probe with the left.
        let build = right.rows * (p.cpu_operator_cost + p.cpu_tuple_cost);
        let probe = left.rows * p.cpu_operator_cost;
        let emit = out_rows * p.cpu_tuple_cost;
        left.cost + right.cost + build + probe + emit
    }

    fn nestloop_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        let p = &self.params;
        // Materialized inner: rescan is cpu_operator_cost per inner tuple.
        let inner_rescans = (left.rows - 1.0).max(0.0);
        let rescan = inner_rescans * right.rows * p.cpu_operator_cost;
        let qual = left.rows * right.rows * p.cpu_operator_cost;
        let emit = out_rows * p.cpu_tuple_cost;
        left.cost + right.cost + rescan + qual + emit
    }

    fn sort_cost(&self, rows: f64) -> f64 {
        let p = &self.params;
        if rows <= 1.0 {
            return 0.0;
        }
        // comparison cost: 2 * cpu_operator_cost * N log2 N, as costsize.c.
        2.0 * p.cpu_operator_cost * rows * rows.log2()
    }

    fn merge_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        let p = &self.params;
        let sorts = self.sort_cost(left.rows) + self.sort_cost(right.rows);
        let merge = (left.rows + right.rows) * p.cpu_operator_cost;
        let emit = out_rows * p.cpu_tuple_cost;
        left.cost + right.cost + sorts + merge + emit
    }

    /// `true` when sort-merge cannot be cheaper than the hash join in
    /// either order, so the minimum may leave it out — decided from the
    /// larger input's binary exponent `e = ⌊log2 rows⌋`, without a `log2`.
    ///
    /// `merge_cost` and `hash_cost` add their terms to the same
    /// `left.cost + right.cost` in the same positions, and rounded addition
    /// and multiplication are monotone, so merge ≥ hash follows term by
    /// term. *Comparison term*: `(l + r)·op ≥ l·op, r·op` once both row
    /// counts are ≥ 0. *Sort term*: `sort(l) + sort(r) ≥ sort(large) =
    /// (2·op·large)·log2(large) ≥ (2·op·large)·e`, and the test below asks
    /// that last product to reach `large·(op + tuple)`, the bigger of the two
    /// hash builds. It is evaluated in the same floating-point operations the
    /// costs use, so there is no rounding slack to argue about; the one
    /// assumption is `log2(x) ≥ ⌊log2 x⌋`, which holds for any `log2` that
    /// is exact on powers of two and monotone. With the default constants
    /// the test is `0.005·e ≥ 0.0125`: merge is still priced while the
    /// larger input has fewer than 8 rows.
    ///
    /// Requires non-negative constants in [`PgParams`]; NaN or negative
    /// cardinalities fail the test and take the full three-way minimum.
    #[inline]
    fn merge_dominated(&self, a_rows: f64, b_rows: f64) -> bool {
        let p = &self.params;
        let (small, large) = if a_rows <= b_rows {
            (a_rows, b_rows)
        } else {
            (b_rows, a_rows)
        };
        let exponent = ((large.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let sort_floor = 2.0 * p.cpu_operator_cost * large * f64::from(exponent);
        small >= 0.0 && sort_floor >= large * (p.cpu_operator_cost + p.cpu_tuple_cost)
    }
}

impl CostModel for PgLikeCost {
    fn join_cost(&self, left: InputEst, right: InputEst, out_rows: f64) -> f64 {
        let cost = self
            .hash_cost(left, right, out_rows)
            .min(self.nestloop_cost(left, right, out_rows));
        if self.merge_dominated(left.rows, right.rows) {
            cost
        } else {
            cost.min(self.merge_cost(left, right, out_rows))
        }
    }

    /// The two [`join_cost`](CostModel::join_cost) calls with what they
    /// share computed once: the input costs, the emit term, the nested-loop
    /// qualification term, and the sort-merge cost (symmetric to the bit:
    /// every sum and product in it commutes). Each order's terms are the
    /// expressions of `hash_cost`/`nestloop_cost`, added in the same order.
    fn join_cost_both(&self, a: InputEst, b: InputEst, out_rows: f64) -> (f64, f64) {
        let p = &self.params;
        let inputs = a.cost + b.cost;
        let emit = out_rows * p.cpu_tuple_cost;
        let build_rate = p.cpu_operator_cost + p.cpu_tuple_cost;
        let qual = a.rows * b.rows * p.cpu_operator_cost;
        let ordered = |left: f64, right: f64| {
            let hash = inputs + right * build_rate + left * p.cpu_operator_cost + emit;
            let rescan = (left - 1.0).max(0.0) * right * p.cpu_operator_cost;
            hash.min(inputs + rescan + qual + emit)
        };
        let (ab, ba) = (ordered(a.rows, b.rows), ordered(b.rows, a.rows));
        if self.merge_dominated(a.rows, b.rows) {
            (ab, ba)
        } else {
            let merge = self.merge_cost(a, b, out_rows);
            (ab.min(merge), ba.min(merge))
        }
    }

    /// The emit term, `out_rows · cpu_tuple_cost`: the one term all three
    /// operators share besides the inputs.
    ///
    /// Each operator is computed as `((inputs + x) + y) + emit`, with
    /// `inputs = left.cost + right.cost` (the same bits in either order:
    /// IEEE `+` commutes) and `x`, `y` its two operator terms — build and
    /// probe, rescan and qualification, sorts and comparisons. Each term is a
    /// product of row counts and constants, so it is `≥ 0` once both are.
    /// Rounded addition is monotone, so `inputs + x ≥ inputs`, then
    /// `(inputs + x) + y ≥ inputs`, then the whole `≥ inputs + emit`, bit for
    /// bit in the operations the costs use — the argument of
    /// `merge_dominated` — and the minimum over the
    /// operators inherits it. A NaN term can only come from `0 · ∞`: an
    /// infinite cardinality beside a zero row count leaves only the nested
    /// loop NaN, which `f64::min` passes over for the hash join.
    ///
    /// Requires non-negative constants in [`PgParams`], and positive ones if
    /// a cardinality can be infinite.
    fn join_cost_floor(&self, out_rows: f64) -> f64 {
        out_rows * self.params.cpu_tuple_cost
    }

    fn join_algo(&self, left: InputEst, right: InputEst, out_rows: f64) -> JoinAlgo {
        let h = self.hash_cost(left, right, out_rows);
        let n = self.nestloop_cost(left, right, out_rows);
        let m = self.merge_cost(left, right, out_rows);
        if h <= n && h <= m {
            JoinAlgo::Hash
        } else if n <= m {
            JoinAlgo::NestedLoop
        } else {
            JoinAlgo::SortMerge
        }
    }

    fn scan_cost(&self, rows: f64) -> f64 {
        let p = &self.params;
        let pages = (rows / p.tuples_per_page).ceil().max(1.0);
        pages * p.seq_page_cost + rows * p.cpu_tuple_cost
    }

    fn name(&self) -> &'static str {
        "pglike"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(cost: f64, rows: f64) -> InputEst {
        InputEst { cost, rows }
    }

    #[test]
    fn scan_cost_scales_with_rows() {
        let m = PgLikeCost::new();
        assert!(m.scan_cost(100.0) < m.scan_cost(10_000.0));
        // Minimum one page.
        assert!(m.scan_cost(1.0) >= 1.0);
    }

    #[test]
    fn join_cost_includes_inputs() {
        let m = PgLikeCost::new();
        let base = m.join_cost(est(0.0, 100.0), est(0.0, 100.0), 100.0);
        let with_inputs = m.join_cost(est(50.0, 100.0), est(70.0, 100.0), 100.0);
        assert!((with_inputs - base - 120.0).abs() < 1e-9);
    }

    #[test]
    fn hash_beats_nestloop_on_large_inputs() {
        let m = PgLikeCost::new();
        let l = est(0.0, 1e6);
        let r = est(0.0, 1e6);
        assert_eq!(m.join_algo(l, r, 1e6), JoinAlgo::Hash);
    }

    #[test]
    fn nestloop_competitive_on_tiny_inputs() {
        let m = PgLikeCost::new();
        let l = est(0.0, 1.0);
        let r = est(0.0, 1.0);
        let nl = m.nestloop_cost(l, r, 1.0);
        let h = m.hash_cost(l, r, 1.0);
        assert!(nl <= h, "nl={nl} h={h}");
    }

    #[test]
    fn cost_is_deterministic_and_monotone_in_out_rows() {
        let m = PgLikeCost::new();
        let l = est(10.0, 1000.0);
        let r = est(20.0, 2000.0);
        let c1 = m.join_cost(l, r, 100.0);
        let c2 = m.join_cost(l, r, 100.0);
        assert_eq!(c1, c2);
        assert!(m.join_cost(l, r, 1e6) > c1);
    }

    #[test]
    fn join_algo_matches_min_cost() {
        let m = PgLikeCost::new();
        for &(lr, rr, or) in &[
            (1.0, 1.0, 1.0),
            (10.0, 1e6, 100.0),
            (1e6, 10.0, 100.0),
            (1e5, 1e5, 1e7),
        ] {
            let l = est(0.0, lr);
            let r = est(0.0, rr);
            let algo = m.join_algo(l, r, or);
            let c = m.join_cost(l, r, or);
            let expect = match algo {
                JoinAlgo::Hash => m.hash_cost(l, r, or),
                JoinAlgo::NestedLoop => m.nestloop_cost(l, r, or),
                JoinAlgo::SortMerge => m.merge_cost(l, r, or),
            };
            assert_eq!(c, expect);
        }
    }

    /// `join_cost` as it was before the dominance skip: the plain minimum
    /// over the three operators. Kept as the oracle for the skip.
    fn three_way_min(m: &PgLikeCost, l: InputEst, r: InputEst, out_rows: f64) -> f64 {
        m.hash_cost(l, r, out_rows)
            .min(m.nestloop_cost(l, r, out_rows))
            .min(m.merge_cost(l, r, out_rows))
    }

    /// Deterministic stream of non-negative test magnitudes: mostly
    /// `[2⁻⁴, 2³⁶)` with a random mantissa, mixed with the small row counts
    /// around the merge boundary and with powers of two and their
    /// neighbours (where the exponent test flips).
    struct Magnitudes(u64);

    impl Magnitudes {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mpdp_core::memo::murmur3_fmix64(self.0)
        }

        fn next(&mut self) -> f64 {
            let x = self.next_u64();
            let exp = (x >> 8) % 40; // 2⁻⁴ … 2³⁵
            let pow = f64::from_bits((1023 - 4 + exp) << 52);
            match x % 16 {
                0 => [0.0, 1.0, 2.0, 7.0, 8.0][(x >> 16) as usize % 5],
                1 => pow,
                2 => f64::from_bits(pow.to_bits() - 1),
                3 => f64::from_bits(pow.to_bits() + 1),
                _ => f64::from_bits(pow.to_bits() | (x >> 12)),
            }
        }
    }

    /// The three sets of constants the cost sweeps run under.
    fn swept_models() -> [PgLikeCost; 3] {
        [
            PgLikeCost::new(),
            // Tuples dear, comparisons cheap: the boundary moves from 8 to
            // 2048 rows and sort-merge does win below it.
            PgLikeCost {
                params: PgParams {
                    seq_page_cost: 4.0,
                    cpu_tuple_cost: 0.1,
                    cpu_operator_cost: 0.005,
                    tuples_per_page: 64.0,
                },
            },
            // 2·op == op + tuple: the dominance test is an exact tie for
            // every larger input in [2, 4).
            PgLikeCost {
                params: PgParams {
                    cpu_tuple_cost: 0.01,
                    cpu_operator_cost: 0.01,
                    ..PgParams::default()
                },
            },
        ]
    }

    /// Also the floor: every price of the sweep is at or above
    /// `(a.cost + b.cost) + join_cost_floor(out_rows)`.
    #[test]
    fn fused_and_skipping_costs_are_bit_identical_to_the_three_way_min() {
        // Release builds (CI's plan-smoke leg) run the full two million.
        let cases = if cfg!(debug_assertions) {
            100_000
        } else {
            2_000_000
        };
        let models = swept_models();
        let mut rng = Magnitudes(42);
        let (mut skipped, mut merge_won) = (0u64, 0u64);
        for case in 0..cases {
            let m = &models[case % models.len()];
            let a = est(rng.next(), rng.next());
            let b = est(rng.next(), rng.next());
            let out_rows = rng.next();
            let (ab, ba) = (
                three_way_min(m, a, b, out_rows),
                three_way_min(m, b, a, out_rows),
            );
            let got = (
                m.join_cost(a, b, out_rows),
                m.join_cost(b, a, out_rows),
                m.join_cost_both(a, b, out_rows),
            );
            assert_eq!(
                (
                    got.0.to_bits(),
                    got.1.to_bits(),
                    got.2 .0.to_bits(),
                    got.2 .1.to_bits()
                ),
                (ab.to_bits(), ba.to_bits(), ab.to_bits(), ba.to_bits()),
                "{:?} a={a:?} b={b:?} out={out_rows}",
                m.params
            );
            let bound = (a.cost + b.cost) + m.join_cost_floor(out_rows);
            for cost in [got.0, got.1, got.2 .0, got.2 .1] {
                assert!(
                    cost >= bound,
                    "{cost} below the floor {bound}: {:?} a={a:?} b={b:?} out={out_rows}",
                    m.params
                );
            }
            skipped += m.merge_dominated(a.rows, b.rows) as u64;
            merge_won += (m.join_algo(a, b, out_rows) == JoinAlgo::SortMerge) as u64;
        }
        // Both sides of the skip are exercised, and merge does win somewhere
        // (so a skip that fired too often would have been caught).
        assert!(skipped > cases as u64 / 2 && skipped < cases as u64);
        assert!(merge_won > 0);
    }

    #[test]
    fn the_floor_holds_off_the_finite_non_negative_range() {
        // The sweep above draws finite non-negative magnitudes. Here: zero,
        // negative, infinite and NaN row counts and output rows, and infinite
        // input costs, under each of the sweep's constants. Wherever the
        // contract applies (input rows ≥ 0, a bound that is a number above
        // −∞) every price is at or above the bound.
        let specials = [
            0.0,
            -0.0,
            1.0,
            7.0,
            8.0,
            1e6,
            f64::INFINITY,
            -1.0,
            -1e6,
            f64::NAN,
        ];
        let costs = [0.0, 3.5, 1e9, f64::INFINITY];
        let mut checked = 0;
        for m in &swept_models() {
            for (a_cost, b_cost) in costs.iter().flat_map(|&x| costs.map(|y| (x, y))) {
                for (a_rows, b_rows) in specials.iter().flat_map(|&x| specials.map(|y| (x, y))) {
                    for out_rows in specials {
                        let (a, b) = (est(a_cost, a_rows), est(b_cost, b_rows));
                        let bound = (a.cost + b.cost) + m.join_cost_floor(out_rows);
                        if !(a.rows >= 0.0 && b.rows >= 0.0 && bound > f64::NEG_INFINITY) {
                            continue;
                        }
                        let both = m.join_cost_both(a, b, out_rows);
                        for cost in [
                            m.join_cost(a, b, out_rows),
                            m.join_cost(b, a, out_rows),
                            both.0,
                            both.1,
                        ] {
                            assert!(
                                cost >= bound,
                                "{cost} below {bound}: {:?} a={a:?} b={b:?} out={out_rows}",
                                m.params
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked}");
        // The premise is needed: with a negative row count the nested loop's
        // qualification term is negative and the price drops below the bound,
        // which is why the DP kernel prunes only on non-negative inputs.
        let m = PgLikeCost::new();
        let (a, b) = (est(0.0, -1.0), est(0.0, 1e6));
        assert!(m.join_cost(a, b, 1.0) < (a.cost + b.cost) + m.join_cost_floor(1.0));
    }

    #[test]
    fn merge_is_priced_below_eight_rows_with_default_constants() {
        let m = PgLikeCost::new();
        assert!(!m.merge_dominated(7.999, 3.0));
        assert!(m.merge_dominated(8.0, 3.0));
        assert!(m.merge_dominated(3.0, 8.0));
        assert!(m.merge_dominated(0.0, 0.0)); // all three operators tie
        assert!(!m.merge_dominated(-1.0, 1e6));
        assert!(!m.merge_dominated(f64::NAN, 1e6));
        assert!(!m.merge_dominated(1e6, f64::NAN));
    }

    #[test]
    fn asymmetric_build_side() {
        // Hash join prefers building on the smaller side: the ordered pair
        // (big, small) should cost less than (small, big) under hash.
        let m = PgLikeCost::new();
        let big = est(0.0, 1e6);
        let small = est(0.0, 1e3);
        assert!(m.hash_cost(big, small, 1e3) < m.hash_cost(small, big, 1e3));
    }
}
