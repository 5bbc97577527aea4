//! Deterministic columnar data generation from catalog statistics.
//!
//! The optimizer stack prices plans against *estimated* cardinalities; to
//! measure a plan, the executor needs actual tuples whose join behaviour
//! matches (or deliberately violates) those estimates. [`materialize`] turns
//! a query's statistics into in-memory columnar tables:
//!
//! * one **key column per incident join edge**, as wide as its domain needs
//!   ([`KeyColumn`]: `u32` up to a domain of `u32::MAX`, `u64` beyond) —
//!   the equi-join predicate `sel = 1/D` is realized by drawing both
//!   endpoints' keys uniformly from a domain of `D = round(1/sel)` values,
//!   so the expected observed selectivity equals the catalog estimate
//!   exactly;
//! * a declared payload width and no payload column: no operator reads a
//!   payload, so reports account the bytes a result stands for without a
//!   cell of it being materialized;
//! * a **row cap** that scales over-large tables down while keeping the key
//!   domains untouched — per-join selectivities (and therefore the
//!   estimated-vs-observed comparison) are row-count-invariant, so capping
//!   only shrinks absolute cardinalities;
//! * optional per-edge **skew**: a configurable fraction of each endpoint's
//!   rows share one hot key, which inflates the true join selectivity far
//!   beyond the uniform-independence estimate. This is the controlled
//!   "statistics are wrong" knob the feedback loop is tested with.
//!
//! Every cell is a pure function of `(seed, relation, edge, row)` through
//! the workspace's Murmur3 finalizer — no RNG state, no iteration order, no
//! thread count anywhere in the dataflow — so the same catalog and seed
//! produce bit-identical tables in any environment.

use mpdp_core::memo::murmur3_fmix64;
use mpdp_core::query::LargeQuery;
use mpdp_cost::model::CostModel;

/// Configuration of one [`materialize`] run.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Seed folded into every generated cell.
    pub seed: u64,
    /// Per-table materialized row cap. Estimated row counts above this are
    /// clamped (key domains are not, so selectivities survive the cap).
    pub max_table_rows: usize,
    /// Declared payload width in bytes per row (for byte accounting only).
    pub payload_width: usize,
    /// Edges whose key columns are generated skewed instead of uniform.
    pub skew: Vec<SkewedEdge>,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0,
            max_table_rows: 20_000,
            payload_width: 64,
            skew: Vec::new(),
        }
    }
}

/// Skew specification for one join edge: `hot_fraction` of the rows on each
/// endpoint carry the same hot key value.
///
/// With domain `D` and hot fraction `h`, the true join selectivity becomes
/// `h² + (1-h)²/(D-1)` — for `h = 0.3`, `D = 1000` that is ≈ 0.09, ninety
/// times the uniform estimate of 0.001. The catalog has no idea.
#[derive(Copy, Clone, Debug)]
pub struct SkewedEdge {
    /// One endpoint (query relation index).
    pub u: u32,
    /// The other endpoint.
    pub v: u32,
    /// Fraction of rows (per endpoint) pinned to the hot key, in `[0, 1)`.
    pub hot_fraction: f64,
}

/// One key column, stored at the width its domain needs. Both endpoints of
/// an edge share the domain and therefore the width; the executor's kernels
/// are generic over it and widen to `u64` in registers.
#[derive(Clone, Debug, PartialEq)]
pub enum KeyColumn {
    /// Domain ≤ `u32::MAX`.
    U32(Vec<u32>),
    /// Domain > `u32::MAX`.
    U64(Vec<u64>),
}

impl KeyColumn {
    /// The key of `row`, widened.
    pub fn get(&self, row: usize) -> u64 {
        match self {
            KeyColumn::U32(col) => col[row] as u64,
            KeyColumn::U64(col) => col[row],
        }
    }
}

/// One materialized table: row count and per-edge key columns.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecTable {
    /// Materialized row count (estimated rows after the cap).
    pub rows: usize,
    /// `keys[e]` is `Some(column)` iff this relation is an endpoint of query
    /// edge `e`; the column holds one key value per row.
    pub keys: Vec<Option<KeyColumn>>,
    /// Declared payload width in bytes (for byte accounting).
    pub payload_width: usize,
}

/// A materialized dataset plus the scaled query describing it.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// One table per query relation.
    pub tables: Vec<ExecTable>,
    /// The input query with row counts replaced by the *materialized* counts
    /// (and scan costs re-priced). Plans to be executed against this dataset
    /// must be optimized for this query, so that their modeled cardinalities
    /// and the executor's observed ones live at the same scale.
    pub scaled: LargeQuery,
    /// Key domain per edge: `round(1/sel)`, clamped to at least 1.
    pub domains: Vec<u64>,
}

impl Dataset {
    /// Total materialized rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }
}

/// Deterministic cell hash: mixes `(seed, relation, edge, row, lane)`
/// without any sequential state.
#[inline]
fn cell(seed: u64, rel: u64, edge: u64, row: u64, lane: u64) -> u64 {
    let mut h = seed ^ 0x6d70_6470_2d65_7865; // "mpdp-exe"
    h = murmur3_fmix64(h.wrapping_add(rel.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    h = murmur3_fmix64(h ^ edge.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    h = murmur3_fmix64(h ^ row.wrapping_mul(0x1656_67b1_9e37_79f9));
    murmur3_fmix64(h ^ lane)
}

/// Materializes columnar tables for `q` under `config`; `model` re-prices
/// the scaled query's scan costs. See the module docs for the scheme.
pub fn materialize(q: &LargeQuery, config: &GenConfig, model: &dyn CostModel) -> Dataset {
    let n = q.num_rels();
    let domains: Vec<u64> = q
        .edges
        .iter()
        .map(|e| (1.0 / e.sel).round().max(1.0) as u64)
        .collect();
    // Hot fraction per edge (0.0 = uniform), resolved once.
    let hot: Vec<f64> = q
        .edges
        .iter()
        .map(|e| {
            config
                .skew
                .iter()
                .find(|s| (s.u.min(s.v), s.u.max(s.v)) == (e.u.min(e.v), e.u.max(e.v)))
                .map(|s| s.hot_fraction.clamp(0.0, 0.999_999))
                .unwrap_or(0.0)
        })
        .collect();
    let mut tables = Vec::with_capacity(n);
    for (r, info) in q.rels.iter().enumerate() {
        let rows = (info.rows.round().max(1.0) as usize).min(config.max_table_rows.max(1));
        let mut keys: Vec<Option<KeyColumn>> = vec![None; q.edges.len()];
        for (ei, e) in q.edges.iter().enumerate() {
            if e.u as usize != r && e.v as usize != r {
                continue;
            }
            let d = domains[ei];
            let h = hot[ei];
            // Hot-row decision scale: integer threshold out of 2^32.
            let hot_threshold = (h * 4_294_967_296.0) as u64;
            let col = (0..rows as u64).map(|row| {
                if d <= 1 {
                    return 0;
                }
                let pick = cell(config.seed, r as u64, ei as u64, row, 0);
                if (pick & 0xffff_ffff) < hot_threshold {
                    // The hot key. All skewed rows on both endpoints
                    // collide here.
                    0
                } else if h > 0.0 {
                    // Cold rows avoid the hot key so the two populations
                    // stay disjoint and the skew math is exact.
                    1 + cell(config.seed, r as u64, ei as u64, row, 1) % (d - 1)
                } else {
                    cell(config.seed, r as u64, ei as u64, row, 1) % d
                }
            });
            // Every key is below its domain, so the narrow cast is lossless.
            keys[ei] = Some(if d <= u32::MAX as u64 {
                KeyColumn::U32(col.map(|k| k as u32).collect())
            } else {
                KeyColumn::U64(col.collect())
            });
        }
        tables.push(ExecTable {
            rows,
            keys,
            payload_width: config.payload_width,
        });
    }
    // The scaled query: materialized row counts, same selectivities.
    let mut scaled = LargeQuery::new(
        tables
            .iter()
            .map(|t| {
                let rows = t.rows as f64;
                mpdp_core::query::RelInfo::new(rows, model.scan_cost(rows))
            })
            .collect(),
    );
    for e in &q.edges {
        scaled.add_edge(e.u as usize, e.v as usize, e.sel);
    }
    Dataset {
        tables,
        scaled,
        domains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::PgLikeCost;
    use mpdp_workload::gen;

    #[test]
    fn same_seed_is_bit_identical() {
        let m = PgLikeCost::new();
        let q = gen::star(8, 3, &m);
        let config = GenConfig {
            seed: 99,
            max_table_rows: 5_000,
            ..Default::default()
        };
        let a = materialize(&q, &config, &m);
        let b = materialize(&q, &config, &m);
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.domains, b.domains);
        // A different seed must actually change the data.
        let c = materialize(
            &q,
            &GenConfig {
                seed: 100,
                ..config
            },
            &m,
        );
        assert_ne!(a.tables, c.tables);
    }

    #[test]
    fn row_cap_scales_tables_but_not_domains() {
        let m = PgLikeCost::new();
        let q = gen::star(6, 1, &m); // fact table has 1e6..5e7 rows
        let config = GenConfig {
            seed: 1,
            max_table_rows: 1_000,
            ..Default::default()
        };
        let d = materialize(&q, &config, &m);
        assert!(d.tables.iter().all(|t| t.rows <= 1_000));
        for (ei, e) in q.edges.iter().enumerate() {
            assert_eq!(d.domains[ei], (1.0 / e.sel).round() as u64);
        }
        // The scaled query carries the materialized counts.
        for (t, r) in d.tables.iter().zip(&d.scaled.rels) {
            assert_eq!(t.rows as f64, r.rows);
        }
        assert_eq!(d.scaled.edges.len(), q.edges.len());
    }

    #[test]
    fn key_columns_exist_exactly_on_endpoints() {
        let m = PgLikeCost::new();
        let q = gen::chain(5, 2, &m);
        let d = materialize(&q, &GenConfig::default(), &m);
        for (r, t) in d.tables.iter().enumerate() {
            for (ei, e) in q.edges.iter().enumerate() {
                let endpoint = e.u as usize == r || e.v as usize == r;
                assert_eq!(t.keys[ei].is_some(), endpoint, "rel {r} edge {ei}");
                if let Some(col) = &t.keys[ei] {
                    assert!((0..t.rows).all(|row| col.get(row) < d.domains[ei]));
                }
            }
        }
    }

    #[test]
    fn skew_pins_roughly_hot_fraction_to_key_zero() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![
            mpdp_core::query::RelInfo::new(10_000.0, 1.0),
            mpdp_core::query::RelInfo::new(10_000.0, 1.0),
        ]);
        q.add_edge(0, 1, 1.0 / 1000.0);
        let config = GenConfig {
            seed: 5,
            skew: vec![SkewedEdge {
                u: 0,
                v: 1,
                hot_fraction: 0.3,
            }],
            ..Default::default()
        };
        let d = materialize(&q, &config, &m);
        for t in &d.tables {
            let col = t.keys[0].as_ref().unwrap();
            let hot = (0..t.rows).filter(|&row| col.get(row) == 0).count() as f64 / t.rows as f64;
            assert!((hot - 0.3).abs() < 0.02, "hot fraction {hot}");
        }
    }
}
