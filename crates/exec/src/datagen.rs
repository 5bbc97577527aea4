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
//!
//! # Prefix, row, lane
//!
//! The hash is a chain of finalizer mixes, and the chain's links are fixed
//! at three scopes:
//!
//! * the **column prefix** mixes `(seed, relation)` and then the edge —
//!   two mixes, once per key column;
//! * the **row mix** `x` folds the row index into the prefix — one mix per
//!   row;
//! * a **lane** `l` is `fmix(x ^ l)`: lane 0 decides whether the row is
//!   hot (taken only when the edge's integer hot threshold is non-zero —
//!   otherwise no row can be), lane 1 draws the key.
//!
//! So a uniform cell costs two mixes and a skewed one three, where mixing
//! each cell from scratch cost eight. The value of a cell is still
//! `fmix(fmix(fmix(fmix((seed ^ C) + rel·K1) ^ edge·K2) ^ row·K3) ^ lane)`:
//! hoisting a link out of a loop moves where it is computed, never what it
//! is, and the original from-scratch hash is kept in the tests as the
//! oracle of the hoisted one.
//!
//! # Who allocates
//!
//! Columns are filled as one job on the process's worker set
//! ([`mpdp_parallel::pool`]), one part per column — inline on a one-CPU
//! host or while another run holds the set. Since a cell depends on
//! nothing but its coordinates, which thread fills a column never changes
//! a bit of it. Every column is allocated, zeroed, on the calling thread
//! before the job, and a part only writes into it: a column allocated on a
//! helper thread comes from that thread's malloc arena, which the process
//! keeps after the job, and raised `e2e-mixed`'s peak resident set by up
//! to 28 % (ROADMAP, "Settled by measurement").

use mpdp_core::memo::murmur3_fmix64;
use mpdp_core::query::LargeQuery;
use mpdp_cost::model::CostModel;
use mpdp_parallel::pool::with_pool;
use std::sync::Mutex;

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

/// Salt folded into the seed: "mpdp-exe".
const SEED_SALT: u64 = 0x6d70_6470_2d65_7865;
/// Odd multipliers that spread the relation, edge and row indices.
const REL_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const EDGE_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;
const ROW_MUL: u64 = 0x1656_67b1_9e37_79f9;

/// The column prefix: the two mixes of `(seed, relation, edge)` every cell
/// of one key column shares.
#[inline]
fn column_prefix(seed: u64, rel: u64, edge: u64) -> u64 {
    let h = murmur3_fmix64((seed ^ SEED_SALT).wrapping_add(rel.wrapping_mul(REL_MUL)));
    murmur3_fmix64(h ^ edge.wrapping_mul(EDGE_MUL))
}

/// The row mix: the one mix a row of a column adds to its prefix. Lane
/// `l` of the row is `murmur3_fmix64(row_mix ^ l)`.
#[inline]
fn row_mix(prefix: u64, row: u64) -> u64 {
    murmur3_fmix64(prefix ^ row.wrapping_mul(ROW_MUL))
}

/// How one edge's keys are drawn, resolved once per edge.
#[derive(Copy, Clone, Debug)]
struct KeyRule {
    /// `round(1/sel)`, at least 1.
    domain: u64,
    /// Hot-row threshold out of 2^32: a row is hot iff its lane-0 mix's
    /// low 32 bits are below it. 0 when no row can be hot.
    hot_threshold: u64,
    /// Whether the edge is skewed: cold rows then avoid the hot key 0.
    skewed: bool,
}

impl KeyRule {
    fn new(domain: u64, hot_fraction: f64) -> KeyRule {
        KeyRule {
            domain,
            hot_threshold: (hot_fraction * 4_294_967_296.0) as u64,
            skewed: hot_fraction > 0.0,
        }
    }

    /// The key of the row whose row mix is `x`: lane 0 decides whether the
    /// row is hot, lane 1 draws its key. Only called for `domain >= 2`.
    #[inline]
    fn key(self, x: u64) -> u64 {
        if self.hot_threshold != 0 && (murmur3_fmix64(x) & 0xffff_ffff) < self.hot_threshold {
            // The hot key. All skewed rows on both endpoints collide here.
            0
        } else if self.skewed {
            // Cold rows avoid the hot key so the two populations stay
            // disjoint and the skew math is exact.
            1 + murmur3_fmix64(x ^ 1) % (self.domain - 1)
        } else {
            murmur3_fmix64(x ^ 1) % self.domain
        }
    }

    /// Writes the keys of the column whose prefix is `prefix` into `col`,
    /// which the caller allocated zeroed: a domain of one is all zeros.
    fn fill(self, prefix: u64, col: &mut KeyColumn) {
        if self.domain <= 1 {
            return;
        }
        // Every key is below its domain, so the narrow cast is lossless.
        match col {
            KeyColumn::U32(col) => (0u64..).zip(col).for_each(|(row, k)| {
                *k = self.key(row_mix(prefix, row)) as u32;
            }),
            KeyColumn::U64(col) => (0u64..).zip(col).for_each(|(row, k)| {
                *k = self.key(row_mix(prefix, row));
            }),
        }
    }
}

/// Materializes columnar tables for `q` under `config`; `model` re-prices
/// the scaled query's scan costs. See the module docs for the scheme.
pub fn materialize(q: &LargeQuery, config: &GenConfig, model: &dyn CostModel) -> Dataset {
    let domains: Vec<u64> = q
        .edges
        .iter()
        .map(|e| (1.0 / e.sel).round().max(1.0) as u64)
        .collect();
    let rules: Vec<KeyRule> = q
        .edges
        .iter()
        .zip(&domains)
        .map(|(e, &d)| {
            let hot = config
                .skew
                .iter()
                .find(|s| (s.u.min(s.v), s.u.max(s.v)) == (e.u.min(e.v), e.u.max(e.v)))
                .map(|s| s.hot_fraction.clamp(0.0, 0.999_999))
                .unwrap_or(0.0);
            KeyRule::new(d, hot)
        })
        .collect();
    // Every column is allocated here, on the calling thread, and only
    // written by the fill (module docs).
    let mut tables: Vec<ExecTable> = q
        .rels
        .iter()
        .enumerate()
        .map(|(r, info)| {
            let rows = (info.rows.round().max(1.0) as usize).min(config.max_table_rows.max(1));
            let keys = q
                .edges
                .iter()
                .zip(&domains)
                .map(|(e, &d)| {
                    (e.u as usize == r || e.v as usize == r).then(|| {
                        if d <= u32::MAX as u64 {
                            KeyColumn::U32(vec![0; rows])
                        } else {
                            KeyColumn::U64(vec![0; rows])
                        }
                    })
                })
                .collect();
            ExecTable {
                rows,
                keys,
                payload_width: config.payload_width,
            }
        })
        .collect();
    {
        // One fill per column: its prefix, its rule and the column itself.
        let fills: Vec<Mutex<(u64, KeyRule, &mut KeyColumn)>> = tables
            .iter_mut()
            .enumerate()
            .flat_map(|(r, t)| {
                let rules = &rules;
                t.keys.iter_mut().enumerate().filter_map(move |(ei, col)| {
                    let prefix = column_prefix(config.seed, r as u64, ei as u64);
                    col.as_mut().map(|col| Mutex::new((prefix, rules[ei], col)))
                })
            })
            .collect();
        let fill = |idx: usize| {
            let mut fill = fills[idx]
                .lock()
                .expect("one part locks its column once, so no lock is poisoned");
            let (prefix, rule, col) = &mut *fill;
            rule.fill(*prefix, col);
        };
        // One part per column, claimed from the job's cursor: which thread
        // fills a column never changes what it holds. The caller claims
        // parts too, so a small dataset never waits on a late helper. A
        // query without edges has no column, and a job always has a part.
        if !fills.is_empty() {
            with_pool(fills.len(), |pool| pool.run(&fill));
        }
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

    /// The generator's original cell hash, kept as the oracle of the
    /// hoisted one: mixes `(seed, relation, edge, row, lane)` from scratch.
    fn cell(seed: u64, rel: u64, edge: u64, row: u64, lane: u64) -> u64 {
        let mut h = seed ^ 0x6d70_6470_2d65_7865; // "mpdp-exe"
        h = murmur3_fmix64(h.wrapping_add(rel.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        h = murmur3_fmix64(h ^ edge.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        h = murmur3_fmix64(h ^ row.wrapping_mul(0x1656_67b1_9e37_79f9));
        murmur3_fmix64(h ^ lane)
    }

    /// The generator's original key of one cell, eight mixes from scratch.
    fn oracle_key(seed: u64, rel: u64, edge: u64, row: u64, d: u64, h: f64) -> u64 {
        let hot_threshold = (h * 4_294_967_296.0) as u64;
        if d <= 1 {
            return 0;
        }
        let pick = cell(seed, rel, edge, row, 0);
        if (pick & 0xffff_ffff) < hot_threshold {
            0
        } else if h > 0.0 {
            1 + cell(seed, rel, edge, row, 1) % (d - 1)
        } else {
            cell(seed, rel, edge, row, 1) % d
        }
    }

    #[test]
    fn hoisted_cells_equal_the_original_hash() {
        // A hot fraction whose integer threshold is 0, yet which skews.
        let tiny = 1e-12;
        assert_eq!(KeyRule::new(1000, tiny).hot_threshold, 0);
        let domains = [
            2,
            3,
            1000,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            10_000_000_000,
        ];
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            murmur3_fmix64(state)
        };
        for i in 0..20_000 {
            let seed = next();
            // Small indices, as generated, and arbitrary ones.
            let (rel, edge, row) = if i % 2 == 0 {
                (next() % 64, next() % 128, next() % 100_000)
            } else {
                (next(), next(), next())
            };
            let prefix = column_prefix(seed, rel, edge);
            let x = row_mix(prefix, row);
            for lane in [0, 1] {
                assert_eq!(murmur3_fmix64(x ^ lane), cell(seed, rel, edge, row, lane));
            }
            for d in domains {
                for h in [0.0, tiny, 0.3, 0.999_999] {
                    assert_eq!(
                        KeyRule::new(d, h).key(x),
                        oracle_key(seed, rel, edge, row, d, h),
                        "seed {seed:#x} rel {rel} edge {edge} row {row} d {d} h {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn held_worker_set_fills_the_same_tables() {
        let m = PgLikeCost::new();
        let q = gen::snowflake(14, 3, 8, &m);
        let config = GenConfig {
            seed: 21,
            max_table_rows: 30_000,
            skew: vec![SkewedEdge {
                u: q.edges[0].u,
                v: q.edges[0].v,
                hot_fraction: 0.3,
            }],
            ..Default::default()
        };
        // The set is free (unless another test holds it, or the host has
        // one CPU)...
        let free = materialize(&q, &config, &m);
        // ...held by this thread's own run, so the fill runs inline...
        let held = with_pool(2, |_| materialize(&q, &config, &m));
        assert_eq!(free.tables, held.tables);
        // ...and raced for by two threads, one of which runs inline.
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| materialize(&q, &config, &m)))
                .collect();
            for racer in racers {
                assert_eq!(racer.join().unwrap().tables, free.tables);
            }
        });
    }

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
        // A lone relation has no edge and so no key column.
        let lone = LargeQuery::new(vec![mpdp_core::query::RelInfo::new(100.0, 1.0)]);
        let d = materialize(&lone, &GenConfig::default(), &m);
        assert_eq!(d.tables[0].rows, 100);
        assert!(d.tables[0].keys.is_empty());
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

    // ---- Golden table digests ---------------------------------------------
    //
    // Each case pins an FNV-1a digest of every table's row count, key-column
    // width and key values, as generated before the column loop was hoisted
    // and parallelized. A digest that moves means the data moved: every
    // downstream golden (executor results, observed selectivities, the
    // benchmark's reference cardinalities) moves with it.

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// FNV-1a over `rows`, then per edge slot a width tag (0 = no column,
    /// 4 = `u32`, 8 = `u64`) and the keys at that width, little-endian.
    fn table_digest(tables: &[ExecTable]) -> u64 {
        let mut h = FNV_OFFSET;
        for t in tables {
            fnv1a(&mut h, &(t.rows as u64).to_le_bytes());
            for key in &t.keys {
                match key {
                    None => fnv1a(&mut h, &[0]),
                    Some(KeyColumn::U32(col)) => {
                        fnv1a(&mut h, &[4]);
                        col.iter().for_each(|k| fnv1a(&mut h, &k.to_le_bytes()));
                    }
                    Some(KeyColumn::U64(col)) => {
                        fnv1a(&mut h, &[8]);
                        col.iter().for_each(|k| fnv1a(&mut h, &k.to_le_bytes()));
                    }
                }
            }
        }
        h
    }

    /// Two relations of `rows` rows joined by one edge of selectivity `sel`.
    fn pair(rows: f64, sel: f64) -> LargeQuery {
        let mut q = LargeQuery::new(vec![
            mpdp_core::query::RelInfo::new(rows, 1.0),
            mpdp_core::query::RelInfo::new(rows, 1.0),
        ]);
        q.add_edge(0, 1, sel);
        q
    }

    fn skewed(seed: u64, hot_fraction: f64) -> GenConfig {
        GenConfig {
            seed,
            skew: vec![SkewedEdge {
                u: 0,
                v: 1,
                hot_fraction,
            }],
            ..Default::default()
        }
    }

    /// The golden cases: name, query, config.
    fn golden_cases() -> Vec<(&'static str, LargeQuery, GenConfig)> {
        let m = PgLikeCost::new();
        let capped = |seed, max_table_rows| GenConfig {
            seed,
            max_table_rows,
            ..Default::default()
        };
        let mut cases = vec![
            ("star(8)", gen::star(8, 3, &m), capped(99, 5_000)),
            ("chain(5) capped", gen::chain(5, 2, &m), capped(7, 20_000)),
            ("skew 0.3", pair(10_000.0, 1.0 / 1000.0), skewed(5, 0.3)),
            ("sel 1", pair(3_000.0, 1.0), capped(11, 20_000)),
            ("skew d=2", pair(3_000.0, 0.5), skewed(13, 0.25)),
            ("u64 keys", pair(3_000.0, 1e-10), capped(17, 20_000)),
        ];
        // Three of the serving benchmark's mixed-workload pool templates, at
        // its 30 k-row cap; the first carries its hot key on the smallest
        // edge, as every eighth template there does.
        let pool = mpdp_workload::stream::ZipfStream::new(
            &mpdp_workload::stream::StreamSpec {
                templates: 8,
                skew: 1.0,
                min_rels: 8,
                max_rels: 14,
                seed: 42,
            },
            &m,
        );
        for (name, rank) in [("pool 0", 0), ("pool 1", 1), ("pool 4", 4)] {
            let q = pool.templates()[rank].query.clone();
            let skew = (rank == 0)
                .then(|| {
                    q.edges.iter().min_by(|a, b| {
                        let size = |e: &&mpdp_core::query::LargeEdge| {
                            q.rels[e.u as usize].rows * q.rels[e.v as usize].rows
                        };
                        size(a).total_cmp(&size(b))
                    })
                })
                .flatten()
                .map(|e| SkewedEdge {
                    u: e.u,
                    v: e.v,
                    hot_fraction: 0.3,
                });
            let config = GenConfig {
                seed: 42 + rank as u64,
                max_table_rows: 30_000,
                skew: skew.into_iter().collect(),
                ..Default::default()
            };
            cases.push((name, q, config));
        }
        cases
    }

    /// Recorded from the per-cell eight-mix generator; must never move.
    const GOLDEN: [(&str, u64); 9] = [
        ("star(8)", 0x08fc_8a90_88d7_3866),
        ("chain(5) capped", 0x9acf_8677_46b6_7618),
        ("skew 0.3", 0x2b39_a6ae_ef0f_f3eb),
        ("sel 1", 0x7b9f_2aa0_756a_2ecf),
        ("skew d=2", 0x22bd_4f12_9ce0_93df),
        ("u64 keys", 0x0c7e_97db_0914_6f60),
        ("pool 0", 0x483c_490b_3227_d956),
        ("pool 1", 0x910b_87b7_a446_b2d9),
        ("pool 4", 0x5dac_8e1e_cd92_3aa2),
    ];

    #[test]
    fn golden_table_digests() {
        let m = PgLikeCost::new();
        let cases = golden_cases();
        assert_eq!(cases.len(), GOLDEN.len());
        for ((name, q, config), (golden_name, golden)) in cases.iter().zip(GOLDEN) {
            assert_eq!(*name, golden_name);
            let d = materialize(q, config, &m);
            // Each case covers what its name says.
            match *name {
                "sel 1" => assert_eq!(d.domains, [1]),
                "skew d=2" => assert_eq!(d.domains, [2]),
                "u64 keys" => assert!(matches!(d.tables[0].keys[0], Some(KeyColumn::U64(_)))),
                "chain(5) capped" => assert!(d.tables.iter().any(|t| t.rows == 20_000)),
                "pool 0" => assert_eq!(config.skew.len(), 1),
                _ => {}
            }
            assert_eq!(table_digest(&d.tables), golden, "{name}");
        }
    }
}
