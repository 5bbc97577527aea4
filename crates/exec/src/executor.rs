//! The morsel-parallel vectorized join executor.
//!
//! [`Executor::execute`] walks a [`PlanTree`] bottom-up and runs every join
//! as a three-stage batch-at-a-time hash join:
//!
//! * **build** (single-pass, sequential): the child with the smaller
//!   *modeled* cardinality (the optimizer's own estimate — a mis-estimate
//!   therefore costs real wall time, which is exactly what the feedback
//!   loop measures) is gathered into flat per-edge key columns, hashed, and
//!   inserted into a chained table plus a register-blocked **bloom filter**
//!   over the composite hashes;
//! * **probe** (parallel): the probe side is cut into fixed-size **morsels**
//!   ([`ExecConfig::batch`], default 1024 rows). Each pool worker owns a
//!   contiguous morsel range ([`chunk_range`] over morsel indices) and runs
//!   one **fused filter kernel** per morsel — key → hash → bloom test →
//!   branch-free survivor compaction in a single pass, nothing stored for a
//!   row the filter rejects; eight rows per step where the CPU has AVX-512
//!   ([`filter_kernel`]) — then walks the table's chains for the
//!   survivors with value-by-value verification and gathers the matches
//!   column-wise into a **private** output buffer;
//! * **merge** (sequential): worker buffers are concatenated in worker
//!   order, which *is* morsel order because ranges are contiguous, so the
//!   output rows, the merged [`ExecStats`], and every downstream observed
//!   selectivity are bit-identical at any worker count.
//!
//! Intermediate results are **rowid vectors**, and only the ones an upper
//! operator can read: a scan emits none (its row `i` *is* rowid `i`, so a
//! base-table side of a join reads its key column in place), and a join
//! emits one `u32` column per relation that still has a query edge leaving
//! the joined set. [`Executor::execute_with_result`] keeps every column
//! instead, so its root [`ResultSet`] is complete; [`Executor::execute`]
//! only counts.
//!
//! A join's predicate set is derived from the query graph: every edge with
//! one endpoint on each side participates. Hash keys combine all crossing
//! edges' values; candidate matches are verified value-by-value, so hash
//! collisions can never fabricate output rows (the cross-strategy oracle
//! test relies on every plan of a query producing the identical result
//! cardinality). A join with no crossing edge degenerates to a guarded
//! cross product (heuristic plans on degenerate graphs can contain them).
//!
//! Per operator the executor records [`ExecStats`] (build/probe/output rows,
//! exact morsel count, wall time) and per join it records the **observed
//! combined selectivity** `output / (left × right)` — folded from the
//! per-worker partial outputs before anything downstream (in particular
//! `PlanService::observe`) sees it.

use crate::datagen::{Dataset, KeyColumn};
use mpdp_core::bitset::RelSet;
use mpdp_core::counters::ExecCounters;
use mpdp_core::plan::PlanTree;
use mpdp_core::query::LargeQuery;
use mpdp_obs::{sites, SpanCtx};
use mpdp_parallel::pool::{chunk_range, with_pool, PoolHandle};
use std::fmt;
use std::iter::repeat;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Execution knobs.
#[derive(Copy, Clone, Debug)]
pub struct ExecConfig {
    /// Probe-side morsel size in rows.
    pub batch: usize,
    /// Hard cap on any operator's output cardinality; exceeding it aborts
    /// the run with [`ExecError::OutputCap`] instead of filling memory.
    pub max_output_rows: usize,
    /// Probe-phase part count. [`Executor::execute`] runs each probe as a
    /// job of this many parts on the process's worker set
    /// (`mpdp-parallel::pool`); `1` (the default) runs inline with zero
    /// thread overhead. Results are bit-identical at any value — see the
    /// module docs' merge-order argument.
    pub workers: usize,
    /// Probe sides at or below this many rows skip the worker set and
    /// run their morsel loop inline on the driver thread, regardless of
    /// `workers`. A `pool.map` is a hand-off to the helpers and a barrier;
    /// on tiny joins that costs more than the probe itself (the fig5
    /// shapes regressed 0.78 → 2.26 ms going 1 → 2 workers before this
    /// cutoff existed). The inline path runs the identical kernels over
    /// the identical morsel ranges in morsel order, so results stay
    /// bit-identical across the threshold.
    pub sequential_cutoff: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            batch: 1024,
            max_output_rows: 20_000_000,
            workers: 1,
            sequential_cutoff: 4096,
        }
    }
}

/// Executor errors.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// An operator exceeded [`ExecConfig::max_output_rows`].
    OutputCap {
        /// The relations joined by the offending operator.
        rels: RelSet,
        /// The configured cap.
        cap: usize,
    },
    /// The plan does not fit the query/dataset (wrong relation index, >64
    /// relations, mismatched table count).
    BadPlan(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutputCap { rels, cap } => {
                write!(f, "join over {rels} exceeded the output cap of {cap} rows")
            }
            ExecError::BadPlan(msg) => write!(f, "plan does not fit dataset: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-operator execution statistics.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ExecStats {
    /// Base relations covered by this operator's output.
    pub rels: RelSet,
    /// Rows inserted into the hash table (0 for scans).
    pub build_rows: u64,
    /// Rows streamed through the probe side (0 for scans).
    pub probe_rows: u64,
    /// Output cardinality.
    pub output_rows: u64,
    /// Probe morsels processed — exactly `⌈probe_rows / batch⌉`, summed
    /// from the per-worker ranges (asserted by the oracle tests, including
    /// the probe-rows-an-exact-multiple-of-batch boundary).
    pub batches: u64,
    /// The optimizer's estimated output cardinality for this operator.
    pub est_rows: f64,
    /// Wall time spent in this operator (excluding its children).
    pub wall: Duration,
}

/// One observed join: which sides met, over which edges, and what came out.
#[derive(Clone, Debug)]
pub struct ObservedJoin {
    /// Left (probe) input's relation set.
    pub left: RelSet,
    /// Right (build) input's relation set.
    pub right: RelSet,
    /// Indices into `query.edges` of the predicates this join applied.
    pub edges: Vec<usize>,
    /// Input cardinalities (left, right).
    pub inputs: (u64, u64),
    /// Observed output cardinality.
    pub output: u64,
    /// Observed combined selectivity `output / (left × right)`; 0 when an
    /// input was empty.
    pub observed_sel: f64,
    /// The optimizer's estimated output cardinality.
    pub est_rows: f64,
}

/// The outcome of executing one plan.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Per-operator statistics in bottom-up (post-order) execution order.
    pub stats: Vec<ExecStats>,
    /// Per-join observations (same order as the join operators in `stats`).
    pub joins: Vec<ObservedJoin>,
    /// Result cardinality at the plan root.
    pub root_rows: u64,
    /// Estimated root cardinality (from the plan).
    pub est_root_rows: f64,
    /// End-to-end wall time of the run.
    pub wall: Duration,
    /// Aggregate counters (rows built/probed/emitted, batches).
    pub counters: ExecCounters,
    /// Payload bytes the result set stands for: root rows × the summed
    /// payload widths of all participating tables.
    pub result_bytes: u64,
    /// Per-worker probe-phase busy time, summed over all joins (length is
    /// the worker count the run used). On a host with that many idle cores
    /// the probe phases overlap; on a time-sliced host they serialize and
    /// the measured [`ExecReport::wall`] stays flat.
    pub worker_busy: Vec<Duration>,
}

impl ExecReport {
    /// Ratio by which the root estimate missed the observation (always
    /// ≥ 1; both directions count). 1.0 for a perfect estimate.
    pub fn root_deviation(&self) -> f64 {
        let est = self.est_root_rows.max(1.0);
        let obs = (self.root_rows as f64).max(1.0);
        (est / obs).max(obs / est)
    }
}

/// A materialized result: rowid vectors per participating base relation —
/// the returned result set of [`Executor::execute_with_result`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Participating relations, ascending.
    pub rels: Vec<u32>,
    /// `rowids[i]` holds one row index into base table `rels[i]` per output
    /// row (all columns share one length).
    pub rowids: Vec<Vec<u32>>,
    /// Output row count.
    pub len: usize,
}

/// An operator's output as the operators above it see it: the relations it
/// covers, its row count, and the rowid columns it kept. A scan keeps none
/// (row `i` is rowid `i`); a join keeps the relations an upper join can
/// still ask a key of.
struct Inter {
    set: RelSet,
    len: usize,
    /// Relations with a rowid column, ascending; parallel to `cols`.
    rels: Vec<u32>,
    cols: Vec<Vec<u32>>,
}

impl Inter {
    /// The rowid column of `rel`, or `None` when this is a scan of it (a
    /// join keeps the column of every relation with an edge leaving it).
    fn rowids(&self, rel: u32) -> Option<&[u32]> {
        let col = self.rels.iter().position(|&r| r == rel);
        assert!(col.is_some() || self.set.len() == 1, "pruned a live column");
        col.map(|i| &self.cols[i][..])
    }

    /// The complete result set (the run must have kept every column).
    fn into_result(mut self) -> ResultSet {
        if self.set.len() == 1 {
            self.rels = self.set.iter().map(|r| r as u32).collect();
            self.cols = vec![(0..self.len as u32).collect()];
        }
        ResultSet {
            rels: self.rels,
            rowids: self.cols,
            len: self.len,
        }
    }
}

/// The composite-hash fold shared by build and probe: one multiply, with
/// the product's well-mixed high half rotated down to where the next key is
/// folded in and where [`slot_of`] reads. Good mixing is all that is
/// required — equality is re-verified value-by-value on probe, and output
/// order never depends on the hash (see [`BuildTable`]).
#[inline]
fn fold(h: u64, key: u64) -> u64 {
    (h ^ key).wrapping_mul(HASH_SEED).rotate_left(32)
}

/// Seed and multiplier of the composite-hash fold (2⁶⁴/φ, odd).
const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The slot of `h` in a table of `2^(32 - shift)` slots: the top bits of
/// the fold's product (Fibonacci hashing — dense key ranges spread evenly).
#[inline]
fn slot_of(h: u64, shift: u32) -> usize {
    ((h & 0xffff_ffff) >> shift) as usize
}

/// Sentinel for an empty hash bucket / end of a chain.
const EMPTY: u32 = u32::MAX;

/// A register-blocked bloom filter over composite build hashes: 16 bits per
/// build row (rounded up to a power of two), and both bits of a hash in
/// **one** 64-bit word, so a test is one load and one compare. Blocking
/// costs some accuracy in theory — words fill unevenly — but measures a
/// false-positive rate of 0.6–1.6 % against the 1.4 % of two independent
/// probes (`bloom_has_no_false_negatives_and_few_false_positives`). The
/// filter stays cache-resident, so non-matching probe rows — the common
/// case under selective joins — never touch the (much larger) table.
#[derive(Default)]
struct Bloom {
    words: Vec<u64>,
    shift: u32,
}

impl Bloom {
    /// Clears the filter and sizes it for `rows` build rows.
    fn reset(&mut self, rows: usize) {
        let words = rows.clamp(4, 1 << 31).next_power_of_two() / 4;
        self.words.clear();
        self.words.resize(words, 0);
        self.shift = 32 - words.trailing_zeros();
    }

    /// The word of `h` and its two bits in it. The bit positions read both
    /// halves of the hash xor-folded: either half alone correlates with the
    /// word index on dense or on strided keys (3–8 % and over 90 % false
    /// positives measured).
    #[inline]
    fn slot(&self, h: u64) -> (usize, u64) {
        let g = h ^ (h >> 32);
        let bits = (1 << (g & 63)) | (1 << ((g >> 6) & 63));
        (slot_of(h, self.shift), bits)
    }

    #[inline]
    fn insert(&mut self, h: u64) {
        let (word, bits) = self.slot(h);
        self.words[word] |= bits;
    }

    #[inline]
    fn may_contain(&self, h: u64) -> bool {
        let (word, bits) = self.slot(h);
        self.words[word] & bits == bits
    }
}

/// One side of one crossing edge, resolved once per join: the base table's
/// key column and, unless the side is a scan, the rowid column into it.
struct Side<'c> {
    keys: &'c KeyColumn,
    rowids: Option<&'c [u32]>,
}

/// Binds `$keys` to an iterator over the widened keys of rows `$lo..$hi` of
/// a [`Side`] and evaluates `$body` — once per key width and per rowid
/// indirection, so every kernel below is written once and monomorphized for
/// narrow and wide, in-place and gathered key columns.
macro_rules! with_keys {
    ($side:expr, $lo:expr, $hi:expr, |$keys:ident| $body:expr) => {
        match ($side.keys, $side.rowids) {
            (KeyColumn::U32(col), None) => {
                let $keys = col[$lo..$hi].iter().map(|&k| k as u64);
                $body
            }
            (KeyColumn::U32(col), Some(rowids)) => {
                let $keys = rowids[$lo..$hi].iter().map(|&r| col[r as usize] as u64);
                $body
            }
            (KeyColumn::U64(col), None) => {
                let $keys = col[$lo..$hi].iter().copied();
                $body
            }
            (KeyColumn::U64(col), Some(rowids)) => {
                let $keys = rowids[$lo..$hi].iter().map(|&r| col[r as usize]);
                $body
            }
        }
    };
}

/// The eight-rows-per-step kernels, where the CPU has the features for them.
#[cfg(target_arch = "x86_64")]
mod lanes;

/// Which fused filter kernel [`Executor::execute`] runs on this machine:
/// `"avx512 lanes"` where AVX-512 (F, DQ, VL) is detected, `"scalar"`
/// everywhere else. Results do not depend on it; timings do.
pub fn filter_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if lanes::detected() {
        return "avx512 lanes";
    }
    "scalar"
}

/// Both sides of one crossing edge.
struct EdgeAccess<'c> {
    probe: Side<'c>,
    build: Side<'c>,
}

/// Folds one edge's keys into the running composite hashes.
fn fold_keys(hashes: &mut [u64], keys: impl Iterator<Item = u64>) {
    for (h, k) in hashes.iter_mut().zip(keys) {
        *h = fold(*h, k);
    }
}

/// The fused filter kernel: one pass over a morsel's keys that hashes each
/// row, tests the bloom filter and compacts the survivors branch-free (the
/// slot is always written, the cursor advances only on a hit). Returns the
/// survivor count; `survivors[..n]` are morsel-local row indices and
/// `hashes[..n]` their composite hashes. `seeds` is the composite hash so
/// far: the bare seed for a single-edge join, the carry of the earlier
/// edges otherwise.
fn filter(
    seeds: impl Iterator<Item = u64>,
    keys: impl Iterator<Item = u64>,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> usize {
    let mut n = 0;
    for (i, (seed, key)) in seeds.zip(keys).enumerate() {
        let h = fold(seed, key);
        survivors[n] = i as u32;
        hashes[n] = h;
        n += bloom.may_contain(h) as usize;
    }
    n
}

/// The scalar [`filter`] over rows `lo..hi` of `side`; `seeds` is the carry
/// of the earlier edges, `None` the bare seed of a single-edge join.
fn filter_scalar(
    seeds: Option<&[u64]>,
    side: &Side<'_>,
    lo: usize,
    hi: usize,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> usize {
    match seeds {
        None => with_keys!(side, lo, hi, |keys| filter(
            repeat(HASH_SEED),
            keys,
            bloom,
            survivors,
            hashes
        )),
        Some(seeds) => with_keys!(side, lo, hi, |keys| filter(
            seeds.iter().copied(),
            keys,
            bloom,
            survivors,
            hashes
        )),
    }
}

/// The build-stage product: flat gathered key columns, composite hashes,
/// and a chained hash table (bucket heads + next links) with a bloom filter
/// in front. Chains are built by inserting rows in reverse, so walking a
/// chain visits build rows in ascending order. All matches of a probe row
/// carry equal keys, hence one composite hash and one chain: whatever the
/// hash function, a probe row's matches come out in ascending build row —
/// output order is pinned by construction, not by hashing or scheduling.
/// One table serves a whole run; [`BuildTable::rebuild`] reuses its buffers.
#[derive(Default)]
struct BuildTable {
    /// Gathered build keys (widened), one flat column per crossing edge.
    keys: Vec<Vec<u64>>,
    /// Composite hash per build row.
    hashes: Vec<u64>,
    /// Bucket heads (power-of-two sized).
    buckets: Vec<u32>,
    /// Chain links per build row.
    next: Vec<u32>,
    /// [`slot_of`] shift of `buckets`.
    shift: u32,
    bloom: Bloom,
}

impl BuildTable {
    /// Build stage: gather and fold each edge's keys, then table + bloom
    /// insert.
    fn rebuild(&mut self, access: &[EdgeAccess<'_>], len: usize) {
        self.keys.resize_with(access.len(), Vec::new);
        self.hashes.clear();
        self.hashes.resize(len, HASH_SEED);
        for (col, a) in self.keys.iter_mut().zip(access) {
            col.clear();
            with_keys!(a.build, 0, len, |keys| col.extend(keys));
            fold_keys(&mut self.hashes, col.iter().copied());
        }
        let cap = (len * 2).next_power_of_two().clamp(16, 1 << 31);
        self.shift = 32 - cap.trailing_zeros();
        self.buckets.clear();
        self.buckets.resize(cap, EMPTY);
        self.next.clear();
        self.next.resize(len, EMPTY);
        self.bloom.reset(len);
        for row in (0..len).rev() {
            let h = self.hashes[row];
            self.bloom.insert(h);
            let b = slot_of(h, self.shift);
            self.next[row] = self.buckets[b];
            self.buckets[b] = row as u32;
        }
    }
}

/// Per-worker probe scratch, reused across a run's joins: the carry of a
/// multi-edge fold, then per survivor its morsel-local row, composite hash
/// and widened keys (edge-major), and the morsel's match pairs.
#[derive(Default)]
struct ProbeScratch {
    carry: Vec<u64>,
    survivors: Vec<u32>,
    hashes: Vec<u64>,
    keys: Vec<Vec<u64>>,
    matches: Vec<(u32, u32)>,
}

impl ProbeScratch {
    /// Sizes the buffers for a join of `edges` crossing edges probed in
    /// morsels of at most `rows` rows.
    fn fit(&mut self, edges: usize, rows: usize) {
        // Only a multi-edge join folds into the carry.
        if edges > 1 {
            self.carry.resize(rows, 0);
        }
        self.survivors.resize(rows, 0);
        self.hashes.resize(rows, 0);
        self.keys.resize_with(edges, Vec::new);
        for col in &mut self.keys {
            col.resize(rows, 0);
        }
    }
}

/// One worker's private probe output: per-column rowid buffers plus its
/// share of the merged statistics.
struct WorkerOut {
    cols: Vec<Vec<u32>>,
    rows: usize,
    batches: u64,
    busy: Duration,
}

/// What one run accumulates and reuses across its operators.
struct Run {
    /// Keep every rowid column (the caller wants the root [`ResultSet`]).
    keep_all: bool,
    stats: Vec<ExecStats>,
    joins: Vec<ObservedJoin>,
    busy: Vec<Duration>,
    table: BuildTable,
    /// One scratch per pool worker (each locks only its own).
    scratch: Vec<Mutex<ProbeScratch>>,
}

/// The vectorized executor: borrow a query and its dataset, execute plans.
pub struct Executor<'a> {
    query: &'a LargeQuery,
    data: &'a Dataset,
    config: ExecConfig,
    trace: SpanCtx,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a materialized dataset. The plans passed to
    /// [`Executor::execute`] must have been optimized for
    /// [`Dataset::scaled`] (or a query with the same relation indices), so
    /// their modeled cardinalities live at the dataset's scale.
    pub fn new(query: &'a LargeQuery, data: &'a Dataset, config: ExecConfig) -> Self {
        Executor {
            query,
            data,
            config,
            trace: SpanCtx::default(),
        }
    }

    /// Attaches a span context: every join records `exec.build` /
    /// `exec.probe` spans and per-worker `exec.morsels` spans under it.
    /// The default context is disabled (one branch per site); tracing
    /// never feeds back into kernels, so armed runs stay bit-identical.
    pub fn with_trace(mut self, trace: SpanCtx) -> Self {
        self.trace = trace;
        self
    }

    /// Executes a plan and reports per-operator statistics and per-join
    /// observed selectivities. Opens a run of [`ExecConfig::workers`] parts
    /// on the worker set for the probe phases; to share one run across
    /// many plans, use [`Executor::execute_in`].
    pub fn execute(&self, plan: &PlanTree) -> Result<ExecReport, ExecError> {
        with_pool(self.config.workers.max(1), |pool| {
            self.execute_in(pool, plan)
        })
    }

    /// Like [`Executor::execute`] but also returns the root result set
    /// (rowid columns into the base tables) — the byte-exact artifact the
    /// parallel-equivalence tests compare across worker counts.
    pub fn execute_with_result(
        &self,
        plan: &PlanTree,
    ) -> Result<(ExecReport, ResultSet), ExecError> {
        with_pool(self.config.workers.max(1), |pool| {
            self.execute_with_result_in(pool, plan)
        })
    }

    /// Executes a plan on a caller-provided pool (reused across plans or
    /// shared with the DP backends — the same worker set drives both the
    /// optimizer's levels and the executor's morsels).
    pub fn execute_in(
        &self,
        pool: &PoolHandle<'_>,
        plan: &PlanTree,
    ) -> Result<ExecReport, ExecError> {
        self.execute_plan(pool, plan, false).map(|(r, _)| r)
    }

    /// [`Executor::execute_with_result`] on a caller-provided pool.
    pub fn execute_with_result_in(
        &self,
        pool: &PoolHandle<'_>,
        plan: &PlanTree,
    ) -> Result<(ExecReport, ResultSet), ExecError> {
        let (report, root) = self.execute_plan(pool, plan, true)?;
        Ok((report, root.into_result()))
    }

    fn execute_plan(
        &self,
        pool: &PoolHandle<'_>,
        plan: &PlanTree,
        keep_all: bool,
    ) -> Result<(ExecReport, Inter), ExecError> {
        if self.query.num_rels() > 64 {
            return Err(ExecError::BadPlan(format!(
                "executor covers the exact regime (≤64 relations), got {}",
                self.query.num_rels()
            )));
        }
        if self.data.tables.len() != self.query.num_rels() {
            return Err(ExecError::BadPlan(format!(
                "dataset has {} tables for a {}-relation query",
                self.data.tables.len(),
                self.query.num_rels()
            )));
        }
        let start = Instant::now();
        let mut run = Run {
            keep_all,
            stats: Vec::new(),
            joins: Vec::new(),
            busy: vec![Duration::ZERO; pool.workers()],
            table: BuildTable::default(),
            scratch: (0..pool.workers()).map(|_| Mutex::default()).collect(),
        };
        let root = self.run(plan, pool, &mut run)?;
        let wall = start.elapsed();
        // Aggregate from the joins vec (not a rows>0 heuristic on stats):
        // a join of two empty intermediates is still a join operator and
        // must keep `counters.joins` consistent with `joins.len()`.
        let mut counters = ExecCounters {
            joins: run.joins.len() as u64,
            ..Default::default()
        };
        for j in &run.joins {
            counters.probe_rows += j.inputs.0;
            counters.build_rows += j.inputs.1;
            counters.output_rows += j.output;
        }
        for s in &run.stats {
            counters.batches += s.batches;
        }
        // From the plan, not the root's columns (which may all be pruned).
        let width: u64 = plan
            .rel_set()
            .iter()
            .map(|r| self.data.tables[r].payload_width as u64)
            .sum();
        let report = ExecReport {
            root_rows: root.len as u64,
            est_root_rows: plan.rows(),
            stats: run.stats,
            joins: run.joins,
            wall,
            counters,
            result_bytes: root.len as u64 * width,
            worker_busy: run.busy,
        };
        Ok((report, root))
    }

    fn run(
        &self,
        plan: &PlanTree,
        pool: &PoolHandle<'_>,
        run: &mut Run,
    ) -> Result<Inter, ExecError> {
        match plan {
            PlanTree::Scan { rel, rows, .. } => {
                let r = *rel as usize;
                if r >= self.data.tables.len() {
                    return Err(ExecError::BadPlan(format!("scan of unknown relation {r}")));
                }
                let n = self.data.tables[r].rows;
                run.stats.push(ExecStats {
                    rels: RelSet::singleton(r),
                    build_rows: 0,
                    probe_rows: 0,
                    output_rows: n as u64,
                    batches: 0,
                    est_rows: *rows,
                    wall: Duration::ZERO,
                });
                Ok(Inter {
                    set: RelSet::singleton(r),
                    len: n,
                    rels: Vec::new(),
                    cols: Vec::new(),
                })
            }
            PlanTree::Join {
                left, right, rows, ..
            } => {
                let l = self.run(left, pool, run)?;
                let r = self.run(right, pool, run)?;
                let t0 = Instant::now();
                // Build on the smaller *modeled* side; ties build right,
                // matching the cost models' build-right convention.
                let (probe, build) = if right.rows() <= left.rows() {
                    (l, r)
                } else {
                    (r, l)
                };
                let out = self.hash_join(pool, &probe, &build, *rows, run)?;
                if let Some(s) = run.stats.last_mut() {
                    s.wall = t0.elapsed();
                }
                Ok(out)
            }
        }
    }

    /// The side of edge `ei` that lies in `side`'s relation set.
    fn side_of<'c>(&'c self, side: &'c Inter, ei: usize) -> Side<'c> {
        let e = &self.query.edges[ei];
        let rel = if side.set.contains(e.u as usize) {
            e.u
        } else {
            e.v
        };
        Side {
            keys: self.data.tables[rel as usize].keys[ei]
                .as_ref()
                .expect("endpoint tables carry the edge's key column"),
            rowids: side.rowids(rel),
        }
    }

    fn hash_join(
        &self,
        pool: &PoolHandle<'_>,
        probe: &Inter,
        build: &Inter,
        est_rows: f64,
        run: &mut Run,
    ) -> Result<Inter, ExecError> {
        let out_set = probe.set.union(build.set);
        // One pass over the query's edges: the ones crossing the two sides
        // are this join's predicates; the ones leaving the joined set name
        // the relations an upper join can still ask a key of.
        let mut edges = Vec::new();
        let mut keep = RelSet::empty();
        for (ei, e) in self.query.edges.iter().enumerate() {
            let (u, v) = (e.u as usize, e.v as usize);
            match (out_set.contains(u), out_set.contains(v)) {
                (true, true) if probe.set.contains(u) != probe.set.contains(v) => edges.push(ei),
                (true, false) => keep = keep.with(u),
                (false, true) => keep = keep.with(v),
                _ => {}
            }
        }
        if run.keep_all {
            keep = out_set;
        }
        // Resolve each crossing edge to direct slices once.
        let access: Vec<EdgeAccess<'_>> = edges
            .iter()
            .map(|&ei| EdgeAccess {
                probe: self.side_of(probe, ei),
                build: self.side_of(build, ei),
            })
            .collect();

        // ---- Build stage (single-pass, sequential). ----
        {
            let mut span = self.trace.span(sites::EXEC_BUILD);
            span.set_attr(build.len as u64);
            run.table.rebuild(&access, build.len);
        }
        let table = &run.table;
        let scratch = &run.scratch;

        // ---- Probe stage (parallel over morsel ranges). ----
        let out_rels: Vec<u32> = keep.iter().map(|r| r as u32).collect();
        // Output gather sources, resolved once: each output column comes
        // from exactly one side — its rowid column, or the match's own row
        // index where that side is a scan.
        let out_sources: Vec<(bool, Option<&[u32]>)> = out_rels
            .iter()
            .map(|&rel| {
                let from_probe = probe.set.contains(rel as usize);
                let side = if from_probe { probe } else { build };
                (from_probe, side.rowids(rel))
            })
            .collect();

        let batch = self.config.batch.max(1);
        let cap = self.config.max_output_rows;
        let morsels = probe.len.div_ceil(batch);
        let workers = pool.workers();
        let emitted = AtomicU64::new(0);
        let aborted = AtomicBool::new(false);
        // Probe-stage span; per-worker morsel spans nest under it.
        let mut probe_stage = self.trace.span(sites::EXEC_PROBE);
        probe_stage.set_attr(probe.len as u64);
        let probe_ctx = probe_stage.ctx();
        // One worker's span of the probe: morsels `chunk_range(morsels,
        // parts, w)`, in morsel order. Shared by the pooled path (one call
        // per pool worker) and the small-probe fast path (one call
        // covering everything), so both produce the same per-morsel
        // outputs in the same order and the merge below is bit-identical.
        let probe_span = |w: usize, parts: usize| {
            // Per-worker morsel span, recorded into the *worker thread's*
            // own ring; attr is the batch count this worker processed.
            let mut morsel_span = probe_ctx.span(sites::EXEC_MORSELS);
            let t0 = Instant::now();
            let mut out = WorkerOut {
                cols: vec![Vec::new(); out_rels.len()],
                rows: 0,
                batches: 0,
                busy: Duration::ZERO,
            };
            let mut scratch = scratch[w]
                .lock()
                .expect("a worker that panics takes the run down with it");
            scratch.fit(access.len(), batch.min(probe.len));
            for m in chunk_range(morsels, parts, w) {
                if aborted.load(Ordering::Relaxed) {
                    break;
                }
                let lo = m * batch;
                let hi = (lo + batch).min(probe.len);
                probe_morsel(&access, table, lo, hi, &mut scratch);
                out.batches += 1;
                let found = scratch.matches.len() as u64;
                // Global output-cap accounting. In a run whose total output
                // fits the cap no partial sum can exceed it, so the abort
                // branch below never fires and results stay deterministic;
                // in a blow-up every interleaving eventually trips it.
                if emitted.fetch_add(found, Ordering::Relaxed) + found > cap as u64 {
                    aborted.store(true, Ordering::Relaxed);
                    break;
                }
                // Gather the morsel's match pairs column-wise into this
                // worker's private output buffers.
                out.rows += scratch.matches.len();
                for (col, &(from_probe, src)) in out.cols.iter_mut().zip(&out_sources) {
                    let row = |&(p, b): &(u32, u32)| if from_probe { p } else { b };
                    match src {
                        Some(src) => {
                            col.extend(scratch.matches.iter().map(|m| src[row(m) as usize]))
                        }
                        None => col.extend(scratch.matches.iter().map(row)),
                    }
                }
            }
            out.busy = t0.elapsed();
            morsel_span.set_attr(out.batches);
            out
        };
        // Small-query sequential fast path: below the cutoff the barrier
        // round trip costs more than the probe — run the whole span inline
        // (busy lands on slot 0; `worker_busy` keeps one slot per pool
        // worker either way).
        let outs: Vec<WorkerOut> = if workers == 1 || probe.len <= self.config.sequential_cutoff {
            vec![probe_span(0, 1)]
        } else {
            pool.map(|w| probe_span(w, workers))
        };
        drop(probe_stage);
        if aborted.load(Ordering::Relaxed) {
            return Err(ExecError::OutputCap { rels: out_set, cap });
        }

        // ---- Merge stage: concatenate in worker order == morsel order,
        // onto the first worker's buffers (one worker: a move). ----
        let out_len: usize = outs.iter().map(|o| o.rows).sum();
        let batches: u64 = outs.iter().map(|o| o.batches).sum();
        for (slot, o) in run.busy.iter_mut().zip(&outs) {
            *slot += o.busy;
        }
        let mut outs = outs.into_iter();
        let mut cols = outs.next().map(|o| o.cols).unwrap_or_default();
        for o in outs {
            for (col, more) in cols.iter_mut().zip(&o.cols) {
                col.extend_from_slice(more);
            }
        }

        // Per-worker partial outputs are folded (summed) *before* the
        // observed selectivity is computed, so the feedback path always
        // sees the merged observation.
        let observed_sel = if probe.len == 0 || build.len == 0 {
            0.0
        } else {
            out_len as f64 / (probe.len as f64 * build.len as f64)
        };
        run.stats.push(ExecStats {
            rels: out_set,
            build_rows: build.len as u64,
            probe_rows: probe.len as u64,
            output_rows: out_len as u64,
            batches,
            est_rows,
            wall: Duration::ZERO, // filled by the caller around the join
        });
        run.joins.push(ObservedJoin {
            left: probe.set,
            right: build.set,
            edges,
            inputs: (probe.len as u64, build.len as u64),
            output: out_len as u64,
            observed_sel,
            est_rows,
        });
        Ok(Inter {
            set: out_set,
            len: out_len,
            rels: out_rels,
            cols,
        })
    }
}

/// [`filter`] over rows `lo..hi` of `side` on the kernel this machine has
/// (see [`filter_kernel`]).
fn filter_rows(
    seeds: Option<&[u64]>,
    side: &Side<'_>,
    lo: usize,
    hi: usize,
    bloom: &Bloom,
    survivors: &mut [u32],
    hashes: &mut [u64],
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(n) = lanes::filter(seeds, side, lo, hi, bloom, survivors, hashes) {
        return n;
    }
    filter_scalar(seeds, side, lo, hi, bloom, survivors, hashes)
}

/// [`fold_keys`] over rows `lo..hi` of `side`, likewise.
fn fold_rows(hashes: &mut [u64], side: &Side<'_>, lo: usize, hi: usize) {
    #[cfg(target_arch = "x86_64")]
    if lanes::fold_keys(hashes, side, lo, hi) {
        return;
    }
    with_keys!(side, lo, hi, |keys| fold_keys(hashes, keys))
}

/// The per-morsel pipeline over probe rows `lo..hi`: the fused [`filter`]
/// kernel, then the chained-table walk with value-by-value verification for
/// its survivors. Match pairs land in `scratch.matches` as `(global probe
/// row, build row)`, in (probe row, chain) order.
fn probe_morsel(
    access: &[EdgeAccess<'_>],
    table: &BuildTable,
    lo: usize,
    hi: usize,
    scratch: &mut ProbeScratch,
) {
    let len = hi - lo;
    let ProbeScratch {
        carry,
        survivors,
        hashes,
        keys,
        matches,
    } = scratch;
    let n = match access {
        // No crossing edge: every row survives with the bare seed, the hash
        // every build row carries — a guarded cross product.
        [] => {
            hashes[..len].fill(HASH_SEED);
            (0..len).for_each(|i| survivors[i] = i as u32);
            len
        }
        [only] => filter_rows(None, &only.probe, lo, hi, &table.bloom, survivors, hashes),
        [rest @ .., last] => {
            let carry = &mut carry[..len];
            carry.fill(HASH_SEED);
            for a in rest {
                fold_rows(carry, &a.probe, lo, hi);
            }
            filter_rows(
                Some(carry),
                &last.probe,
                lo,
                hi,
                &table.bloom,
                survivors,
                hashes,
            )
        }
    };
    // Stash the survivors' keys for the verification below.
    for (col, EdgeAccess { probe, .. }) in keys.iter_mut().zip(access) {
        for (k, &i) in col.iter_mut().zip(&survivors[..n]) {
            let row = lo + i as usize;
            *k = probe
                .keys
                .get(probe.rowids.map_or(row, |r| r[row] as usize));
        }
    }
    // Chain walk: reject on the stored composite hash first, then verify
    // every crossing edge value-for-value (the fold may collide, equality
    // may not).
    matches.clear();
    for (s, (&i, &h)) in survivors[..n].iter().zip(&hashes[..n]).enumerate() {
        let mut b = table.buckets[slot_of(h, table.shift)];
        while b != EMPTY {
            let row = b as usize;
            let mut edges = keys.iter().zip(&table.keys);
            if table.hashes[row] == h && edges.all(|(pk, bk)| pk[s] == bk[row]) {
                matches.push(((lo + i as usize) as u32, b));
            }
            b = table.next[row];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{materialize, GenConfig};
    use mpdp_core::query::RelInfo;
    use mpdp_cost::PgLikeCost;

    /// Two 4-row tables joining on a domain of 2: keys are deterministic, so
    /// the expected matches can be counted by hand from the generated data.
    #[test]
    fn two_way_join_matches_nested_loop_count() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(40.0, 1.0), RelInfo::new(30.0, 1.0)]);
        q.add_edge(0, 1, 0.5); // domain 2
        let d = materialize(&q, &GenConfig::default(), &m);
        let a = d.tables[0].keys[0].as_ref().unwrap();
        let b = d.tables[1].keys[0].as_ref().unwrap();
        let expected: usize = (0..d.tables[0].rows)
            .map(|ra| {
                (0..d.tables[1].rows)
                    .filter(|&rb| b.get(rb) == a.get(ra))
                    .count()
            })
            .sum();
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 40.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 30.0,
                cost: 1.0,
            }),
            rows: 40.0 * 30.0 * 0.5,
            cost: 10.0,
        };
        let ex = Executor::new(&d.scaled, &d, ExecConfig::default());
        let r = ex.execute(&plan).unwrap();
        assert_eq!(r.root_rows as usize, expected);
        assert_eq!(r.joins.len(), 1);
        assert_eq!(r.joins[0].output as usize, expected);
        assert_eq!(r.counters.joins, 1);
    }

    /// Morsel boundaries must not change results: a probe side that is not a
    /// multiple of the batch size still emits every match, and the morsel
    /// counter is exact — including when probe rows divide evenly (2500/1
    /// and a by-hand 2500-row check would hide an off-by-one there).
    #[test]
    fn batch_size_is_result_invariant() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(2_500.0, 1.0), RelInfo::new(1_333.0, 1.0)]);
        q.add_edge(0, 1, 1.0 / 37.0);
        let d = materialize(&q, &GenConfig::default(), &m);
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 2_500.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 1_333.0,
                cost: 1.0,
            }),
            rows: 2_500.0 * 1_333.0 / 37.0,
            cost: 10.0,
        };
        let mut outs = Vec::new();
        // 500 and 1250 divide 2500 exactly: the final morsel is full, the
        // boundary where a `<=`-shaped loop condition would double-count.
        for batch in [1usize, 7, 500, 1024, 1250, 1_000_000] {
            let ex = Executor::new(
                &d.scaled,
                &d,
                ExecConfig {
                    batch,
                    ..Default::default()
                },
            );
            let r = ex.execute(&plan).unwrap();
            outs.push(r.root_rows);
            let expected_batches = 2_500_u64.div_ceil(batch as u64);
            assert_eq!(r.stats.last().unwrap().batches, expected_batches);
        }
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    }

    /// Worker count must not change anything observable: output columns,
    /// per-operator stats, and observed selectivities are bit-identical
    /// from 1 to 8 workers (including workers > morsels).
    #[test]
    fn worker_count_is_result_invariant() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(5_000.0, 1.0), RelInfo::new(3_000.0, 1.0)]);
        q.add_edge(0, 1, 1.0 / 97.0);
        let d = materialize(
            &q,
            &GenConfig {
                seed: 11,
                ..Default::default()
            },
            &m,
        );
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 5_000.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 3_000.0,
                cost: 1.0,
            }),
            rows: 5_000.0 * 3_000.0 / 97.0,
            cost: 10.0,
        };
        let run = |workers: usize| {
            let ex = Executor::new(
                &d.scaled,
                &d,
                ExecConfig {
                    workers,
                    batch: 256,
                    ..Default::default()
                },
            );
            ex.execute_with_result(&plan).unwrap()
        };
        let (base_report, base_rows) = run(1);
        for workers in [2usize, 3, 8, 64] {
            let (report, rows) = run(workers);
            assert_eq!(rows, base_rows, "output diverged at {workers} workers");
            assert_eq!(report.root_rows, base_report.root_rows);
            let strip = |s: &[ExecStats]| {
                s.iter()
                    .map(|s| (s.rels, s.build_rows, s.probe_rows, s.output_rows, s.batches))
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip(&report.stats), strip(&base_report.stats));
            assert_eq!(report.worker_busy.len(), workers);
            assert_eq!(
                report.joins[0].observed_sel.to_bits(),
                base_report.joins[0].observed_sel.to_bits()
            );
        }
    }

    /// The small-probe sequential fast path must be invisible in results:
    /// runs on either side of (and exactly at) the cutoff boundary agree
    /// bit-for-bit with the pooled path at every worker count. Cutoff 0
    /// forces the pooled path, `usize::MAX` forces the inline path, and
    /// the probe-size cutoffs exercise the `<=` boundary itself.
    #[test]
    fn sequential_cutoff_is_result_invariant() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(5_000.0, 1.0), RelInfo::new(3_000.0, 1.0)]);
        q.add_edge(0, 1, 1.0 / 97.0);
        let d = materialize(
            &q,
            &GenConfig {
                seed: 11,
                ..Default::default()
            },
            &m,
        );
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 5_000.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 3_000.0,
                cost: 1.0,
            }),
            rows: 5_000.0 * 3_000.0 / 97.0,
            cost: 10.0,
        };
        let run = |workers: usize, cutoff: usize| {
            let ex = Executor::new(
                &d.scaled,
                &d,
                ExecConfig {
                    workers,
                    batch: 256,
                    sequential_cutoff: cutoff,
                    ..Default::default()
                },
            );
            ex.execute_with_result(&plan).unwrap()
        };
        let (base_report, base_rows) = run(1, 0);
        let strip = |s: &[ExecStats]| {
            s.iter()
                .map(|s| (s.rels, s.build_rows, s.probe_rows, s.output_rows, s.batches))
                .collect::<Vec<_>>()
        };
        for workers in [2usize, 4] {
            // Either relation may be the probe side; cutoffs bracket both
            // lengths so the `<=` boundary is crossed whichever it is.
            for cutoff in [0usize, 2_999, 3_000, 4_999, 5_000, usize::MAX] {
                let (report, rows) = run(workers, cutoff);
                assert_eq!(
                    rows, base_rows,
                    "output diverged at {workers} workers, cutoff {cutoff}"
                );
                assert_eq!(report.root_rows, base_report.root_rows);
                assert_eq!(strip(&report.stats), strip(&base_report.stats));
                assert_eq!(report.worker_busy.len(), workers);
                assert_eq!(
                    report.joins[0].observed_sel.to_bits(),
                    base_report.joins[0].observed_sel.to_bits()
                );
            }
        }
    }

    /// Armed tracing must be invisible in results: with a live tracer
    /// attached, the result set, per-operator stats, and observed
    /// selectivity are bit-identical to the untraced baseline at 1, 4 and
    /// 8 workers — and the drained trace carries the build/probe/morsel
    /// spans the join executed.
    #[test]
    fn armed_tracing_is_result_invariant() {
        use mpdp_obs::{sites, Tracer};
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(5_000.0, 1.0), RelInfo::new(3_000.0, 1.0)]);
        q.add_edge(0, 1, 1.0 / 97.0);
        let d = materialize(
            &q,
            &GenConfig {
                seed: 11,
                ..Default::default()
            },
            &m,
        );
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 5_000.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 3_000.0,
                cost: 1.0,
            }),
            rows: 5_000.0 * 3_000.0 / 97.0,
            cost: 10.0,
        };
        let config = |workers: usize| ExecConfig {
            workers,
            batch: 256,
            // Force the pooled path so worker threads record morsel spans.
            sequential_cutoff: 0,
            ..Default::default()
        };
        let (base_report, base_rows) = Executor::new(&d.scaled, &d, config(1))
            .execute_with_result(&plan)
            .unwrap();
        let strip = |s: &[ExecStats]| {
            s.iter()
                .map(|s| (s.rels, s.build_rows, s.probe_rows, s.output_rows, s.batches))
                .collect::<Vec<_>>()
        };
        for workers in [1usize, 4, 8] {
            let tracer = Tracer::armed(4_096);
            let root = tracer.begin_request(sites::REQUEST);
            let (report, rows) = Executor::new(&d.scaled, &d, config(workers))
                .with_trace(root.ctx())
                .execute_with_result(&plan)
                .unwrap();
            drop(root);
            assert_eq!(
                rows, base_rows,
                "traced output diverged at {workers} workers"
            );
            assert_eq!(strip(&report.stats), strip(&base_report.stats));
            assert_eq!(
                report.joins[0].observed_sel.to_bits(),
                base_report.joins[0].observed_sel.to_bits()
            );
            let spans = tracer.drain();
            let count_of = |s: mpdp_obs::Site| spans.iter().filter(|r| r.site == s).count();
            assert_eq!(count_of(sites::EXEC_BUILD), 1);
            assert_eq!(count_of(sites::EXEC_PROBE), 1);
            assert_eq!(count_of(sites::EXEC_MORSELS), workers);
            // Every morsel span nests under the probe span.
            let probe = spans.iter().find(|r| r.site == sites::EXEC_PROBE).unwrap();
            for rec in spans.iter().filter(|r| r.site == sites::EXEC_MORSELS) {
                assert_eq!(rec.parent, probe.span);
            }
        }
    }

    /// Uniform keys: observed selectivity matches the catalog estimate to
    /// within sampling error.
    #[test]
    fn observed_selectivity_tracks_estimate_on_uniform_keys() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(8_000.0, 1.0), RelInfo::new(8_000.0, 1.0)]);
        let sel = 1.0 / 200.0;
        q.add_edge(0, 1, sel);
        let d = materialize(
            &q,
            &GenConfig {
                seed: 3,
                ..Default::default()
            },
            &m,
        );
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 8_000.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 8_000.0,
                cost: 1.0,
            }),
            rows: 8_000.0 * 8_000.0 * sel,
            cost: 10.0,
        };
        let ex = Executor::new(&d.scaled, &d, ExecConfig::default());
        let r = ex.execute(&plan).unwrap();
        let obs = r.joins[0].observed_sel;
        assert!(
            (obs - sel).abs() / sel < 0.15,
            "observed {obs} vs estimated {sel}"
        );
        assert!(r.root_deviation() < 1.2, "{}", r.root_deviation());
    }

    #[test]
    fn output_cap_aborts_blowups() {
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(5_000.0, 1.0), RelInfo::new(5_000.0, 1.0)]);
        q.add_edge(0, 1, 1.0); // every pair matches (domain 1)
        let d = materialize(&q, &GenConfig::default(), &m);
        let plan = PlanTree::Join {
            left: Box::new(PlanTree::Scan {
                rel: 0,
                rows: 5_000.0,
                cost: 1.0,
            }),
            right: Box::new(PlanTree::Scan {
                rel: 1,
                rows: 5_000.0,
                cost: 1.0,
            }),
            rows: 25_000_000.0,
            cost: 10.0,
        };
        for workers in [1usize, 4] {
            let ex = Executor::new(
                &d.scaled,
                &d,
                ExecConfig {
                    max_output_rows: 10_000,
                    workers,
                    ..Default::default()
                },
            );
            match ex.execute(&plan) {
                Err(ExecError::OutputCap { cap, .. }) => assert_eq!(cap, 10_000),
                other => panic!("expected OutputCap at {workers} workers, got {other:?}"),
            }
        }
    }

    /// The blocked bloom filter never rejects a present hash, and at its
    /// 16-bits/row sizing rejects the bulk of absent ones — on the key
    /// shapes that break a careless choice of hash bits: random keys from a
    /// dense domain (what `materialize` produces), keys strided by a power
    /// of two, and interleaved arithmetic progressions. Hashes are the
    /// executor's own `fold`. Measured (`--nocapture`): 0.6–1.6 %; taking
    /// the in-word bits from one half of the hash instead of the xor-fold
    /// reads 3–8 % on the first shape or over 90 % on the second.
    #[test]
    fn bloom_has_no_false_negatives_and_few_false_positives() {
        type Keys = fn(u64) -> u64;
        let shapes: [(&str, Keys, Keys); 3] = [
            ("dense", |i| fold(1, i) % 56_000, |i| fold(2, i) % 56_000),
            (
                "strided",
                |i| (fold(1, i) % 56_000) << 12,
                |i| (fold(2, i) % 56_000) << 12,
            ),
            ("interleaved", |i| i * 3 + 1, |i| i * 3 + 2),
        ];
        for (shape, present, probe) in shapes {
            // 4096 fills the power-of-two sizing exactly (16 bits/row, the
            // worst case); 3000 and 7000 sit below a boundary.
            for rows in [3_000u64, 4_096, 7_000] {
                let built: std::collections::HashSet<u64> = (0..rows).map(present).collect();
                let mut bloom = Bloom::default();
                bloom.reset(rows as usize);
                for &k in &built {
                    bloom.insert(fold(HASH_SEED, k));
                }
                assert!(built.iter().all(|&k| bloom.may_contain(fold(HASH_SEED, k))));
                let absent: Vec<u64> = (0..100_000)
                    .map(probe)
                    .filter(|k| !built.contains(k))
                    .collect();
                let hits = absent
                    .iter()
                    .filter(|&&k| bloom.may_contain(fold(HASH_SEED, k)))
                    .count();
                let rate = hits as f64 / absent.len() as f64;
                println!(
                    "{shape}, {rows} rows: {:.2} % false positives",
                    rate * 100.0
                );
                assert!(rate < 0.03, "{shape}, {rows} rows: {rate}");
            }
        }
    }

    /// Prints the per-kernel cards of DESIGN §10 (ns per row, warm and
    /// cold): `cargo test --release -p mpdp-exec kernel_cards -- --ignored
    /// --nocapture`. Warm repeats one 30 k-row probe column; cold walks 512
    /// distinct columns (60 MB narrow, 120 MB wide), so every pass misses
    /// L2. Both sides draw from one domain eight times the 7 k build rows,
    /// like the benchmark's selective joins.
    #[test]
    #[ignore = "a measurement, not a check"]
    fn kernel_cards() {
        use std::hint::black_box;
        const ROWS: usize = 30_000;
        const BUILD: usize = 7_000;
        fn best(mut pass: impl FnMut(usize)) -> f64 {
            (0..7)
                .map(|rep| {
                    let t0 = Instant::now();
                    (0..512).for_each(|i| pass(rep * 512 + i));
                    t0.elapsed().as_secs_f64() * 1e9 / 512.0
                })
                .fold(f64::INFINITY, f64::min)
        }
        let key = |col: usize, row: usize| fold(col as u64, row as u64) % (8 * BUILD as u64);
        let narrow: Vec<KeyColumn> = (0..512)
            .map(|c| KeyColumn::U32((0..ROWS).map(|r| key(c, r) as u32).collect()))
            .collect();
        let wide: Vec<KeyColumn> = (0..512)
            .map(|c| KeyColumn::U64((0..ROWS).map(|r| key(c, r)).collect()))
            .collect();
        let build_keys = KeyColumn::U32((0..BUILD).map(|r| key(600, r) as u32).collect());
        let rowids: Vec<u32> = (0..ROWS as u32).map(|r| (r * 7919) % ROWS as u32).collect();
        fn side<'c>(
            keys: &'c KeyColumn,
            rowids: Option<&'c [u32]>,
            build: &'c KeyColumn,
        ) -> EdgeAccess<'c> {
            let (probe, build) = (
                Side { keys, rowids },
                Side {
                    keys: build,
                    rowids: None,
                },
            );
            EdgeAccess { probe, build }
        }
        let mut table = BuildTable::default();
        table.rebuild(&[side(&narrow[0], None, &build_keys)], BUILD);
        let mut scratch = ProbeScratch::default();
        scratch.fit(1, 1024);
        let mut probe = |name: &str, cols: &[KeyColumn], rowids: Option<&[u32]>| {
            let mut pass = |col: &KeyColumn| {
                let access = [side(col, rowids, &build_keys)];
                for lo in (0..ROWS).step_by(1024) {
                    probe_morsel(&access, &table, lo, (lo + 1024).min(ROWS), &mut scratch);
                    black_box(scratch.matches.len());
                }
            };
            let warm = best(|_| pass(&cols[0])) / ROWS as f64;
            let cold = best(|i| pass(&cols[i % 512])) / ROWS as f64;
            println!("probe morsel, {name}: {warm:.2} ns/row warm, {cold:.2} cold");
        };
        probe("u32 in place", &narrow, None);
        probe("u32 gathered", &narrow, Some(&rowids));
        probe("u64 in place", &wide, None);
        // The filter alone — same loop, no stash, no chain walk — on the
        // scalar kernel and on the lanes: per key shape at three survivor
        // rates (a hit carries a build row's key, a miss one past the
        // domain), seeded from a carry, in short morsels, and cold.
        type Kernel =
            fn(Option<&[u64]>, &Side<'_>, usize, usize, &Bloom, &mut [u32], &mut [u64]) -> usize;
        let kernels: [(&str, Kernel); 2] = [("scalar", filter_scalar), ("lanes", filter_rows)];
        let kernels = &kernels[..if filter_kernel() == "scalar" { 1 } else { 2 }];
        let carry = vec![HASH_SEED; 1024];
        let mut filter_card = |what: &str, cols: &[KeyColumn], rowids, seeded: bool, morsel| {
            print!("filter alone, {what}:");
            for &(name, kernel) in kernels {
                let ns = best(|i| {
                    let side = Side {
                        keys: &cols[i % cols.len()],
                        rowids,
                    };
                    for lo in (0..ROWS).step_by(morsel) {
                        let hi = (lo + morsel).min(ROWS);
                        let seeds = seeded.then_some(&carry[..hi - lo]);
                        let (s, h) = (&mut scratch.survivors, &mut scratch.hashes);
                        black_box(kernel(seeds, &side, lo, hi, &table.bloom, s, h));
                    }
                });
                print!(" {name} {:.2}", ns / ROWS as f64);
            }
            println!(" ns/row");
        };
        for per_mille in [15u64, 130, 1000] {
            let keys = (0..ROWS).map(|r| match fold(1, r as u64) % 1000 < per_mille {
                true => build_keys.get(fold(2, r as u64) as usize % BUILD),
                false => 8 * BUILD as u64 + key(3, r),
            });
            let k64 = [KeyColumn::U64(keys.clone().collect())];
            let k32 = [KeyColumn::U32(keys.map(|k| k as u32).collect())];
            for (shape, cols, rowids, seeded, morsel) in [
                ("u32 in place", &k32, None, false, 1024),
                ("u32 gathered", &k32, Some(&rowids[..]), false, 1024),
                ("u64 in place", &k64, None, false, 1024),
                ("u64 gathered", &k64, Some(&rowids[..]), false, 1024),
                ("u32 in place, seeded from a carry", &k32, None, true, 1024),
                ("u32 in place, morsels of 64", &k32, None, false, 64),
                ("u32 in place, morsels of 8", &k32, None, false, 8),
            ] {
                let what = format!("{shape}, {} % hits", per_mille as f64 / 10.0);
                filter_card(&what, cols, rowids, seeded, morsel);
            }
        }
        filter_card("u32 in place, cold", &narrow, None, false, 1024);
        filter_card("u32 gathered, cold", &narrow, Some(&rowids), false, 1024);
        filter_card("u64 in place, cold", &wide, None, false, 1024);
        // The carry pass of a multi-edge join.
        let mut carry = vec![HASH_SEED; ROWS];
        let keys = Side {
            keys: &narrow[0],
            rowids: None,
        };
        let scalar = best(|_| with_keys!(keys, 0, ROWS, |keys| fold_keys(&mut carry, keys)));
        let chosen = best(|_| fold_rows(&mut carry, &keys, 0, ROWS));
        println!(
            "fold_keys, u32 in place: scalar {:.2}, {} {:.2} ns/row",
            scalar / ROWS as f64,
            filter_kernel(),
            chosen / ROWS as f64
        );
        // Chain walk + output gather: every probe row hits (keys < BUILD).
        let hits = KeyColumn::U32(
            (0..ROWS)
                .map(|r| (key(1, r) % BUILD as u64) as u32)
                .collect(),
        );
        let access = [side(&hits, None, &build_keys)];
        let mut out: Vec<u32> = Vec::new();
        let (mut walk, mut gather) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..64 {
            out.clear();
            for lo in (0..ROWS).step_by(1024) {
                let t0 = Instant::now();
                probe_morsel(&access, &table, lo, (lo + 1024).min(ROWS), &mut scratch);
                let t1 = Instant::now();
                out.extend(scratch.matches.iter().map(|&(p, _)| rowids[p as usize]));
                walk += t1 - t0;
                gather += t1.elapsed();
            }
        }
        let per = |d: Duration| d.as_secs_f64() * 1e9 / (64.0 * ROWS as f64);
        println!(
            "all-hit morsel (filter + stash + walk): {:.2} ns/survivor; output gather {:.2} ns/cell",
            per(walk),
            per(gather)
        );
        // Build: reused buffers against a fresh table per join.
        let access = [side(&narrow[0], None, &build_keys)];
        let reused = best(|_| table.rebuild(&access, BUILD)) / BUILD as f64;
        let fresh = best(|_| BuildTable::default().rebuild(&access, BUILD)) / BUILD as f64;
        println!("build: {reused:.2} ns/row reusing the run's table, {fresh:.2} fresh");
        // What a join costs before its first row: a whole run of one join of
        // two 8-row tables (pool of one, no threads spawned).
        let m = PgLikeCost::new();
        let mut q = LargeQuery::new(vec![RelInfo::new(8.0, 1.0), RelInfo::new(8.0, 1.0)]);
        q.add_edge(0, 1, 0.5);
        let d = materialize(&q, &GenConfig::default(), &m);
        let scan = |rel| PlanTree::Scan {
            rel,
            rows: 8.0,
            cost: 1.0,
        };
        let plan = PlanTree::Join {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            rows: 8.0,
            cost: 1.0,
        };
        let ex = Executor::new(&d.scaled, &d, ExecConfig::default());
        let empty = best(|_| drop(black_box(ex.execute(&plan))));
        println!("one-join run of 8 x 8 rows: {empty:.0} ns");
    }
}
