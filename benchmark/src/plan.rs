//! The two planning workloads: `plan-exact` (exact DP on 10-20 relations,
//! the paper's optimization-time objective) and `plan-large` (heuristics on
//! 30-200 relations, its plan-quality objective).
//!
//! One caller thread walks a fixed grid of (query, strategy) cells, pass
//! after pass, until the measured time is up; every pass plans another
//! isomorphic copy of every query. Each cell keeps every sample; the time
//! of a cell is its median, and every reported timing is made of those
//! medians, so no slow pass, odd relabeling or host hiccup owns it.

use crate::checks::{close, validate_and_recost};
use crate::host::{reference_take, reference_tick, Slowdown};
use crate::inputs::relabel_by_seed;
use crate::metrics::Values;
use crate::rng::derive;
use crate::spans::{Name, Recorder, RequestSpans};
use crate::stats::{geomean, median, share};
use crate::{PhaseOutcome, Workload};
use mpdp::core::{Counters, LargeQuery, OptError, PlanTree, Profile};
use mpdp::cost::{CostModel, InputEst, PgLikeCost};
use mpdp::dp::OptContext;
use mpdp::parallel::level_par::{run_level_parallel, LevelAlgo};
use mpdp::workload::{gen, ImdbSchema, MusicBrainz};
use mpdp::{registry, Strategy};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark query with the shape family it reports under.
pub struct QuerySpec {
    pub name: String,
    pub shape: &'static str,
    /// The query as generated, the same at every seed.
    fixed: LargeQuery,
    /// Seed of this query's `COPIES` relabelings, the same at every seed.
    copies: u64,
    /// Which copy the run's seed starts this query's cycle at.
    first: u64,
    /// The isomorphic copy being planned: the set-up's, then one per pass.
    pub query: LargeQuery,
}

/// Isomorphic copies of each query a run cycles through, one per pass. A
/// 25 s run makes 20 passes or more, so it plans all of them.
///
/// Planning time and memory depend on the labels: under one-worker
/// level-parallel MPDP, `star-16` peaks at 8.8 MB on most relabelings and
/// at 11.8 MB on one in twelve (the arena appends a cell per
/// *improvement*, the labels set the order candidates arrive in, and now
/// and then that takes one more doubling segment). A run that drew its own
/// relabelings reported a peak of 12 MB if it happened to draw such a one
/// and 9 MB if not. So the copies are fixed, every run plans all of them,
/// and the seed decides where in its cycle each query starts, i.e. which
/// copies meet in a pass and in what order they come.
const COPIES: u64 = 12;

impl QuerySpec {
    /// Moves on to the `nth` copy of this run's cycle.
    fn relabel(&mut self, nth: u64) {
        let copy = (self.first + nth) % COPIES;
        self.query = relabel_by_seed(&self.fixed, derive(self.copies, copy));
    }
}

/// A fixed query, at the copy this run's seed starts it at.
fn spec(shape: &'static str, n: usize, fixed: LargeQuery, seed: u64) -> QuerySpec {
    let name = format!("{shape}-{n}");
    // The name's bytes give each query a lane of its own.
    let lane = name.bytes().fold(0u64, |h, b| h * 131 + b as u64);
    let mut q = QuerySpec {
        query: fixed.clone(),
        fixed,
        copies: derive(crate::inputs::POOL_SEED, lane),
        first: derive(seed, lane) % COPIES,
        name,
        shape,
    };
    q.relabel(0);
    q
}

/// The `plan-exact` grid. The generator seeds below pick each query
/// (snowflake branching, schema random walks, statistics) once and for all:
/// each is a middle-of-the-road draw of its size (12 draws were timed; DP
/// time spans 4-120 ms across draws of `job-17` alone), and together one
/// pass over the 48 cells takes a little over a second on this host.
pub fn exact_queries(seed: u64, model: &dyn CostModel) -> Vec<QuerySpec> {
    let mb = MusicBrainz::new();
    let job = ImdbSchema::new();
    let q = |shape, n, fixed| spec(shape, n, fixed, seed);
    vec![
        q("star", 14, gen::star(14, 1, model)),
        q("star", 16, gen::star(16, 1, model)),
        q("snowflake", 16, gen::snowflake(16, 4, 1, model)),
        q("snowflake", 20, gen::snowflake(20, 4, 7, model)),
        q("clique", 10, gen::clique(10, 1, model)),
        q("clique", 11, gen::clique(11, 1, model)),
        q("musicbrainz", 16, mb.random_walk_query(16, 7, true, model)),
        q("musicbrainz", 18, mb.random_walk_query(18, 12, true, model)),
        q("job", 12, job.query(12, 7, model)),
        q("job", 17, job.query(17, 8, model)),
        q("cycle", 18, gen::cycle(18, 1, model)),
        q("chain", 20, gen::chain(20, 1, model)),
    ]
}

/// The `plan-large` grid (topologies fixed the same way).
pub fn large_queries(seed: u64, model: &dyn CostModel) -> Vec<QuerySpec> {
    let mb = MusicBrainz::new();
    let q = |shape, n, fixed| spec(shape, n, fixed, seed);
    vec![
        q("snowflake", 40, gen::snowflake(40, 4, 1, model)),
        q("snowflake", 100, gen::snowflake(100, 4, 1, model)),
        q("snowflake", 200, gen::snowflake(200, 4, 1, model)),
        q("star", 30, gen::star(30, 1, model)),
        q("star", 60, gen::star(60, 1, model)),
        q("musicbrainz", 30, mb.random_walk_query(30, 1, true, model)),
        q("musicbrainz", 50, mb.random_walk_query(50, 1, true, model)),
    ]
}

/// How a cell's strategy is invoked.
enum Runner {
    /// A registry strategy, by the paper's series label.
    Named(Arc<dyn Strategy>),
    /// `mpdp_parallel::level_par` with this many *real* worker threads. The
    /// registry's `MPDP (nCPU)` adapter runs one worker and reports a model
    /// time; `parallel.speedup` wants the real wall, so the benchmark calls
    /// the public function underneath.
    LevelParallel(usize),
}

pub struct Strat {
    /// Short key used in per-layer metric names.
    pub key: &'static str,
    pub label: String,
    runner: Runner,
    /// Whether the strategy's cells count in the end-to-end timings (the
    /// real-thread one is a per-layer probe of traced runs only).
    end_to_end: bool,
}

/// What one plan call returned, in one shape for both runners.
struct Outcome {
    plan: PlanTree,
    cost: f64,
    /// The program's own clock for the optimizer run.
    wall: Duration,
    /// Model/simulator prediction (`MPDP (GPU)` only differs from `wall`).
    reported: Duration,
    counters: Option<Counters>,
    profile: Option<Profile>,
}

impl Strat {
    fn named(key: &'static str, label: &str) -> Strat {
        Strat {
            key,
            label: label.to_string(),
            end_to_end: true,
            runner: Runner::Named(
                registry()
                    .get(label)
                    .unwrap_or_else(|| panic!("registry has no strategy {label}")),
            ),
        }
    }

    fn run(&self, q: &LargeQuery, model: &dyn CostModel) -> Result<Outcome, OptError> {
        match &self.runner {
            Runner::Named(s) => s.plan(q, model, None).map(|p| Outcome {
                plan: p.plan,
                cost: p.cost,
                wall: p.wall,
                reported: p.reported,
                counters: p.counters,
                profile: p.profile,
            }),
            Runner::LevelParallel(threads) => {
                let qi = q.to_query_info().ok_or(OptError::TooLarge {
                    got: q.num_rels(),
                    max: mpdp::EXACT_MAX_RELS,
                })?;
                let ctx = OptContext::new(&qi, model);
                let start = Instant::now();
                let r = run_level_parallel(&ctx, LevelAlgo::Mpdp, *threads)?;
                let wall = start.elapsed();
                Ok(Outcome {
                    plan: r.plan,
                    cost: r.cost,
                    wall,
                    reported: wall,
                    counters: Some(r.counters),
                    profile: Some(r.profile),
                })
            }
        }
    }
}

/// The four registry strategies of `plan-exact`; with `layers`, also
/// level-parallel MPDP on `cores` real threads. That one is kept out of the
/// end-to-end run: two threads crossing a barrier per level on two shared
/// vCPUs run at the pace of the hypervisor (`chain-20` took 1 ms in one run
/// and 18 ms in the next), which moved `plan_ms_geomean` of one build by
/// 19 % between sets of ten runs, and its peak memory depends on thread
/// timing, so `peak_rss_mb` read 12 MB or 17 MB. The registry's
/// `MPDP (nCPU)` runs the same backend on one worker.
pub fn exact_strategies(cores: usize, layers: bool) -> Vec<Strat> {
    let mut strats = vec![
        Strat::named("dpccp", "DPCCP (1CPU)"),
        Strat::named("mpdp", "MPDP"),
        Strat::named("mpdp-cpu", &format!("MPDP ({cores}CPU)")),
        Strat::named("mpdp-gpu", "MPDP (GPU)"),
    ];
    if layers {
        strats.push(Strat {
            key: "mpdp-par",
            label: format!("MPDP ({cores} threads)"),
            runner: Runner::LevelParallel(cores),
            end_to_end: false,
        });
    }
    strats
}

pub fn large_strategies() -> Vec<Strat> {
    vec![
        Strat::named("goo", "GOO"),
        Strat::named("ikkbz", "IKKBZ"),
        Strat::named("lindp", "LinDP"),
        Strat::named("idp2", "IDP2-MPDP (15)"),
        Strat::named("uniondp", "UnionDP-MPDP (15)"),
    ]
}

/// One (query, strategy) cell: the verified reference from set-up and every
/// sample of the measured phase.
struct Cell {
    query: usize,
    strat: usize,
    /// Cost returned by the warm-up call, verified in `verify`.
    cost: f64,
    /// Cost returned in the current pass (NaN if the call failed).
    pass_cost: f64,
    /// Over the phase's calls: sum of `ln(cost / best cost any strategy
    /// found for the same copy of the query)`, their count, the largest.
    ratio: (f64, u64, f64),
    /// Client-observed call time, ms, and its median once the phase is over.
    samples_ms: Vec<f64>,
    median_ms: f64,
    /// `Outcome::reported`, ms (the GPU model time where it is a model).
    reported_ms: Vec<f64>,
    counters: Option<Counters>,
    profile: Option<Profile>,
}

pub struct PlanWorkload {
    exact: bool,
    model: PgLikeCost,
    queries: Vec<QuerySpec>,
    strats: Vec<Strat>,
    cells: Vec<Cell>,
    /// Plans whose set-up verification failed (each also fails its calls).
    broken: Vec<String>,
    /// Passes made so far, the set-up's included: where the cycle of copies
    /// stands.
    passes: u64,
    setup_slowdown: Slowdown,
}

impl PlanWorkload {
    /// Set-up: generate the queries and run one unmeasured pass over every
    /// cell (first-touch allocation, lazy registry, page faults), whose
    /// results become each cell's reference output.
    /// `layers`: the run reports per-layer metrics (see `exact_strategies`).
    pub fn set_up(exact: bool, seed: u64, layers: bool) -> PlanWorkload {
        reference_take();
        let model = PgLikeCost::new();
        let (queries, strats) = if exact {
            (
                exact_queries(seed, &model),
                exact_strategies(crate::host::cores(), layers),
            )
        } else {
            (large_queries(seed, &model), large_strategies())
        };
        let mut w = PlanWorkload {
            exact,
            model,
            queries,
            strats,
            cells: Vec::new(),
            broken: Vec::new(),
            passes: 1,
            setup_slowdown: Slowdown::default(),
        };
        for query in 0..w.queries.len() {
            for strat in 0..w.strats.len() {
                let cost = match w.strats[strat].run(&w.queries[query].query, &w.model) {
                    Ok(out) => {
                        if let Err(why) = w.verify(query, &out) {
                            w.broken.push(format!(
                                "{} / {}: {why}",
                                w.queries[query].name, w.strats[strat].label
                            ));
                            f64::NAN
                        } else {
                            out.cost
                        }
                    }
                    Err(e) => {
                        w.broken.push(format!(
                            "{} / {}: {e}",
                            w.queries[query].name, w.strats[strat].label
                        ));
                        f64::NAN
                    }
                };
                w.cells.push(Cell {
                    query,
                    strat,
                    cost,
                    pass_cost: f64::NAN,
                    ratio: (0.0, 0, 0.0),
                    samples_ms: Vec::new(),
                    median_ms: 0.0,
                    reported_ms: Vec::new(),
                    counters: None,
                    profile: None,
                });
                reference_tick();
            }
        }
        w.verify_across_cells();
        w.setup_slowdown = reference_take();
        w
    }

    /// A plan is right when it is a valid join tree of its query and the
    /// cost it claims is the cost its own shape re-derives to.
    fn verify(&self, query: usize, out: &Outcome) -> Result<(), String> {
        let recost = validate_and_recost(&out.plan, &self.queries[query].query, &self.model)?;
        if !close(recost, out.cost, 1e-9) {
            return Err(format!(
                "claimed cost {} but the plan re-derives to {recost}",
                out.cost
            ));
        }
        Ok(())
    }

    /// `plan-exact` only: every strategy must return the bit-identical cost
    /// for a query (DPCCP and MPDP enumerate differently, so agreement is an
    /// oracle for optimality), and that cost must be the committed one: every
    /// seed and pass plans an isomorphic copy of the same query, so the
    /// optimum is the same number throughout.
    fn verify_across_cells(&mut self) {
        if !self.exact {
            return;
        }
        let expected = expected_costs();
        for (qi, q) in self.queries.iter().enumerate() {
            let costs: Vec<f64> = self
                .cells
                .iter()
                .filter(|c| c.query == qi)
                .map(|c| c.cost)
                .collect();
            if costs.iter().any(|c| c.to_bits() != costs[0].to_bits()) {
                self.broken
                    .push(format!("{}: strategies disagree on cost {costs:?}", q.name));
            }
            match expected.iter().find(|(name, _)| *name == q.name) {
                Some((_, want)) if close(*want, costs[0], 1e-9) => {}
                Some((_, want)) => self.broken.push(format!(
                    "{}: cost {} differs from the committed {want}",
                    q.name, costs[0]
                )),
                None => self
                    .broken
                    .push(format!("{}: no committed expected cost", q.name)),
            }
        }
    }

    /// `query<TAB>cost` lines for `expected/plan_costs_seed42.tsv`.
    pub fn expected_tsv(&self) -> String {
        let mut out = String::from("# query\toptimal cost (PgLikeCost), the same at every seed\n");
        for (qi, q) in self.queries.iter().enumerate() {
            let cost = self.cells.iter().find(|c| c.query == qi).unwrap().cost;
            out.push_str(&format!("{}\t{cost:e}\n", q.name));
        }
        out
    }

    /// Geomean of the per-cell median over the cells `keep` selects.
    fn geomean_ms(&self, keep: impl Fn(&Cell) -> bool) -> f64 {
        geomean(
            self.cells
                .iter()
                .filter(|c| keep(c) && !c.samples_ms.is_empty())
                .map(|c| c.median_ms),
        )
    }

    /// Ends a pass: every cell's cost over the best cost any strategy found
    /// for the same copy of its query (exactly 1 everywhere on `plan-exact`).
    fn note_cost_ratios(&mut self) {
        for qi in 0..self.queries.len() {
            let of_query = |c: &&mut Cell| c.query == qi && c.pass_cost.is_finite();
            let best = self
                .cells
                .iter_mut()
                .filter(of_query)
                .map(|c| c.pass_cost)
                .fold(f64::INFINITY, f64::min);
            for c in self.cells.iter_mut().filter(of_query) {
                let ratio = c.pass_cost / best;
                c.ratio = (c.ratio.0 + ratio.ln(), c.ratio.1 + 1, c.ratio.2.max(ratio));
            }
        }
    }

    /// Geomean over the phase's calls of the cells `keep` selects of each
    /// call's cost ratio.
    fn cost_ratio_geomean(&self, keep: impl Fn(&Cell) -> bool) -> f64 {
        let (ln_sum, n) = self
            .cells
            .iter()
            .filter(|c| keep(c))
            .fold((0.0, 0u64), |(s, n), c| (s + c.ratio.0, n + c.ratio.1));
        (ln_sum / n.max(1) as f64).exp()
    }
}

fn expected_costs() -> Vec<(String, f64)> {
    include_str!("../expected/plan_costs_seed42.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, cost) = l.split_once('\t')?;
            Some((name.to_string(), cost.trim().parse().ok()?))
        })
        .collect()
}

impl Workload for PlanWorkload {
    fn setup_slowdown(&self) -> Slowdown {
        self.setup_slowdown
    }

    fn run_phase(&mut self, seconds: f64, traced: bool) -> PhaseOutcome {
        reference_take();
        for c in &mut self.cells {
            c.samples_ms.clear();
            c.reported_ms.clear();
            c.ratio = (0.0, 0, 0.0);
        }
        let mut out = PhaseOutcome::default();
        let mut recorder = Recorder::default();
        let mut req = RequestSpans::default();
        let epoch = Instant::now();
        let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        // Whole passes only, so every cell has the same number of samples.
        while epoch.elapsed().as_secs_f64() < seconds {
            for q in &mut self.queries {
                q.relabel(self.passes);
            }
            self.passes += 1;
            for i in 0..self.cells.len() {
                let (qi, si) = (self.cells[i].query, self.cells[i].strat);
                let query = &self.queries[qi].query;
                let start = Instant::now();
                let result = self.strats[si].run(black_box(query), &self.model);
                let end = Instant::now();
                let took = end - start;
                out.attempted += 1;
                // Right means: a valid join tree of this copy of the query
                // whose shape re-derives the cost it claims, and on
                // `plan-exact` that cost is the verified optimum again.
                let checked = result.ok().filter(|o| {
                    validate_and_recost(&o.plan, query, &self.model)
                        .is_ok_and(|recost| close(recost, o.cost, 1e-9))
                        && (!self.exact || close(o.cost, self.cells[i].cost, 1e-9))
                });
                let cell = &mut self.cells[i];
                match checked {
                    Some(o) => {
                        cell.pass_cost = o.cost;
                        cell.samples_ms.push(took.as_secs_f64() * 1e3);
                        cell.reported_ms.push(o.reported.as_secs_f64() * 1e3);
                        if traced {
                            req.begin(out.attempted);
                            let root = req.push(Name::Request, 0, ns(start), ns(end));
                            // The program's own optimizer clock, placed at
                            // the end of the call (conversion to the bitmap
                            // form precedes it inside `Strategy::plan`).
                            let wall = (o.wall.as_nanos() as u64).min(ns(end) - ns(start));
                            req.push(Name::Strategy, root, ns(end) - wall, ns(end));
                            recorder.record(&req);
                        }
                        cell.counters = o.counters;
                        cell.profile = o.profile;
                        black_box(o.plan);
                    }
                    None => {
                        cell.pass_cost = f64::NAN;
                        out.failed += 1;
                    }
                }
                reference_tick();
            }
            self.note_cost_ratios();
        }
        out.elapsed_s = epoch.elapsed().as_secs_f64();
        out.slowdown = reference_take();
        for c in &mut self.cells {
            c.median_ms = median(&mut c.samples_ms);
        }
        out.invariant_failures = self.broken.clone();
        if !self.broken.is_empty() {
            // A cell that failed verification fails every call made on it.
            out.failed = out.failed.max(1);
        }

        // Every timing is made of the per-cell medians over the passes, and
        // divided by how much slower than nominal the host ran the reference
        // work between the calls (`host::reference_tick`). A percentile over
        // 35-48 deliberately different cells would sit in a gap of the
        // distribution, so the typical call is the mean over cells and the
        // p99 the slowest cell (a pass has fewer than 100 calls, so that is
        // its nearest-rank p99).
        let slow = out.slowdown.factor();
        let end_to_end = |c: &Cell| self.strats[c.strat].end_to_end;
        let timed: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| end_to_end(c) && !c.samples_ms.is_empty())
            .map(|c| c.median_ms)
            .collect();
        let mean_ms = share(timed.iter().sum(), timed.len() as f64) / slow;
        let v = &mut out.values;
        v.set("throughput_per_s", share(1e3, mean_ms));
        v.set("latency_mean_us", mean_ms * 1e3);
        v.set(
            "latency_p99_us",
            timed.iter().copied().fold(0.0, f64::max) * 1e3 / slow,
        );
        v.set("plan_ms_geomean", self.geomean_ms(end_to_end) / slow);
        v.set("plan_cost_ratio_geomean", self.cost_ratio_geomean(|_| true));
        out.samples_beyond_p99 = self
            .cells
            .iter()
            .map(|c| c.samples_ms.len())
            .max()
            .unwrap_or(0);
        if traced {
            self.layer_values(&recorder, v);
        }
        out.recorder = recorder;
        out
    }
}

impl PlanWorkload {
    fn layer_values(&self, recorder: &Recorder, v: &mut Values) {
        let key_of = |c: &Cell| self.strats[c.strat].key;
        if self.exact {
            // Counts of the last pass (`dp.*` repeat exactly on every pass;
            // memo probes move a little with the labels).
            let mut total = Counters::default();
            let (mut probes, mut retries, mut loads) = (0u64, 0u64, Vec::new());
            for c in &self.cells {
                if let Some(k) = &c.counters {
                    total.merge(k);
                }
                if let Some(p) = &c.profile {
                    probes += p.levels.iter().map(|l| l.memo_probes).sum::<u64>();
                    retries += p.levels.iter().map(|l| l.cas_retries).sum::<u64>();
                    loads.extend(p.memo.map(|m| m.load_factor()));
                }
            }
            let pass_s: f64 = self.cells.iter().map(|c| c.median_ms / 1e3).sum();
            v.set("dp.ccp", total.ccp as f64);
            v.set("dp.evaluated", total.evaluated as f64);
            v.set("dp.sets", total.sets as f64);
            v.set("dp.evaluated_per_ccp", total.inefficiency());
            v.set("dp.ccp_per_s", share(total.ccp as f64, pass_s));
            v.set(
                "memo.probes_per_ccp",
                share(probes as f64, total.ccp as f64),
            );
            v.set("memo.cas_retries", retries as f64);
            v.set(
                "memo.load",
                share(loads.iter().sum::<f64>(), loads.len() as f64),
            );
            for (key, name) in [
                ("dpccp", "strategy.dpccp.plan_ms_geomean"),
                ("mpdp", "strategy.mpdp.plan_ms_geomean"),
                ("mpdp-cpu", "strategy.mpdp-cpu.plan_ms_geomean"),
                ("mpdp-par", "strategy.mpdp-par.plan_ms_geomean"),
                ("mpdp-gpu", "strategy.mpdp-gpu.plan_ms_geomean"),
            ] {
                v.set(name, self.geomean_ms(|c| key_of(c) == key));
            }
            for (shape, name) in [
                ("star", "shape.star.plan_ms_geomean"),
                ("snowflake", "shape.snowflake.plan_ms_geomean"),
                ("clique", "shape.clique.plan_ms_geomean"),
                ("musicbrainz", "shape.musicbrainz.plan_ms_geomean"),
                ("job", "shape.job.plan_ms_geomean"),
                ("cycle", "shape.cycle.plan_ms_geomean"),
                ("chain", "shape.chain.plan_ms_geomean"),
            ] {
                v.set(
                    name,
                    self.geomean_ms(|c| {
                        self.queries[c.query].shape == shape && self.strats[c.strat].end_to_end
                    }),
                );
            }
            // Real threads on both sides: sequential MPDP wall over the
            // level-parallel wall, per query, then the geomean.
            let median_of = |q: usize, key: &str| {
                self.cells
                    .iter()
                    .find(|c| c.query == q && key_of(c) == key)
                    .map_or(0.0, |c| c.median_ms)
            };
            v.set(
                "parallel.speedup",
                geomean(
                    (0..self.queries.len())
                        .map(|q| median_of(q, "mpdp") / median_of(q, "mpdp-par"))
                        .filter(|r| r.is_finite() && *r > 0.0),
                ),
            );
            v.set(
                "gpu.sim_wall_ms_geomean",
                self.geomean_ms(|c| key_of(c) == "mpdp-gpu"),
            );
            // The simulated device time: a model, never a claim (no GPU).
            v.set(
                "gpu.model_ms_geomean",
                geomean(
                    self.cells
                        .iter()
                        .filter(|c| key_of(c) == "mpdp-gpu" && !c.reported_ms.is_empty())
                        .map(|c| median(&mut c.reported_ms.clone())),
                ),
            );
        } else {
            for (key, time, quality) in [
                (
                    "goo",
                    "heur.goo.plan_ms_geomean",
                    "heur.goo.cost_ratio_geomean",
                ),
                (
                    "ikkbz",
                    "heur.ikkbz.plan_ms_geomean",
                    "heur.ikkbz.cost_ratio_geomean",
                ),
                (
                    "lindp",
                    "heur.lindp.plan_ms_geomean",
                    "heur.lindp.cost_ratio_geomean",
                ),
                (
                    "idp2",
                    "heur.idp2.plan_ms_geomean",
                    "heur.idp2.cost_ratio_geomean",
                ),
                (
                    "uniondp",
                    "heur.uniondp.plan_ms_geomean",
                    "heur.uniondp.cost_ratio_geomean",
                ),
            ] {
                v.set(time, self.geomean_ms(|c| key_of(c) == key));
                v.set(quality, self.cost_ratio_geomean(|c| key_of(c) == key));
            }
            v.set(
                "heur.cost_ratio_max",
                self.cells.iter().map(|c| c.ratio.2).fold(0.0, f64::max),
            );
        }
        // Each cell in its own row, for reading a geomean apart.
        for c in &self.cells {
            println!(
                "# cell {} {} median_ms {:.4} samples {}",
                self.queries[c.query].name,
                self.strats[c.strat].label.replace(' ', ""),
                c.median_ms,
                c.samples_ms.len()
            );
        }
        v.set("cost.join_cost_ns", join_cost_ns(&self.model));
        crate::self_time_values(recorder, v);
    }
}

/// Direct call loop over `CostModel::join_cost` with varying inputs.
fn join_cost_ns(model: &dyn CostModel) -> f64 {
    const CALLS: u64 = 2_000_000;
    let start = Instant::now();
    let mut acc = 0.0;
    for i in 0..CALLS {
        let rows = 1_000.0 + (i % 1_024) as f64 * 977.0;
        let left = InputEst {
            cost: rows * 1.5,
            rows,
        };
        let right = InputEst {
            cost: 300.0 + rows,
            rows: 50_000.0 - rows * 0.01,
        };
        acc += model.join_cost(black_box(left), black_box(right), rows * 0.37);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / CALLS as f64
}
