//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [..]     experiments: fig2 fig4 fig6 fig7 fig8 fig9
//!                             fig10 fig11 fig12 fig13 ablation table1
//!                             table2 table3 bench exec trace; `all` (also
//!                             the default) is every one of them but trace
//! --emit-json <path>          (bench) write per-run times and counters as
//!                             JSON; (trace) write the Chrome-trace artifact
//! --check-against <path>      (bench) compare every count of every run with
//!                             a committed bench JSON, to the digit; exit 1
//!                             and name each mismatching cell on stderr
//! --queries <n>               (trace) stream length (default 1000)
//! --queries-small             (trace) reduced template set for CI smoke
//! bench                       the tier-1 roster on chain/star/cycle/fig5:
//!                             times and counters per algorithm
//! exec                        execute every strategy's plan on materialized
//!                             tables: modeled cost vs measured runtime
//! trace                       replay a stream with the span tracer armed:
//!                             submit through a cluster-backed ServeFront,
//!                             execute every served plan with the request's
//!                             span context, then emit the flamegraph table,
//!                             the slow-request span trees and (--emit-json)
//!                             a Chrome-trace artifact; exits 1 unless ≥95%
//!                             of request traces are complete
//!                             (admission → route → planning → executor)
//! REPRO_SCALE={quick,paper}   sweep sizes (default quick)
//! REPRO_TIMEOUT_MS=<ms>       per-query optimization budget
//! ```
//!
//! An unknown experiment or flag exits 2 before anything runs. Timings of
//! the serving, cluster and executor tiers are not measured here: that is
//! `benchmark/run.sh` (see `BENCHMARK.json`).
//!
//! Output is tab-separated, one block per figure, with a header naming the
//! series exactly as in the paper. Times marked `[model]` are hardware-model
//! or SIMT-simulated predictions (see DESIGN.md §2); unmarked times are
//! wall-clock measurements on this machine.

use mpdp::registry;
use mpdp_bench::aws;
use mpdp_bench::regress::exact_mismatches;
use mpdp_bench::runner::{figure5_query, run_exact, AlgoKind, EXACT_ROSTER};
use mpdp_bench::scale::Scale;
use mpdp_bench::starform;
use mpdp_bench::stats::{fmt_ms, mean, percentile};
use mpdp_core::{LargeQuery, OptError, QueryInfo};
use mpdp_cost::pglike::PgLikeCost;
use mpdp_parallel::hwmodel::{Calibration, CpuModel};
use mpdp_workload::{gen, ImdbSchema, MusicBrainz};
use std::collections::HashSet;
use std::time::Duration;

/// What `all` (and no argument) runs, in order.
const ALL: [&str; 16] = [
    "fig2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ablation",
    "table1", "table2", "table3", "bench", "exec",
];

/// A command line `repro` cannot act on: says what and what would have been
/// valid, on stderr, and exits 2.
fn usage_error(what: &str) -> ! {
    eprintln!("error: {what}");
    eprintln!("experiments: {} trace all", ALL.join(" "));
    eprintln!("flags: --emit-json <path> --check-against <path> --queries <n> --queries-small");
    std::process::exit(2);
}

fn main() {
    let mut what: Vec<String> = Vec::new();
    let mut emit_json: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut queries: usize = 1_000;
    let mut queries_small = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{a} requires a value")))
        };
        match a.as_str() {
            "--emit-json" => emit_json = Some(value()),
            "--check-against" => check_against = Some(value()),
            "--queries" => {
                queries = match value().parse() {
                    Ok(n) if n >= 1 => n,
                    _ => usage_error("--queries requires a positive integer"),
                }
            }
            "--queries-small" => queries_small = true,
            "all" => what.extend(ALL.map(String::from)),
            name if name == "trace" || ALL.contains(&name) => what.push(name.to_owned()),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag: {flag}")),
            other => usage_error(&format!("unknown experiment: {other}")),
        }
    }
    if what.is_empty() {
        what.extend(ALL.map(String::from));
    }
    let scale = Scale::from_env();
    println!(
        "# MPDP reproduction harness — scale={scale:?}, timeout={:?}",
        scale.timeout()
    );
    for w in &what {
        match w.as_str() {
            "fig2" => fig2(scale),
            "fig4" => fig4(scale),
            "fig6" => exact_sweep(scale, "fig6", "star", scale.exact_sizes()),
            "fig7" => exact_sweep(scale, "fig7", "snowflake", scale.exact_sizes()),
            "fig8" => exact_sweep(scale, "fig8", "clique", scale.clique_sizes()),
            "fig9" => exact_sweep(scale, "fig9", "musicbrainz", scale.exact_sizes()),
            "fig10" => fig10(scale),
            "fig11" => fig11(scale),
            "fig12" => fig12(scale),
            "fig13" => fig13(scale),
            "ablation" => ablation(scale),
            "bench" => bench(emit_json.as_deref(), check_against.as_deref()),
            "exec" => exec_experiment(),
            "trace" => trace_experiment(queries, queries_small, emit_json.as_deref()),
            "table1" => heuristic_table(scale, "table1", "snowflake", scale.table1_sizes()),
            "table2" => heuristic_table(scale, "table2", "star", scale.table2_sizes()),
            "table3" => heuristic_table(scale, "table3", "clique", scale.table3_sizes()),
            other => unreachable!("{other} passed the argument check"),
        }
    }
}

fn make_query(kind: &str, n: usize, seed: u64, model: &PgLikeCost) -> LargeQuery {
    match kind {
        "star" => gen::star(n, seed, model),
        "snowflake" => gen::snowflake(n, 4, seed, model),
        "clique" => gen::clique(n, seed, model),
        "musicbrainz" => MusicBrainz::new().random_walk_query(n, seed, true, model),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------- fig 2

/// Figure 2: normalized evaluated Join-Pairs vs parallelizability on a
/// 20-relation MusicBrainz query.
fn fig2(scale: Scale) {
    println!(
        "\n## Figure 2 — evaluated Join-Pairs normalized to CCP pairs (20-rel MusicBrainz query)"
    );
    println!("algorithm\tnorm_evaluated\tparallelizability");
    let model = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let n = if scale == Scale::Quick { 16 } else { 20 };
    let q = mb
        .random_walk_query(n, 42, true, &model)
        .to_query_info()
        .unwrap();
    let budget = Duration::from_secs(120).max(scale.timeout());
    let series: [(AlgoKind, &str); 5] = [
        (AlgoKind::PostgresDpSize, "medium"),
        (AlgoKind::DpSubSeq, "high"),
        (AlgoKind::DpCcp, "sequential"),
        (AlgoKind::Dpe24, "medium"),
        (AlgoKind::MpdpSeq, "high"),
    ];
    for (kind, par) in series {
        match run_exact(kind, &q, &model, budget) {
            Ok(r) => println!(
                "{}\t{:.2}\t{}",
                kind.name(),
                r.counters.evaluated as f64 / r.counters.ccp.max(1) as f64,
                par
            ),
            Err(e) => println!("{}\t-\t{par}\t# {e}", kind.name()),
        }
    }
    println!("# GPU variants evaluate the same pairs as their CPU counterparts (DPSub(GPU)=DPSub, MPDP(GPU)=MPDP).");
}

// ---------------------------------------------------------------- fig 4

/// Figure 4: DPSUB EvaluatedCounter vs CCP-Counter on stars, 2–25 relations
/// (closed form, cross-validated against real runs in the test suite).
fn fig4(_scale: Scale) {
    println!("\n## Figure 4 — DPSUB counters on star queries (closed form)");
    println!("n\tCCPCounter\tEvaluatedCounter\tratio");
    for n in 2..=25usize {
        let (ev, ccp) = starform::dpsub_star_counters(n);
        println!("{n}\t{ccp}\t{ev}\t{:.1}", ev as f64 / ccp.max(1) as f64);
    }
}

// ------------------------------------------------------- figs 6, 7, 8, 9

/// Figures 6–9: optimization time sweeps. Once an algorithm times out at a
/// size, it is dropped for larger sizes (paper convention: missing points).
fn exact_sweep(scale: Scale, fig: &str, workload: &str, sizes: Vec<usize>) {
    println!(
        "\n## {} — optimization times (ms) on {workload} queries",
        fig_label(fig)
    );
    print!("n");
    for kind in EXACT_ROSTER {
        print!(
            "\t{}{}",
            kind.name(),
            if kind.reported_is_model() {
                "[model]"
            } else {
                ""
            }
        );
    }
    println!();
    let model = PgLikeCost::new();
    let budget = scale.timeout();
    let reps = scale.queries_per_size().max(1);
    let mut dead: HashSet<usize> = HashSet::new();
    for &n in &sizes {
        print!("{n}");
        for (ai, kind) in EXACT_ROSTER.iter().enumerate() {
            if dead.contains(&ai) {
                print!("\t-");
                continue;
            }
            if kind.reported_is_model()
                && matches!(
                    kind,
                    AlgoKind::DpSubGpu | AlgoKind::DpSizeGpu | AlgoKind::MpdpGpu
                )
                && n > scale.gpu_max_rels()
            {
                print!("\t-");
                continue;
            }
            let mut times = Vec::new();
            let mut timed_out = false;
            for rep in 0..reps {
                let q = match make_query(workload, n, 1000 + rep as u64, &model).to_query_info() {
                    Some(q) => q,
                    None => {
                        timed_out = true;
                        break;
                    }
                };
                match run_exact(*kind, &q, &model, budget) {
                    Ok(r) => times.push(r.reported.as_secs_f64() * 1000.0),
                    Err(OptError::Timeout { .. }) => {
                        timed_out = true;
                        break;
                    }
                    Err(e) => {
                        eprintln!("# {} n={n}: {e}", kind.name());
                        timed_out = true;
                        break;
                    }
                }
            }
            if timed_out || times.is_empty() {
                print!("\t-");
                dead.insert(ai);
            } else {
                print!("\t{:.2}", mean(&times));
            }
        }
        println!();
    }
}

fn fig_label(fig: &str) -> String {
    match fig {
        "fig6" => "Figure 6".into(),
        "fig7" => "Figure 7".into(),
        "fig8" => "Figure 8".into(),
        "fig9" => "Figure 9".into(),
        other => other.into(),
    }
}

// ---------------------------------------------------------------- fig 10

/// Figure 10: ratio of (estimated) execution time to optimization time on
/// MusicBrainz queries, PK-FK and non-PK-FK.
fn fig10(scale: Scale) {
    // One PostgreSQL cost unit ≈ this many seconds of execution. The paper
    // measures real executions; we estimate from the cost model (DESIGN.md
    // substitution 5) — only the ratio's growth matters.
    const SECONDS_PER_COST_UNIT: f64 = 25e-6;
    let model = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let budget = scale.timeout();
    let sizes: Vec<usize> = scale
        .exact_sizes()
        .into_iter()
        .filter(|&n| n >= 4)
        .collect();
    for (label, pk_fk) in [("(a) PK-FK joins", true), ("(b) non-PK-FK joins", false)] {
        println!("\n## Figure 10{label} — exec/opt time ratio on MusicBrainz");
        println!("n\tPostgres(1CPU)\tMPDP(GPU)[model]");
        let mut pg_dead = false;
        for &n in &sizes {
            let mut pg_ratios = Vec::new();
            let mut gpu_ratios = Vec::new();
            for rep in 0..scale.queries_per_size() {
                let q = mb
                    .random_walk_query(n, 500 + rep as u64, pk_fk, &model)
                    .to_query_info()
                    .unwrap();
                if !pg_dead {
                    if let Ok(r) = run_exact(AlgoKind::PostgresDpSize, &q, &model, budget) {
                        let exec = r.cost * SECONDS_PER_COST_UNIT;
                        pg_ratios.push(exec / r.wall.as_secs_f64());
                    } else {
                        // Conservative paper convention: account the budget
                        // itself as the optimization time.
                        pg_dead = true;
                    }
                }
                if n <= scale.gpu_max_rels() {
                    if let Ok(r) = run_exact(AlgoKind::MpdpGpu, &q, &model, budget) {
                        let exec = r.cost * SECONDS_PER_COST_UNIT;
                        gpu_ratios.push(exec / r.reported.as_secs_f64());
                    }
                }
            }
            println!(
                "{n}\t{}\t{}",
                if pg_ratios.is_empty() {
                    "-".into()
                } else {
                    format!("{:.3}", mean(&pg_ratios))
                },
                if gpu_ratios.is_empty() {
                    "-".into()
                } else {
                    format!("{:.3}", mean(&gpu_ratios))
                },
            );
        }
    }
}

// ---------------------------------------------------------------- fig 11

/// Figure 11: JOB(-like) query optimization times by join size.
fn fig11(scale: Scale) {
    println!("\n## Figure 11 — JOB-like query optimization times (ms)");
    print!("n");
    for kind in EXACT_ROSTER {
        print!(
            "\t{}{}",
            kind.name(),
            if kind.reported_is_model() {
                "[model]"
            } else {
                ""
            }
        );
    }
    println!();
    let model = PgLikeCost::new();
    let schema = ImdbSchema::new();
    let per_size = scale.queries_per_size();
    let suite = schema.suite(per_size, 77, &model);
    let budget = scale.timeout();
    let mut dead: HashSet<usize> = HashSet::new();
    let mut sizes: Vec<usize> = suite.iter().map(|(n, _)| *n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes {
        print!("{n}");
        for (ai, kind) in EXACT_ROSTER.iter().enumerate() {
            if dead.contains(&ai) {
                print!("\t-");
                continue;
            }
            let mut times = Vec::new();
            let mut timed_out = false;
            for (_, q) in suite.iter().filter(|(sz, _)| *sz == n) {
                let qi = q.to_query_info().unwrap();
                match run_exact(*kind, &qi, &model, budget) {
                    Ok(r) => times.push(r.reported.as_secs_f64() * 1000.0),
                    Err(_) => {
                        timed_out = true;
                        break;
                    }
                }
            }
            if timed_out || times.is_empty() {
                print!("\t-");
                dead.insert(ai);
            } else {
                print!("\t{:.2}", mean(&times));
            }
        }
        println!();
    }
}

// ---------------------------------------------------------------- fig 12

/// Figure 12: CPU scalability of MPDP vs DPE on a 20-relation MusicBrainz
/// query (speedup over one thread, from the calibrated work/span model).
fn fig12(scale: Scale) {
    println!("\n## Figure 12 — CPU scalability on MusicBrainz (speedup over 1 thread) [model]");
    println!("threads\tMPDP(CPU)\tDPE(CPU)");
    let model = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let n = if scale == Scale::Quick { 16 } else { 20 };
    let q = mb
        .random_walk_query(n, 42, true, &model)
        .to_query_info()
        .unwrap();
    let budget = Some(Duration::from_secs(300));

    let mpdp = registry()
        .get("MPDP")
        .unwrap()
        .plan_exact(&q, &model, budget)
        .expect("mpdp run");
    let mpdp_profile = mpdp.profile.expect("exact strategies profile their runs");
    let mpdp_cal = Calibration::from_measurement(&mpdp_profile, mpdp.wall);

    let dpe = registry()
        .get("DPE (1CPU)")
        .unwrap()
        .plan_exact(&q, &model, budget)
        .expect("dpe run");
    let dpe_profile = dpe.profile.expect("exact strategies profile their runs");
    let dpe_cal = Calibration::from_measurement(&dpe_profile, dpe.wall);

    let t1_mpdp = CpuModel::new(1).predict_level_parallel(&mpdp_profile, &mpdp_cal);
    let t1_dpe = CpuModel::new(1).predict_dpe(&dpe_profile, &dpe_cal);
    for threads in [1usize, 2, 4, 6, 8, 12, 16, 20, 24] {
        let tm = CpuModel::new(threads).predict_level_parallel(&mpdp_profile, &mpdp_cal);
        let td = CpuModel::new(threads).predict_dpe(&dpe_profile, &dpe_cal);
        println!(
            "{threads}\t{:.2}\t{:.2}",
            t1_mpdp.as_secs_f64() / tm.as_secs_f64(),
            t1_dpe.as_secs_f64() / td.as_secs_f64()
        );
    }
}

// ---------------------------------------------------------------- fig 13

/// Figure 13: monetary cost of optimization on AWS (US cents per query).
fn fig13(scale: Scale) {
    println!("\n## Figure 13 — cost of optimization on AWS (cents/query, star workload)");
    print!("n");
    for kind in EXACT_ROSTER {
        print!("\t{}", kind.name().replace("24CPU", "4CPU"));
    }
    println!();
    let model = PgLikeCost::new();
    let budget = scale.timeout();
    let mut dead: HashSet<usize> = HashSet::new();
    for &n in &scale.exact_sizes() {
        print!("{n}");
        for (ai, kind) in EXACT_ROSTER.iter().enumerate() {
            if dead.contains(&ai)
                || (matches!(
                    kind,
                    AlgoKind::DpSubGpu | AlgoKind::DpSizeGpu | AlgoKind::MpdpGpu
                ) && n > scale.gpu_max_rels())
            {
                print!("\t-");
                continue;
            }
            let q = make_query("star", n, 1000, &model).to_query_info().unwrap();
            match run_exact(*kind, &q, &model, budget) {
                Ok(r) => {
                    // Figure 13 uses 4-vCPU instances for the parallel CPU
                    // algorithms; re-predict with 4 threads.
                    let time = match kind {
                        AlgoKind::Dpe24 | AlgoKind::MpdpCpu24 => {
                            // `reported` is the 24-thread prediction; rescale
                            // to the cost-study core count via model speedups.
                            let s24 = CpuModel::new(24).speedup();
                            let s4 = CpuModel::new(aws::cost_study_threads(*kind)).speedup();
                            r.reported.mul_f64(s24 / s4)
                        }
                        _ => r.reported,
                    };
                    print!("\t{:.7}", aws::optimization_cost_cents(*kind, time));
                }
                Err(_) => {
                    print!("\t-");
                    dead.insert(ai);
                }
            }
        }
        println!();
    }
}

// ---------------------------------------------------------------- §7.2.5

/// §7.2.5: impact of the two GPU implementation enhancements.
fn ablation(scale: Scale) {
    println!("\n## §7.2.5 — GPU enhancement ablation (MPDP(GPU), simulated)");
    println!("workload\tn\tconfig\ttime_ms\twarp_cycles\tglobal_writes\tdivergence");
    let model = PgLikeCost::new();
    let n = if scale == Scale::Quick { 14 } else { 18 };
    let budget = Duration::from_secs(600);
    for (wl, seed) in [("star", 3u64), ("musicbrainz", 9)] {
        let q = make_query(wl, n, seed, &model).to_query_info().unwrap();
        for (label, series) in [
            ("baseline", "MPDP (GPU, baseline)"),
            ("+fusion", "MPDP (GPU, +fusion)"),
            ("+CCC", "MPDP (GPU, +CCC)"),
            ("+both", "MPDP (GPU)"),
        ] {
            let strat = registry().get(series).unwrap();
            match strat.plan_exact(&q, &model, Some(budget)) {
                Ok(run) => {
                    let stats = run.gpu.expect("GPU strategies report device stats");
                    println!(
                        "{wl}\t{n}\t{label}\t{}\t{}\t{}\t{:.2}",
                        fmt_ms(run.reported),
                        stats.warp_cycles,
                        stats.global_writes,
                        stats.divergence_factor()
                    )
                }
                Err(e) => println!("{wl}\t{n}\t{label}\t-\t-\t-\t-\t# {e}"),
            }
        }
    }
}

// ------------------------------------------------------------ tables 1-3

/// The Tables 1–2 series, by registry label in the paper's column order.
const HEURISTIC_SERIES: [&str; 7] = [
    "GE-QO",
    "GOO",
    "LinDP",
    "IKKBZ",
    "IDP2-MPDP (15)",
    "IDP2-MPDP (25)",
    "UnionDP-MPDP (15)",
];

/// Tables 1–2 (+ the §7.3 clique summary): heuristic plan quality, relative
/// to the best plan found by any technique per query (avg and p95).
fn heuristic_table(scale: Scale, table: &str, workload: &str, sizes: Vec<usize>) {
    println!(
        "\n## {} — heuristic relative plan cost on {workload} (avg / p95 over {} queries)",
        table_label(table),
        scale.table_queries()
    );
    print!("n");
    for n in HEURISTIC_SERIES {
        print!("\t{n}");
    }
    println!();
    let model = PgLikeCost::new();
    let budget = Some(scale.timeout().max(Duration::from_secs(10)));
    let mut dead = [false; 7];
    for &n in &sizes {
        let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); HEURISTIC_SERIES.len()];
        for rep in 0..scale.table_queries() {
            let q = make_query(workload, n, 9000 + rep as u64, &model);
            let runs: Vec<Option<f64>> = run_heuristics(&q, &model, budget, &mut dead);
            let best = runs.iter().flatten().fold(f64::INFINITY, |a, &b| a.min(b));
            if !best.is_finite() {
                continue;
            }
            for (i, r) in runs.iter().enumerate() {
                if let Some(c) = r {
                    ratios[i].push(c / best);
                }
            }
        }
        print!("{n}");
        for r in &ratios {
            if r.is_empty() {
                print!("\t-");
            } else {
                print!("\t{:.2}/{:.2}", mean(r), percentile(r, 95.0));
            }
        }
        println!();
    }
}

fn table_label(t: &str) -> String {
    match t {
        "table1" => "Table 1".into(),
        "table2" => "Table 2".into(),
        "table3" => "Clique summary (§7.3)".into(),
        other => other.into(),
    }
}

/// Runs the 7 heuristics of [`HEURISTIC_SERIES`] on one query, each resolved
/// by its paper label through the registry; `None` marks timeout/failure.
/// `dead[i]` latches techniques that have started timing out (the paper's
/// dashes) so later sizes skip them.
fn run_heuristics(
    q: &LargeQuery,
    model: &PgLikeCost,
    budget: Option<Duration>,
    dead: &mut [bool; 7],
) -> Vec<Option<f64>> {
    HEURISTIC_SERIES
        .iter()
        .enumerate()
        .map(|(idx, series)| {
            if dead[idx] {
                return None;
            }
            let strat = registry().get(series).expect("series label registered");
            match strat.plan(q, model, budget) {
                Ok(planned) => Some(planned.cost),
                Err(OptError::Timeout { .. }) => {
                    dead[idx] = true;
                    None
                }
                Err(_) => None,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ bench

/// One timed bench run, ready for JSON emission.
struct BenchRecord {
    shape: &'static str,
    n: usize,
    algorithm: String,
    wall_ms: f64,
    reported_ms: f64,
    reported_is_model: bool,
    cost: f64,
    evaluated: u64,
    ccp: u64,
    sets: u64,
    memo_load: f64,
    memo_probes: u64,
    cas_retries: u64,
}

impl BenchRecord {
    /// One self-contained JSON object per line, so the `--check-against`
    /// reader can parse records without a full JSON parser.
    fn to_json_line(&self) -> String {
        format!(
            "{{\"shape\": \"{}\", \"n\": {}, \"algorithm\": \"{}\", \"wall_ms\": {:.3}, \
             \"reported_ms\": {:.3}, \"reported_is_model\": {}, \"cost\": {:.6e}, \
             \"evaluated\": {}, \"ccp\": {}, \"sets\": {}, \"memo_load\": {:.3}, \
             \"memo_probes\": {}, \"cas_retries\": {}}}",
            self.shape,
            self.n,
            self.algorithm,
            self.wall_ms,
            self.reported_ms,
            self.reported_is_model,
            self.cost,
            self.evaluated,
            self.ccp,
            self.sets,
            self.memo_load,
            self.memo_probes,
            self.cas_retries,
        )
    }
}

/// The tier-1 algorithms covered by the committed `BENCH_baseline.json` and
/// the CI smoke check.
const BENCH_ALGOS: [&str; 6] = [
    "Postgres (1CPU)",
    "DPSub (1CPU)",
    "DPCCP (1CPU)",
    "MPDP",
    "MPDP (24CPU)",
    "MPDP (GPU)",
];

/// `repro bench`: timed runs + counters on the CI shape set
/// (chain/star/cycle/fig5), optional JSON emission, and an optional exact
/// check of every count against a committed bench JSON.
fn bench(emit_json: Option<&str>, check_against: Option<&str>) {
    let model = PgLikeCost::new();
    // The shape set is sized to finish well within this budget at either
    // sweep scale; an explicit REPRO_TIMEOUT_MS still overrides it.
    let budget = match std::env::var("REPRO_TIMEOUT_MS") {
        Ok(ms) => Duration::from_millis(ms.parse().unwrap_or(120_000)),
        Err(_) => Duration::from_secs(120),
    };
    println!("\n## bench — CI shape set, per-algorithm times and counters");
    println!(
        "shape\tn\talgorithm\twall_ms\treported_ms\tevaluated\tccp\tsets\tmemo_load\tprobes\t\
         cas_retries"
    );
    let shapes: Vec<(&'static str, usize, QueryInfo)> = vec![
        (
            "chain",
            16,
            gen::chain(16, 1, &model).to_query_info().unwrap(),
        ),
        (
            "star",
            14,
            gen::star(14, 1, &model).to_query_info().unwrap(),
        ),
        (
            "cycle",
            14,
            gen::cycle(14, 1, &model).to_query_info().unwrap(),
        ),
        ("fig5", 9, figure5_query(&model)),
    ];
    let mut records: Vec<BenchRecord> = Vec::new();
    for (shape, n, q) in &shapes {
        for name in BENCH_ALGOS {
            let strat = registry().get(name).expect("bench algorithm registered");
            match strat.plan_exact(q, &model, Some(budget)) {
                Ok(r) => {
                    let c = r.counters.unwrap_or_default();
                    let health = r.profile.as_ref().and_then(|p| p.memo);
                    let (probes, retries) =
                        health.map(|h| (h.probes, h.cas_retries)).unwrap_or((0, 0));
                    let rec = BenchRecord {
                        shape,
                        n: *n,
                        algorithm: name.to_string(),
                        wall_ms: r.wall.as_secs_f64() * 1000.0,
                        reported_ms: r.reported.as_secs_f64() * 1000.0,
                        reported_is_model: strat.reported_is_model(),
                        cost: r.cost,
                        evaluated: c.evaluated,
                        ccp: c.ccp,
                        sets: c.sets,
                        memo_load: health.map(|h| h.load_factor()).unwrap_or(0.0),
                        memo_probes: probes,
                        cas_retries: retries,
                    };
                    println!(
                        "{shape}\t{n}\t{name}\t{:.2}\t{:.2}\t{}\t{}\t{}\t{:.2}\t{}\t{}",
                        rec.wall_ms,
                        rec.reported_ms,
                        rec.evaluated,
                        rec.ccp,
                        rec.sets,
                        rec.memo_load,
                        rec.memo_probes,
                        rec.cas_retries
                    );
                    records.push(rec);
                }
                Err(e) => println!("{shape}\t{n}\t{name}\t-\t-\t-\t-\t-\t# {e}"),
            }
        }
    }

    let mut out = String::from("{\n  \"schema\": \"mpdp-bench-v1\",\n  \"runs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", r.to_json_line()));
    }
    out.push_str("  ]\n}\n");
    if let Some(path) = emit_json {
        std::fs::write(path, &out).expect("write bench JSON");
        println!("\n# wrote {path}");
    }

    if let Some(path) = check_against {
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("# cannot read {path}: {e}");
            std::process::exit(1);
        });
        let mismatches = exact_mismatches(&committed, &out);
        if !mismatches.is_empty() {
            eprintln!("# BENCH counts differ from {path}:");
            for m in &mismatches {
                eprintln!("{m}");
            }
            std::process::exit(1);
        }
        println!("# every count equals {path}");
    }
}

// ------------------------------------------------------------------- exec

/// `repro exec`: materialize tables from catalog statistics, execute every
/// [`mpdp_bench::exec::EXEC_STRATEGIES`] plan per shape (each shape's plans
/// must agree on the root cardinality) and report modeled cost next to
/// measured runtime with their Spearman correlations. See
/// `mpdp_bench::exec`.
fn exec_experiment() {
    use mpdp_bench::exec::{default_cases, render, run_case};
    println!(
        "\n## exec — morsel-parallel vectorized executor: modeled cost vs measured runtime \
         (seed 42, filter kernel: {})",
        mpdp_exec::filter_kernel()
    );
    let model = PgLikeCost::new();
    let cases: Vec<_> = default_cases(&model)
        .iter()
        .map(|case| {
            run_case(case, &model, 42, 1).unwrap_or_else(|e| {
                eprintln!("exec failed: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    print!("{}", render(&cases));
}

// ------------------------------------------------------------------ trace

/// `repro trace`: the observability acceptance leg. Replays a Zipf stream
/// through a cluster-backed front-end with the span tracer *armed*,
/// executes every served plan with its request's span context, and then
/// drains the rings into the artifact set (flamegraph table, slow-request
/// span trees, Chrome-trace JSON via `--emit-json`). Fails unless ≥95% of
/// the observed request traces are complete — admission root, routing
/// decision, planning disposition, and an executor span — and unless every
/// admitted request actually planned and executed (a trace leg that loses
/// requests measures nothing).
fn trace_experiment(queries: usize, small: bool, emit_json: Option<&str>) {
    use mpdp_bench::trace::{run_trace, TraceConfig};
    use mpdp_workload::StreamSpec;
    use std::sync::Arc;

    let stream = if small {
        StreamSpec {
            templates: 80,
            min_rels: 6,
            max_rels: 12,
            ..StreamSpec::default()
        }
    } else {
        StreamSpec::default()
    };
    let config = TraceConfig {
        queries,
        stream,
        ..TraceConfig::default()
    };
    println!(
        "\n## trace — armed span replay ({queries} queries, {} templates, {} shards)",
        config.stream.templates, config.shards
    );
    let report = match run_trace(&config, Arc::new(PgLikeCost::new())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("# trace FAILED: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    if let Some(path) = emit_json {
        std::fs::write(path, &report.chrome_json).expect("write trace JSON");
        println!("# wrote {path} ({} bytes)", report.chrome_json.len());
    }

    let mut violations: Vec<String> = Vec::new();
    if report.admitted < report.submitted {
        violations.push(format!(
            "shed {} of {} submissions",
            report.submitted - report.admitted,
            report.submitted
        ));
    }
    if report.executed < report.admitted {
        violations.push(format!(
            "only {} of {} admitted requests planned and executed",
            report.executed, report.admitted
        ));
    }
    if report.completeness_pct() < 95.0 {
        violations.push(format!(
            "trace completeness {:.1}% ({}/{}) below the 95% floor",
            report.completeness_pct(),
            report.complete,
            report.traces
        ));
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("# trace FAILED: {v}");
        }
        std::process::exit(1);
    }
    println!(
        "# trace acceptance held: {}/{} complete ({:.1}%)",
        report.complete,
        report.traces,
        report.completeness_pct()
    );
}
