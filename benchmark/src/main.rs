//! The repository's one benchmark: four workloads, eight end-to-end metrics,
//! per-layer probes and a traced run whose parts reconcile to the whole.
//! See `README.md` beside this package for what is measured and why.
//!
//! ```text
//! mpdp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last stdout line is the result JSON
//! mpdp-benchmark [--seed <n>] [--seconds <s>] [--traced]
//!     every workload, each in a fresh child process; writes out/results.json
//! mpdp-benchmark --repeat [--seed <n>] [--seconds <s>]
//!     the suite twice, compared against the bounds, then once at seed 7
//! ```

mod checks;
mod host;
mod inputs;
mod metrics;
mod plan;
mod rng;
mod serve;
mod spans;
mod stats;

use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::{Name, Recorder};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// A set-up workload: everything generated, materialized and warm.
pub trait Workload {
    /// How the host ran the reference work during this workload's set-up.
    fn setup_slowdown(&self) -> host::Slowdown;
    /// Measures for about `seconds`. `traced` records the benchmark's spans,
    /// arms the program's own tracer where the workload has one, and fills
    /// the per-layer values.
    fn run_phase(&mut self, seconds: f64, traced: bool) -> PhaseOutcome;
}

/// What one measured phase produced.
#[derive(Default)]
pub struct PhaseOutcome {
    /// Operations attempted (plans or requests) and how many of them
    /// failed, were refused, or returned a wrong answer.
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub values: Values,
    /// Run-level checks that did not hold (accounting identities, set-up
    /// verification, span reconciliation). Any entry makes the run incorrect.
    pub invariant_failures: Vec<String>,
    /// Latency samples at or above the reported p99 (stated beside it; on
    /// the plan workloads: one slowest call per pass).
    pub samples_beyond_p99: usize,
    /// How the host ran the reference work during the phase; the timings in
    /// `values` are already divided by its factor.
    pub slowdown: host::Slowdown,
    pub recorder: Recorder,
}

/// Fills the `self.<span>.share` values and `bench.unaccounted_share` (the
/// root span's own self time: client wall no child span accounts for).
pub fn self_time_values(recorder: &Recorder, v: &mut Values) {
    const SHARES: [(Name, &str); 11] = [
        (Name::Request, "self.client.request.share"),
        (Name::Relabel, "self.bench.relabel.share"),
        (Name::Submit, "self.serve.submit.share"),
        (Name::QueueWait, "self.serve.queue_wait.share"),
        (Name::Plan, "self.service.plan.share"),
        (Name::Strategy, "self.strategy.share"),
        (Name::Wake, "self.serve.wake.share"),
        (Name::Remap, "self.bench.remap.share"),
        (Name::Execute, "self.exec.execute.share"),
        (Name::Observe, "self.cluster.observe.share"),
        (Name::Gossip, "self.cluster.gossip.share"),
    ];
    for (name, metric) in SHARES {
        v.set(metric, recorder.self_share(name));
    }
    v.set(
        "bench.unaccounted_share",
        recorder.self_share(Name::Request),
    );
    v.set("bench.traced_requests", recorder.requests as f64);
}

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;

fn set_up(workload: &str, seed: u64, layers: bool) -> Box<dyn Workload> {
    match workload {
        "plan-exact" => Box::new(plan::PlanWorkload::set_up(true, seed, layers)),
        "plan-large" => Box::new(plan::PlanWorkload::set_up(false, seed, layers)),
        "serve-hot" => Box::new(serve::ServeWorkload::set_up(serve::Kind::Hot, seed)),
        "e2e-mixed" => Box::new(serve::ServeWorkload::set_up(serve::Kind::Mixed, seed)),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

/// The benchmark's directory (for `out/`): `run.sh` exports it; a bare
/// binary run from the repository root finds it by name.
fn bench_dir() -> PathBuf {
    std::env::var_os("MPDP_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn write_out(file: &str, contents: &str) {
    let dir = bench_dir().join("out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), contents));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(file).display());
    }
}

/// Runs one workload in this process and prints its result line.
fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) {
    let mut setups: Vec<f64> = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first: two live copies would double the
        // peak memory the run reports.
        drop(built.take());
        let start = Instant::now();
        let w = set_up(workload, seed, trace);
        // Like every timing: without the reference work done on the way, and
        // over how much slower than nominal the host ran it.
        let slow = w.setup_slowdown();
        setups.push((start.elapsed().as_secs_f64() - slow.spent_s) / slow.factor());
        built = Some(w);
    }
    let mut w = built.expect("SETUPS >= 1");

    // The ALU calibration before and after is a record of the host, not a
    // gate: what the host does to the timings is taken out of them by the
    // reference work inside the phase (`host::reference_tick`).
    let before = host::calib_ms();
    let (mut outcome, overhead_pct) = if trace {
        // End-to-end numbers always come from an untraced phase; the traced
        // phase gives the per-layer numbers and the difference between the
        // two is the tracing overhead.
        let plain = w.run_phase(seconds / 2.0, false);
        let traced = w.run_phase(seconds / 2.0, true);
        let base = plain.values.get("throughput_per_s").unwrap_or(0.0);
        let armed = traced.values.get("throughput_per_s").unwrap_or(0.0);
        (traced, 100.0 * stats::share(base - armed, base))
    } else {
        (w.run_phase(seconds, false), 0.0)
    };
    let after = host::calib_ms();
    let (calib, drift) = (
        (before + after) / 2.0,
        (before - after).abs() / before.min(after),
    );

    let mut values = std::mem::take(&mut outcome.values);
    values.set("setup_s", stats::median(&mut setups));
    values.set(
        "ok_share",
        1.0 - stats::share(outcome.failed as f64, outcome.attempted as f64),
    );
    values.set("peak_rss_mb", host::peak_rss_mb());
    values.set("host.calib_ms", calib);
    values.set("host.reference_ms", outcome.slowdown.chunk_ms);
    values.set("host.slowdown", outcome.slowdown.factor());
    values.set("host.calib_drift", drift);
    let catalogue: &[metrics::Metric] = if trace {
        values.set("obs.armed_overhead_pct", overhead_pct);
        values.set("host.memcpy_gbps", host::memcpy_gbps());
        write_out(
            &format!("trace-{workload}.json"),
            &spans::chrome_trace_json(&outcome.recorder.kept),
        );
        PER_LAYER
    } else {
        &END_TO_END
    };

    for m in catalogue {
        println!(
            "{workload} {} {} {}",
            m.name,
            values.get(m.name).unwrap_or(0.0),
            m.unit
        );
    }
    println!(
        "# {workload}: {} operations in {:.2} s, {} failed, {} latency samples beyond p99, \
         {} cores, calib {calib:.1} ms (drift {:.0} %)",
        outcome.attempted,
        outcome.elapsed_s,
        outcome.failed,
        outcome.samples_beyond_p99,
        host::cores(),
        100.0 * drift,
    );
    println!(
        "# {workload}: timings are divided by the host's slowdown, {:.4}: the median of {} \
         reference chunks took {:.4} ms, nominal {} ms",
        outcome.slowdown.factor(),
        outcome.slowdown.chunks,
        outcome.slowdown.chunk_ms,
        host::REFERENCE_NOMINAL_MS,
    );
    for why in &outcome.invariant_failures {
        println!("# CHECK FAILED: {why}");
    }
    let correct = outcome.failed == 0 && outcome.invariant_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics::metrics_json(catalogue, &values, !trace)
    );
}

/// One child run's parsed output.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    correct: bool,
    json: String,
    /// `(metric, value)` in print order.
    values: Vec<(String, f64)>,
}

fn run_child(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{workload} child exited with {}", out.status));
    }
    let json = text
        .lines()
        .last()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload} child printed no result line"))?
        .to_string();
    let values = text
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next()? == workload).then_some(())?;
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect();
    Ok(ChildRun {
        workload,
        trace,
        correct: json.starts_with("{\"correct\": true"),
        json,
        values,
    })
}

/// Every workload, each in a fresh child. Returns the runs and whether every
/// check held.
fn run_suite(seed: u64, seconds: f64, traced: bool) -> Result<(Vec<ChildRun>, bool), String> {
    let mut runs = Vec::new();
    for (workload, _) in WORKLOADS {
        runs.push(run_child(workload, seed, seconds, false)?);
        if traced {
            runs.push(run_child(workload, seed, seconds, true)?);
        }
    }
    let ok = runs.iter().all(|r| r.correct);
    let body: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                r.workload, r.trace as u8, r.json
            )
        })
        .collect();
    write_out(
        "results.json",
        &format!(
            "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"cores\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
            host::cores(),
            body.join(",\n")
        ),
    );
    Ok((runs, ok))
}

/// The suite twice on the same build: every end-to-end metric of every
/// workload must agree within its own bound. Then seed 7 once, to show the
/// output checks hold on a seed nobody tuned for.
fn run_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let (first, ok_first) = run_suite(seed, seconds, false)?;
    let (second, ok_second) = run_suite(seed, seconds, false)?;
    let mut agree = true;
    println!("# workload metric first second gap bound verdict");
    for (a, b) in first.iter().zip(&second) {
        for ((name, x), (_, y)) in a.values.iter().zip(&b.values) {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("child printed unknown metric {name}"))?;
            let gap = stats::share((x - y).abs(), x.abs().min(y.abs()));
            let within = gap <= m.bound;
            agree &= within;
            println!(
                "{} {name} {x} {y} {gap:.4} {} {}",
                a.workload,
                m.bound,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    let (_, ok_other_seed) = run_suite(7, seconds, false)?;
    println!(
        "# checks: first {ok_first}, second {ok_second}, seed 7 {ok_other_seed}; \
         runs agree within bounds: {agree}"
    );
    Ok(agree && ok_first && ok_second && ok_other_seed)
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_suite: bool,
    repeat: bool,
    print_benchmark_json: bool,
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        traced_suite: false,
        repeat: false,
        print_benchmark_json: false,
        print_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|(w, _)| *w)
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => a.traced_suite = true,
            "--repeat" => a.repeat = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            "--print-expected" => a.print_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.print_expected {
        print!(
            "{}",
            plan::PlanWorkload::set_up(true, 42, false).expected_tsv()
        );
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = args.workload {
        run_workload(workload, args.seed, args.seconds, args.trace);
        return ExitCode::SUCCESS;
    }
    let ok = if args.repeat {
        run_repeat(args.seed, args.seconds)
    } else {
        run_suite(args.seed, args.seconds, args.traced_suite).map(|(_, ok)| ok)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed (see the CHECK FAILED / DISAGREE lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
