//! End-to-end trace replay: drive the full serving stack with an *armed*
//! tracer and turn the drained spans into artifacts.
//!
//! The harness exercises every tier a request crosses — admission
//! ([`mpdp_serve::ServeFront`]), cluster routing, the plan cache /
//! single-flight table, strategy invocation, and the morsel executor —
//! then drains the tracer and emits:
//!
//! - a Chrome-trace JSON artifact (loadable in `chrome://tracing` /
//!   Perfetto),
//! - a flamegraph table (inclusive/exclusive time per span site),
//! - a slow-request log: the full span tree of every request whose
//!   `serve.request` root exceeded the latency threshold or that was
//!   served `Degraded`,
//! - the completeness ratio, the acceptance number for the `repro trace`
//!   CI leg: a complete trace walks admission → route → planning
//!   disposition → executor (see [`mpdp_obs::trace_is_complete`]).
//!
//! Plans are *executed*, not just produced: each admitted query is
//! materialized ([`mpdp_exec::materialize`], small row caps) and its
//! served plan run through [`mpdp_exec::Executor::with_trace`] so the
//! executor's build/probe/morsel spans join the request's trace. Draining
//! only happens after [`mpdp_serve::ServeFront::shutdown`] has joined the
//! dispatcher threads — the tracer's ring buffers are quiescent-drain.

use mpdp_cost::model::CostModel;
use mpdp_exec::{materialize, ExecConfig, Executor, GenConfig};
use mpdp_obs::{
    by_trace, chrome_trace_json, completeness, flamegraph, render_flamegraph, render_tree, sites,
    SiteAgg, SpanRec, Tracer,
};
use mpdp_serve::{ServeConfig as FrontConfig, ServeFront, TenantConfig};
use mpdp_workload::stream::{StreamSpec, ZipfStream};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use mpdp_cluster::ClusterConfig;

/// Configuration of one trace-replay run.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Stream length (requests submitted).
    pub queries: usize,
    /// The Zipf stream the run draws from.
    pub stream: StreamSpec,
    /// Cluster shard count backing the traced tenant (≥ 1; routing spans
    /// carry the shard id either way).
    pub shards: usize,
    /// Tracer ring capacity per recording thread.
    pub ring_capacity: usize,
    /// Slow-request threshold on the `serve.request` root span. Requests
    /// at or above it (or served `Degraded`) get their full span tree in
    /// the report; if none qualify, the single slowest request is shown.
    pub slow_threshold: Duration,
    /// Span trees shown in the slow-request log at most.
    pub slow_log_cap: usize,
    /// Per-table row cap for the materialized execution datasets. Kept
    /// small: this harness measures span coverage, not executor
    /// throughput.
    pub max_table_rows: usize,
    /// Probe-phase worker count of the traced executor runs.
    pub exec_workers: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            queries: 300,
            stream: StreamSpec::default(),
            shards: 2,
            ring_capacity: 1 << 16,
            slow_threshold: Duration::from_millis(5),
            slow_log_cap: 3,
            max_table_rows: 512,
            exec_workers: 2,
        }
    }
}

/// One slow-request entry: the trace id, its root latency, and the
/// rendered span tree.
#[derive(Clone, Debug)]
pub struct SlowTrace {
    /// Trace id (`tid` in the Chrome artifact).
    pub trace: u64,
    /// Duration of the `serve.request` root span.
    pub root: Duration,
    /// `true` if the trace contains a `plan.degrade` annotation.
    pub degraded: bool,
    /// Indented span tree ([`mpdp_obs::render_tree`]).
    pub tree: String,
}

/// Outcome of a trace-replay run.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Requests submitted to the front-end.
    pub submitted: usize,
    /// Requests admitted (not shed).
    pub admitted: usize,
    /// Admitted requests whose planning succeeded.
    pub planned: usize,
    /// Planned requests whose served plan executed without error.
    pub executed: usize,
    /// Complete request traces (see [`mpdp_obs::trace_is_complete`]).
    pub complete: usize,
    /// Request traces observed in the drained spans.
    pub traces: usize,
    /// Span records drained.
    pub records: usize,
    /// Flamegraph rows, inclusive time descending.
    pub flame: Vec<SiteAgg>,
    /// Slow-request log (threshold-or-degraded; never empty when any
    /// request trace exists).
    pub slow: Vec<SlowTrace>,
    /// The Chrome-trace JSON artifact.
    pub chrome_json: String,
    /// The configured slow threshold (echoed into the rendering).
    pub slow_threshold: Duration,
}

impl TraceReport {
    /// Complete traces as a fraction of observed request traces, in
    /// percent (100.0 when no request trace was observed — an empty run
    /// has nothing incomplete).
    pub fn completeness_pct(&self) -> f64 {
        if self.traces == 0 {
            100.0
        } else {
            100.0 * self.complete as f64 / self.traces as f64
        }
    }

    /// Renders the counts, the flamegraph table and the slow-request log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "submitted {}  admitted {}  planned {}  executed {}",
            self.submitted, self.admitted, self.planned, self.executed
        );
        let _ = writeln!(
            out,
            "span records {}  request traces {}  complete {} ({:.1}%)",
            self.records,
            self.traces,
            self.complete,
            self.completeness_pct()
        );
        out.push_str("\nflamegraph (per-site, inclusive time descending):\n");
        out.push_str(&render_flamegraph(&self.flame));
        let _ = writeln!(
            out,
            "\nslow requests (root ≥ {:.1} ms or degraded; {} shown):",
            self.slow_threshold.as_secs_f64() * 1e3,
            self.slow.len()
        );
        for s in &self.slow {
            let _ = writeln!(
                out,
                "trace {} — {:.3} ms{}:",
                s.trace,
                s.root.as_secs_f64() * 1e3,
                if s.degraded { " (degraded)" } else { "" }
            );
            out.push_str(&s.tree);
        }
        out
    }
}

/// Runs the trace replay: submit the stream through a cluster-backed
/// [`ServeFront`] with an armed tracer, execute every served plan with
/// the request's span context, run one gossip round, shut down, drain,
/// and aggregate. See the module docs for the artifact set.
pub fn run_trace(
    config: &TraceConfig,
    model: Arc<dyn CostModel + Send + Sync>,
) -> Result<TraceReport, String> {
    let tracer = Tracer::armed(config.ring_capacity);
    let mut front = ServeFront::new(
        FrontConfig {
            // Admit the whole stream: this harness measures span
            // coverage, so sheds would only shrink the denominator.
            queue_depth: config.queries.max(1),
            dispatchers: 2,
            budget: Some(Duration::from_secs(30)),
            tracer: tracer.clone(),
            tenants: vec![TenantConfig::named("trace").clustered(ClusterConfig {
                shards: config.shards.max(1),
                ..ClusterConfig::default()
            })],
            ..FrontConfig::default()
        },
        model.clone(),
    );

    let mut stream = ZipfStream::new(&config.stream, &*model);
    let queries = stream.take(config.queries);
    let submitted = queries.len();

    // Submit everything up front (the dispatchers drain concurrently),
    // keeping each admitted query alongside its ticket: the executor
    // phase re-materializes the exact submitted query.
    let mut pending = Vec::with_capacity(submitted);
    let mut admitted = 0usize;
    for (_, q) in queries {
        if let Ok(ticket) = front.submit(0, q.clone()) {
            admitted += 1;
            pending.push((q, ticket));
        }
    }

    let mut planned = 0usize;
    let mut executed = 0usize;
    for (i, (query, ticket)) in pending.into_iter().enumerate() {
        let done = ticket.wait();
        let served = match done.result {
            Ok(served) => served,
            Err(_) => continue,
        };
        planned += 1;
        let data = materialize(
            &query,
            &GenConfig {
                seed: i as u64,
                max_table_rows: config.max_table_rows,
                ..GenConfig::default()
            },
            &*model,
        );
        let executor = Executor::new(
            &data.scaled,
            &data,
            ExecConfig {
                workers: config.exec_workers.max(1),
                ..ExecConfig::default()
            },
        )
        .with_trace(done.trace);
        if executor.execute(&served.planned.plan).is_ok() {
            executed += 1;
        }
    }

    // One gossip round so the global timeline carries a cluster event.
    if let Some(cluster) = front.cluster(0) {
        cluster.run_gossip_round();
    }

    // Quiesce before draining: the REQUEST root spans record when the
    // dispatcher drops each request, and the rings are quiescent-drain.
    front.shutdown();
    let spans = tracer.drain();
    let (complete, traces) = completeness(&spans);
    let flame = flamegraph(&spans);
    let slow = slow_log(&spans, config.slow_threshold, config.slow_log_cap);

    Ok(TraceReport {
        submitted,
        admitted,
        planned,
        executed,
        complete,
        traces,
        records: spans.len(),
        flame,
        slow,
        chrome_json: chrome_trace_json(&spans),
        slow_threshold: config.slow_threshold,
    })
}

/// Selects the slow-request log: every request trace whose root span is
/// at or above `threshold` or that carries a degrade annotation, slowest
/// first, capped at `cap`. When nothing qualifies the single slowest
/// request is included anyway, so the log always shows one real tree.
fn slow_log(spans: &[SpanRec], threshold: Duration, cap: usize) -> Vec<SlowTrace> {
    let mut entries: Vec<SlowTrace> = Vec::new();
    for (trace, group) in by_trace(spans) {
        if trace == 0 {
            continue;
        }
        let Some(root) = group.iter().find(|r| r.site == sites::REQUEST) else {
            continue;
        };
        entries.push(SlowTrace {
            trace,
            root: Duration::from_nanos(root.duration_ns()),
            degraded: group.iter().any(|r| r.site == sites::DEGRADE),
            tree: render_tree(&group),
        });
    }
    entries.sort_by_key(|e| std::cmp::Reverse(e.root));
    let qualifying = entries
        .iter()
        .filter(|e| e.root >= threshold || e.degraded)
        .count();
    entries.truncate(qualifying.clamp(usize::from(!entries.is_empty()), cap.max(1)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::pglike::PgLikeCost;

    /// The satellite overhead gate: tracing *disabled* (the default every
    /// perf leg runs with) must cost ≤ 2% of serve throughput. Rather
    /// than differencing two noisy end-to-end runs, this measures the two
    /// factors directly: the per-site disabled-path cost (one relaxed
    /// atomic branch per crossing) and the service time of the fastest
    /// request there is, a cache hit — then bounds the product. A hit
    /// crosses well under 8 instrumented sites; 8 × the measured
    /// *triple*-op cost over-counts generously.
    #[test]
    fn disabled_tracing_overhead_gate() {
        use mpdp::{PlanRequest, PlanServiceBuilder};
        use mpdp_obs::{sites, SpanCtx};
        use std::hint::black_box;
        use std::time::Instant;

        let tracer = black_box(Tracer::disabled());
        let ctx = black_box(SpanCtx::default());
        // Best of several rounds: scheduler interference only ever
        // *inflates* a round, so the minimum is the honest cost.
        let iters: u64 = 200_000;
        let mut best_ns = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            for i in 0..iters {
                black_box(&tracer).event(sites::GOSSIP, black_box(i));
                drop(black_box(&tracer).begin_request(sites::REQUEST));
                drop(black_box(&ctx).span(sites::STRATEGY));
            }
            best_ns = best_ns.min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        // Three disabled crossings per iteration.
        let per_site_ns = best_ns / 3.0;

        // The optimized build is the one every perf leg runs, and the only
        // one the 2% is a claim about: unoptimized disabled-path code is
        // ~20× slower and would gate nothing but the debug compiler.
        if cfg!(debug_assertions) {
            return;
        }
        // 300 requests of the serving stream's own sizes (8–18 relations),
        // planned once so that the timed pass is all hits.
        let service = PlanServiceBuilder::new().build();
        let model = PgLikeCost::new();
        let spec = StreamSpec {
            templates: 12,
            ..StreamSpec::default()
        };
        let queries = ZipfStream::new(&spec, &model).take(300);
        let req = PlanRequest::default();
        let replay = || {
            let start = Instant::now();
            for (_, q) in &queries {
                service.plan_coalesced(q, &model, &req).expect("plan");
            }
            start.elapsed().as_nanos() as f64 / queries.len() as f64
        };
        replay();
        let per_request_ns = replay();

        let overhead_ns = 8.0 * per_site_ns;
        assert!(
            overhead_ns <= 0.02 * per_request_ns,
            "disabled tracing {overhead_ns:.1} ns/request exceeds 2% of the \
             {per_request_ns:.0} ns service time of a hit ({per_site_ns:.2} ns/site)"
        );
    }

    /// The acceptance property of the `repro trace` leg, at test scale:
    /// every admitted-and-executed request produces a complete span tree,
    /// and the artifact set is non-trivial.
    #[test]
    fn trace_replay_produces_complete_trees_and_artifacts() {
        let config = TraceConfig {
            queries: 40,
            stream: StreamSpec {
                templates: 12,
                min_rels: 4,
                max_rels: 7,
                ..StreamSpec::default()
            },
            max_table_rows: 128,
            ..TraceConfig::default()
        };
        let report = run_trace(&config, Arc::new(PgLikeCost::new())).expect("trace run");
        assert_eq!(report.admitted, report.submitted);
        assert_eq!(report.planned, report.admitted, "planning failed");
        assert_eq!(report.executed, report.planned, "execution failed");
        assert_eq!(report.traces, report.admitted);
        assert!(
            report.completeness_pct() >= 95.0,
            "completeness {:.1}% ({}/{})",
            report.completeness_pct(),
            report.complete,
            report.traces
        );
        // The flamegraph covers every tier.
        let sites_seen: Vec<&str> = report.flame.iter().map(|r| r.site).collect();
        assert!(sites_seen.contains(&"serve.request"), "{sites_seen:?}");
        assert!(
            report.flame.iter().any(|r| r.site.starts_with("exec.")),
            "{sites_seen:?}"
        );
        // Chrome artifact is structurally sound and the slow log is
        // never empty when requests ran.
        assert!(report.chrome_json.starts_with("{\"traceEvents\":["));
        assert_eq!(
            report.chrome_json.matches('{').count(),
            report.chrome_json.matches('}').count()
        );
        assert!(!report.slow.is_empty());
        assert!(report.slow[0].tree.contains("serve.request"));
        let rendered = report.render();
        assert!(rendered.contains("flamegraph"));
        assert!(rendered.contains("slow requests"));
    }
}
