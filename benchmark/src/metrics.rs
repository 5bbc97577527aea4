//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! is printed from this table (`--print-benchmark-json`) and a unit test
//! holds the committed file to it, so the two cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics carry no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`, and the
/// default of `run.sh`).
pub const RUN_SECONDS: u64 = 25;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "plan-exact",
        "Exact DP planning time (paper objective a): only dp/core/parallel/gpu/cost work; serve, cluster, cache and exec are idle.",
    ),
    (
        "plan-large",
        "Heuristics on 30-200 relations (objective b): the DP core as hundreds of <=15-relation sub-problems; carries plan quality.",
    ),
    (
        "serve-hot",
        "All cache hits through ServeFront and PlanCluster: queue, dispatch, wake, route, fingerprint, cache; planner and executor idle.",
    ),
    (
        "e2e-mixed",
        "Full path per request incl. execution and feedback with ~10% misses: the parts must reconcile to the whole; mpdp-exec dominates.",
    ),
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them (see the README for what each means where).
///
/// The timings are at the host's nominal speed (divided by the slowdown the
/// run measured on its reference work, `host::reference_tick`). Their bounds
/// are the widest the benchmark contract allows, not the 10-15 % the issue
/// proposed: on this shared 2-vCPU host ten runs of one build spread 10-24 %
/// (interquartile range over median) raw and 2-8 % at nominal speed, and a
/// bound must stay well clear of the ruler's own noise on a worse day. The
/// README records the measured spreads.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("latency_mean_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("plan_ms_geomean", "ms", Lower, 0.25),
    e2e("plan_cost_ratio_geomean", "ratio", Lower, 0.05),
    e2e("ok_share", "ratio", Higher, 0.001),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// Per-layer metrics, grouped by the module they probe. A value of 0 means
/// the workload does not exercise that layer.
pub const PER_LAYER: &[Metric] = &[
    // mpdp-dp / mpdp-core: exact counts of one pass over the cells.
    layer("dp.ccp", "count", Lower),
    layer("dp.evaluated", "count", Lower),
    layer("dp.sets", "count", Lower),
    layer("dp.evaluated_per_ccp", "ratio", Lower),
    layer("dp.ccp_per_s", "1/s", Higher),
    layer("memo.probes_per_ccp", "ratio", Lower),
    layer("memo.cas_retries", "count", Lower),
    layer("memo.load", "ratio", Lower),
    layer("strategy.dpccp.plan_ms_geomean", "ms", Lower),
    layer("strategy.mpdp.plan_ms_geomean", "ms", Lower),
    layer("strategy.mpdp-cpu.plan_ms_geomean", "ms", Lower),
    layer("strategy.mpdp-par.plan_ms_geomean", "ms", Lower),
    layer("strategy.mpdp-gpu.plan_ms_geomean", "ms", Lower),
    layer("shape.star.plan_ms_geomean", "ms", Lower),
    layer("shape.snowflake.plan_ms_geomean", "ms", Lower),
    layer("shape.clique.plan_ms_geomean", "ms", Lower),
    layer("shape.musicbrainz.plan_ms_geomean", "ms", Lower),
    layer("shape.job.plan_ms_geomean", "ms", Lower),
    layer("shape.cycle.plan_ms_geomean", "ms", Lower),
    layer("shape.chain.plan_ms_geomean", "ms", Lower),
    // mpdp-parallel, mpdp-gpu, mpdp-cost.
    layer("parallel.speedup", "ratio", Higher),
    layer("gpu.sim_wall_ms_geomean", "ms", Lower),
    layer("gpu.model_ms_geomean", "ms", Lower),
    layer("cost.join_cost_ns", "ns", Lower),
    // mpdp-heuristics: time and quality always together.
    layer("heur.goo.plan_ms_geomean", "ms", Lower),
    layer("heur.ikkbz.plan_ms_geomean", "ms", Lower),
    layer("heur.lindp.plan_ms_geomean", "ms", Lower),
    layer("heur.idp2.plan_ms_geomean", "ms", Lower),
    layer("heur.uniondp.plan_ms_geomean", "ms", Lower),
    layer("heur.goo.cost_ratio_geomean", "ratio", Lower),
    layer("heur.ikkbz.cost_ratio_geomean", "ratio", Lower),
    layer("heur.lindp.cost_ratio_geomean", "ratio", Lower),
    layer("heur.idp2.cost_ratio_geomean", "ratio", Lower),
    layer("heur.uniondp.cost_ratio_geomean", "ratio", Lower),
    layer("heur.cost_ratio_max", "ratio", Lower),
    // mpdp-core::fingerprint, mpdp::cache / flight / service.
    layer("core.canonicalize_ns", "ns", Lower),
    layer("cache.get_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("plan.relabel_ns", "ns", Lower),
    layer("service.hit_ns", "ns", Lower),
    layer("service.cold_ms_p50", "ms", Lower),
    layer("cache.hit_share", "ratio", Higher),
    layer("cache.evictions_per_kreq", "count", Lower),
    layer("flight.coalesced_share", "ratio", Higher),
    layer("service.degraded_share", "ratio", Lower),
    // mpdp-cluster.
    layer("cluster.route_ns", "ns", Lower),
    layer("cluster.plan_hit_ns", "ns", Lower),
    layer("cluster.max_shard_share", "ratio", Lower),
    layer("cluster.observe_ns", "ns", Lower),
    layer("cluster.gossip_round_us", "us", Lower),
    layer("cluster.gossip_round_us_first10", "us", Lower),
    layer("cluster.gossip_round_us_last10", "us", Lower),
    layer("cluster.gossip_deliveries_per_round", "count", Lower),
    // mpdp-serve.
    layer("client.latency_p50_us", "us", Lower),
    layer("client.latency_p90_us", "us", Lower),
    layer("serve.submit_ns", "ns", Lower),
    layer("serve.queue_wait_us_p50", "us", Lower),
    layer("serve.queue_wait_us_p99", "us", Lower),
    layer("serve.wake_us_p50", "us", Lower),
    layer("serve.frontend_overhead_us", "us", Lower),
    layer("serve.queue_depth_peak", "count", Lower),
    layer("serve.shed_share", "ratio", Lower),
    layer("serve.open10k.p50_us", "us", Lower),
    layer("serve.open10k.p99_us", "us", Lower),
    layer("serve.open10k.p999_us", "us", Lower),
    layer("serve.open10k.gen_late_p99_us", "us", Lower),
    layer("serve.open10k.shed_share", "ratio", Lower),
    // mpdp-exec and the feedback loop.
    layer("exec.materialize_s", "s", Lower),
    layer("exec.run_ms_p50", "ms", Lower),
    layer("exec.rows_per_s", "1/s", Higher),
    layer("exec.ns_per_row", "ns", Lower),
    layer("exec.bytes_per_row", "B", Lower),
    layer("exec.gbytes_per_s", "GB/s", Higher),
    layer("exec.build_rows_share", "ratio", Lower),
    layer("exec.batches_per_req", "count", Lower),
    layer("exec.share_of_request", "ratio", Lower),
    layer("feedback.observe_ns", "ns", Lower),
    layer("feedback.invalidations_per_kreq", "count", Lower),
    // Self time of each benchmark span as a share of the client wall.
    layer("self.client.request.share", "ratio", Lower),
    layer("self.bench.relabel.share", "ratio", Lower),
    layer("self.serve.submit.share", "ratio", Lower),
    layer("self.serve.queue_wait.share", "ratio", Lower),
    layer("self.service.plan.share", "ratio", Lower),
    layer("self.strategy.share", "ratio", Lower),
    layer("self.serve.wake.share", "ratio", Lower),
    layer("self.bench.remap.share", "ratio", Lower),
    layer("self.exec.execute.share", "ratio", Lower),
    layer("self.cluster.observe.share", "ratio", Lower),
    layer("self.cluster.gossip.share", "ratio", Lower),
    // mpdp-obs, the benchmark itself, the host.
    layer("obs.armed_overhead_pct", "%", Lower),
    layer("obs.spans_per_req", "count", Lower),
    layer("obs.spans_dropped", "count", Lower),
    layer("bench.remap_ns", "ns", Lower),
    layer("bench.unaccounted_share", "ratio", Lower),
    layer("bench.traced_requests", "count", Higher),
    layer("host.calib_ms", "ms", Lower),
    layer("host.reference_ms", "ms", Lower),
    layer("host.slowdown", "ratio", Lower),
    layer("host.memcpy_gbps", "GB/s", Higher),
    layer("host.calib_drift", "ratio", Lower),
];

/// Values measured by one run, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// JSON number with all measured digits; non-finite values read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `metrics` object of a result line: every metric of `catalogue`, in
/// catalogue order. A per-layer metric the workload did not set reads 0; a
/// missing end-to-end metric is a bug in the workload.
pub fn metrics_json(catalogue: &[Metric], values: &Values, end_to_end: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in catalogue.iter().enumerate() {
        let v = match values.get(m.name) {
            Some(v) => v,
            None if end_to_end => panic!("end-to-end metric {} was not measured", m.name),
            None => 0.0,
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(v),
            m.unit
        );
    }
    out.push('}');
    out
}

/// `BENCHMARK.json`, printed from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn catalogue_meets_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "metric name {} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 x workloads runs, their set-up and two builds in 3420 s.
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_printed_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
    }
}
