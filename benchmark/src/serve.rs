//! The two serving workloads, driven through the real front door:
//! `ServeFront::submit` → dispatcher → `PlanCluster` routing → shard
//! `PlanService` (cache, single-flight, strategy) → ticket wake.
//!
//! * `serve-hot`: every request is a cache hit, so only the hand-offs, the
//!   fingerprint and the cache work; planner and executor are idle.
//! * `e2e-mixed`: the working set is larger than the caches, every served
//!   plan is executed on materialized tables and the execution is fed back,
//!   so misses, evictions, single-flight, the executor and feedback
//!   invalidation are all live and the parts must add up to the whole.
//!
//! Both are closed loops: a planner's callers are database sessions that
//! wait for their plan before doing anything else. `clients()` threads
//! generate all load from this one process.

use crate::checks::{close, validate_and_recost};
use crate::host::{reference_take, reference_tick, Slowdown};
use crate::inputs::{perturb_stats, POOL_SEED};
use crate::metrics::Values;
use crate::rng::{derive, RequestStream};
use crate::spans::{Name, Recorder, RequestSpans};
use crate::stats::{geomean, median, percentile, share, Stat, Windowed};
use crate::{PhaseOutcome, Workload};
use mpdp::cache::{CacheConfig, CachedPlan, PlanCache};
use mpdp::core::{canonicalize, CacheSnapshot, Fingerprint, LargeQuery};
use mpdp::cost::PgLikeCost;
use mpdp::exec::{materialize, Dataset, ExecConfig, ExecReport, Executor, GenConfig, SkewedEdge};
use mpdp::service::{PlanRequest, PlanService, ServedVia};
use mpdp::workload::{StreamSpec, ZipfStream};
use mpdp::{registry, Planned};
use mpdp_cluster::{ClusterConfig, PlanCluster};
use mpdp_obs::Tracer;
use mpdp_serve::{ServeConfig, ServeFront, TenantConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

/// Client threads: two sessions, or one on a single-core host.
fn clients() -> usize {
    crate::host::cores().min(2)
}

/// `e2e-mixed`: an operator may emit at most this many rows…
const OUTPUT_CAP: usize = 2_000_000;
/// …and a kept template's optimal plan touches at most this many.
const ROWS_TOUCHED_CAP: u64 = 1_500_000;
/// `e2e-mixed`: client 0 runs a gossip round every this many requests.
const GOSSIP_EVERY: u64 = 256;
/// Full plan-validity check (beside the per-request cost check) every this
/// many requests of a client; it costs about as much as a hit.
const VALIDATE_EVERY: u64 = 64;
/// `e2e-mixed`: unmeasured requests per client that bring caches, the hot
/// table and the gossip log to their running state.
const MIXED_WARM_REQUESTS: u64 = 400;

struct Template {
    /// What clients relabel and submit (`Dataset::scaled` on `e2e-mixed`).
    query: LargeQuery,
    /// `serve-hot`: the cost its warm-up plan had. `e2e-mixed`: the exact
    /// optimum of the template. Served costs are held against it.
    reference_cost: f64,
    /// `serve-hot`: `Planned.wall` of its set-up cold plan (the faster of its
    /// replicas' two, so one preempted plan does not stand for the template).
    cold_plan_ms: f64,
    /// `e2e-mixed` only: the tables and the reference result cardinality
    /// (from an independent GOO plan; cardinality is plan-invariant).
    data: Option<Dataset>,
    reference_rows: u64,
}

struct Spec {
    kind: Kind,
    templates: usize,
    zipf: f64,
    /// Plan-cache capacity of each cluster shard.
    shard_cache: usize,
}

impl Spec {
    fn of(kind: Kind) -> Spec {
        match kind {
            // 200 templates fit every shard's cache with room to spare.
            Kind::Hot => Spec {
                kind,
                templates: 200,
                zipf: 1.1,
                shard_cache: 4096,
            },
            // 96 templates against 64 entries per shard: steady evictions.
            Kind::Mixed => Spec {
                kind,
                templates: 96,
                zipf: 0.8,
                shard_cache: 64,
            },
        }
    }
}

pub struct ServeWorkload {
    spec: Spec,
    seed: u64,
    model: Arc<PgLikeCost>,
    templates: Vec<Template>,
    /// The untraced front-end, warm. Traced phases build their own (the
    /// program's tracer is fixed when a front-end is constructed).
    front: ServeFront,
    materialize_s: f64,
    phases: u64,
    setup_slowdown: Slowdown,
}

/// The front-end under test: 2 dispatchers on 2 executor threads behind a
/// 1024-deep queue, one tenant backed by a 2-shard cluster with R = 2.
fn front(spec: &Spec, model: &Arc<PgLikeCost>, tracer: Tracer) -> ServeFront {
    let mut tenant = TenantConfig::named("bench").clustered(ClusterConfig {
        shards: 2,
        replicas: 2,
        ..ClusterConfig::default()
    });
    tenant.cache_capacity = spec.shard_cache;
    ServeFront::new(
        ServeConfig {
            queue_depth: 1024,
            dispatchers: 2,
            executor_threads: 2,
            tracer,
            tenants: vec![tenant],
            ..ServeConfig::default()
        },
        model.clone(),
    )
}

fn cluster(front: &ServeFront) -> &Arc<PlanCluster> {
    front
        .cluster(0)
        .expect("the bench tenant is cluster-backed")
}

fn exec_config() -> ExecConfig {
    ExecConfig {
        workers: 1,
        max_output_rows: OUTPUT_CAP,
        ..ExecConfig::default()
    }
}

/// The fixed candidate pool both workloads draw templates from (8-14
/// relations over the six generator families).
fn pool(count: usize, model: &PgLikeCost) -> Vec<LargeQuery> {
    ZipfStream::new(
        &StreamSpec {
            templates: count,
            skew: 1.0,
            min_rels: 8,
            max_rels: 14,
            seed: POOL_SEED,
        },
        model,
    )
    .templates()
    .iter()
    .map(|t| t.query.clone())
    .collect()
}

/// `e2e-mixed` template filter, decided by counts only (never by a timing):
/// keep a candidate iff its exact-optimal plan and an independent GOO plan
/// both execute under the output cap, agree on the result cardinality, and
/// the optimal plan touches at most `ROWS_TOUCHED_CAP` rows.
fn mixed_template(
    candidate: &LargeQuery,
    index: usize,
    seed: u64,
    model: &PgLikeCost,
    materialize_s: &mut f64,
) -> Option<Template> {
    // One template in eight carries a hot key on one edge, which the
    // statistics know nothing about: its estimate is wrong by far more than
    // the feedback threshold, so its cached plan is invalidated after every
    // execution. The smallest edge is skewed so the result stays under cap.
    let skew = index
        .is_multiple_of(8)
        .then(|| {
            candidate.edges.iter().min_by(|a, b| {
                let size = |e: &&mpdp::core::LargeEdge| {
                    candidate.rels[e.u as usize].rows * candidate.rels[e.v as usize].rows
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
    let start = Instant::now();
    let data = materialize(
        candidate,
        &GenConfig {
            seed: derive(seed, 0x4441_5441 + index as u64),
            max_table_rows: 30_000,
            skew: skew.into_iter().collect(),
            ..GenConfig::default()
        },
        model,
    );
    *materialize_s += start.elapsed().as_secs_f64();
    let optimal = registry()
        .get("MPDP")?
        .plan(&data.scaled, model, None)
        .ok()?;
    let greedy = registry()
        .get("GOO")?
        .plan(&data.scaled, model, None)
        .ok()?;
    let exec = Executor::new(&data.scaled, &data, exec_config());
    let ran = exec.execute(&optimal.plan).ok()?;
    let reference = exec.execute(&greedy.plan).ok()?;
    (ran.root_rows == reference.root_rows && ran.counters.rows_touched() <= ROWS_TOUCHED_CAP).then(
        || Template {
            query: data.scaled.clone(),
            reference_cost: optimal.cost,
            cold_plan_ms: f64::NAN,
            reference_rows: reference.root_rows,
            data: Some(data),
        },
    )
}

impl ServeWorkload {
    pub fn set_up(kind: Kind, seed: u64) -> ServeWorkload {
        reference_take();
        let spec = Spec::of(kind);
        let model = Arc::new(PgLikeCost::new());
        let mut materialize_s = 0.0;
        let templates: Vec<Template> = match kind {
            Kind::Hot => pool(spec.templates, &model)
                .iter()
                .enumerate()
                .map(|(i, q)| Template {
                    query: perturb_stats(q, derive(seed, 0x544d_504c + i as u64), &*model),
                    reference_cost: f64::NAN,
                    cold_plan_ms: f64::NAN,
                    data: None,
                    reference_rows: 0,
                })
                .collect(),
            Kind::Mixed => pool(2 * spec.templates, &model)
                .iter()
                .enumerate()
                .filter_map(|(i, q)| {
                    reference_tick();
                    mixed_template(q, i, seed, &model, &mut materialize_s)
                })
                .take(spec.templates)
                .collect(),
        };
        assert_eq!(
            templates.len(),
            spec.templates,
            "the candidate pool ran out before {} templates passed the filter",
            spec.templates
        );
        let front = front(&spec, &model, Tracer::disabled());
        let mut w = ServeWorkload {
            spec,
            seed,
            model,
            templates,
            front,
            materialize_s,
            phases: 0,
            setup_slowdown: Slowdown::default(),
        };
        w.warm(None);
        w.setup_slowdown = reference_take();
        w
    }

    /// Brings a front-end to its running state. `serve-hot`: plan every
    /// template on every shard of its replica set, so no request of the
    /// measured phase can miss, and note each template's cost.
    /// `e2e-mixed`: run unmeasured requests through the whole path.
    fn warm(&mut self, traced_front: Option<&ServeFront>) {
        let front = traced_front.unwrap_or(&self.front);
        match self.spec.kind {
            Kind::Hot => {
                let cluster = cluster(front);
                for t in &mut self.templates {
                    let fp = canonicalize(&t.query).fingerprint;
                    for shard in cluster.replica_set(fp) {
                        let served = cluster
                            .shard_service(shard)
                            .expect("replica sets name live shards")
                            .plan_coalesced(&t.query, &*self.model, &PlanRequest::default())
                            .expect("warm-up plan of an 8-14 relation template");
                        t.reference_cost = served.planned.cost;
                        // `f64::min` ignores the NaN a fresh template starts with.
                        t.cold_plan_ms =
                            t.cold_plan_ms.min(served.planned.wall.as_secs_f64() * 1e3);
                    }
                    reference_tick();
                }
            }
            Kind::Mixed => {
                let ctx = PhaseCtx {
                    w: self,
                    front,
                    traced: false,
                    epoch: Instant::now(),
                    lane_base: 1 << 32,
                };
                std::thread::scope(|s| {
                    for client in 0..clients() {
                        let ctx = &ctx;
                        s.spawn(move || ctx.client(client, Stop::Count(MIXED_WARM_REQUESTS)));
                    }
                });
            }
        }
    }
}

enum Stop {
    At(Instant),
    Count(u64),
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    latency_us: Windowed,
    /// Time this client spent on the reference work, between requests.
    reference: Duration,
    recorder: Recorder,
    /// `(template, Planned.wall in ms)` of every cold-served request.
    cold_plan_ms: Vec<(usize, f64)>,
    /// Sum of `ln(served cost / template optimum)` and its count.
    cost_ratio_ln: (f64, u64),
    // Layer samples, kept only on traced phases.
    submit_ns: Vec<f64>,
    /// Submit entry → ticket resolved, us (the front-end round trip).
    front_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    wake_us: Vec<f64>,
    cold_service_ms: Vec<f64>,
    remap_ns: u64,
    exec_ms: Vec<f64>,
    exec_ns: u64,
    exec_build_rows: u64,
    exec_probe_rows: u64,
    exec_rows_touched: u64,
    exec_batches: u64,
    exec_bytes: f64,
    observe_ns: u64,
    /// `(seconds into the phase, round duration in us, deliveries)`.
    gossip: Vec<(f64, f64, u64)>,
    first_failure: Option<String>,
}

impl ClientOut {
    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    fn merge(&mut self, o: ClientOut) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latency_us.merge(o.latency_us);
        self.reference += o.reference;
        self.recorder.merge(o.recorder);
        self.submit_ns.extend(o.submit_ns);
        self.front_us.extend(o.front_us);
        self.queue_wait_us.extend(o.queue_wait_us);
        self.wake_us.extend(o.wake_us);
        self.cold_service_ms.extend(o.cold_service_ms);
        self.cold_plan_ms.extend(o.cold_plan_ms);
        self.cost_ratio_ln.0 += o.cost_ratio_ln.0;
        self.cost_ratio_ln.1 += o.cost_ratio_ln.1;
        self.remap_ns += o.remap_ns;
        self.exec_ms.extend(o.exec_ms);
        self.exec_ns += o.exec_ns;
        self.exec_build_rows += o.exec_build_rows;
        self.exec_probe_rows += o.exec_probe_rows;
        self.exec_rows_touched += o.exec_rows_touched;
        self.exec_batches += o.exec_batches;
        self.exec_bytes += o.exec_bytes;
        self.observe_ns += o.observe_ns;
        self.gossip.extend(o.gossip);
        self.first_failure = self.first_failure.take().or(o.first_failure);
    }
}

/// Bytes the executor's kernels move for `report`, computed from column
/// widths (not measured): per join, every input row gathers one 4-byte rowid
/// and one 8-byte key per crossing edge and writes an 8-byte hash; every
/// build row takes 8 bytes of table links; every output row reads and
/// writes one 4-byte rowid per participating relation.
fn exec_bytes(report: &ExecReport) -> f64 {
    report
        .joins
        .iter()
        .map(|j| {
            let inputs = (j.inputs.0 + j.inputs.1) as f64;
            let rels = (j.left.len() + j.right.len()) as f64;
            inputs * (j.edges.len() as f64 * 12.0 + 8.0)
                + j.inputs.1 as f64 * 8.0
                + j.output as f64 * rels * 8.0
        })
        .sum()
}

fn inverse(new_of_old: &[usize]) -> Vec<u32> {
    let mut old_of_new = vec![0u32; new_of_old.len()];
    for (old, &new) in new_of_old.iter().enumerate() {
        old_of_new[new] = old as u32;
    }
    old_of_new
}

struct PhaseCtx<'a> {
    w: &'a ServeWorkload,
    front: &'a ServeFront,
    traced: bool,
    epoch: Instant,
    /// Distinguishes this phase's request lists from every other phase's.
    lane_base: u64,
}

impl PhaseCtx<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// One closed-loop session: relabel → submit → wait → check, and on
    /// `e2e-mixed` → map back → execute → check → observe.
    fn client(&self, client: usize, stop: Stop) -> ClientOut {
        let w = self.w;
        let mixed = w.spec.kind == Kind::Mixed;
        let cluster = cluster(self.front);
        let mut stream = RequestStream::new(
            w.seed,
            self.lane_base + client as u64,
            w.spec.zipf,
            w.templates.iter().map(|t| t.query.num_rels()).collect(),
        );
        let mut out = ClientOut::default();
        let mut spans = RequestSpans::default();
        loop {
            match stop {
                Stop::At(deadline) if Instant::now() >= deadline => break,
                Stop::Count(n) if out.attempted >= n => break,
                _ => {}
            }
            let (rank, perm) = stream.next_request();
            let template = &w.templates[rank];
            out.attempted += 1;

            let t0 = Instant::now();
            let query = template.query.relabel(&perm);
            let t1 = Instant::now();
            let submitted = self.front.submit(0, query);
            let t2 = Instant::now();
            let ticket = match submitted {
                Ok(ticket) => ticket,
                Err(refused) => {
                    out.fail(|| format!("request refused: {refused}"));
                    continue;
                }
            };
            let done = ticket.wait();
            let t3 = Instant::now();
            let served = match &done.result {
                Ok(served) => served,
                Err(e) => {
                    out.fail(|| format!("request failed: {e}"));
                    continue;
                }
            };
            if !mixed && served.via != ServedVia::Hit {
                out.fail(|| {
                    format!(
                        "template {rank} was served {:?}, not from cache",
                        served.via
                    )
                });
                continue;
            }
            // `serve-hot`: the cost the warm-up saw. `e2e-mixed`: the exact
            // optimum (a request may re-plan, but never to a worse plan).
            if !close(served.planned.cost, template.reference_cost, 1e-9) {
                out.fail(|| {
                    format!(
                        "template {rank}: served cost {} but expected {}",
                        served.planned.cost, template.reference_cost
                    )
                });
                continue;
            }

            out.cost_ratio_ln.0 += (served.planned.cost / template.reference_cost).ln();
            out.cost_ratio_ln.1 += 1;
            if served.via == ServedVia::Cold {
                out.cold_plan_ms
                    .push((rank, served.planned.wall.as_secs_f64() * 1e3));
            }

            let mut t_end = t3;
            let mut stamps = None;
            if mixed || out.attempted.is_multiple_of(VALIDATE_EVERY) {
                let t4 = Instant::now();
                let plan = served.planned.plan.relabel(&inverse(&perm));
                let t5 = Instant::now();
                if !mixed {
                    // Sampled: the plan, back in the template's labels, is a
                    // valid join tree whose shape re-derives the served cost.
                    match validate_and_recost(&plan, &template.query, &*w.model) {
                        Ok(cost) if close(cost, served.planned.cost, 1e-9) => {}
                        Ok(cost) => {
                            out.fail(|| format!("template {rank}: plan re-derives to {cost}"));
                            continue;
                        }
                        Err(why) => {
                            out.fail(|| format!("template {rank}: {why}"));
                            continue;
                        }
                    }
                    t_end = Instant::now();
                } else {
                    let data = template.data.as_ref().expect("mixed templates carry data");
                    let mut exec = Executor::new(&template.query, data, exec_config());
                    if self.traced {
                        exec = exec.with_trace(done.trace.clone());
                    }
                    let report = match exec.execute(&plan) {
                        Ok(report) => report,
                        Err(e) => {
                            out.fail(|| format!("template {rank}: execution failed: {e}"));
                            continue;
                        }
                    };
                    let t6 = Instant::now();
                    if report.root_rows != template.reference_rows {
                        out.fail(|| {
                            format!(
                                "template {rank}: {} result rows, reference plan gave {}",
                                report.root_rows, template.reference_rows
                            )
                        });
                        continue;
                    }
                    let t7 = Instant::now();
                    cluster.observe(served.fingerprint, &*w.model, &report);
                    let t8 = Instant::now();
                    let mut t9 = t8;
                    if client == 0 && out.attempted.is_multiple_of(GOSSIP_EVERY) {
                        let deliveries = cluster.run_gossip_round();
                        t9 = Instant::now();
                        if self.traced {
                            out.gossip.push((
                                self.ns(t9) as f64 / 1e9,
                                (t9 - t8).as_secs_f64() * 1e6,
                                deliveries,
                            ));
                        }
                    }
                    t_end = t9;
                    if self.traced {
                        out.remap_ns += (t5 - t4).as_nanos() as u64;
                        out.exec_ms.push((t6 - t5).as_secs_f64() * 1e3);
                        out.exec_ns += (t6 - t5).as_nanos() as u64;
                        out.exec_build_rows += report.counters.build_rows;
                        out.exec_probe_rows += report.counters.probe_rows;
                        out.exec_rows_touched += report.counters.rows_touched();
                        out.exec_batches += report.counters.batches;
                        out.exec_bytes += exec_bytes(&report);
                        out.observe_ns += (t8 - t7).as_nanos() as u64;
                    }
                    stamps = Some((t4, t5, t6, t7, t8, t9));
                }
            }

            // Client-observed latency: submit entry → result usable (on
            // `e2e-mixed`: through execution and feedback).
            let usable = if mixed { t_end } else { t3 };
            out.latency_us.record(
                self.ns(usable) as f64 / 1e9,
                (usable - t1).as_secs_f64() * 1e6,
            );

            if self.traced {
                let latency = done.latency;
                let service = served.service_time;
                out.submit_ns.push((t2 - t1).as_nanos() as f64);
                out.front_us.push((t3 - t1).as_secs_f64() * 1e6);
                out.queue_wait_us
                    .push(latency.saturating_sub(service).as_secs_f64() * 1e6);
                out.wake_us
                    .push((t3 - t1).saturating_sub(latency).as_secs_f64() * 1e6);
                if served.via == ServedVia::Cold {
                    out.cold_service_ms.push(service.as_secs_f64() * 1e3);
                }

                // The front-end's share of [t1, t3], laid end to end from
                // the public result fields: time inside `submit`, then the
                // queue wait not already covered by it, then the service
                // time, then whatever is left is the wake-up.
                spans.begin(out.attempted + ((client as u64) << 40));
                let root = spans.push(Name::Request, 0, self.ns(t0), self.ns(t_end));
                spans.push(Name::Relabel, root, self.ns(t0), self.ns(t1));
                spans.push(Name::Submit, root, self.ns(t1), self.ns(t2));
                let (n2, n3) = (self.ns(t2), self.ns(t3));
                let in_submit = (t2 - t1).as_nanos() as u64;
                let queued = (latency.saturating_sub(service).as_nanos() as u64)
                    .saturating_sub(in_submit)
                    .min(n3 - n2);
                spans.push(Name::QueueWait, root, n2, n2 + queued);
                let plan_start = n2 + queued;
                let plan_end = (plan_start + service.as_nanos() as u64).min(n3);
                let plan = spans.push(Name::Plan, root, plan_start, plan_end);
                if served.via == ServedVia::Cold {
                    let wall = (served.planned.wall.as_nanos() as u64).min(plan_end - plan_start);
                    spans.push(Name::Strategy, plan, plan_end - wall, plan_end);
                }
                spans.push(Name::Wake, root, plan_end, n3);
                if let Some((t4, t5, t6, t7, t8, t9)) = stamps {
                    spans.push(Name::Remap, root, self.ns(t4), self.ns(t5));
                    spans.push(Name::Execute, root, self.ns(t5), self.ns(t6));
                    spans.push(Name::Observe, root, self.ns(t7), self.ns(t8));
                    if t9 > t8 {
                        spans.push(Name::Gossip, root, self.ns(t8), self.ns(t9));
                    }
                }
                out.recorder.record(&spans);
            }
            // Warm-ups run inside set-up, whose reference work stays on the
            // thread that times it.
            if matches!(stop, Stop::At(_)) {
                out.reference += reference_tick();
            }
        }
        out
    }
}

impl Workload for ServeWorkload {
    fn setup_slowdown(&self) -> Slowdown {
        self.setup_slowdown
    }

    fn run_phase(&mut self, seconds: f64, traced: bool) -> PhaseOutcome {
        self.phases += 1;
        let tracer = if traced {
            // 64 Ki spans per recording thread; older ones are overwritten
            // and counted as dropped below.
            Tracer::armed(1 << 16)
        } else {
            Tracer::disabled()
        };
        let traced_front = traced.then(|| front(&self.spec, &self.model, tracer.clone()));
        let mut warm_spans = 0;
        if let Some(f) = &traced_front {
            self.warm(Some(f));
            // Span ids are handed out in order: the largest one the warm-up
            // used is where this phase's count starts.
            warm_spans = tracer.drain().iter().map(|s| s.span).max().unwrap_or(0);
        }
        let front = traced_front.as_ref().unwrap_or(&self.front);
        let cluster = cluster(front);

        let serve_before = front.serve_counters();
        let cache_before = front.cache_counters(0);
        let shards_before = cluster.shard_snapshots();
        reference_take();
        let epoch = Instant::now();
        let ctx = PhaseCtx {
            w: self,
            front,
            traced,
            epoch,
            lane_base: self.phases << 8,
        };
        let deadline = epoch + Duration::from_secs_f64(seconds);
        let mut all = ClientOut::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients())
                .map(|client| {
                    let ctx = &ctx;
                    s.spawn(move || ctx.client(client, Stop::At(deadline)))
                })
                .collect();
            for h in handles {
                all.merge(h.join().expect("client thread panicked"));
            }
        });
        let elapsed_s = epoch.elapsed().as_secs_f64();
        let slowdown = reference_take();
        let serve = front.serve_counters().delta(&serve_before);
        let cache = front.cache_counters(0).delta(&cache_before);

        let mut out = PhaseOutcome {
            attempted: all.attempted,
            failed: all.failed,
            elapsed_s,
            slowdown,
            ..PhaseOutcome::default()
        };
        if let Some(why) = all.first_failure.take() {
            out.invariant_failures
                .push(format!("first failed request: {why}"));
        }
        // Accounting identities of the front door and the caches.
        if serve.accepted != serve.completed + serve.failed {
            out.invariant_failures.push(format!(
                "accepted {} != completed {} + failed {}",
                serve.accepted, serve.completed, serve.failed
            ));
        }
        let outcomes = cache.hits + cache.misses + cache.coalesced + cache.degraded;
        if outcomes != serve.completed {
            out.invariant_failures.push(format!(
                "hits+misses+coalesced+degraded = {outcomes} but {} requests completed",
                serve.completed
            ));
        }
        if self.spec.kind == Kind::Hot && cache.misses != 0 {
            out.invariant_failures.push(format!(
                "{} cache misses on the all-hit workload",
                cache.misses
            ));
        }

        let ok = (all.attempted - all.failed) as f64;
        let whole_seconds = seconds.floor() as usize;
        // Every timing below is divided by how much slower than nominal the
        // host ran the reference work between the requests
        // (`host::Reference`), and the clients' time on that work is not
        // time they had for requests.
        let slow = slowdown.factor();
        let serving_s = elapsed_s - all.reference.as_secs_f64() / clients() as f64;
        let v = &mut out.values;
        v.set("throughput_per_s", ok / serving_s * slow);
        // The mean, not the median: on `serve-hot` the distribution has two
        // modes (a dispatcher was awake / had to be woken) and the median
        // sits in the trough between them, reading 8-29 us from run to run
        // of one build while the mean moves 4 % (README, "How steady").
        v.set(
            "latency_mean_us",
            all.latency_us.median_of(Stat::Mean, whole_seconds) / slow,
        );
        v.set(
            "latency_p99_us",
            all.latency_us.median_of(Stat::P99, whole_seconds) / slow,
        );
        out.samples_beyond_p99 = all.latency_us.count() / 100;
        // What a cold plan costs on this workload's templates: on
        // `serve-hot` they happened in set-up (the phase has none), on
        // `e2e-mixed` they are the phase's misses.
        v.set(
            "plan_ms_geomean",
            match self.spec.kind {
                Kind::Hot => {
                    geomean(self.templates.iter().map(|t| t.cold_plan_ms))
                        / self.setup_slowdown.factor()
                }
                // Per template first: a skewed template re-plans after every
                // execution and would otherwise weigh a hundred times more
                // than one that missed once.
                Kind::Mixed => {
                    geomean((0..self.templates.len()).filter_map(|rank| {
                        let mut walls: Vec<f64> = all
                            .cold_plan_ms
                            .iter()
                            .filter(|(r, _)| *r == rank)
                            .map(|(_, ms)| *ms)
                            .collect();
                        (!walls.is_empty()).then(|| median(&mut walls))
                    })) / slow
                }
            },
        );
        // Served cost over the template's optimum. Every route for 8-14
        // relations is exact, so anything but 1 is a wrong plan.
        v.set(
            "plan_cost_ratio_geomean",
            (all.cost_ratio_ln.0 / all.cost_ratio_ln.1.max(1) as f64).exp(),
        );

        if traced {
            let spans = tracer.drain();
            self.layer_values(
                &mut all,
                &serve,
                &cache,
                &shards_before,
                cluster,
                elapsed_s,
                v,
            );
            obs_values(&spans, warm_spans, all.attempted, v);
            if self.spec.kind == Kind::Hot {
                // Against the untraced front-end: the probe measures the
                // program, not the tracer.
                open_loop_probe(self, seconds.min(10.0), v);
            }
            if self.spec.kind == Kind::Mixed {
                let unaccounted = all.recorder.self_share(Name::Request);
                if unaccounted > 0.05 {
                    out.invariant_failures.push(format!(
                        "span self times leave {:.1} % of the client wall unaccounted (limit 5 %)",
                        100.0 * unaccounted
                    ));
                }
            }
        }
        out.recorder = all.recorder;
        out
    }
}

impl ServeWorkload {
    #[allow(clippy::too_many_arguments)]
    fn layer_values(
        &self,
        all: &mut ClientOut,
        serve: &mpdp::core::counters::ServeSnapshot,
        cache: &CacheSnapshot,
        shards_before: &[(u32, CacheSnapshot)],
        cluster: &PlanCluster,
        elapsed_s: f64,
        v: &mut Values,
    ) {
        let requests = all.attempted as f64;
        let whole_seconds = elapsed_s.floor() as usize;
        v.set(
            "client.latency_p50_us",
            all.latency_us.median_of(Stat::P50, whole_seconds),
        );
        v.set(
            "client.latency_p90_us",
            all.latency_us.median_of(Stat::P90, whole_seconds),
        );
        let per_kreq = |n: u64| 1e3 * share(n as f64, requests);
        // Medians: a client preempted inside `submit` reads as milliseconds.
        v.set("serve.submit_ns", percentile(&mut all.submit_ns, 50.0));
        v.set(
            "serve.queue_wait_us_p50",
            percentile(&mut all.queue_wait_us, 50.0),
        );
        v.set(
            "serve.queue_wait_us_p99",
            percentile(&mut all.queue_wait_us, 99.0),
        );
        v.set("serve.wake_us_p50", percentile(&mut all.wake_us, 50.0));
        v.set("serve.queue_depth_peak", serve.queue_depth_peak as f64);
        v.set(
            "serve.shed_share",
            share(serve.sheds() as f64, serve.offered() as f64),
        );
        v.set(
            "service.cold_ms_p50",
            percentile(&mut all.cold_service_ms, 50.0),
        );
        let outcomes = (cache.hits + cache.misses + cache.coalesced + cache.degraded) as f64;
        v.set("cache.hit_share", share(cache.hits as f64, outcomes));
        v.set("cache.evictions_per_kreq", per_kreq(cache.evictions));
        v.set(
            "flight.coalesced_share",
            share(cache.coalesced as f64, outcomes),
        );
        v.set(
            "service.degraded_share",
            share(cache.degraded as f64, outcomes),
        );
        v.set(
            "feedback.invalidations_per_kreq",
            per_kreq(cache.feedback_invalidations),
        );
        let per_shard: Vec<f64> = cluster
            .shard_snapshots()
            .iter()
            .zip(shards_before)
            .map(|((_, now), (_, before))| {
                let d = now.delta(before);
                (d.hits + d.misses + d.coalesced + d.degraded) as f64
            })
            .collect();
        v.set(
            "cluster.max_shard_share",
            share(
                per_shard.iter().copied().fold(0.0, f64::max),
                per_shard.iter().sum(),
            ),
        );

        if self.spec.kind == Kind::Mixed {
            v.set("exec.materialize_s", self.materialize_s);
            v.set("exec.run_ms_p50", percentile(&mut all.exec_ms, 50.0));
            let exec_s = all.exec_ns as f64 / 1e9;
            let rows = all.exec_rows_touched as f64;
            v.set("exec.rows_per_s", share(rows, exec_s));
            v.set("exec.ns_per_row", share(all.exec_ns as f64, rows));
            v.set("exec.bytes_per_row", share(all.exec_bytes, rows));
            v.set("exec.gbytes_per_s", share(all.exec_bytes / 1e9, exec_s));
            v.set(
                "exec.build_rows_share",
                share(
                    all.exec_build_rows as f64,
                    (all.exec_build_rows + all.exec_probe_rows) as f64,
                ),
            );
            v.set(
                "exec.batches_per_req",
                share(all.exec_batches as f64, requests),
            );
            v.set(
                "exec.share_of_request",
                all.recorder.self_share(Name::Execute),
            );
            v.set("cluster.observe_ns", share(all.observe_ns as f64, requests));
            v.set("bench.remap_ns", share(all.remap_ns as f64, requests));
            // The event log grows with every `observe`, and a round copies
            // the whole log: report the run's median round, and the median
            // of its first and last tenth (or the first / last round, when
            // a tenth holds none).
            all.gossip.sort_by(|a, b| a.0.total_cmp(&b.0));
            let rounds = &all.gossip;
            let window_us = |from: f64, to: f64, otherwise: Option<&(f64, f64, u64)>| {
                let mut us: Vec<f64> = rounds
                    .iter()
                    .filter(|(at, _, _)| *at >= from * elapsed_s && *at < to * elapsed_s)
                    .map(|(_, us, _)| *us)
                    .collect();
                if us.is_empty() {
                    us.extend(otherwise.map(|(_, us, _)| *us));
                }
                median(&mut us)
            };
            v.set("cluster.gossip_round_us", window_us(0.0, 2.0, None));
            v.set(
                "cluster.gossip_round_us_first10",
                window_us(0.0, 0.1, rounds.first()),
            );
            v.set(
                "cluster.gossip_round_us_last10",
                window_us(0.9, 2.0, rounds.last()),
            );
            v.set(
                "cluster.gossip_deliveries_per_round",
                share(
                    all.gossip.iter().map(|(_, _, d)| *d as f64).sum(),
                    all.gossip.len() as f64,
                ),
            );
        }

        let probes = direct_probes(self);
        // What the front-end adds to the same plan served by a direct call.
        v.set(
            "serve.frontend_overhead_us",
            percentile(&mut all.front_us, 50.0)
                - probes.get("cluster.plan_hit_ns").unwrap_or(0.0) / 1e3,
        );
        v.extend(probes);
        crate::self_time_values(&all.recorder, v);
    }
}

/// What the program's own tracer recorded during the traced phase: spans
/// minted per request (span ids are handed out in order, so the largest id
/// seen, less the `before` the warm-up reached, is the number minted), how many the rings overwrote, and the
/// per-site fold of the ones that survived.
fn obs_values(spans: &[mpdp_obs::SpanRec], before: u64, requests: u64, v: &mut Values) {
    let minted = spans
        .iter()
        .map(|s| s.span)
        .max()
        .unwrap_or(before)
        .saturating_sub(before);
    v.set("obs.spans_per_req", share(minted as f64, requests as f64));
    v.set(
        "obs.spans_dropped",
        minted.saturating_sub(spans.len() as u64) as f64,
    );
    for row in mpdp_obs::flamegraph(spans) {
        println!(
            "# obs-site {} spans {} inclusive_ms {:.3} exclusive_ms {:.3}",
            row.site,
            row.count,
            row.inclusive_ns as f64 / 1e6,
            row.exclusive_ns as f64 / 1e6
        );
    }
}

/// Times `f` over `items`, returning nanoseconds per call.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Direct calls into the layers the request fields cannot separate, over a
/// 10 000-request sample of the workload's own stream.
fn direct_probes(w: &ServeWorkload) -> Values {
    let model = &*w.model;
    let mut stream = RequestStream::new(
        w.seed,
        0x5052_4f42,
        w.spec.zipf,
        w.templates.iter().map(|t| t.query.num_rels()).collect(),
    );
    let sample: Vec<(usize, Vec<usize>, LargeQuery)> = (0..10_000)
        .map(|_| {
            let (rank, perm) = stream.next_request();
            let q = w.templates[rank].query.relabel(&perm);
            (rank, perm, q)
        })
        .collect();
    let mut v = Values::default();

    v.set(
        "core.canonicalize_ns",
        ns_per_call(&sample, |(_, _, q)| {
            black_box(canonicalize(black_box(q)));
        }),
    );

    // A warm service and a warm cluster of their own, so the probes do not
    // disturb the counters of the front-end under test.
    let service = PlanService::new();
    let plans: Vec<Planned> = w
        .templates
        .iter()
        .map(|t| {
            service
                .plan(&t.query, model)
                .expect("templates plan")
                .planned
        })
        .collect();
    let req = PlanRequest::default();
    v.set(
        "service.hit_ns",
        ns_per_call(&sample, |(_, _, q)| {
            black_box(service.plan_coalesced(q, model, &req).expect("warm hit"));
        }),
    );
    v.set(
        "plan.relabel_ns",
        ns_per_call(&sample, |(rank, perm, _)| {
            let new_of_old: Vec<u32> = perm.iter().map(|&p| p as u32).collect();
            black_box(plans[*rank].plan.relabel(&new_of_old));
        }),
    );
    if w.spec.kind == Kind::Hot {
        // `e2e-mixed` reports the remap of its own requests instead.
        v.set(
            "bench.remap_ns",
            ns_per_call(&sample, |(rank, perm, _)| {
                black_box(plans[*rank].plan.relabel(&inverse(perm)));
            }),
        );
    }

    let cache = PlanCache::new(CacheConfig::default());
    let entries: Vec<(Fingerprint, CachedPlan)> = plans
        .iter()
        .zip(&w.templates)
        .map(|(p, t)| {
            (
                canonicalize(&t.query).fingerprint,
                CachedPlan {
                    planned: Arc::new(p.clone()),
                },
            )
        })
        .collect();
    let rounds: Vec<usize> = (0..50).collect();
    v.set(
        "cache.insert_ns",
        ns_per_call(&rounds, |_| {
            for (fp, plan) in &entries {
                cache.insert(*fp, plan.clone());
            }
        }) / entries.len() as f64,
    );
    v.set(
        "cache.get_ns",
        ns_per_call(&rounds, |_| {
            for (fp, _) in &entries {
                black_box(cache.get(*fp));
            }
        }) / entries.len() as f64,
    );

    let cluster = PlanCluster::new(ClusterConfig {
        shards: 2,
        replicas: 2,
        ..ClusterConfig::default()
    });
    for t in &w.templates {
        let fp = canonicalize(&t.query).fingerprint;
        for shard in cluster.replica_set(fp) {
            let shard = cluster.shard_service(shard).expect("live shard");
            shard
                .plan_coalesced(&t.query, model, &req)
                .expect("templates plan");
        }
    }
    v.set(
        "cluster.route_ns",
        ns_per_call(&sample, |(_, _, q)| {
            black_box(cluster.route_service(q));
        }),
    );
    v.set(
        "cluster.plan_hit_ns",
        ns_per_call(&sample, |(_, _, q)| {
            black_box(cluster.plan(q, model).expect("warm hit"));
        }),
    );

    if w.spec.kind == Kind::Mixed {
        // `PlanService::observe` with reports that agree with the estimate:
        // the compare under the shard lock, nothing evicted.
        let reports: Vec<(Fingerprint, ExecReport)> = w
            .templates
            .iter()
            .zip(&plans)
            .filter_map(|(t, p)| {
                let data = t.data.as_ref()?;
                let report = Executor::new(&t.query, data, exec_config())
                    .execute(&p.plan)
                    .ok()?;
                Some((canonicalize(&t.query).fingerprint, report))
            })
            .collect();
        v.set(
            "feedback.observe_ns",
            ns_per_call(&rounds, |_| {
                for (fp, report) in &reports {
                    black_box(service.observe(*fp, model, report));
                }
            }) / reports.len().max(1) as f64,
        );
    }
    v
}

/// Diagnostic, not an end-to-end metric (see the README for why): one
/// generator paces 10 000 requests/s on a schedule regardless of
/// completions, the second client thread harvests the tickets. Latency is
/// counted from each request's *due* time — generator lateness plus the
/// front-end's own submit-to-completion latency.
fn open_loop_probe(w: &ServeWorkload, seconds: f64, v: &mut Values) {
    const RATE: f64 = 10_000.0;
    let total = (seconds * RATE) as u64;
    let front = &w.front;
    let before = front.serve_counters();
    let mut stream = RequestStream::new(
        w.seed,
        0x4f50_454e,
        w.spec.zipf,
        w.templates.iter().map(|t| t.query.num_rels()).collect(),
    );
    let (tx, rx) = std::sync::mpsc::channel::<(Duration, mpdp_serve::PlanTicket)>();
    let (mut late_us, mut latency_us) = (Vec::new(), Vec::new());
    let mut refused = 0u64;
    std::thread::scope(|s| {
        let harvester = s.spawn(move || {
            let mut latency_us = Vec::new();
            for (late, ticket) in rx {
                let done = ticket.wait();
                if done.result.is_ok() {
                    latency_us.push((late + done.latency).as_secs_f64() * 1e6);
                }
            }
            latency_us
        });
        let start = Instant::now();
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / RATE);
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let (rank, perm) = stream.next_request();
            let query = w.templates[rank].query.relabel(&perm);
            let late = Instant::now().saturating_duration_since(due);
            late_us.push(late.as_secs_f64() * 1e6);
            match front.submit(0, query) {
                Ok(ticket) => tx.send((late, ticket)).expect("harvester alive"),
                Err(_) => refused += 1,
            }
        }
        drop(tx);
        latency_us = harvester.join().expect("harvester panicked");
    });
    let serve = front.serve_counters().delta(&before);
    latency_us.sort_unstable_by(f64::total_cmp);
    v.set(
        "serve.open10k.p50_us",
        crate::stats::percentile_sorted(&latency_us, 50.0),
    );
    v.set(
        "serve.open10k.p99_us",
        crate::stats::percentile_sorted(&latency_us, 99.0),
    );
    v.set(
        "serve.open10k.p999_us",
        crate::stats::percentile_sorted(&latency_us, 99.9),
    );
    v.set(
        "serve.open10k.gen_late_p99_us",
        percentile(&mut late_us, 99.0),
    );
    v.set(
        "serve.open10k.shed_share",
        share((refused + serve.failed) as f64, total as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp::core::PlanTree;

    #[test]
    fn inverse_undoes_a_relabeling() {
        let perm = vec![2usize, 0, 3, 1];
        let inv = inverse(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        let plan = PlanTree::Scan {
            rel: 2,
            rows: 1.0,
            cost: 1.0,
        };
        // Old relation 2 became 3; the inverse maps 3 back to 2.
        let there: Vec<u32> = perm.iter().map(|&p| p as u32).collect();
        assert_eq!(plan.relabel(&there).relabel(&inv), plan);
    }

    #[test]
    fn template_filter_is_a_function_of_the_seed() {
        let model = PgLikeCost::new();
        let candidates = pool(12, &model);
        let kept = |seed: u64| -> Vec<(usize, u64)> {
            candidates
                .iter()
                .enumerate()
                .filter_map(|(i, q)| {
                    let t = mixed_template(q, i, seed, &model, &mut 0.0)?;
                    Some((i, t.reference_rows))
                })
                .collect()
        };
        let a = kept(42);
        assert_eq!(a, kept(42));
        assert!(!a.is_empty());
        // Another seed draws other table contents, so cardinalities differ.
        assert_ne!(a, kept(43));
    }
}
