//! # mpdp-serve
//!
//! Serving front-end for the MPDP planning stack: the layer that turns
//! `PlanService` (a concurrent library) into a *service* — bounded
//! admission, single-flight planning, per-tenant isolation, and `/metrics`
//! observability — without adding a single external dependency. Dispatchers
//! are plain OS threads that block on the admission [`queue`]; the planning
//! itself is `mpdp`'s `PlanService::plan_canonical`, which single-flights
//! cold fingerprints so N concurrent misses on one query shape cost one DP
//! run.
//!
//! ## Request lifecycle
//!
//! ```text
//! submit(tenant, query [, deadline])
//!   │ tenant quota check ──✗──▶ Rejected::QuotaExhausted   (counted shed)
//!   │ bounded queue push ──✗──▶ Rejected::QueueFull        (counted shed)
//!   ▼
//! PlanTicket ◀── accepted; the caller holds the completion handle
//!   │
//! dispatcher thread pops ─▶ route (canonicalize; a cluster picks the shard)
//!   │                     ─▶ PlanService::plan_canonical
//!   │                        ──▶ hit | cold | coalesced | degraded
//!   ▼                                              (exact counters)
//! ticket completes: plan in the caller's labels + end-to-end latency
//! ```
//!
//! Admission control is *explicit*: an overloaded front-end answers
//! [`Rejected`] immediately — it never blocks the submitter and never drops
//! a request silently — and every accepted request completes, including
//! through shutdown (the queue drains before the dispatchers exit). Load past
//! the queue bound therefore degrades into counted sheds while goodput
//! plateaus, which is the overload behavior the bench harness measures.
//!
//! Tenancy: each tenant gets its own `PlanService` (its own sharded
//! `PlanCache` partition — capacity isolation, no cross-tenant eviction
//! pressure) and an in-flight quota. The quota is the cheap fairness knob:
//! a tenant flooding the front-end exhausts its own quota and sheds,
//! leaving the shared queue for the others.
//!
//! ## Failure domains
//!
//! "Every accepted request completes" has to survive more than a clean
//! shutdown. Each accepted request's accounting — its tenant quota slot,
//! its ticket completion, the front-door gauges — is owned by an RAII
//! *lease* that settles the books exactly once however the request leaves
//! the system, including on a panicking dispatcher's stack. Dispatcher
//! loops run under per-request and per-loop `catch_unwind` with a
//! supervisor that restarts them (counted as `worker_respawns`), and every
//! lock in the crate recovers from poison instead of cascading.
//! Deadline-carrying requests that cannot afford exact planning degrade to
//! a heuristic plan inside `PlanService` rather than blowing their budget.
//! The whole surface is exercised by seeded fault injection
//! ([`mpdp_core::faults`]) in the chaos suite.

#![warn(missing_docs)]

pub mod queue;

pub use queue::{Bounded, PushError};

use mpdp::service::{PlanRequest, PlanService, PlanServiceBuilder, ServedPlan};
use mpdp_cluster::{ClusterConfig, PlanCluster};
use mpdp_core::counters::{CacheSnapshot, ServeCounters, ServeSnapshot};
use mpdp_core::faults::{site, Faults};
use mpdp_core::sync::{lock_recover, wait_recover, wait_timeout_recover};
use mpdp_core::{Canonicalized, LargeQuery, OptError};
use mpdp_cost::model::CostModel;
use mpdp_obs::{sites, ObsSnapshot, SpanCtx, SpanGuard, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-tenant configuration: one cache partition + one quota.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Label used in metrics output.
    pub name: String,
    /// Plan-cache capacity of this tenant's partition.
    pub cache_capacity: usize,
    /// Shard count of this tenant's partition.
    pub cache_shards: usize,
    /// Maximum requests this tenant may have accepted-but-incomplete
    /// (queued + planning). Beyond it, submissions shed with
    /// [`Rejected::QuotaExhausted`].
    pub max_in_flight: usize,
    /// Cluster-backed mode: when set, this tenant's requests are served by
    /// a sharded [`PlanCluster`] (consistent-hash routing on the query
    /// fingerprint, hot-template replication, feedback gossip) instead of
    /// one `PlanService`. The front-end still owns service construction:
    /// the config's `service` builder is replaced with one derived from
    /// this tenant's cache sizing and the front-end's budget/faults, so a
    /// cluster shard is configured exactly like the single-service backend
    /// would have been.
    pub cluster: Option<ClusterConfig>,
}

impl TenantConfig {
    /// A tenant with the given name and workspace-default cache sizing.
    pub fn named(name: impl Into<String>) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            cache_capacity: 4096,
            cache_shards: 16,
            max_in_flight: usize::MAX,
            cluster: None,
        }
    }

    /// Backs this tenant with a sharded planning tier (see
    /// [`TenantConfig::cluster`]).
    pub fn clustered(mut self, config: ClusterConfig) -> TenantConfig {
        self.cluster = Some(config);
        self
    }
}

/// Front-end configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded request-queue depth — the admission-control knob. A full
    /// queue sheds with [`Rejected::QueueFull`].
    pub queue_depth: usize,
    /// Dispatcher threads (the planning parallelism; each serves one
    /// request at a time).
    pub dispatchers: usize,
    /// Upper bound on dispatcher threads: the front-end starts
    /// `min(dispatchers, executor_threads)` of them, at least one. That is
    /// what the field always amounted to — dispatchers used to be tasks on
    /// this many runtime threads — and it survives the runtime only because
    /// `benchmark/src/serve.rs` names it in a struct literal and
    /// `benchmark/` is frozen outside `benchmark` PRs; ROADMAP item 1(d)
    /// removes it there, then the field and the `min` go.
    pub executor_threads: usize,
    /// Default per-request optimization budget.
    pub budget: Option<Duration>,
    /// Default per-request deadline: each submission's absolute deadline
    /// becomes `now + default_deadline` unless
    /// [`ServeFront::submit_with_deadline`] overrides it. Requests that
    /// cannot afford their routed exact strategy within the remaining
    /// budget — or that time out mid-flight — degrade to a heuristic plan
    /// (`ServedVia::Degraded`) instead of missing the deadline. `None`
    /// disables the deadline machinery.
    pub default_deadline: Option<Duration>,
    /// Fault-injection handle shared by every component (queue,
    /// dispatcher, planner). Chaos tests arm it with a seeded
    /// [`mpdp_core::FaultPlan`]; production leaves it disarmed (the
    /// default), which costs one branch per instrumented site.
    pub faults: Faults,
    /// Request tracer. Disabled by default (one branch per span site,
    /// matching the `faults` discipline); arm it to record a
    /// `serve.request` span per admitted request, threaded through
    /// routing, single-flight, and strategy invocation down to the
    /// executor's morsels. The same handle is propagated into
    /// cluster-backed tenants.
    pub tracer: Tracer,
    /// The tenants; at least one. Requests address tenants by index.
    pub tenants: Vec<TenantConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 1024,
            dispatchers: 4,
            executor_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .max(2),
            budget: None,
            default_deadline: None,
            faults: Faults::disarmed(),
            tracer: Tracer::disabled(),
            tenants: vec![TenantConfig::named("default")],
        }
    }
}

/// Why a submission was refused. Shedding is an *answer*, not an error
/// path: the caller is told immediately and the shed is counted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded request queue is at capacity.
    QueueFull,
    /// The tenant has `max_in_flight` requests outstanding.
    QuotaExhausted,
    /// The front-end is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "request queue full"),
            Rejected::QuotaExhausted => write!(f, "tenant in-flight quota exhausted"),
            Rejected::ShuttingDown => write!(f, "front-end shutting down"),
        }
    }
}

/// A completed request: the planning outcome plus its end-to-end latency
/// (submit → completion, queueing included — the number the open-loop
/// harness reports, unlike `ServedPlan::service_time` which starts at
/// dispatch).
#[derive(Clone, Debug)]
pub struct Completed {
    /// The planning outcome, plan leaves in the submitter's relation ids.
    pub result: Result<ServedPlan, OptError>,
    /// Submit-to-completion latency.
    pub latency: Duration,
    /// The request's span context (disabled unless the front-end's tracer
    /// is armed). Callers that execute the served plan pass this to
    /// `Executor::with_trace` so executor spans join the request's trace.
    pub trace: SpanCtx,
}

struct TicketState {
    slot: Mutex<Option<Completed>>,
    cv: Condvar,
}

impl TicketState {
    fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }
}

/// Completion handle for one accepted request. Dropping a ticket without
/// taking its result is counted (`abandoned_tickets`); the request itself
/// still completes and settles its quota slot through its lease.
pub struct PlanTicket {
    state: Arc<TicketState>,
    /// Present until the result is taken; `Drop` uses it to count
    /// abandonment.
    counters: Option<Arc<ServeCounters>>,
}

impl std::fmt::Debug for PlanTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanTicket").finish_non_exhaustive()
    }
}

impl PlanTicket {
    /// Blocks until the request completes. Accepted requests always
    /// complete — the dispatcher finishes or fails each popped request,
    /// leases settle requests dropped on a panicking path, and shutdown
    /// drains the queue first — so this cannot hang.
    pub fn wait(mut self) -> Completed {
        self.counters = None;
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(done) = slot.take() {
                return done;
            }
            slot = wait_recover(&self.state.cv, slot);
        }
    }

    /// Blocks until the request completes or `timeout` elapses — the
    /// hang-proof harvest primitive the chaos suite uses (a hung ticket is
    /// a test failure, not a hung test run).
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Completed> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_recover(&self.state.slot);
        loop {
            if let Some(done) = slot.take() {
                self.counters = None;
                return Some(done);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            slot = wait_timeout_recover(&self.state.cv, slot, deadline - now).0;
        }
    }

    /// The completion, if already available (non-blocking).
    pub fn try_take(&mut self) -> Option<Completed> {
        let done = lock_recover(&self.state.slot).take();
        if done.is_some() {
            self.counters = None;
        }
        done
    }
}

impl Drop for PlanTicket {
    fn drop(&mut self) {
        if let Some(counters) = self.counters.take() {
            counters.record_abandoned_ticket();
        }
    }
}

/// RAII ownership of one accepted request's accounting: the tenant quota
/// slot, the ticket completion, and the front-door gauges. However the
/// request leaves the system — served, failed, or *dropped* on a panicked
/// dispatcher's stack — the lease settles the books exactly once. This is
/// what keeps `accepted == completed + failed`, the gauges at zero, and
/// every waiter released through every chaos schedule.
struct Lease {
    tenants: Arc<Vec<Tenant>>,
    counters: Arc<ServeCounters>,
    ticket: Arc<TicketState>,
    tenant: usize,
    submitted: Instant,
    /// The request's span context, surfaced on the [`Completed`] it fills.
    trace: SpanCtx,
    /// Counted accepted (pushed to the queue). A lease dropped before the
    /// push settles only its quota slot.
    accepted: bool,
    /// The dispatch gauge move already happened for this request.
    dispatched: bool,
    done: bool,
}

impl Lease {
    /// Completes the request: releases the quota slot, records the
    /// completion, fills the ticket, wakes waiters. Idempotent.
    fn finish(&mut self, result: Result<ServedPlan, OptError>) {
        if self.done {
            return;
        }
        self.done = true;
        let ok = result.is_ok();
        self.tenants[self.tenant]
            .in_flight
            .fetch_sub(1, Ordering::Release);
        self.counters.record_done(ok);
        *lock_recover(&self.ticket.slot) = Some(Completed {
            result,
            latency: self.submitted.elapsed(),
            trace: self.trace.clone(),
        });
        self.ticket.cv.notify_all();
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if self.accepted {
            // Dropped while owned by a dispatcher chunk (or the queue at
            // teardown): the request will never be planned. Fail its ticket
            // instead of stranding the waiter, and keep the gauges exact.
            if !self.dispatched {
                self.counters.record_dispatch();
                self.dispatched = true;
            }
            self.finish(Err(OptError::Internal(
                "request dropped before planning (dispatcher failure or shutdown)".to_string(),
            )));
        } else {
            // Never entered the queue (push refused): give back the quota
            // slot reserved at construction; no ticket was handed out.
            self.done = true;
            self.tenants[self.tenant]
                .in_flight
                .fetch_sub(1, Ordering::Release);
        }
    }
}

/// One queued request.
struct Request {
    query: LargeQuery,
    deadline: Option<Instant>,
    lease: Lease,
    /// Root `serve.request` span, minted at admission. Held through
    /// planning so its recorded extent is admission → settle; the guard
    /// drops (records) after the lease finishes, field order aside —
    /// `dispatch_loop` drops the whole `Request` after `finish`.
    span: SpanGuard,
}

/// What actually plans a tenant's requests.
enum Backend {
    /// One `PlanService` — the classic per-tenant partition.
    Single(Arc<PlanService>),
    /// A sharded planning tier; each request routes to its fingerprint's
    /// shard (hot templates round-robin over their replica set).
    Cluster(Arc<PlanCluster>),
}

struct Tenant {
    name: String,
    backend: Backend,
    max_in_flight: usize,
    in_flight: AtomicUsize,
}

impl Tenant {
    /// The service that plans `query` — the tenant's single service, or the
    /// cluster shard its fingerprint routes to — and the query's canonical
    /// form, computed here once for the service to plan from. Records a
    /// `serve.route` event on the request's trace (attr = shard id + 1; 0
    /// marks the single-service backend).
    fn route<'q>(
        &self,
        query: &'q LargeQuery,
        trace: &SpanCtx,
    ) -> (Arc<PlanService>, Canonicalized<'q>) {
        match &self.backend {
            Backend::Single(service) => {
                trace.event(sites::ROUTE, 0);
                (Arc::clone(service), Canonicalized::new(query))
            }
            Backend::Cluster(cluster) => {
                let routed = cluster.route_service(query);
                trace.event(sites::ROUTE, routed.shard as u64 + 1);
                (routed.service, routed.query)
            }
        }
    }
}

/// The serving front-end. Construct with [`ServeFront::new`], submit with
/// [`ServeFront::submit`], observe with [`ServeFront::metrics_text`] /
/// [`ServeFront::serve_counters`]. Dropping the front-end drains accepted
/// requests, then joins the dispatcher threads.
pub struct ServeFront {
    tenants: Arc<Vec<Tenant>>,
    queue: Arc<Bounded<Request>>,
    counters: Arc<ServeCounters>,
    default_deadline: Option<Duration>,
    faults: Faults,
    tracer: Tracer,
    dispatchers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFront")
            .field("tenants", &self.tenants.len())
            .field("queue", &self.queue)
            .field("counters", &self.serve_counters())
            .finish()
    }
}

/// One dispatcher's serving loop: pop, drain a chunk, plan each request,
/// settle each lease. Runs under the supervisor's `catch_unwind`; a panic
/// anywhere in here (injected `queue.pop` / `dispatch.chunk` faults, a
/// planner panic that escapes the per-request isolation, a poisoned
/// downstream lock) unwinds with the in-flight chunk on this stack, whose
/// leases fail their tickets on the way down — then the supervisor restarts
/// the loop.
fn dispatch_loop(
    queue: &Bounded<Request>,
    counters: &ServeCounters,
    model: &(dyn CostModel + Sync),
    faults: &Faults,
) {
    // Drain in chunks: after the head request the thread blocked for, take
    // up to a chunk more under one lock — at 100k+ req/s, per-request lock
    // and gauge traffic is the difference between plateauing and collapsing
    // under overload. A chunk rides on one dispatcher, so a cold plan delays
    // its chunk-mates; chunks are kept small and cold plans are rare by
    // construction (single-flight + warm cache).
    const CHUNK: usize = 32;
    let mut batch: Vec<Request> = Vec::with_capacity(CHUNK);
    while let Some(req) = queue.pop() {
        batch.push(req);
        queue.drain_into(&mut batch, CHUNK - 1);
        counters.record_dispatch_n(batch.len() as u64);
        for r in batch.iter_mut() {
            r.lease.dispatched = true;
        }
        // Fault site: one check per chunk, after the gauge move so a panic
        // here leaves the books settled by the leases (`Error` has no
        // channel at chunk granularity and is a no-op).
        let _ = faults.apply_panic_stall(site::DISPATCH_CHUNK);
        for mut req in batch.drain(..) {
            let opts = PlanRequest {
                deadline: req.deadline,
                trace: req.span.ctx(),
                ..PlanRequest::default()
            };
            // Route here, per request: a cluster-backed tenant picks the
            // shard by the query's fingerprint (advancing hot-template
            // round-robin); a single-backed tenant has one choice.
            let ctx = req.span.ctx();
            let tenant = &req.lease.tenants[req.lease.tenant];
            let (service, canonical) = tenant.route(&req.query, &ctx);
            // Per-request panic isolation: a planner that blows up fails
            // *this* ticket and the loop keeps serving its chunk-mates.
            let planned = catch_unwind(AssertUnwindSafe(|| {
                service.plan_canonical(canonical, model, &opts)
            }));
            req.lease.finish(planned.unwrap_or_else(|_| {
                Err(OptError::Internal(
                    "planner panicked; request failed in isolation".to_string(),
                ))
            }));
        }
    }
}

impl ServeFront {
    /// Builds the front-end and starts its dispatcher threads. `model` is
    /// the cost model every request is planned under (per-model serving
    /// fronts are cheaper than per-request model plumbing, and the cache
    /// keys fold the model anyway).
    pub fn new(config: ServeConfig, model: Arc<dyn CostModel + Send + Sync>) -> ServeFront {
        assert!(!config.tenants.is_empty(), "at least one tenant");
        let tenants: Arc<Vec<Tenant>> = Arc::new(
            config
                .tenants
                .iter()
                .map(|t| {
                    let mut builder = PlanServiceBuilder::new()
                        .cache_capacity(t.cache_capacity)
                        .cache_shards(t.cache_shards)
                        .faults(config.faults.clone());
                    if let Some(budget) = config.budget {
                        builder = builder.budget(budget);
                    }
                    let backend = match &t.cluster {
                        None => Backend::Single(Arc::new(builder.build())),
                        Some(cluster) => {
                            // Each cluster shard gets the same service
                            // configuration the single backend would have,
                            // and the front-end's tracer (gossip events
                            // land in the same drainable set).
                            let mut cfg = cluster.clone();
                            cfg.service = builder;
                            cfg.tracer = config.tracer.clone();
                            Backend::Cluster(Arc::new(PlanCluster::new(cfg)))
                        }
                    };
                    Tenant {
                        name: t.name.clone(),
                        backend,
                        max_in_flight: t.max_in_flight.max(1),
                        in_flight: AtomicUsize::new(0),
                    }
                })
                .collect(),
        );
        let queue: Arc<Bounded<Request>> = Arc::new(Bounded::with_faults(
            config.queue_depth,
            config.faults.clone(),
        ));
        let counters = Arc::new(ServeCounters::default());

        // `executor_threads` caps the count; its doc says why it exists.
        let threads = config.dispatchers.min(config.executor_threads).max(1);
        let dispatchers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let model = Arc::clone(&model);
                let faults = config.faults.clone();
                // Supervisor: restart the serving loop after any caught
                // panic, until the queue reports closed-and-drained.
                let supervise = move || loop {
                    let serving = || dispatch_loop(&queue, &counters, &*model, &faults);
                    match catch_unwind(AssertUnwindSafe(serving)) {
                        Ok(()) => break,
                        Err(_) => counters.record_worker_respawn(),
                    }
                };
                std::thread::Builder::new()
                    .name(format!("mpdp-serve-dispatch-{i}"))
                    .spawn(supervise)
                    .expect("spawn dispatcher thread")
            })
            .collect();

        ServeFront {
            tenants,
            queue,
            counters,
            default_deadline: config.default_deadline,
            faults: config.faults,
            tracer: config.tracer,
            dispatchers,
        }
    }

    fn config_deadline(&self) -> Option<Instant> {
        self.default_deadline.map(|d| Instant::now() + d)
    }

    fn ticket(&self, state: Arc<TicketState>) -> PlanTicket {
        PlanTicket {
            state,
            counters: Some(Arc::clone(&self.counters)),
        }
    }

    /// Submits a query for tenant `tenant` (index into the configured
    /// tenant list), with the config's default deadline (if any). Returns
    /// the completion ticket, or the explicit admission-control verdict —
    /// this call never blocks on planning.
    pub fn submit(&self, tenant: usize, query: LargeQuery) -> Result<PlanTicket, Rejected> {
        self.submit_with_deadline(tenant, query, self.config_deadline())
    }

    /// [`ServeFront::submit`] with an explicit absolute deadline (`None`
    /// disables the deadline for this request regardless of the config
    /// default). A deadline-carrying request that cannot afford its routed
    /// exact strategy degrades to a heuristic plan instead of missing it.
    pub fn submit_with_deadline(
        &self,
        tenant: usize,
        query: LargeQuery,
        deadline: Option<Instant>,
    ) -> Result<PlanTicket, Rejected> {
        let t = &self.tenants[tenant];
        // Reserve quota optimistically; the lease gives it back on any
        // refusal below (and on every completion path after acceptance).
        let reserved = t
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < t.max_in_flight).then_some(cur + 1)
            });
        if reserved.is_err() {
            self.counters.record_shed_quota();
            return Err(Rejected::QuotaExhausted);
        }
        let state = TicketState::new();
        // Root span minted at admission: everything downstream (routing,
        // single-flight, strategy, executor morsels) parents under it.
        let span = self.tracer.begin_request(sites::REQUEST);
        let request = Request {
            query,
            deadline,
            lease: Lease {
                tenants: Arc::clone(&self.tenants),
                counters: Arc::clone(&self.counters),
                ticket: Arc::clone(&state),
                tenant,
                submitted: Instant::now(),
                trace: span.ctx(),
                // Set before the push: the dispatcher may pop and settle
                // the request before `try_push` even returns.
                accepted: true,
                dispatched: false,
                done: false,
            },
            span,
        };
        match self.queue.try_push(request) {
            Ok(()) => {
                self.counters.record_accept();
                Ok(self.ticket(state))
            }
            Err(PushError::Full(mut r)) => {
                r.lease.accepted = false; // never entered the queue
                self.counters.record_shed_queue_full();
                drop(r); // lease releases the quota slot
                Err(Rejected::QueueFull)
            }
            Err(PushError::Closed(mut r)) => {
                r.lease.accepted = false;
                drop(r);
                Err(Rejected::ShuttingDown)
            }
        }
    }

    /// The tenant's `PlanService` (e.g. to pre-warm its cache partition or
    /// feed `observe` cardinality feedback).
    ///
    /// # Panics
    /// For a cluster-backed tenant, which has no single service — use
    /// [`ServeFront::cluster`] there instead.
    pub fn service(&self, tenant: usize) -> &Arc<PlanService> {
        match &self.tenants[tenant].backend {
            Backend::Single(service) => service,
            Backend::Cluster(_) => {
                panic!("tenant {tenant} is cluster-backed; use ServeFront::cluster")
            }
        }
    }

    /// The tenant's [`PlanCluster`], if it is cluster-backed (pre-warm
    /// shards, feed observations, drive gossip rounds through it).
    pub fn cluster(&self, tenant: usize) -> Option<&Arc<PlanCluster>> {
        match &self.tenants[tenant].backend {
            Backend::Single(_) => None,
            Backend::Cluster(cluster) => Some(cluster),
        }
    }

    /// Number of configured tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The tenant's configured name.
    pub fn tenant_name(&self, tenant: usize) -> &str {
        &self.tenants[tenant].name
    }

    /// The shared fault-injection handle (chaos tests inspect fired counts
    /// through it).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The request tracer (drain it after a traced run to harvest spans).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Front-door counters (accepted / sheds / completed / gauges), with
    /// the queue's depth and peak read from the queue itself.
    pub fn serve_counters(&self) -> ServeSnapshot {
        let mut s = self.counters.snapshot();
        s.queue_depth = self.queue.len() as u64;
        s.queue_depth_peak = self.queue.peak() as u64;
        s
    }

    /// The tenant's cache counters (hits / misses / coalesced / …). For a
    /// cluster-backed tenant this is the exact merge over its shards.
    pub fn cache_counters(&self, tenant: usize) -> CacheSnapshot {
        match &self.tenants[tenant].backend {
            Backend::Single(service) => service.cache_counters(),
            Backend::Cluster(cluster) => cluster.aggregate_cache(),
        }
    }

    /// Cache counters summed over all tenants (and, for cluster-backed
    /// tenants, over their shards): the associative
    /// [`CacheSnapshot::merge`] fold, so every field is an exact sum.
    pub fn aggregate_cache(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for tenant in 0..self.tenants.len() {
            total.merge(&self.cache_counters(tenant));
        }
        total
    }

    /// The front-end's counters as an [`ObsSnapshot`]: the serve section
    /// plus one tenant cache section per tenant, ready for
    /// [`ObsSnapshot::metrics_text`] / [`ObsSnapshot::to_json`] or for the
    /// caller to extend with histogram series before rendering.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            serve: Some(self.serve_counters()),
            tenants: self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| (t.name.clone(), self.cache_counters(i)))
                .collect(),
            ..ObsSnapshot::default()
        }
    }

    /// A `/metrics`-style snapshot: Prometheus exposition format, counters
    /// first, per-tenant cache series labeled by tenant. Rendered by the
    /// canonical [`ObsSnapshot`] formatter (`mpdp-obs`), so the names and
    /// label scheme are shared with the cluster and bench surfaces.
    pub fn metrics_text(&self) -> String {
        self.obs_snapshot().metrics_text()
    }

    /// Stops admission without blocking: subsequent submissions answer
    /// [`Rejected::ShuttingDown`], and the dispatchers drain what was
    /// already accepted (every outstanding ticket still resolves). Safe to
    /// call from any thread — the non-joining half of
    /// [`ServeFront::shutdown`], for callers that share the front behind an
    /// `Arc` and cannot take `&mut self` yet.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Stops admission, drains every accepted request, and joins the
    /// dispatcher threads. Idempotent; also runs on drop. Submissions during
    /// or after shutdown answer [`Rejected::ShuttingDown`].
    pub fn shutdown(&mut self) {
        self.queue.close();
        for d in self.dispatchers.drain(..) {
            // Supervisors catch everything below them, so this is Ok on
            // every path; tolerate an Err anyway rather than panic during
            // shutdown/drop.
            let _ = d.join();
        }
    }
}

impl Drop for ServeFront {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::faults::{FaultAction, FaultPlan};
    use mpdp_cost::PgLikeCost;
    use mpdp_workload::gen;

    fn front(config: ServeConfig) -> ServeFront {
        ServeFront::new(config, Arc::new(PgLikeCost::new()))
    }

    #[test]
    fn accepted_requests_complete_with_valid_plans() {
        let front = front(ServeConfig {
            dispatchers: 2,
            ..Default::default()
        });
        let m = PgLikeCost::new();
        let q = gen::star(9, 3, &m);
        let tickets: Vec<PlanTicket> = (0..16)
            .map(|_| front.submit(0, q.clone()).expect("under capacity"))
            .collect();
        for t in tickets {
            let done = t.wait();
            let plan = done.result.expect("plans");
            assert_eq!(plan.planned.plan.num_rels(), 9);
        }
        let s = front.serve_counters();
        assert_eq!(s.accepted, 16);
        assert_eq!(s.completed, 16);
        assert_eq!((s.queue_depth, s.in_flight), (0, 0));
        assert_eq!(s.abandoned_tickets, 0, "every ticket was waited on");
        let c = front.cache_counters(0);
        assert_eq!(c.hits + c.misses + c.coalesced, 16, "exact accounting");
        assert_eq!(c.misses, 1, "single-flight: one cold plan");
    }

    #[test]
    fn quota_sheds_are_explicit_and_counted() {
        let config = ServeConfig {
            tenants: vec![
                TenantConfig {
                    max_in_flight: 1,
                    ..TenantConfig::named("throttled")
                },
                TenantConfig::named("open"),
            ],
            ..Default::default()
        };
        // Quota 1, 64 back-to-back submissions: dispatchers cannot complete
        // every predecessor between two adjacent submits (a cold 12-relation
        // plan costs orders of magnitude more than a submit), so at least
        // one submission observes the quota held and sheds.
        let front = front(config);
        let m = PgLikeCost::new();
        let q = gen::chain(12, 5, &m);
        let mut sheds = 0;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            match front.submit(0, q.clone()) {
                Ok(t) => tickets.push(t),
                Err(Rejected::QuotaExhausted) => sheds += 1,
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(sheds > 0, "quota must shed under a flood");
        assert_eq!(front.serve_counters().shed_quota, sheds);
        // The open tenant is unaffected by the throttled tenant's quota.
        let ok = front.submit(1, q.clone()).expect("open tenant admits");
        ok.wait().result.expect("plans");
        for t in tickets {
            t.wait().result.expect("accepted requests complete");
        }
    }

    #[test]
    fn metrics_text_is_prometheus_shaped() {
        let front = front(ServeConfig::default());
        let m = PgLikeCost::new();
        front
            .submit(0, gen::cycle(6, 2, &m))
            .expect("admitted")
            .wait()
            .result
            .expect("plans");
        let text = front.metrics_text();
        assert!(text.contains("mpdp_serve_accepted_total 1"));
        assert!(text.contains("mpdp_serve_completed_total 1"));
        assert!(text.contains("mpdp_serve_worker_respawns_total 0"));
        assert!(text.contains("mpdp_serve_abandoned_tickets_total 0"));
        assert!(text.contains("mpdp_cache_misses_total{tenant=\"default\"} 1"));
        assert!(text.contains("mpdp_cache_degraded_total{tenant=\"default\"} 0"));
    }

    #[test]
    fn armed_tracer_stitches_request_trees_through_planning() {
        use mpdp_obs::by_trace;
        let tracer = Tracer::armed(4_096);
        let mut front = front(ServeConfig {
            dispatchers: 2,
            tracer: tracer.clone(),
            ..Default::default()
        });
        let m = PgLikeCost::new();
        let q = gen::star(8, 2, &m);
        let tickets: Vec<PlanTicket> = (0..6)
            .map(|_| front.submit(0, q.clone()).expect("admitted"))
            .collect();
        let mut trace_ids = Vec::new();
        for t in tickets {
            let done = t.wait();
            done.result.expect("plans");
            assert!(done.trace.is_armed(), "completion carries the span ctx");
            trace_ids.push(done.trace.trace_id());
        }
        let mut distinct = trace_ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), trace_ids.len(), "one trace per request");
        // Root spans record when the dispatcher drops each request —
        // quiesce (drain + join the dispatchers) before draining rings.
        front.shutdown();
        let spans = tracer.drain();
        let grouped = by_trace(&spans);
        for id in trace_ids {
            let tree = &grouped[&id];
            assert!(tree.iter().any(|r| r.site == sites::REQUEST));
            assert!(tree.iter().any(|r| r.site == sites::ROUTE));
            // Every request has a planning disposition: the cold leader
            // ran a strategy, everyone else hit or waited.
            assert!(tree.iter().any(|r| r.site == sites::CACHE_HIT
                || r.site == sites::FLIGHT_LEAD
                || r.site == sites::FLIGHT_WAIT
                || r.site == sites::STRATEGY));
            // Parentage stitches: every non-root record hangs off a span
            // recorded in the same trace.
            let ids: std::collections::HashSet<u64> = tree.iter().map(|r| r.span).collect();
            for r in tree {
                if r.site != sites::REQUEST {
                    assert!(
                        ids.contains(&r.parent),
                        "orphan record at site {}",
                        r.site.name()
                    );
                }
            }
        }
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let mut front = front(ServeConfig {
            dispatchers: 2,
            ..Default::default()
        });
        let m = PgLikeCost::new();
        let tickets: Vec<PlanTicket> = (0..8)
            .map(|i| {
                front
                    .submit(0, gen::star(6 + (i % 3), i as u64, &m))
                    .expect("admitted")
            })
            .collect();
        front.shutdown();
        for t in tickets {
            t.wait().result.expect("drained before stopping");
        }
        assert!(matches!(
            front.submit(0, gen::star(6, 1, &m)),
            Err(Rejected::ShuttingDown)
        ));
    }

    #[test]
    fn abandoned_tickets_are_counted_and_release_quota() {
        let front = front(ServeConfig {
            dispatchers: 1,
            tenants: vec![TenantConfig {
                max_in_flight: 4,
                ..TenantConfig::named("t")
            }],
            ..Default::default()
        });
        let m = PgLikeCost::new();
        for i in 0..4 {
            // Drop each ticket without taking its result.
            let _ = front
                .submit(0, gen::star(6 + i, i as u64, &m))
                .expect("admitted");
        }
        // The requests complete server-side and release their quota slots:
        // with quota 4 and 4 abandoned predecessors, a 5th submission must
        // eventually be admitted.
        let deadline = Instant::now() + Duration::from_secs(10);
        let ticket = loop {
            match front.submit(0, gen::star(9, 99, &m)) {
                Ok(t) => break t,
                Err(Rejected::QuotaExhausted) => {
                    assert!(Instant::now() < deadline, "quota slots never released");
                    std::thread::yield_now();
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        };
        ticket.wait().result.expect("plans");
        let s = front.serve_counters();
        assert_eq!(s.abandoned_tickets, 4);
        assert_eq!(s.accepted, s.completed + s.failed);
    }

    #[test]
    fn deadline_pressed_requests_degrade_instead_of_failing() {
        let front = front(ServeConfig {
            dispatchers: 2,
            // A deadline far too tight for an exact 14-relation cold plan.
            default_deadline: Some(Duration::from_micros(50)),
            ..Default::default()
        });
        let m = PgLikeCost::new();
        let done = front
            .submit(0, gen::chain(14, 7, &m))
            .expect("admitted")
            .wait();
        let plan = done.result.expect("degraded requests still get a plan");
        assert_eq!(plan.planned.plan.num_rels(), 14);
        assert_eq!(plan.via, mpdp::service::ServedVia::Degraded);
        let c = front.cache_counters(0);
        assert_eq!(c.degraded, 1);
        assert_eq!(c.misses, 0, "a degraded request is not a miss");
    }

    #[test]
    fn dispatcher_panics_are_respawned_and_requests_settle() {
        let faults = FaultPlan::new()
            .fault(site::DISPATCH_CHUNK, 0, FaultAction::Panic)
            .fault(site::DISPATCH_CHUNK, 2, FaultAction::Panic)
            .arm();
        let mut front = front(ServeConfig {
            dispatchers: 1,
            faults: faults.clone(),
            ..Default::default()
        });
        let m = PgLikeCost::new();
        let q = gen::star(8, 1, &m);
        let mut tickets: Vec<PlanTicket> = (0..12)
            .map(|_| front.submit(0, q.clone()).expect("admitted"))
            .collect();
        // Every ticket resolves (served or failed-by-lease), none hang.
        for t in &mut tickets {
            assert!(
                t.wait_timeout(Duration::from_secs(30)).is_some(),
                "ticket hung after dispatcher panic"
            );
        }
        drop(tickets);
        front.shutdown();
        let s = front.serve_counters();
        assert!(faults.fired_at(site::DISPATCH_CHUNK) >= 1);
        assert!(s.worker_respawns >= 1, "panicked loop must be respawned");
        assert_eq!(s.accepted, s.completed + s.failed, "exact accounting");
        assert_eq!(
            (s.queue_depth, s.in_flight),
            (0, 0),
            "gauges return to zero"
        );
    }
}
