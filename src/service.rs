//! `PlanService` — a concurrent, plan-caching serving layer over the
//! adaptive [`Planner`].
//!
//! The paper frames join-order optimization as the latency-critical inner
//! loop of a query optimizer; a deployment serves a *stream* of queries, not
//! one. [`PlanService`] is the workspace's front door for that regime:
//!
//! * **Fingerprint cache** — every request is canonicalized once
//!   (`mpdp_core::fingerprint`) so isomorphic queries collide on a 128-bit
//!   key: by the Probe stage, or, for a request a cluster routed by
//!   fingerprint, by the router, which hands its form over
//!   ([`PlanService::plan_canonical`]). Results live in a sharded
//!   [`PlanCache`] that evicts the plans cheapest to re-plan, and a hit
//!   answers in microseconds with the cached plan remapped onto the
//!   caller's own relation ids.
//! * **One route** — misses plan through [`Planner::adaptive_default`],
//!   the paper's deployment rule (§6): exact MPDP up to 18 relations,
//!   UnionDP-MPDP (15) beyond ([`Planner::route`]). Any request can override
//!   the route with an explicit registry strategy name.
//! * **Thread safety** — the service is `Send + Sync` and lock-free outside
//!   the touched cache shard; a worker pool shares one service behind an
//!   `Arc` (see `examples/serve_throughput.rs`).
//!
//! # One request path
//!
//! Every entry point — [`PlanService::plan`] / [`PlanService::plan_with`],
//! [`PlanService::plan_coalesced`], [`PlanService::plan_canonical`] and
//! [`PlanService::plan_async`] — drives the same private state machine, so
//! the decision sequence, and with it every counter tally, span site and
//! deadline rule, is written once (DESIGN.md §8 has the diagram with the
//! degrade edges):
//!
//! ```text
//! Probe → Afford → Join | Lead → Plan → Publish → Deliver
//! ```
//!
//! `Join` — waiting on another request's planning — is the only state a
//! request can suspend in; everything else runs to completion inside one
//! step. [`PlanFuture`] hands the machine its task waker, the blocking entry
//! points hand it one that unparks their thread; both run the same steps in
//! the same order, so they cannot disagree on an outcome, a counter or a
//! span.
//!
//! Apart from where the canonical form comes from (`plan_canonical` is
//! handed it), the one difference between the entry points is whether `Lead`
//! registers a **flight** (`FlightTable`, private, `src/flight.rs`) that
//! concurrent misses on the same fingerprint join instead of planning again.
//! The serving path — `plan_coalesced` / `plan_canonical` / `plan_async` —
//! does: the per-key guard
//! is not a lock held across the DP run but a registered flight that waiters
//! park on, so overload turns into waiting, not duplicated planning.
//! `plan` / `plan_with` do not, which keeps that path guard-free: workers
//! missing the same fingerprint concurrently each plan it and race to insert
//! (last write wins — the payloads are identical, so any winner is correct).
//! Either way each request is tallied once, on delivery, as exactly
//! one of a hit, a miss, a coalesced join or a degradation — see
//! [`ServedVia`] and `CacheSnapshot::request_hit_rate`.

use crate::cache::{CacheConfig, CachedPlan, PlanCache};
use crate::flight::{park_waker, Admission, Flight, FlightTable};
use crate::planner::{HeuristicStrategy, LargeAlgo, Planned, Planner, Strategy};
use crate::registry;
use mpdp_core::faults::{site, Faults};
use mpdp_core::fingerprint::{CanonicalQuery, Canonicalized, Fingerprint};
use mpdp_core::sync::lock_recover;
use mpdp_core::{LargeQuery, OptError};
use mpdp_cost::model::CostModel;
use mpdp_exec::ExecReport;
use mpdp_obs::{sites, SpanCtx, SpanGuard};
use mpdp_parallel::hwmodel::{estimate_exact_planning, Calibration};
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Dense code of a fault-injection site name (`mpdp_core::faults::site`),
/// recorded as the `attr` of [`sites::FAULT`] span annotations so chaos
/// timelines name the site that fired without string storage in the ring.
pub fn fault_site_code(name: &str) -> u64 {
    match name {
        site::QUEUE_PUSH => 0,
        site::QUEUE_POP => 1,
        site::DISPATCH_CHUNK => 2,
        site::PLANNER_INVOKE => 3,
        _ => u64::MAX,
    }
}

/// Folds a cost model's identity into a query fingerprint, producing the
/// plan-cache key: plans are only comparable under one model, so entries
/// from different models must never collide.
pub fn cache_key(fp: Fingerprint, model: &dyn CostModel) -> Fingerprint {
    use mpdp_core::memo::murmur3_fmix64;
    let mut h: u64 = 0x636f_7374_6d6f_6465; // "costmode"
    for b in model.name().bytes() {
        h = murmur3_fmix64(h.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b as u64);
    }
    Fingerprint {
        hi: fp.hi ^ h,
        lo: fp.lo ^ murmur3_fmix64(h),
    }
}

/// A cached plan whose estimated root cardinality deviates from an observed
/// one by more than this factor (either direction) is evicted by
/// [`PlanService::observe`].
const FEEDBACK_THRESHOLD: f64 = 10.0;

/// Per-request options for [`PlanService::plan_with`].
#[derive(Clone, Debug, Default)]
pub struct PlanRequest {
    /// Overrides the planner's route with an explicit registry strategy name
    /// (resolved through [`crate::registry()`], so aliases and
    /// parameterized names work). An override implies a cache bypass: the
    /// cache is keyed by fingerprint alone, so serving an override from it
    /// could return some other strategy's plan, and storing the override's
    /// plan would poison the default route for every later request.
    pub strategy: Option<String>,
    /// Overrides the service-level budget for this request.
    pub budget: Option<Duration>,
    /// Skips both cache lookup and insertion (e.g. for EXPLAIN ANALYZE-style
    /// calls that must measure cold planning).
    pub bypass_cache: bool,
    /// Absolute deadline for this request. A cache hit always makes it; a
    /// cold request whose remaining budget cannot afford its route
    /// (predicted from the calibrated hardware model, refined by observed
    /// cold walls) — or whose planning times out mid-flight — **degrades to
    /// GOO** instead of missing the deadline, served as
    /// [`ServedVia::Degraded`] and never cached. `None` (the default)
    /// disables the deadline machinery.
    pub deadline: Option<Instant>,
    /// Tracing context of this request (disabled by default — the span
    /// sites along the serving path then cost one branch each). Armed by
    /// the serve front-end, which parents it under the request's root
    /// admission span.
    pub trace: SpanCtx,
}

/// How a request obtained its plan — the mutually exclusive outcomes of the
/// request path. Every request, on every entry point, ends as exactly one of
/// them and is tallied under the matching `hits`/`misses`/`coalesced`/
/// `degraded` counter when it is delivered (a request that fails is tallied
/// under the outcome it was heading for). `plan`/`plan_with` register no
/// flight, so they never produce `Coalesced`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServedVia {
    /// Served from the plan cache.
    Hit,
    /// Planned from scratch (with single-flight: as the flight leader).
    Cold,
    /// Joined another request's in-flight planning and received its result.
    Coalesced,
    /// Served a heuristic plan because the request's deadline budget could
    /// not afford the routed exact strategy (up front or after a mid-flight
    /// timeout). Degraded plans are never cached.
    Degraded,
}

/// The outcome of one served request.
#[derive(Clone, Debug)]
pub struct ServedPlan {
    /// The planning result, with plan leaves in the *caller's* relation ids.
    /// On a cache hit or a coalesced join, `wall`/`reported`/counters describe
    /// the original cold run that populated the cache, and `profile` is
    /// `None`.
    pub planned: Planned,
    /// `true` if the plan came from the cache.
    pub cache_hit: bool,
    /// How the plan was obtained (`cache_hit` is `via == ServedVia::Hit`,
    /// kept for back-compat).
    pub via: ServedVia,
    /// End-to-end service latency of this request (canonicalization + cache
    /// + planning + remap) — the number the throughput harness reports.
    pub service_time: Duration,
    /// The request's canonical fingerprint.
    pub fingerprint: Fingerprint,
}

/// Builder for [`PlanService`].
#[derive(Clone, Debug, Default)]
pub struct PlanServiceBuilder {
    cache: CacheConfig,
    budget: Option<Duration>,
    faults: Faults,
}

impl PlanServiceBuilder {
    /// Default configuration: 4096-entry 16-shard cache, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total plan-cache capacity (0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache.capacity = capacity;
        self
    }

    /// Number of cache shards.
    pub fn cache_shards(mut self, shards: usize) -> Self {
        self.cache.shards = shards;
        self
    }

    /// Default per-request optimization budget.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Arms fault injection (chaos tests only; the default
    /// [`Faults::disarmed`] handle is free).
    pub fn faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Builds the service.
    pub fn build(self) -> PlanService {
        PlanService {
            // The flight table mirrors the cache's sharding degree: both see
            // the same (uniform) key distribution.
            flights: FlightTable::new(self.cache.shards),
            cache: PlanCache::new(self.cache),
            planner: Planner::adaptive_default(),
            degrade: HeuristicStrategy::new(LargeAlgo::Goo),
            budget: self.budget,
            faults: self.faults,
            estimator: ColdEstimator::new(),
        }
    }
}

/// The concurrent serving layer. See the module docs; construct via
/// [`PlanServiceBuilder`] and share across workers with an `Arc`.
#[derive(Debug)]
pub struct PlanService {
    cache: PlanCache,
    /// In-flight plannings that `plan_coalesced` / `plan_async` requests
    /// lead and join, keyed like the cache.
    flights: FlightTable,
    /// Routes every cold request that names no strategy of its own.
    planner: Planner,
    /// Serves deadline degradations: cheap enough to always make a deadline.
    degrade: HeuristicStrategy,
    budget: Option<Duration>,
    /// Fault-injection handle (disarmed outside chaos tests).
    faults: Faults,
    /// Predicts cold planning walls for the deadline affordability check.
    estimator: ColdEstimator,
}

/// Predicts how long a cold exact plan will take: observed cold walls
/// (EWMA, keyed by route label, relation count and edge count) when this
/// service has seen the shape before, the calibrated closed-form
/// hardware-model estimate otherwise. Deliberately coarse — the
/// affordability check only needs the right order of magnitude (and a 2×
/// safety margin on top). The edge count keeps a star and a clique of one
/// size, which share the route, from pricing each other.
#[derive(Debug)]
struct ColdEstimator {
    cal: Calibration,
    observed: Mutex<HashMap<(String, usize, usize), f64>>,
}

impl ColdEstimator {
    fn new() -> ColdEstimator {
        ColdEstimator {
            cal: Calibration::default_for_container(),
            observed: Mutex::new(HashMap::new()),
        }
    }

    fn observed_wall(&self, route: &str, q: &LargeQuery) -> Option<Duration> {
        lock_recover(&self.observed)
            .get(&(route.to_string(), q.num_rels(), q.edges.len()))
            .map(|&secs| Duration::from_secs_f64(secs))
    }

    fn observe(&self, route: &str, q: &LargeQuery, wall: Duration) {
        const ALPHA: f64 = 0.3;
        let mut map = lock_recover(&self.observed);
        let e = map
            .entry((route.to_string(), q.num_rels(), q.edges.len()))
            .or_insert_with(|| wall.as_secs_f64());
        *e = (1.0 - ALPHA) * *e + ALPHA * wall.as_secs_f64();
    }
}

impl Default for PlanService {
    fn default() -> Self {
        PlanServiceBuilder::new().build()
    }
}

impl PlanService {
    /// A service with the default cache configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serves one query with default options.
    pub fn plan(&self, q: &LargeQuery, model: &dyn CostModel) -> Result<ServedPlan, OptError> {
        self.plan_with(q, model, &PlanRequest::default())
    }

    /// Serves one query: canonicalize, consult the cache, route a miss
    /// through the planner, populate the cache, and return the plan in
    /// the caller's relation ids. Cold keys are *not* single-flighted here
    /// (see the module docs); deadlines degrade exactly as on
    /// [`PlanService::plan_coalesced`].
    pub fn plan_with(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        req: &PlanRequest,
    ) -> Result<ServedPlan, OptError> {
        PlanFuture::new(self, q, model, req, false).block_on()
    }

    /// Serves one query with cold keys **single-flighted**: concurrent
    /// misses on one fingerprint elect one leader that plans; the rest block
    /// on the leader's flight and receive the same canonical plan, remapped
    /// onto their own relation ids ([`ServedVia::Coalesced`]). Hits are
    /// identical to [`PlanService::plan`].
    ///
    /// Accounting is exact by protocol, not by luck: the flight entry is
    /// only removed *after* the plan is inserted into the cache, and the
    /// flight table re-probes the cache under its shard lock, so for any one
    /// fingerprint exactly one request records a miss (the leader) and every
    /// other concurrent request records a hit, a coalesced join, or a
    /// deadline degradation.
    ///
    /// Requests carrying a [`PlanRequest::deadline`] degrade to the
    /// service's heuristic strategy ([`ServedVia::Degraded`]) when the
    /// remaining budget cannot afford the routed exact strategy, when the
    /// exact attempt times out mid-flight, or when the flight they joined
    /// fails — a deadline-carrying request always resolves.
    ///
    /// Requests that bypass the cache or override the strategy neither lead
    /// nor join a flight (coalescing them could serve one strategy's plan as
    /// another's); they are served exactly as by [`PlanService::plan_with`].
    pub fn plan_coalesced(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        req: &PlanRequest,
    ) -> Result<ServedPlan, OptError> {
        PlanFuture::new(self, q, model, req, true).block_on()
    }

    /// [`PlanService::plan_coalesced`] for a query whose router already
    /// canonicalized it (a cluster picks the shard by fingerprint): the
    /// request probes the cache with that form instead of computing it
    /// again, and its service time starts where the canonicalization began.
    pub fn plan_canonical(
        &self,
        query: Canonicalized<'_>,
        model: &dyn CostModel,
        req: &PlanRequest,
    ) -> Result<ServedPlan, OptError> {
        let q = query.query();
        PlanFuture {
            stage: Stage::Probe(Some(query)),
            ..PlanFuture::new(self, q, model, req, true)
        }
        .block_on()
    }

    /// Asynchronous [`PlanService::plan_coalesced`]: returns a future that
    /// resolves to the served plan. A hit (or a strategy-override /
    /// cache-bypass request) resolves on first poll; a coalesced waiter
    /// suspends on the flight's waker list and is woken when the leader
    /// publishes, blocking no thread of the caller's runtime. A *leader*
    /// plans inside its poll — cold planning is CPU work with nothing to
    /// await, so whoever polls it dedicates exactly one thread to it, which
    /// is the same commitment the blocking path makes.
    pub fn plan_async<'a>(
        &'a self,
        q: &'a LargeQuery,
        model: &'a (dyn CostModel + Sync),
        req: &'a PlanRequest,
    ) -> PlanFuture<'a> {
        PlanFuture::new(self, q, model, req, true)
    }

    /// The registry label a cold `q` runs under: the request's override, or
    /// the planner's route.
    pub fn route_for(&self, q: &LargeQuery, req: &PlanRequest) -> String {
        req.strategy
            .clone()
            .unwrap_or_else(|| self.planner.route(q).name())
    }

    /// The strategy a cold `q` runs: the request's override, resolved by
    /// name through the registry, or the planner's route.
    fn strategy_for(
        &self,
        q: &LargeQuery,
        req: &PlanRequest,
    ) -> Result<Arc<dyn Strategy>, OptError> {
        match &req.strategy {
            Some(name) => registry()
                .get(name)
                .ok_or_else(|| OptError::Internal(format!("unknown strategy \"{name}\""))),
            None => Ok(Arc::clone(self.planner.route(q))),
        }
    }

    /// The budget the planner actually gets: the request/service budget
    /// clipped to what remains of the request's deadline.
    fn effective_budget(&self, req: &PlanRequest) -> Option<Duration> {
        let base = req.budget.or(self.budget);
        match req.deadline {
            Some(dl) => {
                let remaining = dl.saturating_duration_since(Instant::now());
                Some(base.map_or(remaining, |b| b.min(remaining)))
            }
            None => base,
        }
    }

    /// Predicted cold planning wall for `route` on `q` — observed EWMA if
    /// this service has planned the shape before, calibrated closed form
    /// otherwise. Routes beyond the exact limit (UnionDP partitioning,
    /// heuristics) never run exact DP wider than the planner's partition
    /// bound, so the closed form is capped there.
    fn predicted_cold(&self, route: &str, q: &LargeQuery) -> Duration {
        let n = q.num_rels();
        if let Some(d) = self.estimator.observed_wall(route, q) {
            return d;
        }
        let n_eff = if n > self.planner.exact_limit() {
            self.planner.partition_bound().max(2)
        } else {
            n
        };
        let edges_eff = q.edges.len().min(n_eff * (n_eff - 1) / 2);
        estimate_exact_planning(n_eff, edges_eff, &self.estimator.cal)
    }

    /// Feeds an execution report back into the serving layer: if the plan
    /// cached for `fingerprint` (as returned in [`ServedPlan::fingerprint`])
    /// estimated a root cardinality that the execution contradicted by more
    /// than 10× (either direction), the entry is evicted so the next arrival
    /// of that query shape re-plans — ideally against statistics corrected
    /// with the same report (see `mpdp_exec::feedback`). Returns `true` iff
    /// a cached plan was invalidated.
    ///
    /// `model` must be the cost model the plan was served under (the cache
    /// key folds the model's identity). Deviation is measured against the
    /// *cached* estimate, not the report's own, so a report produced by one
    /// strategy's plan can invalidate the (isomorphic-fingerprint) entry
    /// another strategy populated.
    pub fn observe(
        &self,
        fingerprint: Fingerprint,
        model: &dyn CostModel,
        report: &ExecReport,
    ) -> bool {
        self.invalidate_key_if_stale(cache_key(fingerprint, model), report.root_rows as f64)
    }

    /// Key-level half of [`PlanService::observe`]: compares the cached
    /// estimate under `key` (already model-folded — see [`cache_key`])
    /// against an observed root cardinality and evicts on deviation beyond
    /// 10×. This is the primitive a sharded tier's gossip round replays on
    /// every shard: the observation is recorded once where the execution
    /// ran, then carried to replicas as `(key, observed_rows)` without
    /// needing the model or the report.
    pub fn invalidate_key_if_stale(&self, key: Fingerprint, observed_rows: f64) -> bool {
        self.cache.record_feedback_check();
        let obs = observed_rows.max(1.0);
        // Compare-and-remove under the shard lock: the deviation is judged
        // against whatever plan is stored *at removal time*, so a concurrent
        // re-plan that already refreshed the entry is never evicted on the
        // strength of the old plan's miss.
        let invalidated = self.cache.remove_if(key, |cached| {
            let est = cached.planned.rows.max(1.0);
            (est / obs).max(obs / est) > FEEDBACK_THRESHOLD
        });
        if invalidated {
            self.cache.record_feedback_invalidation();
        }
        invalidated
    }

    /// True if a plan is currently cached under the model-folded key for
    /// `fingerprint` (no priority or counter side effects). The cluster
    /// bench and the staleness-window tests use this to watch a gossiped
    /// invalidation land on every replica.
    pub fn has_cached(&self, fingerprint: Fingerprint, model: &dyn CostModel) -> bool {
        self.cache.peek(cache_key(fingerprint, model)).is_some()
    }

    /// Cache hit/miss/insertion/eviction counters.
    pub fn cache_counters(&self) -> mpdp_core::counters::CacheSnapshot {
        self.cache.counters()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Drops all cached plans (e.g. after a statistics refresh).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }
}

/// Where a request is in the decision sequence between steps. `Afford`,
/// `Lead`, `Plan`, `Publish` and `Deliver` never outlive a step, so only the
/// states a step can start from are represented.
#[derive(Debug)]
enum Stage<'a> {
    /// Nothing done yet; holds the request's canonical form if its router
    /// already computed it.
    Probe(Option<Canonicalized<'a>>),
    /// Joined another request's flight: the only state a request suspends
    /// in, woken when the leader publishes. The open `flight.wait` span is
    /// recorded (by drop) when the leader's result is delivered, so its
    /// duration is the parked interval.
    Join(Arc<Flight>, Probed, SpanGuard),
    /// Delivered (stepping again would panic, per the `Future` contract).
    Done,
}

/// What `Probe` establishes about a request and `Deliver` needs.
#[derive(Debug)]
struct Probed {
    start: Instant,
    fp: Fingerprint,
    /// `order[c]` = caller's relation in canonical slot `c`: how a plan in
    /// canonical slots is remapped onto the caller's ids on delivery.
    order: Vec<u32>,
}

/// One request's trip through the serving decision sequence (see the module
/// docs) — the only implementation of it. Returned by
/// [`PlanService::plan_async`] (see there for the leader-plans-inside-poll
/// caveat), where polling steps it with the task's waker; the blocking entry
/// points step the very same machine with a waker that unparks their thread.
pub struct PlanFuture<'a> {
    service: &'a PlanService,
    q: &'a LargeQuery,
    model: &'a dyn CostModel,
    req: &'a PlanRequest,
    /// Whether `Lead` registers a flight for concurrent misses to join: the
    /// one difference between `plan_with` and the coalesced entry points.
    coalesce: bool,
    stage: Stage<'a>,
}

impl<'a> PlanFuture<'a> {
    fn new(
        service: &'a PlanService,
        q: &'a LargeQuery,
        model: &'a dyn CostModel,
        req: &'a PlanRequest,
        coalesce: bool,
    ) -> PlanFuture<'a> {
        PlanFuture {
            service,
            q,
            model,
            req,
            coalesce,
            stage: Stage::Probe(None),
        }
    }

    /// Drives the machine on the calling thread. The park waker is built
    /// only once the machine reports that it has to wait, so hits, leaders
    /// and degradations never pay for it.
    fn block_on(mut self) -> Result<ServedPlan, OptError> {
        if let Poll::Ready(out) = self.step(None) {
            return out;
        }
        let waker = park_waker();
        loop {
            if let Poll::Ready(out) = self.step(Some(&waker)) {
                return out;
            }
            std::thread::park();
        }
    }

    /// Advances the request as far as it can go: to delivery, or to a
    /// joined flight that is still pending — then `waker` (if any) is left
    /// with the flight and the step returns `Pending`.
    fn step(&mut self, waker: Option<&Waker>) -> Poll<Result<ServedPlan, OptError>> {
        // Take the stage out so arms can move pieces of it and install the
        // successor stage without fighting the borrow checker.
        match std::mem::replace(&mut self.stage, Stage::Done) {
            Stage::Done => panic!("PlanFuture polled after completion"),
            Stage::Probe(canonical) => self.start(canonical, waker),
            Stage::Join(flight, at, wait_span) => {
                let Some(result) = flight.poll_result(waker) else {
                    self.stage = Stage::Join(flight, at, wait_span);
                    return Poll::Pending;
                };
                // Delivery: close the wait span here, not at whatever
                // later point the stage value would drop.
                drop(wait_span);
                Poll::Ready(match result {
                    Ok(planned) => {
                        let planned = planned.with_relabeled_plan(&at.order);
                        self.deliver(&at, ServedVia::Coalesced, Ok(planned))
                    }
                    // The leader failed (timed out, errored, panicked). A
                    // deadline-carrying waiter still owes an answer: degrade.
                    Err(_) if self.req.deadline.is_some() => self.degrade(&at),
                    Err(e) => self.deliver(&at, ServedVia::Coalesced, Err(e)),
                })
            }
        }
    }

    /// `Probe → Afford → Join | Lead → Plan → Publish`: everything a request
    /// does before it is delivered or finds itself waiting on a flight.
    fn start(
        &mut self,
        canonical: Option<Canonicalized<'a>>,
        waker: Option<&Waker>,
    ) -> Poll<Result<ServedPlan, OptError>> {
        let (svc, q, req) = (self.service, self.q, self.req);
        let canonical = canonical.unwrap_or_else(|| Canonicalized::new(q));
        let start = canonical.started();
        let CanonicalQuery {
            fingerprint,
            order,
            slot,
        } = canonical.into_canonical();
        let at = Probed {
            start,
            fp: fingerprint,
            order,
        };
        // Plans are only meaningful under the cost model that produced
        // them, so the cache key folds the model's identity into the query
        // fingerprint: a service shared across models (PgLike vs C_out)
        // never serves one model's plan as another's. Models are identified
        // by `CostModel::name()` — two models sharing a name must be
        // identical (all in-tree ones are).
        let key = cache_key(at.fp, self.model);
        // A strategy override bypasses the cache (see `PlanRequest::strategy`).
        let use_cache = !req.bypass_cache && req.strategy.is_none();

        // Probe, outside the flight table: the common (warm) case never
        // touches it.
        if let Some(cached) = use_cache.then(|| svc.cache.get_quiet(key)).flatten() {
            return Poll::Ready(self.hit(&at, &cached));
        }

        // Afford, after the cache miss and before joining or leading any
        // flight: a hit always makes the deadline, a cold plan only if the
        // remaining budget can pay for the route, with a 2× safety margin.
        // Otherwise the answer is a heuristic plan.
        let route = svc.route_for(q, req);
        if req.deadline.is_some_and(|dl| {
            dl.saturating_duration_since(Instant::now()) <= svc.predicted_cold(&route, q) * 2
        }) {
            return Poll::Ready(self.degrade(&at));
        }

        // Join | Lead.
        let guard = if use_cache && self.coalesce {
            match svc
                .flights
                .join_or_lead(key.as_u128(), || svc.cache.get_quiet(key))
            {
                // The previous leader finished between our probe and our
                // registration: a hit after all.
                Admission::Cached(cached) => {
                    return Poll::Ready(self.hit(&at, &cached));
                }
                Admission::Join(flight) => {
                    // The wait span covers exactly the parked interval —
                    // from joining the flight to the leader's publication.
                    // The next step registers the waker (or delivers, if
                    // the leader already finished).
                    let wait_span = req.trace.span(sites::FLIGHT_WAIT);
                    self.stage = Stage::Join(flight, at, wait_span);
                    return self.step(waker);
                }
                Admission::Lead(guard) => Some(guard),
            }
        } else {
            None
        };

        // Plan, on this thread and inside this step. A flight leader's lead
        // span covers planning *and* publication; the nested strategy span
        // inside `run` isolates the optimizer itself.
        let lead = guard.as_ref().map(|_| req.trace.span(sites::FLIGHT_LEAD));
        let ctx = lead
            .as_ref()
            .map_or_else(|| req.trace.clone(), SpanGuard::ctx);
        match svc
            .strategy_for(q, req)
            .and_then(|strategy| self.run(&*strategy, false, &ctx))
        {
            Ok(planned) => {
                if use_cache {
                    // Publish: stored with plan leaves relabeled into
                    // canonical slots so any isomorphic future request can
                    // remap them onto its own ids, and inserted *before*
                    // the flight completes, so no instant exists where a
                    // new arrival re-plans. The per-level profile stays with
                    // the cold answer: every hit would copy it, and a DP run
                    // of n relations profiles n levels.
                    let canonical_plan = Arc::new(Planned {
                        profile: None,
                        ..planned.with_relabeled_plan(&slot)
                    });
                    svc.cache.insert(
                        key,
                        CachedPlan {
                            planned: Arc::clone(&canonical_plan),
                        },
                    );
                    if let Some(guard) = guard {
                        guard.finish(Ok(canonical_plan));
                    }
                }
                svc.estimator.observe(&route, q, planned.wall);
                Poll::Ready(self.deliver(&at, ServedVia::Cold, Ok(planned)))
            }
            Err(e) => {
                // A failed leader fails its flight with the same error;
                // waiters with deadlines degrade themselves.
                if let Some(guard) = guard {
                    guard.finish(Err(e.clone()));
                }
                // A mid-flight timeout on a deadline-carrying request
                // degrades to the heuristic instead of erroring.
                if matches!(e, OptError::Timeout { .. }) && req.deadline.is_some() {
                    svc.cache.record_deadline_exceeded();
                    drop(lead);
                    return Poll::Ready(self.degrade(&at));
                }
                Poll::Ready(self.deliver(&at, ServedVia::Cold, Err(e)))
            }
        }
    }

    /// Plan: runs `strategy` under a `strategy.invoke` span. The routed
    /// attempt has the `planner.invoke` fault site in front of it (chaos
    /// tests inject panics, stalls and errors there; an injected error
    /// annotates the trace instead of running) and gets the request's
    /// budget. The `degraded` run has
    /// neither: degradation is the recovery path and must stay reliable,
    /// and the heuristic is cheap enough to always make a deadline.
    fn run(
        &self,
        strategy: &dyn Strategy,
        degraded: bool,
        trace: &SpanCtx,
    ) -> Result<Planned, OptError> {
        let svc = self.service;
        let budget = if degraded {
            trace.event(sites::DEGRADE, 0);
            None
        } else if svc.faults.apply_panic_stall(site::PLANNER_INVOKE) {
            trace.event(sites::FAULT, fault_site_code(site::PLANNER_INVOKE));
            return Err(OptError::Internal("injected planner fault".to_string()));
        } else {
            svc.effective_budget(self.req)
        };
        let _span = trace.span(sites::STRATEGY);
        strategy.plan(self.q, self.model, budget)
    }

    /// Serves GOO's plan as [`ServedVia::Degraded`]. Never touches the
    /// cache: a heuristic plan stored under the fingerprint would be served
    /// to every later request as if it were exact.
    fn degrade(&self, at: &Probed) -> Result<ServedPlan, OptError> {
        let planned = self.run(&self.service.degrade, true, &self.req.trace);
        self.deliver(at, ServedVia::Degraded, planned)
    }

    /// Serves a cached plan. Its leaves are canonical slots; `order` maps
    /// slot -> this caller's relation id.
    fn hit(&self, at: &Probed, cached: &CachedPlan) -> Result<ServedPlan, OptError> {
        self.req.trace.event(sites::CACHE_HIT, 0);
        let planned = cached.planned.with_relabeled_plan(&at.order);
        self.deliver(at, ServedVia::Hit, Ok(planned))
    }

    /// Deliver: the one place an outcome is tallied and a [`ServedPlan`] is
    /// built, so `hits + misses + coalesced + degraded` counts every request
    /// exactly once on every entry point — failures included, under the
    /// outcome they were heading for.
    fn deliver(
        &self,
        at: &Probed,
        via: ServedVia,
        planned: Result<Planned, OptError>,
    ) -> Result<ServedPlan, OptError> {
        let cache = &self.service.cache;
        match via {
            ServedVia::Hit => cache.record_hit(),
            ServedVia::Cold => cache.record_miss(),
            ServedVia::Coalesced => cache.record_coalesced(),
            ServedVia::Degraded => cache.record_degraded(),
        }
        Ok(ServedPlan {
            planned: planned?,
            cache_hit: via == ServedVia::Hit,
            via,
            service_time: at.start.elapsed(),
            fingerprint: at.fp,
        })
    }
}

impl std::fmt::Debug for PlanFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlanFuture({:?})", self.stage)
    }
}

impl Future for PlanFuture<'_> {
    type Output = Result<ServedPlan, OptError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // No pinned fields: every field is Unpin (references + stage enum).
        Pin::into_inner(self).step(Some(cx.waker()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_cost::PgLikeCost;
    use mpdp_workload::gen;

    /// The service routes exactly as the registry's `Adaptive` entry plans,
    /// on both sides of the exact limit.
    #[test]
    fn router_thresholds() {
        let m = PgLikeCost::new();
        let svc = PlanService::new();
        let adaptive = registry().get("Adaptive").unwrap();
        let req = PlanRequest::default();
        for (q, route) in [
            (gen::chain(8, 1, &m), "MPDP"),
            (gen::chain(10, 1, &m), "MPDP"),
            (gen::chain(11, 1, &m), "MPDP"),
            (gen::clique(12, 1, &m), "MPDP"),
            (gen::chain(18, 1, &m), "MPDP"),
            (gen::chain(19, 1, &m), "UnionDP-MPDP (15)"),
            (gen::chain(40, 1, &m), "UnionDP-MPDP (15)"),
        ] {
            let planned = adaptive.plan(&q, &m, None).unwrap();
            assert_eq!(svc.route_for(&q, &req), planned.strategy);
            assert_eq!(planned.strategy, route, "n = {}", q.num_rels());
        }
    }

    #[test]
    fn hit_returns_callers_labels() {
        let m = PgLikeCost::new();
        let svc = PlanService::new();
        let q = gen::star(12, 5, &m);
        let cold = svc.plan(&q, &m).unwrap();
        assert!(!cold.cache_hit);
        // Same query, relations listed in reverse: must hit and validate
        // against the *relabeled* query.
        let perm: Vec<usize> = (0..12).rev().collect();
        let r = q.relabel(&perm);
        let hit = svc.plan(&r, &m).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.fingerprint, cold.fingerprint);
        // The cold answer carries its run's profile; the cache keeps none.
        assert!(cold.planned.profile.is_some() && hit.planned.profile.is_none());
        assert!((hit.planned.cost - cold.planned.cost).abs() < 1e-9 * cold.planned.cost.max(1.0));
        let qi = r.to_query_info().unwrap();
        assert!(hit.planned.plan.validate(&qi.graph).is_none());
    }

    #[test]
    fn different_cost_models_never_share_entries() {
        use mpdp_cost::CoutCost;
        let m_pg = PgLikeCost::new();
        let m_cout = CoutCost;
        let svc = PlanService::new();
        let q = gen::chain(9, 4, &m_pg);
        let pg = svc.plan(&q, &m_pg).unwrap();
        assert!(!pg.cache_hit);
        // Same query under another model must miss and re-plan, not be
        // served the PgLike plan/cost.
        let cout = svc.plan(&q, &m_cout).unwrap();
        assert!(!cout.cache_hit, "model identity must separate cache keys");
        assert_ne!(pg.planned.cost, cout.planned.cost);
        // Each model's entry still hits for itself.
        assert!(svc.plan(&q, &m_pg).unwrap().cache_hit);
        assert!(svc.plan(&q, &m_cout).unwrap().cache_hit);
    }

    #[test]
    fn bypass_and_override() {
        let m = PgLikeCost::new();
        let svc = PlanService::new();
        let q = gen::chain(9, 2, &m);
        let bypass = PlanRequest {
            bypass_cache: true,
            ..Default::default()
        };
        svc.plan_with(&q, &m, &bypass).unwrap();
        assert_eq!(svc.cached_plans(), 0);
        let forced = PlanRequest {
            strategy: Some("MPDP".into()),
            ..Default::default()
        };
        let served = svc.plan_with(&q, &m, &forced).unwrap();
        assert_eq!(served.planned.strategy, "MPDP");
        // An override implies a cache bypass: it must neither poison the
        // cache for default requests nor be answered from it.
        assert!(!served.cache_hit);
        assert_eq!(svc.cached_plans(), 0);
        let default_served = svc.plan(&q, &m).unwrap();
        assert!(!default_served.cache_hit, "override must not populate");
        let forced_again = svc.plan_with(&q, &m, &forced).unwrap();
        assert!(
            !forced_again.cache_hit,
            "override must not be served another strategy's cached plan"
        );
        // Unknown strategy name surfaces as an error, not a panic (bypass
        // the cache so resolution actually runs — a hit never routes).
        let bogus = PlanRequest {
            strategy: Some("NoSuchPlanner".into()),
            bypass_cache: true,
            ..Default::default()
        };
        assert!(svc.plan_with(&q, &m, &bogus).is_err());
    }
}
