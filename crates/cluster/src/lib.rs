//! `mpdp-cluster` — the sharded planning tier.
//!
//! PRs 3–8 scaled one [`PlanService`] to ~136k plans/s on a single core;
//! past that, the shared cache and flight table are the wall. This crate
//! is the next multiplier the ROADMAP names: N *independent* services
//! ("shards", each with its own cache, flight table and counters) placed
//! behind consistent hashing on the query fingerprint, so aggregate
//! throughput scales with shard count while each query still enjoys a
//! warm, single-flighted cache.
//!
//! Three mechanisms carry the design:
//!
//! * **Consistent-hash routing** — an [`mpdp_core::ring::HashRing`] (vnode
//!   ring, deterministic from a seed) maps each canonical fingerprint to
//!   its owning shard. Adding or removing a shard moves only ~1/N of the
//!   fingerprints (and the movers all land on the new shard), so a rehash
//!   does not cold-start the survivors' caches.
//! * **Hot-template replication** — a Zipf-skewed workload concentrates on
//!   a head of templates; with pure ownership routing the head serializes
//!   on one shard and the model speedup stalls well short of N. Templates
//!   whose routed-request count crosses [`ClusterConfig::hot_threshold`]
//!   are instead served round-robin across their ring replica set (the
//!   first [`ClusterConfig::replicas`] distinct shards after the key's
//!   position). Each replica cold-plans the template once on first
//!   arrival and serves hits thereafter — replication is a routing policy
//!   plus organic cache fill, not a plan-shipping protocol.
//! * **Feedback gossip** — cardinality feedback
//!   ([`PlanService::observe`]-style invalidations and the executor's
//!   `selectivity_overrides`) recorded on one shard must take effect on
//!   every replica, or the hot head keeps serving a plan its own
//!   execution disproved. Each observation becomes an event in the
//!   origin shard's log; [`PlanCluster::run_gossip_round`] performs one
//!   anti-entropy round in which every shard pushes its log to both of
//!   its neighbours on the (ordered) shard ring. An event therefore
//!   travels one hop in each direction per round and reaches all N
//!   shards within `floor(N/2)` rounds — the staleness bound
//!   [`PlanCluster::staleness_bound`] returns and the tests assert.
//!
//! The tier is in-process (shards are `Arc<PlanService>`s, gossip rounds
//! are method calls) — the unit under study is the *policy* (ring,
//! replication threshold, staleness bound), asserted by
//! `tests/cluster_tier.rs` and measured by `benchmark/`'s `cluster.*`
//! metrics.

#![warn(missing_docs)]

use mpdp::service::{cache_key, PlanRequest, PlanService, PlanServiceBuilder, ServedPlan};
use mpdp_core::counters::CacheSnapshot;
use mpdp_core::fingerprint::{canonicalize, Fingerprint};
use mpdp_core::ring::{HashRing, DEFAULT_VNODES};
use mpdp_core::sync::lock_recover;
use mpdp_core::{LargeQuery, OptError};
use mpdp_cost::model::CostModel;
use mpdp_exec::feedback::selectivity_overrides;
use mpdp_exec::ExecReport;
use mpdp_obs::{sites, ObsSnapshot, Tracer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Configuration for [`PlanCluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards to start with.
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Ring seed: the same seed and shard set always produce the same
    /// routing (tests and benches replay routing decisions exactly).
    pub seed: u64,
    /// Routed-request count at which a template is declared hot and its
    /// traffic spreads round-robin over the replica set.
    pub hot_threshold: u64,
    /// Replica-set size R for hot templates (clamped to the shard count).
    pub replicas: usize,
    /// Per-shard service template; each shard builds its own independent
    /// `PlanService` from a clone of this builder.
    pub service: PlanServiceBuilder,
    /// Span tracer: gossip rounds record a global `cluster.gossip` event
    /// (attr = deliveries) on it. Disabled by default; a serving front-end
    /// propagates its own armed handle here.
    pub tracer: Tracer,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            vnodes: DEFAULT_VNODES,
            seed: 0x6d70_6470, // "mpdp"
            hot_threshold: 32,
            replicas: 2,
            service: PlanServiceBuilder::new(),
            tracer: Tracer::disabled(),
        }
    }
}

/// One gossip event: an observation made on some shard that every other
/// shard must eventually apply. `(origin, seq)` identifies it globally.
#[derive(Clone, Debug)]
struct Event {
    origin: u32,
    seq: u64,
    payload: Payload,
}

#[derive(Clone, Debug)]
enum Payload {
    /// Evict the plan under `key` (already model-folded) if its cached
    /// estimate deviates from `observed_rows` beyond the receiving
    /// shard's feedback threshold. Carrying the key rather than the
    /// model keeps events self-contained: a replica applies one with
    /// [`PlanService::invalidate_key_if_stale`], no model handle needed.
    Invalidate {
        key: Fingerprint,
        observed_rows: f64,
    },
    /// Corrected per-edge selectivities observed for a fingerprint, for
    /// any shard re-planning that template after the eviction.
    Overrides { fp: u128, edges: Vec<(usize, f64)> },
}

/// Per-shard gossip state: the events this shard knows (its own plus
/// received), a dedup set, and the override store fed by `Overrides`
/// events.
#[derive(Debug, Default)]
struct GossipState {
    events: Vec<Event>,
    /// How much of `events` both current neighbours have already been
    /// offered; a round pushes only the suffix past it. Reset to 0 when the
    /// topology changes, since a neighbour may be new.
    pushed: usize,
    seen: HashSet<(u32, u64)>,
    next_seq: u64,
    overrides: HashMap<u128, Vec<(usize, f64)>>,
}

#[derive(Debug)]
struct Shard {
    id: u32,
    service: Arc<PlanService>,
    gossip: Mutex<GossipState>,
}

impl Shard {
    /// Applies `ev` if not yet seen; returns whether it was new.
    fn receive(&self, ev: &Event) -> bool {
        let mut st = lock_recover(&self.gossip);
        if !st.seen.insert((ev.origin, ev.seq)) {
            return false;
        }
        st.events.push(ev.clone());
        match &ev.payload {
            Payload::Invalidate { key, observed_rows } => {
                // Apply outside the gossip lock? The cache has its own
                // shard locks and never takes the gossip lock, so the
                // ordering here cannot deadlock; keep it simple.
                self.service.invalidate_key_if_stale(*key, *observed_rows);
            }
            Payload::Overrides { fp, edges } => {
                st.overrides.insert(*fp, edges.clone());
            }
        }
        true
    }

    /// Records a locally-originated event (already applied locally).
    fn originate(&self, payload: Payload) {
        let mut st = lock_recover(&self.gossip);
        let seq = st.next_seq;
        st.next_seq += 1;
        let id = self.id;
        st.seen.insert((id, seq));
        st.events.push(Event {
            origin: id,
            seq,
            payload,
        });
    }
}

/// Live topology: the ring and the shard list (ascending by id, which is
/// also the gossip-ring order). Swapped wholesale under a write lock on
/// add/remove; every routing decision reads one consistent view.
#[derive(Debug)]
struct Topology {
    ring: HashRing,
    shards: Vec<Arc<Shard>>,
}

impl Topology {
    /// The gossip ring changed: every shard offers its whole log again, so
    /// new neighbours catch up (receivers drop what they have seen).
    fn forget_pushes(&self) {
        for s in &self.shards {
            lock_recover(&s.gossip).pushed = 0;
        }
    }

    fn shard(&self, id: u32) -> Option<&Arc<Shard>> {
        self.shards
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &self.shards[i])
    }
}

/// A [`ServedPlan`] plus the shard that served it.
#[derive(Clone, Debug)]
pub struct ClusterServed {
    /// The planning outcome, exactly as the owning shard produced it.
    pub served: ServedPlan,
    /// Id of the shard that served the request.
    pub shard: u32,
}

/// Per-template routing statistics, striped to keep the hot path off a
/// single lock.
#[derive(Debug)]
struct HotTable {
    stripes: Vec<Mutex<HashMap<u128, u64>>>,
}

impl HotTable {
    fn new() -> HotTable {
        HotTable {
            stripes: (0..16).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Increments and returns the routed-request count for `key`.
    fn bump(&self, key: u128) -> u64 {
        let stripe = ((key >> 64) as u64 ^ key as u64) as usize % self.stripes.len();
        let mut map = lock_recover(&self.stripes[stripe]);
        let count = map.entry(key).or_insert(0);
        *count += 1;
        *count
    }

    fn count(&self, key: u128) -> u64 {
        let stripe = ((key >> 64) as u64 ^ key as u64) as usize % self.stripes.len();
        lock_recover(&self.stripes[stripe])
            .get(&key)
            .copied()
            .unwrap_or(0)
    }
}

/// The sharded planning tier: N independent [`PlanService`] shards behind
/// consistent-hash routing, hot-template replication and feedback gossip.
/// See the module docs for the design; construct with
/// [`PlanCluster::new`], serve with [`PlanCluster::plan`], feed execution
/// reports back with [`PlanCluster::observe`], and drive anti-entropy
/// with [`PlanCluster::run_gossip_round`].
#[derive(Debug)]
pub struct PlanCluster {
    topo: RwLock<Topology>,
    hot: HotTable,
    config: ClusterConfig,
    next_id: AtomicU32,
}

impl PlanCluster {
    /// Builds a cluster of `config.shards` fresh shards.
    pub fn new(config: ClusterConfig) -> PlanCluster {
        assert!(config.shards > 0, "cluster needs at least one shard");
        assert!(config.replicas > 0, "replica set must be non-empty");
        let shards: Vec<Arc<Shard>> = (0..config.shards as u32)
            .map(|id| {
                Arc::new(Shard {
                    id,
                    service: Arc::new(config.service.clone().build()),
                    gossip: Mutex::new(GossipState::default()),
                })
            })
            .collect();
        let ids: Vec<u32> = shards.iter().map(|s| s.id).collect();
        let ring = HashRing::new(config.seed, config.vnodes, &ids);
        PlanCluster {
            topo: RwLock::new(Topology { ring, shards }),
            hot: HotTable::new(),
            next_id: AtomicU32::new(config.shards as u32),
            config,
        }
    }

    fn read_topo(&self) -> std::sync::RwLockReadGuard<'_, Topology> {
        self.topo.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_topo(&self) -> std::sync::RwLockWriteGuard<'_, Topology> {
        self.topo.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of live shards.
    pub fn shards(&self) -> usize {
        self.read_topo().shards.len()
    }

    /// Live shard ids, ascending.
    pub fn shard_ids(&self) -> Vec<u32> {
        self.read_topo().shards.iter().map(|s| s.id).collect()
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shard id that will serve `fp`'s *next* request, accounting for
    /// hot-template round-robin (this call advances the round-robin
    /// counter, exactly like a served request would).
    pub fn route(&self, fp: Fingerprint) -> u32 {
        let topo = self.read_topo();
        let key = fp.as_u128();
        let count = self.hot.bump(key);
        if count > self.config.hot_threshold && self.config.replicas > 1 && topo.ring.len() > 1 {
            let set = topo.ring.shards_of(key, self.config.replicas);
            set[(count % set.len() as u64) as usize]
        } else {
            topo.ring.shard_of(key)
        }
    }

    /// The primary owner of `fp` (no round-robin, no counter side
    /// effects) — where a cold template lives and where [`PlanCluster::observe`]
    /// records its observation.
    pub fn owner(&self, fp: Fingerprint) -> u32 {
        self.read_topo().ring.shard_of(fp.as_u128())
    }

    /// The replica set a hot `fp` round-robins over.
    pub fn replica_set(&self, fp: Fingerprint) -> Vec<u32> {
        self.read_topo()
            .ring
            .shards_of(fp.as_u128(), self.config.replicas)
    }

    /// Routed-request count recorded for `fp` so far.
    pub fn hot_count(&self, fp: Fingerprint) -> u64 {
        self.hot.count(fp.as_u128())
    }

    /// Routes `q` and returns the serving shard's service together with
    /// the canonical fingerprint and the shard id — the hook a serving
    /// front-end uses to call the shard's service itself (with its own
    /// request options and span) instead of going through
    /// [`PlanCluster::plan`].
    pub fn route_service(&self, q: &LargeQuery) -> (Arc<PlanService>, Fingerprint, u32) {
        let fp = canonicalize(q).fingerprint;
        let id = self.route(fp);
        let topo = self.read_topo();
        // The id came from this or an earlier topology; under a concurrent
        // remove it may be gone — fall back to the current primary owner
        // (ring ids are live ids by construction).
        let shard = topo
            .shard(id)
            .or_else(|| topo.shard(topo.ring.shard_of(fp.as_u128())))
            .expect("consistent-hash ring only contains live shards");
        (Arc::clone(&shard.service), fp, shard.id)
    }

    /// Plans `q` on its routed shard (single-flight, cache-first).
    pub fn plan(&self, q: &LargeQuery, model: &dyn CostModel) -> Result<ClusterServed, OptError> {
        self.plan_with(q, model, &PlanRequest::default())
    }

    /// Plans `q` on its routed shard with per-request options.
    pub fn plan_with(
        &self,
        q: &LargeQuery,
        model: &dyn CostModel,
        req: &PlanRequest,
    ) -> Result<ClusterServed, OptError> {
        let (service, _fp, shard) = self.route_service(q);
        let served = service.plan_coalesced(q, model, req)?;
        Ok(ClusterServed { served, shard })
    }

    /// The service behind a shard id (tests and benches inspect shards
    /// directly; production traffic goes through [`PlanCluster::plan`]).
    pub fn shard_service(&self, id: u32) -> Option<Arc<PlanService>> {
        self.read_topo().shard(id).map(|s| Arc::clone(&s.service))
    }

    /// Feeds an execution report back on the fingerprint's primary owner
    /// — see [`PlanCluster::observe_on`].
    pub fn observe(
        &self,
        fingerprint: Fingerprint,
        model: &dyn CostModel,
        report: &ExecReport,
    ) -> bool {
        let owner = self.owner(fingerprint);
        self.observe_on(owner, fingerprint, model, report)
    }

    /// Feeds an execution report back *on one shard* (where the feedback
    /// arrived): applies the compare-and-evict locally, stores the
    /// report's selectivity overrides, and originates gossip events so
    /// every other shard applies the same observation within
    /// [`PlanCluster::staleness_bound`] rounds. Returns whether the local
    /// shard evicted its entry.
    pub fn observe_on(
        &self,
        shard_id: u32,
        fingerprint: Fingerprint,
        model: &dyn CostModel,
        report: &ExecReport,
    ) -> bool {
        let key = cache_key(fingerprint, model);
        let observed_rows = report.root_rows as f64;
        let topo = self.read_topo();
        let Some(shard) = topo.shard(shard_id) else {
            return false;
        };
        let invalidated = shard.service.invalidate_key_if_stale(key, observed_rows);
        shard.originate(Payload::Invalidate { key, observed_rows });
        let edges = selectivity_overrides(report);
        if !edges.is_empty() {
            let fp = fingerprint.as_u128();
            lock_recover(&shard.gossip)
                .overrides
                .insert(fp, edges.clone());
            shard.originate(Payload::Overrides { fp, edges });
        }
        invalidated
    }

    /// Runs one anti-entropy round: every shard pushes the part of its
    /// event log its neighbours have not been offered yet to both
    /// neighbours on the ordered shard ring, which apply the events they
    /// have not seen (evicting stale replicas, storing overrides). The
    /// pushes are snapshotted up front, so one round moves information
    /// exactly one hop in each direction — `floor(N/2)` rounds flood any
    /// event to all N shards — and a round costs what is new since the
    /// last one, not the whole history. Returns the number of event
    /// deliveries (applications on a shard that had not seen the event).
    pub fn run_gossip_round(&self) -> u64 {
        let topo = self.read_topo();
        let n = topo.shards.len();
        if n <= 1 {
            return 0;
        }
        let logs: Vec<Vec<Event>> = topo
            .shards
            .iter()
            .map(|s| {
                let mut st = lock_recover(&s.gossip);
                let fresh = st.events[st.pushed..].to_vec();
                st.pushed = st.events.len();
                fresh
            })
            .collect();
        let mut delivered = 0u64;
        for (i, events) in logs.iter().enumerate() {
            for j in [(i + 1) % n, (i + n - 1) % n] {
                if j == i {
                    continue;
                }
                for ev in events {
                    delivered += u64::from(topo.shards[j].receive(ev));
                }
            }
        }
        // Global annotation (trace 0): gossip rounds belong to no single
        // request but show up in trace timelines next to the requests
        // whose replicas they invalidate.
        self.config.tracer.event(sites::GOSSIP, delivered);
        delivered
    }

    /// The documented staleness window: the number of gossip rounds after
    /// which an event recorded on any shard has been applied on every
    /// shard. Bidirectional neighbour push moves an event one hop each
    /// way per round, so the bound is the ring's max hop distance,
    /// `floor(N/2)` (0 for a single shard).
    pub fn staleness_bound(&self) -> usize {
        self.shards() / 2
    }

    /// How many live shards currently cache a plan for `fingerprint`
    /// under `model` — the probe the staleness tests and the bench use to
    /// watch an invalidation flood the replica set.
    pub fn cached_replicas(&self, fingerprint: Fingerprint, model: &dyn CostModel) -> usize {
        self.read_topo()
            .shards
            .iter()
            .filter(|s| s.service.has_cached(fingerprint, model))
            .count()
    }

    /// Selectivity overrides shard `shard_id` has learned (its own
    /// observations plus gossiped ones) for `fingerprint`.
    pub fn overrides_for(
        &self,
        shard_id: u32,
        fingerprint: Fingerprint,
    ) -> Option<Vec<(usize, f64)>> {
        let topo = self.read_topo();
        let shard = topo.shard(shard_id)?;
        let found = lock_recover(&shard.gossip)
            .overrides
            .get(&fingerprint.as_u128())
            .cloned();
        found
    }

    /// Exact cluster-level counters: the field-wise
    /// [`CacheSnapshot::merge`] fold of every live shard's snapshot.
    pub fn aggregate_cache(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for s in &self.read_topo().shards {
            total.merge(&s.service.cache_counters());
        }
        total
    }

    /// Per-shard `(id, snapshot)` pairs, ascending by id.
    pub fn shard_snapshots(&self) -> Vec<(u32, CacheSnapshot)> {
        self.read_topo()
            .shards
            .iter()
            .map(|s| (s.id, s.service.cache_counters()))
            .collect()
    }

    /// The cluster's counters as an [`ObsSnapshot`]: one
    /// `mpdp_cluster_cache_*{shard="N"}` section per live shard plus the
    /// exact aggregate as tenant `"cluster"`.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            tenants: vec![("cluster".to_string(), self.aggregate_cache())],
            shards: self.shard_snapshots(),
            ..ObsSnapshot::default()
        }
    }

    /// Prometheus text exposition of [`PlanCluster::obs_snapshot`], via
    /// the canonical `mpdp-obs` formatter (same names and label scheme as
    /// the serve front-end's `/metrics`).
    pub fn metrics_text(&self) -> String {
        self.obs_snapshot().metrics_text()
    }

    /// Total plans cached across all shards (replicated templates count
    /// once per replica).
    pub fn cached_plans(&self) -> usize {
        self.read_topo()
            .shards
            .iter()
            .map(|s| s.service.cached_plans())
            .sum()
    }

    /// Adds a fresh shard (rehash): only ~1/(N+1) of the fingerprints
    /// move, all of them onto the new shard, whose cache warms
    /// organically. Returns the new shard's id.
    pub fn add_shard(&self) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = Arc::new(Shard {
            id,
            service: Arc::new(self.config.service.clone().build()),
            gossip: Mutex::new(GossipState::default()),
        });
        let mut topo = self.write_topo();
        topo.ring = topo.ring.with_shard(id);
        topo.shards.push(shard);
        topo.shards.sort_by_key(|s| s.id);
        topo.forget_pushes();
        id
    }

    /// Removes a shard (node loss): its cached plans are gone, its keys
    /// redistribute to their next ring successors, and every fingerprint
    /// stays routable. Returns `false` if the id is unknown or it is the
    /// last shard (an unroutable cluster is not a valid state).
    pub fn remove_shard(&self, id: u32) -> bool {
        let mut topo = self.write_topo();
        if topo.shards.len() <= 1 || topo.shard(id).is_none() {
            return false;
        }
        topo.ring = topo.ring.without_shard(id);
        topo.shards.retain(|s| s.id != id);
        topo.forget_pushes();
        true
    }
}
