//! `mpdp-cluster` — the sharded planning tier.
//!
//! A fixed set of N independent [`PlanService`]s ("shards", each with its
//! own cache, flight table and counters) behind consistent hashing on the
//! query fingerprint. `benchmark/`'s `serve-hot` and `e2e-mixed` tenants and
//! `repro trace` serve through it. In one process it buys nothing that the
//! mutex-sharded plan cache does not; ROADMAP item 16 measures whether to
//! delete it.
//!
//! Three mechanisms carry the design:
//!
//! * **Consistent-hash routing** — an [`mpdp_core::ring::HashRing`] (128
//!   vnodes per shard from a fixed seed) maps each canonical fingerprint to
//!   its owning shard. The shards are built once by [`PlanCluster::new`]
//!   and indexed by id; the set never changes. The router canonicalizes a
//!   query to find its fingerprint and hands the form to the shard with the
//!   query ([`Routed`]), so a routed request canonicalizes once.
//! * **Hot-template replication** — once a template has been routed more
//!   than 32 times, its requests go round-robin over its ring replica set
//!   (the first [`ClusterConfig::replicas`] distinct shards after the key's
//!   position). Each replica cold-plans the template once on first arrival
//!   and serves hits thereafter — replication is a routing policy plus
//!   organic cache fill, not a plan-shipping protocol.
//! * **Invalidation gossip** — a cardinality miss observed on one shard
//!   must evict the plan on every replica, or the hot head keeps serving a
//!   plan its own execution disproved. [`PlanCluster::observe`] evicts
//!   locally and queues `(key, observed rows)` in the shard's outbox;
//!   [`PlanCluster::run_gossip_round`] empties every outbox and applies
//!   each entry once on every other shard. No other shard sees an
//!   observation before a round runs, every shard has seen it after one,
//!   and a round costs what was observed since the last.
//!
//! The tier is in-process (shards are `Arc<PlanService>`s, gossip rounds
//! are method calls), asserted by `tests/cluster_tier.rs` and measured by
//! `benchmark/`'s `cluster.*` metrics.

#![warn(missing_docs)]

use mpdp::service::{cache_key, PlanRequest, PlanService, PlanServiceBuilder, ServedPlan};
use mpdp_core::counters::CacheSnapshot;
use mpdp_core::fingerprint::{Canonicalized, Fingerprint};
use mpdp_core::ring::{HashRing, DEFAULT_VNODES};
use mpdp_core::sync::lock_recover;
use mpdp_core::{LargeQuery, OptError};
use mpdp_cost::model::CostModel;
use mpdp_exec::ExecReport;
use mpdp_obs::{sites, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Ring seed ("mpdp"): a given shard count always routes the same way, so
/// tests and benches replay routing decisions exactly.
const SEED: u64 = 0x6d70_6470;

/// Routed-request count past which a template is hot and its traffic
/// spreads round-robin over the replica set.
const HOT_THRESHOLD: u64 = 32;

/// Configuration for [`PlanCluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
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
            replicas: 2,
            service: PlanServiceBuilder::new(),
            tracer: Tracer::disabled(),
        }
    }
}

/// One shard: its service and the observations made on it since the last
/// gossip round, as `(model-folded cache key, observed root rows)`. Carrying
/// the key rather than the model lets another shard apply an entry with
/// [`PlanService::invalidate_key_if_stale`], no model handle needed.
#[derive(Debug)]
struct Shard {
    service: Arc<PlanService>,
    outbox: Mutex<Vec<(Fingerprint, f64)>>,
}

/// A [`ServedPlan`] plus the shard that served it.
#[derive(Clone, Debug)]
pub struct ClusterServed {
    /// The planning outcome, exactly as the owning shard produced it.
    pub served: ServedPlan,
    /// Id of the shard that served the request.
    pub shard: u32,
}

/// A request routed to its shard: the shard's service, the shard id, and the
/// query with the canonical form routing computed, which the service plans
/// from without canonicalizing again ([`PlanService::plan_canonical`]).
#[derive(Debug)]
pub struct Routed<'q> {
    /// The serving shard's service.
    pub service: Arc<PlanService>,
    /// Id of the serving shard.
    pub shard: u32,
    /// The query and its canonical form.
    pub query: Canonicalized<'q>,
}

/// Per-template routed-request counts, striped to keep the hot path off a
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
}

/// The sharded planning tier: a fixed set of [`PlanService`] shards behind
/// consistent-hash routing, hot-template replication and invalidation
/// gossip. See the module docs for the design; construct with
/// [`PlanCluster::new`], serve with [`PlanCluster::plan`], feed execution
/// reports back with [`PlanCluster::observe`], and spread them with
/// [`PlanCluster::run_gossip_round`].
#[derive(Debug)]
pub struct PlanCluster {
    ring: HashRing,
    /// Indexed by shard id.
    shards: Vec<Shard>,
    hot: HotTable,
    replicas: usize,
    tracer: Tracer,
}

impl PlanCluster {
    /// Builds a cluster of `config.shards` fresh shards, ids `0..shards`.
    pub fn new(config: ClusterConfig) -> PlanCluster {
        assert!(config.shards > 0, "cluster needs at least one shard");
        assert!(config.replicas > 0, "replica set must be non-empty");
        let ids: Vec<u32> = (0..config.shards as u32).collect();
        let shards = (0..config.shards)
            .map(|_| Shard {
                service: Arc::new(config.service.clone().build()),
                outbox: Mutex::default(),
            })
            .collect();
        PlanCluster {
            ring: HashRing::new(SEED, DEFAULT_VNODES, &ids),
            shards,
            hot: HotTable::new(),
            replicas: config.replicas,
            tracer: config.tracer,
        }
    }

    /// The shard that serves `fp`'s next request: its owner until the
    /// template turns hot, then round-robin over its replica set. Advances
    /// the template's routed-request count.
    fn route(&self, fp: Fingerprint) -> u32 {
        let key = fp.as_u128();
        let count = self.hot.bump(key);
        if count > HOT_THRESHOLD && self.replicas > 1 && self.shards.len() > 1 {
            let set = self.ring.shards_of(key, self.replicas);
            set[(count % set.len() as u64) as usize]
        } else {
            self.ring.shard_of(key)
        }
    }

    /// The primary owner of `fp` (no round-robin, no counter side
    /// effects) — where a cold template lives and where [`PlanCluster::observe`]
    /// records its observation.
    pub fn owner(&self, fp: Fingerprint) -> u32 {
        self.ring.shard_of(fp.as_u128())
    }

    /// The replica set a hot `fp` round-robins over, led by its owner.
    pub fn replica_set(&self, fp: Fingerprint) -> Vec<u32> {
        self.ring.shards_of(fp.as_u128(), self.replicas)
    }

    /// Canonicalizes and routes `q`, returning the serving shard's service
    /// and id with the canonical form — the hook a serving front-end uses to
    /// call the shard's service itself (with its own request options and
    /// span) instead of going through [`PlanCluster::plan`]. Planning the
    /// result with [`PlanService::plan_canonical`] canonicalizes nothing
    /// again.
    pub fn route_service<'q>(&self, q: &'q LargeQuery) -> Routed<'q> {
        let query = Canonicalized::new(q);
        let shard = self.route(query.fingerprint());
        Routed {
            service: Arc::clone(&self.shards[shard as usize].service),
            shard,
            query,
        }
    }

    /// Plans `q` on its routed shard (single-flight, cache-first).
    pub fn plan(&self, q: &LargeQuery, model: &dyn CostModel) -> Result<ClusterServed, OptError> {
        let routed = self.route_service(q);
        let served = routed
            .service
            .plan_canonical(routed.query, model, &PlanRequest::default())?;
        Ok(ClusterServed {
            served,
            shard: routed.shard,
        })
    }

    /// The service behind a shard id (tests and benches inspect shards
    /// directly; production traffic goes through [`PlanCluster::plan`]).
    pub fn shard_service(&self, id: u32) -> Option<Arc<PlanService>> {
        self.shards.get(id as usize).map(|s| Arc::clone(&s.service))
    }

    /// Feeds an execution report back on the fingerprint's primary owner
    /// — see [`PlanCluster::observe_on`].
    pub fn observe(
        &self,
        fingerprint: Fingerprint,
        model: &dyn CostModel,
        report: &ExecReport,
    ) -> bool {
        self.observe_on(self.owner(fingerprint), fingerprint, model, report)
    }

    /// Feeds an execution report back *on one shard* (where the feedback
    /// arrived): applies the compare-and-evict there and queues the
    /// observation in the shard's outbox, which the next
    /// [`PlanCluster::run_gossip_round`] applies on every other shard.
    /// Returns whether the local shard evicted its entry (`false` for an
    /// unknown shard id).
    pub fn observe_on(
        &self,
        shard_id: u32,
        fingerprint: Fingerprint,
        model: &dyn CostModel,
        report: &ExecReport,
    ) -> bool {
        let Some(shard) = self.shards.get(shard_id as usize) else {
            return false;
        };
        let key = cache_key(fingerprint, model);
        let observed_rows = report.root_rows as f64;
        let invalidated = shard.service.invalidate_key_if_stale(key, observed_rows);
        lock_recover(&shard.outbox).push((key, observed_rows));
        invalidated
    }

    /// Runs one gossip round: empties every shard's outbox and applies each
    /// entry once on every other shard, which evicts its copy of the plan if
    /// the observation disproves it. The outboxes are taken up front, so a
    /// round applies exactly what was observed before it started. Returns
    /// the number of deliveries: entries × (N − 1).
    pub fn run_gossip_round(&self) -> u64 {
        let outboxes: Vec<Vec<(Fingerprint, f64)>> = self
            .shards
            .iter()
            .map(|s| std::mem::take(&mut *lock_recover(&s.outbox)))
            .collect();
        let mut delivered = 0u64;
        for (origin, outbox) in outboxes.iter().enumerate() {
            for (id, shard) in self.shards.iter().enumerate() {
                if id == origin {
                    continue;
                }
                for &(key, observed_rows) in outbox {
                    shard.service.invalidate_key_if_stale(key, observed_rows);
                    delivered += 1;
                }
            }
        }
        // Global annotation (trace 0): gossip rounds belong to no single
        // request but show up in trace timelines next to the requests
        // whose replicas they invalidate.
        self.tracer.event(sites::GOSSIP, delivered);
        delivered
    }

    /// How many shards currently cache a plan for `fingerprint` under
    /// `model` — the probe the gossip tests use to watch an invalidation
    /// reach the replica set.
    pub fn cached_replicas(&self, fingerprint: Fingerprint, model: &dyn CostModel) -> usize {
        self.shards
            .iter()
            .filter(|s| s.service.has_cached(fingerprint, model))
            .count()
    }

    /// Exact cluster-level counters: the field-wise
    /// [`CacheSnapshot::merge`] fold of every shard's snapshot.
    pub fn aggregate_cache(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for s in &self.shards {
            total.merge(&s.service.cache_counters());
        }
        total
    }

    /// Per-shard `(id, snapshot)` pairs, ascending by id.
    pub fn shard_snapshots(&self) -> Vec<(u32, CacheSnapshot)> {
        (0u32..)
            .zip(&self.shards)
            .map(|(id, s)| (id, s.service.cache_counters()))
            .collect()
    }
}
