//! Sharded plan cache keyed by query fingerprint, evicting what is cheapest
//! to re-plan.
//!
//! The memo table already amortizes planning *within* one query by caching
//! canonical subplans; [`PlanCache`] lifts the same idea to whole queries
//! across a serving workload. Keys are the 128-bit canonical fingerprints of
//! `mpdp_core::fingerprint`, so isomorphic (relabeled) queries share one
//! entry; values are the full [`Planned`] result with its plan relabeled
//! into *canonical* relation slots, plus enough information for the service
//! layer to remap leaves back into each caller's own relation ids.
//!
//! Concurrency: the key space is split across N independently mutex-guarded
//! shards (fingerprints are uniform, so `fp mod N` balances). A lookup locks
//! exactly one shard for a hash probe and a priority refresh — never the
//! whole cache — which keeps the hit path contention-free for realistic
//! worker counts. Capacity is divided evenly over the shards, and each full
//! shard evicts on its own.
//!
//! Eviction is GreedyDual-Size-Frequency (Cao & Irani 1997; Cherkasova
//! 1998), with every entry the same size. Exact planning time grows steeply
//! with query size, so one miss can cost a thousand times another; evicting
//! by recency alone would treat them alike. An entry's re-plan cost is the
//! cold `planned.wall` it was stored with, in seconds, and its priority is
//! `L + hits × cost`, where `hits` counts its insertion and every hit since
//! and `L` is the shard's inflation value. A full shard evicts the entry
//! with the lowest `(priority, last use)` and raises `L` to that entry's
//! priority, so an entry that stops being hit is overtaken by fresher ones
//! and nothing is pinned forever. With equal costs and equal hit counts the
//! least recently used entry goes first.
//!
//! Observability rides the workspace's counters machinery:
//! [`CacheCounters`] (hits / misses / insertions / evictions) is shared
//! across shards and snapshotted via [`PlanCache::counters`].

use crate::planner::Planned;
use mpdp_core::counters::{CacheCounters, CacheSnapshot};
use mpdp_core::fingerprint::Fingerprint;
use mpdp_core::sync::lock_recover;
use std::collections::HashMap;
use std::sync::Mutex;

/// Configuration of a [`PlanCache`].
#[derive(Copy, Clone, Debug)]
pub struct CacheConfig {
    /// Total entry capacity. Shard quotas sum to exactly this (base +
    /// remainder spread over the first shards), so the configured bound is
    /// never exceeded; with more shards than capacity, zero-quota shards
    /// store nothing. 0 disables caching: every lookup misses, nothing is
    /// stored.
    pub capacity: usize,
    /// Number of mutex-guarded shards. Clamped to at least 1; powers of two
    /// divide fingerprints most evenly but any count works. Each shard
    /// evicts on its own, so an entry competes only with the entries of its
    /// shard: the cache is `shards`-set associative.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            // 4096 plans ≈ a few MB for serving-sized queries — plans are a
            // few hundred bytes of tree nodes each.
            capacity: 4096,
            // 16 shards keeps p(two workers collide on a shard) low for the
            // worker counts a single box runs (see DESIGN.md §5).
            shards: 16,
        }
    }
}

/// One cached plan: the planned result in canonical relation slots.
///
/// The payload sits behind an `Arc` so a hit clones a refcount under the
/// shard lock, not a plan tree; the service relabels leaves outside the
/// lock.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The planning outcome; `planned.plan` leaves are canonical slots,
    /// `planned.wall`/`planned.reported` are the original (cold) times, and
    /// the service stores no `planned.profile`. `planned.wall` is also the
    /// entry's re-plan cost, which eviction weighs (see the module docs).
    pub planned: std::sync::Arc<Planned>,
}

struct Entry {
    value: CachedPlan,
    /// Shard-local logical clock value of the last touch; breaks priority
    /// ties towards the least recently used entry.
    last_used: u64,
    /// Re-plan cost: the cold `planned.wall`, in seconds.
    cost: f64,
    /// The insertion plus every hit since.
    hits: u64,
    /// GDSF priority, `L + hits × cost` with the shard's `L` at the last
    /// touch.
    priority: f64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    /// Shard-local logical clock; bumped on every touch.
    clock: u64,
    /// GDSF inflation value `L`: the priority of the last evicted entry.
    inflation: f64,
}

/// A thread-safe, sharded plan cache that evicts the entry cheapest to
/// re-plan. See the module docs.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry quota; quotas sum to exactly the configured total
    /// capacity (base = capacity / shards, the remainder spread one entry
    /// each over the first shards).
    shard_capacity: Vec<usize>,
    counters: CacheCounters,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.shard_capacity.iter().sum::<usize>())
            .field("counters", &self.counters.snapshot())
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache from `config`.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let (base, rem) = (config.capacity / shards, config.capacity % shards);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: (0..shards).map(|i| base + usize::from(i < rem)).collect(),
            counters: CacheCounters::default(),
        }
    }

    #[inline]
    fn shard_index(&self, fp: Fingerprint) -> usize {
        // The fingerprint is already uniform; fold both lanes so sharding
        // never depends on only one.
        ((fp.hi ^ fp.lo) % self.shards.len() as u64) as usize
    }

    #[inline]
    fn shard_of(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[self.shard_index(fp)]
    }

    /// [`PlanCache::get_quiet`] plus the hit/miss tally, for callers that
    /// use the cache directly: a hit counts a hit, an absent key a miss.
    pub fn get(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let found = self.get_quiet(fp);
        match found {
            Some(_) => self.counters.record_hit(),
            None => self.counters.record_miss(),
        }
        found
    }

    /// Looks up a fingerprint, refreshing its priority on a hit, *without*
    /// tallying a hit or a miss. The service uses this: whether a request
    /// was a hit, a miss, a coalesced join or a degradation is only known
    /// when it is delivered, so the service records the outcome explicitly
    /// via [`PlanCache::record_hit`] / [`PlanCache::record_miss`] /
    /// [`PlanCache::record_coalesced`] / [`PlanCache::record_degraded`].
    pub fn get_quiet(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let mut shard = lock_recover(self.shard_of(fp));
        shard.clock += 1;
        let (clock, inflation) = (shard.clock, shard.inflation);
        let entry = shard.map.get_mut(&fp.as_u128())?;
        entry.last_used = clock;
        entry.hits += 1;
        entry.priority = inflation + entry.hits as f64 * entry.cost;
        Some(entry.value.clone())
    }

    /// Inserts (or replaces) the plan for a fingerprint, evicting the
    /// shard's lowest-priority entry when at capacity. The entry starts at
    /// priority `L + cost` with its plan's own cost; a re-insert replaces
    /// the old entry's cost and hit count too.
    pub fn insert(&self, fp: Fingerprint, value: CachedPlan) {
        let idx = self.shard_index(fp);
        let capacity = self.shard_capacity[idx];
        if capacity == 0 {
            // Zero total capacity, or this shard drew no quota (more shards
            // than entries): nothing is ever stored here.
            return;
        }
        let mut shard = lock_recover(&self.shards[idx]);
        let key = fp.as_u128();
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.map.contains_key(&key) && shard.map.len() >= capacity {
            // Evict the lowest (priority, last use). The scan is O(shard
            // entries); shards are small (capacity / shards) and eviction
            // only runs on full shards, so this stays off the hit path
            // entirely.
            let victim = shard.map.iter().min_by(|(_, a), (_, b)| {
                a.priority
                    .total_cmp(&b.priority)
                    .then(a.last_used.cmp(&b.last_used))
            });
            if let Some((&victim, e)) = victim {
                shard.inflation = e.priority;
                shard.map.remove(&victim);
                self.counters.record_eviction();
            }
        }
        let cost = value.planned.wall.as_secs_f64();
        let priority = shard.inflation + cost;
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
                cost,
                hits: 1,
                priority,
            },
        );
        self.counters.record_insertion();
    }

    /// Looks up a fingerprint *without* touching its priority or the hit/miss
    /// counters — the feedback path inspects cached estimates without
    /// counting as traffic or keeping a doomed entry warm.
    pub fn peek(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let shard = lock_recover(self.shard_of(fp));
        shard.map.get(&fp.as_u128()).map(|e| e.value.clone())
    }

    /// Removes a fingerprint's entry; `true` if one was present. Does not
    /// count as an eviction — callers with a reason (e.g. cardinality-feedback
    /// invalidation) track their own.
    pub fn remove(&self, fp: Fingerprint) -> bool {
        let mut shard = lock_recover(self.shard_of(fp));
        shard.map.remove(&fp.as_u128()).is_some()
    }

    /// Removes the entry iff `condemn` approves the *currently stored*
    /// value, atomically under the shard lock; `true` if removed. This is
    /// the feedback path's compare-and-remove: a plain peek-then-remove
    /// could evict a fresh plan some other thread inserted between the two
    /// steps, whose estimate was never the one found wanting.
    pub fn remove_if(&self, fp: Fingerprint, condemn: impl FnOnce(&CachedPlan) -> bool) -> bool {
        let mut shard = lock_recover(self.shard_of(fp));
        let key = fp.as_u128();
        match shard.map.get(&key) {
            Some(entry) if condemn(&entry.value) => {
                shard.map.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Records a hit on the shared counters. Pairs with
    /// [`PlanCache::get_quiet`].
    pub fn record_hit(&self) {
        self.counters.record_hit();
    }

    /// Records a miss on the shared counters. Pairs with
    /// [`PlanCache::get_quiet`] (a request that planned from scratch; under
    /// single-flight, the leader's one true cold plan).
    pub fn record_miss(&self) {
        self.counters.record_miss();
    }

    /// Records a coalesced request — one that joined an in-flight planning
    /// instead of hitting or missing — on the shared counters.
    pub fn record_coalesced(&self) {
        self.counters.record_coalesced();
    }

    /// Records a request served a degraded (heuristic) plan because its
    /// deadline budget could not afford the exact route.
    pub fn record_degraded(&self) {
        self.counters.record_degraded();
    }

    /// Records an exact planning attempt cut off by its deadline budget.
    pub fn record_deadline_exceeded(&self) {
        self.counters.record_deadline_exceeded();
    }

    /// Records a cardinality-feedback check on the shared counters.
    pub fn record_feedback_check(&self) {
        self.counters.record_feedback_check();
    }

    /// Records a cardinality-feedback invalidation on the shared counters.
    pub fn record_feedback_invalidation(&self) {
        self.counters.record_feedback_invalidation();
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// `true` if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = lock_recover(s);
            shard.map.clear();
            shard.inflation = 0.0;
        }
    }

    /// A point-in-time copy of the hit/miss/insertion/eviction counters.
    pub fn counters(&self) -> CacheSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::plan::PlanTree;
    use std::time::Duration;

    fn fp(i: u64) -> Fingerprint {
        Fingerprint { hi: i, lo: !i }
    }

    fn plan(cost: f64) -> CachedPlan {
        walled(cost, Duration::from_millis(1))
    }

    /// A plan whose cold planning took `wall`: its re-plan cost.
    fn walled(cost: f64, wall: Duration) -> CachedPlan {
        CachedPlan {
            planned: std::sync::Arc::new(Planned {
                plan: PlanTree::Scan {
                    rel: 0,
                    rows: 1.0,
                    cost,
                },
                cost,
                rows: 1.0,
                wall,
                reported: wall,
                counters: None,
                profile: None,
                gpu: None,
                strategy: "test".into(),
            }),
        }
    }

    /// A single-shard cache so eviction order is globally observable.
    fn single_shard(capacity: usize) -> PlanCache {
        PlanCache::new(CacheConfig {
            capacity,
            shards: 1,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = single_shard(4);
        assert!(c.get(fp(1)).is_none());
        c.insert(fp(1), plan(10.0));
        let hit = c.get(fp(1)).expect("hit");
        assert_eq!(hit.planned.cost, 10.0);
        let s = c.counters();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let c = single_shard(2);
        c.insert(fp(1), plan(1.0));
        c.insert(fp(2), plan(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(fp(1)).is_some());
        c.insert(fp(3), plan(3.0));
        assert!(c.get(fp(2)).is_none(), "LRU entry evicted");
        assert!(c.get(fp(1)).is_some(), "recently-used entry survived");
        assert!(c.get(fp(3)).is_some());
        assert_eq!(c.counters().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = single_shard(0);
        c.insert(fp(1), plan(1.0));
        assert!(c.get(fp(1)).is_none());
        assert_eq!(c.counters().insertions, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_and_remove_bypass_lru_and_counters() {
        let c = single_shard(2);
        c.insert(fp(1), plan(1.0));
        c.insert(fp(2), plan(2.0));
        // Peek at 1: must NOT refresh its LRU stamp or count a hit.
        assert_eq!(c.peek(fp(1)).unwrap().planned.cost, 1.0);
        assert!(c.peek(fp(9)).is_none());
        let s = c.counters();
        assert_eq!((s.hits, s.misses), (0, 0));
        // 1 stays the LRU victim despite the peek.
        c.insert(fp(3), plan(3.0));
        assert!(c.peek(fp(1)).is_none(), "peek must not keep entries warm");
        assert!(c.peek(fp(2)).is_some());
        // Remove reports presence and counts no eviction.
        assert!(c.remove(fp(2)));
        assert!(!c.remove(fp(2)));
        assert_eq!(c.counters().evictions, 1, "only the LRU capacity eviction");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_if_judges_the_stored_value() {
        let c = single_shard(4);
        c.insert(fp(1), plan(10.0));
        // Condemnation sees the *current* entry; a rejecting predicate
        // leaves it in place.
        assert!(!c.remove_if(fp(1), |p| p.planned.cost > 100.0));
        assert!(c.peek(fp(1)).is_some());
        // A re-insert between judgement attempts is judged on its own
        // merits (the compare-and-remove the feedback path relies on).
        c.insert(fp(1), plan(500.0));
        assert!(c.remove_if(fp(1), |p| p.planned.cost > 100.0));
        assert!(c.peek(fp(1)).is_none());
        assert!(!c.remove_if(fp(1), |_| true), "absent key is a no-op");
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let c = single_shard(2);
        c.insert(fp(1), plan(1.0));
        c.insert(fp(2), plan(2.0));
        c.insert(fp(1), plan(9.0));
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(fp(1)).unwrap().planned.cost, 9.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn a_costly_entry_outlives_cheap_one_shot_inserts() {
        let c = single_shard(4);
        c.insert(fp(0), walled(0.0, Duration::from_millis(100)));
        // A hundred cheap one-shot plans: under LRU the first of them
        // would evict the costly entry, the least recently used.
        for i in 1..=100 {
            c.insert(fp(i), plan(1.0));
        }
        assert_eq!(c.counters().evictions, 97);
        assert!(c.peek(fp(0)).is_some(), "the costly entry was evicted");
        assert!(c.peek(fp(100)).is_some());
        assert!(c.peek(fp(1)).is_none());
    }

    #[test]
    fn a_once_hot_entry_is_evicted_after_inflation_passes_it() {
        let c = single_shard(2);
        c.insert(fp(0), plan(0.0));
        for _ in 0..9 {
            assert!(c.get(fp(0)).is_some());
        }
        // Ten touches at equal cost: each one-shot insert raises `L` by one
        // cost, so the hot entry survives the first few and is gone once
        // `L` reaches its priority.
        let mut survived = 0;
        for i in 1..=20 {
            c.insert(fp(i), plan(1.0));
            if c.peek(fp(0)).is_none() {
                break;
            }
            survived += 1;
        }
        assert!((9..=11).contains(&survived), "survived {survived} inserts");
        assert!(c.peek(fp(0)).is_none(), "a hot entry is pinned forever");
    }

    #[test]
    fn equal_costs_and_hits_tie_to_the_least_recently_used() {
        let c = single_shard(3);
        for i in 1..=3 {
            c.insert(fp(i), plan(1.0));
        }
        // One hit each, 2 first: equal priorities, 2 least recently used.
        for i in [2, 3, 1] {
            assert!(c.get(fp(i)).is_some());
        }
        c.insert(fp(4), plan(1.0));
        assert!(c.peek(fp(2)).is_none(), "the least recently used tie goes");
        for i in [1, 3, 4] {
            assert!(c.peek(fp(i)).is_some(), "{i} evicted");
        }
    }

    #[test]
    fn a_reinsert_takes_the_new_plans_cost() {
        let ms = Duration::from_millis;
        let c = single_shard(2);
        c.insert(fp(1), walled(1.0, ms(1)));
        c.insert(fp(2), walled(2.0, ms(10)));
        // Re-planned dearer: 1 now outranks 2.
        c.insert(fp(1), walled(1.0, ms(100)));
        c.insert(fp(3), walled(3.0, ms(10)));
        assert!(c.peek(fp(2)).is_none(), "the old cost was kept");
        assert!(c.peek(fp(1)).is_some());
        // Re-planned cheap again: 1 is the next victim.
        c.insert(fp(1), walled(1.0, ms(1)));
        c.insert(fp(4), walled(4.0, ms(10)));
        assert!(c.peek(fp(1)).is_none(), "the old cost was kept");
        assert_eq!(c.counters().evictions, 2);
    }
}
