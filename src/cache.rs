//! Sharded LRU plan cache keyed by query fingerprint.
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
//! exactly one shard for a hash probe and an LRU-stamp bump — never the
//! whole cache — which keeps the hit path contention-free for realistic
//! worker counts. Eviction is per shard: capacity is divided evenly and the
//! least-recently-used entry of the *shard* is evicted, which approximates
//! global LRU the same way any sharded LRU (e.g. a CPU's set-associative
//! cache) does.
//!
//! Observability rides the workspace's counters machinery:
//! [`CacheCounters`] (hits / misses / insertions / evictions / expirations)
//! is shared across shards and snapshotted via [`PlanCache::counters`].

use crate::planner::Planned;
use mpdp_core::counters::{CacheCounters, CacheSnapshot};
use mpdp_core::fingerprint::Fingerprint;
use mpdp_core::sync::lock_recover;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
    /// divide fingerprints most evenly but any count works.
    pub shards: usize,
    /// Entries older than this are treated as absent and dropped on contact.
    /// `None` disables expiry.
    pub ttl: Option<Duration>,
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
            ttl: None,
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
    /// The planning outcome; `planned.plan` leaves are canonical slots, and
    /// `planned.wall`/`planned.reported` are the original (cold) times.
    pub planned: std::sync::Arc<Planned>,
}

struct Entry {
    value: CachedPlan,
    /// LRU stamp: shard-local logical clock value of the last touch.
    last_used: u64,
    inserted_at: Instant,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    /// Shard-local logical clock; bumped on every touch.
    clock: u64,
}

/// A thread-safe, sharded, LRU+TTL plan cache. See the module docs.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry quota; quotas sum to exactly the configured total
    /// capacity (base = capacity / shards, the remainder spread one entry
    /// each over the first shards).
    shard_capacity: Vec<usize>,
    ttl: Option<Duration>,
    counters: CacheCounters,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.shard_capacity.iter().sum::<usize>())
            .field("ttl", &self.ttl)
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
            ttl: config.ttl,
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
    /// use the cache directly: a hit counts a hit, everything else (absent,
    /// or expired and reaped) counts a miss.
    pub fn get(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let found = self.get_quiet(fp);
        match found {
            Some(_) => self.counters.record_hit(),
            None => self.counters.record_miss(),
        }
        found
    }

    /// Looks up a fingerprint, refreshing its LRU stamp on a hit, *without*
    /// tallying a hit or a miss. The service uses this: whether a request
    /// was a hit, a miss, a coalesced join or a degradation is only known
    /// when it is delivered, so the service records the outcome explicitly
    /// via [`PlanCache::record_hit`] / [`PlanCache::record_miss`] /
    /// [`PlanCache::record_coalesced`] / [`PlanCache::record_degraded`].
    /// Expired entries are dropped on contact, with an expiration tick.
    pub fn get_quiet(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let mut shard = lock_recover(self.shard_of(fp));
        let key = fp.as_u128();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&key) {
            None => None,
            Some(entry)
                if self
                    .ttl
                    .is_some_and(|ttl| entry.inserted_at.elapsed() > ttl) =>
            {
                shard.map.remove(&key);
                self.counters.record_expiration();
                None
            }
            Some(entry) => {
                entry.last_used = clock;
                Some(entry.value.clone())
            }
        }
    }

    /// Inserts (or replaces) the plan for a fingerprint, evicting the
    /// shard's least-recently-used entry when at capacity.
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
            // Evict the LRU entry. The scan is O(shard entries); shards are
            // small (capacity / shards) and eviction only runs on full
            // shards, so this stays off the hit path entirely.
            if let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.last_used) {
                shard.map.remove(&victim);
                self.counters.record_eviction();
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
                inserted_at: Instant::now(),
            },
        );
        self.counters.record_insertion();
    }

    /// Looks up a fingerprint *without* touching LRU order or the hit/miss
    /// counters — the feedback path inspects cached estimates without
    /// counting as traffic or keeping a doomed entry warm. Expired entries
    /// read as absent (but are left for `get` to reap).
    pub fn peek(&self, fp: Fingerprint) -> Option<CachedPlan> {
        let shard = lock_recover(self.shard_of(fp));
        let entry = shard.map.get(&fp.as_u128())?;
        if self
            .ttl
            .is_some_and(|ttl| entry.inserted_at.elapsed() > ttl)
        {
            return None;
        }
        Some(entry.value.clone())
    }

    /// Removes a fingerprint's entry; `true` if one was present. Does not
    /// count as an eviction (capacity) or expiration (TTL) — callers with a
    /// reason (e.g. cardinality-feedback invalidation) track their own.
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
            // An expired entry reads as absent (matching `peek`/`get`): it
            // could never have served another hit, so condemning it would
            // overstate the caller's invalidation count. Left for `get` to
            // reap as an expiration.
            Some(entry)
                if self
                    .ttl
                    .is_some_and(|ttl| entry.inserted_at.elapsed() > ttl) =>
            {
                false
            }
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

    /// Number of live entries across all shards (expired entries still
    /// count until touched).
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
            lock_recover(s).map.clear();
        }
    }

    /// A point-in-time copy of the hit/miss/insertion/eviction/expiration
    /// counters.
    pub fn counters(&self) -> CacheSnapshot {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::plan::PlanTree;

    fn fp(i: u64) -> Fingerprint {
        Fingerprint { hi: i, lo: !i }
    }

    fn plan(cost: f64) -> CachedPlan {
        CachedPlan {
            planned: std::sync::Arc::new(Planned {
                plan: PlanTree::Scan {
                    rel: 0,
                    rows: 1.0,
                    cost,
                },
                cost,
                rows: 1.0,
                wall: Duration::from_millis(1),
                reported: Duration::from_millis(1),
                counters: None,
                profile: None,
                gpu: None,
                strategy: "test".into(),
            }),
        }
    }

    /// A single-shard cache so LRU order is globally observable.
    fn single_shard(capacity: usize, ttl: Option<Duration>) -> PlanCache {
        PlanCache::new(CacheConfig {
            capacity,
            shards: 1,
            ttl,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = single_shard(4, None);
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
        let c = single_shard(2, None);
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
    fn ttl_expires_entries() {
        let c = single_shard(4, Some(Duration::ZERO));
        c.insert(fp(7), plan(1.0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.get(fp(7)).is_none());
        let s = c.counters();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = single_shard(0, None);
        c.insert(fp(1), plan(1.0));
        assert!(c.get(fp(1)).is_none());
        assert_eq!(c.counters().insertions, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_and_remove_bypass_lru_and_counters() {
        let c = single_shard(2, None);
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
        // Remove reports presence and counts neither eviction nor expiry.
        assert!(c.remove(fp(2)));
        assert!(!c.remove(fp(2)));
        let s = c.counters();
        assert_eq!(s.evictions, 1, "only the LRU capacity eviction");
        assert_eq!(s.expirations, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_if_judges_the_stored_value() {
        let c = single_shard(4, None);
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
        let c = single_shard(2, None);
        c.insert(fp(1), plan(1.0));
        c.insert(fp(2), plan(2.0));
        c.insert(fp(1), plan(9.0));
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.get(fp(1)).unwrap().planned.cost, 9.0);
        assert_eq!(c.len(), 2);
    }
}
