//! Instrumentation counters and per-level profiles.
//!
//! The paper's efficiency argument is stated in terms of two counters
//! (§2.2/§2.3): `EvaluatedCounter`, the number of Join-Pairs an algorithm
//! evaluates, and `CCP-Counter`, the number of those that are valid CCP
//! pairs. Every optimizer in this workspace maintains both, plus per-DP-level
//! statistics that feed the hardware timing model (`mpdp-parallel::hwmodel`)
//! used to predict multi-core and GPU times on this single-core container.

/// Global counters for one optimizer run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Join-Pairs evaluated (`EvaluatedCounter` in Algorithm 1, line 9).
    pub evaluated: u64,
    /// Valid Join-Pairs, i.e. CCP pairs, counting symmetric pairs separately
    /// (`CCP-Counter`, Algorithm 1, line 18).
    pub ccp: u64,
    /// Connected sets enumerated across all levels (`|S_i|` summed).
    pub sets: u64,
    /// Candidate sets unranked before connectivity filtering (vertex-based
    /// algorithms unrank all `C(n, i)` combinations; edge-based ones don't
    /// unrank at all).
    pub unranked: u64,
}

impl Counters {
    /// Ratio `evaluated / ccp` — the paper's headline inefficiency metric
    /// (e.g. "2805 times larger ... at 25 relations" for DPSUB on stars).
    pub fn inefficiency(&self) -> f64 {
        if self.ccp == 0 {
            0.0
        } else {
            self.evaluated as f64 / self.ccp as f64
        }
    }

    /// Adds another counter set (used when merging per-thread results).
    pub fn merge(&mut self, other: &Counters) {
        self.evaluated += other.evaluated;
        self.ccp += other.ccp;
        self.sets += other.sets;
        self.unranked += other.unranked;
    }
}

/// Per-DP-level statistics (one entry per subset size `i`).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Subset size of this level.
    pub size: usize,
    /// Candidate sets unranked for this level (before the connectivity
    /// filter); 0 for edge-based enumeration.
    pub unranked: u64,
    /// Connected sets evaluated at this level.
    pub sets: u64,
    /// Join-Pairs evaluated at this level.
    pub evaluated: u64,
    /// CCP pairs found at this level.
    pub ccp: u64,
    /// Memo publishes at this level that changed the table. MPDP (every
    /// backend) reduces a set's candidates first and publishes once per
    /// connected set, so there this equals `sets`; DPCCP and DPE publish the
    /// better order of each csg-cmp pair; DPSUB and DPSIZE publish per
    /// ordered pair, so there it counts improvements.
    pub memo_writes: u64,
    /// Open-addressing probe steps taken by memo inserts at this level.
    pub memo_probes: u64,
    /// CAS retries in the shared atomic memo at this level (0 for
    /// single-threaded stores and single-worker runs).
    pub cas_retries: u64,
}

/// A whole run's per-level profile, consumed by the hardware model.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// One entry per DP level, in increasing subset size. Algorithms without
    /// a level structure (e.g. DPCCP's graph-order enumeration) record a
    /// single pseudo-level.
    pub levels: Vec<LevelStats>,
    /// Final memo health (load factor, probes, CAS retries), filled by the
    /// run's `finish` step.
    pub memo: Option<crate::memo::MemoHealth>,
}

impl Profile {
    /// Aggregates the per-level stats into run totals.
    pub fn totals(&self) -> Counters {
        let mut c = Counters::default();
        for l in &self.levels {
            c.evaluated += l.evaluated;
            c.ccp += l.ccp;
            c.sets += l.sets;
            c.unranked += l.unranked;
        }
        c
    }

    /// Adds a level, merging with an existing entry of the same size if any
    /// (parallel workers report fragments of the same level).
    pub fn record(&mut self, stats: LevelStats) {
        if let Some(l) = self.levels.iter_mut().find(|l| l.size == stats.size) {
            l.unranked += stats.unranked;
            l.sets += stats.sets;
            l.evaluated += stats.evaluated;
            l.ccp += stats.ccp;
            l.memo_writes += stats.memo_writes;
            l.memo_probes += stats.memo_probes;
            l.cas_retries += stats.cas_retries;
        } else {
            self.levels.push(stats);
        }
    }
}

/// Aggregate counters for one plan execution (`mpdp-exec`).
///
/// The execution-side sibling of [`Counters`]: where `evaluated`/`ccp`
/// summarize what an *optimizer* did, these summarize what the chosen plan
/// then *cost* to run — rows through the hash-join build and probe phases,
/// rows emitted, probe morsels processed. `feedback_invalidations` counts
/// cached plans a serving layer evicted because this (or an aggregated)
/// execution observed a root cardinality far from the estimate; the
/// executor itself leaves it 0.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Rows inserted into hash tables across all joins.
    pub build_rows: u64,
    /// Rows streamed through probe sides across all joins.
    pub probe_rows: u64,
    /// Rows emitted by join operators (intermediate + root).
    pub output_rows: u64,
    /// Probe morsels processed.
    pub batches: u64,
    /// Join operators executed.
    pub joins: u64,
    /// Cached plans invalidated by cardinality feedback (serving layer).
    pub feedback_invalidations: u64,
}

impl ExecCounters {
    /// Adds another counter set (e.g. when aggregating a workload's runs).
    pub fn merge(&mut self, other: &ExecCounters) {
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.output_rows += other.output_rows;
        self.batches += other.batches;
        self.joins += other.joins;
        self.feedback_invalidations += other.feedback_invalidations;
    }

    /// Total rows touched by join machinery (built + probed + emitted) —
    /// the executor's coarse "work" measure, used by the bench report to
    /// compare plans of one query independent of wall-clock noise.
    pub fn rows_touched(&self) -> u64 {
        self.build_rows + self.probe_rows + self.output_rows
    }
}

/// Thread-safe hit/miss/eviction counters for a serving-layer cache.
///
/// The same observability idea as [`Counters`] — cheap monotonic counts that
/// summarize a run — lifted from one optimization to a cache serving many.
/// All updates are relaxed atomics: the counts are statistics, not
/// synchronization, and a [`CacheCounters::snapshot`] taken after all
/// requests have drained is exact (asserted by the concurrent hammer test).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    coalesced: std::sync::atomic::AtomicU64,
    insertions: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
    expirations: std::sync::atomic::AtomicU64,
    feedback_checks: std::sync::atomic::AtomicU64,
    feedback_invalidations: std::sync::atomic::AtomicU64,
    degraded: std::sync::atomic::AtomicU64,
    deadline_exceeded: std::sync::atomic::AtomicU64,
}

/// A point-in-time copy of [`CacheCounters`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Requests (or direct lookups) answered from the cache.
    pub hits: u64,
    /// Requests that planned from scratch with their routed strategy —
    /// under single-flight only the one request that actually plans (the
    /// flight leader); also cache-bypass and strategy-override requests,
    /// which never consult the cache — and direct lookups that found
    /// nothing (or only an expired entry). The serving layer tallies each
    /// request once, when it is delivered, so on every entry point
    /// `hits + misses + coalesced + degraded` is the number of requests
    /// served, failed ones included.
    pub misses: u64,
    /// Requests that joined an in-flight planning of the same fingerprint
    /// instead of planning themselves (single-flight joins).
    pub coalesced: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries evicted by capacity (LRU order).
    pub evictions: u64,
    /// Entries dropped because their TTL had lapsed.
    pub expirations: u64,
    /// Execution reports fed back through the service's `observe` hook.
    pub feedback_checks: u64,
    /// Cached plans evicted because an observed root cardinality deviated
    /// from the estimate beyond the feedback threshold.
    pub feedback_invalidations: u64,
    /// Requests served a heuristic plan because their deadline budget could
    /// not afford the routed exact strategy (or the exact attempt timed out
    /// mid-flight, or the flight they joined failed). Disjoint from
    /// hits/misses/coalesced on every entry point: a degraded request is
    /// tallied here and nowhere else, even if it started an exact attempt.
    pub degraded: u64,
    /// Requests whose exact planning attempt was cut off by the deadline
    /// mid-flight (a subset of the degradations: the ones that started
    /// exact and fell back late, rather than degrading up front).
    pub deadline_exceeded: u64,
}

impl CacheSnapshot {
    /// `hits / (hits + misses)`; 0.0 before any lookup. Coalesced requests
    /// are not counted in either side: they neither probed the cache to a
    /// decision nor planned (see [`CacheSnapshot::request_hit_rate`] for the
    /// per-request view).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// `hits / (hits + misses + coalesced)` — the fraction of *requests*
    /// answered straight from the cache on the single-flight serving path;
    /// 0.0 before any request.
    pub fn request_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The activity between `earlier` and `self` (counters are monotonic,
    /// so a field-wise difference is a window's worth of traffic): rates
    /// per window instead of cumulative totals on a long-lived, pre-warmed
    /// service.
    pub fn delta(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
            expirations: self.expirations - earlier.expirations,
            feedback_checks: self.feedback_checks - earlier.feedback_checks,
            feedback_invalidations: self.feedback_invalidations - earlier.feedback_invalidations,
            degraded: self.degraded - earlier.degraded,
            deadline_exceeded: self.deadline_exceeded - earlier.deadline_exceeded,
        }
    }

    /// Adds another snapshot field-wise (the cache-side sibling of
    /// [`ExecCounters::merge`]). Associative and commutative, so folding
    /// any number of per-shard or per-tenant snapshots in any order yields
    /// the same exact cluster-level totals — the property the sharded
    /// planning tier's aggregate metrics rely on.
    pub fn merge(&mut self, other: &CacheSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
        self.feedback_checks += other.feedback_checks;
        self.feedback_invalidations += other.feedback_invalidations;
        self.degraded += other.degraded;
        self.deadline_exceeded += other.deadline_exceeded;
    }
}

impl CacheCounters {
    const ORD: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;

    /// Records a cache hit.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Self::ORD);
    }

    /// Records a cache miss.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Self::ORD);
    }

    /// Records a single-flight join (a request served by an in-flight
    /// planning of the same fingerprint).
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Self::ORD);
    }

    /// Records an insertion.
    pub fn record_insertion(&self) {
        self.insertions.fetch_add(1, Self::ORD);
    }

    /// Records a capacity eviction.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Self::ORD);
    }

    /// Records a TTL expiration.
    pub fn record_expiration(&self) {
        self.expirations.fetch_add(1, Self::ORD);
    }

    /// Records a cardinality-feedback check (`observe` call).
    pub fn record_feedback_check(&self) {
        self.feedback_checks.fetch_add(1, Self::ORD);
    }

    /// Records a cardinality-feedback invalidation.
    pub fn record_feedback_invalidation(&self) {
        self.feedback_invalidations.fetch_add(1, Self::ORD);
    }

    /// Records a request served a degraded (heuristic) plan.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Self::ORD);
    }

    /// Records an exact planning attempt cut off by its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Self::ORD);
    }

    /// Copies the current counts.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Self::ORD),
            misses: self.misses.load(Self::ORD),
            coalesced: self.coalesced.load(Self::ORD),
            insertions: self.insertions.load(Self::ORD),
            evictions: self.evictions.load(Self::ORD),
            expirations: self.expirations.load(Self::ORD),
            feedback_checks: self.feedback_checks.load(Self::ORD),
            feedback_invalidations: self.feedback_invalidations.load(Self::ORD),
            degraded: self.degraded.load(Self::ORD),
            deadline_exceeded: self.deadline_exceeded.load(Self::ORD),
        }
    }
}

/// Thread-safe counters for an admission-controlled serving front-end.
///
/// The queue-facing sibling of [`CacheCounters`]: where cache counters
/// account for what happened *inside* the plan cache, these account for what
/// happened to *requests* at the front door — admission, shedding, dispatch
/// and completion. `in_flight` is a gauge (a current value, not a monotonic
/// total); everything else is monotonic, so a [`ServeSnapshot::delta`] over
/// the monotonic fields is a window's traffic. The queue's own gauges
/// (`ServeSnapshot::queue_depth` / `queue_depth_peak`) are not tracked here:
/// only the queue knows its length exactly, under its own lock, so the
/// front-end fills them in from the queue when it takes a snapshot.
#[derive(Debug, Default)]
pub struct ServeCounters {
    accepted: std::sync::atomic::AtomicU64,
    shed_queue_full: std::sync::atomic::AtomicU64,
    shed_quota: std::sync::atomic::AtomicU64,
    completed: std::sync::atomic::AtomicU64,
    failed: std::sync::atomic::AtomicU64,
    /// Signed, and clamped at 0 by readers, so a transient imbalance could
    /// only ever read as 0 — never as a wrapped-around huge gauge.
    in_flight: std::sync::atomic::AtomicI64,
    worker_respawns: std::sync::atomic::AtomicU64,
    abandoned_tickets: std::sync::atomic::AtomicU64,
}

/// A point-in-time copy of [`ServeCounters`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests shed because the bounded queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because the tenant's in-flight quota was exhausted.
    pub shed_quota: u64,
    /// Accepted requests that completed with a plan.
    pub completed: u64,
    /// Accepted requests that completed with a planning error.
    pub failed: u64,
    /// Requests currently queued (gauge). Read from the admission queue
    /// itself by the front-end; 0 in a bare [`ServeCounters::snapshot`].
    pub queue_depth: u64,
    /// Highest queue depth since the queue was created (gauge; carried
    /// as-is through [`ServeSnapshot::delta`]). Tracked by the queue under
    /// its own lock, so it can never exceed the queue's capacity; 0 in a
    /// bare [`ServeCounters::snapshot`].
    pub queue_depth_peak: u64,
    /// Requests currently being served by a dispatcher (gauge).
    pub in_flight: u64,
    /// Dispatcher loops restarted by their supervisor after a caught panic
    /// (a planner panic is contained per request and is not counted here —
    /// it fails one ticket). Zero on a healthy box.
    pub worker_respawns: u64,
    /// `PlanTicket`s dropped before their result was taken. The request
    /// still completes and releases its quota slot; this counts callers
    /// that walked away.
    pub abandoned_tickets: u64,
}

impl ServeSnapshot {
    /// Total requests shed by admission control, for any reason.
    pub fn sheds(&self) -> u64 {
        self.shed_queue_full + self.shed_quota
    }

    /// Requests offered to the front end (accepted + shed).
    pub fn offered(&self) -> u64 {
        self.accepted + self.sheds()
    }

    /// The traffic between `earlier` and `self`: monotonic fields are
    /// subtracted field-wise, gauges (`queue_depth`, `queue_depth_peak`,
    /// `in_flight`) keep their current value.
    pub fn delta(&self, earlier: &ServeSnapshot) -> ServeSnapshot {
        ServeSnapshot {
            accepted: self.accepted - earlier.accepted,
            shed_queue_full: self.shed_queue_full - earlier.shed_queue_full,
            shed_quota: self.shed_quota - earlier.shed_quota,
            completed: self.completed - earlier.completed,
            failed: self.failed - earlier.failed,
            queue_depth: self.queue_depth,
            queue_depth_peak: self.queue_depth_peak,
            in_flight: self.in_flight,
            worker_respawns: self.worker_respawns - earlier.worker_respawns,
            abandoned_tickets: self.abandoned_tickets - earlier.abandoned_tickets,
        }
    }
}

impl ServeCounters {
    const ORD: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;

    /// Records an admitted request.
    pub fn record_accept(&self) {
        self.accepted.fetch_add(1, Self::ORD);
    }

    /// Records a queue-full shed.
    pub fn record_shed_queue_full(&self) {
        self.shed_queue_full.fetch_add(1, Self::ORD);
    }

    /// Records a tenant-quota shed.
    pub fn record_shed_quota(&self) {
        self.shed_quota.fetch_add(1, Self::ORD);
    }

    /// Records a dispatch: the request leaves the queue and becomes
    /// in-flight.
    pub fn record_dispatch(&self) {
        self.in_flight.fetch_add(1, Self::ORD);
    }

    /// Batch form of [`ServeCounters::record_dispatch`]: a dispatcher that
    /// drained a chunk of `n` requests moves the gauge once.
    pub fn record_dispatch_n(&self, n: u64) {
        if n > 0 {
            self.in_flight.fetch_add(n as i64, Self::ORD);
        }
    }

    /// Records a completion (`ok` = the request produced a plan); the
    /// request leaves the in-flight gauge.
    pub fn record_done(&self, ok: bool) {
        self.in_flight.fetch_sub(1, Self::ORD);
        if ok {
            self.completed.fetch_add(1, Self::ORD);
        } else {
            self.failed.fetch_add(1, Self::ORD);
        }
    }

    /// Records a dispatcher loop restarted by its supervisor after a
    /// caught panic.
    pub fn record_worker_respawn(&self) {
        self.worker_respawns.fetch_add(1, Self::ORD);
    }

    /// Records a `PlanTicket` dropped before its result was taken.
    pub fn record_abandoned_ticket(&self) {
        self.abandoned_tickets.fetch_add(1, Self::ORD);
    }

    /// Current in-flight gauge (clamped at 0; see the field docs).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Self::ORD).max(0) as u64
    }

    /// Copies the current counts. The queue gauges are left at 0 for the
    /// owner of the queue to fill in (see the type docs).
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            accepted: self.accepted.load(Self::ORD),
            shed_queue_full: self.shed_queue_full.load(Self::ORD),
            shed_quota: self.shed_quota.load(Self::ORD),
            completed: self.completed.load(Self::ORD),
            failed: self.failed.load(Self::ORD),
            queue_depth: 0,
            queue_depth_peak: 0,
            in_flight: self.in_flight(),
            worker_respawns: self.worker_respawns.load(Self::ORD),
            abandoned_tickets: self.abandoned_tickets.load(Self::ORD),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inefficiency_ratio() {
        let c = Counters {
            evaluated: 500,
            ccp: 100,
            sets: 0,
            unranked: 0,
        };
        assert_eq!(c.inefficiency(), 5.0);
        assert_eq!(Counters::default().inefficiency(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters {
            evaluated: 1,
            ccp: 2,
            sets: 3,
            unranked: 4,
        };
        a.merge(&Counters {
            evaluated: 10,
            ccp: 20,
            sets: 30,
            unranked: 40,
        });
        assert_eq!(a.evaluated, 11);
        assert_eq!(a.ccp, 22);
        assert_eq!(a.sets, 33);
        assert_eq!(a.unranked, 44);
    }

    #[test]
    fn profile_totals_and_level_merge() {
        let mut p = Profile::default();
        p.record(LevelStats {
            size: 2,
            unranked: 10,
            sets: 5,
            evaluated: 20,
            ccp: 8,
            memo_writes: 5,
            ..Default::default()
        });
        p.record(LevelStats {
            size: 2,
            unranked: 1,
            sets: 1,
            evaluated: 2,
            ccp: 2,
            memo_writes: 1,
            ..Default::default()
        });
        p.record(LevelStats {
            size: 3,
            unranked: 0,
            sets: 4,
            evaluated: 12,
            ccp: 6,
            memo_writes: 4,
            ..Default::default()
        });
        assert_eq!(p.levels.len(), 2);
        let t = p.totals();
        assert_eq!(t.evaluated, 34);
        assert_eq!(t.ccp, 16);
        assert_eq!(t.sets, 10);
        assert_eq!(t.unranked, 11);
    }

    #[test]
    fn cache_delta_and_request_hit_rate() {
        let c = CacheCounters::default();
        c.record_hit();
        c.record_hit();
        c.record_miss();
        c.record_coalesced();
        let a = c.snapshot();
        assert_eq!((a.hits, a.misses, a.coalesced), (2, 1, 1));
        assert!((a.request_hit_rate() - 0.5).abs() < 1e-12);
        assert!((a.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.record_hit();
        c.record_coalesced();
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!((d.hits, d.misses, d.coalesced), (1, 0, 1));
    }

    #[test]
    fn serve_counters_track_gauges_and_windows() {
        let s = ServeCounters::default();
        s.record_accept();
        s.record_accept();
        s.record_accept();
        s.record_shed_queue_full();
        s.record_shed_quota();
        s.record_dispatch();
        s.record_dispatch();
        assert_eq!(s.in_flight(), 2);
        s.record_done(true);
        s.record_done(false);
        let a = s.snapshot();
        assert_eq!(a.accepted, 3);
        assert_eq!(a.sheds(), 2);
        assert_eq!(a.offered(), 5);
        assert_eq!((a.completed, a.failed), (1, 1));
        assert_eq!(a.in_flight, 0);
        // A later window reports only its own traffic; gauges pass through
        // (the queue gauges as whatever the queue's owner filled in).
        s.record_dispatch();
        s.record_done(true);
        let later = ServeSnapshot {
            queue_depth: 1,
            queue_depth_peak: 3,
            ..s.snapshot()
        };
        let d = later.delta(&a);
        assert_eq!((d.accepted, d.completed, d.failed), (0, 1, 0));
        assert_eq!((d.queue_depth, d.queue_depth_peak), (1, 3));
    }
}
