//! Instrumentation counters and per-level profiles.
//!
//! The paper's efficiency argument is stated in terms of two counters
//! (§2.2/§2.3): `EvaluatedCounter`, the number of Join-Pairs an algorithm
//! evaluates, and `CCP-Counter`, the number of those that are valid CCP
//! pairs. Every optimizer in this workspace maintains both, plus per-DP-level
//! statistics that feed the hardware timing model (`mpdp-parallel::hwmodel`)
//! used to predict multi-core and GPU times on this single-core container.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

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
    }
}

/// Per-DP-level statistics (one entry per subset size `i`).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Subset size of this level.
    pub size: usize,
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
        }
        c
    }

    /// Adds a level, merging with an existing entry of the same size if any
    /// (parallel workers report fragments of the same level).
    pub fn record(&mut self, stats: LevelStats) {
        if let Some(l) = self.levels.iter_mut().find(|l| l.size == stats.size) {
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

/// Every update and read of the serving counters below: the counts are
/// statistics, not synchronization.
const RELAXED: Ordering = Ordering::Relaxed;

/// Declares one family of thread-safe serving counters from a single field
/// table: the atomics (`counters`), their plain-value copy (`snapshot`),
/// a `record_*` method per field that names one, `snapshot()`, `delta()`
/// and — for a family whose every field is a monotonic total — `merge()`.
/// A field exists in all of them or in none, so one forgotten in `delta` or
/// `merge` cannot compile.
///
/// `monotonic` fields are relaxed `AtomicU64` totals. `gauges` are current
/// values that only the snapshot carries: `delta` passes them through, and
/// `snapshot()` reads `name = getter` from `self.getter()` and leaves a bare
/// `name` at 0 for whoever owns the value to fill in. The braces after the
/// counters' name hold any hand-declared state the getters need.
macro_rules! counter_family {
    (
        $(#[$cmeta:meta])*
        counters $Counters:ident { $($(#[$xmeta:meta])* $xfield:ident: $xty:ty),* $(,)? }
        $(#[$smeta:meta])*
        snapshot $Snapshot:ident;
        monotonic { $(
            $(#[$mmeta:meta])* $mono:ident $(=> $(#[$rmeta:meta])* $record:ident)?
        ),* $(,)? }
        gauges { $($(#[$gmeta:meta])* $gauge:ident $(= $getter:ident)?),* $(,)? }
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Default)]
        pub struct $Counters {
            $($mono: AtomicU64,)*
            $($(#[$xmeta])* $xfield: $xty,)*
        }

        $(#[$smeta])*
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct $Snapshot {
            $($(#[$mmeta])* pub $mono: u64,)*
            $($(#[$gmeta])* pub $gauge: u64,)*
        }

        impl $Counters {
            $($(
                $(#[$rmeta])*
                pub fn $record(&self) {
                    self.$mono.fetch_add(1, RELAXED);
                }
            )?)*

            /// Copies the current counts (gauges nobody here tracks read 0;
            /// see their field docs).
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $($mono: self.$mono.load(RELAXED),)*
                    $($gauge: 0 $(+ self.$getter())?,)*
                }
            }
        }

        impl $Snapshot {
            /// The activity between `earlier` and `self`: monotonic fields
            /// are subtracted field-wise (a window's worth of traffic — rates
            /// per window instead of cumulative totals on a long-lived,
            /// pre-warmed service), gauges keep their current value.
            pub fn delta(&self, earlier: &$Snapshot) -> $Snapshot {
                $Snapshot {
                    $($mono: self.$mono - earlier.$mono,)*
                    $($gauge: self.$gauge,)*
                }
            }
        }

        counter_family!(@merge $Snapshot [$($mono)*] [$($gauge)*]);
    };
    // Only sums merge: the sum of two peaks is not a peak.
    (@merge $Snapshot:ident [$($mono:ident)*] []) => {
        impl $Snapshot {
            /// Adds another snapshot field-wise (the serving-side sibling of
            /// [`ExecCounters::merge`]). Associative and commutative, so
            /// folding any number of per-shard or per-tenant snapshots in any
            /// order yields the same exact cluster-level totals — the
            /// property the sharded planning tier's aggregate metrics rely
            /// on.
            pub fn merge(&mut self, other: &$Snapshot) {
                $(self.$mono += other.$mono;)*
            }
        }
    };
    (@merge $Snapshot:ident [$($mono:ident)*] [$($gauge:ident)+]) => {};
}

counter_family! {
    /// Thread-safe hit/miss/eviction counters for a serving-layer cache.
    ///
    /// The same observability idea as [`Counters`] — cheap monotonic counts
    /// that summarize a run — lifted from one optimization to a cache serving
    /// many. A [`CacheCounters::snapshot`] taken after all requests have
    /// drained is exact (asserted by the concurrent hammer test).
    counters CacheCounters {}
    /// A point-in-time copy of [`CacheCounters`].
    snapshot CacheSnapshot;
    monotonic {
        /// Requests (or direct lookups) answered from the cache.
        hits =>
            /// Records a cache hit.
            record_hit,
        /// Requests that planned from scratch with their routed strategy —
        /// under single-flight only the one request that actually plans (the
        /// flight leader); also cache-bypass and strategy-override requests,
        /// which never consult the cache — and direct lookups that found
        /// nothing (or only an expired entry). The serving layer tallies each
        /// request once, when it is delivered, so on every entry point
        /// `hits + misses + coalesced + degraded` is the number of requests
        /// served, failed ones included.
        misses =>
            /// Records a cache miss.
            record_miss,
        /// Requests that joined an in-flight planning of the same fingerprint
        /// instead of planning themselves (single-flight joins).
        coalesced =>
            /// Records a single-flight join (a request served by an in-flight
            /// planning of the same fingerprint).
            record_coalesced,
        /// Entries written.
        insertions =>
            /// Records an insertion.
            record_insertion,
        /// Entries evicted by capacity (LRU order).
        evictions =>
            /// Records a capacity eviction.
            record_eviction,
        /// Entries dropped because their TTL had lapsed.
        expirations =>
            /// Records a TTL expiration.
            record_expiration,
        /// Execution reports fed back through the service's `observe` hook.
        feedback_checks =>
            /// Records a cardinality-feedback check (`observe` call).
            record_feedback_check,
        /// Cached plans evicted because an observed root cardinality deviated
        /// from the estimate beyond the feedback threshold.
        feedback_invalidations =>
            /// Records a cardinality-feedback invalidation.
            record_feedback_invalidation,
        /// Requests served a heuristic plan because their deadline budget
        /// could not afford the routed exact strategy (or the exact attempt
        /// timed out mid-flight, or the flight they joined failed). Disjoint
        /// from hits/misses/coalesced on every entry point: a degraded
        /// request is tallied here and nowhere else, even if it started an
        /// exact attempt.
        degraded =>
            /// Records a request served a degraded (heuristic) plan.
            record_degraded,
        /// Requests whose exact planning attempt was cut off by the deadline
        /// mid-flight (a subset of the degradations: the ones that started
        /// exact and fell back late, rather than degrading up front).
        deadline_exceeded =>
            /// Records an exact planning attempt cut off by its deadline.
            record_deadline_exceeded,
    }
    gauges {}
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
}

counter_family! {
    /// Thread-safe counters for an admission-controlled serving front-end.
    ///
    /// The queue-facing sibling of [`CacheCounters`]: where cache counters
    /// account for what happened *inside* the plan cache, these account for
    /// what happened to *requests* at the front door — admission, shedding,
    /// dispatch and completion. The queue's own gauges
    /// (`ServeSnapshot::queue_depth` / `queue_depth_peak`) are not tracked
    /// here: only the queue knows its length exactly, under its own lock, so
    /// the front-end fills them in from the queue when it takes a snapshot.
    counters ServeCounters {
        /// Signed, and clamped at 0 by readers, so a transient imbalance
        /// could only ever read as 0 — never as a wrapped-around huge gauge.
        in_flight: AtomicI64,
    }
    /// A point-in-time copy of [`ServeCounters`].
    snapshot ServeSnapshot;
    monotonic {
        /// Requests admitted to the queue.
        accepted =>
            /// Records an admitted request.
            record_accept,
        /// Requests shed because the bounded queue was full.
        shed_queue_full =>
            /// Records a queue-full shed.
            record_shed_queue_full,
        /// Requests shed because the tenant's in-flight quota was exhausted.
        shed_quota =>
            /// Records a tenant-quota shed.
            record_shed_quota,
        /// Accepted requests that completed with a plan.
        completed,
        /// Accepted requests that completed with a planning error.
        failed,
        /// Dispatcher loops restarted by their supervisor after a caught
        /// panic (a planner panic is contained per request and is not counted
        /// here — it fails one ticket). Zero on a healthy box.
        worker_respawns =>
            /// Records a dispatcher loop restarted by its supervisor after a
            /// caught panic.
            record_worker_respawn,
        /// `PlanTicket`s dropped before their result was taken. The request
        /// still completes and releases its quota slot; this counts callers
        /// that walked away.
        abandoned_tickets =>
            /// Records a `PlanTicket` dropped before its result was taken.
            record_abandoned_ticket,
    }
    gauges {
        /// Requests currently queued. Read from the admission queue itself
        /// by the front-end; 0 in a bare [`ServeCounters::snapshot`].
        queue_depth,
        /// Highest queue depth since the queue was created. Tracked by the
        /// queue under its own lock, so it can never exceed the queue's
        /// capacity; 0 in a bare [`ServeCounters::snapshot`].
        queue_depth_peak,
        /// Requests currently being served by a dispatcher.
        in_flight = in_flight,
    }
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
}

impl ServeCounters {
    /// Records a dispatch: the request leaves the queue and becomes
    /// in-flight.
    pub fn record_dispatch(&self) {
        self.record_dispatch_n(1);
    }

    /// Batch form of [`ServeCounters::record_dispatch`]: a dispatcher that
    /// drained a chunk of `n` requests moves the gauge once.
    pub fn record_dispatch_n(&self, n: u64) {
        if n > 0 {
            self.in_flight.fetch_add(n as i64, RELAXED);
        }
    }

    /// Records a completion (`ok` = the request produced a plan); the
    /// request leaves the in-flight gauge.
    pub fn record_done(&self, ok: bool) {
        self.in_flight.fetch_sub(1, RELAXED);
        let total = if ok { &self.completed } else { &self.failed };
        total.fetch_add(1, RELAXED);
    }

    /// Current in-flight gauge (clamped at 0; see the field docs).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(RELAXED).max(0) as u64
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
        };
        a.merge(&Counters {
            evaluated: 10,
            ccp: 20,
            sets: 30,
        });
        assert_eq!(a.evaluated, 11);
        assert_eq!(a.ccp, 22);
        assert_eq!(a.sets, 33);
    }

    #[test]
    fn profile_totals_and_level_merge() {
        let mut p = Profile::default();
        p.record(LevelStats {
            size: 2,
            sets: 5,
            evaluated: 20,
            ccp: 8,
            memo_writes: 5,
            ..Default::default()
        });
        p.record(LevelStats {
            size: 2,
            sets: 1,
            evaluated: 2,
            ccp: 2,
            memo_writes: 1,
            ..Default::default()
        });
        p.record(LevelStats {
            size: 3,
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
