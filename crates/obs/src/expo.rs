//! The unified exposition surface: one canonical Prometheus-text and
//! JSON renderer over every counter family the stack produces.
//!
//! [`ObsSnapshot`] is a plain value: the serve front-end, the cluster,
//! and the benches each assemble one from their own snapshots and call
//! [`ObsSnapshot::metrics_text`] / [`ObsSnapshot::to_json`], so the
//! metric names and label scheme live in exactly one place. Sections are
//! emitted only when populated — a serve-only snapshot renders the exact
//! byte-for-byte output `ServeFront::metrics_text` always produced, and
//! a cluster snapshot adds per-shard series without inventing a second
//! formatter.

use mpdp_core::counters::{CacheSnapshot, ServeSnapshot};
use std::fmt::Write;

use crate::hist::Hist64;

/// The `(name, value)` pairs of the serve-counter family, in exposition
/// order.
fn serve_fields(s: &ServeSnapshot) -> [(&'static str, u64); 10] {
    [
        ("accepted_total", s.accepted),
        ("shed_queue_full_total", s.shed_queue_full),
        ("shed_quota_total", s.shed_quota),
        ("completed_total", s.completed),
        ("failed_total", s.failed),
        ("queue_depth", s.queue_depth),
        ("queue_depth_peak", s.queue_depth_peak),
        ("in_flight", s.in_flight),
        ("worker_respawns_total", s.worker_respawns),
        ("abandoned_tickets_total", s.abandoned_tickets),
    ]
}

/// The `(name, value)` pairs of the cache-counter family, in exposition
/// order.
fn cache_fields(c: &CacheSnapshot) -> [(&'static str, u64); 9] {
    [
        ("hits_total", c.hits),
        ("misses_total", c.misses),
        ("coalesced_total", c.coalesced),
        ("degraded_total", c.degraded),
        ("deadline_exceeded_total", c.deadline_exceeded),
        ("insertions_total", c.insertions),
        ("evictions_total", c.evictions),
        ("feedback_checks_total", c.feedback_checks),
        ("feedback_invalidations_total", c.feedback_invalidations),
    ]
}

/// A unified snapshot of every counter family one component exposes.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    /// Front-end serve counters (`mpdp_serve_*`), when the component has
    /// an admission tier.
    pub serve: Option<ServeSnapshot>,
    /// Per-tenant cache counters (`mpdp_cache_*{tenant="..."}`), in
    /// exposition order.
    pub tenants: Vec<(String, CacheSnapshot)>,
    /// Per-shard cache counters (`mpdp_cluster_cache_*{shard="N"}`), in
    /// exposition order.
    pub shards: Vec<(u32, CacheSnapshot)>,
    /// Named latency histograms (`mpdp_latency_ns{series="...",q="P"}`),
    /// values in nanoseconds.
    pub hists: Vec<(String, Hist64)>,
}

impl ObsSnapshot {
    /// An empty snapshot to be filled section by section.
    pub fn new() -> ObsSnapshot {
        ObsSnapshot::default()
    }

    /// The exact field-wise [`CacheSnapshot::merge`] fold over the tenant
    /// section.
    pub fn tenant_total(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for (_, c) in &self.tenants {
            total.merge(c);
        }
        total
    }

    /// The exact field-wise [`CacheSnapshot::merge`] fold over the shard
    /// section.
    pub fn shard_total(&self) -> CacheSnapshot {
        let mut total = CacheSnapshot::default();
        for (_, c) in &self.shards {
            total.merge(c);
        }
        total
    }

    /// Prometheus text exposition: serve counters first, then per-tenant
    /// cache series, per-shard cache series, and histogram quantiles.
    /// Empty sections emit nothing.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        if let Some(s) = &self.serve {
            for (name, v) in serve_fields(s) {
                let _ = writeln!(out, "mpdp_serve_{name} {v}");
            }
        }
        for (tenant, c) in &self.tenants {
            for (name, v) in cache_fields(c) {
                let _ = writeln!(out, "mpdp_cache_{name}{{tenant=\"{tenant}\"}} {v}");
            }
        }
        for (shard, c) in &self.shards {
            for (name, v) in cache_fields(c) {
                let _ = writeln!(out, "mpdp_cluster_cache_{name}{{shard=\"{shard}\"}} {v}");
            }
        }
        for (series, h) in &self.hists {
            let _ = writeln!(
                out,
                "mpdp_latency_count{{series=\"{series}\"}} {}",
                h.count()
            );
            let _ = writeln!(
                out,
                "mpdp_latency_ns_sum{{series=\"{series}\"}} {}",
                h.sum()
            );
            for (q, v) in [
                ("50", h.percentile(50.0)),
                ("90", h.percentile(90.0)),
                ("99", h.percentile(99.0)),
                ("100", h.max()),
            ] {
                let _ = writeln!(out, "mpdp_latency_ns{{series=\"{series}\",q=\"{q}\"}} {v}");
            }
        }
        out
    }

    /// One self-contained JSON object mirroring [`metrics_text`]'s
    /// sections (`serve`, `tenants`, `shards`, `hists`).
    ///
    /// [`metrics_text`]: ObsSnapshot::metrics_text
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        match &self.serve {
            Some(s) => {
                out.push_str("\"serve\": {");
                for (i, (name, v)) in serve_fields(s).iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{name}\": {v}");
                }
                out.push_str("}, ");
            }
            None => out.push_str("\"serve\": null, "),
        }
        let cache_json = |c: &CacheSnapshot| {
            let mut s = String::from("{");
            for (i, (name, v)) in cache_fields(c).iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{name}\": {v}");
            }
            s.push('}');
            s
        };
        out.push_str("\"tenants\": {");
        for (i, (tenant, c)) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{tenant}\": {}", cache_json(c));
        }
        out.push_str("}, \"shards\": {");
        for (i, (shard, c)) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{shard}\": {}", cache_json(c));
        }
        out.push_str("}, \"hists\": {");
        for (i, (series, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{series}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                h.count(),
                h.sum(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.min(),
                h.max()
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(hits: u64, misses: u64) -> CacheSnapshot {
        CacheSnapshot {
            hits,
            misses,
            coalesced: hits / 2,
            insertions: misses,
            evictions: 1,
            feedback_checks: misses,
            feedback_invalidations: 0,
            degraded: 2,
            deadline_exceeded: 1,
        }
    }

    #[test]
    fn serve_section_matches_the_historical_front_end_format() {
        let snap = ObsSnapshot {
            serve: Some(ServeSnapshot {
                accepted: 5,
                completed: 4,
                failed: 1,
                ..Default::default()
            }),
            tenants: vec![("default".to_string(), cache(3, 2))],
            ..Default::default()
        };
        let text = snap.metrics_text();
        assert!(text.contains("mpdp_serve_accepted_total 5"));
        assert!(text.contains("mpdp_serve_completed_total 4"));
        assert!(text.contains("mpdp_serve_worker_respawns_total 0"));
        assert!(text.contains("mpdp_serve_abandoned_tickets_total 0"));
        assert!(text.contains("mpdp_cache_hits_total{tenant=\"default\"} 3"));
        assert!(text.contains("mpdp_cache_misses_total{tenant=\"default\"} 2"));
        assert!(text.contains("mpdp_cache_degraded_total{tenant=\"default\"} 2"));
        // No cluster or histogram lines appear for empty sections.
        assert!(!text.contains("mpdp_cluster_cache_"));
        assert!(!text.contains("mpdp_latency_"));
    }

    #[test]
    fn exposed_lines_sum_exactly_to_the_merge_fold() {
        // The exact-sum consistency contract: the per-label values the
        // text surface exposes, summed per field, equal the associative
        // CacheSnapshot::merge fold.
        let shards = vec![(0, cache(10, 4)), (1, cache(7, 9)), (2, cache(0, 1))];
        let snap = ObsSnapshot {
            shards: shards.clone(),
            ..Default::default()
        };
        let total = snap.shard_total();
        let text = snap.metrics_text();
        let sum_of = |name: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(&format!("mpdp_cluster_cache_{name}{{")))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(sum_of("hits_total"), total.hits);
        assert_eq!(sum_of("misses_total"), total.misses);
        assert_eq!(sum_of("coalesced_total"), total.coalesced);
        assert_eq!(sum_of("insertions_total"), total.insertions);
        assert_eq!(sum_of("degraded_total"), total.degraded);
        assert_eq!(sum_of("feedback_checks_total"), total.feedback_checks);
        // And the fold is what a hand sum says it is.
        assert_eq!(total.hits, 17);
        assert_eq!(total.misses, 14);
    }

    #[test]
    fn histogram_section_exposes_quantiles() {
        let mut h = Hist64::new();
        for v in [1_000u64, 2_000, 3_000, 400_000] {
            h.record(v);
        }
        let snap = ObsSnapshot {
            hists: vec![("hit".to_string(), h)],
            ..Default::default()
        };
        let text = snap.metrics_text();
        assert!(text.contains("mpdp_latency_count{series=\"hit\"} 4"));
        assert!(text.contains("mpdp_latency_ns{series=\"hit\",q=\"50\"}"));
        assert!(text.contains("mpdp_latency_ns{series=\"hit\",q=\"100\"} 400000"));
        let json = snap.to_json();
        assert!(json.contains("\"hit\": {\"count\": 4"));
        assert!(json.contains("\"serve\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
