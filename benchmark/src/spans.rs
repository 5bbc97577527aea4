//! The benchmark's own span recording: one span per layer boundary per
//! request, recorded around the calls into each layer from outside the
//! program (spans inside the crates are a later change).
//!
//! Spans stay in memory during the run. Every request is folded into
//! per-name self-time totals; the first [`KEEP_REQUESTS`] requests of each
//! client are also kept whole and written as a Chrome trace when the run
//! ends (a full run is millions of spans — the totals cover all of them, the
//! file is a readable sample).

use std::fmt::Write as _;

/// Requests per client whose spans are kept whole for the trace file.
pub const KEEP_REQUESTS: u64 = 2_000;

/// Span names, one per layer boundary a request crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: the client's whole iteration for one request.
    Request = 0,
    /// Benchmark relabels the template into this request's labels.
    Relabel,
    /// Inside `ServeFront::submit` (admission, queue push).
    Submit,
    /// `Completed.latency - service_time`: queued, not yet dispatched.
    QueueWait,
    /// `ServedPlan.service_time`: canonicalize, route, cache/flight, remap.
    Plan,
    /// `Planned.wall` of a cold plan (child of `service.plan`), or of a
    /// direct strategy call on the plan workloads.
    Strategy,
    /// Completion published → client thread running again.
    Wake,
    /// Benchmark maps the served plan back to the template's labels.
    Remap,
    /// `Executor::execute`.
    Execute,
    /// `PlanCluster::observe`.
    Observe,
    /// `PlanCluster::run_gossip_round` (client 0, every 256 requests).
    Gossip,
}

pub const NAMES: [&str; 11] = [
    "client.request",
    "bench.relabel",
    "serve.submit",
    "serve.queue_wait",
    "service.plan",
    "strategy",
    "serve.wake",
    "bench.remap",
    "exec.execute",
    "cluster.observe",
    "cluster.gossip",
];

impl Name {
    pub fn as_str(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// One recorded span. `id` is unique within its request, `parent` is the
/// id of the span that caused it (0 for the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one request, aligned with `spans`: the span's
/// duration minus the part of its interval that its direct children cover
/// (children are clipped to the parent and overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id && c.id != s.id)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans of the request being served, built as the client goes.
#[derive(Debug, Default)]
pub struct RequestSpans {
    spans: Vec<Span>,
    request: u64,
}

impl RequestSpans {
    pub fn begin(&mut self, request: u64) {
        self.spans.clear();
        self.request = request;
    }

    /// Adds a span and returns its id (ids start at 1).
    pub fn push(&mut self, name: Name, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            request: self.request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }
}

/// Per-name totals over every recorded request, plus the kept sample.
#[derive(Debug, Default)]
pub struct Recorder {
    pub kept: Vec<Span>,
    pub self_ns: [u64; NAMES.len()],
    pub inclusive_ns: [u64; NAMES.len()],
    pub count: [u64; NAMES.len()],
    pub requests: u64,
}

impl Recorder {
    pub fn record(&mut self, req: &RequestSpans) {
        for (span, own) in req.spans.iter().zip(self_times(&req.spans)) {
            let i = span.name as usize;
            self.self_ns[i] += own;
            self.inclusive_ns[i] += span.duration_ns();
            self.count[i] += 1;
        }
        if self.requests < KEEP_REQUESTS {
            self.kept.extend_from_slice(&req.spans);
        }
        self.requests += 1;
    }

    pub fn merge(&mut self, other: Recorder) {
        self.kept.extend(other.kept);
        for i in 0..NAMES.len() {
            self.self_ns[i] += other.self_ns[i];
            self.inclusive_ns[i] += other.inclusive_ns[i];
            self.count[i] += other.count[i];
        }
        self.requests += other.requests;
    }

    /// Summed duration of the root spans: the client wall the self times
    /// must add up to.
    pub fn root_ns(&self) -> u64 {
        self.inclusive_ns[Name::Request as usize]
    }

    /// Self time of `name` as a share of the summed client wall.
    pub fn self_share(&self, name: Name) -> f64 {
        crate::stats::share(self.self_ns[name as usize] as f64, self.root_ns() as f64)
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of `spans`; the
/// request id is the thread lane so one request reads as one row.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"request\":{},\"id\":{},\"parent\":{}}}}}{sep}",
            s.name.as_str(),
            s.request,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.request,
            s.id,
            s.parent,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 7,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root 0..100
        //   submit 10..20
        //   plan   30..70
        //     strategy 40..65
        //   wake   60..80   (overlaps plan by 10: counted once)
        //   remap  95..120  (sticks out of the root: clipped to 95..100)
        let spans = [
            span(Name::Request, 1, 0, 0, 100),
            span(Name::Submit, 2, 1, 10, 20),
            span(Name::Plan, 3, 1, 30, 70),
            span(Name::Strategy, 4, 3, 40, 65),
            span(Name::Wake, 5, 1, 60, 80),
            span(Name::Remap, 6, 1, 95, 120),
        ];
        let own = self_times(&spans);
        // Root: 100 - (10 + 40 + 10 + 5) = 35.
        assert_eq!(own, vec![35, 10, 15, 25, 20, 25]);
    }

    #[test]
    fn recorder_totals_and_sample() {
        let mut req = RequestSpans::default();
        let mut rec = Recorder::default();
        for r in 0..3u64 {
            req.begin(r);
            let root = req.push(Name::Request, 0, 1_000 * r, 1_000 * r + 800);
            req.push(Name::Execute, root, 1_000 * r + 100, 1_000 * r + 700);
            rec.record(&req);
        }
        assert_eq!(rec.requests, 3);
        assert_eq!(rec.root_ns(), 2_400);
        assert_eq!(rec.self_ns[Name::Execute as usize], 1_800);
        assert_eq!(rec.self_ns[Name::Request as usize], 600);
        assert!((rec.self_share(Name::Execute) - 0.75).abs() < 1e-12);
        assert_eq!(rec.kept.len(), 6);
        let json = chrome_trace_json(&rec.kept);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"name\":\"exec.execute\""));
    }
}
