//! Seeded, deterministic fault injection for the serving stack.
//!
//! Robustness claims need *tests*, and the failure modes worth testing —
//! a dispatcher panicking mid-chunk, a queue pop stalling, a planner blowing
//! up under a single-flight leader — are exactly the ones that never occur
//! on a healthy box. This module gives the serving crates named injection
//! points and a way to schedule faults at them deterministically: a
//! [`FaultPlan`] maps `(site name, invocation index)` to a [`FaultAction`],
//! and [`FaultPlan::seeded`] derives a whole schedule from one `u64` so a
//! chaos run is reproducible from its seed alone (the same discipline the
//! production async service loops this crate's serving tier is modeled on
//! use for their integration suites).
//!
//! ## Cost when unarmed
//!
//! Production constructs [`Faults::disarmed`] (the `Default`). Its handle
//! holds no allocation and [`Faults::check`] is a single `Option`
//! discriminant test — the instrumented hot paths (queue push/pop,
//! dispatcher chunks, planner invocations) pay one predictable branch.
//!
//! ## Interpreting actions
//!
//! `check` only *returns* the scheduled action; the call site applies it,
//! because only the site knows what a fault means there:
//!
//! * [`FaultAction::Panic`] — `panic!` at the site. The surrounding
//!   machinery (per-request catch-unwind, dispatcher supervisors, lease
//!   guards, poison-recovering locks) must contain it; that containment is
//!   what the chaos suite asserts.
//! * [`FaultAction::Stall`] — sleep the calling thread, simulating a
//!   descheduled worker, a slow disk, a GC pause.
//! * [`FaultAction::Error`] — fail the operation with its ordinary error
//!   path (e.g. the planner returns `OptError::Internal`). Sites with no
//!   error channel treat it as a no-op.
//!
//! Most call sites use [`Faults::apply_panic_stall`], which handles the
//! first two uniformly and returns `true` when the site should take its
//! error path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::memo::murmur3_fmix64;

/// Well-known fault-site names. Free-form strings are accepted too; these
/// constants are the sites the serving stack registers.
pub mod site {
    /// Admission-queue push (`Bounded::try_push`), checked once per call
    /// on the submitter's thread.
    pub const QUEUE_PUSH: &str = "queue.push";
    /// Admission-queue pop (`Bounded::pop` / `drain_into`), checked before
    /// an item is removed so an injected panic never loses a request.
    pub const QUEUE_POP: &str = "queue.pop";
    /// Dispatcher chunk processing, checked once per drained chunk.
    pub const DISPATCH_CHUNK: &str = "dispatch.chunk";
    /// Planner invocation (the cold path of `PlanService`), checked right
    /// before the routed strategy runs.
    pub const PLANNER_INVOKE: &str = "planner.invoke";
}

/// What an armed fault does when its `(site, index)` is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` at the site (the site's containment machinery is the thing
    /// under test).
    Panic,
    /// Sleep the calling thread for the given duration.
    Stall(Duration),
    /// Fail the operation through the site's ordinary error path; a no-op
    /// at sites without one.
    Error,
}

/// A deterministic fault schedule: `(site, invocation index) → action`.
///
/// Build one explicitly with [`FaultPlan::fault`] for targeted tests, or
/// derive a whole schedule from a seed with [`FaultPlan::seeded`]; then
/// [`FaultPlan::arm`] it into the cheap shareable [`Faults`] handle the
/// serving components take.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(String, u64, FaultAction)>,
}

/// The sites a seeded schedule draws from, with the index window scaled to
/// how often each site fires in a small chaos run and the actions that are
/// safe there (submitter-thread sites never panic, so a seeded schedule
/// cannot unwind the caller of `submit`; targeted tests can still build
/// such plans explicitly).
const SEEDED_SITES: &[(&str, u64, &[FaultAction])] = &[
    (
        site::QUEUE_PUSH,
        160,
        &[FaultAction::Stall(Duration::from_millis(2))],
    ),
    (
        site::QUEUE_POP,
        120,
        &[
            FaultAction::Panic,
            FaultAction::Stall(Duration::from_millis(3)),
        ],
    ),
    (
        site::DISPATCH_CHUNK,
        60,
        &[
            FaultAction::Panic,
            FaultAction::Stall(Duration::from_millis(5)),
        ],
    ),
    (
        site::PLANNER_INVOKE,
        48,
        &[
            FaultAction::Panic,
            FaultAction::Error,
            FaultAction::Stall(Duration::from_millis(8)),
        ],
    ),
];

impl FaultPlan {
    /// An empty plan (arming it yields a handle that never fires but still
    /// counts invocations).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules `action` at the `index`-th invocation (0-based) of `site`.
    pub fn fault(mut self, site: &str, index: u64, action: FaultAction) -> FaultPlan {
        self.faults.push((site.to_string(), index, action));
        self
    }

    /// Derives a deterministic schedule from `seed`: for each known site,
    /// zero to three faults at hashed invocation indices with hashed
    /// actions. Two runs with the same seed see byte-identical schedules;
    /// distinct seeds explore different interleavings. Every seed schedules
    /// at least one fault.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (slot, &(name, window, actions)) in SEEDED_SITES.iter().enumerate() {
            let base = murmur3_fmix64(seed ^ murmur3_fmix64(0x9e37_79b9 + slot as u64));
            let count = base % 3; // 0..=2 faults per site
            for k in 0..count {
                let h = murmur3_fmix64(base ^ (0xa076_1d64 * (k + 1)));
                let index = h % window;
                let action = actions[(h >> 17) as usize % actions.len()];
                plan = plan.fault(name, index, action);
            }
        }
        if plan.faults.is_empty() {
            // Degenerate seed: still inject something so every seed is a
            // real chaos run.
            plan = plan.fault(site::PLANNER_INVOKE, seed % 8, FaultAction::Panic);
        }
        plan
    }

    /// Human-readable schedule listing (one `site@index action` per line),
    /// for chaos-run logs.
    pub fn describe(&self) -> String {
        let mut lines: Vec<String> = self
            .faults
            .iter()
            .map(|(s, i, a)| format!("{s}@{i} {a:?}"))
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Freezes the plan into the shareable handle the serving components
    /// take.
    pub fn arm(self) -> Faults {
        let mut sites: HashMap<String, SiteState> = HashMap::new();
        for (site, index, action) in self.faults {
            sites
                .entry(site)
                .or_default()
                .scheduled
                .push((index, action));
        }
        for s in sites.values_mut() {
            s.scheduled.sort_by_key(|&(i, _)| i);
            s.scheduled.dedup_by_key(|&mut (i, _)| i);
        }
        Faults {
            inner: Some(Arc::new(Armed {
                sites,
                fired: AtomicU64::new(0),
            })),
        }
    }
}

#[derive(Debug, Default)]
struct SiteState {
    /// Invocations of this site so far (counted even past the last
    /// scheduled fault, so schedules compose with re-runs predictably).
    invocations: AtomicU64,
    /// `(index, action)` sorted by index, unique indices.
    scheduled: Vec<(u64, FaultAction)>,
    fired: AtomicU64,
}

#[derive(Debug)]
struct Armed {
    sites: HashMap<String, SiteState>,
    fired: AtomicU64,
}

/// Shareable fault-injection handle. Clone freely; all clones observe one
/// shared invocation count per site. [`Faults::disarmed`] (the `Default`)
/// is the production no-op.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    inner: Option<Arc<Armed>>,
}

impl Faults {
    /// The production handle: never fires, costs one branch per check.
    pub fn disarmed() -> Faults {
        Faults { inner: None }
    }

    /// `true` if a plan is armed (even an empty one).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Counts one invocation of `site` and returns the scheduled action for
    /// this index, if any. The unarmed fast path returns `None` without
    /// touching any shared state.
    #[inline]
    pub fn check(&self, site: &str) -> Option<FaultAction> {
        let armed = self.inner.as_ref()?;
        let state = armed.sites.get(site)?;
        let index = state.invocations.fetch_add(1, Ordering::Relaxed);
        match state.scheduled.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => {
                state.fired.fetch_add(1, Ordering::Relaxed);
                armed.fired.fetch_add(1, Ordering::Relaxed);
                Some(state.scheduled[pos].1)
            }
            Err(_) => None,
        }
    }

    /// [`Faults::check`] plus uniform handling of the two actions every
    /// site supports: `Panic` panics here, `Stall` sleeps here. Returns
    /// `true` when the site should take its error path (`Error` was
    /// scheduled), `false` otherwise.
    #[inline]
    pub fn apply_panic_stall(&self, site: &str) -> bool {
        let Some(action) = self.check(site) else {
            return false;
        };
        match action {
            FaultAction::Panic => panic!("injected fault: panic at {site}"),
            FaultAction::Stall(d) => {
                std::thread::sleep(d);
                false
            }
            FaultAction::Error => true,
        }
    }

    /// Total faults fired so far, across all sites.
    pub fn fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |a| a.fired.load(Ordering::Relaxed))
    }

    /// Faults fired at one site.
    pub fn fired_at(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|a| a.sites.get(site))
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }

    /// Invocations counted at one site (0 when unarmed).
    pub fn invocations_at(&self, site: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|a| a.sites.get(site))
            .map_or(0, |s| s.invocations.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let f = Faults::disarmed();
        assert!(!f.is_armed());
        for _ in 0..100 {
            assert_eq!(f.check(site::QUEUE_PUSH), None);
            assert!(!f.apply_panic_stall(site::DISPATCH_CHUNK));
        }
        assert_eq!(f.fired(), 0);
    }

    #[test]
    fn fires_exactly_at_scheduled_indices() {
        let f = FaultPlan::new()
            .fault("x", 2, FaultAction::Error)
            .fault("x", 5, FaultAction::Stall(Duration::from_millis(1)))
            .fault("y", 0, FaultAction::Panic)
            .arm();
        let got: Vec<Option<FaultAction>> = (0..8).map(|_| f.check("x")).collect();
        for (i, action) in got.iter().enumerate() {
            match i {
                2 => assert_eq!(*action, Some(FaultAction::Error)),
                5 => assert_eq!(*action, Some(FaultAction::Stall(Duration::from_millis(1)))),
                _ => assert_eq!(*action, None),
            }
        }
        assert_eq!(f.check("y"), Some(FaultAction::Panic));
        assert_eq!(f.check("unknown"), None);
        assert_eq!(f.fired(), 3);
        assert_eq!(f.fired_at("x"), 2);
        assert_eq!(f.invocations_at("x"), 8);
    }

    #[test]
    fn seeded_schedules_are_deterministic_and_nonempty() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed);
            let b = FaultPlan::seeded(seed);
            assert_eq!(a.describe(), b.describe(), "seed {seed} not stable");
            assert!(!a.is_empty(), "seed {seed} schedules nothing");
        }
        assert_ne!(
            FaultPlan::seeded(1).describe(),
            FaultPlan::seeded(2).describe(),
            "distinct seeds should explore distinct schedules"
        );
    }

    #[test]
    fn seeded_submitter_sites_never_panic() {
        // `queue.push` runs on the submitter's thread; a seeded plan must
        // not unwind callers of `submit`.
        for seed in 0..256u64 {
            for (site, _, action) in &FaultPlan::seeded(seed).faults {
                if site == site::QUEUE_PUSH {
                    assert!(
                        matches!(action, FaultAction::Stall(_)),
                        "seed {seed}: {action:?} at {site}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_panic_stall_panics_on_schedule() {
        let f = FaultPlan::new().fault("z", 0, FaultAction::Panic).arm();
        let err = std::panic::catch_unwind(|| f.apply_panic_stall("z"));
        assert!(err.is_err());
        assert_eq!(f.fired_at("z"), 1);
    }
}
