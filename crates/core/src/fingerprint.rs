//! Query canonicalization and fingerprinting for whole-query plan caching.
//!
//! The DP memo already caches canonical *subplans* within one optimization;
//! a serving layer wants the same amortization across *whole queries*: the
//! same query shape arrives over and over with its relations listed in a
//! different order (different FROM-clause order, different alias numbering),
//! and re-running the full DP for each arrival wastes the latency budget.
//!
//! [`canonicalize`] relabels a [`LargeQuery`]'s relations into a canonical
//! order so that *isomorphic* queries — identical up to a permutation of
//! relation indices — collide on one key. The canonical order is the order
//! of refined vertex signatures:
//!
//! 1. every vertex gets a local signature (row count, scan cost, and an
//!    order-free sum of hashes of its incident selectivities, which also
//!    tells degrees apart);
//! 2. two rounds of Weisfeiler–Lehman-style refinement mix each signature
//!    with an order-free sum of its neighbours' hashed signatures, separating
//!    vertices that are locally identical but sit in different positions.
//!    Sums need no sorting, so both steps read the query's one edge list;
//! 3. if every refined signature differs, the canonical order is the
//!    vertices sorted by signature. Otherwise (uniform statistics on a
//!    symmetric shape) the tie path refines to a fixed point, individualizes
//!    the lowest-index vertex of the tied class with the smallest signature,
//!    and repeats until every signature differs.
//!
//! Every step is label-invariant except the tie path's pick *within* a
//! class, so relabeled copies of one query reach the same canonical form
//! whenever the vertices of each class it individualizes are symmetric
//! (exchanged by an automorphism). That holds for trees, cycles, cliques
//! and grids (`tests/plan_cache.rs` checks each with uniform statistics).
//! Where refinement cannot see an asymmetry, relabeled copies may
//! canonicalize differently; that only costs a cache miss, never a wrong
//! plan, because the fingerprint hashes the full canonical structure.
//!
//! The fingerprint hashes the canonical per-relation statistics and edge
//! list with the workspace's Murmur3 finalizer
//! ([`crate::memo::murmur3_fmix64`]) into 128 bits — two independently
//! seeded 64-bit lanes. Each relation and each edge is one term carrying its
//! canonical slots, and the terms are summed, so no edge list is sorted and
//! no term waits on the previous one.
//!
//! A request that routes by fingerprint carries its form on to the service
//! that probes the cache as a [`Canonicalized`]: the query and the form
//! computed from it, built together, so a request canonicalizes once.

use crate::memo::murmur3_fmix64;
use crate::query::LargeQuery;
use crate::sync::lock_recover;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A 128-bit query fingerprint: equal for isomorphic (relabeled) queries.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// High 64 bits (lane seeded independently from [`Fingerprint::lo`]).
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint as one 128-bit integer (cache shard/key form).
    #[inline]
    pub fn as_u128(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:016x}{:016x})", self.hi, self.lo)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The canonical form of a query: its fingerprint plus the permutations
/// needed to translate plans between the caller's labels and canonical ones.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    /// The 128-bit fingerprint of the canonical form.
    pub fingerprint: Fingerprint,
    /// `order[c]` = the caller's relation index occupying canonical slot `c`.
    pub order: Vec<u32>,
    /// `slot[r]` = the canonical slot of the caller's relation `r`
    /// (the inverse permutation of [`CanonicalQuery::order`]).
    pub slot: Vec<u32>,
}

/// A query together with the canonical form computed from it.
///
/// A router that needs the fingerprint to pick a shard builds one, and the
/// shard's service plans from it without canonicalizing again. The only
/// constructor is [`Canonicalized::new`], so a form can never be paired with
/// a query it was not computed from.
#[derive(Debug)]
pub struct Canonicalized<'q> {
    query: &'q LargeQuery,
    canonical: CanonicalQuery,
    started: Instant,
}

impl<'q> Canonicalized<'q> {
    /// Canonicalizes `query`.
    pub fn new(query: &'q LargeQuery) -> Canonicalized<'q> {
        let started = Instant::now();
        Canonicalized {
            query,
            canonical: canonicalize(query),
            started,
        }
    }

    /// The query the form was computed from, in the caller's labels.
    pub fn query(&self) -> &'q LargeQuery {
        self.query
    }

    /// The fingerprint of the canonical form.
    pub fn fingerprint(&self) -> Fingerprint {
        self.canonical.fingerprint
    }

    /// When canonicalization began: where a request's service time starts,
    /// so the time spent canonicalizing to route it is counted as service.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Gives up the query for its canonical form.
    pub fn into_canonical(self) -> CanonicalQuery {
        self.canonical
    }
}

/// Odd multiplier folding a word into a running hash (2⁶⁴/φ).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
/// Seeds of the two fingerprint lanes.
const LANES: [u64; 2] = [0x6d70_6470_5f66_7031, 0x6d70_6470_5f66_7032];
/// Marks a vertex the tie path individualizes.
const MARK: u64 = 0x6d70_6470_5f69_6e64;
/// Refinement work (rounds × (relations + 2 × edges)) the tie path
/// may spend before it orders what still ties by index. Far above what any
/// shape of up to a hundred relations needs; it bounds the tie path on
/// larger uniform cliques.
const TIE_BUDGET: usize = 1 << 22;

/// Canonicalizations run so far, per thread (see [`canonicalize_calls`]).
/// A thread's counter is written only by that thread; an exiting thread
/// folds its count into `retired`.
struct Calls {
    live: Vec<Arc<AtomicU64>>,
    retired: u64,
}

static CALLS: Mutex<Calls> = Mutex::new(Calls {
    live: Vec::new(),
    retired: 0,
});

/// The number of times [`canonicalize`] has run in this process, on every
/// thread. Tests use it to hold a request path to one canonicalization per
/// request; it is exact once the threads that canonicalized are quiescent.
pub fn canonicalize_calls() -> u64 {
    let calls = lock_recover(&CALLS);
    calls.retired
        + calls
            .live
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum::<u64>()
}

/// Reusable buffers for [`canonicalize`]. The serving hot path fingerprints
/// every arrival, so the computation allocates nothing but the returned
/// `order`/`slot` permutations.
struct Scratch {
    sig: Vec<u64>,
    next: Vec<u64>,
    /// `(signature, vertex)`, sorted: the canonical order once no two
    /// signatures tie.
    ranked: Vec<(u64, u32)>,
    calls: Arc<AtomicU64>,
}

impl Scratch {
    fn new() -> Scratch {
        let calls = Arc::new(AtomicU64::new(0));
        lock_recover(&CALLS).live.push(Arc::clone(&calls));
        Scratch {
            sig: Vec::new(),
            next: Vec::new(),
            ranked: Vec::new(),
            calls,
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let mut calls = lock_recover(&CALLS);
        calls.retired += self.calls.load(Ordering::Relaxed);
        calls.live.retain(|c| !Arc::ptr_eq(c, &self.calls));
    }
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::new());
}

/// One refinement round: `sig'(v) = H(sig(v), Σ_w H(sig(w), sel(v, w)))`,
/// written from `sig` into `next`. The sum makes the neighbour fold
/// independent of edge order without sorting anything, so it reads the
/// query's one edge list instead of a vector per relation.
fn refine(q: &LargeQuery, sig: &[u64], next: &mut Vec<u64>) {
    next.clear();
    next.resize(sig.len(), 0);
    for e in &q.edges {
        let (u, v, sel) = (e.u as usize, e.v as usize, e.sel.to_bits());
        next[u] = next[u].wrapping_add(murmur3_fmix64(sig[v] ^ sel));
        next[v] = next[v].wrapping_add(murmur3_fmix64(sig[u] ^ sel));
    }
    for (around, &own) in next.iter_mut().zip(sig) {
        *around = murmur3_fmix64(own.wrapping_mul(FOLD) ^ *around);
    }
}

/// Sorts `(sig[v], v)` into `ranked`; returns the number of distinct
/// signatures.
fn rank(sig: &[u64], ranked: &mut Vec<(u64, u32)>) -> usize {
    ranked.clear();
    ranked.extend(sig.iter().enumerate().map(|(v, &s)| (s, v as u32)));
    ranked.sort_unstable();
    1 + ranked.windows(2).filter(|w| w[0].0 != w[1].0).count()
}

/// Ranks the vertices by signature into `ranked`. While signatures tie (the
/// tie path), refines `sig` to a fixed point, individualizes one vertex of
/// the tied class with the smallest signature, and refines again. Leaves
/// `ranked` sorted with every signature distinct, or, past [`TIE_BUDGET`],
/// ordered by index within what ties.
fn order_by_signature(
    q: &LargeQuery,
    sig: &mut Vec<u64>,
    next: &mut Vec<u64>,
    ranked: &mut Vec<(u64, u32)>,
) {
    let n = q.num_rels();
    let round = n + 2 * q.edges.len();
    let mut spent = 0;
    let mut classes = rank(sig, ranked);
    while classes < n && spent < TIE_BUDGET {
        refine(q, sig, next);
        std::mem::swap(sig, next);
        spent += round;
        let refined = rank(sig, ranked);
        if refined == classes {
            // Stable and still tied: the first tied pair in `ranked` is the
            // smallest tied signature, its lower index first.
            let w = ranked
                .windows(2)
                .find(|w| w[0].0 == w[1].0)
                .expect("fewer classes than vertices means a tie");
            let v = w[0].1 as usize;
            sig[v] = murmur3_fmix64(sig[v] ^ MARK);
            classes = rank(sig, ranked);
        } else {
            classes = refined;
        }
    }
}

/// Computes the canonical order and fingerprint of `q`.
///
/// Linear in relations plus edges per refinement round, plus one sort of
/// the relations — about a microsecond for serving-sized queries, against
/// DP planning times in the millisecond-to-second range. Only queries whose
/// refined signatures tie take the tie path.
pub fn canonicalize(q: &LargeQuery) -> CanonicalQuery {
    SCRATCH.with(|s| canonicalize_with(q, &mut s.borrow_mut()))
}

fn canonicalize_with(q: &LargeQuery, scratch: &mut Scratch) -> CanonicalQuery {
    let n = q.num_rels();
    let Scratch {
        sig,
        next,
        ranked,
        calls,
    } = scratch;
    // Only this thread writes its counter: a load and a store, no atomic
    // read-modify-write.
    calls.store(calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);

    // Local signatures: cardinality, scan cost, and the sum of the incident
    // selectivities' hashes (a sum of one term per edge also tells degrees
    // apart).
    sig.clear();
    sig.resize(n, 0);
    for e in &q.edges {
        let h = murmur3_fmix64(e.sel.to_bits());
        sig[e.u as usize] = sig[e.u as usize].wrapping_add(h);
        sig[e.v as usize] = sig[e.v as usize].wrapping_add(h);
    }
    for (s, rel) in sig.iter_mut().zip(&q.rels) {
        let h = murmur3_fmix64(rel.rows.to_bits() ^ s.wrapping_mul(FOLD));
        *s = murmur3_fmix64(h.wrapping_mul(FOLD) ^ rel.cost.to_bits());
    }
    // Two WL rounds separate locally-identical vertices by position.
    refine(q, sig, next);
    refine(q, next, sig);

    order_by_signature(q, sig, next, ranked);
    let order: Vec<u32> = ranked.iter().map(|&(_, v)| v).collect();
    let mut slot: Vec<u32> = vec![0; n];
    for (c, &v) in order.iter().enumerate() {
        slot[v as usize] = c as u32;
    }

    // Fingerprint the canonical form: one term per relation and per edge,
    // each naming its canonical slots, summed per lane.
    let mut acc = LANES.map(|seed| murmur3_fmix64(seed ^ n as u64));
    for (v, rel) in q.rels.iter().enumerate() {
        for (lane, seed) in acc.iter_mut().zip(LANES) {
            let h = murmur3_fmix64(seed ^ (slot[v] as u64).wrapping_mul(FOLD) ^ rel.rows.to_bits());
            *lane = lane.wrapping_add(murmur3_fmix64(h.wrapping_mul(FOLD) ^ rel.cost.to_bits()));
        }
    }
    for e in &q.edges {
        let (a, b) = (slot[e.u as usize], slot[e.v as usize]);
        let ends = (a.min(b) as u64) << 32 | a.max(b) as u64;
        for (lane, seed) in acc.iter_mut().zip(LANES) {
            let h = murmur3_fmix64(seed.rotate_left(32) ^ ends.wrapping_mul(FOLD));
            *lane = lane.wrapping_add(murmur3_fmix64(h ^ e.sel.to_bits()));
        }
    }
    let [hi, lo] = acc.map(|lane| murmur3_fmix64(lane ^ q.edges.len() as u64));

    CanonicalQuery {
        fingerprint: Fingerprint { hi, lo },
        order,
        slot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RelInfo;

    fn chain(n: usize) -> LargeQuery {
        let mut q = LargeQuery::new(
            (0..n)
                .map(|i| RelInfo::new(100.0 * (i + 1) as f64, 10.0 * (i + 1) as f64))
                .collect(),
        );
        for i in 1..n {
            q.add_edge(i - 1, i, 0.01 * i as f64);
        }
        q
    }

    #[test]
    fn relabeled_queries_share_a_fingerprint() {
        let q = chain(8);
        // Reverse relabeling: old index i -> new index n-1-i.
        let perm: Vec<usize> = (0..8).rev().collect();
        let r = q.relabel(&perm);
        let cq = canonicalize(&q);
        let cr = canonicalize(&r);
        assert_eq!(cq.fingerprint, cr.fingerprint);
        // The canonical orders must name corresponding originals: canonical
        // slot c of `r` holds the relabeled image of `q`'s slot-c relation.
        for c in 0..8 {
            assert_eq!(perm[cq.order[c] as usize] as u32, cr.order[c]);
        }
    }

    #[test]
    fn different_statistics_change_the_fingerprint() {
        let a = chain(6);
        let mut b = chain(6);
        b.rels[3].rows *= 2.0;
        assert_ne!(canonicalize(&a).fingerprint, canonicalize(&b).fingerprint);
        // Different selectivity.
        let mut c = chain(6);
        c.edges[2].sel *= 0.5;
        c.adj[2].iter_mut().for_each(|e| {
            if e.0 == 3 {
                e.1 *= 0.5;
            }
        });
        c.adj[3].iter_mut().for_each(|e| {
            if e.0 == 2 {
                e.1 *= 0.5;
            }
        });
        assert_ne!(canonicalize(&a).fingerprint, canonicalize(&c).fingerprint);
    }

    #[test]
    fn different_shapes_change_the_fingerprint() {
        let chain = chain(5);
        // A star with the same RelInfos: different edge structure.
        let mut star = LargeQuery::new(chain.rels.clone());
        for i in 1..5 {
            star.add_edge(0, i, 0.01 * i as f64);
        }
        assert_ne!(
            canonicalize(&chain).fingerprint,
            canonicalize(&star).fingerprint
        );
    }

    #[test]
    fn order_and_slot_are_inverse_permutations() {
        let q = chain(9);
        let c = canonicalize(&q);
        for (canon, &orig) in c.order.iter().enumerate() {
            assert_eq!(c.slot[orig as usize] as usize, canon);
        }
    }

    fn uniform_clique(n: usize) -> LargeQuery {
        let mut q = LargeQuery::new(vec![RelInfo::new(100.0, 10.0); n]);
        for u in 0..n {
            for v in u + 1..n {
                q.add_edge(u, v, 0.5);
            }
        }
        q
    }

    #[test]
    fn the_tie_budget_covers_a_hundred_relations_and_bounds_thousands() {
        // Every relation of a uniform clique ties until it is
        // individualized: the tie path's most expensive shape.
        let q = uniform_clique(100);
        let perm: Vec<usize> = (0..100).map(|i| (i * 37 + 11) % 100).collect();
        assert_eq!(
            canonicalize(&q).fingerprint,
            canonicalize(&q.relabel(&perm)).fingerprint
        );
        // Past the budget, what still ties is ordered by index: still a
        // permutation, in bounded time.
        let c = canonicalize(&uniform_clique(200));
        let mut order = c.order.clone();
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &v)| v as usize == i));
        assert!(c
            .order
            .iter()
            .enumerate()
            .all(|(s, &v)| c.slot[v as usize] as usize == s));
    }

    #[test]
    fn singleton_and_disconnected_queries_canonicalize() {
        let one = LargeQuery::new(vec![RelInfo::new(5.0, 1.0)]);
        let c = canonicalize(&one);
        assert_eq!(c.order, vec![0]);
        // Two-component query (cross-product at the top): still deterministic.
        let mut two = LargeQuery::new(vec![
            RelInfo::new(10.0, 1.0),
            RelInfo::new(20.0, 2.0),
            RelInfo::new(30.0, 3.0),
        ]);
        two.add_edge(0, 1, 0.5);
        let ct = canonicalize(&two);
        let perm = vec![2usize, 0, 1];
        let cr = canonicalize(&two.relabel(&perm));
        assert_eq!(ct.fingerprint, cr.fingerprint);
    }
}
