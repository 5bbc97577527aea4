//! Queries and plan fingerprints shared by the heuristics' oracle tests.

use mpdp_core::plan::PlanTree;
use mpdp_core::query::{LargeQuery, RelInfo};
use mpdp_cost::pglike::PgLikeCost;
use mpdp_workload::gen;
use mpdp_workload::musicbrainz::MusicBrainz;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The largest query the oracle tests plan: the full 200 relations in an
/// optimized build, fewer in a debug one so tier-1 stays quick.
pub fn max_oracle_rels() -> usize {
    if cfg!(debug_assertions) {
        60
    } else {
        200
    }
}

/// `q` with its relations renamed by a seeded permutation.
pub fn relabelled(q: &LargeQuery, seed: u64) -> LargeQuery {
    let mut perm: Vec<usize> = (0..q.num_rels()).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    q.relabel(&perm)
}

/// The benchmark's `plan-large` queries, as its set-up generates them.
pub fn plan_large_queries() -> Vec<(&'static str, LargeQuery)> {
    let m = PgLikeCost::new();
    let mb = MusicBrainz::new();
    vec![
        ("snowflake-40", gen::snowflake(40, 4, 1, &m)),
        ("snowflake-100", gen::snowflake(100, 4, 1, &m)),
        ("snowflake-200", gen::snowflake(200, 4, 1, &m)),
        ("star-30", gen::star(30, 1, &m)),
        ("star-60", gen::star(60, 1, &m)),
        ("musicbrainz-30", mb.random_walk_query(30, 1, true, &m)),
        ("musicbrainz-50", mb.random_walk_query(50, 1, true, &m)),
    ]
}

/// The benchmark's `plan-large` queries and three relabelled copies of
/// each; chain, star and snowflake at n ∈ {30, 60, 100, 200}, MusicBrainz
/// at 30 and 50, and `random_connected(40, 8, ·)`, each at seeds 0–19. Only
/// queries of at most `max_n` relations are returned.
pub fn oracle_queries(max_n: usize) -> Vec<(String, LargeQuery)> {
    let m = PgLikeCost::new();
    let mb = MusicBrainz::new();
    let mut out = Vec::new();
    for (name, q) in plan_large_queries() {
        if q.num_rels() > max_n {
            continue;
        }
        for copy in 1..=3 {
            out.push((format!("{name}/copy{copy}"), relabelled(&q, copy)));
        }
        out.push((name.to_string(), q));
    }
    for seed in 0..20 {
        for n in [30, 60, 100, 200].into_iter().filter(|&n| n <= max_n) {
            out.push((format!("chain-{n}/{seed}"), gen::chain(n, seed, &m)));
            out.push((format!("star-{n}/{seed}"), gen::star(n, seed, &m)));
            let snow = gen::snowflake(n, 4, seed, &m);
            out.push((format!("snowflake-{n}/{seed}"), snow));
        }
        for n in [30, 50].into_iter().filter(|&n| n <= max_n) {
            let q = mb.random_walk_query(n, seed, true, &m);
            out.push((format!("musicbrainz-{n}/{seed}"), q));
        }
        let q = gen::random_connected(40, 8, seed, &m);
        out.push((format!("random_connected-40/{seed}"), q));
    }
    out
}

/// The differential oracles' graphs, `seeds` of each kind: a random
/// connected graph of 2–`max_n` relations with up to as many extra edges
/// (the first two seeds take 2 and `max_n`), a clique of 3–24 and a cycle of
/// 3–`max_n` (whose contractions merge parallel edges), and a star of
/// 2–`max_n` whose relations and edges all have the same statistics (every
/// GOO pair ties).
pub fn property_graphs(max_n: usize, seeds: u64) -> Vec<(String, LargeQuery)> {
    let m = PgLikeCost::new();
    let mut rng = StdRng::seed_from_u64(47);
    let mut out = Vec::new();
    for seed in 0..seeds {
        let n = match seed {
            0 => 2,
            1 => max_n,
            _ => rng.gen_range(2..=max_n),
        };
        let extra = rng.gen_range(0..=n);
        let q = gen::random_connected(n, extra, seed, &m);
        out.push((format!("random_connected-{n}+{extra}/{seed}"), q));
        let n = rng.gen_range(3..=max_n.min(24));
        out.push((format!("clique-{n}/{seed}"), gen::clique(n, seed, &m)));
        let n = rng.gen_range(3..=max_n);
        out.push((format!("cycle-{n}/{seed}"), gen::cycle(n, seed, &m)));
        let n = rng.gen_range(2..=max_n);
        let mut star = LargeQuery::new(vec![RelInfo::new(1_000.0, 10.0); n]);
        for i in 1..n {
            star.add_edge(0, i, 1e-3);
        }
        out.push((format!("equal-star-{n}"), star));
    }
    out
}

/// A plan as its preorder `(relation or u32::MAX, rows bits, cost bits)`
/// nodes, so two plans compare equal only when every number is the same
/// bit for bit.
pub fn plan_bits(plan: &PlanTree) -> Vec<(u32, u64, u64)> {
    fn walk(p: &PlanTree, out: &mut Vec<(u32, u64, u64)>) {
        match p {
            PlanTree::Scan { rel, rows, cost } => out.push((*rel, rows.to_bits(), cost.to_bits())),
            PlanTree::Join {
                left,
                right,
                rows,
                cost,
            } => {
                out.push((u32::MAX, rows.to_bits(), cost.to_bits()));
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// A 64-bit FNV-1a digest of [`plan_bits`] (each number's little-endian
/// bytes), for pinning a plan in a test.
pub fn plan_digest(plan: &PlanTree) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, rows, cost) in plan_bits(plan) {
        for word in [rel as u64, rows, cost] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}
