//! The memo's hashed home slot, held to Murmur3's layout quality on the key
//! sets the planner lays out.
//!
//! A hashed memo (more than 15 relations and `2ⁿ > slots_for(entries)`)
//! starts a set's probe at the
//! top `log₂ slots` bits of `bitmap · 2⁶⁴/φ` (`memo::Addressing::home`):
//! one multiply. Multiply-shift is only universal in expectation, and
//! linear probing can degrade badly on structured keys under a weak hash,
//! and a connected-set family is structured. So this lays out, for every
//! named shape at n = 10…25 (dense shapes to 19 — 2ⁿ⁻¹ sets — and every
//! shape to 16 in a debug build) and for random connected graphs, each
//! set by linear probing from its multiply-shift home and from its Murmur3
//! home in the same number of slots. Multiply-shift must stay within
//! bounds calibrated from Murmur3 on the same sets:
//!
//! * probes per set at most 1.5× Murmur3's (the worst measured, snowflake-19
//!   of seed 2, is 1.40×), and over every query together no more than
//!   Murmur3's;
//! * the longest displacement at most 2 × Murmur3's + 2.
//!
//! `cargo test --release --test memo_addressing -- --nocapture` prints the
//! table DESIGN §4 "One lookup" quotes.

use mpdp::core::enumerate::ConnectedSets;
use mpdp::core::memo::{murmur3_fmix64, Addressing, MemoTable};
use mpdp::prelude::{LargeQuery, PgLikeCost, RelSet};
use mpdp_workload::{gen, ImdbSchema, MusicBrainz};
use proptest::prelude::*;

/// What laying a set family out by linear probing cost.
#[derive(Copy, Clone, Debug, Default)]
struct Layout {
    /// Slots read, one per set plus one per displacement step.
    probes: u64,
    /// The longest distance from a set's home slot to its slot.
    longest: u64,
}

/// Lays `sets` out in `slots` slots (a power of two), each by linear
/// probing from `home`, as both memo stores do.
fn lay_out(sets: &[RelSet], slots: usize, home: impl Fn(u64) -> usize) -> Layout {
    let mut keys = vec![0u64; slots];
    let mut out = Layout::default();
    for &set in sets {
        let (mut idx, mut steps) = (home(set.bits()), 0);
        while keys[idx] != 0 {
            idx = (idx + 1) & (slots - 1);
            steps += 1;
        }
        keys[idx] = set.bits();
        out.probes += steps + 1;
        out.longest = out.longest.max(steps);
    }
    out
}

/// Both layouts of `q`'s connected sets in a hashed table (a universe of any
/// 64 relations, so stars and cliques hash too), checked against the
/// bounds; returns `(sets, multiply-shift, Murmur3)`.
fn check(name: &str, q: &LargeQuery) -> (usize, Layout, Layout) {
    let qi = q.to_query_info().unwrap();
    let plan = ConnectedSets::enumerate(&qi);
    let sets = plan.sets.len();
    let at = Addressing::for_universe(64, sets);
    assert!(!at.is_direct());
    let mask = at.slots() - 1;
    let ms = lay_out(&plan.sets, at.slots(), |b| at.home(b));
    let mur = lay_out(&plan.sets, at.slots(), |b| {
        murmur3_fmix64(b) as usize & mask
    });
    if sets <= 1 << 16 {
        // The stores lay out by exactly this walk from exactly this home.
        let table = MemoTable::laid_out(64, &plan.sets, &plan.rows);
        assert_eq!(table.health().probes, ms.probes, "{name}");
    }
    let per_set = |l: Layout| l.probes as f64 / sets as f64;
    println!(
        "{name:<14} {sets:>9} sets {:>9} slots | Murmur3 {:.3}/set, longest {:>3} | multiply-shift {:.3}/set, longest {:>3}",
        at.slots(),
        per_set(mur),
        mur.longest,
        per_set(ms),
        ms.longest,
    );
    assert!(
        2 * ms.probes <= 3 * mur.probes,
        "{name}: {:.3} probes per set against Murmur3's {:.3}",
        per_set(ms),
        per_set(mur)
    );
    assert!(
        ms.longest <= 2 * mur.longest + 2,
        "{name}: longest displacement {} against Murmur3's {}",
        ms.longest,
        mur.longest
    );
    (sets, ms, mur)
}

#[test]
fn multiply_shift_lays_named_shapes_out_like_murmur3() {
    let m = PgLikeCost::new();
    let (mb, job) = (MusicBrainz::new(), ImdbSchema::new());
    let top = if cfg!(debug_assertions) { 16 } else { 25 };
    let (mut ms, mut mur) = (Layout::default(), Layout::default());
    for n in (10..=top).step_by(3) {
        let mut queries = vec![
            (format!("chain-{n}"), gen::chain(n, 1, &m)),
            (format!("cycle-{n}"), gen::cycle(n, 1, &m)),
            (
                format!("random-{n}"),
                gen::random_connected(n, n / 3, n as u64, &m),
            ),
        ];
        for seed in 1..=2 {
            queries.push((
                format!("snowflake-{n}/{seed}"),
                gen::snowflake(n, 4, seed, &m),
            ));
            queries.push((
                format!("mb-{n}/{seed}"),
                mb.random_walk_query(n, seed, true, &m),
            ));
            queries.push((format!("job-{n}/{seed}"), job.query(n, seed, &m)));
        }
        if n <= 19 {
            queries.push((format!("star-{n}"), gen::star(n, 1, &m)));
            queries.push((format!("clique-{n}"), gen::clique(n, 1, &m)));
        }
        for (name, q) in &queries {
            let (_, a, b) = check(name, q);
            ms.probes += a.probes;
            ms.longest += a.longest;
            mur.probes += b.probes;
            mur.longest += b.longest;
        }
    }
    println!(
        "all: multiply-shift {} probes, Σ longest {}; Murmur3 {} probes, Σ longest {}",
        ms.probes, ms.longest, mur.probes, mur.longest
    );
    assert!(ms.probes <= mur.probes && ms.longest <= mur.longest);
}

#[test]
fn the_plan_exact_grid_lays_out_in_fewer_probes() {
    // The twelve queries of the benchmark's `plan-exact` grid as generated;
    // the seven whose memo hashes take fewer probes on 6 of them. (`job-12`
    // has 12 relations, so its memo is direct.)
    let m = PgLikeCost::new();
    let (mb, job) = (MusicBrainz::new(), ImdbSchema::new());
    let hashed = [
        ("snowflake-16", gen::snowflake(16, 4, 1, &m)),
        ("snowflake-20", gen::snowflake(20, 4, 7, &m)),
        ("mb-16", mb.random_walk_query(16, 7, true, &m)),
        ("mb-18", mb.random_walk_query(18, 12, true, &m)),
        ("job-17", job.query(17, 8, &m)),
        ("cycle-18", gen::cycle(18, 1, &m)),
        ("chain-20", gen::chain(20, 1, &m)),
    ];
    let mut fewer = 0;
    for (name, q) in &hashed {
        let n = q.rels.len();
        let (sets, ms, mur) = check(name, q);
        assert!(!Addressing::for_universe(n, sets).is_direct(), "{name}");
        fewer += (ms.probes < mur.probes) as usize;
    }
    assert_eq!(fewer, 6);
    let job12 = job.query(12, 7, &m);
    let sets = ConnectedSets::enumerate(&job12.to_query_info().unwrap())
        .sets
        .len();
    assert!(Addressing::for_universe(12, sets).is_direct(), "job-12");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multiply_shift_lays_random_graphs_out_like_murmur3(
        params in (10usize..=16, 0usize..=5, any::<u64>())
    ) {
        let (n, extra, seed) = params;
        let q = gen::random_connected(n, extra, seed, &PgLikeCost::new());
        check(&format!("random-{n}+{extra}"), &q);
    }
}
