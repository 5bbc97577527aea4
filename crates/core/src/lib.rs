//! # mpdp-core
//!
//! Core substrates for the MPDP join-order-optimization workspace, a
//! from-scratch Rust reproduction of *"Efficient Massively Parallel Join
//! Optimization for Large Queries"* (SIGMOD 2022).
//!
//! This crate hosts everything the DP algorithms and heuristics share:
//!
//! * [`bitset::RelSet`] — 64-bit bitmap relation sets (exact-DP regime);
//! * [`bigset::BigSet`] — dynamic bitmaps (heuristic regime, 1000+ relations);
//! * [`combinatorics`] — Gosper iteration, binomials, `pdep`;
//! * [`enumerate`] — every connected set once, with its cardinality (the
//!   level plan of every exact DP backend);
//! * [`fingerprint`] — query canonicalization + 128-bit fingerprints, the
//!   key function of the whole-query plan cache in the facade;
//! * [`graph::JoinGraph`] — join graphs, connectivity, the §3.2.1 `grow`
//!   function;
//! * [`blocks`] — Hopcroft–Tarjan biconnected components of induced
//!   subgraphs (MPDP's block decomposition);
//! * [`query`] — [`query::QueryInfo`] / [`query::LargeQuery`] problem
//!   descriptions and sub-problem projection;
//! * [`memo::MemoTable`] — the open-addressing memo of §5 (multiply-shift
//!   where the paper uses Murmur3, or the set's own bitmap where every
//!   subset has a slot: [`memo::Addressing`]), the one memo of every DP
//!   backend, written by one writer through `&mut`; a parallel job's
//!   participants price from its read-only [`memo::MemoView`];
//! * [`plan::PlanTree`] — join trees, validation, memo extraction;
//! * [`counters`] — `EvaluatedCounter` / `CCP-Counter` instrumentation and
//!   per-level profiles;
//! * [`faults`] — seeded, deterministic fault injection points for the
//!   serving stack's chaos tests (no-ops when unarmed);
//! * [`sync`] — poison-recovering lock helpers, so a panic-isolated worker
//!   doesn't cascade into every later holder of its locks.

#![warn(missing_docs)]

pub mod bigset;
pub mod bitset;
pub mod blocks;
pub mod combinatorics;
pub mod counters;
pub mod enumerate;
pub mod error;
pub mod faults;
pub mod fingerprint;
pub mod graph;
pub mod memo;
pub mod plan;
pub mod query;
pub mod ring;
pub mod sync;

pub use bigset::BigSet;
pub use bitset::RelSet;
pub use blocks::{find_blocks, BlockDecomposition};
pub use counters::{CacheCounters, CacheSnapshot, Counters, ExecCounters, LevelStats, Profile};
pub use enumerate::ConnectedSets;
pub use error::OptError;
pub use faults::{FaultAction, FaultPlan, Faults};
pub use fingerprint::{
    canonicalize, canonicalize_calls, CanonicalQuery, Canonicalized, Fingerprint,
};
pub use graph::{Edge, JoinGraph};
pub use memo::{MemoEntry, MemoHealth, MemoTable};
pub use plan::{extract_plan, PlanTree};
pub use query::{LargeEdge, LargeQuery, QueryInfo, RelInfo};
pub use ring::HashRing;
