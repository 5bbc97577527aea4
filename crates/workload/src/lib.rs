//! # mpdp-workload
//!
//! Workload generators reproducing the paper's evaluation inputs:
//!
//! * [`gen`] — synthetic star / snowflake / chain / cycle / clique / random
//!   join graphs with PK–FK statistics (§7.2.1);
//! * [`musicbrainz`] — the 56-table MusicBrainz schema topology and the
//!   random-walk query generator (§7.2.2);
//! * [`job`] — a JOB-like suite over an IMDB-like schema (§7.2.4);
//! * [`stream`] — Zipf-distributed, permutation-relabeling query streams
//!   for the serving-layer workloads (`benchmark/`, `repro trace`).
//!
//! All generators are deterministic given a seed.

#![warn(missing_docs)]

pub mod gen;
pub mod job;
pub mod musicbrainz;
pub mod stream;

pub use gen::{chain, clique, cycle, random_connected, snowflake, star};
pub use job::ImdbSchema;
pub use musicbrainz::MusicBrainz;
pub use stream::{StreamSpec, ZipfStream};
