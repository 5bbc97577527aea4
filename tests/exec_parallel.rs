//! Property: probe-phase parallelism is observationally invisible.
//!
//! The executor's contract (DESIGN.md §10) is determinism by construction —
//! each worker owns a contiguous morsel range and a private output buffer,
//! and buffers merge in worker order (= morsel order). So execution at any
//! worker count must produce **byte-identical output columns** and
//! identical per-join observed selectivities to the sequential path, for
//! arbitrary connected catalogs — including deliberately skewed edges,
//! where morsels differ wildly in match counts and a scheduling-dependent
//! merge would scramble row order first.

// Explicit imports (not the facade prelude glob): both `mpdp::prelude` and
// `proptest::prelude` export a `Strategy` trait, and the glob-glob collision
// would make either unusable.
use mpdp::exec::{materialize, ExecConfig, Executor, GenConfig, SkewedEdge};
use mpdp_cost::PgLikeCost;
use mpdp_heuristics::Goo;
use mpdp_workload::gen;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_execution_is_bit_identical(
        case in (2usize..=6, 0usize..=3, any::<u64>(), any::<bool>())
    ) {
        let (n, extra, seed, skewed) = case;
        let m = PgLikeCost::new();
        let q = gen::random_connected(n, extra, seed, &m);
        // Optionally skew the first edge hard: 40% of both sides' rows
        // collapse onto one hot key, so one morsel can carry thousands of
        // matches while its neighbours carry none — the adversarial case
        // for any merge that isn't strictly morsel-ordered.
        let skew = if skewed {
            let e = &q.edges[0];
            vec![SkewedEdge { u: e.u, v: e.v, hot_fraction: 0.4 }]
        } else {
            Vec::new()
        };
        let data = materialize(
            &q,
            &GenConfig {
                seed: seed ^ 0xA5A5,
                max_table_rows: 2_000,
                skew,
                ..Default::default()
            },
            &m,
        );
        // GOO keeps planning cheap; which plan runs is irrelevant to the
        // property (the oracle tests cover plan-shape agreement).
        let planned = Goo::run(&data.scaled, &m, None).unwrap();
        let run = |workers: usize| {
            Executor::new(
                &data.scaled,
                &data,
                ExecConfig { workers, batch: 128, ..Default::default() },
            )
            .execute_with_result(&planned.plan)
        };
        // A cap abort must abort identically at every worker count; the
        // comparisons below only apply to completed runs.
        match run(1) {
            Ok((base_report, base_rows)) => {
                for workers in [2usize, 8] {
                    let (report, rows) = run(workers).unwrap();
                    // Byte-identical output columns, rowid for rowid.
                    prop_assert_eq!(
                        &rows, &base_rows,
                        "output columns diverged at {} workers (n={}, seed={}, skewed={})",
                        workers, n, seed, skewed
                    );
                    prop_assert_eq!(report.root_rows, base_report.root_rows);
                    prop_assert_eq!(&report.counters, &base_report.counters);
                    // Identical per-join observations — bitwise, so the
                    // feedback path (`PlanService::observe`) can never see
                    // the worker count.
                    prop_assert_eq!(report.joins.len(), base_report.joins.len());
                    for (jp, js) in report.joins.iter().zip(&base_report.joins) {
                        prop_assert_eq!(
                            jp.observed_sel.to_bits(),
                            js.observed_sel.to_bits(),
                            "observed selectivity of {:?}⋈{:?} diverged at {} workers",
                            jp.left, jp.right, workers
                        );
                        prop_assert_eq!(jp.output, js.output);
                        prop_assert_eq!(jp.inputs, js.inputs);
                    }
                    // Stats rows (minus wall time) are identical too.
                    let strip: fn(&mpdp::exec::ExecStats) -> (u64, u64, u64, u64, u64) =
                        |s| (s.rels.bits(), s.build_rows, s.probe_rows, s.output_rows, s.batches);
                    let a: Vec<_> = report.stats.iter().map(strip).collect();
                    let b: Vec<_> = base_report.stats.iter().map(strip).collect();
                    prop_assert_eq!(a, b);
                }
            }
            Err(e) => {
                for workers in [2usize, 8] {
                    prop_assert!(
                        run(workers).is_err(),
                        "sequential run aborted ({}) but {} workers succeeded",
                        e, workers
                    );
                }
            }
        }
    }
}
