#!/usr/bin/env bash
# The one benchmark command. Builds the benchmark package (offline, path
# dependencies only) and runs it:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--traced]
#       every workload, each in a fresh child process; prints
#       `workload metric value unit` per metric, writes benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result JSON
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR (as the benchmark driver sets) is relative to
# the caller's directory; cargo and the path below must agree on it.
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export MPDP_BENCH_DIR="$here"
# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/mpdp-benchmark" "$@"
