#!/usr/bin/env bash
# Builds the service (mhp-server, mhp-agg) from the workspace release
# profile and the benchmark package, then runs the benchmark:
#
#   bash perfbench/run.sh --workload stream|sessions|fleet --seed N \
#        --seconds S --trace 0|1
#   bash perfbench/run.sh spread --workload W --seeds 1-10 --seconds S
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); logs and spans of the last run of each workload
# go to .bench_run/<workload>/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mhp-server -p mhp-agg --bins 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
