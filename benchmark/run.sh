#!/usr/bin/env bash
# Builds the benchmark offline and runs it; see benchmark/README.md.
#   benchmark/run.sh                 every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke | --repeat N | --compare A.json B.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export ARGUS_BENCH_REV="${ARGUS_BENCH_REV:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/argus-benchmark" "$@"
