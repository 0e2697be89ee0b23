#!/usr/bin/env bash
# Benchmark driver: regenerates the headline experiment tables and writes
# machine-readable artifacts (BENCH_<id>.json) for tracking across commits.
#
#   scripts/bench.sh             # every table, E1-E21 -> BENCH_*.json in repo root
#   scripts/bench.sh OUTDIR      # artifacts under OUTDIR instead
#   scripts/bench.sh OUTDIR E12  # subset of experiments
#   scripts/bench.sh --check     # regenerate E1-E17 E21 (every table on the
#                                # simulated clock, ~40 s) and fail on any
#                                # difference from the checked-in BENCH_*.json
#   scripts/bench.sh --check E14 # check a subset
#
# The human-readable tables (plus each run's obs metrics report) stream to
# stdout; the JSON artifacts hold the same tables structurally. E18-E20 are
# wall-clock benches on real files: they default to the OS temp dir, and
# honor ARGUS_BENCH_DIR (point it at /dev/shm for tmpfs or at a real disk).
# The two default lists below must name every experiment the binary has
# (argus-bench's unit tests compare them with its registry).

set -euo pipefail
cd "$(dirname "$0")/.."

# The check is exact: same code, same seeds, same simulated clock give the
# same cells. Only columns whose header says "wall" (E15 and E17 carry one)
# are skipped; E18-E20 are wall-clock tables and are not checked at all.
if [[ "${1:-}" == "--check" ]]; then
    shift
    experiments=("$@")
    if [[ ${#experiments[@]} -eq 0 ]]; then
        experiments=(E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17 E21)
    fi
    echo "==> checking BENCH_<id>.json of ${experiments[*]} against a fresh run"
    exec cargo run -q --release --offline -p argus-bench --bin experiments -- \
        --check . "${experiments[@]}" >/dev/null
fi

outdir="${1:-.}"
shift || true
experiments=("$@")
if [[ ${#experiments[@]} -eq 0 ]]; then
    experiments=(E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16 E17 E18 E19 E20 E21)
fi

mkdir -p "$outdir"
echo "==> experiments ${experiments[*]} -> $outdir/BENCH_<id>.json"
cargo run -q --release --offline -p argus-bench --bin experiments -- \
    --json-dir "$outdir" "${experiments[@]}"

for e in "${experiments[@]}"; do
    f="$outdir/BENCH_${e^^}.json"
    [[ -f "$f" ]] && echo "wrote $f"
done
