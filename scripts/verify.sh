#!/usr/bin/env bash
# Offline tier-1 gate: everything a clean checkout must pass with no network.
#
#   scripts/verify.sh          # build + default test suite
#   scripts/verify.sh --full   # + property suites, benches, experiments smoke
#   scripts/verify.sh --sweep  # + bounded deterministic crash-schedule sweep
#   scripts/verify.sh --trace  # + trace selftest (determinism, I12, flight)
#   scripts/verify.sh --vopr   # + seeded fault-composition batch + selftest
#   scripts/verify.sh --scale  # + 64-shard sharded-world smoke + many-guardian vopr
#   scripts/verify.sh --wall   # + wall-clock file-backed bench smoke (E18/E19)
#   scripts/verify.sh --bench  # + benchmark/run.sh --smoke (every workload, metric names)
#
# The workspace has zero external dependencies, so --offline is enforced —
# any accidental registry dependency fails here rather than in CI.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run scripts/lint.sh
run cargo build --release --offline
run cargo test -q --offline
run cargo test -q --offline --features proptest
# The benchmark judge (benchmark/, its own workspace) compiles against the
# crates' public names — `argus_core::{LogEntry, encode_entry,
# encode_entry_into, decode_entry_view}`, `World::dump_log` — and nothing
# above builds it: type-check it here so a reshaped name fails tier-1, not
# the judge.
run cargo check -q --offline --manifest-path benchmark/Cargo.toml
# Bench smoke: tiny E12/E13/E14 asserting group-commit batching never
# increases forces per commit, the page cache hits during recovery, and the
# contended lock mix completes without a hang under every concurrency-control
# policy with blocking mode breaking at least one deadlock (cc.deadlocks > 0).
run cargo run -q --release --offline -p argus-bench --bin experiments -- --smoke

if [[ "${1:-}" == "--full" ]]; then
    # The unit tests inside crates/* (three quarters of the suite): the root
    # package's `cargo test` above does not run them.
    run cargo test -q --offline --workspace --no-fail-fast
    run cargo build --offline --benches -p argus-bench
    # The checked-in simulated-clock tables (BENCH_E1-E17, E21) must be what
    # this tree generates, cell for cell: a change that moves a simulated
    # device operation, a force, a poll or a deadlock shows up here, and each
    # experiment asserts the ordering its claim makes as it runs.
    run scripts/bench.sh --check
    # Lines of Rust per crate, outside and inside #[cfg(test)]: the figures a
    # PR's CHANGES.md line reports before and after. Non-test lines per crate
    # and the documents' bytes may not grow past LOC.json's band.
    run scripts/loc.sh
    run scripts/loc.sh --check
fi

# Bounded crash-schedule sweep: a deterministic slice of the full matrix
# (crash at each of the first 6 write indices per victim, plus a strided
# second crash during recovery, for every organization/cache/media cell).
# Any counterexample — an illegal recovered state or a lint violation —
# makes argus-lint exit non-zero and fails the gate. The exhaustive sweep
# is `argus-lint sweep --double` (also run by experiment E15).
if [[ "${1:-}" == "--sweep" || "${1:-}" == "--full" ]]; then
    run cargo run -q --release --offline --bin argus-lint -- sweep --double --stride 7 --max 6
fi

# Trace tier: the seeded 3-guardian 2PC smoke workload must pass the I12
# structural trace lint, export byte-identical Chrome JSON across two runs
# of the same seed, and round-trip through the flight recorder.
if [[ "${1:-}" == "--trace" || "${1:-}" == "--full" ]]; then
    run cargo run -q --release --offline --bin argus-lint -- trace --selftest
fi

# VOPR tier: a seeded randomized fault-composition batch over every recovery
# organization (drops, duplication, delay, partitions, pauses, decay, crashes
# composed in one schedule) must come back violation-free, and the selftest
# must prove the detection path end to end — a planted impossible oracle
# expectation is caught, replays byte-identically, and dumps a flight
# schedule. Any violation makes argus-lint exit non-zero and fails the gate.
if [[ "${1:-}" == "--vopr" || "${1:-}" == "--full" ]]; then
    for kind in simple hybrid shadow redo; do
        run cargo run -q --release --offline --bin argus-lint -- \
            vopr --seed 1 --seeds 16 --iterations 64 --kind "$kind"
    done
    run cargo run -q --release --offline --bin argus-lint -- vopr --selftest
fi

# Scale tier: the sharded many-guardian world. The 64-shard zipfian
# cross-shard mix must complete on every log organization, conserve its
# oracles (total balance; seats vs. committed reservations), and quiesce
# clean under the full I1–I12 lint on every shard's log — then the VOPR
# composes its fault schedules on 8- and 16-guardian worlds instead of the
# default 3.
if [[ "${1:-}" == "--scale" || "${1:-}" == "--full" ]]; then
    run cargo run -q --release --offline -p argus-bench --bin experiments -- --scale-smoke
    run cargo run -q --release --offline --bin argus-lint -- \
        vopr --seed 1 --seeds 8 --iterations 64 --guardians 8
    run cargo run -q --release --offline --bin argus-lint -- \
        vopr --seed 9 --seeds 4 --iterations 64 --guardians 16
fi

# Wall tier: the group-commit claim against a real file with real fsyncs
# (asserted by --wall-smoke), then a small E18/E19/E20; E20 asserts the
# instant-restart claims (on-demand time-to-first-commit far below the
# full-scan restarts, parallel makespan falling with workers) as it runs.
# Their JSON goes to a scratch directory: the tracked BENCH_E18-E20.json hold
# one machine's wall clock and are re-baselined on purpose (scripts/bench.sh),
# never by a gate run. Runs on tmpfs when available so a slow CI disk cannot
# dominate; override the location with ARGUS_BENCH_DIR.
if [[ "${1:-}" == "--wall" || "${1:-}" == "--full" ]]; then
    if [[ -z "${ARGUS_BENCH_DIR:-}" && -d /dev/shm && -w /dev/shm ]]; then
        export ARGUS_BENCH_DIR=/dev/shm
    fi
    run cargo run -q --release --offline -p argus-bench --bin experiments -- --wall-smoke
    wall_json="$(mktemp -d)"
    run cargo run -q --release --offline -p argus-bench --bin experiments -- \
        --json-dir "$wall_json" E18 E19 E20
    rm -rf "$wall_json"
fi

# Bench tier: the repository's benchmark (BENCHMARK.json, benchmark/) must
# still build against the crates' public functions and pass its own smoke —
# every workload on all four organizations with the output checks on, and
# every metric name and unit BENCHMARK.json declares present (~5 s of runs
# after the build).
if [[ "${1:-}" == "--bench" || "${1:-}" == "--full" ]]; then
    run bash benchmark/run.sh --smoke
fi

echo "verify: OK"
