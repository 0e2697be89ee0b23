#!/usr/bin/env bash
# Static gates: clippy with warnings denied, rustfmt drift, and the one
# architectural rule a grep can hold. Offline — both tools ship with the
# pinned toolchain. Called from scripts/verify.sh;
# run directly for a faster loop while fixing findings.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo clippy -q --offline --workspace --all-targets -- -D warnings
run cargo fmt --check

# A guardian runs its own protocol: the world routes, forces and applies
# effects, and names no two-phase-commit machine, effect or continuation.
if grep -nE 'Coordinator::|Participant::|CoordEffect|PartEffect|StagedOp' \
    crates/guardian/src/world.rs; then
    echo "lint: world.rs reaches into the protocol — that belongs in Guardian::step" >&2
    exit 1
fi

echo "lint: OK"
