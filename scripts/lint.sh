#!/usr/bin/env bash
# Static gates: clippy with warnings denied, rustfmt drift, and the two
# architectural rules a grep can hold. Offline — both tools ship with the
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

# A lock wait costs the waiter, not the world: the deadlock search derives
# edges only for the actions it visits from the parker. The whole wait-for
# graph (and the holder snapshot of every queue it needed) lives on only as
# the test oracle. Test code is exempt, as below.
if awk '
    FNR == 1 { t = (FILENAME ~ /\/tests\.rs$/) }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /wait_for_edges\(|WaitForGraph::new|cc_holder_snapshot/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    END { exit !hit }
' crates/{guardian,cc}/src/*.rs; then
    echo "lint: the whole wait-for graph is built outside test code — use argus_cc::DeadlockSearch" >&2
    exit 1
fi

# Tables on the commit and recovery paths are keyed by integers the program
# hands out itself and hash them as integers (`argus_sim::hash`). Crates that
# keep the default hasher on purpose — string keys, explorer states — are
# not listed. Test code (from a file's first `#[cfg(test)]` on, and
# `src/tests.rs`) is exempt, as in scripts/loc.sh.
if awk '
    FNR == 1 { t = (FILENAME ~ /\/tests\.rs$/) }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /HashMap::new\(\)|HashSet::new\(\)|RandomState/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    END { exit !hit }
' crates/{guardian,core,objects,shadow,stable,slog,cc}/src/*.rs; then
    echo "lint: default-hasher table in a hot crate — use argus_sim::{IntMap, IntSet}" >&2
    exit 1
fi

# Hybrid housekeeping digests the log through recovery's own walk and restore
# rules (`walk_chain`, `RecoverCtx`); what survives a pass is decided there.
# Its non-test code keeps no participant or coordinator table and reads no
# participant state, so it cannot grow a second copy of those rules back.
if awk '
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /ParticipantTable|CoordinatorTable|PState::/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    END { exit !hit }
' crates/core/src/housekeeping.rs; then
    echo "lint: housekeeping.rs restates the restore rules — digest through RecoverCtx" >&2
    exit 1
fi

# Every trace event is named once, in the `argus_trace::Kind` catalogue: a
# record call outside the trace crate passes a kind, never a category or
# name string (on the call's line or the line after its open parenthesis).
if awk '
    FNR == 1 { prev = "" }
    /\.(instant|complete|begin|flow_start|flow_end)\([[:space:]]*"/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    prev ~ /\.(instant|complete|begin|flow_start|flow_end)\($/ && /^[[:space:]]*"/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    { prev = $0 }
    END { exit !hit }
' $(find crates src tests examples -name '*.rs' -not -path 'crates/trace/*'); then
    echo "lint: a trace event named by a string — add it to argus_trace::Kind" >&2
    exit 1
fi

# Every metric is named once, in the `argus_obs::{Count, Hist}` catalogue:
# code records by row, and only tests and the benchmark (its own package,
# not scanned) name one by string. A string literal passed to a registry
# call (on the call's line or the line after its open parenthesis) outside
# `crates/obs` and test code — as above, from a file's first `#[cfg(test)]`
# on, `tests.rs` and `tests/` — is rejected.
if awk '
    FNR == 1 { t = (FILENAME ~ /\/tests\.rs$|\/tests\//); prev = "" }
    /^#\[cfg\(test\)\]/ { t = 1 }
    !t && /(^|[^A-Za-z0-9_])(counter|histogram|inc|add|observe|timer|phase)\([[:space:]]*"/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    !t && prev ~ /(^|[^A-Za-z0-9_])(counter|histogram|inc|add|observe|timer|phase)\($/ && /^[[:space:]]*"/ { print FILENAME ":" FNR ": " $0; hit = 1 }
    { prev = $0 }
    END { exit !hit }
' $(find crates src examples -name '*.rs' -not -path 'crates/obs/*'); then
    echo "lint: a metric named by a string — record by its argus_obs::Count or Hist row" >&2
    exit 1
fi

# One oracle: a client-observed fate and the I11 heap pass are stated once,
# in `argus_check::standing` over a `Ledger`. Every harness records its
# actions there and calls it, so no checker grows its own copy back. The
# linter defines I11 and `tests/check_violations.rs` seeds its violations.
if grep -nE 'enum Fate\b|lint_heap_quiesced\(' $(find crates src tests examples -name '*.rs' \
    -not -path crates/check/src/lint.rs -not -path crates/check/src/ledger.rs \
    -not -path tests/check_violations.rs); then
    echo "lint: a second oracle or heap pass — record a check::Ledger and call check::standing" >&2
    exit 1
fi

# One row per action: a guardian keeps what it knows of an action in its
# one `actions` map, the world in its one `live` map, so every forget site
# removes one row and a restart clears one map. Another field keyed by
# action id in either file is rejected.
if grep -nE '^[[:space:]]*(pub(\(crate\))? )?[a-z_]+: (IntMap<ActionId|IntSet<ActionId|Vec<\(ActionId)' \
    crates/guardian/src/guardian.rs crates/guardian/src/world.rs |
    grep -vE '^crates/guardian/src/(guardian\.rs:[0-9]+: +pub\(crate\) actions: IntMap<ActionId, LocalAction>|world\.rs:[0-9]+: +pub\(crate\) live: IntMap<ActionId, LiveAction>),$'; then
    echo "lint: a second per-action table — fold it into the file's one row map" >&2
    exit 1
fi

echo "lint: OK"
