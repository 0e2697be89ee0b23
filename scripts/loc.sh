#!/usr/bin/env bash
# Lines of Rust per crate, outside and inside `#[cfg(test)]` — the number
# ROADMAP's "net lines changed is reported per PR" is read from — and each
# crate's largest file by non-test lines. A file's unit tests are everything
# from its first `#[cfg(test)]` line on; a `src/tests.rs` is the body of a
# `#[cfg(test)] mod tests;` and is test code from its first line.
#
#   scripts/loc.sh            # every crate under crates/
#   scripts/loc.sh core shadow

set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [[ ${#crates[@]} -eq 0 ]]; then
    crates=($(ls crates))
fi

printf '%-10s %9s %7s %7s  %s\n' crate non-test test total 'largest non-test file'
for c in "${crates[@]}"; do
    awk -v crate="$c" '
        FNR == 1 { t = (FILENAME ~ /\/tests\.rs$/) }
        /^#\[cfg\(test\)\]/ { t = 1 }
        { if (t) test++; else { code++; if (++file[FILENAME] > most) { most = file[FILENAME]; big = FILENAME } } }
        END {
            sub(".*/", "", big)
            printf "%-10s %9d %7d %7d  %s %d\n", crate, code, test, code + test, big, most
        }
    ' "crates/$c"/src/*.rs
done
wc -l crates/guardian/src/world.rs crates/guardian/src/guardian.rs |
    awk 'END { printf "world.rs + guardian.rs %d\n", $1 }'
