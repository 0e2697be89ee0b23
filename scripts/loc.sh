#!/usr/bin/env bash
# Lines of Rust per crate, outside and inside `#[cfg(test)]` — the number
# ROADMAP's "net lines changed is reported per PR" is read from — each
# crate's largest file by non-test lines, and the bytes of the three
# documents. Every `.rs` file under a crate's `src/` counts, binaries
# included; the root package's `src/` is the row `argus`. A file's unit
# tests are everything from its first `#[cfg(test)]` line on; a `tests.rs`
# is the body of a `#[cfg(test)] mod tests;` and is test code from its first
# line.
#
#   scripts/loc.sh            # every crate under crates/, argus, then the documents
#   scripts/loc.sh core shadow argus
#   scripts/loc.sh --check    # fail if a crate's non-test lines or a document's
#                             # bytes grew more than 2 % past LOC.json
#   scripts/loc.sh --write    # re-baseline LOC.json (give the reason in CHANGES.md)

set -euo pipefail
cd "$(dirname "$0")/.."

docs=(DESIGN.md EXPERIMENTS.md README.md)

# Every crate's name: the ones under crates/, then the root package.
crates() {
    ls crates
    echo argus
}

# One crate's source directory.
src() {
    if [[ $1 == argus ]]; then echo src; else echo "crates/$1/src"; fi
}

# One crate's counts: non-test lines, test lines, largest non-test file and
# its non-test lines.
count() {
    find "$(src "$1")" -name '*.rs' | sort | xargs awk '
        FNR == 1 { t = (FILENAME ~ /\/tests\.rs$/) }
        /^#\[cfg\(test\)\]/ { t = 1 }
        { if (t) test++; else { code++; if (++file[FILENAME] > most) { most = file[FILENAME]; big = FILENAME } } }
        END { sub(".*/", "", big); print code + 0, test + 0, big, most + 0 }
    '
}

# The gated rows, one `name value` a line: each crate's non-test lines,
# then each document's bytes.
rows() {
    for c in $(crates); do
        read -r code _ < <(count "$c")
        echo "$c $code"
    done
    for d in "${docs[@]}"; do
        echo "$d $(wc -c < "$d")"
    done
}

case "${1:-}" in
--write)
    rows | awk '
        BEGIN { print "{" }
        { printf "%s  \"%s\": %d", (NR > 1 ? ",\n" : ""), $1, $2 }
        END { print "\n}" }
    ' > LOC.json
    echo "wrote LOC.json"
    ;;
--check)
    # LOC.json holds one `"name": value` a line.
    rows | awk -v band=0.02 '
        FNR == NR {
            if (match($0, /"[^"]+": *[0-9]+/)) {
                split(substr($0, RSTART, RLENGTH), kv, /": */)
                base[substr(kv[1], 2)] = kv[2]
            }
            next
        }
        !($1 in base) { printf "loc: %s has no row in LOC.json\n", $1; bad = 1; next }
        $2 > base[$1] * (1 + band) {
            printf "loc: %s grew %d -> %d, past LOC.json by more than %d %%\n", $1, base[$1], $2, band * 100
            bad = 1
        }
        $2 < base[$1] { printf "loc: %s shrank %d -> %d (--write keeps the gain)\n", $1, base[$1], $2 }
        END {
            if (bad) {
                print "loc: re-baseline with scripts/loc.sh --write and give the reason in CHANGES.md"
                exit 1
            }
            print "loc: every row is within its band of LOC.json"
        }
    ' LOC.json -
    ;;
*)
    crates=("$@")
    if [[ ${#crates[@]} -eq 0 ]]; then
        crates=($(crates))
    fi
    printf '%-14s %9s %7s %7s  %s\n' crate non-test test total 'largest non-test file'
    for c in "${crates[@]}"; do
        read -r code test big most < <(count "$c")
        printf '%-14s %9d %7d %7d  %s %d\n' "$c" "$code" "$test" $((code + test)) "$big" "$most"
    done
    if [[ $# -eq 0 ]]; then
        for d in "${docs[@]}"; do
            printf '%-14s %9d bytes\n' "$d" "$(wc -c < "$d")"
        done
    fi
    wc -l crates/guardian/src/world.rs crates/guardian/src/guardian.rs |
        awk 'END { printf "world.rs + guardian.rs %d\n", $1 }'
    ;;
esac
