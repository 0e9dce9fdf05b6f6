#!/usr/bin/env bash
# Lists the public items no other crate needs: the declarations that still
# build when narrowed from `pub` to `pub(crate)`.
#
#   scripts/narrow-probe.sh [scratch-dir]     (default: target/narrow-probe)
#
# Works on a copy of the tree under <scratch-dir>/tree and never edits the
# checkout.  Every `pub fn/struct/enum/trait/type/const/static` line of the
# non-test code under `src/` and `crates/*/src` (the declarations
# `scripts/api-surface.sh` dumps, less what stands after a file's
# `#[cfg(test)]` cut) becomes `pub(crate)`.  Then, each round, it runs
#
#   cargo clippy --workspace --all-targets --offline --keep-going \
#       -- -D warnings -A dead_code
#
# on the copy (the lints `make clippy` denies, less the dead code a
# narrowing is meant to expose) and `cargo check --all-targets` inside its
# `benchmarks/` crate, and puts `pub` back on every narrowed declaration
# an error points to: through the error's spans (the "defined here" notes
# of E0603/E0624, the private type of `private_interfaces`), or, when no
# span lands on one, through the names the message quotes (E0364/E0365
# re-exports, an unresolved import, a glob re-export that lost an item,
# the private `is_empty` of `clippy::len_without_is_empty`).  The name
# fallback reverts every declaration of that name (all the `new`s, say),
# so the list is a lower bound.  Once both checks are clean, a round runs
# the doc examples (`cargo test --doc --workspace`) and treats the errors
# rustdoc prints the same way.  The rounds end when all three are clean;
# the declarations still narrowed are printed, one
# `<file>:<line>: <declaration>` a line, each marked `[listed]` when
# `docs/api-intended.txt` lists it.  A round that reverts nothing but
# still fails stops the probe with the diagnostics (exit 1).
#
# `cargo doc` does not run: a public doc that links to a narrowed item
# fails `make docs`, not this probe; such a link becomes plain code text
# when the item is narrowed.  The build directories under <scratch-dir>
# are kept, so a second run checks incrementally.
# Needs cargo, jq and perl; no network.  At exit the checkout's
# `git status --porcelain` must be what it was at the start.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$(pwd)
scratch=${1:-target/narrow-probe}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)
tree=$scratch/tree
before=$(git status --porcelain)

check_checkout() {
    if [ "$(git -C "$root" status --porcelain)" != "$before" ]; then
        echo "error: the checkout's git status changed during the probe" >&2
        exit 1
    fi
}
trap check_checkout EXIT

rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -xf - -C "$tree"
cd "$tree"

# The narrowed declarations: `<file> <line> <name>`, one a line.
decls=$scratch/decls
find src crates/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    /^[ \t]*#\[cfg\(test\)\]/ { nextfile }
    /^[ \t]*pub ((async |unsafe |const )*(fn|struct|enum|trait|type|const|static)[ (<])/ {
        rest = $0
        sub(/^[ \t]*pub ((async |unsafe )*(const )?(async |unsafe )*)?/, "", rest)
        sub(/^(fn|struct|enum|trait|type|const|static) +/, "", rest)
        match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
        print FILENAME, FNR, substr(rest, 1, RLENGTH)
    }
' > "$decls"
total=$(wc -l < "$decls")

# Sets each listed line's leading `pub ` to `pub(crate) ` ($1 = narrow) or
# back ($1 = widen); the lines come as `<file> <line>` on standard input.
rewrite() {
    local dir=$1
    sort -k1,1 -k2,2n | awk '{ lines[$1] = lines[$1] " " $2 } END { for (f in lines) print f lines[f] }' |
        while read -r file lines; do
            LINES=" $lines " DIR=$dir perl -i -pe '
                if (index($ENV{LINES}, " $. ") >= 0) {
                    if ($ENV{DIR} eq "narrow") { s/^(\s*)pub /$1pub(crate) / }
                    else { s/^(\s*)pub\(crate\) /$1pub / }
                }
                close ARGV if eof;
            ' "$file"
        done
}
awk '{ print $1, $2 }' "$decls" | rewrite narrow
narrowed=$scratch/narrowed
cp "$decls" "$narrowed"

# Every error of a check, one line each: the `<file>:<line>` of its spans
# (children included, relative to the tree), a tab, and the last path
# segment of every identifier or path its message quotes.

# From cargo's JSON messages; $1 prefixes the paths the benchmark crate
# reports relative to itself.
json_errors() {
    jq -r --arg tree "$tree/" --arg local "$1" '
        def rel: if startswith($tree) then ltrimstr($tree)
                 elif startswith("../") then sub("^(\\.\\./)+"; "")
                 elif startswith("/") then "" else $local + . end;
        select(.reason == "compiler-message") | .message | select(.level == "error")
        | ([.spans[], .children[].spans[] | (.file_name | rel) as $f | select($f != "")
            | range(.line_start; .line_end + 1) | "\($f):\(.)"] | join(" "))
          + "\t" + ([.message | scan("`([A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*)`")[0]
                     | split("::") | last] | join(" "))'
}

# From the text rustdoc prints for doc examples that do not compile.
text_errors() {
    awk -v tree="$tree/" '
        function flush() { if (open) print spans "\t" names; open = 0; spans = names = "" }
        /^error/ {
            flush()
            if ($0 !~ /^error(\[E[0-9]+\])?: / || $0 ~ /^error: (aborting|could not compile|doctest failed|test failed|[0-9]+ target)/) next
            open = 1
            rest = $0
            while (match(rest, /`[A-Za-z_][A-Za-z0-9_:]*`/)) {
                name = substr(rest, RSTART + 1, RLENGTH - 2)
                sub(/.*::/, "", name)
                names = names " " name
                rest = substr(rest, RSTART + RLENGTH)
            }
            next
        }
        open && /^ *(-->|:::) / {
            loc = $2
            sub(/:[0-9]+$/, "", loc)
            if (index(loc, tree) == 1) loc = substr(loc, length(tree) + 1)
            spans = spans " " loc
        }
        END { flush() }'
}

# The narrowed declarations the errors on standard input point to, as
# `<file> <line>`: those a span lands on, or, for an error whose spans
# land on none, those of a quoted name.
pointed_to() {
    awk 'NR == FNR { key[$1 ":" $2] = $1 " " $2; named[$3] = named[$3] $1 " " $2 "\n"; next }
         {
             split($0, part, "\t")
             n = split(part[1], spans, " ")
             found = 0
             for (i = 1; i <= n; i++) if (spans[i] in key) { print key[spans[i]]; found = 1 }
             if (found) next
             m = split(part[2], names, " ")
             for (i = 1; i <= m; i++) if (names[i] in named) printf "%s", named[names[i]]
         }' "$narrowed" -
}

# Runs `cargo <verb> <args>` with JSON messages into $raw.  A check that
# fails without an error diagnostic (no toolchain, a missing dependency)
# stops the probe.
raw=$scratch/check.raw
check() {
    local verb=$1
    shift
    cargo "$verb" --all-targets --offline --keep-going --message-format=json "$@" > "$raw" 2> "$raw.err" || true
    if ! grep -q '"reason":"build-finished","success":true' "$raw" &&
        ! grep -q '"level":"error"' "$raw"; then
        echo "error: cargo $verb $* failed without a diagnostic:" >&2
        cat "$raw.err" >&2
        exit 1
    fi
}

# The doc examples are consumers too: once both checks are clean, a round
# compiles and runs them (`cargo test --doc`), and the rounds go on until
# that is clean as well.
start=$(date +%s)
round=0
errors=$scratch/errors
while :; do
    round=$((round + 1))
    CARGO_TARGET_DIR=$scratch/target check clippy --workspace -- -D warnings -A dead_code
    json_errors "" < "$raw" > "$errors"
    (cd benchmarks && CARGO_TARGET_DIR=$scratch/target-bench check check)
    json_errors benchmarks/ < "$raw" >> "$errors"
    kind=check
    if [ ! -s "$errors" ]; then
        kind=doc
        doc_log=$scratch/doc.log
        if CARGO_TARGET_DIR=$scratch/target cargo test --doc --workspace --offline --no-fail-fast \
            > "$doc_log" 2>&1; then
            break
        fi
        text_errors < "$doc_log" > "$errors"
    fi
    hits=$scratch/hits
    pointed_to < "$errors" | sort -u > "$hits"
    if [ ! -s "$hits" ]; then
        echo "error: round $round ($kind) fails but points at no narrowed declaration:" >&2
        if [ $kind = doc ]; then tail -40 "$doc_log" >&2; else cat "$errors" >&2; fi
        exit 1
    fi
    rewrite widen < "$hits"
    awk 'NR == FNR { hit[$1 " " $2] = 1; next } !(($1 " " $2) in hit)' "$hits" "$narrowed" > "$narrowed.next"
    mv "$narrowed.next" "$narrowed"
    echo "round $round ($kind): $(wc -l < "$hits") declarations back to pub, $(wc -l < "$narrowed") still narrowed" >&2
done

listed=0
while read -r file line name; do
    decl=$(sed -n "${line}p" "$root/$file" | sed 's/^[ \t]*//')
    mark=
    if grep -q "^$file: $name — " "$root/docs/api-intended.txt"; then
        mark=' [listed]'
        listed=$((listed + 1))
    fi
    echo "$file:$line: $decl$mark"
done < "$narrowed"
echo "$(wc -l < "$narrowed") of $total declarations build as pub(crate), $listed of them listed in docs/api-intended.txt; $round rounds, $(( $(date +%s) - start )) s of checks"
