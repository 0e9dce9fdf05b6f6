#!/usr/bin/env bash
# Prints the two sizes ROADMAP.md says must go down: non-test Rust lines
# per crate with the workspace total, and the length of the public API
# dump.
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (code, comments and blanks alike — the rule is meant to be re-countable
# by hand, not precise).  Counted trees: `crates/*/src`, `src/`,
# `shims/*/src`; integration tests, examples and `benchmarks/` are not.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src src shims/*/src -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 {
        counting = 1
        n = split(FILENAME, part, "/")
        crate = (part[1] == "src") ? "src (facade)" : part[1] "/" part[2]
        if (!(crate in lines)) order[++crates] = crate
    }
    /^[ \t]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[crate]++; total++ }
    END {
        for (i = 1; i <= crates; i++) printf "%7d  %s\n", lines[order[i]], order[i]
        printf "%7d  non-test Rust lines, workspace total\n", total
    }
'
printf '%7d  docs/api-surface.txt lines\n' "$(wc -l < docs/api-surface.txt)"
