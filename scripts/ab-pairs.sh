#!/usr/bin/env bash
# Interleaved A/B pairs of one benchmark workload on two checkouts.
#
#   scripts/ab-pairs.sh <parent-checkout> <change-checkout> <workload> <pairs>
#
# Builds each checkout's `benchmarks/` crate into that checkout's own
# `benchmarks/target`, then runs <pairs> pairs of contract runs
# (`benchmarks/run.sh --workload W --seed N --trace 0`), seed = pair index,
# alternating which side goes first.  Every run lasts the contract's
# `run_seconds`: there is no shorter setting, so a reported pair is always at
# the length the benchmark is judged at.  Prints, per end-to-end metric, each
# side's median and quartiles and the pairs each side won (a tie counts for
# neither) and the pairs whose two `sim_digest`s differ (the simulated
# results of one seed; a host-side change must leave it at 0).  Exits 1 when
# any run on either side reports a failed operation, an incorrect result or
# no result at all.
#
# bash + awk only; reads the JSON line each run prints and the digest in the
# `benchmarks/out/last-<workload>.json` it leaves behind.
set -euo pipefail

if [ $# -ne 4 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4

for side in "$parent" "$change"; do
    echo "building $side/benchmarks" >&2
    (cd "$side" && CARGO_TARGET_DIR=benchmarks/target \
        cargo build --release --offline --quiet --manifest-path benchmarks/Cargo.toml) >&2
done

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

# One contract run; appends `<side> <pair> <metric> <value>` rows, plus a
# `failed` pseudo-metric that is non-zero for a failed op or a bad run.
run_side() {
    local side=$1 dir=$2 pair=$3 line
    line=$(bash "$dir/benchmarks/run.sh" --workload "$workload" --seed "$pair" \
        --trace 0 2>/dev/null | tail -n 1) || line=""
    printf '%s\n' "$line" | awk -v side="$side" -v pair="$pair" '
        {
            failed = 1
            if ($0 ~ /"correct": *true/ && match($0, /"failed": *[0-9]+/)) {
                failed = substr($0, RSTART, RLENGTH)
                sub(/.*: */, "", failed)
            }
            print side, pair, "failed", failed
            rest = $0
            while (match(rest, /"[a-z0-9_]+": *\{"value": *[-0-9.eE+]+/)) {
                item = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = item; sub(/^"/, "", name); sub(/".*/, "", name)
                value = item; sub(/.*"value": */, "", value)
                print side, pair, name, value
            }
        }' >> "$rows"
    line=$(grep -o '"sim_digest": *"[^"]*"' "$dir/benchmarks/out/last-$workload.json" 2>/dev/null | head -n 1) || line=""
    echo "$side $pair sim_digest ${line##*: }" >> "$rows"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$change" "$pair"
    else
        run_side change "$change" "$pair"
        run_side parent "$parent" "$pair"
    fi
    echo "pair $pair/$pairs done" >&2
done

# "higher is better" for the rates, lower for everything else (the contract's
# `better` field, BENCHMARK.json).
awk -v workload="$workload" -v pairs="$pairs" '
    function quantile(v, n, q,    pos, lo, frac) {
        pos = (n - 1) * q; lo = int(pos); frac = pos - lo
        return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
    }
    function summary(side, m,    n, i, j, t, v) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[++n] = val[side, i, m]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
            t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
        }
        if (n == 0) return "        -        -        -"
        return sprintf("%9.4g %9.4g %9.4g", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    $3 == "sim_digest" { digest[$1, $2] = $4; next }
    {
        val[$1, $2, $3] = $4
        if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
        if ($3 == "failed" && $4 != 0) bad[$1]++
    }
    END {
        printf "%s, %d pairs (order alternated, seed = pair index)\n", workload, pairs
        printf "%-14s %-6s %9s %9s %9s   %s\n", "metric", "side", "median", "q1", "q3", "wins"
        for (k = 1; k <= nm; k++) {
            m = order[k]
            if (m == "failed") continue
            higher = (m ~ /_per_s$/)
            wp = wc = 0
            for (i = 1; i <= pairs; i++) {
                if (!(("parent", i, m) in val) || !(("change", i, m) in val)) continue
                p = val["parent", i, m]; c = val["change", i, m]
                if (p == c) continue
                if ((c > p) == higher) wc++; else wp++
            }
            printf "%-14s %-6s %s   %d\n", m, "parent", summary("parent", m), wp
            printf "%-14s %-6s %s   %d\n", m, "change", summary("change", m), wc
        }
        for (i = 1; i <= pairs; i++) if (digest["parent", i] != digest["change", i]) differ++
        printf "pairs whose sim_digest differs: %d\n", differ
        printf "runs with a failed op or no valid result: parent %d, change %d\n", bad["parent"], bad["change"]
        exit (bad["parent"] + bad["change"] > 0)
    }' "$rows"
