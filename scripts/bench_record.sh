#!/usr/bin/env bash
# Record the criterion micro-bench numbers that track the TPP fast path —
# switch_forward/{plain,tpp}_packet plus the tcpu_exec groups (reference
# interpreter, in-place executor, staged pipeline) — the fabric_scale
# sweep (single-threaded Network vs sharded tpp-fabric on a k=8 fat-tree),
# and the reconfig group (runtime reconfiguration-event throughput plus a
# digest-pinned churn cell).
#
# scripts/bench_gate.py diffs a run of this script against the committed
# per-PR baseline on the hot paths (switch_forward/tpp_packet, matrix_cell
# wall_ms) and fails on a >25% regression; CI runs it in override
# (warn-only) mode on smoke medians.
#
# Usage:
#   scripts/bench_record.sh [OUTPUT.json]        # default: bench_run.json
#
# Environment:
#   TPP_BENCH_ITERS   when set, bounds criterion warm-up/measurement windows
#                     (CI smoke mode; see vendor/criterion).
#   BENCH_LABEL       label stored in the JSON (default: "current").
#
# Output: a JSON object mapping benchmark names to median ns/iter, plus one
# evaluation-matrix cell (eval_matrix --cell) under "matrix_cell", e.g.
#   {"schema":1,"label":"current","benches":{...},"matrix_cell":{...}}
#
# The committed per-PR baseline (e.g. BENCH_pr2.json) embeds two such runs
# under "baseline" (pre-PR) and "current" (post-PR).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-bench_run.json}"
LABEL="${BENCH_LABEL:-current}"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Stderr (cargo progress, and any build/bench error) stays on the console
# so CI failures are diagnosable; only the result lines land in $RAW.
cargo bench -p tpp-bench --bench pipeline | tee -a "$RAW"
cargo bench -p tpp-bench --bench tcpu_exec | tee -a "$RAW"
# Fabric scaling: single-threaded Network vs tpp-fabric at 2/4 shards on a
# k=8 fat-tree (digest equality is asserted inside the bench).
cargo bench -p tpp-bench --bench fabric_scale | tee -a "$RAW"
# Runtime reconfiguration throughput: route and link reconfig events
# through the scheduler, plus a rerouting link-flap churn cell under load
# (digest-pinned).
cargo bench -p tpp-bench --bench reconfig | tee -a "$RAW"

# One evaluation-matrix cell through the Scenario API: the fat_tree4:uniform
# workload at 2 shards (digest equality vs the single-threaded reference is
# asserted inside eval_matrix for multi-shard cells run via the sweep; here
# we record the cell JSON itself). The last stdout line is the cell object.
CELL_JSON="$(cargo run -p tpp-bench --release --bin eval_matrix -- --cell fat_tree4:uniform:2 | tail -n 1)"

# Lines look like:
#   switch_forward/tpp_packet   time: [246.4 ns 268.2 ns 321.6 ns] thrpt: ...
# Field layout after splitting: name time: [min min_unit median median_unit ...
awk -v label="$LABEL" -v cell="$CELL_JSON" '
function to_ns(v, u) {
    if (u ~ /^ns/) return v;
    if (u ~ /^µs/ || u ~ /^us/) return v * 1e3;
    if (u ~ /^ms/) return v * 1e6;
    if (u ~ /^s/)  return v * 1e9;
    return v;
}
/time: \[/ {
    name = $1;
    for (i = 2; i <= NF; i++) {
        if ($i == "time:") {
            med = to_ns($(i + 3) + 0, $(i + 4));
            n++;
            names[n] = name;
            medians[n] = med;
            break;
        }
    }
}
END {
    printf "{\n  \"schema\": 1,\n  \"label\": \"%s\",\n  \"benches\": {\n", label;
    for (i = 1; i <= n; i++) {
        printf "    \"%s\": {\"median_ns\": %s}%s\n", names[i], medians[i], (i < n ? "," : "");
    }
    printf "  },\n  \"matrix_cell\": %s\n}\n", cell;
}' "$RAW" > "$OUT"

echo "wrote $OUT"
