#!/usr/bin/env bash
# A/B the repo benchmark (BENCHMARK.json, benchmark/) between the parent
# commit and the working tree, the way a perf claim has to be measured on a
# noisy container: both sides built from their own clean checkout into their
# own CARGO_TARGET_DIR, then N alternating pairs of runs of one workload,
# the side that runs first alternating too.
#
# Usage:
#   scripts/ab_bench.sh <workload> [--pairs N] [--seconds S] [--seeds a,b]
#
#   <workload>   a name from BENCHMARK.json (switch_plain, sim_dc, app_rcp, ...)
#   --pairs N    alternating parent/change pairs (default 10)
#   --seconds S  length of each run (default: BENCHMARK.json's run_seconds)
#   --seeds a,b  workload seeds; the pairs are split evenly over them in
#                order (default 1,5: the second half is a seed the change was
#                not written against)
#
# The parent is HEAD when the working tree has changes and HEAD~1 when it is
# clean (the change is already committed). The change is every tracked and
# untracked-but-not-ignored file of the working tree.
#
# Output: one line per run, then per side the median and quartiles of
# ops_per_s and setup_s, the pairs the change won on ops_per_s, whether every
# run was `correct` with 0 failed ops, and whether the two sides printed the
# same output_digest on every seed. The rule for a claimed gain
# (choosing-metrics section 8): the change wins at least nine tenths of the
# pairs and the medians differ by more than the parent's inter-quartile range.
#
# Environment:
#   AB_BENCH_DIR   scratch directory (default /root/scratch/ab_bench);
#                  checkouts, target directories and run logs live there.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
WORKLOAD="$1"
shift
PAIRS=10
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
SEEDS="1,5"
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) PAIRS="${2:?--pairs needs a count}"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="${2:?--seconds needs a number}"; shift 2 ;;
        --seeds) SEEDS="${2:?--seeds needs a list}"; shift 2 ;;
        *) usage ;;
    esac
done
python3 - "$WORKLOAD" <<'EOF' || exit 2
import json, sys
names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
if sys.argv[1] not in names:
    sys.exit(f"unknown workload {sys.argv[1]}; one of {', '.join(names)}")
EOF

SCRATCH="${AB_BENCH_DIR:-/root/scratch/ab_bench}"
if git diff --quiet HEAD && [ -z "$(git ls-files --others --exclude-standard)" ]; then
    PARENT=HEAD~1
else
    PARENT=HEAD
fi
echo "# parent $(git rev-parse --short "$PARENT"), change = working tree, scratch $SCRATCH"

# Two clean checkouts: what the driver measures is the committed files alone.
rm -rf "$SCRATCH/parent" "$SCRATCH/change"
mkdir -p "$SCRATCH/parent" "$SCRATCH/change" "$SCRATCH/logs"
git archive "$PARENT" | tar -x -C "$SCRATCH/parent"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -xf - -C "$SCRATCH/change"

for side in parent change; do
    echo "# building $side"
    (cd "$SCRATCH/$side" &&
        CARGO_TARGET_DIR="$SCRATCH/target-$side" \
            cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# One run of one side from its own checkout root; the log keeps every line.
run_side() { # side seed pair
    local log="$SCRATCH/logs/$WORKLOAD.$3.$1.log"
    (cd "$SCRATCH/$1" && "$SCRATCH/target-$1/release/tpp-benchmark" \
        --workload "$WORKLOAD" --seed "$2" --seconds "$SECONDS_PER_RUN" --trace 0) >"$log" 2>&1 ||
        echo "# $1 run failed, see $log" >&2
    echo "$log"
}

IFS=, read -r -a SEED_LIST <<<"$SEEDS"
RESULTS="$SCRATCH/logs/$WORKLOAD.results"
: >"$RESULTS"
for ((i = 0; i < PAIRS; i++)); do
    seed="${SEED_LIST[$((i * ${#SEED_LIST[@]} / PAIRS))]}"
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        log="$(run_side "$side" "$seed" "$i")"
        echo "$i $seed $side $log" >>"$RESULTS"
    done
    echo "# pair $i (seed $seed, $order) done"
done

python3 - "$RESULTS" <<'EOF'
import json, re, sys

runs = {}  # (pair, side) -> dict
for line in open(sys.argv[1]):
    pair, seed, side, log = line.split()
    text = open(log).read()
    last = text.strip().splitlines()[-1] if text.strip() else ""
    try:
        obj = json.loads(last)
    except ValueError:
        obj = {"correct": False, "attempted": 0, "failed": -1, "metrics": {}}
    digest = re.search(r"output_digest (0x[0-9a-f]+)", text)
    m = obj["metrics"]
    runs[(int(pair), side)] = {
        "seed": int(seed),
        "ops": m.get("ops_per_s", {}).get("value", float("nan")),
        "setup": m.get("setup_s", {}).get("value", float("nan")),
        "correct": obj["correct"],
        "failed": obj["failed"],
        "digest": digest.group(1) if digest else None,
    }
    r = runs[(int(pair), side)]
    print(f"pair {pair} seed {seed} {side:<6} ops_per_s {r['ops']:>14.1f}  setup_s {r['setup']:.4f}  "
          f"correct {r['correct']}  failed {r['failed']}  digest {r['digest']}")

def quartiles(v):
    v = sorted(v)
    def q(p):
        x = p * (len(v) - 1)
        lo = int(x)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (x - lo)
    return q(0.25), q(0.5), q(0.75)

pairs = sorted({p for p, _ in runs})
stats = {}
for metric in ("ops", "setup"):
    for side in ("parent", "change"):
        q1, med, q3 = quartiles([runs[(p, side)][metric] for p in pairs])
        stats[(metric, side)] = (q1, med, q3)
        name = {"ops": "ops_per_s", "setup": "setup_s"}[metric]
        print(f"{side:<6} {name:<9} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}")

wins = sum(runs[(p, "change")]["ops"] > runs[(p, "parent")]["ops"] for p in pairs)
losses = sum(runs[(p, "change")]["ops"] < runs[(p, "parent")]["ops"] for p in pairs)
pq1, pmed, pq3 = stats[("ops", "parent")]
_, cmed, _ = stats[("ops", "change")]
print(f"ops_per_s: change/parent median ratio {cmed / pmed:.3f}; change wins {wins} of {len(pairs)} pairs "
      f"(loses {losses}); median gap {cmed - pmed:.6g} vs parent IQR {pq3 - pq1:.6g}")
sq1, smed, sq3 = stats[("setup", "parent")]
print(f"setup_s:   change/parent median ratio {stats[('setup', 'change')][1] / smed:.3f}")
gain = wins * 10 >= len(pairs) * 9 and cmed - pmed > pq3 - pq1
print(f"gain by the nine-tenths and IQR rule: {gain}")

clean = all(r["correct"] and r["failed"] == 0 for r in runs.values())
print(f"every run correct with 0 failed ops: {clean}")
same = all(runs[(p, "parent")]["digest"] == runs[(p, "change")]["digest"] is not None for p in pairs)
print(f"output_digest equal on every pair: {same}")
sys.exit(0 if clean else 1)
EOF
