#!/usr/bin/env bash
# Where one of the repo benchmark's workloads spends its time, on a container
# with no `perf` and no PMU: build `sim_profile`
# (crates/bench/src/bin/sim_profile.rs) with line tables, let it sample the
# workload's timed slices under a SIGPROF timer, and fold the samples into
# shares per function.
#
# Usage:
#   scripts/profile.sh [target] [seconds]
#
#   target   a workload name of the benchmark (`BENCHMARK.json`): sim_dc
#            (default), sim_wan_x2, app_rcp, switch_plain, switch_tpp_hot,
#            switch_tpp_cold or endhost_shim. It is set up as the benchmark
#            sets it up at seed 1, output check included.
#   seconds  host time spent running slices, default 10 (slice sizes differ
#            by workload; the kernel tick caps sampling near 250 samples per
#            CPU second)
#
# Output: the workload's slice, op and failure counts, its output digest
# (the one `--smoke` prints) and the sample counts, then two tables of the
# 25 largest rows.
# `self` is the share of samples whose innermost frame is the function;
# `inclusive` the share whose inline chain holds it anywhere. Only the
# instruction pointer is sampled, so "inclusive" reaches as far up as the
# compiler inlined: under LTO that is most of the hot loop, but a callee
# that was *not* inlined is not charged to its caller. Without `addr2line`
# the script stops after writing the raw samples.
#
# Environment:
#   PROFILE_DIR   build and output directory (default target/profile, which
#                 .gitignore covers); the samples land in samples.txt there.
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-sim_dc}"
DURATION="${2:-10}"
DIR="${PROFILE_DIR:-target/profile}"
mkdir -p "$DIR"

# `debug = 1` adds line tables and inline records without changing the code
# generated; its own target directory keeps the ordinary release cache warm.
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$DIR" \
    cargo build --release --offline --quiet -p tpp-bench --bin sim_profile
BIN="$DIR/release/sim_profile"

"$BIN" "$TARGET" "$DURATION" >"$DIR/samples.txt"
echo "# samples: $DIR/samples.txt"
if ! command -v addr2line >/dev/null; then
    echo "# addr2line not found: resolve with \`addr2line -a -f -i -C -e $BIN < $DIR/samples.txt\`"
    exit 0
fi

# -a prints each address before its inline chain (innermost frame first, a
# function line and a file:line line per frame), which delimits the groups.
addr2line -a -f -i -C -e "$BIN" <"$DIR/samples.txt" |
    python3 -c '
import collections, re, sys

chains, chain = [], None
lines = iter(sys.stdin.read().splitlines())
for line in lines:
    if re.fullmatch(r"0x[0-9a-f]+", line):
        chain = []
        chains.append(chain)
    else:
        # Drop the hash suffix and generic arguments: one row per function.
        name = re.sub(r"::h[0-9a-f]{16}$", "", line)
        chain.append(re.sub(r"<[^<>]*>", "", name) if name != "??" else "[unresolved]")
        next(lines)  # file:line

self_n = collections.Counter(c[0] for c in chains)
incl_n = collections.Counter(f for c in chains for f in set(c))
total = len(chains)
for title, counts in (("inclusive", incl_n), ("self", self_n)):
    print(f"\n{title:>9}  samples  function  ({total} samples)")
    for name, n in counts.most_common(25):
        print(f"{100 * n / total:8.1f}%  {n:7d}  {name}")
'
