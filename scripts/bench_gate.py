#!/usr/bin/env python3
"""CI gate for hot-path benchmark regressions.

Compares a fresh bench_record.sh run against the committed per-PR
baseline (the "current" section of the newest BENCH_pr*.json) on the
hot paths that track the simulator's fast path:

  * switch_forward/tpp_packet       — per-packet TPP execution cost
  * matrix_cell wall_ms             — one end-to-end evaluation cell

A hot path that regresses by more than the threshold (default 25%)
fails the gate with exit 1. Criterion medians on a shared CI container
swing with machine state, so the gate is intentionally coarse: it exists
to catch order-of-magnitude mistakes (an accidentally quadratic loop, a
debug build sneaking into the bench flow), not single-digit drift.

  TPP_BENCH_GATE_OVERRIDE=1   downgrade failures to warnings (exit 0) —
                              for when a regression is understood and
                              accepted in the PR text.

Usage:
  scripts/bench_gate.py --baseline BENCH_pr8.json --run bench_run.json
  scripts/bench_gate.py --self-test

--self-test synthesizes a 30% regression (must fail) and a 10% one
(must pass) and exits 0 only if the gate judges both correctly.
"""

import argparse
import json
import os
import sys

DEFAULT_THRESHOLD = 0.25
HOT_PREFIXES = ("switch_forward/tpp_packet",)


def run_section(doc):
    """The single-run object: either the file IS one (bench_record.sh
    output) or it embeds one under "current" (committed baseline)."""
    return doc.get("current", doc)


def hot_paths(section):
    """name -> value for every gated series in a run section."""
    out = {}
    for name, rec in section.get("benches", {}).items():
        if name.startswith(HOT_PREFIXES):
            out[name] = float(rec["median_ns"])
    cell = section.get("matrix_cell")
    if cell and "wall_ms" in cell:
        out["matrix_cell/wall_ms"] = float(cell["wall_ms"])
    return out


def diff(base, run, threshold):
    """[(name, base, current, ratio, regressed)] for shared hot paths."""
    rows = []
    for name, b in sorted(base.items()):
        if name not in run or b <= 0:
            continue
        cur = run[name]
        ratio = cur / b
        rows.append((name, b, cur, ratio, ratio > 1.0 + threshold))
    return rows


def report(rows, threshold, override):
    regressed = [r for r in rows if r[4]]
    for name, b, cur, ratio, bad in rows:
        mark = "REGRESSED" if bad else "ok"
        print(f"  {name:<40} {b:>14.1f} -> {cur:>14.1f}  ({ratio:5.2f}x)  {mark}")
    if not rows:
        print("bench_gate: no shared hot paths between baseline and run", file=sys.stderr)
        return 1
    if regressed:
        msg = (
            f"bench_gate: {len(regressed)} hot path(s) regressed more than "
            f"{threshold:.0%} vs the committed baseline"
        )
        if override:
            print(f"WARNING (override): {msg}", file=sys.stderr)
            return 0
        print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print(f"bench_gate: all {len(rows)} hot paths within {threshold:.0%} of baseline")
    return 0


def self_test(threshold):
    base = {
        "benches": {
            "switch_forward/tpp_packet": {"median_ns": 400.0},
            "switch_forward/plain_packet": {"median_ns": 200.0},  # not gated
        },
        "matrix_cell": {"wall_ms": 40},
    }

    def scaled(factor):
        return {
            "benches": {
                name: {"median_ns": rec["median_ns"] * factor}
                for name, rec in base["benches"].items()
            },
            "matrix_cell": {"wall_ms": base["matrix_cell"]["wall_ms"] * factor},
        }

    print("# self-test: synthetic 30% regression (expect FAIL)")
    bad = report(diff(hot_paths(base), hot_paths(scaled(1.30)), threshold), threshold, False)
    print("# self-test: synthetic 10% drift (expect pass)")
    ok = report(diff(hot_paths(base), hot_paths(scaled(1.10)), threshold), threshold, False)
    print("# self-test: 30% regression with override (expect warning, pass)")
    ovr = report(diff(hot_paths(base), hot_paths(scaled(1.30)), threshold), threshold, True)
    if bad == 1 and ok == 0 and ovr == 0:
        print("bench_gate self-test: ok")
        return 0
    print(
        f"bench_gate self-test: FAILED (30%% -> {bad}, 10%% -> {ok}, override -> {ovr})",
        file=sys.stderr,
    )
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed BENCH_pr*.json")
    ap.add_argument("--run", help="fresh bench_record.sh output")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    override = os.environ.get("TPP_BENCH_GATE_OVERRIDE") == "1"

    if args.self_test:
        sys.exit(self_test(args.threshold))
    if not args.baseline or not args.run:
        ap.error("--baseline and --run are required (or use --self-test)")
    with open(args.baseline) as f:
        base = hot_paths(run_section(json.load(f)))
    with open(args.run) as f:
        run = hot_paths(run_section(json.load(f)))
    sys.exit(report(diff(base, run, args.threshold), args.threshold, override))


if __name__ == "__main__":
    main()
