#!/usr/bin/env bash
# Run `cargo test -q --release <args>` and fail unless it ran at least one
# test. libtest passes a name filter that matches nothing ("0 passed ... ok",
# exit 0), so a renamed or deleted test would silently drop out of a
# name-filtered step.
#
# Usage: scripts/test_filtered.sh -p <package> --lib <filter>
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(cargo test -q --release "$@" 2>&1) || { printf '%s\n' "$out"; exit 1; }
printf '%s\n' "$out"
if ! grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    echo "test_filtered: no test ran for: cargo test --release $*" >&2
    exit 1
fi
