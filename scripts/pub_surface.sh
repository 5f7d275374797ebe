#!/usr/bin/env bash
# List every `pub fn` under crates/*/src that nothing but tests calls, and
# fail when one appears that scripts/pub_surface.allow does not name
# (public API that only tests use is a second statement of something, kept
# alive by the tests written for it).
#
# Grep-level on purpose (no cargo-udeps offline). A `pub fn NAME` counts as
# called when the word NAME occurs anywhere in non-test code other than on a
# line that defines a `pub fn NAME` or inside a `pub use` (a re-export is not
# a caller). Non-test code is crates/*/src up to each file's first top-level
# `#[cfg(test)]` (every test module in this tree sits at the end of its
# file), plus src/, examples/ and benchmark/src/. Not callers: `#[cfg(test)]`
# modules, crates/*/tests and tests/. Common names
# (`new`, `len`) always find a namesake, so the check under-reports; what it
# does report is real.
#
# Usage: scripts/pub_surface.sh [--list]
#   --list   print every test-only `pub fn` as the allowlist spells it
#            (path:name) and exit 0; use it to refresh the allowlist.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-}" <<'EOF'
import collections, glob, itertools, re, sys

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEF = re.compile(r"\bpub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")

uses = collections.Counter()
defs = []  # (path, name)
paths = [p for pat in ("crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs")
         for p in sorted(glob.glob(pat, recursive=True))]
for path in paths:
    in_reexport = False
    non_test = itertools.takewhile(lambda l: not l.startswith("#[cfg(test)]"), open(path, encoding="utf-8"))
    for line in non_test:
        code = line.split("//", 1)[0]
        in_reexport |= code.startswith("pub use ")
        if in_reexport:
            in_reexport = ";" not in code
            continue
        defined = DEF.findall(code) if path.startswith("crates/") else []
        defs += [(path, name) for name in defined]
        for word in WORD.findall(code):
            uses[word] += 1
        for name in defined:
            uses[name] -= 1

found = sorted({f"{path}:{name}" for path, name in defs if uses[name] == 0})
if sys.argv[1] == "--list":
    print("\n".join(found))
    sys.exit(0)

allowed = {line.split("#", 1)[0].strip() for line in open("scripts/pub_surface.allow")} - {""}
new = [f for f in found if f not in allowed]
stale = sorted(allowed - set(found))
for f in new:
    print(f"pub_surface: {f} has no caller outside tests: delete it, demote it, "
          "or add it to scripts/pub_surface.allow with a reason")
for f in stale:
    print(f"pub_surface: {f} is allowlisted but gone or called: drop it from scripts/pub_surface.allow")
print(f"pub_surface: {len(defs)} pub fns, {len(found)} test-only, {len(new)} not allowlisted, {len(stale)} stale")
sys.exit(1 if new or stale else 0)
EOF
