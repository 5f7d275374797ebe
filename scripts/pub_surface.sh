#!/usr/bin/env bash
# List every `pub fn` under crates/*/src that nothing but tests calls, and
# fail when one appears that scripts/pub_surface.allow does not name
# (public API that only tests use is a second statement of something, kept
# alive by the tests written for it).
#
# Grep-level on purpose (no cargo-udeps offline). A `pub fn NAME` counts as
# called where non-test code calls it or names it by path: `NAME(`,
# `NAME::<` or `::NAME` (a method call `.NAME(`, a path call `Type::NAME(`,
# a fn passed by path as in `.and_then(Type::NAME)`). A free `pub fn`, one
# defined at column 0, also counts where it is passed bare as an argument
# (`map(NAME)`). A field, a local or a `fn NAME` definition of the same name
# is not a call, and nor is an import (`use` and `pub use`: a re-export is
# not a caller) or a name inside a one-line string or char literal
# (`"NAME() needs ..."`). Non-test code is crates/*/src up to each file's
# first top-level `#[cfg(test)]` (every test module in this tree sits at the
# end of its file), plus src/, examples/ and benchmark/src/. Not callers:
# `#[cfg(test)]` modules, crates/*/tests and tests/. A common name (`new`,
# `len`) still finds a namesake method, so the check under-reports; what it
# does report is real.
#
# An allowlisted name must still have a caller somewhere, tests included
# (`#[cfg(test)]` modules, crates/*/tests, tests/, benchmark/tests): a
# `pub fn` that nothing calls at all is dead code, not a test-only API, and
# fails the check until it is deleted.
#
# Usage: scripts/pub_surface.sh [--list]
#   --list   print every test-only `pub fn` as the allowlist spells it
#            (path:name) and exit 0; use it to refresh the allowlist.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-}" <<'EOF'
import collections, glob, re, sys

NAME = r"([A-Za-z_][A-Za-z0-9_]*)"
DEF = re.compile(r"\bpub\s+(?:const\s+)?fn\s+" + NAME)
ANY_DEF = re.compile(r"\bfn\s+[A-Za-z_][A-Za-z0-9_]*")
CALL = re.compile(NAME + r"\s*(?:\(|::<)")
PATH = re.compile(r"::\s*" + NAME)
ARG = re.compile(r"[(,]\s*&?" + NAME + r"\s*(?=[),])")
STRING = re.compile(r"'(?:[^'\\]|\\.)'|\"(?:[^\"\\]|\\.)*\"")  # char and string literals

uses = collections.Counter()  # non-test code
all_uses = collections.Counter()  # tests too
args = []  # (in_test, word) for bare arguments; they count for free fns only
free = set()  # names of `pub fn`s defined at column 0
defs = []  # (path, name)
globs = ("crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs",
         "crates/*/tests/**/*.rs", "tests/**/*.rs", "benchmark/tests/**/*.rs")
paths = [p for pat in globs for p in sorted(glob.glob(pat, recursive=True))]
for path in paths:
    in_use = False
    in_test = "/tests/" in path or path.startswith("tests/")
    for line in open(path, encoding="utf-8"):
        in_test |= line.startswith("#[cfg(test)]")
        code = STRING.sub('""', line).split("//", 1)[0]
        in_use |= code.lstrip().startswith(("use ", "pub use "))
        if in_use:
            in_use = ";" not in code
            continue
        if path.startswith("crates/") and not in_test:
            defined = DEF.findall(code)
            defs += [(path, name) for name in defined]
            if not line[0].isspace():
                free.update(defined)
        code = ANY_DEF.sub("", code)
        args += [(in_test, word) for word in ARG.findall(code)]
        for word in CALL.findall(code) + PATH.findall(code):
            all_uses[word] += 1
            uses[word] += not in_test
for in_test, word in args:
    if word in free:
        all_uses[word] += 1
        uses[word] += not in_test

found = sorted({f"{path}:{name}" for path, name in defs if uses[name] == 0})
if sys.argv[1] == "--list":
    print("\n".join(found))
    sys.exit(0)

allowed = {line.split("#", 1)[0].strip() for line in open("scripts/pub_surface.allow")} - {""}
new = [f for f in found if f not in allowed]
stale = sorted(allowed - set(found))
dead = sorted(f for f in allowed & set(found) if all_uses[f.rsplit(":", 1)[1]] == 0)
for f in new:
    print(f"pub_surface: {f} has no caller outside tests: delete it, demote it, "
          "or add it to scripts/pub_surface.allow with a reason")
for f in stale:
    print(f"pub_surface: {f} is allowlisted but gone or called: drop it from scripts/pub_surface.allow")
for f in dead:
    print(f"pub_surface: {f} has no caller at all, tests included: delete it")
print(f"pub_surface: {len(defs)} pub fns, {len(found)} test-only, {len(new)} not allowlisted, "
      f"{len(stale)} stale, {len(dead)} uncalled")
sys.exit(1 if new or stale or dead else 0)
EOF
