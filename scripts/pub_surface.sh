#!/usr/bin/env bash
# List every `pub fn` under crates/*/src that nothing but tests calls, and
# fail when one appears that scripts/pub_surface.allow does not name
# (public API that only tests use is a second statement of something, kept
# alive by the tests written for it), or when one has no caller at all.
#
# The compiler resolves the calls, so two methods of the same name on two
# types are told apart. On a copy of the tree (never the checkout), every
# `pub fn` and `pub const fn` under crates/*/src above its file's first
# top-level `#[cfg(test)]` gets `#[deprecated(note = "<path>:<line>")]`.
# `cargo check --offline --all-targets` then runs on the workspace and on
# benchmark/, and each `deprecated` warning is one use of the function its
# note names, at the warning's primary span. A use is classified by where it
# sits:
#   - an import (`use`, `pub use`): no caller, a re-export calls nothing
#   - a test: a `#[cfg(test)]` item or module, crates/*/tests, tests/,
#     benchmark/tests
#   - a caller: everything else, src/, examples/ and benchmark/src included
# A `pub fn` with no caller is test-only if a test uses it, and uncalled if
# nothing does.
#
# Three rules fail the check: a test-only `pub fn` that the allowlist does
# not name, an allowlist entry that is no longer test-only, and an uncalled
# `pub fn`, allowlisted or not (dead code, not a test-only API).
#
# Usage: scripts/pub_surface.sh [--list]
#   --list   print every test-only `pub fn` as the allowlist spells it
#            (path:name) and exit 0; use it to refresh the allowlist.
# The copy and its build live under target/pub_surface (a few seconds on 2
# CPUs).
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "${1:-}" <<'EOF'
import collections, json, os, re, shutil, subprocess, sys

ROOT = os.getcwd()
WORK = os.path.join(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target")), "pub_surface")
TREE = os.path.join(WORK, "tree")
DEF = re.compile(r"^(\s*)pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
USE = re.compile(r"^(?:pub(?:\([a-z]+\))?\s+)?use\s")
STRING = re.compile(r"'(?:[^'\\]|\\.)'|\"(?:[^\"\\]|\\.)*\"")  # char and string literals


def is_test_path(path):
    parts = path.split("/")
    return parts[0] == "tests" or (len(parts) > 2 and parts[2] == "tests") \
        or path.startswith("benchmark/tests/")


def scan(lines):
    """Per line: the first top-level `#[cfg(test)]` (index), and the sets of
    lines inside an import and inside an indented `#[cfg(test)]` item."""
    first_test = len(lines)
    imports, tests = set(), set()
    in_use, skip, depth, opened = False, False, 0, False
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            first_test = i
            break
        code = STRING.sub('""', line).split("//", 1)[0]
        if skip:
            tests.add(i)
            depth += code.count("{") - code.count("}")
            opened |= "{" in code
            stripped = code.strip()
            if (opened and depth <= 0) or (not opened and stripped.endswith((";", ","))):
                skip = False
            continue
        if code.strip() == "#[cfg(test)]":
            skip, depth, opened = True, 0, False
            tests.add(i)
            continue
        in_use |= bool(USE.match(code.lstrip()))
        if in_use:
            imports.add(i)
            in_use = ";" not in code
    return first_test, imports, tests


def tracked_files():
    out = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                         check=True, capture_output=True).stdout
    return [p for p in out.decode().split("\0") if p and os.path.isfile(p)]


# Copy the tree, instrumenting every `pub fn` of crates/*/src.
shutil.rmtree(TREE, ignore_errors=True)
defs = {}  # "path:line" -> name
inserted = {}  # path -> sorted 1-based lines (in the copy) of inserted attributes
info = {}  # path -> scan() of the original lines
for path in tracked_files():
    dst = os.path.join(TREE, path)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    if not path.endswith(".rs"):
        shutil.copy2(path, dst)
        continue
    lines = open(path, encoding="utf-8").read().split("\n")
    info[path] = scan(lines)
    out = []
    if path.startswith("crates/") and "/src/" in path:
        first_test = info[path][0]
        for i, line in enumerate(lines):
            m = DEF.match(line) if i < first_test else None
            if m:
                key = f"{path}:{i + 1}"
                defs[key] = m.group(2)
                out.append(f'{m.group(1)}#[deprecated(note = "{key}")]')
                inserted.setdefault(path, []).append(len(out))
            out.append(line)
    else:
        out = lines
    open(dst, "w", encoding="utf-8").write("\n".join(out))


def original_line(path, line):
    return line - sum(1 for n in inserted.get(path, ()) if n <= line)


# Build both workspaces and collect every use of an instrumented fn.
env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(WORK, "target"),
           RUSTFLAGS="--cap-lints=warn")
kinds = collections.defaultdict(set)  # "path:line" -> the kinds of its uses
for ws in ("", "benchmark"):
    ws_root = os.path.join(TREE, ws)
    cmd = ["cargo", "check", "--offline", "--all-targets", "--message-format=json",
           "--manifest-path", os.path.join(ws_root, "Cargo.toml")]
    run = subprocess.run(cmd, cwd=TREE, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"pub_surface: cargo check failed in {ws or '.'}")
    for raw in run.stdout.splitlines():
        msg = json.loads(raw)
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        if (diag.get("code") or {}).get("code") != "deprecated":
            continue
        key = diag["message"].rsplit(": ", 1)[-1]
        if key not in defs:
            continue
        span = next(s for s in diag["spans"] if s["is_primary"])
        path = os.path.relpath(os.path.normpath(os.path.join(ws_root, span["file_name"])), TREE)
        line = original_line(path, span["line_start"]) - 1
        first_test, imports, tests = info[path]
        if line in imports:
            kind = "import"
        elif is_test_path(path) or line >= first_test or line in tests:
            kind = "test"
        else:
            kind = "example" if path.startswith("examples/") else "caller"
        kinds[key].add(kind)

callers = {key for key in defs if kinds[key] & {"caller", "example"}}
examples_only = {key for key in callers if "caller" not in kinds[key]}
test_only = {key for key in defs if key not in callers and "test" in kinds[key]}
uncalled = sorted(key for key in defs if key not in callers and key not in test_only)


def spelling(key):
    return f"{key.rsplit(':', 1)[0]}:{defs[key]}"


found = sorted({spelling(key) for key in test_only})
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
for key in uncalled:
    print(f"pub_surface: {key} {defs[key]} has no caller at all, tests included: delete it")
print(f"pub_surface: {len(defs)} pub fns, {len(uncalled)} uncalled, {len(test_only)} test-only "
      f"({len(found)} allowlist names), {len(examples_only)} called only from examples/; "
      f"{len(new)} not allowlisted, {len(stale)} stale")
sys.exit(1 if new or stale or uncalled else 0)
EOF
