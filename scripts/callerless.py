#!/usr/bin/env python3
"""List `pub` items of crates/*/src that no other Rust file names.

For every `pub fn|struct|enum|trait|type|const|static` above a file's
test module (its first top-level `#[cfg(test)]` that introduces a
`mod`), count the other `.rs` files of the
repository (vendor/ and target/ excluded, benchmark/, examples/ and tests
included) that contain the item's name as a word. An item no other file
names is printed with a tag: `own-file` when the defining file uses it
outside its unit tests, `tests-only-or-none` when only those tests do (or
nothing does). The match is by name, so an item whose name another item
shares is never reported; read those by hand.

With --check the script exits 1 if a `tests-only-or-none` item is not in
KEEP below, so that code nothing calls cannot grow back unnoticed.

With --loc it prints instead the non-test lines of crates/*/src per crate
and in total: every line of a file above its test module, the same cut
the sweep uses. A `#[cfg(test)]` helper above the test module counts.

    python3 scripts/callerless.py [--check | --loc] [REPO_ROOT]
"""
import os
import re
import sys

# `tests-only-or-none` items kept on purpose, each with its reason.
KEEP = {
    "with_attachments": "§II attachment points",
    "choose_attachment": "§II attachment points",
    "owners_at": "§II attachment points",
    "paper_120": "the paper's 120-attribute schema, for ROADMAP item 11",
}

args = sys.argv[1:]
CHECK = "--check" in args
LOC = "--loc" in args
args = [a for a in args if a not in ("--check", "--loc")]
ROOT = args[0] if args else "."
SKIP = {"target", "vendor", ".git"}
GENERIC = {"new", "default", "fmt", "from", "main"}
ITEM = re.compile(
    r"^\s*pub\s+(?:const\s+fn|fn|struct|enum|trait|type|const|static)\s+([A-Za-z_]\w*)",
    re.M,
)
WORD = re.compile(r"[A-Za-z_]\w*")

files = []
for dirpath, dirnames, filenames in os.walk(ROOT):
    dirnames[:] = [d for d in dirnames if d not in SKIP]
    files += [os.path.join(dirpath, f) for f in filenames if f.endswith(".rs")]
text = {f: open(f, encoding="utf-8").read() for f in files}
CRATE_SRC = re.compile(r"/crates/([^/]+)/src/")


# A top-level `#[cfg(test)]` whose item, after any further attributes,
# is a module.
TEST_MOD = re.compile(
    r"^#\[cfg\(test\)\](?:\s*#\[[^\]]*\])*\s*(?:pub(?:\([^)]*\))?\s+)?mod\s", re.M
)


def test_cut(body):
    """Offset of a file's test module, or its end."""
    tests = TEST_MOD.search(body)
    return tests.start() if tests else len(body)


if LOC:
    lines = {}
    for f in files:
        crate = CRATE_SRC.search(f)
        if crate:
            n = text[f].count("\n", 0, test_cut(text[f]))
            lines[crate.group(1)] = lines.get(crate.group(1), 0) + n
    for crate in sorted(lines):
        print(f"crates/{crate}\t{lines[crate]}")
    print(f"total\t{sum(lines.values())}")
    sys.exit(0)

mentions = {}
for f, body in text.items():
    for w in set(WORD.findall(body)):
        mentions.setdefault(w, set()).add(f)

found = 0
unexpected = []
for f in sorted(f for f in files if CRATE_SRC.search(f)):
    body = text[f]
    cut = test_cut(body)
    for m in ITEM.finditer(body, 0, cut):
        name = m.group(1)
        if name in GENERIC or mentions.get(name, set()) - {f}:
            continue
        uses = [u.start() for u in re.finditer(rf"\b{name}\b", body[:cut])]
        tag = "own-file" if any(u != m.start(1) for u in uses) else "tests-only-or-none"
        line = body.count("\n", 0, m.start()) + 1
        print(f"{os.path.relpath(f, ROOT)}:{line}\t{name}\t{tag}")
        found += 1
        if tag == "tests-only-or-none" and name not in KEEP:
            unexpected.append(name)
print(f"{found} items no other file names", file=sys.stderr)
if CHECK and unexpected:
    print(f"callerless: not in KEEP: {', '.join(unexpected)}", file=sys.stderr)
    sys.exit(1)
