#!/usr/bin/env bash
# Committed mutants: the bugs we found stay found. Each
# scripts/mutants/NNN-name.patch breaks the program the way a past bug
# did, and its header names the test command that must catch it:
#
#   # must-fail: cargo test -q -p roads-core --lib engine::tests::the_entrys_route_names_each_server_once
#
# For every patch under scripts/mutants/ the script applies it to a
# throwaway git worktree of HEAD, builds the named test, runs it, and
# requires it to fail. It fails itself when a patch no longer applies or
# no longer compiles (re-port the mutant, or retire it in CHANGES.md with
# the reason), when its header names no `cargo test` command, and when the
# named test passes (the mutant survived: the test that caught the bug no
# longer does).
#
#   scripts/mutants.sh
#
# All mutants share one worktree, reset and cleaned between patches, and
# one CARGO_TARGET_DIR, so after the first build each costs an incremental
# build of the crates its patch touches. Both live in a fresh `mktemp -d`
# unless CARGO_TARGET_DIR is set (it is then used, and kept). On exit the
# worktree and the temporary directory are removed; when a mutant failed
# the check, its build and test logs are kept there and the path printed.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
TREE="$WORK/tree"
# The commands run inside the worktree, so a relative target dir would
# land there; resolve it against the caller's directory.
CARGO_TARGET_DIR=$(realpath -m "${CARGO_TARGET_DIR:-$WORK/target}")
export CARGO_TARGET_DIR

failed=0
cleanup() {
  git -C "$ROOT" worktree remove --force "$TREE" >/dev/null 2>&1 || true
  git -C "$ROOT" worktree prune
  if [[ $failed == 0 ]]; then
    rm -rf "$WORK"
  else
    rm -rf "$WORK/target"
    echo "logs kept in $WORK"
  fi
}
trap cleanup EXIT
git -C "$ROOT" worktree add -q --detach "$TREE" HEAD

PATCHES=("$ROOT"/scripts/mutants/*.patch)
killed=0
for patch in "${PATCHES[@]}"; do
  name=$(basename "$patch" .patch)
  log="$WORK/$name.log"
  cmd=$(sed -n 's/^# must-fail: //p' "$patch" | head -n 1)
  if [[ $cmd != "cargo test "* ]]; then
    echo "BROKEN   $name: no '# must-fail: cargo test ...' header line"
    failed=1
    continue
  fi
  git -C "$TREE" reset -q --hard HEAD
  git -C "$TREE" clean -fdq
  if ! git -C "$TREE" apply "$patch" 2>"$log"; then
    echo "STALE    $name: the patch no longer applies"
    tail -n 5 "$log"
    failed=1
    continue
  fi
  # Build first, so that a mutant that no longer compiles is not
  # mistaken for one its test catches.
  if ! (cd "$TREE" && bash -c "${cmd/#cargo test /cargo test --no-run }") >>"$log" 2>&1; then
    echo "STALE    $name: the mutant or its named test no longer builds"
    tail -n 20 "$log"
    failed=1
    continue
  fi
  if (cd "$TREE" && bash -c "$cmd") >>"$log" 2>&1; then
    echo "SURVIVED $name: '$cmd' passed"
    failed=1
  else
    echo "KILLED   $name"
    killed=$((killed + 1))
  fi
done
echo "mutants: $killed of ${#PATCHES[@]} killed in ${SECONDS}s"
exit "$failed"
