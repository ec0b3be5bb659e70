#!/usr/bin/env bash
# Same-seed pairs of two benchmark builds, the protocol every performance
# claim in EXPERIMENTS.md rests on: pair i runs both binaries on seed
# SEED_BASE + i, one process at a time on one pinned CPU, odd pairs parent
# first and even pairs change first. Per workload and end-to-end metric of
# BENCHMARK.json it prints both medians with quartiles, the change's
# median relative to the parent's against the bound, the per-pair ratio
# (oriented by the metric's `better`, so > 1 always favours the change) as
# median and range, and the pairs the change won (ties count for neither).
# Exits non-zero if a run reports a failed operation or a wrong answer, or
# if a metric the simulator computes exactly differs within a pair.
#
#   scripts/ab_pairs.sh PARENT_BIN CHANGE_BIN [--seconds S] [--pairs N] [--seed-base B] WORKLOAD...
#
# Build each side once into its own target directory, e.g.
#   CARGO_TARGET_DIR=/tmp/change cargo build --release --offline --manifest-path benchmark/Cargo.toml
# --seconds defaults to BENCHMARK.json's run_seconds, the length a claim
# must be measured at; --pairs to 10; --seed-base to 94000.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_BIN CHANGE_BIN [--seconds S] [--pairs N] [--seed-base B] WORKLOAD..." >&2
  exit 2
}

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SPEC="$ROOT/BENCHMARK.json"
[[ $# -ge 3 ]] || usage
# Absolute, so that a bare file name is run from here and not from PATH.
PARENT=$(realpath "$1")
CHANGE=$(realpath "$2")
shift 2
SECONDS_PER_RUN=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$SPEC")
PAIRS=10
SEED_BASE=94000
WORKLOADS=()
while [[ $# -gt 0 ]]; do
  case $1 in
    --seconds) SECONDS_PER_RUN=${2:?--seconds requires a value}; shift 2 ;;
    --pairs) PAIRS=${2:?--pairs requires a value}; shift 2 ;;
    --seed-base) SEED_BASE=${2:?--seed-base requires a value}; shift 2 ;;
    -*) echo "error: unknown flag $1" >&2; usage ;;
    *) WORKLOADS+=("$1"); shift ;;
  esac
done
[[ ${#WORKLOADS[@]} -gt 0 ]] || usage
for bin in "$PARENT" "$CHANGE"; do
  [[ -x $bin ]] || { echo "error: not an executable: $bin" >&2; exit 2; }
done

# One CPU, as the benchmark's numbers are defined; without taskset the
# runs still happen, unpinned, and the header says so.
PIN=()
if command -v taskset >/dev/null; then PIN=(taskset -c 0); fi

OUT=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
for w in "${WORKLOADS[@]}"; do
  for i in $(seq 1 "$PAIRS"); do
    if (( i % 2 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [[ $side == parent ]]; then bin=$PARENT; else bin=$CHANGE; fi
      echo "pair $i/$PAIRS $w: $side" >&2
      ${PIN[@]+"${PIN[@]}"} "$bin" --workload "$w" --seed $((SEED_BASE + i)) \
        --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 >> "$OUT/$side-$w.jsonl"
    done
  done
done

python3 - "$SPEC" "$OUT" "$SECONDS_PER_RUN" "$SEED_BASE" "${PIN[*]:-unpinned}" "${WORKLOADS[@]}" <<'PY'
import json, statistics, sys

spec_path, out, seconds, seed_base, pin = sys.argv[1:6]
workloads = sys.argv[6:]
spec = json.load(open(spec_path))
# The metrics the simulator computes exactly: one seed, one value.
COUNTS = {"modelled_latency_ms", "contacts_per_query", "wire_bytes_per_query", "update_bytes_per_round"}
bad = 0


def load(side, workload):
    return [json.loads(line) for line in open(f"{out}/{side}-{workload}.jsonl")]


def spread(values):
    """Median and quartiles; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[0], q[2]


def cell(values):
    m, q1, q3 = spread(values)
    return f"{m:.5g} [{q1:.5g}, {q3:.5g}]"


for w in workloads:
    parent, change = load("parent", w), load("change", w)
    pairs = len(parent)
    print(f"\n{w}: {pairs} pairs, seeds {int(seed_base) + 1}..{int(seed_base) + pairs}, "
          f"--seconds {seconds} --trace 0, {pin}; median [quartiles]")
    print(f"{'metric':24} {'better':6} {'parent':>30} {'change':>30} {'change vs parent':>17} "
          f"{'bound':>6} {'ratio/pair: median (min..max)':>30} {'won':>6}")
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs, 1):
            if not run["correct"] or run["failed"]:
                print(f"  {side}, pair {i}: {run['failed']} of {run['attempted']} operations failed, "
                      f"correct = {run['correct']}")
                bad += 1
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        vp = [r["metrics"][name]["value"] for r in parent]
        vc = [r["metrics"][name]["value"] for r in change]
        mp, mc = statistics.median(vp), statistics.median(vc)
        moved = (mc - mp) / mp if mp else 0.0
        worse = moved if lower else -moved
        # > 1 favours the change whichever way the metric points.
        ratios = [(p / c if lower else c / p) if p and c else 1.0 for p, c in zip(vp, vc)]
        won = sum((c < p) if lower else (c > p) for p, c in zip(vp, vc))
        note = ""
        if name in COUNTS and any(p != c for p, c in zip(vp, vc)):
            note = "  COUNT DIFFERS WITHIN A PAIR"
            bad += 1
        elif worse > bound:
            note = "  median worse than bound"
        print(f"{name:24} {m['better']:6} {cell(vp):>30} {cell(vc):>30} {moved * 100:+16.2f}% "
              f"{bound * 100:5.0f}% {statistics.median(ratios):13.3f}x ({min(ratios):.3f}..{max(ratios):.3f}) "
              f"{won:3}/{pairs}{note}")

print(f"\nraw result lines: {out}")
if bad:
    print(f"ab_pairs: FAILED ({bad} failed runs or differing counts)")
sys.exit(1 if bad else 0)
PY
