#!/usr/bin/env bash
# A/A check: run the whole benchmark N + N times on the same code and the
# same seed, alternating which set (A or B) a run belongs to, and compare
# the two sets the way two commits would be compared. Prints, per workload
# and end-to-end metric, both medians, their relative difference, each
# set's quartiles and the bound; exits non-zero if any difference exceeds
# its bound or any count metric differs between any two runs.
#
#   N=5 benchmark/aa_check.sh          # about 2 x N x 1.7 minutes
set -euo pipefail
cd "$(dirname "$0")/.."

N=${N:-5}
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/roads-benchmark"

OUT=benchmark/results/aa
rm -rf "$OUT"
mkdir -p "$OUT"
for i in $(seq 1 "$N"); do
  # A B, then B A: neither set always runs first.
  if (( i % 2 )); then order="A B"; else order="B A"; fi
  for set in $order; do
    for w in $WORKLOADS; do
      echo "run $i/$N set $set: $w" >&2
      "$BIN" --workload "$w" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1 >> "$OUT/$set-$w.jsonl"
    done
  done
done

python3 - "$OUT" <<'PY'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
# The metrics the simulator computes exactly: identical on every run of one seed.
COUNTS = {"modelled_latency_ms", "contacts_per_query", "wire_bytes_per_query", "update_bytes_per_round"}
bad = 0

def load(set_name, workload):
    return [json.loads(line) for line in open(f"{out}/{set_name}-{workload}.jsonl")]

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

print(f"{'workload':15} {'metric':24} {'median A':>14} {'median B':>14} {'diff %':>8} {'bound %':>8}  quartiles A | quartiles B")
for w in (x["name"] for x in spec["workloads"]):
    a, b = load("A", w), load("B", w)
    for run in a + b:
        if not run["correct"] or run["failed"]:
            print(f"{w}: a run reported failed operations: {run['failed']} of {run['attempted']}")
            bad += 1
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        diff = abs(mb - ma) / ma
        verdict = ""
        if name in COUNTS and len(set(va + vb)) != 1:
            verdict = "  COUNT DIFFERS"
            bad += 1
        elif diff > bound:
            verdict = "  OVER BOUND"
            bad += 1
        (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
        print(f"{w:15} {name:24} {ma:14.4f} {mb:14.4f} {diff * 100:8.2f} {bound * 100:8.1f}  "
              f"{a1:.4f}..{a3:.4f} | {b1:.4f}..{b3:.4f}{verdict}")

print("A/A check:", "FAILED" if bad else "passed", f"({bad} cells over)" if bad else "")
sys.exit(1 if bad else 0)
PY
