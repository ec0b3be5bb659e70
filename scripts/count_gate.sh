#!/usr/bin/env bash
# The four metrics the simulator computes exactly repeat to the last digit
# on one seed, so CI compares them exactly: a change that moves a count
# without meaning to fails here, one that means to edits BENCH_counts.json
# (workload -> metric -> value at the benchmark's default seed) in the same
# diff. Reads a benchmark run's output on stdin; its last line is the result.
#
#   cargo run ... -- --workload W --seconds 2 --trace 0 | scripts/count_gate.sh W
set -euo pipefail
COUNTS="$(cd "$(dirname "$0")/.." && pwd)/BENCH_counts.json"
tail -n 1 | python3 -c '
import json, sys
want = json.load(open(sys.argv[1]))[sys.argv[2]]
got = json.loads(sys.stdin.read())["metrics"]
moved = {m: (v, got[m]["value"]) for m, v in want.items() if got[m]["value"] != v}
for m, (v, g) in moved.items():
    print(f"count_gate: {sys.argv[2]} {m}: BENCH_counts.json says {v!r}, this run {g!r}")
sys.exit(1 if moved else 0)
' "$COUNTS" "${1:?usage: count_gate.sh WORKLOAD < benchmark-output}"
