#!/bin/bash
# Compare the deterministic figure documents of two results directories.
# Usage: scripts/same_figures.sh RESULTS_A RESULTS_B
#
# Fill both directories with `run_all_figures.sh` and the same flags, e.g.
#   ROADS_RESULTS_DIR=/tmp/a ./run_all_figures.sh --quick   # one commit
#   ROADS_RESULTS_DIR=/tmp/b ./run_all_figures.sh --quick   # the other
# The figures below write a byte-identical `<name>.json` on every run of
# one commit (each was checked over two `--quick` runs before it was
# listed); the others time wall clocks or live threads. A difference here
# means a change moved what a figure measures. Prints each document that
# differs or is missing and exits 1; exits 0 when all are identical.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 RESULTS_A RESULTS_B" >&2
  exit 2
fi
FIGURES="table_analysis table1_storage fig3_latency_vs_nodes fig4_update_vs_nodes \
fig5_query_vs_nodes fig6_latency_vs_dims fig7_query_vs_dims fig8_update_vs_records \
fig9_latency_vs_overlap fig10_latency_vs_degree fig12_timeline fig16_summary_fidelity \
fig20_routing_precision fig_ablation_overlay fig_ablation_buckets fig_ablation_join \
fig_ablation_churn fig_ablation_scope"
status=0
count=0
for name in $FIGURES; do
  count=$((count + 1))
  if ! cmp -s "$1/$name.json" "$2/$name.json"; then
    echo "differs: $name.json"
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "identical: $count figure documents"
fi
exit "$status"
