#!/bin/bash
# Regenerate every table and figure of the paper.
# Usage: ./run_all_figures.sh [--quick] [--runs N]
#
# Each binary writes three artifacts under results/ (override the directory
# with ROADS_RESULTS_DIR — it is exported here so every binary and the
# inspector agree on one location):
#   results/<name>.txt         the rendered console table/chart
#   results/<name>.json        machine-readable export: series, measured-vs-
#                              paper reference points, telemetry snapshot
#                              (counters + latency percentiles incl. p99),
#                              query traces
#   results/<name>.trace.json  flight-recorder export in Chrome trace-event
#                              format; open in ui.perfetto.dev
set -euo pipefail
ARGS="${*:-}"
export ROADS_RESULTS_DIR="${ROADS_RESULTS_DIR:-results}"
mkdir -p "$ROADS_RESULTS_DIR"
BINS="table_analysis table1_storage fig3_latency_vs_nodes fig4_update_vs_nodes \
fig5_query_vs_nodes fig6_latency_vs_dims fig7_query_vs_dims fig8_update_vs_records \
fig9_latency_vs_overlap fig10_latency_vs_degree fig11_prototype_response \
fig12_timeline fig13_availability fig14_throughput fig15_tail_attribution \
fig16_summary_fidelity fig18_delta_churn fig19_watchdog \
fig20_routing_precision fig_ablation_overlay \
fig_ablation_buckets fig_ablation_join fig_ablation_churn fig_ablation_scope"
cargo build --release -q -p roads-bench
for bin in $BINS; do
  echo "=== $bin ==="
  # shellcheck disable=SC2086
  ./target/release/$bin $ARGS | tee "$ROADS_RESULTS_DIR/$bin.txt"
done
echo "=== roads-inspect check ==="
# shellcheck disable=SC2086
./target/release/roads-inspect check $(for bin in $BINS; do echo "$ROADS_RESULTS_DIR/$bin"; done)
