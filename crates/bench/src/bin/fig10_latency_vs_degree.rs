//! Figure 10: latency as a function of node degree.
//!
//! Paper result: "We vary node degree from 4 to 12 and … the query latency
//! decreases from 1000 ms to 650 ms. Such latency reduction is mainly
//! because the hierarchy becomes 'flatter', thus a query is forwarded to
//! leaf nodes in fewer hops", with query overhead dropping 3500 → 2000
//! bytes for the same reason.

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Figure 10 — query latency vs ROADS node degree",
        "latency drops ~1000 -> ~650 ms as degree grows 4 -> 12 (flatter tree)",
    );
    let base = figure_config();
    let reg = Registry::new();
    let mut explains = Vec::new();
    let mut latency_pts = Vec::new();
    let mut bytes_pts = Vec::new();
    println!(
        "{:>6} {:>8} {:>14} {:>14} {:>12}",
        "degree", "levels", "ROADS (ms)", "bytes/query", "servers"
    );
    for degree in 4..=12 {
        let cfg = TrialConfig { degree, ..base };
        let (r, _, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        let levels = roads_core::HierarchyTree::build(cfg.nodes, degree).levels();
        println!(
            "{:>6} {:>8} {:>14.1} {:>14.0} {:>12.1}",
            degree, levels, r.roads_latency.mean, r.roads_query_bytes, r.roads_servers_contacted
        );
        latency_pts.push((degree as f64, r.roads_latency.mean));
        bytes_pts.push((degree as f64, r.roads_query_bytes));
    }
    println!("\npaper: 1000 ms at degree 4 -> 650 ms at degree 12; overhead 3500 -> 2000 B.");

    let mut fig = FigureExport::new(
        "fig10_latency_vs_degree",
        "Query latency vs ROADS node degree",
    )
    .axes("node degree", "latency (ms)");
    if let (Some(&(_, d4)), Some(&(_, d12))) = (latency_pts.first(), latency_pts.last()) {
        fig.push_reference("latency_ratio_deg12_over_deg4", d12 / d4, 0.65);
    }
    fig.push_series("roads_ms", &latency_pts);
    fig.push_series("roads_bytes", &bytes_pts);
    fig.push_note("paper: 1000 ms at degree 4 -> 650 ms at degree 12 (flatter tree)");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
