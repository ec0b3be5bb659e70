//! Figure 7: query overhead as a function of query dimensionality.
//!
//! Paper result: "SWORD has linearly increasing query overhead as the query
//! dimensionality grows … ROADS shows an initial decrease in query
//! overhead, because less query messages are sent as the search scope is
//! confined … the query overhead increases again because the reduction of
//! search scope flattens out."

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Figure 7 — query message overhead vs query dimensionality (bytes/query)",
        "SWORD linear up; ROADS dips then rises",
    );
    let base = figure_config();
    let reg = Registry::new();
    let mut explains = Vec::new();
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    println!(
        "{:>5} {:>14} {:>14} {:>12}",
        "dims", "ROADS (B)", "SWORD (B)", "ROADS msgs"
    );
    for dims in 2..=8 {
        let cfg = TrialConfig {
            query_dims: dims,
            ..base
        };
        let (r, _, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        println!(
            "{:>5} {:>14.0} {:>14.0} {:>12.1}",
            dims, r.roads_query_bytes, r.sword_query_bytes, r.roads_servers_contacted,
        );
        roads_pts.push((dims as f64, r.roads_query_bytes));
        sword_pts.push((dims as f64, r.sword_query_bytes));
    }
    println!("\npaper: ROADS ~2500 B at 2 dims, dipping before rising; SWORD ~500->1500 B.");

    let mut fig = FigureExport::new(
        "fig7_query_vs_dims",
        "Query message overhead vs query dimensionality (bytes/query)",
    )
    .axes("query dimensions", "query overhead (B)");
    if let (Some(&(_, s2)), Some(&(_, s8))) = (sword_pts.first(), sword_pts.last()) {
        fig.push_reference("sword_bytes_growth_2_to_8_dims", s8 / s2, 3.0);
    }
    fig.push_series("roads_bytes", &roads_pts);
    fig.push_series("sword_bytes", &sword_pts);
    fig.push_note("paper: SWORD linear up with dims; ROADS dips then rises");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
