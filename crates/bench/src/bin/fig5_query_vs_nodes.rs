//! Figure 5: query message overhead as a function of the number of nodes.
//!
//! Paper result: "ROADS has 2∼5 times higher query overhead than SWORD,
//! because ROADS has to visit more servers due to voluntary sharing" —
//! every owner retains its records, so the query must reach all owners with
//! matches, while SWORD concentrates matching records on fewer DHT servers.

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Figure 5 — query message overhead vs number of nodes (bytes/query)",
        "ROADS 2-5x higher than SWORD",
    );
    let base = figure_config();
    let reg = Registry::new();
    let mut explains = Vec::new();
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    let mut ratio_pts = Vec::new();
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "nodes", "ROADS (B)", "SWORD (B)", "ROADS/SWORD", "ROADS srv", "SWORD srv"
    );
    let sweep: Vec<usize> = if base.nodes <= 64 {
        vec![32, 64, 96, 128]
    } else {
        (1..=10).map(|i| i * 64).collect()
    };
    for nodes in sweep {
        let cfg = TrialConfig { nodes, ..base };
        let (r, _, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        println!(
            "{:>6} {:>14.0} {:>14.0} {:>12.2} {:>12.1} {:>12.1}",
            nodes,
            r.roads_query_bytes,
            r.sword_query_bytes,
            r.roads_query_bytes / r.sword_query_bytes,
            r.roads_servers_contacted,
            r.sword_servers_contacted
        );
        roads_pts.push((nodes as f64, r.roads_query_bytes));
        sword_pts.push((nodes as f64, r.sword_query_bytes));
        ratio_pts.push((nodes as f64, r.roads_query_bytes / r.sword_query_bytes));
    }
    println!("\npaper: ROADS up to ~5000 bytes/query at 640 nodes, SWORD ~1000-2500.");

    let mut fig = FigureExport::new(
        "fig5_query_vs_nodes",
        "Query message overhead vs number of nodes (bytes/query)",
    )
    .axes("nodes", "query overhead (B)");
    if let Some(&(_, ratio)) = ratio_pts.last() {
        fig.push_reference("roads_over_sword_ratio@max_nodes", ratio, 3.5);
    }
    fig.push_series("roads_bytes", &roads_pts);
    fig.push_series("sword_bytes", &sword_pts);
    fig.push_series("roads_over_sword", &ratio_pts);
    fig.push_note("paper: ROADS 2-5x higher query overhead than SWORD");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
