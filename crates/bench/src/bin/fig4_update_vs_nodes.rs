//! Figure 4: update message overhead as a function of the number of nodes
//! (log scale in the paper).
//!
//! Paper result: "ROADS has two orders of magnitude less update overhead
//! than SWORD due to the use of condensed summary."

use roads_bench::chart::{render_log, Series};
use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Figure 4 — update overhead vs number of nodes (bytes/second)",
        "ROADS 1-2 orders of magnitude below SWORD",
    );
    let base = figure_config();
    let reg = Registry::new();
    let mut explains = Vec::new();
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>12}",
        "nodes", "ROADS (B/s)", "SWORD (B/s)", "Central (B/s)", "SWORD/ROADS"
    );
    let sweep: Vec<usize> = if base.nodes <= 64 {
        vec![32, 64, 96, 128]
    } else {
        (1..=10).map(|i| i * 64).collect()
    };
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    let mut central_pts = Vec::new();
    for nodes in sweep {
        let cfg = TrialConfig { nodes, ..base };
        let (r, _, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        println!(
            "{:>6} {:>16.3e} {:>16.3e} {:>16.3e} {:>12.1}",
            nodes,
            r.roads_update_bps,
            r.sword_update_bps,
            r.central_update_bps,
            r.sword_update_bps / r.roads_update_bps
        );
        roads_pts.push((nodes as f64, r.roads_update_bps));
        sword_pts.push((nodes as f64, r.sword_update_bps));
        central_pts.push((nodes as f64, r.central_update_bps));
    }
    println!();
    print!(
        "{}",
        render_log(
            &[
                Series::new("ROADS", roads_pts.clone()),
                Series::new("SWORD", sword_pts.clone()),
                Series::new("Central", central_pts.clone())
            ],
            60,
            14
        )
    );
    println!("\npaper: ~1e7 vs ~1e9 bytes at 320 nodes (log-scale figure).");

    let mut fig = FigureExport::new(
        "fig4_update_vs_nodes",
        "Update overhead vs number of nodes (bytes/second)",
    )
    .axes("nodes", "update overhead (B/s)");
    if let (Some(&(_, r320)), Some(&(_, s320))) = (
        roads_pts.iter().find(|(n, _)| *n == 320.0),
        sword_pts.iter().find(|(n, _)| *n == 320.0),
    ) {
        fig.push_reference("sword_over_roads_ratio@320", s320 / r320, 100.0);
    }
    fig.push_series("roads_bps", &roads_pts);
    fig.push_series("sword_bps", &sword_pts);
    fig.push_series("central_bps", &central_pts);
    fig.push_note("paper: 1-2 orders of magnitude between ROADS and SWORD (log-scale figure)");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
