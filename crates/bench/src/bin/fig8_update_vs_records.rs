//! Figure 8: update overhead as a function of per-node record count.
//!
//! Paper result: "Due to the use of constant-size summaries, the update
//! overhead in ROADS remains constant when each node stores more records.
//! In contrast, Sword exports original records and thus its update overhead
//! grows linearly."

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};

fn main() {
    banner(
        "Figure 8 — update overhead vs records per node (bytes/second)",
        "ROADS constant; SWORD linear in record count",
    );
    let base = figure_config();
    let reg = Registry::new();
    let rec = Recorder::new(65_536);
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    let mut central_pts = Vec::new();
    println!(
        "{:>8} {:>16} {:>16} {:>16}",
        "records", "ROADS (B/s)", "SWORD (B/s)", "Central (B/s)"
    );
    let sweep: Vec<usize> = if base.records_per_node <= 50 {
        vec![10, 20, 30, 40, 50]
    } else {
        (1..=10).map(|i| i * 50).collect()
    };
    for records_per_node in sweep {
        let cfg = TrialConfig {
            records_per_node,
            ..base
        };
        let (r, _) = run_comparison(&cfg, Some(&reg), Some(&rec));
        println!(
            "{:>8} {:>16.3e} {:>16.3e} {:>16.3e}",
            records_per_node, r.roads_update_bps, r.sword_update_bps, r.central_update_bps
        );
        roads_pts.push((records_per_node as f64, r.roads_update_bps));
        sword_pts.push((records_per_node as f64, r.sword_update_bps));
        central_pts.push((records_per_node as f64, r.central_update_bps));
    }
    println!("\npaper: ROADS flat; SWORD ~1e8 -> ~1e9 as records grow 50 -> 500.");

    let mut fig = FigureExport::new(
        "fig8_update_vs_records",
        "Update overhead vs records per node (bytes/second)",
    )
    .axes("records per node", "update overhead (B/s)");
    if let (Some(&(_, r_first)), Some(&(_, r_last))) = (roads_pts.first(), roads_pts.last()) {
        fig.push_reference("roads_growth_over_sweep", r_last / r_first, 1.0);
    }
    fig.push_series("roads_bps", &roads_pts);
    fig.push_series("sword_bps", &sword_pts);
    fig.push_series("central_bps", &central_pts);
    fig.push_note("paper: ROADS flat (constant-size summaries); SWORD linear in record count");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
