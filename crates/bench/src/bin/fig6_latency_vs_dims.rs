//! Figure 6: latency as a function of query dimensionality.
//!
//! Paper result: "the latency in ROADS decreases by roughly 40% as the
//! number of query dimensions increases from 2 to 8 … In contrast, SWORD
//! only uses one dimension in the search. Thus its query latency remains
//! largely the same."

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};

fn main() {
    banner(
        "Figure 6 — query latency vs query dimensionality",
        "ROADS drops ~40% from 2 to 8 dims; SWORD flat",
    );
    let base = figure_config();
    let reg = Registry::new();
    let rec = Recorder::new(65_536);
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>12}",
        "dims", "ROADS (ms)", "SWORD (ms)", "ROADS srv", "SWORD srv"
    );
    for dims in 2..=8 {
        let cfg = TrialConfig {
            query_dims: dims,
            ..base
        };
        let (r, _) = run_comparison(&cfg, Some(&reg), Some(&rec));
        println!(
            "{:>5} {:>14.1} {:>14.1} {:>12.1} {:>12.1}",
            dims,
            r.roads_latency.mean,
            r.sword_latency.mean,
            r.roads_servers_contacted,
            r.sword_servers_contacted
        );
        roads_pts.push((dims as f64, r.roads_latency.mean));
        sword_pts.push((dims as f64, r.sword_latency.mean));
    }
    println!("\npaper: ROADS ~1400 ms at 2 dims -> ~850 ms at 8 dims; SWORD ~1500 ms flat.");

    let mut fig = FigureExport::new(
        "fig6_latency_vs_dims",
        "Query latency vs query dimensionality",
    )
    .axes("query dimensions", "latency (ms)");
    if let (Some(&(_, at2)), Some(&(_, at8))) = (roads_pts.first(), roads_pts.last()) {
        fig.push_reference("roads_latency_drop_2_to_8_dims", 1.0 - at8 / at2, 0.4);
    }
    fig.push_series("roads_ms", &roads_pts);
    fig.push_series("sword_ms", &sword_pts);
    fig.push_note("paper: ROADS drops ~40% from 2 to 8 dims; SWORD flat");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
