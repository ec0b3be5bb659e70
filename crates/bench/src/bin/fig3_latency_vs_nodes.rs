//! Figure 3: query resolving latency as a function of the number of nodes.
//!
//! Paper result: "The latency increases logarithmically in ROADS but
//! linearly in SWORD; ROADS has about 50%∼60% less query latency than
//! SWORD", with a small ROADS jump at 640 nodes when the hierarchy grows
//! from 4 to 5 levels.

use roads_bench::chart::{render, Series};
use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Figure 3 — query latency vs number of nodes",
        "ROADS logarithmic, SWORD linear; ROADS 40-60% lower; jump at 640 (depth 4->5)",
    );
    let base = figure_config();
    let reg = Registry::new();
    let mut explains = Vec::new();
    let mut traces = None;
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>8}",
        "nodes", "ROADS (ms)", "SWORD (ms)", "ROADS/SWORD", "levels"
    );
    let sweep: Vec<usize> = if base.nodes <= 64 {
        vec![32, 64, 96, 128]
    } else {
        (1..=10).map(|i| i * 64).collect()
    };
    let mut roads_pts = Vec::new();
    let mut sword_pts = Vec::new();
    for nodes in sweep {
        let cfg = TrialConfig { nodes, ..base };
        let (r, report, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        // Keep the trace report of the paper's headline point (or the
        // closest we run), not the union across incomparable topologies.
        if nodes == base.nodes || traces.is_none() {
            traces = report;
        }
        let levels = roads_core::HierarchyTree::build(nodes, cfg.degree).levels();
        println!(
            "{:>6} {:>14.1} {:>14.1} {:>10.2} {:>8}",
            nodes,
            r.roads_latency.mean,
            r.sword_latency.mean,
            r.roads_latency.mean / r.sword_latency.mean,
            levels
        );
        roads_pts.push((nodes as f64, r.roads_latency.mean));
        sword_pts.push((nodes as f64, r.sword_latency.mean));
    }
    println!();
    print!(
        "{}",
        render(
            &[
                Series::new("ROADS (ms)", roads_pts.clone()),
                Series::new("SWORD (ms)", sword_pts.clone())
            ],
            60,
            14
        )
    );
    println!("\npaper: ROADS ~800 ms at 320 nodes; SWORD grows to ~2300 ms at 640.");

    let mut fig = FigureExport::new("fig3_latency_vs_nodes", "Query latency vs number of nodes")
        .axes("nodes", "latency (ms)");
    if let Some(&(_, ms)) = roads_pts.iter().find(|(n, _)| *n == 320.0) {
        fig.push_reference("roads_latency_ms@320", ms, 800.0);
    }
    if let Some(&(_, ms)) = sword_pts.iter().find(|(n, _)| *n == 640.0) {
        fig.push_reference("sword_latency_ms@640", ms, 2300.0);
    }
    fig.push_series("roads_ms", &roads_pts);
    fig.push_series("sword_ms", &sword_pts);
    fig.set_telemetry(reg.snapshot());
    if let Some(t) = traces {
        fig.set_traces(t);
    }
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
