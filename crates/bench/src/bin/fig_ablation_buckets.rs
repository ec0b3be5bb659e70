//! Ablation (§III-B aggregation methods): histogram resolution.
//!
//! Bucket count `m` trades update bytes (summaries are `O(m·r)`) against
//! redirect precision: coarse buckets produce false-positive branch matches
//! that drag the query to servers with no real matches. This sweep
//! quantifies the trade-off the paper fixes at m = 1000.

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Registry};

fn main() {
    banner(
        "Ablation — histogram buckets per attribute",
        "summary bytes vs false-positive redirects (paper fixes m = 1000)",
    );
    let base = TrialConfig {
        runs: 1,
        ..figure_config()
    };
    let reg = Registry::new();
    let mut explains = Vec::new();
    println!(
        "{:>8} {:>16} {:>14} {:>12} {:>14} {:>10}",
        "buckets", "ROADS upd (B/s)", "latency (ms)", "servers", "B/query", "FP rate"
    );
    let mut update_pts = Vec::new();
    let mut servers_pts = Vec::new();
    let mut fp_pts = Vec::new();
    let mut paper_point = None;
    for buckets in [10, 50, 100, 250, 500, 1000, 2000] {
        let cfg = TrialConfig { buckets, ..base };
        let (r, report, point) = run_comparison(&cfg, Some(&reg));
        explains = point;
        // False-positive redirect rate comes from the per-hop traces: a
        // contact, tree descent or overlay shortcut, whose whole redirect
        // subtree found nothing.
        let fp_rate = report.as_ref().map_or(0.0, |t| t.fp_redirect_rate);
        println!(
            "{:>8} {:>16.3e} {:>14.1} {:>12.1} {:>14.0} {:>10.3}",
            buckets,
            r.roads_update_bps,
            r.roads_latency.mean,
            r.roads_servers_contacted,
            r.roads_query_bytes,
            fp_rate
        );
        update_pts.push((buckets as f64, r.roads_update_bps));
        servers_pts.push((buckets as f64, r.roads_servers_contacted));
        fp_pts.push((buckets as f64, fp_rate));
        if buckets == 1000 {
            paper_point = report;
        }
    }
    println!("\nexpected: update bytes grow linearly in m; contacted servers shrink toward");
    println!("the true match set as buckets refine, flattening once buckets resolve the data.");

    let mut fig = FigureExport::new(
        "fig_ablation_buckets",
        "Histogram buckets per attribute: update bytes vs false-positive redirects",
    )
    .axes("buckets per attribute", "see series");
    if let (Some(&(_, fp_coarse)), Some(&(_, fp_fine))) = (fp_pts.first(), fp_pts.last()) {
        fig.push_note(format!(
            "fp_redirect_rate falls from {fp_coarse:.3} at 10 buckets to {fp_fine:.3} at 2000"
        ));
    }
    fig.push_series("roads_update_bps", &update_pts);
    fig.push_series("servers_contacted", &servers_pts);
    fig.push_series("fp_redirect_rate", &fp_pts);
    fig.set_telemetry(reg.snapshot());
    if let Some(t) = paper_point {
        fig.set_traces(t);
    }
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
