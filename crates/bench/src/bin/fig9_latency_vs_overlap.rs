//! Figure 9: latency as a function of the data overlap factor.
//!
//! Paper setup: "for each of the first 8 attributes, we let the resource
//! data of each server distribute within a range of length Of/320, randomly
//! located within \[0,1\]", Of swept 1→12. Result: "the latency increases
//! slightly from 810 to 860 ms (about 8%) … more servers have matching
//! records when their data exhibit larger overlaps", with a similar ~10%
//! increase in query overhead.

use roads_bench::{banner, figure_config, run_comparison, TrialConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};

fn main() {
    banner(
        "Figure 9 — query latency vs data overlap factor",
        "latency rises slightly (~8%) as overlap grows 1 -> 12",
    );
    let base = figure_config();
    let reg = Registry::new();
    let rec = Recorder::new(65_536);
    let mut latency_pts = Vec::new();
    let mut bytes_pts = Vec::new();
    println!(
        "{:>4} {:>14} {:>14} {:>12}",
        "Of", "ROADS (ms)", "bytes/query", "servers"
    );
    let mut first = None;
    let mut last = None;
    for of in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0] {
        let cfg = TrialConfig {
            overlap_factor: Some(of),
            ..base
        };
        let (r, _) = run_comparison(&cfg, Some(&reg), Some(&rec));
        println!(
            "{:>4.0} {:>14.1} {:>14.0} {:>12.1}",
            of, r.roads_latency.mean, r.roads_query_bytes, r.roads_servers_contacted
        );
        latency_pts.push((of, r.roads_latency.mean));
        bytes_pts.push((of, r.roads_query_bytes));
        if first.is_none() {
            first = Some(r.roads_latency.mean);
        }
        last = Some(r.roads_latency.mean);
    }
    let mut fig = FigureExport::new(
        "fig9_latency_vs_overlap",
        "Query latency vs data overlap factor",
    )
    .axes("overlap factor Of", "latency (ms)");
    if let (Some(f), Some(l)) = (first, last) {
        println!(
            "\nmeasured increase: {:.1}% (paper: ~8%, 810 -> 860 ms)",
            (l / f - 1.0) * 100.0
        );
        fig.push_reference("latency_increase_fraction", l / f - 1.0, 0.08);
    }
    fig.push_series("roads_ms", &latency_pts);
    fig.push_series("roads_bytes", &bytes_pts);
    fig.push_note("paper: latency rises ~8% (810 -> 860 ms) as Of grows 1 -> 12");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
