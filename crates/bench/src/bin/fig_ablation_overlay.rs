//! Ablation (§III-C's claimed benefits): replication overlay ON vs OFF.
//!
//! With the overlay, a query starts at the client's own attachment server
//! and uses replicated summaries as shortcuts. Without it (the "basic
//! hierarchy"), every query must start at the root: the root becomes a
//! bottleneck and the path to matching leaves is longer. This binary
//! quantifies both effects: query latency and the fraction of queries that
//! touch the root.

use roads_bench::{banner, figure_config, paper_workload};
use roads_core::{
    execute_query_with, explain_from_trace, record_query_events, QueryOptions, RoadsNetwork,
    ServerId,
};
use roads_netsim::DelaySpace;
use roads_telemetry::{
    aggregate_traces, write_chrome_trace_default, ExplainDecision, FigureExport, LatencyStats,
    Recorder, Registry, TraceId,
};

fn main() {
    banner(
        "Ablation — replication overlay ON (any-node start) vs OFF (root start)",
        "overlay removes the root bottleneck and shortens query paths (§III-C)",
    );
    let cfg = figure_config();
    let (schema, records, queries) = paper_workload(&cfg, 0);
    let net = RoadsNetwork::build(schema, cfg.roads_config(), records);
    let delays = DelaySpace::paper(cfg.nodes, cfg.seed);
    let root = net.tree().root();

    let reg = Registry::new();
    let rec = Recorder::new(65_536);
    let mut on_lat = Vec::new();
    let mut off_lat = Vec::new();
    let mut on_root_hits = 0usize;
    let mut on_bytes = 0.0;
    let mut off_bytes = 0.0;
    let mut on_traces = Vec::new();
    let mut off_traces = Vec::new();
    let opts = QueryOptions::default();
    for (q, start) in &queries {
        let entry = ServerId(*start as u32);
        let mut trace = Vec::new();
        let on = execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
        on_traces.push(explain_from_trace(
            &net,
            q,
            TraceId::NONE,
            &trace,
            ExplainDecision::Entry,
        ));
        record_query_events(&rec, rec.next_trace_id(), &trace);
        roads_core::record_query_outcome(&reg, &on);
        on_lat.push(on.latency_ms);
        on_bytes += on.query_bytes as f64;
        // Root involvement with the overlay: only when the root is an
        // ancestor probe or a match.
        if on.matching_servers.contains(&root) {
            on_root_hits += 1;
        }

        // Overlay OFF: the query must travel to the root first (one-way
        // client->root), then the basic top-down hierarchy search runs with
        // the client at the root's side of the protocol.
        trace.clear();
        let off = execute_query_with(&net, &delays, q, root, &opts, Some(&mut trace));
        off_traces.push(explain_from_trace(
            &net,
            q,
            TraceId::NONE,
            &trace,
            ExplainDecision::Entry,
        ));
        off_lat.push(off.latency_ms + delays.delay_ms(*start, root.index()));
        off_bytes += off.query_bytes as f64;
    }
    let on = LatencyStats::from_samples(&on_lat).expect("non-empty");
    let off = LatencyStats::from_samples(&off_lat).expect("non-empty");
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "variant", "mean (ms)", "p90 (ms)", "B/query"
    );
    println!(
        "{:<22} {:>12.1} {:>12.1} {:>12.0}",
        "overlay ON",
        on.mean,
        on.p90,
        on_bytes / queries.len() as f64
    );
    println!(
        "{:<22} {:>12.1} {:>12.1} {:>12.0}",
        "overlay OFF (root)",
        off.mean,
        off.p90,
        off_bytes / queries.len() as f64
    );
    println!(
        "\nroot load: OFF = 100% of queries; ON = {:.1}% (root only touched when it holds matches)",
        100.0 * on_root_hits as f64 / queries.len() as f64
    );

    let on_report = aggregate_traces(&on_traces, root.0, cfg.nodes);
    let off_report = aggregate_traces(&off_traces, root.0, cfg.nodes);
    let mut fig = FigureExport::new(
        "fig_ablation_overlay",
        "Replication overlay ON (any-node start) vs OFF (root start)",
    )
    .axes("variant (0 = ON, 1 = OFF)", "latency (ms)");
    fig.push_series("mean_ms", &[(0.0, on.mean), (1.0, off.mean)]);
    fig.push_series("p90_ms", &[(0.0, on.p90), (1.0, off.p90)]);
    fig.push_series(
        "bytes_per_query",
        &[
            (0.0, on_bytes / queries.len() as f64),
            (1.0, off_bytes / queries.len() as f64),
        ],
    );
    // Root involvement differs in kind, not touch-count: with the overlay
    // ON the root only answers a local-only ancestor probe (full scope
    // covers its records); OFF it runs the whole top-down search as entry.
    fig.push_series(
        "root_load_share",
        &[
            (0.0, on_report.root_load_share),
            (1.0, off_report.root_load_share),
        ],
    );
    fig.push_reference("overlay_latency_ratio_on_over_off", on.mean / off.mean, 0.7);
    fig.push_note(format!(
        "ON = {} overlay-shortcut hops across {} queries; OFF = root entry, \
         0 shortcuts (root fans out every query)",
        on_report.overlay_shortcuts, on_report.queries
    ));
    fig.set_telemetry(reg.snapshot());
    // Export the overlay-ON traces: they carry the shortcut hops the
    // ablation is about.
    fig.set_traces(on_report);
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
