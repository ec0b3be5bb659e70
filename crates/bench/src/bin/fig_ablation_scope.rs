//! Ablation (§III-C): client-controlled search scope.
//!
//! "Each ancestor (or their siblings) of the starting server is one level
//! higher in the hierarchy, providing more resources but requiring a longer
//! search path. Based on the needs of how wide a range should be searched,
//! the client can choose one or several branches to start its queries."
//!
//! This binary sweeps the scope from the entry server's own branch
//! (levels 0) to the whole hierarchy and reports the coverage/cost curve:
//! matching records found, servers contacted, latency and bytes.

use roads_bench::{banner, figure_config, paper_workload, TrialConfig};
use roads_core::{
    execute_query, execute_query_with, explain_from_trace, record_query_outcome, QueryOptions,
    RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_telemetry::{
    write_chrome_trace_default, ExplainDecision, FigureExport, LatencyStats, Registry,
};

fn main() {
    banner(
        "Ablation — search scope: levels searched above the entry server",
        "wider scope finds more resources but contacts more servers (§III-C)",
    );
    let cfg = figure_config();
    let cfg = TrialConfig {
        queries: cfg.queries.min(200),
        ..cfg
    };
    let (schema, records, queries) = paper_workload(&cfg, 0);
    let net = RoadsNetwork::build(schema, cfg.roads_config(), records);
    let delays = DelaySpace::paper(cfg.nodes, cfg.seed);
    let levels = net.tree().levels();

    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>12}",
        "scope", "recall(%)", "servers", "lat (ms)", "B/query"
    );
    // Full-scope ground truth for recall.
    let full_recs: usize = queries
        .iter()
        .map(|(q, s)| {
            execute_query(&net, &delays, q, ServerId(*s as u32), SearchScope::full())
                .matching_records
        })
        .sum();
    let reg = Registry::new();
    let mut explains = Vec::new();
    let mut recall_pts = Vec::new();
    let mut servers_pts = Vec::new();
    let mut latency_pts = Vec::new();
    for scope_levels in 0..levels {
        let opts = QueryOptions::scoped(SearchScope::levels(scope_levels));
        let mut recs = 0usize;
        let mut servers = 0.0;
        let mut bytes = 0.0;
        let mut lat = Vec::new();
        for (q, s) in &queries {
            let mut trace = Vec::new();
            let entry = ServerId(*s as u32);
            let out = execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
            explains.push(explain_from_trace(&net, q, &trace, ExplainDecision::Entry));
            record_query_outcome(&reg, &out);
            recs += out.matching_records;
            servers += out.servers_contacted as f64;
            bytes += out.query_bytes as f64;
            lat.push(out.latency_ms);
        }
        let stats = LatencyStats::from_samples(&lat).expect("non-empty");
        let nq = queries.len() as f64;
        let recall = 100.0 * recs as f64 / full_recs.max(1) as f64;
        println!(
            "{:>7} {:>10.1} {:>12.1} {:>12.1} {:>12.0}",
            scope_levels,
            recall,
            servers / nq,
            stats.mean,
            bytes / nq
        );
        recall_pts.push((scope_levels as f64, recall));
        servers_pts.push((scope_levels as f64, servers / nq));
        latency_pts.push((scope_levels as f64, stats.mean));
    }
    println!(
        "\nscope L-1 ({} levels) equals the full hierarchy: recall 100% by construction.",
        levels - 1
    );
    println!("expected: recall climbs steeply with scope while cost climbs in step —");
    println!("clients wanting 'any match nearby' stop early; exhaustive searches pay full cost.");

    let mut fig = FigureExport::new(
        "fig_ablation_scope",
        "Client-controlled search scope: coverage vs cost",
    )
    .axes("scope (levels above entry server)", "see series");
    if let Some(&(_, recall_full)) = recall_pts.last() {
        fig.push_reference("recall_at_full_scope_pct", recall_full, 100.0);
    }
    fig.push_series("recall_pct", &recall_pts);
    fig.push_series("servers_contacted", &servers_pts);
    fig.push_series("latency_ms", &latency_pts);
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
