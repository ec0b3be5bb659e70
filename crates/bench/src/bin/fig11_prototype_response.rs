//! Figure 11: prototype total response time vs query selectivity.
//!
//! Paper setup: a cluster prototype where every server fronts a DB2
//! database; queries are grouped by selectivity (0.01%, 0.03%, 0.1%, 0.3%,
//! 1%, 3%) and the metric is *total response time* — query sent until all
//! matching records received, including backend retrieval.
//!
//! Paper result: "The centralized repository is faster when the selectivity
//! is low … As selectivity increases, however, the response time of ROADS
//! becomes comparable to (with 1% selectivity), or even better than (with
//! 3% selectivity), that of a central repository … Multiple ROADS servers
//! can do this in parallel."
//!
//! Scale note: the paper's testbed holds 200K × 120-attribute records per
//! server; this harness scales the store down and the backend cost
//! constants accordingly (see `RuntimeConfig`), preserving the crossover
//! shape rather than absolute milliseconds.

use roads_bench::chart::{render, Series};
use roads_bench::parse_args;
use roads_core::{RequesterId, RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_runtime::{Attachments, CentralCluster, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_telemetry::{write_chrome_trace_default, FigureExport, LatencyStats, Registry};
use roads_workload::{
    default_schema, generate_node_records, selectivity_query_groups, RecordWorkloadConfig,
};

fn main() {
    let (quick, ..) = parse_args();
    let (nodes, records_per_node, per_group) = if quick { (8, 200, 4) } else { (24, 1000, 12) };
    println!("==================================================================");
    println!("Figure 11 — prototype total response time vs query selectivity");
    println!("paper: central wins at low selectivity; ROADS comparable at 1%, better at 3%");
    println!("scale: {nodes} servers x {records_per_node} records, {per_group} queries/group");
    println!("==================================================================");

    let rec_cfg = RecordWorkloadConfig {
        nodes,
        records_per_node,
        attrs: 16,
        seed: 1234,
    };
    let records = generate_node_records(&rec_cfg);
    let schema = default_schema(16);
    let groups = selectivity_query_groups(
        &schema,
        &records,
        &[0.01, 0.03, 0.1, 0.3, 1.0, 3.0],
        per_group,
        6,
        99,
    );

    let runtime_cfg = RuntimeConfig {
        per_record_retrieval_us: 600,
        base_query_cost_us: 5_000,
        bandwidth_mbps: 100.0,
        delay_scale: 0.25,
        ..RuntimeConfig::paper_like()
    };
    let roads_cfg = RoadsConfig {
        max_children: 4,
        summary: SummaryConfig::with_buckets(500),
        ..RoadsConfig::paper_default()
    };
    let delays = DelaySpace::paper(nodes, 7);
    let reg = Registry::new();
    let mut explains = Vec::new();
    let net = RoadsNetwork::build(schema.clone(), roads_cfg, records.clone());
    let roads = RoadsCluster::start_with(
        net,
        delays.clone(),
        runtime_cfg,
        Attachments::instrumented(&reg),
    );
    let central = CentralCluster::start(schema, records, delays, 0, runtime_cfg);

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "sel(%)", "ROADS avg", "ROADS p90", "ROADS p99", "Cent avg", "Cent p90", "recs"
    );
    let mut roads_pts = Vec::new();
    let mut roads_p99_pts = Vec::new();
    let mut central_pts = Vec::new();
    for (target, queries) in &groups {
        let mut roads_ms = Vec::new();
        let mut central_ms = Vec::new();
        let mut recs = 0usize;
        for (i, q) in queries.iter().enumerate() {
            let start = ServerId((i % nodes) as u32);
            let (r, explain) = roads.query_with(q, start, RequesterId(0), true);
            explains.extend(explain);
            recs = recs.max(r.records.len());
            roads_ms.push(r.response_ms);
            let c = central.query(q, i % nodes);
            central_ms.push(c.response_ms);
            assert_eq!(
                r.records.len(),
                c.records.len(),
                "both systems must return identical result sets"
            );
        }
        let rs = LatencyStats::from_samples(&roads_ms).expect("non-empty");
        let cs = LatencyStats::from_samples(&central_ms).expect("non-empty");
        println!(
            "{:>8.2} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>8}",
            target, rs.mean, rs.p90, rs.p99, cs.mean, cs.p90, recs
        );
        // Log-ish x: plot against the group index so the 0.01..3% decades
        // spread evenly, as in the paper's log-x figure.
        let idx = roads_pts.len() as f64;
        roads_pts.push((idx, rs.mean));
        roads_p99_pts.push((idx, rs.p99));
        central_pts.push((idx, cs.mean));
    }
    println!();
    print!(
        "{}",
        render(
            &[
                Series::new("ROADS avg (ms)", roads_pts.clone()),
                Series::new("Central avg (ms)", central_pts.clone())
            ],
            48,
            12
        )
    );
    println!("(x axis: selectivity group index, 0 = 0.01% .. 5 = 3%)");
    println!("\npaper: ROADS ~1000 ms below 0.3% selectivity; central rises past ROADS by 3%.");
    roads.shutdown();
    central.shutdown();

    let mut fig = FigureExport::new(
        "fig11_prototype_response",
        "Prototype total response time vs query selectivity",
    )
    .axes(
        "selectivity group index (0 = 0.01% .. 5 = 3%)",
        "response time (ms)",
    );
    if let (Some(&(_, r_last)), Some(&(_, c_last))) = (roads_pts.last(), central_pts.last()) {
        // At 3% selectivity the paper has ROADS beating central.
        fig.push_reference("roads_over_central_ratio@3pct", r_last / c_last, 0.8);
    }
    fig.push_series("roads_mean_ms", &roads_pts);
    fig.push_series("roads_p99_ms", &roads_p99_pts);
    fig.push_series("central_mean_ms", &central_pts);
    fig.push_note(
        "runtime.*_us phase spans (local search, channel wait, result merge) in telemetry",
    );
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
