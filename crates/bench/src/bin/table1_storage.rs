//! Table I, measured: per-server storage of ROADS, SWORD and the central
//! repository over the same concrete workload, next to the analytic
//! expressions.

use roads_bench::{banner, figure_config};
use roads_central::CentralRepository;
use roads_core::{RoadsConfig, RoadsNetwork};
use roads_summary::SummaryConfig;
use roads_sword::SwordNetwork;
use roads_telemetry::{write_chrome_trace_default, EventKind, FigureExport, Recorder, SpanId};
use roads_workload::{default_schema, generate_node_records, RecordWorkloadConfig};

/// Worst-server storage bytes of (ROADS, SWORD, Central) for one workload.
fn measure(
    nodes: usize,
    records_per_node: usize,
    attrs: usize,
    buckets: usize,
    degree: usize,
    seed: u64,
) -> (u64, u64, u64) {
    let rec_cfg = RecordWorkloadConfig {
        nodes,
        records_per_node,
        attrs,
        seed,
    };
    let records = generate_node_records(&rec_cfg);
    let schema = default_schema(attrs);

    let roads = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig {
            max_children: degree,
            summary: SummaryConfig::with_buckets(buckets),
            ..RoadsConfig::paper_default()
        },
        records.clone(),
    );
    let sword = SwordNetwork::build(schema.clone(), records.clone());
    let central = CentralRepository::build(0, records);

    let roads_max = roads.max_storage_bytes();
    let sword_max = sword.max_storage_bytes();
    let central_total = central.storage_bytes();

    println!(
        "\nworkload: {nodes} nodes x {records_per_node} records x {attrs} attrs, {buckets} buckets, degree {degree}"
    );
    println!(
        "{:<10} {:>18} {:>24}",
        "system", "bytes (worst srv)", "analytic shape"
    );
    println!("{:<10} {:>18} {:>24}", "ROADS", roads_max, "r·m·k·(i+1)");
    println!("{:<10} {:>18} {:>24}", "SWORD", sword_max, "r²·K·N/n");
    println!("{:<10} {:>18} {:>24}", "Central", central_total, "r·K·N");
    println!(
        "SWORD/ROADS = {:.0}x, Central/ROADS = {:.0}x",
        sword_max as f64 / roads_max as f64,
        central_total as f64 / roads_max as f64
    );
    (roads_max as u64, sword_max as u64, central_total as u64)
}

fn main() {
    banner(
        "Table I — storage overhead (measured bytes, worst server)",
        "ROADS orders of magnitude below SWORD and Central",
    );
    let cfg = figure_config();
    let rec = Recorder::new(1024);
    let trace = rec.next_trace_id();
    let t0 = std::time::Instant::now();
    // Row 1: the simulation workload (K = 500 records per node). At this
    // scale summaries and per-server record shares are comparable.
    let row1 = measure(
        cfg.nodes,
        cfg.records_per_node,
        cfg.attrs,
        cfg.buckets,
        cfg.degree,
        cfg.seed,
    );
    // Row 2: the Table I regime — records dominate (K large, coarse m=100
    // summaries as in the §IV worked example). The gap widens with K
    // because summaries are constant-size.
    let (n2, k2) = if cfg.nodes <= 64 {
        (32, 500)
    } else {
        (64, 2_000)
    };
    let row1_end = t0.elapsed().as_micros() as u64;
    let row2 = measure(n2, k2, 25, 100, 5, cfg.seed);
    let row2_end = t0.elapsed().as_micros() as u64;
    // Wall-clock Mark spans: one root covering both measured rows.
    let root_span = rec.record_span(
        trace,
        SpanId::NONE,
        0,
        EventKind::Mark,
        0,
        row2_end.max(1),
        0,
    );
    rec.record_span(
        trace,
        root_span,
        0,
        EventKind::Mark,
        0,
        row1_end.max(1),
        row1.0,
    );
    rec.record_span(
        trace,
        root_span,
        0,
        EventKind::Mark,
        row1_end,
        row2_end.saturating_sub(row1_end).max(1),
        row2.0,
    );
    println!("\n(paper exemplary values: ROADS 2e5, SWORD 6.4e8, Central 1e9 attribute values;");
    println!(" the ROADS advantage grows linearly with records per owner, K)");

    let mut fig = FigureExport::new(
        "table1_storage",
        "Table I: storage overhead (measured bytes, worst server)",
    )
    .axes(
        "row (0 = sim workload, 1 = Table I regime)",
        "storage (B, worst server)",
    );
    fig.push_series("roads_bytes", &[(0.0, row1.0 as f64), (1.0, row2.0 as f64)]);
    fig.push_series("sword_bytes", &[(0.0, row1.1 as f64), (1.0, row2.1 as f64)]);
    fig.push_series(
        "central_bytes",
        &[(0.0, row1.2 as f64), (1.0, row2.2 as f64)],
    );
    // Paper's exemplary Table I has SWORD/ROADS = 6.4e8 / 2e5 = 3200; our
    // scaled-down row 2 preserves the ordering, not the magnitude.
    fig.push_reference(
        "sword_over_roads_row2",
        row2.1 as f64 / row2.0 as f64,
        3_200.0,
    );
    fig.push_note("ROADS worst-server storage is summaries only; SWORD/Central hold records");
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    // This binary drives no query plane; the digest records that
    // explicitly rather than omitting the line.
    roads_bench::print_metrics_digest(&roads_telemetry::Registry::new().snapshot());
}
