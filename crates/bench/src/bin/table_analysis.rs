//! Section IV analysis: evaluate Eq. (1)–(4) at the paper's worked-example
//! parameters and cross-check the conclusions the paper draws from them.

use roads_analysis::{maintenance_overhead, storage_overhead, update_overhead, ModelParams};
use roads_telemetry::{write_chrome_trace_default, EventKind, FigureExport, Recorder, SpanId};

fn main() {
    let rec = Recorder::new(256);
    let t0 = std::time::Instant::now();
    let p = ModelParams::paper_example();
    println!("==================================================================");
    println!("Section IV — analytic model (paper worked example)");
    println!(
        "N={} owners, K={} records, r={} attrs, m={} buckets, k={}, L={}, n={}",
        p.n_owners, p.k_records, p.r_attrs, p.m_buckets, p.k_degree, p.l_levels, p.n_servers
    );
    println!(
        "tr={}s, ts={}s (tr/ts = {})",
        p.tr_secs,
        p.ts_secs,
        p.tr_secs / p.ts_secs
    );
    println!("==================================================================");

    let u = update_overhead(&p);
    println!("\nEq. (1)-(3) — per-second update overhead (attribute values/s):");
    println!("  ROADS   rm(N + kn log n)/ts   = {:>12.3e}", u.roads);
    println!("  SWORD   r^2 K N log n / tr    = {:>12.3e}", u.sword);
    println!("  Central r K N / tr            = {:>12.3e}", u.central);
    println!(
        "  SWORD/ROADS = {:.0}x   (paper: '1-2 orders of magnitude less overhead')",
        u.sword / u.roads
    );
    println!(
        "  SWORD/Central = {:.1}x (paper: 'r log n times higher than the central repository')",
        u.sword / u.central
    );

    let l7 = ModelParams {
        n_servers: 97_656.0,
        l_levels: 7.0,
        ..p
    };
    let (per_period, per_second) = maintenance_overhead(&l7);
    println!("\nEq. (4) — summary maintenance, worst-case per node (L=7, k=5):");
    println!(
        "  k^2 log n = {per_period:.0} summaries per ts ({per_second:.2}/s)   (paper: 'about 150 … per ts')"
    );

    let s = storage_overhead(&p);
    println!("\nTable I — storage overhead (attribute values):");
    println!("  {:<10} {:>14} {:>18}", "system", "expression", "value");
    println!("  {:<10} {:>14} {:>18.3e}", "ROADS", "rmk(i+1)", s.roads);
    println!("  {:<10} {:>14} {:>18.3e}", "SWORD", "r^2KN/n", s.sword);
    println!("  {:<10} {:>14} {:>18.3e}", "Central", "rKN", s.central);
    println!("  (paper exemplary values: 2e5, 6.4e8, 1e9 — same ordering and gaps)");

    let mut fig = FigureExport::new(
        "table_analysis",
        "Section IV analytic model at the paper's worked-example parameters",
    )
    .axes("quantity", "attribute values (or values/s)");
    fig.push_reference("storage_roads", s.roads, 2e5);
    fig.push_reference("storage_sword", s.sword, 6.4e8);
    fig.push_reference("storage_central", s.central, 1e9);
    fig.push_reference("maintenance_per_ts", per_period, 150.0);
    fig.push_series(
        "update_values_per_sec",
        &[(0.0, u.roads), (1.0, u.sword), (2.0, u.central)],
    );
    fig.push_note("series x: 0 = ROADS, 1 = SWORD, 2 = Central (Eq. (1)-(3))");
    // One wall-clock Mark span covering the whole analytic evaluation.
    let trace = rec.next_trace_id();
    rec.record_span(
        trace,
        SpanId::NONE,
        0,
        EventKind::Mark,
        0,
        (t0.elapsed().as_micros() as u64).max(1),
        u.roads as u64,
    );
    fig.write_default();
    write_chrome_trace_default(&fig.figure, Some(&rec), &[]);
    // This binary drives no query plane; the digest records that
    // explicitly rather than omitting the line.
    roads_bench::print_metrics_digest(&roads_telemetry::Registry::new().snapshot());
}
