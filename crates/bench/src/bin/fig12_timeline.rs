//! Figure 12 (reproduction extra): soft-state convergence timeline.
//!
//! Runs the message-driven ROADS servers with the flight recorder and
//! the periodic timeline sampler attached, crashes a subtree mid-run, and
//! plots how the federation's soft state reacts: live child summaries
//! drop as the crashed branch's TTLs expire, then recover nothing (the
//! branch is gone) while overlay replicas and load share re-stabilise.
//! The exported Perfetto trace (`results/fig12_timeline.trace.json`)
//! shows the same run as causal spans: heartbeat ticks, summary
//! publishes/merges, replica installs/refreshes and TTL expiries.
//!
//! The message plane carries summaries only, on the heartbeats; queries
//! are routed by the engine's `route` on the summaries the servers keep. The hole the crash
//! leaves shows in the `live_summaries` series, and
//! `protocol::tests::crashed_server_fades_from_parent_view` checks that
//! every copy left equals the audit plane's authoritative branch summary
//! under the crash.

use roads_bench::parse_args;
use roads_core::protocol::{build_simulation, run_with_timeline};
use roads_core::{HierarchyTree, RoadsConfig};
use roads_netsim::{DelaySpace, NodeId, SimTime};
use roads_records::Schema;
use roads_summary::SummaryConfig;
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Timeline};
use roads_workload::line_records;
use std::sync::Arc;

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 27 } else { 81 };
    println!("==================================================================");
    println!("Figure 12 — soft-state convergence timeline ({n} servers)");
    println!("gauges sampled every 2 s; a leaf subtree crashes at t = 30 s");
    println!("==================================================================");

    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(100),
        ts_ms: 2_000,
        summary_ttl_ms: 7_000,
    };
    let tree = HierarchyTree::build(n, cfg.max_children);
    let mut sim = build_simulation(
        cfg,
        schema,
        line_records(n, 1),
        &tree,
        DelaySpace::paper(n, 17),
    );
    let rec = Arc::new(Recorder::new(65_536));
    sim.set_recorder(Arc::clone(&rec));
    let mut timeline = Timeline::new(2_000.0);

    // Phase 1: converge from cold soft state.
    run_with_timeline(&mut sim, SimTime::from_millis(30_000), &mut timeline);

    // Crash one non-root branch: its summaries stop refreshing and the
    // parents' TTLs sweep them out within summary_ttl_ms.
    let victim = *tree
        .children(tree.root())
        .last()
        .expect("root has children");
    let crashed = tree.subtree(victim);
    for &s in &crashed {
        sim.node_mut(NodeId(s.0)).crash();
    }
    println!(
        "crashed branch under server {} ({} servers)",
        victim.0,
        crashed.len()
    );

    // Phase 2: watch the soft state heal around the hole.
    run_with_timeline(&mut sim, SimTime::from_millis(65_000), &mut timeline);

    for s in timeline.series() {
        let last = s.points.last().map(|p| p.1).unwrap_or(0.0);
        println!(
            "{:<18} {} samples, final value {:.2}",
            s.name,
            s.points.len(),
            last
        );
    }
    let expiries = rec
        .events()
        .iter()
        .filter(|e| e.kind == roads_telemetry::EventKind::TtlExpire)
        .count();
    println!("TTL expiry events recorded: {expiries}");

    let mut fig = FigureExport::new(
        "fig12_timeline",
        "Soft-state convergence timeline with a mid-run branch crash",
    )
    .axes("virtual time (ms)", "gauge value");
    timeline.attach(&mut fig);
    fig.push_note(format!(
        "{n} servers, ts=2s, TTL=7s; branch under server {} ({} servers) crashed at t=30s",
        victim.0,
        crashed.len()
    ));
    fig.push_note(format!("{expiries} TTL expiry events in the trace"));
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
}
