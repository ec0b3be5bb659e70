//! Ablation (§VI): cost of membership churn — soft-state summaries vs
//! hash-placed records.
//!
//! In a DHT, record placement is determined by the hash function, so every
//! join or leave moves the records on the affected arc. In ROADS nothing
//! moves: summaries are soft state that expires and re-aggregates within
//! one refresh period. This binary joins/leaves servers in both designs
//! and accounts the bytes each event costs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roads_bench::banner;
use roads_core::{update_round, RoadsConfig, RoadsNetwork};
use roads_records::WireSize;
use roads_summary::SummaryConfig;
use roads_sword::DynamicRing;
use roads_telemetry::{
    write_chrome_trace_default, EventKind, FigureExport, Recorder, Registry, SpanId,
};
use roads_workload::{default_schema, generate_node_records, RecordWorkloadConfig};

fn main() {
    banner(
        "Ablation — churn cost: ROADS soft state vs DHT record transfers",
        "§VI: DHT placement is hash-determined, so churn moves data; summaries just refresh",
    );
    let nodes = 64;
    let records_per_node = 200;
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node,
        attrs: 16,
        seed: 31,
    });
    let schema = default_schema(16);
    let mut rng = StdRng::seed_from_u64(7);

    // DHT side: one attribute ring holding every record (per-record cost of
    // the other 15 rings is identical, so scale at the end).
    let mut ring = DynamicRing::new();
    for i in 0..nodes as u32 {
        ring.join(i, rng.gen::<f64>());
    }
    for rec in records.iter().flatten() {
        let p = rec.get_f64(roads_records::AttrId(0)).unwrap_or(0.5);
        ring.store(p, rec.clone());
    }

    // ROADS side: a membership event moves NO data synchronously. The
    // departed branch simply stops refreshing (soft state expires) and the
    // next periodic round re-aggregates — traffic that is already part of
    // the steady-state budget. We print that budget for context.
    let net = RoadsNetwork::build(
        schema,
        RoadsConfig {
            summary: SummaryConfig::with_buckets(1000),
            ..RoadsConfig::paper_default()
        },
        records.clone(),
    );
    let cfg = RoadsConfig::paper_default();
    let roads_steady_bps = update_round(&net).bytes_per_second(cfg.ts_ms);

    println!(
        "{:>6} {:>10} {:>18} {:>18} {:>14}",
        "event", "kind", "DHT moved (recs)", "DHT sync bytes", "ROADS sync"
    );
    let reg = Registry::new();
    let rec = Recorder::new(4096);
    let churn_trace = rec.next_trace_id();
    // One Mark span brackets the whole churn schedule; each membership
    // event hangs off it as a ChurnJoin/ChurnLeave child span.
    let churn_root = rec.record_span(churn_trace, SpanId::NONE, 0, EventKind::Mark, 0, 21_000, 0);
    let dht_bytes_ctr = reg.counter("churn.dht_sync_bytes");
    let dht_moved_ctr = reg.counter("churn.dht_records_moved");
    let events_ctr = reg.counter("churn.events");
    let mut dht_total = 0u64;
    let mut dht_pts = Vec::new();
    for event in 0..20 {
        let (kind, cost) = if event % 2 == 0 {
            ("join", ring.join(1000 + event, rng.gen::<f64>()))
        } else {
            // Leave a random existing position by probing.
            let p = rng.gen::<f64>();
            ("leave", ring.leave_nearest(p))
        };
        // One ring measured; SWORD keeps 16 (one per attribute).
        let dht_bytes = cost.bytes * 16;
        dht_total += dht_bytes;
        events_ctr.inc();
        dht_bytes_ctr.add(dht_bytes);
        dht_moved_ctr.add(cost.records_moved);
        dht_pts.push((event as f64, dht_bytes as f64));
        let event_kind = if kind == "join" {
            EventKind::ChurnJoin
        } else {
            EventKind::ChurnLeave
        };
        rec.record_span(
            churn_trace,
            churn_root,
            1000 + event,
            event_kind,
            (event as u64 + 1) * 1_000,
            1_000,
            dht_bytes,
        );
        println!(
            "{:>6} {:>10} {:>18} {:>18} {:>14}",
            event, kind, cost.records_moved, dht_bytes, 0
        );
    }
    println!("\ntotals over 20 events:");
    println!(
        "  DHT synchronous record transfer : {dht_total} bytes (blocks correctness until done)"
    );
    println!("  ROADS synchronous transfer      : 0 bytes (view heals on the next refresh, bounded by ts)");
    println!("  ROADS steady-state refresh rate : {roads_steady_bps:.0} B/s regardless of churn");
    println!(
        "(total corpus: {} records x {} bytes avg)",
        nodes * records_per_node,
        records
            .iter()
            .flatten()
            .map(WireSize::wire_size)
            .sum::<usize>()
            / (nodes * records_per_node)
    );

    let mut fig = FigureExport::new(
        "fig_ablation_churn",
        "Churn cost: ROADS soft state vs DHT record transfers",
    )
    .axes("membership event index", "synchronous bytes");
    fig.push_reference("roads_sync_bytes_per_event", 0.0, 0.0);
    fig.push_series("dht_sync_bytes", &dht_pts);
    fig.push_note(format!(
        "20 events: DHT moved {dht_total} bytes synchronously; ROADS moved 0 \
         (steady refresh {roads_steady_bps:.0} B/s regardless of churn)"
    ));
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
