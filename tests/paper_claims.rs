//! The paper's headline claims, asserted as tests at reduced scale.
//!
//! These are the qualitative *shapes* of §IV–V: who wins, in which
//! direction curves move, and by roughly what magnitude class. Each test
//! names the figure or section it guards.

use roads_federation::central::CentralRepository;
use roads_federation::core::{
    execute_query, update_round, RoadsConfig, RoadsNetwork, SearchScope, ServerId,
};
use roads_federation::netsim::DelaySpace;
use roads_federation::sword::SwordNetwork;
use roads_federation::workload::{
    default_schema, generate_node_records, generate_queries, QueryWorkloadConfig,
    RecordWorkloadConfig,
};
use roads_summary::SummaryConfig;

fn mean_latencies(nodes: usize, dims: usize, degree: usize) -> (f64, f64) {
    let schema = default_schema(16);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node: 60,
        attrs: 16,
        seed: 7,
    });
    let queries = generate_queries(
        &schema,
        &QueryWorkloadConfig {
            count: 60,
            dims,
            range_len: 0.25,
            nodes,
            seed: 11,
        },
    );
    let roads = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig {
            max_children: degree,
            summary: SummaryConfig::with_buckets(300),
            ..RoadsConfig::paper_default()
        },
        records.clone(),
    );
    let sword = SwordNetwork::build(schema, records);
    let delays = DelaySpace::paper(nodes, 3);
    let (mut rl, mut sl) = (0.0, 0.0);
    for (q, start) in &queries {
        rl += execute_query(
            &roads,
            &delays,
            q,
            ServerId(*start as u32),
            SearchScope::full(),
        )
        .latency_ms;
        sl += sword.execute_query(&delays, q, *start).latency_ms;
    }
    (rl / queries.len() as f64, sl / queries.len() as f64)
}

#[test]
fn fig3_roads_latency_below_sword_and_sublinear() {
    // ROADS 40–60% below SWORD; ROADS grows ~log, SWORD ~linear.
    let (r128, s128) = mean_latencies(128, 6, 8);
    let (r512, s512) = mean_latencies(512, 6, 8);
    assert!(
        r128 < s128 && r512 < s512,
        "ROADS must be faster: {r128} vs {s128}, {r512} vs {s512}"
    );
    // 4x more nodes: SWORD's growth factor must exceed ROADS'.
    let roads_growth = r512 / r128;
    let sword_growth = s512 / s128;
    assert!(
        sword_growth > roads_growth,
        "SWORD should grow faster: ROADS x{roads_growth:.2}, SWORD x{sword_growth:.2}"
    );
    assert!(roads_growth < 2.0, "ROADS growth should be logarithmic-ish");
}

#[test]
fn fig4_roads_update_overhead_orders_below_sword() {
    let schema = default_schema(16);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: 100,
        records_per_node: 200,
        attrs: 16,
        seed: 5,
    });
    let roads = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig::paper_default(),
        records.clone(),
    );
    let sword = SwordNetwork::build(schema.clone(), records.clone());
    let central = CentralRepository::build(0, records);
    let cfg = RoadsConfig::paper_default();
    // Records refresh ten times as often as summaries (§IV: tr = ts / 10).
    let tr_ms = cfg.ts_ms / 10;
    let roads_bps = update_round(&roads).bytes_per_second(cfg.ts_ms);
    let sword_bps = sword.update_round().bytes_per_second(tr_ms);
    let central_bps = central.update_round().bytes_per_second(tr_ms);
    assert!(
        sword_bps / roads_bps > 10.0,
        "1-2 orders of magnitude: got {:.1}x",
        sword_bps / roads_bps
    );
    assert!(
        sword_bps > central_bps,
        "SWORD replicates r times, central once"
    );
}

#[test]
fn fig5_roads_query_overhead_above_sword() {
    // "ROADS has 2∼5 times higher query overhead than SWORD" (we accept
    // 2–12x; the exact factor depends on unpublished data distributions).
    let schema = default_schema(16);
    let nodes = 128;
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node: 60,
        attrs: 16,
        seed: 9,
    });
    let queries = generate_queries(
        &schema,
        &QueryWorkloadConfig {
            count: 60,
            dims: 6,
            range_len: 0.25,
            nodes,
            seed: 2,
        },
    );
    let roads = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig::paper_default(),
        records.clone(),
    );
    let sword = SwordNetwork::build(schema, records);
    let delays = DelaySpace::paper(nodes, 4);
    let (mut rb, mut sb) = (0u64, 0u64);
    for (q, start) in &queries {
        rb += execute_query(
            &roads,
            &delays,
            q,
            ServerId(*start as u32),
            SearchScope::full(),
        )
        .query_bytes;
        sb += sword.execute_query(&delays, q, *start).query_bytes;
    }
    let ratio = rb as f64 / sb as f64;
    assert!(
        (1.5..20.0).contains(&ratio),
        "ROADS visits more servers, within reason: {ratio:.1}x"
    );
}

#[test]
fn fig6_roads_latency_decreases_with_dimensionality_sword_flat() {
    let (r2, s2) = mean_latencies(128, 2, 8);
    let (r8, s8) = mean_latencies(128, 8, 8);
    assert!(
        r8 < r2,
        "more dimensions confine the ROADS search: {r2:.0} -> {r8:.0}"
    );
    let sword_change = (s8 - s2).abs() / s2;
    assert!(
        sword_change < 0.25,
        "SWORD uses one dimension only; latency should stay flat ({sword_change:.2})"
    );
}

#[test]
fn fig8_roads_update_constant_sword_linear_in_records() {
    let schema = default_schema(16);
    let build = |records_per_node: usize| {
        let records = generate_node_records(&RecordWorkloadConfig {
            nodes: 60,
            records_per_node,
            attrs: 16,
            seed: 3,
        });
        let roads = RoadsNetwork::build(
            schema.clone(),
            RoadsConfig::paper_default(),
            records.clone(),
        );
        let sword = SwordNetwork::build(schema.clone(), records);
        (
            update_round(&roads).total_bytes(),
            sword.update_round().bytes,
        )
    };
    let (r50, s50) = build(50);
    let (r500, s500) = build(500);
    assert_eq!(r50, r500, "constant-size summaries");
    let growth = s500 as f64 / s50 as f64;
    assert!(
        (8.0..12.0).contains(&growth),
        "SWORD should grow ~10x, got {growth:.1}x"
    );
}

#[test]
fn fig10_latency_decreases_with_degree() {
    let (r_deg4, _) = mean_latencies(200, 6, 4);
    let (r_deg12, _) = mean_latencies(200, 6, 12);
    assert!(
        r_deg12 < r_deg4,
        "flatter hierarchy, fewer hops: {r_deg4:.0} -> {r_deg12:.0}"
    );
}

#[test]
fn table1_storage_ordering() {
    let schema = default_schema(16);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: 60,
        records_per_node: 300,
        attrs: 16,
        seed: 13,
    });
    let roads = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig::paper_default(),
        records.clone(),
    );
    let sword = SwordNetwork::build(schema.clone(), records.clone());
    let central = CentralRepository::build(0, records);
    let r = roads.max_storage_bytes();
    let s = sword.max_storage_bytes();
    let c = central.storage_bytes();
    assert!(r < s, "ROADS {r} < SWORD {s}");
    assert!(s < c, "SWORD {s} < central {c}");
}
