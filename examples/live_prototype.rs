//! The threaded prototype end to end (§V "Prototype Benchmarking").
//!
//! Starts a real ROADS cluster — one OS thread per server, channels as the
//! network — and a central-repository cluster over the same data, then
//! issues the same queries against both and prints total response times
//! (query out → all matching records back), the metric of Fig. 11.
//!
//! Run with: `cargo run --release --example live_prototype`

use roads_federation::prelude::*;
use roads_federation::runtime::{CentralCluster, RoadsCluster, RuntimeConfig};
use roads_federation::workload::{
    default_schema, generate_node_records, selectivity_query_groups, RecordWorkloadConfig,
};

fn main() {
    let nodes = 12;
    let records_per_node = 400;
    let schema = default_schema(16);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node,
        attrs: 16,
        seed: 7,
    });

    let runtime_cfg = RuntimeConfig {
        per_record_retrieval_us: 800,
        base_query_cost_us: 4_000,
        bandwidth_mbps: 100.0,
        delay_scale: 0.2,
        ..RuntimeConfig::paper_like()
    };
    let delays = DelaySpace::paper(nodes, 3);
    let net = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(256),
            ..RoadsConfig::paper_default()
        },
        records.clone(),
    );
    println!(
        "live cluster: {} servers, {} records total, {} levels",
        nodes,
        nodes * records_per_node,
        net.tree().levels()
    );
    let roads = RoadsCluster::start(net, delays.clone(), runtime_cfg);
    let central = CentralCluster::start(schema.clone(), records.clone(), delays, 0, runtime_cfg);

    let groups = selectivity_query_groups(&schema, &records, &[0.1, 1.0, 5.0], 5, 6, 77);
    println!(
        "\n{:>8} {:>6} {:>14} {:>14}",
        "sel(%)", "recs", "ROADS (ms)", "central (ms)"
    );
    for (target, queries) in &groups {
        for (i, q) in queries.iter().enumerate() {
            let r = roads.query(q, ServerId((i % nodes) as u32));
            let c = central.query(q, i % nodes);
            assert_eq!(r.records.len(), c.records.len(), "identical result sets");
            println!(
                "{:>8.1} {:>6} {:>14.1} {:>14.1}",
                target,
                r.records.len(),
                r.response_ms,
                c.response_ms
            );
        }
    }
    println!("\nnote the crossover: the central repository answers small result");
    println!("sets in one round trip, but ROADS retrieves large result sets in");
    println!("parallel across servers (Fig. 11).");
    roads.shutdown();
    central.shutdown();
}
