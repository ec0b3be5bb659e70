//! Cross-validation between independent implementations of the same
//! quantities: the message-driven summary plane vs the closed-form
//! accounting, and the analytic latency model vs the simulator. (That the
//! summary plane converges to the engine's summaries, byte for byte, is
//! checked by `protocol.rs`'s unit tests.)

use roads_federation::analysis::{roads_latency_ms, LatencyModel};
use roads_federation::core::protocol::build_simulation;
use roads_federation::core::{
    execute_query, update_round, HierarchyTree, RoadsConfig, RoadsNetwork, SearchScope, ServerId,
};
use roads_federation::netsim::{DelaySpace, SimTime, TrafficClass};
use roads_federation::prelude::*;
use roads_federation::workload::{default_schema, generate_node_records, RecordWorkloadConfig};

fn workload(nodes: usize) -> (Schema, Vec<Vec<Record>>) {
    let schema = default_schema(8);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node: 20,
        attrs: 8,
        seed: 77,
    });
    (schema, records)
}

#[test]
fn live_data_plane_update_bytes_match_accounting() {
    // The analytic accounting (updates.rs) and the live protocol
    // (protocol.rs) are written independently; per heartbeat round they
    // must agree on the update traffic to within the modeling differences
    // (the live plane skips the owner-export hop for co-located owners, its
    // heartbeats carry per replica a 4-byte origin tag, the origin's 8-byte
    // stamp and a 1-byte hop count, and heartbeats and replies carry the
    // hierarchy's root path, epoch and branch shape).
    let nodes = 27;
    let (schema, records) = workload(nodes);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(64),
        ts_ms: 5_000,
        summary_ttl_ms: 30_000,
    };
    let tree = HierarchyTree::build(nodes, cfg.max_children);
    let net = RoadsNetwork::with_tree(schema.clone(), cfg, tree.clone(), records.clone());
    let predicted = update_round(&net);

    let mut sim = build_simulation(cfg, schema, records, &tree, DelaySpace::paper(nodes, 9));
    // Warm up until replication converges, then measure whole rounds.
    sim.run_until(SimTime::from_millis(30_000));
    sim.clear_stats();
    let rounds = 4u64;
    let deadline = sim.now() + SimTime::from_millis(rounds * 5_000);
    sim.run_until(deadline);
    let measured_per_round = sim.stats().bytes(TrafficClass::Update) as f64 / rounds as f64;

    // The analytic round includes the owner-export wave the live sim skips
    // (owners are co-located); compare against aggregation + replication.
    let predicted_wire = (predicted.aggregation_bytes + predicted.replication_bytes) as f64;
    let ratio = measured_per_round / predicted_wire;
    assert!(
        (0.9..1.1).contains(&ratio),
        "live {measured_per_round:.0} B/round vs predicted {predicted_wire:.0} (ratio {ratio:.3})"
    );
}

#[test]
fn latency_model_tracks_simulated_curve() {
    // The closed-form model of analysis::latency must predict the
    // simulator's ROADS growth trend (not absolute values): correlation in
    // direction across a node sweep.
    let model = LatencyModel {
        mean_delay_ms: 90.0,
        degree: 8,
        rings: 8,
        alpha: 0.25,
    };
    let mut sim_points = Vec::new();
    for &nodes in &[32usize, 128, 600] {
        let (schema, records) = workload(nodes);
        let net = RoadsNetwork::build(schema.clone(), RoadsConfig::paper_default(), records);
        let delays = DelaySpace::paper(nodes, 3);
        let q = QueryBuilder::new(&schema, QueryId(1))
            .range("x0", 0.1, 0.35)
            .build();
        let out = execute_query(&net, &delays, &q, ServerId(0), SearchScope::full());
        sim_points.push((nodes, out.latency_ms, roads_latency_ms(nodes, &model)));
    }
    // Model and simulation must agree on ordering (monotone non-decreasing
    // with level growth) and stay within a small constant factor.
    for w in sim_points.windows(2) {
        let (_, sim_a, model_a) = w[0];
        let (_, sim_b, model_b) = w[1];
        if model_b > model_a {
            assert!(
                sim_b >= sim_a * 0.8,
                "model predicts growth, simulation shrank: {sim_a} -> {sim_b}"
            );
        }
    }
    for (n, sim_ms, model_ms) in sim_points {
        let ratio = sim_ms / model_ms;
        assert!(
            (0.2..5.0).contains(&ratio),
            "n={n}: simulated {sim_ms:.0} ms vs model {model_ms:.0} ms"
        );
    }
}
