//! Hierarchy maintenance under churn (§III-A).
//!
//! Runs the message-driven ROADS servers on the discrete-event simulator:
//! 30 servers with records join through the root, heartbeats carrying the
//! summaries flow, then we kill an internal server and finally the root
//! itself — and watch the federation heal: orphans rejoin from their
//! grandparents, the root's children elect a successor ("the one with the
//! smallest IP address").
//!
//! Run with: `cargo run --example churn_resilience`

use roads_federation::core::maintenance::extract_tree;
use roads_federation::core::protocol::build_simulation;
use roads_federation::core::{HierarchyTree, RoadsConfig, ServerId};
use roads_federation::netsim::{DelaySpace, NodeId, SimTime, TrafficClass};
use roads_federation::records::Schema;
use roads_federation::summary::SummaryConfig;
use roads_federation::workload::line_records;

fn main() {
    let n = 30;
    // A heartbeat a second; a peer silent for three is presumed dead.
    let cfg = RoadsConfig {
        max_children: 4,
        summary: SummaryConfig::with_buckets(100),
        ts_ms: 1_000,
        summary_ttl_ms: 3_000,
    };
    let start = HierarchyTree::new(n, ServerId(0));
    let schema = Schema::unit_numeric(1);
    let records = line_records(n, 10);
    let mut sim = build_simulation(cfg, schema, records, &start, DelaySpace::paper(n, 99));

    // Phase 1: let everyone join.
    sim.run_until(SimTime::from_millis(30_000));
    let tree = extract_tree(&sim).expect("converged after joins");
    println!(
        "t=30s   {} servers joined, {} levels, root {}",
        tree.len(),
        tree.levels(),
        tree.root()
    );

    // Phase 2: crash an internal (non-root) server with children.
    let victim = tree
        .servers()
        .into_iter()
        .find(|&s| s != tree.root() && !tree.children(s).is_empty())
        .expect("internal node exists");
    let orphans = tree.children(victim).len();
    println!("t=30s   crashing internal server {victim} ({orphans} children orphaned)");
    sim.node_mut(NodeId(victim.0)).crash();
    sim.run_until(SimTime::from_millis(90_000));
    let tree = extract_tree(&sim).expect("healed after internal failure");
    println!(
        "t=90s   healed: {} servers, {} levels (orphans rejoined via grandparents)",
        tree.len(),
        tree.levels()
    );

    // Phase 3: crash the root.
    let old_root = tree.root();
    let heir = *tree
        .children(old_root)
        .iter()
        .min()
        .expect("root has children");
    println!("t=90s   crashing ROOT {old_root} (expected heir by smallest-id rule: {heir})");
    sim.node_mut(NodeId(old_root.0)).crash();
    sim.run_until(SimTime::from_millis(180_000));
    let tree = extract_tree(&sim).expect("healed after root failure");
    println!(
        "t=180s  new root {} ({}), {} servers, {} levels",
        tree.root(),
        if tree.root() == heir {
            "as elected"
        } else {
            "fallback"
        },
        tree.len(),
        tree.levels()
    );
    tree.validate().expect("structurally valid hierarchy");

    // Heartbeats and their replies carry the summaries (Update); joins,
    // redirects and leaves are the membership's own traffic (Maintenance).
    println!("\ntraffic over 180s:");
    for (label, class) in [
        ("update (heartbeats + summaries)", TrafficClass::Update),
        ("maintenance (join / leave)", TrafficClass::Maintenance),
    ] {
        let bytes = sim.stats().bytes(class);
        println!(
            "  {label:<32} {bytes:>9} bytes in {:>5} messages, {:.1} B per server per second",
            sim.stats().messages(class),
            bytes as f64 / n as f64 / 180.0
        );
    }
}
