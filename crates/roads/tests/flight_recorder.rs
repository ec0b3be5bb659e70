//! End-to-end flight-recorder check (§III-C replication overlay):
//! a leaf-entry query with the overlay enabled must produce a valid span
//! tree rooted at the entry server, containing at least one
//! overlay-shortcut edge (an edge whose child hop was reached from a
//! non-parent server), and — with a level-1 scope — never visit the root.

use roads_core::{
    execute_query_with, explain_from_trace, record_query_events, QueryOptions, RoadsConfig,
    RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_summary::SummaryConfig;
use roads_telemetry::{
    span_tree_root, trace_events, EventKind, ExplainDecision, Recorder, TraceId,
};
use roads_workload::line_records;

fn network(n: usize, degree: usize) -> (RoadsNetwork, DelaySpace) {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: degree,
        summary: SummaryConfig::with_buckets(200),
        ..RoadsConfig::paper_default()
    };
    let net = RoadsNetwork::build(schema, cfg, line_records(n, 1));
    let delays = DelaySpace::paper(n, 77);
    (net, delays)
}

fn broad_query(net: &RoadsNetwork) -> Query {
    QueryBuilder::new(net.schema(), QueryId(42))
        .range("x0", 0.0, 1.0)
        .build()
}

#[test]
fn leaf_entry_query_span_tree_takes_overlay_shortcut_and_skips_root() {
    let (net, delays) = network(40, 3);
    let leaf = *net.tree().leaves().iter().max().unwrap();
    let root = net.tree().root();
    assert_ne!(leaf, root);
    let q = broad_query(&net);

    // Level-1 scope: the entry searches its own branch, its overlay
    // shortcuts (siblings + ancestors' siblings) and climbs at most one
    // level — the root stays out of the picture.
    let opts = QueryOptions::scoped(SearchScope::levels(1));
    let mut trace = Vec::new();
    let out = execute_query_with(&net, &delays, &q, leaf, &opts, Some(&mut trace));
    assert!(out.servers_contacted > 1);
    assert!(
        trace.iter().all(|e| e.server != root),
        "a level-1 scoped leaf query must never visit the root"
    );

    // The explain record's decisions must show an overlay-shortcut edge.
    let explain = explain_from_trace(&net, &q, TraceId::NONE, &trace, ExplainDecision::Entry);
    assert!(
        explain
            .hops
            .iter()
            .any(|h| h.decision == ExplainDecision::OverlayShortcut),
        "leaf entry with the overlay enabled must take an overlay shortcut"
    );

    // Recorded as flight-recorder events, the same execution forms a
    // valid (acyclic, single-rooted) span tree rooted at the entry.
    let rec = Recorder::new(4096);
    let trace_id = rec.next_trace_id();
    assert!(
        !record_query_events(&rec, trace_id, &trace).is_empty(),
        "a non-empty trace records events"
    );
    let events = rec.events();
    let tree_events = trace_events(&events, trace_id);
    let root_span = span_tree_root(&tree_events, trace_id).expect("span tree is valid");
    let root_hop = tree_events
        .iter()
        .find(|e| e.span == root_span && e.kind == EventKind::QueryHop)
        .expect("root span has a QueryHop event");
    assert_eq!(root_hop.node, leaf.0, "span tree is rooted at the entry");
    assert!(
        tree_events.iter().all(|e| e.node != root.0),
        "no recorded event may touch the root server"
    );

    // The overlay-shortcut edge exists in the span tree: some hop's span
    // parent belongs to a server that is NOT its tree parent.
    let overlay_edge = tree_events
        .iter()
        .filter(|e| e.kind == EventKind::QueryHop && !e.parent.is_none())
        .any(|e| {
            let parent_node = tree_events
                .iter()
                .find(|p| p.span == e.parent && p.kind == EventKind::QueryHop)
                .map(|p| ServerId(p.node));
            parent_node.is_some() && net.tree().parent(ServerId(e.node)) != parent_node
        });
    assert!(
        overlay_edge,
        "span tree must contain an overlay-shortcut edge (non-tree-parent forwarder)"
    );
}
