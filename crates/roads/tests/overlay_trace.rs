//! Integration test: the replication overlay's effect on traced query
//! paths (§III-C).
//!
//! Without the overlay every query enters at the root, so every trace must
//! visit it. With the overlay a leaf-entry query jumps straight to sibling
//! branches via replicated summaries, so its trace contains overlay
//! shortcuts — hops whose forwarder is not the tree parent. Scoped to
//! one level, such a query's hop tree never reaches the root.

use roads_core::{
    execute_query_with, explain_from_trace, QueryOptions, RoadsConfig, RoadsNetwork, SearchScope,
    ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;
use roads_telemetry::{aggregate_traces, check_hop_tree, ExplainDecision, QueryExplain};

const NODES: usize = 27;

/// A 27-server network (degree 3, three full levels) where every server
/// owns records spread over [0,1]² so broad queries match many branches.
fn network() -> (RoadsNetwork, Schema, DelaySpace) {
    let schema = Schema::unit_numeric(2);
    let records: Vec<Vec<Record>> = (0..NODES)
        .map(|s| {
            (0..8)
                .map(|i| {
                    Record::new_unchecked(
                        RecordId((s * 8 + i) as u64),
                        OwnerId(s as u32),
                        vec![
                            Value::Float(s as f64 / NODES as f64),
                            Value::Float(i as f64 / 8.0),
                        ],
                    )
                })
                .collect()
        })
        .collect();
    let net = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        },
        records,
    );
    let delays = DelaySpace::paper(NODES, 11);
    (net, schema, delays)
}

fn broad_query(id: u64) -> Query {
    Query::new(
        QueryId(id),
        vec![Predicate::Range {
            attr: AttrId(0),
            lo: 0.0,
            hi: 1.0,
        }],
    )
}

/// The execution of `q` from `entry` under `opts`, explained.
fn explained_with(
    net: &RoadsNetwork,
    delays: &DelaySpace,
    q: &Query,
    entry: ServerId,
    opts: &QueryOptions,
) -> QueryExplain {
    let mut trace = Vec::new();
    let out = execute_query_with(net, delays, q, entry, opts, Some(&mut trace));
    let explain = explain_from_trace(net, q, &trace, ExplainDecision::Entry);
    assert_eq!(explain.hops.len(), out.servers_contacted);
    explain
}

/// The default execution of `q` from `entry`, explained.
fn explained(net: &RoadsNetwork, delays: &DelaySpace, q: &Query, entry: ServerId) -> QueryExplain {
    explained_with(net, delays, q, entry, &QueryOptions::default())
}

fn shortcuts(explain: &QueryExplain) -> usize {
    let hops = explain.hops.iter();
    hops.filter(|h| h.decision == ExplainDecision::OverlayShortcut)
        .count()
}

#[test]
fn root_entry_traces_always_visit_root() {
    let (net, _schema, delays) = network();
    let root = net.tree().root();
    let mut traces = Vec::new();
    for id in 0..20u64 {
        let q = broad_query(id);
        let t = explained(&net, &delays, &q, root);
        assert!(
            t.hops.iter().any(|h| h.server == root.0),
            "query {id}: overlay-off (root entry) trace skipped the root"
        );
        assert_eq!(t.entry, root.0, "entry hop must be the root");
        // Entered at the top of the tree: nothing above to climb to and no
        // replicated sibling summaries to shortcut through.
        assert_eq!(shortcuts(&t), 0);
        traces.push(t);
    }
    let report = aggregate_traces(&traces, root.0, NODES);
    assert_eq!(report.queries, 20);
    assert_eq!(report.root_visits, 20, "every trace touches the root");
    assert_eq!(report.overlay_shortcuts, 0);
}

#[test]
fn leaf_entry_traces_use_overlay_shortcuts() {
    let (net, _schema, delays) = network();
    let root = net.tree().root();
    // A deepest-level server: its replication set spans sibling branches.
    let leaf = *net
        .tree()
        .servers()
        .iter()
        .max_by_key(|&&s| net.tree().depth(s))
        .expect("non-empty tree");
    assert!(net.tree().depth(leaf) >= 2, "need a true leaf entry");

    let mut traces = Vec::new();
    for id in 0..20u64 {
        let q = broad_query(id);
        let t = explained(&net, &delays, &q, leaf);
        assert!(
            shortcuts(&t) >= 1,
            "query {id}: broad leaf-entry query used no overlay shortcut"
        );
        traces.push(t);
    }
    let report = aggregate_traces(&traces, root.0, NODES);
    assert!(report.overlay_shortcuts >= 20);
    // The root is at most probed locally, never the fan-out hub: its share
    // of hops stays far below the overlay-off regime where it forwards
    // every query.
    assert!(
        report.root_load_share < 0.5,
        "root load share {} too high with overlay on",
        report.root_load_share
    );
}

#[test]
fn scoped_leaf_entry_hop_tree_takes_overlay_shortcuts_and_skips_root() {
    let (net, _schema, delays) = network();
    let root = net.tree().root();
    let leaf = *net.tree().leaves().iter().max().unwrap();
    assert_ne!(leaf, root);
    // Level-1 scope: the entry searches its own branch, its overlay
    // shortcuts (siblings + ancestors' siblings) and climbs at most one
    // level — the root stays out of the picture.
    let opts = QueryOptions::scoped(SearchScope::levels(1));
    let t = explained_with(&net, &delays, &broad_query(42), leaf, &opts);
    assert!(t.hops.len() > 1);
    assert!(
        t.hops.iter().all(|h| h.server != root.0),
        "a level-1 scoped leaf query must never visit the root"
    );
    // One tree, rooted at the entry.
    assert_eq!(check_hop_tree(t.hops.iter().map(|h| h.caused_by)), Ok(()));
    assert_eq!((t.entry, t.hops[0].server), (leaf.0, leaf.0));
    // An overlay-shortcut edge: a shortcut hop whose forwarder is not
    // its tree parent.
    let forwarder = |j: usize| t.hops[j].caused_by.map(|c| ServerId(t.hops[c].server));
    assert!(
        (1..t.hops.len()).any(|j| t.hops[j].decision == ExplainDecision::OverlayShortcut
            && net.tree().parent(ServerId(t.hops[j].server)) != forwarder(j)),
        "the hop tree must contain an overlay-shortcut edge (non-tree-parent forwarder)"
    );
}
