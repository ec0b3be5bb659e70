//! The live false-positive counters: a cluster started with a registry
//! counts, per tree level, every branch reply of a finished query
//! (`audit.live_probes{level}`) and every one that was hollow — its
//! summary vouched for its subtree and nothing came back
//! (`audit.live_false_positives{level}`).

use roads_core::{RoadsConfig, RoadsNetwork};
use roads_netsim::DelaySpace;
use roads_records::{QueryBuilder, QueryId, Schema};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_telemetry::Registry;
use roads_workload::line_records;

const RECORDS_PER_SERVER: usize = 10;

fn build_net(n: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(schema, cfg, line_records(n, RECORDS_PER_SERVER))
}

#[test]
fn live_branch_outcomes_fold_into_audit_counters() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 31),
        RuntimeConfig::test_fast(),
        Attachments::instrumented(&reg),
    );
    let root = c.network().tree().root();

    // A query that matches nothing but lands inside a populated histogram
    // bucket: records sit at multiples of 1/130, buckets are 1/64 wide,
    // and (0.3875, 0.3885) falls between records 50/130 and 51/130 inside
    // bucket 24 (which holds records 49 and 50). Every summary on the
    // path vouches for its branch and nothing comes back, so every branch
    // reply is a live false positive — the whole hollow chain, not only
    // its leaf: the live counters count by the explain plane's rule
    // (`roads_core::hollow_contacts`, nothing found in the contact's whole
    // redirect subtree), which is the rule this test pins.
    let spurious = QueryBuilder::new(c.network().schema(), QueryId(7))
        .range("x0", 0.3875, 0.3885)
        .build();
    let out = c.query(&spurious, root);
    assert!(out.records.is_empty());

    let counters = reg.snapshot().counters;
    let live_probes: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("audit.live_probes"))
        .map(|(_, &v)| v)
        .sum();
    let live_fps: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("audit.live_false_positives"))
        .map(|(_, &v)| v)
        .sum();
    assert!(
        live_probes >= 2,
        "branch replies must be folded, interior and leaf: {counters:?}"
    );
    assert_eq!(
        live_fps, live_probes,
        "nothing was found, so every branch contact was hollow: {counters:?}"
    );
    c.shutdown();
}
