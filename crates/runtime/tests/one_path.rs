//! One way to start a cluster, one way to run a query — what the
//! constructor and query-function families could not say.
//!
//! * Every attachment combines: one cluster carrying tiered owner
//!   policies *and* a registry *and* a flight recorder *and* a tail
//!   sampler, with each plane's view taken from the same run.
//! * Both planes run one per-server step (`RoadsNetwork::route`): with no
//!   faults and zero delay the live cluster contacts exactly the servers
//!   the simulator's client-redirect execution does, planner off and on.

use roads_core::policy::{OpenPolicy, SharingPolicy, TieredPolicy};
use roads_core::{
    execute_query_with, plan_query, ForwardingMode, QueryOptions, RequesterId, RoadsConfig,
    RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_telemetry::{
    parse_openmetrics, span_tree_root, trace_events, EventKind, OpenMetricsSnapshot, Recorder,
    Registry, TailSampler, TraceId,
};
use std::sync::Arc;

const RECORDS_PER_SERVER: usize = 10;

fn build_net(n: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    let records: Vec<Vec<Record>> = (0..n)
        .map(|s| {
            (0..RECORDS_PER_SERVER)
                .map(|i| {
                    let id = s * RECORDS_PER_SERVER + i;
                    Record::new_unchecked(
                        RecordId(id as u64),
                        OwnerId(s as u32),
                        vec![Value::Float(id as f64 / (n * RECORDS_PER_SERVER) as f64)],
                    )
                })
                .collect()
        })
        .collect();
    RoadsNetwork::build(schema, cfg, records)
}

fn range_query(net: &RoadsNetwork, id: u64, lo: f64, hi: f64) -> Query {
    QueryBuilder::new(net.schema(), QueryId(id))
        .range("x0", lo, hi)
        .build()
}

#[test]
fn every_attachment_combines_in_one_cluster() {
    let n = 13;
    let net = build_net(n);
    let root = net.tree().root();
    let q = range_query(&net, 1, 0.0, 1.0);

    // One owner shares with partner 42 only; everyone else with anyone.
    let private = ServerId(5);
    let partner = RequesterId(42);
    let open: Arc<dyn SharingPolicy> = Arc::new(OpenPolicy);
    let mut policies = vec![open; n];
    policies[private.index()] = Arc::new(TieredPolicy::new([partner], []));

    let reg = Registry::new();
    let rec = Arc::new(Recorder::new(65_536));
    let tail = TailSampler::shared();
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_fast(),
        Attachments {
            policies: Some(policies),
            recorder: Some(Arc::clone(&rec)),
            tail: Some(Arc::clone(&tail)),
            ..Attachments::instrumented(&reg)
        },
    );

    // Policies: the owner's say is final, per requester.
    let anon = c.query(&q, root);
    assert!(anon.complete);
    assert_eq!(anon.records.len(), (n - 1) * RECORDS_PER_SERVER);
    assert!(anon.records.iter().all(|r| r.owner.0 != private.0));
    let (trusted, explain) = c.query_with(&q, root, partner, true);
    assert_eq!(trusted.records.len(), n * RECORDS_PER_SERVER);
    let explain = explain.expect("explain was requested");
    assert_eq!(explain.records, trusted.records.len() as u64);

    // Registry: a complete scrape that counted both queries.
    let text = OpenMetricsSnapshot::from_registry(&reg).render();
    let scrape = parse_openmetrics(&text).expect("scrape parses");
    let total = |family: &str| {
        let family = scrape.family(family).unwrap_or_else(|| panic!("{family}"));
        family.sample_with("_total", &[]).expect("a total").value
    };
    assert_eq!(total("runtime_queries"), 2.0);
    assert_eq!(total("runtime_deadline_miss"), 0.0);
    for s in 0..n {
        assert!(text.contains(&format!("runtime_server_alive{{server=\"{s}\"}} 1\n")));
        assert!(text.contains(&format!("runtime_server_queue_depth{{server=\"{s}\"}} 0\n")));
    }
    assert!(text.contains("runtime_dispatch_latency_ms_bucket{mode=\"branch\",le=\""));

    // Recorder: each query is a valid span tree rooted at the entry, one
    // hop span per contacted server; the explain record names its trace.
    let events = rec.events();
    for (trace, out) in [(TraceId(1), &anon), (TraceId(2), &trusted)] {
        let tev = trace_events(&events, trace);
        let root_span = span_tree_root(&tev, trace).expect("valid span tree");
        let hops: Vec<_> = tev
            .iter()
            .filter(|e| e.kind == EventKind::QueryHop)
            .collect();
        assert_eq!(hops.len(), out.servers_contacted);
        assert!(hops.iter().any(|e| e.span == root_span && e.node == root.0));
    }
    assert_eq!(explain.trace_id, 2);

    // Sampler: it was offered exactly the queries the registry counted.
    assert_eq!(tail.observed() as f64, total("runtime_queries"));
    c.shutdown();
}

#[test]
fn live_hops_are_the_simulators_client_redirect_contacts() {
    let n = 27;
    let net = build_net(n);
    let delays = DelaySpace::paper(n, 11);
    let queries = [
        range_query(&net, 1, 0.0, 1.0),
        range_query(&net, 2, 0.2, 0.45),
        range_query(&net, 3, 0.613, 0.614),
        range_query(&net, 4, 2.0, 3.0),
    ];
    for planner in [false, true] {
        let c = RoadsCluster::start(
            net.clone(),
            delays.clone(),
            RuntimeConfig {
                delay_scale: 0.0,
                enable_planner: planner,
                ..RuntimeConfig::test_fast()
            },
        );
        for q in &queries {
            for entry in (0..n as u32).map(ServerId) {
                let plan = planner.then(|| plan_query(&net, q, entry, SearchScope::full()));
                let opts = QueryOptions {
                    forwarding: ForwardingMode::ClientRedirect,
                    plan: plan.as_ref(),
                    ..QueryOptions::default()
                };
                let mut trace = Vec::new();
                let sim = execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
                let (live, explain) = c.query_with(q, entry, RequesterId(0), true);
                let explain = explain.expect("explain was requested");

                let what = format!("query {}, entry {entry}, planner {planner}", q.id.0);
                let mut sim_servers: Vec<u32> = trace.iter().map(|e| e.server.0).collect();
                let mut live_servers: Vec<u32> = explain.hops.iter().map(|h| h.server).collect();
                sim_servers.sort_unstable();
                live_servers.sort_unstable();
                assert_eq!(live_servers, sim_servers, "{what}");
                assert_eq!(explain.hops[0].server, entry.0, "{what}");
                assert!(live.complete, "{what}");
                assert_eq!(live.servers_contacted, sim.servers_contacted, "{what}");
                assert_eq!(live.records.len(), sim.matching_records, "{what}");
            }
        }
        c.shutdown();
    }
}
