//! One way to start a cluster, one way to run a query — what the
//! constructor and query-function families could not say.
//!
//! * Every attachment combines: one cluster carrying tiered owner
//!   policies *and* a registry *and* a flight recorder *and* a tail
//!   sampler, with each plane's view taken from the same run.
//! * Both planes run one per-server step (`RoadsNetwork::route`) and keep
//!   one contact log: with no faults the live cluster's log is the
//!   simulator's client-redirect log entry for entry, and one derivation
//!   explains both — naming, for every hop, the
//!   summary routing actually tested. At zero delay the live log is also
//!   in the order the simulator's redirect tree is walked breadth first.

use roads_core::policy::{OpenPolicy, SharingPolicy, TieredPolicy};
use roads_core::{
    execute_query_with, explain_from_trace, ForwardingMode, QueryOptions, RequesterId, RoadsConfig,
    RoadsNetwork, ServerId, TraceEvent,
};
use roads_netsim::DelaySpace;
use roads_records::{
    AttrDef, OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value,
};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_telemetry::{
    labeled, span_tree_root, trace_events, EventKind, ExplainDecision, ExplainHop, HopOutcome,
    QueryExplain, Recorder, Registry, SummaryKind, TailSampler, TraceId,
};
use roads_workload::line_records;
use std::collections::BTreeMap;
use std::sync::Arc;

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

    // Registry: a complete snapshot that counted both queries.
    let snap = reg.snapshot();
    assert_eq!(snap.counters["runtime.queries"], 2);
    assert_eq!(snap.counters["runtime.deadline_miss"], 0);
    for s in 0..n {
        let id = s.to_string();
        let at = [("server", id.as_str())];
        assert_eq!(snap.gauges[&labeled("runtime.server.alive", &at)], 1);
        assert_eq!(snap.gauges[&labeled("runtime.server.queue_depth", &at)], 0);
    }
    assert_eq!(c.health().unwrap().alive_count(), n);
    let branch = labeled("runtime.dispatch_latency_ms", &[("mode", "branch")]);
    assert!(snap.histograms.contains_key(&branch), "no branch dispatch");

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
    assert_eq!(tail.observed(), snap.counters["runtime.queries"]);
    c.shutdown();
}

/// What a contact log says of each contact, free of the order the plane
/// made its contacts in and of its clock: per contacted server, who caused
/// the contact and what the shared derivation makes of it. (The live log
/// is private to its driver; both explains come from `explain_from_trace`,
/// so comparing them hop by hop compares the logs entry by entry.)
type Contact = (
    Option<u32>,
    ExplainDecision,
    Option<SummaryKind>,
    HopOutcome,
    bool,
    u64,
);

fn contacts(explain: &QueryExplain) -> BTreeMap<u32, Contact> {
    let by_server = |h: &ExplainHop| {
        let cause = h.caused_by.map(|c| explain.hops[c].server);
        let (outcome, hollow) = (h.outcome, h.false_positive);
        let what = (
            cause,
            h.decision,
            h.summary,
            outcome,
            hollow,
            h.local_matches,
        );
        (h.server, what)
    };
    let map: BTreeMap<_, _> = explain.hops.iter().map(by_server).collect();
    assert_eq!(map.len(), explain.hops.len(), "one contact per server");
    map
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
    let c = RoadsCluster::start(
        net.clone(),
        delays.clone(),
        RuntimeConfig {
            delay_scale: 0.0,
            ..RuntimeConfig::test_fast()
        },
    );
    let opts = QueryOptions {
        forwarding: ForwardingMode::ClientRedirect,
        ..QueryOptions::default()
    };
    for q in &queries {
        for entry in (0..n as u32).map(ServerId) {
            let mut trace = Vec::new();
            let sim = execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
            let sim_explain =
                explain_from_trace(&net, q, TraceId::NONE, &trace, ExplainDecision::Entry);
            let (live, explain) = c.query_with(q, entry, RequesterId(0), true);
            let explain = explain.expect("explain was requested");

            let what = format!("query {}, entry {entry}", q.id.0);
            assert_eq!(contacts(&explain), contacts(&sim_explain), "{what}");
            assert_eq!(explain.hops[0].server, entry.0, "{what}");
            assert!(
                live.complete && explain.complete && sim_explain.complete,
                "{what}"
            );
            assert!(!explain.deadline_hit && !sim_explain.deadline_hit, "{what}");
            assert_eq!(explain.records, sim_explain.records, "{what}");
            assert_eq!(live.servers_contacted, sim.servers_contacted, "{what}");
            assert_eq!(live.records.len(), sim.matching_records, "{what}");
        }
    }
    c.shutdown();
}

/// The simulator's contacts in the order a client that sends each reply's
/// targets together and folds replies in send order opens them: its
/// redirect tree, breadth first, each reply's targets in the order the
/// reply named them.
fn redirect_order(trace: &[TraceEvent]) -> Vec<u32> {
    let mut order = vec![trace[0].server];
    let mut next = 0;
    while let Some(&server) = order.get(next) {
        let hop = trace
            .iter()
            .find(|e| e.server == server)
            .expect("contacted");
        order.extend(&hop.forwarded_to);
        next += 1;
    }
    order.into_iter().map(|s| s.0).collect()
}

/// Pins the live client's call sequence at zero delay, where each contact
/// is served in place on the client's own thread: a reply's targets are
/// all opened before any of their replies is folded, as the simulator
/// sends them at one instant, and the replies are folded in send order, so
/// the live contact log walks the simulator's redirect tree breadth first.
#[test]
fn live_contacts_open_in_the_simulators_redirect_order() {
    let n = 27;
    let net = build_net(n);
    let delays = DelaySpace::paper(n, 11);
    let queries = [
        range_query(&net, 1, 0.0, 1.0),
        range_query(&net, 2, 0.2, 0.45),
        range_query(&net, 3, 0.613, 0.614),
    ];
    let c = RoadsCluster::start(
        net.clone(),
        delays.clone(),
        RuntimeConfig {
            delay_scale: 0.0,
            base_query_cost_us: 0,
            per_record_retrieval_us: 0,
            bandwidth_mbps: 1e12,
            ..RuntimeConfig::test_fast()
        },
    );
    let opts = QueryOptions {
        forwarding: ForwardingMode::ClientRedirect,
        ..QueryOptions::default()
    };
    for q in &queries {
        for entry in (0..n as u32).map(ServerId) {
            let mut trace = Vec::new();
            execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
            let (_, explain) = c.query_with(q, entry, RequesterId(0), true);
            let hops = explain.expect("explain was requested").hops;
            let what = format!("query {}, entry {entry}", q.id.0);

            let live: Vec<u32> = hops.iter().map(|h| h.server).collect();
            assert_eq!(live, redirect_order(&trace), "{what}");
            for (i, h) in hops.iter().enumerate() {
                let batch = || hops.iter().filter(move |s| s.caused_by == Some(i));
                let last_opened = batch().map(|s| s.at_us).fold(f64::MIN, f64::max);
                let first_folded = batch().map(|s| s.at_us + s.dur_us).fold(f64::MAX, f64::min);
                assert!(
                    last_opened <= first_folded,
                    "{what}: a reply of server {}'s targets was folded before all were sent",
                    h.server
                );
            }
        }
    }
    c.shutdown();
}

/// An ancestor is probed on its *local* summary (`RoadsNetwork::evaluate`)
/// — its branch summary contains the entry's own branch and would admit
/// every query the entry can answer — and both planes name that summary as
/// the probe's voucher. Here the root's own records are refused by its
/// exact category set while its branch matches: no probe on either plane.
/// Where its local histogram admits a range its one record misses, both
/// planes probe it, find nothing and name the histogram.
#[test]
fn ancestor_probe_is_vouched_for_by_the_local_summary_on_both_planes() {
    let schema = Schema::new(vec![AttrDef::unit("x"), AttrDef::categorical("c")]).unwrap();
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    // Only the entry (a leaf) holds category "b"; the root holds "a" at
    // the same x, everyone else "a" far away.
    let record = |s: usize, x: f64, c: &str| {
        let values = vec![Value::Float(x), Value::Cat(c.into())];
        vec![Record::new_unchecked(
            RecordId(s as u64),
            OwnerId(s as u32),
            values,
        )]
    };
    let entry = ServerId(1);
    let records = vec![
        record(0, 0.5, "a"),
        record(1, 0.5, "b"),
        record(2, 0.9, "a"),
        record(3, 0.9, "a"),
    ];
    let net = RoadsNetwork::build(schema, cfg, records);
    let root = net.tree().root();
    assert_eq!(net.tree().parent(entry), Some(root));
    let query = |id: u64, lo: f64, hi: f64, c: &str| {
        QueryBuilder::new(net.schema(), QueryId(id))
            .range("x", lo, hi)
            .eq("c", Value::Cat(c.into()))
            .build()
    };
    let refused = query(1, 0.4, 0.6, "b");
    assert!(net.branch_summary(root).may_match(&refused));
    assert!(!net.local_summary(root).may_match(&refused), "by its set");
    // Inside the bucket of the root's 0.5, beside the record itself.
    let hollow = query(2, 0.505, 0.51, "a");
    assert!(net.local_summary(root).may_match(&hollow));

    let delays = DelaySpace::paper(4, 11);
    let simulated = |q: &Query| {
        let mut trace = Vec::new();
        execute_query_with(
            &net,
            &delays,
            q,
            entry,
            &QueryOptions::default(),
            Some(&mut trace),
        );
        explain_from_trace(&net, q, TraceId::NONE, &trace, ExplainDecision::Entry)
    };
    let sim = [simulated(&refused), simulated(&hollow)];
    let c = RoadsCluster::start(net.clone(), delays.clone(), RuntimeConfig::test_fast());
    let live = [&refused, &hollow].map(|q| {
        let (_, explain) = c.query_with(q, entry, RequesterId(0), true);
        explain.expect("explain was requested")
    });
    for [refused, hollow] in [&sim, &live] {
        assert!(
            refused.hops.iter().all(|h| h.server != root.0),
            "the root's local summary refuses: no probe"
        );
        let probe = (hollow.hops.iter())
            .find(|h| h.server == root.0)
            .expect("the root's local summary matches, so it is probed");
        assert_eq!(probe.decision, ExplainDecision::AncestorProbe);
        assert_eq!(probe.summary, Some(SummaryKind::Histogram));
        assert_eq!(probe.local_matches, 0);
    }
    c.shutdown();
}
