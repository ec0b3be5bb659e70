//! Client-driven query execution (§III-A "Searching for Resources",
//! §III-C replication overlay shortcuts).
//!
//! A client submits its query to any server (usually its attachment point).
//! The server evaluates the query against every summary it holds and
//! *directs the client* to the matching branches (Fig. 2: "redirected
//! request"); the client then queries those servers, which direct it
//! further down their own branches, until every server that may hold
//! matching records has been reached.
//!
//! Latency follows the paper's definition: "the time from the client
//! initiating a query to the query reaching the last server it needs to
//! contact". Query overhead counts every forwarded query and redirect
//! reply.
//!
//! There is one executor, [`execute_query_with`], and it decides nothing:
//! whom to contact, in what mode, once or again is the [`QueryMachine`]'s
//! call, as on the live plane. Here is the simulator's side of that seam —
//! sends in flight ordered by arrival, the step each arrival runs
//! ([`RoadsNetwork::route`] + the local search), the delay space, the
//! paper's byte and message accounting, steered by [`QueryOptions`] — and
//! what both planes derive from the machine's contact log:
//! [`explain_from_trace`] (which is also the query's trace) and
//! [`hollow_contacts`].

use crate::engine::{ContactMode, RoadsNetwork};
use crate::machine::{fault_decision, FaultSettings, Outbound, QueryMachine, TraceEvent};
use crate::planner::QueryPlan;
use crate::tree::ServerId;
use roads_netsim::DelaySpace;
use roads_records::{wire::MSG_HEADER_BYTES, Query, WireSize};
use roads_summary::SummaryVerdict;
use roads_telemetry::{ExplainDecision, ExplainHop, HopOutcome, QueryExplain, SummaryKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bytes per server id inside a redirect reply.
const REDIRECT_ENTRY_BYTES: usize = 4;

/// How far up the hierarchy a search may reach from its entry server.
///
/// "Each ancestor (or their siblings) of the starting server is one level
/// higher in the hierarchy, providing more resources but requiring a longer
/// search path. Based on the needs of how wide a range should be searched,
/// the client can choose one or several branches." (§III-C)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchScope {
    /// Consider only ancestors (and their siblings) within this many levels
    /// above the entry server; `None` = the whole hierarchy.
    pub levels_up: Option<usize>,
}

impl SearchScope {
    /// Search the entire hierarchy (the default).
    pub fn full() -> Self {
        SearchScope { levels_up: None }
    }

    /// Search only `levels` levels up from the entry server.
    pub fn levels(levels: usize) -> Self {
        SearchScope {
            levels_up: Some(levels),
        }
    }

    /// Whether a replica redirect target (a sibling of the entry or of one
    /// of its ancestors) at `target_depth` is within scope of an entry at
    /// `entry_depth`.
    ///
    /// A sibling is reached *through* the ancestor it hangs off, one level
    /// below it: the entry's own siblings cost one level of scope
    /// (`levels_up = 0` confines the search to the entry's own branch), and
    /// a sibling of the ancestor `k` levels up costs `k`.
    pub fn admits_replica(&self, entry_depth: usize, target_depth: usize) -> bool {
        match self.levels_up {
            None => true,
            Some(levels) => (entry_depth + 1).saturating_sub(target_depth) <= levels,
        }
    }

    /// Whether an ancestor probe at `target_depth` is within scope of an
    /// entry at `entry_depth`: the ancestor `k` levels up costs `k`.
    pub fn admits_ancestor(&self, entry_depth: usize, target_depth: usize) -> bool {
        match self.levels_up {
            None => true,
            Some(levels) => entry_depth.saturating_sub(target_depth) <= levels,
        }
    }
}

/// Outcome of one query execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryOutcome {
    /// Time until the query reached the last server it needed to contact,
    /// in milliseconds.
    pub latency_ms: f64,
    /// Bytes of query forwarding traffic (query messages + redirect
    /// replies).
    pub query_bytes: u64,
    /// Number of query messages sent.
    pub query_messages: u64,
    /// Servers contacted (including the entry server).
    pub servers_contacted: usize,
    /// Servers whose local search produced at least one record.
    pub matching_servers: Vec<ServerId>,
    /// Total matching records found.
    pub matching_records: usize,
}

/// How the query travels between servers.
///
/// §III-A describes both styles: servers "direct the client to further
/// query those children" (Fig. 2's redirected requests), while the latency
/// analysis treats per-level cost as one forwarding hop ("the latency is
/// determined by the number of levels in the hierarchy"). The simulation
/// harness uses [`ForwardingMode::ServerForward`] — matching the paper's
/// measured latencies — and the threaded prototype implements the
/// client-redirect protocol, whose extra round trips are visible in
/// Fig. 11's total response times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForwardingMode {
    /// Each server forwards the query straight to its matching targets:
    /// one one-way hop per level.
    #[default]
    ServerForward,
    /// Each server replies to the client, which re-issues the query: a
    /// round trip back to the client per level.
    ClientRedirect,
}

/// How one query is executed. The default searches the whole hierarchy,
/// server-forwarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// How far up the hierarchy the search may reach.
    pub scope: SearchScope,
    /// How the query travels between servers.
    pub forwarding: ForwardingMode,
}

impl QueryOptions {
    /// The default execution confined to `scope`.
    pub fn scoped(scope: SearchScope) -> Self {
        QueryOptions {
            scope,
            ..Self::default()
        }
    }
}

/// [`execute_query_with`] under default options within `scope`. Kept for
/// `benchmark/`, which pins the name and signature.
pub fn execute_query(
    net: &RoadsNetwork,
    delays: &DelaySpace,
    query: &Query,
    start: ServerId,
    scope: SearchScope,
) -> QueryOutcome {
    let opts = QueryOptions::scoped(scope);
    execute_query_with(net, delays, query, start, &opts, None)
}

/// [`execute_query`]: a plan is what the entry dispatches anyway (see
/// [`crate::planner`]), so `_plan` is not read. Kept for `benchmark/`,
/// which pins the name and signature.
pub fn execute_query_planned(
    net: &RoadsNetwork,
    delays: &DelaySpace,
    query: &Query,
    start: ServerId,
    scope: SearchScope,
    _plan: &QueryPlan,
) -> QueryOutcome {
    execute_query(net, delays, query, start, scope)
}

/// The summary kind a [`SummaryVerdict`] hinged on, in the explain
/// plane's vocabulary: the fuzziest kind participating in a match (the
/// candidate false-positive source), or the kind that proved a prune.
fn verdict_kind(verdict: SummaryVerdict) -> Option<SummaryKind> {
    let (SummaryVerdict::Match { fuzziest: label } | SummaryVerdict::Prune { decided_by: label }) =
        verdict;
    label.and_then(SummaryKind::from_summary_label)
}

/// The decision behind contact `i` of `trace`, given what the `entry`
/// server did with the query (see [`explain_from_trace`]). A branch
/// redirect from the target's tree parent is ordinary summary descent;
/// from anyone else (the entry's replica shortcuts, a failover stand-in)
/// it rode the replication overlay. A probe of an ancestor of the server
/// that sent it is the climb; a probe of anyone else is the owner of a
/// replicated branch the entry expanded, an overlay shortcut too.
fn contact_decision(
    net: &RoadsNetwork,
    trace: &[TraceEvent],
    i: usize,
    entry: ExplainDecision,
) -> ExplainDecision {
    let e = &trace[i];
    if let Some(fault) = fault_decision(e.mode, e.tries, e.caused_by) {
        return fault;
    }
    let Some(p) = e.caused_by else {
        return match entry {
            ExplainDecision::CacheHit => ExplainDecision::CacheHit,
            _ => ExplainDecision::Entry,
        };
    };
    let from = trace[p].server;
    match e.mode {
        ContactMode::Branch if net.tree().parent(e.server) == Some(from) => {
            ExplainDecision::SummaryDescent
        }
        ContactMode::LocalOnly if net.tree().on_root_path(e.server, from) => {
            ExplainDecision::AncestorProbe
        }
        _ => ExplainDecision::OverlayShortcut,
    }
}

/// Which contacts of a log were hollow — the one false-positive rule, of
/// the explain record and the live audit counters alike: a `Branch`
/// contact whose summary vouched for its subtree and nothing came of it,
/// neither it nor any contact it caused, however far down, returning a
/// record. One that never answered may have held some: it is not hollow
/// and clears everyone who forwarded towards it.
pub fn hollow_contacts(trace: &[TraceEvent]) -> Vec<bool> {
    // Records found in each contact's whole redirect subtree: causes
    // precede their effects, so one reverse pass sums them up the log.
    let mut found: Vec<usize> = (trace.iter())
        .map(|e| match e.outcome {
            HopOutcome::Replied => e.local_matches,
            _ => 1,
        })
        .collect();
    for i in (1..trace.len()).rev() {
        if let Some(p) = trace[i].caused_by {
            found[p] += found[i];
        }
    }
    (trace.iter().zip(found))
        .map(|(e, found)| e.mode == ContactMode::Branch && found == 0)
        .collect()
}

/// Build a [`QueryExplain`] provenance record from a finished query's
/// contact log: one hop per contact, each with the decision that caused
/// it, the summary kind its routing verdict hinged on, false-positive
/// detection ([`hollow_contacts`]), how it ended and its latency split.
///
/// `entry` is what the entry server did with the query: expanded its own
/// overlay view (`Entry`) or answered from its result cache (`CacheHit` —
/// it is the whole log). Every other decision follows from the contact
/// itself: its mode, its forwarder, the retries behind it.
///
/// The vouching summary is the one routing tested
/// ([`RoadsNetwork::evaluate`]): the target's branch summary for a branch
/// contact, its local summary for a probe of its own records (of which a
/// skipped owner's part is the coarse box); retries, stand-ins and the
/// entry consulted none.
///
/// The header says what the log alone can: the response is when the
/// entry's contact closed, the records are the local matches summed, and
/// the query is complete if every contact replied. A plane that measures
/// those itself (the live cluster: wall-clock response, records after the
/// owners' policies, the fault model's completeness proof) overrides
/// them.
///
/// A stand-in's hop names the dead server it stands in for: a
/// replacement entry's is the failed entry that caused it, a branch
/// stand-in's the one its mode carries — which a stand-in asked after
/// another failed does not have for its cause.
pub fn explain_from_trace(
    net: &RoadsNetwork,
    query: &Query,
    trace: &[TraceEvent],
    entry: ExplainDecision,
) -> QueryExplain {
    let to_us = |ms: f64| ms * 1000.0;
    let replied = |e: &TraceEvent| e.outcome == HopOutcome::Replied;
    let hollow = hollow_contacts(trace);
    let hops = (trace.iter().enumerate())
        .map(|(i, e)| {
            let decision = contact_decision(net, trace, i, entry);
            // A routed contact's mode says which summary routing tested.
            let routed = matches!(
                decision,
                ExplainDecision::SummaryDescent
                    | ExplainDecision::OverlayShortcut
                    | ExplainDecision::AncestorProbe
            );
            let vouching = routed.then(|| match e.mode {
                ContactMode::LocalOnly => net.local_summary(e.server),
                _ => net.branch_summary(e.server),
            });
            ExplainHop {
                server: e.server.0,
                decision,
                summary: vouching.and_then(|s| verdict_kind(s.decide(query))),
                false_positive: hollow[i],
                outcome: e.outcome,
                at_us: to_us(e.at_ms),
                dur_us: to_us(e.closed_ms - e.at_ms),
                caused_by: e.caused_by,
                local_matches: e.local_matches as u64,
                split: e.split,
                dead: match (decision, e.mode, e.caused_by) {
                    (ExplainDecision::Failover, ContactMode::Failover { dead }, _) => Some(dead.0),
                    (ExplainDecision::Failover, _, Some(failed)) => Some(trace[failed].server.0),
                    _ => None,
                },
            }
        })
        .collect();
    QueryExplain {
        query_id: query.id.0,
        entry: trace.first().map_or(0, |e| e.server.0),
        response_us: to_us(trace.first().map_or(0.0, |e| e.closed_ms)),
        complete: trace.iter().all(replied),
        deadline_hit: trace.iter().any(|e| e.outcome == HopOutcome::Abandoned),
        records: trace.iter().map(|e| e.local_matches as u64).sum(),
        hops,
    }
}

/// Execute `query` starting at `start`, over a converged [`RoadsNetwork`]
/// with latencies from `delays` — the one executor every simulated query
/// runs through, driving a [`QueryMachine`] with no faults: each send it
/// asks for is put in flight, and when it arrives its contact begins and
/// the server's answer reaches the machine. With `trace`, the contact log
/// is appended to it, in contact (= arrival-time) order; tracing never
/// changes the outcome.
///
/// The client is co-located with the entry server (the paper initiates each
/// query "from a randomly chosen node"), so contacting the entry is free.
pub fn execute_query_with(
    net: &RoadsNetwork,
    delays: &DelaySpace,
    query: &Query,
    start: ServerId,
    opts: &QueryOptions,
    trace: Option<&mut Vec<TraceEvent>>,
) -> QueryOutcome {
    assert_eq!(
        net.len(),
        delays.len(),
        "delay space must cover all servers"
    );
    let query_msg_bytes = (query.wire_size() + MSG_HEADER_BYTES) as u64;
    let client = start.index();

    let mut machine = QueryMachine::new(net, query, FaultSettings::default(), trace.is_some());
    let mut sends: Vec<Outbound> = Vec::new();
    machine.start(start, &mut sends);
    // Sends in flight by when (then where) they arrive; `sent` holds what
    // each asks for (both sized for a typical query). The entry contact is
    // local (client co-located): zero latency, its message still accounted.
    let mut sent: Vec<Outbound> = Vec::with_capacity(32);
    let mut heap: BinaryHeap<Reverse<(u64, ServerId, usize)>> = BinaryHeap::with_capacity(32);
    for send in sends.drain(..) {
        heap.push(Reverse((0, send.target, sent.len())));
        sent.push(send);
    }
    let mut outcome = QueryOutcome {
        query_bytes: query_msg_bytes,
        query_messages: 1,
        ..QueryOutcome::default()
    };

    while let Some(Reverse((at_us, server, i))) = heap.pop() {
        let (send, mode) = (sent[i], sent[i].mode);
        let arrive_ms = at_us as f64 / 1000.0;
        outcome.latency_ms = outcome.latency_ms.max(arrive_ms);
        // No queues or compute here: all its time is transit.
        let transit_ms = (send.cause).map_or(0.0, |p| arrive_ms - machine.log()[p].at_ms);
        let attempt = machine.open(&send, arrive_ms, transit_ms * 1000.0);

        let (search_local, targets) = net.route(server, query, mode, opts.scope);
        // One local search per contact. The simulation only needs the
        // count, so no record is materialized.
        let local_matches = if search_local {
            net.count_local(server, query)
        } else {
            0
        };
        let fresh = machine.reply(attempt, arrive_ms, &targets, local_matches, &mut sends);
        if fresh && local_matches > 0 {
            outcome.matching_servers.push(server);
            outcome.matching_records += local_matches;
        }

        let (sender, sent_at_us) = match opts.forwarding {
            // The server forwards the query straight to each target; the
            // client is informed of result locations out of band (not on
            // the latency-critical path). Only a probed ancestor, which
            // forwards nowhere, answers the client (header only).
            ForwardingMode::ServerForward => {
                if mode == ContactMode::LocalOnly {
                    outcome.query_bytes += MSG_HEADER_BYTES as u64;
                }
                (server.index(), at_us)
            }
            // Redirect reply back to the client (sent even when empty —
            // the client must learn the branch is exhausted), which then
            // forwards the query to each target itself.
            ForwardingMode::ClientRedirect => {
                let reply_bytes = MSG_HEADER_BYTES + REDIRECT_ENTRY_BYTES * sends.len();
                outcome.query_bytes += reply_bytes as u64;
                let back_us = delays.delay(server.index(), client).as_micros();
                (client, at_us + back_us)
            }
        };
        for send in sends.drain(..) {
            outcome.query_bytes += query_msg_bytes;
            outcome.query_messages += 1;
            let at_us = sent_at_us + delays.delay(sender, send.target.index()).as_micros();
            heap.push(Reverse((at_us, send.target, sent.len())));
            sent.push(send);
        }
    }

    let mut log = machine.finish().log;
    outcome.servers_contacted = log.len();
    if let Some(tr) = trace {
        // A contact stays open until the last one it caused is reached
        // (see `TraceEvent::closed_ms`); causes precede their effects.
        for i in (1..log.len()).rev() {
            if let Some(p) = log[i].caused_by {
                log[p].closed_ms = log[p].closed_ms.max(log[i].closed_ms);
            }
        }
        tr.append(&mut log);
    }
    outcome.matching_servers.sort();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use roads_records::{QueryBuilder, QueryId, Schema};
    use roads_summary::SummaryConfig;
    use roads_workload::line_records;
    use std::collections::HashSet;

    /// n servers over 1 attribute; server s holds records at s/n ± tiny.
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

    /// The default execution within `scope`, with its contact log.
    fn traced(
        net: &RoadsNetwork,
        delays: &DelaySpace,
        query: &Query,
        start: ServerId,
        scope: SearchScope,
    ) -> (QueryOutcome, Vec<TraceEvent>) {
        let mut trace = Vec::new();
        let opts = QueryOptions::scoped(scope);
        let out = execute_query_with(net, delays, query, start, &opts, Some(&mut trace));
        (out, trace)
    }

    fn point_query(net: &RoadsNetwork, v: f64) -> Query {
        QueryBuilder::new(net.schema(), QueryId(1))
            .range("x0", v - 1e-4, v + 1e-4)
            .build()
    }

    #[test]
    fn finds_all_matches_from_every_start() {
        // Completeness: from ANY entry server, execution finds exactly the
        // ground-truth matching servers.
        let (net, delays) = network(30, 3);
        for target in [0usize, 7, 15, 29] {
            let q = point_query(&net, target as f64 / 30.0);
            let gt = net.matching_servers(&q);
            assert_eq!(gt, vec![ServerId(target as u32)]);
            for start in 0..30u32 {
                let out = execute_query(&net, &delays, &q, ServerId(start), SearchScope::full());
                assert_eq!(
                    out.matching_servers, gt,
                    "start {start} target {target}: wrong match set"
                );
                assert_eq!(out.matching_records, 1);
            }
        }
    }

    #[test]
    fn entry_server_match_is_free() {
        let (net, delays) = network(30, 3);
        let q = point_query(&net, 7.0 / 30.0);
        let out = execute_query(&net, &delays, &q, ServerId(7), SearchScope::full());
        assert!(out.matching_servers.contains(&ServerId(7)));
        // The entry match is found at t=0; total latency may still be
        // nonzero if pruning could not exclude other branches, but the
        // entry itself contributes zero.
        assert!(out.servers_contacted >= 1);
    }

    #[test]
    fn latency_zero_when_only_entry_contacted() {
        // A query matching nothing outside the entry's summary horizon:
        // use an empty-range query that no histogram can match.
        let (net, delays) = network(10, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(2))
            .range("x0", 2.0, 3.0) // outside every record's domain usage
            .build();
        let out = execute_query(&net, &delays, &q, ServerId(4), SearchScope::full());
        // Histograms clamp into [0,1]; a [2,3] query maps to the last
        // bucket, so server 9's records (0.9) may false-positive. What must
        // hold: no *matching records* and latency bounded by a couple of
        // redirect rounds.
        assert_eq!(out.matching_records, 0);
    }

    #[test]
    fn query_bytes_accounted() {
        let (net, delays) = network(30, 3);
        let q = point_query(&net, 0.5);
        let out = execute_query(&net, &delays, &q, ServerId(20), SearchScope::full());
        // At least the entry message and one reply.
        assert!(out.query_bytes >= (q.wire_size() + 2 * MSG_HEADER_BYTES) as u64);
        assert!(out.query_messages >= 1);
        assert_eq!(out.query_messages as usize, out.servers_contacted);
    }

    #[test]
    fn no_server_contacted_twice() {
        let (net, delays) = network(50, 4);
        // Broad query hitting everything: every server contacted once.
        let q = QueryBuilder::new(net.schema(), QueryId(3))
            .range("x0", 0.0, 1.0)
            .build();
        let out = execute_query(&net, &delays, &q, ServerId(13), SearchScope::full());
        assert_eq!(out.servers_contacted, 50);
        assert_eq!(out.matching_servers.len(), 50);
        assert_eq!(out.matching_records, 50);
    }

    #[test]
    fn scoped_search_limits_reach() {
        let (net, delays) = network(30, 2); // deep tree
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let q = QueryBuilder::new(net.schema(), QueryId(4))
            .range("x0", 0.0, 1.0)
            .build();
        let full = execute_query(&net, &delays, &q, leaf, SearchScope::full());
        let scoped = execute_query(&net, &delays, &q, leaf, SearchScope::levels(1));
        assert!(scoped.servers_contacted < full.servers_contacted);
        assert!(scoped.matching_servers.len() < full.matching_servers.len());
    }

    #[test]
    fn root_start_equals_basic_hierarchy_search() {
        // From the root the overlay adds nothing (no siblings/ancestors):
        // execution is the paper's basic top-down search.
        let (net, delays) = network(30, 3);
        let q = point_query(&net, 17.0 / 30.0);
        let out = execute_query(&net, &delays, &q, net.tree().root(), SearchScope::full());
        assert_eq!(out.matching_servers, vec![ServerId(17)]);
        // Contacted servers form a root-to-target set of tree paths only.
        assert!(out.servers_contacted <= 1 + net.tree().levels() * 3);
    }

    #[test]
    fn trace_covers_every_contact() {
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(8))
            .range("x0", 0.0, 1.0)
            .build();
        let (out, trace) = traced(&net, &delays, &q, ServerId(11), SearchScope::full());
        assert_eq!(trace.len(), out.servers_contacted);
        assert_eq!(trace[0].server, ServerId(11));
        assert_eq!(trace[0].mode, ContactMode::Entry);
        assert!((trace[0].at_ms - 0.0).abs() < 1e-9);
        // Contact order is time order.
        for w in trace.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms);
        }
        // Every forwarded-to server eventually appears as a contact.
        let contacted: std::collections::HashSet<ServerId> =
            trace.iter().map(|e| e.server).collect();
        for e in &trace {
            for f in &e.forwarded_to {
                assert!(
                    contacted.contains(f),
                    "{f} forwarded-to but never contacted"
                );
            }
        }
        // Local match counts agree with the outcome total.
        let total: usize = trace.iter().map(|e| e.local_matches).sum();
        assert_eq!(total, out.matching_records);
    }

    #[test]
    fn aggregated_explain_classifies_hops() {
        use roads_telemetry::aggregate_traces;
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(9))
            .range("x0", 0.0, 1.0)
            .build();
        // Start at a leaf: the overlay (siblings + ancestors' siblings)
        // must be exercised alongside plain child descents.
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let (out, trace) = traced(&net, &delays, &q, leaf, SearchScope::full());
        let explain = explain_from_trace(&net, &q, &trace, ExplainDecision::Entry);
        assert_eq!(explain.entry, leaf.0);
        let r = aggregate_traces(&[explain], net.tree().root().0, net.len());
        assert_eq!(r.max_hops, out.servers_contacted);
        assert_eq!(r.probe_hops, out.servers_contacted - 1, "one entry hop");
        assert!(
            r.overlay_shortcuts > 0,
            "a leaf entry on a broad query must take overlay shortcuts"
        );
        assert!(
            r.probe_hops > r.overlay_shortcuts + r.climb_hops + r.fp_redirects,
            "child descents on a broad query are summary hits"
        );
    }

    #[test]
    fn recorded_span_tree_is_acyclic_and_rooted_at_entry() {
        use roads_telemetry::{check_hop_tree, chrome_trace_json, explains_from_chrome};
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(12))
            .range("x0", 0.0, 1.0)
            .build();
        let (out, trace) = traced(&net, &delays, &q, ServerId(11), SearchScope::full());
        let explain = explain_from_trace(&net, &q, &trace, ExplainDecision::Entry);
        // The query's trace is its explain, rendered and read back.
        let doc = chrome_trace_json(&[], &[explain]);
        let read = explains_from_chrome(&doc).expect("the rendered hops read back");
        let hops = &read[0].hops;
        // One hop slice per contacted server, one tree rooted at the entry.
        assert_eq!(hops.len(), out.servers_contacted);
        assert_eq!(hops[0].server, 11);
        assert_eq!(check_hop_tree(hops.iter().map(|h| h.caused_by)), Ok(()));
        // The critical path starts at the entry and is a real chain.
        let path = read[0].critical_path();
        assert_eq!(path.first(), Some(&0));
        assert!(path.len() >= 2, "a 30-server broad query spans levels");
        assert!(path.windows(2).all(|w| hops[w[1]].caused_by == Some(w[0])));
    }

    #[test]
    fn explained_execution_reconstructs_hop_sequence() {
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(21))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let (out, trace) = traced(&net, &delays, &q, leaf, SearchScope::full());
        let explain = explain_from_trace(&net, &q, &trace, ExplainDecision::Entry);

        // One hop per contacted server, entry first.
        assert_eq!(explain.hops.len(), out.servers_contacted);
        assert_eq!(explain.entry, leaf.0);
        assert_eq!(explain.hops[0].decision, ExplainDecision::Entry);
        assert_eq!(explain.query_id, 21);
        assert_eq!(explain.records, out.matching_records as u64);
        assert!((explain.response_us - out.latency_ms * 1000.0).abs() < 1e-6);

        // Simulation never times out: every hop replied, and the distinct
        // responder count equals servers contacted.
        assert!(explain
            .hops
            .iter()
            .all(|h| h.outcome == HopOutcome::Replied));
        assert_eq!(explain.distinct_responders(), out.servers_contacted);

        // A leaf entry on a broad query uses the overlay and descends.
        assert!(explain
            .hops
            .iter()
            .any(|h| h.decision == ExplainDecision::OverlayShortcut));
        assert!(explain
            .hops
            .iter()
            .any(|h| h.decision == ExplainDecision::SummaryDescent));
        // Routed hops carry the deciding summary kind (histograms here).
        assert!(explain
            .hops
            .iter()
            .filter(|h| h.decision != ExplainDecision::Entry
                && h.decision != ExplainDecision::AncestorProbe)
            .all(|h| h.summary == Some(SummaryKind::Histogram)));

        // The hop-caused_by graph has exactly one root.
        let roots = explain
            .hops
            .iter()
            .filter(|h| h.caused_by.is_none())
            .count();
        assert_eq!(roots, 1, "only the entry hop is uncaused");

        // Attribution is pure network time in the simulation.
        let a = explain.attribution();
        assert!(a.network_us > 0.0);
        assert_eq!(a.queue_us, 0.0);
        assert_eq!(a.compute_us, 0.0);
        assert_eq!(a.retry_us, 0.0);
        assert_eq!(a.failover_us, 0.0);
    }

    #[test]
    fn a_skipped_owners_probe_is_a_shortcut_and_an_ancestors_a_climb() {
        use roads_telemetry::aggregate_traces;
        // A leaf entry on a broad query probes its ancestors' own records
        // and expands the replicated branches of its uncles: each uncle is
        // probed for its own records, its children contacted directly.
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(23))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let (_, trace) = traced(&net, &delays, &q, leaf, SearchScope::full());
        let explain = explain_from_trace(&net, &q, &trace, ExplainDecision::Entry);
        let probes: Vec<(ServerId, ExplainDecision)> = (trace.iter().zip(&explain.hops))
            .filter(|(e, _)| e.mode == ContactMode::LocalOnly)
            .map(|(e, h)| (e.server, h.decision))
            .collect();
        let ancestors = net.tree().ancestors(leaf);
        let climbs = (probes.iter())
            .filter(|(_, d)| *d == ExplainDecision::AncestorProbe)
            .count();
        assert_eq!(climbs, ancestors.len(), "every ancestor holds a record");
        for (server, decision) in &probes {
            let expect = if ancestors.contains(server) {
                ExplainDecision::AncestorProbe
            } else {
                ExplainDecision::OverlayShortcut
            };
            assert_eq!(*decision, expect, "probe of {server}");
        }
        assert!(probes.len() > climbs, "some replicated branch was expanded");
        let report = aggregate_traces(&[explain], net.tree().root().0, net.len());
        assert_eq!(report.climb_hops, climbs, "only real climbs count");
    }

    #[test]
    fn explain_flags_false_positive_hops() {
        // A query outside every record's used domain: histograms clamp
        // into the last bucket, so branches holding values near 1.0 may
        // false-positive; any contacted branch with no local match and no
        // further redirect must be flagged.
        let (net, delays) = network(10, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(22))
            .range("x0", 2.0, 3.0)
            .build();
        let (out, trace) = traced(&net, &delays, &q, ServerId(4), SearchScope::full());
        let explain = explain_from_trace(&net, &q, &trace, ExplainDecision::Entry);
        assert_eq!(out.matching_records, 0);
        if explain.hops.len() > 1 {
            assert!(
                explain.false_positive_count() > 0,
                "dead-end redirects on a no-match query are false positives"
            );
        }
    }

    #[test]
    fn a_hollow_chain_is_flagged_all_the_way_up() {
        // The benchmark's definition (`summary.false_positive_ratio`): a
        // Branch contact is hollow when nothing in its whole redirect
        // subtree returned a record — the interior contacts of a hollow
        // chain included, not only its last one.
        let (net, _) = network(10, 3);
        let q = point_query(&net, 0.5);
        let contact = |server: u32, mode, caused_by, local_matches| TraceEvent {
            local_matches,
            outcome: HopOutcome::Replied,
            ..TraceEvent::begun(ServerId(server), 0.0, mode, caused_by)
        };
        let branch = ContactMode::Branch;
        let mut log = vec![
            contact(0, ContactMode::Entry, None, 0),
            contact(1, branch, Some(0), 0), // hollow: forwards to 4, which forwards to 5
            contact(2, branch, Some(0), 0), // not hollow: 6 below it finds a record
            contact(4, branch, Some(1), 0),
            contact(5, branch, Some(3), 0),
            contact(6, branch, Some(2), 1),
            contact(3, ContactMode::LocalOnly, Some(0), 0), // a wasted probe is no branch
        ];
        let flagged = |log: &[TraceEvent]| -> Vec<u32> {
            let explain = explain_from_trace(&net, &q, log, ExplainDecision::Entry);
            let hollow = explain.hops.iter().filter(|h| h.false_positive);
            hollow.map(|h| h.server).collect()
        };
        assert_eq!(flagged(&log), vec![1, 4, 5]);
        // An unanswered contact may have held records: nobody above it is
        // charged, and it is not a reply to flag itself.
        log[4].outcome = HopOutcome::TimedOut;
        assert_eq!(flagged(&log), Vec::<u32>::new());
    }

    #[test]
    fn traced_execution_searches_each_server_once() {
        // Regression: tracing used to call `search_local` a second time per
        // matching server just to fill the trace event, doubling the
        // compute-time attribution. Exactly one local search per contacted
        // server, traced or not.
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(30))
            .range("x0", 0.0, 1.0)
            .build();
        let searches = || crate::engine::tests::LOCAL_SEARCHES.with(|n| n.get());
        let before = searches();
        let plain = execute_query(&net, &delays, &q, ServerId(11), SearchScope::full());
        let plain_calls = searches() - before;
        assert!(plain_calls <= plain.servers_contacted as u64);

        let before = searches();
        let (traced_out, trace) = traced(&net, &delays, &q, ServerId(11), SearchScope::full());
        let traced_calls = searches() - before;
        assert_eq!(traced_out, plain);
        assert_eq!(
            traced_calls, plain_calls,
            "tracing must not add local searches"
        );
        // Every server matches this broad query, so it's exactly one
        // search per contact here.
        assert_eq!(traced_calls, traced_out.servers_contacted as u64);
        let total: usize = trace.iter().map(|e| e.local_matches).sum();
        assert_eq!(total, traced_out.matching_records);
    }

    #[test]
    fn scope_zero_confines_search_to_entry_branch() {
        // Regression: `levels_up = Some(0)` at a leaf used to admit the
        // leaf's own siblings (the raw-depth comparison let targets at the
        // entry's depth through). Zero levels up = the entry's own branch
        // only.
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(31))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let out = execute_query(&net, &delays, &q, leaf, SearchScope::levels(0));
        assert_eq!(
            out.servers_contacted, 1,
            "a leaf with no children reaches only itself at levels(0)"
        );
        assert_eq!(out.matching_servers, vec![leaf]);

        // At an inner server, levels(0) still descends its own branch.
        let root = net.tree().root();
        let inner = *net
            .tree()
            .children(root)
            .iter()
            .find(|&&c| !net.tree().children(c).is_empty())
            .expect("30 servers at degree 3 have inner nodes");
        let out = execute_query(&net, &delays, &q, inner, SearchScope::levels(0));
        let subtree = net.tree().subtree(inner);
        assert_eq!(out.servers_contacted, subtree.len());
        let mut matched = out.matching_servers.clone();
        matched.sort();
        let mut expect = subtree.clone();
        expect.sort();
        assert_eq!(matched, expect);
    }

    #[test]
    fn scope_boundaries_at_root_and_siblings() {
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(32))
            .range("x0", 0.0, 1.0)
            .build();
        // Root entry: no ancestors, no siblings — any scope equals full.
        let root = net.tree().root();
        let full = execute_query(&net, &delays, &q, root, SearchScope::full());
        for levels in [0usize, 1, 5] {
            let scoped = execute_query(&net, &delays, &q, root, SearchScope::levels(levels));
            assert_eq!(scoped, full, "root entry is scope-invariant");
        }

        // levels(1) from a leaf: own siblings (via the parent, one level
        // up) and the parent's local probe are in; the grandparent's level
        // is out. Sibling targets sit at the ancestor's level + 1.
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let parent = net.tree().parent(leaf).unwrap();
        let (out, trace) = traced(&net, &delays, &q, leaf, SearchScope::levels(1));
        let entry_fwd: &Vec<ServerId> = &trace[0].forwarded_to;
        for &s in net.tree().children(parent) {
            if s != leaf {
                assert!(
                    entry_fwd.contains(&s),
                    "own sibling {s} is one level up — in scope at levels(1)"
                );
            }
        }
        assert!(
            entry_fwd.contains(&parent),
            "parent probe is one level up — in scope at levels(1)"
        );
        if let Some(gp) = net.tree().parent(parent) {
            assert!(
                !entry_fwd.contains(&gp),
                "grandparent probe is two levels up — out of scope at levels(1)"
            );
            for &u in net.tree().children(gp) {
                if u != parent {
                    assert!(
                        !entry_fwd.contains(&u),
                        "uncle {u} hangs off the grandparent (two levels up) — out of scope"
                    );
                }
            }
        }
        // Scoped recall: everything within the parent's branch is found.
        for s in net.tree().subtree(parent) {
            assert!(out.matching_servers.contains(&s));
        }
    }

    #[test]
    fn no_duplicate_forwarding_across_any_entry_or_scope() {
        // Regression: a server reachable twice within one redirect batch
        // used to be pushed (and billed) twice. Sweep every entry × scope:
        // message count equals distinct contacts, and no server appears in
        // two forwarded_to lists.
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(33))
            .range("x0", 0.0, 1.0)
            .build();
        for start in 0..30u32 {
            for scope in [
                SearchScope::full(),
                SearchScope::levels(0),
                SearchScope::levels(1),
                SearchScope::levels(2),
            ] {
                let (out, trace) = traced(&net, &delays, &q, ServerId(start), scope);
                assert_eq!(
                    out.query_messages as usize, out.servers_contacted,
                    "start {start}: one message per contacted server"
                );
                let mut seen: HashSet<ServerId> = HashSet::new();
                for e in &trace {
                    for f in &e.forwarded_to {
                        assert!(seen.insert(*f), "start {start}: {f} forwarded to twice");
                    }
                }
            }
        }
    }

    #[test]
    fn planned_execution_contacts_what_greedy_does() {
        use crate::planner::plan_query;
        let (net, delays) = network(30, 3);
        let leaf = *net.tree().leaves().iter().max().unwrap();
        for q in [
            point_query(&net, leaf.0 as f64 / 30.0),
            point_query(&net, 0.0),
            (QueryBuilder::new(net.schema(), QueryId(2)).range("x0", 0.2, 0.7)).build(),
        ] {
            let plan = plan_query(&net, &q, leaf, SearchScope::full());
            let planned =
                execute_query_planned(&net, &delays, &q, leaf, SearchScope::full(), &plan);
            let (greedy, trace) = traced(&net, &delays, &q, leaf, SearchScope::full());
            assert_eq!(planned, greedy);
            // The entry forwards to exactly the plan's servers.
            let servers: Vec<ServerId> = plan.contacts.iter().map(|c| c.server).collect();
            assert_eq!(trace[0].forwarded_to, servers);
        }
    }

    #[test]
    fn latency_reflects_delay_space() {
        let (net, delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(5))
            .range("x0", 0.0, 1.0)
            .build();
        let out = execute_query(&net, &delays, &q, ServerId(0), SearchScope::full());
        // Reaching depth-2 servers takes at least two sequential hops.
        assert!(out.latency_ms > 0.0);
        // And is bounded by (#levels × worst RTT) — a sanity ceiling.
        let (_, _, _, max) = delays.pairwise_stats_ms();
        assert!(out.latency_ms <= (net.tree().levels() * 2) as f64 * max);
    }
}
