//! The query explain plane against the live runtime: per-hop provenance
//! must reconcile exactly with the [`RuntimeOutcome`] it explains, and a
//! tail-retained query's explain record must be the whole hop tree its
//! rendered trace reads back as — healthy, and under kill/restart fault
//! injection.

use roads_core::{RequesterId, RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig, RuntimeOutcome};
use roads_summary::SummaryConfig;
use roads_telemetry::{
    check_hop_tree, chrome_trace_json, explains_from_chrome, ExplainDecision, HopOutcome, Json,
    QueryExplain, Registry, RetainReason, TailConfig, TailSampler,
};
use roads_workload::line_records;
use std::collections::BTreeSet;
use std::sync::Arc;

const RECORDS_PER_SERVER: usize = 20;

fn build_net(n: usize, max_children: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(schema, cfg, line_records(n, RECORDS_PER_SERVER))
}

fn build_cluster(n: usize, cfg: RuntimeConfig) -> RoadsCluster {
    build_cluster_with(n, cfg, Attachments::default())
}

fn build_cluster_with(n: usize, cfg: RuntimeConfig, attach: Attachments<'_>) -> RoadsCluster {
    RoadsCluster::start_with(build_net(n, 3), DelaySpace::paper(n, 77), cfg, attach)
}

/// An anonymous query with its provenance record.
fn explained(c: &RoadsCluster, q: &Query, entry: ServerId) -> (RuntimeOutcome, QueryExplain) {
    let (out, ex) = c.query_with(q, entry, RequesterId(0), true);
    (out, ex.expect("explain was requested"))
}

/// A sampler that retains only failed / incomplete queries.
fn failures_only_sampler(capacity: usize) -> Arc<TailSampler> {
    Arc::new(TailSampler::new(TailConfig {
        capacity,
        min_samples: 1_000_000, // stay on the floor threshold
        floor_ms: 1e9,          // never "slow"
    }))
}

fn full_query(c: &RoadsCluster, id: u64) -> Query {
    QueryBuilder::new(c.network().schema(), QueryId(id))
        .range("x0", 0.0, 1.0)
        .build()
}

fn a_leaf(c: &RoadsCluster) -> ServerId {
    let tree = c.network().tree();
    (0..c.network().len() as u32)
        .map(ServerId)
        .find(|&s| tree.children(s).is_empty())
        .expect("every finite tree has a leaf")
}

/// The invariants tying an explain record to the outcome it explains.
/// `ex` rendered into a Chrome trace document and read back.
fn rendered(ex: &QueryExplain) -> QueryExplain {
    let text = chrome_trace_json(&[], std::slice::from_ref(ex)).to_string();
    let mut back = explains_from_chrome(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.len(), 1);
    back.remove(0)
}

fn assert_consistent(out: &RuntimeOutcome, ex: &QueryExplain) {
    assert_eq!(
        ex.distinct_responders(),
        out.servers_contacted,
        "distinct Replied hops must equal servers_contacted"
    );
    assert_eq!(
        ex.retry_count() as usize,
        out.retries,
        "Retry hops must equal the outcome's retry count"
    );
    assert_eq!(ex.records, out.records.len() as u64, "record count");
    assert_eq!(ex.complete, out.complete, "completeness verdict");
    assert!((ex.response_us / 1_000.0 - out.response_ms).abs() < 1e-6);
    // Causality is well-founded: the entry hop is first and uncaused,
    // every other hop is caused by an earlier one.
    assert_eq!(ex.hops[0].decision, ExplainDecision::Entry);
    assert_eq!(ex.hops[0].caused_by, None);
    for (i, h) in ex.hops.iter().enumerate().skip(1) {
        let c = h.caused_by.expect("non-entry hops have a cause");
        assert!(c < i, "hop {i} caused by later hop {c}");
    }
}

#[test]
fn explain_matches_outcome_on_healthy_cluster() {
    let n = 13;
    let c = build_cluster(n, RuntimeConfig::test_fast());
    let entry = a_leaf(&c);
    let (out, ex) = explained(&c, &full_query(&c, 1), entry);

    assert_eq!(out.records.len(), n * RECORDS_PER_SERVER);
    assert_consistent(&out, &ex);
    assert_eq!(ex.entry, entry.0);
    assert!(!ex.deadline_hit);
    assert!(
        ex.hops.iter().all(|h| h.outcome == HopOutcome::Replied),
        "healthy cluster: every hop replies"
    );
    // Two levels below the root, a leaf entry replicates every other
    // branch and expands each one through its parts: its two ancestors
    // are probed, every other server is a shortcut, nothing descends.
    let count = |ex: &QueryExplain, d| ex.hops.iter().filter(|h| h.decision == d).count();
    assert_eq!(c.network().tree().depth(entry), 2);
    assert_eq!(count(&ex, ExplainDecision::AncestorProbe), 2);
    assert_eq!(count(&ex, ExplainDecision::OverlayShortcut), n - 3);
    assert_eq!(count(&ex, ExplainDecision::SummaryDescent), 0);
    // From the root, the same query descends the hierarchy.
    let root = c.network().tree().root();
    let (from_root, down) = explained(&c, &full_query(&c, 2), root);
    assert_consistent(&from_root, &down);
    assert_eq!(count(&down, ExplainDecision::SummaryDescent), n - 1);
    // Every server holds matching data, so every routed hop was vouched
    // for by some summary structure and found local records.
    let routed =
        (ex.hops.iter().chain(&down.hops)).filter(|h| h.decision != ExplainDecision::Entry);
    for h in routed {
        assert!(h.summary.is_some(), "routed hops carry a summary kind");
        assert!(!h.false_positive);
    }
    // Attribution: simulated links make network time dominate; nothing
    // was retried or failed over.
    let attr = ex.attribution();
    assert!(attr.network_us > 0.0);
    assert_eq!(attr.retry_us, 0.0);
    assert_eq!(attr.failover_us, 0.0);
    assert!(attr.total_us() > 0.0);
    c.shutdown();
}

#[test]
fn explain_consistency_under_kill_and_restart() {
    let n = 13;
    let c = build_cluster(n, RuntimeConfig::test_faulty());
    let tree = c.network().tree();
    let victim = *tree
        .children(tree.root())
        .iter()
        .find(|&&s| !tree.children(s).is_empty())
        .expect("13 servers at degree 3 have an interior non-root child");
    assert!(c.kill_server(victim));

    let (out, ex) = explained(&c, &full_query(&c, 2), tree.root());
    assert_eq!(out.failed_servers, vec![victim]);
    assert_consistent(&out, &ex);
    // The dead server's hop records the closed mailbox, and the overlay
    // stand-in hop points back at it as its cause.
    let dead_hop = ex
        .hops
        .iter()
        .position(|h| h.server == victim.0)
        .expect("the dead server was dispatched to");
    assert_eq!(ex.hops[dead_hop].outcome, HopOutcome::MailboxDown);
    let failover = ex
        .hops
        .iter()
        .find(|h| h.decision == ExplainDecision::Failover)
        .expect("an overlay stand-in was nominated");
    assert_eq!(failover.caused_by, Some(dead_hop));
    assert_eq!(failover.outcome, HopOutcome::Replied);
    let attr = ex.attribution();
    assert!(attr.failover_us > 0.0, "failover time must be attributed");

    // After a restart the same query explains cleanly again.
    assert!(c.restart_server(victim));
    let (healed, hex) = explained(&c, &full_query(&c, 3), tree.root());
    assert!(healed.complete);
    assert_consistent(&healed, &hex);
    assert!(hex.hops.iter().all(|h| h.outcome == HopOutcome::Replied));
    assert_eq!(hex.attribution().failover_us, 0.0);
    c.shutdown();
}

#[test]
fn explain_counts_real_retries() {
    // One slow-but-alive server: the dispatch timeout fires, the driver
    // retries, and the explain record must show the same retry the
    // outcome counts — with its backoff attributed to retry time.
    let cfg = RuntimeConfig {
        base_query_cost_us: 400_000,
        dispatch_timeout_ms: 250,
        max_retries: 1,
        backoff_base_ms: 5,
        query_deadline_ms: 8_000,
        ..RuntimeConfig::test_fast()
    };
    let c = build_cluster(1, cfg);
    let only = c.network().tree().root();
    let (out, ex) = explained(&c, &full_query(&c, 4), only);
    assert!(out.retries >= 1);
    assert_consistent(&out, &ex);
    let retry = ex
        .hops
        .iter()
        .find(|h| h.decision == ExplainDecision::Retry)
        .expect("a retry hop was dispatched");
    assert!(retry.split.backoff_us > 0.0, "retries carry their backoff");
    assert!(ex.attribution().retry_us > 0.0);
    c.shutdown();
}

/// Regression: a reply that lands after its attempt timed out and was
/// retried used to leave a timeout *and* a reply recorded for one contact
/// while the hop read `Replied`. A late reply re-stamps the one log
/// entry the explain and its rendered trace both derive from: each
/// contact reads back as one slice, with the outcome its hop says.
#[test]
fn late_reply_after_timeout_and_retry_agrees_across_planes() {
    let cfg = RuntimeConfig {
        base_query_cost_us: 100_000,
        dispatch_timeout_ms: 250,
        max_retries: 1,
        backoff_base_ms: 5,
        query_deadline_ms: 8_000,
        ..RuntimeConfig::test_fast()
    };
    let c = build_cluster(1, cfg);
    let only = c.network().tree().root();
    // 400 ms per request: the first attempt answers at 400 ms — after its
    // 250 ms timeout and the retry — and the retry, queued behind it,
    // times out in turn at ≈ 505 ms.
    assert!(c.slow_server(only, 4.0));
    let (out, ex) = explained(&c, &full_query(&c, 9), only);
    assert!(out.complete, "the late reply carried every record");
    assert_eq!(out.records.len(), RECORDS_PER_SERVER);
    assert_eq!((out.retries, out.servers_contacted), (1, 1));
    assert_consistent(&out, &ex);
    let outcomes: Vec<_> = ex.hops.iter().map(|h| (h.decision, h.outcome)).collect();
    let expected = [
        (ExplainDecision::Entry, HopOutcome::Replied),
        (ExplainDecision::Retry, HopOutcome::TimedOut),
    ];
    assert_eq!(outcomes, expected);
    assert_eq!(ex.hops[1].caused_by, Some(0));
    assert!(ex.hops[0].dur_us >= 400_000.0, "closed by the late reply");

    let rendered = rendered(&ex);
    let read: Vec<_> = rendered
        .hops
        .iter()
        .map(|h| (h.decision, h.outcome))
        .collect();
    assert_eq!(read, expected, "one slice per contact, as its hop ended");
    assert_eq!(rendered.hops[1].caused_by, Some(0), "the retry's arrow");
    c.shutdown();
}

/// Acceptance: a tail-retained query's explain record reconstructs its
/// full hop tree, and its rendered trace reads back as that tree.
#[test]
fn retained_query_explain_reconstructs_span_tree() {
    let n = 13;
    let tail = failures_only_sampler(16);
    let c = build_cluster_with(
        n,
        RuntimeConfig::test_faulty(),
        Attachments {
            tail: Some(Arc::clone(&tail)),
            ..Attachments::default()
        },
    );

    // Warm-up query: healthy, fast, below the floor — observed, dropped.
    let healthy = c.query(&full_query(&c, 5), a_leaf(&c));
    assert!(healthy.complete);

    // Kill a leaf: the next query fails partially and must be retained.
    let victim = a_leaf(&c);
    assert!(c.kill_server(victim));
    let out = c.query(&full_query(&c, 6), c.network().tree().root());
    assert_eq!(out.failed_servers, vec![victim]);

    assert_eq!(tail.observed(), 2);
    assert_eq!(tail.dropped(), 1, "the healthy query folds and drops");
    let retained = tail.retained();
    assert_eq!(retained.len(), 1);
    let kept = &retained[0];
    // Every other server replied: a partial answer, not a failed query.
    assert_eq!(kept.reason, RetainReason::Incomplete);
    let ex = &kept.explain;
    assert_consistent(&out, ex);

    // The hops form one tree rooted at the entry, which the retained
    // hops name: the dead leaf timed out or was found dead, every other
    // contact replied, and the rendered trace reads back as the same
    // servers, decisions and outcomes.
    assert_eq!(check_hop_tree(ex.hops.iter().map(|h| h.caused_by)), Ok(()));
    assert_eq!(ex.hops[0].server, c.network().tree().root().0);
    let failed: BTreeSet<u32> = (ex.hops.iter())
        .filter(|h| matches!(h.outcome, HopOutcome::TimedOut | HopOutcome::MailboxDown))
        .map(|h| h.server)
        .collect();
    assert_eq!(failed, BTreeSet::from([victim.0]));
    let what = |e: &QueryExplain| -> Vec<_> {
        (e.hops.iter())
            .map(|h| (h.server, h.decision, h.outcome, h.caused_by))
            .collect()
    };
    assert_eq!(what(&rendered(ex)), what(ex));

    // Exemplar: the latency bucket this query fell into links back to
    // the retained query.
    assert_eq!(tail.exemplar(out.response_ms), Some(ex.query_id));
    c.shutdown();
}

/// A query no server answered has no usable outcome: it is retained as
/// failed, where a partial answer is retained as incomplete.
#[test]
fn a_query_no_server_answers_is_retained_as_failed() {
    let n = 13;
    let tail = failures_only_sampler(4);
    let c = build_cluster_with(
        n,
        RuntimeConfig::test_faulty(),
        Attachments {
            tail: Some(Arc::clone(&tail)),
            ..Attachments::default()
        },
    );
    for s in 0..n as u32 {
        assert!(c.kill_server(ServerId(s)));
    }
    let root = c.network().tree().root();
    let (out, ex) = explained(&c, &full_query(&c, 8), root);
    assert_eq!(out.servers_contacted, 0);
    assert!(out.records.is_empty() && !out.complete);
    assert_consistent(&out, &ex);
    let retained = tail.retained();
    assert_eq!(retained.len(), 1);
    assert_eq!(retained[0].reason, RetainReason::Failed);
    c.shutdown();
}

/// Deadline-abandoned hops stay `Abandoned` and the query is retained as
/// incomplete even though nothing failed outright.
#[test]
fn deadline_cutoff_retains_incomplete_with_abandoned_hops() {
    let cfg = RuntimeConfig {
        base_query_cost_us: 800_000,
        query_deadline_ms: 200,
        dispatch_timeout_ms: 0,
        ..RuntimeConfig::test_fast()
    };
    let tail = failures_only_sampler(4);
    let c = build_cluster_with(
        4,
        cfg,
        Attachments {
            tail: Some(Arc::clone(&tail)),
            ..Attachments::default()
        },
    );
    let root = c.network().tree().root();
    let (out, ex) = explained(&c, &full_query(&c, 7), root);
    assert!(!out.complete);
    assert!(ex.deadline_hit);
    assert_consistent(&out, &ex);
    assert!(
        ex.hops
            .iter()
            .any(|h| h.outcome == HopOutcome::Abandoned && h.dur_us > 0.0),
        "deadline-cut hops must be recorded as abandoned with their age"
    );
    // The attached sampler was offered the same record and kept it.
    let retained = tail.retained();
    assert!(!retained.is_empty());
    assert!(retained
        .iter()
        .all(|q| q.reason == RetainReason::Failed || q.reason == RetainReason::Incomplete));
    c.shutdown();
}

/// Regression: a cache replay used to finish through an epilogue of its
/// own that counted the query but never offered it to the tail sampler, so
/// `SLOW_QUERIES.json`'s `observed` disagreed with the scrape and the
/// sampler's threshold was learned from misses only.
#[test]
fn cache_replays_reach_the_tail_sampler_like_any_query() {
    let k = 5;
    let reg = Registry::new();
    let tail = failures_only_sampler(4);
    let c = build_cluster_with(
        13,
        RuntimeConfig {
            cache_ttl_rounds: 2,
            ..RuntimeConfig::test_fast()
        },
        Attachments {
            tail: Some(Arc::clone(&tail)),
            ..Attachments::instrumented(&reg)
        },
    );
    let entry = a_leaf(&c);
    let q = full_query(&c, 8);
    let first = c.query(&q, entry);
    assert!(first.complete);
    for _ in 2..k {
        assert_eq!(c.query(&q, entry).records, first.records, "verbatim replay");
    }
    // `explain = false` still yields the record: the sampler wants it.
    let (last, ex) = c.query_with(&q, entry, RequesterId(0), false);
    let ex = ex.expect("a tail sampler makes every query explain itself");
    assert_eq!(last.servers_contacted, 1, "served by the entry alone");
    assert_eq!(ex.hops.len(), 1, "a replay is the single cache-hit hop");
    assert_eq!(ex.hops[0].decision, ExplainDecision::CacheHit);
    assert_eq!(ex.hops[0].server, entry.0);
    assert_eq!(ex.hops[0].caused_by, None);
    assert_eq!(ex.records, last.records.len() as u64);
    assert_eq!(ex.complete, last.complete);

    assert_eq!(reg.counter("runtime.queries").get(), k);
    assert_eq!(reg.counter("roads.cache.hits").get(), k - 1);
    assert_eq!(tail.observed(), k, "every query is observed, hit or miss");
    assert_eq!(tail.dropped(), k, "hits fold and drop like any fast query");
    assert!(tail.retained().is_empty());
    c.shutdown();
}
