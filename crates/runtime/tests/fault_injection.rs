//! Fault injection against the live query plane: crashed servers, panicking
//! owner policies, deadlines, and replica-overlay failover (§III-C).
//!
//! Every test drives a real [`RoadsCluster`] — client threads, server
//! cells, the timer thread — and kills pieces of it mid-flight. The invariant
//! under test throughout: a query always returns within the query
//! deadline, and [`RuntimeOutcome::complete`]/`failed_servers` tell the
//! truth about what the result may be missing.

use proptest::prelude::*;
use roads_core::policy::{Disclosure, RequesterId, SharingPolicy, TrustClass};
use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig, RuntimeOutcome};
use roads_summary::SummaryConfig;
use roads_workload::line_records;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS_PER_SERVER: usize = 20;

/// `n` servers in a degree-`max_children` hierarchy, each holding 20
/// records with distinct ids; record values spread server `s`'s data
/// across `x0 ∈ [s/n, (s+1)/n)` so a full-range query matches everything
/// and every server holds matching local data.
fn build_net(n: usize, max_children: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(schema, cfg, line_records(n, RECORDS_PER_SERVER))
}

fn build_cluster(n: usize, max_children: usize, cfg: RuntimeConfig) -> RoadsCluster {
    RoadsCluster::start(build_net(n, max_children), DelaySpace::paper(n, 77), cfg)
}

fn full_query(c: &RoadsCluster) -> Query {
    QueryBuilder::new(c.network().schema(), QueryId(1))
        .range("x0", 0.0, 1.0)
        .build()
}

/// Sorted, deduplicated record ids of an outcome.
fn unique_ids(out: &RuntimeOutcome) -> Vec<u64> {
    let before = out.records.len();
    let ids: BTreeSet<u64> = out.records.iter().map(|r| r.id.0).collect();
    assert_eq!(
        ids.len(),
        before,
        "duplicate records merged into the result"
    );
    ids.into_iter().collect()
}

/// Some leaf server (deterministic: lowest id with no children).
fn a_leaf(c: &RoadsCluster) -> ServerId {
    let tree = c.network().tree();
    (0..c.network().len() as u32)
        .map(ServerId)
        .find(|&s| tree.children(s).is_empty())
        .expect("every finite tree has a leaf")
}

fn with_policies(policies: Vec<Arc<dyn SharingPolicy>>) -> Attachments<'static> {
    Attachments {
        policies: Some(policies),
        ..Attachments::default()
    }
}

/// An owner whose backend crashes the server thread on any query:
/// regression for the runtime hang, where each such dispatch leaked a
/// helper thread blocked forever on a reply that could never come.
struct PanicPolicy;

impl SharingPolicy for PanicPolicy {
    fn classify(&self, _requester: RequesterId) -> TrustClass {
        panic!("owner backend crashed (injected)")
    }

    fn disclose(&self, _class: TrustClass, _record: &Record) -> Disclosure {
        Disclosure::Full
    }
}

#[test]
fn panicking_policy_cannot_hang_the_client() {
    let n = 9;
    let net = build_net(n, 3);
    let victim = {
        let tree = net.tree();
        (0..n as u32)
            .map(ServerId)
            .find(|&s| tree.children(s).is_empty())
            .unwrap()
    };
    let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
        .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
        .collect();
    policies[victim.index()] = Arc::new(PanicPolicy);
    let cfg = RuntimeConfig::test_faulty();
    let c = RoadsCluster::start_with(net, DelaySpace::paper(n, 77), cfg, with_policies(policies));
    let q = full_query(&c);

    let t0 = Instant::now();
    let out = c.query(&q, c.network().tree().root());
    assert!(
        t0.elapsed() < Duration::from_millis(cfg.query_deadline_ms),
        "client must not hang on a panicked server"
    );
    assert!(
        !out.complete,
        "a crashed matching server ⇒ possibly missing"
    );
    assert_eq!(out.failed_servers, vec![victim]);
    assert_eq!(unique_ids(&out).len(), (n - 1) * RECORDS_PER_SERVER);
    c.shutdown();
}

/// With no link delay, no backoff and no emulated cost, every contact is
/// delivered by its own client and an idle server's step runs on that
/// client's thread. A step that panics there still retires the server —
/// it does not unwind the client — and the query names what it lost.
#[test]
fn a_step_that_panics_in_place_retires_its_server() {
    let n = 9;
    let net = build_net(n, 3);
    let victim = {
        let tree = net.tree();
        (0..n as u32)
            .map(ServerId)
            .find(|&s| tree.children(s).is_empty())
            .unwrap()
    };
    let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
        .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
        .collect();
    policies[victim.index()] = Arc::new(PanicPolicy);
    let cfg = RuntimeConfig {
        delay_scale: 0.0,
        base_query_cost_us: 0,
        per_record_retrieval_us: 0,
        bandwidth_mbps: 1e12,
        ..RuntimeConfig::test_faulty()
    };
    let c = RoadsCluster::start_with(net, DelaySpace::paper(n, 77), cfg, with_policies(policies));
    let q = full_query(&c);

    let out = c.query(&q, c.network().tree().root());
    assert!(
        !out.complete,
        "a crashed matching server ⇒ possibly missing"
    );
    assert_eq!(out.failed_servers, vec![victim]);
    assert_eq!(unique_ids(&out).len(), (n - 1) * RECORDS_PER_SERVER);
    for s in (0..n as u32).map(ServerId) {
        assert_eq!(c.is_alive(s), s != victim, "{s:?}");
    }
    c.shutdown();
}

/// An owner whose backend crashes on its first query and works afterwards.
struct PanicOncePolicy(AtomicBool);

impl SharingPolicy for PanicOncePolicy {
    fn classify(&self, _requester: RequesterId) -> TrustClass {
        if !self.0.swap(true, Ordering::Relaxed) {
            panic!("owner backend crashed once (injected)");
        }
        TrustClass::Partner
    }

    fn disclose(&self, _class: TrustClass, _record: &Record) -> Disclosure {
        Disclosure::Full
    }
}

/// Regression: a server whose step panicked used to keep reading as alive
/// (`is_alive`; `health()` and the gauges are pinned by the
/// `crash_shows_in_health_and_gauges` unit test) and `restart_server`
/// refused to bring it back, forever. A crash is a death: every plane says
/// so, only the victim is affected, and a restart serves again.
#[test]
fn crashed_server_reads_dead_and_restarts() {
    let n = 9;
    let net = build_net(n, 3);
    let victim = {
        let tree = net.tree();
        (0..n as u32)
            .map(ServerId)
            .find(|&s| tree.children(s).is_empty())
            .unwrap()
    };
    let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
        .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
        .collect();
    policies[victim.index()] = Arc::new(PanicOncePolicy(AtomicBool::new(false)));
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_faulty(),
        with_policies(policies),
    );
    let q = full_query(&c);
    let root = c.network().tree().root();

    let out = c.query(&q, root);
    assert_eq!(out.failed_servers, vec![victim]);
    assert!(!out.complete);
    for s in (0..n as u32).map(ServerId) {
        assert_eq!(c.is_alive(s), s != victim, "{s:?}");
    }

    assert!(
        c.restart_server(victim),
        "a crashed server can be restarted"
    );
    assert!(c.is_alive(victim));
    let healed = c.query(&q, root);
    assert!(healed.complete, "the policy panics only once");
    assert_eq!(unique_ids(&healed).len(), n * RECORDS_PER_SERVER);
    c.shutdown();
}

#[test]
fn branch_crash_recovers_subtree_via_failover() {
    let n = 13;
    let c = build_cluster(n, 3, RuntimeConfig::test_faulty());
    let tree = c.network().tree();
    let victim = *tree
        .children(tree.root())
        .iter()
        .find(|&&s| !tree.children(s).is_empty())
        .expect("13 servers at degree 3 have an interior non-root node");
    let in_subtree = tree.subtree(victim).len();
    assert!(in_subtree >= 2, "victim must gate other servers");
    assert!(c.kill_server(victim));

    let out = c.query(&full_query(&c), tree.root());
    // The overlay stand-in recovers every *descendant* of the crashed
    // branch server; only its own locally attached records are lost.
    assert_eq!(unique_ids(&out).len(), (n - 1) * RECORDS_PER_SERVER);
    assert_eq!(out.failed_servers, vec![victim]);
    assert!(!out.complete);
    assert_eq!(
        out.retries, 0,
        "a closed mailbox fails over immediately without burning the retry budget"
    );
    c.shutdown();
}

#[test]
fn failover_disabled_loses_the_whole_subtree() {
    let n = 13;
    let cfg = RuntimeConfig {
        enable_failover: false,
        ..RuntimeConfig::test_faulty()
    };
    let c = build_cluster(n, 3, cfg);
    let tree = c.network().tree();
    let victim = *tree
        .children(tree.root())
        .iter()
        .find(|&&s| !tree.children(s).is_empty())
        .unwrap();
    let in_subtree = tree.subtree(victim).len();
    assert!(c.kill_server(victim));

    let out = c.query(&full_query(&c), tree.root());
    assert_eq!(
        unique_ids(&out).len(),
        (n - in_subtree) * RECORDS_PER_SERVER,
        "without failover the victim's descendants are unreachable"
    );
    assert_eq!(out.failed_servers, vec![victim]);
    assert!(!out.complete);
    c.shutdown();
}

/// A leaf entry skips the owner of a replicated uncle branch: it contacts
/// the uncle's admitting children directly and probes the uncle only for
/// its own records. A dead uncle therefore no longer hides its branch. If
/// nothing of the uncle's own may match, nothing is missing and the
/// answer is complete; if its own records may, they are what is missing.
#[test]
fn a_dead_skipped_owner_hides_only_its_own_records() {
    let n = 13;
    let c = build_cluster(n, 3, RuntimeConfig::test_faulty());
    let (net, tree) = (c.network(), c.network().tree());
    let entry = a_leaf(&c);
    let parent = tree
        .parent(entry)
        .expect("a leaf of 13 servers has a parent");
    let uncle = *(tree.children(tree.root()).iter())
        .find(|&&u| u != parent && !tree.children(u).is_empty())
        .expect("13 servers at degree 3 have three interior children of the root");
    assert!(net.replica_set(entry).ancestor_siblings.contains(&uncle));
    // Server s holds x0 ∈ [s/13, (s+1)/13); a range well inside one of
    // the uncle's children, away from every shared bucket.
    let inside = |s: ServerId, id: u64| {
        let lo = s.0 as f64 / n as f64;
        QueryBuilder::new(net.schema(), QueryId(id))
            .range("x0", lo + 0.02, lo + 1.0 / n as f64 - 0.02)
            .build()
    };
    let child = *(tree.children(uncle).iter())
        .find(|&&k| {
            let tags = net.branch_summary(uncle).parts_holding(&inside(k, 0));
            tags == Some(vec![k.0])
        })
        .expect("some child's range is held by its part alone");
    let below = inside(child, 2);
    assert!(!net.local_summary(uncle).may_match(&below));
    let expected = net.search_local(child, &below).len();
    assert!(expected > 0);
    assert!(c.kill_server(uncle));

    let out = c.query(&below, entry);
    assert!(out.complete, "the dead uncle held nothing this query wants");
    assert!(out.failed_servers.is_empty());
    assert_eq!(unique_ids(&out).len(), expected);
    assert!(out.records.iter().all(|r| r.owner.0 == child.0));

    let out = c.query(&full_query(&c), entry);
    assert!(!out.complete, "the uncle's own records may match");
    assert_eq!(out.failed_servers, vec![uncle]);
    assert_eq!(
        unique_ids(&out).len(),
        (n - 1) * RECORDS_PER_SERVER,
        "every record but the uncle's own"
    );
    c.shutdown();
}

/// Regression for the mode-insensitive visited-set dedup. The helper that
/// can stand in for the dead uncle is the entry's own parent — a server the
/// query has *already visited* as a `LocalOnly` ancestor probe. The old
/// `HashSet<ServerId>` dedup refused to contact it again, silently
/// abandoning the dead server's children.
#[test]
fn localonly_probed_ancestor_still_serves_as_failover_helper() {
    let n = 7;
    let base = build_net(n, 2);
    let tree = base.tree();
    let root = tree.root();
    assert_eq!(tree.children(root).len(), 2, "test needs a binary root");
    // U: a child of the root with its own children; P: the root's other
    // child; entry: a leaf under P. Then U's failover candidates are
    // exactly [P, root] — both already probed LocalOnly as the entry's
    // ancestors by the time U's death is detected.
    let u = *tree
        .children(root)
        .iter()
        .find(|&&s| !tree.children(s).is_empty())
        .expect("7 servers at degree 2 have an interior node");
    let p = *tree.children(root).iter().find(|&&s| s != u).unwrap();
    let entry = *tree
        .children(p)
        .iter()
        .find(|&&s| tree.children(s).is_empty())
        .expect("p must have a leaf child for this topology");
    // U and one of its children hold nothing, so U's branch summary is
    // its other child's and keeps no parts: the entry cannot skip U and
    // contacts it as a branch.
    let mut records = line_records(n, RECORDS_PER_SERVER);
    records[u.index()].clear();
    records[tree.children(u)[0].index()].clear();
    let (schema, cfg) = (base.schema().clone(), *base.config());
    let net = RoadsNetwork::with_tree(schema, cfg, tree.clone(), records);
    assert_eq!(net.branch_summary(u).part_count(), 0);
    let c = RoadsCluster::start(net, DelaySpace::paper(n, 77), RuntimeConfig::test_faulty());
    assert_eq!(
        c.network().replica_set(u).failover_candidates(),
        vec![p, root],
        "precondition: every helper for u is an ancestor of the entry"
    );
    assert!(c.kill_server(u));

    let out = c.query(&full_query(&c), entry);
    assert_eq!(
        unique_ids(&out).len(),
        (n - 2) * RECORDS_PER_SERVER,
        "the LocalOnly-probed parent must be re-contacted as a stand-in"
    );
    assert_eq!(out.failed_servers, vec![u]);
    c.shutdown();
}

#[test]
fn dead_entry_fails_over_to_replica_entry() {
    let n = 9;
    let cfg = RuntimeConfig::test_faulty();
    let c = build_cluster(n, 3, cfg);
    let entry = a_leaf(&c);
    assert!(c.kill_server(entry));

    let t0 = Instant::now();
    let out = c.query(&full_query(&c), entry);
    assert!(
        t0.elapsed() < Duration::from_millis(cfg.query_deadline_ms),
        "entry failover must finish well before the deadline"
    );
    assert_eq!(
        unique_ids(&out).len(),
        (n - 1) * RECORDS_PER_SERVER,
        "a replica entry must take over the whole query"
    );
    assert_eq!(out.failed_servers, vec![entry]);
    assert!(!out.complete);
    c.shutdown();
}

#[test]
fn deadline_cuts_off_slow_cluster() {
    // Every server takes ~800 ms of emulated backend time per query; the
    // deadline is 200 ms. The client must give up on time, not wait.
    let cfg = RuntimeConfig {
        base_query_cost_us: 800_000,
        query_deadline_ms: 200,
        dispatch_timeout_ms: 0, // only the deadline bounds this query
        ..RuntimeConfig::test_fast()
    };
    let c = build_cluster(4, 3, cfg);
    let root = c.network().tree().root();
    let out = c.query(&full_query(&c), root);
    assert!(!out.complete, "a deadline cutoff is never complete");
    assert!(
        out.response_ms >= 200.0 && out.response_ms < 700.0,
        "returned at the deadline, not after the backend: {} ms",
        out.response_ms
    );
    assert!(out.failed_servers.contains(&root), "pending ⇒ failed");
    c.shutdown();
}

/// A query provably missing `entry`'s local data while matching records
/// elsewhere (both asserted as preconditions).
fn query_missing_entry(c: &RoadsCluster, entry: ServerId, lo: f64, hi: f64) -> Query {
    let q = QueryBuilder::new(c.network().schema(), QueryId(2))
        .range("x0", lo, hi)
        .build();
    assert!(
        !c.network().local_summary(entry).may_match(&q),
        "precondition: the query must provably miss the entry's local data"
    );
    assert!(
        !c.network().matching_servers(&q).is_empty(),
        "precondition: matching records must exist elsewhere"
    );
    q
}

/// Regression for unsound completeness on a dead entry. The entry role
/// covers the overlay evaluation for the *whole hierarchy* (ancestor
/// probes, replica shortcuts), but the old completeness check only
/// examined the dead entry's local summary and direct children: with
/// failover disabled, a query started at a dead leaf entry returned zero
/// records with `complete = true` while matching records existed
/// elsewhere.
#[test]
fn dead_entry_without_replacement_is_never_complete() {
    let n = 9;
    let cfg = RuntimeConfig {
        enable_failover: false,
        ..RuntimeConfig::test_faulty()
    };
    let c = build_cluster(n, 3, cfg);
    let entry = a_leaf(&c);
    let q = query_missing_entry(&c, entry, 0.8, 0.95);
    assert!(c.kill_server(entry));

    let out = c.query(&q, entry);
    assert!(out.records.is_empty(), "a dead entry alone returns nothing");
    assert!(
        !out.complete,
        "no replacement entry ran the overlay evaluation — matching \
         records elsewhere are unaccounted for"
    );
    assert_eq!(out.failed_servers, vec![entry]);
    c.shutdown();
}

/// Counterpart guarding against over-correction: when a replica entry
/// takes over and the summaries prove the dead entry held nothing
/// matching, the result is still *provably* complete.
#[test]
fn replacement_entry_restores_provable_completeness() {
    let n = 9;
    let c = build_cluster(n, 3, RuntimeConfig::test_faulty());
    let entry = a_leaf(&c);
    let q = query_missing_entry(&c, entry, 0.8, 0.95);
    let expected: usize = (0..n as u32)
        .map(ServerId)
        .filter(|&s| s != entry)
        .map(|s| c.network().search_local(s, &q).len())
        .sum();
    assert!(expected > 0);
    assert!(c.kill_server(entry));

    let out = c.query(&q, entry);
    assert_eq!(
        unique_ids(&out).len(),
        expected,
        "the replacement entry reaches every matching record"
    );
    assert!(
        out.complete,
        "dead entry provably empty for this query + replacement entry \
         covered the rest ⇒ complete"
    );
    assert_eq!(out.failed_servers, vec![entry]);
    c.shutdown();
}

/// Regression for the Down fast-path: a mailbox found closed is
/// definitively dead until restarted, so the driver must fail over
/// immediately instead of burning `max_retries` backoff cycles on it.
#[test]
fn closed_mailbox_skips_retry_budget() {
    let n = 9;
    let c = build_cluster(n, 3, RuntimeConfig::test_faulty());
    let victim = a_leaf(&c);
    let root = c.network().tree().root();
    assert!(c.kill_server(victim));

    let out = c.query(&full_query(&c), root);
    assert_eq!(out.retries, 0, "closed mailboxes must not consume retries");
    assert_eq!(out.failed_servers, vec![victim]);
    assert_eq!(unique_ids(&out).len(), (n - 1) * RECORDS_PER_SERVER);
    c.shutdown();
}

/// Regression for `servers_contacted`: a reply racing a retry used to be
/// counted twice. A single slow-but-alive server answers after the
/// dispatch timeout already triggered a retry; it is one server,
/// contacted once, and its records merge once.
#[test]
fn late_reply_counts_each_server_once() {
    let cfg = RuntimeConfig {
        base_query_cost_us: 400_000, // slower than the dispatch timeout
        dispatch_timeout_ms: 250,
        max_retries: 1,
        backoff_base_ms: 5,
        query_deadline_ms: 8_000,
        ..RuntimeConfig::test_fast()
    };
    let c = build_cluster(1, 3, cfg);
    let only = c.network().tree().root();

    let out = c.query(&full_query(&c), only);
    assert_eq!(unique_ids(&out).len(), RECORDS_PER_SERVER);
    assert_eq!(
        out.servers_contacted, 1,
        "late/duplicate replies must not inflate the distinct server count"
    );
    assert!(
        out.retries >= 1,
        "the slow server timed out and was retried"
    );
    assert!(out.complete, "its reply landed in the end — nothing failed");
    assert!(out.failed_servers.is_empty());
    c.shutdown();
}

/// Regression for stand-in helper bookkeeping: a helper that died while
/// standing in for one dead server must not be nominated again when a
/// *different* dead server fails over later — its death is already known
/// and re-contacting it only burns another failure cycle.
#[test]
fn failed_standin_helper_is_not_renominated() {
    use roads_telemetry::{EventKind, Recorder};
    let n = 13;
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    // Root children: `a` and `b` (both killed/crashed, both needing
    // failover for their subtrees) and `h`, whose whole subtree holds
    // records far outside the query range — so `h` is never a direct
    // query target, only ever a failover stand-in. The hierarchy layout
    // comes from the balance-aware join walk, so read `h`'s subtree off a
    // probe network before assigning record values.
    let (a, h, b, shielded) = {
        let probe = build_net(n, 3);
        let tree = probe.tree();
        let ch = tree.children(tree.root()).to_vec();
        assert_eq!(ch.len(), 3, "root of 13 @ degree 3 has three children");
        let shielded: Vec<usize> = tree.subtree(ch[1]).iter().map(|s| s.index()).collect();
        (ch[0], ch[1], ch[2], shielded)
    };
    let records: Vec<Vec<Record>> = (0..n)
        .map(|s| {
            (0..RECORDS_PER_SERVER)
                .map(|i| {
                    let id = s * RECORDS_PER_SERVER + i;
                    let v = if shielded.contains(&s) {
                        0.9 + i as f64 * 0.003
                    } else {
                        id as f64 / (n * RECORDS_PER_SERVER) as f64 * 0.5
                    };
                    Record::new_unchecked(
                        RecordId(id as u64),
                        OwnerId(s as u32),
                        vec![Value::Float(v)],
                    )
                })
                .collect()
        })
        .collect();
    let net = RoadsNetwork::build(schema, cfg, records);
    {
        let tree = net.tree();
        let root = tree.root();
        assert!(!tree.children(a).is_empty(), "a gates a subtree");
        assert!(!tree.children(b).is_empty(), "b gates a subtree");
        assert!(
            !net.branch_summary(h).may_match(
                &QueryBuilder::new(net.schema(), QueryId(99))
                    .range("x0", 0.0, 0.5)
                    .build()
            ),
            "h's branch must be provably outside the query range"
        );
        // Sibling order makes h the first candidate for a, and a (already
        // failed by then) then h the leading candidates for b.
        assert_eq!(net.replica_set(a).failover_candidates(), vec![h, b, root]);
        assert_eq!(net.replica_set(b).failover_candidates(), vec![a, h, root]);
    }
    // `b` panics on its first direct query, so its failure is detected by
    // dispatch timeout — long after `h`'s death as a stand-in resolved.
    let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
        .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
        .collect();
    policies[b.index()] = Arc::new(PanicPolicy);
    let rec = Arc::new(Recorder::new(4096));
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_faulty(),
        Attachments {
            recorder: Some(Arc::clone(&rec)),
            ..with_policies(policies)
        },
    );
    assert!(c.kill_server(a));
    assert!(c.kill_server(h));

    let q = QueryBuilder::new(c.network().schema(), QueryId(3))
        .range("x0", 0.0, 0.5)
        .build();
    let root = c.network().tree().root();
    let out = c.query(&q, root);

    // Both dead branches' children were recovered through stand-ins; only
    // the records held by the dead servers themselves (and `h`'s subtree,
    // which lies outside the range) are absent.
    let expect: Vec<u64> = (0..n)
        .filter(|&s| !shielded.contains(&s) && s != a.index() && s != b.index())
        .flat_map(|s| (0..RECORDS_PER_SERVER).map(move |i| (s * RECORDS_PER_SERVER + i) as u64))
        .collect();
    assert_eq!(unique_ids(&out), expect);
    let mut dead = vec![a, b];
    dead.sort();
    assert_eq!(out.failed_servers, dead);
    assert!(!out.complete, "a's and b's own records are lost");
    assert!(out.retries >= 1, "the panicked server consumed its retry");
    // `h` was nominated exactly once (standing in for `a`); after dying
    // there, `b`'s later failover skipped straight past it.
    let events = rec.events();
    let nominations: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Failover && e.node == h.0)
        .collect();
    assert_eq!(
        nominations.len(),
        1,
        "a helper that died standing in must not be re-nominated"
    );
    assert_eq!(nominations[0].detail, a.0 as u64);
    c.shutdown();
}

/// Per-query attribution under concurrent churn. Four client threads
/// share one dispatcher, one admission gate (capacity 2) and one
/// flight recorder across three waves — healthy, after killing a leaf,
/// after restarting it — while a second, panicking leaf dies for good in
/// wave one. Every outcome must blame only servers that were actually
/// dead during its wave, and the recorder's per-trace bookkeeping must
/// reconcile exactly with what the outcomes report: concurrency must not
/// pool retries or events across in-flight queries.
#[test]
fn concurrent_queries_attribute_faults_during_churn() {
    use roads_telemetry::{EventKind, Recorder};
    let n = 13;
    let clients = 4usize;
    let cfg = RuntimeConfig {
        max_inflight_queries: 2, // force queries to queue on the gate
        ..RuntimeConfig::test_faulty()
    };
    let net = build_net(n, 3);
    let (churned, panicker) = {
        let tree = net.tree();
        let mut leaves = (0..n as u32)
            .map(ServerId)
            .filter(|&s| tree.children(s).is_empty());
        (leaves.next().unwrap(), leaves.next().unwrap())
    };
    let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
        .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
        .collect();
    policies[panicker.index()] = Arc::new(PanicPolicy);
    let rec = Arc::new(Recorder::new(65_536));
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 77),
        cfg,
        Attachments {
            recorder: Some(Arc::clone(&rec)),
            ..with_policies(policies)
        },
    );
    let q = full_query(&c);

    let mut outcomes: Vec<RuntimeOutcome> = Vec::new();
    for wave in 0..3usize {
        match wave {
            1 => assert!(c.kill_server(churned)),
            2 => assert!(c.restart_server(churned)),
            _ => {}
        }
        let wave_outs: Vec<RuntimeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    let (c, q) = (&c, &q);
                    // Entries spread over the hierarchy; in wave 1 one of
                    // them is the dead server itself (entry failover).
                    let entry = ServerId(((i * 5 + wave) % n) as u32);
                    s.spawn(move || c.query(q, entry))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The panicker dies on first contact, so from wave 0 on its
        // records are gone; the churned leaf is only missing in wave 1.
        let mut dead = vec![panicker];
        if wave == 1 {
            dead.push(churned);
        }
        dead.sort();
        for out in &wave_outs {
            assert_eq!(
                out.failed_servers, dead,
                "wave {wave}: blamed set must be exactly the dead servers"
            );
            assert!(!out.complete, "wave {wave}: lost records ⇒ incomplete");
            assert_eq!(
                unique_ids(out).len(),
                (n - dead.len()) * RECORDS_PER_SERVER,
                "wave {wave}: all surviving records, each exactly once"
            );
        }
        outcomes.extend(wave_outs);
    }

    // Reconcile the recorder against the outcomes. One trace per query,
    // each a valid span tree with exactly one start/complete pair, and the
    // per-trace Retry counts must match the per-outcome retry counts as a
    // multiset — pooled or cross-attributed events would break this even
    // if the totals happened to agree.
    let events = rec.events();
    let traces = roads_telemetry::trace_ids(&events);
    assert_eq!(traces.len(), outcomes.len(), "one trace per query");
    let mut retry_by_trace: Vec<usize> = Vec::new();
    for t in traces {
        let tev = roads_telemetry::trace_events(&events, t);
        roads_telemetry::span_tree_root(&tev, t).unwrap_or_else(|e| panic!("trace {}: {e}", t.0));
        assert_eq!(
            tev.iter()
                .filter(|e| e.kind == EventKind::QueryStart)
                .count(),
            1
        );
        assert_eq!(
            tev.iter()
                .filter(|e| e.kind == EventKind::QueryComplete)
                .count(),
            1
        );
        retry_by_trace.push(tev.iter().filter(|e| e.kind == EventKind::Retry).count());
    }
    retry_by_trace.sort_unstable();
    let mut retry_by_outcome: Vec<usize> = outcomes.iter().map(|o| o.retries).collect();
    retry_by_outcome.sort_unstable();
    assert_eq!(
        retry_by_trace, retry_by_outcome,
        "recorded retries must attribute to exactly the query that retried"
    );
    c.shutdown();
}

/// Straggler injection: a slowed server keeps answering (no records
/// lost, query stays complete) but its emulated backend cost stretches
/// by the factor, and `restore_server` returns it to baseline.
#[test]
fn slow_server_degrades_without_killing() {
    let cfg = RuntimeConfig {
        base_query_cost_us: 30_000,
        dispatch_timeout_ms: 0,
        query_deadline_ms: 20_000,
        ..RuntimeConfig::test_fast()
    };
    let c = build_cluster(1, 3, cfg);
    let only = c.network().tree().root();
    let q = full_query(&c);

    let healthy = c.query(&q, only);
    assert!(healthy.complete);

    assert_eq!(c.slow_factor(only), 1.0);
    assert!(c.slow_server(only, 8.0));
    assert!(!c.slow_server(only, 2.0), "already slowed");
    assert_eq!(c.slow_factor(only), 8.0);

    let slowed = c.query(&q, only);
    assert!(slowed.complete, "a straggler is alive: nothing is missing");
    assert_eq!(unique_ids(&slowed).len(), RECORDS_PER_SERVER);
    assert!(slowed.failed_servers.is_empty());
    // 30 ms of backend cost at 8x ⇒ ≥ 240 ms; leave slack for the
    // healthy-side baseline but require a clear multiple.
    assert!(
        slowed.response_ms >= 3.0 * healthy.response_ms.max(30.0),
        "straggler must be visibly slower: {} ms vs {} ms",
        slowed.response_ms,
        healthy.response_ms
    );

    assert!(c.restore_server(only));
    assert!(!c.restore_server(only), "already restored");
    assert_eq!(c.slow_factor(only), 1.0);
    let restored = c.query(&q, only);
    assert!(restored.complete);
    c.shutdown();
}

#[test]
fn restart_server_restores_full_service() {
    let n = 9;
    let c = build_cluster(n, 3, RuntimeConfig::test_faulty());
    let victim = a_leaf(&c);
    let root = c.network().tree().root();
    assert!(c.kill_server(victim));

    let degraded = c.query(&full_query(&c), root);
    assert_eq!(unique_ids(&degraded).len(), (n - 1) * RECORDS_PER_SERVER);
    assert!(!degraded.complete);

    assert!(c.restart_server(victim));
    let healed = c.query(&full_query(&c), root);
    assert_eq!(unique_ids(&healed).len(), n * RECORDS_PER_SERVER);
    assert!(healed.complete, "restart restores provable completeness");
    assert!(healed.failed_servers.is_empty());
    c.shutdown();
}

/// Deliverer-runs under churn: client threads run server steps themselves,
/// so a kill or restart races every step directly instead of a mailbox.
/// Eight clients issue random range queries against a zero-delay cluster
/// while a ninth thread kills and restarts two leaves as fast as it can.
/// Every outcome is either the oracle's full answer, or says
/// `complete == false`, blames only victims, and returns exactly the
/// oracle minus the blamed servers' records. Nothing here waits on a wall
/// clock: a dead server answers `Down` at once, so no dispatch timeout is
/// ever armed for long and the only bound in play is `query_deadline_ms`,
/// which no query should come near.
#[test]
fn concurrent_clients_agree_with_oracle_while_servers_churn() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let n = 32;
    let cfg = RuntimeConfig {
        delay_scale: 0.0,
        per_record_retrieval_us: 0,
        base_query_cost_us: 0,
        bandwidth_mbps: 1e12,
        max_inflight_queries: 0,
        ..RuntimeConfig::test_faulty()
    };
    let c = build_cluster(n, 3, cfg);
    let victims: Vec<ServerId> = {
        let tree = c.network().tree();
        (0..n as u32)
            .map(ServerId)
            .filter(|&s| tree.children(s).is_empty())
            .take(2)
            .collect()
    };
    let total = (n * RECORDS_PER_SERVER) as f64;
    let clients_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            let mut rounds = 0u64;
            while !clients_done.load(Ordering::Acquire) {
                for &v in &victims {
                    assert!(c.kill_server(v));
                    std::thread::yield_now();
                    assert!(c.restart_server(v));
                }
                rounds += 1;
            }
            rounds
        });
        let clients: Vec<_> = (0..8u64)
            .map(|client| {
                let (c, victims) = (&c, &victims);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + client);
                    let mut incomplete = 0usize;
                    for i in 0..200u64 {
                        let lo = rng.gen_range(0.0..0.9);
                        let hi = lo + rng.gen_range(0.01..0.3);
                        let q = QueryBuilder::new(c.network().schema(), QueryId(client * 1000 + i))
                            .range("x0", lo, hi)
                            .build();
                        let entry = ServerId(rng.gen_range(0..n as u32));
                        let out = c.query(&q, entry);
                        // Record `id` holds x0 = id / total and lives on
                        // server id / RECORDS_PER_SERVER.
                        let blamed = |id: u64| {
                            out.failed_servers
                                .contains(&ServerId((id as usize / RECORDS_PER_SERVER) as u32))
                        };
                        let expect: Vec<u64> = (0..total as u64)
                            .filter(|&id| (lo..=hi).contains(&(id as f64 / total)))
                            .filter(|&id| !blamed(id))
                            .collect();
                        assert_eq!(unique_ids(&out), expect, "query {lo}..{hi} from {entry:?}");
                        if out.complete {
                            continue;
                        }
                        incomplete += 1;
                        assert!(!out.failed_servers.is_empty());
                        for f in &out.failed_servers {
                            assert!(victims.contains(f), "blamed live server {f:?}");
                        }
                    }
                    incomplete
                })
            })
            .collect();
        let incomplete: usize = clients.into_iter().map(|h| h.join().unwrap()).sum();
        clients_done.store(true, Ordering::Release);
        let rounds = churn.join().unwrap();
        assert!(rounds > 0, "the churn thread never ran");
        // Not asserted > 0: on one CPU the churn thread may only run
        // between queries. Shown with `--nocapture` for a human.
        println!("{incomplete} of 1600 queries met a dead victim over {rounds} churn rounds");
    });
    for &v in &victims {
        assert!(c.is_alive(v));
    }
    c.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever subset of servers is killed, a query terminates within
    /// the deadline, returns each surviving record at most once, never
    /// blames a live server, and claims completeness exactly when it holds.
    #[test]
    fn query_terminates_under_arbitrary_kill_schedules(
        n in 5usize..16,
        kills in prop::collection::vec(0usize..64, 0..5),
    ) {
        // A generous per-dispatch timeout keeps live-server false
        // positives out of the schedule even on loaded CI machines.
        let cfg = RuntimeConfig {
            dispatch_timeout_ms: 2_000,
            ..RuntimeConfig::test_faulty()
        };
        let c = build_cluster(n, 3, cfg);
        let killed: BTreeSet<ServerId> =
            kills.iter().map(|k| ServerId((k % n) as u32)).collect();
        for &s in &killed {
            prop_assert!(c.kill_server(s));
        }
        let start = ServerId((n - 1) as u32);

        let t0 = Instant::now();
        let out = c.query(&full_query(&c), start);
        prop_assert!(
            t0.elapsed() < Duration::from_millis(cfg.query_deadline_ms + 2_000),
            "query must terminate near the deadline, took {:?}", t0.elapsed()
        );

        let ids = unique_ids(&out);
        for &id in &ids {
            let holder = ServerId((id as usize / RECORDS_PER_SERVER) as u32);
            prop_assert!(!killed.contains(&holder), "record from a dead server");
        }
        for f in &out.failed_servers {
            prop_assert!(killed.contains(f), "blamed live server {f:?}");
        }
        if killed.is_empty() {
            prop_assert!(out.complete);
            prop_assert_eq!(ids.len(), n * RECORDS_PER_SERVER);
        } else {
            // Every server holds matching records, so any kill loses some.
            prop_assert!(!out.complete);
            prop_assert!(ids.len() <= (n - killed.len()) * RECORDS_PER_SERVER);
        }
        c.shutdown();
    }
}
