//! Live cluster health plane acceptance tests: an instrumented
//! [`RoadsCluster`] must keep per-server queue-depth gauges,
//! deadline-miss counters and dispatch-latency histograms in its
//! registry, show kill/restart/slow/restore fault events and failovers as
//! labeled series, and summarize itself through [`RoadsCluster::health`].

use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_telemetry::{labeled, Registry};
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

fn full_query(c: &RoadsCluster) -> Query {
    QueryBuilder::new(c.network().schema(), QueryId(1))
        .range("x0", 0.0, 1.0)
        .build()
}

/// First non-root server with children: killing it exercises replica
/// failover (a sibling/ancestor stands in for its branch).
fn a_branch(c: &RoadsCluster) -> ServerId {
    let tree = c.network().tree();
    (0..c.network().len() as u32)
        .map(ServerId)
        .find(|&s| s != tree.root() && !tree.children(s).is_empty())
        .expect("hierarchy of 13 has an internal non-root server")
}

#[test]
fn scrape_exposes_queue_gauges_deadline_counters_and_latency_buckets() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_faulty(),
        Attachments::instrumented(&reg),
    );
    let q = full_query(&c);
    let root = c.network().tree().root();
    let kills = labeled("runtime.fault_events", &[("kind", "kill")]);
    let restarts = labeled("runtime.fault_events", &[("kind", "restart")]);

    // Healthy query first, then kill a branch server and query again so
    // timeout → failover paths run, then restart it.
    let out = c.query(&q, root);
    assert_eq!(out.records.len(), n * RECORDS_PER_SERVER);
    let victim = a_branch(&c);
    assert!(c.kill_server(victim));

    // The kill is visible immediately, before any more traffic.
    let vid = victim.0.to_string();
    let alive = labeled("runtime.server.alive", &[("server", vid.as_str())]);
    let mid = reg.snapshot();
    assert_eq!(mid.gauges[&alive], 0);
    assert_eq!(mid.counters[&kills], 1);
    assert!(!c.health().unwrap().servers[victim.index()].alive);

    let faulted = c.query(&q, root);
    assert!(faulted.failed_servers.contains(&victim));
    assert!(c.restart_server(victim));
    let recovered = c.query(&q, root);
    assert_eq!(recovered.records.len(), n * RECORDS_PER_SERVER);

    // Acceptance: per-server queue-depth gauges for every server (all
    // drained back to 0), deadline-miss counter, dispatch-latency
    // histograms per mode.
    let snap = reg.snapshot();
    let health = c.health().unwrap();
    for s in 0..n {
        let depth = labeled("runtime.server.queue_depth", &[("server", &s.to_string())]);
        assert_eq!(snap.gauges[&depth], 0, "queue gauge for server {s}");
        assert_eq!(health.servers[s].queue_depth, 0);
    }
    assert_eq!(snap.counters["runtime.deadline_miss"], 0);
    assert_eq!(health.deadline_misses, 0);
    for mode in ["entry", "branch"] {
        let name = labeled("runtime.dispatch_latency_ms", &[("mode", mode)]);
        assert!(
            snap.histograms.get(&name).is_some_and(|h| h.count > 0),
            "{mode}-mode dispatch latency not recorded"
        );
    }

    // Fault events show as labeled series: the kill, the restart, and at
    // least one failover nomination for the dead branch.
    assert_eq!(snap.counters[&kills], 1);
    assert_eq!(snap.counters[&restarts], 1);
    assert!(health.failovers >= 1, "killing a branch must fail over");
    assert!(
        snap.counters["runtime.dispatch_timeouts"] >= 1,
        "dead server must time out"
    );

    // The restarted server is back, and replies were attributed per
    // server.
    assert_eq!(snap.gauges[&alive], 1);
    assert!(health.servers[victim.index()].alive);
    assert!(
        health.servers[root.index()].replies >= 3,
        "entry server replied per query"
    );
    c.shutdown();
}

/// The cluster's single point of execution is measured, not guessed: with
/// modelled delay every delivery matures on the timer thread, which
/// records how late it ran each one.
#[test]
fn scrape_exposes_timer_lag() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_fast(),
        Attachments::instrumented(&reg),
    );
    // Declared at startup (and still empty), so this is the instrument the
    // timer thread records into.
    let lag = reg.histogram("runtime.timer_lag_us");
    assert_eq!(lag.count(), 0, "no timer events before any traffic");

    let root = c.network().tree().root();
    let out = c.query(&full_query(&c), root);
    assert_eq!(out.servers_contacted, n);
    c.shutdown();
    // The n − 1 remote contacts each matured three times on the timer:
    // request out, service done, reply back. (The entry is co-located with
    // the client: only its service crosses the timer.)
    let count = lag.count();
    assert!(count >= 3 * (n as u64 - 1), "{count} timer events");
    assert_eq!(
        reg.snapshot().histograms["runtime.timer_lag_us"].count,
        count as usize
    );
}

#[test]
fn health_snapshot_tracks_kill_restart_and_counts() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 21),
        RuntimeConfig::test_faulty(),
        Attachments::instrumented(&reg),
    );
    let q = full_query(&c);
    let root = c.network().tree().root();
    c.query(&q, root);

    let healthy = c.health().expect("instrumented cluster has health");
    assert_eq!(healthy.servers.len(), n);
    assert_eq!(healthy.alive_count(), n);
    assert_eq!(healthy.queries, 1);
    assert_eq!(healthy.inflight_queries, 0, "no query in flight now");
    let root_row = &healthy.servers[root.index()];
    assert!(root_row.alive);
    assert!(root_row.replies >= 1);
    assert!(root_row.dispatch_p99_ms.is_some());
    assert_eq!(root_row.queue_depth, 0);

    let victim = a_branch(&c);
    c.kill_server(victim);
    c.query(&q, root);
    let degraded = c.health().unwrap();
    assert_eq!(degraded.alive_count(), n - 1);
    assert!(!degraded.servers[victim.index()].alive);
    assert_eq!(degraded.queries, 2);
    assert!(degraded.failovers >= 1);
    // The text rendering carries the down marker.
    let table = degraded.to_string();
    assert!(
        table.contains("DOWN"),
        "table must flag the dead server:\n{table}"
    );
    assert!(table.contains(&format!("{}/{} alive", n - 1, n)));

    c.restart_server(victim);
    assert_eq!(c.health().unwrap().alive_count(), n);
    c.shutdown();
}

#[test]
fn uninstrumented_cluster_has_no_health() {
    let n = 4;
    let c = RoadsCluster::start(
        build_net(n),
        DelaySpace::paper(n, 5),
        RuntimeConfig::test_fast(),
    );
    assert!(c.health().is_none());
    c.shutdown();
}

#[test]
fn slo_burn_counter_fires_on_slow_queries() {
    let n = 6;
    let reg = Registry::new();
    // A 1 ms SLO that every real query (emulated backend costs, network
    // delays) must blow through, without affecting execution.
    let cfg = RuntimeConfig {
        slo_response_ms: 1,
        ..RuntimeConfig::test_fast()
    };
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 9),
        cfg,
        Attachments::instrumented(&reg),
    );
    let q = full_query(&c);
    let root = c.network().tree().root();
    for _ in 0..3 {
        let out = c.query(&q, root);
        assert_eq!(out.records.len(), n * RECORDS_PER_SERVER);
        assert!(out.complete, "SLO misses never change execution");
    }
    c.shutdown();
    let snap = reg.snapshot();
    assert_eq!(snap.counters["runtime.queries"], 3);
    assert_eq!(snap.counters["runtime.slo_violations"], 3);
    assert_eq!(snap.counters["runtime.incomplete_queries"], 0);
    // And the response-time histogram saw every query.
    assert_eq!(snap.histograms["runtime.query_response_ms"].count, 3);
}

#[test]
fn queue_depth_rises_under_backlog_and_drains() {
    let n = 9;
    let reg = Registry::new();
    // Slow backend so requests visibly queue behind busy servers.
    let cfg = RuntimeConfig {
        base_query_cost_us: 20_000,
        max_inflight_queries: 8,
        ..RuntimeConfig::test_fast()
    };
    let c = std::sync::Arc::new(RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 13),
        cfg,
        Attachments::instrumented(&reg),
    ));
    let q = full_query(&c);
    let root = c.network().tree().root();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let c = std::sync::Arc::clone(&c);
            let q = q.clone();
            std::thread::spawn(move || c.query(&q, root).records.len())
        })
        .collect();
    // Sample queue depths while the burst is in flight; with 6 concurrent
    // full-fan-out queries and a 20 ms busy period per request, some
    // mailbox must be observed non-empty at least once.
    let mut saw_backlog = false;
    for _ in 0..200 {
        let gauges = reg.snapshot().gauges;
        if (0..n).any(|s| {
            gauges[&labeled("runtime.server.queue_depth", &[("server", &s.to_string())])] > 0
        }) {
            saw_backlog = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), n * RECORDS_PER_SERVER);
    }
    assert!(
        saw_backlog,
        "burst of 6 queries never showed a queued request"
    );
    // Drained: every mailbox gauge is back to zero.
    let gauges = reg.snapshot().gauges;
    for s in 0..n {
        assert_eq!(
            gauges[&labeled("runtime.server.queue_depth", &[("server", &s.to_string())])],
            0,
            "server {s} mailbox not drained"
        );
    }
}

/// Every injected fault is counted once under its own
/// `runtime.fault_events{kind=...}` label, and a call the cluster refuses
/// (killing a dead server, restarting a live one, slowing a straggler,
/// restoring a healthy server) counts nothing.
#[test]
fn fault_events_count_each_accepted_injection_once() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        build_net(n),
        DelaySpace::paper(n, 77),
        RuntimeConfig::test_fast(),
        Attachments::instrumented(&reg),
    );
    let counts = || {
        let snap = reg.snapshot();
        ["kill", "restart", "slow", "restore"]
            .map(|kind| snap.counters[&labeled("runtime.fault_events", &[("kind", kind)])])
    };
    let k = a_branch(&c);
    assert_eq!(counts(), [0, 0, 0, 0]);

    assert!(c.kill_server(k));
    assert_eq!(counts(), [1, 0, 0, 0]);
    assert!(!c.kill_server(k), "already dead");
    assert_eq!(counts(), [1, 0, 0, 0]);

    assert!(c.restart_server(k));
    assert_eq!(counts(), [1, 1, 0, 0]);
    assert!(!c.restart_server(k), "already alive");
    assert_eq!(counts(), [1, 1, 0, 0]);

    assert!(!c.restore_server(k), "not slowed");
    assert_eq!(counts(), [1, 1, 0, 0]);
    assert!(c.slow_server(k, 4.0));
    assert_eq!(counts(), [1, 1, 1, 0]);
    assert!(!c.slow_server(k, 2.0), "already slowed");
    assert_eq!(counts(), [1, 1, 1, 0]);

    assert!(c.restore_server(k));
    assert_eq!(counts(), [1, 1, 1, 1]);
    assert!(!c.restore_server(k), "already restored");
    assert_eq!(counts(), [1, 1, 1, 1]);
    c.shutdown();
}
