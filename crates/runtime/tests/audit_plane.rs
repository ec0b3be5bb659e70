//! Summary-fidelity audit plane acceptance tests: an instrumented
//! [`RoadsCluster`] with attached [`AuditMetrics`] must fold live
//! branch-dispatch outcomes into per-level `audit.live_*` counters, a
//! background [`Auditor`] against the same cluster must surface kill-
//! induced overlay divergence and ground-truth false positives in the
//! registry, reconverge after restart + refresh, and the
//! `AUDIT.json` artifact must round-trip through its strict parser.

use roads_core::{RoadsConfig, RoadsNetwork};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_runtime::{
    Attachments, AuditConfig, AuditMetrics, AuditReport, Auditor, RoadsCluster, RuntimeConfig,
};
use roads_summary::SummaryConfig;
use roads_telemetry::{Json, Registry};
use roads_workload::line_records;
use std::sync::Arc;
use std::time::Duration;

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

/// One record per server at `s / n` with fine histogram buckets: every
/// record sits alone in its bucket, so a converged overlay audits with
/// zero false positives — kill-induced staleness is the only FP source.
fn sparse_net(n: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(128),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(schema, cfg, line_records(n, 1))
}

/// Ground-truth probes for [`sparse_net`]: one narrow range query per
/// server, centered on its record value.
fn probes(net: &RoadsNetwork, n: usize) -> Vec<Query> {
    (0..n)
        .map(|s| {
            let v = s as f64 / n as f64;
            QueryBuilder::new(net.schema(), QueryId(s as u64))
                .range("x0", v - 0.002, v + 0.002)
                .build()
        })
        .collect()
}

fn manual_audit_cfg() -> AuditConfig {
    AuditConfig {
        interval: Duration::from_secs(3600), // ticks driven manually
        probes_per_tick: usize::MAX / 2,     // whole probe set per tick
        refresh_every: 1,
    }
}

#[test]
fn live_branch_outcomes_fold_into_audit_counters() {
    let n = 13;
    let reg = Registry::new();
    let net = build_net(n);
    let audit = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 31),
        RuntimeConfig::test_fast(),
        Attachments {
            audit: Some(audit),
            ..Attachments::instrumented(&reg)
        },
    );
    let root = c.network().tree().root();

    // A query that matches nothing but lands inside a populated histogram
    // bucket: records sit at multiples of 1/130, buckets are 1/64 wide,
    // and (0.3875, 0.3885) falls between records 50/130 and 51/130 inside
    // bucket 24 (which holds records 49 and 50). Every summary on the
    // path vouches for its branch and nothing comes back, so every branch
    // reply is a live false positive — the whole hollow chain, not only
    // its leaf: the audit plane counts by the explain plane's rule
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

#[test]
fn auditor_surfaces_kill_divergence_and_reconverges() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        sparse_net(n),
        DelaySpace::paper(n, 17),
        RuntimeConfig::test_faulty(),
        Attachments::instrumented(&reg),
    );
    let net = c.shared_network();
    let metrics = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
    let auditor = Auditor::start(
        Arc::clone(&net),
        Arc::clone(&metrics),
        manual_audit_cfg(),
        probes(&net, n),
        c.liveness(),
    );

    // Converged cluster: the audit plane sees a clean overlay.
    auditor.tick_now();
    let clean = auditor.report();
    assert!(clean.probes() > 0);
    assert_eq!(clean.false_positives(), 0);
    assert_eq!(clean.false_negatives(), 0);
    assert_eq!(clean.divergence, 0.0);

    // Kill the deepest leaf: its branch summary lingers at overlay
    // holders (nobody can re-push a dead branch) — stale copies now vouch
    // for records that are gone.
    let victim = *net.tree().leaves().iter().max().unwrap();
    assert!(c.kill_server(victim));
    auditor.tick_now();
    let degraded = auditor.report();
    assert!(degraded.divergence > 0.0, "{degraded:?}");
    assert!(degraded.false_positives() > 0, "{degraded:?}");

    // The registry carries the audit families with live values.
    let snap = reg.snapshot();
    assert!(snap.gauges["audit.divergence_ppm"] > 0);
    assert!(snap.gauges.contains_key("audit.staleness_p99_rounds"));
    let level_fps: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("audit.false_positives{level="))
        .map(|(_, &v)| v)
        .sum();
    assert!(level_fps > 0, "per-level FP series missing: {snap:?}");

    // Restart; the next refresh re-pushes every copy and the overlay
    // reconverges to zero divergence.
    assert!(c.restart_server(victim));
    auditor.tick_now();
    let recovered = auditor.stop();
    assert_eq!(recovered.divergence, 0.0, "{recovered:?}");
    assert_eq!(reg.snapshot().gauges["audit.divergence_ppm"], 0);
    c.shutdown();
}

#[test]
fn audit_report_round_trips_through_json() {
    let n = 13;
    let reg = Registry::new();
    let c = RoadsCluster::start(
        sparse_net(n),
        DelaySpace::paper(n, 5),
        RuntimeConfig::test_fast(),
    );
    let net = c.shared_network();
    let metrics = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
    let auditor = Auditor::start(
        Arc::clone(&net),
        metrics,
        manual_audit_cfg(),
        probes(&net, n),
        c.liveness(),
    );
    c.kill_server(*net.tree().leaves().iter().max().unwrap());
    auditor.tick_now();
    let report = auditor.stop();
    let doc = report.to_json();
    assert!(AuditReport::has_marker(&doc));
    let parsed = AuditReport::from_json(&Json::parse(&doc.to_string_pretty()).unwrap()).unwrap();
    assert_eq!(parsed, report);
    assert!(!parsed.levels.is_empty());
    c.shutdown();
}
