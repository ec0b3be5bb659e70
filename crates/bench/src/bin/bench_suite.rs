//! `bench_suite` — the artifact run: one live-cluster pass with every
//! observability plane attached, written as the documents
//! `roads-inspect` checks and renders.
//!
//! ```text
//! bench_suite
//! ```
//!
//! It takes no flags and times nothing: throughput, latency and build
//! cost are measured by the benchmark (`benchmark/`), the figure binaries
//! and the criterion groups. The run drives one concurrent pass over
//! spread and root-entry queries, then a cold pass and cached replays on
//! a second cluster with a result cache, then branch kills and a straggler
//! episode, and writes into `$ROADS_RESULTS_DIR` (`results/` when unset,
//! like every figure):
//!
//! * `SLOW_QUERIES.json` — the tail sampler's slowest / failed /
//!   incomplete queries with full [`QueryExplain`] provenance
//!   (`roads-inspect slow`, `roads-inspect explain`); the kills
//!   guarantee retained failures.
//! * `AUDIT.json` — a background [`Auditor`]'s cumulative per-level
//!   FP/FN counts, overlay divergence and staleness (`roads-inspect
//!   audit`).
//! * `CACHE_METRICS.txt` — the final OpenMetrics scrape of the cache
//!   cluster's registry (the `roads.cache.*` families CI asserts against);
//!   the cold pass is asserted to return what the uncached cluster does.
//! * `INCIDENTS.json` — a background [`Watchdog`]'s coalesced incident
//!   timeline, matched against the kills and the straggler
//!   (`roads-inspect incidents`).
//!
//! `roads-inspect check` validates the three JSON documents. `DELTA.json`,
//! the fourth artifact, comes from `fig18_delta_churn`.
//!
//! [`QueryExplain`]: roads_telemetry::QueryExplain

use roads_bench::print_metrics_digest;
use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_runtime::{
    Attachments, AuditConfig, AuditMetrics, Auditor, RoadsCluster, RuntimeConfig, Watchdog,
    WatchdogConfig,
};
use roads_summary::SummaryConfig;
use roads_telemetry::{results_dir, OpenMetricsSnapshot, Recorder, Registry, TailSampler};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Servers in each live cluster.
const SERVERS: usize = 13;
/// Queries in each workload pass.
const QUERIES: usize = 32;
/// Kill/restart cycles of the branch server.
const KILLS: usize = 3;
/// Concurrent clients of a workload pass.
const CLIENTS: usize = 4;

/// The live-cluster workload: one numeric attribute, evenly spread
/// records, so every 0.25-length range matches somewhere.
fn cluster_net(n: usize) -> RoadsNetwork {
    const RECORDS_PER_SERVER: usize = 10;
    let schema = Schema::unit_numeric(1);
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(128),
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

fn cluster_config() -> RuntimeConfig {
    RuntimeConfig {
        dispatch_timeout_ms: 400,
        max_retries: 1,
        backoff_base_ms: 10,
        query_deadline_ms: 20_000,
        delay_scale: 0.1,
        per_record_retrieval_us: 150,
        base_query_cost_us: 1_000,
        max_inflight_queries: 64,
        ..RuntimeConfig::paper_like()
    }
}

/// Sliding 0.25-length ranges; entries stride the federation when
/// `spread`, else all enter at the root.
fn queries(
    schema: &Schema,
    n: usize,
    count: usize,
    root: ServerId,
    spread: bool,
) -> Vec<(Query, ServerId)> {
    (0..count)
        .map(|i| {
            let lo = 0.75 * (i as f64 * 0.37).fract();
            let q = QueryBuilder::new(schema, QueryId(i as u64))
                .range("x0", lo, lo + 0.25)
                .build();
            let entry = if spread {
                ServerId(((i * 7 + 3) % n) as u32)
            } else {
                root
            };
            (q, entry)
        })
        .collect()
}

/// Run `workload` once from [`CLIENTS`] concurrent clients.
fn drive(c: &RoadsCluster, workload: &[(Query, ServerId)]) {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= workload.len() {
                    break;
                }
                let (q, entry) = &workload[i];
                let out = c.query(q, *entry);
                assert!(!out.records.is_empty(), "every range matches something");
            });
        }
    });
}

/// The first non-root server with children: killing it forces the
/// overlay to detect the death and re-route its subtree.
fn a_branch(net: &RoadsNetwork) -> ServerId {
    let tree = net.tree();
    (0..net.len() as u32)
        .map(ServerId)
        .find(|&s| s != tree.root() && !tree.children(s).is_empty())
        .expect("hierarchy has an internal non-root server")
}

/// Exit unless the artifact at `path` was written: a run whose bundle is
/// incomplete must not look green.
fn written(path: &Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    for a in std::env::args().skip(1) {
        eprintln!("ignoring unknown argument {a:?}");
    }
    let dir = results_dir();
    written(&dir, std::fs::create_dir_all(&dir));
    println!("==================================================================");
    println!("bench_suite — observability artifact run");
    println!("==================================================================");

    // --- Live query plane: overlay-spread and root-only entries. --------
    let n = SERVERS;
    let reg = Arc::new(Registry::new());
    let net = cluster_net(n);
    // Tail-based sampling over the whole live-cluster run: slow / failed /
    // incomplete queries keep their explain record + flight-recorder trace.
    let recorder = Arc::new(Recorder::new(65_536));
    let tail = TailSampler::shared();
    // Summary-fidelity auditing over the whole live-cluster run: live
    // branch outcomes fold into `audit.live_*`, and a background auditor
    // samples ground truth on a budget.
    let audit_metrics = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
    let cluster = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 31),
        cluster_config(),
        Attachments {
            recorder: Some(Arc::clone(&recorder)),
            tail: Some(Arc::clone(&tail)),
            audit: Some(Arc::clone(&audit_metrics)),
            ..Attachments::instrumented(&reg)
        },
    );
    let root = cluster.network().tree().root();
    let cschema = cluster.network().schema().clone();
    let audit_probes: Vec<Query> = queries(&cschema, n, 16, root, false)
        .into_iter()
        .map(|(q, _)| q)
        .collect();
    let auditor = Auditor::start(
        cluster.shared_network(),
        audit_metrics,
        AuditConfig {
            interval: Duration::from_millis(100),
            probes_per_tick: 4,
            refresh_every: 4,
        },
        audit_probes,
        cluster.liveness(),
    );
    // Watchdog over the same run: the standard detector bank (per-server
    // liveness, windowed-p99 latency spikes, SLO burn rate) evaluated
    // against the live registry every tick, correlated with the fault
    // log into the INCIDENTS.json timeline written at the end.
    let watchdog = Watchdog::for_cluster(
        &cluster,
        &reg,
        WatchdogConfig {
            interval: Duration::from_millis(100),
            ..WatchdogConfig::default()
        },
    );
    let spread = queries(&cschema, n, QUERIES, root, true);
    let rooted = queries(&cschema, n, QUERIES, root, false);
    drive(&cluster, &spread);
    drive(&cluster, &rooted);

    // --- Result cache: a cold pass, then cached replays. ----------------
    // A second cluster over the same data runs with a 2-round TTL'd result
    // cache; its instruments land in a separate registry so the
    // `roads.cache.*` families are attributable to this phase alone.
    let cache_reg = Registry::new();
    let cached = RoadsCluster::start_with(
        cluster_net(n),
        DelaySpace::paper(n, 31),
        RuntimeConfig {
            cache_ttl_rounds: 2,
            ..cluster_config()
        },
        Attachments::instrumented(&cache_reg),
    );
    // Cold pass: every answer misses the cache and must be what the
    // uncached cluster returns.
    for (q, entry) in &spread {
        assert_eq!(
            cached.query(q, *entry).records.len(),
            cluster.query(q, *entry).records.len(),
            "the cache changed recall (entry {entry:?})"
        );
    }
    // Replays: the cold pass populated the cache, so these hit it.
    drive(&cached, &spread);
    // Age every cached answer out so expiries land on the scrape.
    cached.advance_cache_round();
    cached.advance_cache_round();
    let hit_rate = cached.result_cache().map_or(0.0, |c| c.hit_rate());
    let cache_scrape = OpenMetricsSnapshot::from_registry(&cache_reg).render();
    cached.shutdown();

    // --- Failover: kill a branch, query around it, restart. --------------
    let victim = a_branch(cluster.network());
    let full = QueryBuilder::new(&cschema, QueryId(9_999))
        .range("x0", 0.0, 1.0)
        .build();
    for _ in 0..KILLS {
        assert!(cluster.kill_server(victim));
        let out = cluster.query(&full, root);
        assert!(
            out.failed_servers.contains(&victim),
            "post-kill query must see the dead server"
        );
        assert!(cluster.restart_server(victim));
        // One healthy query so the restarted server rejoins cleanly
        // before the next kill.
        let healed = cluster.query(&full, root);
        assert!(healed.complete, "restart must restore full coverage");
    }

    // --- Straggler episode: slow the same branch, let the watchdog see
    // the tail shift, then restore. The queries keep the windowed-p99
    // probe fed while the episode is live.
    assert!(cluster.slow_server(victim, 8.0));
    for _ in 0..3 {
        let _ = cluster.query(&full, root);
        watchdog.tick_now();
    }
    assert!(cluster.restore_server(victim));
    let healed = cluster.query(&full, root);
    assert!(healed.complete, "restore must bring the branch back");

    let audit_report = auditor.stop();
    let incident_report = watchdog.stop();
    cluster.shutdown();

    // The tail of this run: retained slow/failed/incomplete queries with
    // full provenance.
    let slow_path = dir.join("SLOW_QUERIES.json");
    let slow_report = tail.report();
    written(&slow_path, slow_report.write(&slow_path));
    println!(
        "wrote {} ({} retained of {} observed, threshold {:.2} ms)",
        slow_path.display(),
        slow_report.retained.len(),
        slow_report.observed,
        slow_report.threshold_ms
    );

    // The audit of this run: cumulative per-level fidelity plus the final
    // divergence/staleness state.
    let audit_path = dir.join("AUDIT.json");
    written(&audit_path, audit_report.write(&audit_path));
    println!(
        "wrote {} ({} ticks, {} probes, divergence {:.2}%, staleness p99 {})",
        audit_path.display(),
        audit_report.ticks,
        audit_report.probes(),
        audit_report.divergence * 100.0,
        audit_report.staleness_p99
    );

    // The raw OpenMetrics scrape of the cache cluster's registry — CI
    // asserts a non-zero `roads.cache.hits` against it.
    let scrape_path = dir.join("CACHE_METRICS.txt");
    written(&scrape_path, std::fs::write(&scrape_path, &cache_scrape));
    println!(
        "wrote {} (cache hit rate {:.1}%)",
        scrape_path.display(),
        100.0 * hit_rate
    );

    // The incident timeline of this run: every detector firing coalesced
    // into incidents, correlated with the kills and the straggler
    // episode.
    let incidents_path = dir.join("INCIDENTS.json");
    written(&incidents_path, incident_report.write(&incidents_path));
    println!(
        "wrote {} ({} ticks, {} firings, {} incidents, {} matched, {} false alarms)",
        incidents_path.display(),
        incident_report.ticks,
        incident_report.firings,
        incident_report.rows.len(),
        incident_report.matched(),
        incident_report.false_alarms,
    );
    print_metrics_digest(&reg.snapshot());
}
