//! `bench_suite` — the fixed macrobench matrix behind `BENCH_ROADS.json`.
//!
//! Runs every macrobench the repository tracks for performance
//! regressions and writes one [`BenchReport`] document (schema in
//! [`roads_bench::suite`]):
//!
//! * `build_1t` / `build_4t` — wall time of the hierarchical network
//!   build, sequential and with 4 worker threads.
//! * `update_round` — wall time of one full summary-propagation round on
//!   the built network.
//! * `update_round_full` / `update_round_delta` — wall time of a
//!   rebuild-everything propagation round vs the incremental delta round
//!   over the same churn workload (a fraction of a large record
//!   population updated per round); the suite asserts the delta path
//!   stays at least [`MIN_DELTA_SPEEDUP`] times faster before the
//!   artifact is written.
//! * `qps_overlay` / `qps_root` — live query-plane throughput with 4
//!   client threads, entry servers spread via the replication overlay vs
//!   all funneled through the root.
//! * `failover_recovery` — response time of a full-coverage query issued
//!   right after a branch server is killed: the time the overlay needs
//!   to detect the death and route around it.
//! * `qps_planner` — the `qps_overlay` workload re-run on a cluster with
//!   the replica-aware set-cover planner and the TTL'd result cache
//!   enabled; the suite first asserts planned dispatch reproduces greedy
//!   recall exactly and never contacts more servers.
//!
//! ```text
//! bench_suite [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the matrix for CI (seconds, not minutes); `--out`
//! overrides the default output path, which is
//! `$ROADS_RESULTS_DIR/BENCH_ROADS.json` (`results/BENCH_ROADS.json`
//! when the variable is unset — the same directory every `fig*` binary
//! writes to). Compare two reports with `roads-inspect bench-diff OLD
//! NEW --fail-over <pct>`.
//!
//! The live-cluster phases run with a flight recorder and tail-based
//! sampler attached, so alongside the bench report the suite writes
//! `SLOW_QUERIES.json` (next to `--out`): the tail-sampler report of the
//! slowest / failed / incomplete queries of the run with full
//! [`QueryExplain`] provenance, inspectable with `roads-inspect explain`
//! and `roads-inspect slow` and validated by `roads-inspect check`.
//!
//! A background [`Auditor`] additionally samples summary ground truth
//! throughout the run and writes `AUDIT.json` (also next to `--out`):
//! cumulative per-level FP/FN counts, overlay divergence and staleness,
//! inspectable with `roads-inspect audit` and validated by
//! `roads-inspect check`.
//!
//! The planner phase writes two more artifacts next to `--out`:
//! `PLAN.json` — the planner/cache summary ([`PlanReport`], inspectable
//! with `roads-inspect plan` and validated by `roads-inspect check`) —
//! and `PLANNER_METRICS.txt`, the final OpenMetrics scrape of the
//! planner cluster's registry (the `roads.planner.*` and `roads.cache.*`
//! families CI asserts against).
//!
//! The churn phase writes `DELTA.json` next to `--out`: the
//! incremental-update summary ([`DeltaReport`], inspectable with
//! `roads-inspect delta` and validated by `roads-inspect check`,
//! which re-enforces the speedup floor offline).
//!
//! A background [`Watchdog`] also runs across the whole live-cluster
//! phase — the standard detector bank over the live registry — and the
//! suite writes `INCIDENTS.json` next to `--out`: the coalesced
//! incident timeline with fault correlation and suspected-cause
//! rankings, inspectable with `roads-inspect incidents` and validated
//! by `roads-inspect check`. The failover phase's kills (and the brief
//! straggler episode the suite injects after them) are the ground
//! truth those incidents are matched against.
//!
//! [`DeltaReport`]: roads_bench::delta_view::DeltaReport
//! [`PlanReport`]: roads_bench::plan_view::PlanReport
//! [`QueryExplain`]: roads_telemetry::QueryExplain

use roads_bench::delta_view::{DeltaReport, DELTA_SCHEMA_VERSION, MIN_DELTA_SPEEDUP};
use roads_bench::plan_view::{PlanReport, PLAN_SCHEMA_VERSION};
use roads_bench::suite::{print_metrics_digest, BenchRecord, BenchReport};
use roads_core::{
    update_round_delta, update_round_full, BuildOptions, RecordDelta, RoadsConfig, RoadsNetwork,
    ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_runtime::{
    Attachments, AuditConfig, AuditMetrics, Auditor, RoadsCluster, RuntimeConfig, Watchdog,
    WatchdogConfig,
};
use roads_summary::SummaryConfig;
use roads_telemetry::{results_dir, OpenMetricsSnapshot, Recorder, Registry, TailSampler};
use roads_workload::{default_schema, generate_node_records, RecordWorkloadConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matrix dimensions, scaled by `--smoke`.
struct Matrix {
    config: &'static str,
    build_nodes: usize,
    build_records: usize,
    build_attrs: usize,
    build_buckets: usize,
    build_repeats: usize,
    update_repeats: usize,
    delta_servers: usize,
    delta_records_per_server: usize,
    delta_churn: f64,
    delta_repeats: usize,
    cluster_servers: usize,
    cluster_queries: usize,
    qps_repeats: usize,
    failover_repeats: usize,
}

impl Matrix {
    fn full() -> Matrix {
        Matrix {
            config: "full",
            build_nodes: 160,
            build_records: 200,
            build_attrs: 16,
            build_buckets: 500,
            build_repeats: 3,
            update_repeats: 5,
            delta_servers: 64,
            delta_records_per_server: 15_625, // 1M records total
            delta_churn: 0.01,
            delta_repeats: 3,
            cluster_servers: 24,
            cluster_queries: 96,
            qps_repeats: 3,
            failover_repeats: 5,
        }
    }

    fn smoke() -> Matrix {
        Matrix {
            config: "smoke",
            build_nodes: 48,
            build_records: 40,
            build_attrs: 8,
            build_buckets: 128,
            build_repeats: 2,
            update_repeats: 3,
            // The delta row keeps the full 1M-record scale even in smoke:
            // the delta-vs-full floor is a DRAM-resident-scale property
            // (at cache-friendly sizes the full rebuild is proportionally
            // cheaper), so shrinking it would assert a different claim.
            // Only the repeat count drops.
            delta_servers: 64,
            delta_records_per_server: 15_625, // 1M records total
            delta_churn: 0.01,
            delta_repeats: 2,
            cluster_servers: 13,
            cluster_queries: 32,
            qps_repeats: 2,
            failover_repeats: 3,
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1000.0
}

/// The build-plane workload (figure-scale records across many nodes).
fn build_workload(m: &Matrix) -> (Schema, RoadsConfig, Vec<Vec<Record>>) {
    let schema = default_schema(m.build_attrs);
    let cfg = RoadsConfig {
        max_children: 8,
        summary: SummaryConfig::with_buckets(m.build_buckets),
        ..RoadsConfig::paper_default()
    };
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: m.build_nodes,
        records_per_node: m.build_records,
        attrs: m.build_attrs,
        seed: 42,
    });
    (schema, cfg, records)
}

fn churn_record(id: u64, x: f64) -> Record {
    Record::new_unchecked(
        RecordId(id),
        OwnerId((id % 1000) as u32),
        vec![Value::Float(x), Value::Float((x * 7.0).fract())],
    )
}

/// The churn workload: a large, evenly spread two-attribute population
/// spread over many servers; each round updates a fraction of it in
/// place.
fn delta_net(servers: usize, per: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(2);
    let cfg = RoadsConfig {
        max_children: 8,
        summary: SummaryConfig::with_buckets(128),
        ..RoadsConfig::paper_default()
    };
    let total = (servers * per) as f64;
    let records: Vec<Vec<Record>> = (0..servers)
        .map(|s| {
            (0..per)
                .map(|i| {
                    let id = s * per + i;
                    churn_record(id as u64, id as f64 / total)
                })
                .collect()
        })
        .collect();
    RoadsNetwork::build_with(schema, cfg, records, BuildOptions::with_threads(4))
}

/// One churn round: `fraction` of the population updated in place, ids
/// and values deterministic so repeats are comparable. The 9973 stride is
/// prime to the matrix's population sizes, so every round touches
/// distinct records.
fn churn_delta(servers: usize, per: usize, fraction: f64, round: u64) -> RecordDelta {
    let total = servers * per;
    let changes = ((total as f64 * fraction) as usize).max(1);
    let mut delta = RecordDelta::new();
    for j in 0..changes {
        let id = (j * 9973 + round as usize * 131) % total;
        let x = ((id as f64 / total as f64) + 0.37 * (round + 1) as f64).fract();
        delta.update(ServerId((id / per) as u32), churn_record(id as u64, x));
    }
    delta
}

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

fn measure_qps(c: &RoadsCluster, workload: &[(Query, ServerId)], threads: usize) -> f64 {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
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
    workload.len() as f64 / t0.elapsed().as_secs_f64()
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
    let mut smoke = false;
    let mut out = results_dir().join("BENCH_ROADS.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" | "--quick" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let m = if smoke {
        Matrix::smoke()
    } else {
        Matrix::full()
    };
    println!("==================================================================");
    println!("bench_suite — macrobench matrix ({})", m.config);
    println!("==================================================================");

    let mut benches = Vec::new();

    // --- Build plane: sequential vs 4 worker threads. -------------------
    let (schema, roads_cfg, records) = build_workload(&m);
    for (bench, threads) in [("build_1t", 1usize), ("build_4t", 4)] {
        let samples: Vec<f64> = (0..m.build_repeats)
            .map(|_| {
                time_ms(|| {
                    let net = RoadsNetwork::build_with(
                        schema.clone(),
                        roads_cfg,
                        records.clone(),
                        BuildOptions::with_threads(threads),
                    );
                    assert_eq!(net.len(), m.build_nodes);
                })
            })
            .collect();
        let r = BenchRecord::from_samples(bench, "ms", &samples);
        println!("{:<20} {:>10.1} ms (p99 {:.1})", r.name, r.value, r.p99);
        benches.push(r);
    }

    // --- Update propagation: one full summary round. ---------------------
    let net = RoadsNetwork::build_with(
        schema.clone(),
        roads_cfg,
        records.clone(),
        BuildOptions::with_threads(4),
    );
    let samples: Vec<f64> = (0..m.update_repeats)
        .map(|_| {
            time_ms(|| {
                roads_core::update_round(&net);
            })
        })
        .collect();
    let r = BenchRecord::from_samples("update_round", "ms", &samples);
    println!("{:<20} {:>10.1} ms (p99 {:.1})", r.name, r.value, r.p99);
    benches.push(r);
    drop(net);

    // --- Incremental update path: full rebuild round vs delta round. -----
    // The full path re-aggregates every local summary from its records
    // before propagating; the delta path folds only the changed records
    // into their stores' summaries and re-aggregates only the dirty
    // branch closure.
    let mut dnet = delta_net(m.delta_servers, m.delta_records_per_server);
    let total_records = (m.delta_servers * m.delta_records_per_server) as u64;
    let mut full_bytes = 0u64;
    let full_samples: Vec<f64> = (0..m.delta_repeats)
        .map(|_| {
            time_ms(|| {
                full_bytes = update_round_full(&mut dnet).total_bytes();
            })
        })
        .collect();
    let full = BenchRecord::from_samples("update_round_full", "ms", &full_samples);
    println!(
        "{:<20} {:>10.1} ms (p99 {:.1})",
        full.name, full.value, full.p99
    );
    // Deltas are generated outside the timer; each round touches a
    // distinct deterministic slice of the population.
    let deltas: Vec<RecordDelta> = (0..m.delta_repeats)
        .map(|r| {
            churn_delta(
                m.delta_servers,
                m.delta_records_per_server,
                m.delta_churn,
                r as u64,
            )
        })
        .collect();
    let mut delta_bytes = 0u64;
    let mut last_outcome = None;
    let delta_samples: Vec<f64> = deltas
        .iter()
        .map(|d| {
            time_ms(|| {
                let (b, o) = update_round_delta(&mut dnet, d);
                delta_bytes = b.total_bytes();
                last_outcome = Some(o);
            })
        })
        .collect();
    let delta = BenchRecord::from_samples("update_round_delta", "ms", &delta_samples);
    println!(
        "{:<20} {:>10.1} ms (p99 {:.1})",
        delta.name, delta.value, delta.p99
    );
    let speedup = full.value / delta.value;
    assert!(
        speedup >= MIN_DELTA_SPEEDUP,
        "delta round must stay >= {MIN_DELTA_SPEEDUP:.0}x faster than the full round \
         (got {speedup:.1}x: {:.1} ms vs {:.1} ms)",
        full.value,
        delta.value
    );
    let outcome = last_outcome.expect("at least one delta round");
    let delta_report = DeltaReport {
        schema_version: DELTA_SCHEMA_VERSION,
        config: m.config.to_string(),
        servers: m.delta_servers as u64,
        records: total_records,
        churn_changes: deltas.last().map_or(0, |d| d.len()) as u64,
        full_ms: full.value,
        delta_ms: delta.value,
        speedup,
        full_bytes,
        delta_bytes,
        applied: outcome.applied,
        rejected: outcome.rejected,
        dirty_servers: outcome.dirty.len() as u64,
        dirty_branches: outcome.dirty_branches.len() as u64,
        shard_rebuilds: outcome.shard_rebuilds,
    };
    benches.push(full);
    benches.push(delta);
    drop(dnet);

    // --- Live query plane: overlay-spread vs root-only entry. -----------
    let n = m.cluster_servers;
    let reg = Arc::new(Registry::new());
    let net = cluster_net(n);
    // Tail-based sampling over the whole live-cluster run: slow / failed /
    // incomplete queries keep their explain record + flight-recorder trace.
    let recorder = Arc::new(Recorder::new(65_536));
    let tail = TailSampler::shared();
    // Summary-fidelity auditing over the whole live-cluster run: live
    // branch outcomes fold into `audit.live_*`, a background auditor
    // samples ground truth on a budget, and the final AUDIT.json lands
    // next to the bench report.
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
            ..AuditConfig::default()
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
    let spread = queries(&cschema, n, m.cluster_queries, root, true);
    let rooted = queries(&cschema, n, m.cluster_queries, root, false);
    for (bench, workload) in [("qps_overlay", &spread), ("qps_root", &rooted)] {
        let samples: Vec<f64> = (0..m.qps_repeats)
            .map(|_| measure_qps(&cluster, workload, 4))
            .collect();
        let r = BenchRecord::from_samples(bench, "qps", &samples);
        println!("{:<20} {:>10.1} qps (p99 {:.1})", r.name, r.value, r.p99);
        benches.push(r);
    }

    // --- Planner + cache: planned dispatch vs greedy, then cached replays.
    // A second cluster over the same data runs with the replica-aware
    // set-cover planner and a 2-round TTL'd result cache; its instruments
    // land in a separate registry so the `roads.cache.*` /
    // `roads.planner.*` families are attributable to this phase alone.
    let plan_reg = Registry::new();
    let planner_cluster = RoadsCluster::start_with(
        cluster_net(n),
        DelaySpace::paper(n, 31),
        RuntimeConfig {
            enable_planner: true,
            cache_ttl_rounds: 2,
            ..cluster_config()
        },
        Attachments::instrumented(&plan_reg),
    );
    // Comparison pass, cold cache: recall must be identical and planned
    // dispatch must never widen a query — both asserted here, before the
    // artifact is even written.
    let (mut greedy_contacts, mut planned_contacts) = (0u64, 0u64);
    for (q, entry) in &spread {
        let g = cluster.query(q, *entry);
        let p = planner_cluster.query(q, *entry);
        assert_eq!(
            g.records.len(),
            p.records.len(),
            "planner changed recall (entry {entry:?})"
        );
        greedy_contacts += g.servers_contacted as u64;
        planned_contacts += p.servers_contacted as u64;
    }
    assert!(
        planned_contacts <= greedy_contacts,
        "planned dispatch widened the workload ({planned_contacts} > {greedy_contacts})"
    );
    // Throughput with replays: the comparison pass populated the cache,
    // so these passes measure the planner + cache steady state.
    let samples: Vec<f64> = (0..m.qps_repeats)
        .map(|_| measure_qps(&planner_cluster, &spread, 4))
        .collect();
    let r = BenchRecord::from_samples("qps_planner", "qps", &samples);
    println!("{:<20} {:>10.1} qps (p99 {:.1})", r.name, r.value, r.p99);
    benches.push(r);
    // Age every cached answer out so invalidations land on the scrape.
    planner_cluster.advance_cache_round();
    planner_cluster.advance_cache_round();
    let counter = |name: &str| plan_reg.counter(name).get();
    let plan_report = PlanReport {
        schema_version: PLAN_SCHEMA_VERSION,
        config: m.config.to_string(),
        queries: spread.len() as u64,
        planned_queries: counter("roads.planner.planned_queries"),
        pruned_probes: counter("roads.planner.pruned_probes"),
        greedy_contacts,
        planned_contacts,
        cache_hits: counter("roads.cache.hits"),
        cache_misses: counter("roads.cache.misses"),
        // Aged-out and delta-invalidated entries count separately since
        // the expiry/invalidation split; the plan artifact reports their
        // sum.
        cache_invalidations: counter("roads.cache.expired") + counter("roads.cache.invalidated"),
    };
    let planner_scrape = OpenMetricsSnapshot::from_registry(&plan_reg).render();
    planner_cluster.shutdown();

    // --- Failover recovery: kill a branch, time the next query. ----------
    let victim = a_branch(cluster.network());
    let full = QueryBuilder::new(&cschema, QueryId(9_999))
        .range("x0", 0.0, 1.0)
        .build();
    let samples: Vec<f64> = (0..m.failover_repeats)
        .map(|_| {
            assert!(cluster.kill_server(victim));
            let out = cluster.query(&full, root);
            assert!(
                out.failed_servers.contains(&victim),
                "post-kill query must see the dead server"
            );
            assert!(cluster.restart_server(victim));
            // One healthy query so the restarted server rejoins cleanly
            // before the next repeat.
            let healed = cluster.query(&full, root);
            assert!(healed.complete, "restart must restore full coverage");
            out.response_ms
        })
        .collect();
    let r = BenchRecord::from_samples("failover_recovery", "ms", &samples);
    println!("{:<20} {:>10.1} ms (p99 {:.1})", r.name, r.value, r.p99);
    benches.push(r);

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
    // The live cluster's one thread: how late the timer ran the deliveries
    // and service completions that matured on it over this whole run.
    let lag = reg.histogram("runtime.timer_lag_us");
    println!(
        "{:<20} {:>10.1} us (p99 of {} timer events)",
        "timer_lag",
        lag.percentile(0.99).unwrap_or(0.0),
        lag.count()
    );

    written(&out, BenchReport::new(m.config, benches).write(&out));
    println!("wrote {}", out.display());

    // The tail of this run: retained slow/failed/incomplete queries with
    // full provenance, next to the bench report.
    let slow_path = out.with_file_name("SLOW_QUERIES.json");
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
    let audit_path = out.with_file_name("AUDIT.json");
    written(&audit_path, audit_report.write(&audit_path));
    println!(
        "wrote {} ({} ticks, {} probes, divergence {:.2}%, staleness p99 {})",
        audit_path.display(),
        audit_report.ticks,
        audit_report.probes(),
        audit_report.divergence * 100.0,
        audit_report.staleness_p99
    );

    // The planner/cache summary of this run, plus the raw OpenMetrics
    // scrape of the planner registry — CI asserts a non-zero
    // `roads.cache.hits` against it.
    let plan_path = out.with_file_name("PLAN.json");
    written(&plan_path, plan_report.write(&plan_path));
    println!(
        "wrote {} ({} queries, contacts {} → {}, cache hit rate {:.1}%)",
        plan_path.display(),
        plan_report.queries,
        plan_report.greedy_contacts,
        plan_report.planned_contacts,
        100.0 * plan_report.cache_hit_rate(),
    );
    let scrape_path = out.with_file_name("PLANNER_METRICS.txt");
    written(&scrape_path, std::fs::write(&scrape_path, &planner_scrape));
    println!("wrote {}", scrape_path.display());

    // The incremental-update summary of this run (`roads-inspect check`
    // re-enforces the speedup floor offline).
    let delta_path = out.with_file_name("DELTA.json");
    written(&delta_path, delta_report.write(&delta_path));
    println!(
        "wrote {} ({} records, {} changes/round, delta {:.1}x over full)",
        delta_path.display(),
        delta_report.records,
        delta_report.churn_changes,
        delta_report.speedup,
    );

    // The incident timeline of this run: every detector firing coalesced
    // into incidents, correlated with the failover kills and the
    // straggler episode.
    let incidents_path = out.with_file_name("INCIDENTS.json");
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
