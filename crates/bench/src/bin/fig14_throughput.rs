//! Figure 14 (reproduction extra): query throughput vs client threads.
//!
//! The paper's overlay argument (§III-C) is about load as much as
//! availability: "each server stores summaries which combined together
//! cover the whole hierarchy", so *any* server can be a query entry point
//! and clients need not funnel through the root. This figure measures what
//! that buys on the live prototype: queries per second as the number of
//! concurrent client threads grows, with overlay entry (queries start at
//! spread-out entry servers) and without (every query enters at the root,
//! as it must in a plain hierarchy). A degraded series repeats the overlay
//! run with `k` branch servers crashed to show throughput under churn, and
//! a simulation-plane series runs the same workload through
//! [`roads_core::QueryBatch`] to measure raw evaluation throughput with no
//! network emulation.
//!
//! Expected shape: queries spend most of their life waiting on emulated
//! link and retrieval delays, so throughput scales near-linearly with
//! client threads until the admission gate or a hot server serializes
//! them. Root-only entry funnels every query through one server's FIFO
//! and flattens earlier.

use roads_bench::chart::{render, Series};
use roads_bench::live::{disjoint_branches, drive, fault_config, line_net, sliding_ranges};
use roads_bench::parse_args;
use roads_core::{QueryBatch, RequesterId, SearchScope, ServerId};
use roads_netsim::DelaySpace;
use roads_records::Query;
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, QueryExplain, Registry};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const RECORDS_PER_SERVER: usize = 10;

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 40 };
    let q_count = if quick { 48 } else { 160 };
    let kills = if quick { 2 } else { 4 };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    println!("==================================================================");
    println!("Figure 14 — query throughput vs client threads ({n} servers)");
    println!("queries/sec with overlay entry spread vs root-only entry,");
    println!("plus {kills} crashed branch servers and the simulation plane");
    println!("==================================================================");

    let runtime_cfg = RuntimeConfig {
        max_inflight_queries: 64,
        ..fault_config()
    };

    let reg = Registry::new();
    let healthy = RoadsCluster::start_with(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        runtime_cfg,
        Attachments::instrumented(&reg),
    );
    let degraded = RoadsCluster::start(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        runtime_cfg,
    );
    let victims = disjoint_branches(degraded.network(), kills);
    assert_eq!(victims.len(), kills, "not enough disjoint branch victims");
    for &v in &victims {
        assert!(degraded.kill_server(v));
    }

    let schema = healthy.network().schema().clone();
    let root = healthy.network().tree().root();
    let spread_queries = sliding_ranges(&schema, n, q_count, root, true);
    let root_queries = sliding_ranges(&schema, n, q_count, root, false);
    // Degraded runs can lose crashed subtrees, so drop the non-empty
    // assertion by filtering entries onto live servers only.
    let dead: HashSet<ServerId> = victims
        .iter()
        .flat_map(|&v| degraded.network().tree().subtree(v))
        .collect();
    let degraded_queries: Vec<(Query, ServerId)> = spread_queries
        .iter()
        .map(|(q, e)| {
            let e = if dead.contains(e) { root } else { *e };
            (q.clone(), e)
        })
        .collect();

    // Simulation plane: the spread workload tiled large enough that worker
    // spawn cost is noise next to evaluation work.
    let sim_net = Arc::new(line_net(n, RECORDS_PER_SERVER, 128));
    let sim_delays = Arc::new(DelaySpace::paper(n, 31));
    let sim_queries: Vec<(Query, ServerId)> = (0..if quick { 50 } else { 100 })
        .flat_map(|_| spread_queries.iter().cloned())
        .collect();

    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>16}",
        "clients", "qps(overlay)", "qps(root)", "qps(degraded)", "batch sim kqps"
    );
    let mut s_overlay = Vec::new();
    let mut s_root = Vec::new();
    let mut s_degraded = Vec::new();
    let mut s_sim = Vec::new();
    for &t in thread_counts {
        let qps_overlay = drive(&healthy, &spread_queries, t);
        let qps_root = drive(&healthy, &root_queries, t);
        let qps_degraded = {
            let cursor = AtomicUsize::new(0);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..t {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= degraded_queries.len() {
                            break;
                        }
                        let (q, entry) = &degraded_queries[i];
                        let _ = degraded.query(q, *entry);
                    });
                }
            });
            degraded_queries.len() as f64 / t0.elapsed().as_secs_f64()
        };
        let sim_kqps = {
            let batch = QueryBatch::new(Arc::clone(&sim_net), Arc::clone(&sim_delays))
                .threads(t)
                .scope(SearchScope::full());
            let t0 = Instant::now();
            let out = batch.run(&sim_queries);
            assert_eq!(out.len(), sim_queries.len());
            sim_queries.len() as f64 / t0.elapsed().as_secs_f64() / 1_000.0
        };
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>14.1} {:>16.1}",
            t, qps_overlay, qps_root, qps_degraded, sim_kqps
        );
        s_overlay.push((t as f64, qps_overlay));
        s_root.push((t as f64, qps_root));
        s_degraded.push((t as f64, qps_degraded));
        s_sim.push((t as f64, sim_kqps));
    }

    let qps_1 = s_overlay.first().unwrap().1;
    let qps_4 = s_overlay[2].1;
    assert!(
        qps_4 >= 1.5 * qps_1,
        "4 client threads must beat 1 by well over 1.5x (got {qps_1:.1} -> {qps_4:.1})"
    );
    let snap = reg.snapshot();
    assert_eq!(
        snap.gauges["runtime.inflight_queries"], 0,
        "all admission slots released"
    );

    println!();
    print!(
        "{}",
        render(
            &[
                Series::new("qps overlay entry", s_overlay.clone()),
                Series::new("qps root-only entry", s_root.clone()),
                Series::new(format!("qps overlay, {kills} killed"), s_degraded.clone()),
            ],
            48,
            12
        )
    );
    println!("(x axis: concurrent client threads)");
    // The trace explains one untimed pass of each workload, so the timed
    // loop above does no explain work.
    let explains: Vec<QueryExplain> = (spread_queries.iter().chain(&root_queries))
        .filter_map(|(q, entry)| healthy.query_with(q, *entry, RequesterId(0), true).1)
        .collect();
    healthy.shutdown();
    degraded.shutdown();

    let mut fig = FigureExport::new(
        "fig14_throughput",
        "Query throughput vs concurrent client threads, overlay entry vs root-only",
    )
    .axes("concurrent client threads", "queries / second");
    fig.push_series("qps_overlay_entry", &s_overlay);
    fig.push_series("qps_root_entry", &s_root);
    fig.push_series("qps_overlay_degraded", &s_degraded);
    fig.push_series("batch_sim_kqps", &s_sim);
    // Sleep-dominated queries should scale ~linearly 1 -> 4 clients.
    fig.push_reference("qps_scaling_1_to_4", qps_4 / qps_1, 4.0);
    fig.push_note(format!(
        "{n} servers x {RECORDS_PER_SERVER} records, {q_count} queries of 0.25-length ranges; \
         max_inflight_queries {}, dispatch timeout {} ms, degraded series kills {kills} \
         disjoint branch servers with failover on",
        runtime_cfg.max_inflight_queries, runtime_cfg.dispatch_timeout_ms
    ));
    fig.push_note(format!(
        "batch_sim_kqps is the simulation plane (QueryBatch workers, no network emulation), \
         in thousands of queries per second; CPU-bound, so it only scales with host cores \
         (this host: {}) while the latency-dominated live series scales with client threads \
         regardless",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &explains);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
