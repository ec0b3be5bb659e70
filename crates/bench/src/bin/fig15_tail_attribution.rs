//! Figure 15 (reproduction extra): p99 latency attribution in the tail.
//!
//! The explain plane answers *where the tail comes from*: every live
//! query assembles a [`QueryExplain`] provenance record whose per-hop
//! latency splits fold into a queue / network / compute / retry /
//! failover [`Attribution`]. This figure drives a full-coverage query
//! batch through the live prototype under increasing fault levels
//! (k crashed branch servers, killed incrementally like Fig. 13) and two
//! entry strategies — all queries funneled through the root vs spread
//! across the federation via the replication overlay — and plots the
//! stacked attribution of the batch's p99 query at each (mode, k).
//!
//! Expected shape: at k = 0 the p99 is network + compute dominated with
//! zero retry/failover time in both modes; as k grows, retry (timed-out
//! attempts burning the dispatch timeout) and failover (stand-in
//! contacts) take over the tail, and the root-funneled mode additionally
//! accumulates queue time at the shared entry.
//!
//! [`QueryExplain`]: roads_telemetry::QueryExplain
//! [`Attribution`]: roads_telemetry::Attribution

use roads_bench::live::{disjoint_branches, fault_config, line_net};
use roads_bench::parse_args;
use roads_core::{RequesterId, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId};
use roads_runtime::{Attachments, RoadsCluster};
use roads_telemetry::{
    write_chrome_trace_default, Attribution, FigureExport, QueryExplain, Registry,
};

const RECORDS_PER_SERVER: usize = 30;

/// Run the batch, append every query's explain record to `traced` and
/// return the p99-latency query's (the batch is small, so p99 selects the
/// slowest-but-one tail query).
fn p99_explain(
    c: &RoadsCluster,
    q: &Query,
    entries: &[ServerId],
    traced: &mut Vec<QueryExplain>,
) -> QueryExplain {
    let explain = |&e| c.query_with(q, e, RequesterId(0), true).1;
    let mut explains: Vec<QueryExplain> = entries.iter().filter_map(explain).collect();
    traced.extend(explains.iter().cloned());
    explains.sort_by(|a, b| a.response_us.total_cmp(&b.response_us));
    let idx = ((explains.len() as f64 * 0.99).ceil() as usize).clamp(1, explains.len()) - 1;
    explains.swap_remove(idx)
}

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 40 };
    let kill_counts: &[usize] = if quick {
        &[0, 1, 2, 3]
    } else {
        &[0, 1, 2, 4, 6, 8]
    };
    let batch = if quick { 16 } else { 48 };
    println!("==================================================================");
    println!("Figure 15 — p99 latency attribution in the tail ({n} servers)");
    println!("queue/network/compute/retry/failover split of the p99 query,");
    println!("root-funneled vs overlay-spread entries, k crashed servers");
    println!("==================================================================");

    let runtime_cfg = fault_config();
    let k_max = *kill_counts.last().unwrap();
    let victims = disjoint_branches(&line_net(n, RECORDS_PER_SERVER, 128), k_max);
    assert_eq!(
        victims.len(),
        k_max,
        "hierarchy of {n} servers holds too few disjoint branch victims"
    );

    let reg = Registry::new();
    let mut traced = Vec::new();
    let cluster = RoadsCluster::start_with(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        runtime_cfg,
        Attachments::instrumented(&reg),
    );
    let root = cluster.network().tree().root();
    let q = QueryBuilder::new(cluster.network().schema(), QueryId(15))
        .range("x0", 0.0, 1.0)
        .build();
    let rooted: Vec<ServerId> = vec![root; batch];
    let spread: Vec<ServerId> = (0..batch)
        .map(|i| {
            // Stride live servers, skipping crash victims so the entry
            // itself is never dead (entry failover is Fig. 13's subject).
            let mut s = ServerId(((i * 7 + 3) % n) as u32);
            while victims.contains(&s) {
                s = ServerId((s.0 + 1) % n as u32);
            }
            s
        })
        .collect();

    println!(
        "{:>6} {:<7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "killed", "entry", "p99 ms", "queue", "network", "compute", "retry", "failover"
    );
    type ModeSeries = (&'static str, &'static str, Vec<(f64, f64)>);
    let mut series: Vec<ModeSeries> = Vec::new();
    for component in ["queue", "network", "compute", "retry", "failover", "total"] {
        for mode in ["root", "spread"] {
            series.push((component, mode, Vec::new()));
        }
    }
    let mut killed_so_far = 0usize;
    for &k in kill_counts {
        while killed_so_far < k {
            assert!(cluster.kill_server(victims[killed_so_far]));
            killed_so_far += 1;
        }
        for (mode, entries) in [("root", &rooted), ("spread", &spread)] {
            let ex = p99_explain(&cluster, &q, entries, &mut traced);
            let a = ex.attribution();
            if k == 0 {
                assert!(
                    a.retry_us == 0.0 && a.failover_us == 0.0,
                    "healthy cluster p99 must have no retry/failover time"
                );
            } else {
                assert!(
                    a.retry_us + a.failover_us > 0.0,
                    "post-kill p99 must show retry or failover time"
                );
            }
            println!(
                "{:>6} {:<7} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                k,
                mode,
                ex.response_us / 1_000.0,
                a.queue_us / 1_000.0,
                a.network_us / 1_000.0,
                a.compute_us / 1_000.0,
                a.retry_us / 1_000.0,
                a.failover_us / 1_000.0,
            );
            let pick = |a: &Attribution, component: &str| match component {
                "queue" => a.queue_us,
                "network" => a.network_us,
                "compute" => a.compute_us,
                "retry" => a.retry_us,
                "failover" => a.failover_us,
                _ => a.total_us(),
            };
            for (component, m, points) in series.iter_mut() {
                if *m == mode {
                    points.push((k as f64, pick(&a, component) / 1_000.0));
                }
            }
        }
    }
    cluster.shutdown();

    let mut fig = FigureExport::new(
        "fig15_tail_attribution",
        "p99 latency attribution (stacked) vs crashed servers, per entry mode",
    )
    .axes("crashed branch servers", "p99 work time (ms)");
    for (component, mode, points) in &series {
        fig.push_series(format!("p99_{component}_ms_{mode}"), points);
    }
    fig.push_note(format!(
        "{n} servers x {RECORDS_PER_SERVER} records, {batch}-query full-coverage batches; \
         victims gate disjoint subtrees; dispatch timeout {} ms, {} retry, deadline {} ms",
        runtime_cfg.dispatch_timeout_ms, runtime_cfg.max_retries, runtime_cfg.query_deadline_ms
    ));
    fig.push_note(
        "work-time attribution from QueryExplain::attribution(): concurrent hops add, \
         so components can exceed the end-to-end response time",
    );
    fig.write_default();
    write_chrome_trace_default(&fig.figure, None, &traced);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
