//! Figure 13 (reproduction extra): query availability under server crashes.
//!
//! The paper motivates the replication overlay (§III-C) with coverage —
//! "each server stores summaries which combined together cover the whole
//! hierarchy" — but never measures what that buys when servers actually
//! die. This figure does: it kills an increasing number of branch servers
//! in the live prototype and plots, with the overlay failover enabled and
//! disabled, the *recall* (fraction of all matching records still
//! returned) and the response time of a full-coverage query.
//!
//! Expected shape: without failover, each crashed branch server takes its
//! whole subtree with it, so recall falls by the subtree's share. With
//! failover, a sibling or ancestor replica stands in and re-routes the
//! sub-query to the dead server's children, so only the crashed server's
//! *own* records are lost. The deadline and per-dispatch timeouts keep
//! response time bounded in both modes.

use roads_bench::chart::{render, Series};
use roads_bench::live::{disjoint_branches, fault_config, line_net};
use roads_bench::parse_args;
use roads_core::ServerId;
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig, RuntimeOutcome};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};
use std::collections::HashSet;
use std::sync::Arc;

const RECORDS_PER_SERVER: usize = 30;

/// Average a query repeated from several live starts against one cluster.
struct Measured {
    recall_pct: f64,
    mean_ms: f64,
    retries: f64,
    complete: bool,
}

fn measure(c: &RoadsCluster, q: &Query, starts: &[ServerId], total_records: usize) -> Measured {
    let mut recall_sum = 0.0;
    let mut ms_sum = 0.0;
    let mut retries = 0usize;
    let mut complete = true;
    for &start in starts {
        let out: RuntimeOutcome = c.query(q, start);
        let ids: HashSet<u64> = out.records.iter().map(|r| r.id.0).collect();
        assert_eq!(ids.len(), out.records.len(), "no duplicate records");
        recall_sum += ids.len() as f64 / total_records as f64;
        ms_sum += out.response_ms;
        retries += out.retries;
        complete &= out.complete;
    }
    Measured {
        recall_pct: 100.0 * recall_sum / starts.len() as f64,
        mean_ms: ms_sum / starts.len() as f64,
        retries: retries as f64 / starts.len() as f64,
        complete,
    }
}

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 40 };
    let kill_counts: &[usize] = if quick {
        &[0, 1, 2, 3]
    } else {
        &[0, 1, 2, 4, 6, 8]
    };
    let repeats = if quick { 3 } else { 5 };
    println!("==================================================================");
    println!("Figure 13 — availability under server crashes ({n} servers)");
    println!("recall of a full-coverage query vs crashed branch servers,");
    println!("with and without replication-overlay failover (§III-C)");
    println!("==================================================================");

    let runtime_cfg = fault_config();
    let total_records = n * RECORDS_PER_SERVER;
    let k_max = *kill_counts.last().unwrap();
    let victims = disjoint_branches(&line_net(n, RECORDS_PER_SERVER, 128), k_max);
    assert_eq!(
        victims.len(),
        k_max,
        "hierarchy of {n} servers holds too few disjoint branch victims"
    );

    // One cluster per failover setting; victims are killed incrementally
    // as k grows (the victim list is shared, so runs stay comparable).
    let rec = Arc::new(Recorder::new(65_536));
    let reg = Registry::new();
    let with_fo = RoadsCluster::start_with(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        runtime_cfg,
        Attachments {
            recorder: Some(Arc::clone(&rec)),
            ..Attachments::instrumented(&reg)
        },
    );
    let without_fo = RoadsCluster::start(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        RuntimeConfig {
            enable_failover: false,
            ..runtime_cfg
        },
    );
    let q = QueryBuilder::new(with_fo.network().schema(), QueryId(13))
        .range("x0", 0.0, 1.0)
        .build();
    let root = with_fo.network().tree().root();
    let starts: Vec<ServerId> = vec![root; repeats];

    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>12} {:>10}",
        "killed", "recall(fo)%", "ms(fo)", "retries", "recall(no)%", "ms(no)"
    );
    let mut killed_so_far = 0usize;
    let mut recall_fo = Vec::new();
    let mut recall_no = Vec::new();
    let mut ms_fo = Vec::new();
    let mut ms_no = Vec::new();
    for &k in kill_counts {
        while killed_so_far < k {
            let v = victims[killed_so_far];
            assert!(with_fo.kill_server(v) && without_fo.kill_server(v));
            killed_so_far += 1;
        }
        let fo = measure(&with_fo, &q, &starts, total_records);
        let no = measure(&without_fo, &q, &starts, total_records);
        if k == 0 {
            assert!(
                fo.complete && no.complete,
                "healthy cluster must answer completely"
            );
        } else {
            assert!(!fo.complete, "crashes must surface as incomplete");
        }
        assert!(
            fo.recall_pct + 1e-9 >= no.recall_pct,
            "failover must never lose records relative to no-failover"
        );
        println!(
            "{:>6} {:>12.1} {:>10.1} {:>8.1} {:>12.1} {:>10.1}",
            k, fo.recall_pct, fo.mean_ms, fo.retries, no.recall_pct, no.mean_ms
        );
        recall_fo.push((k as f64, fo.recall_pct));
        recall_no.push((k as f64, no.recall_pct));
        ms_fo.push((k as f64, fo.mean_ms));
        ms_no.push((k as f64, no.mean_ms));
    }
    println!();
    print!(
        "{}",
        render(
            &[
                Series::new("recall w/ failover (%)", recall_fo.clone()),
                Series::new("recall w/o failover (%)", recall_no.clone()),
            ],
            48,
            12
        )
    );
    println!("(x axis: crashed branch servers)");
    with_fo.shutdown();
    without_fo.shutdown();

    let mut fig = FigureExport::new(
        "fig13_availability",
        "Query recall and latency vs crashed servers, overlay failover on/off",
    )
    .axes("crashed branch servers", "recall (%) / response (ms)");
    fig.push_series("recall_failover_pct", &recall_fo);
    fig.push_series("recall_no_failover_pct", &recall_no);
    fig.push_series("response_failover_ms", &ms_fo);
    fig.push_series("response_no_failover_ms", &ms_no);
    // With disjoint victim subtrees, ideal failover loses only the crashed
    // servers' own records: recall_ideal = 1 - k/n at the largest k.
    let ideal = 100.0 * (1.0 - k_max as f64 / n as f64);
    if let Some(&(_, measured)) = recall_fo.last() {
        fig.push_reference("recall_failover_at_kmax_pct", measured, ideal);
    }
    fig.push_note(format!(
        "{n} servers x {RECORDS_PER_SERVER} records, victims gate disjoint subtrees; \
         dispatch timeout {} ms, {} retry, deadline {} ms",
        runtime_cfg.dispatch_timeout_ms, runtime_cfg.max_retries, runtime_cfg.query_deadline_ms
    ));
    fig.push_note("trace: DispatchTimeout/Retry/Failover events from the failover-on cluster");
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    // Digest covers the instrumented (failover-on) cluster.
    roads_bench::print_metrics_digest(&reg.snapshot());
}
