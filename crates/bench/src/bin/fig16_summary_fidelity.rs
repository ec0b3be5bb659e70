//! Figure 16 (reproduction extra): summary fidelity and overlay staleness
//! under churn.
//!
//! The audit plane answers *how wrong the replicated summaries are*: a
//! [`ReplicaLedger`](roads_core::ReplicaLedger) inside a background
//! [`Auditor`] tracks every overlay copy against ground truth recomputed
//! from live records. This figure sweeps the update (refresh) interval
//! against the number of crashed servers k: for each combination a live
//! cluster runs a healthy phase, a kill phase (k disjoint branch victims
//! down) and a recovery phase (all restarted), with one audit round per
//! phase step, and plots the overlay divergence and staleness-p99 series
//! over the rounds plus the cumulative per-level FP/FN rates.
//!
//! Expected shape: divergence is zero while converged, spikes the moment
//! servers die (their branch copies linger at overlay holders — nobody
//! can re-push a dead branch), only partially reconverges on refreshes
//! while the victims are down, and returns to zero after restart + the
//! next refresh. Slower refresh intervals hold divergence (and
//! staleness-p99) up for proportionally longer, and refreshes taken while
//! servers were dead surface as false *negatives* once they restart —
//! the correctness-critical direction the conservative evaluation
//! otherwise never produces.

use roads_bench::live::{disjoint_branches, line_net};
use roads_bench::parse_args;
use roads_core::RoadsNetwork;
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId};
use roads_runtime::{Attachments, AuditConfig, AuditMetrics, Auditor, RoadsCluster, RuntimeConfig};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Ground-truth probes: one narrow range query per server, centered on
/// its record.
fn probes(net: &RoadsNetwork, n: usize) -> Vec<Query> {
    (0..n)
        .map(|s| {
            let v = s as f64 / n as f64;
            QueryBuilder::new(net.schema(), QueryId(s as u64))
                .range("x0", v - 0.001, v + 0.001)
                .build()
        })
        .collect()
}

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 40 };
    let intervals: &[u64] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let kill_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    // Audit rounds per phase: healthy, killed, restarted. The recovery
    // phase is long enough that even the slowest refresh interval runs at
    // least one refresh after the restart.
    let (healthy, dead, recovered) = (4u64, 6u64, 6u64);
    println!("==================================================================");
    println!("Figure 16 — summary fidelity & overlay staleness ({n} servers)");
    println!("overlay divergence / staleness p99 per audit round, refresh");
    println!("interval x k crashed servers; cumulative per-level FP/FN rates");
    println!("==================================================================");

    let runtime_cfg = RuntimeConfig {
        dispatch_timeout_ms: 200,
        max_retries: 1,
        backoff_base_ms: 10,
        query_deadline_ms: 20_000,
        delay_scale: 0.1,
        per_record_retrieval_us: 150,
        base_query_cost_us: 500,
        ..RuntimeConfig::paper_like()
    };

    let mut fig = FigureExport::new(
        "fig16_summary_fidelity",
        "overlay divergence & staleness p99 vs audit round, refresh interval x crashed servers",
    )
    .axes("audit round", "divergence (%) / staleness p99 (rounds)");
    let rec = Arc::new(Recorder::new(65_536));
    let mut last_reg = Registry::new();
    let mut any_false_negatives = 0u64;

    println!(
        "{:>8} {:>2} {:>7} {:>12} {:>12} {:>10} {:>6} {:>6}",
        "refresh", "k", "rounds", "peak-div%", "end-div%", "stale-p99", "fp", "fn"
    );
    for &interval in intervals {
        for &k in kill_counts {
            // A fresh registry per configuration keeps the per-level
            // audit counters (and the AuditLevelRow.live_* fields read
            // from them) from bleeding across configurations.
            let reg = Registry::new();
            // One record per server at `s / n` with fine buckets: every
            // record sits alone in its histogram bucket, so the converged
            // overlay audits with zero false positives and a refresh taken
            // while a server was dead demonstrably prunes its record (false
            // negative after restart).
            let net = line_net(n, 1, 256);
            let metrics = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
            let cluster = RoadsCluster::start_with(
                net,
                DelaySpace::paper(n, 31),
                runtime_cfg,
                Attachments {
                    // The shared recorder collects real traces across configs.
                    recorder: Some(Arc::clone(&rec)),
                    audit: Some(Arc::clone(&metrics)),
                    ..Attachments::instrumented(&reg)
                },
            );
            let net = cluster.shared_network();
            let victims = disjoint_branches(&net, k);
            assert_eq!(victims.len(), k, "need {k} disjoint victims among {n}");
            let auditor = Auditor::start(
                Arc::clone(&net),
                metrics,
                AuditConfig {
                    interval: Duration::from_secs(3600), // rounds driven manually
                    probes_per_tick: n,
                    refresh_every: interval,
                },
                probes(&net, n),
                cluster.liveness(),
            );
            let root = net.tree().root();
            let full = QueryBuilder::new(net.schema(), QueryId(1_000))
                .range("x0", 0.0, 1.0)
                .build();

            let mut div_series: Vec<(f64, f64)> = Vec::new();
            let mut stale_series: Vec<(f64, f64)> = Vec::new();
            let mut round = 0u64;
            let mut peak_div = 0.0f64;
            let mut observe = |auditor: &Auditor, rounds: u64, peak: &mut f64| {
                for _ in 0..rounds {
                    auditor.tick_now();
                    round += 1;
                    let r = auditor.report();
                    *peak = peak.max(r.divergence);
                    div_series.push((round as f64, r.divergence * 100.0));
                    stale_series.push((round as f64, r.staleness_p99 as f64));
                }
            };

            // Healthy phase: converged, clean.
            observe(&auditor, healthy, &mut peak_div);
            let clean = auditor.report();
            assert_eq!(clean.divergence, 0.0, "converged overlay must audit clean");
            assert_eq!(clean.staleness_p99, 0, "no refresh misses while all live");
            let out = cluster.query(&full, root);
            assert_eq!(out.records.len(), n, "healthy full-coverage query");

            // Kill phase: k victims down, their branch copies linger.
            for &v in &victims {
                assert!(cluster.kill_server(v));
            }
            observe(&auditor, dead, &mut peak_div);
            let degraded = auditor.report();
            assert!(
                degraded.divergence > 0.0 || peak_div > 0.0,
                "killing {k} servers must diverge the overlay"
            );
            assert!(peak_div > 0.0);
            let faulted = cluster.query(&full, root);
            assert!(
                faulted.records.len() < n,
                "dead servers' records are unreachable"
            );

            // Recovery phase: restart everyone; the next refresh re-pushes
            // every copy and the overlay reconverges.
            for &v in &victims {
                assert!(cluster.restart_server(v));
            }
            observe(&auditor, recovered, &mut peak_div);
            let report = auditor.stop();
            assert_eq!(
                report.divergence, 0.0,
                "restart + refresh must reconverge (interval {interval}, k {k})"
            );
            let healed = cluster.query(&full, root);
            assert_eq!(healed.records.len(), n, "restored full coverage");
            cluster.shutdown();
            last_reg = reg;

            any_false_negatives += report.false_negatives();
            println!(
                "{:>8} {:>2} {:>7} {:>11.1}% {:>11.1}% {:>10} {:>6} {:>6}",
                interval,
                k,
                round,
                peak_div * 100.0,
                report.divergence * 100.0,
                report.staleness_p99,
                report.false_positives(),
                report.false_negatives(),
            );
            fig.push_series(format!("divergence_pct_r{interval}_k{k}"), &div_series);
            fig.push_series(format!("staleness_p99_r{interval}_k{k}"), &stale_series);
            let fp_rates: Vec<(f64, f64)> = report
                .levels
                .iter()
                .map(|l| (l.level as f64, 100.0 * l.fp_rate()))
                .collect();
            let fn_rates: Vec<(f64, f64)> = report
                .levels
                .iter()
                .map(|l| (l.level as f64, 100.0 * l.fn_rate()))
                .collect();
            fig.push_series(format!("fp_rate_pct_by_level_r{interval}_k{k}"), &fp_rates);
            fig.push_series(format!("fn_rate_pct_by_level_r{interval}_k{k}"), &fn_rates);
        }
    }
    assert!(
        any_false_negatives > 0,
        "a refresh taken while servers were dead must surface as false \
         negatives after restart in at least one configuration"
    );

    fig.push_note(format!(
        "{n} servers x 1 record, {}-round phases healthy/killed/restarted; \
         refresh every 1..4 audit rounds; disjoint-subtree victims",
        healthy + dead + recovered
    ));
    fig.push_note(
        "divergence spikes on kills (dead branch copies linger at overlay holders), \
         partially reconverges on refreshes while dead, fully after restart + refresh; \
         refreshes while dead prune live records -> false negatives until the next refresh",
    );
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    // Digest covers the last configuration's cluster + audit registry.
    roads_bench::print_metrics_digest(&last_reg.snapshot());
}
