//! Figure 16 (reproduction extra): how far the replicated summaries drift
//! from the truth when servers crash, and for how long.
//!
//! The overlay is soft state (§III-B/C): every `ts` a heartbeat refreshes
//! each server's copies of remote branch summaries, and a TTL expires a
//! copy nobody refreshes. Those copies, held by the message-driven servers
//! of `roads_core::protocol` on the discrete-event simulator, are the only
//! stale summaries in the system — every live query routes on the engine's
//! converged ones — so this figure audits them with [`audit_copies`]: at
//! each sample every live server's fresh child entries and replicas are
//! compared with the branch summaries the servers converge to under the
//! crash, and probed with one narrow query per server for false positives
//! and false negatives, by the tree level of the copy's target.
//!
//! It sweeps the heartbeat period `ts` against k crashed disjoint subtrees,
//! with the TTL at three periods (as in `churn_resilience`). Each
//! configuration converges from cold soft state, crashes its k subtrees at
//! once and samples every half period, and asserts:
//!
//! * divergence is 0 once the federation has converged, with every copy
//!   the overlay prescribes held;
//! * divergence is above 0 right after the crash: the dead branches'
//!   copies and their ancestors' still hold the dead records;
//! * divergence is back to 0 by `crash + ttl + (levels + 1)·ts`, the
//!   per-hop bound: a copy `h` hops from where its origin was last heard
//!   lapses one TTL plus `h` periods after, and the ancestors' new branch
//!   summaries reach every holder one period per hop;
//! * no sample has a false negative: a stale copy only keeps dead records
//!   and never prunes a live one.
//!
//! The trace (`results/fig16_summary_fidelity.trace.json`) is the first
//! configuration's data plane: replica installs and refreshes, publishes,
//! merges and the TTL expiries the crash causes.

use roads_bench::live::disjoint_branches;
use roads_bench::parse_args;
use roads_core::protocol::{audit_copies, build_simulation, CopyAudit};
use roads_core::{HierarchyTree, RoadsConfig, RoadsNetwork};
use roads_netsim::{DelaySpace, NodeId, SimTime};
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_summary::SummaryConfig;
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder};
use roads_workload::line_records;
use std::sync::Arc;

/// One narrow range query per server, centred on its one record.
fn probes(net: &RoadsNetwork) -> Vec<Query> {
    let n = net.len();
    (0..n)
        .map(|s| {
            let v = s as f64 / n as f64;
            QueryBuilder::new(net.schema(), QueryId(s as u64))
                .range("x0", v - 0.001, v + 0.001)
                .build()
        })
        .collect()
}

/// The per-level tallies of `b` added into `a`.
fn accumulate(a: &mut [CopyAudit], b: &[CopyAudit]) {
    for (a, b) in a.iter_mut().zip(b) {
        a.probes += b.probes;
        a.false_positives += b.false_positives;
        a.false_negatives += b.false_negatives;
    }
}

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 40 };
    let periods: &[u64] = if quick {
        &[1_000, 2_000]
    } else {
        &[500, 1_000, 2_000]
    };
    let kill_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    println!("==================================================================");
    println!("Figure 16 — divergence of the overlay's copies under crashes ({n} servers)");
    println!("heartbeat period ts x k crashed subtrees, TTL = 3 ts; samples every");
    println!("ts/2; per-level FP/FN of every copy against one query per server");
    println!("==================================================================");

    let mut fig = FigureExport::new(
        "fig16_summary_fidelity",
        "divergence of the replicated copies vs time since the crash, heartbeat period x crashed subtrees",
    )
    .axes("periods since the crash", "diverged copies (%)");
    let rec = Arc::new(Recorder::new(65_536));
    let schema = Schema::unit_numeric(1);

    println!(
        "{:>6} {:>2} {:>6} {:>9} {:>9} {:>7} {:>7} {:>4}",
        "ts ms", "k", "copies", "peak-div%", "clean-at", "bound", "fp", "fn"
    );
    for (config, &ts) in periods.iter().enumerate() {
        for &k in kill_counts {
            let cfg = RoadsConfig {
                max_children: 3,
                // Every record alone in its bucket: a converged copy has no
                // false positive for its server's query, so the ones the
                // figure counts come from the crash.
                summary: SummaryConfig::with_buckets(256),
                ts_ms: ts,
                summary_ttl_ms: 3 * ts,
            };
            let tree = HierarchyTree::build(n, cfg.max_children);
            let records = line_records(n, 1);
            let delays = DelaySpace::paper(n, 31);
            let mut sim = build_simulation(cfg, schema.clone(), records.clone(), &tree, delays);
            if config == 0 && k == kill_counts[0] {
                sim.set_recorder(Arc::clone(&rec));
            }
            let net = RoadsNetwork::with_tree(schema.clone(), cfg, tree, records);
            let tree = net.tree();
            let levels = tree.levels() as u64;
            let queries = probes(&net);
            let victims = disjoint_branches(&net, k);
            assert_eq!(victims.len(), k, "need {k} disjoint victims among {n}");
            // What a converged federation holds: a copy of every child and
            // of every member of each server's replication set.
            let held: usize = (tree.servers().iter())
                .map(|&s| tree.children(s).len() + net.replica_set(s).entries().len())
                .sum();

            // Converge from cold soft state: the branch summaries climb one
            // level a period and the replicas come down one a period.
            let converged = 4 * levels * ts;
            let crash = converged + 2 * ts;
            let bound = crash + cfg.summary_ttl_ms + (levels + 1) * ts;
            let end = bound + cfg.summary_ttl_ms + 2 * ts;
            let mut live = vec![true; n];
            let mut totals = vec![CopyAudit::default(); tree.levels()];
            let mut series: Vec<(f64, f64)> = Vec::new();
            let (mut peak, mut clean_at) = (0.0f64, crash);
            let mut t = converged;
            loop {
                sim.run_until(SimTime::from_millis(t));
                if t == crash {
                    for &v in &victims {
                        for s in tree.subtree(v) {
                            sim.node_mut(NodeId(s.0)).crash();
                            live[s.index()] = false;
                        }
                    }
                }
                let audit = audit_copies(&sim, &net, &live, &queries);
                accumulate(&mut totals, &audit);
                let copies: usize = audit.iter().map(|l| l.copies).sum();
                let diverged: usize = audit.iter().map(|l| l.diverged).sum();
                let missed: u64 = audit.iter().map(|l| l.false_negatives).sum();
                let share = diverged as f64 / copies.max(1) as f64;
                let x = (t as f64 - crash as f64) / ts as f64;
                series.push((x, 100.0 * share));
                assert_eq!(
                    missed, 0,
                    "ts {ts}, k {k}: a copy pruned a live record at {x} periods"
                );
                if t < crash {
                    assert_eq!(copies, held, "ts {ts}, k {k}: not converged");
                    assert_eq!(diverged, 0, "ts {ts}, k {k}: converged copies diverge");
                } else if t == crash {
                    assert!(diverged > 0, "ts {ts}, k {k}: the crash diverged no copy");
                } else if t >= bound {
                    assert_eq!(diverged, 0, "ts {ts}, k {k}: diverged at {x} periods");
                }
                if diverged > 0 {
                    clean_at = t + ts / 2;
                }
                peak = peak.max(share);
                if t >= end {
                    break;
                }
                t += ts / 2;
            }

            let (fp, fneg) = totals.iter().fold((0, 0), |(fp, fneg), l| {
                (fp + l.false_positives, fneg + l.false_negatives)
            });
            let periods_after = |at: u64| (at - crash) as f64 / ts as f64;
            println!(
                "{:>6} {:>2} {:>6} {:>8.1}% {:>9.1} {:>7.1} {:>7} {:>4}",
                ts,
                k,
                held,
                100.0 * peak,
                periods_after(clean_at),
                periods_after(bound),
                fp,
                fneg,
            );
            fig.push_series(format!("divergence_pct_ts{ts}_k{k}"), &series);
            let rate = |count: fn(&CopyAudit) -> u64| -> Vec<(f64, f64)> {
                (totals.iter().enumerate())
                    .map(|(level, l)| {
                        (
                            level as f64,
                            100.0 * count(l) as f64 / l.probes.max(1) as f64,
                        )
                    })
                    .collect()
            };
            fig.push_series(
                format!("fp_rate_pct_by_level_ts{ts}_k{k}"),
                &rate(|l| l.false_positives),
            );
            fig.push_series(
                format!("fn_rate_pct_by_level_ts{ts}_k{k}"),
                &rate(|l| l.false_negatives),
            );
        }
    }

    fig.push_note(format!(
        "{n} servers x 1 record, degree 3, TTL = 3 ts; k disjoint subtrees crash at once \
         two periods after the federation converged; one sample every ts/2"
    ));
    fig.push_note(
        "divergence is 0 when converged, jumps at the crash (the dead branches' copies and \
         their ancestors' still hold the dead records), and is 0 again by \
         crash + ttl + (levels + 1) ts; no copy ever prunes a live record (FN = 0)",
    );
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
}
