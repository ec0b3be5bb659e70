//! Figure 19 (reproduction extra): watchdog detection latency under
//! injected faults.
//!
//! The watchdog plane answers *how fast the system notices it is
//! broken*: a background [`Watchdog`] feeds its fixed detectors
//! (per-server liveness floors, an EWMA z-score spike detector over the
//! windowed query-latency p99, a multi-window SLO burn rate) from the
//! cluster's own instruments every tick and correlates firings with the
//! cluster's fault log into ranked-cause incidents. This figure sweeps fault type
//! (kill vs straggler) against severity (number of killed servers;
//! straggler slowdown factor): for each cell a live cluster warms up
//! healthy, the fault is injected, and the figure records how long the
//! watchdog took to open an incident whose suspected-cause ranking
//! names the faulted server.
//!
//! Three properties are asserted, not just plotted:
//!
//! * every injected kill and straggler is matched by at least one
//!   incident whose cause ranking names the faulted server;
//! * detection latency stays within three watchdog intervals of the
//!   fault onset (kills trip the liveness threshold on the next tick;
//!   stragglers shift the *windowed* p99 — per-tick histogram bucket
//!   deltas — so one slowed query is enough, where a cumulative p99
//!   would need the straggler to dominate the whole run's samples);
//! * a fault-free control run produces zero firings and zero
//!   incidents.

use roads_bench::live::{disjoint_branches, line_net};
use roads_bench::parse_args;
use roads_core::ServerId;
use roads_netsim::DelaySpace;
use roads_records::{QueryBuilder, QueryId};
use roads_runtime::{
    Attachments, CauseKind, IncidentReport, RoadsCluster, RuntimeConfig, Watchdog, WatchdogConfig,
};
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};
use std::sync::Arc;
use std::time::Duration;

/// The fault model of every cell and of the control run.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        dispatch_timeout_ms: 200,
        max_retries: 1,
        backoff_base_ms: 5,
        query_deadline_ms: 20_000,
        delay_scale: 0.03,
        per_record_retrieval_us: 100,
        base_query_cost_us: 300,
        ..RuntimeConfig::paper_like()
    }
}

/// The fault a cell injects after its healthy warmup.
#[derive(Clone, Copy)]
enum Fault {
    /// Kill `k` disjoint-subtree servers at once.
    Kill(usize),
    /// Slow one branch server's responses by `factor`.
    Slow(f64),
}

/// Does the report contain an incident whose cause ranking names
/// `server` via a fault-event candidate?
fn names_server(report: &IncidentReport, server: u32) -> bool {
    report.rows.iter().any(|i| {
        i.causes
            .iter()
            .any(|c| c.kind == CauseKind::FaultEvent && c.server == Some(server))
    })
}

struct CellOutcome {
    report: IncidentReport,
    /// Rounds of query+tick between injection and full attribution.
    rounds: usize,
}

/// Run one sweep cell: warm up healthy, inject the fault, drive
/// query+tick rounds until every victim is named, recover, stop.
fn run_cell(n: usize, interval: Duration, fault: Fault, label: &str) -> CellOutcome {
    let reg = Arc::new(Registry::new());
    // One record per server at `s / n`: a full-range query contacts every
    // branch, so its response time tracks the slowest (or slowed) server.
    let cluster = RoadsCluster::start_with(
        line_net(n, 1, 256),
        DelaySpace::paper(n, 31),
        runtime_config(),
        Attachments::instrumented(&reg),
    );
    let watchdog = Watchdog::for_cluster(
        &cluster,
        &reg,
        WatchdogConfig {
            interval,
            ..WatchdogConfig::default()
        },
    );
    let root = cluster.network().tree().root();
    let full = QueryBuilder::new(cluster.network().schema(), QueryId(19_000))
        .range("x0", 0.0, 1.0)
        .build();

    // Healthy warmup: seed the EWMA baseline (and its warmup sample
    // count) so the post-injection shift registers as a spike.
    for _ in 0..6 {
        let out = cluster.query(&full, root);
        assert!(out.complete, "warmup query must see every branch");
        watchdog.tick_now();
    }
    let warm = watchdog.report();
    assert_eq!(
        warm.firings, 0,
        "{label}: healthy warmup must not trip any detector"
    );

    // Inject. Kills flip the liveness gauge immediately, so a tick right
    // after the injection is already a detection opportunity; stragglers
    // only surface once a slowed query lands in the latency histogram.
    let victims: Vec<ServerId> = match fault {
        Fault::Kill(k) => {
            let v = disjoint_branches(cluster.network(), k);
            assert_eq!(v.len(), k, "need {k} disjoint victims among {n}");
            for &s in &v {
                assert!(cluster.kill_server(s));
            }
            watchdog.tick_now();
            v
        }
        Fault::Slow(factor) => {
            let v = disjoint_branches(cluster.network(), 1);
            assert!(cluster.slow_server(v[0], factor));
            v
        }
    };

    // Drive rounds until every victim is named by an incident's cause
    // ranking; the latency bound below keeps this loop honest.
    let mut rounds = 0usize;
    loop {
        let named = {
            let r = watchdog.report();
            victims.iter().all(|v| names_server(&r, v.0))
        };
        if named {
            break;
        }
        assert!(
            rounds < 30,
            "{label}: watchdog failed to attribute the fault within 30 rounds"
        );
        rounds += 1;
        let _ = cluster.query(&full, root);
        watchdog.tick_now();
    }

    // Recover so the cell ends converged (and the restore path is
    // exercised under the watchdog as well).
    match fault {
        Fault::Kill(_) => {
            for &s in &victims {
                assert!(cluster.restart_server(s));
            }
        }
        Fault::Slow(_) => {
            assert!(cluster.restore_server(victims[0]));
        }
    }
    let healed = cluster.query(&full, root);
    assert!(healed.complete, "{label}: recovery must restore coverage");

    let report = watchdog.stop();
    cluster.shutdown();

    // The acceptance bar: every victim named, detection within three
    // watchdog intervals of the onset.
    for v in &victims {
        assert!(
            names_server(&report, v.0),
            "{label}: no incident names server {}",
            v.0
        );
    }
    let budget_ms = 3.0 * interval.as_secs_f64() * 1e3;
    let worst = report
        .max_detection_latency_ms()
        .unwrap_or_else(|| panic!("{label}: no detection latency recorded"));
    assert!(
        worst <= budget_ms,
        "{label}: detection latency {worst:.0} ms exceeds 3 intervals ({budget_ms:.0} ms)"
    );
    CellOutcome { report, rounds }
}

/// Fault-free control: same cluster, same detectors, no injection —
/// the watchdog must stay silent. Its queries are the figure's trace.
fn run_control(
    n: usize,
    interval: Duration,
    ticks: usize,
    rec: &Arc<Recorder>,
) -> (IncidentReport, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    let cluster = RoadsCluster::start_with(
        line_net(n, 1, 256),
        DelaySpace::paper(n, 31),
        runtime_config(),
        Attachments {
            recorder: Some(Arc::clone(rec)),
            ..Attachments::instrumented(&reg)
        },
    );
    let watchdog = Watchdog::for_cluster(
        &cluster,
        &reg,
        WatchdogConfig {
            interval,
            ..WatchdogConfig::default()
        },
    );
    let root = cluster.network().tree().root();
    let full = QueryBuilder::new(cluster.network().schema(), QueryId(19_500))
        .range("x0", 0.0, 1.0)
        .build();
    for _ in 0..ticks {
        let out = cluster.query(&full, root);
        assert!(out.complete, "control query must see every branch");
        watchdog.tick_now();
    }
    let report = watchdog.stop();
    cluster.shutdown();
    (report, reg)
}

fn main() {
    let (quick, ..) = parse_args();
    let n = if quick { 13 } else { 25 };
    let interval = Duration::from_millis(100);
    let kill_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let slow_factors: &[f64] = if quick {
        &[4.0, 8.0]
    } else {
        &[4.0, 8.0, 12.0]
    };
    println!("==================================================================");
    println!("Figure 19 — watchdog detection latency under injected faults");
    println!(
        "({n} servers, watchdog interval {} ms; kill k servers vs",
        interval.as_millis()
    );
    println!("slow one server by a factor; latency bound = 3 intervals)");
    println!("==================================================================");

    let mut fig = FigureExport::new(
        "fig19_watchdog",
        "watchdog detection latency vs fault severity, kill vs straggler",
    )
    .axes(
        "severity (servers killed / slowdown factor)",
        "detection latency (ms)",
    );

    println!(
        "{:>10} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12}",
        "fault", "severity", "rounds", "incidents", "matched", "firings", "latency(ms)"
    );
    let mut kill_lat: Vec<(f64, f64)> = Vec::new();
    let mut slow_lat: Vec<(f64, f64)> = Vec::new();
    let mut kill_inc: Vec<(f64, f64)> = Vec::new();
    let mut slow_inc: Vec<(f64, f64)> = Vec::new();
    for &k in kill_counts {
        let label = format!("kill k={k}");
        let cell = run_cell(n, interval, Fault::Kill(k), &label);
        let lat = cell.report.max_detection_latency_ms().unwrap_or(0.0);
        println!(
            "{:>10} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12.0}",
            "kill",
            k,
            cell.rounds,
            cell.report.rows.len(),
            cell.report.matched(),
            cell.report.firings,
            lat
        );
        kill_lat.push((k as f64, lat));
        kill_inc.push((k as f64, cell.report.rows.len() as f64));
    }
    for &f in slow_factors {
        let label = format!("slow x{f}");
        let cell = run_cell(n, interval, Fault::Slow(f), &label);
        let lat = cell.report.max_detection_latency_ms().unwrap_or(0.0);
        println!(
            "{:>10} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12.0}",
            "slow",
            f,
            cell.rounds,
            cell.report.rows.len(),
            cell.report.matched(),
            cell.report.firings,
            lat
        );
        slow_lat.push((f, lat));
        slow_inc.push((f, cell.report.rows.len() as f64));
    }

    // Fault-free control: silence is the assertion.
    let rec = Arc::new(Recorder::new(65_536));
    let (control, control_reg) = run_control(n, interval, 12, &rec);
    assert_eq!(
        control.firings, 0,
        "control run must not trip any detector (got {} firings)",
        control.firings
    );
    assert!(
        control.rows.is_empty(),
        "control run must open zero incidents (got {})",
        control.rows.len()
    );
    println!(
        "{:>10} {:>9} {:>7} {:>10} {:>8} {:>8} {:>12}",
        "control", "-", 12, 0, 0, 0, "-"
    );

    fig.push_series("detection_latency_ms_kill", &kill_lat);
    fig.push_series("detection_latency_ms_slow", &slow_lat);
    fig.push_series("incidents_kill", &kill_inc);
    fig.push_series("incidents_slow", &slow_inc);
    fig.push_reference(
        "detection_latency_budget_ms",
        kill_lat
            .iter()
            .chain(slow_lat.iter())
            .map(|p| p.1)
            .fold(0.0, f64::max),
        3.0 * interval.as_secs_f64() * 1e3,
    );
    fig.push_note(format!(
        "{n} servers x 1 record, watchdog interval {} ms; kills trip the \
         per-server liveness threshold, stragglers the windowed-p99 EWMA \
         spike detector; every cell asserts cause attribution to the \
         faulted server within 3 intervals",
        interval.as_millis()
    ));
    fig.push_note("fault-free control run produced zero firings and zero incidents");
    fig.push_note("trace: the control run's queries, one span tree each");
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    // Digest covers the control run's cluster + watchdog registry.
    roads_bench::print_metrics_digest(&control_reg.snapshot());
}
