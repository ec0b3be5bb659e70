//! End-to-end tests of the artifact binaries: `bench_suite` must write
//! exactly its observability documents, `roads-inspect check` must accept
//! each through its own row and route figure documents to their trace
//! file, and every reader must fail cleanly on a corrupt document.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roads-bench-tools-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn inspect(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_roads-inspect"))
        .args(args)
        .output()
        .expect("roads-inspect runs");
    (
        out.status.success(),
        format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ),
    )
}

#[test]
fn artifact_run_writes_exactly_its_checkable_documents() {
    let dir = tmp("artifact-run");
    // A directory this test owns alone, emptied first: the assertion
    // below is about exactly what one run writes.
    let _ = std::fs::remove_dir_all(&dir);
    let run = Command::new(env!("CARGO_BIN_EXE_bench_suite"))
        .env("ROADS_RESULTS_DIR", &dir)
        .output()
        .expect("bench_suite runs");
    assert!(
        run.status.success(),
        "bench_suite failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The [metrics] digest is operator chatter: it must land on stderr,
    // never in the machine-pipeable stdout stream.
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        !stdout.contains("[metrics]"),
        "digest leaked into stdout:\n{stdout}"
    );
    assert!(
        stderr.contains("[metrics]"),
        "digest missing from stderr:\n{stderr}"
    );

    // Exactly these documents: no bench report.
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(
        written,
        [
            "AUDIT.json",
            "CACHE_HEALTH.json",
            "HEALTH.json",
            "SLOW_QUERIES.json"
        ]
    );

    // `check` accepts every document, each through its own row.
    for (file, kind) in [
        ("SLOW_QUERIES.json", "slow-query report"),
        ("AUDIT.json", "audit report"),
        ("CACHE_HEALTH.json", "health snapshot"),
        ("HEALTH.json", "health snapshot"),
    ] {
        let path = dir.join(file);
        let (ok, out) = inspect(&["check", path.to_str().unwrap()]);
        assert!(ok, "check rejected {file}:\n{out}");
        assert!(out.contains(kind), "{out}");
    }
    // The cached replays hit.
    let health = roads_runtime::ClusterHealth::load(&dir.join("CACHE_HEALTH.json")).unwrap();
    assert!(health.cache_hits > 0, "{health}");
    // The faulted cluster: every kill was restarted, and failed over.
    let faulted = roads_runtime::ClusterHealth::load(&dir.join("HEALTH.json")).unwrap();
    assert_eq!(faulted.alive_count(), faulted.servers.len(), "{faulted}");
    assert!(faulted.failovers > 0, "{faulted}");

    // `slow` renders the ranked attribution table, `explain` the
    // hop-by-hop waterfall + decision tree of every retained query.
    let slow_path = dir.join("SLOW_QUERIES.json");
    let (ok, out) = inspect(&["slow", slow_path.to_str().unwrap()]);
    assert!(ok, "slow failed:\n{out}");
    assert!(out.contains("tail reservoir"), "{out}");
    assert!(
        out.contains("incomplete"),
        "the kills retain partial answers:\n{out}"
    );
    let (ok, out) = inspect(&["explain", slow_path.to_str().unwrap()]);
    assert!(ok, "explain failed:\n{out}");
    assert!(out.contains("waterfall"), "{out}");
    assert!(out.contains("decision tree:"), "{out}");
    assert!(out.contains("attribution:"), "{out}");
    // Each retained query names its recorded trace; the hop tree is the
    // explain's own, nothing of the recorder's ring is copied in.
    assert!(out.contains("(trace "), "{out}");
    assert!(
        !out.contains("(trace 0)"),
        "retained queries carry their trace:\n{out}"
    );
    assert!(!out.contains("flight recorder:"), "{out}");
}

#[test]
fn check_fails_cleanly_on_truncated_and_corrupt_artifacts() {
    // A slow-query report cut off mid-write (crashed bench run).
    let truncated = tmp("truncated_slow.json");
    std::fs::write(&truncated, r#"{"slow_queries":1,"retained":[{"#).unwrap();
    let (ok, out) = inspect(&["check", truncated.to_str().unwrap()]);
    assert!(!ok, "truncated JSON must fail:\n{out}");
    assert!(out.contains("FAIL"), "{out}");

    // A structurally valid slow doc whose retained entry is corrupt: the
    // explain record lost its hops array.
    let corrupt = tmp("corrupt_slow.json");
    std::fs::write(
        &corrupt,
        r#"{"slow_queries":1,"threshold_ms":1.0,"observed":3,"dropped":2,
            "retained":[{"reason":"slow","explain":{"query_id":9}}],"exemplars":[]}"#,
    )
    .unwrap();
    let (ok, out) = inspect(&["check", corrupt.to_str().unwrap()]);
    assert!(!ok, "corrupt retained entry must fail:\n{out}");
    assert!(out.contains("retained[0]"), "{out}");

    // An unknown retention reason (schema drift).
    let bad_reason = tmp("bad_reason_slow.json");
    std::fs::write(
        &bad_reason,
        r#"{"slow_queries":1,"threshold_ms":1.0,"observed":1,"dropped":0,
            "retained":[{"reason":"mystery","explain":{}}],"exemplars":[]}"#,
    )
    .unwrap();
    let (ok, out) = inspect(&["check", bad_reason.to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("unknown reason"), "{out}");

    // `explain` and `slow` reject the same artifacts with a message, not
    // a panic.
    for cmd in ["explain", "slow"] {
        let (ok, out) = inspect(&[cmd, corrupt.to_str().unwrap()]);
        assert!(!ok, "{cmd} accepted a corrupt artifact:\n{out}");
        assert!(out.contains("error:"), "{out}");
    }

    // A valid figure document whose trace file is truncated mid-array:
    // `check` fails on the trace, not on the figure.
    let mut figx = roads_telemetry::FigureExport::new("figx", "t").axes("x", "y");
    figx.push_series("s", &[(1.0, 2.0), (2.0, 3.0)]);
    let fig = tmp("figx.json");
    figx.write(&fig).unwrap();
    std::fs::write(tmp("figx.trace.json"), r#"{"traceEvents":[{"cat":"roa"#).unwrap();
    let (ok, out) = inspect(&["check", fig.to_str().unwrap()]);
    assert!(!ok, "truncated trace must fail:\n{out}");
    assert!(
        out.contains("FAIL") && out.contains("figx.trace.json"),
        "{out}"
    );

    // The same figure with a series whose `y` is shorter than its `x`
    // fails on the figure document itself.
    figx.series[0].y.pop();
    figx.write(&fig).unwrap();
    let (ok, out) = inspect(&["check", fig.to_str().unwrap()]);
    assert!(!ok, "unequal x/y must fail:\n{out}");
    assert!(out.contains("figx.json: series[0]"), "{out}");
}

/// Every figure document carries `schema_version`; `check` must route it
/// as a figure — against its trace file — and never to an artifact row.
#[test]
fn check_routes_a_figure_document_to_its_trace_not_an_artifact_row() {
    use roads_telemetry::{write_chrome_trace, EventKind, FigureExport, Json, Recorder, SpanId};
    let dir = tmp("figure-routing");
    let _ = std::fs::remove_file(dir.join("figy.trace.json"));
    let mut fig = FigureExport::new("figy", "routing fixture");
    fig.push_series("s", &[(1.0, 2.0)]);
    let fig_path = fig.write_in(&dir).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(&fig_path).unwrap()).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(1.0));
    let base = dir.join("figy");

    // No trace file yet: a figure fails on the trace, an artifact parser
    // would have complained about its own marker or fields instead.
    let (ok, out) = inspect(&["check", base.to_str().unwrap()]);
    assert!(!ok, "a figure without its trace must fail:\n{out}");
    assert!(out.contains("figy.trace.json"), "{out}");

    // With one complete span beside it, the figure checks.
    let rec = Recorder::new(16);
    let trace = rec.next_trace_id();
    rec.record_span(trace, SpanId::NONE, 0, EventKind::QueryStart, 0, 5, 0);
    write_chrome_trace("figy", &dir, &rec.events()).unwrap();
    let (ok, out) = inspect(&["check", base.to_str().unwrap()]);
    assert!(ok, "check rejected a valid figure:\n{out}");
    assert!(out.contains("1 spans, 1 traces"), "{out}");
}

/// `summary` shows every point of a short series, so an interior cell
/// (fig18's 1 % churn, the one its floor gates) is on screen, and keeps a
/// long series to its first and last values.
#[test]
fn summary_prints_every_point_of_a_short_series() {
    use roads_telemetry::FigureExport;
    let dir = tmp("summary-points");
    let mut fig = FigureExport::new("figz", "summary fixture");
    let churn = [
        (0.001, 1000.0),
        (0.01, 10000.0),
        (0.05, 50000.0),
        (0.2, 200000.0),
    ];
    fig.push_series("changes_per_round", &churn);
    let long: Vec<(f64, f64)> = (0..13).map(|i| (i as f64, 2.0 * i as f64)).collect();
    fig.push_series("long", &long);
    fig.write_in(&dir).unwrap();
    let (ok, out) = inspect(&["summary", dir.join("figz").to_str().unwrap()]);
    assert!(ok, "{out}");
    let line = |name: &str| {
        out.lines()
            .find(|l| l.contains(name))
            .unwrap_or("")
            .to_string()
    };
    assert!(
        line("changes_per_round")
            .ends_with("4 points, 0.001:1000.000 0.01:10000.000 0.05:50000.000 0.2:200000.000"),
        "{out}"
    );
    assert!(
        line("long").ends_with("13 points, 0.000 -> 24.000"),
        "{out}"
    );
}

/// Strictness the per-artifact readers had drifted on: a negative or
/// fractional count used to be truncated by `as u64`, and a hop that lost
/// `dur_us` used to read as 0. Through the one artifact layer each fails
/// `check`, naming the offending path.
#[test]
fn check_rejects_bad_counts_and_missing_required_fields_by_path() {
    let audit = tmp("negative_probes_audit.json");
    std::fs::write(
        &audit,
        r#"{"audit":1,"epoch":1,"ticks":2,"divergence":0,"staleness_p99":0,
            "max_drift":0,"bloom_saturation":0,
            "levels":[{"level":0,"entries":4,"probes":-1,"false_positives":0,
                       "false_negatives":0,"diverged":0,"staleness_max":0,
                       "live_probes":0,"live_false_positives":0}]}"#,
    )
    .unwrap();
    let (ok, out) = inspect(&["check", audit.to_str().unwrap()]);
    assert!(!ok, "a negative count must fail:\n{out}");
    assert!(out.contains("levels[0].probes"), "{out}");

    let fractional = tmp("fractional_ticks_audit.json");
    std::fs::write(
        &fractional,
        r#"{"audit":1,"epoch":1,"ticks":1.5,"divergence":0,"staleness_p99":0,
            "max_drift":0,"bloom_saturation":0,"levels":[]}"#,
    )
    .unwrap();
    let (ok, out) = inspect(&["check", fractional.to_str().unwrap()]);
    assert!(!ok, "a fractional count must fail:\n{out}");
    assert!(out.contains("ticks: ticks must be an integer"), "{out}");

    let slow = tmp("hop_without_dur_slow.json");
    std::fs::write(
        &slow,
        r#"{"slow_queries":1,"threshold_ms":1.0,"observed":1,"dropped":0,
            "retained":[{"reason":"slow","explain":{
                "query_id":9,"trace_id":0,"entry":0,"response_us":5000,
                "complete":true,"deadline_hit":false,"records":1,
                "attribution":{"queue_us":1,"network_us":2,"compute_us":3,
                               "retry_us":0,"failover_us":0},
                "hops":[{"server":0,"decision":"entry","false_positive":false,
                         "outcome":"replied","at_us":0,"local_matches":1,
                         "split":{"queue_us":1,"network_us":2,"compute_us":3,
                                  "backoff_us":0}}]}}],
            "exemplars":[]}"#,
    )
    .unwrap();
    let (ok, out) = inspect(&["check", slow.to_str().unwrap()]);
    assert!(!ok, "a hop without dur_us must fail:\n{out}");
    assert!(out.contains("retained[0].explain.hops[0].dur_us"), "{out}");
    // The same fixture with the field restored is a valid document, so
    // the failure above is about `dur_us` and nothing else.
    let fixed = std::fs::read_to_string(&slow)
        .unwrap()
        .replace(r#""at_us":0,"#, r#""at_us":0,"dur_us":5000,"#);
    std::fs::write(&slow, fixed).unwrap();
    let (ok, out) = inspect(&["check", slow.to_str().unwrap()]);
    assert!(ok, "the repaired fixture must pass:\n{out}");
}

#[test]
fn health_renders_a_table_from_a_live_snapshot() {
    use roads_bench::live::line_net;
    use roads_core::ServerId;
    use roads_netsim::DelaySpace;
    use roads_records::{QueryBuilder, QueryId};
    use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
    use roads_telemetry::Registry;

    let n = 6;
    let net = line_net(n, 5, 64);
    let reg = Registry::new();
    let c = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 3),
        RuntimeConfig::test_fast(),
        Attachments::instrumented(&reg),
    );
    let q = QueryBuilder::new(c.network().schema(), QueryId(1))
        .range("x0", 0.0, 1.0)
        .build();
    let root = c.network().tree().root();
    c.query(&q, root);
    c.kill_server(ServerId(if root.0 == 0 { 1 } else { 0 }));
    let live = c.health().expect("instrumented cluster");
    c.shutdown();
    assert!(
        live.servers.iter().any(|s| s.dispatch_p99_ms.is_some()),
        "no server replied:\n{live}"
    );
    let path = tmp("HEALTH.json");
    live.write(&path).unwrap();

    // The artifact reads back as the live table, p99 column included.
    let (ok, out) = inspect(&["health", path.to_str().unwrap()]);
    assert!(ok, "health failed:\n{out}");
    assert!(out.contains(&format!("{}/{n} alive", n - 1)), "{out}");
    assert!(out.contains("DOWN"), "{out}");
    assert_eq!(out, live.to_string());

    // Garbage and a Prometheus text exposition fail cleanly, at parsing.
    for (name, body) in [
        ("garbage.json", "not a snapshot\n"),
        (
            "prometheus.json",
            "# TYPE roads_cache_hits counter\nroads_cache_hits_total 3\n# EOF\n",
        ),
    ] {
        let path = tmp(name);
        std::fs::write(&path, body).unwrap();
        let (ok, out) = inspect(&["health", path.to_str().unwrap()]);
        assert!(!ok, "{name} accepted:\n{out}");
        assert!(out.contains(name) && !out.contains("No such file"), "{out}");
    }
}
