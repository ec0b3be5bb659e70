//! `roads-inspect` — offline inspector for figure results and flight
//! recorder traces.
//!
//! ```text
//! roads-inspect summary <base>          # run summary + slowest-query critical path
//! roads-inspect diff <base-a> <base-b>  # series/reference regression report
//! roads-inspect check <base>...         # CI gate: valid figure documents and artifacts
//! roads-inspect health <scrape.txt>     # cluster health table from an
//!                                       # OpenMetrics scrape
//! roads-inspect explain <artifact> [query-id]
//!                                       # hop waterfall + decision tree of
//!                                       # retained tail queries
//! roads-inspect slow <artifact>         # ranked tail table with latency
//!                                       # attribution
//! roads-inspect audit <artifact>        # per-level summary-fidelity table
//!                                       # from an AUDIT.json artifact
//! roads-inspect delta <artifact>        # incremental-update summary from
//!                                       # a DELTA.json artifact
//! roads-inspect incidents <artifact>    # watchdog incident timeline from
//!                                       # an INCIDENTS.json artifact
//! ```
//!
//! `<base>` is a result stem such as `results/fig3_latency_vs_nodes`; the
//! inspector loads `<base>.json` (the [`FigureExport`] document) and, when
//! present, `<base>.trace.json` (the Chrome/Perfetto flight-recorder
//! export). A trailing `.json` on the argument is accepted and stripped.
//!
//! `check` exits non-zero when a figure document is missing or malformed,
//! or when its trace file is missing, malformed, or contains zero complete
//! (`ph == "X"`) spans — the CI smoke test runs it after a `--quick`
//! figure binary. A document carrying the marker key of a strict artifact
//! — `SLOW_QUERIES`, `AUDIT` and `INCIDENTS` from `bench_suite`,
//! `DELTA` from `fig18_delta_churn`, one row each in
//! [`roads_bench::artifacts::ARTIFACTS`] — takes that row's path instead
//! and expects no trace file: the artifact layer
//! ([`roads_telemetry::json::artifact`]) requires every declared field to
//! be present and well-typed and names each offending path
//! (`levels[0].probes`), then the artifact's own `validate` re-enforces
//! its cross-field invariants offline (retained span trees reconstruct,
//! the delta path's speedup floor and change accounting).
//!
//! `incidents` renders the watchdog incident timeline of an
//! `INCIDENTS.json` artifact: one block per incident with its firing
//! window, detectors, matched fault and detection latency, and the
//! ranked suspected-cause list.
//!
//! `audit` renders the per-level summary-fidelity table of an
//! `AUDIT.json` artifact: ground-truth probes, FP/FN rates, overlay
//! divergence and staleness per hierarchy level.
//!
//! `explain` renders every retained query of a `SLOW_QUERIES.json`
//! artifact as a hop-by-hop waterfall plus the decision tree of *why*
//! each server was contacted; an optional trailing query id narrows the
//! render to one query. `slow` renders the ranked tail table with the
//! queue/network/compute/retry/failover attribution of each retained
//! query.
//!
//! [`QueryExplain`]: roads_telemetry::QueryExplain
//!
//! `health` rebuilds the per-server liveness/queue/latency table of
//! [`ClusterHealth`] from `runtime.*` series in a saved OpenMetrics scrape
//! of an instrumented live cluster.
//!
//! [`ClusterHealth`]: roads_runtime::ClusterHealth
//!
//! [`FigureExport`]: roads_telemetry::FigureExport

use roads_bench::{artifacts, explain_view};
use roads_runtime::ClusterHealth;
use roads_telemetry::{
    critical_path, json, parse_openmetrics, slowest_trace, span_tree_root, trace_ids, Event,
    EventKind, Json, SlowDoc, SpanId, TraceId,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `slow`, `audit`, `delta`, `incidents`: the artifact views.
    if let [cmd, path] = args.as_slice() {
        if let Some(render) = artifacts::view(cmd) {
            return print_view(path, render);
        }
    }
    match args.split_first() {
        Some((cmd, rest)) if cmd == "summary" && rest.len() == 1 => summary(&rest[0]),
        Some((cmd, rest)) if cmd == "diff" && rest.len() == 2 => diff(&rest[0], &rest[1]),
        Some((cmd, rest)) if cmd == "check" && !rest.is_empty() => check(rest),
        Some((cmd, rest)) if cmd == "health" && rest.len() == 1 => health(&rest[0]),
        Some((cmd, rest)) if cmd == "explain" && (rest.len() == 1 || rest.len() == 2) => {
            explain(&rest[0], rest.get(1).and_then(|q| q.parse().ok()))
        }
        _ => {
            eprintln!("usage: roads-inspect summary <base>");
            eprintln!("       roads-inspect diff <base-a> <base-b>");
            eprintln!("       roads-inspect check <base>...");
            eprintln!("       roads-inspect health <scrape.txt>");
            eprintln!("       roads-inspect explain <slow-queries.json> [query-id]");
            eprintln!("       roads-inspect slow <slow-queries.json>");
            eprintln!("       roads-inspect audit <audit.json>");
            eprintln!("       roads-inspect delta <delta.json>");
            eprintln!("       roads-inspect incidents <incidents.json>");
            eprintln!("  <base> is a result stem, e.g. results/fig3_latency_vs_nodes");
            ExitCode::from(2)
        }
    }
}

/// Expand a result stem into its figure and trace paths, accepting an
/// argument that already carries the `.json` suffix.
fn expand(base: &str) -> (PathBuf, PathBuf) {
    let stem = base
        .strip_suffix(".trace.json")
        .or_else(|| base.strip_suffix(".json"))
        .unwrap_or(base);
    (
        PathBuf::from(format!("{stem}.json")),
        PathBuf::from(format!("{stem}.trace.json")),
    )
}

/// Reconstruct flight-recorder events from an exported Chrome trace:
/// every `cat == "roads"` entry carries trace/span/parent/detail in its
/// `args`, `ts`/`dur` in microseconds, and the node as `tid`.
fn parse_trace_events(doc: &Json) -> Result<Vec<Event>, String> {
    let entries = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::new();
    for entry in entries {
        if entry.get("cat").and_then(Json::as_str_val) != Some("roads") {
            continue;
        }
        let kind = entry
            .get("name")
            .and_then(Json::as_str_val)
            .and_then(EventKind::parse);
        let Some(kind) = kind else { continue };
        let num = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let arg = |key: &str| {
            entry
                .get("args")
                .and_then(|a| a.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        events.push(Event {
            at_us: num("ts") as u64,
            dur_us: num("dur") as u64,
            node: num("tid") as u32,
            trace: TraceId(arg("trace") as u64),
            span: SpanId(arg("span") as u64),
            parent: SpanId(arg("parent") as u64),
            kind,
            detail: arg("detail") as u64,
        });
    }
    Ok(events)
}

fn series_of(doc: &Json) -> Vec<(String, Vec<f64>)> {
    doc.get("series")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| {
                    let name = s.get("name")?.as_str_val()?.to_string();
                    let y = s
                        .get("y")?
                        .as_arr()?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    Some((name, y))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn references_of(doc: &Json) -> Vec<(String, f64, f64)> {
    doc.get("reference")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|r| {
                    Some((
                        r.get("name")?.as_str_val()?.to_string(),
                        r.get("measured")?.as_f64()?,
                        r.get("paper")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn summary(base: &str) -> ExitCode {
    let (fig_path, trace_path) = expand(base);
    let doc = match json::load_json(&fig_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let title = doc
        .get("title")
        .and_then(Json::as_str_val)
        .unwrap_or("(untitled)");
    let figure = doc
        .get("figure")
        .and_then(Json::as_str_val)
        .unwrap_or("(unknown)");
    println!("figure : {figure}");
    println!("title  : {title}");
    let series = series_of(&doc);
    println!("series : {}", series.len());
    for (name, y) in &series {
        let (first, last) = (y.first().copied(), y.last().copied());
        match (first, last) {
            (Some(f), Some(l)) => {
                println!("  {name:<28} {} points, {f:.3} -> {l:.3}", y.len())
            }
            _ => println!("  {name:<28} empty"),
        }
    }
    let refs = references_of(&doc);
    if !refs.is_empty() {
        println!("paper references:");
        for (name, measured, paper) in &refs {
            let ratio = if *paper != 0.0 {
                format!("{:.2}x", measured / paper)
            } else {
                "-".to_string()
            };
            println!("  {name:<34} measured {measured:.3} vs paper {paper:.3} ({ratio})");
        }
    }

    match json::load_json(&trace_path).and_then(|d| parse_trace_events(&d)) {
        Ok(events) if !events.is_empty() => {
            let traces = trace_ids(&events);
            println!(
                "trace  : {} events across {} traces ({})",
                events.len(),
                traces.len(),
                trace_path.display()
            );
            if let Some(slowest) = slowest_trace(&events) {
                let path = critical_path(&events, slowest);
                println!("critical path of slowest trace (id {}):", slowest.0);
                for e in &path {
                    println!(
                        "  t={:>9}us +{:>7}us  server-{:<4} {:<16} detail={}",
                        e.at_us,
                        e.dur_us,
                        e.node,
                        e.kind.as_str(),
                        e.detail
                    );
                }
            }
        }
        Ok(_) => println!("trace  : {} has no roads events", trace_path.display()),
        Err(e) => println!("trace  : unavailable ({e})"),
    }
    ExitCode::SUCCESS
}

fn diff(base_a: &str, base_b: &str) -> ExitCode {
    let (fig_a, _) = expand(base_a);
    let (fig_b, _) = expand(base_b);
    let (doc_a, doc_b) = match (json::load_json(&fig_a), json::load_json(&fig_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for r in [a, b] {
                if let Err(e) = r {
                    eprintln!("error: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    println!("diff {} -> {}", fig_a.display(), fig_b.display());
    let series_b = series_of(&doc_b);
    let mut regressions = 0usize;
    for (name, ya) in series_of(&doc_a) {
        let Some((_, yb)) = series_b.iter().find(|(n, _)| *n == name) else {
            println!("  {name:<28} only in {}", fig_a.display());
            continue;
        };
        let mean = |y: &[f64]| y.iter().sum::<f64>() / y.len().max(1) as f64;
        let (ma, mb) = (mean(&ya), mean(yb));
        let delta_pct = if ma != 0.0 {
            (mb - ma) / ma.abs() * 100.0
        } else {
            0.0
        };
        let flag = if delta_pct.abs() > 10.0 {
            regressions += 1;
            "  <-- changed >10%"
        } else {
            ""
        };
        println!("  {name:<28} mean {ma:.3} -> {mb:.3} ({delta_pct:+.1}%){flag}");
    }
    for (name, _) in &series_b {
        if !series_of(&doc_a).iter().any(|(n, _)| n == name) {
            println!("  {name:<28} only in {}", fig_b.display());
        }
    }
    let refs_b = references_of(&doc_b);
    for (name, ma, paper) in references_of(&doc_a) {
        if let Some((_, mb, _)) = refs_b.iter().find(|(n, _, _)| *n == name) {
            println!("  ref {name:<30} measured {ma:.3} -> {mb:.3} (paper {paper:.3})");
        }
    }
    if regressions > 0 {
        println!("{regressions} series changed by more than 10%");
    } else {
        println!("no series changed by more than 10%");
    }
    ExitCode::SUCCESS
}

/// The verdict on one `check` argument: the `OK` summary, or the `FAIL`
/// reason (which names the offending file).
fn check_one(base: &str) -> Result<String, String> {
    let (fig_path, trace_path) = expand(base);
    let doc = json::load_json(&fig_path)?;
    // Strict artifacts validate through their row of the table and carry
    // no trace file.
    if let Some(row) = artifacts::row_for(&doc) {
        return (row.check)(&doc).map_err(|e| format!("{}: {e}", fig_path.display()));
    }
    if doc.get("figure").and_then(Json::as_str_val).is_none() {
        return Err(format!("{}: not a figure document", fig_path.display()));
    }
    let events = json::load_json(&trace_path).and_then(|d| parse_trace_events(&d))?;
    let spans = events.iter().filter(|e| e.dur_us > 0).count();
    if spans == 0 {
        return Err(format!(
            "{}: no complete (ph=X) spans",
            trace_path.display()
        ));
    }
    // Every recorded trace must form a valid span tree.
    let traces = trace_ids(&events);
    for &t in &traces {
        let tev: Vec<Event> = events.iter().filter(|e| e.trace == t).copied().collect();
        span_tree_root(&tev, t)
            .map_err(|e| format!("{}: trace {}: {e}", trace_path.display(), t.0))?;
    }
    Ok(format!("{spans} spans, {} traces", traces.len()))
}

fn check(bases: &[String]) -> ExitCode {
    let mut failed = false;
    for base in bases {
        match check_one(base) {
            Ok(summary) => println!("OK   {base}: {summary}"),
            Err(e) => {
                eprintln!("FAIL {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn explain(path: &str, query_id: Option<u64>) -> ExitCode {
    let slow = match SlowDoc::load(&expand(path).0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<_> = slow
        .retained
        .iter()
        .filter(|e| query_id.is_none_or(|q| e.explain.query_id == q))
        .collect();
    if selected.is_empty() {
        match query_id {
            Some(q) => eprintln!("error: no retained query with id {q}"),
            None => eprintln!("error: report retained no queries"),
        }
        return ExitCode::FAILURE;
    }
    for (i, entry) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("retained [{}]:", entry.reason.as_str());
        print!("{}", explain_view::render_waterfall(&entry.explain));
        println!("decision tree:");
        print!("{}", explain_view::render_decision_tree(&entry.explain));
        if !entry.events.is_empty() {
            println!(
                "flight recorder: {} events retained for trace {}",
                entry.events.len(),
                entry.explain.trace_id
            );
        }
    }
    ExitCode::SUCCESS
}

/// Load the artifact at `path`, parse it strictly and print `render`'s
/// view of it.
fn print_view(path: &str, render: artifacts::Describe) -> ExitCode {
    let (fig_path, _) = expand(path);
    let rendered = json::load_json(&fig_path)
        .and_then(|doc| render(&doc).map_err(|e| format!("{}: {e}", fig_path.display())));
    match rendered {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Rebuild the cluster health table from a saved scrape and print it.
fn health(path: &str) -> ExitCode {
    let table = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_openmetrics(&text))
        .and_then(|scrape| ClusterHealth::from_scrape(&scrape));
    match table {
        Ok(h) => {
            print!("{h}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
