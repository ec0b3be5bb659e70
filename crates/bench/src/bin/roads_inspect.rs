//! `roads-inspect` — offline inspector for figure results and flight
//! recorder traces.
//!
//! ```text
//! roads-inspect summary <base>          # run summary + slowest-query critical path
//! roads-inspect diff <base-a> <base-b>  # series/reference regression report
//! roads-inspect check <base>...         # CI gate: valid figure documents and artifacts
//! roads-inspect health <artifact>       # cluster health table from a
//!                                       # health snapshot artifact
//! roads-inspect explain <artifact> [query-id]
//!                                       # hop waterfall + decision tree of
//!                                       # retained tail queries
//! roads-inspect slow <artifact>         # ranked tail table with latency
//!                                       # attribution
//! roads-inspect audit <artifact>        # per-level summary-fidelity table
//!                                       # from an AUDIT.json artifact
//! ```
//!
//! `<base>` is a result stem such as `results/fig3_latency_vs_nodes`; the
//! inspector loads `<base>.json` (the [`FigureExport`] document) and, when
//! present, `<base>.trace.json` (the Chrome/Perfetto flight-recorder
//! export). A trailing `.json` on the argument is accepted and stripped.
//!
//! Every document `summary`, `diff` and `check` read goes through the
//! artifact layer ([`roads_telemetry::json::artifact`]): every declared
//! field must be present and well-typed, each offending path is named
//! (`series[0].y[2]`, `levels[0].probes`), then the document's own
//! `validate` re-enforces its cross-field invariants offline. A figure
//! document (marker `schema_version`) must have as many `y` as `x`
//! values per series and unique series and reference names. `check`
//! then also reads its trace file — hand-read, since Perfetto defines
//! that format — and fails when it is missing, malformed, contains zero
//! complete (`ph == "X"`) spans, or a trace that is no span tree; the CI
//! smoke test runs it over every `--quick` figure. A document carrying
//! the marker key of another artifact — `SLOW_QUERIES`, `AUDIT` and
//! `CACHE_HEALTH` / `HEALTH` from `bench_suite`, one row each in
//! [`roads_bench::artifacts::ARTIFACTS`] — takes that row's path instead
//! and expects no trace file (its `validate`: for example, retained hop
//! trees are trees).
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
//! `health` prints the per-server liveness/queue/latency table of a
//! [`ClusterHealth`] artifact (`CACHE_HEALTH.json`, `HEALTH.json`) exactly as the live
//! cluster's `health()` renders it.
//!
//! [`ClusterHealth`]: roads_runtime::ClusterHealth
//!
//! [`FigureExport`]: roads_telemetry::FigureExport

use roads_bench::{artifacts, explain_view};
use roads_telemetry::{
    critical_path, json, slowest_trace, span_tree_root, trace_ids, Event, EventKind, FigureExport,
    Json, SlowDoc, SpanId, TraceId,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `slow`, `audit`, `health`: the artifact views.
    if let [cmd, path] = args.as_slice() {
        if let Some(render) = artifacts::view(cmd) {
            return print_view(path, render);
        }
    }
    match args.split_first() {
        Some((cmd, rest)) if cmd == "summary" && rest.len() == 1 => summary(&rest[0]),
        Some((cmd, rest)) if cmd == "diff" && rest.len() == 2 => diff(&rest[0], &rest[1]),
        Some((cmd, rest)) if cmd == "check" && !rest.is_empty() => check(rest),
        Some((cmd, rest)) if cmd == "explain" && (rest.len() == 1 || rest.len() == 2) => {
            explain(&rest[0], rest.get(1).and_then(|q| q.parse().ok()))
        }
        _ => {
            eprintln!("usage: roads-inspect summary <base>");
            eprintln!("       roads-inspect diff <base-a> <base-b>");
            eprintln!("       roads-inspect check <base>...");
            eprintln!("       roads-inspect health <health.json>");
            eprintln!("       roads-inspect explain <slow-queries.json> [query-id]");
            eprintln!("       roads-inspect slow <slow-queries.json>");
            eprintln!("       roads-inspect audit <audit.json>");
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

/// Load `<base>.json` strictly as a figure document.
fn load_figure(base: &str) -> Result<FigureExport, String> {
    FigureExport::load(&expand(base).0)
}

/// `summary` prints every `x:y` point of a series this short, and only
/// `first -> last` of a longer one.
const SUMMARY_POINTS: usize = 12;

fn summary(base: &str) -> ExitCode {
    let fig = match load_figure(base) {
        Ok(fig) => fig,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_path = expand(base).1;
    println!("figure : {}", fig.figure);
    println!("title  : {}", fig.title);
    println!("series : {}", fig.series.len());
    for s in &fig.series {
        let (name, n) = (&s.name, s.y.len());
        match (s.y.first(), s.y.last()) {
            (Some(_), Some(_)) if n <= SUMMARY_POINTS => {
                let points: Vec<String> = (s.x.iter().zip(&s.y))
                    .map(|(x, y)| format!("{x}:{y:.3}"))
                    .collect();
                println!("  {name:<28} {n} points, {}", points.join(" "))
            }
            (Some(f), Some(l)) => println!("  {name:<28} {n} points, {f:.3} -> {l:.3}"),
            _ => println!("  {name:<28} empty"),
        }
    }
    if !fig.reference.is_empty() {
        println!("paper references:");
        for r in &fig.reference {
            let (name, measured, paper) = (&r.name, r.measured, r.paper);
            let ratio = if paper != 0.0 {
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
    let (fig_a, fig_b) = (expand(base_a).0, expand(base_b).0);
    let (doc_a, doc_b) = match (load_figure(base_a), load_figure(base_b)) {
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
    let mut regressions = 0usize;
    for sa in &doc_a.series {
        let name = &sa.name;
        let Some(sb) = doc_b.series.iter().find(|s| s.name == *name) else {
            println!("  {name:<28} only in {}", fig_a.display());
            continue;
        };
        let mean = |y: &[f64]| y.iter().sum::<f64>() / y.len().max(1) as f64;
        let (ma, mb) = (mean(&sa.y), mean(&sb.y));
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
    for sb in &doc_b.series {
        if !doc_a.series.iter().any(|s| s.name == sb.name) {
            println!("  {:<28} only in {}", sb.name, fig_b.display());
        }
    }
    for ra in &doc_a.reference {
        if let Some(rb) = doc_b.reference.iter().find(|r| r.name == ra.name) {
            let (name, ma, mb, paper) = (&ra.name, ra.measured, rb.measured, ra.paper);
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
    FigureExport::from_json(&doc).map_err(|e| format!("{}: {e}", fig_path.display()))?;
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
