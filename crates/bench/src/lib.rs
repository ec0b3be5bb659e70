//! Shared experiment harness regenerating the paper's tables and figures.
//!
//! Every figure binary in `src/bin/` drives [`run_comparison`] (or the
//! prototype runtime, over the fixtures of [`live`]) over the sweep its
//! figure uses and prints the series
//! the paper plots, next to the paper's reference values where the text
//! states them. `EXPERIMENTS.md` at the repository root records a full
//! paper-vs-measured comparison.
//!
//! All experiments default to the paper's parameters (§V): 320 nodes × 500
//! records × 16 attributes, 500 six-dimensional queries with 0.25-length
//! ranges, degree-8 hierarchy, 1000-bucket histograms, results averaged
//! over 10 runs. Binaries accept `--runs N` and `--quick` (a scaled-down
//! sweep for smoke testing).

pub mod artifacts;
pub mod chart;
pub mod explain_view;
pub mod live;

use roads_central::CentralRepository;
use roads_core::{execute_query_with, explain_from_trace, QueryOptions, RoadsConfig, RoadsNetwork};
use roads_netsim::DelaySpace;
use roads_records::{Query, Record, Schema};
use roads_summary::SummaryConfig;
use roads_sword::SwordNetwork;
use roads_telemetry::{
    aggregate_traces, ExplainDecision, LatencyStats, MetricsSnapshot, QueryExplain, Registry,
    TraceReport,
};
use roads_workload::{
    default_schema, generate_node_records, generate_overlap_records, generate_queries,
    QueryWorkloadConfig, RecordWorkloadConfig,
};

/// One experiment's parameters (paper defaults unless overridden).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialConfig {
    /// Number of nodes (each a server + resource owner).
    pub nodes: usize,
    /// Records per node.
    pub records_per_node: usize,
    /// Attributes per record.
    pub attrs: usize,
    /// Query dimensionality.
    pub query_dims: usize,
    /// Queries per run.
    pub queries: usize,
    /// ROADS hierarchy degree.
    pub degree: usize,
    /// Histogram buckets per attribute.
    pub buckets: usize,
    /// Independent runs to average over.
    pub runs: usize,
    /// Base RNG seed (each run offsets it).
    pub seed: u64,
    /// Overlap factor for Fig. 9 workloads (`None` = default workload).
    pub overlap_factor: Option<f64>,
    /// Summary refresh period ts (ms).
    pub ts_ms: u64,
    /// Record refresh period tr (ms).
    pub tr_ms: u64,
    /// Worker threads for the network build (1 = sequential). The build
    /// is thread-count-invariant, so this only changes wall-clock time.
    pub build_threads: usize,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            nodes: 320,
            records_per_node: 500,
            attrs: 16,
            query_dims: 6,
            queries: 500,
            degree: 8,
            buckets: 1000,
            runs: 10,
            seed: 42,
            overlap_factor: None,
            ts_ms: 60_000,
            tr_ms: 6_000,
            build_threads: 1,
        }
    }
}

impl TrialConfig {
    /// Scaled-down settings for smoke tests (`--quick`).
    pub fn quick() -> Self {
        TrialConfig {
            nodes: 64,
            records_per_node: 50,
            queries: 50,
            buckets: 200,
            runs: 2,
            ..Self::default()
        }
    }

    /// The ROADS configuration of this trial: its hierarchy degree,
    /// histogram buckets and summary refresh period.
    pub fn roads_config(&self) -> RoadsConfig {
        RoadsConfig {
            max_children: self.degree,
            summary: SummaryConfig::with_buckets(self.buckets),
            ts_ms: self.ts_ms,
            ..RoadsConfig::paper_default()
        }
    }
}

/// Aggregated results of one ROADS-vs-SWORD(-vs-central) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// ROADS query latency over all queries and runs.
    pub roads_latency: LatencyStats,
    /// SWORD query latency.
    pub sword_latency: LatencyStats,
    /// Mean ROADS query-forwarding bytes per query.
    pub roads_query_bytes: f64,
    /// Mean SWORD query-forwarding bytes per query.
    pub sword_query_bytes: f64,
    /// ROADS update overhead, bytes per second (summaries every ts).
    pub roads_update_bps: f64,
    /// SWORD update overhead, bytes per second (records every tr).
    pub sword_update_bps: f64,
    /// Central-repository update overhead, bytes per second.
    pub central_update_bps: f64,
    /// Mean servers contacted per ROADS query.
    pub roads_servers_contacted: f64,
    /// Mean servers contacted per SWORD query.
    pub sword_servers_contacted: f64,
}

/// The paper's workload (§V) for run `run` of `cfg`: the schema, each
/// node's records (the Fig. 9 placement when `cfg.overlap_factor` is set)
/// and the queries with their entry nodes, seeded from `cfg.seed` and
/// `run`.
pub fn paper_workload(
    cfg: &TrialConfig,
    run: usize,
) -> (Schema, Vec<Vec<Record>>, Vec<(Query, usize)>) {
    let seed = cfg.seed.wrapping_add(run as u64 * 7919);
    let rec_cfg = RecordWorkloadConfig {
        nodes: cfg.nodes,
        records_per_node: cfg.records_per_node,
        attrs: cfg.attrs,
        seed,
    };
    let records = match cfg.overlap_factor {
        Some(of) => generate_overlap_records(&rec_cfg, of),
        None => generate_node_records(&rec_cfg),
    };
    let schema = default_schema(cfg.attrs);
    let queries = generate_queries(
        &schema,
        &QueryWorkloadConfig {
            count: cfg.queries,
            dims: cfg.query_dims,
            range_len: 0.25,
            nodes: cfg.nodes,
            seed: seed ^ 0xABCD,
        },
    );
    (schema, records, queries)
}

/// Run the full comparison for one configuration.
///
/// With `telemetry`, every query is additionally recorded into the
/// registry (counters + latency histograms under `roads.*`, `sword.*`,
/// `central.*`) and every ROADS execution is explained, returning the
/// aggregated [`TraceReport`] and the explains themselves — the queries'
/// traces, which [`roads_telemetry::write_chrome_trace_default`] writes
/// as one Chrome/Perfetto trace. Without it this is the uninstrumented
/// comparison — no contact log, no counters, no extra allocation on the
/// query path — and the explains are empty.
pub fn run_comparison(
    cfg: &TrialConfig,
    telemetry: Option<&Registry>,
) -> (ComparisonResult, Option<TraceReport>, Vec<QueryExplain>) {
    let mut roads_lat = Vec::new();
    let mut sword_lat = Vec::new();
    let mut roads_qb = 0.0;
    let mut sword_qb = 0.0;
    let mut roads_contacted = 0.0;
    let mut sword_contacted = 0.0;
    let mut roads_bps = 0.0;
    let mut sword_bps = 0.0;
    let mut central_bps = 0.0;
    let total_queries = (cfg.queries * cfg.runs) as f64;
    let mut traces: Vec<QueryExplain> = Vec::new();
    let mut root = 0u32;

    for run in 0..cfg.runs {
        let (schema, records, queries) = paper_workload(cfg, run);
        let delays = DelaySpace::paper(cfg.nodes, cfg.seed.wrapping_add(run as u64));

        let roads = RoadsNetwork::build_with(
            schema.clone(),
            cfg.roads_config(),
            records.clone(),
            roads_core::BuildOptions::with_threads(cfg.build_threads),
        );
        let sword = SwordNetwork::build(schema.clone(), records.clone());
        let central = CentralRepository::build(0, records.clone());

        root = roads.tree().root().0;

        for (q, start) in &queries {
            let entry = roads_core::ServerId(*start as u32);
            let mut trace = Vec::new();
            let log = telemetry.is_some().then_some(&mut trace);
            let r = execute_query_with(&roads, &delays, q, entry, &QueryOptions::default(), log);
            if let Some(reg) = telemetry {
                traces.push(explain_from_trace(
                    &roads,
                    q,
                    &trace,
                    ExplainDecision::Entry,
                ));
                roads_core::record_query_outcome(reg, &r);
            }
            roads_lat.push(r.latency_ms);
            roads_qb += r.query_bytes as f64;
            roads_contacted += r.servers_contacted as f64;

            let s = sword.execute_query(&delays, q, *start);
            if let Some(reg) = telemetry {
                roads_sword::record_query_outcome(reg, &s);
                roads_central::record_query_outcome(
                    reg,
                    &central.execute_query(&delays, q, *start),
                );
            }
            sword_lat.push(s.latency_ms);
            sword_qb += s.query_bytes as f64;
            sword_contacted += s.servers_contacted as f64;
        }

        roads_bps += roads_core::update_round(&roads).bytes_per_second(cfg.ts_ms);
        sword_bps += sword.update_round().bytes_per_second(cfg.tr_ms);
        central_bps += central.update_round().bytes_per_second(cfg.tr_ms);
    }

    let runs = cfg.runs as f64;
    let result = ComparisonResult {
        roads_latency: LatencyStats::from_samples(&roads_lat).expect("runs > 0"),
        sword_latency: LatencyStats::from_samples(&sword_lat).expect("runs > 0"),
        roads_query_bytes: roads_qb / total_queries,
        sword_query_bytes: sword_qb / total_queries,
        roads_update_bps: roads_bps / runs,
        sword_update_bps: sword_bps / runs,
        central_update_bps: central_bps / runs,
        roads_servers_contacted: roads_contacted / total_queries,
        sword_servers_contacted: sword_contacted / total_queries,
    };
    let report = telemetry.map(|_| aggregate_traces(&traces, root, cfg.nodes));
    (result, report, traces)
}

/// Parse the common CLI flags shared by all figure binaries: `--quick`
/// (alias `--smoke`), `--runs N`, `--seed S`, `--threads T`, in that
/// order.
pub fn parse_args() -> (bool, Option<usize>, Option<u64>, Option<usize>) {
    let mut quick = false;
    let mut runs = None;
    let mut seed = None;
    let mut threads = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--runs" => runs = Some(required_number(&mut args, "--runs")),
            "--seed" => seed = Some(required_number(&mut args, "--seed")),
            "--threads" => threads = Some(required_number(&mut args, "--threads")),
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    (quick, runs, seed, threads)
}

fn required_number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} requires a number");
            std::process::exit(2);
        }
    }
}

/// Base config for a figure binary honoring `--quick`, `--runs`, `--seed`,
/// `--threads`.
pub fn figure_config() -> TrialConfig {
    let (quick, runs, seed, threads) = parse_args();
    let mut cfg = if quick {
        TrialConfig::quick()
    } else {
        TrialConfig::default()
    };
    if let Some(r) = runs {
        cfg.runs = r;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(t) = threads {
        cfg.build_threads = t.max(1);
    }
    cfg
}

/// Print a figure banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("paper reference: {paper_ref}");
    println!("==================================================================");
}

/// One-line run digest every figure binary prints at exit: total
/// queries driven through any plane (`*.queries` counters), retries,
/// and the p99 query latency (simulation plane first, live runtime
/// plane as fallback).
pub fn metrics_digest(snap: &MetricsSnapshot) -> String {
    let queries: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".queries") && !k.ends_with(".incomplete_queries"))
        .map(|(_, &v)| v)
        .sum();
    let retries: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".retries"))
        .map(|(_, &v)| v)
        .sum();
    let p99 = snap
        .histograms
        .get("roads.query_latency_ms")
        .or_else(|| snap.histograms.get("runtime.query_response_ms"))
        .map(|h| format!("{:.1}", h.p99))
        .unwrap_or_else(|| "-".to_string());
    format!("[metrics] queries={queries} retries={retries} p99_query_ms={p99}")
}

/// Print the [`metrics_digest`] line to **stderr**. Every figure binary
/// exits through this so its stdout stays machine-pipeable (figure series
/// and tables only); the digest is operator chatter, like progress
/// output.
pub fn print_metrics_digest(snap: &MetricsSnapshot) {
    eprintln!("{}", metrics_digest(snap));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sums_queries_and_picks_a_latency_plane() {
        let reg = Registry::new();
        reg.counter("roads.queries").add(10);
        reg.counter("sword.queries").add(10);
        reg.counter("runtime.retries").add(3);
        reg.counter("runtime.incomplete_queries").add(2); // not a query count
        for v in [1.0, 2.0, 50.0] {
            reg.histogram("roads.query_latency_ms").record(v);
        }
        let line = metrics_digest(&reg.snapshot());
        assert!(
            line.starts_with("[metrics] queries=20 retries=3 p99_query_ms="),
            "{line}"
        );
        assert!(!line.ends_with("p99_query_ms=-"), "{line}");
        // No histograms at all: the latency slot degrades to '-'.
        let bare = Registry::new();
        bare.counter("runtime.queries").add(1);
        assert_eq!(
            metrics_digest(&bare.snapshot()),
            "[metrics] queries=1 retries=0 p99_query_ms=-"
        );
    }

    #[test]
    fn summaries_refresh_ten_times_slower_than_records() {
        let c = TrialConfig::default();
        assert_eq!(c.ts_ms / c.tr_ms, 10, "tr/ts = 0.1 per the analysis");
        assert_eq!(c.roads_config().ts_ms, c.ts_ms);
    }

    #[test]
    fn quick_comparison_smoke() {
        let cfg = TrialConfig {
            nodes: 32,
            records_per_node: 20,
            queries: 20,
            buckets: 100,
            runs: 1,
            ..TrialConfig::quick()
        };
        let (r, _, explains) = run_comparison(&cfg, None);
        assert!(explains.is_empty(), "nothing explained unasked");
        assert!(r.roads_latency.mean > 0.0);
        assert!(r.sword_latency.mean > 0.0);
        assert!(r.roads_update_bps > 0.0);
        assert!(r.sword_update_bps > r.roads_update_bps, "headline result");
    }

    #[test]
    fn instrumented_comparison_records_and_traces() {
        let cfg = TrialConfig {
            nodes: 32,
            records_per_node: 20,
            queries: 20,
            buckets: 100,
            runs: 1,
            ..TrialConfig::quick()
        };
        let reg = Registry::new();
        let (r, report, _) = run_comparison(&cfg, Some(&reg));
        assert_eq!(r.roads_latency.count, 20);
        let report = report.expect("telemetry requested");
        assert_eq!(report.queries, 20);
        assert!(report.mean_hops >= 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["roads.queries"], 20);
        assert_eq!(snap.counters["sword.queries"], 20);
        assert_eq!(snap.counters["central.queries"], 20);
        assert_eq!(snap.histograms["roads.query_latency_ms"].count, 20);
        assert!(
            snap.histograms["roads.query_latency_ms"].p99
                >= snap.histograms["roads.query_latency_ms"].p50
        );
    }

    #[test]
    fn explained_comparison_renders_every_query_as_a_hop_tree() {
        use roads_telemetry::{check_hop_tree, chrome_trace_json, explains_from_chrome};
        let cfg = TrialConfig {
            nodes: 32,
            records_per_node: 20,
            queries: 10,
            buckets: 100,
            runs: 1,
            ..TrialConfig::quick()
        };
        let (r, _, explains) = run_comparison(&cfg, Some(&Registry::new()));
        assert_eq!(r.roads_latency.count, 10);
        // One explain per ROADS query, each read back from the rendered
        // trace as the same hop tree; SWORD and central are not traced.
        let doc = chrome_trace_json(&[], &explains);
        let back = explains_from_chrome(&doc).expect("the rendered hops read back");
        assert_eq!(back.len(), 10);
        for (ex, read) in explains.iter().zip(&back) {
            assert_eq!(read.query_id, ex.query_id);
            let tree = |e: &QueryExplain| -> Vec<_> {
                e.hops.iter().map(|h| (h.server, h.caused_by)).collect()
            };
            assert_eq!(tree(read), tree(ex));
            assert_eq!(
                check_hop_tree(read.hops.iter().map(|h| h.caused_by)),
                Ok(())
            );
        }
    }

    #[test]
    fn overlap_workload_runs() {
        let cfg = TrialConfig {
            nodes: 32,
            records_per_node: 20,
            queries: 10,
            buckets: 100,
            runs: 1,
            overlap_factor: Some(4.0),
            ..TrialConfig::quick()
        };
        let (r, _, _) = run_comparison(&cfg, None);
        assert!(r.roads_latency.count == 10);
    }
}
