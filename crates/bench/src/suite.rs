//! Macrobench regression harness: `BENCH_*.json` reports and diffing.
//!
//! The `bench_suite` binary runs a fixed macrobench matrix (parallel
//! network build, update propagation, live query-plane throughput,
//! failover recovery) and writes its results as one `BENCH_ROADS.json`
//! document at the repository root. This module owns that document's
//! schema — [`BenchReport`] / [`BenchRecord`], declared on the workspace
//! artifact layer ([`roads_telemetry::json::artifact`]) — plus the
//! regression comparator behind `roads-inspect bench-diff OLD NEW
//! --fail-over <pct>`.
//!
//! Regression direction is inferred from the unit: throughput units
//! (`qps`, anything per-second) regress when they *drop*, everything
//! else (latencies, byte counts) regresses when it *grows*.

use roads_telemetry::{artifact, json_fields, MetricsSnapshot};

/// Schema version written by this build; `from_json` rejects documents
/// carrying any other version so CI never silently compares
/// incompatible reports.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One macrobench result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable bench name (`build_1t`, `qps_overlay`, ...).
    pub name: String,
    /// Unit of `value` (`ms`, `qps`); decides the regression direction.
    pub unit: String,
    /// Headline value: the mean over samples.
    pub value: f64,
    /// Median sample.
    pub p50: f64,
    /// 99th-percentile sample.
    pub p99: f64,
    /// Number of samples behind the statistics.
    pub samples: usize,
}

impl BenchRecord {
    /// Aggregate raw samples into a record (mean / p50 / p99).
    pub fn from_samples(name: &str, unit: &str, samples: &[f64]) -> BenchRecord {
        assert!(!samples.is_empty(), "bench {name} produced no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        BenchRecord {
            name: name.to_string(),
            unit: unit.to_string(),
            value: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: pct(0.50),
            p99: pct(0.99),
            samples: samples.len(),
        }
    }
}

/// A full `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Document schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// `git rev-parse --short HEAD` at run time (`"unknown"` outside a
    /// checkout).
    pub commit: String,
    /// Matrix configuration the run used (`"smoke"` or `"full"`).
    pub config: String,
    /// The bench results, in matrix order.
    pub benches: Vec<BenchRecord>,
}

impl BenchReport {
    /// A report for this build, stamped with the current commit.
    pub fn new(config: &str, benches: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            commit: current_commit(),
            config: config.to_string(),
            benches,
        }
    }

    /// Rejects empty or duplicate bench lists and sample-less records
    /// (non-finite statistics never get this far: the JSON writer turns
    /// NaN into `null`, which the reader reports as a non-numeric field).
    fn validate(&self) -> Result<(), String> {
        if self.benches.is_empty() {
            return Err("empty bench list".to_string());
        }
        for (i, b) in self.benches.iter().enumerate() {
            if self.benches[..i]
                .iter()
                .any(|earlier| earlier.name == b.name)
            {
                return Err(format!("duplicate bench name {}", b.name));
            }
            if b.samples == 0 {
                return Err(format!("bench {}: no samples", b.name));
            }
        }
        Ok(())
    }
}

json_fields!(BenchRecord {
    name,
    unit,
    value,
    p50,
    p99,
    samples
});
json_fields!(BenchReport {
    schema_version,
    commit,
    config,
    benches
});
artifact!(BenchReport, "schema_version", BENCH_SCHEMA_VERSION);

/// Regression direction: throughput units improve upward, everything
/// else (time, bytes) improves downward.
pub fn higher_is_better(unit: &str) -> bool {
    unit.contains("qps") || unit.ends_with("/s")
}

/// One bench compared across two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiffRow {
    /// Bench name.
    pub name: String,
    /// Unit (taken from the new report).
    pub unit: String,
    /// Old headline value.
    pub old: f64,
    /// New headline value.
    pub new: f64,
    /// Relative change in percent (positive = value grew).
    pub delta_pct: f64,
    /// Whether the change crosses the failure threshold in the unit's
    /// bad direction.
    pub regressed: bool,
}

/// The comparison behind `roads-inspect bench-diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Per-bench rows, in the old report's order.
    pub rows: Vec<BenchDiffRow>,
    /// Benches only the old report has (treated as a failure: a bench
    /// silently disappearing must not pass CI).
    pub only_old: Vec<String>,
    /// Benches only the new report has (informational).
    pub only_new: Vec<String>,
    /// The threshold the rows were judged against, percent.
    pub fail_over_pct: f64,
}

impl BenchDiff {
    /// Number of failing rows (regressions plus vanished benches).
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count() + self.only_old.len()
    }
}

impl std::fmt::Display for BenchDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in &self.rows {
            writeln!(
                f,
                "  {:<24} {:>12.3} -> {:>12.3} {:<4} ({:+.1}%){}",
                r.name,
                r.old,
                r.new,
                r.unit,
                r.delta_pct,
                if r.regressed { "  <-- REGRESSION" } else { "" },
            )?;
        }
        for name in &self.only_old {
            writeln!(f, "  {name:<24} MISSING from new report  <-- REGRESSION")?;
        }
        for name in &self.only_new {
            writeln!(f, "  {name:<24} new bench (no baseline)")?;
        }
        let n = self.regressions();
        if n > 0 {
            writeln!(f, "{n} regression(s) beyond {:.0}%", self.fail_over_pct)
        } else {
            writeln!(f, "no regressions beyond {:.0}%", self.fail_over_pct)
        }
    }
}

/// Compare two reports: a bench regresses when its headline value moves
/// more than `fail_over_pct` percent in its unit's bad direction.
pub fn diff(old: &BenchReport, new: &BenchReport, fail_over_pct: f64) -> BenchDiff {
    let mut rows = Vec::new();
    let mut only_old = Vec::new();
    for o in &old.benches {
        let Some(n) = new.benches.iter().find(|b| b.name == o.name) else {
            only_old.push(o.name.clone());
            continue;
        };
        let delta_pct = if o.value != 0.0 {
            (n.value - o.value) / o.value.abs() * 100.0
        } else {
            0.0
        };
        let regressed = if higher_is_better(&n.unit) {
            delta_pct < -fail_over_pct
        } else {
            delta_pct > fail_over_pct
        };
        rows.push(BenchDiffRow {
            name: o.name.clone(),
            unit: n.unit.clone(),
            old: o.value,
            new: n.value,
            delta_pct,
            regressed,
        });
    }
    let only_new = new
        .benches
        .iter()
        .filter(|b| !old.benches.iter().any(|o| o.name == b.name))
        .map(|b| b.name.clone())
        .collect();
    BenchDiff {
        rows,
        only_old,
        only_new,
        fail_over_pct,
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
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
    use roads_telemetry::Json;

    /// Validate an already-parsed document as a bench report.
    fn check_bench_doc(doc: &Json) -> Result<(), String> {
        BenchReport::from_json(doc).map(|_| ())
    }

    fn report(pairs: &[(&str, &str, f64)]) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            commit: "abc1234".to_string(),
            config: "smoke".to_string(),
            benches: pairs
                .iter()
                .map(|(name, unit, value)| BenchRecord {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: *value,
                    p50: *value,
                    p99: *value * 1.2,
                    samples: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn record_aggregates_samples() {
        let r = BenchRecord::from_samples("b", "ms", &[4.0, 1.0, 2.0, 3.0, 100.0]);
        assert_eq!(r.value, 22.0);
        assert_eq!(r.p50, 3.0);
        assert_eq!(r.p99, 100.0);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(&[("build_1t", "ms", 120.5), ("qps_overlay", "qps", 850.0)]);
        let doc = r.to_json();
        assert!(BenchReport::has_marker(&doc));
        assert_eq!(BenchReport::from_json(&doc), Ok(r.clone()));
        // And through the actual text serialization.
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(BenchReport::from_json(&parsed), Ok(r));
    }

    #[test]
    fn validator_rejects_bad_documents() {
        let good = report(&[("b", "ms", 1.0)]).to_json();
        assert!(check_bench_doc(&good).is_ok());

        let mut wrong_version = report(&[("b", "ms", 1.0)]);
        wrong_version.schema_version = 99;
        let err = check_bench_doc(&wrong_version.to_json()).unwrap_err();
        assert!(err.contains("unknown schema_version 99"), "{err}");

        let empty = BenchReport::new("smoke", vec![]).to_json();
        assert!(check_bench_doc(&empty).unwrap_err().contains("empty"));

        // NaN serializes as null and must be rejected on read.
        let mut nan = report(&[("b", "ms", 1.0)]);
        nan.benches[0].p99 = f64::NAN;
        let reparsed = Json::parse(&nan.to_json().to_string_pretty()).unwrap();
        let err = check_bench_doc(&reparsed).unwrap_err();
        assert!(err.contains("non-numeric p99"), "{err}");

        let dup = report(&[("b", "ms", 1.0), ("b", "ms", 2.0)]);
        assert!(check_bench_doc(&dup.to_json())
            .unwrap_err()
            .contains("duplicate"));

        assert!(check_bench_doc(&Json::obj(vec![("figure", Json::str("fig3"))])).is_err());
    }

    #[test]
    fn direction_follows_unit() {
        assert!(higher_is_better("qps"));
        assert!(higher_is_better("records/s"));
        assert!(!higher_is_better("ms"));
        assert!(!higher_is_better("bytes"));
    }

    /// The fixture pair: a slower build and a lower-throughput query
    /// plane must both flag, improvements and small wobbles must not.
    #[test]
    fn diff_flags_regressions_in_the_units_bad_direction() {
        let old = report(&[
            ("build_1t", "ms", 100.0),
            ("qps_overlay", "qps", 800.0),
            ("update_round", "ms", 50.0),
            ("gone", "ms", 1.0),
        ]);
        let new = report(&[
            ("build_1t", "ms", 130.0),     // +30% latency: regression
            ("qps_overlay", "qps", 500.0), // -37.5% throughput: regression
            ("update_round", "ms", 52.0),  // +4%: within threshold
            ("brand_new", "ms", 9.0),
        ]);
        let d = diff(&old, &new, 10.0);
        assert_eq!(d.regressions(), 3, "two moved benches + one vanished:\n{d}");
        assert!(
            d.rows
                .iter()
                .find(|r| r.name == "build_1t")
                .unwrap()
                .regressed
        );
        assert!(
            d.rows
                .iter()
                .find(|r| r.name == "qps_overlay")
                .unwrap()
                .regressed
        );
        assert!(
            !d.rows
                .iter()
                .find(|r| r.name == "update_round")
                .unwrap()
                .regressed
        );
        assert_eq!(d.only_old, vec!["gone".to_string()]);
        assert_eq!(d.only_new, vec!["brand_new".to_string()]);
        let text = d.to_string();
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("MISSING"));

        // A faster build and higher throughput are improvements.
        let improved = report(&[
            ("build_1t", "ms", 60.0),
            ("qps_overlay", "qps", 1600.0),
            ("update_round", "ms", 50.0),
            ("gone", "ms", 1.0),
        ]);
        assert_eq!(diff(&old, &improved, 10.0).regressions(), 0);

        // A wider threshold forgives the same movements.
        assert_eq!(
            diff(&old, &new, 50.0).regressions(),
            1,
            "only the vanished bench"
        );
    }

    #[test]
    fn digest_sums_queries_and_picks_a_latency_plane() {
        use roads_telemetry::Registry;
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
}
