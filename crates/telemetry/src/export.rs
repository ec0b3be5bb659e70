//! Machine-readable figure export.
//!
//! Every `fig*` bench binary builds a [`FigureExport`] alongside its
//! terminal output and writes `results/<figure>.json`: the plotted series,
//! measured-vs-paper reference points, and (when telemetry ran) a metrics
//! snapshot and trace report. The document is an artifact
//! ([`crate::json::artifact`]): one field table below derives its writer
//! and strict reader, its marker is `schema_version`, and `validate`
//! holds its cross-field invariants. The schema is documented in
//! `DESIGN.md` ("Observability").

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::registry::MetricsSnapshot;
use crate::trace::TraceReport;
use crate::{artifact, json_fields};

/// One plotted line: parallel `x`/`y` vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// X coordinates.
    pub x: Vec<f64>,
    /// Y coordinates (same length as `x`).
    pub y: Vec<f64>,
}

/// A single measured quantity with the paper's reported value beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferencePoint {
    /// What is being compared.
    pub name: String,
    /// Value this reproduction measured.
    pub measured: f64,
    /// Value the paper reports.
    pub paper: f64,
}

/// A figure's full machine-readable record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FigureExport {
    /// File stem: `results/<figure>.json`.
    pub figure: String,
    /// Human-readable title.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// Plotted series.
    pub series: Vec<Series>,
    /// Measured-vs-paper comparison points.
    pub reference: Vec<ReferencePoint>,
    /// Free-form annotations (configuration, caveats).
    pub notes: Vec<String>,
    /// Metrics snapshot captured at the end of the run, when telemetry ran.
    pub telemetry: Option<MetricsSnapshot>,
    /// Aggregated query traces, when tracing ran.
    pub traces: Option<TraceReport>,
}

impl FigureExport {
    /// Start an export for `figure` (the output file stem).
    pub fn new(figure: impl Into<String>, title: impl Into<String>) -> Self {
        FigureExport {
            figure: figure.into(),
            title: title.into(),
            ..FigureExport::default()
        }
    }

    /// Set the axis labels.
    pub fn axes(mut self, x: impl Into<String>, y: impl Into<String>) -> Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Append a series from `(x, y)` points.
    pub fn push_series(&mut self, name: impl Into<String>, points: &[(f64, f64)]) {
        self.series.push(Series {
            name: name.into(),
            x: points.iter().map(|p| p.0).collect(),
            y: points.iter().map(|p| p.1).collect(),
        });
    }

    /// Append a measured-vs-paper reference point.
    pub fn push_reference(&mut self, name: impl Into<String>, measured: f64, paper: f64) {
        self.reference.push(ReferencePoint {
            name: name.into(),
            measured,
            paper,
        });
    }

    /// Append a free-form note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Attach the end-of-run metrics snapshot.
    pub fn set_telemetry(&mut self, snapshot: MetricsSnapshot) {
        self.telemetry = Some(snapshot);
    }

    /// Attach the aggregated trace report.
    pub fn set_traces(&mut self, report: TraceReport) {
        self.traces = Some(report);
    }

    /// Write `<dir>/<figure>.json` (pretty-printed), creating `dir` if
    /// needed. Returns the written path.
    pub fn write_in(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("{}.json", self.figure));
        self.write(&path)?;
        Ok(path)
    }

    /// Series `x`/`y` lengths agree, and series and reference names are
    /// unique within the document.
    fn validate(&self) -> Result<(), String> {
        for (i, s) in self.series.iter().enumerate() {
            if s.x.len() != s.y.len() {
                return Err(format!(
                    "series[{i}]: {} x values but {} y values",
                    s.x.len(),
                    s.y.len()
                ));
            }
        }
        unique("series", self.series.iter().map(|s| s.name.as_str()))?;
        unique("reference", self.reference.iter().map(|r| r.name.as_str()))
    }

    /// Write to the workspace's default `results/` directory (honouring
    /// the `ROADS_RESULTS_DIR` environment variable) and report the path
    /// on stdout. Errors are printed, not fatal — a figure run should
    /// never die on a full disk after computing its data.
    pub fn write_default(&self) {
        let dir = results_dir();
        match self.write_in(&dir) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write {}/{}.json: {e}",
                dir.display(),
                self.figure
            ),
        }
    }
}

/// The figure document's schema version (its marker's value).
const SCHEMA_VERSION: u64 = 1;

json_fields!(Series { name, x, y });
json_fields!(ReferencePoint {
    name,
    measured,
    paper
});
json_fields!(FigureExport {
    "schema_version" = SCHEMA_VERSION,
    figure,
    title,
    x_label,
    y_label,
    series,
    reference,
    notes,
    telemetry,
    traces,
});
artifact!(FigureExport, "schema_version", SCHEMA_VERSION);

/// The first repeated name among `names`, reported under `list`.
fn unique<'a>(list: &str, names: impl Iterator<Item = &'a str>) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for (i, name) in names.enumerate() {
        if !seen.insert(name) {
            return Err(format!("{list}[{i}]: duplicate name {name:?}"));
        }
    }
    Ok(())
}

/// The workspace results directory every artifact writer routes
/// through: `$ROADS_RESULTS_DIR` when set, else `results/`. The
/// directory is not created here — writers create it on first write.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("ROADS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn export_document_shape() {
        let mut fig = FigureExport::new("fig_test", "A test figure").axes("nodes", "latency (ms)");
        fig.push_series("roads", &[(10.0, 1.5), (20.0, 2.5)]);
        fig.push_reference("latency@320", 42.0, 40.0);
        fig.push_note("quick mode");
        let r = Registry::new();
        r.counter("queries").add(3);
        r.histogram("lat").record(5.0);
        fig.set_telemetry(r.snapshot());
        let json = fig.to_json().to_string();
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"figure\":\"fig_test\""));
        assert!(json.contains("\"x\":[10,20]"));
        assert!(json.contains("\"measured\":42"));
        assert!(json.contains("\"queries\":3"));
        assert!(json.contains("\"traces\":null"));
    }

    #[test]
    fn write_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("roads-telemetry-test-{}", std::process::id()));
        let fig = FigureExport::new("fig_unit", "t");
        let path = fig
            .write_in(&dir)
            .unwrap_or_else(|e| panic!("writing figure under {}: {e}", dir.display()));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading back {}: {e}", path.display()));
        assert!(body.starts_with('{'));
        assert!(body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| panic!("removing {}: {e}", dir.display()));
    }

    #[test]
    fn write_creates_nested_results_dirs() {
        // ROADS_RESULTS_DIR may point several levels deep; `write` must
        // create the whole chain and report failures as io::Result, not
        // panic.
        let root =
            std::env::temp_dir().join(format!("roads-telemetry-nested-{}", std::process::id()));
        let dir = root.join("a").join("b").join("results");
        let fig = FigureExport::new("fig_nested", "t");
        let path = fig
            .write_in(&dir)
            .unwrap_or_else(|e| panic!("writing figure under {}: {e}", dir.display()));
        assert!(path.exists(), "missing {}", path.display());
        std::fs::remove_dir_all(&root)
            .unwrap_or_else(|e| panic!("removing {}: {e}", root.display()));
    }
}
