//! The table of strict JSON artifacts `roads-inspect` understands: one row
//! per document — marker key → strict parse → one-line `check` summary /
//! full render. `roads-inspect check` and the `slow` / `audit` / `health`
//! subcommands are lookups in [`ARTIFACTS`]; adding an artifact is adding
//! a row (see CONTRIBUTING.md). `bench_suite` writes all three documents;
//! every figure binary writes a figure document instead, which `check`
//! reads beside its trace file.

use crate::{audit_view, explain_view};
use roads_runtime::{AuditReport, ClusterHealth};
use roads_telemetry::{Json, SlowDoc};

/// Strict parse of a document followed by some text about it.
pub type Describe = fn(&Json) -> Result<String, String>;

/// One artifact `roads-inspect` can check and render.
pub struct ArtifactRow {
    /// The key whose presence identifies the document.
    pub marker: &'static str,
    /// Parse strictly; on success the one-line summary `check` prints.
    pub check: Describe,
    /// The `roads-inspect <subcommand>` rendering the document and its
    /// renderer.
    pub view: (&'static str, Describe),
}

/// Every strict artifact, in `check`'s routing order.
pub const ARTIFACTS: &[ArtifactRow] = &[
    ArtifactRow {
        marker: AuditReport::MARKER,
        check: |doc| {
            AuditReport::from_json(doc).map(|r| {
                format!(
                    "audit report, {} ticks, {} levels, {} probes",
                    r.ticks,
                    r.levels.len(),
                    r.probes()
                )
            })
        },
        view: ("audit", |doc| {
            AuditReport::from_json(doc).map(|r| audit_view::render_audit_table(&r))
        }),
    },
    ArtifactRow {
        marker: ClusterHealth::MARKER,
        check: |doc| {
            ClusterHealth::from_json(doc).map(|h| {
                format!(
                    "health snapshot, {} servers, {} cache hits",
                    h.servers.len(),
                    h.cache_hits
                )
            })
        },
        view: ("health", |doc| {
            ClusterHealth::from_json(doc).map(|h| h.to_string())
        }),
    },
    ArtifactRow {
        marker: SlowDoc::MARKER,
        check: |doc| {
            SlowDoc::from_json(doc).map(|r| {
                format!(
                    "slow-query report, {} retained of {} observed",
                    r.retained.len(),
                    r.observed
                )
            })
        },
        view: ("slow", |doc| {
            SlowDoc::from_json(doc).map(|r| explain_view::render_slow_table(&r))
        }),
    },
];

/// The row whose marker `doc` carries.
pub fn row_for(doc: &Json) -> Option<&'static ArtifactRow> {
    ARTIFACTS.iter().find(|row| doc.get(row.marker).is_some())
}

/// The renderer behind `roads-inspect <command>`, if `command` is a view.
pub fn view(command: &str) -> Option<Describe> {
    ARTIFACTS
        .iter()
        .find(|row| row.view.0 == command)
        .map(|row| row.view.1)
}
