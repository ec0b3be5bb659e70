//! The table of strict JSON artifacts `roads-inspect` understands: one row
//! per document — marker key → strict parse → one-line `check` summary /
//! full render. `roads-inspect check` and the `slow` / `audit` / `plan` /
//! `delta` / `incidents` subcommands are lookups in [`ARTIFACTS`]; adding an
//! artifact is adding a row (see CONTRIBUTING.md).

use crate::delta_view::{render_delta_table, DeltaReport};
use crate::plan_view::{render_plan_table, PlanReport};
use crate::suite::BenchReport;
use crate::{audit_view, explain_view, incident_view};
use roads_runtime::{AuditReport, IncidentReport};
use roads_telemetry::{Json, SlowDoc};

/// Strict parse of a document followed by some text about it.
pub type Describe = fn(&Json) -> Result<String, String>;

/// One artifact `roads-inspect` can check and (mostly) render.
pub struct ArtifactRow {
    /// The key whose presence identifies the document.
    pub marker: &'static str,
    /// Parse strictly; on success the one-line summary `check` prints.
    pub check: Describe,
    /// The `roads-inspect <subcommand>` rendering the document and its
    /// renderer (`None`: the bench report is consumed by `bench-diff`).
    pub view: Option<(&'static str, Describe)>,
}

/// Every strict artifact, in `check`'s routing order.
pub const ARTIFACTS: &[ArtifactRow] = &[
    ArtifactRow {
        marker: BenchReport::MARKER,
        check: |doc| {
            BenchReport::from_json(doc)
                .map(|r| format!("bench report, {} benches", r.benches.len()))
        },
        view: None,
    },
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
        view: Some(("audit", |doc| {
            AuditReport::from_json(doc).map(|r| audit_view::render_audit_table(&r))
        })),
    },
    ArtifactRow {
        marker: PlanReport::MARKER,
        check: |doc| {
            PlanReport::from_json(doc).map(|r| {
                format!(
                    "plan report, {} queries, contacts {} → {}, hit rate {:.1}%",
                    r.queries,
                    r.greedy_contacts,
                    r.planned_contacts,
                    100.0 * r.cache_hit_rate()
                )
            })
        },
        view: Some(("plan", |doc| {
            PlanReport::from_json(doc).map(|r| render_plan_table(&r))
        })),
    },
    ArtifactRow {
        marker: DeltaReport::MARKER,
        check: |doc| {
            DeltaReport::from_json(doc).map(|r| {
                format!(
                    "delta report, {} records, {} changes/round, {:.1}x over full",
                    r.records, r.churn_changes, r.speedup
                )
            })
        },
        view: Some(("delta", |doc| {
            DeltaReport::from_json(doc).map(|r| render_delta_table(&r))
        })),
    },
    ArtifactRow {
        marker: IncidentReport::MARKER,
        check: |doc| {
            IncidentReport::from_json(doc).map(|r| {
                format!(
                    "incident report, {} ticks, {} incidents ({} matched, {} false alarms)",
                    r.ticks,
                    r.rows.len(),
                    r.matched(),
                    r.false_alarms
                )
            })
        },
        view: Some(("incidents", |doc| {
            IncidentReport::from_json(doc).map(|r| incident_view::render_incident_table(&r))
        })),
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
        view: Some(("slow", |doc| {
            SlowDoc::from_json(doc).map(|r| explain_view::render_slow_table(&r))
        })),
    },
];

/// The row whose marker `doc` carries. Figure documents are never
/// artifacts, although they too carry a `schema_version`.
pub fn row_for(doc: &Json) -> Option<&'static ArtifactRow> {
    if doc.get("figure").is_some() {
        return None;
    }
    ARTIFACTS.iter().find(|row| doc.get(row.marker).is_some())
}

/// The renderer behind `roads-inspect <command>`, if `command` is a view.
pub fn view(command: &str) -> Option<Describe> {
    ARTIFACTS
        .iter()
        .filter_map(|row| row.view)
        .find(|(name, _)| *name == command)
        .map(|(_, render)| render)
}
