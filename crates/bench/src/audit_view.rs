//! Offline views of the summary-fidelity audit plane: parse and render
//! `AUDIT.json` artifacts written by a `roads_runtime` [`Auditor`].
//!
//! Two consumers share this module:
//!
//! * `roads-inspect audit <artifact>` — the per-level fidelity table
//!   ([`render_audit_table`]): probes, FP/FN rates, divergence and
//!   staleness per hierarchy level, plus the overlay-wide scalars.
//! * `roads-inspect check` — strict schema validation via
//!   [`AuditReport::from_json`]: a truncated or hand-edited artifact
//!   fails with a message naming every offending path instead of
//!   producing a half-empty view.
//!
//! [`Auditor`]: roads_runtime::Auditor

pub use roads_runtime::AuditReport;

/// The per-level fidelity table plus overlay-wide scalars.
pub fn render_audit_table(report: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "audit: epoch {}, {} ticks, divergence {:.2}%, staleness p99 {} rounds\n",
        report.epoch,
        report.ticks,
        report.divergence * 100.0,
        report.staleness_p99,
    ));
    out.push_str(&format!(
        "worst summary drift {:.4}, worst bloom saturation {:.2}%\n",
        report.max_drift,
        report.bloom_saturation * 100.0,
    ));
    out.push_str(&format!(
        "{:>5} {:>7} {:>8} {:>6} {:>7} {:>6} {:>7} {:>8} {:>9} {:>7}\n",
        "level", "entries", "probes", "fp", "fp%", "fn", "fn%", "diverged", "stale-max", "live-fp"
    ));
    for l in &report.levels {
        out.push_str(&format!(
            "{:>5} {:>7} {:>8} {:>6} {:>6.2}% {:>6} {:>6.2}% {:>8} {:>9} {:>7}\n",
            l.level,
            l.entries,
            l.probes,
            l.false_positives,
            100.0 * l.fp_rate(),
            l.false_negatives,
            100.0 * l.fn_rate(),
            l.diverged,
            l.staleness_max,
            l.live_false_positives,
        ));
    }
    out.push_str(&format!(
        "totals: {} probes, {} fp, {} fn\n",
        report.probes(),
        report.false_positives(),
        report.false_negatives(),
    ));
    if report.false_negatives() > 0 {
        out.push_str(
            "WARNING: false negatives present — stale overlay copies pruned live matches\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_runtime::AuditLevelRow;
    use roads_telemetry::Json;

    fn report() -> AuditReport {
        AuditReport {
            epoch: 6,
            ticks: 24,
            divergence: 0.125,
            staleness_p99: 5,
            max_drift: 0.031,
            bloom_saturation: 0.42,
            levels: vec![
                AuditLevelRow {
                    level: 0,
                    entries: 12,
                    probes: 480,
                    false_positives: 0,
                    false_negatives: 0,
                    diverged: 0,
                    staleness_max: 0,
                    live_probes: 30,
                    live_false_positives: 2,
                },
                AuditLevelRow {
                    level: 2,
                    entries: 24,
                    probes: 960,
                    false_positives: 48,
                    false_negatives: 3,
                    diverged: 3,
                    staleness_max: 5,
                    live_probes: 90,
                    live_false_positives: 11,
                },
            ],
        }
    }

    #[test]
    fn table_lists_every_level_with_rates() {
        let text = render_audit_table(&report());
        assert!(text.contains("divergence 12.50%"), "{text}");
        assert!(text.contains("staleness p99 5 rounds"), "{text}");
        for needle in ["level", "fp%", "fn%", "stale-max", "live-fp"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        // Level 2: 48/960 = 5% FP rate.
        assert!(text.contains("5.00%"), "{text}");
        assert!(text.contains("totals: 1440 probes, 48 fp, 3 fn"), "{text}");
        assert!(text.contains("WARNING"), "fn > 0 must warn:\n{text}");
    }

    #[test]
    fn clean_report_renders_without_warning() {
        let mut r = report();
        for l in &mut r.levels {
            l.false_negatives = 0;
        }
        assert!(!render_audit_table(&r).contains("WARNING"));
    }

    #[test]
    fn artifact_round_trips_through_the_renderer_path() {
        let r = report();
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(AuditReport::has_marker(&doc));
        let parsed = AuditReport::from_json(&doc).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(render_audit_table(&parsed), render_audit_table(&r));
    }

    #[test]
    fn parser_rejects_corrupt_documents() {
        // Not an audit document at all.
        let other = Json::obj(vec![("slow_queries", Json::num(1.0))]);
        assert!(!AuditReport::has_marker(&other));
        assert!(AuditReport::from_json(&other)
            .unwrap_err()
            .contains("marker"));

        // Truncated: the marker survived but the scalars are gone.
        let truncated = Json::parse(r#"{"audit":1,"epoch":3}"#).unwrap();
        let err = AuditReport::from_json(&truncated).unwrap_err();
        assert!(err.contains("levels"), "{err}");

        // A level row missing a field names the row.
        let bad_row = Json::parse(
            r#"{"audit":1,"epoch":1,"ticks":2,"divergence":0,"staleness_p99":0,
                "max_drift":0,"bloom_saturation":0,
                "levels":[{"level":0,"entries":4}]}"#,
        )
        .unwrap();
        let err = AuditReport::from_json(&bad_row).unwrap_err();
        assert!(err.contains("levels[0]"), "{err}");

        // A non-numeric scalar fails cleanly instead of defaulting.
        let bad_type = Json::parse(
            r#"{"audit":1,"epoch":"six","ticks":2,"divergence":0,"staleness_p99":0,
                "max_drift":0,"bloom_saturation":0,"levels":[]}"#,
        )
        .unwrap();
        let err = AuditReport::from_json(&bad_type).unwrap_err();
        assert!(err.contains("epoch"), "{err}");
    }
}
