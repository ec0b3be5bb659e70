//! Offline views of the watchdog incident plane: parse and render
//! `INCIDENTS.json` artifacts written by a `roads_runtime` [`Watchdog`].
//!
//! Two consumers share this module:
//!
//! * `roads-inspect incidents <artifact>` — the incident timeline
//!   ([`render_incident_table`]): one block per incident with its firing
//!   window, the detectors involved, the matched fault (and detection
//!   latency from onset), the ranked suspected-cause list, and any
//!   correlated tail-sampled slow queries.
//! * `roads-inspect check` — strict schema validation via
//!   [`IncidentReport::from_json`]: a truncated or hand-edited artifact
//!   fails with a message naming every offending path instead of
//!   producing a half-empty view.
//!
//! [`Watchdog`]: roads_runtime::Watchdog

pub use roads_runtime::{CauseKind, Incident, IncidentReport};

/// The incident timeline: a summary header plus one block per incident.
pub fn render_incident_table(report: &IncidentReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "watchdog: {} ticks @ {:.0} ms, {} firings, {} incidents ({} matched, {} false alarms)\n",
        report.ticks,
        report.interval_ms,
        report.firings,
        report.rows.len(),
        report.matched(),
        report.false_alarms,
    ));
    match report.max_detection_latency_ms() {
        Some(worst) => out.push_str(&format!("worst detection latency {worst:.0} ms\n")),
        None => out.push_str("no fault detections\n"),
    }
    for inc in &report.rows {
        out.push_str(&format!(
            "#{:<3} [{:>8.0} .. {:>8.0} ms]  {} firing{}  {}{}\n",
            inc.id,
            inc.opened_ms,
            inc.last_ms,
            inc.firings,
            if inc.firings == 1 { "" } else { "s" },
            inc.detectors.join(", "),
            if inc.false_alarm { "  FALSE ALARM" } else { "" },
        ));
        if let Some(m) = inc.matched {
            match inc.detection_latency_ms {
                Some(lat) => out.push_str(&format!(
                    "     matched: {} of server {} at {:.0} ms (detected +{lat:.0} ms)\n",
                    m.kind.as_str(),
                    m.server,
                    m.onset_ms,
                )),
                None => out.push_str(&format!(
                    "     matched: {} of server {} at {:.0} ms (repeat detection)\n",
                    m.kind.as_str(),
                    m.server,
                    m.onset_ms,
                )),
            }
        }
        for (rank, c) in inc.causes.iter().enumerate() {
            let server = c
                .server
                .map_or_else(|| "        ".to_string(), |s| format!("server {s:<2}"));
            out.push_str(&format!(
                "     cause {:<2} {:<16} {server} score {:.2}  {}\n",
                rank + 1,
                c.kind.as_str(),
                c.score,
                c.detail,
            ));
        }
        if !inc.slow_queries.is_empty() {
            let ids: Vec<String> = inc.slow_queries.iter().map(u64::to_string).collect();
            out.push_str(&format!("     slow queries: {}\n", ids.join(", ")));
        }
    }
    if report.rows.is_empty() {
        out.push_str("no incidents\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_runtime::{FaultKind, MatchedFault, SuspectedCause};
    use roads_telemetry::Json;

    fn report() -> IncidentReport {
        IncidentReport {
            ticks: 40,
            interval_ms: 100.0,
            firings: 6,
            false_alarms: 1,
            rows: vec![
                Incident {
                    id: 1,
                    opened_ms: 250.0,
                    last_ms: 610.0,
                    firings: 5,
                    detectors: vec!["server-down".into(), "latency-spike".into()],
                    series: vec!["runtime.server.alive{server=\"2\"}".into()],
                    causes: vec![
                        SuspectedCause {
                            kind: CauseKind::FaultEvent,
                            server: Some(2),
                            score: 0.9,
                            detail: "kill of server 2 110 ms before detection".into(),
                        },
                        SuspectedCause {
                            kind: CauseKind::QueueDepth,
                            server: Some(2),
                            score: 0.88,
                            detail: "queue depth 7 at server 2".into(),
                        },
                    ],
                    matched: Some(MatchedFault {
                        kind: FaultKind::Kill,
                        server: 2,
                        onset_ms: 140.0,
                    }),
                    detection_latency_ms: Some(110.0),
                    false_alarm: false,
                    slow_queries: vec![7, 9],
                },
                Incident {
                    id: 2,
                    opened_ms: 900.0,
                    last_ms: 900.0,
                    firings: 1,
                    detectors: vec!["slo-burn".into()],
                    series: vec!["watchdog.slo_burn".into()],
                    causes: Vec::new(),
                    matched: None,
                    detection_latency_ms: None,
                    false_alarm: true,
                    slow_queries: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn table_lists_every_incident_with_verdicts() {
        let text = render_incident_table(&report());
        assert!(
            text.contains("40 ticks @ 100 ms, 6 firings, 2 incidents (1 matched, 1 false alarms)"),
            "{text}"
        );
        assert!(text.contains("worst detection latency 110 ms"), "{text}");
        assert!(text.contains("server-down, latency-spike"), "{text}");
        assert!(
            text.contains("matched: kill of server 2 at 140 ms (detected +110 ms)"),
            "{text}"
        );
        assert!(text.contains("fault-event"), "{text}");
        assert!(text.contains("queue-depth"), "{text}");
        assert!(text.contains("slow queries: 7, 9"), "{text}");
        assert!(text.contains("FALSE ALARM"), "{text}");
    }

    #[test]
    fn empty_report_says_so() {
        let r = IncidentReport {
            ticks: 10,
            interval_ms: 100.0,
            firings: 0,
            false_alarms: 0,
            rows: Vec::new(),
        };
        let text = render_incident_table(&r);
        assert!(text.contains("no incidents"), "{text}");
        assert!(text.contains("no fault detections"), "{text}");
    }

    #[test]
    fn artifact_round_trips_through_the_renderer_path() {
        let r = report();
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(IncidentReport::has_marker(&doc));
        let parsed = IncidentReport::from_json(&doc).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(render_incident_table(&parsed), render_incident_table(&r));
    }

    #[test]
    fn parser_rejects_corrupt_documents() {
        // Not an incidents document at all.
        let other = Json::obj(vec![("audit", Json::num(1.0))]);
        assert!(!IncidentReport::has_marker(&other));
        assert!(IncidentReport::from_json(&other)
            .unwrap_err()
            .contains("marker"));

        // Truncated: the marker survived but the rows are gone.
        let truncated = Json::parse(r#"{"incidents":1,"ticks":3}"#).unwrap();
        let err = IncidentReport::from_json(&truncated).unwrap_err();
        assert!(err.contains("rows"), "{err}");

        // A row missing a field names the row and the field.
        let bad_row = Json::parse(
            r#"{"incidents":1,"ticks":2,"interval_ms":100,"firings":1,"false_alarms":0,
                "rows":[{"id":1,"opened_ms":5}]}"#,
        )
        .unwrap();
        let err = IncidentReport::from_json(&bad_row).unwrap_err();
        assert!(err.contains("rows[0]"), "{err}");

        // An unknown fault kind in `matched` fails cleanly.
        let bad_kind = Json::parse(
            r#"{"incidents":1,"ticks":2,"interval_ms":100,"firings":1,"false_alarms":0,
                "rows":[{"id":1,"opened_ms":5,"last_ms":6,"firings":1,
                         "detectors":["d"],"series":["s"],"causes":[],
                         "matched":{"kind":"gremlins","server":0,"onset_ms":1},
                         "detection_latency_ms":null,"false_alarm":false,
                         "slow_queries":[]}]}"#,
        )
        .unwrap();
        let err = IncidentReport::from_json(&bad_kind).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }
}
