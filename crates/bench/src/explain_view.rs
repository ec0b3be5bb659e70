//! Offline views of the query explain plane: render `SLOW_QUERIES.json`
//! artifacts written by a [`TailSampler`]. The format itself — writer,
//! strict reader, span-tree check — lives with the sampler in
//! [`roads_telemetry::tail`] ([`SlowDoc`]).
//!
//! * `roads-inspect explain <artifact>` — hop-by-hop waterfall plus the
//!   decision tree of each retained query ([`render_waterfall`],
//!   [`render_decision_tree`]).
//! * `roads-inspect slow <artifact>` — the ranked tail table with p99
//!   latency attribution ([`render_slow_table`]).
//!
//! [`TailSampler`]: roads_telemetry::TailSampler

use roads_telemetry::{ExplainHop, HopOutcome, QueryExplain, SlowDoc};

fn outcome_label(h: &ExplainHop) -> &'static str {
    match h.outcome {
        HopOutcome::Replied => "replied",
        HopOutcome::TimedOut => "TIMEOUT",
        HopOutcome::MailboxDown => "DOWN",
        HopOutcome::Abandoned => "abandoned",
    }
}

fn summary_label(h: &ExplainHop) -> String {
    match h.summary {
        Some(kind) => {
            if h.false_positive {
                format!("{}(FP)", kind.as_str())
            } else {
                kind.as_str().to_string()
            }
        }
        None => "-".to_string(),
    }
}

/// The hop-by-hop waterfall: one row per hop in dispatch order, with its
/// decision, summary verdict, outcome, latency split, and a bar placing
/// the hop inside the query's total response window.
pub fn render_waterfall(ex: &QueryExplain) -> String {
    const BAR: usize = 32;
    let total_us = ex.response_us.max(1.0);
    let mut out = String::new();
    out.push_str(&format!(
        "query {} (trace {}) entry server-{}: {:.2} ms, {} records, {}{}\n",
        ex.query_id,
        ex.trace_id,
        ex.entry,
        ex.response_us / 1_000.0,
        ex.records,
        if ex.complete {
            "complete"
        } else {
            "INCOMPLETE"
        },
        if ex.deadline_hit {
            " (deadline hit)"
        } else {
            ""
        },
    ));
    let a = ex.attribution();
    out.push_str(&format!(
        "attribution: queue {:.2} ms, network {:.2} ms, compute {:.2} ms, \
         retry {:.2} ms, failover {:.2} ms\n",
        a.queue_us / 1_000.0,
        a.network_us / 1_000.0,
        a.compute_us / 1_000.0,
        a.retry_us / 1_000.0,
        a.failover_us / 1_000.0,
    ));
    out.push_str(&format!(
        "{:>4} {:<12} {:<16} {:<14} {:<9} {:>9} {:>9}  waterfall\n",
        "hop", "server", "decision", "summary", "outcome", "start", "dur"
    ));
    for (i, h) in ex.hops.iter().enumerate() {
        let start = ((h.at_us / total_us) * BAR as f64) as usize;
        let width = (((h.dur_us / total_us) * BAR as f64).ceil() as usize).max(1);
        let (start, width) = (start.min(BAR - 1), width.min(BAR));
        let mut bar: Vec<char> = vec!['.'; BAR];
        for c in bar.iter_mut().skip(start).take(width) {
            *c = '#';
        }
        out.push_str(&format!(
            "{:>4} {:<12} {:<16} {:<14} {:<9} {:>7.2}ms {:>7.2}ms  |{}|{}\n",
            i,
            format!("server-{}", h.server),
            h.decision.as_str(),
            summary_label(h),
            outcome_label(h),
            h.at_us / 1_000.0,
            h.dur_us / 1_000.0,
            bar.into_iter().collect::<String>(),
            match h.caused_by {
                Some(c) => format!(" <-{c}"),
                None => String::new(),
            },
        ));
    }
    out
}

/// The decision tree: hops nested under the hop that caused them, so the
/// render shows *why* each server was contacted (entry at the root,
/// summary descents under their redirecting parent, retries under the
/// timed-out attempt, failover stand-ins under the hop that died).
pub fn render_decision_tree(ex: &QueryExplain) -> String {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); ex.hops.len()];
    let mut roots = Vec::new();
    for (i, h) in ex.hops.iter().enumerate() {
        match h.caused_by {
            Some(c) if c < ex.hops.len() => children[c].push(i),
            _ => roots.push(i),
        }
    }
    fn walk(
        out: &mut String,
        ex: &QueryExplain,
        children: &[Vec<usize>],
        idx: usize,
        prefix: &str,
        last: bool,
    ) {
        let h = &ex.hops[idx];
        let branch = if prefix.is_empty() {
            ""
        } else if last {
            "└─ "
        } else {
            "├─ "
        };
        out.push_str(&format!(
            "{prefix}{branch}#{idx} server-{} {} [{}] {}{:.2}ms, {} local\n",
            h.server,
            h.decision.as_str(),
            summary_label(h),
            match h.outcome {
                HopOutcome::Replied => "",
                HopOutcome::TimedOut => "TIMEOUT ",
                HopOutcome::MailboxDown => "DOWN ",
                HopOutcome::Abandoned => "abandoned ",
            },
            h.dur_us / 1_000.0,
            h.local_matches,
        ));
        let next = if prefix.is_empty() {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        let kids = &children[idx];
        for (j, &k) in kids.iter().enumerate() {
            let p = if prefix.is_empty() { "  " } else { &next };
            walk(out, ex, children, k, p, j + 1 == kids.len());
        }
    }
    let mut out = String::new();
    for (j, &r) in roots.iter().enumerate() {
        walk(&mut out, ex, &children, r, "", j + 1 == roots.len());
    }
    out
}

/// The ranked tail table: one row per retained query (already ranked
/// slowest first by the sampler), with its retention reason, hop/retry
/// counts, and the percentage latency attribution.
pub fn render_slow_table(doc: &SlowDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "tail reservoir: {} retained of {} observed ({} dropped), threshold {:.2} ms\n",
        doc.retained.len(),
        doc.observed,
        doc.dropped,
        doc.threshold_ms,
    ));
    out.push_str(&format!(
        "{:>6} {:<10} {:>10} {:>5} {:>7} {:>3} {:>7} {:>7} {:>7} {:>7} {:>8}\n",
        "query",
        "reason",
        "ms",
        "hops",
        "retries",
        "fp",
        "queue%",
        "net%",
        "comp%",
        "retry%",
        "failov%"
    ));
    for e in &doc.retained {
        let ex = &e.explain;
        let a = ex.attribution();
        let total = a.total_us().max(1.0);
        let pct = |v: f64| 100.0 * v / total;
        out.push_str(&format!(
            "{:>6} {:<10} {:>10.2} {:>5} {:>7} {:>3} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%\n",
            ex.query_id,
            e.reason.as_str(),
            ex.response_us / 1_000.0,
            ex.hops.len(),
            ex.retry_count(),
            ex.false_positive_count(),
            pct(a.queue_us),
            pct(a.network_us),
            pct(a.compute_us),
            pct(a.retry_us),
            pct(a.failover_us),
        ));
    }
    if !doc.exemplars.is_empty() {
        out.push_str(&format!(
            "exemplars: {} histogram buckets link to retained traces\n",
            doc.exemplars.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_telemetry::{
        ExplainDecision, Json, LatencySplit, SummaryKind, TailConfig, TailSampler,
    };

    fn hop(
        server: u32,
        decision: ExplainDecision,
        outcome: HopOutcome,
        caused_by: Option<usize>,
    ) -> ExplainHop {
        ExplainHop {
            server,
            decision,
            summary: matches!(
                decision,
                ExplainDecision::SummaryDescent | ExplainDecision::OverlayShortcut
            )
            .then_some(SummaryKind::Histogram),
            false_positive: false,
            outcome,
            at_us: 100.0 * server as f64,
            dur_us: 500.0,
            caused_by,
            local_matches: 2,
            split: LatencySplit {
                queue_us: 10.0,
                network_us: 200.0,
                compute_us: 50.0,
                backoff_us: 0.0,
            },
        }
    }

    fn explain() -> QueryExplain {
        QueryExplain {
            query_id: 7,
            trace_id: 42,
            entry: 0,
            response_us: 900.0,
            complete: false,
            deadline_hit: false,
            records: 4,
            hops: vec![
                hop(0, ExplainDecision::Entry, HopOutcome::Replied, None),
                hop(
                    1,
                    ExplainDecision::SummaryDescent,
                    HopOutcome::Replied,
                    Some(0),
                ),
                hop(
                    2,
                    ExplainDecision::SummaryDescent,
                    HopOutcome::MailboxDown,
                    Some(0),
                ),
                hop(3, ExplainDecision::Failover, HopOutcome::Replied, Some(2)),
            ],
        }
    }

    #[test]
    fn waterfall_lists_every_hop_with_outcome() {
        let text = render_waterfall(&explain());
        assert!(text.contains("query 7 (trace 42)"), "{text}");
        assert!(text.contains("INCOMPLETE"), "{text}");
        assert!(text.contains("attribution:"), "{text}");
        for needle in ["entry", "summary-descent", "failover", "DOWN", "histogram"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        assert_eq!(text.matches('|').count() % 2, 0, "bars open and close");
    }

    #[test]
    fn decision_tree_nests_by_cause() {
        let text = render_decision_tree(&explain());
        let entry_at = text.find("#0 server-0 entry").unwrap();
        let failover_at = text.find("#3 server-3 failover").unwrap();
        assert!(entry_at < failover_at, "entry renders before failover");
        // The failover hop nests under the dead descent hop, one level
        // deeper than the entry.
        let failover_line = text.lines().find(|l| l.contains("#3")).unwrap();
        assert!(
            failover_line.starts_with("  ") && failover_line.contains("└─"),
            "{text}"
        );
    }

    #[test]
    fn slow_doc_round_trips_through_the_sampler_report() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 0.0001,
        });
        s.observe(explain(), false);
        let doc = Json::parse(&s.report().to_json().to_string_pretty()).unwrap();
        assert!(SlowDoc::has_marker(&doc));
        let parsed = SlowDoc::from_json(&doc).unwrap();
        assert_eq!(parsed.observed, 1);
        assert_eq!(parsed.retained.len(), 1);
        assert_eq!(parsed.retained[0].explain.query_id, 7);
        assert_eq!(parsed.exemplars.len(), 1);
        let table = render_slow_table(&parsed);
        assert!(table.contains("incomplete"), "{table}");
        assert!(table.contains("queue%"), "{table}");
    }

    #[test]
    fn parser_rejects_corrupt_documents() {
        let missing = Json::obj(vec![("slow_queries", Json::num(1.0))]);
        assert!(SlowDoc::from_json(&missing)
            .unwrap_err()
            .contains("threshold_ms"));

        // A retained entry whose explain lost its hops.
        let bad = Json::parse(
            r#"{"slow_queries":1,"threshold_ms":1,"observed":1,"dropped":0,
                "retained":[{"reason":"slow","explain":{"query_id":1}}],"exemplars":[]}"#,
        )
        .unwrap();
        let err = SlowDoc::from_json(&bad).unwrap_err();
        assert!(err.contains("retained[0]"), "{err}");

        // An unknown retention reason.
        let bad_reason = Json::parse(
            r#"{"slow_queries":1,"threshold_ms":1,"observed":1,"dropped":0,
                "retained":[{"reason":"meh","explain":{}}],"exemplars":[]}"#,
        )
        .unwrap();
        assert!(SlowDoc::from_json(&bad_reason)
            .unwrap_err()
            .contains("unknown reason"));
    }

    #[test]
    fn parser_rejects_hops_that_do_not_form_a_tree() {
        // Hops 2 and 3 name each other: the decision tree reaches neither
        // from the entry and would leave both out without a word.
        let mut looped = explain();
        looped.hops[2].caused_by = Some(3);
        let tree = render_decision_tree(&looped);
        assert!(!tree.contains("#2") && !tree.contains("#3"), "{tree}");
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 0.0001,
        });
        s.observe(looped, false);
        let doc = Json::parse(&s.report().to_json().to_string_pretty()).unwrap();
        let err = SlowDoc::from_json(&doc).unwrap_err();
        assert!(err.contains("retained[0].explain.hops[2]"), "{err}");
    }
}
