//! Property test of the artifact layer over every artifact registered in
//! `roads-inspect`'s `check` table ([`roads_bench::artifacts::ARTIFACTS`]):
//!
//! * a generated instance survives `to_json → to_string_pretty →
//!   Json::parse → from_json` unchanged;
//! * after one randomly chosen member of the written document is removed
//!   or given a value of the wrong JSON type, `from_json` fails with a
//!   message containing that member's path.
//!
//! This replaces the per-view "round-trips / rejects a missing field"
//! checks with one that covers every field of every artifact, nested
//! records included.

use proptest::prelude::*;
use roads_bench::artifacts::ARTIFACTS;
use roads_bench::delta_view::{DeltaReport, DELTA_SCHEMA_VERSION};
use roads_runtime::{
    AuditLevelRow, AuditReport, CauseKind, FaultKind, Incident, IncidentReport, MatchedFault,
    SuspectedCause,
};
use roads_telemetry::{
    Event, EventKind, Exemplar, ExplainDecision, ExplainHop, HopOutcome, Json, LatencySplit,
    QueryExplain, RetainReason, RetainedQuery, SlowDoc, SpanId, SummaryKind, TraceId,
};
use std::fmt::Debug;

/// Members written only when non-empty: removing one is not an error.
const OMITTABLE: &[&str] = &["summary", "caused_by", "events"];

/// Computed members whose stored value is compared as a whole: a corrupt
/// inner number is reported at the member, not below it.
const COMPUTED_OBJECTS: &[&str] = &["attribution"];

/// SplitMix64: instance shapes are derived from one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A count that a JSON number represents exactly.
    fn count(&mut self) -> u64 {
        self.next() >> 24
    }

    /// A finite, non-negative float with a fractional part.
    fn float(&mut self) -> f64 {
        self.below(1_000_000_000) as f64 / 1024.0
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    fn text(&mut self) -> String {
        const SAMPLES: &[&str] = &[
            "smoke",
            "a\"b\\c",
            "server-3",
            "",
            "ünï\ncode",
            "x{y=\"z\"}",
        ];
        format!("{}{}", self.pick(SAMPLES), self.below(100))
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    fn maybe<T>(&mut self, make: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.flag().then(|| make(self))
    }

    fn many<T>(&mut self, max: u64, mut make: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| make(self)).collect()
    }
}

fn hop(g: &mut Gen) -> ExplainHop {
    ExplainHop {
        server: g.below(1 << 20) as u32,
        decision: g.pick(&[
            ExplainDecision::Entry,
            ExplainDecision::SummaryDescent,
            ExplainDecision::OverlayShortcut,
            ExplainDecision::AncestorProbe,
            ExplainDecision::Retry,
            ExplainDecision::Failover,
            ExplainDecision::CacheHit,
        ]),
        summary: g.maybe(|g| {
            g.pick(&[
                SummaryKind::Histogram,
                SummaryKind::ValueSet,
                SummaryKind::Bloom,
            ])
        }),
        false_positive: g.flag(),
        outcome: g.pick(&[
            HopOutcome::Replied,
            HopOutcome::TimedOut,
            HopOutcome::MailboxDown,
            HopOutcome::Abandoned,
        ]),
        at_us: g.float(),
        dur_us: g.float(),
        caused_by: g.maybe(|g| g.below(8) as usize),
        local_matches: g.count(),
        split: LatencySplit {
            queue_us: g.float(),
            network_us: g.float(),
            compute_us: g.float(),
            backoff_us: g.float(),
        },
    }
}

fn retained(g: &mut Gen) -> RetainedQuery {
    let trace_id = 1 + g.count();
    // validate(): retained events must form one span tree of the explain's
    // trace — a root plus children hanging off it.
    let events = g.maybe(|g| {
        let span = |g: &mut Gen, id: u64, parent: SpanId| Event {
            at_us: g.count(),
            dur_us: g.count(),
            node: g.below(64) as u32,
            trace: TraceId(trace_id),
            span: SpanId(id),
            parent,
            kind: g.pick(&[
                EventKind::QueryStart,
                EventKind::QueryHop,
                EventKind::QueryComplete,
            ]),
            detail: g.count(),
        };
        let mut events = vec![span(g, 1, SpanId::NONE)];
        for id in 2..2 + g.below(4) {
            events.push(span(g, id, SpanId(1)));
        }
        events
    });
    RetainedQuery {
        reason: g.pick(&[
            RetainReason::Slow,
            RetainReason::Failed,
            RetainReason::Incomplete,
        ]),
        explain: QueryExplain {
            query_id: g.count(),
            trace_id,
            entry: g.below(1 << 20) as u32,
            response_us: g.float(),
            complete: g.flag(),
            deadline_hit: g.flag(),
            records: g.count(),
            hops: g.many(4, hop),
        },
        events: events.unwrap_or_default(),
    }
}

fn slow_doc(g: &mut Gen) -> SlowDoc {
    SlowDoc {
        threshold_ms: g.float(),
        observed: g.count(),
        dropped: g.count(),
        retained: g.many(3, retained),
        exemplars: g.many(3, |g| Exemplar {
            bucket_ms: g.float(),
            trace_id: g.count(),
        }),
    }
}

fn audit_report(g: &mut Gen) -> AuditReport {
    AuditReport {
        epoch: g.count(),
        ticks: g.count(),
        divergence: g.float(),
        staleness_p99: g.count(),
        max_drift: g.float(),
        bloom_saturation: g.float(),
        levels: g.many(4, |g| AuditLevelRow {
            level: g.below(16) as usize,
            entries: g.count() as usize,
            probes: g.count(),
            false_positives: g.count(),
            false_negatives: g.count(),
            diverged: g.count() as usize,
            staleness_max: g.count(),
            live_probes: g.count(),
            live_false_positives: g.count(),
        }),
    }
}

fn delta_report(g: &mut Gen) -> DeltaReport {
    // validate(): accounting adds up, dirty sets fit, bytes shrink, and
    // the speedup matches the timings and clears the speedup floor.
    let servers = 1 + g.below(1_000);
    let churn_changes = 1 + g.count();
    let applied = g.below(churn_changes + 1);
    let dirty_servers = g.below(servers + 1);
    let full_bytes = g.count();
    let delta_ms = 1.0 + g.float();
    let full_ms = delta_ms * (10.5 + g.float());
    DeltaReport {
        schema_version: DELTA_SCHEMA_VERSION,
        config: g.text(),
        servers,
        records: 1 + g.count(),
        churn_changes,
        full_ms,
        delta_ms,
        speedup: full_ms / delta_ms,
        full_bytes,
        delta_bytes: g.below(full_bytes + 1),
        applied,
        rejected: churn_changes - applied,
        dirty_servers,
        dirty_branches: dirty_servers + g.below(100),
        shard_rebuilds: g.count(),
    }
}

fn incident_report(g: &mut Gen) -> IncidentReport {
    IncidentReport {
        ticks: g.count(),
        interval_ms: g.float(),
        firings: g.count(),
        false_alarms: g.count(),
        rows: g.many(3, |g| Incident {
            id: g.count(),
            opened_ms: g.float(),
            last_ms: g.float(),
            firings: g.count(),
            detectors: g.many(3, Gen::text),
            series: g.many(3, Gen::text),
            causes: g.many(3, |g| SuspectedCause {
                kind: g.pick(&[
                    CauseKind::FaultEvent,
                    CauseKind::AuditDivergence,
                    CauseKind::QueueDepth,
                ]),
                server: g.maybe(|g| g.below(1 << 20) as u32),
                score: g.float(),
                detail: g.text(),
            }),
            matched: g.maybe(|g| MatchedFault {
                kind: g.pick(&[
                    FaultKind::Kill,
                    FaultKind::Restart,
                    FaultKind::Slow,
                    FaultKind::Restore,
                ]),
                server: g.below(1 << 20) as u32,
                onset_ms: g.float(),
            }),
            detection_latency_ms: g.maybe(Gen::float),
            false_alarm: g.flag(),
            slow_queries: g.many(4, Gen::count),
        }),
    }
}

/// One step from a JSON value to a child.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every object member of `doc` as (steps to reach it, rendered path).
fn members(doc: &Json, steps: &mut Vec<Step>, path: &str, out: &mut Vec<(Vec<Step>, String)>) {
    match doc {
        Json::Obj(pairs) => {
            for (key, value) in pairs {
                let at = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                steps.push(Step::Key(key.clone()));
                out.push((steps.clone(), at.clone()));
                if !COMPUTED_OBJECTS.contains(&key.as_str()) {
                    members(value, steps, &at, out);
                }
                steps.pop();
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                steps.push(Step::Index(i));
                members(item, steps, &format!("{path}[{i}]"), out);
                steps.pop();
            }
        }
        _ => {}
    }
}

/// A value no field accepts in place of `value`.
fn mistyped(value: &Json) -> Json {
    match value {
        Json::Num(_) | Json::Bool(_) => Json::str("x"),
        Json::Null => Json::Bool(true),
        Json::Str(_) | Json::Arr(_) | Json::Obj(_) => Json::num(1.0),
    }
}

/// Remove (`replacement: None`) or replace the member reached by `steps`.
fn edit(doc: &mut Json, steps: &[Step], replacement: Option<fn(&Json) -> Json>) {
    let (last, walk) = steps.split_last().expect("a member path");
    let mut cur = doc;
    for step in walk {
        cur = match (cur, step) {
            (Json::Obj(pairs), Step::Key(k)) => {
                &mut pairs.iter_mut().find(|(key, _)| key == k).expect("key").1
            }
            (Json::Arr(items), Step::Index(i)) => &mut items[*i],
            _ => panic!("path does not match the document"),
        };
    }
    let (Json::Obj(pairs), Step::Key(k)) = (cur, last) else {
        panic!("a member path ends at an object key");
    };
    match replacement {
        None => pairs.retain(|(key, _)| key != k),
        Some(make) => {
            let slot = &mut pairs.iter_mut().find(|(key, _)| key == k).expect("key").1;
            *slot = make(slot);
        }
    }
}

/// The two properties, for one instance of one artifact type.
fn exercise<T: PartialEq + Debug>(
    value: &T,
    to_json: fn(&T) -> Json,
    from_json: fn(&Json) -> Result<T, String>,
    g: &mut Gen,
) -> Result<(), TestCaseError> {
    let doc = Json::parse(&to_json(value).to_string_pretty())
        .map_err(|e| TestCaseError::fail(format!("writer produced invalid JSON: {e}")))?;
    match from_json(&doc) {
        Ok(back) => prop_assert_eq!(&back, value),
        Err(e) => return Err(TestCaseError::fail(format!("round trip failed: {e}"))),
    }

    let mut all = Vec::new();
    members(&doc, &mut Vec::new(), "", &mut all);
    let (steps, path) = &all[g.below(all.len() as u64) as usize];
    let Some(Step::Key(leaf)) = steps.last() else {
        unreachable!("members end at object keys");
    };
    let remove = g.flag() && !OMITTABLE.contains(&leaf.as_str());
    let mut broken = doc.clone();
    edit(&mut broken, steps, (!remove).then_some(mistyped));
    let what = if remove { "removing" } else { "mistyping" };
    match from_json(&broken) {
        Ok(_) => Err(TestCaseError::fail(format!("{what} {path} was accepted"))),
        Err(e) => {
            prop_assert!(e.contains(path.as_str()), "{what} {path} reported as: {e}");
            Ok(())
        }
    }
}

/// Marker → exerciser, one per row of the `check` table.
type Exerciser = fn(&mut Gen) -> Result<(), TestCaseError>;
const EXERCISERS: &[(&str, Exerciser)] = &[
    (SlowDoc::MARKER, |g| {
        exercise(&slow_doc(g), SlowDoc::to_json, SlowDoc::from_json, g)
    }),
    (AuditReport::MARKER, |g| {
        exercise(
            &audit_report(g),
            AuditReport::to_json,
            AuditReport::from_json,
            g,
        )
    }),
    (DeltaReport::MARKER, |g| {
        exercise(
            &delta_report(g),
            DeltaReport::to_json,
            DeltaReport::from_json,
            g,
        )
    }),
    (IncidentReport::MARKER, |g| {
        exercise(
            &incident_report(g),
            IncidentReport::to_json,
            IncidentReport::from_json,
            g,
        )
    }),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_registered_artifact_round_trips_and_names_the_broken_field(seed in any::<u64>()) {
        // A row added to the table without an exerciser here fails.
        let mut registered: Vec<&str> = ARTIFACTS.iter().map(|row| row.marker).collect();
        let mut exercised: Vec<&str> = EXERCISERS.iter().map(|(marker, _)| *marker).collect();
        registered.sort_unstable();
        exercised.sort_unstable();
        prop_assert_eq!(registered, exercised);

        let mut g = Gen(seed);
        for (_, run) in EXERCISERS {
            run(&mut g)?;
        }
    }
}
