//! Property test of the artifact layer over every artifact registered in
//! `roads-inspect`'s `check` table ([`roads_bench::artifacts::ARTIFACTS`])
//! and over the figure document (`FigureExport`), which `check` reads
//! beside its trace file:
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
use roads_runtime::{ClusterHealth, ServerHealth};
use roads_telemetry::{
    Exemplar, ExplainDecision, ExplainHop, FigureExport, HopOutcome, Json, LatencySplit,
    LatencyStats, MetricsSnapshot, QueryExplain, RetainReason, RetainedQuery, SlowDoc, SummaryKind,
    TraceReport,
};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Members written only when non-empty: removing one is not an error.
const OMITTABLE: &[&str] = &["summary", "caused_by"];

/// Objects keyed by name (a metrics snapshot's instruments): removing an
/// entry is not an error.
const MAPS: &[&str] = &["counters", "gauges", "histograms"];

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

/// Hop `index` of a hop tree: the entry has no cause, every other hop
/// names an earlier one (`SlowDoc::validate`).
fn hop(g: &mut Gen, index: usize) -> ExplainHop {
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
        caused_by: (index > 0).then(|| g.below(index as u64) as usize),
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
    let hops = g.below(5) as usize;
    RetainedQuery {
        reason: g.pick(&[
            RetainReason::Slow,
            RetainReason::Failed,
            RetainReason::Incomplete,
        ]),
        explain: QueryExplain {
            query_id: g.count(),
            trace_id: 1 + g.count(),
            entry: g.below(1 << 20) as u32,
            response_us: g.float(),
            complete: g.flag(),
            deadline_hit: g.flag(),
            records: g.count(),
            hops: (0..hops).map(|i| hop(g, i)).collect(),
        },
    }
}

fn slow_doc(g: &mut Gen) -> SlowDoc {
    let retained = g.many(3, retained);
    // validate(): every exemplar names a retained trace.
    let traces: Vec<u64> = retained.iter().map(|q| q.explain.trace_id).collect();
    let exemplars = if traces.is_empty() {
        Vec::new()
    } else {
        g.many(3, |g| Exemplar {
            bucket_ms: g.float(),
            trace_id: g.pick(&traces),
        })
    };
    SlowDoc {
        threshold_ms: g.float(),
        observed: g.count(),
        dropped: g.count(),
        retained,
        exemplars,
    }
}

fn cluster_health(g: &mut Gen) -> ClusterHealth {
    // validate(): rows ascend by unique server id. Gauges may be negative.
    let gauge = |g: &mut Gen| g.count() as i64 - (1 << 39);
    let mut server = 0;
    ClusterHealth {
        inflight_queries: gauge(g),
        queries: g.count(),
        retries: g.count(),
        deadline_misses: g.count(),
        failovers: g.count(),
        cache_hits: g.count(),
        cache_misses: g.count(),
        cache_expired: g.count(),
        servers: g.many(4, |g| {
            server += 1 + g.below(100) as u32;
            ServerHealth {
                server,
                alive: g.flag(),
                queue_depth: gauge(g),
                replies: g.count(),
                dispatch_p99_ms: g.maybe(Gen::float),
            }
        }),
    }
}

fn latency_stats(g: &mut Gen) -> LatencyStats {
    LatencyStats {
        count: g.count() as usize,
        mean: g.float(),
        p50: g.float(),
        p90: g.float(),
        p99: g.float(),
        min: g.float(),
        max: g.float(),
    }
}

fn named<T>(g: &mut Gen, mut make: impl FnMut(&mut Gen) -> T) -> BTreeMap<String, T> {
    (0..g.below(4)).map(|_| (g.text(), make(g))).collect()
}

fn trace_report(g: &mut Gen) -> TraceReport {
    TraceReport {
        queries: g.count() as usize,
        hop_histogram: (0..g.below(4))
            .map(|_| (g.below(64) as usize, g.count() as usize))
            .collect(),
        mean_hops: g.float(),
        max_hops: g.count() as usize,
        probe_hops: g.count() as usize,
        hollow_probes: g.count() as usize,
        fp_redirects: g.count() as usize,
        fp_redirect_rate: g.float(),
        overlay_shortcuts: g.count() as usize,
        climb_hops: g.count() as usize,
        root_visits: g.count() as usize,
        root_load_share: g.float(),
        gini: g.float(),
    }
}

fn figure(g: &mut Gen) -> FigureExport {
    // validate(): equal x/y per series, unique series and reference names.
    let mut fig = FigureExport::new(g.text(), g.text()).axes(g.text(), g.text());
    for i in 0..g.below(4) {
        let points: Vec<(f64, f64)> = (0..g.below(5)).map(|_| (g.float(), g.float())).collect();
        fig.push_series(format!("{i}:{}", g.text()), &points);
    }
    for i in 0..g.below(4) {
        fig.push_reference(format!("{i}:{}", g.text()), g.float(), g.float());
    }
    fig.notes = g.many(3, Gen::text);
    fig.telemetry = g.maybe(|g| MetricsSnapshot {
        counters: named(g, Gen::count),
        gauges: named(g, |g| g.count() as i64 - (1 << 39)),
        histograms: named(g, latency_stats),
    });
    fig.traces = g.maybe(trace_report);
    fig
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
    let in_map =
        matches!(steps.iter().rev().nth(1), Some(Step::Key(k)) if MAPS.contains(&k.as_str()));
    let remove = g.flag() && !OMITTABLE.contains(&leaf.as_str()) && !in_map;
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
    (ClusterHealth::MARKER, |g| {
        exercise(
            &cluster_health(g),
            ClusterHealth::to_json,
            ClusterHealth::from_json,
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

    /// The figure document is an artifact too (marker `schema_version`,
    /// routed by `check` to its trace file rather than a table row): it
    /// round-trips with and without telemetry and traces, names a removed
    /// or mistyped member, and `validate` rejects a series whose `y` and
    /// `x` differ in length and repeated series or reference names.
    #[test]
    fn figure_documents_round_trip_name_the_broken_field_and_validate(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let fig = figure(&mut g);
        exercise(&fig, FigureExport::to_json, FigureExport::from_json, &mut g)?;

        if let Some(first) = fig.series.first() {
            // One point short, or one too many when there is none.
            let mut uneven = fig.clone();
            if uneven.series[0].y.pop().is_none() {
                uneven.series[0].y.push(1.0);
            }
            let err = FigureExport::from_json(&uneven.to_json()).unwrap_err();
            prop_assert!(err.contains("series[0]"), "{}", err);

            let mut twice = fig.clone();
            twice.push_series(first.name.clone(), &[]);
            let err = FigureExport::from_json(&twice.to_json()).unwrap_err();
            prop_assert!(err.contains("duplicate name"), "{}", err);
        }
        if let Some(first) = fig.reference.first() {
            let mut twice = fig.clone();
            twice.push_reference(first.name.clone(), 1.0, 1.0);
            let err = FigureExport::from_json(&twice.to_json()).unwrap_err();
            prop_assert!(err.contains("duplicate name"), "{}", err);
        }
    }
}
