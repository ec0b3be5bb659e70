//! Property tests for the metrics registry primitives, the flight
//! recorder's bounded event ring, tail retention, and the JSON reader's
//! string decoding.

use proptest::prelude::*;
use roads_telemetry::{
    span_tree_root, trace_ids, Event, EventKind, ExplainDecision, ExplainHop, Histogram,
    HopOutcome, Json, LatencySplit, LatencyStats, QueryExplain, Recorder, Registry, RetainReason,
    SlowDoc, SpanId, TailConfig, TailSampler, TraceId,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One piece of a generated string: plain runs (ASCII and multi-byte),
/// characters the writer must escape, and raw control characters.
fn string_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 :,.{}]{1,6}",
        "[éßΩ€中😀\u{fffd}]{1,4}",
        "[\"\\/]{1,3}",
        "[\u{0}-\u{1f}\u{7f}]{1,3}",
    ]
}

/// Encode `s` as a JSON string literal the way a foreign writer might:
/// where `escape[i]` is set, character `i` is written with the escape
/// JSON gives it (`\/`, `\b`, `\f`, `\uXXXX`, surrogate pairs beyond
/// the BMP); otherwise it is written raw unless JSON forbids that.
fn foreign_literal(s: &str, escape: &[bool]) -> String {
    let mut out = String::from("\"");
    for (i, c) in s.chars().enumerate() {
        let esc = escape.get(i).copied().unwrap_or(false);
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if esc => out.push_str("\\/"),
            '\u{8}' if esc => out.push_str("\\b"),
            '\u{c}' if esc => out.push_str("\\f"),
            c if esc || (c as u32) < 0x20 => {
                let mut units = [0u16; 2];
                for u in c.encode_utf16(&mut units) {
                    write!(out, "\\u{:04x}", u).expect("writing to String");
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal event for ring-buffer tests: `detail` doubles as a sequence
/// number so ordering assertions can follow each event through evictions
/// and merges.
fn ev(at_us: u64, trace: u64, seq: u64) -> Event {
    Event {
        at_us,
        dur_us: 0,
        node: 0,
        trace: TraceId(trace),
        span: SpanId(seq + 1),
        parent: SpanId::NONE,
        kind: EventKind::Mark,
        detail: seq,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A counter only ever moves up, and ends at the sum of its increments.
    #[test]
    fn counter_is_monotone(increments in prop::collection::vec(0u64..1_000_000, 0..64)) {
        let reg = Registry::new();
        let ctr = reg.counter("prop.counter");
        let mut prev = ctr.get();
        let mut total = 0u64;
        for &n in &increments {
            ctr.add(n);
            total += n;
            let now = ctr.get();
            prop_assert!(now >= prev, "counter went backwards: {prev} -> {now}");
            prev = now;
        }
        prop_assert_eq!(ctr.get(), total);
    }

    /// Histogram percentiles are monotone in the quantile, and the summary
    /// sits inside the recorded range (up to one bucket of quantization).
    #[test]
    fn histogram_percentiles_are_ordered(
        samples in prop::collection::vec(1e-6f64..1e6, 1..128),
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let p50 = h.percentile(0.5).expect("non-empty");
        let p90 = h.percentile(0.9).expect("non-empty");
        let p99 = h.percentile(0.99).expect("non-empty");
        prop_assert!(p50 <= p90 && p90 <= p99, "p50={p50} p90={p90} p99={p99}");
        let stats = h.summary().expect("non-empty");
        prop_assert_eq!(stats.count as u64, samples.len() as u64);
        prop_assert!(stats.min <= stats.max);
    }

    /// Exact-sample stats keep min <= p50 <= p90 <= p99 <= max.
    #[test]
    fn latency_stats_ordered(samples in prop::collection::vec(0.0f64..1e9, 1..256)) {
        let s = LatencyStats::from_samples(&samples).expect("non-empty");
        prop_assert!(s.min <= s.p50);
        prop_assert!(s.p50 <= s.p90);
        prop_assert!(s.p90 <= s.p99);
        prop_assert!(s.p99 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    /// The recorder never retains more than `capacity` events, and the
    /// eviction counter accounts for every overflow exactly.
    #[test]
    fn recorder_memory_is_bounded(capacity in 1usize..64, n in 0usize..256) {
        let rec = Recorder::new(capacity);
        for i in 0..n {
            rec.record(ev(i as u64, 1, i as u64));
        }
        prop_assert!(rec.len() <= rec.capacity());
        prop_assert_eq!(rec.len(), n.min(capacity));
        prop_assert_eq!(rec.evicted(), n.saturating_sub(capacity) as u64);
        prop_assert_eq!(rec.events().len(), rec.len());
    }

    /// A full ring evicts strictly FIFO: after `n` appends the survivors
    /// are exactly the most recent `capacity` events, still in insertion
    /// order.
    #[test]
    fn recorder_evicts_oldest_first(capacity in 1usize..32, n in 0usize..128) {
        let rec = Recorder::new(capacity);
        for i in 0..n {
            rec.record(ev(i as u64, 1, i as u64));
        }
        let got: Vec<u64> = rec.events().iter().map(|e| e.detail).collect();
        let expect: Vec<u64> = (n.saturating_sub(capacity) as u64..n as u64).collect();
        prop_assert_eq!(got, expect);
    }

    /// A recorder fed more events than it holds, spread over interleaved
    /// traces (each a chain rooted at its first event), exports only
    /// complete span trees: every exported trace passes `span_tree_root`
    /// and keeps every event it was recorded with.
    #[test]
    fn recorder_exports_only_whole_traces(
        capacity in 1usize..32,
        picks in prop::collection::vec(1u64..6, 0..160),
    ) {
        let rec = Recorder::new(capacity);
        let mut recorded: Vec<Vec<u64>> = vec![Vec::new(); 6];
        for (i, &t) in picks.iter().enumerate() {
            let span = i as u64 + 1;
            let parent = recorded[t as usize].last().copied().unwrap_or(0);
            recorded[t as usize].push(span);
            rec.record(Event {
                at_us: i as u64,
                dur_us: 0,
                node: 0,
                trace: TraceId(t),
                span: SpanId(span),
                parent: SpanId(parent),
                kind: EventKind::Mark,
                detail: 0,
            });
        }
        let (events, dropped) = rec.whole_traces();
        let exported = trace_ids(&events);
        prop_assert_eq!(exported.len() + dropped, trace_ids(&rec.events()).len());
        for t in exported {
            prop_assert!(span_tree_root(&events, t).is_ok(), "trace {} is cut", t.0);
            let spans: Vec<u64> = events.iter().filter(|e| e.trace == t).map(|e| e.span.0).collect();
            prop_assert_eq!(&spans, &recorded[t.0 as usize]);
        }
    }

    /// Tail retention in one place: a small tail sampler fed, as the live
    /// cluster feeds it, with each query's explain record (an entry hop
    /// and a chain of descents), over a random mix of fast, slow, failed
    /// and incomplete queries. After every step the reservoir stays
    /// within capacity, in arrival order; failed and incomplete queries
    /// are kept ahead of slow ones (a slow query never displaces one);
    /// each retained explain equals the one offered; every exemplar names
    /// a retained query; and the report passes `SlowDoc::validate` and
    /// round-trips.
    #[test]
    fn tail_retention_rules_hold_after_every_query(
        capacity in 1usize..6,
        min_samples in 1u64..16,
        queries in prop::collection::vec((0u8..4, 0u64..4, 0u32..400), 1..48),
    ) {
        let tail = TailSampler::new(TailConfig { capacity, min_samples, floor_ms: 10.0 });
        let mut offered: BTreeMap<u64, QueryExplain> = BTreeMap::new();
        let mut outages = 0usize;
        for (i, &(kind, hops, ms)) in queries.iter().enumerate() {
            // Fast queries finish under the floor, every other kind above.
            let ms = if kind == 0 { f64::from(ms) / 100.0 } else { 10.0 + f64::from(ms) };
            let (failed, complete) = (kind == 2, kind != 3);
            outages += usize::from(kind >= 2);
            // The entry, then each descent caused by the hop before it.
            let hop = |h: u64| ExplainHop {
                server: h as u32,
                decision: if h == 0 { ExplainDecision::Entry } else { ExplainDecision::SummaryDescent },
                summary: None,
                false_positive: false,
                outcome: HopOutcome::Replied,
                at_us: h as f64,
                dur_us: if h == 0 { ms * 1e3 } else { 1.0 },
                caused_by: h.checked_sub(1).map(|c| c as usize),
                local_matches: 0,
                split: LatencySplit::default(),
                dead: None,
            };
            let explain = QueryExplain {
                query_id: i as u64,
                entry: 0,
                response_us: ms * 1_000.0,
                complete,
                deadline_hit: false,
                records: 0,
                hops: (0..=hops).map(hop).collect(),
            };
            offered.insert(i as u64, explain.clone());
            tail.observe(explain, failed);

            let retained = tail.retained();
            prop_assert!(retained.len() <= capacity, "{} retained", retained.len());
            prop_assert!(
                retained.windows(2).all(|w| w[0].explain.query_id < w[1].explain.query_id),
                "reservoir left arrival order"
            );
            let kept_outages = retained.iter().filter(|q| q.reason != RetainReason::Slow).count();
            prop_assert_eq!(kept_outages, outages.min(capacity), "a slow query displaced an outage");
            for q in &retained {
                let id = q.explain.query_id;
                prop_assert_eq!(&q.explain, &offered[&id], "query {} changed", id);
            }
            let report = tail.report();
            for e in &report.exemplars {
                let named = retained.iter().find(|q| q.explain.query_id == e.query_id);
                let Some(q) = named else {
                    return Err(TestCaseError::fail(format!(
                        "exemplar names evicted query {}", e.query_id
                    )));
                };
                let ms = q.explain.response_us / 1_000.0;
                prop_assert_eq!(tail.exemplar(ms), Some(e.query_id));
            }
            let text = report.to_json().to_string();
            let doc = Json::parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(SlowDoc::from_json(&doc), Ok(report));
        }
    }

    /// Strings with multi-byte characters, every escape, control
    /// characters, and plain runs next to escapes survive the compact and
    /// pretty writers and the reader unchanged, as keys and as values; a
    /// literal escaped another way decodes to the same string.
    #[test]
    fn json_strings_round_trip(
        pieces in prop::collection::vec(string_piece(), 0..12),
        escape in prop::collection::vec(any::<bool>(), 0..64),
    ) {
        let s: String = pieces.concat();
        let doc = Json::Obj(vec![
            (s.clone(), Json::Arr(vec![Json::str(s.clone()), Json::num(1.0)])),
            ("k".to_string(), Json::str(s.clone())),
        ]);
        prop_assert_eq!(Json::parse(&doc.to_string()), Ok(doc.clone()));
        prop_assert_eq!(Json::parse(&doc.to_string_pretty()), Ok(doc.clone()));
        prop_assert_eq!(Json::parse(&foreign_literal(&s, &escape)), Ok(Json::str(s.clone())));
    }
}
