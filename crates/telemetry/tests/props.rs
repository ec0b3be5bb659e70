//! Property tests for the metrics registry primitives, the flight
//! recorder's bounded event ring, the OpenMetrics exposition
//! renderer/parser pair, and the JSON reader's string decoding.

use proptest::prelude::*;
use roads_telemetry::{
    labeled, parse_openmetrics, span_tree_root, trace_ids, Event, EventKind, Histogram, Json,
    LatencyStats, OpenMetricsSnapshot, Recorder, Registry, SpanId, TraceId,
};
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

    /// A randomized registry renders to exposition text that parses back,
    /// and re-rendering the parse reproduces the text byte-for-byte.
    #[test]
    fn openmetrics_parse_round_trips(
        counters in prop::collection::vec(
            (
                "[a-z.]{1,8}",
                prop::collection::vec(("[a-z]{1,3}", "[a-d \"\\\\]{0,5}"), 0..3),
                0u64..1_000_000,
            ),
            0..6,
        ),
        gauges in prop::collection::vec(("[a-z._]{1,8}", -1_000i64..1_000), 0..4),
        hist_samples in prop::collection::vec(0.0f64..1e6, 0..32),
    ) {
        let reg = Registry::new();
        for (base, labels, v) in &counters {
            let refs: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.counter(&labeled(base, &refs)).add(*v);
        }
        for (name, v) in &gauges {
            reg.gauge(name).set(*v);
        }
        let h = reg.histogram("h.lat");
        for &s in &hist_samples {
            h.record(s);
        }
        let snap = OpenMetricsSnapshot::from_registry(&reg);
        let text = snap.render();
        // Determinism: identical snapshots render byte-identically.
        prop_assert_eq!(&text, &OpenMetricsSnapshot::from_registry(&reg).render());
        let scrape = parse_openmetrics(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{text}")))?;
        prop_assert_eq!(scrape.render(), text, "parse→render must be the identity");
        // The histogram's _count sample recovers the sample count and the
        // +Inf bucket agrees with it.
        let fam = scrape.family("h_lat").expect("histogram family");
        prop_assert_eq!(
            fam.sample_with("_count", &[]).expect("_count").value,
            hist_samples.len() as f64
        );
        prop_assert_eq!(
            fam.sample_with("_bucket", &[("le", "+Inf")]).expect("+Inf").value,
            hist_samples.len() as f64
        );
    }

    /// Label values survive the full labeled → render → parse trip even
    /// with quotes, backslashes and newlines in them.
    #[test]
    fn openmetrics_label_escaping_round_trips(
        raw in "[a-f \"\\\\]{0,10}",
        nl in 0usize..3,
    ) {
        // Splice newlines in (the charclass strategy can't emit them).
        let mut value = raw;
        for _ in 0..nl {
            let at = value.len() / 2;
            value.insert(at, '\n');
        }
        let reg = Registry::new();
        reg.counter(&labeled("esc.test", &[("v", &value)])).inc();
        let text = OpenMetricsSnapshot::from_registry(&reg).render();
        let scrape = parse_openmetrics(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{text}")))?;
        let fam = scrape.family("esc_test").expect("family");
        let got = fam.samples[0].label("v").expect("label v");
        prop_assert_eq!(got, value.as_str());
    }

    /// Rendering is insertion-order independent: feeding the same
    /// instruments in a rotated order produces identical text.
    #[test]
    fn openmetrics_order_independent(
        names in prop::collection::vec("[a-z.]{1,8}", 1..8),
        rot in 0usize..8,
    ) {
        let build = |ordered: &[String]| {
            let reg = Registry::new();
            // Value = name length, so duplicates accumulate identically
            // in every insertion order.
            for n in ordered {
                reg.counter(n).add(n.len() as u64);
            }
            OpenMetricsSnapshot::from_registry(&reg).render()
        };
        let mut rotated = names.clone();
        rotated.rotate_left(rot % names.len().max(1));
        prop_assert_eq!(build(&names), build(&rotated));
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
