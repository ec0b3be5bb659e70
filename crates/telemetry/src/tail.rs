//! Tail-based sampling: keep full provenance only for queries worth it.
//!
//! Head-based sampling decides *before* a query runs whether to trace
//! it — which is exactly wrong for tail latency analysis, since the
//! interesting queries (the slow, failed, or incomplete ones) are rare
//! and unpredictable. The [`TailSampler`] decides *after* the fact:
//! every completed query's latency folds into a histogram (cheap,
//! always on), and only queries that are slow (above a live
//! p99-tracked threshold), failed, or incomplete retain their full
//! [`QueryExplain`] record — optionally with the flight-recorder event
//! trace — in a bounded reservoir. Histogram buckets carry the trace id
//! of one retained query each (exemplar-style), so a p99 bucket in an
//! exposition links back to a concrete, fully-explained query.

use crate::event::{span_tree_root, Event, EventKind, SpanId, TraceId};
use crate::explain::QueryExplain;
use crate::json::{Json, JsonField};
use crate::registry::Histogram;
use crate::{artifact, json_fields, json_labels};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why a query's explain record was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetainReason {
    /// Response time above the live p99 threshold (or the floor while
    /// the histogram is still warming up).
    Slow,
    /// The query failed outright (no usable outcome).
    Failed,
    /// The query completed but could not reach every matching branch
    /// (dead servers, deadline).
    Incomplete,
}

impl RetainReason {
    /// Stable label (used in JSON artifacts and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Failed => "failed",
            RetainReason::Incomplete => "incomplete",
        }
    }

    /// Inverse of [`RetainReason::as_str`].
    pub fn parse(s: &str) -> Option<RetainReason> {
        Some(match s {
            "slow" => RetainReason::Slow,
            "failed" => RetainReason::Failed,
            "incomplete" => RetainReason::Incomplete,
            _ => return None,
        })
    }
}

/// Tuning knobs for [`TailSampler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConfig {
    /// Maximum retained explain records; the least-slow `Slow` entry is
    /// evicted first when full (`Failed`/`Incomplete` are only evicted
    /// by other `Failed`/`Incomplete` once no `Slow` entries remain).
    pub capacity: usize,
    /// Samples required before the live p99 threshold activates; until
    /// then only `floor_ms` gates retention.
    pub min_samples: u64,
    /// Queries faster than this are never retained as `Slow`, even when
    /// the warm-up p99 is tiny.
    pub floor_ms: f64,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            capacity: 64,
            min_samples: 32,
            floor_ms: 1.0,
        }
    }
}

/// One retained tail query.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedQuery {
    /// Why it was kept.
    pub reason: RetainReason,
    /// The full provenance record.
    pub explain: QueryExplain,
    /// Flight-recorder events of the same trace, when a recorder was
    /// attached at observation time.
    pub events: Vec<Event>,
}

/// One histogram exemplar: a latency bucket linked to a retained trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The bucket's edge, ms.
    pub bucket_ms: f64,
    /// Trace id of one retained query that landed in the bucket.
    pub trace_id: u64,
}

/// The `SLOW_QUERIES.json` document: the reservoir of a [`TailSampler`]
/// at report time. This module owns the format — writer
/// ([`TailSampler::report`]), strict reader (`SlowDoc::from_json`) and
/// the check that retained traces reconstruct.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowDoc {
    /// Retention threshold at write time (ms).
    pub threshold_ms: f64,
    /// Queries the sampler observed in total.
    pub observed: u64,
    /// Queries folded into the histogram but not retained.
    pub dropped: u64,
    /// Retained tail queries, ranked slowest first.
    pub retained: Vec<RetainedQuery>,
    /// Histogram exemplars, ascending by bucket.
    pub exemplars: Vec<Exemplar>,
}

/// Current `SLOW_QUERIES.json` schema version.
pub const SLOW_SCHEMA_VERSION: u64 = 1;

json_labels!(RetainReason, EventKind);

impl JsonField for TraceId {
    fn to_field(&self) -> Json {
        self.0.to_field()
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<TraceId> {
        u64::from_field(value, path, errs).map(TraceId)
    }
}

impl JsonField for SpanId {
    fn to_field(&self) -> Json {
        self.0.to_field()
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<SpanId> {
        u64::from_field(value, path, errs).map(SpanId)
    }
}

// Enough of a flight-recorder event to rebuild the span tree: ids, kind,
// timing.
json_fields!(Event {
    at_us,
    dur_us,
    node,
    trace,
    span,
    parent,
    kind,
    detail
});
json_fields!(RetainedQuery { reason, explain, events? });
json_fields!(Exemplar {
    bucket_ms,
    trace_id
});
json_fields!(SlowDoc {
    "slow_queries" = SLOW_SCHEMA_VERSION,
    threshold_ms,
    observed,
    dropped,
    retained,
    exemplars,
});
artifact!(SlowDoc, "slow_queries", SLOW_SCHEMA_VERSION);

impl SlowDoc {
    /// Retained flight-recorder events must reconstruct: one causal span
    /// tree for the query the explain record describes.
    fn validate(&self) -> Result<(), String> {
        for (i, q) in self.retained.iter().enumerate() {
            if !q.events.is_empty() {
                let trace = q.explain.trace_id;
                span_tree_root(&q.events, TraceId(trace))
                    .map_err(|why| format!("retained[{i}]: trace {trace}: {why}"))?;
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct TailState {
    retained: Vec<RetainedQuery>,
    /// Histogram bucket edge (ms) → trace id of one retained query that
    /// landed in that bucket.
    exemplars: BTreeMap<u64, u64>,
    observed: u64,
    dropped: u64,
}

/// The tail-based sampling reservoir. Thread-safe; share via `Arc`.
#[derive(Debug)]
pub struct TailSampler {
    cfg: TailConfig,
    /// Live latency distribution of *all* observed queries, threshold
    /// source for the `Slow` decision.
    latency_ms: Histogram,
    state: Mutex<TailState>,
}

impl Default for TailSampler {
    fn default() -> Self {
        Self::new(TailConfig::default())
    }
}

impl TailSampler {
    /// A sampler with explicit tuning.
    pub fn new(cfg: TailConfig) -> Self {
        TailSampler {
            cfg: TailConfig {
                capacity: cfg.capacity.max(1),
                ..cfg
            },
            latency_ms: Histogram::new(),
            state: Mutex::new(TailState::default()),
        }
    }

    /// A shared sampler with default tuning.
    pub fn shared() -> Arc<TailSampler> {
        Arc::new(TailSampler::default())
    }

    /// The live retention threshold in milliseconds: the tracked p99
    /// once warmed up, the floor before that. A query at or above this
    /// is `Slow`.
    pub fn threshold_ms(&self) -> f64 {
        if self.latency_ms.count() < self.cfg.min_samples {
            return self.cfg.floor_ms;
        }
        self.latency_ms
            .percentile(0.99)
            .unwrap_or(self.cfg.floor_ms)
            .max(self.cfg.floor_ms)
    }

    /// Classify a completed query without retaining anything.
    pub fn classify(&self, response_ms: f64, failed: bool, complete: bool) -> Option<RetainReason> {
        if failed {
            Some(RetainReason::Failed)
        } else if !complete {
            Some(RetainReason::Incomplete)
        } else if response_ms >= self.threshold_ms() {
            Some(RetainReason::Slow)
        } else {
            None
        }
    }

    /// Observe a completed query: fold its latency into the live
    /// histogram, and retain the explain record (plus optional
    /// flight-recorder events) when it is slow, failed, or incomplete.
    /// Returns the retention decision; `None` means the record was
    /// dropped after folding.
    pub fn observe(
        &self,
        explain: QueryExplain,
        failed: bool,
        events: Vec<Event>,
    ) -> Option<RetainReason> {
        let response_ms = explain.response_us / 1_000.0;
        // Classify against the threshold *before* folding this sample in,
        // so a query is compared to the distribution of its predecessors.
        let reason = self.classify(response_ms, failed, explain.complete);
        self.latency_ms.record(response_ms);
        let mut g = self.state.lock();
        g.observed += 1;
        let Some(reason) = reason else {
            g.dropped += 1;
            return None;
        };
        if g.retained.len() >= self.cfg.capacity && !Self::evict(&mut g.retained, reason) {
            g.dropped += 1;
            return None;
        }
        if explain.trace_id != 0 {
            let edge = Histogram::bucket_edge(response_ms);
            g.exemplars.insert(edge.to_bits(), explain.trace_id);
        }
        g.retained.push(RetainedQuery {
            reason,
            explain,
            events,
        });
        Some(reason)
    }

    /// Drop one entry to make room for a new `incoming` retention.
    /// `Slow` entries go first (least-slow first); `Failed`/`Incomplete`
    /// are only displaced by another `Failed`/`Incomplete`. Returns
    /// false when nothing may be evicted (incoming is dropped instead).
    fn evict(retained: &mut Vec<RetainedQuery>, incoming: RetainReason) -> bool {
        let slowest_first = |r: &[RetainedQuery]| {
            r.iter()
                .enumerate()
                .filter(|(_, q)| q.reason == RetainReason::Slow)
                .min_by(|(_, a), (_, b)| {
                    a.explain
                        .response_us
                        .partial_cmp(&b.explain.response_us)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
        };
        // `remove`, not `swap_remove`: the reservoir stays in arrival
        // order, so index 0 is always the oldest entry.
        if let Some(i) = slowest_first(retained) {
            retained.remove(i);
            return true;
        }
        // Reservoir holds only Failed/Incomplete: keep them unless the
        // incoming query is also Failed/Incomplete (recency wins then).
        if incoming != RetainReason::Slow {
            retained.remove(0);
            return true;
        }
        false
    }

    /// Snapshot of the retained tail queries.
    pub fn retained(&self) -> Vec<RetainedQuery> {
        self.state.lock().retained.clone()
    }

    /// Exemplar lookup: the retained trace id for the histogram bucket
    /// `response_ms` falls into, if that bucket has one.
    pub fn exemplar(&self, response_ms: f64) -> Option<u64> {
        let edge = Histogram::bucket_edge(response_ms);
        self.state.lock().exemplars.get(&edge.to_bits()).copied()
    }

    /// Total queries observed.
    pub fn observed(&self) -> u64 {
        self.state.lock().observed
    }

    /// Queries dropped after folding (not retained).
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// The reservoir as a `SLOW_QUERIES.json` document: retained queries
    /// ranked by response time (slowest first), each with its retention
    /// reason, full explain record and (when present) flight-recorder
    /// events; plus the sampler state (threshold, counts, exemplar map).
    pub fn report(&self) -> SlowDoc {
        let g = self.state.lock();
        let mut retained = g.retained.clone();
        retained.sort_by(|a, b| {
            b.explain
                .response_us
                .partial_cmp(&a.explain.response_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        SlowDoc {
            threshold_ms: self.threshold_ms(),
            observed: g.observed,
            dropped: g.dropped,
            retained,
            exemplars: g
                .exemplars
                .iter()
                .map(|(&edge, &trace_id)| Exemplar {
                    bucket_ms: f64::from_bits(edge),
                    trace_id,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{ExplainDecision, ExplainHop, HopOutcome, LatencySplit};

    fn explain_ms(id: u64, ms: f64, complete: bool) -> QueryExplain {
        QueryExplain {
            query_id: id,
            trace_id: id + 100,
            entry: 0,
            response_us: ms * 1_000.0,
            complete,
            deadline_hit: false,
            records: 0,
            hops: vec![ExplainHop {
                server: 0,
                decision: ExplainDecision::Entry,
                summary: None,
                false_positive: false,
                outcome: HopOutcome::Replied,
                at_us: 0.0,
                dur_us: ms * 1_000.0,
                caused_by: None,
                local_matches: 0,
                split: LatencySplit::default(),
            }],
        }
    }

    #[test]
    fn warmup_uses_floor_then_live_p99() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 10,
            floor_ms: 5.0,
        });
        assert_eq!(s.threshold_ms(), 5.0);
        // Fast queries below the floor are dropped even during warm-up.
        assert_eq!(s.observe(explain_ms(0, 1.0, true), false, Vec::new()), None);
        // Above the floor retains as Slow.
        assert_eq!(
            s.observe(explain_ms(1, 6.0, true), false, Vec::new()),
            Some(RetainReason::Slow)
        );
        // Warm the histogram: 100 fast samples push p99 low, but the
        // floor still applies.
        for i in 0..100 {
            s.observe(explain_ms(2 + i, 0.5, true), false, Vec::new());
        }
        assert!(s.threshold_ms() >= 5.0);
        // And a genuinely slow query after warm-up is retained.
        assert_eq!(
            s.observe(explain_ms(999, 50.0, true), false, Vec::new()),
            Some(RetainReason::Slow)
        );
    }

    #[test]
    fn failed_and_incomplete_always_retained() {
        let s = TailSampler::default();
        assert_eq!(
            s.observe(explain_ms(1, 0.01, true), true, Vec::new()),
            Some(RetainReason::Failed)
        );
        assert_eq!(
            s.observe(explain_ms(2, 0.01, false), false, Vec::new()),
            Some(RetainReason::Incomplete)
        );
        assert_eq!(s.retained().len(), 2);
    }

    #[test]
    fn reservoir_evicts_least_slow_first() {
        let s = TailSampler::new(TailConfig {
            capacity: 2,
            min_samples: 1_000_000, // stay on the floor threshold
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false, Vec::new());
        s.observe(explain_ms(2, 30.0, true), false, Vec::new());
        // Full. A slower query displaces the least-slow entry (id 1).
        s.observe(explain_ms(3, 20.0, true), false, Vec::new());
        let ids: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&3));
        // A Failed query also displaces a Slow one.
        s.observe(explain_ms(4, 0.1, true), true, Vec::new());
        assert!(s
            .retained()
            .iter()
            .any(|q| q.reason == RetainReason::Failed));
        // Once only Failed/Incomplete remain, Slow queries cannot evict.
        s.observe(explain_ms(5, 0.1, false), false, Vec::new());
        assert!(s.retained().iter().all(|q| q.reason != RetainReason::Slow));
        let before: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        s.observe(explain_ms(6, 500.0, true), false, Vec::new());
        let after: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        assert_eq!(before, after, "Slow must not displace Failed/Incomplete");
    }

    #[test]
    fn failed_entries_are_evicted_oldest_first() {
        let sampler = || {
            TailSampler::new(TailConfig {
                capacity: 3,
                min_samples: 1_000_000,
                floor_ms: 1.0,
            })
        };
        let ids = |s: &TailSampler| -> Vec<u64> {
            s.retained().iter().map(|q| q.explain.query_id).collect()
        };
        let s = sampler();
        for id in 1..=5 {
            s.observe(explain_ms(id, 0.1, true), true, Vec::new());
        }
        assert_eq!(ids(&s), [3, 4, 5], "recency wins: the oldest failures go");

        // Evicting a Slow entry from the front keeps the rest in order too.
        let s = sampler();
        s.observe(explain_ms(10, 50.0, true), false, Vec::new());
        for id in 11..=14 {
            s.observe(explain_ms(id, 0.1, true), true, Vec::new());
        }
        assert_eq!(ids(&s), [12, 13, 14]);
    }

    #[test]
    fn exemplars_link_buckets_to_trace_ids() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 42.0, true), false, Vec::new());
        // The exact value and a same-bucket neighbour both resolve.
        assert_eq!(s.exemplar(42.0), Some(101));
        // A far-away bucket has no exemplar.
        assert_eq!(s.exemplar(0.004), None);
    }

    #[test]
    fn report_ranks_by_latency_and_round_trips() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false, Vec::new());
        s.observe(explain_ms(2, 99.0, true), false, Vec::new());
        s.observe(explain_ms(3, 55.0, true), false, Vec::new());
        let text = s.report().to_json().to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert!(SlowDoc::has_marker(&parsed));
        let doc = SlowDoc::from_json(&parsed).unwrap();
        let ids: Vec<u64> = doc.retained.iter().map(|q| q.explain.query_id).collect();
        assert_eq!(ids, vec![2, 3, 1], "ranked slowest first");
        assert_eq!(doc, s.report());
        assert_eq!(s.observed(), 3);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn retained_events_serialize_and_parse_back() {
        use crate::event::{Recorder, SpanId};
        let rec = Recorder::new(64);
        let trace = rec.next_trace_id();
        rec.record_span(
            trace,
            SpanId::NONE,
            0,
            crate::event::EventKind::QueryStart,
            0,
            100,
            7,
        );
        let events: Vec<Event> = rec.events();
        let mut e = explain_ms(1, 20.0, true);
        e.trace_id = trace.0;
        let s = TailSampler::new(TailConfig {
            capacity: 4,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(e, false, events.clone());
        let text = s.report().to_json().to_string_pretty();
        let back = SlowDoc::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.retained[0].events, events);
    }
}
