//! Tail-based sampling: keep full provenance only for queries worth it.
//!
//! Head-based sampling decides *before* a query runs whether to trace
//! it — which is exactly wrong for tail latency analysis, since the
//! interesting queries (the slow, failed, or incomplete ones) are rare
//! and unpredictable. The [`TailSampler`] decides *after* the fact:
//! every completed query's latency folds into a histogram (cheap,
//! always on), and only queries that are slow (above a live
//! p99-tracked threshold), failed, or incomplete retain their full
//! [`QueryExplain`] record in a bounded reservoir. The explain's hop tree
//! is the one copy of what the query did: its trace id names the span
//! tree an attached flight recorder holds, nothing here copies that.
//! Histogram buckets carry the trace id of one retained query each
//! (exemplar-style), so a p99 bucket in `SLOW_QUERIES.json` links back
//! to a concrete, fully-explained query.

use crate::explain::QueryExplain;
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
}

/// One histogram exemplar: a latency bucket linked to a retained trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exemplar {
    /// The bucket's edge, ms.
    pub bucket_ms: f64,
    /// Trace id of the newest retained query that landed in the bucket.
    pub trace_id: u64,
}

/// The `SLOW_QUERIES.json` document: the reservoir of a [`TailSampler`]
/// at report time. This module owns the format — writer
/// ([`TailSampler::report`]), strict reader (`SlowDoc::from_json`) and
/// the check that each retained hop tree is one tree.
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

json_labels!(RetainReason);
json_fields!(RetainedQuery { reason, explain });
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
    /// Each retained hop list is one tree, as the renderers read it: hop
    /// 0 (the entry) is the only hop without a cause, and every other hop
    /// names an earlier one — so no hop sits on a `caused_by` cycle. Every
    /// exemplar names a retained query.
    fn validate(&self) -> Result<(), String> {
        for (i, q) in self.retained.iter().enumerate() {
            for (j, hop) in q.explain.hops.iter().enumerate() {
                let broken = match hop.caused_by {
                    None if j > 0 => "no caused_by".to_string(),
                    Some(c) if c >= j => format!("caused_by {c}"),
                    _ => continue,
                };
                return Err(format!(
                    "retained[{i}].explain.hops[{j}]: {broken} breaks the hop tree \
                     (hop 0 alone has no cause, every other names an earlier hop)"
                ));
            }
        }
        for (i, e) in self.exemplars.iter().enumerate() {
            let trace = e.trace_id;
            if !self.retained.iter().any(|q| q.explain.trace_id == trace) {
                return Err(format!("exemplars[{i}]: trace {trace} is not retained"));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct TailState {
    /// In arrival order (index 0 is the oldest entry), which is what
    /// makes an exemplar the newest query of its bucket.
    retained: Vec<RetainedQuery>,
    observed: u64,
    dropped: u64,
}

impl TailState {
    /// Histogram bucket edge (as bits) → trace id of the newest retained
    /// query with a trace that landed in that bucket.
    fn exemplars(&self) -> BTreeMap<u64, u64> {
        let mut by_bucket = BTreeMap::new();
        for q in self.retained.iter().filter(|q| q.explain.trace_id != 0) {
            let edge = Histogram::bucket_edge(q.explain.response_us / 1_000.0);
            by_bucket.insert(edge.to_bits(), q.explain.trace_id);
        }
        by_bucket
    }
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
    fn classify(&self, response_ms: f64, failed: bool, complete: bool) -> Option<RetainReason> {
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
    /// histogram, and retain the explain record when it is slow, failed,
    /// or incomplete. Returns the retention decision; `None` means the
    /// record was dropped after folding.
    pub fn observe(&self, explain: QueryExplain, failed: bool) -> Option<RetainReason> {
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
        g.retained.push(RetainedQuery { reason, explain });
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

    /// Exemplar lookup: the trace id of the newest retained query in the
    /// histogram bucket `response_ms` falls into, if that bucket has one.
    pub fn exemplar(&self, response_ms: f64) -> Option<u64> {
        let edge = Histogram::bucket_edge(response_ms).to_bits();
        self.state.lock().exemplars().get(&edge).copied()
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
    /// reason and full explain record; plus the sampler state (threshold,
    /// counts, exemplar map).
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
                .exemplars()
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
    use crate::json::Json;

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
        assert_eq!(s.observe(explain_ms(0, 1.0, true), false), None);
        // Above the floor retains as Slow.
        assert_eq!(
            s.observe(explain_ms(1, 6.0, true), false),
            Some(RetainReason::Slow)
        );
        // Warm the histogram: 100 fast samples push p99 low, but the
        // floor still applies.
        for i in 0..100 {
            s.observe(explain_ms(2 + i, 0.5, true), false);
        }
        assert!(s.threshold_ms() >= 5.0);
        // And a genuinely slow query after warm-up is retained.
        assert_eq!(
            s.observe(explain_ms(999, 50.0, true), false),
            Some(RetainReason::Slow)
        );
    }

    #[test]
    fn failed_and_incomplete_always_retained() {
        let s = TailSampler::default();
        assert_eq!(
            s.observe(explain_ms(1, 0.01, true), true),
            Some(RetainReason::Failed)
        );
        assert_eq!(
            s.observe(explain_ms(2, 0.01, false), false),
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
        s.observe(explain_ms(1, 10.0, true), false);
        s.observe(explain_ms(2, 30.0, true), false);
        // Full. A slower query displaces the least-slow entry (id 1).
        s.observe(explain_ms(3, 20.0, true), false);
        let ids: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&2) && ids.contains(&3));
        // A Failed query also displaces a Slow one.
        s.observe(explain_ms(4, 0.1, true), true);
        assert!(s
            .retained()
            .iter()
            .any(|q| q.reason == RetainReason::Failed));
        // Once only Failed/Incomplete remain, Slow queries cannot evict.
        s.observe(explain_ms(5, 0.1, false), false);
        assert!(s.retained().iter().all(|q| q.reason != RetainReason::Slow));
        let before: Vec<u64> = s.retained().iter().map(|q| q.explain.query_id).collect();
        s.observe(explain_ms(6, 500.0, true), false);
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
            s.observe(explain_ms(id, 0.1, true), true);
        }
        assert_eq!(ids(&s), [3, 4, 5], "recency wins: the oldest failures go");

        // Evicting a Slow entry from the front keeps the rest in order too.
        let s = sampler();
        s.observe(explain_ms(10, 50.0, true), false);
        for id in 11..=14 {
            s.observe(explain_ms(id, 0.1, true), true);
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
        s.observe(explain_ms(1, 42.0, true), false);
        // The exact value and a same-bucket neighbour both resolve.
        assert_eq!(s.exemplar(42.0), Some(101));
        // A far-away bucket has no exemplar.
        assert_eq!(s.exemplar(0.004), None);
    }

    #[test]
    fn exemplars_name_only_retained_traces() {
        let s = TailSampler::new(TailConfig {
            capacity: 2,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false);
        s.observe(explain_ms(2, 30.0, true), false);
        // Full: trace 103 evicts trace 101, the least slow.
        s.observe(explain_ms(3, 20.0, true), false);
        assert_eq!(s.exemplar(10.0), None, "trace 101 was evicted");
        assert_eq!(s.exemplar(20.0), Some(103));
        let doc = s.report();
        let traces: Vec<u64> = doc.exemplars.iter().map(|e| e.trace_id).collect();
        assert_eq!(traces, [103, 102]);
        assert_eq!(SlowDoc::from_json(&doc.to_json()), Ok(doc));
    }

    #[test]
    fn report_ranks_by_latency_and_round_trips() {
        let s = TailSampler::new(TailConfig {
            capacity: 8,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        s.observe(explain_ms(1, 10.0, true), false);
        s.observe(explain_ms(2, 99.0, true), false);
        s.observe(explain_ms(3, 55.0, true), false);
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
    fn hop_trees_with_caused_by_cycles_are_rejected() {
        let s = TailSampler::new(TailConfig {
            capacity: 4,
            min_samples: 1_000_000,
            floor_ms: 1.0,
        });
        let mut ex = explain_ms(1, 20.0, true);
        let entry = ex.hops[0].clone();
        // Entry, then two descents from it: one tree.
        ex.hops = vec![entry.clone(), entry.clone(), entry];
        ex.hops[1].caused_by = Some(0);
        ex.hops[2].caused_by = Some(0);
        s.observe(ex, false);
        let good = s.report();
        assert_eq!(SlowDoc::from_json(&good.to_json()), Ok(good.clone()));
        // A hop that caused itself, and two hops naming each other: the
        // decision tree would leave both out without a word.
        for ([one, two], at) in [([Some(0), Some(2)], 2), ([Some(2), Some(1)], 1)] {
            let mut bad = good.clone();
            let hops = &mut bad.retained[0].explain.hops;
            (hops[1].caused_by, hops[2].caused_by) = (one, two);
            let err = SlowDoc::from_json(&bad.to_json()).unwrap_err();
            assert!(
                err.contains(&format!("retained[0].explain.hops[{at}]")),
                "{err}"
            );
        }
        let mut second_root = good.clone();
        second_root.retained[0].explain.hops[1].caused_by = None;
        let err = SlowDoc::from_json(&second_root.to_json()).unwrap_err();
        assert!(err.contains("retained[0].explain.hops[1]"), "{err}");
    }
}
