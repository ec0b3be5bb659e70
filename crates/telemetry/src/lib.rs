//! Workspace-wide telemetry for the ROADS reproduction.
//!
//! Eight pieces, all dependency-light and thread-safe:
//!
//! * [`registry`] — named monotonic [`Counter`]s, [`Gauge`]s and
//!   log-bucketed latency [`Histogram`]s (fixed memory, shared across
//!   threads), collected into a [`Registry`] under [`labeled`] names and
//!   exported as a [`MetricsSnapshot`] with p50/p90/p99 extraction.
//! * [`trace`] — an aggregator folding a batch of [`QueryExplain`] records
//!   into a [`TraceReport`]: hop-count distributions, false-positive
//!   redirect rates, overlay-shortcut and ancestor-climb counts and
//!   per-node load concentration (root-load share, Gini coefficient).
//! * [`span`] — scoped wall-clock timers feeding histograms, used by the
//!   threaded prototype runtime to attribute time to phases (local store
//!   search, channel wait, result merge).
//! * [`event`] — the causal flight recorder: a bounded ring buffer of
//!   structured events ([`Event`]) stamped with node, time and
//!   [`TraceId`]/[`SpanId`] causal parents, plus span-tree analysis
//!   (root/acyclicity validation, critical paths) and a Chrome
//!   trace-event / Perfetto exporter (`results/<figure>.trace.json`).
//! * [`timeline`] — a fixed-interval gauge sampler producing
//!   `timeline.<gauge>` time-series inside a [`FigureExport`].
//! * [`explain`] — per-query provenance: a [`QueryExplain`] record built
//!   along the query path, one hop per contact attempt with its routing
//!   decision, summary kind, outcome and latency split, folded into a
//!   query-level queue/network/compute/retry/failover [`Attribution`].
//! * [`tail`] — tail-based sampling: a bounded [`TailSampler`] reservoir
//!   retaining full explain records — each held once, its trace id
//!   naming the recorder's span tree — only for slow / failed /
//!   incomplete queries, with per-histogram-bucket exemplar trace ids
//!   linking p99 buckets to concrete queries.
//! * [`json`] / [`export`] — a small hand-rolled JSON value type (writer
//!   *and* parser), the artifact layer on top of it ([`json::artifact`]:
//!   declare a struct's fields once, derive its strict reader, writer and
//!   checker) and the `results/<figure>.json` document every `fig*`
//!   binary writes, an artifact on that layer.
//!
//! Everything is opt-in: simulation and runtime code paths accept an
//! `Option`al registry/recorder and do no work when it is absent, so the
//! instrumented build costs nothing when telemetry is not requested.

pub mod event;
pub mod explain;
pub mod export;
pub mod json;
pub mod registry;
pub mod span;
pub mod stats;
pub mod tail;
pub mod timeline;
pub mod trace;

pub use event::{
    chrome_trace_json, critical_path, slowest_trace, span_tree_root, trace_events, trace_ids,
    write_chrome_trace, write_chrome_trace_default, Event, EventKind, Recorder, SpanId, TraceId,
};
pub use explain::{
    Attribution, ExplainDecision, ExplainHop, HopOutcome, LatencySplit, QueryExplain, SummaryKind,
};
pub use export::{results_dir, FigureExport, ReferencePoint, Series};
pub use json::{Json, JsonField};
pub use registry::{labeled, Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use span::SpanTimer;
pub use stats::LatencyStats;
pub use tail::{
    Exemplar, RetainReason, RetainedQuery, SlowDoc, TailConfig, TailSampler, SLOW_SCHEMA_VERSION,
};
pub use timeline::{Timeline, TimelineSeries};
pub use trace::{aggregate_traces, gini, TraceReport};
