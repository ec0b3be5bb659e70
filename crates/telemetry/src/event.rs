//! Causal flight recorder.
//!
//! A [`Recorder`] is a bounded, thread-safe ring buffer of structured
//! [`Event`]s: message sends and deliveries, summary publishes and merges,
//! overlay replica installs/refreshes, TTL expiries, churn joins/leaves and
//! query hops. Every event is stamped with a time (simulated microseconds
//! or wall-clock microseconds — the producer decides, one run uses one
//! clock), the node it happened on, and a ([`TraceId`], [`SpanId`],
//! parent [`SpanId`]) triple so the events of one query or update round
//! form a span tree rooted at the operation's entry point.
//!
//! Events are `Copy` and recording takes one short mutex acquisition and
//! zero allocations; when no recorder is attached the instrumented code
//! paths reduce to an `Option` check. The buffer holds the most recent
//! `capacity` events — older ones are evicted FIFO and counted in
//! [`Recorder::evicted`], which is what makes this a *flight* recorder:
//! always on, bounded memory, the tail of history available post-mortem.
//! Eviction cuts the oldest traces; the recorder remembers which, and
//! [`Recorder::whole_traces`] — what a trace file holds — leaves them out,
//! so every exported trace is a complete span tree.
//!
//! [`chrome_trace_json`] converts a recording into Chrome trace-event JSON
//! that loads directly in Perfetto or `chrome://tracing`: nodes become
//! named threads, events with a duration become complete (`"X"`) slices,
//! point events become instants, and parent→child span edges become flow
//! arrows.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::json::Json;

/// Identifies one causal chain (a query, an update round, a timer tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// "No trace": events outside any causal chain.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Identifies one node of a trace's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// "No span": the root's parent, or an event with no span identity.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What happened. `detail` in [`Event`] is kind-specific (bytes for
/// message events, counts for state events, matches for query hops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message left a node (detail: payload bytes).
    MessageSend,
    /// A message arrived at a node (detail: payload bytes).
    MessageDeliver,
    /// A protocol timer fired (detail: timer tag).
    TimerFire,
    /// A server published its branch summary upward (detail: wire bytes).
    SummaryPublish,
    /// A server merged a child's branch summary (detail: child node id).
    SummaryMerge,
    /// A replication-overlay replica was installed for the first time
    /// (detail: replicas installed).
    ReplicaInstall,
    /// An existing overlay replica was refreshed (detail: replicas
    /// refreshed).
    ReplicaRefresh,
    /// Soft-state entries expired without refresh (detail: entries
    /// expired).
    TtlExpire,
    /// A server (re)joined the hierarchy (detail: parent node id).
    ChurnJoin,
    /// A server left or was declared down (detail: departed node id).
    ChurnLeave,
    /// A query entered the system (detail: workload query id).
    QueryStart,
    /// A query visited a server (detail: local matches found there).
    QueryHop,
    /// A query's last result reached the client (detail: total matches).
    QueryComplete,
    /// A dispatched sub-query got no reply within the per-dispatch timeout,
    /// or its target was already dead at delivery (detail: tries so far).
    DispatchTimeout,
    /// A timed-out dispatch was re-sent after backoff (detail: retry
    /// number, 1-based).
    Retry,
    /// A dead server's sub-query was re-routed to a replication-overlay
    /// stand-in (detail: the dead server's node id; `node` is the helper).
    Failover,
    /// A generic labelled span for coarse phases (detail: free-form).
    Mark,
}

impl EventKind {
    /// Stable kebab-case label used in trace exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::MessageSend => "message-send",
            EventKind::MessageDeliver => "message-deliver",
            EventKind::TimerFire => "timer-fire",
            EventKind::SummaryPublish => "summary-publish",
            EventKind::SummaryMerge => "summary-merge",
            EventKind::ReplicaInstall => "replica-install",
            EventKind::ReplicaRefresh => "replica-refresh",
            EventKind::TtlExpire => "ttl-expire",
            EventKind::ChurnJoin => "churn-join",
            EventKind::ChurnLeave => "churn-leave",
            EventKind::QueryStart => "query-start",
            EventKind::QueryHop => "query-hop",
            EventKind::QueryComplete => "query-complete",
            EventKind::DispatchTimeout => "dispatch-timeout",
            EventKind::Retry => "retry",
            EventKind::Failover => "failover",
            EventKind::Mark => "mark",
        }
    }

    /// Inverse of [`EventKind::as_str`]: parse the kebab-case label read
    /// back from an exported trace. `None` for unknown labels.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "message-send" => EventKind::MessageSend,
            "message-deliver" => EventKind::MessageDeliver,
            "timer-fire" => EventKind::TimerFire,
            "summary-publish" => EventKind::SummaryPublish,
            "summary-merge" => EventKind::SummaryMerge,
            "replica-install" => EventKind::ReplicaInstall,
            "replica-refresh" => EventKind::ReplicaRefresh,
            "ttl-expire" => EventKind::TtlExpire,
            "churn-join" => EventKind::ChurnJoin,
            "churn-leave" => EventKind::ChurnLeave,
            "query-start" => EventKind::QueryStart,
            "query-hop" => EventKind::QueryHop,
            "query-complete" => EventKind::QueryComplete,
            "dispatch-timeout" => EventKind::DispatchTimeout,
            "retry" => EventKind::Retry,
            "failover" => EventKind::Failover,
            "mark" => EventKind::Mark,
            _ => return None,
        })
    }
}

/// One recorded event. `Copy` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Event time in microseconds (simulated or wall-clock — uniform
    /// within one recording).
    pub at_us: u64,
    /// Span duration in microseconds; 0 for point events.
    pub dur_us: u64,
    /// Node the event happened on.
    pub node: u32,
    /// Causal chain this event belongs to ([`TraceId::NONE`] if none).
    pub trace: TraceId,
    /// This event's span ([`SpanId::NONE`] for span-less events).
    pub span: SpanId,
    /// The causing span ([`SpanId::NONE`] for trace roots).
    pub parent: SpanId,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub detail: u64,
}

/// Fixed-capacity FIFO ring of events.
struct Ring {
    buf: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    start: usize,
    /// Traces that lost at least one event to eviction.
    cut: HashSet<TraceId>,
}

impl Ring {
    fn note_evicted(&mut self, ev: &Event) {
        if !ev.trace.is_none() {
            self.cut.insert(ev.trace);
        }
    }
}

/// Bounded, thread-safe flight recorder. See the module docs.
pub struct Recorder {
    ring: Mutex<Ring>,
    capacity: usize,
    evicted: AtomicU64,
    next_span: AtomicU64,
    next_trace: AtomicU64,
}

impl Recorder {
    /// A recorder keeping the most recent `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                start: 0,
                cut: HashSet::new(),
            }),
            capacity,
            evicted: AtomicU64::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().buf.len()
    }

    /// Whether nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted FIFO because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// A fresh, never-`NONE` span id.
    pub fn next_span_id(&self) -> SpanId {
        SpanId(self.next_span.fetch_add(1, Ordering::Relaxed))
    }

    /// A fresh, never-`NONE` trace id.
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Append one event, evicting the oldest if the buffer is full.
    pub fn record(&self, ev: Event) {
        let mut ring = self.ring.lock();
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let start = ring.start;
            let old = std::mem::replace(&mut ring.buf[start], ev);
            ring.note_evicted(&old);
            ring.start = (start + 1) % self.capacity;
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a new span under `parent` and return its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        trace: TraceId,
        parent: SpanId,
        node: u32,
        kind: EventKind,
        at_us: u64,
        dur_us: u64,
        detail: u64,
    ) -> SpanId {
        let span = self.next_span_id();
        self.record(Event {
            at_us,
            dur_us,
            node,
            trace,
            span,
            parent,
            kind,
            detail,
        });
        span
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let ring = self.ring.lock();
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.start..]);
        out.extend_from_slice(&ring.buf[..ring.start]);
        out
    }

    /// Retained events of every trace that lost none to eviction, oldest
    /// first, and how many retained traces were left out. Events outside
    /// any trace are kept.
    pub fn whole_traces(&self) -> (Vec<Event>, usize) {
        let ring = self.ring.lock();
        let keep = |e: &&Event| !ring.cut.contains(&e.trace);
        let (newer, older) = ring.buf.split_at(ring.start);
        let out: Vec<Event> = older.iter().chain(newer).filter(keep).copied().collect();
        let dropped = trace_ids(&ring.buf)
            .iter()
            .filter(|t| ring.cut.contains(t))
            .count();
        (out, dropped)
    }
}

/// Trace ids present in `events`, ascending, [`TraceId::NONE`] excluded.
pub fn trace_ids(events: &[Event]) -> Vec<TraceId> {
    let mut ids: Vec<TraceId> = events
        .iter()
        .map(|e| e.trace)
        .filter(|t| !t.is_none())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Events of one trace, in recorded order.
pub fn trace_events(events: &[Event], trace: TraceId) -> Vec<Event> {
    events
        .iter()
        .filter(|e| e.trace == trace)
        .copied()
        .collect()
}

/// Validate that the spans of `trace` form a tree and return its root
/// span. Errors (as human-readable strings) on: no spans, multiple roots,
/// a parent referencing an unknown span, or a cycle.
pub fn span_tree_root(events: &[Event], trace: TraceId) -> Result<SpanId, String> {
    // First event that *defines* each span wins; later events on the same
    // span (e.g. a deliver completing a send) must agree on the parent.
    let mut parent_of: HashMap<SpanId, SpanId> = HashMap::new();
    for e in events.iter().filter(|e| e.trace == trace) {
        if e.span.is_none() {
            continue;
        }
        match parent_of.get(&e.span) {
            None => {
                parent_of.insert(e.span, e.parent);
            }
            Some(&p) if p != e.parent => {
                return Err(format!(
                    "span {} has conflicting parents {} and {}",
                    e.span.0, p.0, e.parent.0
                ));
            }
            Some(_) => {}
        }
    }
    if parent_of.is_empty() {
        return Err(format!("trace {} has no spans", trace.0));
    }
    let mut roots = Vec::new();
    for (&span, &parent) in &parent_of {
        if parent.is_none() {
            roots.push(span);
        } else if !parent_of.contains_key(&parent) {
            return Err(format!(
                "span {} references unknown parent {}",
                span.0, parent.0
            ));
        }
    }
    if roots.len() != 1 {
        return Err(format!(
            "trace {} has {} roots, expected exactly 1",
            trace.0,
            roots.len()
        ));
    }
    // Walk every span to the root; revisiting a span within one walk is a
    // cycle (the conflicting-parent check above makes parents unique).
    for &span in parent_of.keys() {
        let mut seen = HashSet::new();
        let mut cur = span;
        while !cur.is_none() {
            if !seen.insert(cur) {
                return Err(format!("cycle through span {}", cur.0));
            }
            cur = parent_of[&cur];
        }
    }
    Ok(roots[0])
}

/// The critical path of `trace`: the root-to-leaf span chain ending at the
/// latest finishing event, root first. Empty if the trace has no spans.
pub fn critical_path(events: &[Event], trace: TraceId) -> Vec<Event> {
    // Representative event per span: the one finishing last.
    let mut by_span: HashMap<SpanId, Event> = HashMap::new();
    for e in events.iter().filter(|e| e.trace == trace) {
        if e.span.is_none() {
            continue;
        }
        let keep = by_span
            .get(&e.span)
            .map(|old| e.at_us + e.dur_us >= old.at_us + old.dur_us)
            .unwrap_or(true);
        if keep {
            by_span.insert(e.span, *e);
        }
    }
    let Some(last) = by_span
        .values()
        .max_by_key(|e| (e.at_us + e.dur_us, e.span.0))
        .copied()
    else {
        return Vec::new();
    };
    let mut path = vec![last];
    let mut seen: HashSet<SpanId> = [last.span].into_iter().collect();
    let mut cur = last.parent;
    while !cur.is_none() && seen.insert(cur) {
        match by_span.get(&cur) {
            Some(e) => {
                path.push(*e);
                cur = e.parent;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

/// The trace whose span tree finishes latest relative to its own start —
/// the slowest end-to-end operation in the recording.
pub fn slowest_trace(events: &[Event]) -> Option<TraceId> {
    let mut best: Option<(u64, TraceId)> = None;
    for trace in trace_ids(events) {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for e in events.iter().filter(|e| e.trace == trace) {
            lo = lo.min(e.at_us);
            hi = hi.max(e.at_us + e.dur_us);
        }
        let elapsed = hi.saturating_sub(lo);
        if best.map(|(b, _)| elapsed > b).unwrap_or(true) {
            best = Some((elapsed, trace));
        }
    }
    best.map(|(_, t)| t)
}

/// Convert a recording to a Chrome trace-event document (the JSON object
/// format, `{"traceEvents": [...]}`) loadable in Perfetto and
/// `chrome://tracing`. Nodes map to threads (`tid` = node id) of one
/// process; span parent edges become flow arrows.
pub fn chrome_trace_json(events: &[Event]) -> Json {
    let mut out: Vec<Json> = Vec::with_capacity(events.len() * 2 + 8);
    out.push(meta_event(
        "process_name",
        0,
        None,
        vec![("name", Json::str("roads"))],
    ));
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        out.push(meta_event(
            "thread_name",
            0,
            Some(*n),
            vec![("name", Json::str(format!("server-{n}")))],
        ));
    }
    // Where each span's defining event sits, for flow-arrow endpoints.
    let mut span_site: HashMap<SpanId, (u64, u32)> = HashMap::new();
    for e in events {
        if !e.span.is_none() {
            span_site.entry(e.span).or_insert((e.at_us, e.node));
        }
    }
    for e in events {
        let args = Json::obj(vec![
            ("trace", Json::num(e.trace.0 as f64)),
            ("span", Json::num(e.span.0 as f64)),
            ("parent", Json::num(e.parent.0 as f64)),
            ("detail", Json::num(e.detail as f64)),
        ]);
        let mut fields = vec![
            ("name", Json::str(e.kind.as_str())),
            ("cat", Json::str("roads")),
            ("pid", Json::num(0.0)),
            ("tid", Json::num(e.node as f64)),
            ("ts", Json::num(e.at_us as f64)),
        ];
        if e.dur_us > 0 {
            fields.push(("ph", Json::str("X")));
            fields.push(("dur", Json::num(e.dur_us as f64)));
        } else {
            fields.push(("ph", Json::str("i")));
            fields.push(("s", Json::str("t")));
        }
        fields.push(("args", args));
        out.push(Json::obj(fields));
        // One flow arrow per span, from the parent's defining site to this
        // span's defining site.
        if !e.parent.is_none() && !e.span.is_none() {
            if let (Some(&(pts, pnode)), Some(&(sts, snode))) =
                (span_site.get(&e.parent), span_site.get(&e.span))
            {
                if span_site.get(&e.span) == Some(&(e.at_us, e.node)) {
                    out.push(flow_event("s", e.span, pts, pnode));
                    out.push(flow_event("f", e.span, sts.max(pts), snode));
                }
            }
        }
    }
    Json::obj(vec![("traceEvents", Json::Arr(out))])
}

fn meta_event(name: &str, pid: u32, tid: Option<u32>, args: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("name", Json::str(name)),
        ("ph", Json::str("M")),
        ("pid", Json::num(pid as f64)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Json::num(tid as f64)));
    }
    fields.push(("args", Json::obj(args)));
    Json::obj(fields)
}

fn flow_event(ph: &str, span: SpanId, ts: u64, node: u32) -> Json {
    let mut fields = vec![
        ("name", Json::str("causal")),
        ("cat", Json::str("flow")),
        ("ph", Json::str(ph)),
        ("id", Json::num(span.0 as f64)),
        ("pid", Json::num(0.0)),
        ("tid", Json::num(node as f64)),
        ("ts", Json::num(ts as f64)),
    ];
    if ph == "f" {
        fields.push(("bp", Json::str("e")));
    }
    Json::obj(fields)
}

/// Write `<dir>/<figure>.trace.json` (creating `dir`, nested or not) and
/// return the written path.
pub fn write_chrome_trace(
    figure: &str,
    dir: impl AsRef<Path>,
    events: &[Event],
) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{figure}.trace.json"));
    fs::write(&path, chrome_trace_json(events).to_string_pretty())?;
    Ok(path)
}

/// Write the recording's whole traces ([`Recorder::whole_traces`]) next
/// to the figure's `.json` (honouring `ROADS_RESULTS_DIR`, default
/// `results/`) and report the path on stdout. Like
/// [`crate::FigureExport::write_default`], errors warn instead of
/// aborting a finished run.
pub fn write_chrome_trace_default(figure: &str, recorder: &Recorder) {
    let dir = crate::export::results_dir();
    let (events, dropped) = recorder.whole_traces();
    match write_chrome_trace(figure, &dir, &events) {
        Ok(path) => {
            if recorder.evicted() > 0 {
                println!(
                    "wrote {} ({} events, {} evicted, {dropped} cut traces left out)",
                    path.display(),
                    events.len(),
                    recorder.evicted()
                );
            } else {
                println!("wrote {} ({} events)", path.display(), events.len());
            }
        }
        Err(e) => eprintln!(
            "warning: could not write {}/{}.trace.json: {e}",
            dir.display(),
            figure
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, trace: u64, span: u64, parent: u64) -> Event {
        Event {
            at_us,
            dur_us: 0,
            node: (span % 7) as u32,
            trace: TraceId(trace),
            span: SpanId(span),
            parent: SpanId(parent),
            kind: EventKind::QueryHop,
            detail: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let rec = Recorder::new(3);
        for i in 0..5 {
            rec.record(ev(i, 1, i + 1, 0));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let ats: Vec<u64> = rec.events().iter().map(|e| e.at_us).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn export_leaves_out_traces_cut_by_eviction() {
        // Three interleaved chains of four spans each (trace t's spans are
        // 10t+1 .. 10t+4, each the parent of the next) through a ring of
        // six: eviction cuts the oldest chains, never an exported one.
        let rec = Recorder::new(6);
        for step in 0..4u64 {
            for t in 1..=3u64 {
                let span = 10 * t + step + 1;
                let parent = if step == 0 { 0 } else { span - 1 };
                rec.record(ev(step * 3 + t, t, span, parent));
            }
        }
        assert_eq!(rec.evicted(), 6);
        let (events, dropped) = rec.whole_traces();
        assert_eq!(dropped, 3, "every chain lost its root");
        assert!(events.is_empty());

        // A fourth chain recorded after the eviction is whole and kept.
        for step in 0..3u64 {
            let span = 41 + step;
            let parent = if step == 0 { 0 } else { span - 1 };
            rec.record(ev(20 + step, 4, span, parent));
        }
        let (events, dropped) = rec.whole_traces();
        assert_eq!(dropped, 3);
        assert_eq!(trace_ids(&events), vec![TraceId(4)]);
        assert_eq!(span_tree_root(&events, TraceId(4)), Ok(SpanId(41)));
    }

    #[test]
    fn ids_are_fresh_and_nonzero() {
        let rec = Recorder::new(4);
        let a = rec.next_span_id();
        let b = rec.next_span_id();
        assert!(!a.is_none() && !b.is_none() && a != b);
        let t = rec.next_trace_id();
        assert!(!t.is_none());
    }

    #[test]
    fn span_tree_valid_and_rooted() {
        let events = vec![
            ev(0, 1, 1, 0),
            ev(1, 1, 2, 1),
            ev(2, 1, 3, 1),
            ev(3, 1, 4, 2),
        ];
        assert_eq!(span_tree_root(&events, TraceId(1)), Ok(SpanId(1)));
    }

    #[test]
    fn span_tree_rejects_two_roots_and_unknown_parent() {
        let two_roots = vec![ev(0, 1, 1, 0), ev(1, 1, 2, 0)];
        assert!(span_tree_root(&two_roots, TraceId(1)).is_err());
        let dangling = vec![ev(0, 1, 1, 0), ev(1, 1, 2, 99)];
        assert!(span_tree_root(&dangling, TraceId(1)).is_err());
        assert!(span_tree_root(&[], TraceId(1)).is_err());
    }

    #[test]
    fn critical_path_walks_to_root() {
        // 1 -> 2 -> 4 ends latest; 1 -> 3 is the short branch.
        let events = vec![
            ev(0, 1, 1, 0),
            ev(5, 1, 2, 1),
            ev(6, 1, 3, 1),
            ev(9, 1, 4, 2),
        ];
        let path = critical_path(&events, TraceId(1));
        let spans: Vec<u64> = path.iter().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![1, 2, 4]);
    }

    #[test]
    fn slowest_trace_picks_longest_elapsed() {
        let mut events = vec![ev(0, 1, 1, 0), ev(10, 1, 2, 1)];
        events.push(ev(100, 2, 3, 0));
        let mut long = ev(130, 2, 4, 3);
        long.dur_us = 15;
        events.push(long);
        assert_eq!(slowest_trace(&events), Some(TraceId(2)));
    }

    #[test]
    fn chrome_trace_document_shape() {
        let mut complete = ev(5, 1, 2, 1);
        complete.dur_us = 7;
        let events = vec![ev(0, 1, 1, 0), complete];
        let doc = chrome_trace_json(&events).to_string();
        assert!(doc.starts_with(r#"{"traceEvents":["#));
        assert!(doc.contains(r#""ph":"M""#));
        assert!(doc.contains(r#""ph":"X""#));
        assert!(doc.contains(r#""ph":"i""#));
        assert!(doc.contains(r#""ph":"s""#));
        assert!(doc.contains(r#""dur":7"#));
        assert!(doc.contains(r#""name":"query-hop""#));
    }

    #[test]
    fn event_kind_labels_round_trip() {
        for kind in [
            EventKind::MessageSend,
            EventKind::MessageDeliver,
            EventKind::TimerFire,
            EventKind::SummaryPublish,
            EventKind::SummaryMerge,
            EventKind::ReplicaInstall,
            EventKind::ReplicaRefresh,
            EventKind::TtlExpire,
            EventKind::ChurnJoin,
            EventKind::ChurnLeave,
            EventKind::QueryStart,
            EventKind::QueryHop,
            EventKind::QueryComplete,
            EventKind::DispatchTimeout,
            EventKind::Retry,
            EventKind::Failover,
            EventKind::Mark,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("not-a-kind"), None);
    }

    #[test]
    fn write_chrome_trace_creates_nested_dirs() {
        let dir = std::env::temp_dir()
            .join(format!("roads-event-test-{}", std::process::id()))
            .join("nested");
        let events = vec![ev(0, 1, 1, 0)];
        let path = write_chrome_trace("fig_unit", &dir, &events)
            .unwrap_or_else(|e| panic!("writing trace under {}: {e}", dir.display()));
        let body = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading back {}: {e}", path.display()));
        assert!(body.contains("traceEvents"));
        std::fs::remove_dir_all(dir.parent().unwrap())
            .unwrap_or_else(|e| panic!("cleaning {}: {e}", dir.display()));
    }
}
