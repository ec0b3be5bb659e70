//! Update-round overhead accounting (§IV-B, Figures 4 and 8).
//!
//! Every `ts` seconds ROADS refreshes its soft state in three waves:
//!
//! 1. **Summary export** — each resource owner exports one summary of its
//!    records to its attachment point (`O(rmN)` bytes total).
//! 2. **Bottom-up aggregation** — each non-root server sends its branch
//!    summary to its parent (`n − 1` messages, one per tree link).
//! 3. **Top-down replication** — each parent sends every child the branch
//!    summaries of that child's siblings plus all replicas the parent holds
//!    from above (its own branch summary, its siblings', its ancestors' and
//!    their siblings') — `O(k·n·log n)` summaries in total.
//!
//! The functions below count those bytes over a converged
//! [`RoadsNetwork`], using each summary's real wire size, so Figures 4 and
//! 8 regenerate from the same code path that answers queries.

use crate::engine::RoadsNetwork;
use crate::tree::ServerId;
use roads_records::wire::MSG_HEADER_BYTES;
use roads_records::WireSize;
use roads_telemetry::{Event, EventKind, Recorder, SpanId, TraceId};
use std::collections::BTreeMap;

/// Byte/message counts for one ROADS update round, split by wave.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateBreakdown {
    /// Owner → attachment-point summary exports.
    pub export_bytes: u64,
    /// Owner → attachment-point messages.
    pub export_messages: u64,
    /// Child → parent branch-summary aggregation.
    pub aggregation_bytes: u64,
    /// Child → parent messages.
    pub aggregation_messages: u64,
    /// Parent → child replication fan-out.
    pub replication_bytes: u64,
    /// Parent → child messages.
    pub replication_messages: u64,
    /// Summaries carried by replication messages (the paper's
    /// `O(k·n·log n)` term).
    pub replication_summaries: u64,
}

impl UpdateBreakdown {
    /// Total bytes in the round.
    pub fn total_bytes(&self) -> u64 {
        self.export_bytes + self.aggregation_bytes + self.replication_bytes
    }

    /// Total messages in the round.
    pub fn total_messages(&self) -> u64 {
        self.export_messages + self.aggregation_messages + self.replication_messages
    }

    /// Per-second byte rate given the summary refresh period `ts`.
    /// A zero period means "no periodic refresh", so the rate is 0 —
    /// not the `inf`/`NaN` a bare division would produce.
    pub fn bytes_per_second(&self, ts_ms: u64) -> f64 {
        if ts_ms == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / (ts_ms as f64 / 1000.0)
    }
}

/// The three waves over `net`, counting only what is dirty: servers in
/// `local_dirty` re-export their local summary (wave 1), branches in
/// `branch_dirty` re-send to their parents (wave 2), and the replication
/// fan-out (wave 3) carries only dirty summaries — a parent→child message,
/// header included, is counted only when it carries at least one.
fn account_round(
    net: &RoadsNetwork,
    local_dirty: &[bool],
    branch_dirty: &[bool],
) -> UpdateBreakdown {
    let mut out = UpdateBreakdown::default();
    let tree = net.tree();
    // A dirty branch summary is shipped to its parent and to every reader
    // of the overlay, with its parts to those that test them and without
    // to its descendants, whose ancestor it is; both sizes are worked out
    // once.
    let sizes: Vec<(u64, u64)> = (branch_dirty.iter().zip(0u32..))
        .map(|(&dirty, s)| match dirty {
            true => {
                let summary = net.branch_summary(ServerId(s));
                let bytes = summary.wire_size() as u64;
                (bytes, bytes - summary.parts_bytes() as u64)
            }
            false => (0, 0),
        })
        .collect();
    for s in tree.servers() {
        // Wave 1: each server's attached owners export one summary. In the
        // simulation every server has one attached owner (itself); the
        // export crosses the owner→server edge even when co-located,
        // matching the analysis' O(rmN) term.
        if local_dirty[s.index()] {
            out.export_bytes += (net.local_summary(s).wire_size() + MSG_HEADER_BYTES) as u64;
            out.export_messages += 1;
        }

        // Wave 2: branch summary to the parent.
        if branch_dirty[s.index()] && tree.parent(s).is_some() {
            out.aggregation_bytes += sizes[s.index()].0 + MSG_HEADER_BYTES as u64;
            out.aggregation_messages += 1;
        }

        // Wave 3: replication fan-out to each child. The message to child c
        // carries: branch summaries of c's siblings, the parent's own
        // branch summary (c's first ancestor), and everything the parent
        // replicates from above (its siblings, ancestors, ancestors'
        // siblings) — which become c's ancestor/ancestor-sibling replicas.
        // The ancestors' copies travel without their parts.
        let above = net.replica_set(s);
        let tested = above.siblings.iter().chain(&above.ancestor_siblings);
        let ancestors = [&s].into_iter().chain(&above.ancestors);
        for &c in tree.children(s) {
            let siblings = tree.children(s).iter().filter(|&&x| x != c);
            let copies = siblings
                .chain(tested.clone())
                .map(|r| (r, sizes[r.index()].0));
            let copies = copies.chain(ancestors.clone().map(|r| (r, sizes[r.index()].1)));
            let mut summaries = 0u64;
            let mut bytes = 0u64;
            for (r, size) in copies {
                if branch_dirty[r.index()] {
                    bytes += size;
                    summaries += 1;
                }
            }
            if summaries > 0 {
                out.replication_bytes += bytes + MSG_HEADER_BYTES as u64;
                out.replication_messages += 1;
                out.replication_summaries += summaries;
            }
        }
    }
    out
}

/// Account one full update round over a converged network: every summary
/// counts as dirty (each fan-out message then carries at least the
/// parent's own branch summary, so none is skipped).
pub fn update_round(net: &RoadsNetwork) -> UpdateBreakdown {
    let all = vec![true; net.len()];
    account_round(net, &all, &all)
}

/// One *full* (non-incremental) update round: re-derive every summary from
/// raw records — rebuild every local summary, re-aggregate every branch —
/// then account the three waves over the whole federation. This is what a
/// system without the delta plane pays every refresh period, no matter how
/// little changed.
pub fn update_round_full(net: &mut RoadsNetwork) -> UpdateBreakdown {
    net.refresh_all_summaries();
    update_round(net)
}

/// Apply `delta` and account one *incremental* update round: only what
/// the delta dirtied is re-exported, re-aggregated and re-replicated.
/// With `d` changed subtrees in a tree of depth `L`, the round costs
/// O(d·L) summary transmissions instead of [`update_round`]'s O(n) plus
/// [`update_round_full`]'s O(records) re-aggregation.
pub fn update_round_delta(
    net: &mut RoadsNetwork,
    delta: &crate::store::RecordDelta,
) -> (UpdateBreakdown, crate::store::DeltaOutcome) {
    let outcome = net.apply(delta);
    let flags = |dirty: &[ServerId]| {
        let mut flags = vec![false; net.len()];
        for s in dirty {
            flags[s.index()] = true;
        }
        flags
    };
    let out = account_round(net, &flags(&outcome.dirty), &flags(&outcome.dirty_branches));
    (out, outcome)
}

/// Record one analytic update round into the flight recorder as a
/// synthetic span tree: a root `Mark` span covering the round, one
/// `SummaryPublish` span per non-root server parented on its tree
/// parent's span (detail = branch-summary wire bytes), and a final
/// `SummaryMerge` instant at the root. Timestamps are synthetic — deeper
/// servers publish earlier, mirroring the bottom-up aggregation wave —
/// so the exported trace shows the wave structure, not wall time.
pub fn record_update_round_events(rec: &Recorder, net: &RoadsNetwork) -> TraceId {
    let tree = net.tree();
    let trace = rec.next_trace_id();
    let levels = tree.levels() as u64;
    let root = tree.root();
    let root_span = rec.record_span(
        trace,
        SpanId::NONE,
        root.0,
        EventKind::Mark,
        0,
        (levels + 1) * 1_000,
        0,
    );
    let mut spans: BTreeMap<ServerId, SpanId> = BTreeMap::new();
    spans.insert(root, root_span);
    // Parents before children so every publish span has its parent's span.
    let mut order = tree.servers();
    order.sort_by_key(|&s| tree.depth(s));
    let mut merged = 0u64;
    for s in order {
        if s == root {
            continue;
        }
        let parent = tree.parent(s).expect("non-root server has a parent");
        let depth = tree.depth(s) as u64;
        let at_us = levels.saturating_sub(depth) * 1_000;
        let bytes = net.branch_summary(s).wire_size() as u64;
        let span = rec.record_span(
            trace,
            spans[&parent],
            s.0,
            EventKind::SummaryPublish,
            at_us,
            1_000,
            bytes,
        );
        spans.insert(s, span);
        merged += 1;
    }
    rec.record(Event {
        at_us: (levels + 1) * 1_000,
        dur_us: 0,
        node: root.0,
        trace,
        span: root_span,
        parent: SpanId::NONE,
        kind: EventKind::SummaryMerge,
        detail: merged,
    });
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use roads_records::{OwnerId, Record, RecordId, Schema, Value};
    use roads_summary::SummaryConfig;

    fn network(n: usize, degree: usize, records_per_node: usize, buckets: usize) -> RoadsNetwork {
        let schema = Schema::unit_numeric(4);
        let cfg = RoadsConfig {
            max_children: degree,
            summary: SummaryConfig::with_buckets(buckets),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                (0..records_per_node)
                    .map(|i| {
                        Record::new_unchecked(
                            RecordId((s * records_per_node + i) as u64),
                            OwnerId(s as u32),
                            (0..4)
                                .map(|a| Value::Float(((s + i + a) % 100) as f64 / 100.0))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        RoadsNetwork::build(schema, cfg, records)
    }

    #[test]
    fn recorded_update_round_spans_mirror_the_tree() {
        let net = network(40, 3, 2, 32);
        let rec = Recorder::new(4096);
        let trace = record_update_round_events(&rec, &net);
        let events = rec.events();
        let tree_events = roads_telemetry::trace_events(&events, trace);
        // One Mark root + one publish per non-root + one merge instant.
        assert_eq!(tree_events.len(), 40 + 1);
        let root = roads_telemetry::span_tree_root(&tree_events, trace)
            .expect("update-round trace forms a valid span tree");
        let root_ev = tree_events.iter().find(|e| e.span == root).unwrap();
        assert_eq!(root_ev.node, net.tree().root().0);
        let publishes = tree_events
            .iter()
            .filter(|e| e.kind == EventKind::SummaryPublish)
            .count();
        assert_eq!(publishes, 39);
        assert!(tree_events
            .iter()
            .any(|e| e.kind == EventKind::SummaryMerge && e.detail == 39));
    }

    #[test]
    fn message_counts_match_structure() {
        let net = network(40, 3, 5, 64);
        let b = update_round(&net);
        assert_eq!(b.export_messages, 40);
        assert_eq!(b.aggregation_messages, 39, "one per tree link");
        assert_eq!(b.replication_messages, 39, "one per tree link");
    }

    #[test]
    fn update_bytes_independent_of_record_count() {
        // The heart of Fig. 8: constant-size summaries make the round cost
        // independent of how many records each node stores.
        let small = update_round(&network(30, 3, 2, 64));
        let large = update_round(&network(30, 3, 200, 64));
        assert_eq!(small.total_bytes(), large.total_bytes());
    }

    #[test]
    fn update_bytes_scale_with_buckets() {
        let coarse = update_round(&network(30, 3, 5, 32));
        let fine = update_round(&network(30, 3, 5, 512));
        assert!(fine.total_bytes() > coarse.total_bytes() * 8);
    }

    #[test]
    fn replication_summary_count_matches_knlogn_shape() {
        // Total replicated summaries per round = Σ_children |replica_set(c)|;
        // for a full k-ary tree of L levels that is Θ(k·n·L).
        let net = network(156, 5, 1, 32); // full 4-level 5-ary tree
        let b = update_round(&net);
        let direct: u64 = net
            .tree()
            .servers()
            .iter()
            .filter(|&&s| net.tree().parent(s).is_some())
            .map(|&s| net.replica_set(s).len() as u64)
            .sum();
        assert_eq!(b.replication_summaries, direct);
        // Θ(k·n·L) ballpark: between n and k·n·L.
        let (k, n, l) = (5u64, 156u64, 4u64);
        assert!(b.replication_summaries > n);
        assert!(b.replication_summaries <= k * n * l);
    }

    #[test]
    fn bytes_per_second_scales_with_ts() {
        let net = network(20, 3, 2, 32);
        let b = update_round(&net);
        let fast = b.bytes_per_second(1_000);
        let slow = b.bytes_per_second(10_000);
        assert!((fast / slow - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_per_second_zero_period_is_zero_not_inf() {
        let net = network(10, 3, 1, 32);
        let b = update_round(&net);
        assert!(b.total_bytes() > 0);
        let rate = b.bytes_per_second(0);
        assert_eq!(rate, 0.0);
        assert!(rate.is_finite());
    }

    #[test]
    fn full_round_matches_plain_accounting_on_converged_state() {
        let mut net = network(40, 3, 5, 64);
        let plain = update_round(&net);
        let full = update_round_full(&mut net);
        assert_eq!(
            plain, full,
            "re-deriving converged summaries changes nothing"
        );
    }

    #[test]
    fn empty_delta_round_costs_nothing() {
        let mut net = network(40, 3, 5, 64);
        let (b, outcome) = update_round_delta(&mut net, &crate::store::RecordDelta::new());
        assert_eq!(b, UpdateBreakdown::default());
        assert!(outcome.dirty.is_empty());
    }

    #[test]
    fn delta_round_touches_only_the_dirty_paths() {
        let mut net = network(40, 3, 5, 64);
        let schema = net.schema().clone();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let depth = net.tree().depth(leaf);
        let mut delta = crate::store::RecordDelta::new();
        delta.insert(
            leaf,
            Record::new_unchecked(
                RecordId(9_000),
                OwnerId(leaf.0),
                (0..4).map(|_| Value::Float(0.5)).collect(),
            ),
        );
        let full = update_round(&net);
        let (b, outcome) = update_round_delta(&mut net, &delta);
        assert_eq!(outcome.dirty, vec![leaf]);
        // One export; one aggregation hop per non-root dirty branch (the
        // leaf's root path).
        assert_eq!(b.export_messages, 1);
        assert_eq!(b.aggregation_messages, depth as u64);
        assert_eq!(outcome.dirty_branches.len(), depth + 1);
        // The incremental round moves far fewer bytes than a full one.
        assert!(b.total_bytes() < full.total_bytes() / 4);
        assert!(b.replication_summaries < full.replication_summaries);
        // And the network still answers for the new record.
        let q = roads_records::QueryBuilder::new(&schema, roads_records::QueryId(1))
            .range("x0", 0.499, 0.501)
            .build();
        assert!(net.branch_summary(net.tree().root()).may_match(&q));
        let _ = schema;
    }

    #[test]
    fn delta_round_state_matches_full_round_state() {
        let mut incremental = network(40, 3, 5, 64);
        let mut full = incremental.clone();
        let mk = |id: u64, v: f64| {
            Record::new_unchecked(
                RecordId(id),
                OwnerId(0),
                (0..4).map(|_| Value::Float(v)).collect(),
            )
        };
        let mut delta = crate::store::RecordDelta::new();
        delta
            .insert(ServerId(3), mk(10_000, 0.11))
            .remove(ServerId(7), RecordId(35)) // server 7 holds ids 35..40
            .update(ServerId(12), mk(61, 0.99)); // server 12 holds ids 60..65
        let (_, _) = update_round_delta(&mut incremental, &delta);
        full.apply(&delta);
        let _ = update_round_full(&mut full);
        for s in incremental.tree().servers() {
            assert_eq!(incremental.local_summary(s), full.local_summary(s), "{s}");
            assert_eq!(incremental.branch_summary(s), full.branch_summary(s), "{s}");
        }
    }
}
