//! A SWORD deployment: record registration, range-query execution, and the
//! byte accounting the paper compares ROADS against.

use crate::ring::MultiRing;
use roads_netsim::DelaySpace;
use roads_records::{wire::MSG_HEADER_BYTES, Predicate, Query, Record, Schema, WireSize};
use roads_telemetry::{Event, EventKind, Recorder, SpanId};

/// Update-round accounting for SWORD: every record re-registered in every
/// attribute ring, each copy routed in `O(log n)` hops (Eq. (2):
/// `O(r²·K·N·log n / tr)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwordUpdateStats {
    /// Total bytes sent registering record copies.
    pub bytes: u64,
    /// Total routed messages (one per hop per copy).
    pub messages: u64,
    /// Record copies stored (r per record).
    pub copies: u64,
}

impl SwordUpdateStats {
    /// Per-second byte rate given the record refresh period `tr`.
    pub fn bytes_per_second(&self, tr_ms: u64) -> f64 {
        self.bytes as f64 / (tr_ms as f64 / 1000.0)
    }
}

/// Outcome of one SWORD query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SwordQueryOutcome {
    /// Time until the query reached the last segment server (ms).
    pub latency_ms: f64,
    /// Query-forwarding bytes (routing + segment sweep).
    pub query_bytes: u64,
    /// Query messages sent.
    pub query_messages: u64,
    /// Servers the query visited (routing relays + segment servers).
    pub servers_contacted: usize,
    /// Distinct matching records found (by id).
    pub matching_records: usize,
}

/// A converged SWORD deployment: the ring plus each server's stored record
/// copies.
///
/// Copies are stored as indices into the flat origin table — semantically
/// each server holds a full copy (and is billed for its bytes), but the
/// simulator does not duplicate the payload `r` times in memory.
#[derive(Debug, Clone)]
pub struct SwordNetwork {
    schema: Schema,
    ring: MultiRing,
    /// Record copies stored at each server, as indices into `origins`.
    stored: Vec<Vec<u32>>,
    /// Every original record with its origin server: (origin, record).
    origins: Vec<(usize, Record)>,
}

impl SwordNetwork {
    /// Build a deployment: `records_per_server[i]` are the records owned by
    /// server `i`; each record is registered in every attribute ring.
    pub fn build(schema: Schema, records_per_server: Vec<Vec<Record>>) -> Self {
        let n = records_per_server.len();
        assert!(n > 0, "SWORD needs at least one server");
        let r = schema.len();
        let ring = MultiRing::new(n, r);
        let mut stored: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut origins = Vec::new();
        for (origin, recs) in records_per_server.into_iter().enumerate() {
            for rec in recs {
                let idx = origins.len() as u32;
                for attr in 0..r {
                    if let Some(v) = rec.get_f64(roads_records::AttrId(attr as u16)) {
                        let home = ring.owner_of(ring.hash(attr, v));
                        stored[home].push(idx);
                    }
                }
                origins.push((origin, rec));
            }
        }
        SwordNetwork {
            schema,
            ring,
            stored,
            origins,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The identifier circle.
    pub fn ring(&self) -> &MultiRing {
        &self.ring
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// True when the deployment has no servers.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Record copies stored at one server.
    pub fn stored(&self, server: usize) -> impl Iterator<Item = &Record> {
        self.stored[server]
            .iter()
            .map(move |&i| &self.origins[i as usize].1)
    }

    /// Bytes of record copies stored at one server (Table I's `r·K·N/n`).
    pub fn storage_bytes(&self, server: usize) -> usize {
        self.stored(server).map(WireSize::wire_size).sum()
    }

    /// Worst per-server storage.
    pub fn max_storage_bytes(&self) -> usize {
        (0..self.len())
            .map(|s| self.storage_bytes(s))
            .max()
            .unwrap_or(0)
    }

    /// Account one full re-registration round: every record routed to every
    /// attribute ring from its origin server.
    pub fn update_round(&self) -> SwordUpdateStats {
        let mut stats = SwordUpdateStats::default();
        let r = self.schema.len();
        for (origin, rec) in &self.origins {
            let bytes_per_msg = (rec.wire_size() + MSG_HEADER_BYTES) as u64;
            for attr in 0..r {
                if let Some(v) = rec.get_f64(roads_records::AttrId(attr as u16)) {
                    // Routing to the home node forwards the record once per
                    // hop; a local home (0 hops) still costs the store
                    // message itself.
                    let hops = self
                        .ring
                        .route_hops(*origin, self.ring.hash(attr, v))
                        .max(1);
                    stats.bytes += bytes_per_msg * hops as u64;
                    stats.messages += hops as u64;
                    stats.copies += 1;
                }
            }
        }
        stats
    }

    /// Execute a range query starting at `start`.
    ///
    /// The query is resolved in one ring — the ring of its first range
    /// predicate ("for one particular query, the search is performed only
    /// in one ring"): route to the segment start via fingers, then sweep
    /// the segment sequentially; each segment server filters its local
    /// copies against *all* predicates.
    pub fn execute_query(
        &self,
        delays: &DelaySpace,
        query: &Query,
        start: usize,
    ) -> SwordQueryOutcome {
        self.execute_query_recorded(delays, query, start, None)
    }

    /// [`execute_query`](Self::execute_query) that additionally records
    /// the finger route and segment sweep into the flight recorder as a
    /// chain of nested `QueryHop` spans under a fresh trace (detail =
    /// local matches at each sweep server), bracketed by
    /// `QueryStart`/`QueryComplete` instants on the entry span.
    pub fn execute_query_recorded(
        &self,
        delays: &DelaySpace,
        query: &Query,
        start: usize,
        rec: Option<&Recorder>,
    ) -> SwordQueryOutcome {
        assert_eq!(self.len(), delays.len(), "delay space must cover servers");
        let msg_bytes = (query.wire_size() + MSG_HEADER_BYTES) as u64;
        let mut out = SwordQueryOutcome {
            latency_ms: 0.0,
            query_bytes: 0,
            query_messages: 0,
            servers_contacted: 0,
            matching_records: 0,
        };

        // The ring to search: first range predicate (SWORD's query planner
        // would pick one; the paper models exactly one ring per query).
        let Some((attr, lo, hi)) = query.predicates().iter().find_map(|p| match p {
            Predicate::Range { attr, lo, hi } => Some((attr.index(), *lo, *hi)),
            _ => None,
        }) else {
            // No range predicate: nothing to route on (SWORD requires one).
            return out;
        };

        // Phase 1: finger-route from the start server to the segment head.
        let head_pos = self.ring.hash(attr, lo.clamp(0.0, 1.0));
        let path = self.ring.route(start, head_pos);
        let mut now_ms = 0.0;
        let mut cur = start;
        let mut chain: Vec<(usize, f64, u64)> = vec![(start, 0.0, 0)];
        out.servers_contacted += 1; // the start server itself
        for &hop in &path {
            now_ms += delays.delay_ms(cur, hop);
            out.query_bytes += msg_bytes;
            out.query_messages += 1;
            out.servers_contacted += 1;
            cur = hop;
            chain.push((hop, now_ms, 0));
        }
        out.latency_ms = now_ms;

        // Phase 2: sweep the segment sequentially.
        let segment = self
            .ring
            .segment(attr, lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0));
        let mut seen = std::collections::HashSet::new();
        for (i, &server) in segment.iter().enumerate() {
            if i > 0 {
                now_ms += delays.delay_ms(segment[i - 1], server);
                out.query_bytes += msg_bytes;
                out.query_messages += 1;
                out.servers_contacted += 1;
            }
            out.latency_ms = out.latency_ms.max(now_ms);
            let mut local = 0u64;
            for &idx in &self.stored[server] {
                let rec = &self.origins[idx as usize].1;
                if query.matches(rec) && seen.insert(rec.id) {
                    out.matching_records += 1;
                    local += 1;
                }
            }
            // The segment head is the route destination and is never
            // counted as a separate contact; fold its matches into the
            // last chain entry so hops mirror `servers_contacted`.
            match chain.last_mut() {
                Some(last) if i == 0 || last.0 == server => last.2 += local,
                _ => chain.push((server, now_ms, local)),
            }
        }
        if let Some(r) = rec {
            record_sword_chain(r, &chain, &out);
        }
        out
    }

    /// Ground truth over the original records (not the ring copies).
    pub fn matching_records(&self, query: &Query) -> usize {
        self.origins
            .iter()
            .filter(|(_, r)| query.matches(r))
            .count()
    }
}

/// Emit one executed SWORD query into the flight recorder: a nested
/// `QueryHop` span chain following the finger route and segment sweep
/// (each span runs from its server's arrival to query completion), with
/// `QueryStart`/`QueryComplete` instants on the entry span.
fn record_sword_chain(rec: &Recorder, chain: &[(usize, f64, u64)], out: &SwordQueryOutcome) {
    let Some(&(entry, _, _)) = chain.first() else {
        return;
    };
    let trace = rec.next_trace_id();
    let to_us = |ms: f64| (ms * 1000.0).round().max(0.0) as u64;
    let end_us = to_us(out.latency_ms);
    let mut parent = SpanId::NONE;
    let mut entry_span = SpanId::NONE;
    for (i, &(node, at_ms, matches)) in chain.iter().enumerate() {
        let at_us = to_us(at_ms);
        let dur_us = end_us.saturating_sub(at_us).max(1);
        let span = rec.record_span(
            trace,
            parent,
            node as u32,
            EventKind::QueryHop,
            at_us,
            dur_us,
            matches,
        );
        if i == 0 {
            entry_span = span;
            rec.record(Event {
                at_us,
                dur_us: 0,
                node: node as u32,
                trace,
                span,
                parent: SpanId::NONE,
                kind: EventKind::QueryStart,
                detail: trace.0,
            });
        }
        parent = span;
    }
    rec.record(Event {
        at_us: end_us,
        dur_us: 0,
        node: entry as u32,
        trace,
        span: entry_span,
        parent: SpanId::NONE,
        kind: EventKind::QueryComplete,
        detail: out.matching_records as u64,
    });
}

/// Record one SWORD query outcome into `reg` under the `sword.*`
/// namespace — the same instruments the ROADS engine records under
/// `roads.*`, so figure exports compare the systems field by field.
pub fn record_query_outcome(reg: &roads_telemetry::Registry, out: &SwordQueryOutcome) {
    reg.counter("sword.queries").inc();
    reg.counter("sword.query_messages").add(out.query_messages);
    reg.counter("sword.query_bytes").add(out.query_bytes);
    reg.counter("sword.matching_records")
        .add(out.matching_records as u64);
    reg.histogram("sword.query_latency_ms")
        .record(out.latency_ms);
    reg.histogram("sword.servers_contacted")
        .record(out.servers_contacted as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Value};

    fn records(n: usize, per_node: usize, attrs: usize) -> Vec<Vec<Record>> {
        (0..n)
            .map(|s| {
                (0..per_node)
                    .map(|i| {
                        let idx = s * per_node + i;
                        Record::new_unchecked(
                            RecordId(idx as u64),
                            OwnerId(s as u32),
                            (0..attrs)
                                .map(|a| Value::Float(((idx * 7 + a * 13) % 100) as f64 / 100.0))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn network(n: usize, per_node: usize, attrs: usize) -> SwordNetwork {
        SwordNetwork::build(Schema::unit_numeric(attrs), records(n, per_node, attrs))
    }

    #[test]
    fn recorded_query_forms_a_span_chain() {
        use roads_telemetry::{span_tree_root, trace_events, Recorder, TraceId};
        let net = network(20, 10, 4);
        let delays = DelaySpace::paper(20, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(1))
            .range("x0", 0.2, 0.4)
            .build();
        let rec = Recorder::new(1024);
        let plain = net.execute_query(&delays, &q, 5);
        let recorded = net.execute_query_recorded(&delays, &q, 5, Some(&rec));
        assert_eq!(plain, recorded, "recording must not change the outcome");
        let events = rec.events();
        let tev = trace_events(&events, TraceId(1));
        let root = span_tree_root(&tev, TraceId(1)).expect("valid span tree");
        let root_ev = tev
            .iter()
            .find(|e| e.span == root && e.kind == EventKind::QueryHop)
            .unwrap();
        assert_eq!(root_ev.node, 5, "chain is rooted at the start server");
        let hops = tev.iter().filter(|e| e.kind == EventKind::QueryHop).count();
        assert_eq!(hops, recorded.servers_contacted);
        assert!(tev
            .iter()
            .any(|e| e.kind == EventKind::QueryComplete
                && e.detail == recorded.matching_records as u64));
        // Each hop's local-match detail sums to the total.
        let sum: u64 = tev
            .iter()
            .filter(|e| e.kind == EventKind::QueryHop)
            .map(|e| e.detail)
            .sum();
        assert_eq!(sum, recorded.matching_records as u64);
    }

    #[test]
    fn every_record_stored_r_times() {
        let net = network(20, 10, 4);
        let total: usize = (0..20).map(|s| net.stored(s).count()).sum();
        assert_eq!(total, 20 * 10 * 4, "each record in each of the 4 rings");
    }

    #[test]
    fn query_finds_all_matches() {
        let net = network(20, 10, 4);
        let delays = DelaySpace::paper(20, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(1))
            .range("x0", 0.2, 0.4)
            .range("x1", 0.0, 1.0)
            .build();
        let gt = net.matching_records(&q);
        assert!(gt > 0);
        for start in [0usize, 7, 19] {
            let out = net.execute_query(&delays, &q, start);
            assert_eq!(out.matching_records, gt, "start={start}");
        }
    }

    #[test]
    fn no_range_predicate_returns_empty() {
        let net = network(10, 5, 4);
        let delays = DelaySpace::paper(10, 3);
        let q = Query::new(QueryId(2), vec![]);
        let out = net.execute_query(&delays, &q, 0);
        assert_eq!(out.matching_records, 0);
        assert_eq!(out.query_messages, 0);
    }

    #[test]
    fn update_round_scales_with_records_and_rings() {
        let base = network(20, 10, 4).update_round();
        let more_recs = network(20, 20, 4).update_round();
        let more_rings = network(20, 10, 8).update_round();
        assert_eq!(base.copies, 20 * 10 * 4);
        assert!(more_recs.bytes >= 2 * base.bytes - base.bytes / 4);
        // Doubling rings doubles copies AND roughly doubles the record
        // size, so bytes grow ~4× (the analysis' r² factor).
        assert!(
            more_rings.bytes as f64 >= 3.0 * base.bytes as f64,
            "r² growth: {} vs {}",
            more_rings.bytes,
            base.bytes
        );
    }

    #[test]
    fn latency_grows_linearly_with_n() {
        // Fixed selectivity ⇒ segment ∝ n ⇒ sequential sweep ∝ n.
        let q_of = |net: &SwordNetwork| {
            QueryBuilder::new(net.schema(), QueryId(3))
                .range("x0", 0.1, 0.6)
                .build()
        };
        let small = network(64, 2, 4);
        let large = network(512, 2, 4);
        let d_small = DelaySpace::paper(64, 9);
        let d_large = DelaySpace::paper(512, 9);
        let l_small = small.execute_query(&d_small, &q_of(&small), 0).latency_ms;
        let l_large = large.execute_query(&d_large, &q_of(&large), 0).latency_ms;
        assert!(
            l_large > 3.0 * l_small,
            "expected ~8× linear growth, got {l_small} → {l_large}"
        );
    }

    #[test]
    fn storage_accounting_positive_everywhere_loaded() {
        let net = network(10, 50, 4);
        assert!(net.max_storage_bytes() > 0);
        let total: usize = (0..10).map(|s| net.storage_bytes(s)).sum();
        // 10×50 records × 4 copies × wire size (4 floats ≈ 50 B).
        assert!(total > 10 * 50 * 4 * 40);
    }

    #[test]
    fn segment_sweep_counts_contacts() {
        let net = network(64, 1, 4);
        let delays = DelaySpace::paper(64, 1);
        let q = QueryBuilder::new(net.schema(), QueryId(4))
            .range("x0", 0.0, 1.0)
            .build();
        let out = net.execute_query(&delays, &q, 32);
        // Full range of one attribute = the whole sub-ring = 16 servers.
        assert!(out.servers_contacted >= 16);
    }
}
