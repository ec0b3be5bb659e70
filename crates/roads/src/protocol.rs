//! The live ROADS data plane over the discrete-event simulator.
//!
//! [`crate::engine::RoadsNetwork`] materializes the *converged* state of a
//! federation; this module runs the actual protocol that converges to it
//! (§III-B/C): every `ts` each server re-summarizes its attached records,
//! sends its branch summary to its parent, and fans replication payloads
//! out to its children; summaries are soft state with TTLs, so a server
//! that stops refreshing simply fades out of everyone's view; queries are
//! real messages evaluated against whatever (possibly stale) summaries a
//! server currently holds.
//!
//! The membership plane (joins, heartbeats, elections) lives in
//! [`crate::maintenance`]; here the hierarchy is taken as given, which is
//! how the paper's own evaluation separates the two concerns.

use crate::config::RoadsConfig;
use crate::tree::{HierarchyTree, ServerId};
use roads_netsim::{Ctx, NodeId, Protocol, SimTime, Simulator, TimerTag, TrafficClass};
use roads_records::{wire::MSG_HEADER_BYTES, Query, QueryId, Record, Schema, WireSize};
use roads_summary::{SoftStateTable, Summary};
use roads_telemetry::{EventKind, SpanId, Timeline, TraceId};
use std::collections::HashMap;

/// Periodic aggregation/replication tick.
const TIMER_AGG: TimerTag = 10;

/// Messages of the data plane.
#[derive(Debug, Clone)]
pub enum DataMsg {
    /// Child → parent: the sender's current branch summary.
    BranchSummary {
        /// The branch summary.
        summary: Summary,
    },
    /// Parent → child: replicated summaries, each tagged with the server
    /// whose branch it describes.
    Replicate {
        /// `(origin server, branch summary)` pairs.
        entries: Vec<(u32, Summary)>,
    },
    /// A query traveling through the federation.
    Query {
        /// The query itself.
        query: Query,
        /// The client node awaiting results.
        origin: NodeId,
        /// True at the entry server (overlay shortcuts apply).
        entry: bool,
        /// Local-records-only probe (ancestor coverage).
        local_only: bool,
    },
    /// Server → client: local matches found for a query.
    Matches {
        /// The answered query.
        query: QueryId,
        /// Matching records at the reporting server.
        count: u32,
    },
}

fn msg_bytes(m: &DataMsg) -> usize {
    MSG_HEADER_BYTES
        + match m {
            DataMsg::BranchSummary { summary } => summary.wire_size(),
            DataMsg::Replicate { entries } => entries
                .iter()
                .map(|(_, s)| 4 + s.wire_size())
                .sum::<usize>(),
            DataMsg::Query { query, .. } => query.wire_size() + 6,
            DataMsg::Matches { .. } => 12,
        }
}

/// One server running the live data plane.
pub struct DataNode {
    cfg: RoadsConfig,
    schema: Schema,
    /// Static topology (from the membership plane).
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// This node's ancestors, nearest first, each with its children: what
    /// an entry needs to know to tell an ancestor's local summary from the
    /// branch summaries it replicates.
    ancestors: Vec<(NodeId, Vec<NodeId>)>,
    records: Vec<Record>,
    local_summary: Summary,
    /// Fresh branch summaries of children (TTL soft state).
    child_summaries: SoftStateTable<NodeId, Summary>,
    /// Replicated remote branch summaries by origin server id.
    replicas: SoftStateTable<u32, Summary>,
    /// Whether this node still participates (crash injection).
    alive: bool,
    /// Client-side: per query, (reporting servers, records) received.
    results: HashMap<QueryId, (u32, u32)>,
    /// Queries this server has already processed (duplicate suppression),
    /// bounded FIFO so long-lived servers don't grow without limit.
    seen_queries: HashMap<QueryId, ()>,
    seen_order: std::collections::VecDeque<QueryId>,
}

impl DataNode {
    fn new(
        cfg: RoadsConfig,
        schema: Schema,
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        ancestors: Vec<(NodeId, Vec<NodeId>)>,
        records: Vec<Record>,
    ) -> Self {
        let local_summary = Summary::from_records(&schema, &cfg.summary, &records);
        DataNode {
            child_summaries: SoftStateTable::new(cfg.summary_ttl_ms),
            replicas: SoftStateTable::new(cfg.summary_ttl_ms),
            cfg,
            schema,
            parent,
            children,
            ancestors,
            records,
            local_summary,
            alive: true,
            results: HashMap::new(),
            seen_queries: HashMap::new(),
            seen_order: std::collections::VecDeque::new(),
        }
    }

    /// Duplicate-suppression window: queries older than this many distinct
    /// ids are forgotten (re-delivery after that window re-answers, which
    /// is harmless — the client dedups by server).
    const SEEN_WINDOW: usize = 4096;

    /// Stop participating: no more refreshes, no more replies. Soft state
    /// held by others will expire on its own.
    pub fn crash(&mut self) {
        self.alive = false;
    }

    /// Replace the attached records (owners re-export every `tr`); the next
    /// aggregation tick propagates the change.
    pub fn set_records(&mut self, records: Vec<Record>) {
        self.local_summary = Summary::from_records(&self.schema, &self.cfg.summary, &records);
        self.records = records;
    }

    /// Client view: `(servers reporting, records found)` for a query this
    /// node issued.
    pub fn result(&self, q: QueryId) -> Option<(u32, u32)> {
        self.results.get(&q).copied()
    }

    /// Whether query `q` reached this server (and is still within its
    /// duplicate-suppression window).
    pub fn handled(&self, q: QueryId) -> bool {
        self.seen_queries.contains_key(&q)
    }

    /// Number of fresh replicas currently held.
    pub fn fresh_replicas(&self, now_ms: u64) -> usize {
        self.replicas.iter_fresh(now_ms).count()
    }

    /// Number of fresh child branch summaries currently held.
    pub fn fresh_child_summaries(&self, now_ms: u64) -> usize {
        self.child_summaries.iter_fresh(now_ms).count()
    }

    /// Whether the fresh child-summary view still contains `child`.
    pub fn sees_child(&self, child: NodeId, now_ms: u64) -> bool {
        self.child_summaries.get(&child, now_ms).is_some()
    }

    /// Branch summary from current (possibly stale) state: the local
    /// summary aggregated with the fresh child summaries, in child order.
    fn branch_summary(&self, now_ms: u64) -> Summary {
        let fresh = (self.children.iter()).filter_map(|c| self.child_summaries.get(c, now_ms));
        Summary::branch_of(&self.local_summary, fresh)
            .expect("uniform schema/config across the federation")
    }

    /// The local summary of ancestor `a`, whose children are `kids`, from
    /// what this node replicates: `a`'s branch summary less its children's
    /// (`mine`, this node's own branch, the next ancestor's, and their
    /// siblings'). `None` while a copy is missing or the copies are of
    /// different rounds and do not subtract.
    fn ancestor_local(
        &self,
        (a, kids): &(NodeId, Vec<NodeId>),
        (me, mine): (NodeId, &Summary),
        now_ms: u64,
    ) -> Option<Summary> {
        let of_kid = |k: &NodeId| match *k == me {
            true => Some(mine),
            false => self.replicas.get(&k.0, now_ms),
        };
        let kids: Option<Vec<&Summary>> = kids.iter().map(of_kid).collect();
        self.replicas.get(&a.0, now_ms)?.without(kids?)
    }

    fn send(&self, ctx: &mut Ctx<'_, DataMsg>, to: NodeId, msg: DataMsg, class: TrafficClass) {
        let bytes = msg_bytes(&msg);
        ctx.send(to, msg, bytes, class);
    }

    fn aggregation_tick(&mut self, ctx: &mut Ctx<'_, DataMsg>) {
        let now_ms = ctx.now().as_micros() / 1000;
        let expired = self.child_summaries.sweep(now_ms).len() + self.replicas.sweep(now_ms).len();
        if expired > 0 {
            ctx.record(EventKind::TtlExpire, expired as u64);
        }

        // Bottom-up: branch summary to the parent.
        if let Some(p) = self.parent {
            let summary = self.branch_summary(now_ms);
            ctx.record(EventKind::SummaryPublish, summary.wire_size() as u64);
            self.send(
                ctx,
                p,
                DataMsg::BranchSummary { summary },
                TrafficClass::Update,
            );
        }

        // Top-down: to each child send its siblings' branch summaries, our
        // own branch summary, and everything we replicate from above.
        let me = ctx.self_id().0;
        let my_branch = self.branch_summary(now_ms);
        let mut fresh_children: Vec<(NodeId, Summary)> = self
            .child_summaries
            .iter_fresh(now_ms)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        fresh_children.sort_by_key(|(k, _)| *k);
        let mut from_above: Vec<(u32, Summary)> = self
            .replicas
            .iter_fresh(now_ms)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        from_above.sort_by_key(|(k, _)| *k);
        for &c in &self.children {
            let mut entries: Vec<(u32, Summary)> = fresh_children
                .iter()
                .filter(|(sib, _)| *sib != c)
                .map(|(sib, s)| (sib.0, s.clone()))
                .collect();
            entries.push((me, my_branch.clone()));
            entries.extend(from_above.iter().cloned());
            self.send(ctx, c, DataMsg::Replicate { entries }, TrafficClass::Update);
        }
    }

    fn handle_query(
        &mut self,
        ctx: &mut Ctx<'_, DataMsg>,
        query: Query,
        origin: NodeId,
        entry: bool,
        local_only: bool,
    ) {
        let me = ctx.self_id();
        if self.seen_queries.insert(query.id, ()).is_some() {
            return; // duplicate delivery
        }
        self.seen_order.push_back(query.id);
        if self.seen_order.len() > Self::SEEN_WINDOW {
            if let Some(old) = self.seen_order.pop_front() {
                self.seen_queries.remove(&old);
            }
        }
        let now_ms = ctx.now().as_micros() / 1000;

        // Local search and report.
        let matches = self.records.iter().filter(|r| query.matches(r)).count() as u32;
        ctx.record(EventKind::QueryHop, matches as u64);
        if matches > 0 {
            let report = DataMsg::Matches {
                query: query.id,
                count: matches,
            };
            if origin == me {
                self.record_result(query.id, matches);
            } else {
                self.send(ctx, origin, report, TrafficClass::Data);
            }
        } else if origin == me {
            self.results.entry(query.id).or_insert((0, 0));
        }
        if local_only {
            return;
        }

        // Forward down matching child branches.
        let targets: Vec<NodeId> = self
            .children
            .iter()
            .copied()
            .filter(|c| {
                self.child_summaries
                    .get(c, now_ms)
                    .is_some_and(|s| s.may_match(&query))
            })
            .collect();
        for c in targets {
            let msg = DataMsg::Query {
                query: query.clone(),
                origin,
                entry: false,
                local_only: false,
            };
            self.send(ctx, c, msg, TrafficClass::Query);
        }

        // At the entry server: overlay shortcuts to matching replicas. A
        // sibling's or an ancestor's sibling's copy vouches for its whole
        // branch. An ancestor's copy contains this node's own branch, so
        // it is asked only for its attached records, and only if its local
        // summary — its copy less its children's — may match; while that
        // cannot be computed, the copy itself decides.
        if entry {
            let mine = self.branch_summary(now_ms);
            let mut shortcuts: Vec<(u32, bool)> = Vec::new();
            for (&origin, copy) in self.replicas.iter_fresh(now_ms) {
                let ancestor = self.ancestors.iter().find(|(a, _)| a.0 == origin);
                let local = ancestor.and_then(|a| self.ancestor_local(a, (me, &mine), now_ms));
                let matches = local.as_ref().unwrap_or(copy).may_match(&query);
                if matches && NodeId(origin) != me {
                    shortcuts.push((origin, ancestor.is_some()));
                }
            }
            shortcuts.sort_unstable();
            for (target, local_only) in shortcuts {
                let msg = DataMsg::Query {
                    query: query.clone(),
                    origin,
                    entry: false,
                    local_only,
                };
                self.send(ctx, NodeId(target), msg, TrafficClass::Query);
            }
        }
    }

    fn record_result(&mut self, q: QueryId, records: u32) {
        let entry = self.results.entry(q).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += records;
    }
}

impl Protocol for DataNode {
    type Msg = DataMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, DataMsg>, from: NodeId, msg: DataMsg) {
        if !self.alive {
            return;
        }
        let now_ms = ctx.now().as_micros() / 1000;
        match msg {
            DataMsg::BranchSummary { summary } => {
                if self.children.contains(&from) {
                    ctx.record(EventKind::SummaryMerge, from.0 as u64);
                    self.child_summaries.insert(from, summary, now_ms);
                }
            }
            DataMsg::Replicate { entries } => {
                if self.parent == Some(from) {
                    let mut installed = 0u64;
                    let mut refreshed = 0u64;
                    for (origin, summary) in entries {
                        if self.replicas.get_ignoring_ttl(&origin).is_some() {
                            refreshed += 1;
                        } else {
                            installed += 1;
                        }
                        self.replicas.insert(origin, summary, now_ms);
                    }
                    if installed > 0 {
                        ctx.record(EventKind::ReplicaInstall, installed);
                    }
                    if refreshed > 0 {
                        ctx.record(EventKind::ReplicaRefresh, refreshed);
                    }
                }
            }
            DataMsg::Query {
                query,
                origin,
                entry,
                local_only,
            } => self.handle_query(ctx, query, origin, entry, local_only),
            DataMsg::Matches { query, count } => self.record_result(query, count),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DataMsg>, tag: TimerTag) {
        if !self.alive || tag != TIMER_AGG {
            return;
        }
        self.aggregation_tick(ctx);
        ctx.set_timer(SimTime::from_millis(self.cfg.ts_ms), TIMER_AGG);
    }
}

/// Assemble the data plane over an existing hierarchy: one [`DataNode`] per
/// server, aggregation timers staggered across the first `ts`.
pub fn build_data_simulation(
    tree: &HierarchyTree,
    cfg: RoadsConfig,
    schema: Schema,
    records_per_server: Vec<Vec<Record>>,
    delays: roads_netsim::DelaySpace,
) -> Simulator<DataNode> {
    let n = records_per_server.len();
    assert_eq!(tree.capacity(), n, "one record set per server");
    let mut nodes = Vec::with_capacity(n);
    for (i, records) in records_per_server.into_iter().enumerate() {
        let s = ServerId(i as u32);
        let parent = tree.parent(s).map(|p| NodeId(p.0));
        let node_ids = |servers: &[ServerId]| servers.iter().map(|c| NodeId(c.0)).collect();
        let mut ancestors = Vec::new();
        let mut up = tree.parent(s);
        while let Some(a) = up {
            ancestors.push((NodeId(a.0), node_ids(tree.children(a))));
            up = tree.parent(a);
        }
        nodes.push(DataNode::new(
            cfg,
            schema.clone(),
            parent,
            node_ids(tree.children(s)),
            ancestors,
            records,
        ));
    }
    let mut sim = Simulator::new(nodes, delays);
    for i in 0..n {
        let offset = (cfg.ts_ms * i as u64 / n as u64).max(1);
        sim.schedule_timer(SimTime::from_millis(offset), NodeId(i as u32), TIMER_AGG);
    }
    sim
}

/// Issue a query into a running data-plane simulation at `entry`,
/// originating from the same node (client co-located). With a flight
/// recorder attached the query gets a fresh trace id automatically.
pub fn issue_query(sim: &mut Simulator<DataNode>, entry: NodeId, query: Query) {
    let trace = match sim.recorder() {
        Some(rec) => rec.next_trace_id(),
        None => TraceId::NONE,
    };
    issue_query_traced(sim, entry, query, trace);
}

/// [`issue_query`] under a caller-chosen trace id; returns the root span
/// of the query's causal tree ([`SpanId::NONE`] without a recorder).
pub fn issue_query_traced(
    sim: &mut Simulator<DataNode>,
    entry: NodeId,
    query: Query,
    trace: TraceId,
) -> SpanId {
    let bytes = query.wire_size() + MSG_HEADER_BYTES + 6;
    sim.inject_traced(
        sim.now(),
        entry,
        entry,
        DataMsg::Query {
            query,
            origin: entry,
            entry: true,
            local_only: false,
        },
        bytes,
        TrafficClass::Query,
        trace,
    )
}

/// Run the data plane until `until`, sampling federation-wide gauges into
/// `timeline` at its configured interval: fresh child summaries
/// (`live_summaries`), overlay replicas (`overlay_replicas`), the busiest
/// server's share of all deliveries (`load_share_max`) and total
/// deliveries (`deliveries`). Returns events processed.
pub fn run_with_timeline(
    sim: &mut Simulator<DataNode>,
    until: SimTime,
    timeline: &mut Timeline,
) -> u64 {
    let mut processed = 0;
    loop {
        let now = sim.now();
        let now_ms = now.as_millis_f64();
        if timeline.due(now_ms) {
            let t_ms = now.as_micros() / 1000;
            let live: usize = sim
                .nodes()
                .map(|(_, n)| n.fresh_child_summaries(t_ms))
                .sum();
            let replicas: usize = sim.nodes().map(|(_, n)| n.fresh_replicas(t_ms)).sum();
            let deliveries = sim.deliveries();
            let total: u64 = deliveries.iter().sum();
            let max = deliveries.iter().copied().max().unwrap_or(0);
            let share = if total == 0 {
                0.0
            } else {
                max as f64 / total as f64
            };
            timeline.sample(
                now_ms,
                [
                    ("live_summaries", live as f64),
                    ("overlay_replicas", replicas as f64),
                    ("load_share_max", share),
                    ("deliveries", total as f64),
                ],
            );
        }
        if now >= until {
            break;
        }
        let step_to = SimTime::from_millis_f64(now_ms + timeline.interval_ms())
            .min(until)
            .max(now + SimTime(1));
        processed += sim.run_until(step_to);
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoadsNetwork;
    use roads_netsim::DelaySpace;
    use roads_records::{OwnerId, QueryBuilder, RecordId, Value};
    use roads_summary::SummaryConfig;

    fn records(n: usize) -> Vec<Vec<Record>> {
        (0..n)
            .map(|s| {
                vec![Record::new_unchecked(
                    RecordId(s as u64),
                    OwnerId(s as u32),
                    vec![Value::Float(s as f64 / n as f64)],
                )]
            })
            .collect()
    }

    fn config() -> RoadsConfig {
        RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(100),
            ts_ms: 2_000,
            summary_ttl_ms: 7_000,
            ..RoadsConfig::paper_default()
        }
    }

    fn converged_sim(n: usize) -> (HierarchyTree, Simulator<DataNode>, Schema) {
        let schema = Schema::unit_numeric(1);
        let cfg = config();
        let tree = HierarchyTree::build(n, cfg.max_children);
        let mut sim = build_data_simulation(
            &tree,
            cfg,
            schema.clone(),
            records(n),
            DelaySpace::paper(n, 17),
        );
        // A few aggregation rounds: summaries need depth-many rounds to
        // reach the root and depth-many more to replicate back down.
        sim.run_until(SimTime::from_millis(30_000));
        (tree, sim, schema)
    }

    #[test]
    fn replicas_converge_to_overlay_spec() {
        let (tree, sim, _) = converged_sim(27);
        let now_ms = sim.now().as_micros() / 1000;
        for s in tree.servers() {
            let expected = crate::overlay::replication_set(&tree, s).len();
            let node = sim.node(NodeId(s.0));
            assert_eq!(
                node.fresh_replicas(now_ms),
                expected,
                "server {s} replica count"
            );
        }
    }

    #[test]
    fn live_query_matches_converged_engine() {
        let (tree, mut sim, schema) = converged_sim(27);
        let net = RoadsNetwork::with_tree(schema.clone(), config(), tree, records(27));
        for target in [0usize, 9, 26] {
            let v = target as f64 / 27.0;
            let q = QueryBuilder::new(&schema, QueryId(1000 + target as u64))
                .range("x0", v - 1e-4, v + 1e-4)
                .build();
            let gt = net.matching_servers(&q);
            let entry = NodeId(((target + 5) % 27) as u32);
            issue_query(&mut sim, entry, q.clone());
            let deadline = sim.now() + SimTime::from_secs(20);
            sim.run_until(deadline);
            let (servers, recs) = sim
                .node(entry)
                .result(q.id)
                .expect("query issued from entry");
            assert_eq!(servers as usize, gt.len(), "target {target}");
            assert_eq!(recs as usize, gt.len(), "one record per matching server");
        }
    }

    #[test]
    fn crashed_server_fades_from_parent_view() {
        let (tree, mut sim, _) = converged_sim(27);
        let leaf = *tree.leaves().iter().max().unwrap();
        let parent = tree.parent(leaf).unwrap();
        let now_ms = sim.now().as_micros() / 1000;
        assert!(sim
            .node(NodeId(parent.0))
            .sees_child(NodeId(leaf.0), now_ms));
        sim.node_mut(NodeId(leaf.0)).crash();
        // TTL is 7s; run well past it.
        let deadline = sim.now() + SimTime::from_secs(20);
        sim.run_until(deadline);
        let now_ms = sim.now().as_micros() / 1000;
        assert!(
            !sim.node(NodeId(parent.0))
                .sees_child(NodeId(leaf.0), now_ms),
            "soft state must expire without explicit teardown"
        );
    }

    #[test]
    fn record_update_propagates_to_root_view() {
        let (tree, mut sim, schema) = converged_sim(12);
        // Give a leaf a brand-new record value no one else has.
        let leaf = *tree.leaves().iter().max().unwrap();
        sim.node_mut(NodeId(leaf.0))
            .set_records(vec![Record::new_unchecked(
                RecordId(999),
                OwnerId(leaf.0),
                vec![Value::Float(0.987_654)],
            )]);
        let deadline = sim.now() + SimTime::from_secs(20);
        sim.run_until(deadline);
        // Query for the new value from an unrelated entry.
        let q = QueryBuilder::new(&schema, QueryId(77))
            .range("x0", 0.987, 0.988)
            .build();
        let entry = NodeId(tree.root().0);
        issue_query(&mut sim, entry, q.clone());
        let deadline = sim.now() + SimTime::from_secs(20);
        sim.run_until(deadline);
        let (servers, _) = sim.node(entry).result(q.id).expect("result recorded");
        assert_eq!(servers, 1, "the updated leaf must be discoverable");
    }

    #[test]
    fn flight_recorder_captures_data_plane_events() {
        use roads_telemetry::Recorder;
        use std::sync::Arc;
        let schema = Schema::unit_numeric(1);
        let cfg = config();
        let tree = HierarchyTree::build(27, cfg.max_children);
        let mut sim = build_data_simulation(
            &tree,
            cfg,
            schema.clone(),
            records(27),
            DelaySpace::paper(27, 17),
        );
        let rec = Arc::new(Recorder::new(1 << 16));
        sim.set_recorder(rec.clone());
        sim.run_until(SimTime::from_millis(30_000));
        let events = rec.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert!(count(EventKind::SummaryPublish) > 0, "publishes recorded");
        assert!(count(EventKind::SummaryMerge) > 0, "merges recorded");
        assert!(count(EventKind::ReplicaInstall) > 0, "installs recorded");
        assert!(
            count(EventKind::ReplicaRefresh) > 0,
            "repeat rounds refresh replicas"
        );
        // Crash a leaf: its soft state must visibly expire.
        let leaf = *tree.leaves().iter().max().unwrap();
        sim.node_mut(NodeId(leaf.0)).crash();
        let deadline = sim.now() + SimTime::from_secs(20);
        sim.run_until(deadline);
        assert!(
            rec.events().iter().any(|e| e.kind == EventKind::TtlExpire),
            "crash must surface as ttl-expire events"
        );
    }

    #[test]
    fn timeline_tracks_convergence() {
        let schema = Schema::unit_numeric(1);
        let cfg = config();
        let tree = HierarchyTree::build(27, cfg.max_children);
        let mut sim =
            build_data_simulation(&tree, cfg, schema, records(27), DelaySpace::paper(27, 17));
        let mut timeline = Timeline::new(2_000.0);
        run_with_timeline(&mut sim, SimTime::from_millis(30_000), &mut timeline);
        let series = timeline.series();
        let live = series
            .iter()
            .find(|s| s.name == "live_summaries")
            .expect("live_summaries sampled");
        assert!(live.points.len() >= 10, "one sample per interval");
        // Before the first aggregation round nothing is live; once
        // converged every parent sees every child (26 edges in a 27-tree).
        assert_eq!(live.points.first().unwrap().1, 0.0);
        assert_eq!(live.points.last().unwrap().1, 26.0);
        assert!(timeline
            .series()
            .iter()
            .any(|s| s.name == "overlay_replicas"));
        assert!(timeline.series().iter().any(|s| s.name == "load_share_max"));
    }

    #[test]
    fn update_traffic_flows_every_period() {
        let (_, sim, _) = converged_sim(12);
        let update_bytes = sim.stats().bytes(TrafficClass::Update);
        assert!(update_bytes > 0);
        // ~15 aggregation rounds for 12 nodes: 11 bottom-up + 11 top-down
        // messages per round, give or take staggering.
        let msgs = sim.stats().messages(TrafficClass::Update);
        assert!(msgs > 100, "sustained periodic traffic, got {msgs}");
    }
}
