//! The ROADS summary plane as messages over the discrete-event simulator.
//!
//! [`crate::engine::RoadsNetwork`] materializes the *converged* state of a
//! federation; this module runs the soft-state protocol that converges to
//! it (§III-B): every `ts` each server re-summarizes its attached records,
//! sends its branch summary to its parent, and fans replication payloads
//! out to its children; summaries are soft state with TTLs, so a server
//! that stops refreshing simply fades out of everyone's view.
//!
//! The message plane carries summaries, not queries. A query (§III-C) is
//! routed by [`crate::engine::RoadsNetwork::route`], a pure function of
//! the summaries a server holds; the unit tests below check that the
//! summaries this plane converges to are the engine's, byte for byte —
//! after a cold start, after a branch crashes and after a record change —
//! so the one routing rule routes on exactly what this protocol keeps.
//!
//! The membership plane (joins, heartbeats, elections) lives in
//! [`crate::maintenance`]; here the hierarchy is taken as given, which is
//! how the paper's own evaluation separates the two concerns.

use crate::config::RoadsConfig;
use crate::tree::{HierarchyTree, ServerId};
use roads_netsim::{Ctx, NodeId, Protocol, SimTime, Simulator, TimerTag, TrafficClass};
use roads_records::{wire::MSG_HEADER_BYTES, Record, Schema, WireSize};
use roads_summary::{SoftStateTable, Summary};
use roads_telemetry::{EventKind, Timeline};

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
}

fn msg_bytes(m: &DataMsg) -> usize {
    MSG_HEADER_BYTES
        + match m {
            DataMsg::BranchSummary { summary } => summary.wire_size(),
            DataMsg::Replicate { entries } => entries
                .iter()
                .map(|(_, s)| 4 + s.wire_size())
                .sum::<usize>(),
        }
}

/// One server running the live data plane.
pub struct DataNode {
    cfg: RoadsConfig,
    schema: Schema,
    /// Static topology (from the membership plane).
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Summary of the attached records.
    local_summary: Summary,
    /// Fresh branch summaries of children (TTL soft state).
    child_summaries: SoftStateTable<NodeId, Summary>,
    /// Replicated remote branch summaries by origin server id.
    replicas: SoftStateTable<u32, Summary>,
    /// Whether this node still participates (crash injection).
    alive: bool,
}

impl DataNode {
    fn new(
        cfg: RoadsConfig,
        schema: Schema,
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        records: &[Record],
    ) -> Self {
        let local_summary = Summary::from_records(&schema, &cfg.summary, records);
        DataNode {
            child_summaries: SoftStateTable::new(cfg.summary_ttl_ms),
            replicas: SoftStateTable::new(cfg.summary_ttl_ms),
            cfg,
            schema,
            parent,
            children,
            local_summary,
            alive: true,
        }
    }

    /// Stop participating: no more refreshes. Soft state held by others
    /// will expire on its own.
    pub fn crash(&mut self) {
        self.alive = false;
    }

    /// Replace the attached records (owners re-export every `tr`); the next
    /// aggregation tick propagates the change.
    pub fn set_records(&mut self, records: &[Record]) {
        self.local_summary = Summary::from_records(&self.schema, &self.cfg.summary, records);
    }

    /// Number of fresh replicas currently held.
    pub fn fresh_replicas(&self, now_ms: u64) -> usize {
        self.replicas.iter_fresh(now_ms).count()
    }

    /// Number of fresh child branch summaries currently held.
    pub fn fresh_child_summaries(&self, now_ms: u64) -> usize {
        self.child_summaries.iter_fresh(now_ms).count()
    }

    /// Branch summary of server `me` from current (possibly stale) state:
    /// the local summary aggregated with the fresh child summaries, in
    /// child order.
    fn branch_summary(&self, me: u32, now_ms: u64) -> Summary {
        let fresh = (self.children.iter())
            .filter_map(|c| Some((c.0, self.child_summaries.get(c, now_ms)?)));
        Summary::branch_of(me, &self.local_summary, fresh)
            .expect("uniform schema/config across the federation")
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
        let me = ctx.self_id().0;
        let my_branch = self.branch_summary(me, now_ms);
        if let Some(p) = self.parent {
            ctx.record(EventKind::SummaryPublish, my_branch.wire_size() as u64);
            let summary = my_branch.clone();
            self.send(
                ctx,
                p,
                DataMsg::BranchSummary { summary },
                TrafficClass::Update,
            );
        }

        // Top-down: to each child send its siblings' branch summaries, our
        // own branch summary, and everything we replicate from above.
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
        let children = tree.children(s).iter().map(|c| NodeId(c.0)).collect();
        nodes.push(DataNode::new(
            cfg,
            schema.clone(),
            parent,
            children,
            &records,
        ));
    }
    let mut sim = Simulator::new(nodes, delays);
    for i in 0..n {
        let offset = (cfg.ts_ms * i as u64 / n as u64).max(1);
        sim.schedule_timer(SimTime::from_millis(offset), NodeId(i as u32), TIMER_AGG);
    }
    sim
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
    use crate::audit::authoritative_branch;
    use crate::engine::RoadsNetwork;
    use crate::overlay::replication_set;
    use roads_netsim::DelaySpace;
    use roads_records::{OwnerId, RecordId, Value};
    use roads_summary::SummaryConfig;

    /// Servers, records per server, attributes and hierarchy degree of each
    /// federation whose soft state is checked against the engine.
    const SHAPES: [(usize, usize, usize, usize); 4] = [
        (27, 1, 1, 3),
        (27, 20, 4, 3),
        (40, 15, 3, 4),
        (64, 10, 6, 8),
    ];

    fn config(degree: usize) -> RoadsConfig {
        RoadsConfig {
            max_children: degree,
            summary: SummaryConfig::with_buckets(100),
            ts_ms: 2_000,
            summary_ttl_ms: 7_000,
            ..RoadsConfig::paper_default()
        }
    }

    /// `per` records of `attrs` unit values at each of `n` servers, spread
    /// by additive recurrences so that the servers' ranges overlap.
    fn unit_records(n: usize, per: usize, attrs: usize) -> Vec<Vec<Record>> {
        let value =
            |id: usize, a: usize| Value::Float((id as f64 * (0.618_034 + 0.1 * a as f64)).fract());
        (0..n)
            .map(|s| {
                (s * per..(s + 1) * per)
                    .map(|id| {
                        let values = (0..attrs).map(|a| value(id, a)).collect();
                        Record::new_unchecked(RecordId(id as u64), OwnerId(s as u32), values)
                    })
                    .collect()
            })
            .collect()
    }

    /// The data plane of `shape` run for `secs` of virtual time from cold
    /// soft state, the engine's network over the same records, and those
    /// records.
    fn federation(
        (n, per, attrs, degree): (usize, usize, usize, usize),
        secs: u64,
    ) -> (Simulator<DataNode>, RoadsNetwork, Vec<Vec<Record>>) {
        let (schema, cfg) = (Schema::unit_numeric(attrs), config(degree));
        let tree = HierarchyTree::build(n, degree);
        let records = unit_records(n, per, attrs);
        let delays = DelaySpace::paper(n, 17);
        let mut sim = build_data_simulation(&tree, cfg, schema.clone(), records.clone(), delays);
        sim.run_until(SimTime::from_secs(secs));
        let net = RoadsNetwork::with_tree(schema, cfg, tree, records.clone());
        (sim, net, records)
    }

    /// Check every summary a live server of `sim` holds against the engine's
    /// `net` under the liveness mask `live`: its local summary, the branch
    /// summary it would publish, and exactly one fresh copy per live child
    /// and per live member of its replication set — so none of a dead
    /// server — each equal to `branch` of the server it describes. Summaries
    /// compare in every field: counters, bounds, record count and parts.
    fn assert_engine_state(
        sim: &Simulator<DataNode>,
        net: &RoadsNetwork,
        live: &[bool],
        branch: &[Summary],
    ) {
        let now_ms = sim.now().as_micros() / 1000;
        let tree = net.tree();
        for s in tree.servers().into_iter().filter(|s| live[s.index()]) {
            let node = sim.node(NodeId(s.0));
            assert_eq!(node.local_summary, *net.local_summary(s), "{s}: local");
            assert_eq!(
                node.branch_summary(s.0, now_ms),
                branch[s.index()],
                "{s}: branch"
            );
            let kids: Vec<ServerId> = (tree.children(s).iter().copied())
                .filter(|c| live[c.index()])
                .collect();
            assert_eq!(node.child_summaries.len(), kids.len(), "{s}: child copies");
            for c in &kids {
                let copy = node.child_summaries.get(&NodeId(c.0), now_ms);
                assert_eq!(copy, Some(&branch[c.index()]), "{s}: copy of child {c}");
            }
            let held: Vec<ServerId> = (replication_set(tree, s).all().into_iter())
                .filter(|t| live[t.index()])
                .collect();
            assert_eq!(node.replicas.len(), held.len(), "{s}: replicas");
            for t in &held {
                let copy = node.replicas.get(&t.0, now_ms);
                assert_eq!(copy, Some(&branch[t.index()]), "{s}: replica of {t}");
            }
        }
    }

    fn branches(net: &RoadsNetwork) -> Vec<Summary> {
        (0..net.len())
            .map(|i| net.branch_summary(ServerId(i as u32)).clone())
            .collect()
    }

    /// Converged from cold soft state, every summary every server holds is
    /// the engine's: replicas, child copies, local and branch summaries.
    #[test]
    fn replicas_converge_to_overlay_spec() {
        for shape in SHAPES {
            let (sim, net, _) = federation(shape, 40);
            assert_engine_state(&sim, &net, &vec![true; shape.0], &branches(&net));
        }
    }

    /// A whole non-root branch crashes: its copies fade from every live
    /// holder without a teardown message, and every copy left is the audit
    /// plane's authoritative branch summary under the crash.
    #[test]
    fn crashed_server_fades_from_parent_view() {
        for shape in SHAPES {
            let (mut sim, net, _) = federation(shape, 40);
            let tree = net.tree();
            let mut live = vec![true; shape.0];
            let victim = *tree
                .children(tree.root())
                .last()
                .expect("root has children");
            for s in tree.subtree(victim) {
                sim.node_mut(NodeId(s.0)).crash();
                live[s.index()] = false;
            }
            let deadline = sim.now() + SimTime::from_secs(30);
            sim.run_until(deadline);
            let branch: Vec<Summary> = (0..shape.0)
                .map(|i| authoritative_branch(&net, ServerId(i as u32), &live))
                .collect();
            assert_engine_state(&sim, &net, &live, &branch);
        }
    }

    /// A leaf's records change: every copy, the root's included, becomes
    /// that of an engine built over the new records.
    #[test]
    fn record_update_propagates_to_root_view() {
        for shape in SHAPES {
            let (mut sim, before, mut records) = federation(shape, 40);
            // Give a leaf one brand-new record no one else has.
            let leaf = *before.tree().leaves().iter().max().unwrap();
            let values = vec![Value::Float(0.987_654); shape.2];
            records[leaf.index()] = vec![Record::new_unchecked(
                RecordId(1 << 40),
                OwnerId(leaf.0),
                values,
            )];
            sim.node_mut(NodeId(leaf.0))
                .set_records(&records[leaf.index()]);
            let deadline = sim.now() + SimTime::from_secs(20);
            sim.run_until(deadline);
            let (schema, cfg) = (before.schema().clone(), *before.config());
            let after = RoadsNetwork::with_tree(schema, cfg, before.tree().clone(), records);
            let root = before.tree().root();
            assert_ne!(
                after.branch_summary(root),
                before.branch_summary(root),
                "{shape:?}"
            );
            assert_engine_state(&sim, &after, &vec![true; shape.0], &branches(&after));
        }
    }

    #[test]
    fn flight_recorder_captures_data_plane_events() {
        use roads_telemetry::Recorder;
        use std::sync::Arc;
        let schema = Schema::unit_numeric(1);
        let cfg = config(3);
        let tree = HierarchyTree::build(27, cfg.max_children);
        let mut sim = build_data_simulation(
            &tree,
            cfg,
            schema.clone(),
            unit_records(27, 1, 1),
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
        let cfg = config(3);
        let tree = HierarchyTree::build(27, cfg.max_children);
        let records = unit_records(27, 1, 1);
        let mut sim = build_data_simulation(&tree, cfg, schema, records, DelaySpace::paper(27, 17));
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
        let (sim, ..) = federation((12, 1, 1, 3), 30);
        let update_bytes = sim.stats().bytes(TrafficClass::Update);
        assert!(update_bytes > 0);
        // ~15 aggregation rounds for 12 nodes: 11 bottom-up + 11 top-down
        // messages per round, give or take staggering.
        let msgs = sim.stats().messages(TrafficClass::Update);
        assert!(msgs > 100, "sustained periodic traffic, got {msgs}");
    }
}
