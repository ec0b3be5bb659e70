//! One simulated ROADS server: the paper's per-server loop (§III-A and
//! §III-B) as messages over the discrete-event simulator.
//!
//! Every `ts` a joined server heartbeats its children. The heartbeat
//! carries liveness, the root path, the root's children and the epoch —
//! and the replicas the child keeps: its siblings' branch summaries, the
//! sender's own, and everything the sender replicates from above — the
//! ancestors' copies without their parts, which only a branch's parent
//! and its sibling and ancestor-sibling readers test. Each replica travels
//! with the time its origin was last heard — by the sender, for its own
//! and its children's; as relayed to it, for the rest — so relaying a copy
//! never makes it younger, and with the number of heartbeats that have
//! carried it. The child answers with its branch summary and the shape of
//! its branch. So one period
//! refreshes the hierarchy and the summaries together, and one
//! deadline, `summary_ttl`, both declares a silent peer dead and expires
//! a replica nobody refreshes: a server that stops talking fades out of
//! everyone's view without a teardown message.
//!
//! [`RoadsServer`] is that server: its membership (the hierarchy half,
//! with the join walk, rejoin and election rules, in
//! [`crate::maintenance`]) and its summary soft state (here). That soft
//! state is the paper's (§III-B: "data and summaries are soft-state and
//! have TTLs associated with them"): a replica is kept with the time its
//! origin was last heard and its hops, is fresh until `maintenance::lapsed`
//! says one TTL plus one period per hop has passed, and is swept by the
//! same tick that drops silent children. A sender may hold a copy up to a
//! period before its next heartbeat passes it on, so a copy `h` hops from
//! where its origin was heard is up to about `h` periods old when it
//! arrives: the period per hop keeps a live origin's copy from lapsing
//! between refreshes however deep it travels, with any TTL above one
//! period and the network delays along the way. A dead server's copies
//! lapse one TTL plus one period per hop after it was last heard — not one
//! TTL per relay, as when every hop restarted the deadline.
//!
//! The message plane carries summaries, not queries. A query (§III-C) is
//! routed by [`crate::engine::RoadsNetwork::route`], a pure function of
//! the summaries a server holds; the unit tests below check that the
//! summaries these servers converge to are the engine's, byte for byte —
//! after a cold start, after a branch crashes, after a record change, and
//! over the tree the servers built by joining.
//!
//! These copies are the only stale summaries in the system: every live
//! query routes on the engine's converged ones. [`audit_copies`] measures
//! them against ground truth — how many differ from what the servers
//! converge to under a crash ([`authoritative_branch`]), and how often a
//! copy matches a query no live record matches (a false positive) or
//! prunes one a live record matches (a false negative).

use crate::config::RoadsConfig;
use crate::engine::{branch_summary_of, RoadsNetwork};
use crate::maintenance::{lapsed, MemberState, Membership};
use crate::tree::{HierarchyTree, ServerId};
use roads_netsim::{Ctx, NodeId, Protocol, SimTime, Simulator, TimerTag, TrafficClass};
use roads_records::{wire::MSG_HEADER_BYTES, Query, Record, Schema, WireSize};
use roads_summary::Summary;
use roads_telemetry::{EventKind, Timeline};
use std::collections::BTreeMap;

/// The periodic tick: heartbeat, expiry and failure detection.
const TIMER_TICK: TimerTag = 1;

/// Wire bytes of one server id.
const PER_ID: usize = 4;

/// Wire bytes of the time a replica's origin was last heard.
const PER_STAMP: usize = 8;

/// Wire bytes of a replica's hop count.
const PER_HOPS: usize = 1;

/// Messages between ROADS servers.
#[derive(Debug, Clone)]
pub enum ServerMsg {
    /// Parent → child, every `ts`: liveness, the membership state the
    /// child recovers from, and the replicas it keeps.
    Heartbeat {
        /// Root path of the sender (root … sender).
        root_path: Vec<NodeId>,
        /// The root's current children (for root-failure recovery).
        root_children: Vec<NodeId>,
        /// Update-round epoch: the root bumps it once per period and every
        /// server adopts the largest it has heard, one level per heartbeat.
        /// The replicas on a heartbeat carry its epoch.
        epoch: u64,
        /// `(origin server, replica)`: the child's siblings, the sender,
        /// and what the sender replicates from above.
        replicas: Vec<(u32, Replica)>,
    },
    /// Child → parent, answering a heartbeat: liveness, the branch shape
    /// the join walk reads, and the child's branch summary.
    HeartbeatReply {
        /// Height of the child's subtree.
        branch_depth: u32,
        /// Descendant count of the child.
        descendants: u32,
        /// The child's branch summary.
        summary: Summary,
    },
    /// Join walk probe: "can you accept me, or where should I go?"
    /// `prober_root` is set when the prober is itself a (self-elected)
    /// root seeking to merge its hierarchy: the receiver accepts only if
    /// its own root has the smaller id (smaller-root tree absorbs).
    JoinProbe {
        /// The prober's root id, when the prober is a root.
        prober_root: Option<NodeId>,
    },
    /// Accept: the sender is now the prober's parent.
    JoinAccept {
        /// Root path of the new parent (root … parent).
        root_path: Vec<NodeId>,
    },
    /// Redirect: try this child instead (the least-depth branch).
    JoinRedirect {
        /// Next server to probe.
        next: NodeId,
    },
    /// Graceful departure notice (to parent and children).
    Leave,
}

/// Send `msg` with its wire size. A heartbeat and its reply carry the
/// summaries, so they count as [`TrafficClass::Update`]; join and leave
/// messages count as [`TrafficClass::Maintenance`].
pub(crate) fn send(ctx: &mut Ctx<'_, ServerMsg>, to: NodeId, msg: ServerMsg) {
    use ServerMsg::*;
    let ids = |v: &[NodeId]| PER_ID * v.len();
    let (body, class) = match &msg {
        Heartbeat {
            root_path,
            root_children,
            replicas,
            ..
        } => {
            let replicas: usize = (replicas.iter())
                .map(|(_, r)| PER_ID + PER_STAMP + PER_HOPS + r.summary.wire_size())
                .sum();
            let body = 8 + ids(root_path) + ids(root_children) + replicas;
            (body, TrafficClass::Update)
        }
        HeartbeatReply { summary, .. } => (8 + summary.wire_size(), TrafficClass::Update),
        JoinProbe { .. } | Leave => (0, TrafficClass::Maintenance),
        JoinAccept { root_path } => (ids(root_path), TrafficClass::Maintenance),
        JoinRedirect { .. } => (PER_ID, TrafficClass::Maintenance),
    };
    ctx.send(to, msg, MSG_HEADER_BYTES + body, class);
}

/// A replicated remote branch summary, when its origin was last heard,
/// and how many heartbeats have carried it since.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The origin's branch summary.
    pub summary: Summary,
    /// When the origin was last heard, in virtual ms: by its parent, at
    /// its last heartbeat reply, or by itself, for the sender's own.
    pub heard_ms: u64,
    /// Heartbeats that have carried the copy since its origin was heard.
    /// Each sender may have held it up to one period before sending it on.
    pub hops: u8,
}

impl Replica {
    /// Whether the copy has lapsed at `now_ms`: one TTL after its origin
    /// was last heard, plus one period for every hop it has come. So a
    /// live origin's copy is refreshed before it lapses however deep it
    /// travels, and a dead one's is gone one period per hop after its
    /// parent's child entry.
    fn lapsed(&self, now_ms: u64, cfg: &RoadsConfig) -> bool {
        let waited = u64::from(self.hops) * cfg.ts_ms;
        lapsed(self.heard_ms + waited, now_ms, cfg.summary_ttl_ms)
    }

    /// The copy a heartbeat carries on: one hop further.
    fn relayed(&self) -> Replica {
        Replica {
            hops: self.hops.saturating_add(1),
            ..self.clone()
        }
    }
}

/// One ROADS server: its place in the hierarchy and the summaries it
/// holds.
pub struct RoadsServer {
    cfg: RoadsConfig,
    member: Membership,
    /// Summary of the attached records.
    local_summary: Summary,
    /// Replicated remote branch summaries by origin server id, kept until
    /// a tick sweeps them once they have lapsed.
    replicas: BTreeMap<u32, Replica>,
}

impl RoadsServer {
    fn new(cfg: RoadsConfig, schema: &Schema, member: Membership, records: &[Record]) -> Self {
        RoadsServer {
            local_summary: Summary::from_records(schema, &cfg.summary, records),
            replicas: BTreeMap::new(),
            cfg,
            member,
        }
    }

    /// The server's place in the hierarchy.
    pub(crate) fn member(&self) -> &Membership {
        &self.member
    }

    /// Crash: the server goes silent for good and forgets its view. What
    /// others hold of it expires on its own.
    pub fn crash(&mut self) {
        self.member.crash();
        self.replicas.clear();
    }

    /// The replicas that have not lapsed, in origin order: what a
    /// heartbeat relays and the timeline counts.
    fn fresh_replicas(&self, now_ms: u64) -> impl Iterator<Item = (u32, &Replica)> {
        (self.replicas.iter())
            .filter(move |(_, r)| !r.lapsed(now_ms, &self.cfg))
            .map(|(origin, r)| (*origin, r))
    }

    /// Branch summary of server `me` from current (possibly stale) state:
    /// the local summary aggregated with the fresh child summaries, in
    /// child order.
    fn branch_summary(&self, me: u32, now_ms: u64) -> Summary {
        let fresh =
            (self.member.fresh_children(now_ms, self.cfg.summary_ttl_ms)).map(|(c, _, s)| (c.0, s));
        let root = self.member.parent().is_none();
        branch_summary_of(me, root, &self.local_summary, fresh)
    }

    /// Heartbeat every child: to each, its siblings' branch summaries, our
    /// own branch summary and everything we replicate from above, each
    /// stamped with when its origin was last heard — a sibling by its last
    /// reply, ourselves now — and one hop further than we hold it. Our own
    /// goes without its parts, as it came to us from above: a child reads
    /// its ancestors' copies only for their attributes.
    fn heartbeat_children(&mut self, ctx: &mut Ctx<'_, ServerMsg>, now_ms: u64) {
        let Some((root_path, root_children, epoch)) = self.member.heartbeat() else {
            return;
        };
        let me = ctx.self_id().0;
        let heard = |summary, heard_ms| Replica {
            summary,
            heard_ms,
            hops: 1,
        };
        let mine = heard(self.branch_summary(me, now_ms).without_parts(), now_ms);
        let fresh: Vec<(u32, Replica)> = (self.member)
            .fresh_children(now_ms, self.cfg.summary_ttl_ms)
            .map(|(c, heard_ms, s)| (c.0, heard(s.clone(), heard_ms)))
            .collect();
        let from_above: Vec<(u32, Replica)> = (self.fresh_replicas(now_ms))
            .map(|(origin, r)| (origin, r.relayed()))
            .collect();
        for c in self.member.children() {
            let mut replicas: Vec<(u32, Replica)> = (fresh.iter())
                .filter(|(sib, _)| *sib != c.0)
                .cloned()
                .collect();
            replicas.push((me, mine.clone()));
            replicas.extend(from_above.iter().cloned());
            let (root_path, root_children) = (root_path.clone(), root_children.clone());
            let msg = ServerMsg::Heartbeat {
                root_path,
                root_children,
                epoch,
                replicas,
            };
            send(ctx, c, msg);
        }
    }

    /// Keep the replicas a parent's heartbeat carried, each with the time
    /// its origin was last heard and its hops; one that has lapsed on the
    /// way is not kept.
    fn install(
        &mut self,
        ctx: &Ctx<'_, ServerMsg>,
        mut replicas: Vec<(u32, Replica)>,
        now_ms: u64,
    ) {
        replicas.retain(|(_, r)| !r.lapsed(now_ms, &self.cfg));
        let installed = (replicas.iter())
            .filter(|(origin, _)| !self.replicas.contains_key(origin))
            .count() as u64;
        let refreshed = replicas.len() as u64 - installed;
        self.replicas.extend(replicas);
        if installed > 0 {
            ctx.record(EventKind::ReplicaInstall, installed);
        }
        if refreshed > 0 {
            ctx.record(EventKind::ReplicaRefresh, refreshed);
        }
    }
}

/// Virtual time in whole milliseconds.
fn now_ms<M>(ctx: &Ctx<'_, M>) -> u64 {
    ctx.now().as_micros() / 1000
}

impl Protocol for RoadsServer {
    type Msg = ServerMsg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, ServerMsg>, from: NodeId, msg: ServerMsg) {
        if self.member.state() == &MemberState::Down {
            return;
        }
        let now = now_ms(ctx);
        match msg {
            ServerMsg::Heartbeat {
                root_path,
                root_children,
                epoch,
                replicas,
            } => {
                if !(self.member).on_heartbeat(ctx, from, root_path, root_children, epoch, now) {
                    return;
                }
                self.install(ctx, replicas, now);
                let summary = self.branch_summary(ctx.self_id().0, now);
                ctx.record(EventKind::SummaryPublish, summary.wire_size() as u64);
                let (branch_depth, descendants) = self.member.branch_shape();
                let reply = ServerMsg::HeartbeatReply {
                    branch_depth,
                    descendants,
                    summary,
                };
                send(ctx, from, reply);
            }
            ServerMsg::HeartbeatReply {
                branch_depth,
                descendants,
                summary,
            } => {
                if (self.member).on_reply(from, branch_depth, descendants, summary, now) {
                    ctx.record(EventKind::SummaryMerge, from.0 as u64);
                }
            }
            ServerMsg::JoinProbe { prober_root } => {
                let max = self.cfg.max_children;
                self.member.on_join_probe(ctx, from, prober_root, max, now);
            }
            ServerMsg::JoinAccept { root_path } => {
                self.member.on_join_accept(ctx, from, root_path, now);
            }
            ServerMsg::JoinRedirect { next } => self.member.on_join_redirect(ctx, next),
            ServerMsg::Leave => {
                let ttl = self.cfg.summary_ttl_ms;
                self.member.on_leave(ctx, from, now, ttl);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ServerMsg>, tag: TimerTag) {
        if tag != TIMER_TICK || self.member.state() == &MemberState::Down {
            return;
        }
        let (now, ttl) = (now_ms(ctx), self.cfg.summary_ttl_ms);
        let held = self.replicas.len();
        (self.replicas).retain(|_, r| !r.lapsed(now, &self.cfg));
        let expired = self.member.expire_children(now, ttl) + held - self.replicas.len();
        if expired > 0 {
            ctx.record(EventKind::TtlExpire, expired as u64);
        }
        self.heartbeat_children(ctx, now);
        self.member.tick(ctx, now, ttl);
        ctx.set_timer(SimTime::from_millis(self.cfg.ts_ms), TIMER_TICK);
    }
}

/// Assemble a federation of [`RoadsServer`]s, one per record set. The
/// servers attached in `start` begin joined at their position in it; every
/// other server joins through `start`'s root. Start times are staggered
/// across the first `ts`, in id order.
pub fn build_simulation(
    cfg: RoadsConfig,
    schema: Schema,
    records: Vec<Vec<Record>>,
    start: &HierarchyTree,
    delays: roads_netsim::DelaySpace,
) -> Simulator<RoadsServer> {
    let n = records.len();
    assert_eq!(start.capacity(), n, "one record set per server");
    let ids = |v: &[ServerId]| v.iter().map(|s| NodeId(s.0)).collect::<Vec<_>>();
    let root = start.root();
    let nodes = (records.iter().enumerate())
        .map(|(i, records)| {
            let s = ServerId(i as u32);
            let member = if start.contains(s) {
                let root_children = ids(start.children(root));
                Membership::joined(
                    ids(&start.root_path(s)),
                    ids(start.children(s)),
                    root_children,
                )
            } else {
                Membership::joining(NodeId(root.0))
            };
            RoadsServer::new(cfg, &schema, member, records)
        })
        .collect();
    let mut sim = Simulator::new(nodes, delays);
    for i in 0..n {
        let offset = (cfg.ts_ms * i as u64 / n as u64).max(1);
        sim.schedule_timer(SimTime::from_millis(offset), NodeId(i as u32), TIMER_TICK);
    }
    sim
}

/// Run the federation until `until`, sampling federation-wide gauges into
/// `timeline` at its configured interval: fresh child summaries
/// (`live_summaries`), overlay replicas (`overlay_replicas`), the busiest
/// server's share of all deliveries (`load_share_max`) and total
/// deliveries (`deliveries`). Returns events processed.
pub fn run_with_timeline(
    sim: &mut Simulator<RoadsServer>,
    until: SimTime,
    timeline: &mut Timeline,
) -> u64 {
    let mut processed = 0;
    loop {
        let now = sim.now();
        let now_ms = now.as_millis_f64();
        if timeline.due(now_ms) {
            let t_ms = now.as_micros() / 1000;
            let (mut live, mut replicas) = (0, 0);
            for (_, n) in sim.nodes() {
                let ttl = n.cfg.summary_ttl_ms;
                live += n.member.fresh_children(t_ms, ttl).count();
                replicas += n.fresh_replicas(t_ms).count();
            }
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

/// The authoritative branch summary of `target` under a liveness mask:
/// what the servers converge to once the dead ones' copies have expired —
/// `target`'s subtree aggregated bottom-up the way the network aggregates
/// it (see [`Summary::branch_of`]), with every dead server's local summary
/// left out. A dead server contributes neither records nor a box; its live
/// descendants still do. With everyone live this equals
/// [`RoadsNetwork::branch_summary`].
pub fn authoritative_branch(net: &RoadsNetwork, target: ServerId, live: &[bool]) -> Summary {
    let children: Vec<(u32, Summary)> = (net.tree().children(target).iter())
        .map(|&c| (c.0, authoritative_branch(net, c, live)))
        .collect();
    let nothing;
    let local = if live.get(target.index()) == Some(&false) {
        nothing = Summary::empty(net.schema(), &net.config().summary);
        &nothing
    } else {
        net.local_summary(target)
    };
    let children = children.iter().map(|(c, summary)| (*c, summary));
    let root = net.tree().parent(target).is_none();
    branch_summary_of(target.0, root, local, children)
}

/// What [`audit_copies`] found among the copies of the branches rooted at
/// one tree level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyAudit {
    /// Fresh copies held by live servers: child entries and replicas.
    pub copies: usize,
    /// Copies that differ from the authoritative branch summary.
    pub diverged: usize,
    /// Query × copy probes evaluated.
    pub probes: u64,
    /// The copy matches a query no live record of its branch matches.
    pub false_positives: u64,
    /// The copy prunes a query a live record of its branch matches: a
    /// query routed on it would miss results.
    pub false_negatives: u64,
}

/// Audit the summaries the servers of `sim` hold of one another against
/// ground truth, indexed by the depth of each copy's target in `net`'s
/// tree — the tree the servers hold. Every live server's fresh child
/// entries and fresh replicas are compared with [`authoritative_branch`]
/// under `live`, an ancestor's copy without its parts, since that is how
/// it travels. Each copy is then probed with every query: it says
/// match or prune by [`Summary::may_match`], and the truth is whether a
/// live server of its branch holds a matching record.
pub fn audit_copies(
    sim: &Simulator<RoadsServer>,
    net: &RoadsNetwork,
    live: &[bool],
    queries: &[Query],
) -> Vec<CopyAudit> {
    let tree = net.tree();
    let now_ms = sim.now().as_micros() / 1000;
    let is_live = |s: ServerId| live.get(s.index()).copied().unwrap_or(true);
    let mut levels = vec![CopyAudit::default(); tree.levels()];
    // Authoritative summary and per-query truth, once per target.
    let mut truth: BTreeMap<u32, (Summary, Vec<bool>)> = BTreeMap::new();
    for (id, node) in sim.nodes() {
        let holder = ServerId(id.0);
        if !is_live(holder) {
            continue;
        }
        let ttl = node.cfg.summary_ttl_ms;
        let children = (node.member.fresh_children(now_ms, ttl)).map(|(c, _, s)| (c.0, s));
        let replicas = (node.fresh_replicas(now_ms)).map(|(o, r)| (o, &r.summary));
        for (target, copy) in children.chain(replicas) {
            let (exact, truths) = truth.entry(target).or_insert_with(|| {
                let t = ServerId(target);
                let members = tree.subtree(t);
                let matched = (queries.iter())
                    .map(|q| {
                        (members.iter()).any(|&s| is_live(s) && net.store(s).table().any_match(q))
                    })
                    .collect();
                (authoritative_branch(net, t, live), matched)
            });
            let target = ServerId(target);
            let level = &mut levels[tree.depth(target)];
            level.copies += 1;
            let diverged = if tree.on_root_path(target, holder) {
                *copy != exact.without_parts()
            } else {
                copy != exact
            };
            level.diverged += usize::from(diverged);
            for (q, &matched) in queries.iter().zip(truths.iter()) {
                let says = copy.may_match(q);
                level.probes += 1;
                level.false_positives += u64::from(says && !matched);
                level.false_negatives += u64::from(!says && matched);
            }
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::extract_tree;
    use crate::overlay::{replication_set, ReplicaRole};
    use roads_netsim::DelaySpace;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Value};
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

    /// The federation of `shape`, started joined in `HierarchyTree::build`'s
    /// tree and run for `secs` of virtual time from cold soft state, the
    /// engine's network over the same records, and those records.
    fn federation(
        (n, per, attrs, degree): (usize, usize, usize, usize),
        secs: u64,
    ) -> (Simulator<RoadsServer>, RoadsNetwork, Vec<Vec<Record>>) {
        let (schema, cfg) = (Schema::unit_numeric(attrs), config(degree));
        let tree = HierarchyTree::build(n, degree);
        let records = unit_records(n, per, attrs);
        let delays = DelaySpace::paper(n, 17);
        let mut sim = build_simulation(cfg, schema.clone(), records.clone(), &tree, delays);
        sim.run_until(SimTime::from_secs(secs));
        let net = RoadsNetwork::with_tree(schema, cfg, tree, records.clone());
        (sim, net, records)
    }

    /// Check every summary a live server of `sim` holds against the engine's
    /// `net` under the liveness mask `live`: its local summary, the branch
    /// summary it would publish, and exactly one fresh copy per live child
    /// and per live member of its replication set — so none of a dead
    /// server — each equal to `branch` of the server it describes, an
    /// ancestor's copy without its parts. Summaries compare in every
    /// field: counters, bounds, record count and parts.
    fn assert_engine_state(
        sim: &Simulator<RoadsServer>,
        net: &RoadsNetwork,
        live: &[bool],
        branch: &[Summary],
    ) {
        let now_ms = sim.now().as_micros() / 1000;
        let tree = net.tree();
        for s in tree.servers().into_iter().filter(|s| live[s.index()]) {
            let node = sim.node(NodeId(s.0));
            let ttl = node.cfg.summary_ttl_ms;
            assert_eq!(node.local_summary, *net.local_summary(s), "{s}: local");
            assert_eq!(
                node.branch_summary(s.0, now_ms),
                branch[s.index()],
                "{s}: branch"
            );
            let kids: Vec<ServerId> = (tree.children(s).iter().copied())
                .filter(|c| live[c.index()])
                .collect();
            let copies: Vec<(NodeId, &Summary)> = (node.member.fresh_children(now_ms, ttl))
                .map(|(c, _, s)| (c, s))
                .collect();
            assert_eq!(node.member.children().len(), kids.len(), "{s}: children");
            assert_eq!(copies.len(), kids.len(), "{s}: child copies");
            for c in &kids {
                let copy = copies.iter().find(|(id, _)| id.0 == c.0).map(|(_, s)| *s);
                assert_eq!(copy, Some(&branch[c.index()]), "{s}: copy of child {c}");
            }
            let mut held = replication_set(tree, s).entries();
            held.retain(|(t, _)| live[t.index()]);
            assert_eq!(node.replicas.len(), held.len(), "{s}: replicas");
            for (t, role) in &held {
                let copy = (node.fresh_replicas(now_ms))
                    .find_map(|(o, r)| (o == t.0).then_some(&r.summary));
                let expected = match role {
                    ReplicaRole::Ancestor => branch[t.index()].without_parts(),
                    _ => branch[t.index()].clone(),
                };
                assert_eq!(copy, Some(&expected), "{s}: {role:?} replica of {t}");
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
    /// holder without a teardown message, and every copy left is the
    /// authoritative branch summary under the crash.
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
            let (schema, cfg) = (before.schema().clone(), *before.config());
            sim.node_mut(NodeId(leaf.0)).local_summary =
                Summary::from_records(&schema, &cfg.summary, &records[leaf.index()]);
            let deadline = sim.now() + SimTime::from_secs(20);
            sim.run_until(deadline);
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

    /// Periods a healed federation is given to drop what it held of the
    /// old tree: one TTL for stale copies to expire and be swept, then one
    /// period per level for the new branch summaries to climb to the root
    /// and one per level for the replicas to come back down.
    fn heal_periods(cfg: &RoadsConfig, levels: usize) -> u64 {
        cfg.summary_ttl_ms.div_ceil(cfg.ts_ms) + 1 + 2 * levels as u64
    }

    /// Servers with records that join from a root-only tree hold the
    /// engine's summaries over the tree they built. After an internal
    /// server crashes, within `heal_periods` of its orphans rejoining they
    /// hold the engine's summaries over the healed tree, in which the dead
    /// server's records are absent.
    #[test]
    fn joined_federation_holds_the_engines_summaries_through_a_crash() {
        for shape in [SHAPES[1], SHAPES[3]] {
            let (n, per, attrs, degree) = shape;
            let (schema, cfg) = (Schema::unit_numeric(attrs), config(degree));
            let mut records = unit_records(n, per, attrs);
            let start = HierarchyTree::new(n, ServerId(0));
            let delays = DelaySpace::paper(n, 17);
            let mut sim = build_simulation(cfg, schema.clone(), records.clone(), &start, delays);
            sim.run_until(SimTime::from_secs(60));
            let tree = extract_tree(&sim).expect("joined");
            assert_eq!(tree.len(), n, "{shape:?}");
            let net = RoadsNetwork::with_tree(schema.clone(), cfg, tree.clone(), records.clone());
            assert_engine_state(&sim, &net, &vec![true; n], &branches(&net));

            let victim = (tree.servers().into_iter())
                .find(|&s| s != tree.root() && !tree.children(s).is_empty())
                .expect("an internal server");
            sim.node_mut(NodeId(victim.0)).crash();
            let period = SimTime::from_millis(cfg.ts_ms);
            let mut periods = 0;
            let healed = loop {
                let deadline = sim.now() + period;
                sim.run_until(deadline);
                periods += 1;
                assert!(periods < 60, "{shape:?}: orphans never rejoined");
                match extract_tree(&sim) {
                    Ok(t) if t.len() == n - 1 => break t,
                    _ => {}
                }
            };
            let heal = SimTime::from_millis(cfg.ts_ms * heal_periods(&cfg, healed.levels()));
            let deadline = sim.now() + heal;
            sim.run_until(deadline);
            assert_eq!(
                extract_tree(&sim).as_ref(),
                Ok(&healed),
                "{shape:?}: tree held"
            );
            records[victim.index()].clear();
            let net = RoadsNetwork::with_tree(schema, cfg, healed, records);
            let mut live = vec![true; n];
            live[victim.index()] = false;
            assert_engine_state(&sim, &net, &live, &branches(&net));
        }
    }

    /// A replica whose origin was heard at `t`, and that has come no hop,
    /// is relayed and counted through `t + ttl − 1` ms, and from `t + ttl`
    /// on it is swept, relayed no more and counted no more. The child the
    /// holder relays it to keeps the origin's stamp and counts one hop, so
    /// its copy lapses one period later, at `t + ttl + ts`. One holder
    /// ticks every millisecond between a parent and a child that never
    /// tick; the parent's one heartbeat is injected. The TTL outlasts a
    /// round trip, so the child stays the holder's child.
    #[test]
    fn a_replica_lives_one_ttl_to_the_millisecond() {
        let cfg = RoadsConfig {
            ts_ms: 1,
            summary_ttl_ms: 1_000,
            ..config(3)
        };
        let schema = Schema::unit_numeric(1);
        let records = unit_records(3, 1, 1);
        let (parent, holder, child) = (NodeId(0), NodeId(1), NodeId(2));
        let members = [
            Membership::joined(vec![parent], vec![holder], vec![holder]),
            Membership::joined(vec![parent, holder], vec![child], vec![holder]),
            Membership::joined(vec![parent, holder, child], vec![], vec![holder]),
        ];
        let nodes = (members.into_iter().zip(&records))
            .map(|(member, records)| RoadsServer::new(cfg, &schema, member, records))
            .collect();
        let mut sim = Simulator::new(nodes, DelaySpace::paper(3, 17));
        sim.schedule_timer(SimTime::from_millis(1), holder, TIMER_TICK);
        let (t, ttl) = (5, cfg.summary_ttl_ms);
        let summary = Summary::from_records(&schema, &cfg.summary, &records[0]);
        let replicas = vec![(
            0,
            Replica {
                summary,
                heard_ms: t,
                hops: 0,
            },
        )];
        let heartbeat = ServerMsg::Heartbeat {
            root_path: vec![parent],
            root_children: vec![holder],
            epoch: 0,
            replicas,
        };
        sim.inject(
            SimTime::from_millis(t),
            parent,
            holder,
            heartbeat,
            0,
            TrafficClass::Update,
        );
        // (held, fresh) at the holder once every event up to `ms` ran.
        let at = |sim: &mut Simulator<RoadsServer>, ms: u64| {
            sim.run_until(SimTime::from_millis(ms));
            let node = sim.node(holder);
            (
                node.replicas.contains_key(&0),
                node.fresh_replicas(ms).count(),
            )
        };
        assert_eq!(at(&mut sim, t), (true, 1), "installed at t");
        assert_eq!(at(&mut sim, t + ttl - 1), (true, 1), "fresh at t + ttl - 1");
        assert_eq!(at(&mut sim, t + ttl), (false, 0), "swept at t + ttl");
        // Relaying did not restart the deadline: the child's copy is the
        // origin's, heard at t, one hop on, stale from t + ttl + ts on.
        sim.run_until(SimTime::from_millis(t + ttl + 500));
        let node = sim.node(child);
        let copy = &node.replicas[&0];
        assert_eq!((copy.heard_ms, copy.hops), (t, 1), "the origin's stamp");
        let origin = |ms| node.fresh_replicas(ms).filter(|(o, _)| *o == 0).count();
        assert_eq!(origin(t + ttl + cfg.ts_ms - 1), 1);
        assert_eq!(origin(t + ttl + cfg.ts_ms), 0);
    }

    /// After a server crashes, every holder sweeps its copy of the dead
    /// server's branch within one period of the copy's deadline: no copy
    /// is held `ttl + ts`, plus a period per hop it came, past the time
    /// its origin was last heard, and none is left once the relays have
    /// stopped.
    #[test]
    fn a_dead_servers_copies_go_within_ttl_plus_ts() {
        for shape in [SHAPES[0], SHAPES[2]] {
            let (mut sim, net, _) = federation(shape, 40);
            let tree = net.tree();
            let victim = *tree.leaves().iter().max().expect("a leaf");
            let holders = |sim: &Simulator<RoadsServer>| {
                (sim.nodes())
                    .filter(|(_, n)| n.replicas.contains_key(&victim.0))
                    .count()
            };
            assert!(holders(&sim) > 0, "{shape:?}: a copy to expire");
            sim.node_mut(NodeId(victim.0)).crash();
            let cfg = *net.config();
            let (ttl, ts) = (cfg.summary_ttl_ms, cfg.ts_ms);
            let start = sim.now().as_micros() / 1000;
            for ms in start..start + 4 * ttl {
                sim.run_until(SimTime::from_millis(ms));
                for (id, node) in sim.nodes() {
                    if let Some(copy) = node.replicas.get(&victim.0) {
                        let deadline = copy.heard_ms + ttl + u64::from(copy.hops) * ts;
                        assert!(ms < deadline + ts, "{shape:?}: {id} at {ms}");
                    }
                }
            }
            assert_eq!(holders(&sim), 0, "{shape:?}: copies left");
        }
    }

    /// A crashed server's copies are gone from every server — replicas at
    /// every depth and its parent's child entry — one period per relay hop
    /// after the child entry: a server `h` hops below the one that last
    /// heard the victim (the victim's parent, or for the victim's
    /// descendants the victim itself) holds nothing of it from
    /// `crash + ttl + (h + 1)·ts` on. No relay hop restarts the deadline.
    /// A leaf, and a child of the root whose copies reach the whole tree.
    #[test]
    fn no_relay_keeps_a_crashed_servers_copy_past_a_period_per_hop() {
        for shape in SHAPES {
            let (_, net, _) = federation(shape, 0);
            let tree = net.tree();
            let leaf = *tree.leaves().iter().max().expect("a leaf");
            let top = *tree.children(tree.root()).last().expect("a child");
            for victim in [leaf, top] {
                let parent = tree.parent(victim).expect("not the root");
                let hops = |h: NodeId| {
                    let h = ServerId(h.0);
                    let heard_by = if tree.on_root_path(victim, h) {
                        victim
                    } else {
                        parent
                    };
                    (tree.depth(h) - tree.depth(heard_by)) as u64
                };
                let (mut sim, ..) = federation(shape, 40);
                let held = |sim: &Simulator<RoadsServer>| -> Vec<NodeId> {
                    (sim.nodes())
                        .filter(|(_, n)| {
                            n.replicas.contains_key(&victim.0)
                                || n.member.children().contains(&NodeId(victim.0))
                        })
                        .map(|(id, _)| id)
                        .collect()
                };
                assert!(!held(&sim).is_empty(), "{shape:?} {victim}: a copy");
                sim.node_mut(NodeId(victim.0)).crash();
                let cfg = *net.config();
                let crash = sim.now().as_micros() / 1000;
                let gone = |h: u64| crash + cfg.summary_ttl_ms + (h + 1) * cfg.ts_ms;
                let levels = tree.levels() as u64;
                for h in 0..levels {
                    sim.run_until(SimTime::from_millis(gone(h)));
                    let late: Vec<NodeId> =
                        held(&sim).into_iter().filter(|&s| hops(s) <= h).collect();
                    assert_eq!(late, vec![], "{shape:?} {victim}: held at {h} hops");
                }
                // Nothing comes back.
                sim.run_until(SimTime::from_millis(gone(levels) + cfg.summary_ttl_ms));
                assert_eq!(held(&sim), vec![], "{shape:?} {victim}: held at the end");
            }
        }
    }

    /// Every server of `tree` holds, fresh at every millisecond of the
    /// next `span_ms`, a copy of each child and of each member of its
    /// replication set, and no other.
    fn assert_copies_stay_fresh(
        sim: &mut Simulator<RoadsServer>,
        tree: &HierarchyTree,
        span_ms: u64,
    ) {
        let ids = |v: &[ServerId]| {
            let mut ids: Vec<u32> = v.iter().map(|s| s.0).collect();
            ids.sort_unstable();
            ids
        };
        let expected: Vec<(ServerId, Vec<u32>, Vec<u32>)> = (tree.servers().into_iter())
            .map(|s| {
                (
                    s,
                    ids(tree.children(s)),
                    ids(&replication_set(tree, s).all()),
                )
            })
            .collect();
        let start = sim.now().as_micros() / 1000;
        for ms in start..start + span_ms {
            sim.run_until(SimTime::from_millis(ms));
            for (s, kids, set) in &expected {
                let node = sim.node(NodeId(s.0));
                let ttl = node.cfg.summary_ttl_ms;
                let fresh: Vec<u32> = (node.member.fresh_children(ms, ttl))
                    .map(|(c, ..)| c.0)
                    .collect();
                assert_eq!(&fresh, kids, "{s}: child copies at {ms}");
                let held: Vec<u32> = node.fresh_replicas(ms).map(|(o, _)| o).collect();
                assert_eq!(&held, set, "{s}: replicas at {ms}");
            }
        }
    }

    /// `examples/churn_resilience`'s federation — 30 servers joining a
    /// root-only tree, degree 4, a TTL of three periods — keeps a fresh
    /// copy of every live child and replication-set member at every
    /// millisecond: once joined, and again once healed after an internal
    /// server and then the root crash. However many relay hops a copy
    /// came down, it is refreshed before it lapses.
    #[test]
    fn live_copies_never_lapse_through_the_churn_example() {
        let n = 30;
        let cfg = RoadsConfig {
            max_children: 4,
            summary: SummaryConfig::with_buckets(100),
            ts_ms: 1_000,
            summary_ttl_ms: 3_000,
        };
        let start = HierarchyTree::new(n, ServerId(0));
        let records = roads_workload::line_records(n, 10);
        let schema = Schema::unit_numeric(1);
        let mut sim = build_simulation(cfg, schema, records, &start, DelaySpace::paper(n, 99));
        sim.run_until(SimTime::from_secs(30));
        let mut tree = extract_tree(&sim).expect("joined");
        assert_eq!(tree.len(), n);
        assert!(tree.levels() >= 4, "relay chains of several hops");
        assert_copies_stay_fresh(&mut sim, &tree, 8 * cfg.ts_ms);
        let mut victim = (tree.servers().into_iter())
            .find(|&s| s != tree.root() && !tree.children(s).is_empty())
            .expect("an internal server");
        for _ in ["internal", "root"] {
            sim.node_mut(NodeId(victim.0)).crash();
            let left = tree.len() - 1;
            let mut periods = 0;
            let healed = loop {
                let deadline = sim.now() + SimTime::from_millis(cfg.ts_ms);
                sim.run_until(deadline);
                periods += 1;
                assert!(periods < 60, "{victim}: never healed");
                match extract_tree(&sim) {
                    Ok(t) if t.len() == left => break t,
                    _ => {}
                }
            };
            let heal = SimTime::from_millis(cfg.ts_ms * heal_periods(&cfg, healed.levels()));
            let deadline = sim.now() + heal;
            sim.run_until(deadline);
            assert_eq!(extract_tree(&sim).as_ref(), Ok(&healed), "{victim}: held");
            tree = healed;
            assert_copies_stay_fresh(&mut sim, &tree, 8 * cfg.ts_ms);
            victim = tree.root();
        }
    }

    #[test]
    fn authoritative_branch_matches_converged_state_when_all_live() {
        let (_, net, _) = federation(SHAPES[2], 0);
        let live = vec![true; net.len()];
        for s in net.tree().servers() {
            assert_eq!(
                &authoritative_branch(&net, s, &live),
                net.branch_summary(s),
                "server {s}"
            );
        }
    }

    /// The copy audit's verdicts, by the level of each copy's target. 27
    /// servers hold one record each at `s / 27`, alone in its histogram
    /// bucket, and one narrow query per server asks for it: the converged
    /// federation audits clean. A copy of a live leaf emptied of its record
    /// prunes that record's query, one false negative at the leaf's level;
    /// once the leaf crashes, its other copies still match the query, false
    /// positives there, and the emptied copy is right again.
    #[test]
    fn copy_audit_counts_a_missing_live_record_as_fn_and_a_dead_one_as_fp() {
        let n = 27;
        let (schema, cfg) = (Schema::unit_numeric(1), config(3));
        let tree = HierarchyTree::build(n, 3);
        let records = roads_workload::line_records(n, 1);
        let delays = DelaySpace::paper(n, 17);
        let mut sim = build_simulation(cfg, schema.clone(), records.clone(), &tree, delays);
        sim.run_until(SimTime::from_secs(40));
        let net = RoadsNetwork::with_tree(schema.clone(), cfg, tree.clone(), records);
        let queries: Vec<Query> = (0..n)
            .map(|s| {
                let v = s as f64 / n as f64;
                QueryBuilder::new(&schema, QueryId(s as u64))
                    .range("x0", v - 0.002, v + 0.002)
                    .build()
            })
            .collect();
        let mut live = vec![true; n];
        // (false positives, false negatives) per level.
        let verdicts = |levels: &[CopyAudit]| -> Vec<(u64, u64)> {
            (levels.iter())
                .map(|l| (l.false_positives, l.false_negatives))
                .collect()
        };

        let clean = audit_copies(&sim, &net, &live, &queries);
        assert_eq!(clean.len(), tree.levels());
        let expected: usize = (tree.servers().iter())
            .map(|&s| tree.children(s).len() + net.replica_set(s).entries().len())
            .sum();
        assert_eq!(clean.iter().map(|l| l.copies).sum::<usize>(), expected);
        for l in &clean {
            assert_eq!(l.probes, (l.copies * n) as u64);
            assert_eq!(
                (l.diverged, l.false_positives, l.false_negatives),
                (0, 0, 0)
            );
        }

        let leaf = *tree.leaves().iter().max().expect("a leaf");
        let sibling = *(tree.children(tree.parent(leaf).expect("a parent")).iter())
            .find(|&&s| s != leaf)
            .expect("a sibling");
        let level = tree.depth(leaf);
        let copy = (sim.node_mut(NodeId(sibling.0)).replicas.get_mut(&leaf.0))
            .expect("a sibling replicates the leaf");
        copy.summary = Summary::empty(&schema, &cfg.summary);
        let missing = audit_copies(&sim, &net, &live, &queries);
        let mut one_fn_at_level = vec![(0, 0); tree.levels()];
        one_fn_at_level[level] = (0, 1);
        assert_eq!(verdicts(&missing), one_fn_at_level, "{missing:?}");
        assert_eq!(missing[level].diverged, 1);

        sim.node_mut(NodeId(leaf.0)).crash();
        live[leaf.index()] = false;
        let dead = audit_copies(&sim, &net, &live, &queries);
        assert!(
            verdicts(&dead).iter().all(|&(_, fneg)| fneg == 0),
            "{dead:?}"
        );
        assert!(dead[level].false_positives > 0, "{dead:?}");
        assert!(dead[level].diverged > 0, "{dead:?}");
    }

    #[test]
    fn flight_recorder_captures_data_plane_events() {
        use roads_telemetry::Recorder;
        use std::sync::Arc;
        let schema = Schema::unit_numeric(1);
        let cfg = config(3);
        let tree = HierarchyTree::build(27, cfg.max_children);
        let mut sim = build_simulation(
            cfg,
            schema.clone(),
            unit_records(27, 1, 1),
            &tree,
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
        let mut sim = build_simulation(cfg, schema, records, &tree, DelaySpace::paper(27, 17));
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
