//! A server's place in the hierarchy (§III-A, "Hierarchy Maintenance").
//!
//! "Each parent and its child can exchange periodic heartbeat messages to
//! detect failures. When several heartbeat messages are lost, one can assume
//! the other end has failed. Each node also maintains a root path … When a
//! node leaves the hierarchy, it informs its parent and its children. A
//! child will try to rejoin the hierarchy starting from its grandparent …
//! Eventually it can start from the root again if needed. … The children of
//! the root can elect one of them as the new root, using some simple rules
//! such as the one with the smallest IP address."
//!
//! `Membership` is that half of a [`RoadsServer`]: its parent, children,
//! root path, the root's children and the epoch, and every rule above. It
//! rides the server's heartbeat ([`crate::protocol`]), which carries the
//! summaries too, so a child's branch summary is kept with the child and
//! dropped with it. "Several heartbeat messages lost" is one deadline,
//! `lapsed` with `summary_ttl_ms`: it declares a silent parent or child
//! dead here, and expires the server's replicas in [`crate::protocol`].
//! The tests kill servers (including the root) mid-run and assert the
//! tree re-converges to a valid hierarchy.

use crate::protocol::{send, RoadsServer, ServerMsg};
use crate::tree::{HierarchyTree, ServerId};
use roads_netsim::{Ctx, NodeId, Simulator};
use roads_summary::Summary;
use roads_telemetry::EventKind;
use std::collections::BTreeMap;

/// What a server knows of one child, dropped together when the child goes.
#[derive(Debug, Clone)]
struct ChildInfo {
    last_heard_ms: u64,
    /// Height of the child's subtree, for the join walk.
    branch_depth: u32,
    /// Descendant count of the child, for the join walk.
    descendants: u32,
    /// The child's branch summary, from its latest heartbeat reply.
    summary: Option<Summary>,
}

impl ChildInfo {
    fn new(now_ms: u64) -> Self {
        ChildInfo {
            last_heard_ms: now_ms,
            branch_depth: 0,
            descendants: 0,
            summary: None,
        }
    }
}

/// A peer last heard at `heard_ms` is presumed dead once `ttl_ms` passes
/// without news: the one deadline for parents, children and replicas.
pub(crate) fn lapsed(heard_ms: u64, now_ms: u64, ttl_ms: u64) -> bool {
    now_ms.saturating_sub(heard_ms) >= ttl_ms
}

/// Membership state of one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MemberState {
    /// Attached (or the root).
    Joined,
    /// Walking the join protocol, currently probing the contained server.
    Joining(NodeId),
    /// Crashed (injected by tests); ignores and sends nothing.
    Down,
}

/// One server's place in the hierarchy and the rules that keep it.
#[derive(Debug, Clone)]
pub(crate) struct Membership {
    state: MemberState,
    parent: Option<NodeId>,
    children: BTreeMap<NodeId, ChildInfo>,
    /// Root path including self (root … self).
    root_path: Vec<NodeId>,
    /// Last time the parent was heard (ms).
    parent_heard_ms: u64,
    /// The root's children, piggybacked on heartbeats.
    root_children: Vec<NodeId>,
    /// Rejoin escalation: how many levels above the grandparent the next
    /// attempt starts.
    rejoin_level: usize,
    /// While self-elected root: probation deadline (ms) during which we
    /// probe `merge_candidates` to detect a surviving hierarchy.
    probation_until_ms: u64,
    /// Former siblings to probe for hierarchy merging.
    merge_candidates: Vec<NodeId>,
    /// Update-round epoch: the root bumps it once per heartbeat tick and
    /// every descendant adopts the value piggybacked on its parent's
    /// heartbeat.
    epoch: u64,
}

impl Membership {
    /// Joined with root path `root_path` (root … self) and `children`.
    pub(crate) fn joined(
        root_path: Vec<NodeId>,
        children: Vec<NodeId>,
        root_children: Vec<NodeId>,
    ) -> Self {
        Membership {
            state: MemberState::Joined,
            parent: root_path.iter().rev().nth(1).copied(),
            children: children
                .into_iter()
                .map(|c| (c, ChildInfo::new(0)))
                .collect(),
            root_path,
            parent_heard_ms: 0,
            root_children,
            rejoin_level: 0,
            probation_until_ms: 0,
            merge_candidates: Vec::new(),
            epoch: 0,
        }
    }

    /// About to join through `entry`, knowing nothing of the hierarchy.
    pub(crate) fn joining(entry: NodeId) -> Self {
        Membership {
            state: MemberState::Joining(entry),
            ..Self::joined(Vec::new(), Vec::new(), Vec::new())
        }
    }

    /// Current parent.
    pub(crate) fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Current children, in id order.
    pub(crate) fn children(&self) -> Vec<NodeId> {
        self.children.keys().copied().collect()
    }

    /// Membership state.
    pub(crate) fn state(&self) -> &MemberState {
        &self.state
    }

    /// True when this server currently believes it is the root.
    fn is_root(&self) -> bool {
        self.state == MemberState::Joined && self.parent.is_none()
    }

    pub(crate) fn crash(&mut self) {
        self.state = MemberState::Down;
        self.parent = None;
        self.children.clear();
    }

    /// The children heard within `ttl_ms` whose branch summary has
    /// arrived, in id order, each with the time its last reply came.
    pub(crate) fn fresh_children(
        &self,
        now_ms: u64,
        ttl_ms: u64,
    ) -> impl Iterator<Item = (NodeId, u64, &Summary)> {
        (self.children.iter())
            .filter(move |(_, c)| !lapsed(c.last_heard_ms, now_ms, ttl_ms))
            .filter_map(|(id, c)| Some((*id, c.last_heard_ms, c.summary.as_ref()?)))
    }

    /// Drop the children not heard within `ttl_ms`; returns how many went.
    pub(crate) fn expire_children(&mut self, now_ms: u64, ttl_ms: u64) -> usize {
        let before = self.children.len();
        (self.children).retain(|_, c| !lapsed(c.last_heard_ms, now_ms, ttl_ms));
        before - self.children.len()
    }

    /// `(branch depth, descendants)` of this server's subtree, as its
    /// children last reported theirs.
    pub(crate) fn branch_shape(&self) -> (u32, u32) {
        let depth = self.children.values().map(|c| c.branch_depth + 1).max();
        let descendants = self.children.values().map(|c| c.descendants + 1).sum();
        (depth.unwrap_or(0), descendants)
    }

    /// The join walk's choice among children: least branch depth, then
    /// least descendants.
    fn best_child(&self) -> Option<NodeId> {
        self.children
            .iter()
            .min_by_key(|(id, c)| (c.branch_depth, c.descendants, **id))
            .map(|(id, _)| *id)
    }

    /// What a heartbeat to the children carries of the hierarchy: the
    /// root path, the root's children and the epoch, which the root bumps
    /// here, once per tick. `None` unless joined.
    pub(crate) fn heartbeat(&mut self) -> Option<(Vec<NodeId>, Vec<NodeId>, u64)> {
        if self.state != MemberState::Joined {
            return None;
        }
        let root_children = if self.is_root() {
            // One update round per heartbeat tick: the root owns the clock.
            self.epoch += 1;
            self.children()
        } else {
            self.root_children.clone()
        };
        Some((self.root_path.clone(), root_children, self.epoch))
    }

    /// A heartbeat from `from` arrived. Returns whether `from` is (now)
    /// our parent, whose heartbeat is answered and whose replicas are kept.
    pub(crate) fn on_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_, ServerMsg>,
        from: NodeId,
        mut root_path: Vec<NodeId>,
        root_children: Vec<NodeId>,
        epoch: u64,
        now_ms: u64,
    ) -> bool {
        let me = ctx.self_id();
        if self.parent != Some(from) {
            if self.is_root() && root_path.first().is_some_and(|&their_root| their_root < me) {
                // Split-brain merge: the sender still lists us as its
                // child, so a competing hierarchy exists (we declared
                // ourselves root after falsely suspecting a slow parent).
                // Deterministic rule: the hierarchy whose root has the
                // smaller id wins; we re-adopt the sender as parent, which
                // heals the partition in one heartbeat.
                self.parent = Some(from);
                self.rejoin_level = 0;
            } else {
                if self.is_root() || self.parent.is_some() {
                    // Our id wins, or a stale parent still lists us: make
                    // it drop the entry so exactly one parent claims each
                    // server; its subtree finds us by its own recovery.
                    send(ctx, from, ServerMsg::Leave);
                }
                return false;
            }
        }
        self.parent_heard_ms = now_ms;
        root_path.push(me);
        self.root_path = root_path;
        self.root_children = root_children;
        // Epochs only move forward; a heartbeat overtaken by a newer one
        // in flight must not rewind the clock.
        self.epoch = self.epoch.max(epoch);
        true
    }

    /// A child's heartbeat reply arrived; returns whether `from` is a
    /// child, whose report is kept.
    pub(crate) fn on_reply(
        &mut self,
        from: NodeId,
        branch_depth: u32,
        descendants: u32,
        summary: Summary,
        now_ms: u64,
    ) -> bool {
        let Some(info) = self.children.get_mut(&from) else {
            return false;
        };
        *info = ChildInfo {
            last_heard_ms: now_ms,
            branch_depth,
            descendants,
            summary: Some(summary),
        };
        true
    }

    pub(crate) fn on_join_probe(
        &mut self,
        ctx: &mut Ctx<'_, ServerMsg>,
        from: NodeId,
        prober_root: Option<NodeId>,
        max_children: usize,
        now_ms: u64,
    ) {
        if self.state != MemberState::Joined {
            // Not in a position to accept; the prober escalates by timeout.
            return;
        }
        if let Some(their_root) = prober_root {
            // Hierarchy merge: accept a whole competing tree only when OUR
            // root has the smaller id (the deterministic tiebreak that
            // prevents mutual adoption cycles).
            let my_root = self.root_path.first().copied().unwrap_or(ctx.self_id());
            if my_root >= their_root {
                return;
            }
        }
        // Loop avoidance: never accept someone already on our root path.
        if self.root_path.contains(&from) {
            if let Some(next) = self.best_child() {
                send(ctx, from, ServerMsg::JoinRedirect { next });
            }
            return;
        }
        if self.children.len() < max_children {
            self.children.entry(from).or_insert(ChildInfo::new(now_ms));
            let root_path = self.root_path.clone();
            send(ctx, from, ServerMsg::JoinAccept { root_path });
        } else if let Some(next) = self.best_child() {
            // Optimistically assume the prober lands in that branch, so
            // back-to-back probes between heartbeat refreshes spread across
            // children instead of funneling into one. The next real
            // heartbeat reply corrects it.
            if let Some(info) = self.children.get_mut(&next) {
                info.descendants += 1;
                info.branch_depth = info.branch_depth.max(1);
            }
            send(ctx, from, ServerMsg::JoinRedirect { next });
        }
    }

    pub(crate) fn on_join_accept(
        &mut self,
        ctx: &mut Ctx<'_, ServerMsg>,
        from: NodeId,
        mut root_path: Vec<NodeId>,
        now_ms: u64,
    ) {
        let on_probation = self.is_root() && now_ms < self.probation_until_ms;
        if matches!(self.state, MemberState::Joining(_)) || on_probation {
            // A probation merge re-attaches this whole subtree under the
            // surviving hierarchy.
            self.children.remove(&from);
            self.parent = Some(from);
            self.parent_heard_ms = now_ms;
            root_path.push(ctx.self_id());
            self.root_path = root_path;
            self.state = MemberState::Joined;
            self.rejoin_level = 0;
            self.probation_until_ms = 0;
            self.merge_candidates.clear();
            ctx.record(EventKind::ChurnJoin, from.0 as u64);
        }
    }

    pub(crate) fn on_join_redirect(&mut self, ctx: &mut Ctx<'_, ServerMsg>, next: NodeId) {
        if matches!(self.state, MemberState::Joining(_)) && next != ctx.self_id() {
            self.probe(ctx, next);
        }
    }

    pub(crate) fn on_leave(
        &mut self,
        ctx: &mut Ctx<'_, ServerMsg>,
        from: NodeId,
        now_ms: u64,
        ttl_ms: u64,
    ) {
        ctx.record(EventKind::ChurnLeave, from.0 as u64);
        if self.parent != Some(from) {
            self.children.remove(&from);
            return;
        }
        // Parent left gracefully: rejoin immediately from the grandparent
        // (last element of the path above the parent).
        self.parent = None;
        let me = ctx.self_id();
        let entry = (self.root_path.iter().copied()).rfind(|&x| x != me && x != from);
        if let Some(e) = entry {
            self.probe(ctx, e);
        } else if let Some(&new_root) = self.root_children.iter().filter(|&&c| c != from).min() {
            if new_root == me {
                self.become_root_on_probation(me, now_ms, ttl_ms);
            } else {
                self.probe(ctx, new_root);
            }
        }
    }

    /// Walk the join protocol from `entry`.
    fn probe(&mut self, ctx: &mut Ctx<'_, ServerMsg>, entry: NodeId) {
        self.state = MemberState::Joining(entry);
        send(ctx, entry, ServerMsg::JoinProbe { prober_root: None });
    }

    /// The periodic half after the heartbeat: detect a dead parent,
    /// probe for a surviving hierarchy while on probation, and re-probe
    /// while joining.
    pub(crate) fn tick(&mut self, ctx: &mut Ctx<'_, ServerMsg>, now_ms: u64, ttl_ms: u64) {
        let me = ctx.self_id();
        match self.state {
            MemberState::Joined => {
                self.check_parent(ctx, now_ms, ttl_ms);
                // Probation probing: a self-elected root looks for a
                // surviving hierarchy among its former siblings.
                if self.is_root() && now_ms < self.probation_until_ms {
                    for &cand in &self.merge_candidates {
                        if cand != me && !self.children.contains_key(&cand) {
                            let msg = ServerMsg::JoinProbe {
                                prober_root: Some(me),
                            };
                            send(ctx, cand, msg);
                        }
                    }
                }
            }
            MemberState::Joining(entry) => {
                // Re-probe (handles lost/ignored probes and dead entries by
                // escalating toward the root).
                let fallback = (self.root_path.first().copied())
                    .filter(|&r| r != me && r != entry)
                    .or_else(|| {
                        (self.root_children.iter().copied())
                            .filter(|&c| c != me && c != entry)
                            .min()
                    });
                self.probe(ctx, fallback.unwrap_or(entry));
            }
            MemberState::Down => {}
        }
    }

    fn check_parent(&mut self, ctx: &mut Ctx<'_, ServerMsg>, now_ms: u64, ttl_ms: u64) {
        let Some(parent) = self.parent else { return };
        if !lapsed(self.parent_heard_ms, now_ms, ttl_ms) {
            return;
        }
        // Parent presumed failed: rejoin starting from the grandparent,
        // escalating one level per retry, eventually the (new) root.
        self.parent = None;
        let me = ctx.self_id();
        // root_path = [root, …, grandparent, parent, me]
        let above_parent: Vec<NodeId> = (self.root_path.iter().copied())
            .filter(|&x| x != me && x != parent)
            .collect();
        let entry = if above_parent.is_empty() {
            // We were a root child: elect among the root's children.
            let new_root = (self.root_children.iter().copied())
                .filter(|&c| c != parent)
                .min();
            match new_root {
                Some(new_root) if new_root != me => new_root,
                // I am the elected root, or know no siblings. Enter
                // probation: if the old root was only slow (false
                // suspicion), probing our former siblings merges us back
                // into its hierarchy.
                _ => return self.become_root_on_probation(me, now_ms, ttl_ms),
            }
        } else {
            // Grandparent first, then one level up per escalation.
            let idx = above_parent.len().saturating_sub(1 + self.rejoin_level);
            above_parent[idx]
        };
        self.rejoin_level += 1;
        self.probe(ctx, entry);
    }

    /// Become root after (possibly false) parent-failure suspicion:
    /// functional immediately, but on probation — we keep probing former
    /// siblings so a surviving hierarchy absorbs us.
    fn become_root_on_probation(&mut self, me: NodeId, now_ms: u64, ttl_ms: u64) {
        self.state = MemberState::Joined;
        self.root_path = vec![me];
        self.rejoin_level = 0;
        self.probation_until_ms = now_ms + 5 * ttl_ms;
        self.merge_candidates = (self.root_children.iter().copied())
            .filter(|&c| c != me)
            .collect();
    }
}

/// Extract the converged hierarchy from a federation; fails if parent/child
/// views disagree or the structure is invalid.
pub fn extract_tree(sim: &Simulator<RoadsServer>) -> Result<HierarchyTree, String> {
    let n = sim.len();
    let mut root = None;
    for (id, node) in sim.nodes() {
        if node.member().is_root() {
            if let Some(r) = root {
                return Err(format!("two roots: {r} and {id}"));
            }
            root = Some(id);
        }
    }
    let root = root.ok_or("no root")?;
    let mut tree = HierarchyTree::new(n, ServerId(root.0));
    // Attach in BFS order from the root using the *parents'* child lists,
    // cross-checked against the children's parent pointers.
    let mut queue = std::collections::VecDeque::from([root]);
    while let Some(p) = queue.pop_front() {
        for c in sim.node(p).member().children() {
            let child = sim.node(c).member();
            if child.state() == &MemberState::Down {
                return Err(format!("{p} lists crashed child {c}"));
            }
            if child.parent() != Some(p) {
                return Err(format!(
                    "{p} lists child {c}, but {c}'s parent is {:?}",
                    child.parent()
                ));
            }
            tree.attach(ServerId(c.0), ServerId(p.0))
                .map_err(|e| e.to_string())?;
            queue.push_back(c);
        }
    }
    tree.validate()?;
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use crate::protocol::build_simulation;
    use roads_netsim::{DelaySpace, SimTime, TrafficClass};
    use roads_records::{wire::MSG_HEADER_BYTES, Schema};

    /// `n` servers without records, server 0 the root and every other
    /// joining through it: a heartbeat a second, a peer silent for three
    /// presumed dead, at most four children.
    fn build(n: usize) -> Simulator<RoadsServer> {
        let cfg = RoadsConfig {
            max_children: 4,
            ts_ms: 1_000,
            summary_ttl_ms: 3_000,
            ..RoadsConfig::paper_default()
        };
        let start = HierarchyTree::new(n, ServerId(0));
        let schema = Schema::unit_numeric(1);
        build_simulation(
            cfg,
            schema,
            vec![Vec::new(); n],
            &start,
            DelaySpace::paper(n, 5),
        )
    }

    fn run_sim(n: usize, until_ms: u64) -> Simulator<RoadsServer> {
        let mut sim = build(n);
        sim.run_until(SimTime::from_millis(until_ms));
        sim
    }

    fn joined_count(sim: &Simulator<RoadsServer>) -> usize {
        sim.nodes()
            .filter(|(_, n)| n.member().state() == &MemberState::Joined)
            .count()
    }

    #[test]
    fn all_nodes_join() {
        let sim = run_sim(20, 30_000);
        assert_eq!(joined_count(&sim), 20);
        let tree = extract_tree(&sim).unwrap();
        assert_eq!(tree.len(), 20);
        for s in tree.servers() {
            assert!(tree.children(s).len() <= 4);
        }
    }

    #[test]
    fn tree_reasonably_balanced() {
        let sim = run_sim(40, 60_000);
        let tree = extract_tree(&sim).unwrap();
        assert_eq!(tree.len(), 40);
        // 4-ary tree over 40 nodes: optimal 3 levels (1+4+16+19). The live
        // protocol joins against information that is up to one heartbeat
        // stale (and wide-area delays defer corrections), so allow two
        // extra levels — still far from the degenerate chains a random or
        // greedy-first policy produces (see fig_ablation_join).
        assert!(tree.levels() <= 5, "levels={}", tree.levels());
    }

    #[test]
    fn child_failure_removes_state_and_orphans_rejoin() {
        let mut sim = run_sim(20, 30_000);
        let tree = extract_tree(&sim).unwrap();
        // Kill an internal (non-root) node with children.
        let victim = tree
            .servers()
            .into_iter()
            .find(|&s| s != tree.root() && !tree.children(s).is_empty())
            .expect("an internal node exists");
        let victim_children = tree.children(victim).len();
        assert!(victim_children > 0);
        sim.node_mut(NodeId(victim.0)).crash();
        sim.run_until(SimTime::from_millis(90_000));
        let after = extract_tree(&sim).unwrap();
        assert_eq!(after.len(), 19, "everyone but the victim is joined");
        assert!(!after.contains(victim));
    }

    #[test]
    fn root_failure_triggers_election() {
        let mut sim = run_sim(20, 30_000);
        let before = extract_tree(&sim).unwrap();
        let old_root = before.root();
        sim.node_mut(NodeId(old_root.0)).crash();
        sim.run_until(SimTime::from_millis(120_000));
        let after = extract_tree(&sim).unwrap();
        assert_ne!(after.root(), old_root);
        assert_eq!(after.len(), 19);
        // Election rule: smallest id among the old root's children.
        let expected = before.children(old_root).iter().min().copied().unwrap();
        assert_eq!(after.root(), expected);
    }

    #[test]
    fn graceful_leave_reattaches_children() {
        let mut sim = run_sim(20, 30_000);
        let tree = extract_tree(&sim).unwrap();
        let victim = tree
            .servers()
            .into_iter()
            .find(|&s| s != tree.root() && !tree.children(s).is_empty())
            .expect("an internal node exists");
        // Graceful leave: notify parent and children, then go down.
        let parent = tree.parent(victim).unwrap();
        let children = tree.children(victim).to_vec();
        let now = sim.now();
        sim.inject(
            now,
            NodeId(victim.0),
            NodeId(parent.0),
            ServerMsg::Leave,
            MSG_HEADER_BYTES,
            TrafficClass::Maintenance,
        );
        for c in &children {
            sim.inject(
                now,
                NodeId(victim.0),
                NodeId(c.0),
                ServerMsg::Leave,
                MSG_HEADER_BYTES,
                TrafficClass::Maintenance,
            );
        }
        sim.node_mut(NodeId(victim.0)).crash();
        sim.run_until(SimTime::from_millis(90_000));
        let after = extract_tree(&sim).unwrap();
        assert_eq!(after.len(), 19);
    }

    #[test]
    fn protocol_survives_moderate_message_loss() {
        // Periodic heartbeats, re-probes and probation merges make the
        // protocol self-healing under loss. With 10% of messages silently
        // dropped, any individual snapshot may catch a node mid-recovery
        // (a parent just expired a child whose replies were lost), so the
        // property to assert is *healing*: after the lossy phase ends, the
        // federation must fully reconverge within a few heartbeats.
        let mut sim = build(20);
        sim.set_message_loss(0.10, 1234);
        sim.run_until(SimTime::from_millis(120_000));
        assert!(sim.messages_dropped() > 0, "loss model must be active");
        // Even during loss the vast majority of the federation is joined.
        assert!(joined_count(&sim) >= 18, "joined: {}", joined_count(&sim));
        // Loss stops (or: no loss event happens to hit the recovering
        // node); convergence must complete.
        sim.set_message_loss(0.0, 0);
        sim.run_until(SimTime::from_millis(140_000));
        assert_eq!(joined_count(&sim), 20);
        let tree = extract_tree(&sim).unwrap();
        assert_eq!(tree.len(), 20);
    }

    #[test]
    fn epoch_propagates_down_the_tree() {
        let sim = run_sim(20, 30_000);
        let tree = extract_tree(&sim).unwrap();
        let root_epoch = sim.node(NodeId(tree.root().0)).member().epoch;
        // 30s of 1s heartbeats: the root has ticked ~30 rounds.
        assert!(root_epoch >= 20, "root epoch {root_epoch}");
        for (id, node) in sim.nodes().map(|(id, n)| (id, n.member())) {
            if node.state() != &MemberState::Joined {
                continue;
            }
            let depth = tree.depth(ServerId(id.0)) as u64;
            // Each level adds one heartbeat of propagation lag; allow one
            // extra tick of in-flight slack.
            assert!(
                node.epoch + depth + 1 >= root_epoch && node.epoch <= root_epoch,
                "node {id} at depth {depth}: epoch {} vs root {root_epoch}",
                node.epoch
            );
        }
    }

    #[test]
    fn maintenance_traffic_accounted() {
        let sim = run_sim(10, 20_000);
        assert!(sim.stats().bytes(TrafficClass::Maintenance) > 0);
        assert_eq!(sim.stats().bytes(TrafficClass::Query), 0);
    }
}
