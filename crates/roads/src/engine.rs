//! A converged ROADS network: servers, records, aggregated summaries.
//!
//! [`RoadsNetwork`] materializes the steady state the protocol converges to
//! after joins and aggregation rounds complete: every server holds its local
//! summary, its children's branch summaries, and the replication overlay is
//! fresh. Query execution ([`crate::queryexec`]) and update accounting
//! ([`crate::updates`]) both run against this view; the message-driven
//! version of the same state is [`crate::protocol::RoadsServer`].

use crate::config::RoadsConfig;
use crate::overlay::{replication_set, ReplicationSet};
use crate::queryexec::SearchScope;
use crate::store::{DeltaOutcome, RecordChange, RecordDelta, ServerStore};
use crate::tree::{HierarchyTree, ServerId};
use roads_records::{Query, Record, Schema, WireSize};
use roads_summary::Summary;

/// Execution options for [`RoadsNetwork`] construction.
///
/// Every build stage — per-server local summaries, bottom-up branch
/// aggregation, replica-set materialization — is embarrassingly parallel
/// within itself: summaries of different servers are independent, servers
/// at the same tree depth aggregate disjoint child sets, and replica sets
/// only read the (immutable) hierarchy. `threads = 1` runs the stages
/// sequentially and is the default; any higher count fans each stage out
/// over a [`std::thread::scope`]. The result is **identical at every
/// thread count**: work is partitioned by server index and merge order
/// within a parent follows [`HierarchyTree::children`] order, independent
/// of the partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads per build stage (clamped to ≥ 1).
    pub threads: usize,
}

impl BuildOptions {
    /// The sequential build (`threads = 1`).
    pub fn sequential() -> Self {
        BuildOptions { threads: 1 }
    }

    /// One worker per available hardware thread.
    pub fn parallel() -> Self {
        BuildOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// An explicit thread count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        BuildOptions {
            threads: threads.max(1),
        }
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::sequential()
    }
}

/// Compute `f(i)` for every `i` in `0..n`, fanned out over `threads`
/// scoped workers, results in index order. `threads <= 1` runs inline.
/// Work is split into contiguous index chunks, so two invocations with
/// different thread counts call `f` on exactly the same inputs.
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|s| {
        for (ci, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = ci * chunk;
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(base + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|t| t.expect("every chunk fills its slots"))
        .collect()
}

/// The branch summary of `s`: its `local` summary aggregated with its
/// children's entries of `branch`, which must be current. Children merge
/// in `children()` order, so a build at any thread count and a delta's
/// re-aggregation produce the same summary byte for byte.
fn aggregate_branch(
    tree: &HierarchyTree,
    local: &Summary,
    branch: &[Summary],
    s: ServerId,
) -> Summary {
    let children = tree.children(s).iter().map(|c| (c.0, &branch[c.index()]));
    branch_summary_of(s.0, tree.parent(s).is_none(), local, children)
}

/// The branch summary of server `id` from its `local` summary and its
/// children's branch summaries, in child order — the one rule a build, a
/// delta, the message plane and its copy audit aggregate a branch by:
/// [`Summary::branch_of`], except that the `root`'s keeps no parts. No one
/// would test them: the root has no parent and no sibling, and its
/// descendants read it as an ancestor, which is shipped without parts.
pub(crate) fn branch_summary_of<'a>(
    id: u32,
    root: bool,
    local: &Summary,
    children: impl IntoIterator<Item = (u32, &'a Summary)>,
) -> Summary {
    let branch = match root {
        true => {
            let mut branch = local.without_parts();
            (children.into_iter())
                .try_for_each(|(_, child)| branch.merge(child))
                .map(|()| branch)
        }
        false => Summary::branch_of(id, local, children),
    };
    branch.expect("uniform schema/config across the federation")
}

/// Result of evaluating a query at one server.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// The server's own attached records may match (search them locally).
    pub local_match: bool,
    /// Children whose branch summaries match (continue down the branch).
    pub child_targets: Vec<ServerId>,
    /// Branches reached by overlay shortcut (populated only when
    /// evaluating at a query's entry server): each replicated branch that
    /// may match and kept no parts, and the children whose parts admit
    /// the query of each one that did — one redirect level skipped.
    pub replica_targets: Vec<ServerId>,
    /// Servers probed for their own records only (populated only at the
    /// entry server): the ancestors whose local summary may match, then
    /// the owners of expanded replicated branches whose own part does.
    /// Sibling and ancestor-sibling branches cover the whole hierarchy
    /// except the ancestors' own attached records, and the entry can tell
    /// those apart from the summaries it replicates (see
    /// [`RoadsNetwork::evaluate`]).
    pub ancestor_targets: Vec<ServerId>,
}

/// How a contacted server treats the query — the redirect protocol's one
/// vocabulary, spoken by the simulator's executor and the live cluster
/// alike ([`RoadsNetwork::route`] is the rule both run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactMode {
    /// Entry server: children + overlay shortcuts + ancestor probes.
    Entry,
    /// Branch server: local data + children.
    Branch,
    /// Ancestor probe: local data only.
    LocalOnly,
    /// Overlay stand-in for a crashed server: forward to `dead`'s children
    /// using its replicated branch summary, no local search here.
    Failover {
        /// The unreachable server being routed around.
        dead: ServerId,
    },
}

/// The converged federation: hierarchy + per-server record stores +
/// aggregated summaries + replication overlay.
#[derive(Debug, Clone)]
pub struct RoadsNetwork {
    schema: Schema,
    config: RoadsConfig,
    tree: HierarchyTree,
    /// Record store of each server (the server is its owners' attachment
    /// point): its table plus the exact summary of its rows — the
    /// server's local summary.
    stores: Vec<ServerStore>,
    /// Branch summary of each server: local + all descendant branches.
    branch_summary: Vec<Summary>,
    /// Replication set of each server (indices into `branch_summary`).
    replicas: Vec<ReplicationSet>,
}

impl RoadsNetwork {
    /// Build a converged network: form the hierarchy over
    /// `records_per_server.len()` servers (joining in id order), compute
    /// local summaries, aggregate bottom-up, and materialize the overlay.
    pub fn build(
        schema: Schema,
        config: RoadsConfig,
        records_per_server: Vec<Vec<Record>>,
    ) -> Self {
        Self::build_with(schema, config, records_per_server, BuildOptions::default())
    }

    /// [`RoadsNetwork::build`] with explicit [`BuildOptions`] (thread
    /// count). The hierarchy join walk itself is inherently sequential
    /// (each join depends on the balance state the previous one left);
    /// every later stage fans out per `opts`.
    pub fn build_with(
        schema: Schema,
        config: RoadsConfig,
        records_per_server: Vec<Vec<Record>>,
        opts: BuildOptions,
    ) -> Self {
        let n = records_per_server.len();
        assert!(n > 0, "a federation needs at least one server");
        let tree = HierarchyTree::build(n, config.max_children);
        Self::with_tree_opts(schema, config, tree, records_per_server, opts)
    }

    /// Build over an existing hierarchy (e.g. one produced by the live
    /// maintenance protocol, or a custom topology).
    pub fn with_tree(
        schema: Schema,
        config: RoadsConfig,
        tree: HierarchyTree,
        records_per_server: Vec<Vec<Record>>,
    ) -> Self {
        Self::with_tree_opts(
            schema,
            config,
            tree,
            records_per_server,
            BuildOptions::default(),
        )
    }

    /// [`RoadsNetwork::with_tree`] with explicit [`BuildOptions`].
    pub fn with_tree_opts(
        schema: Schema,
        config: RoadsConfig,
        tree: HierarchyTree,
        records_per_server: Vec<Vec<Record>>,
        opts: BuildOptions,
    ) -> Self {
        let n = records_per_server.len();
        assert_eq!(tree.capacity(), n, "one record set per server");
        let threads = opts.threads.max(1);

        // Stage 1: every server's store (its table and, with it, its local
        // summary) is independent of the others'. Record sets are moved
        // into the workers through per-server mutexes — each is taken
        // exactly once, so there is no contention.
        let sets: Vec<std::sync::Mutex<Vec<Record>>> = records_per_server
            .into_iter()
            .map(std::sync::Mutex::new)
            .collect();
        let stores: Vec<ServerStore> = par_map(n, threads, |i| {
            let records = std::mem::take(&mut *sets[i].lock().expect("record handoff"));
            ServerStore::new(&schema, &config.summary, records)
        });

        // Stage 2: bottom-up aggregation, synchronized level by level.
        // Children of a depth-d server all sit at depth d+1, so once a
        // level is final every parent one level up aggregates a disjoint,
        // fully-computed child set — parents within a level are
        // independent. Merge order within a parent is its `children()`
        // order, so the result is identical at any thread count.
        let mut by_depth: Vec<Vec<ServerId>> = Vec::new();
        for s in tree.servers() {
            let d = tree.depth(s);
            if by_depth.len() <= d {
                by_depth.resize(d + 1, Vec::new());
            }
            by_depth[d].push(s);
        }
        let mut branch_summary: Vec<Summary> =
            stores.iter().map(|store| store.summary().clone()).collect();
        for level in by_depth.iter().rev() {
            let parents: Vec<ServerId> = level
                .iter()
                .copied()
                .filter(|&s| !tree.children(s).is_empty())
                .collect();
            if parents.is_empty() {
                continue;
            }
            let merged: Vec<Summary> = par_map(parents.len(), threads, |i| {
                let p = parents[i];
                aggregate_branch(&tree, stores[p.index()].summary(), &branch_summary, p)
            });
            for (&p, s) in parents.iter().zip(merged) {
                branch_summary[p.index()] = s;
            }
        }

        // Stage 3: replica sets only read the immutable hierarchy.
        let replicas = par_map(n, threads, |i| replication_set(&tree, ServerId(i as u32)));

        RoadsNetwork {
            schema,
            config,
            tree,
            stores,
            branch_summary,
            replicas,
        }
    }

    /// The federation schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The shared configuration.
    pub fn config(&self) -> &RoadsConfig {
        &self.config
    }

    /// The hierarchy.
    pub fn tree(&self) -> &HierarchyTree {
        &self.tree
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when the federation has no servers.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The records attached at `s`, in the store's row order (handles
    /// sharing the stored values, not copies of them).
    pub fn records(&self, s: ServerId) -> Vec<Record> {
        self.stores[s.index()].table().records().to_vec()
    }

    /// The record store of `s`.
    pub fn store(&self, s: ServerId) -> &ServerStore {
        &self.stores[s.index()]
    }

    /// Summary of the records attached at `s`: the one its store keeps.
    pub fn local_summary(&self, s: ServerId) -> &Summary {
        self.stores[s.index()].summary()
    }

    /// Branch summary of `s` (local + descendants).
    pub fn branch_summary(&self, s: ServerId) -> &Summary {
        &self.branch_summary[s.index()]
    }

    /// Replication set of `s`.
    pub fn replica_set(&self, s: ServerId) -> &ReplicationSet {
        &self.replicas[s.index()]
    }

    /// The children of `s` whose branch summaries may match `query`.
    fn matching_children<'a>(
        &'a self,
        s: ServerId,
        query: &'a Query,
    ) -> impl Iterator<Item = ServerId> + 'a {
        let matches = move |c: &ServerId| self.branch_summary[c.index()].may_match(query);
        self.tree.children(s).iter().copied().filter(matches)
    }

    /// Evaluate `query` at server `s`.
    ///
    /// `entry` selects whether replicated summaries participate: at the
    /// query's entry server the overlay provides shortcuts to remote
    /// branches; at servers reached by redirection only the local data and
    /// children are searched (their branch is their responsibility).
    ///
    /// A replicated branch summary keeps parts per server below, each
    /// tagged with the summand it is reached through (§III-C's shortcut,
    /// taken one level further): the entry contacts the children some of
    /// whose parts admit the query directly, as branches, each once, and
    /// probes the branch's owner for its own records only if the owner's
    /// part admits it — the round trip the owner would have spent naming
    /// those children is skipped. A branch that kept no parts (a
    /// replicated leaf) is contacted as a branch.
    ///
    /// An ancestor is probed only if its *local* summary may match. Its
    /// branch summary would answer yes whenever the entry itself can (it
    /// contains the entry's branch), and the entry need not be shipped the
    /// local one: an ancestor's children are the next ancestor down (or
    /// the entry) and that one's siblings, whose branch summaries the
    /// entry replicates, and counting histograms subtract exactly —
    /// `local(a) = branch(a) − Σ branch(child of a)` ([`Summary::without`];
    /// `tests::an_ancestors_local_summary_is_its_branch_less_its_childrens`
    /// pins the identity, and [`crate::protocol`]'s tests check that the
    /// message plane's replicas are these branch summaries). The converged
    /// network reads the stored local summary, which is that difference —
    /// except that a value set or a Bloom filter cannot subtract and a
    /// deployment would keep the branch's, probing a superset of the
    /// ancestors probed here.
    pub fn evaluate(&self, s: ServerId, query: &Query, entry: bool) -> EvalResult {
        self.evaluate_within(s, query, entry, SearchScope::full())
    }

    /// [`RoadsNetwork::evaluate`] confined to `scope`, measured from `s`.
    /// The scope decides per replicated branch before it is expanded, so
    /// a branch and the contacts it expands into are kept or dropped
    /// together.
    fn evaluate_within(
        &self,
        s: ServerId,
        query: &Query,
        entry: bool,
        scope: SearchScope,
    ) -> EvalResult {
        let local_match = self.local_summary(s).may_match(query);
        let child_targets = self.matching_children(s, query).collect();
        let mut replica_targets = Vec::new();
        let mut ancestor_targets = Vec::new();
        if entry {
            let depth = self.tree.depth(s);
            let replicas = &self.replicas[s.index()];
            ancestor_targets.extend(replicas.ancestors.iter().copied().filter(|&a| {
                scope.admits_ancestor(depth, self.tree.depth(a))
                    && self.local_summary(a).may_match(query)
            }));
            // A replica target hangs one level *below* the ancestor it is
            // reached through, so the two kinds consume scope differently
            // (see `SearchScope`).
            for t in replicas.redirect_targets() {
                if !scope.admits_replica(depth, self.tree.depth(t)) {
                    continue;
                }
                let Some(tags) = self.branch_summary[t.index()].parts_holding(query) else {
                    continue;
                };
                if tags.is_empty() {
                    replica_targets.push(t);
                }
                for part in tags.into_iter().map(ServerId) {
                    if part == t {
                        ancestor_targets.push(t);
                    } else {
                        replica_targets.push(part);
                    }
                }
            }
        }
        EvalResult {
            local_match,
            child_targets,
            replica_targets,
            ancestor_targets,
        }
    }

    /// The protocol's per-server step (§III-C): what server `s`, contacted
    /// in `mode`, does with `query` — whether it searches its own records,
    /// and whom the query goes to next, each with the mode to contact it
    /// in. Children come first, then (at the entry) overlay shortcuts and
    /// servers probed for their own records, the last two confined to
    /// `scope` measured from `s`.
    pub fn route(
        &self,
        s: ServerId,
        query: &Query,
        mode: ContactMode,
        scope: SearchScope,
    ) -> (bool, Vec<(ServerId, ContactMode)>) {
        let branch = |t: ServerId| (t, ContactMode::Branch);
        match mode {
            ContactMode::LocalOnly => (true, Vec::new()),
            ContactMode::Branch => {
                let ev = self.evaluate(s, query, false);
                let children = ev.child_targets.into_iter();
                (ev.local_match, children.map(branch).collect())
            }
            ContactMode::Entry => {
                let ev = self.evaluate_within(s, query, true, scope);
                let probe = |a: ServerId| (a, ContactMode::LocalOnly);
                let targets = (ev.child_targets.into_iter().map(branch))
                    .chain(ev.replica_targets.into_iter().map(branch))
                    .chain(ev.ancestor_targets.into_iter().map(probe))
                    .collect();
                (ev.local_match, targets)
            }
            // Stand in for the crashed server using its branch summaries
            // replicated here (§III-C): forward to its matching children;
            // this helper's own data is queried separately.
            ContactMode::Failover { dead } => {
                let children = self.matching_children(dead, query);
                (false, children.map(branch).collect())
            }
        }
    }

    /// Search `s`'s locally attached records exactly.
    pub fn search_local(&self, s: ServerId, query: &Query) -> Vec<&Record> {
        #[cfg(test)]
        tests::LOCAL_SEARCHES.with(|n| n.set(n.get() + 1));
        self.stores[s.index()].table().search(query)
    }

    /// How many of `s`'s locally attached records match — the local search
    /// of a caller that needs no record (the simulated query path).
    pub fn count_local(&self, s: ServerId, query: &Query) -> usize {
        #[cfg(test)]
        tests::LOCAL_SEARCHES.with(|n| n.set(n.get() + 1));
        self.stores[s.index()].table().count(query)
    }

    /// Ground truth: every server whose local records contain a match.
    pub fn matching_servers(&self, query: &Query) -> Vec<ServerId> {
        (0..self.len() as u32)
            .map(ServerId)
            .filter(|&s| self.stores[s.index()].table().any_match(query))
            .collect()
    }

    /// Per-server storage in bytes: children's branch summaries + local
    /// summary + replicated summaries (Table I accounting).
    pub fn storage_bytes(&self, s: ServerId) -> usize {
        let children: usize = self
            .tree
            .children(s)
            .iter()
            .map(|c| self.branch_summary[c.index()].wire_size())
            .sum();
        let replicated: usize = self.replicas[s.index()]
            .all()
            .iter()
            .map(|t| self.branch_summary[t.index()].wire_size())
            .sum();
        children + replicated + self.local_summary(s).wire_size()
    }

    /// Worst per-server storage across the federation.
    pub fn max_storage_bytes(&self) -> usize {
        (0..self.len() as u32)
            .map(|s| self.storage_bytes(ServerId(s)))
            .max()
            .unwrap_or(0)
    }

    /// Apply a [`RecordDelta`] and propagate it incrementally: mutate the
    /// touched stores — each folds its changes into its local summary in
    /// place — and recompute branch summaries only along the dirty
    /// ancestor closure — O(changed subtrees · depth) summary merges
    /// instead of the O(n) full re-aggregation a rebuild performs. The
    /// resulting summaries are identical to a from-scratch build over the
    /// post-delta record sets (a store's summary is exact under mutation,
    /// and counter merges commute).
    ///
    /// Deltas are the one input that arrives from owners, so they are
    /// checked here, where they enter: a change naming a server this
    /// federation does not have, or carrying a payload whose arity is not
    /// the schema's, is counted in [`DeltaOutcome::rejected`] and touches
    /// nothing; the rest of the delta applies.
    pub fn apply(&mut self, delta: &RecordDelta) -> DeltaOutcome {
        let n = self.len();
        let arity = self.schema.len();
        let mut rejected = 0u64;
        // Route changes to their target stores, preserving arrival order.
        // Changes to one id always target one server, so per-server order
        // is the only order that is observable.
        let mut per_server: Vec<Vec<&RecordChange>> = vec![Vec::new(); n];
        for (server, change) in delta.changes() {
            let fits = change.record().is_none_or(|r| r.arity() == arity);
            if server.index() >= n || !fits {
                rejected += 1;
                continue;
            }
            // Touch the payload while routing: payloads were allocated in
            // delta order, so this pass streams them into cache and the
            // scattered per-store batches below read warm lines.
            if let Some(r) = change.record() {
                std::hint::black_box(r.values().first().map(std::mem::discriminant));
            }
            per_server[server.index()].push(change);
        }

        let mut dirty_flags = vec![false; n];
        let mut applied = 0u64;
        let mut shard_rebuilds = 0u64;
        let mut churned = Vec::new();
        for (i, changes) in per_server.iter().enumerate() {
            if changes.is_empty() {
                continue;
            }
            let effect = self.stores[i].apply_batch(changes);
            if effect.applied > 0 {
                dirty_flags[i] = true;
            }
            applied += effect.applied;
            rejected += effect.rejected;
            shard_rebuilds += effect.shard_rebuilds;
            churned.extend(effect.churned);
        }

        let dirty: Vec<ServerId> = dirty_flags
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| ServerId(i as u32))
            .collect();

        // Dirty ancestor closure: walking up stops at the first already-
        // marked ancestor, so the whole closure costs O(dirty · depth)
        // amortized even when dirty subtrees share ancestors.
        let mut branch_flags = vec![false; n];
        for &s in &dirty {
            let mut cur = s;
            while !branch_flags[cur.index()] {
                branch_flags[cur.index()] = true;
                match self.tree.parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        let mut dirty_branches: Vec<ServerId> = branch_flags
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| ServerId(i as u32))
            .collect();

        // Recompute deepest-first so every parent merges already-refreshed
        // children; merge order follows `children()` order, matching the
        // full build byte for byte.
        let mut by_depth = dirty_branches.clone();
        by_depth.sort_by_key(|&s| std::cmp::Reverse(self.tree.depth(s)));
        for &s in &by_depth {
            self.reaggregate_branch(s);
        }
        dirty_branches.sort_unstable();

        DeltaOutcome {
            dirty,
            dirty_branches,
            applied,
            rejected,
            shard_rebuilds,
            churned,
            schema: self.schema.clone(),
            summary_config: self.config.summary,
        }
    }

    /// Recompute the branch summary of `s` from its local summary and its
    /// children's branch summaries, which must be current.
    fn reaggregate_branch(&mut self, s: ServerId) {
        self.branch_summary[s.index()] =
            aggregate_branch(&self.tree, self.local_summary(s), &self.branch_summary, s);
    }

    /// Re-derive every summary from raw records: rebuild every local
    /// summary and re-aggregate every branch bottom-up. This is the
    /// non-incremental baseline ([`crate::updates::update_round_full`])
    /// and also clears histogram saturation accumulated by heavy churn.
    pub fn refresh_all_summaries(&mut self) {
        for store in &mut self.stores {
            store.rebuild_summary();
        }
        let mut order = self.tree.servers();
        order.sort_by_key(|&s| std::cmp::Reverse(self.tree.depth(s)));
        for s in order {
            self.reaggregate_branch(s);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Value};

    thread_local! {
        /// [`RoadsNetwork::search_local`] and [`RoadsNetwork::count_local`]
        /// calls made on this thread, counted in test builds only: lets
        /// tests pin "exactly one local search per contacted server" on
        /// the query path.
        pub(crate) static LOCAL_SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    use roads_summary::SummaryConfig;

    fn unit_record(schema: &Schema, id: u64, owner: u32, vals: &[f64]) -> Record {
        let _ = schema;
        Record::new_unchecked(
            RecordId(id),
            OwnerId(owner),
            vals.iter().map(|&v| Value::Float(v)).collect(),
        )
    }

    /// 7 servers, 2 attrs; server s holds one record at (s/10, 1 - s/10).
    fn small_network() -> RoadsNetwork {
        let schema = Schema::unit_numeric(2);
        let cfg = RoadsConfig {
            max_children: 2,
            summary: SummaryConfig::with_buckets(100),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..7)
            .map(|s| {
                vec![unit_record(
                    &schema,
                    s as u64,
                    s as u32,
                    &[s as f64 / 10.0, 1.0 - s as f64 / 10.0],
                )]
            })
            .collect();
        RoadsNetwork::build(schema, cfg, records)
    }

    #[test]
    fn branch_summaries_aggregate_counts() {
        let n = small_network();
        let root = n.tree().root();
        assert_eq!(n.branch_summary(root).record_count(), 7);
        for s in n.tree().servers() {
            let expected = 1 + n.tree().subtree(s).iter().filter(|&&c| c != s).count() as u64;
            assert_eq!(n.branch_summary(s).record_count(), expected);
        }
    }

    #[test]
    fn root_summary_matches_everything_any_leaf_holds() {
        let n = small_network();
        let schema = n.schema().clone();
        for s in 0..7u32 {
            let v = s as f64 / 10.0;
            let q = QueryBuilder::new(&schema, QueryId(s as u64))
                .range("x0", v - 0.01, v + 0.01)
                .build();
            assert!(
                n.branch_summary(n.tree().root()).may_match(&q),
                "root misses record of server {s}"
            );
        }
    }

    #[test]
    fn evaluation_prunes_non_matching_branches() {
        let n = small_network();
        let schema = n.schema().clone();
        // Only server 6 holds x0 = 0.6.
        let q = QueryBuilder::new(&schema, QueryId(9))
            .range("x0", 0.595, 0.605)
            .build();
        let ground_truth = n.matching_servers(&q);
        assert_eq!(ground_truth, vec![ServerId(6)]);

        // Walking the redirect structure from the root must reach server 6
        // and nothing outside summary-matching branches.
        let mut frontier = vec![n.tree().root()];
        let mut reached_matching = false;
        while let Some(s) = frontier.pop() {
            let ev = n.evaluate(s, &q, false);
            if ev.local_match && n.search_local(s, &q).len() == 1 {
                reached_matching = true;
            }
            frontier.extend(ev.child_targets);
        }
        assert!(reached_matching);
    }

    #[test]
    fn entry_evaluation_uses_overlay() {
        let n = small_network();
        let schema = n.schema().clone();
        // Start at a leaf; the match lives in a different branch.
        let leaf = *n.tree().leaves().iter().max().unwrap();
        let q = QueryBuilder::new(&schema, QueryId(1))
            .range("x0", 0.0, 0.01) // only server 0 (the root) holds 0.0
            .build();
        let ev = n.evaluate(leaf, &q, true);
        let gt = n.matching_servers(&q);
        assert_eq!(gt, vec![ServerId(0)]);
        // The match lives in the root's *local* records; from a leaf the
        // sibling/ancestor-sibling branches cannot reach it, so the entry
        // evaluation must nominate the root as a local-only ancestor probe.
        assert!(
            ev.ancestor_targets.contains(&ServerId(0)),
            "ancestor probe must cover matches attached at ancestors"
        );
    }

    #[test]
    fn without_entry_no_replica_targets() {
        let n = small_network();
        let schema = n.schema().clone();
        let q = QueryBuilder::new(&schema, QueryId(2))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *n.tree().leaves().first().unwrap();
        let ev = n.evaluate(leaf, &q, false);
        assert!(ev.replica_targets.is_empty());
    }

    /// A deeper federation than `small_network`: 40 servers, degree 3,
    /// one record each at s/40, so scopes have levels to cut.
    fn deep_network() -> RoadsNetwork {
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(100),
            ..RoadsConfig::paper_default()
        };
        let records = (0..40)
            .map(|s| vec![unit_record(&schema, s as u64, s as u32, &[s as f64 / 40.0])])
            .collect();
        RoadsNetwork::build(schema, cfg, records)
    }

    fn queries(n: &RoadsNetwork) -> Vec<Query> {
        [(0.0, 1.0), (0.2, 0.45), (0.61, 0.62), (2.0, 3.0)]
            .iter()
            .map(|&(lo, hi)| {
                QueryBuilder::new(n.schema(), QueryId(0))
                    .range("x0", lo, hi)
                    .build()
            })
            .collect()
    }

    #[test]
    fn route_is_evaluate_in_order_under_full_scope() {
        let n = deep_network();
        let full = SearchScope::full();
        let with = |ts: &[ServerId], mode| ts.iter().map(|&t| (t, mode)).collect::<Vec<_>>();
        for q in queries(&n) {
            for s in n.tree().servers() {
                let ev = n.evaluate(s, &q, true);
                let mut expect = with(&ev.child_targets, ContactMode::Branch);
                expect.extend(with(&ev.replica_targets, ContactMode::Branch));
                expect.extend(with(&ev.ancestor_targets, ContactMode::LocalOnly));
                assert_eq!(
                    n.route(s, &q, ContactMode::Entry, full),
                    (ev.local_match, expect)
                );

                let ev = n.evaluate(s, &q, false);
                assert_eq!(
                    n.route(s, &q, ContactMode::Branch, full),
                    (ev.local_match, with(&ev.child_targets, ContactMode::Branch))
                );
                // A probed ancestor searches whatever its summary says
                // and sends the query nowhere; scope is the entry's affair.
                for scope in [full, SearchScope::levels(0)] {
                    assert_eq!(
                        n.route(s, &q, ContactMode::LocalOnly, scope),
                        (true, Vec::new())
                    );
                    assert_eq!(
                        n.route(s, &q, ContactMode::Branch, scope),
                        n.route(s, &q, ContactMode::Branch, full)
                    );
                }
            }
        }
    }

    /// A replicated branch keeps boxes per server below, several of them
    /// tagged with one child: the entry's expansion still names each
    /// server once.
    #[test]
    fn the_entrys_route_names_each_server_once() {
        let n = deep_network();
        // Every server holds a record, so each child is one summand.
        let summands = |s: ServerId| 1 + n.tree().children(s).len();
        assert!(
            (n.tree().servers().into_iter())
                .any(|s| n.branch_summary(s).part_count() > summands(s)),
            "precondition: some child brings several boxes"
        );
        let all = Query::new(QueryId(0), Vec::new());
        for q in queries(&n).into_iter().chain([all.clone()]) {
            for s in n.tree().servers() {
                let (_, targets) = n.route(s, &q, ContactMode::Entry, SearchScope::full());
                let mut named: Vec<ServerId> = targets.iter().map(|&(t, _)| t).collect();
                named.sort();
                named.dedup();
                assert_eq!(named.len(), targets.len(), "{s}: {targets:?}");
            }
        }
    }

    #[test]
    fn route_scope_drops_exactly_what_the_scope_refuses() {
        let n = deep_network();
        let tree = n.tree();
        let (mut dropped, mut expanded) = (0, 0);
        for q in queries(&n) {
            for s in tree.servers() {
                let depth = tree.depth(s);
                let ev = n.evaluate(s, &q, true);
                let (local, full) = n.route(s, &q, ContactMode::Entry, SearchScope::full());
                // Which replicated branch a shortcut came from: itself, or
                // the branch it was expanded out of (its tree parent).
                let replicated = n.replica_set(s).redirect_targets();
                let branch_of = |t: ServerId| {
                    if replicated.contains(&t) {
                        t
                    } else {
                        tree.parent(t).expect("an expanded child has a parent")
                    }
                };
                expanded += (ev.replica_targets.iter())
                    .filter(|t| !replicated.contains(t))
                    .count();
                for levels in 0..=depth + 1 {
                    let scope = SearchScope::levels(levels);
                    // A branch and its expansion — its admitting children
                    // and its owner's probe — are kept or dropped together.
                    let keep = |&(t, mode): &(ServerId, ContactMode)| {
                        if ev.child_targets.contains(&t) {
                            true
                        } else if mode == ContactMode::LocalOnly && tree.on_root_path(t, s) {
                            scope.admits_ancestor(depth, tree.depth(t))
                        } else {
                            scope.admits_replica(depth, tree.depth(branch_of(t)))
                        }
                    };
                    let expect: Vec<_> = full.iter().copied().filter(keep).collect();
                    dropped += full.len() - expect.len();
                    assert_eq!(
                        n.route(s, &q, ContactMode::Entry, scope),
                        (local, expect),
                        "server {s}, levels {levels}"
                    );
                }
                // Past the root nothing is left to refuse.
                assert_eq!(
                    n.route(s, &q, ContactMode::Entry, SearchScope::levels(depth + 1))
                        .1,
                    full
                );
            }
        }
        assert!(dropped > 0, "some scope refused some target");
        assert!(expanded > 0, "some replicated branch was expanded");
    }

    #[test]
    fn route_failover_forwards_to_the_dead_servers_matching_children() {
        let n = deep_network();
        let tree = n.tree();
        let mut forwarded = 0;
        for q in queries(&n) {
            for dead in tree.servers() {
                let expect: Vec<_> = tree
                    .children(dead)
                    .iter()
                    .filter(|c| n.branch_summary(**c).may_match(&q))
                    .map(|&c| (c, ContactMode::Branch))
                    .collect();
                forwarded += expect.len();
                // Whoever stands in: the answer is about `dead`, and the
                // helper's own records are not searched on its behalf.
                for helper in n.replica_set(dead).failover_candidates() {
                    let mode = ContactMode::Failover { dead };
                    assert_eq!(
                        n.route(helper, &q, mode, SearchScope::full()),
                        (false, expect.clone())
                    );
                }
            }
        }
        assert!(forwarded > 0, "some dead server had a matching child");
    }

    #[test]
    fn storage_counts_children_replicas_local() {
        let n = small_network();
        for s in n.tree().servers() {
            let bytes = n.storage_bytes(s);
            assert!(bytes > 0);
        }
        assert!(n.max_storage_bytes() > 0);
    }

    #[test]
    fn attachments_fig1_semantics() {
        // Fig. 1: owners C, E host their own servers; owner D attaches to
        // a server provided by another party; servers 1 and 2 are pure
        // "server providers" with no records of their own.
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 2,
            summary: SummaryConfig::with_buckets(50),
            ..RoadsConfig::paper_default()
        };
        let rec = |id: u64, owner: u32, v: f64| {
            Record::new_unchecked(RecordId(id), OwnerId(owner), vec![Value::Float(v)])
        };
        let net = RoadsNetwork::build(
            schema.clone(),
            cfg,
            vec![
                Vec::new(),
                Vec::new(),
                // Owner D at B's server, and owner E sharing it.
                vec![rec(2, 101, 0.5), rec(3, 102, 0.6)],
                vec![rec(1, 100, 0.1)], // owner C at its own server
                vec![rec(4, 103, 0.9)],
            ],
        );
        assert!(net.records(ServerId(0)).is_empty(), "pure server provider");
        assert!(net.records(ServerId(1)).is_empty());

        // Discovery still reaches every owner's records from any entry.
        let delays = roads_netsim::DelaySpace::paper(5, 4);
        let q = roads_records::QueryBuilder::new(&schema, roads_records::QueryId(1))
            .range("x0", 0.45, 0.65)
            .build();
        let out = crate::queryexec::execute_query(
            &net,
            &delays,
            &q,
            ServerId(0),
            crate::queryexec::SearchScope::full(),
        );
        assert_eq!(out.matching_records, 2, "owners D and E both found");
        assert_eq!(out.matching_servers, vec![ServerId(2)]);
    }

    /// Everything a build computes, comparable across thread counts.
    fn fingerprint(n: &RoadsNetwork) -> Vec<(Summary, Summary, ReplicationSet, usize)> {
        n.tree()
            .servers()
            .iter()
            .map(|&s| {
                (
                    n.local_summary(s).clone(),
                    n.branch_summary(s).clone(),
                    n.replica_set(s).clone(),
                    n.storage_bytes(s),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_build_identical_to_sequential() {
        let schema = Schema::unit_numeric(3);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..23)
            .map(|s| {
                (0..4)
                    .map(|i| {
                        unit_record(
                            &schema,
                            (s * 4 + i) as u64,
                            s as u32,
                            &[
                                (s as f64) / 23.0,
                                (i as f64) / 4.0,
                                ((s + i) % 7) as f64 / 7.0,
                            ],
                        )
                    })
                    .collect()
            })
            .collect();
        let seq = RoadsNetwork::build_with(
            schema.clone(),
            cfg,
            records.clone(),
            BuildOptions::sequential(),
        );
        for threads in [2, 4, 64] {
            let par = RoadsNetwork::build_with(
                schema.clone(),
                cfg,
                records.clone(),
                BuildOptions::with_threads(threads),
            );
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "threads={threads} diverged from sequential build"
            );
        }
    }

    #[test]
    fn build_options_clamp_and_default() {
        assert_eq!(BuildOptions::default(), BuildOptions::sequential());
        assert_eq!(BuildOptions::with_threads(0).threads, 1);
        assert!(BuildOptions::parallel().threads >= 1);
    }

    #[test]
    fn apply_delta_matches_rebuild_and_touches_only_dirty_closure() {
        let mut net = small_network();
        let schema = net.schema().clone();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let mut delta = crate::store::RecordDelta::new();
        delta
            .insert(leaf, unit_record(&schema, 100, 50, &[0.42, 0.42]))
            .remove(ServerId(1), RecordId(1))
            .remove(ServerId(2), RecordId(999)); // absent → rejected
        let out = net.apply(&delta);
        assert_eq!(out.applied, 2);
        assert_eq!(out.rejected, 1);
        let mut expected_dirty = vec![ServerId(1), leaf];
        expected_dirty.sort();
        assert_eq!(out.dirty, expected_dirty);

        // The dirty branch closure is exactly the union of the dirty
        // servers' root paths.
        let mut closure: Vec<ServerId> = Vec::new();
        for &d in &out.dirty {
            let mut cur = d;
            loop {
                closure.push(cur);
                match net.tree().parent(cur) {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        closure.sort_unstable();
        closure.dedup();
        assert_eq!(out.dirty_branches, closure);

        // Every summary equals a from-scratch build over the final records.
        assert_equals_rebuild(&net);

        // The churn summary covers the inserted *and* the removed values.
        let inserted = QueryBuilder::new(&schema, QueryId(70))
            .range("x0", 0.41, 0.43)
            .build();
        let removed = QueryBuilder::new(&schema, QueryId(71))
            .range("x0", 0.09, 0.11)
            .build();
        let churn = out.churn_summary();
        assert!(churn.may_match(&inserted));
        assert!(churn.may_match(&removed));
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut net = small_network();
        let before = net.branch_summary(net.tree().root()).clone();
        let out = net.apply(&crate::store::RecordDelta::new());
        assert!(out.dirty.is_empty());
        assert!(out.dirty_branches.is_empty());
        assert_eq!(out.applied, 0);
        assert_eq!(net.branch_summary(net.tree().root()), &before);
    }

    /// Every summary of `net` equals a from-scratch build over its records.
    fn assert_equals_rebuild(net: &RoadsNetwork) {
        let records: Vec<Vec<Record>> = (0..net.len() as u32)
            .map(|s| net.records(ServerId(s)))
            .collect();
        let rebuilt = RoadsNetwork::build(net.schema().clone(), *net.config(), records);
        for s in net.tree().servers() {
            assert_eq!(net.local_summary(s), rebuilt.local_summary(s), "{s}");
            assert_eq!(net.branch_summary(s), rebuilt.branch_summary(s), "{s}");
        }
    }

    #[test]
    fn a_delta_naming_an_unknown_server_is_rejected_not_fatal() {
        // Regression: `apply` asserted `server < n`, so one stray change
        // from an owner panicked the whole network.
        let mut net = small_network();
        let schema = net.schema().clone();
        let untouched = net.clone();
        let mut delta = crate::store::RecordDelta::new();
        delta
            .insert(ServerId(7), unit_record(&schema, 100, 1, &[0.5, 0.5]))
            .remove(ServerId(u32::MAX), RecordId(0))
            .update(ServerId(99), unit_record(&schema, 3, 3, &[0.5, 0.5]));
        let out = net.apply(&delta);
        assert_eq!((out.applied, out.rejected), (0, 3));
        assert!(out.dirty.is_empty() && out.dirty_branches.is_empty());
        assert!(out.churned.is_empty(), "a rejected payload is not churn");
        for s in net.tree().servers() {
            assert_eq!(net.records(s), untouched.records(s));
            assert_eq!(net.branch_summary(s), untouched.branch_summary(s));
        }
    }

    #[test]
    fn a_payload_of_the_wrong_arity_is_rejected_and_the_rest_applies() {
        // Regression: a short payload was zipped short into the summaries
        // (a record nobody could find by its missing attributes); nothing
        // looked at a payload's arity.
        let mut net = small_network();
        let schema = net.schema().clone();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let mut delta = crate::store::RecordDelta::new();
        delta
            .insert(leaf, unit_record(&schema, 100, 50, &[0.42])) // short
            .update(ServerId(1), unit_record(&schema, 1, 1, &[0.9, 0.9, 0.9])) // long
            .insert(ServerId(2), unit_record(&schema, 101, 51, &[])) // empty
            .update(ServerId(1), unit_record(&schema, 1, 1, &[0.8, 0.2])) // valid
            .insert(leaf, unit_record(&schema, 102, 52, &[0.3, 0.3])) // valid
            .remove(ServerId(3), RecordId(3)) // valid
            .insert(ServerId(40), unit_record(&schema, 103, 53, &[0.1, 0.1])); // unknown
        let (_, out) = crate::updates::update_round_delta(&mut net, &delta);
        assert_eq!((out.applied, out.rejected), (3, 4));
        let mut dirty = vec![ServerId(1), ServerId(3), leaf];
        dirty.sort();
        assert_eq!(out.dirty, dirty);
        assert_eq!(out.churned.len(), 4, "0.8/0.2 and its old side, 0.3, r3");

        // Exactly the valid changes landed …
        let ids = |s: ServerId| -> Vec<u64> { net.records(s).iter().map(|r| r.id.0).collect() };
        assert_eq!(ids(ServerId(2)), vec![2]);
        assert!(ids(ServerId(3)).is_empty());
        assert!(ids(leaf).contains(&102) && !ids(leaf).contains(&100));
        assert_eq!(
            net.records(ServerId(1)),
            vec![unit_record(&schema, 1, 1, &[0.8, 0.2])]
        );
        // … and every summary is what a rebuild over them produces.
        assert_equals_rebuild(&net);
    }

    #[test]
    fn a_mutated_clone_leaves_the_base_network_untouched() {
        // A clone shares its rows with the source; mutating it must not
        // show through (the update rounds run on such a twin while a live
        // cluster keeps answering from the base).
        let base = small_network();
        let schema = base.schema().clone();
        let queries: Vec<Query> = (0..7)
            .map(|s| {
                let v = s as f64 / 10.0;
                QueryBuilder::new(&schema, QueryId(s))
                    .range("x0", v - 0.05, v + 0.05)
                    .build()
            })
            .collect();
        let answers = |net: &RoadsNetwork| -> Vec<Vec<Record>> {
            queries
                .iter()
                .flat_map(|q| {
                    net.tree()
                        .servers()
                        .into_iter()
                        .map(|s| net.search_local(s, q).into_iter().cloned().collect())
                })
                .collect()
        };
        let before = answers(&base);
        let root_before = base.branch_summary(base.tree().root()).clone();

        let mut twin = base.clone();
        for s in twin.tree().servers() {
            let (a, b) = (base.records(s), twin.records(s));
            assert_eq!(a[0].values().as_ptr(), b[0].values().as_ptr(), "shared");
        }
        let mut delta = crate::store::RecordDelta::new();
        delta
            .update(ServerId(2), unit_record(&schema, 2, 2, &[0.6, 0.4]))
            .remove(ServerId(4), RecordId(4))
            .insert(ServerId(0), unit_record(&schema, 100, 9, &[0.3, 0.7]));
        assert_eq!(twin.apply(&delta).applied, 3);

        assert_ne!(answers(&twin), before, "the twin did change");
        assert_eq!(answers(&base), before);
        assert_eq!(base.branch_summary(base.tree().root()), &root_before);
        assert_equals_rebuild(&base);
        assert_equals_rebuild(&twin);
    }

    #[test]
    fn an_ancestors_local_summary_is_its_branch_less_its_childrens() {
        // What lets an entry test its ancestors on their local summaries
        // at no cost in bytes: it replicates the branch summary of every
        // ancestor and of every ancestor's children (the next ancestor
        // down, or itself, and that one's siblings), and counters
        // subtract exactly — bucket for bucket, occupied range included.
        let check = |net: &RoadsNetwork| {
            for s in net.tree().servers() {
                let mut up = net.tree().parent(s);
                while let Some(a) = up {
                    let children = net.tree().children(a).iter();
                    let computed =
                        (net.branch_summary(a)).without(children.map(|&c| net.branch_summary(c)));
                    assert_eq!(
                        computed.as_ref(),
                        Some(net.local_summary(a)),
                        "{a} above {s}"
                    );
                    up = net.tree().parent(a);
                }
            }
        };
        let mut small = small_network();
        check(&small);
        check(&deep_network());
        let schema = small.schema().clone();
        let mut delta = crate::store::RecordDelta::new();
        delta
            .update(ServerId(1), unit_record(&schema, 1, 1, &[0.95, 0.05]))
            .remove(ServerId(0), RecordId(0))
            .insert(ServerId(6), unit_record(&schema, 100, 9, &[0.0, 1.0]));
        assert_eq!(small.apply(&delta).applied, 3);
        check(&small);
    }

    #[test]
    fn refresh_all_summaries_is_idempotent_on_converged_state() {
        let mut net = small_network();
        let before: Vec<Summary> = net
            .tree()
            .servers()
            .iter()
            .map(|&s| net.branch_summary(s).clone())
            .collect();
        net.refresh_all_summaries();
        for (s, b) in net.tree().servers().into_iter().zip(before) {
            assert_eq!(net.branch_summary(s), &b);
        }
    }

    #[test]
    fn search_local_exact() {
        let n = small_network();
        let schema = n.schema().clone();
        let q = QueryBuilder::new(&schema, QueryId(3))
            .range("x0", 0.28, 0.32)
            .build();
        assert_eq!(n.search_local(ServerId(3), &q).len(), 1);
        assert_eq!(n.search_local(ServerId(4), &q).len(), 0);
    }
}
