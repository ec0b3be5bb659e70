//! The traced run: every traced query or round is executed for real
//! (`live` / `sim` / `updates.round` spans) and then *replayed* by the
//! harness — the same servers walked again, each call into a layer's
//! public function timed on its own. The replay's counts must agree with
//! what the real execution reported.

use crate::host::{slowdown, Calibration};
use crate::pass::{live_answer, sim_answer, Answer};
use crate::system::System;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Inputs, Spec, TRACED_QUERIES_PER_PASS, TRACED_ROUNDS_PER_PASS};
use roads_central::CentralRepository;
use roads_core::{
    execute_query, execute_query_planned, plan_query, update_round_delta, update_round_full,
    CachedResult, DeltaOutcome, PlanAction, RecordDelta, ResultCache, RoadsNetwork, SearchScope,
    ServerId, UpdateBreakdown,
};
use roads_records::{Query, Record, WireSize};
use roads_runtime::RecordStore;
use std::collections::HashSet;
use std::hint::black_box;

/// Span `query` ids of update rounds start here, clear of query ids.
const ROUND_ID_BASE: u64 = 1 << 40;
/// A requester no query uses: a cache lookup under it must miss.
const MISS_REQUESTER: u64 = u64::MAX;

/// Sums over everything traced, from which the per-layer metrics derive.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    pub queries: u64,
    pub real_ns: u64,
    pub compute_ns: u64,
    pub contacts: u64,
    pub replay_mismatches: u64,
    pub evaluate_ns: u64,
    pub evaluate_calls: u64,
    pub may_match_ns: u64,
    pub may_match_calls: u64,
    pub search_ns: u64,
    pub search_calls: u64,
    pub search_results: u64,
    pub scanned: u64,
    pub wire_ns: u64,
    pub wire_records: u64,
    pub branch_contacts: u64,
    pub branch_false_positives: u64,
    pub plan_ns: u64,
    pub plan_calls: u64,
    pub lookup_ns: u64,
    pub lookups: u64,
    pub insert_ns: u64,
    pub inserts: u64,
    pub rounds: u64,
    pub round_ns: u64,
    pub apply_ns: u64,
    pub changes: u64,
    pub replace_ns: u64,
    pub replace_calls: u64,
    pub aggregate_ns: u64,
    pub aggregate_branches: u64,
    pub dirty_branches: u64,
    pub invalidate_ns: u64,
    pub invalidated: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Entry,
    Branch,
    LocalOnly,
}

/// A traced query whose real execution is done and whose replay is due.
struct Pending {
    qid: u64,
    query: Query,
    entry: ServerId,
    /// The cluster answered it from its result cache.
    hit: bool,
    contacts: u64,
    records: u64,
}

/// What a replay walked.
struct Replayed {
    contacts: u64,
    records: u64,
    compute_ns: u64,
    /// Live walks: the records gathered, as the client would hold them.
    gathered: Vec<Record>,
}

pub struct Layers {
    pub tracer: Tracer,
    pub acc: Acc,
    /// Mirrors the twin, but only ever through `RoadsNetwork::apply`, so a
    /// traced round can time `apply` apart from the round's accounting.
    replay_twin: RoadsNetwork,
    /// Live workloads: the harness's own `RecordStore` per server over the
    /// data the cluster serves.
    replay_stores: Vec<RecordStore>,
    /// Receives the replayed inserts; the cluster's cache is only read.
    scratch_cache: ResultCache,
    pub runtime_store_build_ms: f64,
    /// Off during the warm-up and baseline passes of a traced run, which
    /// only keep the replay twin in step.
    pub tracing: bool,
    query_stride: usize,
    pending: Vec<Pending>,
}

/// A traced run records spans for every this-many-th query of a pass: an
/// even stride, so a skewed sequence is sampled in proportion (about
/// `TRACED_QUERIES_PER_PASS` per pass).
pub fn query_stride(spec: &Spec) -> usize {
    (spec.queries_per_pass / TRACED_QUERIES_PER_PASS).max(1)
}

/// Figures measured once, after the passes, on calls no pass makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    pub match_ns_per_record: f64,
    pub central_query_us: f64,
    pub full_round_ms: f64,
    pub wire_bytes_per_summary: f64,
    pub planner_contacts_saved_ratio: f64,
    /// Host slowdown while the timings above were taken.
    pub slowdown: f64,
}

impl Layers {
    pub fn new(spec: &Spec, sys: &System) -> Layers {
        let mut tracer = Tracer::default();
        let root = tracer.begin(None, 0, "prepare", None);
        let (replay_stores, build_ns) = tracer.call(root, "runtime_store.build", None, || {
            if spec.live {
                sys.base
                    .tree()
                    .servers()
                    .into_iter()
                    .map(|s| RecordStore::new(sys.base.schema().clone(), sys.base.records(s)))
                    .collect()
            } else {
                Vec::new()
            }
        });
        tracer.end(root);
        Layers {
            tracer,
            acc: Acc::default(),
            replay_twin: sys.twin.clone(),
            replay_stores,
            scratch_cache: ResultCache::new(spec.cache_ttl_rounds.max(1)),
            runtime_store_build_ms: build_ns as f64 / 1e6,
            tracing: false,
            query_stride: query_stride(spec),
            pending: Vec::new(),
        }
    }

    pub fn traces_round(&self, r: usize) -> bool {
        self.tracing && r < TRACED_ROUNDS_PER_PASS
    }

    pub fn traces_query(&self, pos: usize) -> bool {
        self.tracing && pos.is_multiple_of(self.query_stride)
    }

    /// The layers no pass calls on their own: `Query::matches`, the central
    /// comparator, a full (non-incremental) round, and what the planner
    /// saves over greedy on the same queries.
    pub fn micro(
        &mut self,
        spec: &Spec,
        inputs: &Inputs,
        sys: &System,
        calib: &mut Calibration,
    ) -> Micro {
        const MATCH_QUERIES: usize = 50;
        const CENTRAL_QUERIES: usize = 20;
        const FULL_ROUNDS: usize = 5;
        let mut readings = vec![calib.read_ms()];
        let t = &mut self.tracer;
        let root = t.begin(None, 0, "micro", None);

        let records = &inputs.records[0];
        let queries = &inputs.queries[..MATCH_QUERIES.min(inputs.queries.len())];
        let (matched, ns) = t.call(root, "records.match", Some(0), || {
            queries
                .iter()
                .map(|(q, _)| records.iter().filter(|r| q.matches(r)).count())
                .sum::<usize>()
        });
        black_box(matched);
        let match_ns_per_record = ns as f64 / (queries.len() * records.len()) as f64;

        let central = CentralRepository::build(0, inputs.records.clone());
        let mut central_ns = Vec::new();
        for (q, entry) in inputs.queries.iter().take(CENTRAL_QUERIES) {
            let (out, ns) = t.call(root, "central.query", Some(0), || {
                central.execute_query(&inputs.delays, q, entry.index())
            });
            black_box(out);
            central_ns.push(ns as f64);
        }
        drop(central);
        readings.push(calib.read_ms());

        let mut scratch = self.replay_twin.clone();
        let mut full_ns = Vec::new();
        for _ in 0..FULL_ROUNDS {
            let (out, ns) = t.call(root, "updates.full_round", None, || {
                update_round_full(&mut scratch)
            });
            black_box(out);
            full_ns.push(ns as f64);
        }
        drop(scratch);
        t.end(root);
        readings.push(calib.read_ms());

        let twin = &sys.twin;
        let servers = twin.tree().servers();
        let summary_bytes: usize = servers
            .iter()
            .map(|&s| twin.branch_summary(s).wire_size())
            .sum();

        let planner_contacts_saved_ratio = if spec.planner {
            let scope = SearchScope::full();
            let (mut greedy, mut planned) = (0usize, 0usize);
            for (q, entry) in &inputs.queries {
                let plan = plan_query(&sys.base, q, *entry, scope);
                greedy +=
                    execute_query(&sys.base, &inputs.delays, q, *entry, scope).servers_contacted;
                planned +=
                    execute_query_planned(&sys.base, &inputs.delays, q, *entry, scope, &plan)
                        .servers_contacted;
            }
            1.0 - planned as f64 / greedy.max(1) as f64
        } else {
            0.0
        };

        Micro {
            match_ns_per_record,
            central_query_us: crate::stats::median(&central_ns) / 1e3,
            full_round_ms: crate::stats::median(&full_ns) / 1e6,
            wire_bytes_per_summary: summary_bytes as f64 / servers.len() as f64,
            planner_contacts_saved_ratio,
            slowdown: slowdown(&readings),
        }
    }

    /// An untraced round of a traced run: keep the replay twin in step.
    pub fn mirror_round(&mut self, delta: &RecordDelta) {
        self.replay_twin.apply(delta);
    }

    /// One traced update round. `truth` is the data before the delta.
    pub fn traced_round(
        &mut self,
        sys: &mut System,
        truth: &[Vec<Record>],
        spec: &Spec,
        round: u64,
        delta: &RecordDelta,
        advance: bool,
    ) -> (UpdateBreakdown, DeltaOutcome, f64) {
        let t = &mut self.tracer;
        let root = t.begin(None, ROUND_ID_BASE + round, "round", None);
        let twin = &mut sys.twin;
        let ((breakdown, outcome), round_ns) = t.call(root, "updates.round", None, || {
            update_round_delta(twin, delta)
        });
        let mut timed_ns = round_ns;
        if let Some(cluster) = &sys.cluster {
            let (purged, ns) = t.call(root, "cache.invalidate", None, || {
                let purged = cluster.observe_delta_round(&outcome);
                if advance {
                    cluster.advance_cache_round();
                }
                purged
            });
            timed_ns += ns;
            self.acc.invalidate_ns += ns;
            self.acc.invalidated += purged;
        }

        let rp = t.begin(Some(root), ROUND_ID_BASE + round, "replay", None);
        // `Summary::replace_record` on a summary that has learned every
        // record: the root's branch summary before this delta.
        let net = &self.replay_twin;
        let mut scratch = net.branch_summary(net.tree().root()).clone();
        let pairs: Vec<(&Record, &Record)> = delta
            .changes()
            .iter()
            .filter_map(|(server, change)| {
                let new = change.record()?;
                let slot = new.id.0 as usize - server.index() * spec.records_per_server;
                Some((&truth[server.index()][slot], new))
            })
            .collect();
        let (_, ns) = t.call(rp, "summary.replace_record", None, || {
            for (old, new) in &pairs {
                black_box(scratch.replace_record(old, new));
            }
        });
        self.acc.replace_ns += ns;
        self.acc.replace_calls += pairs.len() as u64;

        let replay_twin = &mut self.replay_twin;
        let (replayed, ns) = t.call(rp, "engine.apply", None, || replay_twin.apply(delta));
        self.acc.apply_ns += ns;
        self.acc.changes += delta.len() as u64;

        // The dirty-branch re-aggregation `apply` just did, on its own.
        let net = &self.replay_twin;
        let (_, ns) = t.call(rp, "summary.aggregate", None, || {
            for &s in &replayed.dirty_branches {
                let mut acc = net.local_summary(s).clone();
                for &c in net.tree().children(s) {
                    acc.merge(net.branch_summary(c))
                        .expect("one schema across the federation");
                }
                black_box(acc);
            }
        });
        self.acc.aggregate_ns += ns;
        self.acc.aggregate_branches += replayed.dirty_branches.len() as u64;
        self.acc.dirty_branches += outcome.dirty_branches.len() as u64;
        if replayed.dirty_branches != outcome.dirty_branches {
            self.acc.replay_mismatches += 1;
        }
        t.end(rp);
        t.end(root);

        self.acc.rounds += 1;
        self.acc.round_ns += round_ns;
        (breakdown, outcome, timed_ns as f64 / 1e6)
    }

    /// One traced query: the real execution under a `live` / `sim` span.
    /// A live query's replay is deferred to [`Layers::replay_pending`],
    /// after the query phase, so the cluster's threads stay as hot as in an
    /// untraced pass. A simulated query is replayed at once: nothing waits
    /// on it, and `queryexec.overhead_share` compares two timings taken in
    /// the same instant of host weather. (Its replay then runs on caches the
    /// real execution just warmed, so the share reads as an upper bound.)
    pub fn traced_query(
        &mut self,
        sys: &System,
        inputs: &Inputs,
        spec: &Spec,
        qid: u64,
        query: &Query,
        entry: ServerId,
    ) -> Answer {
        let (answer, ns, hit) = match &sys.cluster {
            Some(cluster) => {
                let cache = cluster.result_cache();
                let hits_before = cache.map(|c| c.hits());
                let (out, ns) = self
                    .tracer
                    .root_call(qid, "live", Some(entry.0), || cluster.query(query, entry));
                // One client: the hit counter moved iff this query hit.
                let hit = cache.is_some_and(|c| Some(c.hits()) > hits_before);
                (live_answer(&out, ns), ns, hit)
            }
            None => {
                let (out, ns) = self.tracer.root_call(qid, "sim", Some(entry.0), || {
                    execute_query(&sys.twin, &inputs.delays, query, entry, SearchScope::full())
                });
                (sim_answer(out, ns), ns, false)
            }
        };
        self.acc.queries += 1;
        self.acc.real_ns += ns;
        self.pending.push(Pending {
            qid,
            query: query.clone(),
            entry,
            hit,
            contacts: answer.contacts,
            records: answer.checksum.count,
        });
        if !spec.live {
            self.replay_pending(sys, spec);
        }
        answer
    }

    /// Replay every traced query of the pass just run: the same servers
    /// walked again, each call into a layer timed on its own.
    pub fn replay_pending(&mut self, sys: &System, spec: &Spec) {
        for p in std::mem::take(&mut self.pending) {
            let rp = self.tracer.begin(None, p.qid, "replay", Some(p.entry.0));
            let replayed = if spec.live {
                self.replay_live(rp, sys, spec, &p.query, p.entry, p.hit)
            } else {
                let start = vec![(p.entry, Mode::Entry, None)];
                self.walk(rp, &sys.twin, &p.query, start, false)
            };
            self.tracer.end(rp);
            self.acc.compute_ns += replayed.compute_ns;
            self.acc.contacts += replayed.contacts;
            if replayed.contacts != p.contacts || replayed.records != p.records {
                self.acc.replay_mismatches += 1;
            }
        }
    }

    /// Replay what the cluster did for one query at its client and servers.
    fn replay_live(
        &mut self,
        rp: SpanId,
        sys: &System,
        spec: &Spec,
        query: &Query,
        entry: ServerId,
        hit: bool,
    ) -> Replayed {
        let net: &RoadsNetwork = &sys.base;
        let scope = SearchScope::full();
        let mut client_ns = 0;
        let cache = sys.cluster.as_ref().and_then(|c| c.result_cache());
        if let Some(cache) = cache {
            // The query's own key now holds its answer whether it hit or
            // missed; a miss is rehearsed under a requester nobody uses.
            let requester = if hit { 0 } else { MISS_REQUESTER };
            let (found, ns) = self.tracer.call(rp, "cache.lookup", Some(entry.0), || {
                cache.lookup(entry, requester, scope, query)
            });
            self.acc.lookup_ns += ns;
            self.acc.lookups += 1;
            client_ns += ns;
            if let Some(cached) = found {
                return Replayed {
                    contacts: 1,
                    records: cached.records.len() as u64,
                    compute_ns: client_ns,
                    gathered: cached.records,
                };
            }
        }
        let start = if spec.planner {
            let (plan, ns) = self.tracer.call(rp, "planner.plan", Some(entry.0), || {
                plan_query(net, query, entry, scope)
            });
            self.acc.plan_ns += ns;
            self.acc.plan_calls += 1;
            client_ns += ns;
            let mut start = vec![(entry, Mode::LocalOnly, None)];
            start.extend(plan.contacts.iter().map(|pc| {
                let mode = match pc.action {
                    PlanAction::Descend => Mode::Branch,
                    PlanAction::Probe => Mode::LocalOnly,
                };
                (pc.server, mode, Some(0))
            }));
            start
        } else {
            vec![(entry, Mode::Entry, None)]
        };
        let mut replayed = self.walk(rp, net, query, start, true);
        if cache.is_some() {
            let result = CachedResult {
                matching_servers: Vec::new(),
                matching_records: replayed.records as usize,
                records: std::mem::take(&mut replayed.gathered),
            };
            let scratch = &self.scratch_cache;
            let (_, ns) = self.tracer.call(rp, "cache.insert", Some(entry.0), || {
                scratch.insert(entry, 0, scope, query, result)
            });
            self.acc.insert_ns += ns;
            self.acc.inserts += 1;
            client_ns += ns;
        }
        replayed.compute_ns += client_ns;
        replayed
    }

    /// Walk the redirect protocol breadth-first from `start`, timing each
    /// call. In a fault-free federation the subtrees an entry redirects to
    /// are disjoint, so the walk contacts exactly the servers the real
    /// execution did, whatever order its replies arrived in.
    fn walk(
        &mut self,
        rp: SpanId,
        net: &RoadsNetwork,
        query: &Query,
        start: Vec<(ServerId, Mode, Option<usize>)>,
        live: bool,
    ) -> Replayed {
        let t = &mut self.tracer;
        let acc = &mut self.acc;
        let mut contacts = start;
        let mut found: Vec<u64> = Vec::new();
        let mut visited: HashSet<ServerId> = HashSet::new();
        let mut compute_ns = 0;
        let mut gathered: Vec<Record> = Vec::new();
        let mut i = 0;
        while i < contacts.len() {
            let (s, mode, _) = contacts[i];
            found.push(0);
            if !visited.insert(s) {
                i += 1;
                continue;
            }
            let do_local = if mode == Mode::LocalOnly {
                true
            } else {
                let is_entry = mode == Mode::Entry;
                let (ev, ns) = t.call(rp, "engine.evaluate", Some(s.0), || {
                    net.evaluate(s, query, is_entry)
                });
                acc.evaluate_ns += ns;
                acc.evaluate_calls += 1;
                compute_ns += ns;
                // The summary tests `evaluate` just made, on their own.
                let (calls, ns) = t.call(rp, "summary.may_match", Some(s.0), || {
                    let mut calls = 1u64;
                    black_box(net.local_summary(s).may_match(query));
                    let mut test = |targets: &[ServerId]| {
                        for &x in targets {
                            black_box(net.branch_summary(x).may_match(query));
                        }
                        calls += targets.len() as u64;
                    };
                    test(net.tree().children(s));
                    if is_entry {
                        test(&net.replica_set(s).redirect_targets());
                        test(&net.replica_set(s).ancestors);
                    }
                    calls
                });
                acc.may_match_ns += ns;
                acc.may_match_calls += calls;
                let branch = ev.child_targets.iter().chain(&ev.replica_targets);
                contacts.extend(branch.map(|&c| (c, Mode::Branch, Some(i))));
                contacts.extend(
                    ev.ancestor_targets
                        .iter()
                        .map(|&a| (a, Mode::LocalOnly, Some(i))),
                );
                ev.local_match
            };
            if do_local {
                let records: Vec<Record> = if live {
                    let store = &self.replay_stores[s.index()];
                    let (rows, ns) = t.call(rp, "runtime_store.search", Some(s.0), || {
                        store.search(query)
                    });
                    acc.search_ns += ns;
                    compute_ns += ns;
                    let (records, ns) = t.call(rp, "records.clone", Some(s.0), || {
                        rows.into_iter().cloned().collect::<Vec<Record>>()
                    });
                    compute_ns += ns;
                    let (bytes, ns) = t.call(rp, "records.wire_size", Some(s.0), || {
                        records.iter().map(WireSize::wire_size).sum::<usize>()
                    });
                    black_box(bytes);
                    acc.wire_ns += ns;
                    acc.wire_records += records.len() as u64;
                    compute_ns += ns;
                    records
                } else {
                    let store = net.store(s);
                    acc.scanned += store.len() as u64;
                    let (records, ns) =
                        t.call(rp, "store.search", Some(s.0), || store.search(query));
                    acc.search_ns += ns;
                    compute_ns += ns;
                    records
                };
                acc.search_calls += 1;
                acc.search_results += records.len() as u64;
                found[i] = records.len() as u64;
                if live {
                    gathered.extend(records);
                }
            }
            i += 1;
        }
        // A Branch contact is a false positive when neither it nor anything
        // it redirected to returned a record.
        let mut subtree = found.clone();
        for i in (0..contacts.len()).rev() {
            if let Some(p) = contacts[i].2 {
                subtree[p] += subtree[i];
            }
        }
        for (c, &n) in contacts.iter().zip(&subtree) {
            if c.1 == Mode::Branch {
                acc.branch_contacts += 1;
                acc.branch_false_positives += u64::from(n == 0);
            }
        }
        Replayed {
            contacts: visited.len() as u64,
            records: found.iter().sum(),
            compute_ns,
            gathered,
        }
    }
}
