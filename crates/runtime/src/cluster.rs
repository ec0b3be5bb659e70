//! The live ROADS cluster: servers are state, and whoever delivers a
//! request runs the server's step.
//!
//! The converged control state (hierarchy, summaries, replica sets) comes
//! from a [`RoadsNetwork`]; what runs *live* here is the part the paper
//! could not simulate — concurrent query processing against per-server
//! record stores, with delay-space latencies applied per message.
//!
//! # Servers
//!
//! A server is a cell (`Arc<Mutex<Option<Server>>>`): record store, owner
//! policy, a FIFO of delivered requests and a service clock. It owns no
//! thread. A request due at once (no link delay, no backoff) is delivered
//! by the querying client under the target's cell lock: an idle server runs
//! `step` (the per-request protocol logic, a pure function) right there
//! and the client folds its reply, in send order, before it reads its
//! channel; a busy server queues the request, a dead one reads as down.
//! Everything timed — delayed requests and replies, backoffs, the end of a
//! busy period — is a job on the one timer thread (`faults::Dispatcher`).
//! One server handles one request at a time, in arrival order: by its
//! lock while a step runs, and by its `in_service` flag while a request's
//! *emulated* backend cost elapses — a timer event, never a sleep; requests
//! arriving meanwhile wait in the FIFO. An *n*-server cluster
//! therefore owns exactly one thread (the timer). Concurrency is between
//! queries; one client's fan-out runs back to back on its own thread.
//!
//! # Fault model
//!
//! Per-dispatch timeouts, bounded retry with exponential backoff, failover
//! through the replication overlay (§III-C), the per-query deadline and
//! the truthful [`RuntimeOutcome::complete`] are [`roads_core::machine`]'s
//! rules — the one [`QueryMachine`] the simulator drives too; this module
//! supplies what only a live plane has: time and delivery. Servers can be
//! torn down and brought back live via [`RoadsCluster::kill_server`] /
//! [`RoadsCluster::restart_server`] for fault injection. A step that
//! panics (a crashing owner backend) is contained: it kills that server —
//! queued and in-flight replies are lost, it reads as dead everywhere
//! until restarted — not the client or timer thread that happened to
//! deliver the request.
//!
//! # Concurrency
//!
//! [`RoadsCluster::query`] takes `&self` and any number of client threads
//! may call it at once: each call drives a [`QueryMachine`] of its own
//! (contact log, visit ledger, failure bookkeeping) over its own reply
//! channel, so outcomes — `retries`, `failed_servers`,
//! `servers_contacted`, recorder events — are attributed to exactly the
//! query that caused them, never pooled across in-flight queries. The
//! shared pieces (the dispatcher, the server cells) are multi-producer by
//! construction. Admission is bounded by
//! [`RuntimeConfig::max_inflight_queries`]; the `runtime.inflight_queries`
//! gauge tracks the live count on instrumented clusters.
//!
//! # Observation
//!
//! Driving a query decides and describes nothing: sends become timed
//! deliveries, notices and receive-timeouts become machine calls stamped
//! with milliseconds since the query began. What describes a query after
//! the fact is derived from the machine's log once, in the query's
//! epilogue, by the functions the simulator uses: [`explain_from_trace`],
//! [`record_query_events`], [`hollow_contacts`]. Registry metrics alone
//! are counted inline, so a scrape sees them while a query still runs.

use crate::config::RuntimeConfig;
use crate::faults::{DispatchHandle, Dispatcher};
use crate::health::{ClusterHealth, RuntimeMetrics, ServerHealth, ServerInstruments};
use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use roads_core::policy::{apply_policy, OpenPolicy, RequesterId, SharingPolicy};
pub use roads_core::ContactMode;
use roads_core::{
    explain_from_trace, fault_decision, hollow_contacts, record_query_events, CachedResult,
    DeltaOutcome, FaultSettings, Outbound, QueryMachine, ResultCache, RoadsNetwork, SearchScope,
    ServerId, TraceEvent,
};
use roads_netsim::DelaySpace;
use roads_records::{Query, Record, WireSize};
use roads_telemetry::{
    span::timed, ExplainDecision, Gauge, Histogram, HopOutcome, LatencySplit, QueryExplain,
    Recorder, Registry, SpanTimer, TailSampler, TraceId,
};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Counting admission gate bounding concurrent queries over the shared
/// dispatcher (`max = 0` ⇒ unbounded). Each query holds one slot for its
/// whole lifetime; acquisition blocks — queries queue at the door instead
/// of piling unbounded work onto every server's FIFO.
struct InflightGate {
    max: usize,
    count: StdMutex<usize>,
    freed: Condvar,
}

impl InflightGate {
    fn new(max: usize) -> Self {
        InflightGate {
            max,
            count: StdMutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Block until a slot frees, take it, and return the in-flight count
    /// including this query.
    fn acquire(&self) -> usize {
        let mut n = self.count.lock().expect("gate lock poisoned");
        while self.max > 0 && *n >= self.max {
            n = self.freed.wait(n).expect("gate lock poisoned");
        }
        *n += 1;
        *n
    }

    /// Give the slot back; returns the remaining in-flight count.
    fn release(&self) -> usize {
        let mut n = self.count.lock().expect("gate lock poisoned");
        *n -= 1;
        self.freed.notify_one();
        *n
    }
}

/// RAII gate slot: keeps the `runtime.inflight_queries` gauge in step with
/// admission, and releases on every exit path (including unwinds).
struct InflightSlot<'a> {
    gate: &'a InflightGate,
    gauge: Option<&'a Gauge>,
}

impl<'a> InflightSlot<'a> {
    fn enter(gate: &'a InflightGate, gauge: Option<&'a Gauge>) -> Self {
        let n = gate.acquire();
        if let Some(g) = gauge {
            g.set(n as i64);
        }
        InflightSlot { gate, gauge }
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let n = self.gate.release();
        if let Some(g) = self.gauge {
            g.set(n as i64);
        }
    }
}

/// One sub-query on its way to, queued at, or being served by a server.
pub(crate) struct Request {
    /// One allocation per live query, shared by all its contacts.
    query: Arc<Query>,
    mode: ContactMode,
    requester: RequesterId,
    reply: ReplyHandle,
}

/// What a server made of one request.
#[derive(Default)]
pub(crate) struct Served {
    targets: Vec<(ServerId, ContactMode)>,
    records: Vec<Record>,
    /// FIFO wait measured at the server (delivery → pickup), µs.
    queue_us: f64,
    /// Server-side work (summary evaluation + local search + emulated
    /// backend cost), µs; set when the reply leaves.
    compute_us: f64,
}

/// What the dispatcher reports back to a querying client.
pub(crate) enum Notice {
    /// A server's reply landed (after the return delay).
    Reply { attempt: usize, served: Served },
    /// The target was dead at delivery — killed or crashed, so the request
    /// could not even be queued. The attempt id identifies which dispatch
    /// (and server) this was.
    Down { attempt: usize },
}

/// One-shot reply path of a queued or delayed request. Replying sends to
/// the client at once, or after the return delay on the dispatcher;
/// dropping it (server killed or crashed with the request queued or in
/// service) sends nothing, which the client turns into a timeout.
pub(crate) struct ReplyHandle {
    timer: DispatchHandle,
    done: Sender<Notice>,
    attempt: usize,
    delay_back: Duration,
}

impl ReplyHandle {
    /// Send `served`, whose work began at `work_t0`, back to the client.
    fn send(self, mut served: Served, work_t0: Instant) {
        served.compute_us = work_t0.elapsed().as_micros() as f64;
        let (attempt, done) = (self.attempt, self.done);
        let notice = Notice::Reply { attempt, served };
        if self.delay_back.is_zero() {
            let _ = done.send(notice);
        } else {
            (self.timer).schedule_after(self.delay_back, DispatchJob::Notify { done, notice });
        }
    }

    /// The target is dead: say so at once, like a refused connection.
    fn down(self) {
        let _ = self.done.send(Notice::Down {
            attempt: self.attempt,
        });
    }
}

/// A unit of timed work for the dispatcher's timer thread. No job blocks
/// or sleeps.
pub(crate) enum DispatchJob {
    /// Deliver a request whose outbound delay or backoff has elapsed —
    /// which is to run it, unless the server is busy (then it waits in the
    /// FIFO) or dead (reported straight back as [`Notice::Down`]).
    Deliver { cell: Cell, request: Request },
    /// The emulated backend cost of the request in service has elapsed:
    /// send its reply and serve the next queued request.
    Finish {
        cell: Cell,
        reply: ReplyHandle,
        served: Served,
        /// When the step began; `compute_us` runs from here to the reply.
        work_t0: Instant,
    },
    /// Deliver a notice to the querying client.
    Notify {
        done: Sender<Notice>,
        notice: Notice,
    },
    #[cfg(test)]
    Call(Box<dyn FnOnce() + Send>),
}

impl DispatchJob {
    pub(crate) fn run(self) {
        match self {
            DispatchJob::Deliver { cell, request } => {
                let mut slot = cell.lock();
                let Some(server) = slot.as_mut() else {
                    return request.reply.down();
                };
                server.enqueue(request);
                if !server.in_service {
                    serve(&cell, &mut slot);
                }
            }
            DispatchJob::Finish {
                cell,
                reply,
                served,
                work_t0,
            } => {
                let mut slot = cell.lock();
                // Killed mid-request: the in-flight reply is lost.
                let Some(server) = slot.as_mut() else { return };
                reply.send(served, work_t0);
                server.in_service = false;
                serve(&cell, &mut slot);
            }
            DispatchJob::Notify { done, notice } => {
                let _ = done.send(notice);
            }
            #[cfg(test)]
            DispatchJob::Call(f) => f(),
        }
    }

    #[cfg(test)]
    pub(crate) fn test_probe(f: impl FnOnce() + Send + 'static) -> Self {
        DispatchJob::Call(Box::new(f))
    }
}

/// Result of one live query.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Total response time: query sent → all matching records received.
    pub response_ms: f64,
    /// Records received.
    pub records: Vec<Record>,
    /// Distinct servers whose replies were received. Late or duplicate
    /// replies (a reply racing a retry) and overlay stand-in replies count
    /// each server once.
    pub servers_contacted: usize,
    /// Whether the result provably covers every matching record: the
    /// deadline did not cut the query short, and for every failed server
    /// the summaries prove neither its local data nor any unreached child
    /// branch could match. `false` promises only that records MAY be
    /// missing — never that returned records are wrong.
    pub complete: bool,
    /// Servers given up on (found dead at delivery, or timed out past all
    /// retries), ascending by id. Overlay stand-ins that failed are not
    /// listed — only servers whose own data/branch was being queried.
    pub failed_servers: Vec<ServerId>,
    /// Dispatches re-sent after a per-dispatch timeout.
    pub retries: usize,
}

/// What the cluster knows of a server across its incarnations, readable
/// without any lock: kill, crash and restart replace the cell, these stay.
struct ServerFlags {
    /// Whether the current incarnation is up — the liveness oracle.
    alive: AtomicBool,
    /// Straggler factor (f64 bit pattern, 1.0 = healthy): the server scales
    /// its emulated backend cost by it, `scaled_delay` applies the slower
    /// endpoint's factor to every message between a pair.
    slow: AtomicU64,
}

impl ServerFlags {
    fn slow_factor(&self) -> f64 {
        f64::from_bits(self.slow.load(Ordering::Relaxed))
    }
}

/// What a server knows — everything [`step`] reads.
struct ServerState {
    id: ServerId,
    policy: Arc<dyn SharingPolicy>,
    /// `runtime.local_search_us` on instrumented clusters.
    search_hist: Option<Arc<Histogram>>,
}

/// One incarnation of a live server: passive state plus its service
/// clock. It runs on whichever thread delivers to it, under its cell's lock.
pub(crate) struct Server {
    state: ServerState,
    net: Arc<RoadsNetwork>,
    cfg: RuntimeConfig,
    timer: DispatchHandle,
    board: Arc<Vec<ServerFlags>>,
    gauges: Option<ServerInstruments>,
    /// Delivered requests not yet picked up, in arrival order, each with
    /// its delivery time.
    fifo: VecDeque<(Instant, Request)>,
    /// The emulated backend cost of a served request is still elapsing
    /// (its `Finish` job is on the timer); deliveries only queue.
    in_service: bool,
}

/// A server's cell: `None` = killed or crashed. A fresh `Arc` per
/// incarnation, so a job addressed to a dead incarnation finds `None`
/// even after a restart.
pub(crate) type Cell = Arc<Mutex<Option<Server>>>;

/// One member of the federation: its current incarnation and the owner
/// policy a restart re-installs.
struct ServerSlot {
    cell: Cell,
    policy: Arc<dyn SharingPolicy>,
}

/// A running ROADS federation.
pub struct RoadsCluster {
    net: Arc<RoadsNetwork>,
    delays: Arc<DelaySpace>,
    cfg: RuntimeConfig,
    servers: Vec<Mutex<ServerSlot>>,
    dispatcher: Dispatcher,
    gate: InflightGate,
    metrics: Option<RuntimeMetrics>,
    recorder: Option<Arc<Recorder>>,
    tail: Option<Arc<TailSampler>>,
    /// Per-server liveness and straggler flags, shared with every server
    /// incarnation.
    board: Arc<Vec<ServerFlags>>,
    /// TTL'd result cache, present when `cfg.cache_ttl_rounds > 0`. Keyed
    /// by (entry, requester, scope, query fingerprint); epochs advance via
    /// [`RoadsCluster::advance_cache_round`].
    cache: Option<Arc<ResultCache>>,
}

/// What a cluster can be started with beyond its network, delay space and
/// configuration. Every field is optional and every combination is valid;
/// the default attaches nothing, and an absent attachment costs nothing on
/// the query path. A new observer of the live plane is a field here read
/// in the query epilogue — a derivation from the contact log, as on the
/// simulator — never another constructor.
#[derive(Default)]
pub struct Attachments<'a> {
    /// One [`SharingPolicy`] per server, enforced before records leave it
    /// (§II voluntary sharing: the owner retains final control over what
    /// is returned). `None` = every owner shares everything
    /// ([`OpenPolicy`]).
    pub policies: Option<Vec<Arc<dyn SharingPolicy>>>,
    /// Full health instrumentation into this registry: phase timing
    /// (`runtime.*_us` histograms), query/retry/deadline-miss/SLO
    /// counters, per-mode dispatch-latency histograms, per-server
    /// queue-depth and liveness gauges, labeled `runtime.fault_events`
    /// counters, and per tree level every branch reply of a finished
    /// query (`audit.live_probes`) and every one that was a live false
    /// positive (`audit.live_false_positives`, a hollow branch contact,
    /// see [`hollow_contacts`]). Every instrument is declared at startup,
    /// so a registry snapshot is complete from the first moment.
    pub registry: Option<&'a Registry>,
    /// A flight recorder: every driven query records its contact log as a
    /// span tree (wall-clock microseconds from query start) under a fresh
    /// trace when it finishes — see [`record_query_events`].
    pub recorder: Option<Arc<Recorder>>,
    /// A tail-based sampler: every query — driven or replayed from the
    /// result cache — derives its [`QueryExplain`] provenance record and
    /// offers it to the sampler on completion; slow / failed / incomplete
    /// queries are retained with that record (whose trace id names the
    /// span tree an attached recorder holds), everything else folds into
    /// the sampler's live histogram and is dropped.
    pub tail: Option<Arc<TailSampler>>,
}

impl<'a> Attachments<'a> {
    /// Health instrumentation into `reg`, nothing else attached.
    pub fn instrumented(reg: &'a Registry) -> Self {
        Attachments {
            registry: Some(reg),
            ..Attachments::default()
        }
    }
}

impl RoadsCluster {
    /// Start one server per federation member with nothing attached:
    /// every owner shares everything, no instrument runs.
    pub fn start(net: RoadsNetwork, delays: DelaySpace, cfg: RuntimeConfig) -> Self {
        Self::start_with(net, delays, cfg, Attachments::default())
    }

    /// Start one server per federation member with `attach` — owner
    /// policies and observers, in any combination.
    pub fn start_with(
        net: RoadsNetwork,
        delays: DelaySpace,
        cfg: RuntimeConfig,
        attach: Attachments<'_>,
    ) -> Self {
        let n = net.len();
        let policies = attach.policies.unwrap_or_else(|| {
            let open: Arc<dyn SharingPolicy> = Arc::new(OpenPolicy);
            vec![open; n]
        });
        let levels = net.tree().levels();
        let metrics = attach
            .registry
            .map(|reg| RuntimeMetrics::new(reg, n, levels));
        assert_eq!(net.len(), delays.len(), "delay space must cover servers");
        assert_eq!(net.len(), policies.len(), "one policy per server");
        let board = Arc::new(
            (0..net.len())
                .map(|_| ServerFlags {
                    alive: AtomicBool::new(false),
                    slow: AtomicU64::new(1.0f64.to_bits()),
                })
                .collect::<Vec<_>>(),
        );
        let mut cluster = RoadsCluster {
            net: Arc::new(net),
            delays: Arc::new(delays),
            cfg,
            servers: Vec::new(),
            dispatcher: Dispatcher::start(metrics.as_ref().map(|m| Arc::clone(&m.timer_lag))),
            gate: InflightGate::new(cfg.max_inflight_queries),
            metrics,
            recorder: attach.recorder,
            tail: attach.tail,
            board,
            cache: (cfg.cache_ttl_rounds > 0)
                .then(|| Arc::new(ResultCache::new(cfg.cache_ttl_rounds))),
        };
        cluster.servers = policies
            .into_iter()
            .enumerate()
            .map(|(s, policy)| {
                Mutex::new(ServerSlot {
                    cell: cluster.new_incarnation(ServerId(s as u32), &policy),
                    policy,
                })
            })
            .collect();
        cluster
    }

    /// A fresh incarnation of server `id`: empty FIFO, marked alive. Its
    /// records are the converged control state's (`net.store(id)`); a dead
    /// cell makes them unreachable, not lost.
    fn new_incarnation(&self, id: ServerId, policy: &Arc<dyn SharingPolicy>) -> Cell {
        let gauges = self.metrics.as_ref().map(|m| m.servers[id.index()].clone());
        if let Some(g) = &gauges {
            g.alive.set(1);
            g.queue_depth.set(0);
        }
        self.board[id.index()].alive.store(true, Ordering::Relaxed);
        Arc::new(Mutex::new(Some(Server {
            state: ServerState {
                id,
                policy: Arc::clone(policy),
                search_hist: self.metrics.as_ref().map(|m| Arc::clone(&m.local_search)),
            },
            net: Arc::clone(&self.net),
            cfg: self.cfg,
            timer: self.dispatcher.handle().clone(),
            board: Arc::clone(&self.board),
            gauges,
            fifo: VecDeque::new(),
            in_service: false,
        })))
    }

    /// The TTL'd result cache, when [`RuntimeConfig::cache_ttl_rounds`]
    /// enabled one at startup.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// An update round / replication wave landed: advance the cache epoch
    /// and purge entries older than the TTL. Returns how many entries
    /// expired (0 with no cache configured). On an instrumented cluster
    /// the purge count lands on `roads.cache.expired` — TTL aging, kept
    /// separate from delta-driven `roads.cache.invalidated`.
    pub fn advance_cache_round(&self) -> u64 {
        let Some(cache) = &self.cache else { return 0 };
        let purged = cache.advance_round();
        if let Some(m) = &self.metrics {
            m.cache_expired.add(purged);
        }
        purged
    }

    /// An incremental update round ([`roads_core::update_round_delta`])
    /// landed: mirror its [`DeltaOutcome`] into the `roads.delta.*` counter
    /// family and purge exactly the cached results the delta can have
    /// changed (dirty-scope intersection + delta-summary match), counted on
    /// `roads.cache.invalidated`. Returns how many entries were
    /// invalidated. The record delta itself is applied to the network by
    /// the simulation plane, which owns `&mut RoadsNetwork`; a live
    /// cluster observes the outcome here.
    pub fn observe_delta_round(&self, outcome: &DeltaOutcome) -> u64 {
        if let Some(m) = &self.metrics {
            m.delta_applied.add(outcome.applied);
            m.delta_rejected.add(outcome.rejected);
            m.delta_dirty_servers.add(outcome.dirty.len() as u64);
            m.delta_dirty_branches
                .add(outcome.dirty_branches.len() as u64);
            m.delta_shard_rebuilds.add(outcome.shard_rebuilds);
        }
        let Some(cache) = &self.cache else { return 0 };
        let purged = cache.invalidate_delta(self.net.tree(), outcome);
        if let Some(m) = &self.metrics {
            m.cache_invalidated.add(purged);
        }
        purged
    }

    /// The converged control state.
    pub fn network(&self) -> &RoadsNetwork {
        &self.net
    }

    /// The converged control state, shared.
    pub fn shared_network(&self) -> Arc<RoadsNetwork> {
        Arc::clone(&self.net)
    }

    /// Tear down server `id` for fault injection: queued and in-service
    /// requests are abandoned (their replies are dropped, surfacing to
    /// clients as dispatch timeouts) and later deliveries find it dead and
    /// fail fast. Waits at most for the one real step another thread may be
    /// running on it, never for an emulated busy period. Returns `false`
    /// if the server was already dead.
    pub fn kill_server(&self, id: ServerId) -> bool {
        {
            // The slot lock orders this against a concurrent restart.
            let slot = self.servers[id.index()].lock();
            let Some(server) = slot.cell.lock().take() else {
                return false;
            };
            server.retire();
        }
        if let Some(m) = &self.metrics {
            m.kills.inc();
        }
        true
    }

    /// Bring a killed or crashed server back as a fresh incarnation with
    /// its original sharing policy; its records become reachable again.
    /// Returns `false` if the server is alive.
    pub fn restart_server(&self, id: ServerId) -> bool {
        {
            let mut slot = self.servers[id.index()].lock();
            if slot.cell.lock().is_some() {
                return false;
            }
            slot.cell = self.new_incarnation(id, &slot.policy);
        }
        if let Some(m) = &self.metrics {
            m.restarts.inc();
        }
        true
    }

    /// Inject a straggler: server `id` stays alive and keeps answering,
    /// but every message to or from it takes `factor` (≥ 1) times the
    /// delay-space latency and its emulated backend cost is multiplied by
    /// the same factor — a slow link / overloaded host, not a death.
    /// Undo with [`RoadsCluster::restore_server`]. Returns `false` (and
    /// changes nothing) when the server is already slowed.
    pub fn slow_server(&self, id: ServerId, factor: f64) -> bool {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "straggler factor must be >= 1, got {factor}"
        );
        let flags = &self.board[id.index()];
        if flags.slow_factor() != 1.0 {
            return false;
        }
        flags.slow.store(factor.to_bits(), Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.slows.inc();
        }
        true
    }

    /// Restore a straggler to full speed. Returns `false` when the
    /// server was not slowed.
    pub fn restore_server(&self, id: ServerId) -> bool {
        let flags = &self.board[id.index()];
        if flags.slow_factor() == 1.0 {
            return false;
        }
        flags.slow.store(1.0f64.to_bits(), Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.restores.inc();
        }
        true
    }

    /// The current straggler factor of `id` (1.0 = healthy).
    pub fn slow_factor(&self, id: ServerId) -> f64 {
        self.board[id.index()].slow_factor()
    }

    /// Whether `id` is up: neither killed nor crashed since its last
    /// (re)start.
    pub fn is_alive(&self, id: ServerId) -> bool {
        self.board[id.index()].alive.load(Ordering::Relaxed)
    }

    /// A point-in-time [`ClusterHealth`] snapshot: per-server liveness,
    /// queue depth, reply counts and dispatch p99s plus cluster-wide
    /// query/retry/deadline/failover and result-cache totals. `None` on
    /// an uninstrumented cluster (start with an [`Attachments::registry`]).
    pub fn health(&self) -> Option<ClusterHealth> {
        let m = self.metrics.as_ref()?;
        let servers = (0..self.net.len())
            .map(|s| {
                let si = &m.servers[s];
                ServerHealth {
                    server: s as u32,
                    alive: self.is_alive(ServerId(s as u32)),
                    queue_depth: si.queue_depth.get(),
                    replies: si.replies.get(),
                    dispatch_p99_ms: si.dispatch_ms.percentile(0.99),
                }
            })
            .collect();
        Some(ClusterHealth {
            servers,
            inflight_queries: m.inflight.get(),
            queries: m.queries.get(),
            retries: m.retries.get(),
            deadline_misses: m.deadline_miss.get(),
            failovers: m.failovers.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            cache_expired: m.cache_expired.get(),
        })
    }

    /// Execute one query from a client co-located with `start`, driving the
    /// redirect protocol and gathering records in parallel. The client is
    /// anonymous (requester 0) — owners treat it per their public tier.
    pub fn query(&self, query: &Query, start: ServerId) -> RuntimeOutcome {
        self.query_with(query, start, RequesterId(0), false).0
    }

    /// [`Self::query`] in full: `requester` is the authenticated identity
    /// each owner's policy classifies independently, and `explain` asks
    /// for the query's provenance record (it is `Some` then, and whenever
    /// a tail sampler is attached — every query is a retention candidate;
    /// otherwise no explain work is done at all).
    ///
    /// Returns within [`RuntimeConfig::query_deadline_ms`] even when
    /// servers are dead, retrying and failing over per the fault model in
    /// the module docs; [`RuntimeOutcome::complete`] says whether anything
    /// may be missing.
    pub fn query_with(
        &self,
        query: &Query,
        start: ServerId,
        requester: RequesterId,
        explain: bool,
    ) -> (RuntimeOutcome, Option<QueryExplain>) {
        // Admission first: the deadline below budgets execution, not time
        // spent queued at the gate.
        let _slot = InflightSlot::enter(
            &self.gate,
            self.metrics.as_ref().map(|m| m.inflight.as_ref()),
        );
        let t0 = Instant::now();
        let want_explain = explain || self.tail.is_some();
        if let Some(cache) = &self.cache {
            if let Some(r) = cache.lookup(start, requester.0 as u64, SearchScope::full(), query) {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                return self.replay_cached(query, start, r, t0, want_explain);
            }
            if let Some(m) = &self.metrics {
                m.cache_misses.inc();
            }
        }
        let query = Arc::new(query.clone());
        let (outcome, explain) = self.drive(&query, start, requester, t0, want_explain);
        // Replaying an incomplete answer would hide a transient fault until
        // the TTL expired; only provably-complete results are stored.
        if let (Some(cache), true) = (&self.cache, outcome.complete) {
            let result = CachedResult {
                matching_servers: Vec::new(),
                matching_records: outcome.records.len(),
                records: outcome.records.clone(),
            };
            cache.insert(
                start,
                requester.0 as u64,
                SearchScope::full(),
                &query,
                result,
            );
        }
        (outcome, explain)
    }

    /// Serve a query from the result cache: the entry answers alone, no
    /// fan-out, no server involved. It finishes like any other query, on a
    /// log of that one contact.
    fn replay_cached(
        &self,
        query: &Query,
        start: ServerId,
        r: CachedResult,
        t0: Instant,
        want_explain: bool,
    ) -> (RuntimeOutcome, Option<QueryExplain>) {
        let response_ms = ms_since(t0);
        let log = [TraceEvent {
            local_matches: r.records.len(),
            outcome: HopOutcome::Replied,
            closed_ms: response_ms,
            // The client is co-located with its entry: a replay crosses no
            // link and waits in no queue.
            split: LatencySplit {
                compute_us: response_ms * 1_000.0,
                ..LatencySplit::default()
            },
            ..TraceEvent::begun(start, 0.0, ContactMode::Entry, None)
        }];
        let outcome = RuntimeOutcome {
            response_ms,
            records: r.records,
            servers_contacted: 1,
            complete: true,
            failed_servers: Vec::new(),
            retries: 0,
        };
        let hit = ExplainDecision::CacheHit;
        self.finish(query, outcome, &log, hit, want_explain)
    }

    /// The one epilogue of a query, driven or replayed, and the one place
    /// its contact log is read: count the query against the SLO and
    /// deadline, then derive what each attached observer wants from `log`
    /// — the recorder its span tree, an explain (asked for, or for the
    /// tail sampler) its provenance record, the registry its live
    /// false-positive probes. `entry` is what the entry did with the query
    /// (see [`explain_from_trace`]); a cache replay records no spans.
    fn finish(
        &self,
        query: &Query,
        outcome: RuntimeOutcome,
        log: &[TraceEvent],
        entry: ExplainDecision,
        want_explain: bool,
    ) -> (RuntimeOutcome, Option<QueryExplain>) {
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.response_ms.record(outcome.response_ms);
            if !outcome.complete {
                m.incomplete.inc();
            }
            // Only the deadline leaves a contact abandoned.
            if log.iter().any(|e| e.outcome == HopOutcome::Abandoned) {
                m.deadline_miss.inc();
            }
            let slo = self.cfg.slo_response_ms;
            if slo > 0 && outcome.response_ms > slo as f64 {
                m.slo_violation.inc();
            }
            // A branch dispatch only happens because a summary matched, so
            // a hollow branch contact is a live false positive.
            for (e, hollow) in log.iter().zip(hollow_contacts(log)) {
                if e.mode == ContactMode::Branch && e.outcome == HopOutcome::Replied {
                    m.observe_live(self.net.tree().depth(e.server), hollow);
                }
            }
        }
        let trace = match &self.recorder {
            Some(rec) if entry != ExplainDecision::CacheHit => {
                let trace = rec.next_trace_id();
                record_query_events(rec, trace, log);
                trace
            }
            _ => TraceId::NONE,
        };
        let explain = want_explain.then(|| QueryExplain {
            // Measured here, not modelled: the wall clock, the fault
            // model's completeness proof, what the owners' policies let out.
            response_us: outcome.response_ms * 1_000.0,
            complete: outcome.complete,
            records: outcome.records.len() as u64,
            ..explain_from_trace(&self.net, query, trace, log, entry)
        });
        if let (Some(tail), Some(explain)) = (&self.tail, &explain) {
            // Failed only with no usable outcome — no server replied; a
            // partial answer is retained as incomplete.
            tail.observe(explain.clone(), outcome.servers_contacted == 0);
        }
        (outcome, explain)
    }

    /// Drive one query's [`QueryMachine`] to its end: put every send it
    /// asks for on its way (one already due is delivered right here, see
    /// [`deliver_now`]) and tell it, by the wall clock, what comes back.
    fn drive(
        &self,
        query: &Arc<Query>,
        start: ServerId,
        requester: RequesterId,
        t0: Instant,
        want_explain: bool,
    ) -> (RuntimeOutcome, Option<QueryExplain>) {
        let (cfg, metrics) = (self.cfg, self.metrics.as_ref());
        let faults = FaultSettings {
            dispatch_timeout_ms: cfg.dispatch_timeout_ms,
            max_retries: cfg.max_retries,
            backoff_base_ms: cfg.backoff_base_ms,
            failover: cfg.enable_failover,
            deadline_ms: cfg.query_deadline_ms,
        };
        // Nobody to read the log: no closing stamps, no target lists.
        let observed = want_explain || self.recorder.is_some() || metrics.is_some();
        let mut machine = QueryMachine::new(&self.net, query, faults, observed);
        let mut sends: Vec<Outbound> = Vec::new();
        let mut records: Vec<Record> = Vec::new();
        let (done_tx, done_rx) = unbounded::<Notice>();
        // What deliveries made on this thread answered, in send order.
        let mut in_place: VecDeque<Notice> = VecDeque::new();
        // RAII: covers folding a reply and dispatching its redirect targets.
        let mut merge_span = None;
        machine.start(start, &mut sends);
        loop {
            for send in sends.drain(..) {
                let delay_out = self.scaled_delay(start, send.target);
                // Round trip over the simulated link (symmetric latency).
                let network_us = 2.0 * delay_out.as_micros() as f64;
                let attempt = machine.open(&send, ms_since(t0), network_us);
                match (metrics, fault_decision(send.mode, send.tries, send.cause)) {
                    (Some(m), Some(ExplainDecision::Retry)) => m.retries.inc(),
                    (Some(m), Some(_)) => m.failovers.inc(),
                    _ => {}
                }
                // Built only for a request that is queued or delayed.
                let queued = || Request {
                    query: Arc::clone(query),
                    mode: send.mode,
                    requester,
                    reply: ReplyHandle {
                        timer: self.dispatcher.handle().clone(),
                        done: done_tx.clone(),
                        attempt,
                        delay_back: delay_out,
                    },
                };
                let cell = Arc::clone(&self.servers[send.target.index()].lock().cell);
                let wait = Duration::from_secs_f64(send.backoff_ms / 1_000.0) + delay_out;
                if wait.is_zero() {
                    let (mode, who) = (send.mode, requester);
                    in_place.extend(deliver_now(
                        &cell, query, mode, who, attempt, observed, queued,
                    ));
                } else {
                    let request = queued();
                    let deliver = DispatchJob::Deliver { cell, request };
                    self.dispatcher.handle().schedule_after(wait, deliver);
                }
            }
            drop(merge_span.take());
            if machine.awaiting() == 0 {
                break;
            }
            let waiting_from_ms = ms_since(t0);
            let mut now_ms = waiting_from_ms;
            let msg = if machine.past_deadline(now_ms) {
                Err(RecvTimeoutError::Timeout)
            } else if let Some(notice) = in_place.pop_front() {
                Ok(notice)
            } else {
                // A reply off a FIFO may already be in the channel; only a
                // client about to block needs to know when to wake.
                done_rx.try_recv().or_else(|_| {
                    let msg = match machine.next_wake_ms() {
                        Some(wake_ms) => done_rx.recv_timeout(Duration::from_secs_f64(
                            (wake_ms - now_ms).max(0.0) / 1_000.0,
                        )),
                        None => done_rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    now_ms = ms_since(t0);
                    msg
                })
            };
            let unanswered = match msg {
                Ok(Notice::Reply { attempt, served }) => {
                    if let Some(m) = metrics {
                        m.channel_wait.record((now_ms - waiting_from_ms) * 1_000.0);
                        merge_span = Some(SpanTimer::start(Arc::clone(&m.result_merge)));
                        // Dispatch → reply wall time, attributed to the
                        // replier and the contact mode it was serving.
                        let e = &machine.log()[attempt];
                        let latency_ms = now_ms - e.at_ms;
                        m.dispatch_hist(e.mode).record(latency_ms);
                        let si = &m.servers[e.server.index()];
                        si.dispatch_ms.record(latency_ms);
                        si.replies.inc();
                    }
                    machine.served(attempt, served.queue_us, served.compute_us);
                    let found = served.records.len();
                    if machine.reply(attempt, now_ms, &served.targets, found, &mut sends) {
                        records.extend(served.records);
                    }
                    0
                }
                Ok(Notice::Down { attempt }) => {
                    machine.target_down(attempt, now_ms, &mut sends) as usize
                }
                Err(RecvTimeoutError::Timeout) => machine.expire(now_ms, &mut sends),
                Err(RecvTimeoutError::Disconnected) => unreachable!("done_tx is still held"),
            };
            if let Some(m) = metrics {
                m.dispatch_timeout.add(unanswered as u64);
            }
        }

        let response_ms = ms_since(t0);
        let verdict = machine.finish();
        let outcome = RuntimeOutcome {
            response_ms,
            records,
            servers_contacted: verdict.responders,
            complete: verdict.complete,
            failed_servers: verdict.failed_servers,
            retries: verdict.retries,
        };
        self.finish(
            query,
            outcome,
            &verdict.log,
            ExplainDecision::Entry,
            want_explain,
        )
    }

    fn scaled_delay(&self, a: ServerId, b: ServerId) -> Duration {
        let ms = self.delays.delay_ms(a.index(), b.index()) * self.cfg.delay_scale;
        // Straggler injection: the slower endpoint's factor stretches the
        // whole hop (matching the netsim fault model).
        let f = self.board[a.index()]
            .slow_factor()
            .max(self.board[b.index()].slow_factor());
        Duration::from_micros((ms * 1000.0 * f) as u64)
    }

    /// Stop the cluster: its one thread (the timer) is joined, undelivered
    /// messages are discarded.
    pub fn shutdown(mut self) {
        self.dispatcher.shutdown();
    }
}

/// Milliseconds since `t0` — the contact log's clock.
fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1_000.0
}

/// One request against one server: which servers the client should
/// contact next, and this server's own matching records as its owner's
/// policy discloses them to `requester`. Knows nothing of time, queues or
/// threads.
fn step(
    state: &ServerState,
    net: &RoadsNetwork,
    query: &Query,
    mode: ContactMode,
    requester: RequesterId,
) -> (Vec<(ServerId, ContactMode)>, Vec<Record>) {
    let (search_local, targets) = net.route(state.id, query, mode, SearchScope::full());
    if !search_local {
        return (targets, Vec::new());
    }
    let found = match &state.search_hist {
        Some(h) => timed(h, || net.search_local(state.id, query)),
        None => net.search_local(state.id, query),
    };
    // The owner's final say: policy filters/redacts what actually leaves
    // this server.
    (
        targets,
        apply_policy(state.policy.as_ref(), requester, found),
    )
}

/// Deliver a request due now, under the target cell's lock: an idle server
/// runs the step in place (its reply returned, `compute_us` clocked only
/// when `clocked`); a busy one queues `queued()`; a dead one reads as
/// down. A step that panics retires the server and loses the reply.
fn deliver_now(
    cell: &Cell,
    query: &Query,
    mode: ContactMode,
    requester: RequesterId,
    attempt: usize,
    clocked: bool,
    queued: impl FnOnce() -> Request,
) -> Option<Notice> {
    let mut slot = cell.lock();
    let Some(server) = slot.as_mut() else {
        return Some(Notice::Down { attempt });
    };
    if server.in_service || !server.fifo.is_empty() {
        server.enqueue(queued());
        return None;
    }
    let work_t0 = clocked.then(Instant::now);
    let run = AssertUnwindSafe(|| server.work(query, mode, requester));
    let Ok((mut served, busy_us)) = catch_unwind(run) else {
        slot.take().expect("still Some").retire();
        return None;
    };
    if busy_us > 0 {
        let work_t0 = work_t0.unwrap_or_else(Instant::now);
        server.hold(cell, busy_us, queued().reply, served, work_t0);
        return None;
    }
    served.compute_us = work_t0.map_or(0.0, |t0| t0.elapsed().as_micros() as f64);
    Some(Notice::Reply { attempt, served })
}

/// Run `cell`'s server on its FIFO (the caller holds the cell's lock and
/// saw `Some`). A panic in the step or the owner's policy is a crashed
/// server, not a crashed deliverer: the incarnation ends as if killed.
fn serve(cell: &Cell, slot: &mut Option<Server>) {
    let run = AssertUnwindSafe(|| slot.as_mut().expect("caller saw Some").serve_queue(cell));
    if catch_unwind(run).is_err() {
        slot.take().expect("still Some").retire();
    }
}

impl Server {
    /// Queue `request`: the queue-wait clock starts at delivery, not at
    /// dispatch, which precedes the network delay.
    fn enqueue(&mut self, request: Request) {
        if let Some(g) = &self.gauges {
            g.queue_depth.add(1);
        }
        self.fifo.push_back((Instant::now(), request));
    }

    /// One request's work, in place or off the FIFO: the step, and the
    /// emulated backend + result-transfer cost it leaves to elapse (µs,
    /// stretched by the straggler factor when this server is slowed).
    fn work(&self, query: &Query, mode: ContactMode, requester: RequesterId) -> (Served, u64) {
        let mut served = Served::default();
        (served.targets, served.records) = step(&self.state, &self.net, query, mode, requester);
        let (cfg, records) = (&self.cfg, &served.records);
        let bytes = records.iter().map(WireSize::wire_size).sum();
        let busy_us = cfg.base_query_cost_us
            + cfg.per_record_retrieval_us * records.len() as u64
            + cfg.transfer_us(bytes);
        let slow = self.board[self.state.id.index()].slow_factor();
        (served, (busy_us as f64 * slow) as u64)
    }

    /// Put the server in service for `busy_us`: a deliverer never sleeps,
    /// so the cost ends as a timer event (on the timer thread: the caller
    /// holds this cell's lock) that sends `served` and serves the FIFO on.
    fn hold(&mut self, cell: &Cell, busy_us: u64, reply: ReplyHandle, served: Served, t0: Instant) {
        self.in_service = true;
        let finish = DispatchJob::Finish {
            cell: Arc::clone(cell),
            reply,
            served,
            work_t0: t0,
        };
        self.timer
            .schedule_after(Duration::from_micros(busy_us), finish);
    }

    /// Serve from the FIFO head until it is empty or a request's emulated
    /// backend cost puts the server in service.
    fn serve_queue(&mut self, cell: &Cell) {
        while let Some((delivered, req)) = self.fifo.pop_front() {
            if let Some(g) = &self.gauges {
                g.queue_depth.add(-1);
            }
            // Delivery → pickup is pure queue wait; everything from here
            // to the reply send is this server's compute (summary
            // evaluation + search + emulated backend cost).
            let queue_us = delivered.elapsed().as_micros() as f64;
            let work_t0 = Instant::now();
            let (mut served, busy_us) = self.work(&req.query, req.mode, req.requester);
            served.queue_us = queue_us;
            if busy_us == 0 {
                req.reply.send(served, work_t0);
                continue;
            }
            return self.hold(cell, busy_us, req.reply, served, work_t0);
        }
    }

    /// This incarnation is over — killed or crashed: it reads as dead on
    /// the board and the gauges, and dropping it drops every queued
    /// [`ReplyHandle`], so those clients time out.
    fn retire(self) {
        self.board[self.state.id.index()]
            .alive
            .store(false, Ordering::Relaxed);
        if let Some(g) = &self.gauges {
            g.alive.set(0);
            g.queue_depth.set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_core::RoadsConfig;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Schema, Value};
    use roads_summary::SummaryConfig;
    use roads_workload::line_records;
    use std::thread;

    fn test_net(n: usize) -> RoadsNetwork {
        let schema = Schema::unit_numeric(2);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(100),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                (0..20)
                    .map(|i| {
                        Record::new_unchecked(
                            RecordId((s * 20 + i) as u64),
                            OwnerId(s as u32),
                            vec![
                                Value::Float(s as f64 / n as f64),
                                Value::Float(i as f64 / 20.0),
                            ],
                        )
                    })
                    .collect()
            })
            .collect();
        RoadsNetwork::build(schema, cfg, records)
    }

    fn cluster(n: usize) -> RoadsCluster {
        RoadsCluster::start(
            test_net(n),
            DelaySpace::paper(n, 21),
            RuntimeConfig::test_fast(),
        )
    }

    #[test]
    fn live_query_finds_all_matches() {
        let c = cluster(9);
        let q = QueryBuilder::new(c.network().schema(), QueryId(1))
            .range("x0", 0.3, 0.6) // servers 3..=5 (values 3/9, 4/9, 5/9)
            .range("x1", 0.0, 1.0)
            .build();
        let expected: usize = c.network().matching_servers(&q).len() * 20;
        for start in [0u32, 4, 8] {
            let out = c.query(&q, ServerId(start));
            assert_eq!(out.records.len(), expected, "start={start}");
        }
        c.shutdown();
    }

    #[test]
    fn response_time_positive_and_bounded() {
        let c = cluster(6);
        let q = QueryBuilder::new(c.network().schema(), QueryId(2))
            .range("x0", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(2));
        assert!(out.records.len() == 6 * 20);
        assert!(out.response_ms > 0.0);
        assert!(out.response_ms < 10_000.0, "runaway response time");
        assert_eq!(out.servers_contacted, 6);
        c.shutdown();
    }

    #[test]
    fn healthy_cluster_reports_complete() {
        let c = cluster(6);
        let q = QueryBuilder::new(c.network().schema(), QueryId(7))
            .range("x0", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(0));
        assert!(out.complete, "no faults ⇒ provably complete");
        assert!(out.failed_servers.is_empty());
        assert_eq!(out.retries, 0);
        c.shutdown();
    }

    #[test]
    fn audit_counts_a_hollow_chain_all_the_way_up() {
        // The live counters read the explain plane's rule (`hollow_contacts`):
        // a branch reply is a live false positive when nothing in its whole
        // redirect subtree returned a record — both links of a two-level
        // hollow chain, not only its leaf.
        let reg = Registry::new();
        let c = RoadsCluster::start_with(
            test_net(13),
            DelaySpace::paper(13, 21),
            RuntimeConfig::test_fast(),
            Attachments::instrumented(&reg),
        );
        let tree = c.network().tree();
        let root = tree.root();
        let (hollow, fruitful) = (tree.children(root)[0], tree.children(root)[1]);
        let (hollow_leaf, fruitful_leaf) = (tree.children(hollow)[0], tree.children(fruitful)[0]);
        let q = QueryBuilder::new(c.network().schema(), QueryId(1))
            .range("x0", 0.0, 1.0)
            .build();
        let contact = |server, mode, caused_by, local_matches| TraceEvent {
            local_matches,
            outcome: HopOutcome::Replied,
            ..TraceEvent::begun(server, 0.0, mode, caused_by)
        };
        let branch = ContactMode::Branch;
        let mut log = vec![
            contact(root, ContactMode::Entry, None, 0),
            contact(hollow, branch, Some(0), 0),
            contact(fruitful, branch, Some(0), 0),
            contact(hollow_leaf, branch, Some(1), 0),
            contact(fruitful_leaf, branch, Some(2), 3),
        ];
        let outcome = |log: &[TraceEvent]| RuntimeOutcome {
            response_ms: 1.0,
            records: Vec::new(),
            servers_contacted: log.len(),
            complete: true,
            failed_servers: Vec::new(),
            retries: 0,
        };
        let live = |reg: &Registry| {
            let counters = reg.snapshot().counters;
            let sum = |family: &str| -> u64 {
                let prefix = format!("{family}{{");
                (counters.iter())
                    .filter(|(name, _)| name.starts_with(&prefix))
                    .map(|(_, &v)| v)
                    .sum()
            };
            (sum("audit.live_probes"), sum("audit.live_false_positives"))
        };
        c.finish(&q, outcome(&log), &log, ExplainDecision::Entry, false);
        assert_eq!(live(&reg), (4, 2), "four branch replies, two hollow");

        // An unanswered leaf may have held records: it is no reply to
        // count, and it clears the branch that forwarded to it.
        log[3].outcome = HopOutcome::TimedOut;
        c.finish(&q, outcome(&log), &log, ExplainDecision::Entry, false);
        assert_eq!(live(&reg), (4 + 3, 2), "three more replies, none hollow");
        c.shutdown();
    }

    #[test]
    fn concurrent_queries_supported() {
        let c = Arc::new(cluster(6));
        let q = QueryBuilder::new(c.network().schema(), QueryId(3))
            .range("x0", 0.0, 1.0)
            .build();
        let mut handles = Vec::new();
        for start in 0..4u32 {
            let c = Arc::clone(&c);
            let q = q.clone();
            handles.push(thread::spawn(move || {
                c.query(&q, ServerId(start)).records.len()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 120);
        }
    }

    #[test]
    fn inflight_gate_blocks_past_capacity() {
        let gate = Arc::new(InflightGate::new(2));
        assert_eq!(gate.acquire(), 1);
        assert_eq!(gate.acquire(), 2);
        let (tx, rx) = unbounded::<usize>();
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let n = gate.acquire();
                tx.send(n).unwrap();
            })
        };
        // The third acquire must be parked, not admitted.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        gate.release();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 2);
        waiter.join().unwrap();
        gate.release();
        gate.release();
        assert_eq!(gate.acquire(), 1, "all slots returned");
    }

    #[test]
    fn unbounded_gate_never_blocks() {
        let gate = InflightGate::new(0);
        for i in 1..=64 {
            assert_eq!(gate.acquire(), i);
        }
    }

    #[test]
    fn gated_cluster_serves_many_concurrent_clients() {
        let n = 9;
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        };
        let net = RoadsNetwork::build(schema, cfg, line_records(n, 1));
        let reg = Registry::new();
        let c = Arc::new(RoadsCluster::start_with(
            net,
            DelaySpace::paper(n, 5),
            RuntimeConfig {
                max_inflight_queries: 2,
                ..RuntimeConfig::test_fast()
            },
            Attachments::instrumented(&reg),
        ));
        let q = QueryBuilder::new(c.network().schema(), QueryId(30))
            .range("x0", 0.0, 1.0)
            .build();
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let c = Arc::clone(&c);
                let q = q.clone();
                thread::spawn(move || c.query(&q, ServerId(i % n as u32)))
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(out.records.len(), n);
            assert!(out.complete);
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauges["runtime.inflight_queries"], 0,
            "every admitted query released its slot"
        );
    }

    #[test]
    fn policies_enforced_per_owner() {
        use roads_core::policy::TieredPolicy;
        // 4 servers; server 2's owner withholds everything from the
        // public but shares with partner 42.
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 2,
            summary: SummaryConfig::with_buckets(50),
            ..RoadsConfig::paper_default()
        };
        let net = RoadsNetwork::build(schema.clone(), cfg, line_records(4, 1));
        let mut policies: Vec<Arc<dyn roads_core::policy::SharingPolicy>> = (0..4)
            .map(|_| Arc::new(roads_core::policy::OpenPolicy) as Arc<_>)
            .collect();
        // Member-tier default + no allowlisted members ⇒ public sees nothing.
        policies[2] = Arc::new(TieredPolicy::new([roads_core::policy::RequesterId(42)], []));
        let c = RoadsCluster::start_with(
            net,
            DelaySpace::paper(4, 3),
            RuntimeConfig::test_fast(),
            Attachments {
                policies: Some(policies),
                ..Attachments::default()
            },
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(9))
            .range("x0", 0.0, 1.0)
            .build();
        let anon = c.query(&q, ServerId(0));
        assert_eq!(anon.records.len(), 3, "server 2 withholds from the public");
        let (partner, _) = c.query_with(&q, ServerId(0), RequesterId(42), false);
        assert_eq!(partner.records.len(), 4, "partner sees everything");
        c.shutdown();
    }

    #[test]
    fn quota_caps_what_one_owner_hands_out() {
        use roads_core::policy::{Disclosure, QuotaPolicy, TrustClass};
        /// Shares everything; knows requester 42 as a partner.
        struct Partner42;
        impl SharingPolicy for Partner42 {
            fn classify(&self, requester: RequesterId) -> TrustClass {
                match requester {
                    RequesterId(42) => TrustClass::Partner,
                    _ => TrustClass::Public,
                }
            }
            fn disclose(&self, _: TrustClass, _: &Record) -> Disclosure {
                Disclosure::Full
            }
        }
        // 4 servers of 20 records; server 1's owner hands anyone below a
        // partner at most 3 of them per query.
        let mut policies: Vec<Arc<dyn SharingPolicy>> =
            (0..4).map(|_| Arc::new(OpenPolicy) as Arc<_>).collect();
        policies[1] = Arc::new(QuotaPolicy::new(Partner42, 3, TrustClass::Partner));
        let c = RoadsCluster::start_with(
            test_net(4),
            DelaySpace::paper(4, 3),
            RuntimeConfig::test_fast(),
            Attachments {
                policies: Some(policies),
                ..Attachments::default()
            },
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(9))
            .range("x0", 0.0, 1.0)
            .build();
        let from_1_and_others = |out: &RuntimeOutcome| {
            let n = out.records.iter().filter(|r| r.owner == OwnerId(1)).count();
            (n, out.records.len() - n)
        };
        let anon = c.query(&q, ServerId(0));
        assert_eq!(from_1_and_others(&anon), (3, 60), "capped at server 1 only");
        assert!(anon.complete, "a policy decision is not a fault");
        let (partner, _) = c.query_with(&q, ServerId(0), RequesterId(42), false);
        assert_eq!(from_1_and_others(&partner), (20, 60), "partners are exempt");
        c.shutdown();
    }

    #[test]
    fn instrumented_cluster_records_phase_spans() {
        let n = 9;
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(100),
            ..RoadsConfig::paper_default()
        };
        let net = RoadsNetwork::build(schema, cfg, line_records(n, 1));
        let reg = Registry::new();
        let c = RoadsCluster::start_with(
            net,
            DelaySpace::paper(n, 5),
            RuntimeConfig::test_fast(),
            Attachments::instrumented(&reg),
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(11))
            .range("x0", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(0));
        assert_eq!(out.records.len(), n);
        c.shutdown();
        let snap = reg.snapshot();
        // Every contacted server searched its store once; the client waited
        // on and merged one reply per server.
        assert_eq!(snap.histograms["runtime.local_search_us"].count, n);
        assert_eq!(snap.histograms["runtime.channel_wait_us"].count, n);
        assert_eq!(snap.histograms["runtime.result_merge_us"].count, n);
        assert!(snap.histograms["runtime.channel_wait_us"].max > 0.0);
    }

    #[test]
    fn recorded_live_query_builds_wall_clock_span_tree() {
        use roads_telemetry::{span_tree_root, trace_events, EventKind};
        let rec = Arc::new(Recorder::new(1024));
        let c = RoadsCluster::start_with(
            test_net(9),
            DelaySpace::paper(9, 21),
            RuntimeConfig::test_fast(),
            Attachments {
                recorder: Some(Arc::clone(&rec)),
                ..Attachments::default()
            },
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(5))
            .range("x0", 0.0, 1.0)
            .range("x1", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(4));
        assert_eq!(out.records.len(), 9 * 20);
        let events = rec.events();
        let tev = trace_events(&events, TraceId(1));
        let root = span_tree_root(&tev, TraceId(1)).expect("valid span tree");
        let hops: Vec<_> = tev
            .iter()
            .filter(|e| e.kind == EventKind::QueryHop)
            .collect();
        assert_eq!(hops.len(), out.servers_contacted);
        let root_hop = hops.iter().find(|e| e.span == root).unwrap();
        assert_eq!(root_hop.node, 4, "rooted at the entry server");
        assert!(
            hops.iter().all(|e| e.dur_us >= 1),
            "hop spans carry wall-clock durations"
        );
        let total: u64 = hops.iter().map(|e| e.detail).sum();
        assert_eq!(total, (9 * 20) as u64, "hop details sum to records");
        assert!(tev
            .iter()
            .any(|e| e.kind == EventKind::QueryComplete && e.detail == (9 * 20) as u64));
        c.shutdown();
    }

    #[test]
    fn narrow_query_contacts_few_servers() {
        let c = cluster(9);
        let q = QueryBuilder::new(c.network().schema(), QueryId(4))
            .range("x0", 0.32, 0.34) // exactly server 3 (3/9 ≈ 0.333)
            .build();
        let out = c.query(&q, ServerId(3));
        assert_eq!(out.records.len(), 20);
        assert!(
            out.servers_contacted < 9,
            "summaries should prune most servers"
        );
        c.shutdown();
    }

    #[test]
    fn kill_and_restart_round_trip() {
        let c = cluster(6);
        let victim = ServerId(3);
        assert!(c.is_alive(victim));
        assert!(c.kill_server(victim));
        assert!(!c.is_alive(victim));
        assert!(!c.kill_server(victim), "double kill is a no-op");
        assert!(!c.restart_server(ServerId(0)), "running server: no-op");
        assert!(c.restart_server(victim));
        assert!(c.is_alive(victim));
        // The restarted server serves its reloaded records again.
        let q = QueryBuilder::new(c.network().schema(), QueryId(21))
            .range("x0", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(0));
        assert_eq!(out.records.len(), 6 * 20);
        assert!(out.complete);
        c.shutdown();
    }

    /// Regression companion of `fault_injection.rs::
    /// crashed_server_reads_dead_and_restarts` for the instrumented
    /// planes.
    #[test]
    fn crash_shows_in_health_and_gauges() {
        use roads_core::policy::{Disclosure, TrustClass};
        struct PanicPolicy;
        impl SharingPolicy for PanicPolicy {
            fn classify(&self, _requester: RequesterId) -> TrustClass {
                panic!("owner backend crashed (injected)")
            }
            fn disclose(&self, _class: TrustClass, _record: &Record) -> Disclosure {
                Disclosure::Full
            }
        }
        let n = 6;
        let victim = ServerId(4);
        let mut policies: Vec<Arc<dyn SharingPolicy>> = (0..n)
            .map(|_| Arc::new(OpenPolicy) as Arc<dyn SharingPolicy>)
            .collect();
        policies[victim.index()] = Arc::new(PanicPolicy);
        let reg = Registry::new();
        let c = RoadsCluster::start_with(
            test_net(n),
            DelaySpace::paper(n, 21),
            RuntimeConfig::test_faulty(),
            Attachments {
                policies: Some(policies),
                ..Attachments::instrumented(&reg)
            },
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(70))
            .range("x0", 0.0, 1.0)
            .build();
        let out = c.query(&q, ServerId(0));
        assert_eq!(out.failed_servers, vec![victim]);

        let health = c.health().expect("instrumented");
        assert_eq!(health.alive_count(), n - 1);
        let row = &health.servers[victim.index()];
        assert!(!row.alive);
        assert_eq!(row.queue_depth, 0, "a crash resets the queue gauge");
        let alive = roads_telemetry::labeled("runtime.server.alive", &[("server", "4")]);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges[&alive], 0);
        assert_eq!(
            snap.counters[&roads_telemetry::labeled("runtime.fault_events", &[("kind", "kill")])],
            0,
            "a crash is not an injected kill"
        );

        assert!(c.restart_server(victim));
        assert_eq!(reg.snapshot().gauges[&alive], 1);
        assert_eq!(c.health().unwrap().alive_count(), n);
        c.shutdown();
    }

    #[test]
    fn cache_replays_repeats_and_invalidates_on_round_advance() {
        let reg = Registry::new();
        let c = RoadsCluster::start_with(
            test_net(9),
            DelaySpace::paper(9, 21),
            RuntimeConfig {
                cache_ttl_rounds: 1,
                ..RuntimeConfig::test_fast()
            },
            Attachments::instrumented(&reg),
        );
        let q = QueryBuilder::new(c.network().schema(), QueryId(40))
            .range("x0", 0.0, 1.0)
            .build();
        let first = c.query(&q, ServerId(4));
        assert!(first.complete);
        assert_eq!(first.records.len(), 9 * 20);

        let (second, explain) = c.query_with(&q, ServerId(4), RequesterId(0), true);
        let explain = explain.expect("explain was requested");
        assert_eq!(
            second.records.len(),
            first.records.len(),
            "replay is verbatim"
        );
        assert_eq!(second.servers_contacted, 1, "served by the entry alone");
        assert!(second.complete);
        assert_eq!(explain.hops.len(), 1);
        assert_eq!(explain.hops[0].decision, ExplainDecision::CacheHit);
        assert_eq!(explain.hops[0].local_matches, (9 * 20) as u64);

        // Different requester ⇒ different key (policy-filtered results
        // may differ), so no replay.
        let (other, _) = c.query_with(&q, ServerId(4), RequesterId(7), false);
        assert!(other.servers_contacted > 1);

        // An update round ages the ttl=1 entries out.
        let purged = c.advance_cache_round();
        assert!(purged >= 1, "round advance must purge the cached answers");
        let third = c.query(&q, ServerId(4));
        assert!(third.servers_contacted > 1, "expired ⇒ re-executed");

        let cache = c.result_cache().expect("cache enabled");
        assert_eq!(cache.hits(), 1);
        assert!(cache.hit_rate() > 0.0);
        assert_eq!(reg.counter("roads.cache.hits").get(), 1);
        assert_eq!(reg.counter("roads.cache.misses").get(), 3);
        assert_eq!(reg.counter("roads.cache.expired").get(), purged);
        assert_eq!(
            reg.counter("roads.cache.invalidated").get(),
            0,
            "TTL aging must not count as delta invalidation"
        );
        c.shutdown();
    }

    #[test]
    fn observed_delta_round_feeds_metrics_and_invalidates_stale_entries() {
        use roads_records::{OwnerId, RecordId, Value};

        // Apply the delta to a network copy *before* the cluster starts —
        // the simulation plane owns network mutation; the cluster observes.
        let mut net = test_net(9);
        let mut delta = roads_core::RecordDelta::new();
        delta.insert(
            ServerId(8),
            roads_records::Record::new_unchecked(
                RecordId(5_000),
                OwnerId(8),
                vec![Value::Float(0.42), Value::Float(0.42)],
            ),
        );
        let outcome = net.apply(&delta);

        let reg = Registry::new();
        let c = RoadsCluster::start_with(
            net,
            DelaySpace::paper(9, 21),
            RuntimeConfig {
                cache_ttl_rounds: 10,
                ..RuntimeConfig::test_fast()
            },
            Attachments::instrumented(&reg),
        );
        // Cache a query the delta touches and one it provably cannot.
        let hit_q = QueryBuilder::new(c.network().schema(), QueryId(50))
            .range("x0", 0.40, 0.44)
            .build();
        let miss_q = QueryBuilder::new(c.network().schema(), QueryId(51))
            .range("x0", 0.60, 0.61)
            .build();
        let _ = c.query(&hit_q, ServerId(2));
        let _ = c.query(&miss_q, ServerId(2));
        let cache = c.result_cache().expect("cache enabled");
        assert_eq!(cache.len(), 2);

        let purged = c.observe_delta_round(&outcome);
        assert_eq!(purged, 1, "only the delta-matching entry is purged");
        assert_eq!(reg.counter("roads.cache.invalidated").get(), 1);
        assert_eq!(reg.counter("roads.cache.expired").get(), 0);
        assert_eq!(reg.counter("roads.delta.changes_applied").get(), 1);
        assert_eq!(reg.counter("roads.delta.changes_rejected").get(), 0);
        assert_eq!(reg.counter("roads.delta.dirty_servers").get(), 1);
        assert_eq!(
            reg.counter("roads.delta.dirty_branches").get(),
            outcome.dirty_branches.len() as u64
        );
        // The surviving entry still replays from cache.
        let replay = c.query(&miss_q, ServerId(2));
        assert_eq!(replay.servers_contacted, 1, "unaffected entry stays hot");
        c.shutdown();
    }

    #[test]
    fn inverted_range_query_leaves_every_server_alive() {
        // Regression: an inverted range made `RecordStore::search` slice
        // its index backwards and panic, killing the server. The store's
        // own tests pin the search; here every entry routes the query.
        let n = 9;
        let c = RoadsCluster::start(
            test_net(n),
            DelaySpace::paper(n, 21),
            RuntimeConfig::test_faulty(),
        );
        let inverted = QueryBuilder::new(c.network().schema(), QueryId(60))
            .range("x1", 0.8, 0.2)
            .build();
        let everything = QueryBuilder::new(c.network().schema(), QueryId(61))
            .range("x1", 0.0, 1.0)
            .build();
        for start in 0..n as u32 {
            let out = c.query(&inverted, ServerId(start));
            assert!(
                out.complete,
                "entry {start}: an empty range is a full answer"
            );
            assert!(out.records.is_empty());
            assert!(out.failed_servers.is_empty());
        }
        for s in 0..n as u32 {
            assert!(c.is_alive(ServerId(s)));
        }
        // Every entry still serves.
        let out = c.query(&everything, ServerId(0));
        assert!(out.complete);
        assert_eq!(out.records.len(), n * 20);
        c.shutdown();
    }

    #[test]
    fn query_on_an_attribute_outside_the_schema_leaves_every_server_alive() {
        // Regression, sibling of the inverted range: `Query::new` takes no
        // schema, so a predicate can name an attribute the federation
        // does not have, and the store's search indexed out of bounds. The
        // store's own tests pin the search; here every entry routes the
        // query, and the summaries answer "no match" for it.
        use roads_records::{AttrId, Predicate, Query};
        let n = 9;
        let c = RoadsCluster::start(
            test_net(n),
            DelaySpace::paper(n, 21),
            RuntimeConfig::test_faulty(),
        );
        let stray = AttrId(7);
        let predicates = [
            Predicate::Range {
                attr: stray,
                lo: 0.0,
                hi: 1.0,
            },
            Predicate::Eq {
                attr: stray,
                value: Value::Float(0.5),
            },
            Predicate::OneOf {
                attr: stray,
                values: vec!["camera".to_owned()],
            },
        ];
        for (i, p) in predicates.into_iter().enumerate() {
            let query = Query::new(QueryId(70 + i as u64), vec![p]);
            for start in 0..n as u32 {
                let out = c.query(&query, ServerId(start));
                assert!(out.complete, "entry {start}: nothing matches, fully");
                assert!(out.records.is_empty());
                assert!(out.failed_servers.is_empty(), "{query:?}");
            }
        }
        for s in 0..n as u32 {
            assert!(c.is_alive(ServerId(s)));
        }
        c.shutdown();
    }
}
