//! Live cluster health: instrument bundle and snapshot API.
//!
//! An instrumented [`crate::RoadsCluster`] pre-resolves every instrument
//! here at startup (`RuntimeMetrics::new`), so all metric families are
//! present in a scrape from the first moment (counters at 0) and the hot
//! query path never touches the registry's name map — only the `Arc`'d
//! instruments themselves.
//!
//! Naming follows the exposition label convention
//! ([`roads_telemetry::labeled`]): per-server series are
//! `runtime.server.<what>{server="N"}`, per-mode dispatch latency is
//! `runtime.dispatch_latency_ms{mode="entry"|...}`, and fault events are
//! one counter family `runtime.fault_events{kind="kill"|"restart"}` so a
//! kill/restart/failover storm shows up as labeled series on one chart.
//!
//! [`ClusterHealth`] is the pull API: a consistent-enough point-in-time
//! table of per-server liveness, queue depth, reply count and
//! dispatch p99 that tests assert on directly, and that `roads-inspect
//! health` rebuilds from a saved scrape ([`ClusterHealth::from_scrape`]).

use crate::cluster::ContactMode;
use parking_lot::Mutex;
use roads_core::ServerId;
use roads_telemetry::{labeled, Counter, Gauge, Histogram, Registry, Scrape, ScrapeFamily};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The exposition label for a contact mode.
pub(crate) fn mode_label(mode: ContactMode) -> &'static str {
    match mode {
        ContactMode::Entry => "entry",
        ContactMode::Branch => "branch",
        ContactMode::LocalOnly => "local_only",
        ContactMode::Failover { .. } => "failover",
    }
}

/// Per-server instruments, labeled `{server="N"}`.
#[derive(Debug, Clone)]
pub(crate) struct ServerInstruments {
    /// `runtime.server.alive`: 1 while the server is up, 0 after a kill
    /// or crash (until restart).
    pub alive: Arc<Gauge>,
    /// `runtime.server.queue_depth`: requests delivered to the server and
    /// waiting in its FIFO — incremented at delivery, decremented at
    /// pickup, reset on kill/crash/restart (a dead server drops its
    /// queue).
    pub queue_depth: Arc<Gauge>,
    /// `runtime.server.dispatch_latency_ms`: dispatch → reply wall time
    /// for sub-queries answered by this server.
    pub dispatch_ms: Arc<Histogram>,
    /// `runtime.server.replies`: replies received from this server.
    pub replies: Arc<Counter>,
}

/// Every instrument an instrumented cluster records into, pre-resolved.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeMetrics {
    // Phase timers (wall-clock µs, aggregated across servers/queries).
    pub local_search: Arc<Histogram>,
    pub channel_wait: Arc<Histogram>,
    pub result_merge: Arc<Histogram>,
    /// `runtime.timer_lag_us`: how long after its due time the timer
    /// thread ran each matured job. With modelled delay every delivery —
    /// and so every server step — runs on that one thread; a growing lag
    /// is the sign it has become the bottleneck.
    pub timer_lag: Arc<Histogram>,
    /// `runtime.inflight_queries`: queries admitted past the gate.
    pub inflight: Arc<Gauge>,
    /// `runtime.queries`: queries completed (any outcome).
    pub queries: Arc<Counter>,
    /// `runtime.incomplete_queries`: completed with `complete = false`.
    pub incomplete: Arc<Counter>,
    /// `runtime.deadline_miss`: queries cut short by the query deadline.
    pub deadline_miss: Arc<Counter>,
    /// `runtime.dispatch_timeouts`: per-dispatch timeouts (incl. targets
    /// found dead and deadline closures).
    pub dispatch_timeout: Arc<Counter>,
    /// `runtime.retries`: re-dispatches after a timeout.
    pub retries: Arc<Counter>,
    /// `runtime.failovers`: overlay stand-ins nominated for dead servers.
    pub failovers: Arc<Counter>,
    /// `runtime.slo_violations`: queries slower than
    /// [`crate::RuntimeConfig::slo_response_ms`] (SLO burn counter).
    pub slo_violation: Arc<Counter>,
    /// `runtime.query_response_ms`: end-to-end query response time.
    pub response_ms: Arc<Histogram>,
    /// `runtime.dispatch_latency_ms{mode=...}`, indexed entry, branch,
    /// local_only, failover.
    pub dispatch_by_mode: [Arc<Histogram>; 4],
    /// `runtime.fault_events{kind="kill"}`.
    pub kills: Arc<Counter>,
    /// `runtime.fault_events{kind="restart"}`.
    pub restarts: Arc<Counter>,
    /// `runtime.fault_events{kind="slow"}`: straggler injections.
    pub slows: Arc<Counter>,
    /// `runtime.fault_events{kind="restore"}`: stragglers restored.
    pub restores: Arc<Counter>,
    /// `roads.cache.hits`: queries answered from the TTL'd result cache.
    pub cache_hits: Arc<Counter>,
    /// `roads.cache.misses`: cache lookups that fell through to execution
    /// (only counted while the cache is enabled).
    pub cache_misses: Arc<Counter>,
    /// `roads.cache.expired`: cached results that aged past the TTL on a
    /// [`crate::RoadsCluster::advance_cache_round`] epoch advance.
    pub cache_expired: Arc<Counter>,
    /// `roads.cache.invalidated`: cached results purged because an applied
    /// record delta could have changed their answer.
    pub cache_invalidated: Arc<Counter>,
    /// `roads.delta.changes_applied`: record changes applied by deltas.
    pub delta_applied: Arc<Counter>,
    /// `roads.delta.changes_rejected`: delta changes that matched nothing
    /// (removal of an absent record id).
    pub delta_rejected: Arc<Counter>,
    /// `roads.delta.dirty_servers`: servers whose local summaries a delta
    /// round refreshed.
    pub delta_dirty_servers: Arc<Counter>,
    /// `roads.delta.dirty_branches`: branch summaries a delta round
    /// recomputed (the dirty ancestor closure).
    pub delta_dirty_branches: Arc<Counter>,
    /// `roads.delta.shard_rebuilds`: local summaries re-aggregated from
    /// raw records because a removal could not be unlearned exactly (at
    /// most one per server per round).
    pub delta_shard_rebuilds: Arc<Counter>,
    /// Per-server instruments, indexed by `ServerId::index`.
    pub servers: Vec<ServerInstruments>,
}

impl RuntimeMetrics {
    /// Resolve (and thereby declare) every instrument for an `n`-server
    /// cluster in `reg`.
    pub fn new(reg: &Registry, n: usize) -> Self {
        let mode_hist = |m: ContactMode| {
            reg.histogram(&labeled(
                "runtime.dispatch_latency_ms",
                &[("mode", mode_label(m))],
            ))
        };
        let servers = (0..n)
            .map(|s| {
                let id = s.to_string();
                let lbl = [("server", id.as_str())];
                let si = ServerInstruments {
                    alive: reg.gauge(&labeled("runtime.server.alive", &lbl)),
                    queue_depth: reg.gauge(&labeled("runtime.server.queue_depth", &lbl)),
                    dispatch_ms: reg
                        .histogram(&labeled("runtime.server.dispatch_latency_ms", &lbl)),
                    replies: reg.counter(&labeled("runtime.server.replies", &lbl)),
                };
                si.alive.set(1);
                si
            })
            .collect();
        RuntimeMetrics {
            local_search: reg.histogram("runtime.local_search_us"),
            channel_wait: reg.histogram("runtime.channel_wait_us"),
            result_merge: reg.histogram("runtime.result_merge_us"),
            timer_lag: reg.histogram("runtime.timer_lag_us"),
            inflight: reg.gauge("runtime.inflight_queries"),
            queries: reg.counter("runtime.queries"),
            incomplete: reg.counter("runtime.incomplete_queries"),
            deadline_miss: reg.counter("runtime.deadline_miss"),
            dispatch_timeout: reg.counter("runtime.dispatch_timeouts"),
            retries: reg.counter("runtime.retries"),
            failovers: reg.counter("runtime.failovers"),
            slo_violation: reg.counter("runtime.slo_violations"),
            response_ms: reg.histogram("runtime.query_response_ms"),
            dispatch_by_mode: [
                mode_hist(ContactMode::Entry),
                mode_hist(ContactMode::Branch),
                mode_hist(ContactMode::LocalOnly),
                mode_hist(ContactMode::Failover {
                    dead: ServerId(u32::MAX), // label only; dead id unused
                }),
            ],
            kills: reg.counter(&labeled("runtime.fault_events", &[("kind", "kill")])),
            restarts: reg.counter(&labeled("runtime.fault_events", &[("kind", "restart")])),
            slows: reg.counter(&labeled("runtime.fault_events", &[("kind", "slow")])),
            restores: reg.counter(&labeled("runtime.fault_events", &[("kind", "restore")])),
            cache_hits: reg.counter("roads.cache.hits"),
            cache_misses: reg.counter("roads.cache.misses"),
            cache_expired: reg.counter("roads.cache.expired"),
            cache_invalidated: reg.counter("roads.cache.invalidated"),
            delta_applied: reg.counter("roads.delta.changes_applied"),
            delta_rejected: reg.counter("roads.delta.changes_rejected"),
            delta_dirty_servers: reg.counter("roads.delta.dirty_servers"),
            delta_dirty_branches: reg.counter("roads.delta.dirty_branches"),
            delta_shard_rebuilds: reg.counter("roads.delta.shard_rebuilds"),
            servers,
        }
    }

    /// The dispatch-latency histogram for `mode`.
    pub fn dispatch_hist(&self, mode: ContactMode) -> &Arc<Histogram> {
        let i = match mode {
            ContactMode::Entry => 0,
            ContactMode::Branch => 1,
            ContactMode::LocalOnly => 2,
            ContactMode::Failover { .. } => 3,
        };
        &self.dispatch_by_mode[i]
    }
}

/// The kind of an injected fault, as logged for incident correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Server torn down ([`crate::RoadsCluster::kill_server`]).
    Kill,
    /// Server brought back ([`crate::RoadsCluster::restart_server`]).
    Restart,
    /// Straggler injected ([`crate::RoadsCluster::slow_server`]).
    Slow,
    /// Straggler restored ([`crate::RoadsCluster::restore_server`]).
    Restore,
}

impl FaultKind {
    /// The exposition / artifact label for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Restart => "restart",
            FaultKind::Slow => "slow",
            FaultKind::Restore => "restore",
        }
    }

    /// Whether this kind marks a fault *onset* (kill/slow) rather than a
    /// recovery (restart/restore).
    pub fn is_onset(self) -> bool {
        matches!(self, FaultKind::Kill | FaultKind::Slow)
    }

    /// Inverse of [`as_str`](FaultKind::as_str), for artifact parsers.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "kill" => Some(FaultKind::Kill),
            "restart" => Some(FaultKind::Restart),
            "slow" => Some(FaultKind::Slow),
            "restore" => Some(FaultKind::Restore),
            _ => None,
        }
    }

    /// The recovery kind that clears this onset (`None` for recoveries).
    pub fn clears_with(self) -> Option<FaultKind> {
        match self {
            FaultKind::Kill => Some(FaultKind::Restart),
            FaultKind::Slow => Some(FaultKind::Restore),
            _ => None,
        }
    }
}

/// One injected-fault event with its wall-clock onset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault was injected.
    pub at: Instant,
    /// The faulted server.
    pub server: ServerId,
    /// What happened to it.
    pub kind: FaultKind,
    /// Straggler factor for `Slow` events; 1.0 otherwise.
    pub factor: f64,
}

/// A timestamped log of injected faults (kills, restarts, stragglers),
/// shared between the cluster (writer) and the watchdog (reader): the
/// `runtime.fault_events` counters say *how many* faults happened, this
/// log says *when* and *to whom*, which is what incident correlation
/// and detection-latency measurement need.
#[derive(Debug, Default)]
pub struct FaultLog {
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event stamped now.
    pub fn record(&self, server: ServerId, kind: FaultKind, factor: f64) {
        self.events.lock().push(FaultEvent {
            at: Instant::now(),
            server,
            kind,
            factor,
        });
    }

    /// A snapshot of every event logged so far, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

/// Point-in-time health of one server, from [`ClusterHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerHealth {
    /// The server.
    pub server: ServerId,
    /// Whether it is up (neither killed nor crashed since its last start).
    pub alive: bool,
    /// Requests waiting in its FIFO right now.
    pub queue_depth: i64,
    /// Replies received from it since cluster start.
    pub replies: u64,
    /// p99 of dispatch → reply wall time, ms; `None` before any reply.
    pub dispatch_p99_ms: Option<f64>,
}

/// A point-in-time health snapshot of a live instrumented cluster
/// ([`crate::RoadsCluster::health`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterHealth {
    /// Per-server rows, ascending by id.
    pub servers: Vec<ServerHealth>,
    /// Queries currently admitted past the inflight gate.
    pub inflight_queries: i64,
    /// Queries completed.
    pub queries: u64,
    /// Re-dispatches after timeouts.
    pub retries: u64,
    /// Queries cut short by the deadline.
    pub deadline_misses: u64,
    /// Overlay stand-ins nominated.
    pub failovers: u64,
}

impl ClusterHealth {
    /// Number of servers currently alive.
    pub fn alive_count(&self) -> usize {
        self.servers.iter().filter(|s| s.alive).count()
    }

    /// Rebuild the table from an OpenMetrics scrape of an instrumented
    /// cluster. A scrape keeps only bucket edges, so a server's dispatch
    /// p99 is the first edge whose cumulative count reaches 99 % of its
    /// samples: never below what [`crate::RoadsCluster::health`] reports,
    /// which clamps the same edge to the recorded min and max.
    pub fn from_scrape(scrape: &Scrape) -> Result<ClusterHealth, String> {
        let alive = scrape
            .family("runtime_server_alive")
            .ok_or("no runtime_server_alive series — not an instrumented-cluster scrape")?;
        let value = |family: &str, suffix: &str, want: &[(&str, &str)]| {
            scrape
                .family(family)
                .and_then(|f| f.sample_with(suffix, want))
                .map_or(0.0, |s| s.value)
        };
        let mut ids: Vec<u32> = alive
            .samples
            .iter()
            .filter_map(|s| s.label("server")?.parse().ok())
            .collect();
        ids.sort_unstable();
        let servers = ids
            .into_iter()
            .map(|id| {
                let lbl = id.to_string();
                let at = [("server", lbl.as_str())];
                ServerHealth {
                    server: ServerId(id),
                    alive: value("runtime_server_alive", "", &at) != 0.0,
                    queue_depth: value("runtime_server_queue_depth", "", &at) as i64,
                    replies: value("runtime_server_replies", "_total", &at) as u64,
                    dispatch_p99_ms: scrape
                        .family("runtime_server_dispatch_latency_ms")
                        .and_then(|f| bucket_p99(f, &lbl)),
                }
            })
            .collect();
        Ok(ClusterHealth {
            servers,
            inflight_queries: value("runtime_inflight_queries", "", &[]) as i64,
            queries: value("runtime_queries", "_total", &[]) as u64,
            retries: value("runtime_retries", "_total", &[]) as u64,
            deadline_misses: value("runtime_deadline_miss", "_total", &[]) as u64,
            failovers: value("runtime_failovers", "_total", &[]) as u64,
        })
    }
}

/// p99 of one server's cumulative `_bucket` samples in `family`: the
/// smallest `le` edge whose count reaches 99 % of the `+Inf` total.
fn bucket_p99(family: &ScrapeFamily, server: &str) -> Option<f64> {
    let buckets: Vec<(f64, f64)> = family
        .samples
        .iter()
        .filter(|s| s.name.ends_with("_bucket") && s.label("server") == Some(server))
        .filter_map(|s| {
            let edge = match s.label("le")? {
                "+Inf" => f64::INFINITY,
                le => le.parse().ok()?,
            };
            Some((edge, s.value))
        })
        .collect();
    let total = buckets.last()?.1;
    if total == 0.0 {
        return None;
    }
    buckets
        .iter()
        .find(|&&(_, c)| c >= 0.99 * total)
        .map(|&(le, _)| le)
}

impl fmt::Display for ClusterHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster: {}/{} alive, {} inflight, {} queries ({} retries, {} deadline misses, {} failovers)",
            self.alive_count(),
            self.servers.len(),
            self.inflight_queries,
            self.queries,
            self.retries,
            self.deadline_misses,
            self.failovers,
        )?;
        writeln!(
            f,
            "{:>6} {:>6} {:>7} {:>8} {:>14}",
            "server", "alive", "queue", "replies", "dispatch p99"
        )?;
        for s in &self.servers {
            writeln!(
                f,
                "{:>6} {:>6} {:>7} {:>8} {:>14}",
                s.server.0,
                if s.alive { "up" } else { "DOWN" },
                s.queue_depth,
                s.replies,
                match s.dispatch_p99_ms {
                    Some(p) => format!("{p:.1} ms"),
                    None => "-".to_string(),
                },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_declare_families_at_startup() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 3);
        assert_eq!(m.servers.len(), 3);
        let counters = reg.counter_values();
        assert_eq!(counters["runtime.deadline_miss"], 0);
        assert_eq!(
            counters[&labeled("runtime.fault_events", &[("kind", "kill")])],
            0
        );
        let gauges = reg.gauge_values();
        assert_eq!(
            gauges[&labeled("runtime.server.alive", &[("server", "1")])],
            1
        );
        assert_eq!(
            gauges[&labeled("runtime.server.queue_depth", &[("server", "2")])],
            0
        );
        // All four mode-labeled dispatch histograms exist.
        let hists = reg.histogram_snapshots();
        assert!(hists.contains_key("runtime.timer_lag_us"));
        for mode in ["entry", "branch", "local_only", "failover"] {
            assert!(hists.contains_key(&labeled("runtime.dispatch_latency_ms", &[("mode", mode)])));
        }
    }

    #[test]
    fn mode_labels_cover_all_modes() {
        assert_eq!(mode_label(ContactMode::Entry), "entry");
        assert_eq!(mode_label(ContactMode::Branch), "branch");
        assert_eq!(mode_label(ContactMode::LocalOnly), "local_only");
        assert_eq!(
            mode_label(ContactMode::Failover { dead: ServerId(7) }),
            "failover"
        );
    }

    #[test]
    fn cluster_health_renders_table() {
        let h = ClusterHealth {
            servers: vec![
                ServerHealth {
                    server: ServerId(0),
                    alive: true,
                    queue_depth: 2,
                    replies: 10,
                    dispatch_p99_ms: Some(12.5),
                },
                ServerHealth {
                    server: ServerId(1),
                    alive: false,
                    queue_depth: 0,
                    replies: 0,
                    dispatch_p99_ms: None,
                },
            ],
            inflight_queries: 1,
            queries: 5,
            retries: 2,
            deadline_misses: 0,
            failovers: 1,
        };
        assert_eq!(h.alive_count(), 1);
        let text = h.to_string();
        assert!(text.contains("1/2 alive"));
        assert!(text.contains("DOWN"));
        assert!(text.contains("12.5 ms"));
    }
}
