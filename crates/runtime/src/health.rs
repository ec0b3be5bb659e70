//! Live cluster health: instrument bundle and snapshot API.
//!
//! An instrumented [`crate::RoadsCluster`] pre-resolves every instrument
//! here at startup (`RuntimeMetrics::new`), so every series is in the
//! registry from the first moment (counters at 0) and the hot query path
//! never touches the registry's name map — only the `Arc`'d instruments
//! themselves.
//!
//! Naming follows the registry's label convention
//! ([`roads_telemetry::labeled`]): per-server series are
//! `runtime.server.<what>{server="N"}`, per-mode dispatch latency is
//! `runtime.dispatch_latency_ms{mode="entry"|...}`, and injected faults
//! are one counter family
//! `runtime.fault_events{kind="kill"|"restart"|"slow"|"restore"}` so a
//! kill/restart/straggler storm shows up as labeled series on one chart.
//!
//! [`ClusterHealth`] is the pull API: a consistent-enough point-in-time
//! table of per-server liveness, queue depth, reply count and
//! dispatch p99 that tests assert on directly. It is also a strict
//! artifact (marker `health`): written as JSON, it reads back as the same
//! table, which `roads-inspect health` prints.

use crate::cluster::ContactMode;
use roads_core::ServerId;
use roads_telemetry::{artifact, json_fields, labeled, Counter, Gauge, Histogram, Registry};
use std::fmt;
use std::sync::Arc;

/// The `mode` label value for a contact mode.
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

/// Point-in-time health of one server, from [`ClusterHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerHealth {
    /// The server's id.
    pub server: u32,
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
    /// Queries answered from the result cache (`roads.cache.hits`).
    pub cache_hits: u64,
    /// Cache lookups that fell through to execution (`roads.cache.misses`).
    pub cache_misses: u64,
    /// Cached results aged past the TTL (`roads.cache.expired`).
    pub cache_expired: u64,
}

impl ClusterHealth {
    /// Number of servers currently alive.
    pub fn alive_count(&self) -> usize {
        self.servers.iter().filter(|s| s.alive).count()
    }

    /// Rows ascend by unique server id; every p99 is finite and ≥ 0.
    fn validate(&self) -> Result<(), String> {
        if let Some(w) = self.servers.windows(2).find(|w| w[0].server >= w[1].server) {
            return Err(format!(
                "servers: row {} follows row {} (rows ascend by unique id)",
                w[1].server, w[0].server
            ));
        }
        for (i, s) in self.servers.iter().enumerate() {
            if let Some(p) = s.dispatch_p99_ms.filter(|p| !(p.is_finite() && *p >= 0.0)) {
                return Err(format!(
                    "servers[{i}].dispatch_p99_ms: {p} is not a latency"
                ));
            }
        }
        Ok(())
    }
}

/// Current health-snapshot schema version (the value of its `health`
/// marker).
const HEALTH_SCHEMA_VERSION: u64 = 1;

json_fields!(ServerHealth {
    server,
    alive,
    queue_depth,
    replies,
    dispatch_p99_ms,
});
json_fields!(ClusterHealth {
    "health" = HEALTH_SCHEMA_VERSION,
    inflight_queries,
    queries,
    retries,
    deadline_misses,
    failovers,
    cache_hits,
    cache_misses,
    cache_expired,
    servers,
});
artifact!(ClusterHealth, "health", HEALTH_SCHEMA_VERSION);

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
            "cache: {} hits, {} misses, {} expired",
            self.cache_hits, self.cache_misses, self.cache_expired
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
                s.server,
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
        let snap = reg.snapshot();
        assert_eq!(snap.counters["runtime.deadline_miss"], 0);
        assert_eq!(
            snap.counters[&labeled("runtime.fault_events", &[("kind", "kill")])],
            0
        );
        assert_eq!(
            snap.gauges[&labeled("runtime.server.alive", &[("server", "1")])],
            1
        );
        assert_eq!(
            snap.gauges[&labeled("runtime.server.queue_depth", &[("server", "2")])],
            0
        );
        // The histograms are declared too, still empty: the registry hands
        // back the very instruments the cluster records into.
        assert!(Arc::ptr_eq(
            &m.timer_lag,
            &reg.histogram("runtime.timer_lag_us")
        ));
        for (mode, h) in ["entry", "branch", "local_only", "failover"]
            .into_iter()
            .zip(&m.dispatch_by_mode)
        {
            let name = labeled("runtime.dispatch_latency_ms", &[("mode", mode)]);
            assert!(Arc::ptr_eq(h, &reg.histogram(&name)), "{name}");
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

    fn table() -> ClusterHealth {
        ClusterHealth {
            servers: vec![
                ServerHealth {
                    server: 0,
                    alive: true,
                    queue_depth: 2,
                    replies: 10,
                    dispatch_p99_ms: Some(12.5),
                },
                ServerHealth {
                    server: 1,
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
            cache_hits: 3,
            cache_misses: 2,
            cache_expired: 0,
        }
    }

    #[test]
    fn cluster_health_renders_table() {
        let h = table();
        assert_eq!(h.alive_count(), 1);
        let text = h.to_string();
        assert!(text.contains("1/2 alive"));
        assert!(text.contains("3 hits"));
        assert!(text.contains("DOWN"));
        assert!(text.contains("12.5 ms"));
    }

    #[test]
    fn validate_rejects_duplicate_unordered_and_negative_rows() {
        let reject = |edit: fn(&mut ClusterHealth), want: &str| {
            let mut h = table();
            edit(&mut h);
            let err = ClusterHealth::from_json(&h.to_json()).unwrap_err();
            assert!(err.contains(want), "{err}");
        };
        reject(|h| h.servers[1].server = 0, "row 0 follows row 0");
        reject(|h| h.servers.swap(0, 1), "row 0 follows row 1");
        reject(
            |h| h.servers[0].dispatch_p99_ms = Some(-1.0),
            "servers[0].dispatch_p99_ms",
        );
    }
}
