//! Prototype runtime configuration.

/// Tunables of the threaded prototype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Emulated backend cost to retrieve one matching record, in
    /// microseconds.
    ///
    /// Calibration note: the paper's servers query a DB2 database over JDBC
    /// holding 200K × 120-attribute records; result retrieval there costs
    /// milliseconds per row once result sets grow. 2.5 ms/row puts the
    /// prototype in the paper's regime (central ≈ 5–6 s at 3 % selectivity
    /// over ~160K records, ROADS ≈ 1 s below 0.3 %).
    pub per_record_retrieval_us: u64,
    /// Fixed per-query backend cost (index lookup / query planning), µs.
    pub base_query_cost_us: u64,
    /// Result-return bandwidth per server link, in megabits per second.
    pub bandwidth_mbps: f64,
    /// Scale factor applied to delay-space latencies (1.0 = as synthesized;
    /// tests use small factors to stay fast).
    pub delay_scale: f64,
    /// Wall-clock budget for one whole query, in milliseconds. When the
    /// deadline passes the client stops waiting, marks every still-pending
    /// server failed and returns what it has with `complete = false`.
    /// `0` disables the deadline (a dead server can then stall the client
    /// indefinitely — only use 0 in controlled experiments).
    pub query_deadline_ms: u64,
    /// Per-dispatch timeout in milliseconds, measured at the client from
    /// handing the sub-query to the dispatcher until its reply lands (so it
    /// must cover both one-way delays plus the server's retrieval time).
    /// On expiry the dispatch is retried and eventually failed over.
    /// `0` disables per-dispatch timeouts.
    pub dispatch_timeout_ms: u64,
    /// Re-dispatch attempts per target after the first try, before the
    /// target is declared failed and failover kicks in.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based): `backoff_base_ms << (k - 1)`
    /// milliseconds, i.e. exponential doubling from this base.
    pub backoff_base_ms: u64,
    /// Unused since PR 15 (messages are delivered by the sender or the one
    /// timer thread; there is no pool to size) — delete with the next
    /// benchmark change: `benchmark/src/workloads.rs` still names it.
    pub dispatcher_threads: usize,
    /// Route around dead `Branch` servers via the replication overlay
    /// (§III-C): re-dispatch the subtree query through a sibling replica.
    /// Disable to measure the availability the overlay buys (fig13).
    pub enable_failover: bool,
    /// Maximum queries in flight at once across all client threads. The
    /// shared dispatcher and the server cells are safe at any
    /// concurrency, but unbounded admission lets a burst of clients queue
    /// arbitrary work behind every server; past this limit `query_with`
    /// blocks until a slot frees. `0` disables admission control.
    pub max_inflight_queries: usize,
    /// Response-time SLO in milliseconds: on an instrumented cluster,
    /// queries slower than this bump the `runtime.slo_violations` burn
    /// counter (the query itself is unaffected — unlike the deadline,
    /// an SLO miss changes nothing about execution). `0` disables the
    /// counter.
    pub slo_response_ms: u64,
    /// Read by nothing since the set-cover planner was deleted (the entry
    /// dispatches what `RoadsNetwork::route` names, always) — delete with
    /// the next benchmark change: `benchmark/src/workloads.rs` still
    /// names it.
    pub enable_planner: bool,
    /// TTL of the per-entry result cache, in update-round epochs: a result
    /// cached at epoch `e` is replayed while `current − e <` this value,
    /// and [`RoadsCluster::advance_cache_round`](crate::RoadsCluster)
    /// purges aged entries. `0` disables the cache (the default).
    pub cache_ttl_rounds: u64,
}

impl RuntimeConfig {
    /// Calibration matching the paper's testbed regime.
    pub fn paper_like() -> Self {
        RuntimeConfig {
            per_record_retrieval_us: 2_500,
            base_query_cost_us: 20_000,
            bandwidth_mbps: 100.0,
            delay_scale: 1.0,
            query_deadline_ms: 60_000,
            dispatch_timeout_ms: 10_000,
            max_retries: 2,
            backoff_base_ms: 100,
            dispatcher_threads: 0,
            enable_failover: true,
            max_inflight_queries: 64,
            slo_response_ms: 10_000,
            enable_planner: false,
            cache_ttl_rounds: 0,
        }
    }

    /// Fast settings for unit tests: microsecond-scale costs, compressed
    /// network delays.
    pub fn test_fast() -> Self {
        RuntimeConfig {
            per_record_retrieval_us: 200,
            base_query_cost_us: 500,
            bandwidth_mbps: 1_000.0,
            delay_scale: 0.05,
            query_deadline_ms: 10_000,
            dispatch_timeout_ms: 2_000,
            max_retries: 2,
            backoff_base_ms: 10,
            dispatcher_threads: 0,
            enable_failover: true,
            max_inflight_queries: 16,
            slo_response_ms: 5_000,
            enable_planner: false,
            cache_ttl_rounds: 0,
        }
    }

    /// [`RuntimeConfig::test_fast`] tuned for fault-injection: short
    /// per-dispatch timeouts so dead servers are detected in milliseconds,
    /// one retry, failover on.
    pub fn test_faulty() -> Self {
        RuntimeConfig {
            dispatch_timeout_ms: 250,
            max_retries: 1,
            backoff_base_ms: 5,
            query_deadline_ms: 8_000,
            ..Self::test_fast()
        }
    }

    /// Time to push `bytes` through one server link, in microseconds.
    pub fn transfer_us(&self, bytes: usize) -> u64 {
        ((bytes as f64 * 8.0) / self.bandwidth_mbps.max(1e-9)) as u64
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::paper_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time() {
        let cfg = RuntimeConfig {
            bandwidth_mbps: 8.0,
            ..RuntimeConfig::paper_like()
        };
        // 8 Mbps = 1 byte/µs.
        assert_eq!(cfg.transfer_us(1_000), 1_000);
    }

    #[test]
    fn presets_sane() {
        let p = RuntimeConfig::paper_like();
        let t = RuntimeConfig::test_fast();
        assert!(p.per_record_retrieval_us > t.per_record_retrieval_us);
        assert!(t.delay_scale < p.delay_scale);
    }

    #[test]
    fn fault_presets_bound_every_wait() {
        for cfg in [
            RuntimeConfig::paper_like(),
            RuntimeConfig::test_fast(),
            RuntimeConfig::test_faulty(),
        ] {
            assert!(cfg.query_deadline_ms > 0, "deadline must be on by default");
            assert!(cfg.dispatch_timeout_ms > 0);
            assert!(cfg.dispatch_timeout_ms < cfg.query_deadline_ms);
            assert!(cfg.enable_failover);
            assert!(
                cfg.max_inflight_queries >= 1,
                "admission control on by default"
            );
            assert!(cfg.slo_response_ms > 0, "SLO burn counter on by default");
            assert!(
                cfg.slo_response_ms <= cfg.query_deadline_ms,
                "an SLO beyond the deadline could never fire"
            );
            assert!(
                !cfg.enable_planner && cfg.cache_ttl_rounds == 0,
                "planner and cache are opt-in; greedy is the reference path"
            );
        }
    }
}
