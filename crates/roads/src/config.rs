//! ROADS system configuration.

use roads_summary::SummaryConfig;

/// Configuration shared by every ROADS server in a federation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadsConfig {
    /// Maximum children a server accepts (the paper's node degree `k`;
    /// simulation default 8).
    pub max_children: usize,
    /// Summary parameters (bucket count etc.).
    pub summary: SummaryConfig,
    /// Summary refresh period `ts` in milliseconds — how often summaries
    /// are re-exported, re-aggregated bottom-up and re-replicated top-down,
    /// and how often a parent heartbeats its children (the heartbeat
    /// carries the summaries).
    pub ts_ms: u64,
    /// TTL applied to soft-state summaries, in milliseconds, and the one
    /// liveness deadline: a parent or child silent this long is presumed
    /// dead.
    pub summary_ttl_ms: u64,
}

impl RoadsConfig {
    /// The paper's simulation defaults: degree 8, 1000-bucket histograms,
    /// summaries refreshed every minute.
    pub fn paper_default() -> Self {
        RoadsConfig {
            max_children: 8,
            summary: SummaryConfig::paper_default(),
            // §IV: summaries change "on the order of several minutes at
            // least".
            ts_ms: 60_000,
            summary_ttl_ms: 180_000,
        }
    }

    /// Default with a different node degree (Fig. 10 sweep).
    pub fn with_degree(max_children: usize) -> Self {
        RoadsConfig {
            max_children,
            ..Self::paper_default()
        }
    }

    /// Default with a different histogram resolution (ablation).
    pub fn with_buckets(buckets: usize) -> Self {
        RoadsConfig {
            summary: SummaryConfig::with_buckets(buckets),
            ..Self::paper_default()
        }
    }
}

impl Default for RoadsConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = RoadsConfig::paper_default();
        assert_eq!(c.max_children, 8);
        assert_eq!(c.summary.buckets, 1000);
    }

    #[test]
    fn degree_override() {
        assert_eq!(RoadsConfig::with_degree(4).max_children, 4);
    }

    #[test]
    fn bucket_override() {
        assert_eq!(RoadsConfig::with_buckets(64).summary.buckets, 64);
    }
}
