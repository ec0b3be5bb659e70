//! The metric names, units and bounds the benchmark reports. This table
//! and `BENCHMARK.json` say the same thing; `tests/contract.rs` holds them
//! together.

/// `(name, unit, better, bound)` — `bound` is the share of the parent's
/// median by which the metric may worsen before it counts as a regression.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("query_qps", "1/s", "higher", 0.25),
    ("query_p99_ms", "ms", "lower", 0.25),
    ("update_round_ms", "ms", "lower", 0.20),
    ("modelled_latency_ms", "ms", "lower", 0.15),
    ("contacts_per_query", "count", "lower", 0.20),
    ("wire_bytes_per_query", "B", "lower", 0.20),
    ("update_bytes_per_round", "B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.15),
];

/// `(name, unit, better)`. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    ("records.match_ns_per_record", "ns", "lower"),
    ("records.wire_size_ns_per_record", "ns", "lower"),
    ("summary.may_match_ns", "ns", "lower"),
    ("summary.may_match_calls_per_query", "count", "lower"),
    ("summary.false_positive_ratio", "ratio", "lower"),
    ("summary.replace_record_ns", "ns", "lower"),
    ("summary.aggregate_us_per_branch", "us", "lower"),
    ("summary.wire_bytes_per_summary", "B", "lower"),
    ("engine.evaluate_ns", "ns", "lower"),
    ("engine.evaluate_calls_per_query", "count", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.apply_us_per_change", "us", "lower"),
    ("store.search_us_per_call", "us", "lower"),
    ("store.scanned_per_result", "count", "lower"),
    ("runtime_store.search_us_per_call", "us", "lower"),
    ("runtime_store.search_ns_per_result", "ns", "lower"),
    ("runtime_store.build_ms", "ms", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.contacts_saved_ratio", "ratio", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.lookup_ns", "ns", "lower"),
    ("cache.insert_ns", "ns", "lower"),
    ("cache.invalidate_us_per_round", "us", "lower"),
    ("cache.invalidated_per_round", "count", "lower"),
    ("queryexec.sim_query_us", "us", "lower"),
    ("queryexec.overhead_share", "ratio", "lower"),
    ("updates.propagate_us_per_round", "us", "lower"),
    ("updates.dirty_branches_per_round", "count", "lower"),
    ("updates.full_round_ms", "ms", "lower"),
    ("runtime.query_p50_ms", "ms", "lower"),
    ("runtime.dispatch_us_per_contact", "us", "lower"),
    ("runtime.compute_share", "ratio", "higher"),
    ("runtime.cpu_us_per_query", "us", "lower"),
    ("runtime.records_per_query", "count", "lower"),
    ("runtime.retries_per_query", "count", "lower"),
    ("runtime.cluster_start_ms", "ms", "lower"),
    ("central.query_us", "us", "lower"),
    ("bench.calib_ms", "ms", "lower"),
    ("bench.host_steal_pct", "%", "lower"),
    ("bench.pass_iqr_pct", "%", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.harness_share", "ratio", "lower"),
    ("bench.replay_mismatches", "count", "lower"),
];

/// Measured values keyed by metric name, in table order when reported.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
