//! Regression tests pinning figure-series determinism.
//!
//! The whole comparison pipeline is deterministic by construction — the
//! workload comes from per-node/per-query RNG streams, the build is
//! thread-count-invariant, and latencies are synthesized from the
//! [`roads_netsim::DelaySpace`] rather than measured — so two runs of the
//! same configuration must agree to the last bit, *including* runs that
//! build the network on different worker-thread counts.

use roads_bench::{run_comparison, TrialConfig};

fn cfg(build_threads: usize) -> TrialConfig {
    TrialConfig {
        nodes: 40,
        records_per_node: 25,
        queries: 30,
        buckets: 100,
        runs: 2,
        build_threads,
        ..TrialConfig::quick()
    }
}

#[test]
fn comparison_series_identical_across_build_thread_counts() {
    let sequential = run_comparison(&cfg(1), None);
    for threads in [4, 64] {
        let parallel = run_comparison(&cfg(threads), None);
        assert_eq!(
            sequential, parallel,
            "build_threads={threads} must reproduce the sequential series exactly"
        );
    }
}

#[test]
fn comparison_series_identical_across_repeat_runs() {
    assert_eq!(run_comparison(&cfg(1), None), run_comparison(&cfg(1), None));
}
