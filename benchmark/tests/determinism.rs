//! Same `--seed` ⇒ the same inputs and bit-identical count metrics;
//! another seed ⇒ other queries and deltas. The system under test is only
//! ever handed what `Inputs::generate` produced.

use roads_benchmark::pass::Model;
use roads_benchmark::run::{cache_counters, prepare};
use roads_benchmark::workloads::{spec, Inputs, Spec};

/// A workload's shape at a size a test can afford.
fn small(name: &str) -> Spec {
    let full = spec(name).expect("a benchmark workload");
    Spec {
        servers: 8,
        records_per_server: 300,
        distinct_queries: 40,
        queries_per_pass: if full.zipf_entries.is_some() { 200 } else { 40 },
        cycle_passes: 2,
        rounds_per_pass: 4,
        zipf_entries: full.zipf_entries.map(|_| 4),
        ..*full
    }
}

/// The figures that must repeat exactly: the model of the first cycle of
/// timed passes, the update bytes of every pass, and the live cache's hit
/// and miss counts.
fn counts(spec: &Spec, seed: u64) -> (Model, Vec<u64>, (u64, u64), u64) {
    let inputs = Inputs::generate(spec, seed);
    let mut prepared = prepare(spec, &inputs, 1, 0.0);
    // The warm-up pass, then one cycle.
    let passes: Vec<_> = (0..=spec.cycle_passes)
        .map(|_| prepared.bench.run_pass(None))
        .collect();
    let cache = cache_counters(&prepared.bench.sys);
    let model = prepared.bench.model;
    prepared.bench.sys.shutdown();
    let failed = prepared.tally.failed + passes.iter().map(|p| p.failed()).sum::<u64>();
    (
        model,
        passes.iter().map(|p| p.update_bytes).collect(),
        cache,
        failed,
    )
}

#[test]
fn same_seed_same_inputs() {
    for s in ["live_selective", "live_repeat"] {
        let spec = small(s);
        let (a, b) = (Inputs::generate(&spec, 7), Inputs::generate(&spec, 7));
        assert_eq!(a.records, b.records);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.delta(&spec, 3), b.delta(&spec, 3));
    }
}

#[test]
fn another_seed_other_queries_and_deltas() {
    let spec = small("live_repeat");
    let (a, b) = (Inputs::generate(&spec, 7), Inputs::generate(&spec, 8));
    assert_ne!(a.records, b.records);
    assert_ne!(a.queries, b.queries);
    assert_ne!(a.sequence, b.sequence);
    assert_ne!(a.delta(&spec, 0), b.delta(&spec, 0));
    assert_ne!(a.delta(&spec, 0), a.delta(&spec, 1), "rounds differ too");
}

#[test]
fn count_metrics_repeat_bit_for_bit() {
    for s in ["live_selective", "live_bulk", "live_repeat", "sim_churn"] {
        let spec = small(s);
        let first = counts(&spec, 11);
        assert_eq!(first.3, 0, "{s}: every answer matches the oracle");
        assert_eq!(first, counts(&spec, 11), "{s}: same seed, same counts");
        assert_ne!(first.0, counts(&spec, 12).0, "{s}: another seed moves them");
    }
}

#[test]
fn repeat_workload_hits_its_cache() {
    let spec = small("live_repeat");
    let (model, _, (hits, misses), _) = counts(&spec, 11);
    assert!(
        hits > 0 && misses > 0,
        "both paths exercised: {hits} hits, {misses} misses"
    );
    // The simulator-side cache, fed the same invalidations, hits too.
    assert!(model.cache_hits > 0 && model.cache_hits < model.queries);
}
