//! Concurrency tests for the registry's read paths: a histogram capture
//! or registry snapshot taken while many writer threads hammer the same
//! instruments must never observe a torn state. Extends the single-lock
//! `Histogram::summary` fix to the full-bucket capture the watchdog's
//! windowed p99 relies on (`Histogram::full_snapshot`) and to
//! `Registry::snapshot`. The watchdog's reads of live instruments under
//! the same contention are covered in `roads_runtime::watchdog`'s unit
//! tests.

use roads_telemetry::{HistogramSnapshot, LatencyStats, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every internal invariant a consistent histogram capture satisfies;
/// torn captures (count read under one lock acquisition, buckets under
/// another) violate at least one under sustained concurrent writes.
fn assert_capture_consistent(name: &str, h: &HistogramSnapshot) {
    let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        bucket_total, h.count,
        "{name}: bucket counts must sum to count"
    );
    if h.count > 0 {
        assert!(h.min <= h.max, "{name}: min {} > max {}", h.min, h.max);
        let eps = 1e-9 * h.sum.abs().max(1.0);
        assert!(
            h.sum >= h.count as f64 * h.min - eps,
            "{name}: sum {} below count*min",
            h.sum
        );
        assert!(
            h.sum <= h.count as f64 * h.max + eps,
            "{name}: sum {} above count*max",
            h.sum
        );
    }
    assert!(
        h.buckets.windows(2).all(|w| w[0].0 < w[1].0),
        "{name}: bucket edges must strictly increase"
    );
}

/// The same for a snapshot's summary: quantiles ordered and inside the
/// exact min/max, the mean between them.
fn assert_summary_consistent(name: &str, s: &LatencyStats) {
    assert!(s.min <= s.mean && s.mean <= s.max, "{name}: mean {s:?}");
    assert!(s.min <= s.p50, "{name}: p50 under min {s:?}");
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{name}: order {s:?}");
    assert!(s.p99 <= s.max, "{name}: p99 above max {s:?}");
}

#[test]
fn scrape_under_multi_writer_updates_never_tears() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: usize = 4;
    const HISTS: [&str; 2] = ["torn.lat_ms", "torn.dispatch_ms"];

    // Writers push ever-growing values into two shared histograms and a
    // counter; growth makes torn captures visible (a late bucket paired
    // with an early count breaks the bucket-sum invariant).
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let h1 = reg.histogram(HISTS[0]);
                let h2 = reg.histogram(HISTS[1]);
                let c = reg.counter("torn.writes");
                let mut v = 1.0 + t as f64;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h1.record(v);
                    h2.record(v * 0.5);
                    c.inc();
                    v = if v > 1e12 { 1.0 } else { v * 1.01 };
                    n += 1;
                }
                n
            })
        })
        .collect();

    // The main thread alternates the watchdog's bucketed capture and full
    // registry snapshots as fast as it can; the counter it reads must
    // never run backwards.
    let mut last_writes = 0u64;
    for _ in 0..500 {
        for name in HISTS {
            assert_capture_consistent(name, &reg.histogram(name).full_snapshot());
        }
        let snap = reg.snapshot();
        for (name, s) in &snap.histograms {
            assert_summary_consistent(name, s);
        }
        let writes = snap.counters.get("torn.writes").copied().unwrap_or(0);
        assert!(writes >= last_writes, "snapshot counter must be monotone");
        last_writes = writes;
    }

    stop.store(true, Ordering::Relaxed);
    let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();

    // Final state: nothing lost.
    let lat = reg.histogram(HISTS[0]).full_snapshot();
    assert_capture_consistent(HISTS[0], &lat);
    assert_eq!(lat.count, total);
    let snap = reg.snapshot();
    assert_eq!(snap.counters["torn.writes"], total);
    assert_eq!(snap.histograms[HISTS[0]].count as u64, total);
}
