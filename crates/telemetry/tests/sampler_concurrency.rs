//! Concurrency tests for the registry's read paths: a registry snapshot
//! taken while many writer threads hammer the same instruments must never
//! observe a torn state. Extends the single-lock `Histogram::summary` fix
//! to `Registry::snapshot`.

use roads_telemetry::{LatencyStats, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A snapshot's summary is consistent: quantiles ordered and inside the
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
    // counter; growth makes torn captures visible (a late percentile
    // paired with an early max breaks the quantile bounds).
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

    // Scrape only once writes are in flight: 500 snapshots can finish
    // before a freshly spawned writer first runs, and a histogram nobody
    // wrote is omitted from the final snapshot.
    let writes = reg.counter("torn.writes");
    while writes.get() < WRITERS as u64 {
        std::thread::yield_now();
    }

    // The main thread takes full registry snapshots as fast as it can;
    // the counter it reads must never run backwards.
    let mut last_writes = 0u64;
    for _ in 0..500 {
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
    let snap = reg.snapshot();
    assert_eq!(snap.counters["torn.writes"], total);
    assert_eq!(snap.histograms[HISTS[0]].count as u64, total);
}
