//! Concurrency tests for the OpenMetrics exposition path: a scrape taken
//! while many writer threads hammer the same histograms must never
//! observe a torn snapshot. Extends the single-lock `Histogram::summary`
//! fix to the full-bucket capture that exposition relies on. The
//! watchdog's reads of live instruments under the same contention are
//! covered in `roads_runtime::watchdog`'s unit tests.

use roads_telemetry::{parse_openmetrics, OpenMetricsSnapshot, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every internal invariant a consistent histogram capture satisfies;
/// torn captures (count read under one lock acquisition, buckets under
/// another) violate at least one under sustained concurrent writes.
fn assert_scrape_consistent(snap: &OpenMetricsSnapshot) {
    for (name, h) in &snap.histograms {
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
}

#[test]
fn scrape_under_multi_writer_updates_never_tears() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: usize = 4;

    // Writers push ever-growing values into two shared histograms and a
    // counter; growth makes torn captures visible (a late bucket paired
    // with an early count breaks the bucket-sum invariant).
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let h1 = reg.histogram("torn.lat_ms");
                let h2 = reg.histogram("torn.dispatch_ms");
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

    // The main thread takes full exposition snapshots as fast as it can;
    // the counter it reads between them must never run backwards.
    let mut last_writes = 0u64;
    for i in 0..500 {
        let snap = OpenMetricsSnapshot::from_registry(&reg);
        assert_scrape_consistent(&snap);
        let writes = snap.counters.get("torn.writes").copied().unwrap_or(0);
        assert!(writes >= last_writes, "scraped counter must be monotone");
        last_writes = writes;
        if i % 100 == 0 {
            // The rendered text must also stay parseable mid-flight.
            parse_openmetrics(&snap.render()).expect("render parses while writers run");
        }
    }

    stop.store(true, Ordering::Relaxed);
    let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();

    // Final state: nothing lost.
    let final_snap = OpenMetricsSnapshot::from_registry(&reg);
    assert_scrape_consistent(&final_snap);
    assert_eq!(final_snap.counters["torn.writes"], total);
    assert_eq!(final_snap.histograms["torn.lat_ms"].count, total);
}
