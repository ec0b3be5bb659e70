//! Concurrency tests for the OpenMetrics exposition path: a scrape taken
//! while many writer threads hammer the same histograms must never
//! observe a torn snapshot. Extends the single-lock `Histogram::summary`
//! fix (PR 4) to the full-bucket capture that exposition relies on, and
//! covers the watchdog plane's detection core: a [`DetectorBank`]
//! evaluated over live registry reads while writers mutate the
//! instruments and the exposition renderer runs.

use roads_telemetry::{
    parse_openmetrics, DetectorBank, OpenMetricsSnapshot, Registry, ThresholdRule,
};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
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

/// The watchdog plane's core loop under contention: writer threads
/// mutate a gauge while the main thread repeatedly reads it, evaluates a
/// [`DetectorBank`] over the readings and renders exposition text. The
/// bank must drop re-delivered samples (firing timestamps stay strictly
/// increasing), stay silent while the gauge is healthy, and fire once
/// the writers push it past the threshold.
#[test]
fn detector_bank_evaluates_over_live_scrapes_without_tearing() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let level = Arc::new(AtomicI64::new(2));
    const WRITERS: usize = 3;

    // Writers hammer the same gauge with values around a shared level;
    // the main thread raises the level mid-run to trip the detector.
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            let level = Arc::clone(&level);
            std::thread::spawn(move || {
                let g = reg.gauge("wd.queue_depth");
                let c = reg.counter("wd.writes");
                while !stop.load(Ordering::Relaxed) {
                    g.set(level.load(Ordering::Relaxed) + (t as i64 % 2));
                    c.inc();
                }
            })
        })
        .collect();

    let mut bank = DetectorBank::new();
    bank.bind(
        "wd.queue_depth",
        ThresholdRule::above("deep-queue", 10.0, 1),
    );

    // One reading of the gauge at step `t`, delivered twice: the second
    // delivery of the same timestamp must reach no detector.
    let depth = reg.gauge("wd.queue_depth");
    let observe = |bank: &mut DetectorBank, t: u32| {
        bank.advance_epoch();
        let v = depth.get() as f64;
        let mut out = bank.observe_sample("wd.queue_depth", f64::from(t), v);
        out.extend(bank.observe_sample("wd.queue_depth", f64::from(t), v));
        out
    };

    // Healthy phase: evaluate over live readings while the exposition
    // renderer runs; nothing may fire below the threshold.
    let mut firings = Vec::new();
    for i in 0..200 {
        firings.extend(observe(&mut bank, i));
        if i % 50 == 0 {
            parse_openmetrics(&OpenMetricsSnapshot::from_registry(&reg).render())
                .expect("render parses while writers run");
        }
    }
    assert!(
        firings.is_empty(),
        "healthy gauge tripped the threshold: {firings:?}"
    );

    // Outage phase: push the level past the threshold and keep
    // evaluating until the bank sees it, however long the writers take
    // to be scheduled (bounded, so a broken bank fails instead of hangs).
    level.store(50, Ordering::Relaxed);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut t = 200;
    while firings.is_empty() && std::time::Instant::now() < deadline {
        firings.extend(observe(&mut bank, t));
        t += 1;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    assert!(!firings.is_empty(), "raised gauge never tripped the bank");
    for f in &firings {
        assert_eq!(f.detector, "deep-queue");
        assert_eq!(f.series, "wd.queue_depth");
        assert!(f.value >= 10.0, "sub-threshold firing: {f:?}");
        assert!(!f.window.is_empty(), "firing lost its window");
    }
    // Every reading is delivered twice; the bank's monotone dedup means
    // firing timestamps strictly increase.
    assert!(
        firings.windows(2).all(|w| w[0].at_ms < w[1].at_ms),
        "duplicate or reordered samples reached the detector"
    );
}
