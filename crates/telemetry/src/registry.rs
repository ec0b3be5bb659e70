//! Named metrics: counters, gauges and log-bucketed histograms.
//!
//! A [`Registry`] hands out `Arc`-shared instruments keyed by name, so any
//! layer of the stack (simulator, protocol engine, runtime threads, bench
//! harness) can record into the same instrument concurrently. A
//! [`MetricsSnapshot`] freezes every instrument for reporting/export.
//!
//! Names are flat strings; a labeled series encodes its labels in the
//! name with [`labeled`]: `runtime.fault_events{kind="kill"}`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::json_fields;
use crate::stats::LatencyStats;

/// Build a labeled registry instrument name: `base{k="v",...}` with label
/// keys sorted and values escaped (backslash, double quote, newline), so
/// the same label set always produces the same name regardless of
/// argument order.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    format!("{}{{{}}}", base, body.join(","))
}

/// A monotonic counter. There is deliberately no decrement operation.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that may move in either direction.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Shift the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. With [`SUB_BUCKETS`] buckets per doubling
/// this spans `LOWEST * 2^(BUCKETS/SUB_BUCKETS)` ≈ 19 orders of magnitude
/// above [`LOWEST`] — every duration this workspace measures fits.
const BUCKETS: usize = 512;
/// Buckets per octave (value doubling); bounds relative precision at
/// `2^(1/8) − 1` ≈ 9%.
const SUB_BUCKETS: f64 = 8.0;
/// Lower edge of bucket 1; smaller samples land in bucket 0.
const LOWEST: f64 = 1e-3;

/// Shared mutable histogram state, guarded by one `parking_lot` mutex.
#[derive(Debug)]
struct HistInner {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl HistInner {
    fn empty() -> Self {
        HistInner {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// A fixed-memory, log-bucketed (HDR-style) latency histogram.
///
/// Values map to geometrically spaced buckets (`SUB_BUCKETS` per
/// doubling), so percentile estimates carry a bounded ~9% relative error
/// while memory stays constant regardless of sample count. The layout is
/// compile-time fixed, so bucket edges mean the same in every histogram.
#[derive(Debug)]
pub struct Histogram {
    inner: Mutex<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Mutex::new(HistInner::empty()),
        }
    }

    /// Bucket index for a value (negative/NaN values clamp to bucket 0).
    fn index(v: f64) -> usize {
        // NaN intentionally lands in bucket 0 with everything <= LOWEST.
        if v.partial_cmp(&LOWEST) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        // Clamp in f64 before the cast: `v / LOWEST` can overflow to
        // infinity for huge inputs, and `inf as usize` saturates.
        let i = ((v / LOWEST).log2() * SUB_BUCKETS).floor() + 1.0;
        i.min((BUCKETS - 1) as f64) as usize
    }

    /// Upper edge of a bucket — used as its representative value so
    /// percentile estimates are conservative (never under-report).
    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            LOWEST
        } else {
            LOWEST * ((i as f64) / SUB_BUCKETS).exp2()
        }
    }

    /// Upper edge of the bucket `v` falls into — the canonical key for
    /// associating out-of-band data (e.g. exemplar trace ids) with a
    /// histogram bucket. Two values land in the same bucket iff their
    /// edges are equal, and the edge is the value the percentile
    /// estimates report for that bucket.
    pub fn bucket_edge(v: f64) -> f64 {
        Self::bucket_value(Self::index(v))
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        let mut g = self.inner.lock();
        g.buckets[Self::index(v)] += 1;
        g.count += 1;
        g.sum += v;
        g.min = g.min.min(v);
        g.max = g.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.inner.lock().sum
    }

    /// Nearest-rank percentile estimate (`q` in `[0, 1]`); `None` when
    /// empty. Exact min/max are tracked separately and bound the result.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let g = self.inner.lock();
        Self::percentile_of(&g, q)
    }

    /// [`Histogram::percentile`] over an already-locked view, so a caller
    /// holding the guard can take several percentiles from one consistent
    /// state.
    fn percentile_of(g: &HistInner, q: f64) -> Option<f64> {
        if g.count == 0 {
            return None;
        }
        let rank = ((g.count as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in g.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::bucket_value(i).clamp(g.min, g.max));
            }
        }
        Some(g.max)
    }

    /// Freeze into a [`LatencyStats`]; `None` when empty. Mean/min/max are
    /// exact; percentiles carry the bucket quantization error.
    ///
    /// The whole summary comes from one lock acquisition, so it is a
    /// consistent point-in-time view even while other threads record:
    /// releasing the guard between the count/sum reads and the percentile
    /// scans would let interleaved `record` calls tear the snapshot
    /// (e.g. a p50 computed over more samples than `count` claims, or a
    /// percentile exceeding `max`).
    pub fn summary(&self) -> Option<LatencyStats> {
        let g = self.inner.lock();
        if g.count == 0 {
            return None;
        }
        Some(LatencyStats {
            count: g.count as usize,
            mean: g.sum / g.count as f64,
            p50: Self::percentile_of(&g, 0.50).expect("non-empty"),
            p90: Self::percentile_of(&g, 0.90).expect("non-empty"),
            p99: Self::percentile_of(&g, 0.99).expect("non-empty"),
            min: g.min,
            max: g.max,
        })
    }
}

/// A name-keyed collection of instruments shared across threads.
///
/// `counter`/`gauge`/`histogram` get-or-create, so call sites never need
/// registration order coordination; the returned `Arc` can be cached.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The gauge named `name` if it already exists (no creation).
    pub fn find_gauge(&self, name: &str) -> Option<Arc<Gauge>> {
        self.gauges.lock().get(name).map(Arc::clone)
    }

    /// Freeze every instrument. Empty histograms are omitted (they carry
    /// no information and would serialize as nulls).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .filter_map(|(k, v)| v.summary().map(|s| (k.clone(), s)))
                .collect(),
        }
    }
}

/// A point-in-time copy of every instrument in a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Summaries of the non-empty histograms by name.
    pub histograms: BTreeMap<String, LatencyStats>,
}

json_fields!(MetricsSnapshot {
    counters,
    gauges,
    histograms
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonField;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter("q").inc();
        r.counter("q").add(4);
        assert_eq!(r.counter("q").get(), 5);
        assert_eq!(r.counter("other").get(), 0);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn histogram_percentiles_bounded_error() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        // Log-bucketing guarantees <= ~9% relative error, upward-biased.
        assert!(s.p50 >= 500.0 && s.p50 <= 500.0 * 1.1, "p50 {}", s.p50);
        assert!(s.p90 >= 900.0 && s.p90 <= 900.0 * 1.1, "p90 {}", s.p90);
        assert!(s.p99 >= 990.0 && s.p99 <= 990.0 * 1.1, "p99 {}", s.p99);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn histogram_extreme_values_clamp() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::MAX);
        assert_eq!(h.count(), 3);
        let s = h.summary().unwrap();
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, f64::MAX);
    }

    #[test]
    fn concurrent_recording() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn summary_is_consistent_under_concurrent_writers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        // Writers push ever-growing values: a summary torn across lock
        // acquisitions computes its percentiles against a later, larger
        // population and can report p99 above its own max (or ordering
        // inversions between quantiles).
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 1.0 + t as f64;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v);
                        v *= 1.01;
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            if let Some(s) = h.summary() {
                assert!(s.min <= s.mean && s.mean <= s.max, "mean in range: {s:?}");
                assert!(s.min <= s.p50, "p50 under min: {s:?}");
                assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "quantile order: {s:?}");
                assert!(s.p99 <= s.max, "p99 above max: {s:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn registry_find_does_not_create() {
        let r = Registry::new();
        assert!(r.find_gauge("nope").is_none());
        r.counter("c").inc();
        r.gauge("g").set(7);
        assert_eq!(r.find_gauge("g").unwrap().get(), 7);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(snap.gauges["g"], 7);
    }

    #[test]
    fn labeled_sorts_and_escapes() {
        assert_eq!(labeled("a.b", &[]), "a.b");
        assert_eq!(
            labeled("a.b", &[("z", "1"), ("a", "x\"y\\z\n")]),
            "a.b{a=\"x\\\"y\\\\z\\n\",z=\"1\"}"
        );
        // Order-independent.
        assert_eq!(
            labeled("m", &[("k", "v"), ("j", "w")]),
            labeled("m", &[("j", "w"), ("k", "v")])
        );
    }

    #[test]
    fn snapshot_skips_empty_histograms() {
        let r = Registry::new();
        r.histogram("empty");
        r.histogram("full").record(1.0);
        r.counter("c").inc();
        let snap = r.snapshot();
        assert!(!snap.histograms.contains_key("empty"));
        assert!(snap.histograms.contains_key("full"));
        assert_eq!(snap.counters["c"], 1);
        let json = snap.to_field().to_string();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"p99\""));
    }
}
