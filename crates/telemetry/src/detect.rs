//! Composable online anomaly detectors over metric time-series.
//!
//! The building blocks of the watchdog plane: a [`Detector`] consumes
//! one `(time, value)` sample at a time from a named series (the
//! watchdog's per-tick registry probes) and reports when the series looks
//! anomalous. Three detector families
//! cover the alerting patterns the runtime needs:
//!
//! * [`EwmaSpikeDetector`] — exponentially-weighted mean/variance
//!   baseline with a z-score trigger: fires when a sample lands more
//!   than `sigma` estimated standard deviations from the learned
//!   baseline. A `noise_floor` bounds the denominator from below so a
//!   perfectly flat series (variance zero) cannot turn numerical dust
//!   into infinite z-scores, and the baseline is *not* updated from
//!   anomalous samples, so a sustained shift keeps firing instead of
//!   being silently absorbed.
//! * [`ThresholdRule`] — a static level with a `min_consecutive`
//!   debounce: fires once a value breaches the level for N samples in
//!   a row (queue depth ceilings, zero-liveness floors).
//! * [`BurnRateRule`] — multi-window SLO burn-rate alerting à la SRE
//!   error budgets: fires when the average of an error-rate series
//!   exceeds `budget × factor` over *both* a short and a long window,
//!   so brief blips (short window only) and slow ancient burn (long
//!   window only) are both rejected.
//!
//! Detectors are deliberately *value-driven*: sample timestamps carry
//! into firings and window bookkeeping but never into the trigger
//! arithmetic of the EWMA/threshold families, which makes their
//! verdicts insensitive to sampler jitter by construction.
//!
//! A [`DetectorBank`] binds detector instances to series names, feeds
//! them only samples newer than the last one it delivered, stamps each
//! resulting [`DetectorFiring`] with the bank's evaluation epoch, and
//! attaches the triggering window of recent samples for downstream
//! incident correlation.

use std::collections::VecDeque;

/// Samples an [`EwmaSpikeDetector`] absorbs before it may fire.
const EWMA_WARMUP_SAMPLES: usize = 3;

/// Samples a [`BurnRateRule`] needs inside its long window before firing.
const BURN_MIN_SAMPLES: usize = 3;

/// One detector trigger: the sample that tripped it plus context.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorFiring {
    /// Name of the detector instance that fired.
    pub detector: String,
    /// Name of the series it was watching.
    pub series: String,
    /// Timestamp (ms) of the triggering sample.
    pub at_ms: f64,
    /// Evaluation epoch stamped by the [`DetectorBank`] (0 when the
    /// detector is driven directly).
    pub epoch: u64,
    /// The triggering value.
    pub value: f64,
    /// The level the value crossed (baseline + sigma band, static
    /// level, or budget × factor, by detector family).
    pub threshold: f64,
    /// The recent series window ending at the triggering sample.
    pub window: Vec<(f64, f64)>,
}

/// A detector's verdict for one sample: the trigger level it crossed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trip {
    /// The level the sample crossed.
    pub threshold: f64,
}

/// An online anomaly detector over one series. Implementations hold
/// whatever running state they need; `observe` is called once per new
/// sample in time order.
pub trait Detector: Send {
    /// Stable instance name (lands in [`DetectorFiring::detector`]).
    fn name(&self) -> &str;
    /// Consume one sample; `Some` when this sample trips the detector.
    fn observe(&mut self, at_ms: f64, value: f64) -> Option<Trip>;
    /// Reset all learned state (baseline, debounce runs, windows).
    fn reset(&mut self);
}

/// EWMA baseline + z-score spike detection. See the module docs.
#[derive(Debug, Clone)]
pub struct EwmaSpikeDetector {
    name: String,
    /// EWMA smoothing factor in (0, 1]; higher adapts faster.
    alpha: f64,
    /// Fire when |value − mean| ≥ sigma × max(std, noise_floor).
    sigma: f64,
    /// Lower bound on the standard-deviation estimate: a drift of at
    /// most `noise_floor` per sample can never produce a z-score above
    /// 1, and a flat series never divides by zero.
    noise_floor: f64,
    mean: f64,
    var: f64,
    seen: usize,
}

impl EwmaSpikeDetector {
    /// A spike detector with the given smoothing factor, z-score
    /// threshold and noise floor; it absorbs 3 samples before it may
    /// fire.
    pub fn new(name: &str, alpha: f64, sigma: f64, noise_floor: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        assert!(
            noise_floor > 0.0,
            "noise floor must be positive, got {noise_floor}"
        );
        EwmaSpikeDetector {
            name: name.to_string(),
            alpha,
            sigma,
            noise_floor,
            mean: 0.0,
            var: 0.0,
            seen: 0,
        }
    }

    /// The configured z-score threshold.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The current baseline mean estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Detector for EwmaSpikeDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, _at_ms: f64, value: f64) -> Option<Trip> {
        if !value.is_finite() {
            return None;
        }
        if self.seen == 0 {
            self.mean = value;
            self.var = 0.0;
            self.seen = 1;
            return None;
        }
        let denom = self.var.sqrt().max(self.noise_floor);
        let diff = value - self.mean;
        if self.seen >= EWMA_WARMUP_SAMPLES && diff.abs() >= self.sigma * denom {
            // Anomalous sample: report, and leave the baseline alone so
            // a sustained shift keeps firing rather than being learned.
            return Some(Trip {
                threshold: self.mean + self.sigma * denom * diff.signum(),
            });
        }
        // Normal sample: fold into the EW mean/variance baseline.
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + diff * incr);
        self.seen += 1;
        None
    }

    fn reset(&mut self) {
        self.mean = 0.0;
        self.var = 0.0;
        self.seen = 0;
    }
}

/// Static threshold with a consecutive-sample debounce.
#[derive(Debug, Clone)]
pub struct ThresholdRule {
    name: String,
    /// The level to compare against.
    level: f64,
    /// `true`: fire on value ≥ level; `false`: fire on value ≤ level.
    above: bool,
    /// Consecutive breaching samples required before firing.
    min_consecutive: usize,
    run: usize,
}

impl ThresholdRule {
    /// Fire when a value is ≥ `level` for `min_consecutive` samples.
    pub fn above(name: &str, level: f64, min_consecutive: usize) -> Self {
        ThresholdRule {
            name: name.to_string(),
            level,
            above: true,
            min_consecutive: min_consecutive.max(1),
            run: 0,
        }
    }

    /// Fire when a value is ≤ `level` for `min_consecutive` samples.
    pub fn below(name: &str, level: f64, min_consecutive: usize) -> Self {
        ThresholdRule {
            above: false,
            ..Self::above(name, level, min_consecutive)
        }
    }
}

impl Detector for ThresholdRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, _at_ms: f64, value: f64) -> Option<Trip> {
        let breach = value.is_finite()
            && if self.above {
                value >= self.level
            } else {
                value <= self.level
            };
        if breach {
            self.run += 1;
            if self.run >= self.min_consecutive {
                return Some(Trip {
                    threshold: self.level,
                });
            }
        } else {
            self.run = 0;
        }
        None
    }

    fn reset(&mut self) {
        self.run = 0;
    }
}

/// Multi-window SLO burn-rate rule over an error-rate series.
///
/// The watched series is a rate in `[0, ∞)` (fraction of requests
/// violating the SLO per sample). With an error budget of `budget`
/// (the long-run rate the SLO tolerates) the rule fires when the mean
/// rate over the trailing short window *and* the trailing long window
/// both exceed `budget × factor` — the classic two-window construction
/// that pages fast on a real outage but ignores single-sample blips
/// and slow historical burn.
#[derive(Debug, Clone)]
pub struct BurnRateRule {
    name: String,
    budget: f64,
    factor: f64,
    short_ms: f64,
    long_ms: f64,
    ring: VecDeque<(f64, f64)>,
}

impl BurnRateRule {
    /// A burn-rate rule firing when both trailing windows average above
    /// `budget × factor`. Requires `short_ms < long_ms`.
    pub fn new(name: &str, budget: f64, factor: f64, short_ms: f64, long_ms: f64) -> Self {
        assert!(budget >= 0.0, "budget must be non-negative, got {budget}");
        assert!(factor > 0.0, "factor must be positive, got {factor}");
        assert!(
            short_ms > 0.0 && long_ms > short_ms,
            "windows must satisfy 0 < short ({short_ms}) < long ({long_ms})"
        );
        BurnRateRule {
            name: name.to_string(),
            budget,
            factor,
            short_ms,
            long_ms,
            ring: VecDeque::new(),
        }
    }

    /// The firing level: `budget × factor`.
    pub fn burn_threshold(&self) -> f64 {
        self.budget * self.factor
    }

    fn window_mean(&self, now_ms: f64, span_ms: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in self.ring.iter().rev() {
            if now_ms - t > span_ms {
                break;
            }
            sum += v;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }
}

impl Detector for BurnRateRule {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, at_ms: f64, value: f64) -> Option<Trip> {
        if !value.is_finite() {
            return None;
        }
        self.ring.push_back((at_ms, value));
        while self
            .ring
            .front()
            .is_some_and(|&(t, _)| at_ms - t > self.long_ms)
        {
            self.ring.pop_front();
        }
        if self.ring.len() < BURN_MIN_SAMPLES {
            return None;
        }
        let level = self.burn_threshold();
        let short = self.window_mean(at_ms, self.short_ms)?;
        let long = self.window_mean(at_ms, self.long_ms)?;
        (short >= level && long >= level).then_some(Trip { threshold: level })
    }

    fn reset(&mut self) {
        self.ring.clear();
    }
}

/// How many trailing samples a firing's attached window carries.
const FIRING_WINDOW: usize = 16;

/// One detector bound to one series inside a [`DetectorBank`].
struct Binding {
    series: String,
    detector: Box<dyn Detector>,
    /// Timestamp of the newest sample already delivered; older or
    /// repeated samples are ignored.
    last_seen_ms: f64,
    recent: VecDeque<(f64, f64)>,
}

/// A set of detectors bound to named series. See the module docs.
#[derive(Default)]
pub struct DetectorBank {
    epoch: u64,
    bindings: Vec<Binding>,
}

impl DetectorBank {
    /// An empty bank at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a detector instance to the series it should watch. One
    /// series may carry any number of detectors and vice versa.
    pub fn bind(&mut self, series: &str, detector: impl Detector + 'static) {
        self.bindings.push(Binding {
            series: series.to_string(),
            detector: Box::new(detector),
            last_seen_ms: f64::NEG_INFINITY,
            recent: VecDeque::new(),
        });
    }

    /// Number of bound detectors.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether the bank has no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Distinct detector names across all bindings, in binding order —
    /// the label set a metrics plane should pre-resolve per-detector
    /// instruments for.
    pub fn detector_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for b in &self.bindings {
            let n = b.detector.name();
            if !names.iter().any(|x| x == n) {
                names.push(n.to_string());
            }
        }
        names
    }

    /// The current evaluation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Start a new evaluation epoch; subsequent firings carry it.
    pub fn advance_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Feed one sample to every detector bound to `series`, returning the
    /// resulting firings stamped with the current epoch.
    pub fn observe_sample(&mut self, series: &str, at_ms: f64, value: f64) -> Vec<DetectorFiring> {
        let mut firings = Vec::new();
        let epoch = self.epoch;
        for b in &mut self.bindings {
            if b.series != series || at_ms <= b.last_seen_ms {
                continue;
            }
            b.last_seen_ms = at_ms;
            if b.recent.len() == FIRING_WINDOW {
                b.recent.pop_front();
            }
            b.recent.push_back((at_ms, value));
            if let Some(trip) = b.detector.observe(at_ms, value) {
                firings.push(DetectorFiring {
                    detector: b.detector.name().to_string(),
                    series: series.to_string(),
                    at_ms,
                    epoch,
                    value,
                    threshold: trip.threshold,
                    window: b.recent.iter().copied().collect(),
                });
            }
        }
        firings
    }

    /// Reset every detector's learned state (baselines, runs, rings);
    /// the epoch and already-seen watermarks are kept.
    pub fn reset(&mut self) {
        for b in &mut self.bindings {
            b.detector.reset();
            b.recent.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut impl Detector, samples: &[(f64, f64)]) -> Vec<f64> {
        samples
            .iter()
            .filter_map(|&(t, v)| d.observe(t, v).map(|_| t))
            .collect()
    }

    #[test]
    fn ewma_quiet_on_constant_fires_on_spike() {
        let mut d = EwmaSpikeDetector::new("spike", 0.3, 4.0, 0.5);
        let quiet: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 10.0, 5.0)).collect();
        assert!(feed(&mut d, &quiet).is_empty(), "constant series is quiet");
        // A step of 4 sigma × noise floor above the flat baseline fires
        // on the very first post-step sample.
        let trip = d.observe(500.0, 5.0 + 4.0 * 0.5).expect("spike fires");
        assert!(trip.threshold > 5.0 && trip.threshold <= 7.0 + 1e-9);
        // The anomalous sample did not contaminate the baseline: the
        // next normal sample is quiet again.
        assert!(d.observe(510.0, 5.0).is_none());
        assert!((d.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_sustained_shift_keeps_firing() {
        let mut d = EwmaSpikeDetector::new("spike", 0.3, 3.0, 0.1);
        for i in 0..20 {
            assert!(d.observe(i as f64, 1.0).is_none());
        }
        for i in 20..25 {
            assert!(
                d.observe(i as f64, 10.0).is_some(),
                "sustained shift fires every sample (baseline frozen)"
            );
        }
    }

    #[test]
    fn ewma_warmup_suppresses_early_samples() {
        let mut d = EwmaSpikeDetector::new("spike", 0.5, 1.0, 0.01);
        // Wild swings inside the warmup never fire.
        for (i, v) in [0.0, 100.0, -50.0].iter().enumerate() {
            assert!(d.observe(i as f64, *v).is_none(), "warmup sample {i}");
        }
        // The first sample past it can.
        assert!(d.observe(3.0, 1_000.0).is_some(), "warmup over");
    }

    #[test]
    fn threshold_debounces() {
        let mut d = ThresholdRule::above("deep", 10.0, 3);
        assert!(d.observe(0.0, 11.0).is_none());
        assert!(d.observe(1.0, 12.0).is_none());
        assert!(d.observe(2.0, 9.0).is_none(), "dip resets the run");
        assert!(d.observe(3.0, 11.0).is_none());
        assert!(d.observe(4.0, 11.0).is_none());
        let trip = d.observe(5.0, 11.0).expect("third consecutive fires");
        assert_eq!(trip.threshold, 10.0);

        let mut low = ThresholdRule::below("dead", 0.5, 2);
        assert!(low.observe(0.0, 0.0).is_none());
        assert!(low.observe(1.0, 0.0).is_some());
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        // budget 0.01, factor 10 → fire at mean rate ≥ 0.1 over both
        // the 30ms short and 100ms long windows.
        let mut d = BurnRateRule::new("burn", 0.01, 10.0, 30.0, 100.0);
        // Long quiet history.
        for i in 0..10 {
            assert!(d.observe(i as f64 * 10.0, 0.0).is_none());
        }
        // One hot sample: short window is hot, long window still cold.
        assert!(d.observe(100.0, 1.0).is_none(), "single blip must not page");
        // Sustained burn: both windows cross budget × factor.
        let mut fired = false;
        for i in 1..12 {
            fired |= d.observe(100.0 + i as f64 * 10.0, 1.0).is_some();
        }
        assert!(fired, "sustained burn fires");
    }

    #[test]
    fn burn_rate_quiet_below_budget() {
        let mut d = BurnRateRule::new("burn", 0.01, 10.0, 30.0, 100.0);
        // Rate steadily below budget × factor never fires.
        for i in 0..100 {
            assert!(d.observe(i as f64 * 10.0, 0.05).is_none());
        }
    }

    #[test]
    fn bank_feeds_new_points_once_and_stamps_epochs() {
        let mut bank = DetectorBank::new();
        bank.bind("q", ThresholdRule::above("deep", 10.0, 1));
        assert_eq!(bank.len(), 1);
        let feed = |bank: &mut DetectorBank, points: &[(f64, f64)]| {
            bank.advance_epoch();
            let mut firings = Vec::new();
            for &(t, v) in points {
                firings.extend(bank.observe_sample("q", t, v));
            }
            firings
        };

        let quiet: Vec<(f64, f64)> = (0..4).map(|i| (i as f64 * 10.0, 1.0)).collect();
        assert!(feed(&mut bank, &quiet).is_empty());

        // A re-delivered history plus one new breaching point: only the
        // new point reaches the detector.
        let mut history = quiet.clone();
        history.push((40.0, 25.0));
        let firings = feed(&mut bank, &history);
        assert_eq!(firings.len(), 1);
        let f = &firings[0];
        assert_eq!((f.detector.as_str(), f.series.as_str()), ("deep", "q"));
        assert_eq!(
            (f.at_ms, f.epoch, f.value, f.threshold),
            (40.0, 2, 25.0, 10.0)
        );
        assert_eq!(f.window.last(), Some(&(40.0, 25.0)));
        assert_eq!(f.window.len(), 5, "window carries the fed history");

        // Re-observing without new samples delivers nothing twice.
        assert!(feed(&mut bank, &history).is_empty());
    }

    #[test]
    fn bank_direct_samples() {
        let mut bank = DetectorBank::new();
        bank.bind("err", ThresholdRule::above("hot", 0.5, 1));
        bank.advance_epoch();
        assert!(bank.observe_sample("other", 0.0, 9.0).is_empty());
        let f = bank.observe_sample("err", 1.0, 0.9);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].epoch, 1);
        // Stale timestamps are ignored (already-seen watermark).
        assert!(bank.observe_sample("err", 1.0, 0.9).is_empty());
    }
}
