//! Online anomaly detectors, each over one metric series.
//!
//! The building blocks of the watchdog plane: a detector consumes one
//! `(time, value)` sample at a time and answers whether that sample looks
//! anomalous. Three detector families cover the alerting patterns the
//! runtime needs:
//!
//! * [`EwmaSpikeDetector`] — exponentially-weighted mean/variance
//!   baseline with a z-score trigger: fires when a sample lands more
//!   than `sigma` estimated standard deviations from the learned
//!   baseline. A `noise_floor` bounds the denominator from below so a
//!   perfectly flat series (variance zero) cannot turn numerical dust
//!   into infinite z-scores, and the baseline is *not* updated from
//!   anomalous samples, so a sustained shift keeps firing instead of
//!   being silently absorbed.
//! * [`ThresholdRule`] — a static floor with a `min_consecutive`
//!   debounce: fires once a value sits at or below the level for N
//!   samples in a row (zero-liveness floors).
//! * [`BurnRateRule`] — multi-window SLO burn-rate alerting à la SRE
//!   error budgets: fires when the average of an error-rate series
//!   exceeds `budget × factor` over *both* a short and a long window,
//!   so brief blips (short window only) and slow ancient burn (long
//!   window only) are both rejected.
//!
//! Detectors are deliberately *value-driven*: sample timestamps carry
//! into the burn rule's window bookkeeping but never into the trigger
//! arithmetic of the EWMA/threshold families, which makes their
//! verdicts insensitive to sampler jitter by construction. Which series
//! a detector watches, and what a firing is called, is the caller's
//! business (`roads_runtime::watchdog`).

use std::collections::VecDeque;

/// Samples an [`EwmaSpikeDetector`] absorbs before it may fire.
const EWMA_WARMUP_SAMPLES: usize = 3;

/// Samples a [`BurnRateRule`] needs inside its long window before firing.
const BURN_MIN_SAMPLES: usize = 3;

/// EWMA baseline + z-score spike detection. See the module docs.
#[derive(Debug, Clone)]
pub struct EwmaSpikeDetector {
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
    pub fn new(alpha: f64, sigma: f64, noise_floor: f64) -> Self {
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
            alpha,
            sigma,
            noise_floor,
            mean: 0.0,
            var: 0.0,
            seen: 0,
        }
    }

    /// Consume one sample; `true` when it is a spike.
    pub fn observe(&mut self, _at_ms: f64, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        if self.seen == 0 {
            self.mean = value;
            self.var = 0.0;
            self.seen = 1;
            return false;
        }
        let denom = self.var.sqrt().max(self.noise_floor);
        let diff = value - self.mean;
        if self.seen >= EWMA_WARMUP_SAMPLES && diff.abs() >= self.sigma * denom {
            // Anomalous sample: report, and leave the baseline alone so
            // a sustained shift keeps firing rather than being learned.
            return true;
        }
        // Normal sample: fold into the EW mean/variance baseline.
        let incr = self.alpha * diff;
        self.mean += incr;
        self.var = (1.0 - self.alpha) * (self.var + diff * incr);
        self.seen += 1;
        false
    }
}

/// Static floor with a consecutive-sample debounce.
#[derive(Debug, Clone)]
pub struct ThresholdRule {
    /// The level to compare against.
    level: f64,
    /// Consecutive breaching samples required before firing.
    min_consecutive: usize,
    run: usize,
}

impl ThresholdRule {
    /// Fire when a value is ≤ `level` for `min_consecutive` samples.
    pub fn below(level: f64, min_consecutive: usize) -> Self {
        ThresholdRule {
            level,
            min_consecutive: min_consecutive.max(1),
            run: 0,
        }
    }

    /// Consume one sample; `true` once the run of breaching samples is
    /// long enough.
    pub fn observe(&mut self, _at_ms: f64, value: f64) -> bool {
        if value.is_finite() && value <= self.level {
            self.run += 1;
            self.run >= self.min_consecutive
        } else {
            self.run = 0;
            false
        }
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
    budget: f64,
    factor: f64,
    short_ms: f64,
    long_ms: f64,
    ring: VecDeque<(f64, f64)>,
}

impl BurnRateRule {
    /// A burn-rate rule firing when both trailing windows average above
    /// `budget × factor`. Requires `short_ms < long_ms`.
    pub fn new(budget: f64, factor: f64, short_ms: f64, long_ms: f64) -> Self {
        assert!(budget >= 0.0, "budget must be non-negative, got {budget}");
        assert!(factor > 0.0, "factor must be positive, got {factor}");
        assert!(
            short_ms > 0.0 && long_ms > short_ms,
            "windows must satisfy 0 < short ({short_ms}) < long ({long_ms})"
        );
        BurnRateRule {
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

    /// Consume one sample; `true` when both windows burn too fast.
    pub fn observe(&mut self, at_ms: f64, value: f64) -> bool {
        if !value.is_finite() {
            return false;
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
            return false;
        }
        let level = self.burn_threshold();
        let short = self.window_mean(at_ms, self.short_ms);
        let long = self.window_mean(at_ms, self.long_ms);
        short.is_some_and(|s| s >= level) && long.is_some_and(|l| l >= level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_quiet_on_constant_fires_on_spike() {
        let mut d = EwmaSpikeDetector::new(0.3, 4.0, 0.5);
        for i in 0..50 {
            assert!(!d.observe(i as f64 * 10.0, 5.0), "constant series is quiet");
        }
        // A step of 4 sigma × noise floor above the flat baseline fires
        // on the very first post-step sample.
        assert!(d.observe(500.0, 5.0 + 4.0 * 0.5), "spike fires");
        // The anomalous sample did not contaminate the baseline: the
        // next normal sample is quiet again.
        assert!(!d.observe(510.0, 5.0));
    }

    #[test]
    fn ewma_sustained_shift_keeps_firing() {
        let mut d = EwmaSpikeDetector::new(0.3, 3.0, 0.1);
        for i in 0..20 {
            assert!(!d.observe(i as f64, 1.0));
        }
        for i in 20..25 {
            assert!(
                d.observe(i as f64, 10.0),
                "sustained shift fires every sample (baseline frozen)"
            );
        }
    }

    #[test]
    fn ewma_warmup_suppresses_early_samples() {
        let mut d = EwmaSpikeDetector::new(0.5, 1.0, 0.01);
        // Wild swings inside the warmup never fire.
        for (i, v) in [0.0, 100.0, -50.0].iter().enumerate() {
            assert!(!d.observe(i as f64, *v), "warmup sample {i}");
        }
        // The first sample past it can.
        assert!(d.observe(3.0, 1_000.0), "warmup over");
    }

    #[test]
    fn threshold_debounces() {
        let mut d = ThresholdRule::below(-10.0, 3);
        assert!(!d.observe(0.0, -11.0));
        assert!(!d.observe(1.0, -12.0));
        assert!(!d.observe(2.0, -9.0), "recovery resets the run");
        assert!(!d.observe(3.0, -11.0));
        assert!(!d.observe(4.0, -11.0));
        assert!(d.observe(5.0, -11.0), "third consecutive fires");

        let mut low = ThresholdRule::below(0.5, 2);
        assert!(!low.observe(0.0, 0.0));
        assert!(low.observe(1.0, 0.0));
    }

    #[test]
    fn burn_rate_needs_both_windows() {
        // budget 0.01, factor 10 → fire at mean rate ≥ 0.1 over both
        // the 30ms short and 100ms long windows.
        let mut d = BurnRateRule::new(0.01, 10.0, 30.0, 100.0);
        // Long quiet history.
        for i in 0..10 {
            assert!(!d.observe(i as f64 * 10.0, 0.0));
        }
        // One hot sample: short window is hot, long window still cold.
        assert!(!d.observe(100.0, 1.0), "single blip must not page");
        // Sustained burn: both windows cross budget × factor.
        let mut fired = false;
        for i in 1..12 {
            fired |= d.observe(100.0 + i as f64 * 10.0, 1.0);
        }
        assert!(fired, "sustained burn fires");
    }

    #[test]
    fn burn_rate_quiet_below_budget() {
        let mut d = BurnRateRule::new(0.01, 10.0, 30.0, 100.0);
        // Rate steadily below budget × factor never fires.
        for i in 0..100 {
            assert!(!d.observe(i as f64 * 10.0, 0.05));
        }
    }
}
