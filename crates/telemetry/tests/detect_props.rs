//! Property tests for the detector math behind the watchdog plane.
//!
//! Three contracts are pinned down over randomized inputs:
//!
//! * *quiet on quiet series* — a constant series, or any series whose
//!   per-sample increments stay under `alpha × sigma × noise_floor`
//!   (slow drift, bounded random walks), never trips the EWMA spike
//!   detector: the steady-state EWMA lag of such a series is bounded by
//!   `increment / alpha`, which the generator keeps strictly inside the
//!   firing band;
//! * *loud on steps* — after a constant warmup the variance estimate is
//!   zero, so any step of at least `sigma × noise_floor` must fire, and
//!   must *keep* firing while the shift persists (the baseline is not
//!   learned from anomalous samples);
//! * *jitter insensitivity* — EWMA and threshold verdicts ignore
//!   timestamps entirely, and the burn-rate rule's two-window verdict
//!   survives ±20% sampling jitter for series that are uniformly above
//!   or uniformly below the burn threshold.

use proptest::prelude::*;
use roads_telemetry::{BurnRateRule, EwmaSpikeDetector, ThresholdRule};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A perfectly constant series never fires, no matter the level.
    #[test]
    fn ewma_is_silent_on_constant_series(
        value in -1e6f64..1e6,
        alpha in 0.05f64..1.0,
        sigma in 1.0f64..6.0,
        floor in 0.1f64..10.0,
        n in 4usize..200,
    ) {
        let mut d = EwmaSpikeDetector::new(alpha, sigma, floor);
        for k in 0..n {
            prop_assert!(
                !d.observe(k as f64, value),
                "constant series fired at sample {k}"
            );
        }
    }

    /// Any series whose per-sample increments stay under
    /// `alpha × sigma × noise_floor` — linear drift, random walks —
    /// never fires: the EWMA lag `|value − mean|` is bounded by
    /// `max_increment / alpha`, strictly inside the firing band.
    #[test]
    fn ewma_is_silent_on_slow_drift(
        start in -1e4f64..1e4,
        alpha in 0.05f64..1.0,
        sigma in 1.0f64..6.0,
        floor in 0.1f64..10.0,
        steps in prop::collection::vec(-1.0f64..1.0, 1..200),
    ) {
        let mut d = EwmaSpikeDetector::new(alpha, sigma, floor);
        // Keep every increment strictly under the lag bound's budget.
        let scale = 0.85 * alpha * sigma * floor;
        let mut x = start;
        for (k, u) in steps.iter().enumerate() {
            x += u * scale;
            prop_assert!(
                !d.observe(k as f64, x),
                "drift of {:.3}/sample fired at sample {k} (bound {:.3})",
                u * scale,
                alpha * sigma * floor
            );
        }
    }

    /// After a constant warmup (variance zero, so the noise floor is the
    /// denominator) a step of at least `sigma × noise_floor` fires on
    /// the very sample that steps — and keeps firing while the shifted
    /// level persists, because anomalies are not learned into the
    /// baseline.
    #[test]
    fn ewma_always_fires_on_step(
        base in -1e4f64..1e4,
        (alpha, sigma, floor) in (0.05f64..1.0, 1.0f64..6.0, 0.1f64..10.0),
        warmup in 3usize..40,
        excess in 0.0f64..10.0,
        up in any::<bool>(),
        hold in 1usize..20,
    ) {
        let mut d = EwmaSpikeDetector::new(alpha, sigma, floor);
        for k in 0..warmup {
            prop_assert!(!d.observe(k as f64, base));
        }
        let jump = sigma * floor * (1.0 + excess) * if up { 1.0 } else { -1.0 };
        for k in 0..hold {
            prop_assert!(
                d.observe((warmup + k) as f64, base + jump),
                "step of {jump:.3} (≥ sigma × floor = {:.3}) did not fire \
                 at shifted sample {k}",
                sigma * floor
            );
        }
    }

    /// EWMA and threshold verdicts are timestamp-free: replaying the
    /// same values under ±20% sampling jitter reproduces the exact
    /// verdict sequence.
    #[test]
    fn ewma_and_threshold_ignore_sampling_jitter(
        values in prop::collection::vec(-1e4f64..1e4, 1..100),
        jitter in prop::collection::vec(0.8f64..1.2, 1..100),
        interval in 1.0f64..1000.0,
        level in -1e3f64..1e3,
        debounce in 1usize..4,
    ) {
        let mut nominal = (
            EwmaSpikeDetector::new(0.3, 4.0, 5.0),
            ThresholdRule::below(level, debounce),
        );
        let mut jittered = nominal.clone();
        let mut t_jit = 0.0;
        for (k, &v) in values.iter().enumerate() {
            let t_nom = k as f64 * interval;
            t_jit += interval * jitter[k % jitter.len()];
            prop_assert_eq!(
                nominal.0.observe(t_nom, v),
                jittered.0.observe(t_jit, v),
                "spike detector diverged under jitter at sample {}",
                k
            );
            prop_assert_eq!(
                nominal.1.observe(t_nom, v),
                jittered.1.observe(t_jit, v),
                "floor rule diverged under jitter at sample {}",
                k
            );
        }
    }

    /// A series that never reaches the burn threshold never fires, for
    /// any monotone (jittered or not) timestamp sequence.
    #[test]
    fn burn_rate_is_silent_below_budget(
        budget in 0.01f64..0.5,
        factor in 1.0f64..4.0,
        interval in 10.0f64..1000.0,
        fractions in prop::collection::vec(0.0f64..0.99, 1..100),
        jitter in prop::collection::vec(0.8f64..1.2, 1..100),
    ) {
        let mut rule = BurnRateRule::new(
            budget, factor, 2.0 * interval, 8.0 * interval,
        );
        let level = rule.burn_threshold();
        let mut t = 0.0;
        for (k, &f) in fractions.iter().enumerate() {
            t += interval * jitter[k % jitter.len()];
            prop_assert!(
                !rule.observe(t, f * level),
                "sub-budget burn fired at sample {k}"
            );
        }
    }

    /// A sustained burn — every sample at or above the threshold —
    /// fires at every sample once the warmup count is reached, under
    /// ±20% sampling jitter: with every sample above the level, every
    /// window mean is above it too, so window membership churn cannot
    /// change the verdict.
    #[test]
    fn burn_rate_fires_on_sustained_burn_despite_jitter(
        budget in 0.01f64..0.5,
        factor in 1.0f64..4.0,
        interval in 10.0f64..1000.0,
        overshoots in prop::collection::vec(1.0f64..10.0, 3..100),
        jitter in prop::collection::vec(0.8f64..1.2, 3..100),
    ) {
        let mut rule = BurnRateRule::new(
            budget, factor, 2.0 * interval, 8.0 * interval,
        );
        let level = rule.burn_threshold();
        let mut t = 0.0;
        for (k, &m) in overshoots.iter().enumerate() {
            t += interval * jitter[k % jitter.len()];
            let fired = rule.observe(t, m * level);
            // Default warmup: three samples inside the long window.
            prop_assert_eq!(
                fired,
                k >= 2,
                "sustained burn verdict wrong at sample {k}"
            );
        }
    }

    /// The threshold debounce matches a straightforward reference: fire
    /// exactly when the trailing `debounce` samples all breach.
    #[test]
    fn threshold_debounce_matches_reference(
        values in prop::collection::vec(-10.0f64..10.0, 1..200),
        level in -5.0f64..5.0,
        debounce in 1usize..6,
    ) {
        let mut rule = ThresholdRule::below(level, debounce);
        let mut run = 0usize;
        for (k, &v) in values.iter().enumerate() {
            run = if v <= level { run + 1 } else { 0 };
            prop_assert_eq!(
                rule.observe(k as f64, v),
                run >= debounce,
                "debounce verdict wrong at sample {k}"
            );
        }
    }
}
