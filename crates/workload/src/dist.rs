//! Attribute value distributions.
//!
//! "Each record has 16 attributes, with 4 different types of distribution:
//! uniform (uniformly distributed in \[0,1\]), range (uniformly distributed in
//! ranges of length 0.5), Gaussian and Pareto (scaled and truncated into
//! \[0,1\])." (§V)

use rand::Rng;

/// One attribute's value distribution. All variants produce values in
/// `\[0, 1\]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over `\[0, 1\]`.
    Uniform,
    /// Uniform over `[start, start + len]` (clipped at 1); the paper's
    /// "range" family uses `len = 0.5` with a per-node or per-attribute
    /// start.
    Range {
        /// Window start in `[0, 1 - len]` (larger values are clipped).
        start: f64,
        /// Window length.
        len: f64,
    },
    /// Gaussian with the given mean and standard deviation, truncated into
    /// `\[0, 1\]` by resampling (up to a bound, then clamping).
    Gaussian {
        /// Mean.
        mu: f64,
        /// Standard deviation.
        sigma: f64,
    },
    /// Pareto with shape `alpha` and scale `x_m`, mapped into `\[0, 1\]` by
    /// `(x_m / x)`-style inversion so mass concentrates near 0 with a heavy
    /// tail toward 1 — "scaled and truncated into \[0,1\]".
    Pareto {
        /// Tail index (smaller = heavier tail).
        alpha: f64,
    },
    /// A Pareto sample scaled into the window `[start, start + len]` — the
    /// "scaled" reading of the paper's "scaled and truncated into \[0,1\]",
    /// with the window chosen per data owner.
    ParetoScaled {
        /// Tail index.
        alpha: f64,
        /// Window start.
        start: f64,
        /// Window length.
        len: f64,
    },
}

impl Distribution {
    /// The paper's "range" family with its default window length of 0.5 and
    /// a window start chosen by the caller.
    pub fn range05(start: f64) -> Self {
        Distribution::Range { start, len: 0.5 }
    }

    /// Draw one value in `\[0, 1\]`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Distribution::Uniform => rng.gen::<f64>(),
            Distribution::Range { start, len } => {
                let lo = start.clamp(0.0, 1.0);
                let hi = (start + len).clamp(lo, 1.0);
                if hi <= lo {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
            Distribution::Gaussian { mu, sigma } => {
                // Truncate by resampling; clamp after a few failures so the
                // draw always terminates.
                for _ in 0..16 {
                    let v = mu + sigma * gaussian(rng);
                    if (0.0..=1.0).contains(&v) {
                        return v;
                    }
                }
                (mu + sigma * gaussian(rng)).clamp(0.0, 1.0)
            }
            Distribution::Pareto { alpha } => {
                // Standard Pareto X = x_m / U^(1/alpha) with x_m = 1, mapped
                // into (0,1] via 1/X; density alpha·x^(alpha-1).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                u.powf(1.0 / alpha)
            }
            Distribution::ParetoScaled { alpha, start, len } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                (start + len * u.powf(1.0 / alpha)).clamp(0.0, 1.0)
            }
        }
    }
}

/// Standard normal via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    /// `n` draws from a fresh seeded generator.
    fn draw(d: Distribution, n: usize) -> Vec<f64> {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).collect()
    }

    fn assert_unit_range(vals: &[f64]) {
        for &v in vals {
            assert!((0.0..=1.0).contains(&v), "value {v} escapes [0,1]");
        }
    }

    #[test]
    fn uniform_in_unit_range_with_uniform_spread() {
        let vals = draw(Distribution::Uniform, 10_000);
        assert_unit_range(&vals);
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn range_confined_to_window() {
        let d = Distribution::range05(0.3);
        let vals = draw(d, 5_000);
        assert_unit_range(&vals);
        for &v in &vals {
            assert!((0.3..0.8).contains(&v), "value {v} escapes window");
        }
    }

    #[test]
    fn range_window_clipped_at_one() {
        let d = Distribution::range05(0.8);
        let vals = draw(d, 1_000);
        for &v in &vals {
            assert!((0.8..=1.0).contains(&v));
        }
    }

    #[test]
    fn degenerate_range_returns_start() {
        let d = Distribution::Range {
            start: 1.0,
            len: 0.5,
        };
        assert_eq!(d.sample(&mut rng()), 1.0);
    }

    #[test]
    fn gaussian_truncated_and_centered() {
        let d = Distribution::Gaussian {
            mu: 0.5,
            sigma: 0.15,
        };
        let vals = draw(d, 10_000);
        assert_unit_range(&vals);
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
        // Concentration: most mass within one sigma of the mean.
        let near = vals.iter().filter(|&&v| (v - 0.5).abs() < 0.15).count();
        assert!(near as f64 / vals.len() as f64 > 0.6);
    }

    #[test]
    fn pareto_right_skewed_in_unit_range() {
        let d = Distribution::Pareto { alpha: 1.5 };
        let vals = draw(d, 10_000);
        assert_unit_range(&vals);
        // X = U^(1/alpha) has density alpha·x^(alpha-1) on (0,1]:
        // E[X] = alpha/(alpha+1) = 0.6 for alpha = 1.5, skewed toward 1.
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.6).abs() < 0.02, "mean={mean}");
        let above_median_point = vals.iter().filter(|&&v| v > 0.5).count();
        assert!(above_median_point as f64 / vals.len() as f64 > 0.6);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = draw(Distribution::Uniform, 10);
        let b = draw(Distribution::Uniform, 10);
        assert_eq!(a, b);
    }
}
