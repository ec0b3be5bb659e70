//! Exact sample-based summary statistics.
//!
//! [`LatencyStats`] is the workspace's common "latency summary" currency.
//! It originated in `roads-core::metrics` and moved here so every layer
//! (simulator, runtime, bench harness, JSON export) can share it;
//! callers import it from `roads_telemetry`.

use crate::json_fields;

/// Summary statistics over a set of latency (or any scalar) samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile (the paper's Fig. 11 reports avg and p90).
    pub p90: f64,
    /// 99th percentile (tail behaviour; not in the paper, tracked here).
    pub p99: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl LatencyStats {
    /// Compute from samples; `None` when empty. Percentiles use the
    /// nearest-rank method on the sorted samples.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let pct = |q: f64| {
            let idx = ((count as f64) * q).ceil() as usize;
            sorted[idx.clamp(1, count) - 1]
        };
        Some(LatencyStats {
            count,
            mean,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            min: sorted[0],
            max: sorted[count - 1],
        })
    }
}

json_fields!(LatencyStats {
    count,
    mean,
    p50,
    p90,
    p99,
    min,
    max
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(LatencyStats::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_samples(&[42.0]).unwrap();
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p90, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(&samples).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_ok() {
        let s = LatencyStats::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn p99_exceeds_p90_on_skewed_tail() {
        let mut samples = vec![1.0; 989];
        samples.extend(std::iter::repeat_n(100.0, 11));
        let s = LatencyStats::from_samples(&samples).unwrap();
        assert_eq!(s.p90, 1.0);
        assert_eq!(s.p99, 100.0);
    }
}
