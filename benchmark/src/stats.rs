//! Order statistics the protocol needs: per-pass percentiles by nearest
//! rank, and quartiles over passes by linear interpolation.

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (the method of Python's `statistics.quantiles(...,
/// method="inclusive")`). Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m * 100.0
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile `p` of a **sorted** sample, and how many
/// samples lie beyond it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> (f64, usize) {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Median of `value(item)` over `items`.
pub fn median_of<T>(items: &[T], value: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(value).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(median_of(&v, |x| x * 2.0), 6.0);
    }

    #[test]
    fn p99_of_1000_leaves_ten_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), (989.0, 10));
        let v: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.95).1, 12);
    }
}
