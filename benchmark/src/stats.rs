//! Order statistics for the reported numbers.

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let centre = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - centre).abs()).collect();
    median(&deviations)
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(count: usize, q: f64) -> usize {
    count - ((q * count as f64).ceil() as usize).clamp(1, count)
}

/// The tail percentile the benchmark reports: the 90th, which needs at
/// least ten samples beyond it (so at least 100 samples) to be more
/// than one slow op's luck. `None` when the sample is too small.
pub fn p90(values: &[f64]) -> Option<f64> {
    (samples_beyond(values.len(), 0.9) >= 10).then(|| quantile(values, 0.9))
}

/// A probe result: `k` independent samples reduced to median and MAD.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub mad: f64,
    pub samples: usize,
}

impl Stat {
    pub fn of(values: &[f64]) -> Stat {
        Stat {
            median: median(values),
            mad: mad(values),
            samples: values.len(),
        }
    }

    /// An exact count (or a single derived number): no spread.
    pub fn exact(value: f64) -> Stat {
        Stat {
            median: value,
            mad: 0.0,
            samples: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from 3: 2 1 0 1 6 → median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.9), 90.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(p90(&values), Some(90.0));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(p90(&values[..99]), None);
        assert_eq!(samples_beyond(120, 0.9), 12);
    }
}
