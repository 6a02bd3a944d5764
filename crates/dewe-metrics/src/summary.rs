//! Distribution summaries for experiment reporting.
//!
//! Makespans, per-job latencies and queue waits are distributions, not
//! single numbers; [`Summary`] provides the standard descriptive
//! statistics.

/// Descriptive statistics over a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Percentiles: p50, p90, p99 (nearest-rank).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let pct = |p: f64| -> f64 {
            let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as usize;
            sorted[rank - 1]
        };
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            stddev: var.sqrt(),
            p50: pct(50.0),
            p90: pct(90.0),
            p99: pct(99.0),
        })
    }

    /// Coefficient of variation (stddev / mean; 0 when mean is 0).
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p90, 5.0);
        assert!((s.stddev - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.min, s.max, s.mean, s.p50, s.p99), (7.0, 7.0, 7.0, 7.0, 7.0));
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
    }
}
