//! A named time series of (seconds, value) samples.

/// A time series with a name, for plotting and aggregation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Series name (CSV column header).
    pub name: String,
    /// (time seconds, value) samples in nondecreasing time order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), points: Vec::new() }
    }

    /// Append a sample; time must be nondecreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(lt, _)| t >= lt),
            "time series must be appended in time order"
        );
        self.points.push((t, v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Arithmetic mean of values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Trapezoidal integral of the series over time — e.g. integrating a
    /// MB/s rate series yields total MB, the quantity behind the paper's
    /// "total disk writes" bars (Fig. 7c).
    pub fn integrate(&self) -> f64 {
        self.points.windows(2).map(|w| 0.5 * (w[0].1 + w[1].1) * (w[1].0 - w[0].0)).sum()
    }

    /// Value at or before `t` (step interpolation; 0.0 before first sample).
    pub fn value_at(&self, t: f64) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.partial_cmp(&t).unwrap()) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("x");
        for &(t, v) in vals {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn basic_stats() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_integration() {
        // Rate ramps 0 -> 10 over 2 s: integral = 10.
        let s = series(&[(0.0, 0.0), (2.0, 10.0)]);
        assert!((s.integrate() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn constant_rate_integrates_to_rate_times_time() {
        let s = series(&[(0.0, 5.0), (3.0, 5.0), (10.0, 5.0)]);
        assert!((s.integrate() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.integrate(), 0.0);
        assert_eq!(s.value_at(5.0), 0.0);
    }

    #[test]
    fn step_interpolation() {
        let s = series(&[(1.0, 10.0), (3.0, 20.0)]);
        assert_eq!(s.value_at(0.5), 0.0);
        assert_eq!(s.value_at(1.0), 10.0);
        assert_eq!(s.value_at(2.9), 10.0);
        assert_eq!(s.value_at(3.0), 20.0);
        assert_eq!(s.value_at(99.0), 20.0);
    }
}
