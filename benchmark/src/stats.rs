//! Order statistics over small samples of reps and large samples of hops.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` percent of the sample at or below it. `p` in (0, 100].
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median with the mean of the two middle values for an even count, as
/// Python's `statistics.median`.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and count of a sample of reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `None` below two values.
    pub quartiles: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Self> {
        Some(Self { n: values.len(), median: median(values)?, quartiles: quartiles(values) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let v = [15, 20, 35, 40, 50];
        assert_eq!(percentile_nearest_rank(&v, 5.0), Some(15));
        assert_eq!(percentile_nearest_rank(&v, 30.0), Some(20));
        assert_eq!(percentile_nearest_rank(&v, 40.0), Some(20));
        assert_eq!(percentile_nearest_rank(&v, 50.0), Some(35));
        assert_eq!(percentile_nearest_rank(&v, 100.0), Some(50));
        assert_eq!(percentile_nearest_rank(&[7], 99.9), Some(7));
    }

    #[test]
    fn nearest_rank_rejects_empty_and_out_of_range() {
        assert_eq!(percentile_nearest_rank::<u32>(&[], 50.0), None);
        assert_eq!(percentile_nearest_rank(&[1], 0.0), None);
        assert_eq!(percentile_nearest_rank(&[1], 100.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_holds_count_median_and_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.median, s.quartiles), (10, 5.5, Some((2.75, 8.25))));
        assert_eq!(Summary::of(&[4.0]).unwrap().quartiles, None);
        assert_eq!(Summary::of(&[]), None);
    }
}
