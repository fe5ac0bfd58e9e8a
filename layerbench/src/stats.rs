//! Order statistics over latency samples.

/// Nearest-rank `q`-quantile (0 < q <= 1) of `samples`, reordering them;
/// `None` when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// Samples that lie strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// A latency distribution as reported: median, p99 and p99.9, each only
/// when at least ten samples lie beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<u64>,
    pub p99: Option<u64>,
    pub p999: Option<u64>,
}

impl Summary {
    pub fn of(samples: &mut [u64]) -> Self {
        let n = samples.len();
        let supported = |q: f64| beyond(n, q) >= 10;
        let mut at = |q: f64| if supported(q) { quantile(samples, q) } else { None };
        Summary { n, p50: at(0.5), p99: at(0.99), p999: at(0.999) }
    }

    /// One line for the report, in microseconds; p99.9 only on request
    /// (the traced report), since it is too unsteady to compare runs by.
    pub fn describe(&self, with_p999: bool) -> String {
        let us =
            |v: Option<u64>| v.map_or("n/a".to_string(), |ns| format!("{:.3}", ns as f64 / 1e3));
        let p999 = if with_p999 { format!(", p99.9 {} us", us(self.p999)) } else { String::new() };
        format!("p50 {} us, p99 {} us{p999} (n = {})", us(self.p50), us(self.p99), self.n)
    }
}

/// Mean of `samples` with the largest `tail` share left out (at least one
/// sample kept), reordering them; `None` when empty.
pub fn trimmed_mean(samples: &mut [u64], tail: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let keep = ((samples.len() as f64 * (1.0 - tail)).ceil() as usize).clamp(1, samples.len());
    samples.select_nth_unstable(keep - 1);
    Some(samples[..keep].iter().map(|&v| v as f64).sum::<f64>() / keep as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[m] } else { f64::midpoint(v[m - 1], v[m]) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [7], 0.999), Some(7));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let mut v: Vec<u64> = (0..999).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 999);
        assert_eq!(s.p50, Some(499));
        assert_eq!(s.p99, None, "only 9 samples lie beyond p99");
        assert_eq!(s.p999, None);
        let mut v: Vec<u64> = (0..10_000).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.p99, s.p999), (Some(9899), Some(9989)));
        assert!(s.describe(true).contains("p99.9 9.989 us (n = 10000)"));
        assert!(!s.describe(false).contains("p99.9"));
    }

    #[test]
    fn trimmed_mean_leaves_out_the_largest_tail() {
        let mut v: Vec<u64> = (1..=99).map(|_| 10).chain([1_000_000]).collect();
        assert_eq!(trimmed_mean(&mut v, 0.01), Some(10.0));
        assert_eq!(trimmed_mean(&mut v, 0.0), Some(10_009.9));
        assert_eq!(trimmed_mean(&mut [4, 8], 0.9), Some(4.0));
        assert_eq!(trimmed_mean(&mut [], 0.01), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median_f64(&[]), None);
    }
}
