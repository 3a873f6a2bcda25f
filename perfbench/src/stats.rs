//! Order statistics over measured samples.

/// Linear-interpolated percentile of `xs` (`q` in `[0, 1]`); 0 for an
/// empty series.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q` percentile of `xs` and how many samples lie above it. Each
/// workload fixes its `q` so the metric means the same on every run; the
/// count shows whether the run was long enough (ten or more).
pub fn tail(xs: &[f64], q: f64) -> (f64, usize) {
    let v = percentile(xs, q);
    (v, xs.iter().filter(|&&x| x > v).count())
}

/// The mean of the slowest `1 - q` share of `xs` (at least one sample)
/// and how many samples that is; 0 for an empty series. Unlike a
/// percentile it does not jump when `q` falls between two clusters of a
/// mixed workload's latencies.
pub fn tail_mean(xs: &[f64], q: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let n = ((1.0 - q.clamp(0.0, 1.0)) * xs.len() as f64).ceil().max(1.0) as usize;
    (sorted[..n].iter().sum::<f64>() / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn tail_counts_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (v, beyond) = tail(&xs, 0.99);
        assert!((v - 989.01).abs() < 1e-9);
        assert_eq!(beyond, 10);
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&xs, 0.9), (95.5, 10));
        assert_eq!(tail_mean(&[3.0], 0.9), (3.0, 1));
        assert_eq!(tail_mean(&[], 0.9), (0.0, 0));
    }
}
