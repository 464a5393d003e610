//! Sample summaries: medians and nearest-rank percentiles, with the rule
//! that a named percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples a run must hold above a named percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `per_mille`/1000 percentile of `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).max(1)
}

/// Samples strictly above the nearest-rank percentile.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n - rank(n, per_mille)
}

/// The smallest sample count that supports a named percentile.
pub fn samples_needed(per_mille: usize) -> usize {
    (1..).find(|&n| beyond(n, per_mille) >= MIN_BEYOND).unwrap()
}

/// The nearest-rank percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 || beyond(n, per_mille) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank(n, per_mille) - 1])
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond() {
        assert_eq!(samples_needed(500), 20);
        assert_eq!(samples_needed(900), 100);
        assert_eq!(samples_needed(990), 1000);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(percentile(&xs, 990), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
