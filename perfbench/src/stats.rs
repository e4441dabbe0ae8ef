//! Small statistics helpers.

/// Nearest-rank percentile (`p` in 0..=100) of weighted samples
/// `(value, weight)`; `None` if the total weight is 0.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> Option<f64> {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return None;
    }
    let mut v: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (value, w) in v {
        seen += w;
        if seen >= rank {
            return Some(value);
        }
    }
    None
}

/// Nearest-rank percentile of unweighted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let w: Vec<(f64, u64)> = samples.iter().map(|&v| (v, 1)).collect();
    weighted_percentile(&w, p)
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(weighted_percentile(&[(1.0, 3), (9.0, 1)], 75.0), Some(1.0));
        assert_eq!(weighted_percentile(&[(1.0, 3), (9.0, 1)], 76.0), Some(9.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
