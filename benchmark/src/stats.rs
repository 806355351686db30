//! Percentiles with the sample-count rule, medians, and counter
//! scraping from the Prometheus text the program's `/metrics` serves.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a tail figure resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Fewest samples for which the `q`-quantile has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some n satisfies the rule")
}

/// Nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the median of a non-empty set
/// is always reported).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || (q > 0.5 && beyond(samples.len(), q) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Value of an unlabeled series in Prometheus text exposition (0 when
/// absent — counters start at zero).
pub fn counter(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            (series == name).then(|| value.parse().ok())?
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(100.0));
        assert_eq!(quantile(&samples, 0.9), Some(180.0));
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(quantile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), Some(89.0));
        // The median has no tail rule.
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn counters_parse_from_exposition() {
        let text = "# HELP x_total help\n# TYPE x_total counter\nx_total 42\n\
                    x_total_other 7\ny{label=\"a\"} 3\n";
        assert_eq!(counter(text, "x_total"), 42.0);
        assert_eq!(counter(text, "x_total_other"), 7.0);
        assert_eq!(counter(text, "missing_total"), 0.0);
    }
}
