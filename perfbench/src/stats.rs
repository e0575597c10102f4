//! Robust summaries of per-pass timings.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest whole percentile `q` in `50..=99` that has at least
/// [`TAIL_SAMPLES`] samples strictly beyond it, with its nearest-rank
/// value. `None` when there are too few samples for even the median to
/// have ten beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    (50..=99u32).rev().find_map(|q| {
        // Nearest rank: the smallest index covering q% of the samples.
        let rank = (q as usize * n).div_ceil(100).max(1);
        let value = sorted[rank - 1];
        let beyond = sorted.iter().filter(|&&v| v > value).count();
        (beyond >= TAIL_SAMPLES).then_some((q, value))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None);
        // 20 samples: the median (rank 10) has exactly ten beyond it,
        // p51 (rank 11) only nine.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50, 10.0)));
        // 100 samples: p90 is the 90th value with ten beyond it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90, 90.0)));
        // 1000 samples: p99 has ten beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99, 990.0)));
    }

    #[test]
    fn ties_do_not_count_as_beyond() {
        let mut values = vec![1.0; 15];
        values.extend(std::iter::repeat_n(2.0, 10));
        // Every percentile up to 60 lands on a 1.0, with ten 2.0s beyond.
        assert_eq!(tail_percentile(&values), Some((60, 1.0)));
        assert_eq!(tail_percentile(&[7.0; 40]), None);
    }
}
