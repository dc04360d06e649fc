//! Order statistics for latency samples.

/// Least samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending):
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond that rank
/// (the median of a large sample always qualifies; the p99 needs at
/// least 1,000 samples), or when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (n - rank >= MIN_BEYOND || p <= 50.0).then(|| sorted[rank - 1])
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `samples` (order irrelevant), 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(0.0)
}

/// Percentile `p` of samples taken in rounds, robust to a slow spell of
/// the machine: consecutive rounds are grouped into the most windows
/// (of `windows`, halved until it reaches 1) in which every window
/// supports the percentile, and the median of the windows' percentiles
/// is returned. `None` when even all samples pooled cannot support it.
pub fn windowed(rounds: &[Vec<f64>], mut windows: usize, p: f64) -> Option<f64> {
    while windows >= 1 {
        let per_window = rounds.len().div_ceil(windows).max(1);
        let each: Option<Vec<f64>> = rounds
            .chunks(per_window)
            .map(|w| percentile(&sorted(&w.concat()), p))
            .collect();
        if let Some(each) = each.filter(|v| !v.is_empty()) {
            return Some(median(&each));
        }
        windows /= 2;
    }
    None
}

/// Arithmetic mean, 0 when empty.
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
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(1000.0));
        assert_eq!(percentile(&s, 99.0), Some(1980.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let at = |n: usize| {
            let s: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            percentile(&s, 99.0)
        };
        // 1,000 samples: rank 990, ten beyond it
        assert_eq!(at(1000), Some(990.0));
        // 999 samples: rank 990 again (ceil 989.01), only nine beyond
        assert_eq!(at(999), None);
        assert_eq!(at(100), None);
        assert_eq!(at(1), None);
    }

    #[test]
    fn windows_reject_a_slow_spell_and_grow_when_too_small() {
        let steady: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slow: Vec<f64> = steady.iter().map(|v| v * 10.0).collect();
        // four windows of one round each; the slow one is outvoted
        let rounds = vec![steady.clone(), slow, steady.clone(), steady.clone()];
        assert_eq!(windowed(&rounds, 4, 99.0), Some(990.0));
        assert_eq!(windowed(&rounds, 4, 50.0), Some(500.0));
        // 500-sample rounds: four windows cannot support a p99, two can
        let halves: Vec<Vec<f64>> = steady.chunks(500).map(<[f64]>::to_vec).collect();
        let rounds: Vec<Vec<f64>> = halves.iter().chain(&halves).cloned().collect();
        assert_eq!(windowed(&rounds, 4, 99.0), Some(990.0));
        // 250-sample rounds: only all 1,000 pooled can
        let quarters: Vec<Vec<f64>> = steady.chunks(250).map(<[f64]>::to_vec).collect();
        assert_eq!(windowed(&quarters, 4, 99.0), Some(990.0));
        assert_eq!(windowed(&[vec![1.0; 10]], 4, 99.0), None);
        assert_eq!(windowed(&[], 4, 50.0), None);
    }

    #[test]
    fn median_and_mean_ignore_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
