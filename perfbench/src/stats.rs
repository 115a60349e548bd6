//! Sample summaries: the median and the highest percentile that still has at
//! least ten samples beyond it.

/// How many samples must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median, tail percentile and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile (0–100) `tail` was read at; 50 when the series is too
    /// short for any higher percentile to keep ten samples beyond it.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Value at percentile `pct` (nearest-rank on the sorted samples).
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index (into the ascending sort) of the highest sample that still has
/// [`TAIL_MIN_BEYOND`] samples after it, if that lies above the median.
fn tail_index(n: usize) -> Option<usize> {
    let idx = n.checked_sub(TAIL_MIN_BEYOND + 1)?;
    (idx > n / 2).then_some(idx)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = median_sorted(&sorted);
    match tail_index(n) {
        Some(idx) => Summary {
            n,
            p50,
            tail_pct: 100.0 * (idx + 1) as f64 / n as f64,
            tail: sorted[idx],
        },
        None => Summary {
            n,
            p50,
            tail_pct: 50.0,
            tail: p50,
        },
    }
}

/// `part / whole`, 0 when the whole is empty.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples 1..=1000: ten samples (991..=1000) lie beyond 990.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail, 990.0);
        assert!((s.tail_pct - 99.0).abs() < 1e-12);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn short_series_fall_back_to_the_median() {
        // 21 samples: index 10 is the median itself, not above it.
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!((s.tail_pct, s.tail), (50.0, 11.0));
        // 30 samples: index 19 (the 20th value) has ten beyond it.
        let samples: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.tail, 20.0);
        assert!((s.tail_pct - 100.0 * 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
    }
}
