//! Shared prefix-statistics kernel for O(1) segment queries.
//!
//! Change-point search is the hot loop of the stage-1 scan: CUSUM+EM scores
//! many candidate split points per series, and each score needs segment
//! means, residual sums of squares, and Gaussian log-likelihoods. This
//! module precomputes prefix sums and prefix sums-of-squares once (O(n)) so
//! every subsequent segment query is O(1), turning `fit_two_segment` from
//! O(n·radius·iters) into O(n + radius·iters).
//!
//! Values are centered on the global mean before accumulation. The naive
//! `Σx² − (Σx)²/n` identity cancels catastrophically when the mean dwarfs
//! the noise (exactly the shape of latency series: base ~1.0, noise ~1e-3);
//! centering keeps both accumulators on the scale of the fluctuations, so
//! the O(1) answers match the direct two-pass computations to ~1e-12
//! relative error.

use crate::error::{ensure_finite, ensure_len};
use crate::Result;

/// Precomputed prefix sums and sums-of-squares over a series, centered on
/// the global mean, enabling O(1) segment mean / RSS / likelihood queries.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixStats {
    /// `csum[i]` = Σ_{j<i} (x_j − x̄); length n+1, `csum[0] = 0`.
    csum: Vec<f64>,
    /// `csum_sq[i]` = Σ_{j<i} (x_j − x̄)²; length n+1.
    csum_sq: Vec<f64>,
    /// Global mean x̄ used for centering.
    mean: f64,
}

impl PrefixStats {
    /// Builds prefix statistics over `data` in one pass (after a pass to
    /// compute the centering mean). O(n) time, O(n) space.
    ///
    /// The columns are sized up front and written by index: a `push` per
    /// sample per column costs a capacity check that more than doubles the
    /// pass. The two running sums are independent chains, each taking the
    /// samples in order.
    pub fn new(data: &[f64]) -> Self {
        let n = data.len();
        let mean = if n == 0 {
            0.0
        } else {
            data.iter().sum::<f64>() / n as f64
        };
        let mut csum = vec![0.0; n + 1];
        let mut csum_sq = vec![0.0; n + 1];
        let (mut s, mut ss) = (0.0, 0.0);
        for ((sum, sum_sq), &v) in csum[1..].iter_mut().zip(&mut csum_sq[1..]).zip(data) {
            let c = v - mean;
            s += c;
            ss += c * c;
            *sum = s;
            *sum_sq = ss;
        }
        PrefixStats { csum, csum_sq, mean }
    }

    /// Number of samples the statistics cover.
    pub fn len(&self) -> usize {
        self.csum.len() - 1
    }

    /// True when built over an empty series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global mean used for centering (the mean of the whole series).
    pub fn global_mean(&self) -> f64 {
        self.mean
    }

    /// Centered prefix sum `S_i = Σ_{j<i} (x_j − x̄)` — the classic CUSUM
    /// series evaluated at index `i − 1` (so `cusum_at(n)` is ≈ 0).
    pub fn cusum_at(&self, i: usize) -> f64 {
        self.csum[i]
    }

    /// Sum of the half-open segment `[lo, hi)` in O(1).
    pub fn sum(&self, lo: usize, hi: usize) -> f64 {
        self.csum[hi] - self.csum[lo] + (hi - lo) as f64 * self.mean
    }

    /// Mean of the half-open segment `[lo, hi)` in O(1).
    ///
    /// Returns the global mean for an empty segment.
    pub fn segment_mean(&self, lo: usize, hi: usize) -> f64 {
        if hi == lo {
            return self.mean;
        }
        self.mean + (self.csum[hi] - self.csum[lo]) / (hi - lo) as f64
    }

    /// Residual sum of squares of segment `[lo, hi)` around its own mean
    /// (the Gaussian segment cost), in O(1). Clamped to be non-negative.
    pub fn segment_cost(&self, lo: usize, hi: usize) -> f64 {
        if hi == lo {
            return 0.0;
        }
        let n = (hi - lo) as f64;
        let s = self.csum[hi] - self.csum[lo];
        let ss = self.csum_sq[hi] - self.csum_sq[lo];
        (ss - s * s / n).max(0.0)
    }

    /// RSS of the whole series around the global mean.
    pub fn total_cost(&self) -> f64 {
        self.segment_cost(0, self.len())
    }

    /// Pooled RSS of the two-segment model split after index `cp`
    /// (segments `0..=cp` and `cp+1..n`), in O(1).
    pub fn two_segment_cost(&self, cp: usize) -> f64 {
        self.segment_cost(0, cp + 1) + self.segment_cost(cp + 1, self.len())
    }

    /// Log-likelihood of the series under a single Gaussian (H0) in O(1).
    pub fn single_mean_log_likelihood(&self) -> f64 {
        let n = self.len() as f64;
        gaussian_log_likelihood(n, self.total_cost() / n)
    }

    /// Log-likelihood of the two-segment mean model split after index `cp`
    /// with a pooled variance (H1) in O(1).
    ///
    /// The caller must ensure `1 <= cp` and `cp + 2 <= len` so both
    /// segments are non-empty with at least two samples overall.
    pub fn two_mean_log_likelihood(&self, cp: usize) -> f64 {
        let n = self.len() as f64;
        gaussian_log_likelihood(n, self.two_segment_cost(cp) / n)
    }
}

/// Log-likelihood of a Gaussian MLE fit given sample count and MLE variance.
///
/// Guards against zero variance with a floor so the likelihood stays finite;
/// constant series are handled by the hypothesis test upstream.
pub fn gaussian_log_likelihood(n: f64, var: f64) -> f64 {
    let var = var.max(1e-300);
    -0.5 * n * ((2.0 * std::f64::consts::PI * var).ln() + 1.0)
}

/// Validated constructor: errors on series shorter than `min_len` or
/// containing non-finite values, mirroring the checks the statistical
/// entry points perform on raw slices.
pub fn validated(data: &[f64], min_len: usize) -> Result<PrefixStats> {
    ensure_len(data, min_len)?;
    ensure_finite(data)?;
    Ok(PrefixStats::new(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The push-based build [`PrefixStats::new`] replaced: the reference
    /// its pre-sized columns must match bit for bit.
    fn pushed(data: &[f64]) -> PrefixStats {
        let n = data.len();
        let mean = if n == 0 {
            0.0
        } else {
            data.iter().sum::<f64>() / n as f64
        };
        let mut csum = Vec::with_capacity(n + 1);
        let mut csum_sq = Vec::with_capacity(n + 1);
        csum.push(0.0);
        csum_sq.push(0.0);
        let (mut s, mut ss) = (0.0, 0.0);
        for &v in data {
            let c = v - mean;
            s += c;
            ss += c * c;
            csum.push(s);
            csum_sq.push(ss);
        }
        PrefixStats {
            csum,
            csum_sq,
            mean,
        }
    }

    fn bits(ps: &PrefixStats) -> (Vec<u64>, Vec<u64>, u64) {
        let column = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect();
        (column(&ps.csum), column(&ps.csum_sq), ps.mean.to_bits())
    }

    proptest! {
        #[test]
        fn presized_build_is_bit_identical_to_pushed(
            data in prop::collection::vec(-1e6f64..1e6, 0..300),
            offset in 0usize..4,
        ) {
            // Offsets put the mean far from the noise, where the centred
            // sums carry the most rounding.
            let offset = [0.0, 1.0, -3e3, 1e9][offset];
            let data: Vec<f64> = data.iter().map(|v| v * 1e-6 + offset).collect();
            prop_assert_eq!(bits(&PrefixStats::new(&data)), bits(&pushed(&data)));
        }
    }

    #[test]
    fn presized_build_matches_pushed_on_edge_inputs() {
        for data in [
            &[][..],
            &[0.0],
            &[-0.0, -0.0],
            &[1.0, f64::NAN, 2.0],
            &[f64::INFINITY, 1.0],
        ] {
            assert_eq!(
                bits(&PrefixStats::new(data)),
                bits(&pushed(data)),
                "{data:?}"
            );
        }
    }

    fn direct_mean(d: &[f64]) -> f64 {
        d.iter().sum::<f64>() / d.len() as f64
    }

    fn direct_rss(d: &[f64]) -> f64 {
        let m = direct_mean(d);
        d.iter().map(|v| (v - m) * (v - m)).sum()
    }

    #[test]
    fn segment_queries_match_direct_computation() {
        let data: Vec<f64> = (0..50)
            .map(|i| 3.0 + ((i * 7919) % 101) as f64 / 101.0)
            .collect();
        let ps = PrefixStats::new(&data);
        for lo in 0..data.len() {
            for hi in lo + 1..=data.len() {
                let seg = &data[lo..hi];
                assert!((ps.segment_mean(lo, hi) - direct_mean(seg)).abs() < 1e-12);
                assert!((ps.segment_cost(lo, hi) - direct_rss(seg)).abs() < 1e-9);
                assert!(
                    (ps.sum(lo, hi) - seg.iter().sum::<f64>()).abs() < 1e-9,
                    "sum mismatch at [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn centering_preserves_precision_on_offset_series() {
        // Base 1.0 with ±0.002 noise: the regime where the uncentered
        // sum-of-squares identity loses most of its significant digits.
        let data: Vec<f64> = (0..900)
            .map(|i| 1.0 + (((i * 48271) % 233) as f64 / 233.0 - 0.5) * 0.004)
            .collect();
        let ps = PrefixStats::new(&data);
        let direct = direct_rss(&data);
        let rel = (ps.total_cost() - direct).abs() / direct;
        assert!(rel < 1e-10, "relative error {rel}");
    }

    #[test]
    fn cusum_at_matches_running_deviation() {
        let data = [1.0, 3.0, 2.0, 4.0, 5.0];
        let ps = PrefixStats::new(&data);
        let m = direct_mean(&data);
        let mut acc = 0.0;
        for (i, &v) in data.iter().enumerate() {
            acc += v - m;
            assert!((ps.cusum_at(i + 1) - acc).abs() < 1e-12);
        }
        assert!(ps.cusum_at(data.len()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_sample() {
        let empty = PrefixStats::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.global_mean(), 0.0);
        let one = PrefixStats::new(&[7.0]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.segment_cost(0, 1), 0.0);
        assert_eq!(one.segment_mean(0, 1), 7.0);
        assert_eq!(one.segment_mean(1, 1), 7.0);
    }

    #[test]
    fn validated_rejects_bad_input() {
        assert!(validated(&[1.0], 2).is_err());
        assert!(validated(&[1.0, f64::NAN], 2).is_err());
        assert!(validated(&[1.0, 2.0], 2).is_ok());
    }

    #[test]
    fn two_segment_cost_is_sum_of_parts() {
        let mut data = vec![1.0; 20];
        data.extend(vec![2.0; 20]);
        let ps = PrefixStats::new(&data);
        assert!(ps.two_segment_cost(19) < 1e-12);
        assert!((ps.two_segment_cost(10) - ps.segment_cost(0, 11) - ps.segment_cost(11, 40)).abs() < 1e-12);
    }
}
