//! Autocorrelation for seasonality presence checks (§5.2.3).
//!
//! Before running STL, FBDetect applies the autocorrelation function and only
//! treats a series as seasonal if the correlation at some lag is significant.

use crate::error::{ensure_finite, ensure_len};
use crate::{Result, StatsError};

/// Autocorrelation of `data` at a single `lag`.
///
/// Uses the standard biased estimator normalized by the lag-0 variance, so
/// values lie in `[-1, 1]`.
pub fn autocorrelation(data: &[f64], lag: usize) -> Result<f64> {
    ensure_len(data, lag + 2)?;
    ensure_finite(data)?;
    if lag == 0 {
        return Ok(1.0);
    }
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    let num: f64 = (0..n - lag)
        .map(|i| (data[i] - mean) * (data[i + lag] - mean))
        .sum();
    Ok(num / denom)
}

/// Autocorrelations for all lags `1..=max_lag`.
///
/// Dispatches between the per-lag estimator ([`acf_naive`], O(n·max_lag))
/// and the Wiener–Khinchin FFT path ([`acf_fft`], O(n log n) for *all* lags
/// at once). The choice depends only on `(data.len(), max_lag)`, so it is
/// deterministic; the small-lag regime used by the seasonality detector
/// always takes the naive path and stays bit-identical to previous releases,
/// while wide scans (`max_lag` of order n) get the linearithmic kernel.
pub fn acf(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if acf_fft_pays_off(data.len(), max_lag) {
        acf_fft(data, max_lag)
    } else {
        acf_naive(data, max_lag)
    }
}

/// Lags [`acf_naive`] sums in one pass over the series. Each lag of a block
/// has its own accumulator, so the block's adds form independent chains
/// and the pass runs at the FP units' throughput rather than one add's
/// latency. Measured for 10–26 lags at n = 200–900, widths 4 to 16 all
/// run 2.0–3.2× faster than one lag at a time and within noise of each
/// other; 8 was never the slowest.
const LAG_BLOCK: usize = 8;

/// Reference all-lags ACF via the per-lag O(n) estimator.
///
/// Ground truth for the property tests pinning [`acf_fft`]; also the
/// faster kernel when `max_lag` is small relative to `n`.
///
/// The mean, lag-0 variance and centred samples are hoisted out of the
/// per-lag sums, and eight consecutive lags are summed in lockstep, each
/// in its own accumulator. Each lag's value is still the same expression
/// [`autocorrelation`] computes — the same f64 terms, added in the same
/// order from the same start — so results are bit-identical to mapping
/// `autocorrelation` over the lags. Validation order (length, finiteness,
/// degeneracy, then the max-lag length requirement) mirrors the sequential
/// per-lag path, so callers observe identical errors.
pub fn acf_naive(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if max_lag == 0 {
        return Ok(Vec::new());
    }
    let n = data.len();
    // Lag 1 requires 3 samples; sequential mapping would fail there first.
    ensure_len(data, 3)?;
    ensure_finite(data)?;
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    if max_lag > n - 2 {
        // Sequential mapping computes lags up to n − 2, then errors on lag
        // n − 1, whose length requirement is n + 1.
        return Err(StatsError::TooFewSamples {
            required: n + 1,
            actual: n,
        });
    }
    let centred: Vec<f64> = data.iter().map(|v| v - mean).collect();
    let mut correlations = Vec::with_capacity(max_lag);
    for first in (1..=max_lag).step_by(LAG_BLOCK) {
        // The last block may run past `max_lag`; its extra lags are dropped.
        let wanted = (max_lag + 1 - first).min(LAG_BLOCK);
        let sums = lagged_sums(&centred, first);
        correlations.extend(sums[..wanted].iter().map(|num| num / denom));
    }
    Ok(correlations)
}

/// `Σ_i c[i]·c[i + lag]` for the [`LAG_BLOCK`] lags from `first`, in one
/// pass over `i` for the range every lag of the block covers, then each
/// lag's own tail. Every sum starts at `-0.0`, as `Iterator::sum` over f64
/// does, and takes `i` in ascending order, so each equals the lag's
/// sequential sum bit for bit. A lag at or past `c.len()` sums nothing.
fn lagged_sums(c: &[f64], first: usize) -> [f64; LAG_BLOCK] {
    let n = c.len();
    let mut sums = [-0.0; LAG_BLOCK];
    // Every lag of the block has a partner for `i < shared`.
    let shared = n.saturating_sub(first + LAG_BLOCK - 1);
    let leads = c.get(first..).unwrap_or_default().windows(LAG_BLOCK);
    for (&x, lead) in c[..shared].iter().zip(leads) {
        for (sum, &y) in sums.iter_mut().zip(lead) {
            *sum += x * y;
        }
    }
    for (lag, sum) in (first..).zip(sums.iter_mut()) {
        for (&x, &y) in c[shared..]
            .iter()
            .zip(c.get(shared + lag..).unwrap_or_default())
        {
            *sum += x * y;
        }
    }
    sums
}

/// All-lags ACF in O(n log n) via the Wiener–Khinchin theorem.
///
/// Centers the series, zero-pads to `m = (2n).next_power_of_two()` (so the
/// circular autocorrelation of the padded signal equals the *linear* lagged
/// products for every lag `< n`), takes the power spectrum, and inverse
/// transforms. Each lag-k output is then the exact sum
/// `Σ_i (x_i − mean)(x_{i+k} − mean)` up to FFT round-off, normalized by the
/// directly computed lag-0 variance — the same denominator as
/// [`autocorrelation`], so the two paths agree to ~1e-9 relative error.
///
/// Validation order (length, finiteness, degeneracy) replicates the naive
/// path exactly so callers observe identical errors.
pub fn acf_fft(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if max_lag == 0 {
        return Ok(Vec::new());
    }
    let n = data.len();
    // The naive path fails at lag 1 when n < 3 (ensure_len(data, 3)).
    ensure_len(data, 3)?;
    ensure_finite(data)?;
    let mean = data.iter().sum::<f64>() / n as f64;
    let denom: f64 = data.iter().map(|v| (v - mean) * (v - mean)).sum();
    if !(denom > 0.0) {
        return Err(StatsError::Degenerate("zero variance in autocorrelation"));
    }
    if max_lag > n - 2 {
        // The naive path computes lags up to n − 2, then errors on lag
        // n − 1, whose length requirement is n + 1.
        return Err(StatsError::TooFewSamples {
            required: n + 1,
            actual: n,
        });
    }
    let m = (2 * n).next_power_of_two();
    let mut re = vec![0.0; m];
    for (slot, &v) in re.iter_mut().zip(data.iter()) {
        *slot = v - mean;
    }
    let mut im = vec![0.0; m];
    crate::fourier::fft_pow2(&mut re, &mut im, false);
    for k in 0..m {
        re[k] = re[k] * re[k] + im[k] * im[k];
        im[k] = 0.0;
    }
    crate::fourier::fft_pow2(&mut re, &mut im, true);
    Ok((1..=max_lag).map(|lag| re[lag] / denom).collect())
}

/// Deterministic cost model for the [`acf`] dispatch: the FFT path costs
/// two length-m transforms (m = next power of two ≥ 2n), ∝ `m·log₂ m`,
/// against `n·max_lag` multiply-adds for the lockstep naive path. The
/// factor 22 is fitted to measured crossovers of the two kernels: about
/// 580 lags at n = 900, 640 at n = 3,600 and 750 at n = 14,400, where the
/// model puts 551, 651 and 751. Since `m ≥ 2n` and `log₂ m ≥ 3` for any
/// series the ACF accepts (n ≥ 3), the FFT path needs `max_lag > 132`, so
/// the seasonality detector's small-lag scans always take the bit-exact
/// naive path.
fn acf_fft_pays_off(n: usize, max_lag: usize) -> bool {
    let m = (2 * n).next_power_of_two();
    let log_m = m.trailing_zeros() as usize;
    n.saturating_mul(max_lag) > 22 * m * log_m
}

/// Detected seasonality, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seasonality {
    /// The dominant period in samples.
    pub period: usize,
    /// Autocorrelation at that period.
    pub strength: f64,
}

/// Searches for a dominant seasonal period via the ACF.
///
/// Scans lags `min_period..=max_lag` for local ACF maxima exceeding
/// `threshold` (the significance bound `~1.96/√n` is a common choice; the
/// detector uses a stricter default). Returns the strongest peak.
///
/// # Examples
///
/// ```
/// let data: Vec<f64> = (0..200)
///     .map(|i| (i as f64 / 20.0 * std::f64::consts::TAU).sin())
///     .collect();
/// let s = fbd_stats::acf::find_seasonality(&data, 2, 60, 0.3).unwrap();
/// assert_eq!(s.unwrap().period, 20);
/// ```
pub fn find_seasonality(
    data: &[f64],
    min_period: usize,
    max_lag: usize,
    threshold: f64,
) -> Result<Option<Seasonality>> {
    if min_period < 2 {
        return Err(StatsError::InvalidParameter("min_period must be >= 2"));
    }
    let max_lag = max_lag.min(data.len().saturating_sub(2));
    if max_lag < min_period {
        return Ok(None);
    }
    let correlations = acf(data, max_lag)?;
    let mut best: Option<Seasonality> = None;
    for lag in min_period..=max_lag {
        let c = correlations[lag - 1];
        if c < threshold {
            continue;
        }
        // Require a local maximum so harmonics of smaller peaks don't win on
        // plateaus.
        let prev = if lag >= 2 {
            correlations[lag - 2]
        } else {
            f64::MIN
        };
        let next = if lag < max_lag {
            correlations[lag]
        } else {
            f64::MIN
        };
        if c >= prev && c >= next {
            match best {
                Some(b) if b.strength >= c => {}
                _ => {
                    best = Some(Seasonality {
                        period: lag,
                        strength: c,
                    })
                }
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_one() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(autocorrelation(&data, 0).unwrap().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn sine_peaks_at_period() {
        let data: Vec<f64> = (0..240)
            .map(|i| (i as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let s = find_seasonality(&data, 2, 72, 0.3).unwrap().unwrap();
        assert_eq!(s.period, 24);
        assert!(s.strength > 0.85, "strength = {}", s.strength);
    }

    #[test]
    fn white_noise_has_no_seasonality() {
        // SplitMix-style bit mixing gives properly decorrelated noise.
        let data: Vec<f64> = (0..300)
            .map(|i| {
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                let h = z ^ (z >> 31);
                ((h >> 33) % 1000) as f64 / 1000.0 - 0.5
            })
            .collect();
        let s = find_seasonality(&data, 2, 100, 0.3).unwrap();
        assert!(s.is_none());
    }

    #[test]
    fn trend_does_not_register_as_short_seasonality() {
        // A pure linear trend produces high ACF at all lags but no local
        // peaks in short lags (monotone decreasing ACF).
        let data: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let s = find_seasonality(&data, 2, 50, 0.95).unwrap();
        // Only the first lag can be a "peak"; period should not be mid-range.
        if let Some(s) = s {
            assert!(s.period <= 3, "unexpected period {}", s.period);
        }
    }

    #[test]
    fn anticorrelated_at_half_period() {
        let data: Vec<f64> = (0..240)
            .map(|i| (i as f64 / 24.0 * std::f64::consts::TAU).sin())
            .collect();
        let c = autocorrelation(&data, 12).unwrap();
        assert!(c < -0.7, "half-period ACF = {c}");
    }

    #[test]
    fn constant_series_degenerate() {
        let data = vec![5.0; 50];
        assert!(matches!(
            autocorrelation(&data, 3),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn acf_returns_requested_lags() {
        let data: Vec<f64> = (0..50).map(|i| (i % 5) as f64).collect();
        let v = acf(&data, 10).unwrap();
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|c| (-1.0001..=1.0001).contains(c)));
    }

    fn pseudo_series(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z >> 33) % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    /// `acf_naive(data, max_lag)` for every `max_lag` in `max_lags` against
    /// [`autocorrelation`] lag by lag, bit for bit.
    fn assert_matches_per_lag(data: &[f64], max_lags: impl IntoIterator<Item = usize> + Clone) {
        let widest = max_lags.clone().into_iter().max().unwrap_or(0);
        let direct: Vec<u64> = (1..=widest)
            .map(|lag| autocorrelation(data, lag).unwrap().to_bits())
            .collect();
        for max_lag in max_lags {
            let hoisted: Vec<u64> = acf_naive(data, max_lag)
                .unwrap()
                .iter()
                .map(|c| c.to_bits())
                .collect();
            assert_eq!(
                hoisted,
                direct[..max_lag],
                "n={} max_lag={max_lag}",
                data.len()
            );
        }
    }

    #[test]
    fn hoisted_naive_acf_is_bit_identical_to_per_lag_estimator() {
        // Every length from the shortest the ACF accepts, every block
        // remainder (max_lag mod LAG_BLOCK) across the first two blocks,
        // and lags up to n − 2, where a block's shared range is empty.
        for n in 3..=1_200usize {
            let data = pseudo_series(n, n as u64);
            assert_matches_per_lag(&data, 1..=(2 * LAG_BLOCK + 1).min(n - 2));
            if n <= 4 * LAG_BLOCK || n % 97 == 0 || n == 1_200 {
                assert_matches_per_lag(&data, [n - 2]);
            }
        }
    }

    #[test]
    fn lag_sums_start_at_negative_zero() {
        // k samples centred at −1, then 2^j above the mean, then k centred
        // at exactly +0.0 (the mean is exactly 1.0). Lag L = k + 2^j pairs
        // each −1 with a +0.0, so every term of its sum is −0.0: a sum
        // started at +0.0 would end at +0.0, the sequential one at −0.0.
        let mut negative_zeros = 0;
        for k in 2..=4usize {
            for j in 1..=5 {
                let lag = k + (1 << j);
                let n = lag + k;
                let mut data = vec![0.0; k];
                data.extend(std::iter::repeat_n(lag as f64 / f64::from(1 << j), 1 << j));
                data.extend(std::iter::repeat_n(1.0, k));
                let hoisted = acf_naive(&data, lag).unwrap();
                negative_zeros += usize::from(hoisted[lag - 1].to_bits() == (-0.0f64).to_bits());
                assert_matches_per_lag(&data, [lag, n - 2]);
            }
        }
        assert_eq!(negative_zeros, 15, "the −0.0 lags are not all −0.0");
    }

    #[test]
    fn fft_acf_matches_naive_all_lags() {
        for &n in &[16usize, 100, 225, 900] {
            let data = pseudo_series(n, n as u64 + 3);
            let max_lag = n - 2;
            let fast = acf_fft(&data, max_lag).unwrap();
            let slow = acf_naive(&data, max_lag).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (lag, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert!((f - s).abs() < 1e-9, "n={n} lag {}: {f} vs {s}", lag + 1);
            }
        }
    }

    #[test]
    fn fft_acf_error_parity_with_naive() {
        // Degenerate variance.
        let flat = vec![5.0; 50];
        assert!(matches!(
            acf_fft(&flat, 3),
            Err(StatsError::Degenerate(_))
        ));
        // Too short for lag 1.
        assert!(matches!(
            acf_fft(&[1.0, 2.0], 1),
            Err(StatsError::TooFewSamples { .. })
        ));
        // max_lag beyond n − 2 fails like the naive sequential path.
        let data = pseudo_series(10, 9);
        let fast_err = acf_fft(&data, 9);
        let slow_err = acf_naive(&data, 9);
        assert!(matches!(
            fast_err,
            Err(StatsError::TooFewSamples {
                required: 11,
                actual: 10
            })
        ));
        assert!(matches!(
            slow_err,
            Err(StatsError::TooFewSamples {
                required: 11,
                actual: 10
            })
        ));
        // Zero lags: both return an empty vector.
        assert!(acf_fft(&data, 0).unwrap().is_empty());
        assert!(acf_naive(&data, 0).unwrap().is_empty());
    }

    #[test]
    fn dispatch_boundary_follows_the_measured_crossover() {
        // Timed at n ∈ {900, 3600, 14400} × max_lag ∈ {32, 64, 128, 256}:
        // the lockstep naive path won every cell, by 1.7× to 21×.
        for n in [900, 3_600, 14_400] {
            for max_lag in [26, 32, 64, 128, 256] {
                assert!(
                    !super::acf_fft_pays_off(n, max_lag),
                    "n={n} max_lag={max_lag}"
                );
            }
        }
        // Past the crossover the FFT path wins (1.2× at 900 lags of 900,
        // 1.5× at 1,024 lags of 3,600 and 1.4× at 1,024 lags of 14,400).
        assert!(super::acf_fft_pays_off(900, 898));
        assert!(super::acf_fft_pays_off(3_600, 1_024));
        assert!(super::acf_fft_pays_off(14_400, 1_024));
        // The boundary itself: 22·m·log₂ m lag-samples.
        assert!(!super::acf_fft_pays_off(900, 550));
        assert!(super::acf_fft_pays_off(900, 551));
        // Too short for any scan to pay for a transform.
        for n in 3..64 {
            assert!(!super::acf_fft_pays_off(n, n - 2), "n={n}");
        }
    }

    #[test]
    fn dispatch_uses_fft_for_wide_scans() {
        // Wide-lag scan where the FFT path is selected; the dispatcher must
        // still agree with naive to float tolerance.
        let n = 1024;
        let data = pseudo_series(n, 77);
        assert!(super::acf_fft_pays_off(n, n - 2));
        let via_dispatch = acf(&data, n - 2).unwrap();
        let slow = acf_naive(&data, n - 2).unwrap();
        for (f, s) in via_dispatch.iter().zip(&slow) {
            assert!((f - s).abs() < 1e-9);
        }
    }
}
