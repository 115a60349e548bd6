//! Descriptive statistics: means, variances, percentiles, and the median
//! absolute deviation used by the went-away detector's regression threshold
//! (§5.2.2: `coefficient × median × 1.4826`).

use crate::error::{ensure_finite, ensure_len, Finite};
use crate::scratch::ScratchVec;
use crate::{Result, StatsError};

/// Normality constant that scales the MAD to estimate the standard deviation
/// of normally distributed data (paper §5.2.2).
pub const MAD_NORMALITY_CONSTANT: f64 = 1.4826;

/// Arithmetic mean of `data`.
///
/// # Examples
///
/// ```
/// let m = fbd_stats::descriptive::mean(&[1.0, 2.0, 3.0]).unwrap();
/// assert_eq!(m, 2.0);
/// ```
pub fn mean(data: &[f64]) -> Result<f64> {
    mean_finite(Finite::new(data)?)
}

/// [`mean`] over an already validated slice.
pub fn mean_finite(data: Finite<'_>) -> Result<f64> {
    ensure_len(&data, 1)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased sample variance (denominator `n - 1`).
pub fn variance(data: &[f64]) -> Result<f64> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    let ss: f64 = data.iter().map(|v| (v - m) * (v - m)).sum();
    Ok(ss / (data.len() - 1) as f64)
}

/// Population variance (denominator `n`), used by the normal-loss
/// change-point search where the MLE variance is required.
pub fn population_variance(data: &[f64]) -> Result<f64> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    let ss: f64 = data.iter().map(|v| (v - m) * (v - m)).sum();
    Ok(ss / data.len() as f64)
}

/// Sample standard deviation.
pub fn std_dev(data: &[f64]) -> Result<f64> {
    variance(data).map(f64::sqrt)
}

/// The `total_cmp`-least element of a non-empty slice. For finite values
/// `total_cmp` equality implies identical bits, so this returns exactly the
/// value a total-order sort would place first.
fn total_min(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .fold(f64::INFINITY, |best, v| {
            if f64::total_cmp(&v, &best).is_lt() {
                v
            } else {
                best
            }
        })
}

/// The `total_cmp`-greatest element of a non-empty slice.
fn total_max(data: &[f64]) -> f64 {
    data.iter()
        .copied()
        .fold(f64::NEG_INFINITY, |best, v| {
            if f64::total_cmp(&v, &best).is_gt() {
                v
            } else {
                best
            }
        })
}

/// Median of `data` (average of the two central order statistics for even
/// lengths).
///
/// Uses O(n) selection rather than a full sort. The selected order
/// statistics are exactly the elements a `total_cmp` sort would place at
/// the central ranks, so the result is bit-identical to [`median_naive`]
/// (the sort-based ground truth the property tests pin this against).
pub fn median(data: &[f64]) -> Result<f64> {
    median_finite(Finite::new(data)?)
}

/// [`median`] over an already validated slice.
pub fn median_finite(data: Finite<'_>) -> Result<f64> {
    ensure_len(&data, 1)?;
    Ok(median_in_place(&mut ScratchVec::copied(&data)))
}

/// Median of a non-empty buffer by selection, reordering it.
///
/// For even lengths the lower middle element is the `total_cmp` maximum of
/// the left partition after selecting the upper middle — the same value
/// `sorted[n/2 − 1]` a sort would produce (ties under `total_cmp` imply bit
/// equality for finite inputs), added in the same order, so the average is
/// bit-identical to the sort-based median.
pub(crate) fn median_in_place(values: &mut [f64]) -> f64 {
    let n = values.len();
    let (left, &mut mid, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        mid
    } else {
        0.5 * (total_max(left) + mid)
    }
}

/// Reference median via a full sort. Ground truth for the selection-based
/// [`median`]; not used on the scan hot path.
pub fn median_naive(data: &[f64]) -> Result<f64> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        Ok(sorted[n / 2])
    } else {
        Ok(0.5 * (sorted[n / 2 - 1] + sorted[n / 2]))
    }
}

/// Percentile of `data` using linear interpolation between order statistics.
///
/// `p` must be in `[0, 100]`.
///
/// Uses O(n) selection for the (at most two) order statistics involved
/// instead of sorting; bit-identical to [`percentile_naive`].
pub fn percentile(data: &[f64], p: f64) -> Result<f64> {
    percentile_finite(Finite::new(data)?, p)
}

/// [`percentile`] over an already validated slice.
pub fn percentile_finite(data: Finite<'_>, p: f64) -> Result<f64> {
    ensure_len(&data, 1)?;
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter(
            "percentile must be in [0, 100]",
        ));
    }
    let n = data.len();
    if n == 1 {
        return Ok(data[0]);
    }
    let mut scratch = ScratchVec::copied(&data);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (_, lo_ref, right) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    let lo_v = *lo_ref;
    // sorted[lo + 1] is the least element of the right partition.
    let hi_v = if hi == lo { lo_v } else { total_min(right) };
    Ok(lo_v + frac * (hi_v - lo_v))
}

/// Reference percentile via a full sort. Ground truth for the
/// selection-based [`percentile`]; not used on the scan hot path.
pub fn percentile_naive(data: &[f64], p: f64) -> Result<f64> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    if !(0.0..=100.0).contains(&p) {
        return Err(StatsError::InvalidParameter(
            "percentile must be in [0, 100]",
        ));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return Ok(sorted[0]);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(sorted[lo] + frac * (sorted[hi] - sorted[lo]))
}

/// Median absolute deviation around the median.
///
/// Multiply by [`MAD_NORMALITY_CONSTANT`] to obtain a robust estimate of the
/// standard deviation under normality.
pub fn mad(data: &[f64]) -> Result<f64> {
    mad_finite(Finite::new(data)?)
}

/// [`mad`] over an already validated slice.
pub fn mad_finite(data: Finite<'_>) -> Result<f64> {
    let med = median_finite(data)?;
    let mut deviations = ScratchVec::with_capacity(data.len());
    deviations.extend(data.iter().map(|v| (v - med).abs()));
    // Finite samples can still be further apart than `f64::MAX`.
    ensure_finite(&deviations)?;
    Ok(median_in_place(&mut deviations))
}

/// Robust standard-deviation estimate: `MAD × 1.4826`.
pub fn robust_std(data: &[f64]) -> Result<f64> {
    mad(data).map(|m| m * MAD_NORMALITY_CONSTANT)
}

/// Minimum of `data`.
pub fn min(data: &[f64]) -> Result<f64> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    Ok(data.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Maximum of `data`.
pub fn max(data: &[f64]) -> Result<f64> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    Ok(data.iter().copied().fold(f64::NEG_INFINITY, f64::max))
}

/// Z-normalizes `data` in place: subtracts the mean and divides by the
/// sample standard deviation. Required by SAX (§5.2.2).
///
/// Returns the `(mean, std_dev)` used, or an error if the variance is zero.
pub fn z_normalize(data: &mut [f64]) -> Result<(f64, f64)> {
    // `mean` then `std_dev`, with the variance reusing the mean (the same
    // f64 `variance` would recompute): same bits, same errors in the same
    // order, one finiteness sweep and one sum fewer.
    let m = mean(data)?;
    ensure_len(data, 2)?;
    let ss: f64 = data.iter().map(|v| (v - m) * (v - m)).sum();
    let s = (ss / (data.len() - 1) as f64).sqrt();
    if !(s > 0.0) {
        return Err(StatsError::Degenerate("zero variance in z-normalization"));
    }
    for v in data.iter_mut() {
        *v = (*v - m) / s;
    }
    Ok((m, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&data).unwrap(), 5.0);
        // Sample variance of this classic example is 32/7.
        assert!((variance(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((population_variance(&data).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&data, 100.0).unwrap(), 5.0);
        assert_eq!(percentile(&data, 50.0).unwrap(), 3.0);
        assert_eq!(percentile(&data, 25.0).unwrap(), 2.0);
        assert_eq!(percentile(&data, 90.0).unwrap(), 4.6);
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(matches!(
            percentile(&[1.0], 101.0),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn mad_matches_hand_computation() {
        // Median = 2, deviations = [1, 0, 1, 3], MAD = 1.
        let data = [1.0, 2.0, 3.0, 5.0];
        assert_eq!(mad(&data).unwrap(), 1.0);
        assert!((robust_std(&data).unwrap() - 1.4826).abs() < 1e-12);
    }

    #[test]
    fn mad_robust_to_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dirty = [1.0, 2.0, 3.0, 4.0, 1000.0];
        // MAD barely moves, while the standard deviation explodes.
        assert!((mad(&clean).unwrap() - mad(&dirty).unwrap()).abs() <= 1.0);
        assert!(std_dev(&dirty).unwrap() > 100.0 * std_dev(&clean).unwrap());
    }

    #[test]
    fn z_normalize_gives_zero_mean_unit_std() {
        let mut data = vec![1.0, 5.0, 3.0, 9.0, 7.0];
        z_normalize(&mut data).unwrap();
        assert!(mean(&data).unwrap().abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_rejects_constant_series() {
        let mut data = vec![2.0; 10];
        assert!(matches!(
            z_normalize(&mut data),
            Err(StatsError::Degenerate(_))
        ));
    }

    /// `z_normalize` as `mean` then `std_dev`, the pair it reuses one sum
    /// of: the same `(mean, std_dev)` bits, or the first error of the two.
    fn z_normalize_oracle(data: &[f64]) -> Result<(u64, u64, Vec<u64>)> {
        let m = mean(data)?;
        let s = std_dev(data)?;
        if !(s > 0.0) {
            return Err(StatsError::Degenerate("zero variance in z-normalization"));
        }
        let normalized = data.iter().map(|v| ((v - m) / s).to_bits()).collect();
        Ok((m.to_bits(), s.to_bits(), normalized))
    }

    #[test]
    fn z_normalize_equals_mean_then_std_dev_errors_included() {
        let spread: Vec<f64> = (0..300)
            .map(|i| 1.0 + ((i * 7919) % 211) as f64 * 1e-4)
            .collect();
        let cases: [&[f64]; 9] = [
            &[],
            &[4.0],
            &[f64::NAN],
            &[1.0, f64::NAN, 3.0],
            &[f64::INFINITY, 2.0],
            &[-0.0, -0.0],
            &[2.0; 10],
            &[1.0, 5.0, 3.0, 9.0, 7.0],
            &spread,
        ];
        for data in cases {
            let mut normalized = data.to_vec();
            let got = z_normalize(&mut normalized).map(|(m, s)| {
                (
                    m.to_bits(),
                    s.to_bits(),
                    normalized.iter().map(|v| v.to_bits()).collect(),
                )
            });
            assert_eq!(got, z_normalize_oracle(data), "{data:?}");
        }
    }

    #[test]
    fn selection_median_and_percentile_match_sorting_bitwise() {
        // Duplicates, signed zeros, and skewed values exercise the
        // partition edges of the selection path.
        let mut data: Vec<f64> = (0..257)
            .map(|i| {
                let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z >> 33) % 50) as f64 / 7.0 - 3.0
            })
            .collect();
        data.push(-0.0);
        data.push(0.0);
        for n in [1, 2, 3, 10, data.len()] {
            let slice = &data[..n];
            assert_eq!(
                median(slice).unwrap().to_bits(),
                median_naive(slice).unwrap().to_bits(),
                "median n={n}"
            );
            for p in [0.0, 10.0, 25.0, 50.0, 90.0, 95.0, 99.9, 100.0] {
                assert_eq!(
                    percentile(slice, p).unwrap().to_bits(),
                    percentile_naive(slice, p).unwrap().to_bits(),
                    "percentile n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
    }

    #[test]
    fn nan_inputs_error() {
        assert_eq!(mean(&[1.0, f64::NAN]), Err(StatsError::NonFiniteInput));
    }
}
