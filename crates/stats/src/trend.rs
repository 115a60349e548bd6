//! Trend statistics: the Mann-Kendall test and Theil-Sen slope estimator
//! (§5.2.2).
//!
//! The went-away detector uses Mann-Kendall to decide whether a regression
//! trend persists after a change point, and Theil-Sen to measure the trend's
//! slope and intercept robustly.

use crate::descriptive::median_in_place;
use crate::distributions::normal_two_sided_p;
use crate::error::{ensure_finite, ensure_len, Finite};
use crate::scratch::ScratchVec;
use crate::Result;

/// Direction of a monotonic trend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendDirection {
    /// Statistically significant upward trend.
    Increasing,
    /// Statistically significant downward trend.
    Decreasing,
    /// No significant monotonic trend.
    None,
}

/// Result of the Mann-Kendall trend test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannKendallResult {
    /// The S statistic: the number of concordant minus discordant pairs.
    pub s: i64,
    /// The normalized Z statistic (with tie correction).
    pub z: f64,
    /// Two-sided p-value of Z under the null of no trend.
    pub p_value: f64,
    /// Detected direction at the requested significance.
    pub direction: TrendDirection,
}

/// Mann-Kendall test for a monotonic trend, in O(n log n).
///
/// The S statistic is `Σ_{i<j} sign(x_j − x_i) = P − Q` where `P` and `Q`
/// are the concordant and discordant pair counts. `Q` is exactly the number
/// of strict inversions under `total_cmp`, counted with a merge sort; the
/// tied pair count `T` falls out of the run lengths of the sorted array; and
/// `P = n(n−1)/2 − Q − T`. All of this is integer arithmetic, so the result
/// is bit-identical to the O(n²) double loop ([`mann_kendall_naive`], kept
/// as ground truth and pinned by property tests).
///
/// # Examples
///
/// ```
/// use fbd_stats::trend::{mann_kendall, TrendDirection};
/// let data: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
/// let r = mann_kendall(&data, 0.05).unwrap();
/// assert_eq!(r.direction, TrendDirection::Increasing);
/// ```
pub fn mann_kendall(data: &[f64], significance: f64) -> Result<MannKendallResult> {
    ensure_len(data, 4)?;
    mann_kendall_finite(Finite::new(data)?, significance)
}

/// [`mann_kendall`] over an already validated slice.
pub fn mann_kendall_finite(data: Finite<'_>, significance: f64) -> Result<MannKendallResult> {
    ensure_len(&data, 4)?;
    let n = data.len();
    let mut sorted = ScratchVec::copied(&data);
    let mut buf = ScratchVec::zeroed(n);
    let discordant = count_inversions(&mut sorted, &mut buf);
    // Tied pairs and the variance tie term from the (now sorted) array.
    let mut tie_pairs: i64 = 0;
    let mut tie_term = 0.0;
    let mut run = 1usize;
    for i in 1..=n {
        // Bit equality matches the `total_cmp` ordering used for both the
        // merge sort above and the naive S statistic, so tie runs are exactly
        // the `Ordering::Equal` groups (inputs are finite).
        if i < n && sorted[i].to_bits() == sorted[i - 1].to_bits() {
            run += 1;
        } else {
            if run > 1 {
                let t = run as f64;
                tie_pairs += (run as i64) * (run as i64 - 1) / 2;
                tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
            }
            run = 1;
        }
    }
    let total_pairs = (n as i64) * (n as i64 - 1) / 2;
    let concordant = total_pairs - discordant - tie_pairs;
    let s = concordant - discordant;
    Ok(mann_kendall_from_s(n, s, tie_term, significance))
}

/// Reference Mann-Kendall via the O(n²) double loop.
///
/// Ground truth for the property tests pinning [`mann_kendall`]; not used on
/// the scan hot path.
pub fn mann_kendall_naive(data: &[f64], significance: f64) -> Result<MannKendallResult> {
    ensure_len(data, 4)?;
    ensure_finite(data)?;
    let n = data.len();
    let mut s: i64 = 0;
    for i in 0..n - 1 {
        for j in i + 1..n {
            s += match data[j].total_cmp(&data[i]) {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
        }
    }
    // Variance with tie correction: Var(S) = [n(n-1)(2n+5) - Σ t(t-1)(2t+5)] / 18.
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut tie_term = 0.0;
    let mut run = 1usize;
    for i in 1..=n {
        if i < n && sorted[i].to_bits() == sorted[i - 1].to_bits() {
            run += 1;
        } else {
            if run > 1 {
                let t = run as f64;
                tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
            }
            run = 1;
        }
    }
    Ok(mann_kendall_from_s(n, s, tie_term, significance))
}

/// Z statistic, p-value and direction from the S statistic and tie term —
/// shared by the fast and naive Mann-Kendall paths so the float arithmetic
/// is literally the same code.
fn mann_kendall_from_s(n: usize, s: i64, tie_term: f64, significance: f64) -> MannKendallResult {
    let nf = n as f64;
    let var_s = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
    let z = if var_s <= 0.0 {
        0.0
    } else if s > 0 {
        (s as f64 - 1.0) / var_s.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var_s.sqrt()
    } else {
        0.0
    };
    let p_value = normal_two_sided_p(z);
    let direction = if p_value < significance {
        if s > 0 {
            TrendDirection::Increasing
        } else {
            TrendDirection::Decreasing
        }
    } else {
        TrendDirection::None
    };
    MannKendallResult {
        s,
        z,
        p_value,
        direction,
    }
}

/// Merge sort over `total_cmp` that counts strict inversions (pairs `i < j`
/// with `v[i] > v[j]`). Equal elements are taken from the left half first and
/// never counted, so the count is exactly the discordant-pair total of the
/// Mann-Kendall S statistic. Sorts `v` in place as a side effect.
fn count_inversions(v: &mut [f64], buf: &mut [f64]) -> i64 {
    let n = v.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (buf_left, buf_right) = buf.split_at_mut(mid);
    let mut inversions = {
        let (left, right) = v.split_at_mut(mid);
        count_inversions(left, buf_left) + count_inversions(right, buf_right)
    };
    // Merge v[..mid] and v[mid..] into buf, counting, then copy back.
    let mut i = 0usize;
    let mut j = mid;
    let mut k = 0usize;
    while i < mid && j < n {
        if v[j].total_cmp(&v[i]) == std::cmp::Ordering::Less {
            // v[j] precedes every remaining left element, forming an
            // inversion with each one.
            inversions += (mid - i) as i64;
            buf[k] = v[j];
            j += 1;
        } else {
            buf[k] = v[i];
            i += 1;
        }
        k += 1;
    }
    while i < mid {
        buf[k] = v[i];
        i += 1;
        k += 1;
    }
    while j < n {
        buf[k] = v[j];
        j += 1;
        k += 1;
    }
    v.copy_from_slice(buf);
    inversions
}

/// A robust line fit from the Theil-Sen estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheilSenFit {
    /// Median of all pairwise slopes.
    pub slope: f64,
    /// Median of `y_i - slope * i`.
    pub intercept: f64,
}

/// Theil-Sen slope estimator over equally spaced samples (x = index).
///
/// Computes the median of all pairwise slopes `(y_j - y_i)/(j - i)`, which is
/// robust to up to ~29% outliers. The median is found by deterministic
/// selection (`select_nth_unstable_by` under `total_cmp`) rather than a full
/// sort of the n(n−1)/2 slopes, which drops the dominant cost from
/// O(n² log n) to O(n²) expected with a much smaller constant. Selection
/// returns the same order statistics the sort would, so the result is
/// bit-identical to [`theil_sen_naive`] (pinned by property tests).
pub fn theil_sen(data: &[f64]) -> Result<TheilSenFit> {
    ensure_len(data, 2)?;
    let data = Finite::new(data)?;
    let slope = theil_sen_slope(data)?;
    let mut intercepts = ScratchVec::with_capacity(data.len());
    intercepts.extend(data.iter().enumerate().map(|(i, &y)| y - slope * i as f64));
    let intercept = median_in_place(&mut intercepts);
    Ok(TheilSenFit { slope, intercept })
}

/// The slope of [`theil_sen`] alone, over an already validated slice.
///
/// The n(n−1)/2 pairwise slopes live in the thread's [`ScratchVec`] pool, so
/// a warmed-up thread selects their median without touching the allocator
/// (≈ 360 KB per call at n = 300 otherwise).
// fbd-lint::hot
pub fn theil_sen_slope(data: Finite<'_>) -> Result<f64> {
    ensure_len(&data, 2)?;
    let n = data.len();
    let mut slopes = ScratchVec::with_capacity(n * (n - 1) / 2);
    for (i, &yi) in data.iter().enumerate() {
        // `dx` = j − i; an `i32` converts to `f64` in vector registers.
        slopes.extend(
            data[i + 1..]
                .iter()
                .zip(1i32..)
                .map(|(&yj, dx)| (yj - yi) / f64::from(dx)),
        );
    }
    Ok(median_in_place(&mut slopes))
}

/// Reference Theil-Sen via a full sort of all pairwise slopes.
///
/// Ground truth for the property tests pinning [`theil_sen`]; not used on
/// the scan hot path.
pub fn theil_sen_naive(data: &[f64]) -> Result<TheilSenFit> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let n = data.len();
    let mut slopes = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n - 1 {
        for j in i + 1..n {
            slopes.push((data[j] - data[i]) / (j - i) as f64);
        }
    }
    slopes.sort_by(f64::total_cmp);
    let slope = median_of_sorted(&slopes);
    let mut intercepts: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(i, &y)| y - slope * i as f64)
        .collect();
    intercepts.sort_by(f64::total_cmp);
    let intercept = median_of_sorted(&intercepts);
    Ok(TheilSenFit { slope, intercept })
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mann_kendall_finds_increase() {
        let data: Vec<f64> = (0..30)
            .map(|i| i as f64 + ((i * 37) % 7) as f64 * 0.1)
            .collect();
        let r = mann_kendall(&data, 0.05).unwrap();
        assert_eq!(r.direction, TrendDirection::Increasing);
        assert!(r.s > 0);
    }

    #[test]
    fn mann_kendall_finds_decrease() {
        let data: Vec<f64> = (0..30).map(|i| 100.0 - i as f64).collect();
        let r = mann_kendall(&data, 0.05).unwrap();
        assert_eq!(r.direction, TrendDirection::Decreasing);
        assert!(r.s < 0);
    }

    #[test]
    fn mann_kendall_no_trend_on_alternating() {
        let data: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
            .collect();
        let r = mann_kendall(&data, 0.05).unwrap();
        assert_eq!(r.direction, TrendDirection::None);
    }

    #[test]
    fn mann_kendall_handles_ties() {
        let data = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0];
        let r = mann_kendall(&data, 0.05).unwrap();
        assert_eq!(r.direction, TrendDirection::Increasing);
    }

    #[test]
    fn mann_kendall_constant_series() {
        let data = vec![5.0; 20];
        let r = mann_kendall(&data, 0.05).unwrap();
        assert_eq!(r.s, 0);
        assert_eq!(r.direction, TrendDirection::None);
    }

    #[test]
    fn theil_sen_exact_line() {
        let data: Vec<f64> = (0..20).map(|i| 3.0 + 0.5 * i as f64).collect();
        let fit = theil_sen(&data).unwrap();
        assert!((fit.slope - 0.5).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
    }

    #[test]
    fn theil_sen_robust_to_outliers() {
        let mut data: Vec<f64> = (0..30).map(|i| 1.0 + 0.2 * i as f64).collect();
        data[5] = 100.0;
        data[20] = -50.0;
        let fit = theil_sen(&data).unwrap();
        assert!((fit.slope - 0.2).abs() < 0.05, "slope = {}", fit.slope);
    }

    #[test]
    fn theil_sen_flat_series() {
        let data = vec![7.0; 10];
        let fit = theil_sen(&data).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 7.0);
    }

    #[test]
    fn short_inputs_error() {
        assert!(mann_kendall(&[1.0, 2.0], 0.05).is_err());
        assert!(theil_sen(&[1.0]).is_err());
    }

    fn pseudo_series(n: usize, seed: u64, quantize: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (((z >> 33) % 1000) as f64 / quantize).floor()
            })
            .collect()
    }

    #[test]
    fn fast_mann_kendall_bit_identical_to_naive() {
        // Quantized series produce heavy ties, exercising the tie-run
        // accounting; finer quantization exercises the inversion count.
        for &(n, seed, q) in &[(4usize, 1u64, 1.0), (37, 2, 10.0), (100, 3, 100.0), (225, 4, 1.0)]
        {
            let data = pseudo_series(n, seed, q);
            let fast = mann_kendall(&data, 0.05).unwrap();
            let slow = mann_kendall_naive(&data, 0.05).unwrap();
            assert_eq!(fast.s, slow.s, "n={n} seed={seed}");
            assert_eq!(fast.z.to_bits(), slow.z.to_bits());
            assert_eq!(fast.p_value.to_bits(), slow.p_value.to_bits());
            assert_eq!(fast.direction, slow.direction);
        }
    }

    /// Both fast entries against the sort-based oracle, bit for bit.
    fn assert_theil_sen_matches_naive(data: &[f64], what: &str) {
        let slow = theil_sen_naive(data).unwrap();
        let fast = theil_sen(data).unwrap();
        assert_eq!(fast.slope.to_bits(), slow.slope.to_bits(), "{what}: slope");
        assert_eq!(fast.intercept.to_bits(), slow.intercept.to_bits(), "{what}: intercept");
        let slope_only = theil_sen_slope(Finite::new(data).unwrap()).unwrap();
        assert_eq!(slope_only.to_bits(), slow.slope.to_bits(), "{what}: slope-only entry");
    }

    #[test]
    fn fast_theil_sen_bit_identical_to_naive() {
        // Down to the two-sample minimum, the benchmark's mean window (223),
        // the went-away post-window ceiling (300), and past it; even and odd
        // slope counts both occur.
        for &(n, seed) in &[(2usize, 5u64), (3, 6), (4, 10), (50, 7), (101, 8), (223, 9), (300, 11), (901, 12)]
        {
            assert_theil_sen_matches_naive(&pseudo_series(n, seed, 7.0), &format!("n={n}"));
            // Coarse quantization: most pairwise slopes are exact ties.
            assert_theil_sen_matches_naive(&pseudo_series(n, seed, 400.0), &format!("n={n} heavy ties"));
            assert_theil_sen_matches_naive(&vec![7.25; n], &format!("n={n} all equal"));
        }
        // Signed zeros tie numerically but not under `total_cmp`.
        assert_theil_sen_matches_naive(&[0.0, -0.0, 0.0, -0.0, -0.0, 0.0], "signed zeros");
    }

    #[test]
    fn theil_sen_is_reentrant_over_a_checked_out_scratch() {
        // The slopes live in the thread's scratch pool; a caller holding
        // pooled buffers of its own (as the detectors do) must neither see
        // them clobbered nor change the fit.
        let data = pseudo_series(120, 13, 7.0);
        let expected = theil_sen_naive(&data).unwrap();
        let outer = ScratchVec::copied(&data);
        let mut big = ScratchVec::zeroed(120 * 119 / 2);
        big[0] = 42.0;
        for _ in 0..3 {
            let fit = theil_sen(&outer).unwrap();
            assert_eq!(fit.slope.to_bits(), expected.slope.to_bits());
            assert_eq!(fit.intercept.to_bits(), expected.intercept.to_bits());
        }
        assert_eq!(outer[..], data[..]);
        assert_eq!(big[0].to_bits(), 42.0f64.to_bits());
        assert!(big[1..].iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn inversion_count_matches_definition() {
        let data = [3.0, 1.0, 2.0, 2.0, 0.5];
        let mut v = data.to_vec();
        let mut buf = vec![0.0; v.len()];
        let fast = count_inversions(&mut v, &mut buf);
        let mut slow = 0i64;
        for i in 0..data.len() {
            for j in i + 1..data.len() {
                if data[i].total_cmp(&data[j]) == std::cmp::Ordering::Greater {
                    slow += 1;
                }
            }
        }
        assert_eq!(fast, slow);
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(v, sorted);
    }
}
