//! Ordinary least squares, RMSE, and Pearson correlation.
//!
//! The long-term detector (§5.3) fits a linear model to the normalized trend
//! and uses the RMSE to decide between "gradual change from the start" and
//! "locate a change point by dynamic programming". Pearson correlation is a
//! PairwiseDedup feature (§5.5.2) and a root-cause factor (§5.6).

use crate::error::{ensure_finite, ensure_len};
use crate::{Result, StatsError};

/// An ordinary-least-squares line fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Root mean square error of the residuals.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

impl LinearFit {
    /// The fitted value at position `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits a least-squares line to equally spaced samples (x = index).
///
/// # Examples
///
/// ```
/// let data: Vec<f64> = (0..10).map(|i| 1.0 + 2.0 * i as f64).collect();
/// let fit = fbd_stats::regression::linear_fit(&data).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!(fit.rmse < 1e-12);
/// ```
pub fn linear_fit(data: &[f64]) -> Result<LinearFit> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let n = data.len() as f64;
    // Four independent sums in one pass; each starts at -0.0, as
    // `Iterator::sum` does, and takes the samples in order, so each is
    // bit-identical to summing its own pass.
    let (mut sx, mut sy, mut sxx, mut sxy) = (-0.0, -0.0, -0.0, -0.0);
    for (i, &y) in data.iter().enumerate() {
        sx += i as f64;
        sy += y;
        sxx += (i * i) as f64;
        sxy += i as f64 * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return Err(StatsError::Degenerate("singular design matrix"));
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let mean_y = sy / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (i, &y) in data.iter().enumerate() {
        let pred = intercept + slope * i as f64;
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    let rmse = (ss_res / n).sqrt();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Ok(LinearFit {
        slope,
        intercept,
        rmse,
        r_squared,
    })
}

/// Pearson correlation coefficient between two equal-length series.
///
/// Returns an error when either series has zero variance.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64> {
    ensure_len(a, 2)?;
    ensure_len(b, 2)?;
    ensure_finite(a)?;
    ensure_finite(b)?;
    if a.len() != b.len() {
        return Err(StatsError::InvalidParameter(
            "series must have equal length",
        ));
    }
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if !(va > 0.0 && vb > 0.0) {
        return Err(StatsError::Degenerate("zero variance in correlation"));
    }
    Ok(cov / (va * vb).sqrt())
}

/// Pearson correlations of one series against unit steps (0 before the
/// step's index, 1 from it on) at many indices, walking the series once
/// per index without building the step. The series' mean and centred sum
/// of squares are computed once. Each [`StepCorrelation::at`] is
/// bit-identical to [`pearson`] against the explicit step, errors included.
#[derive(Debug, Clone)]
pub struct StepCorrelation<'a> {
    values: &'a [f64],
    /// The series' mean and centred sum of squares, or why it cannot be
    /// correlated.
    moments: std::result::Result<(f64, f64), StatsError>,
}

impl<'a> StepCorrelation<'a> {
    /// Prepares `values` for correlation against steps.
    pub fn new(values: &'a [f64]) -> Self {
        let moments = ensure_len(values, 2)
            .and_then(|()| ensure_finite(values))
            .map(|()| {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let ss = values
                    .iter()
                    .fold(0.0, |ss, &x| ss + (x - mean) * (x - mean));
                (mean, ss)
            });
        StepCorrelation { values, moments }
    }

    /// Pearson correlation against the step at `index`.
    pub fn at(&self, index: usize) -> Result<f64> {
        let (ma, va) = self.moments.clone()?;
        let len = self.values.len();
        let split = index.min(len);
        // The step's sum is the count of its ones, exactly (`pearson` sums
        // zeros and ones).
        let mb = (len - split) as f64 / len as f64;
        let (c0, c1) = (0.0 - mb, 1.0 - mb);
        let (mut cov, mut vb) = (0.0, 0.0);
        for &x in &self.values[..split] {
            cov += (x - ma) * c0;
            vb += c0 * c0;
        }
        for &x in &self.values[split..] {
            cov += (x - ma) * c1;
            vb += c1 * c1;
        }
        if !(va > 0.0 && vb > 0.0) {
            return Err(StatsError::Degenerate("zero variance in correlation"));
        }
        Ok(cov / (va * vb).sqrt())
    }
}

/// Pearson correlation between two series that may differ in length: the
/// longer one is truncated at the tail. Convenient for correlating a
/// regression window against a root-cause-candidate metric (§5.6).
pub fn pearson_aligned(a: &[f64], b: &[f64]) -> Result<f64> {
    let n = a.len().min(b.len());
    pearson(&a[..n], &b[..n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`linear_fit`] as it was: one `Iterator::sum` pass per sum.
    fn four_pass_fit(data: &[f64]) -> Result<LinearFit> {
        ensure_len(data, 2)?;
        ensure_finite(data)?;
        let n = data.len() as f64;
        let sx: f64 = (0..data.len()).map(|i| i as f64).sum();
        let sy: f64 = data.iter().sum();
        let sxx: f64 = (0..data.len()).map(|i| (i * i) as f64).sum();
        let sxy: f64 = data.iter().enumerate().map(|(i, &y)| i as f64 * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(StatsError::Degenerate("singular design matrix"));
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        let mean_y = sy / n;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (i, &y) in data.iter().enumerate() {
            let pred = intercept + slope * i as f64;
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        Ok(LinearFit {
            slope,
            intercept,
            rmse: (ss_res / n).sqrt(),
            r_squared,
        })
    }

    fn fit_bits(fit: Result<LinearFit>) -> Result<[u64; 4]> {
        fit.map(|f| [f.slope, f.intercept, f.rmse, f.r_squared].map(f64::to_bits))
    }

    proptest! {
        #[test]
        fn one_pass_fit_is_bit_identical_to_four_sums(
            data in prop::collection::vec(-1e3f64..1e3, 0..400),
        ) {
            prop_assert_eq!(fit_bits(linear_fit(&data)), fit_bits(four_pass_fit(&data)));
        }
    }

    #[test]
    fn one_pass_fit_matches_four_sums_on_edge_inputs() {
        for data in [
            &[][..],
            &[1.0],
            &[-0.0, -0.0],
            &[0.0, -0.0, 0.0],
            &[1.0, f64::NAN],
            &[2.0; 5],
        ] {
            assert_eq!(
                fit_bits(linear_fit(data)),
                fit_bits(four_pass_fit(data)),
                "{data:?}"
            );
        }
    }

    #[test]
    fn perfect_line() {
        let data: Vec<f64> = (0..20).map(|i| -3.0 + 0.7 * i as f64).collect();
        let fit = linear_fit(&data).unwrap();
        assert!((fit.slope - 0.7).abs() < 1e-12);
        assert!((fit.intercept + 3.0).abs() < 1e-12);
        assert!(fit.rmse < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn step_has_high_rmse_relative_to_line() {
        let mut step = vec![0.0; 50];
        step.extend(vec![1.0; 50]);
        let line: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let fit_step = linear_fit(&step).unwrap();
        let fit_line = linear_fit(&line).unwrap();
        assert!(fit_step.rmse > 10.0 * fit_line.rmse.max(1e-12));
    }

    #[test]
    fn flat_series_zero_slope() {
        let data = vec![5.0; 10];
        let fit = linear_fit(&data).unwrap();
        assert_eq!(fit.slope.to_bits(), 0.0_f64.to_bits());
        assert_eq!(fit.intercept.to_bits(), 5.0_f64.to_bits());
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| 2.0 * i as f64 + 1.0).collect();
        let c: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_near_zero() {
        let a: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| ((i / 2) % 2) as f64).collect();
        assert!(pearson(&a, &b).unwrap().abs() < 0.1);
    }

    #[test]
    fn pearson_requires_equal_length() {
        assert!(pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_err());
        // The aligned variant truncates instead.
        assert!(pearson_aligned(&[1.0, 2.0, 3.0], &[2.0, 4.0]).is_ok());
    }

    #[test]
    fn pearson_zero_variance_errors() {
        assert!(matches!(
            pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::Degenerate(_))
        ));
    }

    #[test]
    fn r_squared_between_zero_and_one_on_noise() {
        let data: Vec<f64> = (0..60)
            .map(|i| ((i * 48271) % 101) as f64 / 101.0)
            .collect();
        let fit = linear_fit(&data).unwrap();
        assert!((0.0..=1.0).contains(&fit.r_squared.max(0.0)));
    }
}
