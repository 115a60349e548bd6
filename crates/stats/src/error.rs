//! Error type shared by all statistical routines.

use std::fmt;

/// Errors produced by the statistical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty but the routine requires data.
    EmptyInput,
    /// The input was shorter than the routine's minimum length.
    ///
    /// Carries the required and actual lengths.
    TooFewSamples {
        /// Minimum samples the routine needs.
        required: usize,
        /// Samples actually provided.
        actual: usize,
    },
    /// A parameter was outside its valid range (e.g. a percentile above 100).
    InvalidParameter(&'static str),
    /// The input contained a NaN or infinite value.
    NonFiniteInput,
    /// An iterative algorithm failed to converge within its iteration budget.
    DidNotConverge(&'static str),
    /// The computation is undefined for this input (e.g. zero variance where
    /// a normalized statistic is required).
    Degenerate(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input slice is empty"),
            StatsError::TooFewSamples { required, actual } => {
                write!(f, "need at least {required} samples, got {actual}")
            }
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            StatsError::DidNotConverge(what) => write!(f, "did not converge: {what}"),
            StatsError::Degenerate(what) => write!(f, "degenerate input: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Returns an error if any value in `data` is NaN or infinite.
pub(crate) fn ensure_finite(data: &[f64]) -> crate::Result<()> {
    if data.iter().any(|v| !v.is_finite()) {
        Err(StatsError::NonFiniteInput)
    } else {
        Ok(())
    }
}

/// A sample slice already proven free of NaN and ±∞.
///
/// A caller that feeds one window to several kernels validates it once with
/// [`Finite::new`] and hands the proof to the `*_finite` entry points
/// ([`crate::descriptive::mean_finite`], [`crate::trend::mann_kendall_finite`],
/// …), which then skip their own O(n) sweep. Any sub-range of a finite slice
/// is finite, so [`Finite::slice`] keeps the proof.
#[derive(Debug, Clone, Copy)]
pub struct Finite<'a>(&'a [f64]);

impl<'a> Finite<'a> {
    /// Validates `data`; the only way to obtain a `Finite`.
    pub fn new(data: &'a [f64]) -> crate::Result<Self> {
        ensure_finite(data)?;
        Ok(Finite(data))
    }

    /// A sub-range of the validated samples.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds, like slice indexing.
    pub fn slice(self, range: impl std::slice::SliceIndex<[f64], Output = [f64]>) -> Finite<'a> {
        Finite(&self.0[range])
    }
}

impl std::ops::Deref for Finite<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        self.0
    }
}

/// Returns an error if `data` is shorter than `required`.
pub(crate) fn ensure_len(data: &[f64], required: usize) -> crate::Result<()> {
    if data.is_empty() {
        Err(StatsError::EmptyInput)
    } else if data.len() < required {
        Err(StatsError::TooFewSamples {
            required,
            actual: data.len(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(StatsError::EmptyInput.to_string(), "input slice is empty");
        assert!(StatsError::TooFewSamples {
            required: 3,
            actual: 1
        }
        .to_string()
        .contains("at least 3"));
        assert!(StatsError::DidNotConverge("EM").to_string().contains("EM"));
    }

    #[test]
    fn ensure_finite_rejects_nan() {
        assert_eq!(
            ensure_finite(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        );
        assert!(ensure_finite(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn ensure_len_rejects_short_input() {
        assert_eq!(ensure_len(&[], 1), Err(StatsError::EmptyInput));
        assert_eq!(
            ensure_len(&[1.0], 2),
            Err(StatsError::TooFewSamples {
                required: 2,
                actual: 1
            })
        );
        assert!(ensure_len(&[1.0, 2.0], 2).is_ok());
    }
}
