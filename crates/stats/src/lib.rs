//! Statistical primitives for the FBDetect reproduction.
//!
//! This crate implements, from scratch, every statistical technique the
//! FBDetect paper relies on:
//!
//! - descriptive statistics (mean, variance, percentiles, median absolute
//!   deviation) — used throughout the detection pipeline;
//! - CUSUM and Expectation-Maximization change-point detection (§5.2.1);
//! - likelihood-ratio chi-squared validation and Student's t-test (§5.2.1,
//!   Appendix A.2);
//! - Mann-Kendall trend test and Theil-Sen slope estimation (§5.2.2);
//! - Symbolic Aggregate approXimation (SAX) discretization (§5.2.2);
//! - STL seasonal-trend decomposition using Loess and the moving-average
//!   alternative (§5.2.3, §5.3);
//! - autocorrelation for seasonality presence checks (§5.2.3);
//! - dynamic-programming change-point search with normal loss (§5.3);
//! - ordinary least squares and RMSE (§5.3);
//! - Pearson correlation (§5.5.2, §5.6);
//! - discrete Fourier features (§5.5.1);
//! - n-gram TF-IDF and cosine similarity for text features (§5.5.1, §5.6).
//!
//! All routines operate on `&[f64]` slices and return `Result` values; none
//! panic on empty or degenerate input unless documented under `# Panics`.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod acf;
pub mod changepoint;
pub mod cusum;
pub mod descriptive;
pub mod distributions;
pub mod em;
pub mod error;
pub mod fourier;
pub mod hypothesis;
mod memo;
pub mod prefix;
pub mod regression;
pub mod sax;
pub mod scratch;
pub mod smoothing;
pub mod special;
pub mod stl;
pub mod streaming;
pub mod text;
pub mod trend;

pub use error::{Finite, StatsError};

/// Convenience alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
