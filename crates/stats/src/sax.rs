//! Symbolic Aggregate approXimation (SAX) discretization (§5.2.2).
//!
//! The went-away detector discretizes real-valued time series into strings
//! so that "very different" patterns become comparable. FBDetect's SAX
//! configuration divides the *value range* into `N` equal buckets (the paper
//! settles on N = 20), replaces values with bucket letters, and considers a
//! bucket *valid* only if it holds at least `X%` of the data points (the
//! paper uses X = 3%), which makes the representation robust to outliers.

use crate::error::{ensure_finite, ensure_len};
use crate::{Result, StatsError};

/// SAX configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaxConfig {
    /// Number of equal-width buckets over the value range (paper: 20).
    pub buckets: usize,
    /// Minimum fraction of points a bucket must hold to be "valid"
    /// (paper: 0.03, i.e. 3%).
    pub validity_fraction: f64,
}

impl Default for SaxConfig {
    fn default() -> Self {
        // The paper tested combinations and settled on N=20, X=3%.
        SaxConfig {
            buckets: 20,
            validity_fraction: 0.03,
        }
    }
}

/// A SAX encoding of a time series.
#[derive(Debug, Clone, PartialEq)]
pub struct SaxString {
    /// One symbol per input point; symbol `k` means bucket `k` (0-based).
    pub symbols: Vec<u8>,
    /// Lower edge of bucket 0 (the minimum of the encoding range).
    pub range_min: f64,
    /// Upper edge of the last bucket (the maximum of the encoding range).
    pub range_max: f64,
    /// Number of points in each bucket.
    pub histogram: Vec<usize>,
    /// Whether each bucket meets the validity fraction.
    pub valid: Vec<bool>,
}

impl SaxString {
    /// Bucket width of this encoding.
    pub fn bucket_width(&self) -> f64 {
        (self.range_max - self.range_min) / self.histogram.len() as f64
    }

    /// The largest bucket index that is valid, or `None` if no bucket is.
    pub fn largest_valid_symbol(&self) -> Option<u8> {
        self.valid
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &v)| v)
            .map(|(i, _)| i as u8)
    }

    /// The smallest bucket index that is valid, or `None` if no bucket is.
    pub fn smallest_valid_symbol(&self) -> Option<u8> {
        self.valid
            .iter()
            .enumerate()
            .find(|(_, &v)| v)
            .map(|(i, _)| i as u8)
    }

    /// The largest symbol that appears at all in the encoded series.
    pub fn largest_symbol(&self) -> u8 {
        // Encodings are non-empty by construction; 0 is the harmless
        // identity for the impossible empty case.
        self.symbols.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of the series' points whose bucket is *invalid*.
    ///
    /// A high fraction means the series mostly visits buckets that were rare
    /// in the reference range — the "new pattern" signal of §5.2.2.
    pub fn invalid_fraction(&self) -> f64 {
        let invalid: usize = self
            .symbols
            .iter()
            .filter(|&&s| !self.valid[s as usize])
            .count();
        invalid as f64 / self.symbols.len() as f64
    }

    /// Renders the string using letters 'a', 'b', … (wrapping after 26).
    pub fn to_letters(&self) -> String {
        self.symbols
            .iter()
            .map(|&s| (b'a' + s % 26) as char)
            .collect()
    }

    /// Encodes another series using *this* encoding's buckets and validity.
    ///
    /// Values outside the range clamp to the edge buckets. This is how the
    /// went-away detector compares a post-regression window against the
    /// historical pattern.
    pub fn encode_with_same_buckets(&self, data: &[f64]) -> Result<SaxString> {
        ensure_len(data, 1)?;
        ensure_finite(data)?;
        let n_buckets = self.histogram.len();
        let width = self.bucket_width();
        let symbols: Vec<u8> = data
            .iter()
            .map(|&v| {
                if width <= 0.0 {
                    0u8
                } else {
                    (((v - self.range_min) / width).floor() as i64).clamp(0, n_buckets as i64 - 1)
                        as u8
                }
            })
            .collect();
        let mut histogram = vec![0usize; n_buckets];
        for &s in &symbols {
            histogram[s as usize] += 1;
        }
        Ok(SaxString {
            symbols,
            range_min: self.range_min,
            range_max: self.range_max,
            histogram,
            // Validity is inherited from the reference encoding.
            valid: self.valid.clone(),
        })
    }
}

impl Default for SaxString {
    fn default() -> Self {
        SaxString {
            symbols: Vec::new(),
            range_min: 0.0,
            range_max: 0.0,
            histogram: Vec::new(),
            valid: Vec::new(),
        }
    }
}

/// Encodes `data` into a SAX string using equal-width buckets over the data's
/// own `[min, max]` range.
pub fn encode(data: &[f64], config: SaxConfig) -> Result<SaxString> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    let range_min = data.iter().copied().fold(f64::INFINITY, f64::min);
    let range_max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    encode_in_range(data, range_min, range_max, config)
}

/// The parameter checks of [`encode_in_range`], for callers that must report
/// its errors without paying for the encoding.
pub fn check_encoding(range_min: f64, range_max: f64, config: SaxConfig) -> Result<()> {
    if config.buckets == 0 {
        return Err(StatsError::InvalidParameter("buckets must be positive"));
    }
    if !(0.0..=1.0).contains(&config.validity_fraction) {
        return Err(StatsError::InvalidParameter(
            "validity_fraction must be in [0, 1]",
        ));
    }
    if range_min > range_max || !range_min.is_finite() || !range_max.is_finite() {
        return Err(StatsError::InvalidParameter("invalid SAX range"));
    }
    Ok(())
}

/// Encodes `data` using equal-width buckets over an explicit
/// `[range_min, range_max]` range; values outside clamp to edge buckets.
///
/// # Examples
///
/// The paper's worked example (§5.2.2): four buckets where 'a' is `[1, 2)`,
/// 'b' is `[2, 3)`, and so on.
///
/// ```
/// use fbd_stats::sax::{encode_in_range, SaxConfig};
/// let data = [1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1];
/// let cfg = SaxConfig { buckets: 4, validity_fraction: 0.0 };
/// let s = encode_in_range(&data, 1.0, 5.0, cfg).unwrap();
/// assert_eq!(s.to_letters(), "abcdcba");
/// ```
pub fn encode_in_range(
    data: &[f64],
    range_min: f64,
    range_max: f64,
    config: SaxConfig,
) -> Result<SaxString> {
    ensure_len(data, 1)?;
    ensure_finite(data)?;
    check_encoding(range_min, range_max, config)?;
    let width = (range_max - range_min) / config.buckets as f64;
    let symbols: Vec<u8> = data
        .iter()
        .map(|&v| {
            if width <= 0.0 {
                0u8
            } else {
                // The maximum maps into the last bucket, not one past it.
                (((v - range_min) / width).floor() as i64).clamp(0, config.buckets as i64 - 1) as u8
            }
        })
        .collect();
    let mut histogram = vec![0usize; config.buckets];
    for &s in &symbols {
        histogram[s as usize] += 1;
    }
    let min_count = (config.validity_fraction * data.len() as f64).ceil() as usize;
    let valid: Vec<bool> = histogram.iter().map(|&c| c >= min_count.max(1)).collect();
    Ok(SaxString {
        symbols,
        range_min,
        range_max,
        histogram,
        valid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_abcdcba() {
        // The paper's §5.2.2 example uses buckets [1,2), [2,3), [3,4), [4,5).
        let data = [1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1];
        let cfg = SaxConfig {
            buckets: 4,
            validity_fraction: 0.0,
        };
        let s = encode_in_range(&data, 1.0, 5.0, cfg).unwrap();
        assert_eq!(s.to_letters(), "abcdcba");
    }

    #[test]
    fn min_max_encoding_of_paper_data() {
        // Over the data's own [1.1, 4.2] range, 3.5 lands in the top bucket.
        let data = [1.1, 2.0, 3.1, 4.2, 3.5, 2.3, 1.1];
        let cfg = SaxConfig {
            buckets: 4,
            validity_fraction: 0.0,
        };
        let s = encode(&data, cfg).unwrap();
        assert_eq!(s.to_letters(), "abcddba");
    }

    #[test]
    fn encode_in_range_rejects_inverted_range() {
        let cfg = SaxConfig::default();
        assert!(encode_in_range(&[1.0], 2.0, 1.0, cfg).is_err());
    }

    #[test]
    fn constant_series_single_bucket() {
        let data = vec![5.0; 10];
        let s = encode(&data, SaxConfig::default()).unwrap();
        assert!(s.symbols.iter().all(|&x| x == 0));
        assert_eq!(s.histogram[0], 10);
    }

    #[test]
    fn outlier_bucket_is_invalid() {
        // 99 points near 1.0, a single spike at 100.
        let mut data = vec![1.0; 99];
        data.push(100.0);
        let s = encode(&data, SaxConfig::default()).unwrap();
        let spike_bucket = *s.symbols.last().unwrap() as usize;
        assert!(!s.valid[spike_bucket], "spike bucket should be invalid");
        assert!(s.valid[s.symbols[0] as usize]);
        assert_eq!(s.largest_valid_symbol(), Some(s.symbols[0]));
    }

    #[test]
    fn invalid_fraction_detects_new_pattern() {
        // Encode the historical window over a range wide enough to cover
        // plausible values; the buckets around 5.0 held nothing historically
        // and are therefore invalid.
        let historical: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        let reference = encode_in_range(&historical, 0.0, 6.0, SaxConfig::default()).unwrap();
        let new_data = vec![5.0; 50];
        let encoded = reference.encode_with_same_buckets(&new_data).unwrap();
        assert!(encoded.invalid_fraction() > 0.9);
    }

    #[test]
    fn same_pattern_has_low_invalid_fraction() {
        let historical: Vec<f64> = (0..100).map(|i| (i % 10) as f64 / 10.0).collect();
        let reference = encode(&historical, SaxConfig::default()).unwrap();
        let similar: Vec<f64> = (0..50).map(|i| (i % 10) as f64 / 10.0).collect();
        let encoded = reference.encode_with_same_buckets(&similar).unwrap();
        assert!(encoded.invalid_fraction() < 0.1);
    }

    #[test]
    fn zero_buckets_rejected() {
        let cfg = SaxConfig {
            buckets: 0,
            validity_fraction: 0.03,
        };
        assert!(encode(&[1.0, 2.0], cfg).is_err());
    }

    #[test]
    fn max_value_maps_to_last_bucket() {
        let data = [0.0, 1.0, 2.0, 3.0];
        let cfg = SaxConfig {
            buckets: 4,
            validity_fraction: 0.0,
        };
        let s = encode(&data, cfg).unwrap();
        assert_eq!(*s.symbols.last().unwrap(), 3);
        assert_eq!(s.largest_symbol(), 3);
    }

    #[test]
    fn letters_wrap_after_z() {
        let data: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let cfg = SaxConfig {
            buckets: 30,
            validity_fraction: 0.0,
        };
        let s = encode(&data, cfg).unwrap();
        assert_eq!(s.to_letters().len(), 30);
    }
}
