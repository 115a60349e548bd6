//! The K-Sigma EGADS detector: flags the analysis window when its mean
//! departs from the historical mean by more than `k` historical standard
//! deviations.

use crate::{EgadsDetector, EgadsVerdict};
use fbd_stats::descriptive;

/// K-Sigma detector; `k` is the sensitivity (smaller = more sensitive).
#[derive(Debug, Clone, Copy)]
pub struct KSigma {
    k: f64,
}

impl KSigma {
    /// Creates a K-Sigma detector with threshold `k`.
    pub fn new(k: f64) -> Self {
        KSigma { k }
    }
}

impl EgadsDetector for KSigma {
    fn name(&self) -> &'static str {
        "K-Sigma"
    }

    fn detect(&self, historical: &[f64], analysis: &[f64]) -> EgadsVerdict {
        let (Ok(h_mean), Ok(a_mean)) = (descriptive::mean(historical), descriptive::mean(analysis))
        else {
            return EgadsVerdict {
                anomalous: false,
                score: 0.0,
            };
        };
        let h_std = descriptive::std_dev(historical).unwrap_or(0.0);
        // Compare window means; the standard error of the analysis mean
        // shrinks with its length.
        let se = if h_std > 0.0 {
            h_std / (analysis.len() as f64).sqrt()
        } else {
            f64::MIN_POSITIVE
        };
        let score = (a_mean - h_mean).abs() / se;
        EgadsVerdict {
            anomalous: score > self.k,
            score,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_large_shift() {
        let hist: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let analysis = vec![100.0; 20];
        let d = KSigma::new(3.0);
        assert!(d.detect(&hist, &analysis).anomalous);
    }

    #[test]
    fn quiet_on_same_distribution() {
        let hist: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let analysis: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
        let d = KSigma::new(4.0);
        assert!(!d.detect(&hist, &analysis).anomalous);
    }

    #[test]
    fn sensitivity_ordering() {
        // A borderline shift trips a sensitive k but not a lax one.
        let hist: Vec<f64> = (0..400).map(|i| (i % 10) as f64).collect();
        let analysis: Vec<f64> = (0..50).map(|i| (i % 10) as f64 + 1.0).collect();
        let sensitive = KSigma::new(1.0).detect(&hist, &analysis);
        let lax = KSigma::new(50.0).detect(&hist, &analysis);
        assert!(sensitive.anomalous);
        assert!(!lax.anomalous);
        assert_eq!(sensitive.score.to_bits(), lax.score.to_bits());
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let d = KSigma::new(3.0);
        assert!(!d.detect(&[], &[1.0]).anomalous);
        assert!(!d.detect(&[1.0], &[]).anomalous);
    }
}
