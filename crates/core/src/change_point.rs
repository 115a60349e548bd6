//! Short-term change-point detection (§5.2.1).
//!
//! Applies CUSUM and EM iteratively to find the change point with the
//! maximum likelihood of separating two means, then validates it with a
//! likelihood-ratio chi-squared test at significance 0.01. A candidate is
//! produced only when the change point falls inside the analysis window —
//! the historic window is the baseline, not the region under scan.

use crate::config::DetectorConfig;
use crate::types::{Regression, RegressionKind};
use crate::Result;
use fbd_stats::prefix::{self, PrefixStats};
use fbd_stats::{distributions, em, hypothesis};
use fbd_tsdb::{SeriesId, Timestamp, WindowedData};

/// The short-term change-point detector.
#[derive(Debug, Clone)]
pub struct ChangePointDetector {
    significance: f64,
    max_iterations: usize,
}

impl ChangePointDetector {
    /// Creates a detector from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        ChangePointDetector {
            significance: config.significance,
            max_iterations: config.max_em_iterations,
        }
    }

    /// Scans one series' windows; returns a regression candidate when a
    /// statistically validated change point lies in the analysis region.
    ///
    /// `now` is the scan time used to timestamp the change point.
    pub fn detect(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        now: Timestamp,
    ) -> Result<Option<Regression>> {
        let prefix = prefix::validated(windows.all(), 8).ok();
        self.detect_with(series, windows, prefix.as_ref(), now)
    }

    /// [`Self::detect`] over the window's prefix statistics, built once
    /// per window by the pipeline and shared with the long-term
    /// pre-filter: `prefix` is `prefix::validated(windows.all(), 8)`, or
    /// `None` where that fails.
    pub(crate) fn detect_with(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        prefix: Option<&PrefixStats>,
        now: Timestamp,
    ) -> Result<Option<Regression>> {
        let data = windows.all();
        if data.len() < 8 || windows.analysis_len() == 0 {
            return Ok(None);
        }
        // Degenerate series (non-finite samples) carry no change point. One
        // prefix build serves the skip bound, the EM fit, and the LRT.
        let Some(ps) = prefix else {
            return Ok(None);
        };
        // The change must fall within the analysis region (or its boundary);
        // shifts buried deep in the historic window are old news, and the
        // extended window exists to check persistence, not to report from.
        let analysis_begin = windows.historic_len().saturating_sub(1);
        let analysis_end = windows.historic_len() + windows.analysis_len();
        // Sound EM skip: the strongest in-region split upper-bounds the
        // statistic of any change point the fit could report. If even that
        // split cannot reject H0, no in-region candidate can, and every
        // out-of-region candidate is dropped by the gate below anyway.
        let Some(bound) = hypothesis::max_lrt_statistic_in_range(
            ps,
            analysis_begin,
            analysis_end.saturating_sub(1),
        ) else {
            return Ok(None);
        };
        if distributions::chi_squared_p_value(bound, 2.0) >= self.significance {
            return Ok(None);
        }
        let Ok(fit) = em::fit_two_segment_from_prefix(ps, self.max_iterations) else {
            return Ok(None);
        };
        if fit.change_point < analysis_begin || fit.change_point >= analysis_end {
            return Ok(None);
        }
        let test =
            hypothesis::likelihood_ratio_test_from_prefix(ps, fit.change_point, self.significance)?;
        if !test.reject_null {
            return Ok(None);
        }
        // Recompute the post-change mean over the analysis region only so a
        // recovery inside the extended window does not dilute the estimate.
        let post = &data[fit.change_point + 1..analysis_end.min(data.len())];
        let mean_after = if post.is_empty() {
            fit.mean_after
        } else {
            post.iter().sum::<f64>() / post.len() as f64
        };
        // Timestamp: linear position of the change point within the span.
        let span = windows.analysis_end.saturating_sub(windows.analysis_start);
        let into_analysis = fit.change_point.saturating_sub(windows.historic_len());
        let change_time = if windows.analysis_len() == 0 {
            now
        } else {
            windows.analysis_start
                + span * into_analysis as u64 / windows.analysis_len().max(1) as u64
        };
        Ok(Some(Regression {
            series: series.clone(),
            kind: RegressionKind::ShortTerm,
            change_index: fit.change_point,
            change_time,
            mean_before: fit.mean_before,
            mean_after,
            windows: windows.clone(),
            root_cause_candidates: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_tsdb::MetricKind;

    fn sid() -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, "foo")
    }

    fn windows(historic: Vec<f64>, analysis: Vec<f64>, extended: Vec<f64>) -> WindowedData {
        WindowedData::from_regions(&historic, &analysis, &extended, 1_000, 2_000)
    }

    fn noisy(n: usize, mean: f64, amp: f64, phase: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = (i as u64 ^ phase).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                mean + (((z >> 33) % 1000) as f64 / 1000.0 - 0.5) * amp
            })
            .collect()
    }

    fn detector() -> ChangePointDetector {
        ChangePointDetector {
            significance: 0.01,
            max_iterations: 50,
        }
    }

    #[test]
    fn detects_step_in_analysis_window() {
        let hist = noisy(300, 1.0, 0.1, 1);
        let mut analysis = noisy(50, 1.0, 0.1, 2);
        analysis.extend(noisy(50, 1.3, 0.1, 3));
        let w = windows(hist, analysis, vec![]);
        let r = detector().detect(&sid(), &w, 5_000).unwrap().unwrap();
        assert!(
            (340..=360).contains(&r.change_index),
            "idx {}",
            r.change_index
        );
        assert!((r.magnitude() - 0.3).abs() < 0.05);
        assert_eq!(r.kind, RegressionKind::ShortTerm);
    }

    #[test]
    fn ignores_flat_series() {
        let w = windows(noisy(300, 1.0, 0.1, 1), noisy(100, 1.0, 0.1, 9), vec![]);
        assert!(detector().detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn ignores_constant_series() {
        let w = windows(vec![1.0; 300], vec![1.0; 100], vec![]);
        assert!(detector().detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn ignores_change_deep_in_historic_window() {
        // A big step in the middle of the historic window: old news.
        let mut hist = noisy(150, 1.0, 0.05, 1);
        hist.extend(noisy(150, 2.0, 0.05, 2));
        let w = windows(hist, noisy(100, 2.0, 0.05, 3), vec![]);
        assert!(detector().detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn post_mean_uses_analysis_region_only() {
        // The shift recovers inside the extended window; mean_after must
        // reflect the analysis region, not the recovered tail.
        let hist = noisy(300, 1.0, 0.05, 1);
        let analysis = noisy(100, 1.5, 0.05, 2);
        let extended = noisy(100, 1.0, 0.05, 3);
        let w = windows(hist, analysis, extended);
        if let Some(r) = detector().detect(&sid(), &w, 0).unwrap() {
            assert!(
                (r.mean_after - 1.5).abs() < 0.1,
                "mean_after = {}",
                r.mean_after
            );
        } else {
            panic!("step at analysis boundary should be detected");
        }
    }

    #[test]
    fn change_time_is_within_analysis_span() {
        let hist = noisy(200, 1.0, 0.05, 1);
        let mut analysis = noisy(50, 1.0, 0.05, 2);
        analysis.extend(noisy(50, 1.4, 0.05, 3));
        let w = windows(hist, analysis, vec![]);
        let r = detector().detect(&sid(), &w, 0).unwrap().unwrap();
        assert!(
            (1_000..2_000).contains(&r.change_time),
            "t = {}",
            r.change_time
        );
    }

    #[test]
    fn tiny_series_yields_none() {
        let w = windows(vec![1.0, 2.0], vec![1.0], vec![]);
        assert!(detector().detect(&sid(), &w, 0).unwrap().is_none());
    }
}
