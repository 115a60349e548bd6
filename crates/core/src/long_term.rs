//! Long-term (gradual) regression detection (§5.3).
//!
//! Three steps, in the *opposite* order of the short-term path:
//!
//! 1. **Seasonality decomposition** first: STL splits the series and the
//!    detector works on the trend alone (smoothing helps gradual changes,
//!    hurts sudden ones — hence the ordering difference);
//! 2. **Regression detection** on the trend: baseline = max(mean at start
//!    of analysis window, mean at start of historic window); current =
//!    min(mean at end of analysis window, mean at end of extended window);
//!    report when `current - baseline` clears the threshold;
//! 3. **Change-point location**: fit a line to the normalized trend; a low
//!    RMSE means a gradual change starting at the beginning of the trend,
//!    otherwise a dynamic-programming search with normal loss finds the
//!    variance-minimizing partition point.

use crate::config::{DetectorConfig, Threshold};
use crate::seasonality::SeasonalArtifacts;
use crate::types::{Regression, RegressionKind};
use crate::Result;
use fbd_stats::changepoint::optimal_single_split;
use fbd_stats::descriptive;
use fbd_stats::prefix::PrefixStats;
use fbd_stats::regression::linear_fit;
use fbd_tsdb::{SeriesId, Timestamp, WindowedData};

/// Loess window fraction of the no-seasonality trend fallback. Every site
/// that smooths or bounds the fallback trend (the full smooth in
/// `detect_inner` and the pre-filter dilation) must use this one constant
/// or the pre-filter's conservativeness proof breaks.
const TREND_FRACTION: f64 = 0.1;

/// Geometry of the trend pre-filter: the four sliding-mean regions the
/// detector's decision reduces to, the sliding-window width, and the
/// dilation that covers the widest Loess half-window either trend path can
/// use. The pre-filter and the full path's region means both construct
/// the regions here, so they evaluate identical ones.
#[derive(Debug, Clone, Copy)]
struct PrefilterGeometry {
    /// Sliding-mean window width (the detector's region width).
    edge: usize,
    /// Region dilation on each side, covering the Loess half-window.
    dilation: usize,
    /// `[start_of_historic, start_of_analysis, end_of_analysis,
    /// end_of_series]` as half-open index ranges into the window buffer.
    regions: [(usize, usize); 4],
}

/// Builds the pre-filter geometry for an `n`-point window, or `None` when
/// the pre-filter must not run (analysis region too short to bound, or the
/// sliding window would not fit the data).
fn prefilter_geometry(
    n: usize,
    h_len: usize,
    a_len: usize,
    max_period: usize,
) -> Option<PrefilterGeometry> {
    if a_len < 4 {
        return None;
    }
    let edge = (a_len / 4).max(2).min(a_len);
    if edge > n {
        return None;
    }
    // Widest Loess half-window either trend path can use: the fallback
    // smooths with window `ceil(TREND_FRACTION·n)`, and the STL trend for
    // period p uses window `(3p).div_ceil(2) | 1` — STL only runs when
    // `n >= 2p`, so p is capped at `min(max_period, n/2)`.
    let fallback_half = ((TREND_FRACTION * n as f64).ceil() as usize) / 2;
    let p_max = max_period.min(n / 2);
    let stl_half = ((3 * p_max).div_ceil(2) | 1) / 2;
    let dilation = fallback_half.max(stl_half) + 1;
    let analysis_end = (h_len + a_len).min(n);
    Some(PrefilterGeometry {
        edge,
        dilation,
        regions: [
            (0, edge.min(h_len).max(1)),
            (h_len, (h_len + edge).min(n)),
            (analysis_end.saturating_sub(edge), analysis_end),
            (n.saturating_sub(edge), n),
        ],
    })
}

/// The long-term regression detector.
#[derive(Debug, Clone)]
pub struct LongTermDetector {
    threshold: Threshold,
    rmse_fraction: f64,
    acf_threshold: f64,
    max_period: usize,
}

impl LongTermDetector {
    /// Creates a detector from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        LongTermDetector {
            threshold: config.threshold,
            rmse_fraction: config.long_term_rmse_fraction,
            acf_threshold: config.seasonality_acf_threshold,
            max_period: config.max_seasonal_period,
        }
    }

    /// Scans one series' windows for a gradual regression.
    ///
    /// The O(n) prefix-stats pre-filter runs ahead of the full path and
    /// skips the STL/Loess machinery entirely for provably-flat series: a
    /// pure function of the windows that only ever concludes "no
    /// regression" where [`Self::detect_without_prefilter`] does too.
    pub fn detect(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        _now: Timestamp,
    ) -> Result<Option<Regression>> {
        let prefix = fbd_stats::prefix::validated(windows.all(), 8).ok();
        self.detect_with(
            series,
            windows,
            prefix.as_ref(),
            &mut SeasonalArtifacts::default(),
        )
    }

    /// [`Self::detect`] over the window's prefix statistics — built once
    /// per window by the pipeline and shared with the short-term detector:
    /// `prefix` is `prefix::validated(windows.all(), 8)`, or `None` where
    /// that fails — leaving its seasonality search and STL decomposition
    /// in `artifacts`, for the filters that run on the same window later
    /// in the round.
    pub fn detect_with(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        prefix: Option<&PrefixStats>,
        artifacts: &mut SeasonalArtifacts,
    ) -> Result<Option<Regression>> {
        if windows.all().len() < 16 || self.prefilter_says_flat(windows, prefix) {
            return Ok(None);
        }
        self.detect_inner(series, windows, artifacts)
    }

    /// Cheap O(n) trend pre-filter.
    ///
    /// The detector compares region means of the *smoothed* trend. Every
    /// trend value is a kernel-weighted local average of the raw data within
    /// one Loess half-window, so a region mean of the trend behaves like a
    /// mixture of short sliding means of the raw data near that region. The
    /// pre-filter therefore bounds the detector's best case from sliding
    /// means of width `edge` (the detector's own region width) over each
    /// region dilated by the widest Loess half-window: `baseline` is at
    /// least the larger of the two start regions' minimum sliding means, and
    /// `current` is at most the end regions' maximum sliding means. When
    /// even that optimistic pair cannot meet the threshold the full detector
    /// cannot report, and STL is skipped.
    ///
    /// Returns `false` (do not skip) whenever the bound is not provably
    /// conservative: short analysis windows, non-finite data (which must
    /// still surface errors from the full path), or a threshold that is
    /// not monotone over the bound ([`Threshold::refuted_by`]). Verified
    /// two ways: a property test checks that skipped series are exactly
    /// series the full detector rejects, and the fleet-seed acceptance run
    /// checks scan decisions are unchanged.
    fn prefilter_says_flat(&self, windows: &WindowedData, prefix: Option<&PrefixStats>) -> bool {
        let data = windows.all();
        // The window has at least 16 points here, so its prefix exists
        // exactly when every sample is finite: non-finite data has none and
        // still reaches the full detector, which raises its error.
        let Some(prefix) = prefix else {
            return false;
        };
        let (h_len, a_len) = (windows.historic_len(), windows.analysis_len());
        let Some(geo) = prefilter_geometry(data.len(), h_len, a_len, self.max_period) else {
            return false;
        };
        let [start_hist, start_anal, end_anal, end_series] = geo
            .regions
            .map(|(lo, hi)| sliding_mean_range(prefix, lo, hi, geo.dilation, geo.edge));
        let (baseline_lb, current_ub) = baseline_and_current(
            [start_hist.0, start_anal.0, end_anal.1, end_series.1],
            windows.extended_len(),
        );
        self.threshold.refuted_by(baseline_lb, current_ub)
    }

    /// The full STL/Loess detection path, without the pre-filter. Public so
    /// tests can verify the pre-filter only skips series this path rejects.
    pub fn detect_without_prefilter(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        _now: Timestamp,
    ) -> Result<Option<Regression>> {
        if windows.all().len() < 16 {
            return Ok(None);
        }
        self.detect_inner(series, windows, &mut SeasonalArtifacts::default())
    }

    /// Steps 1–3 for a window of at least 16 points.
    fn detect_inner(
        &self,
        series: &SeriesId,
        windows: &WindowedData,
        artifacts: &mut SeasonalArtifacts,
    ) -> Result<Option<Regression>> {
        let data = windows.all();
        // Step 1: seasonality decomposition; the trend is the subject. The
        // period is 0 when the series has no seasonality STL can use (none
        // found, or fewer than two full periods of data).
        let period = artifacts
            .seasonality(data, self.max_period, self.acf_threshold)?
            .map(|s| s.period)
            .filter(|&p| p >= 2 && data.len() >= p * 2)
            .unwrap_or(0);
        let smoothed;
        let trend: &[f64] = if period >= 2 {
            // The seasonality filter takes the other two components of the
            // same decomposition later in the round.
            &artifacts.decomposition(data, period)?.trend
        } else {
            // No seasonality: a wide Loess smooth stands in for the trend.
            smoothed = fbd_stats::stl::loess_smooth_uniform(data, TREND_FRACTION)?;
            &smoothed
        };
        // Step 2: regression detection on the trend alone.
        let h_len = windows.historic_len();
        let a_len = windows.analysis_len();
        let Some(geo) = prefilter_geometry(trend.len(), h_len, a_len, self.max_period) else {
            return Ok(None);
        };
        let mut means = [0.0; 4];
        for (slot, &(lo, hi)) in means.iter_mut().zip(&geo.regions) {
            *slot = descriptive::mean(&trend[lo..hi])?;
        }
        let (baseline, current) = baseline_and_current(means, windows.extended_len());
        if !self.threshold.is_met(baseline, current) {
            return Ok(None);
        }
        // Step 3: change-point location.
        let mut normalized = trend.to_vec();
        let cp = match descriptive::z_normalize(&mut normalized) {
            Ok(_) => {
                let fit = linear_fit(&normalized)?;
                let trend_std = 1.0; // Normalized.
                if fit.rmse < self.rmse_fraction * trend_std {
                    // Gradual change: the change point is the beginning of
                    // the trend.
                    0
                } else {
                    optimal_single_split(trend)?.index
                }
            }
            Err(_) => 0, // Constant trend cannot reach here, but be safe.
        };
        let mean_before = descriptive::mean(&trend[..(cp + 1).min(trend.len())])?;
        let span = windows.analysis_end.saturating_sub(windows.analysis_start);
        let change_time = if cp <= h_len {
            windows.analysis_start
        } else {
            windows.analysis_start + span * (cp - h_len) as u64 / a_len.max(1) as u64
        };
        Ok(Some(Regression {
            series: series.clone(),
            kind: RegressionKind::LongTerm,
            change_index: cp,
            change_time,
            mean_before: mean_before.min(baseline),
            mean_after: current,
            windows: windows.clone(),
            root_cause_candidates: Vec::new(),
        }))
    }
}

/// The detector's conservative pair from the four region means of
/// [`PrefilterGeometry::regions`]: baseline = max of the two start
/// regions, current = min of the two end regions (the analysis end alone
/// when the extended window is empty).
fn baseline_and_current(means: [f64; 4], extended_len: usize) -> (f64, f64) {
    let [start_of_historic, start_of_analysis, end_of_analysis, end_of_series] = means;
    let current = if extended_len == 0 {
        end_of_analysis
    } else {
        end_of_analysis.min(end_of_series)
    };
    (start_of_historic.max(start_of_analysis), current)
}

/// Min and max mean over every width-`edge` window of the series that
/// intersects the region `[lo, hi)` dilated by `d` on both sides. Each
/// window mean is O(1) via the prefix sums, so a region scan is O(region +
/// 2d). Falls back to the dilated region's own mean when no full window
/// fits.
fn sliding_mean_range(
    prefix: &PrefixStats,
    lo: usize,
    hi: usize,
    d: usize,
    edge: usize,
) -> (f64, f64) {
    let n = prefix.len();
    let lo = lo.saturating_sub(d);
    let hi = (hi + d).min(n);
    if edge == 0 || edge > n {
        let m = prefix.segment_mean(lo, hi);
        return (m, m);
    }
    // Window starts whose span [s, s + edge) intersects [lo, hi).
    let first = lo.saturating_sub(edge - 1);
    let last = hi.min(n - edge + 1);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for s in first..last {
        let m = prefix.segment_mean(s, s + edge);
        min = min.min(m);
        max = max.max(m);
    }
    if min > max {
        let m = prefix.segment_mean(lo, hi);
        (m, m)
    } else {
        (min, max)
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
        WindowedData::from_regions(&historic, &analysis, &extended, 10_000, 20_000)
    }

    fn detector(threshold: f64) -> LongTermDetector {
        LongTermDetector {
            threshold: Threshold::Absolute(threshold),
            rmse_fraction: 0.35,
            acf_threshold: 0.4,
            max_period: 30,
        }
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

    #[test]
    fn detects_gradual_ramp() {
        // The mean drifts up across the analysis window.
        let historic = noisy(200, 1.0, 0.05, 1);
        let analysis: Vec<f64> = (0..200)
            .map(|i| 1.0 + 0.5 * i as f64 / 200.0)
            .zip(noisy(200, 0.0, 0.05, 2))
            .map(|(a, b)| a + b)
            .collect();
        let w = windows(historic, analysis, vec![]);
        let r = detector(0.2).detect(&sid(), &w, 0).unwrap().unwrap();
        assert_eq!(r.kind, RegressionKind::LongTerm);
        assert!(r.magnitude() > 0.2, "magnitude = {}", r.magnitude());
    }

    #[test]
    fn flat_series_not_reported() {
        let w = windows(noisy(200, 1.0, 0.05, 1), noisy(200, 1.0, 0.05, 2), vec![]);
        assert!(detector(0.05).detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn conservative_baseline_uses_max_of_starts() {
        // The historic window starts HIGH and decays; the analysis window
        // then rises back to the historic start. Conservative baselining
        // (max of starts) must not report this as a regression.
        let historic: Vec<f64> = (0..200).map(|i| 2.0 - 0.5 * i as f64 / 200.0).collect();
        let analysis: Vec<f64> = (0..200).map(|i| 1.5 + 0.5 * i as f64 / 200.0).collect();
        let w = windows(historic, analysis, vec![]);
        assert!(detector(0.1).detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn conservative_current_uses_min_of_ends() {
        // The analysis window ends high but the extended window shows the
        // value fell back: min-of-ends suppresses the report.
        let historic = noisy(200, 1.0, 0.02, 1);
        let analysis: Vec<f64> = (0..100).map(|i| 1.0 + 0.6 * i as f64 / 100.0).collect();
        let extended = noisy(100, 1.0, 0.02, 2);
        let w = windows(historic, analysis, extended);
        assert!(detector(0.2).detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn sudden_step_gets_dp_change_point() {
        // A sharp step (poor linear fit) should locate the change point at
        // the step, not at the series start.
        let mut data = noisy(300, 1.0, 0.02, 1);
        for v in data[200..].iter_mut() {
            *v += 1.0;
        }
        let historic = data[..150].to_vec();
        let analysis = data[150..].to_vec();
        let w = windows(historic, analysis, vec![]);
        let r = detector(0.3).detect(&sid(), &w, 0).unwrap().unwrap();
        assert!(
            (185..=215).contains(&r.change_index),
            "cp = {}",
            r.change_index
        );
    }

    #[test]
    fn gradual_ramp_gets_start_change_point() {
        let data: Vec<f64> = (0..400).map(|i| 1.0 + i as f64 / 400.0).collect();
        let historic = data[..200].to_vec();
        let analysis = data[200..].to_vec();
        let w = windows(historic, analysis, vec![]);
        let r = detector(0.2).detect(&sid(), &w, 0).unwrap().unwrap();
        assert_eq!(r.change_index, 0);
    }

    #[test]
    fn short_series_ignored() {
        let w = windows(vec![1.0; 4], vec![1.0; 4], vec![]);
        assert!(detector(0.1).detect(&sid(), &w, 0).unwrap().is_none());
    }

    #[test]
    fn prefilter_skips_flat_but_not_ramp() {
        let d = detector(0.05);
        let says_flat = |w: &WindowedData| {
            d.prefilter_says_flat(w, fbd_stats::prefix::validated(w.all(), 8).ok().as_ref())
        };
        let flat = windows(noisy(200, 1.0, 0.05, 1), noisy(200, 1.0, 0.05, 2), vec![]);
        assert!(says_flat(&flat));
        let analysis: Vec<f64> = (0..200)
            .map(|i| 1.0 + 0.5 * i as f64 / 200.0)
            .zip(noisy(200, 0.0, 0.05, 2))
            .map(|(a, b)| a + b)
            .collect();
        let ramp = windows(noisy(200, 1.0, 0.05, 1), analysis, vec![]);
        assert!(!says_flat(&ramp));
    }

    #[test]
    fn prefilter_never_flips_a_detection() {
        // Across the module's scenarios, a pre-filter skip must imply the
        // full detector also rejects.
        let cases: Vec<(WindowedData, f64)> = vec![
            (
                windows(noisy(200, 1.0, 0.05, 1), noisy(200, 1.0, 0.05, 2), vec![]),
                0.05,
            ),
            (
                windows(
                    (0..200).map(|i| 2.0 - 0.5 * i as f64 / 200.0).collect(),
                    (0..200).map(|i| 1.5 + 0.5 * i as f64 / 200.0).collect(),
                    vec![],
                ),
                0.1,
            ),
            (
                windows(
                    noisy(200, 1.0, 0.02, 1),
                    (0..100).map(|i| 1.0 + 0.6 * i as f64 / 100.0).collect(),
                    noisy(100, 1.0, 0.02, 2),
                ),
                0.2,
            ),
        ];
        for (w, thr) in cases {
            let d = detector(thr);
            let with = d.detect(&sid(), &w, 0).unwrap();
            let without = d.detect_without_prefilter(&sid(), &w, 0).unwrap();
            assert_eq!(with.is_some(), without.is_some());
        }
    }

    #[test]
    fn streaming_path_decisions_match_cached_path() {
        // The prefix pre-filter of `detect` may not refute — or swallow an
        // error of — a window the full path would not: across flats, ramps,
        // steps, near-threshold margins, seasonal series, analysis windows
        // too short to bound, and a NaN in each region, `detect` — computing
        // its seasonality/STL answers or served them from shared artifacts —
        // must agree with `detect_without_prefilter` on `Ok`/`Err`, and any
        // reported regression must be bit-identical.
        let seasonal: Vec<f64> = (0..200)
            .map(|i| 1.0 + 0.3 * (i as f64 / 12.0 * std::f64::consts::TAU).sin())
            .collect();
        let seasonal_ramp: Vec<f64> = seasonal
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.5 * i as f64 / 200.0)
            .collect();
        let ramp: Vec<f64> = (0..200).map(|i| 1.0 + 0.5 * i as f64 / 200.0).collect();
        let mut step = noisy(200, 1.0, 0.02, 3);
        for v in step[120..].iter_mut() {
            *v += 0.4;
        }
        let near: Vec<f64> = (0..200).map(|i| 1.0 + 0.101 * i as f64 / 200.0).collect();
        let with_nan = |mut v: Vec<f64>, at: usize| {
            v[at] = f64::NAN;
            v
        };
        let cases = [
            windows(noisy(200, 1.0, 0.05, 1), noisy(200, 1.0, 0.05, 2), vec![]),
            windows(noisy(200, 1.0, 0.05, 1), ramp.clone(), noisy(50, 1.5, 0.05, 4)),
            windows(noisy(200, 1.0, 0.02, 5), step, vec![]),
            windows(noisy(200, 1.0, 0.01, 6), near, vec![]),
            windows(seasonal.clone(), seasonal.clone(), vec![]),
            windows(seasonal, seasonal_ramp, vec![]),
            // analysis_len < 4: no region geometry to bound.
            windows(noisy(200, 1.0, 0.05, 7), vec![1.4, 1.5, 1.6], vec![]),
            windows(noisy(200, 1.0, 0.05, 7), vec![1.4, 1.5, 1.6], noisy(20, 1.6, 0.05, 8)),
            // One NaN inside each region.
            windows(with_nan(noisy(200, 1.0, 0.05, 1), 17), ramp.clone(), noisy(50, 1.5, 0.05, 4)),
            windows(noisy(200, 1.0, 0.05, 1), with_nan(ramp.clone(), 100), noisy(50, 1.5, 0.05, 4)),
            windows(noisy(200, 1.0, 0.05, 1), ramp, with_nan(noisy(50, 1.5, 0.05, 4), 49)),
        ];
        let render = |r: Result<Option<Regression>>| match r {
            Ok(found) => format!("{found:?}"),
            Err(e) => format!("Err({e})"),
        };
        let mut reported = 0;
        let mut errored = 0;
        for (i, w) in cases.iter().enumerate() {
            for thr in [0.05, 0.1, 0.3] {
                let d = detector(thr);
                let oracle = d.detect_without_prefilter(&sid(), w, 0);
                reported += usize::from(matches!(oracle, Ok(Some(_))));
                errored += usize::from(oracle.is_err());
                let oracle = render(oracle);
                assert_eq!(
                    render(d.detect(&sid(), w, 0)),
                    oracle,
                    "case {i} thr {thr}: detect diverged from the full path"
                );
                let mut artifacts = SeasonalArtifacts::default();
                let prefix = fbd_stats::prefix::validated(w.all(), 8).ok();
                let computed = render(d.detect_with(&sid(), w, prefix.as_ref(), &mut artifacts));
                let kernels_run = artifacts.reuse.misses;
                assert_eq!(
                    render(d.detect_with(&sid(), w, prefix.as_ref(), &mut artifacts)),
                    computed,
                    "case {i} thr {thr}: served answers changed the outcome"
                );
                assert_eq!(computed, oracle, "case {i} thr {thr}: detect_with diverged");
                if oracle.starts_with("Ok") {
                    assert_eq!(artifacts.reuse.misses, kernels_run, "case {i} thr {thr}: a kernel re-ran");
                }
            }
        }
        assert!(reported > 0 && errored > 0, "{reported} reports, {errored} errors: vacuous");
    }

    #[test]
    fn shared_prefix_path_equals_detect_for_both_detectors() {
        // The pipeline builds one `validated(·, 8)` prefix per window and
        // hands it to both detectors; each must then decide exactly as its
        // standalone `detect` does, and the long-term pre-filter, which
        // once validated at 16 points, must still let every window it
        // cannot refute — non-finite ones included — reach the full path.
        use crate::change_point::ChangePointDetector;
        let cfg = DetectorConfig::new(
            "shared-prefix",
            fbd_tsdb::WindowConfig {
                historic: 200,
                analysis: 100,
                extended: 50,
                rerun_interval: 50,
            },
            Threshold::Absolute(0.1),
        );
        let short_term = ChangePointDetector::from_config(&cfg);
        let ramp: Vec<f64> = (0..200).map(|i| 1.0 + 0.5 * i as f64 / 200.0).collect();
        let mut step = noisy(100, 1.0, 0.02, 3);
        for v in step[40..].iter_mut() {
            *v += 0.6;
        }
        let with_nan = |mut v: Vec<f64>, at: usize| {
            v[at] = f64::NAN;
            v
        };
        let cases = [
            windows(noisy(200, 1.0, 0.05, 1), noisy(200, 1.0, 0.05, 2), vec![]),
            windows(
                noisy(200, 1.0, 0.05, 1),
                ramp.clone(),
                noisy(50, 1.5, 0.05, 4),
            ),
            windows(noisy(300, 1.0, 0.02, 5), step.clone(), vec![]),
            // A NaN in each region.
            windows(
                with_nan(noisy(200, 1.0, 0.05, 1), 17),
                ramp.clone(),
                noisy(50, 1.5, 0.05, 4),
            ),
            windows(noisy(300, 1.0, 0.02, 5), with_nan(step, 60), vec![]),
            windows(
                noisy(200, 1.0, 0.05, 1),
                ramp,
                with_nan(noisy(50, 1.5, 0.05, 4), 49),
            ),
            // Fewer than 8 points: no prefix at all.
            windows(vec![1.0, 1.1, 0.9, 1.0], vec![2.0, 2.1, 1.9], vec![]),
            // 8–15 points: a prefix, but too short for the long-term path.
            windows(noisy(8, 1.0, 0.05, 6), vec![2.0, 2.1, 1.9, 2.0], vec![]),
            windows(
                vec![1.0, 1.1, 0.9, 1.0, 1.0, 1.1, 0.9, 1.0, 1.0],
                vec![f64::NAN, 2.0],
                vec![],
            ),
            // No analysis samples.
            windows(noisy(200, 1.0, 0.05, 7), vec![], noisy(40, 1.5, 0.05, 8)),
        ];
        let render = |r: Result<Option<Regression>>| match r {
            Ok(found) => format!("{found:?}"),
            Err(e) => format!("Err({e})"),
        };
        let (mut short_reports, mut long_reports, mut no_prefix) = (0, 0, 0);
        for (i, w) in cases.iter().enumerate() {
            for thr in [0.05, 0.3] {
                let long_term = detector(thr);
                let prefix = fbd_stats::prefix::validated(w.all(), 8).ok();
                no_prefix += usize::from(prefix.is_none());
                let short = render(short_term.detect_with(&sid(), w, prefix.as_ref(), 7));
                let long = render(long_term.detect_with(
                    &sid(),
                    w,
                    prefix.as_ref(),
                    &mut SeasonalArtifacts::default(),
                ));
                assert_eq!(
                    short,
                    render(short_term.detect(&sid(), w, 7)),
                    "case {i}: short-term"
                );
                assert_eq!(
                    long,
                    render(long_term.detect(&sid(), w, 7)),
                    "case {i} thr {thr}: long-term"
                );
                assert_eq!(
                    long,
                    render(long_term.detect_without_prefilter(&sid(), w, 7)),
                    "case {i} thr {thr}: the shared prefix changed a long-term outcome"
                );
                short_reports += usize::from(short.starts_with("Some"));
                long_reports += usize::from(long.starts_with("Some"));
            }
        }
        assert!(
            short_reports > 0 && long_reports > 0 && no_prefix > 0,
            "vacuous: {short_reports} short, {long_reports} long, {no_prefix} without a prefix"
        );
    }

    #[test]
    fn prefilter_relative_threshold_guard() {
        // A negative-baseline series with a relative threshold must never be
        // skipped (is_met is not monotone around zero).
        let d = LongTermDetector {
            threshold: Threshold::Relative(0.1),
            rmse_fraction: 0.35,
            acf_threshold: 0.4,
            max_period: 30,
        };
        let w = windows(noisy(200, -1.0, 0.05, 1), noisy(200, -1.0, 0.05, 2), vec![]);
        assert!(!d.prefilter_says_flat(&w, fbd_stats::prefix::validated(w.all(), 8).ok().as_ref()));
    }
}
