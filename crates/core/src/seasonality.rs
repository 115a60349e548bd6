//! The seasonality detector (§5.2.3).
//!
//! Removes seasonality and re-checks whether the regression persists. The
//! flow: an autocorrelation gate decides whether seasonality is present at
//! all; if so, STL decomposes the series, the seasonal component is
//! removed, and a pseudo z-score — the deseasonalized median shift across
//! the change point normalized by the residual standard deviation — is
//! computed in both the analysis and the extended window. The regression is
//! attributed to seasonality (filtered) only when *both* z-scores fall
//! below the threshold.

use crate::config::DetectorConfig;
use crate::scan_cache::CacheStats;
use crate::types::Regression;
use crate::Result;
use fbd_stats::acf::{self, Seasonality};
use fbd_stats::descriptive;
use fbd_stats::stl::{decompose, StlConfig, StlDecomposition};
use fbd_stats::StatsError;

/// The seasonality-search and STL answers the detectors of one series share
/// within one round: the long-term detector, the went-away filter and the
/// seasonality filter all ask about the same window, so whichever asks
/// first computes and the others are served.
///
/// A value belongs to exactly one window (one series, one round) — it is
/// created on the worker's stack where the window is, handed down by
/// `&mut`, and dropped with it. Answers are therefore keyed by the
/// computation's parameters alone; the kernels are pure, so a served answer
/// is bit-identical to a recomputed one.
#[derive(Debug, Default)]
pub struct SeasonalArtifacts {
    /// [`acf::find_seasonality`] answers by `(max_lag, threshold bits)` —
    /// at most two in practice (the detectors' common
    /// `max_seasonal_period`, and went-away's post-change cap).
    searches: Vec<((usize, u64), Option<Seasonality>)>,
    /// [`decompose`] answers at [`StlConfig::for_period`], by period — one
    /// in practice (every consumer derives it from the same search).
    decompositions: Vec<(usize, StlDecomposition)>,
    /// Answers served (`hits`) and kernels run (`misses`) so far.
    pub reuse: CacheStats,
}

impl SeasonalArtifacts {
    /// [`acf::find_seasonality`] for periods from 2 up over this value's
    /// window, run at most once per distinct `(max_lag, threshold)`. A
    /// zero-variance window has no period (its autocorrelation is
    /// undefined, not an error of the series); other errors are returned
    /// and not retained.
    pub fn seasonality(
        &mut self,
        data: &[f64],
        max_lag: usize,
        threshold: f64,
    ) -> Result<Option<Seasonality>> {
        let key = (max_lag, threshold.to_bits());
        if let Some((_, found)) = self.searches.iter().find(|(k, _)| *k == key) {
            self.reuse.hits += 1;
            return Ok(*found);
        }
        self.reuse.misses += 1;
        let found = match acf::find_seasonality(data, 2, max_lag, threshold) {
            Err(StatsError::Degenerate(_)) => None,
            searched => searched?,
        };
        self.searches.push((key, found));
        Ok(found)
    }

    /// The full STL decomposition of this value's window at
    /// [`StlConfig::for_period`]`(period)`: the long-term detector takes its
    /// trend and the seasonality filter its seasonal and residual
    /// components — one STL run per series per round.
    pub fn decomposition(&mut self, data: &[f64], period: usize) -> Result<&StlDecomposition> {
        let at = match self.decompositions.iter().position(|(p, _)| *p == period) {
            Some(at) => {
                self.reuse.hits += 1;
                at
            }
            None => {
                self.reuse.misses += 1;
                let computed = decompose(data, StlConfig::for_period(period))?;
                self.decompositions.push((period, computed));
                self.decompositions.len() - 1
            }
        };
        Ok(&self.decompositions[at].1)
    }
}

/// Outcome of the seasonality check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalityVerdict {
    /// Whether significant seasonality was found (ACF gate).
    pub seasonal: bool,
    /// Pseudo z-score within the analysis window (NaN when not seasonal).
    pub z_analysis: f64,
    /// Pseudo z-score including the extended window (NaN when not
    /// seasonal or the extended window is empty).
    pub z_extended: f64,
    /// `true` keeps the regression; `false` filters it as seasonal.
    pub keep: bool,
}

/// The seasonality detector.
#[derive(Debug, Clone)]
pub struct SeasonalityDetector {
    acf_threshold: f64,
    z_threshold: f64,
    max_period: usize,
}

impl SeasonalityDetector {
    /// Creates a detector from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        SeasonalityDetector {
            acf_threshold: config.seasonality_acf_threshold,
            z_threshold: config.seasonality_z_threshold,
            max_period: config.max_seasonal_period,
        }
    }

    /// Evaluates the check; `verdict.keep == true` means the regression is
    /// not explained by seasonality.
    pub fn evaluate(&self, regression: &Regression) -> Result<SeasonalityVerdict> {
        self.evaluate_with(regression, &mut SeasonalArtifacts::default())
    }

    /// [`Self::evaluate`] sharing `artifacts` with the other detectors run
    /// on the candidate's window this round: the long-term detector has
    /// usually answered both the ACF gate and the decomposition already.
    pub fn evaluate_with(
        &self,
        regression: &Regression,
        artifacts: &mut SeasonalArtifacts,
    ) -> Result<SeasonalityVerdict> {
        let data = regression.windows.all();
        let cp = regression.change_index;
        // ACF gate: no significant periodicity, nothing to remove.
        let gate = artifacts.seasonality(data, self.max_period, self.acf_threshold)?;
        let Some(season) = gate else {
            return Ok(SeasonalityVerdict {
                seasonal: false,
                z_analysis: f64::NAN,
                z_extended: f64::NAN,
                keep: true,
            });
        };
        if data.len() < season.period * 2 || cp + 2 >= data.len() || cp < 2 {
            return Ok(SeasonalityVerdict {
                seasonal: true,
                z_analysis: f64::NAN,
                z_extended: f64::NAN,
                keep: true,
            });
        }
        let decomposition = artifacts.decomposition(data, season.period)?;
        let deseasonalized = decomposition.deseasonalized();
        let residual_std = descriptive::std_dev(&decomposition.residual)?.max(1e-12);
        // z over the analysis window region.
        let analysis_end =
            (regression.windows.historic_len() + regression.windows.analysis_len()).min(data.len());
        let z_analysis = self.z_score(&deseasonalized[..analysis_end], cp, residual_std)?;
        // z including the extended window (when present).
        let z_extended = if regression.windows.extended_len() == 0 {
            z_analysis
        } else {
            self.z_score(&deseasonalized, cp, residual_std)?
        };
        // Filter only when BOTH windows say the deseasonalized shift is
        // insignificant.
        let keep = !(z_analysis.abs() < self.z_threshold && z_extended.abs() < self.z_threshold);
        Ok(SeasonalityVerdict {
            seasonal: true,
            z_analysis,
            z_extended,
            keep,
        })
    }

    /// Median shift across `cp`, normalized by the residual deviation.
    fn z_score(&self, deseasonalized: &[f64], cp: usize, residual_std: f64) -> Result<f64> {
        if cp + 2 >= deseasonalized.len() {
            return Ok(f64::NAN);
        }
        let before = descriptive::median(&deseasonalized[..=cp])?;
        let after = descriptive::median(&deseasonalized[cp + 1..])?;
        Ok((after - before) / residual_std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn regression_from(
        historic: Vec<f64>,
        analysis: Vec<f64>,
        extended: Vec<f64>,
        change_index: usize,
        mean_before: f64,
        mean_after: f64,
    ) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::Cpu, ""),
            kind: RegressionKind::ShortTerm,
            change_index,
            change_time: 0,
            mean_before,
            mean_after,
            windows: WindowedData::from_regions(&historic, &analysis, &extended, 0, 1),
            root_cause_candidates: vec![],
        }
    }

    fn detector() -> SeasonalityDetector {
        SeasonalityDetector {
            acf_threshold: 0.4,
            z_threshold: 2.0,
            max_period: 30,
        }
    }

    fn sine(n: usize, period: usize, amp: f64, base: f64) -> Vec<f64> {
        (0..n)
            .map(|i| base + amp * (i as f64 / period as f64 * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn seasonal_upswing_is_filtered() {
        // A pure daily cycle: a "regression" caught on the rising edge must
        // be attributed to seasonality.
        let full = sine(480, 24, 1.0, 10.0);
        let historic = full[..380].to_vec();
        let analysis = full[380..440].to_vec();
        let extended = full[440..].to_vec();
        // Pretend the change point is where the cycle last crossed upward.
        let r = regression_from(historic, analysis, extended, 390, 10.0, 10.8);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.seasonal);
        assert!(!v.keep, "verdict = {v:?}");
    }

    #[test]
    fn real_step_on_seasonal_series_is_kept() {
        // Seasonality plus a genuine +2 step late in the series.
        let mut full = sine(480, 24, 1.0, 10.0);
        for v in full[400..].iter_mut() {
            *v += 2.0;
        }
        let historic = full[..380].to_vec();
        let analysis = full[380..440].to_vec();
        let extended = full[440..].to_vec();
        let r = regression_from(historic, analysis, extended, 399, 10.0, 12.0);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.seasonal);
        assert!(v.keep, "verdict = {v:?}");
        assert!(v.z_analysis > 2.0 || v.z_extended > 2.0);
    }

    #[test]
    fn non_seasonal_series_passes_through() {
        let noise: Vec<f64> = (0..300)
            .map(|i| {
                let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                1.0 + ((z >> 33) % 100) as f64 / 1000.0
            })
            .collect();
        let historic = noise[..200].to_vec();
        let analysis = noise[200..].to_vec();
        let r = regression_from(historic, analysis, vec![], 220, 1.0, 1.05);
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.seasonal);
        assert!(v.keep);
        assert!(v.z_analysis.is_nan());
    }

    #[test]
    fn each_seasonality_search_runs_once_per_series_round() {
        use crate::config::{DetectorConfig, Threshold};
        use crate::long_term::LongTermDetector;
        use crate::went_away::WentAwayDetector;
        // A step ten samples before the end of the window: went-away caps
        // its search at `post.len() / 2 = 5`, below the `max_seasonal_period`
        // (26) long-term and the seasonality filter search at. A single
        // slot would let went-away displace long-term's answer and make the
        // seasonality filter search again.
        let noise = |i: usize| {
            let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z >> 33) % 1000) as f64 / 10_000.0
        };
        let values: Vec<f64> = (0..400).map(|i| if i >= 390 { 2.0 } else { 1.0 } + noise(i)).collect();
        let r = regression_from(values[..300].to_vec(), values[300..].to_vec(), vec![], 389, 1.0, 2.0);
        let windows = fbd_tsdb::WindowConfig {
            historic: 300,
            analysis: 100,
            extended: 0,
            rerun_interval: 100,
        };
        let config = DetectorConfig::new("t", windows, Threshold::Absolute(0.1));
        assert!(r.windows.all().len() - 390 < 2 * config.max_seasonal_period);
        let mut artifacts = SeasonalArtifacts::default();
        let prefix = fbd_stats::prefix::validated(r.windows.all(), 8).ok();
        LongTermDetector::from_config(&config)
            .detect_with(&r.series, &r.windows, prefix.as_ref(), &mut artifacts)
            .unwrap();
        // Long-term was not pre-filtered out: it ran the search (and, the
        // series not being seasonal, no decomposition).
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (0, 1));
        let went_away = WentAwayDetector::from_config(&config);
        assert_eq!(went_away.evaluate_with(&r, &mut artifacts).unwrap(), went_away.evaluate(&r).unwrap());
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (0, 2));
        let seasonality = SeasonalityDetector::from_config(&config);
        let served = seasonality.evaluate_with(&r, &mut artifacts).unwrap();
        assert_eq!((artifacts.reuse.hits, artifacts.reuse.misses), (1, 2));
        assert_eq!(served.keep, seasonality.evaluate(&r).unwrap().keep);
    }

    #[test]
    fn both_windows_must_be_quiet_to_filter() {
        // Seasonal series whose extended window carries a true step: the
        // extended z-score alone must keep the regression.
        let mut full = sine(480, 24, 1.0, 10.0);
        for v in full[440..].iter_mut() {
            *v += 3.0;
        }
        let historic = full[..380].to_vec();
        let analysis = full[380..440].to_vec();
        let extended = full[440..].to_vec();
        let r = regression_from(historic, analysis, extended, 400, 10.0, 10.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep, "verdict = {v:?}");
    }
}
