//! The went-away detector (§5.2.2).
//!
//! Filters out transient regressions that recover on their own — the false
//! positive of Figure 1(c), which accounts for up to 99.7% of raw change
//! points. This is the paper's third-iteration design: a regression is kept
//! only when
//!
//! ```text
//! NewPattern OR (SignificantRegression AND LastingTrend AND NOT RegressionGoneAway)
//! ```
//!
//! where the terms are computed over SAX string representations (N=20
//! buckets, 3% validity), the Mann-Kendall trend test, Theil-Sen slopes,
//! and a MAD-based regression threshold with the 1.4826 normality constant
//! and a 1.5 coefficient.
//!
//! # Evaluation order
//!
//! The predicate is evaluated cheapest-decisive-first, and a candidate pays
//! only for the terms that decide it ([`DecidedBy`] names the one that did):
//!
//! 1. too little data (keep) or a non-positive shift (drop) — O(1);
//! 2. the windows are validated **once**: every `Err` the full predicate
//!    could raise for NaN/±∞ in the historic, analysis or post-change
//!    samples is raised here, so the exits below cannot hide one;
//! 3. `RegressionGoneAway` — a seasonality search and an O(tail) mean. It
//!    vetoes every other term, so `true` drops the candidate outright;
//! 4. `NewPattern` — with `gone_away` false, `true` keeps the candidate;
//! 5. `SignificantRegression`, itself short-circuited SAX letter → P90 vs
//!    historic P95 → P90 vs previous-period P90; `false` drops;
//! 6. `LastingTrend` — the only consumer of the MAD, Mann-Kendall and
//!    Theil-Sen, and what is left of the decision.
//!
//! Each exit returns exactly what `(new_pattern || (significant && lasting))
//! && !gone_away` would with every term computed, because the skipped terms
//! are the ones boolean short-circuiting ignores.

use crate::config::DetectorConfig;
use crate::seasonality::SeasonalArtifacts;
use crate::types::Regression;
use crate::Result;
use fbd_stats::descriptive;
use fbd_stats::sax::{check_encoding, encode_in_range, SaxConfig};
use fbd_stats::trend::{mann_kendall_finite, theil_sen_slope, TrendDirection};
use fbd_stats::Finite;

/// The term of the went-away predicate that settled a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecidedBy {
    /// Fewer than four historic or post-change samples: kept, unrefuted.
    TooShort,
    /// A non-positive shift is an improvement: dropped.
    Improvement,
    /// The final data points are back at the baseline: dropped.
    GoneAway,
    /// The post-change pattern is unprecedented: kept.
    NewPattern,
    /// The shift is within what the history already showed: dropped.
    NotSignificant,
    /// Significant and persisting: kept.
    Lasting,
    /// Significant but trending back to the baseline: dropped.
    NotLasting,
}

impl DecidedBy {
    /// Every outcome, in evaluation order.
    pub const ALL: [DecidedBy; 7] = [
        DecidedBy::TooShort,
        DecidedBy::Improvement,
        DecidedBy::GoneAway,
        DecidedBy::NewPattern,
        DecidedBy::NotSignificant,
        DecidedBy::Lasting,
        DecidedBy::NotLasting,
    ];

    /// Stable snake_case name, for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            DecidedBy::TooShort => "too_short",
            DecidedBy::Improvement => "improvement",
            DecidedBy::GoneAway => "gone_away",
            DecidedBy::NewPattern => "new_pattern",
            DecidedBy::NotSignificant => "not_significant",
            DecidedBy::Lasting => "lasting",
            DecidedBy::NotLasting => "not_lasting",
        }
    }
}

/// The went-away decision for one candidate and the terms behind it.
///
/// Terms are evaluated lazily (see the module docs); one that the decision
/// did not need is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WentAwayVerdict {
    /// The overall decision: `true` keeps the regression.
    pub keep: bool,
    /// The term that made the decision.
    pub decided_by: DecidedBy,
    /// The final data points have returned to the baseline.
    pub gone_away: Option<bool>,
    /// The post-regression pattern differs from anything in history.
    pub new_pattern: Option<bool>,
    /// The regression magnitude is significant.
    pub significant: Option<bool>,
    /// The regression persists (no substantial recovery trend).
    pub lasting: Option<bool>,
}

impl WentAwayVerdict {
    fn early(decided_by: DecidedBy, keep: bool) -> Self {
        WentAwayVerdict {
            keep,
            decided_by,
            gone_away: None,
            new_pattern: None,
            significant: None,
            lasting: None,
        }
    }
}

/// How many candidates each term of the predicate decided, cumulative over
/// a pipeline's scans — the per-decision trail of the went-away stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WentAwayStats {
    /// Evaluated candidates by [`DecidedBy`], indexed like [`DecidedBy::ALL`].
    decided: [u64; 7],
    /// Candidates whose verdict the streaming engine replayed together
    /// with the candidate (Level A), without evaluation.
    pub replayed: u64,
}

impl WentAwayStats {
    /// Counts one evaluated candidate.
    pub fn record(&mut self, decided_by: DecidedBy) {
        self.decided[decided_by as usize] += 1;
    }

    /// Adds another tally into this one.
    pub fn accumulate(&mut self, other: &WentAwayStats) {
        for (total, n) in self.decided.iter_mut().zip(other.decided) {
            *total += n;
        }
        self.replayed += other.replayed;
    }

    /// Candidates decided by `term`.
    pub fn decided_by(&self, term: DecidedBy) -> u64 {
        self.decided[term as usize]
    }

    /// `(name, count)` pairs: the seven [`DecidedBy`] outcomes in evaluation
    /// order, then `replayed`.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        let mut out = [("replayed", self.replayed); 8];
        for (slot, term) in out.iter_mut().zip(DecidedBy::ALL) {
            *slot = (term.name(), self.decided_by(term));
        }
        out
    }
}

/// The went-away detector.
#[derive(Debug, Clone)]
pub struct WentAwayDetector {
    sax: SaxConfig,
    regression_coefficient: f64,
    new_pattern_fraction: f64,
    seasonality_acf_threshold: f64,
    max_seasonal_period: usize,
}

impl WentAwayDetector {
    /// Creates a detector from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        WentAwayDetector {
            sax: config.sax,
            regression_coefficient: config.regression_coefficient,
            new_pattern_fraction: config.new_pattern_fraction,
            seasonality_acf_threshold: config.seasonality_acf_threshold,
            max_seasonal_period: config.max_seasonal_period,
        }
    }

    /// Evaluates the predicate; `verdict.keep == true` means the regression
    /// survives this filter.
    pub fn evaluate(&self, regression: &Regression) -> Result<WentAwayVerdict> {
        self.evaluate_with(regression, &mut SeasonalArtifacts::default())
    }

    /// [`Self::evaluate`] sharing `artifacts` with the other detectors run
    /// on the candidate's window this round: the seasonality search is
    /// served when one of them already ran it at the same `max_lag`, and
    /// kept for the seasonality filter otherwise.
    // fbd-lint::hot
    pub fn evaluate_with(
        &self,
        regression: &Regression,
        artifacts: &mut SeasonalArtifacts,
    ) -> Result<WentAwayVerdict> {
        let data = regression.windows.all();
        let historic = regression.windows.historic();
        let cp = regression.change_index.min(data.len().saturating_sub(1));
        let post_start = (cp + 1).min(data.len());
        if data.len() - post_start < 4 || historic.len() < 4 {
            // Too little evidence to refute; keep the candidate.
            return Ok(WentAwayVerdict::early(DecidedBy::TooShort, true));
        }
        let magnitude = regression.magnitude();
        // §5.2: an *increase* means a regression (series are oriented
        // upstream). A non-positive shift is an improvement — filter it.
        if magnitude <= 0.0 {
            return Ok(WentAwayVerdict::early(DecidedBy::Improvement, false));
        }

        // --- Validate once ---
        // In the order the terms below would fail: the SAX reference
        // (historic samples, then the combined value range), the post-change
        // samples, the MAD, and the analysis window's trend test.
        let range_min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let range_max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let historic = Finite::new(historic)?;
        check_encoding(range_min, range_max, self.sax)?;
        let post = Finite::new(&data[post_start..])?;
        if range_min.abs().max(range_max.abs()) > f64::MAX / 4.0 {
            // The MAD's one error on finite input is an overflowing sum or
            // difference of two samples, which needs one at least this big.
            descriptive::mad_finite(historic)?;
        }
        let analysis_end = historic.len() + regression.windows.analysis_len();
        let analysis_window = &data[historic.len()..analysis_end.min(data.len())];
        let analysis_window = if analysis_window.len() >= 4 {
            Some(Finite::new(analysis_window)?)
        } else {
            None
        };

        // Seasonal period, if any: trend and tail checks must not mistake
        // a diurnal trough for a recovery.
        let max_lag = self.max_seasonal_period.min(post.len() / 2);
        let period = artifacts
            .seasonality(data, max_lag, self.seasonality_acf_threshold)
            .unwrap_or(None)
            .map(|s| s.period)
            .unwrap_or(0);

        // --- RegressionGoneAway ---
        // "The final sanity check" on the last few data points: a series
        // back at the baseline is never reported, even when its excursion
        // formed a new pattern — so it is checked first. With seasonality
        // present, the tail must span one full period so a trough alone
        // cannot read as a recovery.
        let tail_len = (post.len() / 10).max(5).max(period).min(post.len());
        let tail_mean = descriptive::mean_finite(post.slice(post.len() - tail_len..))?;
        let gone_away = tail_mean <= regression.mean_before + 0.25 * magnitude;
        let mut verdict = WentAwayVerdict::early(DecidedBy::GoneAway, false);
        verdict.gone_away = Some(gone_away);
        if gone_away {
            return Ok(verdict);
        }

        // SAX over the combined value range, with validity defined by the
        // historic window ("a letter is valid if its number of occurrences
        // exceeds a predefined threshold").
        let reference = encode_in_range(&historic, range_min, range_max, self.sax)?;
        let post_sax = reference.encode_with_same_buckets(&post)?;

        // --- NewPattern ---
        let post_mean = descriptive::mean_finite(post)?;
        let lowest_valid_edge = reference
            .smallest_valid_symbol()
            .map(|s| range_min + s as f64 * reference.bucket_width());
        let new_pattern = post_sax.invalid_fraction() > self.new_pattern_fraction
            && lowest_valid_edge.is_none_or(|edge| post_mean >= edge);
        verdict.new_pattern = Some(new_pattern);
        if new_pattern {
            verdict.decided_by = DecidedBy::NewPattern;
            verdict.keep = true;
            return Ok(verdict);
        }

        // --- SignificantRegression ---
        // Largest post letter vs. largest valid historic letter.
        let post_analysis: &[f64] = &data[post_start..analysis_end.min(data.len())];
        let largest_post_symbol = if post_analysis.is_empty() {
            post_sax.largest_symbol()
        } else {
            reference
                .encode_with_same_buckets(post_analysis)?
                .largest_symbol()
        };
        let letter_ok = reference
            .largest_valid_symbol()
            .is_none_or(|largest_valid| largest_post_symbol >= largest_valid);
        // P90(post) must exceed P95(historic) and P90 of the previous
        // period (the tail of the historic window, one post-length long).
        let significant = letter_ok && {
            let p90_post = descriptive::percentile_finite(post, 90.0)?;
            let prev_len = post.len().min(historic.len());
            p90_post > descriptive::percentile_finite(historic, 95.0)?
                && p90_post
                    > descriptive::percentile_finite(
                        historic.slice(historic.len() - prev_len..),
                        90.0,
                    )?
        };
        verdict.significant = Some(significant);
        if !significant {
            verdict.decided_by = DecidedBy::NotSignificant;
            return Ok(verdict);
        }

        let lasting =
            self.lasting_trend(regression, historic, post, analysis_window, period, post_mean)?;
        verdict.lasting = Some(lasting);
        verdict.decided_by = if lasting {
            DecidedBy::Lasting
        } else {
            DecidedBy::NotLasting
        };
        verdict.keep = lasting;
        Ok(verdict)
    }

    /// The `LastingTrend` term: does the regression persist, judged by the
    /// post-change trend? `analysis_window` is `None` below four samples
    /// (no trend test possible).
    fn lasting_trend(
        &self,
        regression: &Regression,
        historic: Finite<'_>,
        post: Finite<'_>,
        analysis_window: Option<Finite<'_>>,
        period: usize,
        post_mean: f64,
    ) -> Result<bool> {
        let magnitude = regression.magnitude();
        // Threshold = coefficient × MAD(historic) × 1.4826 (§5.2.2).
        let regression_threshold = || -> Result<f64> {
            Ok(self.regression_coefficient
                * descriptive::mad_finite(historic)?
                * descriptive::MAD_NORMALITY_CONSTANT)
        };
        Ok(match mann_kendall_finite(post, 0.05)?.direction {
            TrendDirection::Decreasing => {
                // A recovery trend: the regression is lasting only if the
                // projected recovery is small relative to the shift — and a
                // projected recovery must be corroborated by the final level
                // actually approaching the baseline (a seasonal downswing
                // projects a recovery that never materializes). The level is
                // the cheaper half, so it is asked first.
                let corroboration_len = (post.len() / 10).max(5).max(period).min(post.len());
                let level_tail =
                    descriptive::mean_finite(post.slice(post.len() - corroboration_len..))?;
                let level_recovered = level_tail < regression.mean_before + 0.5 * magnitude;
                !(level_recovered
                    && theil_sen_slope(post)?.abs() * post.len() as f64 >= 0.5 * magnitude.abs())
            }
            TrendDirection::Increasing => {
                // Still rising. Use the lower of the two window slopes "to
                // avoid over- or under-estimation" and require the total
                // rise to clear the MAD threshold.
                let slope_post = theil_sen_slope(post)?;
                let slope_analysis = match analysis_window {
                    Some(w) if mann_kendall_finite(w, 0.05)?.direction
                        == TrendDirection::Increasing =>
                    {
                        theil_sen_slope(w)?
                    }
                    _ => slope_post,
                };
                let slope = slope_post.min(slope_analysis);
                slope * post.len() as f64 + magnitude >= regression_threshold()?
            }
            TrendDirection::None => {
                // A plateau at the new level: lasting when the level shift
                // itself clears the threshold.
                (post_mean - regression.mean_before) >= regression_threshold()?.min(magnitude * 0.5)
            }
        })
    }

    /// The predicate with every term computed before any is looked at — the
    /// pre-lazy implementation, kept as the oracle [`Self::evaluate`] is
    /// pinned against.
    #[cfg(test)]
    fn evaluate_eager(&self, regression: &Regression) -> Result<EagerVerdict> {
        use fbd_stats::acf;
        use fbd_stats::trend::{mann_kendall, theil_sen};
        let data = regression.windows.all();
        let historic = regression.windows.historic();
        let cp = regression.change_index.min(data.len().saturating_sub(1));
        let post: &[f64] = &data[(cp + 1).min(data.len())..];
        if post.len() < 4 || historic.len() < 4 {
            // Too little evidence to refute; keep the candidate.
            return Ok(EagerVerdict {
                new_pattern: false,
                significant: true,
                lasting: true,
                gone_away: false,
                keep: true,
            });
        }
        let magnitude = regression.magnitude();
        // §5.2: an *increase* means a regression (series are oriented
        // upstream). A non-positive shift is an improvement — filter it.
        if magnitude <= 0.0 {
            return Ok(EagerVerdict {
                new_pattern: false,
                significant: false,
                lasting: false,
                gone_away: true,
                keep: false,
            });
        }
        // SAX over the combined value range, with validity defined by the
        // historic window ("a letter is valid if its number of occurrences
        // exceeds a predefined threshold").
        let range_min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let range_max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let reference = encode_in_range(historic, range_min, range_max, self.sax)?;
        let post_sax = reference.encode_with_same_buckets(post)?;

        // --- NewPattern ---
        let post_mean = descriptive::mean(post)?;
        let lowest_valid_edge = reference
            .smallest_valid_symbol()
            .map(|s| range_min + s as f64 * reference.bucket_width());
        let new_pattern = post_sax.invalid_fraction() > self.new_pattern_fraction
            && lowest_valid_edge.is_none_or(|edge| post_mean >= edge);

        // --- SignificantRegression ---
        // Largest post letter vs. largest valid historic letter.
        let analysis_end = historic.len() + regression.windows.analysis_len();
        let post_analysis: &[f64] =
            &data[(cp + 1).min(data.len())..analysis_end.min(data.len())];
        let post_analysis_sax = if post_analysis.is_empty() {
            post_sax.clone()
        } else {
            reference.encode_with_same_buckets(post_analysis)?
        };
        let letter_ok = match reference.largest_valid_symbol() {
            Some(largest_valid) => post_analysis_sax.largest_symbol() >= largest_valid,
            None => true,
        };
        // P90(post) must exceed P95(historic) and P90 of the previous
        // period (the tail of the historic window, one post-length long).
        let p90_post = descriptive::percentile(post, 90.0)?;
        let p95_hist = descriptive::percentile(historic, 95.0)?;
        let prev_len = post.len().min(historic.len());
        let prev_slice = &historic[historic.len() - prev_len..];
        let p90_prev = descriptive::percentile(prev_slice, 90.0)?;
        let significant = letter_ok && p90_post > p95_hist && p90_post > p90_prev;

        // Seasonal period, if any: trend and tail checks must not mistake
        // a diurnal trough for a recovery.
        let max_lag = self.max_seasonal_period.min(post.len() / 2);
        let period = acf::find_seasonality(data, 2, max_lag, self.seasonality_acf_threshold)
            .unwrap_or(None)
            .map(|s| s.period)
            .unwrap_or(0);
        // --- LastingTrend ---
        // Threshold = coefficient × MAD(historic) × 1.4826 (§5.2.2).
        let regression_threshold = self.regression_coefficient
            * descriptive::mad(historic)?
            * descriptive::MAD_NORMALITY_CONSTANT;
        let mk_post = mann_kendall(post, 0.05)?;
        let analysis_window: &[f64] = &data[historic.len()..analysis_end.min(data.len())];
        let mk_analysis = if analysis_window.len() >= 4 {
            mann_kendall(analysis_window, 0.05)?.direction
        } else {
            TrendDirection::None
        };
        let lasting = match mk_post.direction {
            TrendDirection::Decreasing => {
                // A recovery trend: the regression is lasting only if the
                // projected recovery is small relative to the shift — and a
                // projected recovery must be corroborated by the final level
                // actually approaching the baseline (a seasonal downswing
                // projects a recovery that never materializes).
                let slope = theil_sen(post)?.slope;
                let projected_recovery = slope.abs() * post.len() as f64;
                let corroboration_len = (post.len() / 10).max(5).max(period).min(post.len());
                let level_tail = descriptive::mean(&post[post.len() - corroboration_len..])?;
                let level_recovered = level_tail < regression.mean_before + 0.5 * magnitude;
                !(projected_recovery >= 0.5 * magnitude.abs() && level_recovered)
            }
            TrendDirection::Increasing => {
                // Still rising. Use the lower of the two window slopes "to
                // avoid over- or under-estimation" and require the total
                // rise to clear the MAD threshold.
                let slope_post = theil_sen(post)?.slope;
                let slope_analysis = if mk_analysis == TrendDirection::Increasing {
                    theil_sen(analysis_window)?.slope
                } else {
                    slope_post
                };
                let slope = slope_post.min(slope_analysis);
                slope * post.len() as f64 + magnitude >= regression_threshold
            }
            TrendDirection::None => {
                // A plateau at the new level: lasting when the level shift
                // itself clears the threshold.
                (post_mean - regression.mean_before) >= regression_threshold.min(magnitude * 0.5)
            }
        };

        // --- RegressionGoneAway ---
        // Final sanity check on the last few data points. With seasonality
        // present, the tail must span one full period so a trough alone
        // cannot read as a recovery.
        let tail_len = (post.len() / 10).max(5).max(period).min(post.len());
        let tail = &post[post.len() - tail_len..];
        let tail_mean = descriptive::mean(tail)?;
        let gone_away = tail_mean <= regression.mean_before + 0.25 * magnitude;

        // RegressionGoneAway is "the final sanity check": a series whose
        // last data points are back at the baseline is never reported, even
        // when its excursion formed a new pattern.
        let keep = (new_pattern || (significant && lasting)) && !gone_away;
        Ok(EagerVerdict {
            new_pattern,
            significant,
            lasting,
            gone_away,
            keep,
        })
    }
}

/// All four terms and the decision, as [`WentAwayDetector::evaluate_eager`]
/// computes them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EagerVerdict {
    new_pattern: bool,
    significant: bool,
    lasting: bool,
    gone_away: bool,
    keep: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

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

    fn regression(
        historic: Vec<f64>,
        analysis: Vec<f64>,
        extended: Vec<f64>,
        change_index: usize,
        mean_before: f64,
        mean_after: f64,
    ) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, "foo"),
            kind: RegressionKind::ShortTerm,
            change_index,
            change_time: 0,
            mean_before,
            mean_after,
            windows: WindowedData::from_regions(&historic, &analysis, &extended, 0, 100),
            root_cause_candidates: vec![],
        }
    }

    fn detector() -> WentAwayDetector {
        WentAwayDetector {
            sax: SaxConfig::default(),
            regression_coefficient: 1.5,
            new_pattern_fraction: 0.5,
            seasonality_acf_threshold: 0.4,
            max_seasonal_period: 26,
        }
    }

    #[test]
    fn persistent_step_is_kept() {
        let historic = noisy(300, 1.0, 0.1, 1);
        let mut analysis = noisy(30, 1.0, 0.1, 2);
        analysis.extend(noisy(70, 1.5, 0.1, 3));
        let extended = noisy(100, 1.5, 0.1, 4);
        let r = regression(historic, analysis, extended, 329, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep, "verdict = {v:?}");
        assert_eq!(v.gone_away, Some(false));
    }

    #[test]
    fn recovered_transient_is_filtered() {
        // Figure 1(c): a dip/spike that recovers inside the extended window.
        let historic = noisy(300, 1.0, 0.1, 1);
        let mut analysis = noisy(30, 1.0, 0.1, 2);
        analysis.extend(noisy(40, 1.6, 0.1, 3));
        let mut extended = noisy(30, 1.3, 0.1, 4);
        extended.extend(noisy(70, 1.0, 0.1, 5));
        let r = regression(historic, analysis, extended, 329, 1.0, 1.6);
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.keep, "verdict = {v:?}");
        assert_eq!(v.decided_by, DecidedBy::GoneAway);
        // The tail alone decided: nothing else was evaluated.
        assert_eq!(v.gone_away, Some(true));
        assert_eq!((v.new_pattern, v.significant, v.lasting), (None, None, None));
    }

    #[test]
    fn figure7_spike_in_history_does_not_mask_final_regression() {
        // A historical spike higher than the final regression level: the
        // spike's bucket is invalid (outlier), so the SAX letter test still
        // recognizes the final level as significant.
        let mut historic = noisy(280, 10.0, 0.3, 1);
        for v in historic[100..112].iter_mut() {
            *v += 4.0;
        }
        let mut analysis = noisy(30, 10.0, 0.3, 2);
        analysis.extend(noisy(70, 12.0, 0.3, 3));
        let extended = noisy(60, 12.0, 0.3, 4);
        let r = regression(historic, analysis, extended, 309, 10.0, 12.0);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep, "verdict = {v:?}");
    }

    #[test]
    fn new_pattern_triggers_on_unprecedented_level() {
        // Post values far above anything historical: most letters invalid.
        let historic = noisy(300, 1.0, 0.1, 1);
        let analysis = noisy(100, 3.0, 0.1, 2);
        let extended = noisy(50, 3.0, 0.1, 3);
        let r = regression(historic, analysis, extended, 299, 1.0, 3.0);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep);
        assert_eq!(v.decided_by, DecidedBy::NewPattern);
        assert_eq!(v.new_pattern, Some(true));
        assert_eq!((v.significant, v.lasting), (None, None));
    }

    #[test]
    fn new_low_pattern_is_not_a_regression() {
        // A new pattern BELOW the historical range is a cost drop, not a
        // regression ("unless the average value is lower than the lowest
        // valid bucket").
        let historic = noisy(300, 2.0, 0.1, 1);
        let analysis = noisy(100, 0.5, 0.05, 2);
        let extended = noisy(50, 0.5, 0.05, 3);
        let r = regression(historic, analysis, extended, 299, 2.0, 0.5);
        let v = detector().evaluate(&r).unwrap();
        // The downward shift exits before any term is evaluated.
        assert_eq!(v.decided_by, DecidedBy::Improvement, "verdict = {v:?}");
        assert_eq!(v.new_pattern, None);
        assert!(!v.keep);
    }

    #[test]
    fn recovering_trend_is_filtered() {
        // Post window trends steadily back toward the baseline.
        let historic = noisy(300, 1.0, 0.05, 1);
        let mut analysis = noisy(20, 1.0, 0.05, 2);
        analysis.extend((0..80).map(|i| 1.5 - 0.55 * i as f64 / 80.0));
        let extended: Vec<f64> = (0..50).map(|i| 0.95 + 0.001 * (i % 3) as f64).collect();
        let r = regression(historic, analysis, extended, 319, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.keep, "verdict = {v:?}");
    }

    #[test]
    fn short_post_window_is_kept_conservatively() {
        let historic = noisy(100, 1.0, 0.1, 1);
        let analysis = vec![1.5, 1.5];
        let r = regression(historic, analysis, vec![], 99, 1.0, 1.5);
        let v = detector().evaluate(&r).unwrap();
        assert!(v.keep);
        assert_eq!(v.decided_by, DecidedBy::TooShort);
    }

    #[test]
    fn tiny_shift_below_noise_is_filtered() {
        // A "regression" smaller than the noise floor: not significant.
        let historic = noisy(300, 1.0, 0.2, 1);
        let analysis = noisy(100, 1.005, 0.2, 7);
        let r = regression(historic, analysis, vec![], 299, 1.0, 1.005);
        let v = detector().evaluate(&r).unwrap();
        assert!(!v.keep, "verdict = {v:?}");
        assert!(
            matches!(v.decided_by, DecidedBy::GoneAway | DecidedBy::NotSignificant),
            "verdict = {v:?}"
        );
    }

    /// A candidate over a history noisy enough (0.5–1.5) that a shift to
    /// ~1.45 revisits valid SAX buckets: no new pattern, so the decision
    /// falls through to the significance and trend terms.
    fn shift_within_history(post: Vec<f64>) -> Regression {
        let mut analysis = noisy(20, 1.0, 1.0, 2);
        let extended = post[80..].to_vec();
        analysis.extend(&post[..80]);
        regression(noisy(300, 1.0, 1.0, 1), analysis, extended, 319, 1.0, 1.45)
    }

    /// A step to `after` at index 329 over a quiet history, with the
    /// extended window at `tail`.
    fn step(after: f64, tail: f64) -> Regression {
        let mut analysis = noisy(30, 1.0, 0.1, 2);
        analysis.extend(noisy(70, after, 0.1, 3));
        regression(noisy(300, 1.0, 0.1, 1), analysis, noisy(100, tail, 0.1, 4), 329, 1.0, after)
    }

    fn plateau() -> Regression {
        shift_within_history(noisy(130, 1.45, 0.4, 3))
    }

    fn sliding_back() -> Regression {
        let wobble = noisy(130, 0.0, 0.02, 3);
        shift_within_history((0..130).map(|i| 1.7 - 0.56 * i as f64 / 130.0 + wobble[i]).collect())
    }

    #[test]
    fn plateau_within_history_is_decided_by_the_trend() {
        let v = detector().evaluate(&plateau()).unwrap();
        assert_eq!(v.decided_by, DecidedBy::Lasting, "verdict = {v:?}");
        assert_eq!(
            (v.gone_away, v.new_pattern, v.significant, v.lasting),
            (Some(false), Some(false), Some(true), Some(true))
        );
        assert!(v.keep);
    }

    #[test]
    fn slide_back_above_the_gone_away_line_is_not_lasting() {
        // The tail is still above the gone-away line, but the level is
        // recovering and the slope projects the rest of the way.
        let v = detector().evaluate(&sliding_back()).unwrap();
        assert_eq!(v.decided_by, DecidedBy::NotLasting, "verdict = {v:?}");
        assert_eq!(v.lasting, Some(false));
        assert!(!v.keep);
    }

    #[test]
    fn stats_count_by_deciding_term() {
        let mut stats = WentAwayStats::default();
        stats.record(DecidedBy::GoneAway);
        stats.record(DecidedBy::GoneAway);
        stats.record(DecidedBy::Lasting);
        stats.replayed = 4;
        assert_eq!(stats.decided_by(DecidedBy::GoneAway), 2);
        let named = stats.named();
        assert_eq!(named[2], ("gone_away", 2));
        assert_eq!(named[5], ("lasting", 1));
        assert_eq!(named[7], ("replayed", 4));
        assert_eq!(named.iter().map(|(_, n)| n).sum::<u64>(), 7);
    }

    /// Compares the lazy verdict with the eager oracle: same decision, same
    /// error text, and every evaluated term equal to the oracle's. Returns
    /// the lazy verdict (`None` when both errored) or what differed.
    fn compare_with_oracle(
        d: &WentAwayDetector,
        r: &Regression,
    ) -> std::result::Result<Option<WentAwayVerdict>, String> {
        let (lazy, eager) = match (d.evaluate(r), d.evaluate_eager(r)) {
            (Ok(l), Ok(e)) => (l, e),
            (Err(l), Err(e)) if l.to_string() == e.to_string() => return Ok(None),
            (l, e) => return Err(format!("lazy = {l:?}, eager = {e:?}")),
        };
        let terms = [
            (lazy.gone_away, eager.gone_away),
            (lazy.new_pattern, eager.new_pattern),
            (lazy.significant, eager.significant),
            (lazy.lasting, eager.lasting),
        ];
        if lazy.keep != eager.keep || terms.iter().any(|(got, want)| got.is_some_and(|g| g != *want)) {
            return Err(format!("lazy = {lazy:?}, eager = {eager:?}"));
        }
        Ok(Some(lazy))
    }

    #[test]
    fn lazy_matches_oracle_on_every_exit() {
        // One hand-built candidate per exit, so every `DecidedBy` arm is
        // compared against the oracle at least once.
        let d = detector();
        let seen: Vec<DecidedBy> = [
            regression(noisy(100, 1.0, 0.1, 1), vec![1.5, 1.5], vec![], 99, 1.0, 1.5),
            step(0.5, 0.5),
            step(1.6, 1.0),
            step(3.0, 3.0),
            shift_within_history(noisy(130, 1.2, 0.4, 3)),
            plateau(),
            sliding_back(),
        ]
        .iter()
        .map(|r| compare_with_oracle(&d, r).unwrap().unwrap().decided_by)
        .collect();
        assert_eq!(seen, DecidedBy::ALL);
    }

    #[test]
    fn overflowing_mad_errors_before_any_exit() {
        // Finite samples whose spread overflows: the MAD is the one kernel
        // that errors on finite input, and only the last term asks for it.
        // The candidate would exit at GoneAway; the oracle's error wins.
        let historic: Vec<f64> =
            (0..300).map(|i| if i % 3 == 0 { -1.7e308 } else { 1.7e308 }).collect();
        let mut r = step(1.6, 1.0);
        r.windows = WindowedData::from_regions(&historic, r.windows.analysis(), r.windows.extended(), 0, 100);
        let d = detector();
        assert!(d.evaluate(&r).is_err());
        assert_eq!(compare_with_oracle(&d, &r), Ok(None));
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// Post-change shapes: persistent step, recovered transient, ramp
        /// part of the way back, ramp further up, seasonal swing, quantized (ties).
        fn shaped(shape: u8, n: usize, level: f64, seed: u64) -> Vec<f64> {
            let base = noisy(n, 0.0, 0.1, seed);
            (0..n)
                .map(|i| {
                    let x = i as f64 / n as f64;
                    let v = match shape % 6 {
                        0 => level,
                        1 => if x < 0.4 { level } else { 1.0 },
                        2 => level - 0.6 * (level - 1.0) * x,
                        3 => level + (level - 1.0) * x,
                        4 => level + 0.3 * (i as f64 / 12.0 * std::f64::consts::TAU).sin(),
                        _ => return ((level + base[i]) * 8.0).round() / 8.0,
                    };
                    v + base[i]
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn lazy_matches_eager(
                seed in 0u64..10_000,
                shape in 0u8..6,
                level in 0.9f64..3.5,
                hist_noise in 0.05f64..1.5,
                h_len in 3usize..320,
                a_len in 1usize..120,
                e_len in 0usize..120,
                cp_frac in 0.0f64..1.0,
                // Region to poison (historic / pre-change analysis /
                // post-change samples); 3.. leaves the candidate clean.
                poison_region in 0usize..9,
                poison_at in 0.0f64..1.0,
                poison_kind in 0usize..4,
            ) {
                let mut historic = noisy(h_len, 1.0, hist_noise, seed);
                let pre_len = ((a_len as f64 * cp_frac) as usize).min(a_len - 1) + 1;
                let mut analysis = noisy(pre_len, 1.0, 0.1, seed ^ 1);
                let mut post = shaped(shape, a_len - pre_len + e_len, level, seed ^ 2);
                let mut extended = post.split_off(a_len - pre_len);
                let target = match poison_region {
                    0 => Some(&mut historic),
                    1 => Some(&mut analysis),
                    2 if extended.is_empty() => Some(&mut post),
                    2 => Some(&mut extended),
                    _ => None,
                };
                if let Some(target) = target.filter(|t| !t.is_empty()) {
                    let i = ((target.len() as f64 * poison_at) as usize).min(target.len() - 1);
                    target[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e308][poison_kind];
                }
                analysis.extend(post);
                let mean_after = if shape == 1 { level * 0.4 + 0.6 } else { level };
                let r = regression(historic, analysis, extended, h_len + pre_len - 1, 1.0, mean_after);
                if let Err(diff) = compare_with_oracle(&detector(), &r) {
                    return Err(TestCaseError::fail(diff));
                }
            }
        }
    }
}
