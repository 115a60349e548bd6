//! Detection windows (Figure 4).
//!
//! FBDetect divides a series into three parts relative to the scan time:
//! the *historic window* (the comparison baseline), the *analysis window*
//! (where regressions are reported), and the *extended window* (used to
//! evaluate whether an observed regression persists or disappears). Each
//! workload configures its own window lengths and re-run interval (Table 1).

use crate::series::TimeSeries;
use crate::types::{DataPoint, Timestamp};
use crate::{Result, TsdbError};

/// Seconds in one hour.
pub const HOUR: u64 = 3_600;
/// Seconds in one day.
pub const DAY: u64 = 24 * HOUR;

/// Lengths of the three detection windows plus the re-run interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Baseline window length in seconds (Table 1 "Historical Window").
    pub historic: u64,
    /// Analysis window length in seconds.
    pub analysis: u64,
    /// Extended window length in seconds; zero disables it (Table 1 "N/A").
    pub extended: u64,
    /// How often the detector re-scans, in seconds.
    pub rerun_interval: u64,
}

impl WindowConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.historic == 0 {
            return Err(TsdbError::InvalidWindowConfig("historic window is zero"));
        }
        if self.analysis == 0 {
            return Err(TsdbError::InvalidWindowConfig("analysis window is zero"));
        }
        if self.rerun_interval == 0 {
            return Err(TsdbError::InvalidWindowConfig("re-run interval is zero"));
        }
        Ok(())
    }

    /// Total span covered by all windows.
    pub fn total_span(&self) -> u64 {
        self.historic + self.analysis + self.extended
    }
}

/// How completely each window was populated, relative to the series'
/// observed sample cadence.
///
/// Collectors drop samples, arrive late, or start mid-window; rather than
/// silently handing truncated windows to the detectors, window extraction
/// reports what fraction of the expected samples each window actually
/// holds. A fraction of `1.0` means the window is as dense as the series'
/// steady-state cadence predicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCoverage {
    /// Fraction of expected historic samples present, in `[0, 1]`.
    pub historic: f64,
    /// Fraction of expected analysis samples present, in `[0, 1]`.
    pub analysis: f64,
    /// Fraction of expected extended samples present, in `[0, 1]`;
    /// `1.0` when the extended window is disabled.
    pub extended: f64,
}

impl Default for WindowCoverage {
    /// Full coverage — the assumption before any gaps are observed.
    fn default() -> Self {
        WindowCoverage {
            historic: 1.0,
            analysis: 1.0,
            extended: 1.0,
        }
    }
}

impl WindowCoverage {
    /// Whether the historic or analysis window is sparser than
    /// `min_fraction`. The extended window is excluded: it ends at the scan
    /// time, so it is routinely mid-fill under ingestion lag.
    pub fn is_partial(&self, min_fraction: f64) -> bool {
        self.historic < min_fraction || self.analysis < min_fraction
    }

    /// The sparsest of the three window fractions.
    pub fn min_fraction(&self) -> f64 {
        self.historic.min(self.analysis).min(self.extended)
    }
}

/// Data extracted for one detection scan.
///
/// Window layout relative to the scan time `now` (Figure 4): the extended
/// window ends at `now`, preceded by the analysis window, preceded by the
/// historic window. When the extended window is disabled the analysis
/// window ends at `now`.
///
/// The three windows live in one contiguous buffer with region offsets, so
/// every accessor — including [`WindowedData::all`] and
/// [`WindowedData::analysis_and_extended`] — returns a borrowed slice
/// without copying. Detectors walk these regions on every series of every
/// scan; the old three-`Vec` layout re-concatenated them on each call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedData {
    /// Historic, analysis, then extended values, time-ordered, contiguous.
    values: Vec<f64>,
    /// Number of leading values belonging to the historic window.
    historic_len: usize,
    /// Number of values after the historic region belonging to the analysis
    /// window; the remainder of the buffer is the extended window.
    analysis_len: usize,
    /// Start of the analysis window.
    pub analysis_start: Timestamp,
    /// End of the analysis window.
    pub analysis_end: Timestamp,
    /// How completely each window was populated.
    pub coverage: WindowCoverage,
}

impl WindowedData {
    /// Builds windowed data from an already-concatenated buffer and region
    /// lengths. This is the zero-copy constructor extraction uses.
    ///
    /// Region lengths exceeding `values.len()` are clamped to the buffer
    /// (debug builds assert instead) so the region slices stay in bounds.
    pub fn from_parts(
        values: Vec<f64>,
        historic_len: usize,
        analysis_len: usize,
        analysis_start: Timestamp,
        analysis_end: Timestamp,
        coverage: WindowCoverage,
    ) -> Self {
        debug_assert!(
            historic_len + analysis_len <= values.len(),
            "window regions exceed the value buffer"
        );
        // Clamp defensively in release builds so a malformed split can
        // never push the region slices out of bounds.
        let historic_len = historic_len.min(values.len());
        let analysis_len = analysis_len.min(values.len() - historic_len);
        WindowedData {
            values,
            historic_len,
            analysis_len,
            analysis_start,
            analysis_end,
            coverage,
        }
    }

    /// Builds windowed data by concatenating three region slices. Convenience
    /// constructor for tests and synthetic fixtures; coverage defaults to
    /// full.
    pub fn from_regions(
        historic: &[f64],
        analysis: &[f64],
        extended: &[f64],
        analysis_start: Timestamp,
        analysis_end: Timestamp,
    ) -> Self {
        let mut values = Vec::with_capacity(historic.len() + analysis.len() + extended.len());
        values.extend_from_slice(historic);
        values.extend_from_slice(analysis);
        values.extend_from_slice(extended);
        WindowedData {
            values,
            historic_len: historic.len(),
            analysis_len: analysis.len(),
            analysis_start,
            analysis_end,
            coverage: WindowCoverage::default(),
        }
    }

    /// Values in the historic window, time-ordered.
    pub fn historic(&self) -> &[f64] {
        &self.values[..self.historic_len]
    }

    /// Values in the analysis window, time-ordered.
    pub fn analysis(&self) -> &[f64] {
        &self.values[self.historic_len..self.historic_len + self.analysis_len]
    }

    /// Values in the extended window (empty when disabled).
    pub fn extended(&self) -> &[f64] {
        &self.values[self.historic_len + self.analysis_len..]
    }

    /// Number of samples in the historic window.
    pub fn historic_len(&self) -> usize {
        self.historic_len
    }

    /// Number of samples in the analysis window.
    pub fn analysis_len(&self) -> usize {
        self.analysis_len
    }

    /// Number of samples in the extended window.
    pub fn extended_len(&self) -> usize {
        self.values.len() - self.historic_len - self.analysis_len
    }

    /// Total number of samples across all three windows.
    pub fn total_len(&self) -> usize {
        self.values.len()
    }

    /// Analysis plus extended values, the "post-historic" region.
    pub fn analysis_and_extended(&self) -> &[f64] {
        &self.values[self.historic_len..]
    }

    /// Historic plus analysis plus extended — the whole scan region.
    pub fn all(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the whole buffer, for in-place value transforms
    /// (e.g. orienting throughput metrics so drops read as regressions).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consumes the windows, returning the contiguous value buffer
    /// (historic ++ analysis ++ extended) without copying.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Mutable view of the analysis region, for tests and fixtures.
    pub fn analysis_mut(&mut self) -> &mut [f64] {
        &mut self.values[self.historic_len..self.historic_len + self.analysis_len]
    }
}

/// Estimates the sample cadence over a time-ordered point slice as the
/// smallest positive gap between consecutive timestamps. Dropped samples
/// only widen gaps and duplicated timestamps produce zero gaps, so the
/// minimum positive gap is robust to both. Returns `None` when no two
/// distinct timestamps exist in the slice.
fn estimate_cadence(points: &[DataPoint]) -> Option<u64> {
    points
        .windows(2)
        // Wrapping: only a corrupt block decodes to out-of-order
        // timestamps, and it must not overflow.
        .map(|w| w[1].timestamp.wrapping_sub(w[0].timestamp))
        .filter(|&gap| gap > 0)
        .min()
}

/// Sub-slice of a time-ordered point slice with timestamps in `[start, end)`.
pub(crate) fn points_in(points: &[DataPoint], start: Timestamp, end: Timestamp) -> &[DataPoint] {
    if start >= end {
        return &[];
    }
    let lo = points.partition_point(|p| p.timestamp < start);
    let hi = points.partition_point(|p| p.timestamp < end);
    &points[lo..hi]
}

/// Bounds `[start, end)` of the point range a scan at `now` can read: the
/// three detection windows plus the cadence-estimation span. Snapshots copy
/// exactly this range out of a series so windowing can run lock-free.
pub fn snapshot_bounds(config: &WindowConfig, now: Timestamp) -> (Timestamp, Timestamp) {
    let extended_start = now.saturating_sub(config.extended);
    let analysis_start = extended_start.saturating_sub(config.analysis);
    let historic_start = analysis_start.saturating_sub(config.historic);
    (historic_start, now.max(historic_start + 1))
}

/// Coverage fraction: samples present vs. expected at the given cadence.
fn coverage_fraction(present: usize, window_seconds: u64, cadence: Option<u64>) -> f64 {
    if window_seconds == 0 {
        return 1.0;
    }
    let Some(cadence) = cadence else {
        // Cadence unknown (at most one distinct timestamp in the whole
        // region): coverage cannot be judged, so report only empty/non-empty.
        return if present == 0 { 0.0 } else { 1.0 };
    };
    let expected = (window_seconds as f64 / cadence as f64).max(1.0);
    (present as f64 / expected).min(1.0)
}

/// Coverage of the three detection windows for a scan at `now`, computed
/// from a time-ordered point slice without building window buffers. This is
/// the exact coverage [`windows_from_points_into`] attaches to its result;
/// the streaming engine reaches the same value without the timestamps
/// through [`window_coverage_from_counts`].
pub fn window_coverage(
    points: &[DataPoint],
    config: &WindowConfig,
    now: Timestamp,
) -> WindowCoverage {
    let extended_start = now.saturating_sub(config.extended);
    let analysis_end = extended_start;
    let analysis_start = analysis_end.saturating_sub(config.analysis);
    let historic_start = analysis_start.saturating_sub(config.historic);
    let historic = points_in(points, historic_start, analysis_start);
    let analysis = points_in(points, analysis_start, analysis_end);
    let extended = points_in(points, extended_start, now);
    let cadence = estimate_cadence(points_in(
        points,
        historic_start,
        now.max(historic_start + 1),
    ));
    window_coverage_from_counts(
        historic.len(),
        analysis.len(),
        extended.len(),
        cadence,
        config,
        now,
    )
}

/// [`window_coverage`] from precomputed region point counts and an
/// externally maintained cadence (the minimum positive timestamp gap over
/// the scan range). The streaming engine already knows every region's
/// point count from its partition bookkeeping and reads the minimum gap off
/// its timestamp runs ([`crate::TimeRuns::min_gap`]), so it produces the
/// coverage of fresh and replayed windows alike without rescanning the
/// window's timestamps. Bit-identical
/// to [`window_coverage`] given matching counts and cadence: both feed the
/// same `coverage_fraction`.
pub fn window_coverage_from_counts(
    historic_present: usize,
    analysis_present: usize,
    extended_present: usize,
    cadence: Option<u64>,
    config: &WindowConfig,
    now: Timestamp,
) -> WindowCoverage {
    let extended_start = now.saturating_sub(config.extended);
    let analysis_end = extended_start;
    let analysis_start = analysis_end.saturating_sub(config.analysis);
    let historic_start = analysis_start.saturating_sub(config.historic);
    WindowCoverage {
        historic: coverage_fraction(
            historic_present,
            analysis_start.saturating_sub(historic_start),
            cadence,
        ),
        analysis: coverage_fraction(
            analysis_present,
            analysis_end.saturating_sub(analysis_start),
            cadence,
        ),
        extended: if config.extended == 0 {
            1.0
        } else {
            coverage_fraction(extended_present, now.saturating_sub(extended_start), cadence)
        },
    }
}

/// Extracts the three windows from `series` for a scan at time `now`.
///
/// Returns an error only when the historic or analysis window holds *no*
/// data at all (there is nothing to detect on); an empty extended window is
/// allowed (it may simply not have elapsed). Sparse windows — collectors
/// dropping samples, late-arriving data, series that start mid-window — are
/// returned with explicit [`WindowCoverage`] instead of being silently
/// truncated, so callers can decide how much missing data they tolerate.
pub fn extract_windows(
    series: &TimeSeries,
    config: &WindowConfig,
    now: Timestamp,
) -> Result<WindowedData> {
    // Decode only the scan range. `windows_from_points` ignores
    // out-of-range points anyway, so trimming here changes nothing but the
    // amount of decoding.
    let (start, end) = snapshot_bounds(config, now);
    let points = series.range_to_vec(start, end);
    windows_from_points(&points, config, now)
}

/// Extracts detection windows from an already-copied, time-ordered point
/// slice — the lock-free half of a snapshot scan. Semantics are identical to
/// [`extract_windows`]; points outside the scan region are ignored.
pub fn windows_from_points(
    points: &[DataPoint],
    config: &WindowConfig,
    now: Timestamp,
) -> Result<WindowedData> {
    windows_from_points_into(points, config, now, Vec::new())
}

/// [`windows_from_points`] with a caller-provided value buffer, so a
/// steady-state scan loop can reuse one allocation per series across rounds.
/// The buffer is cleared before use; its capacity is preserved.
// fbd-lint::hot
pub fn windows_from_points_into(
    points: &[DataPoint],
    config: &WindowConfig,
    now: Timestamp,
    mut values: Vec<f64>,
) -> Result<WindowedData> {
    config.validate()?;
    let extended_start = now.saturating_sub(config.extended);
    let analysis_end = extended_start;
    let analysis_start = analysis_end.saturating_sub(config.analysis);
    let historic_start = analysis_start.saturating_sub(config.historic);
    // Borrow each region directly from the slice (binary search, no copy)
    // and fill a single contiguous buffer in one pass.
    let historic = points_in(points, historic_start, analysis_start);
    let analysis = points_in(points, analysis_start, analysis_end);
    let extended = points_in(points, extended_start, now);
    if historic.is_empty() {
        return Err(TsdbError::EmptyWindow("historic"));
    }
    if analysis.is_empty() {
        return Err(TsdbError::EmptyWindow("analysis"));
    }
    values.clear();
    values.reserve(historic.len() + analysis.len() + extended.len());
    values.extend(historic.iter().map(|p| p.value));
    values.extend(analysis.iter().map(|p| p.value));
    values.extend(extended.iter().map(|p| p.value));
    Ok(WindowedData::from_parts(
        values,
        historic.len(),
        analysis.len(),
        analysis_start,
        analysis_end,
        window_coverage(points, config, now),
    ))
}

/// Table 1 window configurations, for convenience in tests and benches.
pub mod presets {
    use super::{WindowConfig, DAY, HOUR};

    /// FrontFaaS large-regression configuration (3% threshold).
    pub const FRONTFAAS_LARGE: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 3 * HOUR,
        extended: 0,
        rerun_interval: 30 * 60,
    };
    /// FrontFaaS small-regression configuration (0.005% threshold).
    pub const FRONTFAAS_SMALL: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 4 * HOUR,
        extended: 6 * HOUR,
        rerun_interval: 2 * HOUR,
    };
    /// PythonFaaS large-regression configuration.
    pub const PYTHONFAAS_LARGE: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 6 * HOUR,
        extended: 0,
        rerun_interval: HOUR,
    };
    /// PythonFaaS small-regression configuration.
    pub const PYTHONFAAS_SMALL: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 6 * HOUR,
        extended: 6 * HOUR,
        rerun_interval: 4 * HOUR,
    };
    /// TAO (FrontFaaS traffic) configuration.
    pub const TAO_FRONTFAAS: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 4 * HOUR,
        extended: DAY,
        rerun_interval: 2 * HOUR,
    };
    /// TAO (non-FrontFaaS traffic) configuration.
    pub const TAO_OTHER: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: DAY,
        extended: 6 * HOUR,
        rerun_interval: HOUR,
    };
    /// AdServing short configuration.
    pub const ADSERVING_SHORT: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: DAY,
        extended: 12 * HOUR,
        rerun_interval: 6 * HOUR,
    };
    /// AdServing long configuration.
    pub const ADSERVING_LONG: WindowConfig = WindowConfig {
        historic: 16 * DAY,
        analysis: 9 * DAY,
        extended: 0,
        rerun_interval: DAY,
    };
    /// Invoicer configuration (small service, long windows).
    pub const INVOICER: WindowConfig = WindowConfig {
        historic: 14 * DAY,
        analysis: DAY,
        extended: DAY,
        rerun_interval: 12 * HOUR,
    };
    /// Capacity-Triage supply-side short configuration.
    pub const CT_SUPPLY_SHORT: WindowConfig = WindowConfig {
        historic: 7 * DAY,
        analysis: DAY,
        extended: DAY,
        rerun_interval: 12 * HOUR,
    };
    /// Capacity-Triage supply-side long configuration.
    pub const CT_SUPPLY_LONG: WindowConfig = WindowConfig {
        historic: 10 * DAY,
        analysis: 7 * DAY,
        extended: DAY,
        rerun_interval: 12 * HOUR,
    };
    /// Capacity-Triage demand-side configuration.
    pub const CT_DEMAND: WindowConfig = WindowConfig {
        historic: 7 * DAY,
        analysis: DAY,
        extended: 0,
        rerun_interval: 12 * HOUR,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_covering(total_seconds: u64, interval: u64) -> TimeSeries {
        let n = (total_seconds / interval) as usize;
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        TimeSeries::from_values(0, interval, &values)
    }

    #[test]
    fn windows_partition_the_scan_region() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        let s = series_covering(200, 1);
        let w = extract_windows(&s, &cfg, 200).unwrap();
        assert_eq!(w.historic_len(), 100);
        assert_eq!(w.analysis_len(), 50);
        assert_eq!(w.extended_len(), 25);
        // Historic ends where analysis begins; analysis ends where extended
        // begins.
        assert_eq!((w.historic().last().unwrap() + 1.0).to_bits(), w.analysis()[0].to_bits());
        assert_eq!((w.analysis().last().unwrap() + 1.0).to_bits(), w.extended()[0].to_bits());
        assert_eq!(w.analysis_start, 125);
        assert_eq!(w.analysis_end, 175);
    }

    #[test]
    fn disabled_extended_window_is_empty() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let s = series_covering(200, 1);
        let w = extract_windows(&s, &cfg, 150).unwrap();
        assert!(w.extended().is_empty());
        assert_eq!(w.analysis_end, 150);
    }

    #[test]
    fn empty_analysis_window_errors() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        // The series ends long before the analysis window.
        let s = series_covering(40, 1);
        let err = extract_windows(&s, &cfg, 150).unwrap_err();
        assert_eq!(err, TsdbError::EmptyWindow("analysis"));
    }

    #[test]
    fn empty_historic_window_errors() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        // Data exists only inside the analysis region.
        let s = TimeSeries::from_values(110, 1, &[1.0; 30]);
        let err = extract_windows(&s, &cfg, 150).unwrap_err();
        assert_eq!(err, TsdbError::EmptyWindow("historic"));
    }

    #[test]
    fn zero_window_config_rejected() {
        let bad = WindowConfig {
            historic: 0,
            analysis: 10,
            extended: 0,
            rerun_interval: 10,
        };
        assert!(bad.validate().is_err());
        let s = series_covering(100, 1);
        assert!(extract_windows(&s, &bad, 100).is_err());
    }

    #[test]
    fn presets_are_valid_and_match_table1() {
        use presets::*;
        for cfg in [
            FRONTFAAS_LARGE,
            FRONTFAAS_SMALL,
            PYTHONFAAS_LARGE,
            PYTHONFAAS_SMALL,
            TAO_FRONTFAAS,
            TAO_OTHER,
            ADSERVING_SHORT,
            ADSERVING_LONG,
            INVOICER,
            CT_SUPPLY_SHORT,
            CT_SUPPLY_LONG,
            CT_DEMAND,
        ] {
            cfg.validate().unwrap();
        }
        assert_eq!(FRONTFAAS_SMALL.historic, 10 * DAY);
        assert_eq!(FRONTFAAS_SMALL.analysis, 4 * HOUR);
        assert_eq!(FRONTFAAS_SMALL.extended, 6 * HOUR);
        assert_eq!(INVOICER.historic, 14 * DAY);
        assert_eq!(ADSERVING_LONG.analysis, 9 * DAY);
    }

    #[test]
    fn full_windows_report_full_coverage() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        let s = series_covering(200, 1);
        let w = extract_windows(&s, &cfg, 200).unwrap();
        assert_eq!(w.coverage, WindowCoverage::default());
        assert!(!w.coverage.is_partial(0.9));
        assert_eq!(w.coverage.min_fraction().to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn dropped_samples_lower_coverage() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        // 1 Hz cadence, but half the analysis window's samples are missing.
        let pairs = (0..100)
            .map(|t| (t, 1.0))
            .chain((100..150).filter(|t| t % 2 == 0).map(|t| (t, 1.0)));
        let s = TimeSeries::from_pairs(pairs).unwrap();
        let w = extract_windows(&s, &cfg, 150).unwrap();
        assert!((w.coverage.historic - 1.0).abs() < 1e-9);
        assert!((w.coverage.analysis - 0.5).abs() < 1e-9);
        assert!(w.coverage.is_partial(0.8));
        assert!(!w.coverage.is_partial(0.4));
    }

    #[test]
    fn young_series_reports_partial_historic() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        // The series starts three quarters into the historic window.
        let s = TimeSeries::from_values(75, 1, &[1.0; 75]);
        let w = extract_windows(&s, &cfg, 150).unwrap();
        assert!((w.coverage.historic - 0.25).abs() < 1e-9);
        assert!((w.coverage.analysis - 1.0).abs() < 1e-9);
        assert!(w.coverage.is_partial(0.5));
    }

    #[test]
    fn late_extended_window_reports_low_coverage() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 50,
            rerun_interval: 10,
        };
        // No data has arrived for the extended window yet.
        let s = series_covering(150, 1);
        let w = extract_windows(&s, &cfg, 200).unwrap();
        assert_eq!(w.coverage.extended.to_bits(), 0.0_f64.to_bits());
        // is_partial ignores the extended window (routinely mid-fill).
        assert!(!w.coverage.is_partial(0.9));
        assert_eq!(w.coverage.min_fraction().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn duplicated_timestamps_do_not_inflate_coverage() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let pairs = (0..150).flat_map(|t| [(t, 1.0), (t, 1.0)]);
        let s = TimeSeries::from_pairs(pairs).unwrap();
        let w = extract_windows(&s, &cfg, 150).unwrap();
        assert_eq!(w.coverage.historic.to_bits(), 1.0_f64.to_bits());
        assert_eq!(w.coverage.analysis.to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn windows_from_points_matches_extract_windows() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        // Irregular cadence with gaps and duplicate timestamps.
        let pairs = (0..200u64)
            .filter(|t| t % 7 != 3)
            .flat_map(|t| if t % 31 == 0 { vec![(t, 1.0), (t, 2.0)] } else { vec![(t, t as f64)] });
        let s = TimeSeries::from_pairs(pairs).unwrap();
        for now in [60, 150, 199, 240] {
            let via_series = extract_windows(&s, &cfg, now);
            let via_points = windows_from_points(&s.points(), &cfg, now);
            assert_eq!(via_series, via_points, "now = {now}");
        }
    }

    #[test]
    fn windows_from_points_ignores_out_of_range_points() {
        let cfg = WindowConfig {
            historic: 50,
            analysis: 25,
            extended: 0,
            rerun_interval: 5,
        };
        let s = series_covering(300, 1);
        let now = 200;
        let (start, end) = snapshot_bounds(&cfg, now);
        assert_eq!((start, end), (125, 200));
        let full = extract_windows(&s, &cfg, now).unwrap();
        // Only the snapshot range is needed; extra points around it are
        // ignored by the boundary partitioning.
        let trimmed: Vec<DataPoint> = s
            .points()
            .iter()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .copied()
            .collect();
        assert_eq!(windows_from_points(&trimmed, &cfg, now).unwrap(), full);
    }

    #[test]
    fn windows_from_points_into_reuses_buffer() {
        let cfg = WindowConfig {
            historic: 20,
            analysis: 10,
            extended: 0,
            rerun_interval: 5,
        };
        let s = series_covering(40, 1);
        let buf = Vec::with_capacity(1024);
        let w = windows_from_points_into(&s.points(), &cfg, 40, buf).unwrap();
        assert_eq!(w.total_len(), 30);
        let recovered = w.into_values();
        assert!(recovered.capacity() >= 1024);
    }

    #[test]
    fn snapshot_bounds_saturate_near_zero() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        assert_eq!(snapshot_bounds(&cfg, 60), (0, 60));
        assert_eq!(snapshot_bounds(&cfg, 0), (0, 1));
        assert_eq!(snapshot_bounds(&cfg, 500), (325, 500));
    }

    #[test]
    fn coverage_from_counts_matches_rescan_on_sparse_data() {
        // The streaming engine feeds region counts from its partitions and
        // a min-gap from its timestamp runs into
        // `window_coverage_from_counts`; over sparse, bursty, and
        // duplicate-timestamp data the verdict must be bit-identical to the
        // timestamp-rescanning `window_coverage`.
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        let cases: Vec<Vec<DataPoint>> = vec![
            // Regular cadence with a hole across the analysis window.
            (0..200u64)
                .filter(|t| !(130..150).contains(t))
                .map(|t| DataPoint {
                    timestamp: t,
                    value: 1.0,
                })
                .collect(),
            // Sparse cadence-5 samples plus duplicate timestamps.
            (0..40u64)
                .flat_map(|i| {
                    let t = i * 5;
                    [
                        DataPoint {
                            timestamp: t,
                            value: 1.0,
                        },
                        DataPoint {
                            timestamp: t,
                            value: 2.0,
                        },
                    ]
                })
                .collect(),
            // A single burst entirely inside the extended window.
            (180..200u64)
                .map(|t| DataPoint {
                    timestamp: t,
                    value: 1.0,
                })
                .collect(),
            // One lonely point: cadence is unknowable.
            vec![DataPoint {
                timestamp: 160,
                value: 1.0,
            }],
        ];
        for (i, points) in cases.iter().enumerate() {
            let rescan = window_coverage(points, &cfg, 200);
            let (start, cad_end) = snapshot_bounds(&cfg, 200);
            let historic = points_in(points, start, 125).len();
            let analysis = points_in(points, 125, 175).len();
            let extended = points_in(points, 175, 200).len();
            let cadence = estimate_cadence(points_in(points, start, cad_end));
            let counted =
                window_coverage_from_counts(historic, analysis, extended, cadence, &cfg, 200);
            assert_eq!(
                rescan.historic.to_bits(),
                counted.historic.to_bits(),
                "case {i} historic"
            );
            assert_eq!(
                rescan.analysis.to_bits(),
                counted.analysis.to_bits(),
                "case {i} analysis"
            );
            assert_eq!(
                rescan.extended.to_bits(),
                counted.extended.to_bits(),
                "case {i} extended"
            );
        }
    }

    #[test]
    fn analysis_and_extended_concatenates() {
        let cfg = WindowConfig {
            historic: 10,
            analysis: 5,
            extended: 5,
            rerun_interval: 1,
        };
        let s = series_covering(20, 1);
        let w = extract_windows(&s, &cfg, 20).unwrap();
        let both = w.analysis_and_extended();
        assert_eq!(both.len(), 10);
        assert_eq!(w.all().len(), 20);
    }
}
