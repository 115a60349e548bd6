//! Detector configuration (Table 1).
//!
//! Each workload runs FBDetect with its own detection threshold, re-run
//! interval, and window lengths; a threshold may be absolute ("an increase
//! of gCPU from 1% to 1.1% is a 0.1% absolute change") or relative ("a 10%
//! relative change"). The presets mirror Table 1 row for row.

use crate::dedup::pairwise_dedup::MergeRule;
use crate::{DetectError, Result};
use fbd_stats::sax::SaxConfig;
use fbd_tsdb::window::presets as window_presets;
use fbd_tsdb::WindowConfig;

/// A detection threshold, absolute or relative (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Minimum absolute mean shift (e.g. `0.00005` = 0.005% gCPU).
    Absolute(f64),
    /// Minimum relative change (e.g. `0.05` = 5%).
    Relative(f64),
}

impl Threshold {
    /// Whether a shift from `before` to `after` meets the threshold.
    pub fn is_met(&self, before: f64, after: f64) -> bool {
        match *self {
            Threshold::Absolute(t) => (after - before) >= t,
            // fbd-lint::allow(float-eq): exact-zero guard before division; a NaN
            // baseline falls through and fails the >= comparison below
            Threshold::Relative(t) => before != 0.0 && (after - before) / before.abs() >= t,
        }
    }

    /// Whether no shift from a baseline of at least `baseline_lb` to a
    /// current value of at most `current_ub` can meet the threshold — the
    /// refutation rule behind the long-term pre-filter. `is_met` is
    /// monotone (decreasing in the baseline, increasing in the current
    /// value) for absolute thresholds always, and for relative thresholds
    /// only when the baseline bound is positive and the threshold
    /// non-negative — exactly the cases where refuting the optimistic pair
    /// refutes every pair in the box. Any other case, and any non-finite
    /// bound, refutes nothing.
    pub(crate) fn refuted_by(&self, baseline_lb: f64, current_ub: f64) -> bool {
        let monotone_safe = match *self {
            Threshold::Absolute(_) => true,
            Threshold::Relative(t) => t >= 0.0 && baseline_lb > 0.0,
        };
        baseline_lb.is_finite()
            && current_ub.is_finite()
            && monotone_safe
            && !self.is_met(baseline_lb, current_ub)
    }

    /// The threshold expressed in absolute units for a given baseline.
    pub fn absolute_for(&self, baseline: f64) -> f64 {
        match *self {
            Threshold::Absolute(t) => t,
            Threshold::Relative(t) => t * baseline.abs(),
        }
    }
}

/// Full configuration of one detection pipeline instance.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Workload name (reporting only).
    pub name: String,
    /// Detection windows and re-run interval.
    pub windows: WindowConfig,
    /// Detection threshold.
    pub threshold: Threshold,
    /// Significance level for the likelihood-ratio test (paper: 0.01).
    pub significance: f64,
    /// CUSUM+EM iteration budget (§5.2.1).
    pub max_em_iterations: usize,
    /// SAX configuration for the went-away detector (paper: N=20, X=3%).
    pub sax: SaxConfig,
    /// Regression coefficient for the went-away trend threshold
    /// (paper default: 1.5).
    pub regression_coefficient: f64,
    /// Fraction of invalid letters for the NewPattern term ("most letters").
    pub new_pattern_fraction: f64,
    /// ACF threshold for declaring seasonality present (§5.2.3).
    pub seasonality_acf_threshold: f64,
    /// Pseudo z-score threshold under which a regression is attributed to
    /// seasonality (§5.2.3).
    pub seasonality_z_threshold: f64,
    /// Maximum seasonal period searched, in samples.
    pub max_seasonal_period: usize,
    /// RMSE threshold below which a long-term trend counts as gradual
    /// (§5.3), relative to the trend's own standard deviation.
    pub long_term_rmse_fraction: f64,
    /// Whether the long-term path runs at all (PythonFaaS skips it,
    /// Table 3).
    pub long_term_enabled: bool,
    /// Domain-to-regression cost ratio above which a cost domain is
    /// excluded from cost-shift analysis (§5.4 second rule).
    pub cost_domain_exclusion_ratio: f64,
    /// Fraction of the regression's change under which the domain's change
    /// counts as "negligible" (§5.4 third rule).
    pub cost_shift_negligible_fraction: f64,
    /// PairwiseDedup minimum Pearson correlation for merging.
    pub pairwise_min_correlation: f64,
    /// PairwiseDedup minimum metric-ID cosine similarity for merging.
    pub pairwise_min_text_similarity: f64,
    /// Full override of the PairwiseDedup merge rule (§5.5.2's user-defined
    /// rules). `None` uses the default: correlation AND text similarity at
    /// the two thresholds above.
    pub pairwise_rule: Option<MergeRule>,
    /// `ImportanceScore` weights `w1..w4` (§5.5.1; defaults
    /// 0.2/0.6/0.1/0.1).
    pub importance_weights: [f64; 4],
    /// Minimum aggregate root-cause score before candidates are suggested
    /// (§6.3: FBDetect only suggests when confidence is high).
    pub rca_confidence_threshold: f64,
    /// How far before the change point to search for candidate changes, in
    /// seconds.
    pub rca_lookback: u64,
}

impl DetectorConfig {
    /// Builds a configuration from a window preset and threshold, with
    /// paper-default algorithm parameters.
    pub fn new(name: impl Into<String>, windows: WindowConfig, threshold: Threshold) -> Self {
        DetectorConfig {
            name: name.into(),
            windows,
            threshold,
            significance: 0.01,
            max_em_iterations: 50,
            sax: SaxConfig::default(),
            regression_coefficient: 1.5,
            new_pattern_fraction: 0.5,
            seasonality_acf_threshold: 0.4,
            seasonality_z_threshold: 2.0,
            max_seasonal_period: 26,
            // A pure step, z-normalized, has a best-line RMSE of 0.5; the
            // gradual/sudden cut must sit below that.
            long_term_rmse_fraction: 0.35,
            long_term_enabled: true,
            cost_domain_exclusion_ratio: 100.0,
            cost_shift_negligible_fraction: 0.25,
            pairwise_min_correlation: 0.8,
            pairwise_min_text_similarity: 0.6,
            pairwise_rule: None,
            importance_weights: [0.2, 0.6, 0.1, 0.1],
            rca_confidence_threshold: 0.35,
            rca_lookback: 6 * 3_600,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        self.windows
            .validate()
            .map_err(|_| DetectError::InvalidConfig("invalid windows"))?;
        if !(self.significance > 0.0 && self.significance < 1.0) {
            return Err(DetectError::InvalidConfig("significance must be in (0,1)"));
        }
        if self.max_em_iterations == 0 {
            return Err(DetectError::InvalidConfig("EM iterations must be positive"));
        }
        if !(0.0..=1.0).contains(&self.new_pattern_fraction) {
            return Err(DetectError::InvalidConfig(
                "new_pattern_fraction must be in [0,1]",
            ));
        }
        Ok(())
    }
}

/// Table 1 presets, row for row.
pub mod presets {
    use super::*;

    /// FrontFaaS (large): 3% absolute, 30-minute re-run.
    pub fn frontfaas_large() -> DetectorConfig {
        DetectorConfig::new(
            "FrontFaaS (large)",
            window_presets::FRONTFAAS_LARGE,
            Threshold::Absolute(0.03),
        )
    }

    /// FrontFaaS (small): 0.005% absolute, 2-hour re-run.
    pub fn frontfaas_small() -> DetectorConfig {
        DetectorConfig::new(
            "FrontFaaS (small)",
            window_presets::FRONTFAAS_SMALL,
            Threshold::Absolute(0.00005),
        )
    }

    /// PythonFaaS (large): 0.5% absolute. The long-term path is skipped
    /// (Table 3).
    pub fn pythonfaas_large() -> DetectorConfig {
        let mut c = DetectorConfig::new(
            "PythonFaaS (large)",
            window_presets::PYTHONFAAS_LARGE,
            Threshold::Absolute(0.005),
        );
        c.long_term_enabled = false;
        c
    }

    /// PythonFaaS (small): 0.03% absolute; long-term path skipped.
    pub fn pythonfaas_small() -> DetectorConfig {
        let mut c = DetectorConfig::new(
            "PythonFaaS (small)",
            window_presets::PYTHONFAAS_SMALL,
            Threshold::Absolute(0.0003),
        );
        c.long_term_enabled = false;
        c
    }

    /// TAO (FrontFaaS traffic): 0.05% absolute.
    pub fn tao_frontfaas() -> DetectorConfig {
        DetectorConfig::new(
            "TAO (FrontFaaS)",
            window_presets::TAO_FRONTFAAS,
            Threshold::Absolute(0.0005),
        )
    }

    /// TAO (non-FrontFaaS traffic): 0.05% absolute.
    pub fn tao_other() -> DetectorConfig {
        DetectorConfig::new(
            "TAO (non-FrontFaaS)",
            window_presets::TAO_OTHER,
            Threshold::Absolute(0.0005),
        )
    }

    /// AdServing (short): 0.2% absolute. Cost-shift analysis is skipped for
    /// AdServing (Table 3) — expressed by an exclusion ratio of zero, which
    /// excludes every domain.
    pub fn adserving_short() -> DetectorConfig {
        let mut c = DetectorConfig::new(
            "AdServing (short)",
            window_presets::ADSERVING_SHORT,
            Threshold::Absolute(0.002),
        );
        c.cost_domain_exclusion_ratio = 0.0;
        c
    }

    /// AdServing (long): 0.1% absolute; cost-shift analysis skipped.
    pub fn adserving_long() -> DetectorConfig {
        let mut c = DetectorConfig::new(
            "AdServing (long)",
            window_presets::ADSERVING_LONG,
            Threshold::Absolute(0.001),
        );
        c.cost_domain_exclusion_ratio = 0.0;
        c
    }

    /// Invoicer (short): 0.5% absolute on a 16-server service.
    pub fn invoicer() -> DetectorConfig {
        DetectorConfig::new(
            "Invoicer (short)",
            window_presets::INVOICER,
            Threshold::Absolute(0.005),
        )
    }

    /// CT-supply (short): 5% relative.
    pub fn ct_supply_short() -> DetectorConfig {
        DetectorConfig::new(
            "CT-supply (short)",
            window_presets::CT_SUPPLY_SHORT,
            Threshold::Relative(0.05),
        )
    }

    /// CT-supply (long): 5% relative.
    pub fn ct_supply_long() -> DetectorConfig {
        DetectorConfig::new(
            "CT-supply (long)",
            window_presets::CT_SUPPLY_LONG,
            Threshold::Relative(0.05),
        )
    }

    /// CT-demand: 5% relative.
    pub fn ct_demand() -> DetectorConfig {
        DetectorConfig::new(
            "CT-demand",
            window_presets::CT_DEMAND,
            Threshold::Relative(0.05),
        )
    }

    /// All twelve Table 1 rows.
    pub fn all() -> Vec<DetectorConfig> {
        vec![
            frontfaas_large(),
            frontfaas_small(),
            pythonfaas_large(),
            pythonfaas_small(),
            tao_frontfaas(),
            tao_other(),
            adserving_short(),
            adserving_long(),
            invoicer(),
            ct_supply_short(),
            ct_supply_long(),
            ct_demand(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_threshold() {
        let t = Threshold::Absolute(0.1);
        assert!(t.is_met(1.0, 1.1));
        assert!(!t.is_met(1.0, 1.05));
        assert_eq!(t.absolute_for(100.0).to_bits(), 0.1_f64.to_bits());
    }

    #[test]
    fn relative_threshold() {
        let t = Threshold::Relative(0.1);
        assert!(t.is_met(1.0, 1.1));
        assert!(!t.is_met(100.0, 101.0));
        assert!(!t.is_met(0.0, 1.0)); // No baseline, no relative change.
        assert_eq!(t.absolute_for(2.0).to_bits(), 0.2_f64.to_bits());
    }

    #[test]
    fn all_presets_validate() {
        for cfg in presets::all() {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
        assert_eq!(presets::all().len(), 12);
    }

    #[test]
    fn paper_parameter_defaults() {
        let c = presets::frontfaas_small();
        assert_eq!(c.significance.to_bits(), 0.01_f64.to_bits());
        assert_eq!(c.sax.buckets, 20);
        assert!((c.sax.validity_fraction - 0.03).abs() < 1e-12);
        assert_eq!(c.regression_coefficient.to_bits(), 1.5_f64.to_bits());
        assert_eq!(c.importance_weights.map(f64::to_bits), [0.2, 0.6, 0.1, 0.1].map(f64::to_bits));
        assert!(matches!(c.threshold, Threshold::Absolute(t) if (t - 0.00005).abs() < 1e-12));
    }

    #[test]
    fn workload_specific_flags() {
        assert!(!presets::pythonfaas_large().long_term_enabled);
        let ratio = presets::adserving_short().cost_domain_exclusion_ratio;
        assert_eq!(ratio.to_bits(), 0.0_f64.to_bits());
        assert!(matches!(
            presets::ct_demand().threshold,
            Threshold::Relative(_)
        ));
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = presets::frontfaas_large();
        c.significance = 0.0;
        assert!(c.validate().is_err());
        let mut c = presets::frontfaas_large();
        c.max_em_iterations = 0;
        assert!(c.validate().is_err());
    }
}
