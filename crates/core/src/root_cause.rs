//! Root cause analysis (§5.6).
//!
//! Given a regression, RCA generates candidates from the changes deployed
//! immediately before it, ranks them by weighted relevance factors, and
//! suggests the top three only when confidence is high enough:
//!
//! - **Subroutine gCPU attribution** — the fraction of the regression's
//!   gCPU change attributable to stack-trace samples involving subroutines
//!   the change modified (the Table 2 worked example);
//! - **Text similarity** — cosine similarity between the regression context
//!   (metric id, subroutine, stack frames) and the change context (title,
//!   summary, files);
//! - **Time-series correlation** — how well a step at the change's deploy
//!   time explains the regression series.

use crate::config::DetectorConfig;
use crate::types::Regression;
use crate::Result;
use fbd_changelog::{Change, ChangeId, ChangeLog};
use fbd_profiler::callgraph::{CallGraph, FrameId};
use fbd_profiler::sample::StackSample;
use fbd_stats::regression::pearson;
use fbd_stats::text::{cosine_similarity, weighted_word_vector, SparseVector};
use std::collections::BTreeMap;

/// Evidence available to RCA beyond the time series itself.
#[derive(Default)]
pub struct RcaContext<'a> {
    /// Stack samples collected before the change point.
    pub samples_before: &'a [StackSample],
    /// Stack samples collected after the change point.
    pub samples_after: &'a [StackSample],
    /// The service's call graph, for resolving subroutine names.
    pub graph: Option<&'a CallGraph>,
}

/// A ranked root-cause candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    /// The candidate change.
    pub change_id: ChangeId,
    /// Aggregate relevance score in `[0, 1]`.
    pub score: f64,
    /// Per-factor scores: `[gcpu_attribution, text, timing]`.
    pub factors: [f64; 3],
}

/// The root-cause analyzer.
#[derive(Debug, Clone)]
pub struct RootCauseAnalyzer {
    /// Factor weights for `[gcpu_attribution, text, timing]`.
    pub factor_weights: [f64; 3],
    /// Lookback before the change point, in seconds.
    pub lookback: u64,
    /// Minimum top score required before suggesting candidates.
    pub confidence_threshold: f64,
    /// How many candidates to suggest.
    pub top_k: usize,
}

impl RootCauseAnalyzer {
    /// Creates an analyzer from the pipeline configuration.
    pub fn from_config(config: &DetectorConfig) -> Self {
        RootCauseAnalyzer {
            factor_weights: [0.5, 0.25, 0.25],
            lookback: config.rca_lookback,
            confidence_threshold: config.rca_confidence_threshold,
            top_k: 3,
        }
    }

    /// Ranks candidate changes for a regression. Returns an empty list when
    /// no candidate clears the confidence threshold — the paper's behaviour
    /// of not suggesting weak root causes (§6.3).
    pub fn analyze(
        &self,
        regression: &Regression,
        log: &ChangeLog,
        context: &RcaContext<'_>,
    ) -> Result<Vec<RankedCandidate>> {
        let start = regression.change_time.saturating_sub(self.lookback);
        let candidates = log.deployed_between(start, regression.change_time + 1);
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        // Everything that depends on the regression alone is computed once
        // per report, not once per candidate change: its word vector, and
        // the timing factor of each distinct sample index a deploy lands on.
        let regression_vector = regression_word_vector(regression, context);
        let clock = SampleClock::of(regression);
        let mut timing_by_index: BTreeMap<usize, f64> = BTreeMap::new();
        let mut ranked = Vec::with_capacity(candidates.len());
        for change in candidates {
            let attribution = self.gcpu_attribution_factor(regression, change, context);
            let text = cosine_similarity(&regression_vector, &change_word_vector(change));
            let timing = clock.index_of(change.deploy_time).map_or(0.0, |index| {
                *timing_by_index
                    .entry(index)
                    .or_insert_with(|| step_correlation(regression.windows.all(), index))
            });
            let score = self.factor_weights[0] * attribution
                + self.factor_weights[1] * text
                + self.factor_weights[2] * timing;
            ranked.push(RankedCandidate {
                change_id: change.id,
                score,
                factors: [attribution, text, timing],
            });
        }
        ranked.sort_by(|a, b| b.score.total_cmp(&a.score));
        if ranked
            .first()
            .is_none_or(|c| c.score < self.confidence_threshold)
        {
            return Ok(Vec::new());
        }
        ranked.truncate(self.top_k);
        Ok(ranked)
    }

    /// Factor 1: the fraction of the regression's gCPU change attributable
    /// to samples involving subroutines the change modified.
    fn gcpu_attribution_factor(
        &self,
        regression: &Regression,
        change: &Change,
        context: &RcaContext<'_>,
    ) -> f64 {
        let Some(graph) = context.graph else {
            return 0.0;
        };
        if context.samples_before.is_empty() || context.samples_after.is_empty() {
            return 0.0;
        }
        let Ok(target) = graph.frame_by_name(&regression.series.target) else {
            return 0.0;
        };
        let modified: Vec<FrameId> = change
            .modified_subroutines
            .iter()
            .filter_map(|n| graph.frame_by_name(n).ok())
            .collect();
        if modified.is_empty() {
            return 0.0;
        }
        gcpu_attribution(
            context.samples_before,
            context.samples_after,
            target,
            &modified,
        )
    }

}

/// Factor 2, regression side: weighted words of the metric id, the
/// regressed subroutine and — when a graph is available (the paper's "stack
/// traces (if available)") — the stack-frame names on its path to the root.
fn regression_word_vector(regression: &Regression, context: &RcaContext<'_>) -> SparseVector {
    let metric_id = regression.metric_id();
    let mut fields: Vec<(&str, f64)> = vec![
        (metric_id.as_str(), 1.0),
        (regression.series.target.as_str(), 2.0),
    ];
    let frame_names: String = context
        .graph
        .and_then(|g| {
            let id = g.frame_by_name(&regression.series.target).ok()?;
            let path = g.path_to_root(id).ok()?;
            Some(
                path.iter()
                    .filter_map(|&f| g.frame(f).ok().map(|fr| fr.name.clone()))
                    .collect::<Vec<String>>()
                    .join(" "),
            )
        })
        .unwrap_or_default();
    if !frame_names.is_empty() {
        fields.push((frame_names.as_str(), 1.0));
    }
    weighted_word_vector(&fields)
}

/// Factor 2, change side: weighted words of the title, summary, files and
/// modified subroutines.
fn change_word_vector(change: &Change) -> SparseVector {
    let files = change.files.join(" ");
    weighted_word_vector(&[
        (change.title.as_str(), 2.0),
        (change.summary.as_str(), 1.0),
        (files.as_str(), 1.0),
        (change.modified_subroutines.join(" ").as_str(), 2.0),
    ])
}

/// Per-sample timestamps of a regression's windows, reconstructed from the
/// analysis window bounds, for placing a deploy time on the sample axis.
struct SampleClock {
    start_time: f64,
    dt: f64,
    samples: usize,
}

impl SampleClock {
    fn of(regression: &Regression) -> Self {
        let windows = &regression.windows;
        let a_len = windows.analysis_len().max(1);
        let span = windows.analysis_end.saturating_sub(windows.analysis_start).max(1);
        let dt = (span as f64 / a_len as f64).max(1.0);
        SampleClock {
            start_time: windows.analysis_start as f64 - windows.historic_len() as f64 * dt,
            dt,
            samples: windows.total_len(),
        }
    }

    /// The sample index a deploy at `deploy_time` lands on, or `None` when a
    /// step there cannot be correlated: fewer than four samples, or an index
    /// outside the interior of the windows.
    fn index_of(&self, deploy_time: u64) -> Option<usize> {
        if self.samples < 4 {
            return None;
        }
        let index = ((deploy_time as f64 - self.start_time) / self.dt).round();
        (index > 0.0 && (index as usize) < self.samples - 1).then_some(index as usize)
    }
}

/// Factor 3: Pearson correlation between the series and a unit step at
/// sample `index`, floored at zero.
fn step_correlation(values: &[f64], index: usize) -> f64 {
    let step: Vec<f64> = (0..values.len())
        .map(|i| if i < index { 0.0 } else { 1.0 })
        .collect();
    pearson(values, &step).map(|c| c.max(0.0)).unwrap_or(0.0)
}

/// The Table 2 computation: `L/R` where `R` is the regression's gCPU change
/// and `L` is the gCPU change of samples involving both the regressed
/// subroutine and any modified subroutine. Clamped to `[0, 1]`; zero when
/// the regression's change is non-positive.
pub fn gcpu_attribution(
    samples_before: &[StackSample],
    samples_after: &[StackSample],
    target: FrameId,
    modified: &[FrameId],
) -> f64 {
    let frac = |samples: &[StackSample], also_modified: bool| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let count = samples
            .iter()
            .filter(|s| {
                s.contains(target) && (!also_modified || modified.iter().any(|&m| s.contains(m)))
            })
            .count();
        count as f64 / samples.len() as f64
    };
    let r = frac(samples_after, false) - frac(samples_before, false);
    if r <= 0.0 {
        return 0.0;
    }
    let l = frac(samples_after, true) - frac(samples_before, true);
    (l / r).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_changelog::ChangeKind;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn sample(trace: &[FrameId]) -> StackSample {
        StackSample {
            trace: trace.to_vec(),
            timestamp: 0,
            server: 0,
            metadata: vec![],
        }
    }

    /// Table 2: frames A=1, B=2, C=3, D=4, E=5, F=6, G=7.
    fn table2_samples() -> (Vec<StackSample>, Vec<StackSample>) {
        let mut before = Vec::new();
        // gCPU units of 0.01 over 100 samples.
        for _ in 0..1 {
            before.push(sample(&[1, 2, 3])); // A->B->C: 0.01
        }
        for _ in 0..2 {
            before.push(sample(&[2, 5, 6])); // B->E->F: 0.02
        }
        for _ in 0..2 {
            before.push(sample(&[4, 2, 3])); // D->B->C: 0.02
        }
        for _ in 0..4 {
            before.push(sample(&[2, 5, 4])); // B->E->D: 0.04
        }
        while before.len() < 100 {
            before.push(sample(&[9])); // Unrelated.
        }
        let mut after = Vec::new();
        for _ in 0..2 {
            after.push(sample(&[1, 2, 3])); // 0.02
        }
        for _ in 0..3 {
            after.push(sample(&[2, 5, 6])); // 0.03
        }
        for _ in 0..2 {
            after.push(sample(&[4, 2, 3])); // 0.02
        }
        for _ in 0..6 {
            after.push(sample(&[2, 5, 4])); // 0.06
        }
        for _ in 0..1 {
            after.push(sample(&[7, 2, 4])); // G->B->D: 0.01 (new)
        }
        while after.len() < 100 {
            after.push(sample(&[9]));
        }
        (before, after)
    }

    #[test]
    fn table2_worked_example_gives_80_percent() {
        let (before, after) = table2_samples();
        // The change modifies A (=1) and E (=5); the regression is in B (=2).
        let score = gcpu_attribution(&before, &after, 2, &[1, 5]);
        assert!((score - 0.8).abs() < 1e-9, "score = {score}");
    }

    #[test]
    fn attribution_zero_when_no_regression() {
        let (before, _) = table2_samples();
        let score = gcpu_attribution(&before, &before, 2, &[1, 5]);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn attribution_full_when_change_explains_everything() {
        let before = vec![sample(&[9]); 10];
        let after: Vec<StackSample> = (0..10)
            .map(|i| {
                if i < 5 {
                    sample(&[1, 2]) // Modified (1) invoking regressed (2).
                } else {
                    sample(&[9])
                }
            })
            .collect();
        assert_eq!(gcpu_attribution(&before, &after, 2, &[1]), 1.0);
    }

    fn regression_with_step(change_time: u64) -> Regression {
        // 100 historic + 100 analysis values, step at index 150.
        let historic = vec![1.0; 100];
        let analysis: Vec<f64> = (0..100).map(|i| if i >= 50 { 2.0 } else { 1.0 }).collect();
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, "hot_path"),
            kind: RegressionKind::ShortTerm,
            change_index: 149,
            change_time,
            mean_before: 1.0,
            mean_after: 2.0,
            windows: WindowedData::from_regions(&historic, &analysis, &[], 10_000, 10_100),
            root_cause_candidates: vec![],
        }
    }

    fn change(id: ChangeId, deploy_time: u64, subs: &[&str], title: &str) -> Change {
        Change {
            id,
            kind: ChangeKind::Code,
            service: "svc".into(),
            deploy_time,
            modified_subroutines: subs.iter().map(|s| s.to_string()).collect(),
            title: title.into(),
            summary: String::new(),
            files: vec![],
            author: "dev".into(),
        }
    }

    #[test]
    fn ranks_the_culprit_first() {
        let mut log = ChangeLog::new();
        // The culprit modifies the regressed subroutine right at the step
        // (the step is at analysis index 50 -> time 10_050).
        log.record(change(
            1,
            10_049,
            &["hot_path"],
            "Add expensive check to hot_path",
        ));
        log.record(change(2, 10_020, &["elsewhere"], "Unrelated logging tweak"));
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.0, 0.5, 0.5],
            lookback: 10_000,
            confidence_threshold: 0.1,
            top_k: 3,
        };
        let r = regression_with_step(10_050);
        let ranked = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].change_id, 1);
    }

    #[test]
    fn low_confidence_suggests_nothing() {
        let mut log = ChangeLog::new();
        log.record(change(1, 9_000, &["zzz"], "qqq"));
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.4, 0.3, 0.3],
            lookback: 10_000,
            confidence_threshold: 0.9,
            top_k: 3,
        };
        let r = regression_with_step(10_050);
        let ranked = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        assert!(ranked.is_empty());
    }

    #[test]
    fn no_candidates_in_window() {
        let log = ChangeLog::new();
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.4, 0.3, 0.3],
            lookback: 1_000,
            confidence_threshold: 0.0,
            top_k: 3,
        };
        let r = regression_with_step(10_050);
        assert!(analyzer
            .analyze(&r, &log, &RcaContext::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn text_similarity_breaks_ties() {
        // Neither change modifies the subroutine directly ("loosening
        // constraints for foo" example, §5.6): text must decide.
        let mut log = ChangeLog::new();
        log.record(change(1, 10_049, &[], "Loosening constraints for hot_path"));
        log.record(change(2, 10_049, &[], "Database schema migration"));
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.0, 1.0, 0.0],
            lookback: 10_000,
            confidence_threshold: 0.01,
            top_k: 3,
        };
        let r = regression_with_step(10_050);
        let ranked = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        assert_eq!(ranked[0].change_id, 1);
        assert!(ranked[0].factors[1] > 0.0);
    }

    #[test]
    fn shared_work_leaves_every_factor_unchanged() {
        // Many changes landing on few distinct sample indices: the factors
        // computed with the per-report sharing must equal, bit for bit,
        // those of each change analyzed alone.
        let changes: Vec<Change> = (1..=24)
            .map(|id| {
                let deploy_time = 10_030 + (id % 4) * 7;
                change(id, deploy_time, &["hot_path"], &format!("touch hot_path variant {}", id % 5))
            })
            .collect();
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.0, 0.5, 0.5],
            lookback: 10_000,
            confidence_threshold: 0.0,
            top_k: usize::MAX,
        };
        let r = regression_with_step(10_060);
        let mut log = ChangeLog::new();
        for c in &changes {
            log.record(c.clone());
        }
        let together = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        assert_eq!(together.len(), changes.len());
        for c in &changes {
            let mut alone = ChangeLog::new();
            alone.record(c.clone());
            let alone = analyzer.analyze(&r, &alone, &RcaContext::default()).unwrap();
            let shared = together.iter().find(|k| k.change_id == c.id).unwrap();
            assert_eq!(shared.score.to_bits(), alone[0].score.to_bits());
            assert_eq!(shared.factors.map(f64::to_bits), alone[0].factors.map(f64::to_bits));
            assert!(shared.factors[2] > 0.0, "timing factor exercised");
        }
    }

    #[test]
    fn top_k_is_respected() {
        let mut log = ChangeLog::new();
        for id in 1..=10 {
            log.record(change(id, 10_040, &["hot_path"], "touch hot_path"));
        }
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.0, 1.0, 0.0],
            lookback: 10_000,
            confidence_threshold: 0.0,
            top_k: 3,
        };
        let r = regression_with_step(10_050);
        let ranked = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        assert_eq!(ranked.len(), 3);
    }
}
