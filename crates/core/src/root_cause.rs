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
use fbd_stats::regression::StepCorrelation;
use fbd_stats::text::{weighted_word_vector, SparseVector};
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
        self.analyze_with(regression, context, &mut ChangeText::new(log))
    }

    /// [`RootCauseAnalyzer::analyze`] against `changes`' log, taking each
    /// candidate change's word vector from `changes` — built on its first
    /// use, so the reports of one scan build each change's vector once.
    /// The ranking is bit-identical to `analyze`'s.
    pub fn analyze_with(
        &self,
        regression: &Regression,
        context: &RcaContext<'_>,
        changes: &mut ChangeText<'_>,
    ) -> Result<Vec<RankedCandidate>> {
        let start = regression.change_time.saturating_sub(self.lookback);
        let positions = changes
            .log
            .positions_between(start, regression.change_time.saturating_add(1));
        if positions.is_empty() {
            return Ok(Vec::new());
        }
        // Everything that depends on the regression alone is computed once
        // per report, not once per candidate change: its word vector, and
        // the timing factor of each distinct sample index a deploy lands on.
        let regression_vector = regression_word_vector(regression, context);
        let clock = SampleClock::of(regression);
        let steps = StepCorrelation::new(regression.windows.all());
        let mut timing_by_index: BTreeMap<usize, f64> = BTreeMap::new();
        let mut ranked = Vec::with_capacity(positions.len());
        let log = changes.log;
        for (change, position) in log.all()[positions.clone()].iter().zip(positions) {
            let attribution = self.gcpu_attribution_factor(regression, change, context);
            let text = regression_vector.cosine(changes.vector(position));
            let timing = clock.index_of(change.deploy_time).map_or(0.0, |index| {
                // Factor 3: Pearson correlation between the series and a
                // unit step at the deploy's sample, floored at zero.
                *timing_by_index
                    .entry(index)
                    .or_insert_with(|| steps.at(index).map_or(0.0, |c| c.max(0.0)))
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
fn regression_word_vector(
    regression: &Regression,
    context: &RcaContext<'_>,
) -> SparseVector<String> {
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
/// modified subroutines. Each file and subroutine is its own field, which
/// tokenizes as the space-joined list would.
fn change_word_vector(change: &Change) -> SparseVector<String> {
    let fields: Vec<(&str, f64)> = [(change.title.as_str(), 2.0), (change.summary.as_str(), 1.0)]
        .into_iter()
        .chain(change.files.iter().map(|f| (f.as_str(), 1.0)))
        .chain(
            change
                .modified_subroutines
                .iter()
                .map(|s| (s.as_str(), 2.0)),
        )
        .collect();
    weighted_word_vector(&fields)
}

/// The word vectors of a change log's changes, built on first use: one
/// scan's reports share it, so a change in several reports' lookback
/// windows is tokenized once. A change's vector depends on the change
/// alone, so sharing cannot move a score.
pub struct ChangeText<'a> {
    log: &'a ChangeLog,
    /// Log position of `slots[0]`.
    base: usize,
    /// Vectors of log positions `base..base + slots.len()`, once built.
    slots: Vec<Option<SparseVector<String>>>,
}

impl<'a> ChangeText<'a> {
    /// An empty memo over `log`.
    pub fn new(log: &'a ChangeLog) -> Self {
        ChangeText {
            log,
            base: 0,
            slots: Vec::new(),
        }
    }

    /// The word vector of the change at `position` in the log.
    fn vector(&mut self, position: usize) -> &SparseVector<String> {
        if self.slots.is_empty() {
            self.base = position;
        } else if position < self.base {
            self.slots
                .splice(0..0, std::iter::repeat_n(None, self.base - position));
            self.base = position;
        }
        let at = position - self.base;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, None);
        }
        let log = self.log;
        self.slots[at].get_or_insert_with(|| change_word_vector(&log.all()[position]))
    }
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
        assert_eq!(score.to_bits(), 0.0_f64.to_bits());
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
        assert_eq!(gcpu_attribution(&before, &after, 2, &[1]).to_bits(), 1.0_f64.to_bits());
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
    fn shared_change_text_matches_per_report_analysis() {
        // Reports whose lookback windows overlap, visited out of time order
        // so the memo grows at both ends: the shared vectors must give the
        // scores and factors of a fresh analysis, bit for bit.
        let words = [
            "hot_path",
            "cache",
            "loosen",
            "constraints",
            "schema",
            "retry",
        ];
        let mut log = ChangeLog::new();
        for id in 1..=60u64 {
            let w = |k: u64| words[((id * 7 + k) % words.len() as u64) as usize];
            let mut c = change(
                id,
                9_900 + id * 5,
                &[w(0)],
                &format!("{} {} for {}", w(1), w(2), w(3)),
            );
            c.summary = format!("touches {} and {}", w(4), w(5));
            c.files = vec![format!("src/{}.rs", w(2))];
            log.record(c);
        }
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.2, 0.5, 0.3],
            lookback: 120,
            confidence_threshold: 0.0,
            top_k: usize::MAX,
        };
        let mut shared = ChangeText::new(&log);
        for change_time in [10_100, 10_050, 10_180, 10_000, 10_140, 10_100, 10_300] {
            let r = regression_with_step(change_time);
            let fresh = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
            let memo = analyzer
                .analyze_with(&r, &RcaContext::default(), &mut shared)
                .unwrap();
            assert!(
                fresh.len() >= 5,
                "{change_time}: {} candidates",
                fresh.len()
            );
            assert_eq!(fresh.len(), memo.len());
            for (f, m) in fresh.iter().zip(&memo) {
                assert_eq!(f.change_id, m.change_id);
                assert_eq!(f.score.to_bits(), m.score.to_bits());
                assert_eq!(f.factors.map(f64::to_bits), m.factors.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn change_time_at_the_end_of_time_does_not_wrap() {
        let mut log = ChangeLog::new();
        log.record(change(1, 10, &["hot_path"], "early hot_path change"));
        log.record(change(
            2,
            u64::MAX - 5,
            &["hot_path"],
            "late hot_path change",
        ));
        log.record(change(3, u64::MAX, &["hot_path"], "last hot_path change"));
        let analyzer = RootCauseAnalyzer {
            factor_weights: [0.0, 1.0, 0.0],
            lookback: 100,
            confidence_threshold: 0.0,
            top_k: 3,
        };
        let r = regression_with_step(u64::MAX);
        let ranked = analyzer.analyze(&r, &log, &RcaContext::default()).unwrap();
        // `[MAX − 100, MAX)`: the window saturates at the end of time.
        let ids: Vec<ChangeId> = ranked.iter().map(|c| c.change_id).collect();
        assert_eq!(ids, vec![2]);
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
