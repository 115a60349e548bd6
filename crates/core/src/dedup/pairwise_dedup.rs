//! PairwiseDedup: accurate rule-driven pairwise deduplication (§5.5.2).
//!
//! The second dedup pass merges representative regressions across analysis
//! windows and metric types (e.g. a gCPU regression with the throughput
//! regression the same change caused). Similarity features per the paper:
//! the maximal Pearson correlation against group members, the maximal
//! metric-ID cosine similarity, and the stack-trace overlap. User-defined
//! rules decide how feature scores combine into a merge decision.

use crate::types::Regression;
use fbd_cluster::pairwise::{Group, PairwiseClusterer};
use fbd_stats::regression::pearson_aligned;
use fbd_stats::text::{SparseVector, TfIdf};

/// How feature scores combine into a merge decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleCombination {
    /// Every enabled feature must clear its threshold.
    All,
    /// Any enabled feature clearing its threshold suffices.
    Any,
}

/// A user-defined merge rule (§5.5.2: "users can define the metrics to
/// consider for merge, the similarity threshold for each feature, and how
/// to combine multiple features").
#[derive(Debug, Clone, Copy)]
pub struct MergeRule {
    /// Minimum Pearson time-series correlation; `None` disables the
    /// feature.
    pub min_correlation: Option<f64>,
    /// Minimum metric-ID cosine similarity; `None` disables.
    pub min_text_similarity: Option<f64>,
    /// Minimum stack-trace overlap; `None` disables.
    pub min_stack_overlap: Option<f64>,
    /// How the enabled features combine.
    pub combination: RuleCombination,
}

impl Default for MergeRule {
    fn default() -> Self {
        MergeRule {
            min_correlation: Some(0.8),
            min_text_similarity: Some(0.6),
            min_stack_overlap: None,
            combination: RuleCombination::Any,
        }
    }
}

/// Similarity scores between a source regression and one target.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeatureScores {
    /// Pearson correlation of the analysis-region values.
    pub correlation: f64,
    /// Cosine similarity of metric IDs.
    pub text_similarity: f64,
    /// Stack-trace overlap (0 when unavailable).
    pub stack_overlap: f64,
}

impl FeatureScores {
    /// Whether the scores satisfy the rule.
    pub fn satisfies(&self, rule: &MergeRule) -> bool {
        let checks: Vec<bool> = [
            rule.min_correlation.map(|t| self.correlation >= t),
            rule.min_text_similarity.map(|t| self.text_similarity >= t),
            rule.min_stack_overlap.map(|t| self.stack_overlap >= t),
        ]
        .into_iter()
        .flatten()
        .collect();
        if checks.is_empty() {
            return false;
        }
        match rule.combination {
            RuleCombination::All => checks.into_iter().all(|c| c),
            RuleCombination::Any => checks.into_iter().any(|c| c),
        }
    }

    /// Aggregate score used to pick the best of several merge targets.
    pub fn aggregate(&self) -> f64 {
        self.correlation + self.text_similarity + self.stack_overlap
    }
}

/// Callback computing stack-trace overlap between two subroutine names.
pub type OverlapFn = Box<dyn Fn(&str, &str) -> f64 + Send + Sync>;

/// The PairwiseDedup engine.
pub struct PairwiseDedup {
    rule: MergeRule,
    tfidf: TfIdf,
    /// Each distinct corpus metric id and its first document in the fit,
    /// sorted by id.
    corpus_index: Vec<(String, usize)>,
    /// Optional callback computing stack-trace overlap between two
    /// regressed subroutine names.
    overlap: Option<OverlapFn>,
}

impl PairwiseDedup {
    /// Creates a dedup engine. `corpus` should contain the metric IDs the
    /// TF-IDF model is fitted on (all known regressions' ids); each is
    /// transformed once, here.
    pub fn new(rule: MergeRule, corpus: &[String]) -> Self {
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let mut corpus_index: Vec<(String, usize)> = corpus.iter().cloned().zip(0..).collect();
        // Stable, so a repeated id keeps its first document.
        corpus_index.sort_by(|a, b| a.0.cmp(&b.0));
        corpus_index.dedup_by(|later, first| later.0 == first.0);
        PairwiseDedup {
            rule,
            tfidf: TfIdf::fit(&refs, &[2, 3]),
            corpus_index,
            overlap: None,
        }
    }

    /// The fitted TF-IDF vector of a corpus metric id.
    fn corpus_vector(&self, metric_id: &str) -> Option<&SparseVector> {
        let at = self
            .corpus_index
            .binary_search_by(|(id, _)| id.as_str().cmp(metric_id))
            .ok()?;
        self.tfidf.document(self.corpus_index[at].1)
    }

    /// Metric-id cosine similarity: the stored vectors' for corpus ids, a
    /// transform of both ids under the model otherwise.
    fn text_similarity(&self, a: &Regression, b: &Regression) -> f64 {
        let (a, b) = (a.metric_id(), b.metric_id());
        match (self.corpus_vector(&a), self.corpus_vector(&b)) {
            (Some(va), Some(vb)) => va.cosine(vb),
            _ => self.tfidf.similarity(&a, &b),
        }
    }

    /// Installs a stack-trace-overlap callback.
    pub fn with_overlap<F>(mut self, f: F) -> Self
    where
        F: Fn(&str, &str) -> f64 + Send + Sync + 'static,
    {
        self.overlap = Some(Box::new(f));
        self
    }

    /// Feature scores between two regressions.
    pub fn scores(&self, a: &Regression, b: &Regression) -> FeatureScores {
        let correlation = pearson_aligned(
            a.windows.analysis_and_extended(),
            b.windows.analysis_and_extended(),
        )
        .unwrap_or(0.0);
        let text_similarity = self.text_similarity(a, b);
        let stack_overlap = self
            .overlap
            .as_ref()
            .map(|f| f(&a.series.target, &b.series.target))
            .unwrap_or(0.0);
        FeatureScores {
            correlation,
            text_similarity,
            stack_overlap,
        }
    }

    /// Groups `new_regressions`, optionally seeding with `existing` groups
    /// from prior rounds (the paper's incremental flow). Each regression is
    /// merged into the group with the highest aggregate score among those
    /// satisfying the rule, or founds a new group.
    pub fn dedup(
        &self,
        new_regressions: Vec<Regression>,
        existing: Vec<Group<Regression>>,
    ) -> Vec<Group<Regression>> {
        let mut clusterer = PairwiseClusterer::with_existing_groups(0.0, existing);
        for r in new_regressions {
            // PairwiseClusterer merges at max-similarity >= threshold; we
            // encode "rule satisfied" as 1.0 and "not" as -1.0, tie-broken
            // by the aggregate score for best-group selection.
            let rule = self.rule;
            clusterer.add(r, |a, b| {
                let s = self.scores(a, b);
                if s.satisfies(&rule) {
                    1.0 + s.aggregate()
                } else {
                    -1.0
                }
            });
        }
        // Threshold 0.0 with scores in {-1} ∪ [1, 4]: satisfied merges pass,
        // unsatisfied found new groups.
        clusterer.into_groups()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn regression(service: &str, target: &str, metric: MetricKind, shape_seed: u64) -> Regression {
        // All series share a step shape; different seeds perturb the noise.
        let analysis: Vec<f64> = (0..64)
            .map(|i| {
                let step = if i >= 32 { 1.0 } else { 0.0 };
                let mut z = (i as u64 ^ shape_seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                step + ((z >> 33) % 100) as f64 * 1e-3
            })
            .collect();
        Regression {
            series: SeriesId::new(service, metric, target),
            kind: RegressionKind::ShortTerm,
            change_index: 96,
            change_time: 1_000,
            mean_before: 0.0,
            mean_after: 1.0,
            windows: WindowedData::from_regions(&vec![0.0; 64], &analysis, &[], 0, 100),
            root_cause_candidates: vec![],
        }
    }

    fn anti_regression(service: &str, target: &str) -> Regression {
        let mut r = regression(service, target, MetricKind::Throughput, 5);
        // Inverted shape: drops where others rise.
        for (i, v) in r.windows.analysis_mut().iter_mut().enumerate() {
            *v = if i >= 32 { 0.0 } else { 1.0 };
        }
        r
    }

    fn engine(rule: MergeRule, regs: &[Regression]) -> PairwiseDedup {
        let corpus: Vec<String> = regs.iter().map(|r| r.metric_id()).collect();
        PairwiseDedup::new(rule, &corpus)
    }

    #[test]
    fn correlated_cross_metric_regressions_merge() {
        // The same change moved gCPU and latency identically.
        let regs = vec![
            regression("svc", "hot", MetricKind::GCpu, 1),
            regression("svc", "hot", MetricKind::Latency, 2),
        ];
        let rule = MergeRule {
            min_correlation: Some(0.9),
            min_text_similarity: Some(0.99),
            min_stack_overlap: None,
            combination: RuleCombination::Any,
        };
        let e = engine(rule, &regs);
        let groups = e.dedup(regs, vec![]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 2);
    }

    #[test]
    fn uncorrelated_regressions_stay_apart() {
        let regs = vec![
            regression("svc", "alpha_one", MetricKind::GCpu, 1),
            anti_regression("other", "zz_different"),
        ];
        let rule = MergeRule::default();
        let e = engine(rule, &regs);
        let groups = e.dedup(regs, vec![]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn all_combination_requires_every_feature() {
        let regs = vec![
            regression("svc", "hot", MetricKind::GCpu, 1),
            // Same shape, totally different name.
            regression("unrelated", "zzz", MetricKind::Throughput, 2),
        ];
        let rule = MergeRule {
            min_correlation: Some(0.9),
            min_text_similarity: Some(0.8),
            min_stack_overlap: None,
            combination: RuleCombination::All,
        };
        let e = engine(rule, &regs);
        let groups = e.dedup(regs, vec![]);
        // Correlation passes but text similarity fails -> no merge.
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn stack_overlap_feature_via_callback() {
        let regs = vec![
            regression("svc", "caller_a", MetricKind::GCpu, 1),
            anti_regression("svc", "caller_b"),
        ];
        let rule = MergeRule {
            min_correlation: None,
            min_text_similarity: None,
            min_stack_overlap: Some(0.5),
            combination: RuleCombination::Any,
        };
        let e = engine(rule, &regs).with_overlap(|_, _| 0.9);
        let groups = e.dedup(regs, vec![]);
        // Overlap alone merges even anti-correlated series.
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn merges_into_existing_groups() {
        let seed_member = regression("svc", "hot", MetricKind::GCpu, 1);
        let existing = vec![Group {
            members: vec![seed_member],
        }];
        let newcomer = regression("svc", "hot", MetricKind::GCpu, 3);
        let e = PairwiseDedup::new(MergeRule::default(), &["svc::hot.gcpu".to_string()]);
        let groups = e.dedup(vec![newcomer], existing);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 2);
    }

    #[test]
    fn stored_vectors_score_like_a_fresh_transform() {
        let regs = vec![
            regression("svc", "hot", MetricKind::GCpu, 1),
            regression("svc", "hot", MetricKind::Latency, 2),
            regression("svc", "hot", MetricKind::GCpu, 3),
            regression("other", "cold_path", MetricKind::Throughput, 4),
        ];
        let e = engine(MergeRule::default(), &regs);
        let outsider = regression("svc", "hot_outside", MetricKind::GCpu, 5);
        for a in regs.iter().chain([&outsider]) {
            for b in regs.iter().chain([&outsider]) {
                let want = e.tfidf.similarity(&a.metric_id(), &b.metric_id());
                assert_eq!(e.scores(a, b).text_similarity.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn empty_rule_never_merges() {
        let regs = vec![
            regression("svc", "hot", MetricKind::GCpu, 1),
            regression("svc", "hot", MetricKind::GCpu, 2),
        ];
        let rule = MergeRule {
            min_correlation: None,
            min_text_similarity: None,
            min_stack_overlap: None,
            combination: RuleCombination::Any,
        };
        let e = engine(rule, &regs);
        let groups = e.dedup(regs, vec![]);
        assert_eq!(groups.len(), 2);
    }
}
