//! SOMDedup: fast SOM-based deduplication with `ImportanceScore`
//! representative selection (§5.5.1).
//!
//! Regressions of the same metric type within one analysis window are
//! mapped onto an `⌈n^(1/4)⌉ × ⌈n^(1/4)⌉` self-organizing map; items landing
//! on the same cell are merged, "often reducing regressions by two orders
//! of magnitude". Within each group the regression with the highest
//! `ImportanceScore` is presented as the representative:
//!
//! ```text
//! ImportanceScore = w1·RelativeCostChange + w2·AbsoluteCostChange
//!                 + w3·(1 − PopularityScore) + w4·PotentialRootCauseFound
//! ```

use crate::dedup::features::{candidate_changes, feature_vector, root_cause_bitmap};
use crate::error::DetectError;
use crate::types::Regression;
use crate::Result;
use fbd_changelog::{ChangeId, ChangeLog};
use fbd_cluster::som::cluster_by_cell;
use fbd_cluster::{SelfOrganizingMap, SomConfig};
use fbd_stats::text::TfIdf;

/// A deduplicated group: the representative plus the merged members.
#[derive(Debug, Clone)]
pub struct DedupGroup {
    /// Index (into the input batch) of the representative regression.
    pub representative: usize,
    /// All member indices, including the representative.
    pub members: Vec<usize>,
}

/// SOMDedup configuration.
#[derive(Debug, Clone, Copy)]
pub struct SomDedupConfig {
    /// `ImportanceScore` weights `w1..w4` (defaults 0.2/0.6/0.1/0.1).
    pub importance_weights: [f64; 4],
    /// Root-cause candidate lookback (seconds).
    pub rca_lookback: u64,
    /// SOM training seed.
    pub seed: u64,
}

impl Default for SomDedupConfig {
    fn default() -> Self {
        SomDedupConfig {
            importance_weights: [0.2, 0.6, 0.1, 0.1],
            rca_lookback: 6 * 3_600,
            seed: 0xDED0,
        }
    }
}

/// The `ImportanceScore` of one regression (§5.5.1).
///
/// `popularity` is the probability of the regressed subroutine appearing in
/// a random stack-trace sample; `root_cause_found` reflects whether any
/// candidate change modifies the subroutine.
pub fn importance_score(
    regression: &Regression,
    weights: [f64; 4],
    popularity: f64,
    root_cause_found: bool,
) -> f64 {
    let relative = regression.relative_change();
    let relative = if relative.is_finite() {
        relative.abs()
    } else {
        1.0
    };
    weights[0] * relative.min(1.0)
        + weights[1] * regression.magnitude().abs()
        + weights[2] * (1.0 - popularity.clamp(0.0, 1.0))
        + weights[3] * if root_cause_found { 1.0 } else { 0.0 }
}

/// Runs SOMDedup over a batch of regressions (same metric type, same
/// analysis window). Returns the groups with representatives chosen by
/// `ImportanceScore`.
///
/// `popularity` maps a batch index to the subroutine's popularity score
/// (gCPU); pass `|_| 0.0` when stack samples are unavailable.
pub fn som_dedup<P>(
    regressions: &[Regression],
    log: Option<&ChangeLog>,
    config: &SomDedupConfig,
    mut popularity: P,
) -> Result<Vec<DedupGroup>>
where
    P: FnMut(usize) -> f64,
{
    if regressions.is_empty() {
        return Ok(Vec::new());
    }
    if regressions.len() == 1 {
        return Ok(vec![DedupGroup {
            representative: 0,
            members: vec![0],
        }]);
    }
    // TF-IDF model over this batch's metric ids; each id's signature is a
    // lookup into the fit.
    let ids: Vec<String> = regressions.iter().map(Regression::metric_id).collect();
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let tfidf = TfIdf::fit(&id_refs, &[2, 3]);
    // Each regression's changelog matches, found once: the batch's
    // candidate list is their sorted union, and a regression's bitmap
    // flags its matches' positions in it.
    let matches: Vec<Vec<ChangeId>> = match log {
        Some(log) => candidate_changes(regressions, log, config.rca_lookback),
        None => vec![Vec::new(); regressions.len()],
    };
    let mut candidates: Vec<ChangeId> = matches.iter().flatten().copied().collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut bitmaps = Vec::with_capacity(regressions.len());
    let mut features = Vec::with_capacity(regressions.len());
    for (i, (r, matching)) in regressions.iter().zip(&matches).enumerate() {
        let bitmap = root_cause_bitmap(matching, &candidates);
        let signature = tfidf
            .document_signature(i)
            .ok_or(DetectError::Internal("TF-IDF fit lost a document"))?;
        bitmaps.push(bitmap);
        features.push(feature_vector(r, signature, bitmap)?);
    }
    let som_config = SomConfig {
        seed: config.seed,
        ..SomConfig::default()
    };
    let som = SelfOrganizingMap::train(&features, som_config)?;
    let assignments = som.assign(&features)?;
    let clusters = cluster_by_cell(&assignments);
    let mut groups = Vec::with_capacity(clusters.len());
    for members in clusters {
        let representative = members
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let sa = importance_score(
                    &regressions[a],
                    config.importance_weights,
                    popularity(a),
                    bitmaps[a] != 0,
                );
                let sb = importance_score(
                    &regressions[b],
                    config.importance_weights,
                    popularity(b),
                    bitmaps[b] != 0,
                );
                sa.total_cmp(&sb)
            })
            .ok_or(DetectError::Internal("SOM produced an empty cluster"))?;
        groups.push(DedupGroup {
            representative,
            members,
        });
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn regression(target: &str, magnitude: f64, seed: u64) -> Regression {
        let analysis: Vec<f64> = (0..64)
            .map(|i| {
                let mut z = (i as u64 ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                1.0 + magnitude + ((z >> 33) % 100) as f64 * 1e-4
            })
            .collect();
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, target),
            kind: RegressionKind::ShortTerm,
            change_index: 60,
            change_time: 1_000,
            mean_before: 1.0,
            mean_after: 1.0 + magnitude,
            windows: WindowedData::from_regions(&vec![1.0; 64], &analysis, &[], 0, 100),
            root_cause_candidates: vec![],
        }
    }

    #[test]
    fn related_regressions_group_together() {
        // Callers of one regressed subroutine all regress identically;
        // an unrelated tiny regression stands apart.
        let mut batch = Vec::new();
        for i in 0..8 {
            batch.push(regression(&format!("caller{i}::hot_path"), 0.2, i as u64));
        }
        batch.push(regression("unrelated::cold", 0.001, 99));
        let groups = som_dedup(&batch, None, &SomDedupConfig::default(), |_| 0.0).unwrap();
        assert!(groups.len() < batch.len(), "groups = {}", groups.len());
        // The unrelated regression must not share a group with the others.
        let unrelated_group = groups
            .iter()
            .find(|g| g.members.contains(&8))
            .expect("present");
        assert_eq!(unrelated_group.members, vec![8]);
    }

    #[test]
    fn representative_has_highest_importance() {
        let mut batch = vec![
            regression("a::x", 0.05, 1),
            regression("a::y", 0.5, 2), // Biggest absolute change.
            regression("a::z", 0.04, 3),
        ];
        // Force them into one comparable group by making magnitudes equalish
        // except the representative.
        batch[0].mean_after = 1.05;
        let groups = som_dedup(&batch, None, &SomDedupConfig::default(), |_| 0.0).unwrap();
        for g in &groups {
            if g.members.contains(&1) {
                assert_eq!(g.representative, 1);
            }
        }
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert!(som_dedup(&[], None, &SomDedupConfig::default(), |_| 0.0)
            .unwrap()
            .is_empty());
        let one = vec![regression("a", 0.1, 1)];
        let groups = som_dedup(&one, None, &SomDedupConfig::default(), |_| 0.0).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].representative, 0);
    }

    #[test]
    fn change_time_at_the_end_of_time_does_not_wrap() {
        let mut log = ChangeLog::new();
        for (id, time) in [(1, 500), (2, u64::MAX - 3), (3, u64::MAX)] {
            log.record(fbd_changelog::Change {
                id,
                kind: fbd_changelog::ChangeKind::Code,
                service: "svc".into(),
                deploy_time: time,
                modified_subroutines: vec!["a::x".into()],
                title: String::new(),
                summary: String::new(),
                files: vec![],
                author: String::new(),
            });
        }
        let mut batch = vec![
            regression("a::x", 0.2, 1),
            regression("a::x", 0.2, 2),
            regression("b::y", 0.01, 3),
        ];
        for r in &mut batch {
            r.change_time = u64::MAX;
        }
        let groups = som_dedup(&batch, Some(&log), &SomDedupConfig::default(), |_| 0.0).unwrap();
        let mut all: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn importance_score_weights() {
        let r = regression("a", 0.5, 1);
        // Default weights: w2=0.6 dominates on absolute change.
        let with_rc = importance_score(&r, [0.2, 0.6, 0.1, 0.1], 0.0, true);
        let without_rc = importance_score(&r, [0.2, 0.6, 0.1, 0.1], 0.0, false);
        assert!((with_rc - without_rc - 0.1).abs() < 1e-12);
        // Popular subroutines are penalized.
        let popular = importance_score(&r, [0.2, 0.6, 0.1, 0.1], 1.0, false);
        assert!(popular < without_rc);
    }

    #[test]
    fn groups_partition_the_batch() {
        let batch: Vec<Regression> = (0..20)
            .map(|i| regression(&format!("s{}", i % 4), 0.1 * (1 + i % 4) as f64, i as u64))
            .collect();
        let groups = som_dedup(&batch, None, &SomDedupConfig::default(), |_| 0.0).unwrap();
        let mut all: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<usize>>());
        for g in &groups {
            assert!(g.members.contains(&g.representative));
        }
    }
}
