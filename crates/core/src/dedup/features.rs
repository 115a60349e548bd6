//! Clustering features for regression deduplication (§5.5.1).
//!
//! SOMDedup represents each regression with "typical time-series metrics
//! like Fourier frequencies, variance, and change points, along with
//! several distinguishing features": a bitmap of candidate root causes and
//! the metric ID encoded as an integer with 2-/3-gram TF-IDF.

use crate::types::Regression;
use crate::Result;
use fbd_changelog::{ChangeId, ChangeLog};
use fbd_stats::{descriptive, fourier};

/// Number of bits in the root-cause-candidate bitmap feature.
pub const ROOT_CAUSE_BITMAP_BITS: usize = 16;

/// Each regression's root-cause candidates (§5.5.1): the changes that
/// modify its subroutine within `lookback` seconds before (and at) its
/// change point, in deploy order. One walk over the log window the batch
/// spans serves every regression; a change finds the regressions of the
/// subroutines it modifies by binary search.
pub fn candidate_changes(
    regressions: &[Regression],
    log: &ChangeLog,
    lookback: u64,
) -> Vec<Vec<ChangeId>> {
    let window =
        |r: &Regression| r.change_time.saturating_sub(lookback)..r.change_time.saturating_add(1);
    let mut matches = vec![Vec::new(); regressions.len()];
    let mut by_target: Vec<(&str, usize)> = regressions
        .iter()
        .enumerate()
        .map(|(i, r)| (r.series.target.as_str(), i))
        .collect();
    by_target.sort_unstable();
    let start = regressions.iter().map(|r| window(r).start).min();
    let end = regressions.iter().map(|r| window(r).end).max();
    let (Some(start), Some(end)) = (start, end) else {
        return matches;
    };
    for change in log.deployed_between(start, end) {
        let subroutines = &change.modified_subroutines;
        for (i, subroutine) in subroutines.iter().enumerate() {
            // A subroutine listed twice matches once, as `Change::modifies`.
            if subroutines[..i].contains(subroutine) {
                continue;
            }
            let from = by_target.partition_point(|(target, _)| *target < subroutine.as_str());
            for &(_, r) in by_target[from..]
                .iter()
                .take_while(|(target, _)| *target == subroutine)
            {
                if window(&regressions[r]).contains(&change.deploy_time) {
                    matches[r].push(change.id);
                }
            }
        }
    }
    matches
}

/// Builds the candidate-root-cause bitmap: bit `i` is set when
/// `candidates[i]` is one of the regression's `matching` changes (its
/// entry of [`candidate_changes`]). `candidates` — sorted and distinct, the union
/// over the whole batch — fixes the bit assignment so bitmaps are
/// comparable.
pub fn root_cause_bitmap(matching: &[ChangeId], candidates: &[ChangeId]) -> u64 {
    let mut bitmap = 0u64;
    for id in matching {
        if let Ok(pos) = candidates.binary_search(id) {
            if pos < ROOT_CAUSE_BITMAP_BITS {
                bitmap |= 1 << pos;
            }
        }
    }
    bitmap
}

/// Extracts the SOMDedup feature vector for one regression.
///
/// Layout: `[variance, change_index_fraction, magnitude, relative_change,
/// low_frequency_fraction, dominant_bin_fraction, tfidf_signature_hi,
/// tfidf_signature_lo, bitmap]`, where `signature` is the metric id's
/// TF-IDF integer signature ([`fbd_stats::text::TfIdf::document_signature`]).
pub fn feature_vector(regression: &Regression, signature: u64, bitmap: u64) -> Result<Vec<f64>> {
    let analysis = regression.windows.analysis();
    let variance = if analysis.len() >= 2 {
        descriptive::variance(analysis)?
    } else {
        0.0
    };
    let all_len = regression.windows.total_len().max(1);
    let change_fraction = regression.change_index as f64 / all_len as f64;
    let spectral = if analysis.len() >= 4 {
        fourier::spectral_features(analysis, 1)?
    } else {
        fbd_stats::fourier::SpectralFeatures {
            dominant_bins: vec![1],
            dominant_magnitudes: vec![0.0],
            energy: 0.0,
            low_frequency_fraction: 0.0,
        }
    };
    let dominant_fraction =
        *spectral.dominant_bins.first().unwrap_or(&1) as f64 / (analysis.len() / 2).max(1) as f64;
    let relative = regression.relative_change();
    let relative = if relative.is_finite() { relative } else { 1e6 };
    Ok(vec![
        variance,
        change_fraction,
        regression.magnitude(),
        relative,
        spectral.low_frequency_fraction,
        dominant_fraction,
        (signature >> 32) as f64,
        (signature & 0xFFFF_FFFF) as f64,
        bitmap as f64,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RegressionKind;
    use fbd_changelog::{Change, ChangeKind};
    use fbd_stats::text::TfIdf;
    use fbd_tsdb::{MetricKind, SeriesId, WindowedData};

    fn regression(target: &str, change_time: u64) -> Regression {
        Regression {
            series: SeriesId::new("svc", MetricKind::GCpu, target),
            kind: RegressionKind::ShortTerm,
            change_index: 50,
            change_time,
            mean_before: 1.0,
            mean_after: 1.2,
            windows: WindowedData::from_regions(
                &vec![1.0; 50],
                &(0..50).map(|i| 1.0 + (i % 5) as f64 * 0.01).collect::<Vec<_>>(),
                &[],
                0,
                100,
            ),
            root_cause_candidates: vec![],
        }
    }

    fn change(id: u64, time: u64, subs: &[&str]) -> Change {
        Change {
            id,
            kind: ChangeKind::Code,
            service: "svc".into(),
            deploy_time: time,
            modified_subroutines: subs.iter().map(|s| s.to_string()).collect(),
            title: String::new(),
            summary: String::new(),
            files: vec![],
            author: String::new(),
        }
    }

    #[test]
    fn bitmap_flags_matching_changes() {
        let mut log = ChangeLog::new();
        log.record(change(10, 90, &["foo"]));
        log.record(change(11, 95, &["bar"]));
        log.record(change(12, 99, &["foo"]));
        let r = regression("foo", 100);
        let matching = candidate_changes(&[r], &log, 3_600).remove(0);
        assert_eq!(matching, vec![10, 12]); // Changes 10 and 12 modify foo.
        assert_eq!(root_cause_bitmap(&matching, &[10, 11, 12]), 0b101);
        assert_eq!(root_cause_bitmap(&matching, &[9, 12]), 0b10);
    }

    #[test]
    fn bitmap_respects_lookback() {
        let mut log = ChangeLog::new();
        log.record(change(10, 5, &["foo"]));
        let r = regression("foo", 10_000);
        let matching = candidate_changes(&[r], &log, 100).remove(0);
        assert!(matching.is_empty()); // Deployed far before the lookback.
        assert_eq!(root_cause_bitmap(&matching, &[10]), 0);
    }

    #[test]
    fn candidates_at_the_end_of_time_do_not_wrap() {
        let mut log = ChangeLog::new();
        log.record(change(10, 5, &["foo"]));
        log.record(change(11, u64::MAX - 10, &["foo"]));
        log.record(change(12, u64::MAX, &["foo"]));
        let r = regression("foo", u64::MAX);
        // `[MAX − 100, MAX)`: the window saturates at the end of time.
        assert_eq!(candidate_changes(&[r], &log, 100), vec![vec![11]]);
    }

    #[test]
    fn one_walk_matches_a_query_per_regression() {
        let subs = ["foo", "bar", "baz", "qux"];
        let mut log = ChangeLog::new();
        for id in 0..200u64 {
            let touched: Vec<&str> = (0..(id % 3) + 1)
                .map(|k| subs[((id * 5 + k * 3) % 4) as usize])
                .collect();
            log.record(change(id, 1_000 + id * 13 % 2_000, &touched));
        }
        let batch: Vec<Regression> = (0..30u64)
            .map(|i| regression(subs[(i % 4) as usize], 1_200 + i * 57))
            .chain([regression("absent", 2_000), regression("foo", 5)])
            .collect();
        let walked = candidate_changes(&batch, &log, 400);
        for (r, got) in batch.iter().zip(&walked) {
            let want: Vec<ChangeId> = log
                .modifying_subroutine_between(
                    &r.series.target,
                    r.change_time.saturating_sub(400),
                    r.change_time + 1,
                )
                .iter()
                .map(|c| c.id)
                .collect();
            assert_eq!(got, &want, "{} at {}", r.series.target, r.change_time);
        }
        assert!(walked.iter().filter(|m| !m.is_empty()).count() > 20);
        assert!(candidate_changes(&[], &log, 400).is_empty());
    }

    #[test]
    fn feature_vector_has_fixed_layout() {
        let model = TfIdf::fit(&["svc::foo.gcpu", "svc::bar.gcpu"], &[2, 3]);
        let signature = model.document_signature(0).unwrap();
        let v = feature_vector(&regression("foo", 100), signature, 0b11).unwrap();
        assert_eq!(v.len(), 9);
        assert_eq!(v[8].to_bits(), 3.0_f64.to_bits()); // The bitmap rides in the last slot.
        assert!(v[0] >= 0.0); // Variance.
        assert!((0.0..=1.0).contains(&v[1])); // Change fraction.
    }

    #[test]
    fn same_metric_ids_share_signature_features() {
        let batch = [
            regression("foo", 100),
            regression("foo", 200),
            regression("bar", 100),
        ];
        let ids: Vec<String> = batch.iter().map(Regression::metric_id).collect();
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let model = TfIdf::fit(&refs, &[2, 3]);
        let features =
            |i: usize| feature_vector(&batch[i], model.document_signature(i).unwrap(), 0).unwrap();
        let (a, b) = (features(0), features(1));
        assert_eq!(a[6].to_bits(), b[6].to_bits());
        assert_eq!(a[7].to_bits(), b[7].to_bits());
        let c = features(2);
        assert_ne!((a[6], a[7]), (c[6], c[7]));
    }
}
