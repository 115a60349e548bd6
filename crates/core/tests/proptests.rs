//! Property-based tests for the detection pipeline's invariants.

use fbd_tsdb::window::extract_windows;
use fbd_tsdb::{MetricKind, SeriesId, StoreConfig, TimeSeries, TsdbStore, WindowConfig};
use fbdetect_core::change_point::ChangePointDetector;
use fbdetect_core::config::{DetectorConfig, Threshold};
use fbdetect_core::dedup::same_merger::SameRegressionMerger;
use fbdetect_core::long_term::LongTermDetector;
use fbdetect_core::types::{Regression, RegressionKind};
use fbdetect_core::seasonality::{SeasonalArtifacts, SeasonalityDetector};
use fbdetect_core::went_away::{DecidedBy, WentAwayDetector};
use fbdetect_core::{FaultKind, Pipeline, Quarantine, QuarantineConfig, ScanContext, StreamingEngine};
use proptest::prelude::*;

fn config(threshold: f64) -> DetectorConfig {
    DetectorConfig::new(
        "prop",
        WindowConfig {
            historic: 200,
            analysis: 80,
            extended: 40,
            rerun_interval: 40,
        },
        Threshold::Absolute(threshold),
    )
}

/// One whole streaming round, serially: prologue, every populated shard's
/// delta ingest, epilogue.
fn begin_round(engine: &mut StreamingEngine, store: &TsdbStore, ids: &[&SeriesId], now: u64) {
    engine.round_prologue(now);
    for shard in 0..engine.shard_count() {
        let shard_ids: Vec<&SeriesId> = ids
            .iter()
            .copied()
            .filter(|id| TsdbStore::shard_of(id) == shard)
            .collect();
        if !shard_ids.is_empty() {
            engine.ingest_shard(store, shard, &shard_ids, now);
        }
    }
    engine.finish_round();
}

fn noisy_series(len: usize, base: f64, noise: f64, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let mut z = (i as u64 ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            base + (((z >> 33) % 1000) as f64 / 1000.0 - 0.5) * noise
        })
        .collect()
}

fn regression_from_values(values: &[f64], cp: usize) -> Regression {
    let h = values.len() * 5 / 8;
    let a = values.len() / 4;
    Regression {
        series: SeriesId::new("svc", MetricKind::GCpu, "x"),
        kind: RegressionKind::ShortTerm,
        change_index: cp.min(values.len() - 2),
        change_time: cp as u64,
        mean_before: values[..=cp.min(values.len() - 2)].iter().sum::<f64>()
            / (cp.min(values.len() - 2) + 1) as f64,
        mean_after: values[cp.min(values.len() - 2) + 1..].iter().sum::<f64>()
            / (values.len() - cp.min(values.len() - 2) - 1) as f64,
        windows: fbd_tsdb::WindowedData::from_regions(
            &values[..h],
            &values[h..h + a],
            &values[h + a..],
            h as u64,
            (h + a) as u64,
        ),
        root_cause_candidates: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn change_point_detector_never_fires_outside_analysis(
        seed in 0u64..500,
        step_at in 0usize..200usize,
        delta in 0.5f64..3.0,
    ) {
        // A step inside the HISTORIC region must never produce a candidate.
        let mut values = noisy_series(320, 1.0, 0.05, seed);
        for v in values.iter_mut().skip(step_at) {
            *v += delta;
        }
        let cfg = config(0.1);
        let detector = ChangePointDetector::from_config(&cfg);
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "x");
        store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
        let w = store.windows(&id, &cfg.windows, 320).unwrap();
        if let Some(r) = detector.detect(&id, &w, 320).unwrap() {
            prop_assert!(r.change_index + 1 >= w.historic_len());
            prop_assert!(r.change_index < w.historic_len() + w.analysis_len());
        }
    }

    #[test]
    fn went_away_filters_improvements(seed in 0u64..200) {
        // A downward step is an improvement; never keep it.
        let mut values = noisy_series(320, 2.0, 0.05, seed);
        for v in values.iter_mut().skip(220) {
            *v -= 0.5;
        }
        let r = regression_from_values(&values, 219);
        let cfg = config(0.1);
        let wa = WentAwayDetector::from_config(&cfg);
        prop_assert!(!wa.evaluate(&r).unwrap().keep);
    }

    #[test]
    fn went_away_keeps_large_persistent_steps(seed in 0u64..200) {
        let mut values = noisy_series(320, 1.0, 0.05, seed);
        for v in values.iter_mut().skip(220) {
            *v += 1.0;
        }
        let r = regression_from_values(&values, 219);
        let cfg = config(0.1);
        let wa = WentAwayDetector::from_config(&cfg);
        prop_assert!(wa.evaluate(&r).unwrap().keep);
    }

    #[test]
    fn went_away_verdict_shape_and_cache_invariance(
        seed in 0u64..500,
        noise in 0.05f64..1.2,
        delta in -0.3f64..1.5,
        // Samples after the step before it recovers; 100.. never does.
        recovers_after in 10usize..140,
        // A period-12 swing, so the STL path is shared too.
        seasonal in any::<bool>(),
        swing in 0.2f64..1.0,
    ) {
        let swing = if seasonal { swing } else { 0.0 };
        let mut values = noisy_series(320, 1.0, noise, seed);
        for (i, v) in values.iter_mut().enumerate() {
            *v += swing * (i as f64 / 12.0 * std::f64::consts::TAU).sin();
        }
        for v in values.iter_mut().skip(220).take(recovers_after) {
            *v += delta;
        }
        let r = regression_from_values(&values, 219);
        let cfg = config(0.1);
        let wa = WentAwayDetector::from_config(&cfg);
        let v = wa.evaluate(&r).unwrap();
        // The decision follows from the deciding term, and exactly the
        // terms up to it were evaluated.
        let (keep, evaluated) = match v.decided_by {
            DecidedBy::TooShort => (true, 0),
            DecidedBy::Improvement => (false, 0),
            DecidedBy::GoneAway => (false, 1),
            DecidedBy::NewPattern => (true, 2),
            DecidedBy::NotSignificant => (false, 3),
            DecidedBy::Lasting => (true, 4),
            DecidedBy::NotLasting => (false, 4),
        };
        prop_assert_eq!(v.keep, keep);
        let terms = [v.gone_away, v.new_pattern, v.significant, v.lasting];
        for (i, term) in terms.iter().enumerate() {
            prop_assert_eq!(term.is_some(), i < evaluated, "term {} of {:?}", i, v);
        }
        let last = evaluated.checked_sub(1).and_then(|i| terms[i]);
        prop_assert!(match v.decided_by {
            DecidedBy::GoneAway | DecidedBy::NewPattern | DecidedBy::Lasting => last == Some(true),
            DecidedBy::NotSignificant | DecidedBy::NotLasting => last == Some(false),
            DecidedBy::TooShort | DecidedBy::Improvement => last.is_none(),
        }, "{:?}", v);
        // Both filters return the standalone verdicts bit for bit whether
        // they start from empty artifacts or are served the answers the
        // long-term detector left behind.
        let seasonality = SeasonalityDetector::from_config(&cfg);
        let bits = |v: fbdetect_core::seasonality::SeasonalityVerdict| {
            (v.seasonal, v.z_analysis.to_bits(), v.z_extended.to_bits(), v.keep)
        };
        let standalone = bits(seasonality.evaluate(&r).unwrap());
        let mut seeded = SeasonalArtifacts::default();
        let prefix = fbd_stats::prefix::validated(r.windows.all(), 8).ok();
        LongTermDetector::from_config(&cfg)
            .detect_with(&r.series, &r.windows, prefix.as_ref(), &mut seeded)
            .unwrap();
        for mut artifacts in [seeded, SeasonalArtifacts::default()] {
            prop_assert_eq!(wa.evaluate_with(&r, &mut artifacts).unwrap(), v);
            prop_assert_eq!(bits(seasonality.evaluate_with(&r, &mut artifacts).unwrap()), standalone);
        }
    }

    #[test]
    fn merger_idempotent(times in prop::collection::vec(0u64..10_000, 1..30)) {
        let mut m = SameRegressionMerger::new(100);
        let mut first_pass = 0;
        for &t in &times {
            let values = vec![1.0; 16];
            let mut r = regression_from_values(&values, 7);
            r.change_time = t;
            if m.is_new(&r) {
                first_pass += 1;
            }
        }
        // Replaying the same regressions yields zero new ones.
        let mut second_pass = 0;
        for &t in &times {
            let values = vec![1.0; 16];
            let mut r = regression_from_values(&values, 7);
            r.change_time = t;
            if m.is_new(&r) {
                second_pass += 1;
            }
        }
        prop_assert!(first_pass >= 1);
        prop_assert_eq!(second_pass, 0);
    }

    #[test]
    fn funnel_is_monotone_for_arbitrary_mixes(
        seeds in prop::collection::vec(0u64..10_000, 1..12),
        threshold in 0.01f64..0.5,
    ) {
        let store = TsdbStore::new();
        let mut ids = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let mut values = noisy_series(320, 1.0, 0.05, seed);
            match seed % 3 {
                0 => {
                    for v in values.iter_mut().skip(230) {
                        *v += 0.4;
                    }
                }
                1 => {
                    let end = 280.min(values.len());
                    for v in values[230..end].iter_mut() {
                        *v += 0.6;
                    }
                }
                _ => {}
            }
            let id = SeriesId::new("svc", MetricKind::GCpu, format!("s{i}"));
            store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
            ids.push(id);
        }
        let mut p = Pipeline::new(config(threshold)).unwrap();
        let out = p.scan(&store, &ids, 320, &ScanContext::default()).unwrap();
        let f = out.funnel;
        prop_assert!(f.change_points >= f.after_went_away);
        prop_assert!(f.after_went_away >= f.after_seasonality);
        prop_assert!(f.after_seasonality >= f.after_threshold);
        prop_assert!(f.after_threshold >= f.after_same_merger);
        prop_assert!(f.after_same_merger >= f.after_som_dedup);
        prop_assert!(f.after_som_dedup >= f.after_cost_shift);
        prop_assert!(f.after_cost_shift >= f.after_pairwise_dedup);
        prop_assert!(out.reports.len() <= f.after_cost_shift);
    }

    #[test]
    fn thresholds_partition_detections(seed in 0u64..200) {
        // A report produced at a high threshold is also produced at a lower
        // threshold (same data, same config otherwise).
        let store = TsdbStore::new();
        let mut values = noisy_series(320, 1.0, 0.03, seed);
        for v in values.iter_mut().skip(230) {
            *v += 0.5;
        }
        let id = SeriesId::new("svc", MetricKind::GCpu, "x");
        store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
        let mut high = Pipeline::new(config(0.4)).unwrap();
        let mut low = Pipeline::new(config(0.05)).unwrap();
        let high_out = high
            .scan(&store, std::slice::from_ref(&id), 320, &ScanContext::default())
            .unwrap();
        let low_out = low.scan(&store, &[id], 320, &ScanContext::default()).unwrap();
        if !high_out.reports.is_empty() {
            prop_assert!(!low_out.reports.is_empty());
        }
    }

    #[test]
    fn quarantine_never_loses_a_series_forever(
        gaps in prop::collection::vec(0u64..50, 1..40),
        initial in 1u64..4,
        growth in 1u64..4,
        max_backoff in 1u64..16,
    ) {
        // No failure sequence may park a series past max_backoff re-run
        // intervals: quarantine is backoff, not a blocklist.
        let interval = 500u64;
        let mut q = Quarantine::new(
            QuarantineConfig {
                initial_backoff: initial,
                growth,
                max_backoff,
            },
            interval,
        );
        let id = SeriesId::new("svc", MetricKind::GCpu, "flaky");
        let mut now = 0u64;
        for &gap in &gaps {
            now += gap * interval;
            // The scheduler only retries (and can only re-fail) once the
            // series is eligible again.
            if !q.is_quarantined(&id, now) {
                let entry = q.record_failure(&id, FaultKind::DetectorError, "prop", now);
                prop_assert!(entry.eligible_at <= now + max_backoff * interval);
            }
        }
        // However many failures accumulated, the series becomes scannable
        // again within max_backoff intervals of the last one.
        prop_assert!(!q.is_quarantined(&id, now + max_backoff * interval));
        // And one success fully re-admits it.
        q.record_success(&id);
        prop_assert!(q.entry(&id).is_none());
        prop_assert!(!q.is_quarantined(&id, 0));
    }

    #[test]
    fn long_term_prefilter_never_changes_the_decision(
        seed in 0u64..300,
        drift_millis in 0u64..12,
        step_at in 150usize..310usize,
        step in 0.0f64..0.8,
    ) {
        // The O(n) flat-series prefilter may only skip work, never flip a
        // verdict: the prefiltered entry point and the full STL path must
        // produce identical regressions (or identical absences) on flats,
        // drifts, and steps alike.
        let drift = drift_millis as f64 / 1000.0 * 0.01;
        let mut values: Vec<f64> = noisy_series(320, 1.0, 0.05, seed)
            .iter()
            .enumerate()
            .map(|(i, v)| v + drift * i as f64)
            .collect();
        for v in values.iter_mut().skip(step_at) {
            *v += step;
        }
        let cfg = config(0.1);
        let detector = LongTermDetector::from_config(&cfg);
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "lt");
        store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
        let w = store.windows(&id, &cfg.windows, 320).unwrap();
        let fast = detector.detect(&id, &w, 320).unwrap();
        let full = detector.detect_without_prefilter(&id, &w, 320).unwrap();
        prop_assert_eq!(
            format!("{fast:?}"),
            format!("{full:?}"),
            "prefiltered and full long-term paths diverged"
        );
    }

    #[test]
    fn streaming_engine_never_changes_a_scan_outcome(
        seeds in prop::collection::vec(0u64..1000, 2..5),
        steps in prop::collection::vec(0u64..4, 2..5),
        rounds in prop::collection::vec((0u64..3, 1usize..25, 0u64..12), 1..7),
        sparse_cadence in 41u64..101,
    ) {
        // The version-gated cache path may only skip work, never change a
        // detection decision: over arbitrary append/advance sequences, a
        // pipeline with the streaming engine enabled must produce the same
        // reports, funnel, and health as a cold pipeline on every round.
        // The last series is sampled less often than the watermark moves
        // (40 ticks a step), so an advanced watermark can leave all of its
        // partitions where they were.
        let cfg = config(0.05);
        let store = TsdbStore::new();
        let mut ids = Vec::new();
        let mut frontier = 400u64;
        for (i, &seed) in seeds.iter().enumerate() {
            let mut values = noisy_series(frontier as usize, 1.0, 0.1, seed);
            // Some series get a step inside the analysis window, some get a
            // NaN burst to exercise the data-quality gates, some stay quiet.
            match steps.get(i).copied().unwrap_or(0) {
                1 => {
                    for v in values.iter_mut().skip(330) {
                        *v += 0.5;
                    }
                }
                2 => {
                    for v in values.iter_mut().skip(340).take(40) {
                        *v = f64::NAN;
                    }
                }
                _ => {}
            }
            let kind = if i % 2 == 0 { MetricKind::GCpu } else { MetricKind::Throughput };
            let id = SeriesId::new("svc", kind, format!("s{i}"));
            store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
            ids.push(id);
        }
        let sparse = ids.len();
        let sparse_id = SeriesId::new("svc", MetricKind::GCpu, "sparse");
        for t in (0..frontier).step_by(sparse_cadence as usize) {
            store.append(&sparse_id, t, noisy_series(1, 1.0, 0.1, t)[0]).unwrap();
        }
        ids.push(sparse_id);
        let mut warm = Pipeline::new(cfg.clone()).unwrap();
        let mut cold = Pipeline::new(cfg).unwrap();
        cold.set_streaming(false);
        let context = ScanContext {
            changelog: None,
            samples: None,
            graph: None,
            domain_providers: vec![],
        };
        // Watermarks are quantized to rerun-interval boundaries, as the
        // production scheduler does; ingestion runs ahead of them.
        let mut now = frontier;
        for &(advance, appends, value_seed) in &rounds {
            now += advance * 40;
            for (i, id) in ids.iter().enumerate() {
                let cadence = if i == sparse { sparse_cadence } else { 1 };
                for k in 0..appends {
                    let t = frontier + k as u64;
                    if !t.is_multiple_of(cadence) {
                        continue;
                    }
                    let v = noisy_series(1, 1.0, 0.1, value_seed ^ (i as u64) << 8 ^ t)[0];
                    store.append(id, t, v).unwrap();
                }
            }
            frontier += appends as u64;
            let w = warm.scan(&store, &ids, now, &context).unwrap();
            let c = cold.scan(&store, &ids, now, &context).unwrap();
            prop_assert_eq!(
                format!("{:?}|{:?}|{:?}", w.reports, w.funnel, w.health),
                format!("{:?}|{:?}|{:?}", c.reports, c.funnel, c.health),
                "streaming and cold scans diverged at now={}", now
            );
        }
        // The property is only meaningful if the engine actually tracked
        // the series rather than falling back to cold scans throughout.
        let stats = warm.streaming_stats().unwrap();
        prop_assert!(stats.tracked > 0 || stats.removed > 0);
    }

    #[test]
    fn streaming_engine_level_c_never_changes_a_scan_outcome(
        seeds in prop::collection::vec(0u64..1000, 2..5),
        steps in prop::collection::vec(0u64..4, 2..5),
        rounds in 2usize..6,
        noise_milli in 1u64..20,
    ) {
        // Level C refutes both detectors straight from rolling moments on
        // boundary rounds — no window build, no detector run. That shortcut
        // may only ever skip work: a warm pipeline whose online refuters
        // provably fired must produce the same reports, funnel, and health
        // as a cold pipeline on every round. Series 0 is exactly constant,
        // so at least one refutation is provable every boundary round and
        // the liveness assertion below cannot flake.
        let cfg = config(0.05);
        let store = TsdbStore::new();
        let mut ids = Vec::new();
        let noise = noise_milli as f64 / 1000.0;
        let mut frontier = 400u64;
        for (i, &seed) in seeds.iter().enumerate() {
            let mut values = if i == 0 {
                vec![1.0; frontier as usize]
            } else {
                noisy_series(frontier as usize, 1.0, noise, seed)
            };
            match steps.get(i).copied().unwrap_or(0) {
                1 if i > 0 => {
                    for v in values.iter_mut().skip(330) {
                        *v += 0.5;
                    }
                }
                2 if i > 0 => {
                    for v in values.iter_mut().skip(340).take(40) {
                        *v = f64::NAN;
                    }
                }
                _ => {}
            }
            let kind = if i % 2 == 0 { MetricKind::GCpu } else { MetricKind::Throughput };
            let id = SeriesId::new("svc", kind, format!("s{i}"));
            store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
            ids.push(id);
        }
        let mut warm = Pipeline::new(cfg.clone()).unwrap();
        let mut cold = Pipeline::new(cfg).unwrap();
        cold.set_streaming(false);
        let context = ScanContext::default();
        let mut now = frontier;
        for r in 0..rounds {
            // Every round is a boundary round: the watermark jumps a full
            // re-run interval and ingestion keeps the windows saturated, so
            // partition-equality reuse (Level A) can never fire and the
            // engine must advance online or fall back to a full scan.
            for (i, id) in ids.iter().enumerate() {
                for k in 0..40u64 {
                    let t = frontier + k;
                    let v = if i == 0 {
                        1.0
                    } else {
                        noisy_series(1, 1.0, noise, (r as u64) << 40 ^ (i as u64) << 8 ^ t)[0]
                    };
                    store.append(id, t, v).unwrap();
                }
            }
            frontier += 40;
            now += 40;
            let w = warm.scan(&store, &ids, now, &context).unwrap();
            let c = cold.scan(&store, &ids, now, &context).unwrap();
            prop_assert_eq!(
                format!("{:?}|{:?}|{:?}", w.reports, w.funnel, w.health),
                format!("{:?}|{:?}|{:?}", c.reports, c.funnel, c.health),
                "Level C scan diverged from cold at now={}", now
            );
        }
        let stats = warm.streaming_stats().unwrap();
        prop_assert!(
            stats.advanced_online >= rounds as u64,
            "Level C must fire for the constant series every boundary round: {:?}", stats
        );
    }

    #[test]
    fn compressed_store_never_changes_a_scan_outcome(
        seeds in prop::collection::vec(0u64..1000, 2..5),
        steps in prop::collection::vec(0u64..4, 2..5),
        seal_limit in 4u32..48,
        rounds in prop::collection::vec((0u64..3, 1usize..25, 0u64..12), 1..5),
    ) {
        // Gorilla-compressed storage may only change the representation,
        // never the bytes a scan sees: a streaming pipeline over a
        // compressed store must produce the same reports, funnel, and
        // health as a cold pipeline over a plain store holding the same
        // appends — across seals, appended tails, and NaN bursts.
        let cfg = config(0.05);
        let packed = TsdbStore::with_config(StoreConfig {
            seal_limit,
            shard_budget_bytes: None,
        });
        let plain = TsdbStore::new();
        let mut ids = Vec::new();
        let mut frontier = 400u64;
        for (i, &seed) in seeds.iter().enumerate() {
            let mut values = noisy_series(frontier as usize, 1.0, 0.1, seed);
            match steps.get(i).copied().unwrap_or(0) {
                1 => {
                    for v in values.iter_mut().skip(330) {
                        *v += 0.5;
                    }
                }
                2 => {
                    for v in values.iter_mut().skip(340).take(40) {
                        *v = f64::NAN;
                    }
                }
                _ => {}
            }
            let kind = if i % 2 == 0 { MetricKind::GCpu } else { MetricKind::Throughput };
            let id = SeriesId::new("svc", kind, format!("s{i}"));
            for (t, v) in values.iter().enumerate() {
                packed.append(&id, t as u64, *v).unwrap();
                plain.append(&id, t as u64, *v).unwrap();
            }
            ids.push(id);
        }
        let mut warm = Pipeline::new(cfg.clone()).unwrap();
        let mut cold = Pipeline::new(cfg).unwrap();
        cold.set_streaming(false);
        let context = ScanContext::default();
        let mut now = frontier;
        for &(advance, appends, value_seed) in &rounds {
            now += advance * 40;
            for (i, id) in ids.iter().enumerate() {
                for k in 0..appends {
                    let t = frontier + k as u64;
                    let v = noisy_series(1, 1.0, 0.1, value_seed ^ (i as u64) << 8 ^ t)[0];
                    packed.append(id, t, v).unwrap();
                    plain.append(id, t, v).unwrap();
                }
            }
            frontier += appends as u64;
            let w = warm.scan(&packed, &ids, now, &context).unwrap();
            let c = cold.scan(&plain, &ids, now, &context).unwrap();
            prop_assert_eq!(
                format!("{:?}|{:?}|{:?}", w.reports, w.funnel, w.health),
                format!("{:?}|{:?}|{:?}", c.reports, c.funnel, c.health),
                "compressed streaming and plain cold scans diverged at now={}", now
            );
        }
        // The comparison must actually have crossed sealed blocks.
        prop_assert!(packed.stats().sealed_blocks() > 0);
    }

    #[test]
    fn corrupt_block_in_a_reset_range_never_changes_a_scan_outcome(
        seeds in prop::collection::vec(0u64..1000, 2..4),
        victim in 0usize..16,
        cut_frac in 0.0f64..1.0,
        flip in (0u8..3, any::<usize>(), 0u8..8),
        appends in 0usize..40,
    ) {
        // A sealed block whose payload was truncated (and, two cases in
        // three, bit-flipped) in memory sits inside the range a Reset
        // decodes. The column decoder stops where the point decoder stops,
        // so engine on and engine off read the same points: neither may
        // panic (debug builds: nor overflow), and while the surviving
        // timestamps stay ordered — binary searches over disorder are
        // unspecified — every round's outcome must be identical.
        let cfg = config(0.05);
        let store = TsdbStore::with_config(StoreConfig {
            seal_limit: 32,
            shard_budget_bytes: None,
        });
        let mut ids = Vec::new();
        let mut frontier = 400u64;
        for (i, &seed) in seeds.iter().enumerate() {
            let mut values = noisy_series(frontier as usize, 1.0, 0.1, seed);
            if i == 1 {
                values.iter_mut().skip(330).for_each(|v| *v += 0.5);
            }
            let kind = if i % 2 == 0 { MetricKind::Throughput } else { MetricKind::GCpu };
            let id = SeriesId::new("svc", kind, format!("s{i}"));
            store.insert_series(id.clone(), TimeSeries::from_values(0, 1, &values));
            ids.push(id);
        }
        let mut series = store.get(&ids[0]).unwrap();
        let idx = victim % series.sealed_block_count();
        let block = series.sealed_blocks()[idx].clone();
        let mut bytes = block.payload().to_vec();
        bytes.truncate((bytes.len() as f64 * cut_frac) as usize);
        let (flip_sel, flip_pos, flip_bit) = flip;
        if flip_sel > 0 && !bytes.is_empty() {
            let pos = flip_pos % bytes.len();
            bytes[pos] ^= 1 << flip_bit;
        }
        series.replace_sealed_block(idx, block.with_payload(bytes));
        let ordered = series
            .iter()
            .zip(series.iter().skip(1))
            .all(|(a, b)| a.timestamp <= b.timestamp);
        prop_assert!(series.iter().count() < frontier as usize || flip_sel > 0 || cut_frac > 0.99);
        store.insert_series(ids[0].clone(), series);
        let mut warm = Pipeline::new(cfg.clone()).unwrap();
        let mut cold = Pipeline::new(cfg).unwrap();
        cold.set_streaming(false);
        let context = ScanContext {
            changelog: None,
            samples: None,
            graph: None,
            domain_providers: vec![],
        };
        for round in 0..2 {
            let w = warm.scan(&store, &ids, frontier, &context).unwrap();
            let c = cold.scan(&store, &ids, frontier, &context).unwrap();
            prop_assert_eq!((w.health.panicked, c.health.panicked), (0, 0));
            if ordered {
                prop_assert_eq!(
                    format!("{:?}|{:?}|{:?}", w.reports, w.funnel, w.health),
                    format!("{:?}|{:?}|{:?}", c.reports, c.funnel, c.health),
                    "engine on and off diverged in round {}", round
                );
            }
            // The second round folds an appended tail onto the state the
            // corrupt Reset built, one rerun interval later.
            for (i, id) in ids.iter().enumerate() {
                for t in frontier..frontier + appends as u64 {
                    store.append(id, t, noisy_series(1, 1.0, 0.1, (i as u64) << 8 ^ t)[0]).unwrap();
                }
            }
            frontier += 40;
        }
        prop_assert!(warm.streaming_stats().unwrap().resets >= seeds.len() as u64);
    }

    #[test]
    fn tail_incremental_windows_match_cold_extraction(
        seeds in prop::collection::vec(0u64..1000, 2..5),
        chunks in prop::collection::vec((1usize..90, 0u8..10), 3..8),
        seal_limit in 4u32..48,
    ) {
        // The streaming engine's tail-incremental path (decode only newly
        // sealed blocks plus the mutable head, partition with summary
        // counts) must yield windows byte-identical to a cold
        // `extract_windows` over the full series, round after round with
        // the watermark quantized to the rerun interval.
        let wcfg = WindowConfig {
            historic: 200,
            analysis: 80,
            extended: 40,
            rerun_interval: 40,
        };
        let store = TsdbStore::with_config(StoreConfig {
            seal_limit,
            shard_budget_bytes: None,
        });
        let ids: Vec<SeriesId> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| SeriesId::new("svc", MetricKind::GCpu, format!("s{i}")))
            .collect();
        let id_refs: Vec<&SeriesId> = ids.iter().collect();
        let mut engine = StreamingEngine::new(wcfg.clone());
        // Pre-fill one full span so the historic region is never empty:
        // every round from here on must take the scan (or reuse) path,
        // never the data-quality gate.
        let mut frontier = wcfg.total_span();
        for (id, &seed) in ids.iter().zip(&seeds) {
            for t in 0..frontier {
                store.append(id, t, noisy_series(1, 1.0, 0.3, seed ^ (t << 10))[0]).unwrap();
            }
        }
        let fingerprint = |w: &fbd_tsdb::WindowedData| {
            let bits: Vec<u64> = w.all().iter().map(|v| v.to_bits()).collect();
            (
                bits,
                w.historic_len(),
                w.analysis_len(),
                (
                    w.coverage.historic.to_bits(),
                    w.coverage.analysis.to_bits(),
                    w.coverage.extended.to_bits(),
                ),
            )
        };
        for (round, &(appends, burst_sel)) in chunks.iter().enumerate() {
            let nan_burst = burst_sel < 2;
            for (s, (id, &seed)) in ids.iter().zip(&seeds).enumerate() {
                for t in frontier..frontier + appends as u64 {
                    let v = if nan_burst && s == 0 && t % 5 == 0 {
                        f64::NAN
                    } else {
                        noisy_series(1, 1.0, 0.3, seed ^ (t << 10))[0]
                    };
                    store.append(id, t, v).unwrap();
                }
            }
            frontier += appends as u64;
            // Quantized watermark: rounds re-observe the same `now` until
            // the frontier crosses the next rerun boundary.
            let now = (frontier / wcfg.rerun_interval) * wcfg.rerun_interval;
            begin_round(&mut engine, &store, &id_refs, now);
            for id in &ids {
                match engine.prepare(id, 0.0, 0.0) {
                    fbdetect_core::scan_state::Prepared::Scan { windows, token } => {
                        let series = store.get(id).unwrap();
                        let cold = extract_windows(&series, &wcfg, now);
                        match cold {
                            Ok(cold) => {
                                prop_assert_eq!(
                                    fingerprint(&windows),
                                    fingerprint(&cold),
                                    "round {}: tail-incremental diverged at now={}",
                                    round,
                                    now
                                );
                            }
                            Err(e) => panic!("round {round}: cold extraction failed: {e}"),
                        }
                        engine.complete(
                            id,
                            token,
                            Some(fbdetect_core::scan_state::CachedScan::Ok {
                                short: None,
                                long: None,
                                partial: false,
                            }),
                            windows,
                        );
                    }
                    fbdetect_core::scan_state::Prepared::Reuse(_) => {
                        // Unchanged partitions at a held watermark: the
                        // reused outcome was checked when it was produced.
                    }
                    fbdetect_core::scan_state::Prepared::Fallback => {
                        panic!("round {round}: engine fell back for a tracked series")
                    }
                }
            }
        }
        let stats = engine.stats();
        prop_assert!(stats.scanned > 0, "no round ever exercised the scan path: {:?}", stats);
    }
}
