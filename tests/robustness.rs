//! Robustness: malformed or degenerate monitoring data must never panic
//! the pipeline — production collectors emit NaNs, gaps, constant series,
//! and empty series all the time.

use fbdetect::core::{DetectorConfig, Pipeline, ScanContext, Threshold};
use fbdetect::tsdb::{MetricKind, SeriesId, TimeSeries, TsdbStore, WindowConfig};

fn config() -> DetectorConfig {
    DetectorConfig::new(
        "robust",
        WindowConfig {
            historic: 300,
            analysis: 100,
            extended: 50,
            rerun_interval: 50,
        },
        Threshold::Absolute(0.1),
    )
}

fn id(target: &str) -> SeriesId {
    SeriesId::new("svc", MetricKind::GCpu, target)
}

#[test]
fn nan_and_infinite_values_are_skipped_not_fatal() {
    let store = TsdbStore::new();
    let mut values: Vec<f64> = (0..450).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect();
    values[100] = f64::NAN;
    values[300] = f64::INFINITY;
    values[410] = f64::NEG_INFINITY;
    store.insert_series(id("glitchy"), TimeSeries::from_values(0, 1, &values));
    // A healthy series with a real regression alongside it.
    let healthy: Vec<f64> = (0..450)
        .map(|i| if i >= 380 { 1.5 } else { 1.0 } + (i % 5) as f64 * 0.01)
        .collect();
    store.insert_series(id("healthy"), TimeSeries::from_values(0, 1, &healthy));
    let mut pipeline = Pipeline::new(config()).unwrap();
    let out = pipeline
        .scan(
            &store,
            &[id("glitchy"), id("healthy")],
            450,
            &ScanContext::default(),
        )
        .unwrap();
    // The glitchy series is skipped; the healthy one is still detected.
    assert_eq!(out.reports.len(), 1);
    assert_eq!(out.reports[0].series.target, "healthy");
}

#[test]
fn constant_series_is_harmless() {
    let store = TsdbStore::new();
    store.insert_series(id("flat"), TimeSeries::from_values(0, 1, &[2.0; 450]));
    let mut pipeline = Pipeline::new(config()).unwrap();
    let out = pipeline
        .scan(&store, &[id("flat")], 450, &ScanContext::default())
        .unwrap();
    assert!(out.reports.is_empty());
    assert_eq!(out.funnel.change_points, 0);
}

#[test]
fn flat_series_under_a_relative_threshold_is_not_a_detector_error() {
    // A relative threshold cannot refute a baseline of zero or below, so a
    // flat series reaches the long-term path's seasonality search; a
    // zero-variance window has no period there, not a detector error that
    // lands the series in quarantine on the next scan. A constant
    // throughput series is negated by orientation, so it is the negative
    // case whatever its value.
    let cases = [
        SeriesId::new("svc", MetricKind::GCpu, "zero"),
        SeriesId::new("svc", MetricKind::GCpu, "negative"),
        SeriesId::new("svc", MetricKind::Throughput, "qps"),
    ];
    let values = [0.0, -2.0, 5.0];
    for (series, value) in cases.iter().zip(values) {
        let store = TsdbStore::new();
        store.insert_series(series.clone(), TimeSeries::from_values(0, 1, &[value; 500]));
        let mut cfg = config();
        cfg.threshold = Threshold::Relative(0.05);
        let mut pipeline = Pipeline::new(cfg).unwrap();
        for now in [450, 500] {
            let out = pipeline
                .scan(
                    &store,
                    std::slice::from_ref(series),
                    now,
                    &ScanContext::default(),
                )
                .unwrap();
            let what = format!("{} at {now}", series.target);
            assert!(out.reports.is_empty(), "{what}: reported");
            assert_eq!(out.health.errored, 0, "{what}: errored");
            assert_eq!(out.health.series_quarantined, 0, "{what}: quarantined");
            assert_eq!(out.health.series_scanned, 1, "{what}: not scanned");
        }
    }
}

#[test]
fn short_and_empty_series_are_skipped() {
    let store = TsdbStore::new();
    store.insert_series(id("tiny"), TimeSeries::from_values(0, 1, &[1.0, 2.0]));
    store.insert_series(id("empty"), TimeSeries::new());
    // A series entirely inside the historic region (no analysis data).
    store.insert_series(id("stale"), TimeSeries::from_values(0, 1, &[1.0; 50]));
    let mut pipeline = Pipeline::new(config()).unwrap();
    let out = pipeline
        .scan(
            &store,
            &[id("tiny"), id("empty"), id("stale"), id("missing")],
            450,
            &ScanContext::default(),
        )
        .unwrap();
    assert!(out.reports.is_empty());
}

#[test]
fn extreme_magnitudes_do_not_overflow() {
    let store = TsdbStore::new();
    let values: Vec<f64> = (0..450)
        .map(|i| if i >= 380 { 1e15 } else { 1e-15 })
        .collect();
    store.insert_series(id("extreme"), TimeSeries::from_values(0, 1, &values));
    let mut pipeline = Pipeline::new(config()).unwrap();
    // Must not panic; whether it reports is secondary.
    let out = pipeline
        .scan(&store, &[id("extreme")], 450, &ScanContext::default())
        .unwrap();
    for r in &out.reports {
        assert!(r.magnitude().is_finite());
    }
}

#[test]
fn gaps_in_sampling_are_tolerated() {
    let store = TsdbStore::new();
    let series_id = id("gappy");
    // Data exists only every 10th second, with a long outage mid-window.
    for t in (0..450u64).step_by(10) {
        if (200..260).contains(&t) {
            continue; // Collector outage.
        }
        let v = if t >= 380 { 1.4 } else { 1.0 };
        store.append(&series_id, t, v).unwrap();
    }
    let mut pipeline = Pipeline::new(config()).unwrap();
    let out = pipeline
        .scan(
            &store,
            std::slice::from_ref(&series_id),
            450,
            &ScanContext::default(),
        )
        .unwrap();
    // The step is still found despite the gaps.
    assert_eq!(out.reports.len(), 1, "funnel = {:?}", out.funnel);
}
