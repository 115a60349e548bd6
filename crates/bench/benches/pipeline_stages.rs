//! Criterion benchmarks of the pipeline's stage costs.
//!
//! The paper runs FBDetect on "capacity equivalent to hundreds of servers,
//! analyzing approximately 800,000 time series". These benches measure the
//! per-series cost of each stage so the ordering argument of §5.1 (fast
//! filters first) and the overall capacity claim can be sanity-checked.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fbd_cluster::som::{SelfOrganizingMap, SomConfig};
use fbd_fleet::spec::{Event, SeriesSpec};
use fbd_profiler::callgraph::uniform_service_graph;
use fbd_profiler::sample::TraceSampler;
use fbd_stats::sax::{encode, SaxConfig};
use fbd_stats::stl::{decompose, StlConfig};
use fbd_stats::{cusum, em};
use fbd_tsdb::window::extract_windows;
use fbd_tsdb::{
    DataPoint, MetricKind, SealedBlock, SeriesId, TimeRuns, TimeSeries, TsdbStore, WindowConfig,
    WindowedData,
};
use fbdetect_core::change_point::ChangePointDetector;
use fbdetect_core::config::{DetectorConfig, Threshold};
use fbdetect_core::types::{Regression, RegressionKind};
use fbdetect_core::went_away::{DecidedBy, WentAwayDetector};
use fbdetect_core::StreamingEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn step_series(len: usize) -> Vec<f64> {
    SeriesSpec::flat(len, 1.0, 0.05)
        .with_event(Event::Step {
            at: len * 3 / 4,
            delta: 0.3,
        })
        .generate(7)
        .unwrap()
}

fn windows_of(values: &[f64]) -> WindowedData {
    let h = values.len() * 2 / 3;
    let a = values.len() * 2 / 9;
    WindowedData::from_regions(
        &values[..h],
        &values[h..h + a],
        &values[h + a..],
        h as u64 * 60,
        (h + a) as u64 * 60,
    )
}

fn regression_of(values: &[f64]) -> Regression {
    let w = windows_of(values);
    let cp = values.len() * 3 / 4 - 1;
    Regression {
        series: SeriesId::new("svc", MetricKind::GCpu, "x"),
        kind: RegressionKind::ShortTerm,
        change_index: cp,
        change_time: cp as u64 * 60,
        mean_before: 1.0,
        mean_after: 1.3,
        windows: w,
        root_cause_candidates: vec![],
    }
}

fn bench_stages(c: &mut Criterion) {
    let values = step_series(900);
    let windows = windows_of(&values);
    let config = DetectorConfig::new(
        "bench",
        fbd_tsdb::WindowConfig {
            historic: 600 * 60,
            analysis: 200 * 60,
            extended: 100 * 60,
            rerun_interval: 100 * 60,
        },
        Threshold::Absolute(0.1),
    );
    let sid = SeriesId::new("svc", MetricKind::GCpu, "x");

    c.bench_function("cusum_change_point_900", |b| {
        b.iter(|| cusum::detect_change_point(&values).unwrap())
    });
    c.bench_function("em_fit_two_segment_900", |b| {
        b.iter(|| em::fit_two_segment(&values, 50).unwrap())
    });
    let detector = ChangePointDetector::from_config(&config);
    c.bench_function("change_point_detector_full_900", |b| {
        b.iter(|| detector.detect(&sid, &windows, 54_000).unwrap())
    });
    let went_away = WentAwayDetector::from_config(&config);
    let regression = regression_of(&values);
    c.bench_function("went_away_evaluate_900", |b| {
        b.iter(|| went_away.evaluate(&regression).unwrap())
    });
    // The three ways a candidate leaves the lazy predicate, at the 600/200/100
    // window split with the change 50 samples into the analysis window: a
    // transient exits at the gone-away tail check, a persistent step and a
    // still-rising one go all the way to the trend term (the latter through
    // Theil-Sen on both windows).
    for (name, shape, decided_by) in [
        ("transient", (|i| if i < 100 { 0.2 } else { 0.0 }) as fn(usize) -> f64, DecidedBy::GoneAway),
        ("persistent", |_| 0.08, DecidedBy::Lasting),
        ("rising", |i| 0.04 + 0.06 * i as f64 / 250.0, DecidedBy::Lasting),
    ] {
        let mut values = SeriesSpec::flat(900, 1.0, 0.05).generate(7).unwrap();
        for (i, v) in values[650..].iter_mut().enumerate() {
            *v += shape(i);
        }
        let mut candidate = regression_of(&values);
        candidate.change_index = 649;
        candidate.mean_after = 1.0 + shape(0);
        assert_eq!(went_away.evaluate(&candidate).unwrap().decided_by, decided_by, "{name}");
        c.bench_function(&format!("went_away/{name}"), |b| {
            b.iter(|| went_away.evaluate(&candidate).unwrap())
        });
    }
    c.bench_function("sax_encode_900", |b| {
        b.iter(|| encode(&values, SaxConfig::default()).unwrap())
    });
    c.bench_function("stl_decompose_900_period24", |b| {
        b.iter(|| decompose(&values, StlConfig::for_period(24)).unwrap())
    });
    // SOM over a realistic dedup batch.
    let features: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            (0..9)
                .map(|j| ((i * 31 + j * 7) % 97) as f64 + (i / 64) as f64 * 100.0)
                .collect()
        })
        .collect();
    c.bench_function("som_train_assign_256x9", |b| {
        b.iter(|| {
            let som = SelfOrganizingMap::train(&features, SomConfig::default()).unwrap();
            som.assign(&features).unwrap()
        })
    });
    // Stack sampling throughput.
    let graph = uniform_service_graph(1_000, 1.0).unwrap();
    let sampler = TraceSampler::new(&graph).unwrap();
    c.bench_function("stack_sampling_1k_traces", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut rng| sampler.sample_n(&mut rng, 1_000, 0, 0),
            BatchSize::SmallInput,
        )
    });
}

/// Scan hot-path kernels at the sizes the capacity argument leans on:
/// a dedup batch (256), the standard suite series (900), and a long
/// high-resolution series (4096). `fit_two_segment` is O(n + radius·iters)
/// on prefix sums, windowing is a single contiguous copy out of the store,
/// and `spectral_features` runs on the O(n log n) FFT.
fn bench_hot_path_sizes(c: &mut Criterion) {
    for &n in &[256usize, 900, 4096] {
        let values = step_series(n);
        c.bench_function(&format!("hot/fit_two_segment/{n}"), |b| {
            b.iter(|| em::fit_two_segment(&values, 50).unwrap())
        });
        let series = TimeSeries::from_values(0, 60, &values);
        let h = n as u64 * 2 / 3;
        let a = n as u64 * 2 / 9;
        let cfg = WindowConfig {
            historic: h * 60,
            analysis: a * 60,
            extended: (n as u64 - h - a) * 60,
            rerun_interval: a * 60,
        };
        let now = n as u64 * 60;
        c.bench_function(&format!("hot/extract_windows/{n}"), |b| {
            b.iter(|| extract_windows(&series, &cfg, now).unwrap())
        });
        c.bench_function(&format!("hot/spectral_features/{n}"), |b| {
            b.iter(|| fbd_stats::fourier::spectral_features(&values, 3).unwrap())
        });
    }
}

/// Fast/naive pairs for the long_term and went_away stage kernels at the
/// sizes the capacity argument leans on. Each fast kernel is benchmarked
/// next to its reference twin so the complexity claims in DESIGN.md
/// (Wiener–Khinchin ACF, inversion-counting Mann-Kendall, selection
/// Theil-Sen, folded-kernel and sliding-regression Loess) stay observable,
/// not folklore.
fn bench_stage_kernels(c: &mut Criterion) {
    // long_term trend extraction at the windows the detectors use: the
    // no-seasonality fallback (`TREND_FRACTION` 0.1 of the series) and STL's
    // `(3p/2)|1` trend window at period 24. Uniform weights dispatch to the
    // folded kernels at all three sizes; `loess_fft_pays_off` is calibrated
    // on these cases.
    for &(n, window) in &[(900usize, 90usize), (900, 37), (4096, 410)] {
        let values = step_series(n);
        let ones = vec![1.0; n];
        // `ceil(fraction·n)` lands on `window` from half a sample below.
        let fraction = (window as f64 - 0.5) / n as f64;
        c.bench_function(&format!("kernel/loess_folded/{n}_{window}"), |b| {
            b.iter(|| fbd_stats::stl::loess_smooth_windowed(&values, window, &ones).unwrap())
        });
        c.bench_function(&format!("kernel/loess_naive/{n}_{window}"), |b| {
            b.iter(|| fbd_stats::stl::loess_smooth_naive(&values, fraction, &ones).unwrap())
        });
        c.bench_function(&format!("kernel/loess_fft/{n}_{window}"), |b| {
            b.iter(|| fbd_stats::stl::loess_smooth_fft(&values, fraction, &ones).unwrap())
        });
    }

    for &n in &[256usize, 900, 4096] {
        let values = step_series(n);

        // went_away trend tests: Mann-Kendall on the post-change window.
        c.bench_function(&format!("kernel/mann_kendall_fast/{n}"), |b| {
            b.iter(|| fbd_stats::trend::mann_kendall(&values, 0.05).unwrap())
        });
        c.bench_function(&format!("kernel/mann_kendall_naive/{n}"), |b| {
            b.iter(|| fbd_stats::trend::mann_kendall_naive(&values, 0.05).unwrap())
        });

        // went_away slope test: Theil-Sen. Both variants generate all O(n²)
        // pairwise slopes; the naive twin then sorts them, which at n=4096
        // is ~8M elements per iteration — too slow for a smoke bench, so
        // the reference is pinned at the two smaller sizes only.
        c.bench_function(&format!("kernel/theil_sen_select/{n}"), |b| {
            b.iter(|| fbd_stats::trend::theil_sen(&values).unwrap())
        });
        if n <= 900 {
            c.bench_function(&format!("kernel/theil_sen_sort/{n}"), |b| {
                b.iter(|| fbd_stats::trend::theil_sen_naive(&values).unwrap())
            });
        }

        // All-lags ACF, as used by seasonality search over wide lag ranges.
        let max_lag = n - 2;
        c.bench_function(&format!("kernel/acf_fft_all_lags/{n}"), |b| {
            b.iter(|| fbd_stats::acf::acf_fft(&values, max_lag).unwrap())
        });
        c.bench_function(&format!("kernel/acf_naive_all_lags/{n}"), |b| {
            b.iter(|| fbd_stats::acf::acf_naive(&values, max_lag).unwrap())
        });

        // went_away full stage at each size.
        let config = DetectorConfig::new(
            "bench",
            fbd_tsdb::WindowConfig {
                historic: n as u64 * 2 / 3 * 60,
                analysis: n as u64 * 2 / 9 * 60,
                extended: (n as u64 - n as u64 * 2 / 3 - n as u64 * 2 / 9) * 60,
                rerun_interval: n as u64 * 2 / 9 * 60,
            },
            Threshold::Absolute(0.1),
        );
        let went_away = WentAwayDetector::from_config(&config);
        let regression = regression_of(&values);
        c.bench_function(&format!("kernel/went_away_evaluate/{n}"), |b| {
            b.iter(|| went_away.evaluate(&regression).unwrap())
        });
    }

    // The long_term stage with and without the O(n) flat-series prefilter,
    // on the flat series the prefilter is built to skip.
    let n = 900usize;
    let flat = SeriesSpec::flat(n, 1.0, 0.05).generate(7).unwrap();
    let config = DetectorConfig::new(
        "bench",
        fbd_tsdb::WindowConfig {
            historic: 600 * 60,
            analysis: 200 * 60,
            extended: 100 * 60,
            rerun_interval: 100 * 60,
        },
        Threshold::Absolute(0.1),
    );
    let detector = fbdetect_core::long_term::LongTermDetector::from_config(&config);
    let sid = SeriesId::new("svc", MetricKind::GCpu, "x");
    let windows = windows_of(&flat);
    c.bench_function("kernel/long_term_prefiltered/900_flat", |b| {
        b.iter(|| detector.detect(&sid, &windows, 54_000).unwrap())
    });
    c.bench_function("kernel/long_term_full_stl/900_flat", |b| {
        b.iter(|| detector.detect_without_prefilter(&sid, &windows, 54_000).unwrap())
    });

    // The streaming engine's first look at a series: `Reset` deltas decoded
    // straight from sealed blocks into the columnar state, 64 series of 900
    // points per iteration. `regular` is the production cadence (one
    // timestamp run per series); `irregular` jitters every gap, the run
    // list's worst case (one run per point).
    for (name, jitter) in [("regular", 0u64), ("irregular", 7)] {
        let store = TsdbStore::new();
        let ids: Vec<SeriesId> = (0..64)
            .map(|i| SeriesId::new("svc", MetricKind::GCpu, format!("s{i}")))
            .collect();
        for (s, id) in ids.iter().enumerate() {
            for (i, v) in SeriesSpec::flat(n, 1.0, 0.05).generate(s as u64).unwrap().iter().enumerate() {
                let t = i as u64 * 60 + (i as u64 * 2_654_435_761 % (jitter + 1));
                store.append(id, t, *v).unwrap();
            }
        }
        let mut by_shard: Vec<Vec<&SeriesId>> = vec![Vec::new(); TsdbStore::shard_count()];
        for id in &ids {
            by_shard[TsdbStore::shard_of(id)].push(id);
        }
        c.bench_function(&format!("engine/reset_ingest/{name}_900"), |b| {
            b.iter(|| {
                let mut engine = StreamingEngine::new(config.windows);
                engine.round_prologue(54_000);
                for (shard, ids) in by_shard.iter().enumerate() {
                    engine.ingest_shard(&store, shard, ids, 54_000);
                }
                engine.finish_round();
                engine
            })
        });
    }

    // The bulk column decoder over one default-sized sealed block.
    let points: Vec<DataPoint> = SeriesSpec::flat(128, 1.0, 0.05)
        .generate(7)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(i, v)| DataPoint::new(i as u64 * 60, *v))
        .collect();
    let block = SealedBlock::from_points(&points);
    c.bench_function("block/decode_columns/128", |b| {
        let mut values = Vec::with_capacity(128);
        b.iter(|| {
            values.clear();
            let mut times = TimeRuns::new();
            block.decode_columns(0, &mut times, &mut values);
            times
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stages, bench_hot_path_sizes, bench_stage_kernels
}
criterion_main!(benches);
