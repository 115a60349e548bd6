//! Scheduler rounds over a compressed store: each round appends fresh
//! points, quantizes the scan watermark to the re-run interval and scans.
//! The streaming engine may only skip work — every round's reports, funnel
//! and health must match an engine-off run byte for byte — and the reuse
//! counters must show that each shortcut (outcome replay, fault gates,
//! block summaries) actually carried rounds, alone and with an
//! `IngestPipeline` appending to the same store from other threads. The speed of these
//! rounds is perfbench's `steady_rounds` and `ingest_under_scan`; this
//! file pins only behaviour.

use fbdetect::core::{report, DetectorConfig, EngineStats, Pipeline, ScanContext, Threshold};
use fbdetect::fleet::scenarios::{labelled_suite, LabelledSeries, SuiteConfig};
use fbdetect::ingest::{encode_batch, IngestConfig, IngestPipeline, QuotaConfig, SampleBatch};
use fbdetect::tsdb::{
    MetricKind, SeriesId, StoreStats, TimeSeries, TsdbStore, WindowConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

const SERIES: usize = 100;
const LEN: usize = 900;
const CADENCE: u64 = 60;
/// Scan time covering the whole freshly loaded suite.
const START: u64 = LEN as u64 * CADENCE;
const ROUNDS: usize = 12;
/// Rounds before the engine's buffers are expected to have stopped growing.
const WARMUP: usize = 4;
const NOISE_STD: f64 = 0.002;

/// A production-like mix: mostly quiet, a quarter transients, a few
/// seasonal series and one true regression.
fn suite() -> Vec<LabelledSeries> {
    let config = SuiteConfig {
        clean: SERIES * 7 / 10,
        regressions: SERIES / 100,
        gradual: 0,
        transients: SERIES / 4,
        seasonal: SERIES / 25,
        len: LEN,
        change_fraction: 0.75,
        relative_magnitude_range: (0.01, 0.2),
        base: 1.0,
        noise_std: NOISE_STD,
    };
    labelled_suite(&config, 777).unwrap()
}

fn load(suite: &[LabelledSeries]) -> (Arc<TsdbStore>, Vec<SeriesId>) {
    let store = TsdbStore::new();
    let ids: Vec<SeriesId> = (0..suite.len())
        .map(|i| SeriesId::new("svc", MetricKind::GCpu, format!("s{i:05}")))
        .collect();
    for (id, s) in ids.iter().zip(suite) {
        store.insert_series(id.clone(), TimeSeries::from_values(0, CADENCE, &s.values));
    }
    (Arc::new(store), ids)
}

fn pipeline(streaming: bool) -> Pipeline {
    let total = LEN as u64 * CADENCE;
    let windows = WindowConfig {
        historic: total * 2 / 3,
        analysis: total * 2 / 9,
        extended: total / 9,
        rerun_interval: total / 9,
    };
    let config = DetectorConfig::new("rounds", windows, Threshold::Absolute(0.01));
    let mut pipeline = Pipeline::new(config).unwrap();
    pipeline.set_streaming(streaming);
    pipeline
}

/// The level appended points continue a series at: the median of its
/// trailing 128 samples, robust to a transient overlapping the tail.
fn continuation_levels(suite: &[LabelledSeries]) -> Vec<f64> {
    suite
        .iter()
        .map(|s| {
            let mut tail = s.values[LEN - 128..].to_vec();
            tail.sort_by(f64::total_cmp);
            (tail[63] + tail[64]) / 2.0
        })
        .collect()
}

/// The value series `i` takes at time `t` past the suite: its level plus
/// deterministic uniform noise of the suite's own standard deviation, so a
/// clean series stays clean and boundary rounds are not flooded with
/// genuine variance-change candidates no engine may skip.
fn continuation_value(level: f64, i: usize, t: u64) -> f64 {
    let mut z = t ^ ((i as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    level + unit * 2.0 * NOISE_STD * 3.0f64.sqrt()
}

/// Points series `i` receives in `round`, in `[16, 45]`: the re-run
/// interval is 100 samples, so the watermark jumps about every third round
/// and holds in between.
fn appends_for(i: usize, round: usize) -> usize {
    16 + (i * 7 + round * 13) % 30
}

/// What one pass over the round schedule observed.
struct RoundsRun {
    /// Reports, funnel and health of every round, in round order.
    fingerprints: Vec<String>,
    /// Rounds after warm-up whose watermark held / jumped.
    held: usize,
    boundaries: usize,
    /// `buffer_growth` accumulated over the held rounds after warm-up.
    held_growth: u64,
    /// Went-away verdicts replayed with their candidate, over all rounds
    /// and over the held rounds after warm-up.
    replayed: u64,
    held_replayed: u64,
    engine: Option<EngineStats>,
    store: StoreStats,
}

/// Runs the append-then-scan schedule with one persistent pipeline, the
/// same shape as `multi_round_fingerprint` in `tests/determinism.rs`:
/// appends always land at or past the watermark, which trails the slowest
/// series quantized to re-run boundaries.
fn run_rounds(streaming: bool) -> RoundsRun {
    let suite = suite();
    let (store, ids) = load(&suite);
    let levels = continuation_levels(&suite);
    let mut pipeline = pipeline(streaming);
    let rerun = pipeline.config().windows.rerun_interval;
    let mut frontier = vec![START; ids.len()];
    let mut now = START;
    let mut fingerprints = Vec::new();
    let (mut held, mut boundaries, mut held_growth, mut held_replayed) = (0, 0, 0, 0);
    let (mut growth_before, mut replayed_before) = (0, 0);
    for round in 0..ROUNDS {
        for (i, id) in ids.iter().enumerate() {
            for _ in 0..appends_for(i, round) {
                let t = frontier[i];
                store
                    .append(id, t, continuation_value(levels[i], i, t))
                    .unwrap();
                frontier[i] += CADENCE;
            }
        }
        let slowest = frontier.iter().copied().min().unwrap();
        let quantized = slowest / rerun * rerun;
        let moved = quantized > now;
        now = now.max(quantized);

        let out = pipeline
            .scan(&store, &ids, now, &ScanContext::default())
            .unwrap();
        fingerprints.push(format!(
            "== round {round} now {now}\n{}funnel: {:?}\nhealth: {:?}\n",
            report::render_batch(&out.reports, None),
            out.funnel,
            out.health
        ));
        let growth = pipeline.streaming_stats().map_or(0, |s| s.buffer_growth);
        let replayed = pipeline.went_away_stats().replayed;
        if round >= WARMUP {
            if moved {
                boundaries += 1;
            } else {
                held += 1;
                held_growth += growth - growth_before;
                held_replayed += replayed - replayed_before;
            }
        }
        growth_before = growth;
        replayed_before = replayed;
    }
    RoundsRun {
        fingerprints,
        held,
        boundaries,
        held_growth,
        replayed: pipeline.went_away_stats().replayed,
        held_replayed,
        engine: pipeline.streaming_stats(),
        store: store.stats(),
    }
}

#[test]
fn streaming_rounds_match_cold_rounds_and_every_reuse_level_fires() {
    let on = run_rounds(true);
    let off = run_rounds(false);
    for (round, (a, b)) in on.fingerprints.iter().zip(&off.fingerprints).enumerate() {
        assert_eq!(a, b, "round {round}: streaming and cold scans diverged");
    }
    assert!(
        on.held > 0 && on.boundaries > 1,
        "schedule needs held and boundary rounds after warm-up: {} held, {} boundary",
        on.held,
        on.boundaries
    );

    let engine = on.engine.expect("streaming run keeps engine counters");
    // Once warm, held rounds recycle the shards' window scratch; boundary
    // rounds may still grow it, but never past one growth per series.
    assert_eq!(
        on.held_growth, 0,
        "window buffers grew on held rounds after warm-up"
    );
    assert!(engine.buffer_growth <= SERIES as u64, "{engine:?}");
    assert!(
        engine.reused_full > 0,
        "no held round replayed a cached outcome: {engine:?}"
    );
    // Boundary rounds run the detectors, whose own pre-filters refute the
    // quiet series: the deleted online refuters' counters stay at zero.
    assert_eq!(
        (engine.advanced_online, engine.online_fallbacks),
        (0, 0),
        "{engine:?}"
    );
    assert!(engine.summary_hits > 0, "{engine:?}");
    // A held round replays a candidate together with the filters' verdict
    // on it; without the engine every round re-evaluates the filters.
    assert!(on.held_replayed > 0, "no held round replayed a filter verdict");
    assert_eq!(off.replayed, 0, "the engine-off path has nothing to replay from");
    // The engine's first-look copies and the tails that cross a fresh seal
    // decode sealed blocks.
    assert!(
        on.store.blocks_decoded() > 0,
        "streaming rounds decoded no sealed block"
    );
}

/// Samples per series per wire batch: the batch's time span
/// (`8 × CADENCE = 480 s`) stays inside the validator's default 900 s late
/// slack, so punctual data is never misread as late.
const WIRE_SAMPLES: usize = 8;

/// An ingest front-end that replays rather than polices: the quota bucket
/// never empties, so clean punctual data must land in full.
fn replay_pipeline(store: &Arc<TsdbStore>) -> IngestPipeline {
    let config = IngestConfig {
        quota: QuotaConfig {
            burst: u64::MAX / 2,
            points_per_sec: 0,
        },
        ..IngestConfig::default()
    };
    IngestPipeline::new(Arc::clone(store), config)
}

/// Sends `columns[i]` — values for `ids[i]`, sample `j` at
/// `t0 + j·CADENCE` — through wire encode → decode → validate → quota →
/// sharded append, `WIRE_SAMPLES` samples of every series per batch.
fn submit_wire(pipeline: &IngestPipeline, ids: &[SeriesId], t0: u64, columns: &[Vec<f64>]) {
    let len = columns.iter().map(Vec::len).max().unwrap_or(0);
    for lo in (0..len).step_by(WIRE_SAMPLES) {
        let hi = (lo + WIRE_SAMPLES).min(len);
        let mut batch = SampleBatch::new("bench", t0 + hi as u64 * CADENCE);
        for (id, column) in ids.iter().zip(columns) {
            for (j, &value) in column.iter().enumerate().take(hi).skip(lo) {
                batch.push(id, t0 + j as u64 * CADENCE, value).unwrap();
            }
        }
        pipeline.submit(encode_batch(&batch).unwrap()).unwrap();
    }
}

#[test]
fn ingest_built_store_matches_direct() {
    let config = SuiteConfig {
        clean: 3,
        regressions: 1,
        gradual: 0,
        transients: 1,
        seasonal: 0,
        len: 120,
        ..Default::default()
    };
    let suite = labelled_suite(&config, 9).unwrap();
    let (direct, ids) = load(&suite);
    let wired = Arc::new(TsdbStore::new());
    let pipeline = replay_pipeline(&wired);
    let columns: Vec<Vec<f64>> = suite.iter().map(|s| s.values.clone()).collect();
    submit_wire(&pipeline, &ids, 0, &columns);
    let stats = pipeline.finish();
    assert!(stats.is_accounted(), "{stats:?}");
    assert_eq!(
        stats.points_appended, stats.points_submitted,
        "clean data was shed: {stats:?}"
    );

    assert_eq!(direct.series_ids(), wired.series_ids());
    for id in &ids {
        let a = direct.get(id).unwrap();
        let b = wired.get(id).unwrap();
        assert_eq!(a.len(), b.len(), "{id:?}");
        for (pa, pb) in a.iter().zip(b.iter()) {
            assert_eq!(pa.timestamp, pb.timestamp, "{id:?}");
            assert_eq!(pa.value.to_bits(), pb.value.to_bits(), "{id:?}");
        }
    }
}

#[test]
fn streaming_rounds_keep_reusing_while_ingest_appends() {
    let suite = suite();
    let (store, ids) = load(&suite);
    let levels = continuation_levels(&suite);
    let ingest = replay_pipeline(&store);
    let stop = AtomicBool::new(false);

    let (scan_rounds, engine) = std::thread::scope(|scope| {
        let (round_done, rounds_done) = mpsc::channel();
        let (store, ids, stop) = (&store, &ids, &stop);
        // The scanner holds the watermark (ingest lands past it), so every
        // round after the first is a replay under concurrent writes.
        let scanner = scope.spawn(move || {
            let mut pipeline = pipeline(true);
            let mut rounds = 0usize;
            loop {
                let stopping = stop.load(Ordering::SeqCst);
                let out = pipeline
                    .scan(store, ids, START, &ScanContext::default())
                    .expect("scan must survive concurrent ingest");
                assert_eq!(
                    out.health.panicked, 0,
                    "detector panicked under ingest load"
                );
                rounds += 1;
                // A failed send means the pump panicked and dropped its
                // receiver: stop too, so the scope can unwind.
                if round_done.send(()).is_err() || stopping {
                    return (rounds, pipeline.streaming_stats().unwrap());
                }
            }
        });

        // The pump: one wave per round, each submitted while a scan is in
        // flight — it waits for a scan round to finish before the next.
        let mut t0 = START;
        for round in 0..ROUNDS {
            // Every series gets series 0's count, so the wave's timestamps
            // stay aligned and inside the validator's late slack.
            let wave = appends_for(0, round);
            let columns: Vec<Vec<f64>> = (0..ids.len())
                .map(|i| {
                    (0..wave)
                        .map(|j| continuation_value(levels[i], i, t0 + j as u64 * CADENCE))
                        .collect()
                })
                .collect();
            submit_wire(&ingest, ids, t0, &columns);
            t0 += wave as u64 * CADENCE;
            rounds_done.recv().expect("scanner thread alive");
        }
        ingest.drain();
        stop.store(true, Ordering::SeqCst);
        scanner.join().expect("scanner thread")
    });

    let stats = ingest.finish();
    assert!(stats.is_accounted(), "accounting broken: {stats:?}");
    assert_eq!(stats.decode_errors, 0, "{stats:?}");
    assert_eq!(stats.quota_shed_points, 0, "{stats:?}");
    assert_eq!(stats.points_appended, stats.points_submitted, "{stats:?}");
    assert!(
        scan_rounds > ROUNDS,
        "scanner completed {scan_rounds} rounds"
    );
    assert!(
        engine.reused_full > 0,
        "engine reuse died under concurrent ingest: {engine:?}"
    );
}
