//! `ingest_under_scan`: one generator thread feeds wire batches through the
//! staged `IngestPipeline` into a budgeted compressed store (eviction is
//! live) while one scanner thread runs a streaming scan round on a fixed
//! open-loop schedule. Phase A is a closed loop (blocking `submit`:
//! goodput); phase B is an open loop at a fixed offered rate
//! (`submit_or_shed`, each batch timed from its due time). A deterministic
//! 1 % of batches are truncated and 1 % of points are late; the loss
//! buckets must show exactly what was planted.
//!
//! The only workload where the `fbd-ingest` stages, `fbd-tsdb`
//! append/seal/evict and reader-vs-writer shard-lock interplay dominate: it
//! uses `fbd-tsdb` as a writer where `cold_scan` uses it as a reader.

use super::{report_reuse, report_stages, scan_failures, timed_setup, RunArgs, RunResult, Samples, StealWatch};
use crate::golden;
use crate::inputs::{
    continuation_levels, load_suite, mix_config, production_mix, suite_fingerprint, wire_fingerprint, Planted, WireGen,
    MIX_SCAN_TIME,
};
use crate::layers::{probe_blocks, probe_ingest_stages, probe_snapshot_deltas, probe_stats_kernels};
use crate::openloop::{wait_until, OpenLoop};
use crate::stats::{percentile, share, summarize};
use crate::trace::Tracer;
use fbd_ingest::pipeline::{IngestConfig, IngestPipeline, IngestStats};
use fbd_ingest::quota::QuotaConfig;
use fbd_tsdb::{SeriesId, StoreConfig, TsdbStore};
use fbdetect_core::scan_cache::CacheStats;
use fbdetect_core::{EngineStats, Pipeline, ScanContext, StageNanos};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERIES: usize = 2_000;
const QUICK_SERIES: usize = 200;
/// The scanner's open-loop period.
const SCAN_PERIOD: Duration = Duration::from_millis(250);
/// Phase B's fixed offered load, points per second.
const OFFERED_POINTS_PER_S: f64 = 400_000.0;
/// Per-shard budget as a multiple of the loaded store's per-shard size:
/// room for one and a half detection spans, then eviction keeps up with
/// ingest.
const BUDGET_FACTOR: f64 = 1.5;
/// The store's fixed shard count (`TsdbStore::shard_of` is modulo this).
const SHARDS: usize = 16;
/// Batches hashed into the input fingerprint and replayed by the probes.
const FINGERPRINT_BATCHES: usize = 16;
/// Share of the run spent in each phase; the rest is drains and joins.
const PHASE_SHARE: f64 = 0.48;
/// Phase A's goodput is sampled over windows of this length.
const GOODPUT_WINDOW: Duration = Duration::from_millis(500);

/// Scanner rounds due this early are warm-up: the cold first scan of the
/// loaded store takes about a second and delays the rounds behind it.
const SCANNER_WARMUP: Duration = Duration::from_millis(1_500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    ClosedLoop,
    OpenLoop,
    /// Warm-up, or the drain between the phases.
    Neither,
}

/// One scanner round: when it was due (ns since the epoch, which places it
/// in a phase) and its latency from that due time.
struct ScanRound {
    due_ns: u64,
    latency_ms: f64,
    /// The hypervisor took CPU time from the VM between due time and end.
    stolen: bool,
}

struct ScannerReport {
    rounds: Vec<ScanRound>,
    failed: u64,
    stages: StageNanos,
    scan_ns: u64,
    engine: EngineStats,
    cache: CacheStats,
    tracer: Tracer,
}

/// The scan watermark follows the data: the slowest of one probe series
/// per shard, never moving back. It is not quantized to the re-run
/// interval: at the paced rate a quantized watermark would jump on exactly
/// every other round, and a median over a half-and-half mix of cheap and
/// dear rounds flips between the two. Unquantized, every round moves the
/// windows by what arrived since the last one — one class of round.
fn watermark(store: &TsdbStore, probes: &[&SeriesId], floor: u64) -> u64 {
    probes
        .iter()
        .filter_map(|id| store.last_timestamp(id).ok().flatten())
        .min()
        .map_or(floor, |slowest| slowest.max(floor))
}

fn scanner(store: &TsdbStore, ids: &[SeriesId], epoch: Instant, stop: &AtomicBool, trace: bool) -> ScannerReport {
    let mut pipeline = Pipeline::new(mix_config()).expect("the mix config is valid");
    pipeline.threads = 1;
    let mut probes: Vec<Option<&SeriesId>> = vec![None; SHARDS];
    for id in ids {
        probes[TsdbStore::shard_of(id) % SHARDS].get_or_insert(id);
    }
    let probes: Vec<&SeriesId> = probes.into_iter().flatten().collect();
    let mut tracer = Tracer::new(trace, epoch);
    let mut schedule = OpenLoop::new(SCAN_PERIOD);
    let (mut rounds, mut failed, mut scan_ns) = (Vec::new(), 0u64, 0u64);
    let mut now = MIX_SCAN_TIME;
    loop {
        let due_ns = schedule.next_due();
        // Started before the wait: a round that starts late was delayed by
        // the one before it, and that delay is part of its latency.
        let watch = StealWatch::start();
        wait_until(epoch, due_ns);
        if stop.load(Ordering::Acquire) {
            break;
        }
        now = watermark(store, &probes, now);
        tracer.set_unit(rounds.len() as u32);
        tracer.enter("core.pipeline.scan");
        let t = Instant::now();
        let out = pipeline
            .scan(store, ids, now, &ScanContext::default())
            .expect("scan must survive concurrent ingest");
        scan_ns += t.elapsed().as_nanos() as u64;
        tracer.counter("watermark", now as f64);
        tracer.counter("series_partial", out.health.series_partial as f64);
        tracer.exit();
        failed += scan_failures(&out.health);
        rounds.push(ScanRound {
            due_ns,
            latency_ms: (epoch.elapsed().as_nanos() as u64).saturating_sub(due_ns) as f64 / 1e6,
            stolen: watch.stolen(),
        });
    }
    ScannerReport {
        rounds,
        failed,
        stages: pipeline.stage_profile(),
        scan_ns,
        engine: pipeline.streaming_stats().unwrap_or_default(),
        cache: pipeline.cache_stats(),
        tracer,
    }
}

/// What the generator thread measured.
#[derive(Default)]
struct GeneratorReport {
    planted: Planted,
    /// Phase A: points appended per second, one sample per window.
    goodput_points_per_s: Samples,
    after_closed_loop: IngestStats,
    closed_loop_end_ns: u64,
    open_loop_start_ns: u64,
    open_loop_end_ns: u64,
    /// Phase B, per batch: how late the send started, ms.
    late_ms: Vec<f64>,
    /// Phase B, per tick: submitted − appended − counted losses.
    backlog_points: Vec<f64>,
    shed_batches: u64,
}

fn backlog(stats: &IngestStats) -> f64 {
    let settled = stats.points_appended
        + stats.points_shed
        + stats.decode_error_points
        + stats.quota_shed_points
        + stats.late_shed_points
        + stats.append_rejected
        + stats.internal_error_points;
    stats.points_submitted.saturating_sub(settled) as f64
}

fn generator(
    pipeline: &IngestPipeline,
    gen: &mut WireGen<'_>,
    epoch: Instant,
    phase_s: f64,
    tracer: &mut Tracer,
) -> GeneratorReport {
    let mut g = GeneratorReport::default();
    // Phase A, closed loop: the next batch goes in when `submit` returns.
    let phase = Duration::from_secs_f64(phase_s);
    tracer.enter("phase_a.closed_loop");
    let started = Instant::now();
    // Goodput is sampled per window, so that windows the hypervisor stole
    // from can be told apart from the pipeline's own pace.
    let window_len = GOODPUT_WINDOW.min(phase / 4);
    let (mut window, mut window_start, mut window_appended) = (StealWatch::start(), Instant::now(), 0u64);
    while started.elapsed() < phase {
        let raw = gen.next_batch();
        pipeline.submit(raw).expect("ingest pipeline alive");
        let elapsed = window_start.elapsed();
        if elapsed >= window_len {
            let appended = pipeline.stats().points_appended;
            let rate = (appended - window_appended) as f64 / elapsed.as_secs_f64();
            g.goodput_points_per_s.push(rate, window.stolen());
            (window, window_start, window_appended) = (StealWatch::start(), Instant::now(), appended);
        }
    }
    pipeline.drain();
    tracer.exit();
    g.after_closed_loop = pipeline.stats();
    g.closed_loop_end_ns = epoch.elapsed().as_nanos() as u64;

    // Phase B, open loop: batch k is due k periods after the phase start,
    // whatever happened to batch k-1. The batch is built before its due
    // time so encoding is not counted as lateness.
    let period = Duration::from_secs_f64(gen.points_per_batch() as f64 / OFFERED_POINTS_PER_S);
    let mut schedule = OpenLoop::new(period);
    tracer.enter("phase_b.open_loop");
    let phase_epoch = Instant::now();
    g.open_loop_start_ns = epoch.elapsed().as_nanos() as u64;
    loop {
        let due_ns = schedule.next_due();
        if Duration::from_nanos(due_ns) >= phase {
            break;
        }
        let raw = gen.next_batch();
        g.late_ms.push(wait_until(phase_epoch, due_ns) as f64 / 1e6);
        g.shed_batches += pipeline.submit_or_shed(raw).expect("ingest pipeline alive");
        if tracer.enabled() {
            g.backlog_points.push(backlog(&pipeline.stats()));
        }
    }
    g.open_loop_end_ns = epoch.elapsed().as_nanos() as u64;
    pipeline.drain();
    tracer.exit();
    g.planted = gen.planted;
    g
}

pub fn run(args: &RunArgs) -> RunResult {
    let (started, cpu_start) = (Instant::now(), crate::sysinfo::cpu_seconds());
    let mut r = RunResult::new(args);
    let n = if args.quick { QUICK_SERIES } else { SERIES };

    let ((suite, store, ids), setup) = timed_setup(|| {
        let t = Instant::now();
        let suite = production_mix(n, args.seed);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        // Load unbudgeted to learn the footprint, then budget each shard
        // relative to it: the budget tracks the encoder, not a constant.
        let (probe, _) = load_suite(&suite, StoreConfig::compressed());
        let per_shard = probe.stats().max_shard_resident_bytes();
        drop(probe);
        let budget = (per_shard as f64 * BUDGET_FACTOR) as usize;
        let (store, ids) = load_suite(&suite, StoreConfig::compressed().with_budget(budget));
        ((suite, Arc::new(store), ids), generate_s, t.elapsed().as_secs_f64())
    });
    let levels = continuation_levels(&suite);
    let inputs = suite_fingerprint(&suite) ^ wire_fingerprint(&ids, &levels, args.seed, FINGERPRINT_BATCHES);
    drop(suite);
    r.note(format!(
        "inputs: {n} series preloaded, {} points per wire batch, fingerprint {inputs:#018x}",
        n * crate::inputs::WAVE_SAMPLES
    ));
    if args.pinned() {
        r.check(inputs == golden::INGEST_UNDER_SCAN_INPUTS, || {
            format!(
                "input fingerprint {inputs:#018x} differs from the committed {:#018x}",
                golden::INGEST_UNDER_SCAN_INPUTS
            )
        });
    }
    let bytes_per_point = store.stats().bytes_per_point();

    let ingest = IngestPipeline::new(
        Arc::clone(&store),
        IngestConfig {
            // The library default (64), not ISSUE.md's 256: five queues of
            // 256 ten-thousand-point batches take six seconds to drain at
            // the end of phase A, a quarter of the run.
            appenders: 2,
            // Throughput, not admission control: the bucket never empties,
            // so every loss is a planted fault or backpressure.
            quota: QuotaConfig {
                burst: u64::MAX / 2,
                points_per_sec: 0,
            },
            ..IngestConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    let epoch = r.tracer.epoch();
    let mut gen = WireGen::new(&ids, &levels, args.seed, MIX_SCAN_TIME);
    let mut gen_tracer = Tracer::new(args.trace, epoch);
    let (g, scans) = std::thread::scope(|scope| {
        let scanner = scope.spawn(|| scanner(&store, &ids, epoch, &stop, args.trace));
        let g = generator(&ingest, &mut gen, epoch, args.seconds * PHASE_SHARE, &mut gen_tracer);
        stop.store(true, Ordering::Release);
        (g, scanner.join().expect("scanner thread panicked"))
    });
    let stats = ingest.finish();
    r.tracer.absorb(gen_tracer);
    r.tracer.absorb(scans.tracer);

    // Every submitted point is appended or in exactly one loss bucket, and
    // the buckets hold exactly the planted faults.
    let planted = g.planted;
    r.note(format!("planted: {planted:?}"));
    r.note(format!(
        "ingest: submitted {} appended {} shed {} decode_errors {} late {} rejected {}",
        stats.points_submitted,
        stats.points_appended,
        stats.points_shed,
        stats.decode_errors,
        stats.late_shed_points,
        stats.append_rejected
    ));
    r.check(stats.is_accounted(), || format!("ingest accounting broken: {stats:?}"));
    r.check(stats.points_submitted == planted.points, || {
        format!(
            "submitted {} points but generated {}",
            stats.points_submitted, planted.points
        )
    });
    let a = &g.after_closed_loop;
    r.check(
        a.points_shed + a.quota_shed_points + a.append_rejected + a.internal_error_points == 0,
        || format!("phase A (blocking submit) lost points beyond the planted faults: {a:?}"),
    );
    if stats.batches_shed == 0 {
        r.check(stats.decode_errors == planted.truncated_batches, || {
            format!(
                "{} decode errors, {} planted",
                stats.decode_errors, planted.truncated_batches
            )
        });
        r.check(stats.decode_error_points == planted.truncated_points, || {
            format!(
                "{} decode-error points, {} planted",
                stats.decode_error_points, planted.truncated_points
            )
        });
        r.check(stats.late_shed_points == planted.late_points, || {
            format!(
                "{} late points shed, {} planted",
                stats.late_shed_points, planted.late_points
            )
        });
        r.check(stats.points_appended == planted.expected_appended(), || {
            format!(
                "{} points appended, {} expected",
                stats.points_appended,
                planted.expected_appended()
            )
        });
    } else {
        // Shed batches take their planted faults with them.
        r.check(
            stats.decode_errors <= planted.truncated_batches && stats.late_shed_points <= planted.late_points,
            || format!("more faults counted than planted: {stats:?}"),
        );
    }
    r.attempted = stats.points_submitted + (n * scans.rounds.len()) as u64;
    r.failed = stats.points_shed
        + stats.quota_shed_points
        + stats.append_rejected
        + stats.internal_error_points
        + scans.failed;

    let warmup_ns = (SCANNER_WARMUP.as_nanos() as u64).min(g.closed_loop_end_ns / 4);
    let in_phase = |round: &ScanRound| {
        if round.due_ns < warmup_ns {
            // The cold first scan and the rounds it delayed.
            Phase::Neither
        } else if round.due_ns < g.closed_loop_end_ns {
            Phase::ClosedLoop
        } else if round.due_ns >= g.open_loop_start_ns && round.due_ns < g.open_loop_end_ns {
            Phase::OpenLoop
        } else {
            Phase::Neither
        }
    };
    let latencies = |phase: Phase| -> Samples {
        let mut samples = Samples::default();
        for s in scans.rounds.iter().filter(|s| in_phase(s) == phase) {
            samples.push(s.latency_ms, s.stolen);
        }
        samples
    };
    let goodput = r.mean(&g.goodput_points_per_s);
    r.end_to_end.set("work_per_s", goodput);
    // The scanner under paced ingest is the operation; under saturating
    // ingest it is the slow operation.
    r.report_ops(&latencies(Phase::OpenLoop), &latencies(Phase::ClosedLoop));
    r.check(scans.rounds.len() >= 2, || {
        "the scanner completed fewer than two rounds".to_string()
    });

    if args.trace {
        let scans_done = (n * scans.rounds.len()) as u64;
        report_stages(&mut r.per_layer, &scans.stages, scans_done, scans.scan_ns);
        report_reuse(&mut r.per_layer, &scans.engine, &scans.cache, scans_done);
        let late = summarize(&g.late_ms);
        r.per_layer
            .set("ingest.pipeline.generator_late_ms_p90", percentile(&g.late_ms, 90.0));
        r.per_layer.set(
            "ingest.pipeline.backlog_points_p50",
            crate::stats::median(&g.backlog_points),
        );
        r.per_layer.set(
            "ingest.pipeline.backlog_ms_p90",
            share(percentile(&g.backlog_points, 90.0), goodput) * 1e3,
        );
        let offered = stats.points_submitted - a.points_submitted;
        r.per_layer.set(
            "ingest.pipeline.paced_shed_share",
            share(stats.points_shed as f64, offered as f64),
        );
        r.per_layer
            .set("ingest.pipeline.decode_errors", stats.decode_errors as f64);
        r.per_layer
            .set("ingest.pipeline.late_shed_points", stats.late_shed_points as f64);
        r.per_layer
            .set("tsdb.store.evicted_points", store.stats().evicted_points() as f64);
        r.note(format!(
            "open loop: {} batches at {OFFERED_POINTS_PER_S} points/s, generator late p50 {:.3} ms, {} shed",
            late.n, late.p50, g.shed_batches
        ));

        // The stages one by one, on the generator's own first batches.
        let mut replay = WireGen::new(&ids, &levels, args.seed, MIX_SCAN_TIME);
        let batches: Vec<_> = (0..FINGERPRINT_BATCHES).map(|_| replay.next_batch()).collect();
        probe_ingest_stages(&mut r.tracer, &mut r.per_layer, &batches);
        let config = mix_config();
        let end = store.last_timestamp(&ids[0]).ok().flatten().unwrap_or(MIX_SCAN_TIME);
        probe_blocks(&mut r.tracer, &mut r.per_layer, &store, &ids);
        probe_stats_kernels(&mut r.tracer, &mut r.per_layer, &store, &ids, &config, end);
        let (deltas_ns, _) = probe_snapshot_deltas(&mut r.tracer, &store, &ids, &[], &config, end);
        r.per_layer.set("tsdb.store.snapshot_deltas_ns_per_series", deltas_ns);
        r.expect(
            "phase A sheds nothing beyond the planted faults",
            a.points_shed == 0,
            a.points_shed as f64,
        );
        r.expect(
            "the budget keeps eviction live",
            store.stats().evicted_points() > 0,
            store.stats().evicted_points() as f64,
        );
    }
    r.finish_common(&setup, bytes_per_point, started, cpu_start);
    r
}
