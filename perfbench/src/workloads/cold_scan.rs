//! `cold_scan`: every trial is one full `Pipeline::scan` of a compressed
//! store by a fresh `Pipeline`, so nothing is reused round over round and
//! `fbd-tsdb` windowing/decode plus the two `fbdetect-core` detectors do
//! all the work. This is the capacity-planning number: cores needed to
//! re-scan 800k series per re-run interval (§5.1).

use super::{
    check_scan_invariants, outcome_fingerprint, report_funnel, report_reads, report_reuse, report_stages,
    scan_failures, stage_share, timed_setup, Deadline, ReadCounters, ReuseTotals, RunArgs, RunResult, Samples,
    StealWatch,
};
use crate::golden;
use crate::inputs::{load_suite, mix_config, production_mix, suite_fingerprint, MIX_SCAN_TIME};
use crate::layers::{
    probe_blocks, probe_snapshot_deltas, probe_stats_kernels, report_staged, staged_scan, StagedState, StagedWork,
};
use crate::stats::{median, share};
use fbd_tsdb::{SeriesId, StoreConfig, TsdbStore};
use fbdetect_core::scan_cache::CacheStats;
use fbdetect_core::{EngineStats, Pipeline, ScanContext, ScanOutcome, StageNanos};
use std::time::Instant;

/// Series in the store. Sized so one trial takes about half a second here:
/// the driver's time cap leaves ~25 s of measurement per run, and a median
/// needs a few dozen trials to be steady.
const SERIES: usize = 6_000;
const QUICK_SERIES: usize = 300;

struct Trial {
    wall_s: f64,
    /// The hypervisor took CPU time from the VM during the scan.
    stolen: bool,
    out: ScanOutcome,
    stages: StageNanos,
    engine: EngineStats,
    cache: CacheStats,
}

/// One full scan by a fresh pipeline.
fn trial(store: &TsdbStore, ids: &[SeriesId], threads: usize) -> Trial {
    let mut pipeline = Pipeline::new(mix_config()).expect("the mix config is valid");
    pipeline.threads = threads;
    let watch = StealWatch::start();
    let t = Instant::now();
    let out = pipeline
        .scan(store, ids, MIX_SCAN_TIME, &ScanContext::default())
        .expect("scan infrastructure failed");
    Trial {
        wall_s: t.elapsed().as_secs_f64(),
        stolen: watch.stolen(),
        out,
        stages: pipeline.stage_profile(),
        engine: pipeline.streaming_stats().unwrap_or_default(),
        cache: pipeline.cache_stats(),
    }
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
        let (store, ids) = load_suite(&suite, StoreConfig::compressed());
        ((suite, store, ids), generate_s, t.elapsed().as_secs_f64())
    });
    let inputs = suite_fingerprint(&suite);
    drop(suite);
    r.note(format!(
        "inputs: {n} series x {} samples, fingerprint {inputs:#018x}",
        crate::inputs::LEN
    ));
    if args.pinned() {
        r.check(inputs == golden::COLD_SCAN_INPUTS, || {
            format!(
                "input fingerprint {inputs:#018x} differs from the committed {:#018x}",
                golden::COLD_SCAN_INPUTS
            )
        });
    }
    let bytes_per_point = store.stats().bytes_per_point();

    // The first scan of a process pays page faults and lazy set-up the
    // later ones do not: discard it, but keep it as the reference outcome.
    let reference = trial(&store, &ids, 1);
    let reference_print = outcome_fingerprint(&reference.out);
    check_scan_invariants(&mut r, "cold_scan", &reference.out, n);
    r.note(format!(
        "funnel: {:?}, {} reports",
        reference.out.funnel,
        reference.out.reports.len()
    ));
    if args.pinned() {
        let got = (
            super::funnel_counts(&reference.out.funnel).map(|(_, c)| c),
            reference.out.reports.len(),
        );
        r.check(got == golden::COLD_SCAN_FUNNEL, || {
            format!(
                "funnel {got:?} differs from the committed {:?}",
                golden::COLD_SCAN_FUNNEL
            )
        });
    }
    let verify = |r: &mut RunResult, t: &Trial| {
        r.attempted += n as u64;
        r.failed += scan_failures(&t.out.health);
        r.check(outcome_fingerprint(&t.out) == reference_print, || {
            "a trial's reports/funnel/health differ from the first scan's".to_string()
        });
    };

    if !args.trace {
        let deadline = Deadline::after(args.seconds);
        let mut walls_ms = Samples::default();
        while walls_ms.is_empty() || !deadline.expired() {
            let t = trial(&store, &ids, 1);
            verify(&mut r, &t);
            walls_ms.push(t.wall_s * 1e3, t.stolen);
        }
        // Throughput is total work over total time: on a shared box speed
        // comes in regimes lasting seconds, and a mean moves smoothly with
        // their mix where a median jumps between them.
        let work_per_s = r.throughput(n as f64, &walls_ms);
        r.end_to_end.set("work_per_s", work_per_s);
        // One class of operation: the slow operation is the operation.
        r.report_ops(&walls_ms, &walls_ms);
    } else {
        traced(args, &mut r, &store, &ids, &reference, &verify);
    }
    r.finish_common(&setup, bytes_per_point, started, cpu_start);
    r
}

/// The traced run: an untraced reference, traced one-thread trials whose
/// spans carry the pipeline's counters, multi-thread trials, staged scans
/// through the layers' entry points, and the kernel probes.
fn traced(
    args: &RunArgs,
    r: &mut RunResult,
    store: &TsdbStore,
    ids: &[SeriesId],
    reference: &Trial,
    verify: &dyn Fn(&mut RunResult, &Trial),
) {
    let n = ids.len();
    let mut untraced_ms = Samples::default();
    let deadline = Deadline::after(args.seconds * 0.2);
    while untraced_ms.is_empty() || !deadline.expired() {
        let t = trial(store, ids, 1);
        verify(r, &t);
        untraced_ms.push(t.wall_s * 1e3, t.stolen);
    }
    let untraced_ms = median(&untraced_ms.kept());

    let reads_before = ReadCounters::of(&store.stats());
    let (mut traced_ms, mut stages, mut reuse, mut wall_ns) =
        (Samples::default(), StageNanos::default(), ReuseTotals::default(), 0u64);
    let deadline = Deadline::after(args.seconds * 0.3);
    while traced_ms.is_empty() || !deadline.expired() {
        r.tracer.set_unit(traced_ms.len() as u32);
        r.tracer.enter("core.pipeline.scan");
        let t = trial(store, ids, 1);
        for (name, ns) in t.stages.named() {
            r.tracer.counter(name, ns as f64);
        }
        r.tracer.counter("reused_full", t.engine.reused_full as f64);
        r.tracer.counter("scanned", t.engine.scanned as f64);
        r.tracer.counter("scan_cache_hits", t.cache.hits as f64);
        r.tracer
            .counter("blocks_decoded", store.stats().blocks_decoded() as f64);
        r.tracer.exit();
        verify(r, &t);
        traced_ms.push(t.wall_s * 1e3, t.stolen);
        wall_ns += (t.wall_s * 1e9) as u64;
        stages.accumulate(&t.stages);
        reuse.add(&t.engine, &t.cache);
    }
    let scans = (n * traced_ms.len()) as u64;
    report_stages(&mut r.per_layer, &stages, scans, wall_ns);
    report_reuse(&mut r.per_layer, &reuse.engine, &reuse.cache, scans);
    report_reads(&mut r.per_layer, store, &reads_before, scans);
    report_funnel(&mut r.per_layer, &reference.out.funnel, reference.out.reports.len());
    r.per_layer
        .set("trace.overhead_ratio", share(median(&traced_ms.kept()), untraced_ms));
    r.report_ops(&traced_ms, &traced_ms);

    // Multi-thread speed is informational: two busy cores on a shared box
    // swing by more than any bound.
    let threads = crate::sysinfo::nproc().min(4);
    let mut mt_ms = Samples::default();
    let deadline = Deadline::after(args.seconds * 0.15);
    while mt_ms.is_empty() || !deadline.expired() {
        let t = trial(store, ids, threads);
        verify(r, &t);
        mt_ms.push(t.wall_s * 1e3, t.stolen);
    }
    r.per_layer.set(
        "core.pipeline.scan_mt_speedup",
        share(untraced_ms, median(&mt_ms.kept())),
    );
    r.per_layer.set("core.pipeline.scan_mt_threads", threads as f64);

    let config = mix_config();
    let mut work = StagedWork::default();
    let deadline = Deadline::after(args.seconds * 0.2);
    let mut staged_trials = 0u32;
    while staged_trials == 0 || !deadline.expired() {
        r.tracer.set_unit(staged_trials);
        let mut state = StagedState::new(&config);
        let (funnel, reports, w) = staged_scan(
            &mut r.tracer,
            store,
            ids,
            &config,
            MIX_SCAN_TIME,
            &ScanContext::default(),
            &mut state,
        );
        r.check(
            funnel == reference.out.funnel && reports.len() == reference.out.reports.len(),
            || {
                format!(
                    "staged scan funnel {funnel:?} differs from the pipeline's {:?}",
                    reference.out.funnel
                )
            },
        );
        work.add(&w);
        staged_trials += 1;
    }
    report_staged(&mut r.per_layer, &r.tracer, &work);

    probe_blocks(&mut r.tracer, &mut r.per_layer, store, ids);
    probe_stats_kernels(&mut r.tracer, &mut r.per_layer, store, ids, &config, MIX_SCAN_TIME);
    // A first observation of every series: the full-copy (`Reset`) path.
    let (deltas_ns, _) = probe_snapshot_deltas(&mut r.tracer, store, ids, &[], &config, MIX_SCAN_TIME);
    r.per_layer.set("tsdb.store.snapshot_deltas_ns_per_series", deltas_ns);

    let closure = r.per_layer.get("core.stage.closure_ratio");
    r.expect(
        "stage clocks sum to the scan wall time (0.95-1.02)",
        (0.95..=1.02).contains(&closure),
        closure,
    );
    let staged_closure = r.per_layer.get("trace.closure_ratio");
    r.expect(
        "layer spans cover the staged scan (>= 0.95)",
        staged_closure >= 0.95,
        staged_closure,
    );
    let reused = r.per_layer.get("core.scan_state.reused_full_share");
    r.expect("nothing is reused (reused_full_share = 0)", reused <= 0.0, reused);
    let detect = stage_share(&stages, &["ingest", "windowing", "short_term", "long_term"]);
    r.expect(
        "ingest+windowing+short_term+long_term >= 60% of scan time",
        detect >= 0.6,
        detect,
    );
}
