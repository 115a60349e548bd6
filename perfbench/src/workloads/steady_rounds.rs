//! `steady_rounds`: one persistent streaming `Pipeline` over scheduler
//! rounds. Each round appends a deterministic 1–30 points per series,
//! quantizes the scan watermark to the re-run interval and scans. Most
//! rounds hold the watermark (the engine replays outcomes); about one in
//! seven jumps a boundary (windows move); every fourth boundary round also
//! runs retention, which resets every series in the engine. The
//! `StreamingEngine`, `ScanCache`, `snapshot_deltas` and tail-incremental
//! windowing do the work and the detectors almost none — the opposite
//! split from `cold_scan`.

use super::{
    check_scan_invariants, engine_since, outcome_fingerprint, report_funnel, report_reads, report_reuse, report_stages,
    scan_failures, stage_share, timed_setup, Deadline, ReadCounters, RunArgs, RunResult, Samples, StealWatch,
};
use crate::golden;
use crate::inputs::{
    continuation_levels, continuation_value, load_suite, mix, mix_config, mix_windows, production_mix,
    suite_fingerprint, CADENCE, MIX_SCAN_TIME,
};
use crate::layers::{
    probe_blocks, probe_snapshot_deltas, probe_stats_kernels, report_staged, staged_scan, StagedState,
};
use crate::stats::{median, share};
use fbd_tsdb::{SeriesId, StoreConfig, TsdbStore};
use fbdetect_core::{Pipeline, ScanContext, ScanOutcome, StageNanos};
use std::time::Instant;

const SERIES: usize = 2_000;
const QUICK_SERIES: usize = 200;
/// Rounds discarded while the engine and caches warm up: the cold first
/// scan, then two boundary rounds' worth of streaming rounds.
const WARMUP_ROUNDS: usize = 16;
/// Retention runs on every `SWEEP_EVERY`-th boundary round.
const SWEEP_EVERY: usize = 4;
/// Size of the untimed streaming-on/off identity check.
const VERIFY_SERIES: usize = 250;
const VERIFY_ROUNDS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    /// The watermark did not move: windows are unchanged.
    Held,
    /// The watermark jumped at least one re-run boundary.
    Boundary,
    /// A boundary round that also expired old points first.
    Sweep,
}

/// The append-then-advance half of a scheduler round, shared by the timed
/// loop and the identity check so both walk the same schedule.
struct Schedule {
    seed: u64,
    levels: Vec<f64>,
    /// Next timestamp each series writes.
    frontier: Vec<u64>,
    /// Scan watermark: the slowest series' frontier, quantized to re-run
    /// boundaries, so appends always land at or past it.
    now: u64,
    round: usize,
    boundaries: usize,
}

impl Schedule {
    fn new(seed: u64, levels: Vec<f64>) -> Self {
        Schedule {
            seed,
            frontier: vec![MIX_SCAN_TIME; levels.len()],
            levels,
            now: MIX_SCAN_TIME,
            round: 0,
            boundaries: 0,
        }
    }

    /// Points series `i` receives this round, in `[1, 30]`.
    fn appends_for(&self, i: usize) -> usize {
        1 + (mix(self.seed ^ ((i as u64) << 20) ^ self.round as u64) % 30) as usize
    }

    /// Appends this round's points, advances the watermark and runs
    /// retention when due. Returns the round's kind, the points appended,
    /// and the nanoseconds spent in `append` and in `expire_before`.
    fn advance(&mut self, store: &TsdbStore, ids: &[SeriesId]) -> (RoundKind, u64, u64, u64) {
        let t = Instant::now();
        let mut appended = 0u64;
        for (i, id) in ids.iter().enumerate() {
            for _ in 0..self.appends_for(i) {
                let at = self.frontier[i];
                let value = continuation_value(self.levels[i], self.seed, i, at);
                store.append(id, at, value).expect("appends are in timestamp order");
                self.frontier[i] += CADENCE;
                appended += 1;
            }
        }
        let append_ns = t.elapsed().as_nanos() as u64;
        self.round += 1;
        let windows = mix_windows();
        let slowest = self.frontier.iter().copied().min().unwrap_or(self.now);
        let quantized = slowest / windows.rerun_interval * windows.rerun_interval;
        if quantized <= self.now {
            return (RoundKind::Held, appended, append_ns, 0);
        }
        self.now = quantized;
        self.boundaries += 1;
        if !self.boundaries.is_multiple_of(SWEEP_EVERY) {
            return (RoundKind::Boundary, appended, append_ns, 0);
        }
        // Keep one detection span plus two re-run intervals of slack.
        let keep = windows.total_span() + 2 * windows.rerun_interval;
        let t = Instant::now();
        store.expire_before(self.now.saturating_sub(keep));
        (RoundKind::Sweep, appended, append_ns, t.elapsed().as_nanos() as u64)
    }
}

fn streaming_pipeline(streaming: bool) -> Pipeline {
    let mut pipeline = Pipeline::new(mix_config()).expect("the mix config is valid");
    pipeline.threads = 1;
    pipeline.set_streaming(streaming);
    pipeline
}

fn scan(pipeline: &mut Pipeline, store: &TsdbStore, ids: &[SeriesId], now: u64) -> ScanOutcome {
    pipeline
        .scan(store, ids, now, &ScanContext::default())
        .expect("scan infrastructure failed")
}

/// Re-runs the schedule at reduced size with the streaming engine on and
/// off over identical store states, untimed: every round's reports, funnel
/// and health must be byte-identical, on held, boundary and sweep rounds.
fn verify_streaming_identity(r: &mut RunResult, seed: u64) {
    let suite = production_mix(VERIFY_SERIES, seed);
    let (store, ids) = load_suite(&suite, StoreConfig::compressed());
    let mut schedule = Schedule::new(seed, continuation_levels(&suite));
    let (mut on, mut off) = (streaming_pipeline(true), streaming_pipeline(false));
    let mut seen = [0usize; 3];
    for round in 0..VERIFY_ROUNDS {
        let (kind, ..) = schedule.advance(&store, &ids);
        seen[kind as usize] += 1;
        let (a, b) = (
            scan(&mut on, &store, &ids, schedule.now),
            scan(&mut off, &store, &ids, schedule.now),
        );
        r.check(outcome_fingerprint(&a) == outcome_fingerprint(&b), || {
            format!("verify round {round} ({kind:?}): streaming and non-streaming scans diverged")
        });
    }
    r.check(seen.iter().all(|&c| c > 0), || {
        format!("identity check covered held/boundary/sweep rounds {seen:?}: one kind is missing")
    });
    r.note(format!(
        "verified streaming on/off identity over {VERIFY_ROUNDS} rounds x {VERIFY_SERIES} series \
         (held/boundary/sweep = {seen:?})"
    ));
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
    r.note(format!(
        "inputs: {n} series x {} samples, fingerprint {inputs:#018x}",
        crate::inputs::LEN
    ));
    if args.pinned() {
        r.check(inputs == golden::STEADY_ROUNDS_INPUTS, || {
            format!(
                "input fingerprint {inputs:#018x} differs from the committed {:#018x}",
                golden::STEADY_ROUNDS_INPUTS
            )
        });
    }
    let bytes_per_point = store.stats().bytes_per_point();
    let config = mix_config();

    if args.trace {
        // Direct calls on the freshly loaded store, before rounds mutate it.
        let mut state = StagedState::new(&config);
        let (_, _, work) = staged_scan(
            &mut r.tracer,
            &store,
            &ids,
            &config,
            MIX_SCAN_TIME,
            &ScanContext::default(),
            &mut state,
        );
        report_staged(&mut r.per_layer, &r.tracer, &work);
        probe_blocks(&mut r.tracer, &mut r.per_layer, &store, &ids);
        probe_stats_kernels(&mut r.tracer, &mut r.per_layer, &store, &ids, &config, MIX_SCAN_TIME);
    }

    let mut schedule = Schedule::new(args.seed, continuation_levels(&suite));
    drop(suite);
    let mut pipeline = streaming_pipeline(true);
    // Round 0 is the cold first scan of the loaded store.
    let first = scan(&mut pipeline, &store, &ids, schedule.now);
    check_scan_invariants(&mut r, "round 0", &first, n);
    r.attempted += n as u64;
    r.failed += scan_failures(&first.health);
    report_funnel(&mut r.per_layer, &first.funnel, first.reports.len());
    r.note(format!(
        "round 0 funnel: {:?}, {} reports",
        first.funnel,
        first.reports.len()
    ));
    if args.pinned() {
        let got = (super::funnel_counts(&first.funnel).map(|(_, c)| c), first.reports.len());
        r.check(got == golden::STEADY_ROUNDS_FUNNEL, || {
            format!(
                "round 0 funnel {got:?} differs from the committed {:?}",
                golden::STEADY_ROUNDS_FUNNEL
            )
        });
    }

    // In the traced run a quarter of the time goes to untraced rounds: the
    // reference the tracing overhead is measured against.
    let untraced_until = Deadline::after(if args.trace { args.seconds * 0.25 } else { args.seconds });
    let deadline = Deadline::after(args.seconds);
    // Scan times by round kind, the watermark-jump rounds (boundary and
    // sweep) together, and the held rounds split by whether spans were on.
    let mut ms_by_kind = [Samples::default(), Samples::default(), Samples::default()];
    let (mut jump_ms, mut traced_held_ms, mut untraced_held_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut scan_s, mut rounds) = (0.0f64, 0u64);
    let (mut append_ns, mut appended, mut expire_ns, mut sweeps) = (0u64, 0u64, 0u64, 0u64);
    let (mut held_stages, mut all_stages, mut held_scan_ns) = (StageNanos::default(), StageNanos::default(), 0u64);
    let mut held_reused = 0u64;
    let (mut deltas_ns, mut delta_probes, mut known) = (0.0f64, 0u64, Vec::new());
    let mut reads_before = ReadCounters::of(&store.stats());
    let mut engine_before = pipeline.streaming_stats().unwrap_or_default();
    let mut growth_after_warmup = 0u64;
    let mut kinds = [0usize; 3];
    // Round counts by kind at the first and the latest sweep: throughput is
    // taken over whole sweep-to-sweep cycles, so that where the deadline cuts
    // the last cycle does not change the mix of cheap and dear rounds.
    let (mut cycle_start, mut cycle_end) = (None, [0usize; 3]);
    let mut round = 0usize;
    while round < WARMUP_ROUNDS + 2 || !deadline.expired() {
        round += 1;
        let warm = round > WARMUP_ROUNDS;
        let tracing = args.trace && warm && untraced_until.expired();
        let (kind, points, a_ns, e_ns) = schedule.advance(&store, &ids);
        let stages_before = pipeline.stage_profile();
        let engine_round = pipeline.streaming_stats().unwrap_or_default();
        if tracing {
            r.tracer.set_unit(round as u32);
            r.tracer.enter("core.pipeline.scan");
        }
        let watch = StealWatch::start();
        let t = Instant::now();
        let out = scan(&mut pipeline, &store, &ids, schedule.now);
        let wall = t.elapsed();
        let stolen = watch.stolen();
        let stages = pipeline.stage_profile().since(&stages_before);
        let engine = pipeline.streaming_stats().unwrap_or_default();
        let reuse = engine_since(&engine, &engine_round);
        if tracing {
            r.tracer.counter("kind", kind as usize as f64);
            for (name, ns) in stages.named() {
                r.tracer.counter(name, ns as f64);
            }
            r.tracer.counter("reused_full", reuse.reused_full as f64);
            r.tracer.counter("advanced_online", reuse.advanced_online as f64);
            r.tracer.exit();
        }
        r.attempted += n as u64;
        r.failed += scan_failures(&out.health);
        if !warm {
            if round == WARMUP_ROUNDS {
                reads_before = ReadCounters::of(&store.stats());
                engine_before = engine;
            }
            continue;
        }
        check_scan_invariants(&mut r, "round", &out, n);
        kinds[kind as usize] += 1;
        rounds += 1;
        scan_s += wall.as_secs_f64();
        append_ns += a_ns;
        appended += points;
        all_stages.accumulate(&stages);
        let wall_ms = wall.as_secs_f64() * 1e3;
        ms_by_kind[kind as usize].push(wall_ms, stolen);
        match kind {
            RoundKind::Held => {
                if tracing {
                    traced_held_ms.push(wall_ms, stolen);
                } else {
                    untraced_held_ms.push(wall_ms, stolen);
                }
                held_stages.accumulate(&stages);
                held_scan_ns += wall.as_nanos() as u64;
                held_reused += reuse.reused_full;
                growth_after_warmup += reuse.buffer_growth;
            }
            RoundKind::Boundary => jump_ms.push(wall_ms, stolen),
            RoundKind::Sweep => {
                jump_ms.push(wall_ms, stolen);
                expire_ns += e_ns;
                sweeps += 1;
                cycle_start.get_or_insert(kinds);
                cycle_end = kinds;
            }
        }
        // Every eighth traced round also calls `snapshot_deltas` directly,
        // against the versions seen eight rounds ago: the appended-tail path.
        if tracing && round.is_multiple_of(8) {
            let (ns, versions) = probe_snapshot_deltas(&mut r.tracer, &store, &ids, &known, &config, schedule.now);
            if !known.is_empty() {
                deltas_ns += ns;
                delta_probes += 1;
            }
            known = versions;
        }
    }

    let held_rounds = kinds[RoundKind::Held as usize] as u64;
    r.note(format!(
        "{rounds} rounds after {WARMUP_ROUNDS} warm-up: held/boundary/sweep = {kinds:?}, {appended} points appended"
    ));
    r.check(kinds.iter().all(|&c| c > 0), || {
        format!("schedule produced no round of some kind: {kinds:?}")
    });
    let cycle_kinds = match cycle_start {
        Some(start) if cycle_end[RoundKind::Sweep as usize] > start[RoundKind::Sweep as usize] => {
            [0, 1, 2].map(|k| cycle_end[k] - start[k])
        }
        // Too short a run for two sweeps: all rounds.
        _ => kinds,
    };
    // Rounds of each kind over whole cycles, each at its kind's mean time.
    let cycle_ms: f64 = (0..3).map(|k| cycle_kinds[k] as f64 * r.mean(&ms_by_kind[k])).sum();
    r.end_to_end.set(
        "work_per_s",
        share(n as f64 * cycle_kinds.iter().sum::<usize>() as f64, cycle_ms / 1e3),
    );
    r.report_ops(&ms_by_kind[RoundKind::Held as usize], &jump_ms);

    let engine = pipeline.streaming_stats().unwrap_or_default();
    if args.trace {
        let scans = n as u64 * rounds;
        report_stages(&mut r.per_layer, &all_stages, scans, (scan_s * 1e9) as u64);
        let since_warmup = engine_since(&engine, &engine_before);
        report_reuse(&mut r.per_layer, &since_warmup, &pipeline.cache_stats(), scans);
        report_reads(&mut r.per_layer, &store, &reads_before, scans);
        r.per_layer.set(
            "tsdb.store.append_ns_per_point",
            share(append_ns as f64, appended as f64),
        );
        r.per_layer
            .set("tsdb.store.expire_ns_per_call", share(expire_ns as f64, sweeps as f64));
        r.per_layer.set(
            "tsdb.store.snapshot_deltas_ns_per_series",
            share(deltas_ns, delta_probes as f64),
        );
        r.per_layer
            .set("tsdb.store.evicted_points", store.stats().evicted_points() as f64);
        r.per_layer.set(
            "trace.overhead_ratio",
            share(median(&traced_held_ms.kept()), median(&untraced_held_ms.kept())),
        );

        let held_reuse = share(held_reused as f64, (n as u64 * held_rounds) as f64);
        r.expect(
            "held rounds replay outcomes (reused_full_share >= 0.8)",
            held_reuse >= 0.8,
            held_reuse,
        );
        let detectors = share(
            (held_stages.short_term + held_stages.long_term) as f64,
            held_scan_ns as f64,
        );
        r.expect(
            "short_term+long_term <= 10% of held-round time",
            detectors <= 0.10,
            detectors,
        );
        let windowing = stage_share(&held_stages, &["ingest", "windowing", "complete"]);
        r.expect(
            "ingest+windowing+complete carry held rounds (>= 50% of stage time)",
            windowing >= 0.5,
            windowing,
        );
    }
    // Steady state recycles window buffers: growth on held rounds means the
    // hot loop allocates.
    r.check(growth_after_warmup == 0, || {
        format!("window buffers grew by {growth_after_warmup} on held rounds after warm-up")
    });

    verify_streaming_identity(&mut r, args.seed);
    r.finish_common(&setup, bytes_per_point, started, cpu_start);
    r
}
