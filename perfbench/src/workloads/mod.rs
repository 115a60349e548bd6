//! The four workloads and what they share: run arguments, the result a run
//! builds, repeated set-up timing, and turning the pipeline's own counters
//! into per-layer metrics.

pub mod cold_scan;
pub mod funnel_storm;
pub mod ingest_under_scan;
pub mod steady_rounds;

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{median, share, summarize};
use crate::trace::Tracer;
use fbd_tsdb::{StoreStats, TsdbStore};
use fbdetect_core::scan_cache::CacheStats;
use fbdetect_core::{report, EngineStats, FunnelCounters, ScanHealth, ScanOutcome, StageNanos};
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured section, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: exercises every code path in seconds, never used
    /// for numbers (pins are skipped).
    pub quick: bool,
}

impl RunArgs {
    /// Whether the default-seed pins in `golden.rs` apply to this run.
    pub fn pinned(&self) -> bool {
        self.seed == crate::DEFAULT_SEED && !self.quick
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists; copied verbatim into `BENCHMARK.json`.
    pub why: &'static str,
    pub run: fn(&RunArgs) -> RunResult,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "cold_scan",
        why: "fresh Pipeline per full scan of a compressed store: no round-over-round reuse, so tsdb windowing/decode and the two detectors do the work (the capacity-planning number)",
        run: cold_scan::run,
    },
    WorkloadDef {
        name: "steady_rounds",
        why: "one streaming Pipeline over append-then-scan scheduler rounds: StreamingEngine, ScanCache and delta snapshots do the work and the detectors almost none",
        run: steady_rounds::run,
    },
    WorkloadDef {
        name: "ingest_under_scan",
        why: "wire batches through IngestPipeline into a budgeted store while a scanner runs on an open-loop schedule: ingest stages, tsdb append/seal/evict and reader-writer lock interplay dominate",
        run: ingest_under_scan::run,
    },
    WorkloadDef {
        name: "funnel_storm",
        why: "Table 3 shape with clustered regressions, cost-shift pairs and a changelog: went-away, dedup, cost-shift and RCA (the serial stages) dominate, and detection quality is pinned",
        run: funnel_storm::run,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run of one workload produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: MetricSet,
    pub per_layer: MetricSet,
    /// Correctness checks that failed; the run is correct when empty.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub tracer: Tracer,
    /// Stolen-time counter when the run began, and how many timing samples
    /// were summarized and how many of them discarded as stolen.
    steal_start: u64,
    samples_seen: usize,
    samples_discarded: usize,
}

impl RunResult {
    pub fn new(args: &RunArgs) -> Self {
        RunResult {
            attempted: 0,
            failed: 0,
            end_to_end: MetricSet::new(END_TO_END),
            per_layer: MetricSet::new(PER_LAYER),
            failures: Vec::new(),
            notes: Vec::new(),
            tracer: Tracer::new(args.trace, Instant::now()),
            steal_start: crate::sysinfo::steal_ticks(),
            samples_seen: 0,
            samples_discarded: 0,
        }
    }

    /// The samples to summarize, counting what was discarded.
    fn keep(&mut self, samples: &Samples) -> Vec<f64> {
        let kept = samples.kept();
        self.samples_seen += samples.len();
        self.samples_discarded += samples.len() - kept.len();
        kept
    }

    /// Mean of the kept samples.
    pub fn mean(&mut self, samples: &Samples) -> f64 {
        let kept = self.keep(samples);
        share(kept.iter().sum(), kept.len() as f64)
    }

    /// Throughput over the kept samples: `work_per_sample` units of work
    /// per sample, over their mean milliseconds.
    pub fn throughput(&mut self, work_per_sample: f64, samples_ms: &Samples) -> f64 {
        share(work_per_sample, self.mean(samples_ms) / 1e3)
    }

    /// Records a correctness check; `describe` runs only on failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(describe());
        }
    }

    /// Records a property the workload was sized to have (which layer
    /// dominates, how much is reused). A later change may legitimately move
    /// it, so a miss is reported, not failed.
    pub fn expect(&mut self, what: &str, ok: bool, measured: f64) {
        let verdict = if ok { "holds" } else { "MISSED" };
        self.notes
            .push(format!("separation: {what}: {verdict} (measured {measured:.4})"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics every workload reports the same way.
    pub fn finish_common(&mut self, setup: &SetupTimes, bytes_per_point: f64, started: Instant, cpu_start: f64) {
        self.end_to_end.set("setup_s", setup.total_s);
        self.end_to_end.set("resident_bytes_per_point", bytes_per_point);
        self.end_to_end.set("peak_rss_mib", crate::sysinfo::peak_rss_mib());
        self.per_layer.set("fleet.generate_s", setup.generate_s);
        self.per_layer.set("tsdb.load_s", setup.load_s);
        self.per_layer
            .set("failed_share", share(self.failed as f64, self.attempted as f64));
        let wall_s = started.elapsed().as_secs_f64();
        self.per_layer.set(
            "proc.cpu_share",
            share(crate::sysinfo::cpu_seconds() - cpu_start, wall_s),
        );
        let stolen_s = (crate::sysinfo::steal_ticks() - self.steal_start) as f64 / 100.0;
        self.per_layer.set("proc.steal_share", share(stolen_s, wall_s));
        let discarded = share(self.samples_discarded as f64, self.samples_seen as f64);
        self.per_layer.set("proc.steal_discard_share", discarded);
        self.note(format!(
            "steal: hypervisor took {stolen_s:.2} s of CPU during the run; {} of {} timing samples discarded",
            self.samples_discarded, self.samples_seen
        ));
    }

    /// Reports the two operation timings: `op_*` and `slow_op_*`.
    pub fn report_ops(&mut self, op_ms: &Samples, slow_op_ms: &Samples) {
        let (op, slow) = (summarize(&self.keep(op_ms)), summarize(&self.keep(slow_op_ms)));
        self.end_to_end.set("op_ms_p50", op.p50);
        self.end_to_end.set("slow_op_ms_p50", slow.p50);
        self.per_layer.set("op_ms_tail", op.tail);
        self.per_layer.set("op_ms_tail_pct", op.tail_pct);
        self.per_layer.set("op_samples", op.n as f64);
        self.per_layer.set("slow_op_ms_tail", slow.tail);
        self.per_layer.set("slow_op_samples", slow.n as f64);
        self.note(format!(
            "op_ms: p50 {:.3} p{:.1} {:.3} n={}; slow_op_ms: p50 {:.3} p{:.1} {:.3} n={}",
            op.p50, op.tail_pct, op.tail, op.n, slow.p50, slow.tail_pct, slow.tail, slow.n
        ));
    }
}

/// Marks the hypervisor's stolen-time counter when an operation starts.
pub struct StealWatch(u64);

impl StealWatch {
    pub fn start() -> Self {
        StealWatch(crate::sysinfo::steal_ticks())
    }

    /// Whether the hypervisor took CPU time from this VM since `start`.
    pub fn stolen(&self) -> bool {
        crate::sysinfo::steal_ticks() > self.0
    }
}

/// Timing samples, each tagged with whether CPU time was stolen from the
/// VM while it ran. On a shared host a neighbour's burst steals seconds at
/// a time; a sample that ran through one measures the neighbour, not the
/// program, so summaries use the untouched samples when enough remain.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    stolen: Vec<bool>,
}

impl Samples {
    pub fn push(&mut self, value: f64, stolen: bool) {
        self.values.push(value);
        self.stolen.push(stolen);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples that ran without stolen time — or all of them when fewer
    /// than a third are clean, since a median of a handful says little.
    pub fn kept(&self) -> Vec<f64> {
        let clean: Vec<f64> = self
            .values
            .iter()
            .zip(&self.stolen)
            .filter(|(_, &stolen)| !stolen)
            .map(|(&v, _)| v)
            .collect();
        if clean.len() * 3 >= self.values.len() {
            clean
        } else {
            self.values.clone()
        }
    }
}

/// A point in time the measured section must stop at.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

pub struct SetupTimes {
    /// Median input generation + store load, seconds.
    pub total_s: f64,
    pub generate_s: f64,
    pub load_s: f64,
}

/// Runs `build` [`SETUP_REPEATS`] times, dropping each result before the
/// next is built, and keeps the last. `build` returns its product and the
/// seconds it spent generating inputs and loading the store.
pub fn timed_setup<T>(mut build: impl FnMut() -> (T, f64, f64)) -> (T, SetupTimes) {
    let (mut totals, mut generates, mut loads) = (Samples::default(), Samples::default(), Samples::default());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let watch = StealWatch::start();
        let (built, generate_s, load_s) = build();
        let stolen = watch.stolen();
        totals.push(generate_s + load_s, stolen);
        generates.push(generate_s, stolen);
        loads.push(load_s, stolen);
        last = Some(built);
    }
    let times = SetupTimes {
        total_s: median(&totals.kept()),
        generate_s: median(&generates.kept()),
        load_s: median(&loads.kept()),
    };
    (last.expect("SETUP_REPEATS is at least 1"), times)
}

/// Series a scan failed on: panicked, errored, skipped or quarantined.
pub fn scan_failures(health: &ScanHealth) -> u64 {
    (health.panicked + health.errored + health.series_skipped + health.series_quarantined) as u64
}

/// Everything a scan decided, as one string: byte-identical fingerprints
/// mean identical reports, funnel and health.
pub fn outcome_fingerprint(out: &ScanOutcome) -> String {
    format!(
        "{}{:?}|{:?}",
        report::render_batch(&out.reports, None),
        out.funnel,
        out.health
    )
}

/// Stages after per-series detection: they run serially on the scan thread
/// whatever `Pipeline::threads` is (the Amdahl ceiling).
fn serial_stage_ns(s: &StageNanos) -> u64 {
    s.went_away + s.seasonality + s.threshold + s.som_dedup + s.cost_shift + s.pairwise_dedup + s.root_cause
}

/// Reports the pipeline's stage clocks summed over `series_scans` series
/// scans that took `wall_ns` in total at one thread.
pub fn report_stages(metrics: &mut MetricSet, stages: &StageNanos, series_scans: u64, wall_ns: u64) {
    for (name, ns) in stages.named() {
        metrics.set(
            &format!("core.stage.{name}_ns_per_series"),
            share(ns as f64, series_scans as f64),
        );
    }
    metrics.set("core.stage.closure_ratio", share(stages.total() as f64, wall_ns as f64));
    metrics.set(
        "core.pipeline.serial_share",
        share(serial_stage_ns(stages) as f64, stages.total() as f64),
    );
}

/// Share of the stage clocks' total that the named stages hold.
pub fn stage_share(stages: &StageNanos, names: &[&str]) -> f64 {
    let part: u64 = stages
        .named()
        .iter()
        .filter(|(name, _)| names.contains(name))
        .map(|(_, ns)| ns)
        .sum();
    share(part as f64, stages.total() as f64)
}

/// Reuse counters summed over the pipelines of several trials (each trial
/// builds a fresh one); `resident_points` is a level, so the last one wins.
#[derive(Default)]
pub struct ReuseTotals {
    pub engine: EngineStats,
    pub cache: CacheStats,
}

impl ReuseTotals {
    pub fn add(&mut self, engine: &EngineStats, cache: &CacheStats) {
        self.engine.reused_full += engine.reused_full;
        self.engine.advanced_online += engine.advanced_online;
        self.engine.online_fallbacks += engine.online_fallbacks;
        self.engine.summary_hits += engine.summary_hits;
        self.engine.buffer_growth += engine.buffer_growth;
        self.engine.resident_points = engine.resident_points;
        self.cache.hits += cache.hits;
        self.cache.misses += cache.misses;
    }
}

/// The reuse counters one persistent engine accrued since `earlier`.
pub fn engine_since(later: &EngineStats, earlier: &EngineStats) -> EngineStats {
    EngineStats {
        reused_full: later.reused_full - earlier.reused_full,
        advanced_online: later.advanced_online - earlier.advanced_online,
        online_fallbacks: later.online_fallbacks - earlier.online_fallbacks,
        summary_hits: later.summary_hits - earlier.summary_hits,
        buffer_growth: later.buffer_growth - earlier.buffer_growth,
        ..*later
    }
}

/// Reports the streaming engine's reuse counters over `series_scans`.
pub fn report_reuse(metrics: &mut MetricSet, engine: &EngineStats, cache: &CacheStats, series_scans: u64) {
    let scans = series_scans as f64;
    metrics.set(
        "core.scan_state.reused_full_share",
        share(engine.reused_full as f64, scans),
    );
    metrics.set(
        "core.scan_state.advanced_online_share",
        share(engine.advanced_online as f64, scans),
    );
    metrics.set(
        "core.scan_state.online_fallback_share",
        share(
            engine.online_fallbacks as f64,
            (engine.advanced_online + engine.online_fallbacks) as f64,
        ),
    );
    metrics.set("core.scan_state.summary_hits", engine.summary_hits as f64);
    metrics.set("core.scan_state.buffer_growth", engine.buffer_growth as f64);
    metrics.set("core.scan_state.resident_points", engine.resident_points as f64);
    metrics.set("core.scan_cache.hit_share", cache.hit_rate());
}

/// Decode-side store counters, cumulative since the store was built.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadCounters {
    blocks_decoded: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

impl ReadCounters {
    pub fn of(stats: &StoreStats) -> Self {
        ReadCounters {
            blocks_decoded: stats.blocks_decoded(),
            cache_hits: stats.decode_cache_hits(),
            cache_misses: stats.shards.iter().map(|s| s.decode_cache_misses).sum(),
            cache_evictions: stats.decode_cache_evictions(),
        }
    }
}

/// Reports the store's read-side counters accrued since `before`.
pub fn report_reads(metrics: &mut MetricSet, store: &TsdbStore, before: &ReadCounters, series_scans: u64) {
    let now = ReadCounters::of(&store.stats());
    let hits = (now.cache_hits - before.cache_hits) as f64;
    let misses = (now.cache_misses - before.cache_misses) as f64;
    metrics.set(
        "tsdb.store.blocks_decoded_per_series",
        share((now.blocks_decoded - before.blocks_decoded) as f64, series_scans as f64),
    );
    metrics.set("tsdb.store.decode_cache_hit_share", share(hits, hits + misses));
    metrics.set(
        "tsdb.store.decode_cache_evictions",
        (now.cache_evictions - before.cache_evictions) as f64,
    );
}

pub fn report_funnel(metrics: &mut MetricSet, funnel: &FunnelCounters, reports: usize) {
    for (name, count) in funnel_counts(funnel) {
        metrics.set(&format!("core.funnel.{name}"), count as f64);
    }
    metrics.set("core.funnel.reports", reports as f64);
}

/// The funnel as `(name, count)` pairs in stage order.
pub fn funnel_counts(f: &FunnelCounters) -> [(&'static str, usize); 8] {
    [
        ("change_points", f.change_points),
        ("after_went_away", f.after_went_away),
        ("after_seasonality", f.after_seasonality),
        ("after_threshold", f.after_threshold),
        ("after_same_merger", f.after_same_merger),
        ("after_som_dedup", f.after_som_dedup),
        ("after_cost_shift", f.after_cost_shift),
        ("after_pairwise_dedup", f.after_pairwise_dedup),
    ]
}

/// Invariants every scan outcome must satisfy whatever the seed: each
/// funnel stage only removes candidates, every report founded a group, and
/// every requested series is accounted for.
pub fn check_scan_invariants(result: &mut RunResult, what: &str, out: &ScanOutcome, requested: usize) {
    let counts = funnel_counts(&out.funnel);
    let monotone = counts.windows(2).all(|w| w[0].1 >= w[1].1);
    result.check(monotone, || {
        format!("{what}: funnel grows between stages: {:?}", out.funnel)
    });
    result.check(out.reports.len() == out.funnel.after_pairwise_dedup, || {
        format!(
            "{what}: {} reports but {} new groups",
            out.reports.len(),
            out.funnel.after_pairwise_dedup
        )
    });
    let h = &out.health;
    let accounted = h.series_scanned + h.series_quarantined + h.panicked + h.errored + h.series_skipped;
    result.check(h.series_total == requested && accounted >= requested, || {
        format!("{what}: {requested} series requested, health accounts for {h:?}")
    });
    result.check(!h.degraded && h.stage_errors == 0, || {
        format!("{what}: degraded scan: {h:?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_keep_the_clean_ones_when_a_third_remain() {
        let mut s = Samples::default();
        for (v, stolen) in [(10.0, false), (50.0, true), (11.0, false), (60.0, true), (70.0, true)] {
            s.push(v, stolen);
        }
        // 2 of 5 clean: at least a third.
        assert_eq!(s.kept(), vec![10.0, 11.0]);
        s.push(80.0, true);
        s.push(90.0, true);
        // 2 of 7 clean: fewer than a third, so every sample counts.
        assert_eq!(s.kept().len(), 7);
        assert!(Samples::default().kept().is_empty());
    }

    #[test]
    fn setup_is_repeated_and_the_last_product_kept() {
        let mut calls = 0;
        let (last, times) = timed_setup(|| {
            calls += 1;
            (calls, calls as f64, 10.0 * calls as f64)
        });
        assert_eq!((calls, last), (SETUP_REPEATS, SETUP_REPEATS));
        // Medians of 1..=5 and 10..=50 — over fewer of them if this test was stolen from.
        assert!(times.generate_s >= 1.0 && times.load_s >= 10.0);
        assert!((times.total_s - 11.0 * times.generate_s).abs() < 1e-9);
    }
}
