//! `funnel_storm`: the Table 3 shape — a transient-dominated background,
//! noise, hourly-seasonal series, clustered true regressions with a latency
//! metric, cost-shift pairs, sub-threshold shifts and gradual ramps —
//! scanned twice per trial at overlapping times by a fresh `Pipeline`, with
//! a changelog (background traffic plus one planted culprit per cluster)
//! and the shift pairs as cost domains.
//!
//! Went-away/seasonality filtering, threshold + SameRegressionMerger,
//! SOM/pairwise dedup, cost-shift and RCA — the stages that run serially
//! after detection — do most of the work, and windowing little. It also
//! carries the detection-quality numbers, so a speed-up that drops a true
//! report is caught.

use super::{
    check_scan_invariants, outcome_fingerprint, report_funnel, report_reads, report_reuse, report_stages,
    scan_failures, stage_share, timed_setup, Deadline, ReadCounters, ReuseTotals, RunArgs, RunResult, Samples,
    StealWatch,
};
use crate::golden;
use crate::inputs::{funnel_config, funnel_population, FunnelKind, FunnelPopulation, FunnelSize, FUNNEL_SCAN_TIMES};
use crate::layers::{
    probe_blocks, probe_snapshot_deltas, probe_stats_kernels, report_staged, staged_scan, StagedState, StagedWork,
};
use crate::stats::{median, share};
use fbd_tsdb::StoreConfig;
use fbdetect_core::cost_shift::{CostDomainProvider, CustomDomain};
use fbdetect_core::scan_cache::CacheStats;
use fbdetect_core::{EngineStats, FunnelCounters, Pipeline, Regression, ScanContext, StageNanos};
use std::collections::BTreeSet;
use std::time::Instant;

/// About 2,600 series: the Table 3 mix with clusters large enough that
/// over 1,000 candidates reach SOMDedup and dedup, cost-shift and RCA hold
/// a visible share of the scan, and a background small enough that a trial
/// (two scans) takes under a second here.
const SIZE: FunnelSize = FunnelSize {
    transients: 1_100,
    noise: 200,
    seasonal: 60,
    clusters: 40,
    callers: 24,
    shift_pairs: 80,
    tiny: 30,
    ramps: 30,
    background_changes: 2_000,
};
const QUICK_SIZE: FunnelSize = FunnelSize {
    transients: 120,
    noise: 30,
    seasonal: 8,
    clusters: 4,
    callers: 6,
    shift_pairs: 6,
    tiny: 4,
    ramps: 4,
    background_changes: 100,
};

/// Detection quality of one trial's reports against the planted truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Quality {
    /// Planted clusters and ramps with at least one report.
    recalled: usize,
    planted: usize,
    /// Reports on transient, noise, seasonal, tiny or cost-shift series.
    false_reports: usize,
    /// Reports on cluster series, and those of them whose top-3 root-cause
    /// candidates hold the cluster's planted culprit.
    cluster_reports: usize,
    culprit_hits: usize,
}

impl Quality {
    fn recall(&self) -> f64 {
        share(self.recalled as f64, self.planted as f64)
    }

    fn rca_top3_share(&self) -> f64 {
        share(self.culprit_hits as f64, self.cluster_reports as f64)
    }
}

fn quality(population: &FunnelPopulation, reports: &[Regression]) -> Quality {
    let (mut clusters, mut ramps) = (BTreeSet::new(), BTreeSet::new());
    let mut q = Quality {
        recalled: 0,
        planted: population.clusters + population.ramps,
        false_reports: 0,
        cluster_reports: 0,
        culprit_hits: 0,
    };
    for r in reports {
        match population.kinds.get(&r.series) {
            Some(FunnelKind::Cluster(c)) => {
                clusters.insert(*c);
                q.cluster_reports += 1;
                q.culprit_hits += usize::from(r.root_cause_candidates.contains(&population.culprits[*c]));
            }
            Some(FunnelKind::Ramp(i)) => {
                ramps.insert(*i);
            }
            _ => q.false_reports += 1,
        }
    }
    q.recalled = clusters.len() + ramps.len();
    q
}

struct Trial {
    wall_s: f64,
    first_scan_s: f64,
    /// The hypervisor took CPU time from the VM during the first scan, or
    /// during either scan.
    first_stolen: bool,
    stolen: bool,
    funnel: FunnelCounters,
    reports: Vec<Regression>,
    fingerprint: String,
    failed: u64,
    stages: StageNanos,
    engine: EngineStats,
    cache: CacheStats,
}

/// One trial: a fresh pipeline scans the population at both scan times.
fn trial(r: &mut RunResult, population: &FunnelPopulation, context: &ScanContext<'_>) -> Trial {
    let mut pipeline = Pipeline::new(funnel_config()).expect("the funnel config is valid");
    pipeline.threads = 1;
    let mut t = Trial {
        wall_s: 0.0,
        first_scan_s: 0.0,
        first_stolen: false,
        stolen: false,
        funnel: FunnelCounters::default(),
        reports: Vec::new(),
        fingerprint: String::new(),
        failed: 0,
        stages: StageNanos::default(),
        engine: EngineStats::default(),
        cache: CacheStats::default(),
    };
    let watch = StealWatch::start();
    let started = Instant::now();
    for (i, &now) in FUNNEL_SCAN_TIMES.iter().enumerate() {
        let out = pipeline
            .scan(&population.store, &population.ids, now, context)
            .expect("scan infrastructure failed");
        if i == 0 {
            t.first_scan_s = started.elapsed().as_secs_f64();
            t.first_stolen = watch.stolen();
        }
        t.wall_s = started.elapsed().as_secs_f64();
        t.stolen = watch.stolen();
        check_scan_invariants(r, "funnel scan", &out, population.ids.len());
        t.failed += scan_failures(&out.health);
        t.funnel.accumulate(&out.funnel);
        t.fingerprint.push_str(&outcome_fingerprint(&out));
        t.reports.extend(out.reports);
    }
    t.stages = pipeline.stage_profile();
    t.engine = pipeline.streaming_stats().unwrap_or_default();
    t.cache = pipeline.cache_stats();
    t
}

pub fn run(args: &RunArgs) -> RunResult {
    let (started, cpu_start) = (Instant::now(), crate::sysinfo::cpu_seconds());
    let mut r = RunResult::new(args);
    let size = if args.quick { QUICK_SIZE } else { SIZE };

    // Generation and load interleave series by series: both halves are
    // reported under generate, load stays 0.
    let (population, setup) = timed_setup(|| {
        let t = Instant::now();
        let population = funnel_population(&size, args.seed, StoreConfig::compressed());
        (population, t.elapsed().as_secs_f64(), 0.0)
    });
    let n = population.ids.len();
    r.note(format!(
        "inputs: {n} series, {} changes, {} clusters x {} series, fingerprint {:#018x}",
        population.changelog.len(),
        size.clusters,
        size.callers + 1,
        population.fingerprint
    ));
    if args.pinned() {
        r.check(population.fingerprint == golden::FUNNEL_STORM_INPUTS, || {
            format!(
                "input fingerprint {:#018x} differs from the committed {:#018x}",
                population.fingerprint,
                golden::FUNNEL_STORM_INPUTS
            )
        });
    }
    let bytes_per_point = population.store.stats().bytes_per_point();

    let domains = &population.shift_domains;
    let domain = CustomDomain {
        label: "shift-pairs".to_string(),
        f: move |subroutine: &str| domains.get(subroutine).cloned(),
    };
    let providers: Vec<&dyn CostDomainProvider> = vec![&domain];
    let context = ScanContext {
        changelog: Some(&population.changelog),
        domain_providers: providers,
        ..Default::default()
    };

    // Discarded warm-up trial; its outcome is the reference.
    let reference = trial(&mut r, &population, &context);
    let q = quality(&population, &reference.reports);
    r.note(format!(
        "funnel (2 scans): {:?}, {} reports; quality {q:?}",
        reference.funnel,
        reference.reports.len()
    ));
    if args.pinned() {
        let got = (
            super::funnel_counts(&reference.funnel).map(|(_, c)| c),
            reference.reports.len(),
        );
        r.check(got == golden::FUNNEL_STORM_FUNNEL, || {
            format!(
                "funnel {got:?} differs from the committed {:?}",
                golden::FUNNEL_STORM_FUNNEL
            )
        });
        let got = (q.recalled, q.false_reports, q.culprit_hits, q.cluster_reports);
        r.check(got == golden::FUNNEL_STORM_QUALITY, || {
            format!(
                "quality {got:?} differs from the committed {:?}",
                golden::FUNNEL_STORM_QUALITY
            )
        });
    }
    if !args.quick {
        r.check(q.recall() >= golden::FUNNEL_RECALL_FLOOR, || {
            format!(
                "recall {} below the committed floor {}",
                q.recall(),
                golden::FUNNEL_RECALL_FLOOR
            )
        });
        r.check(q.rca_top3_share() >= golden::FUNNEL_RCA_TOP3_FLOOR, || {
            format!(
                "RCA top-3 share {} below the committed floor {}",
                q.rca_top3_share(),
                golden::FUNNEL_RCA_TOP3_FLOOR
            )
        });
        r.check(q.false_reports <= golden::FUNNEL_FALSE_REPORTS_CEILING, || {
            format!(
                "{} false reports, above the committed ceiling {}",
                q.false_reports,
                golden::FUNNEL_FALSE_REPORTS_CEILING
            )
        });
    }
    let verify = |r: &mut RunResult, t: &Trial| {
        r.attempted += 2 * n as u64;
        r.failed += t.failed;
        r.check(t.fingerprint == reference.fingerprint, || {
            "a trial's reports/funnel/health differ from the first trial's".to_string()
        });
    };

    let budget = if args.trace { args.seconds * 0.2 } else { args.seconds };
    let deadline = Deadline::after(budget);
    let (mut trial_ms, mut first_ms) = (Samples::default(), Samples::default());
    while trial_ms.is_empty() || !deadline.expired() {
        let t = trial(&mut r, &population, &context);
        verify(&mut r, &t);
        trial_ms.push(t.wall_s * 1e3, t.stolen);
        first_ms.push(t.first_scan_s * 1e3, t.first_stolen);
    }
    // Total work over total time, as in `cold_scan`.
    let work_per_s = r.throughput(2.0 * n as f64, &trial_ms);
    r.end_to_end.set("work_per_s", work_per_s);

    if !args.trace {
        // The first scan of a trial founds every group; the overlapping
        // re-scan mostly merges into them.
        r.report_ops(&trial_ms, &first_ms);
    } else {
        let untraced_ms = median(&trial_ms.kept());
        let reads_before = ReadCounters::of(&population.store.stats());
        let (mut traced_ms, mut traced_first_ms, mut wall_ns) = (Samples::default(), Samples::default(), 0u64);
        let (mut stages, mut reuse) = (StageNanos::default(), ReuseTotals::default());
        let deadline = Deadline::after(args.seconds * 0.4);
        while traced_ms.is_empty() || !deadline.expired() {
            r.tracer.set_unit(traced_ms.len() as u32);
            r.tracer.enter("core.pipeline.scan_x2");
            let t = trial(&mut r, &population, &context);
            for (name, ns) in t.stages.named() {
                r.tracer.counter(name, ns as f64);
            }
            r.tracer.counter("reports", t.reports.len() as f64);
            r.tracer.exit();
            verify(&mut r, &t);
            traced_ms.push(t.wall_s * 1e3, t.stolen);
            traced_first_ms.push(t.first_scan_s * 1e3, t.first_stolen);
            wall_ns += (t.wall_s * 1e9) as u64;
            stages.accumulate(&t.stages);
            reuse.add(&t.engine, &t.cache);
        }
        let scans = (2 * n * traced_ms.len()) as u64;
        report_stages(&mut r.per_layer, &stages, scans, wall_ns);
        report_reuse(&mut r.per_layer, &reuse.engine, &reuse.cache, scans);
        report_reads(&mut r.per_layer, &population.store, &reads_before, scans);
        report_funnel(&mut r.per_layer, &reference.funnel, reference.reports.len());
        r.per_layer.set("core.funnel.recall", q.recall());
        r.per_layer.set("core.funnel.false_reports", q.false_reports as f64);
        r.per_layer.set("core.root_cause.top3_share", q.rca_top3_share());
        r.per_layer
            .set("trace.overhead_ratio", share(median(&traced_ms.kept()), untraced_ms));
        r.report_ops(&traced_ms, &traced_first_ms);

        let config = funnel_config();
        let mut work = StagedWork::default();
        let deadline = Deadline::after(args.seconds * 0.3);
        let mut staged_trials = 0u32;
        while staged_trials == 0 || !deadline.expired() {
            r.tracer.set_unit(staged_trials);
            let mut state = StagedState::new(&config);
            let mut funnel = FunnelCounters::default();
            let mut reports = 0usize;
            for &now in &FUNNEL_SCAN_TIMES {
                let (f, found, w) = staged_scan(
                    &mut r.tracer,
                    &population.store,
                    &population.ids,
                    &config,
                    now,
                    &context,
                    &mut state,
                );
                funnel.accumulate(&f);
                reports += found.len();
                work.add(&w);
            }
            r.check(funnel == reference.funnel && reports == reference.reports.len(), || {
                format!(
                    "staged scan funnel {funnel:?} differs from the pipeline's {:?}",
                    reference.funnel
                )
            });
            staged_trials += 1;
        }
        report_staged(&mut r.per_layer, &r.tracer, &work);
        let now = FUNNEL_SCAN_TIMES[1];
        probe_blocks(&mut r.tracer, &mut r.per_layer, &population.store, &population.ids);
        probe_stats_kernels(
            &mut r.tracer,
            &mut r.per_layer,
            &population.store,
            &population.ids,
            &config,
            now,
        );
        let (deltas_ns, _) =
            probe_snapshot_deltas(&mut r.tracer, &population.store, &population.ids, &[], &config, now);
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
        let serial = r.per_layer.get("core.pipeline.serial_share");
        r.expect("serial stages hold >= 45% of stage time", serial >= 0.45, serial);
        let dedup = stage_share(&stages, &["som_dedup", "cost_shift", "pairwise_dedup", "root_cause"]);
        r.expect(
            "som_dedup+cost_shift+pairwise_dedup+root_cause >= 5% of stage time",
            dedup >= 0.05,
            dedup,
        );
        let windowing = stage_share(&stages, &["windowing"]);
        r.expect("windowing <= 15% of stage time", windowing <= 0.15, windowing);
        r.expect(
            ">= 1,000 candidates reach som_dedup",
            reference.funnel.after_same_merger >= 1_000,
            reference.funnel.after_same_merger as f64,
        );
    }
    r.finish_common(&setup, bytes_per_point, started, cpu_start);
    r
}
