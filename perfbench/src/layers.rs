//! Direct calls into each layer's public functions, on a workload's own
//! inputs, with a span around every call.
//!
//! [`staged_scan`] walks the same stages as `Pipeline::scan` (engine off)
//! through the layers' public entry points, so each stage gets its own span
//! and its own ns-per-unit number; its funnel must equal the pipeline's on
//! the same inputs, which the scan workloads check. The `probe_*` functions
//! time single kernels: block seal/decode, the `fbd-stats` tests, delta
//! snapshots, and the ingest stages.

use crate::metrics::MetricSet;
use crate::stats::share;
use crate::trace::Tracer;
use bytes::Bytes;
use fbd_cluster::pairwise::Group;
use fbd_ingest::quota::{QuotaConfig, TenantQuotas};
use fbd_ingest::validate::{Validator, ValidatorConfig};
use fbd_ingest::wire::decode_batch;
use fbd_stats::stl::{decompose, StlConfig};
use fbd_stats::{hypothesis, trend};
use fbd_tsdb::{DataPoint, MetricKind, SealedBlock, SeriesId, SeriesVersion, StoreConfig, TsdbStore, WindowedData};
use fbdetect_core::change_point::ChangePointDetector;
use fbdetect_core::cost_shift::CostShiftDetector;
use fbdetect_core::dedup::pairwise_dedup::{MergeRule, PairwiseDedup, RuleCombination};
use fbdetect_core::dedup::same_merger::SameRegressionMerger;
use fbdetect_core::dedup::som_dedup::{som_dedup, SomDedupConfig};
use fbdetect_core::long_term::LongTermDetector;
use fbdetect_core::root_cause::{RcaContext, RootCauseAnalyzer};
use fbdetect_core::seasonality::SeasonalityDetector;
use fbdetect_core::went_away::WentAwayDetector;
use fbdetect_core::{DetectorConfig, FunnelCounters, Regression, ScanContext};
use std::hint::black_box;
use std::time::Instant;

/// Cross-scan state of a staged trial: what `Pipeline` keeps between the
/// scans of one trial.
pub struct StagedState {
    merger: SameRegressionMerger,
    groups: Vec<Group<Regression>>,
}

impl StagedState {
    pub fn new(config: &DetectorConfig) -> Self {
        StagedState {
            merger: SameRegressionMerger::new(config.windows.rerun_interval),
            groups: Vec::new(),
        }
    }
}

/// Units of work each stage span covered, to turn span time into
/// ns-per-unit.
#[derive(Debug, Default, Clone, Copy)]
pub struct StagedWork {
    pub series: u64,
    pub short_candidates: u64,
    pub seasonality_candidates: u64,
    pub som_candidates: u64,
    pub cost_shift_candidates: u64,
    pub pairwise_candidates: u64,
    pub rca_reports: u64,
}

impl StagedWork {
    pub fn add(&mut self, other: &StagedWork) {
        self.series += other.series;
        self.short_candidates += other.short_candidates;
        self.seasonality_candidates += other.seasonality_candidates;
        self.som_candidates += other.som_candidates;
        self.cost_shift_candidates += other.cost_shift_candidates;
        self.pairwise_candidates += other.pairwise_candidates;
        self.rca_reports += other.rca_reports;
    }
}

/// Span names of [`staged_scan`], in stage order.
pub const STAGED_ROOT: &str = "staged_scan";
const SPAN_WINDOWS: &str = "tsdb.store.snapshot_windows";
const SPAN_SHORT: &str = "core.change_point.detect";
const SPAN_LONG: &str = "core.long_term.detect";
const SPAN_WENT_AWAY: &str = "core.went_away.evaluate";
const SPAN_SEASONALITY: &str = "core.seasonality.evaluate";
const SPAN_THRESHOLD: &str = "core.threshold_and_merger";
const SPAN_SOM: &str = "core.dedup.som";
const SPAN_COST_SHIFT: &str = "core.cost_shift";
const SPAN_PAIRWISE: &str = "core.dedup.pairwise";
const SPAN_RCA: &str = "core.root_cause";

/// One scan through the layers' public entry points, one span per stage.
/// Returns the funnel, the final reports and the work each stage did.
pub fn staged_scan(
    tracer: &mut Tracer,
    store: &TsdbStore,
    ids: &[SeriesId],
    config: &DetectorConfig,
    now: u64,
    context: &ScanContext<'_>,
    state: &mut StagedState,
) -> (FunnelCounters, Vec<Regression>, StagedWork) {
    let mut funnel = FunnelCounters::default();
    let mut work = StagedWork {
        series: ids.len() as u64,
        ..StagedWork::default()
    };
    tracer.enter(STAGED_ROOT);

    let refs: Vec<&SeriesId> = ids.iter().collect();
    let windows: Vec<Option<WindowedData>> = tracer.span(SPAN_WINDOWS, || {
        store
            .snapshot_windows(&refs, &config.windows, now)
            .into_iter()
            .map(Result::ok)
            .collect()
    });

    let change_point = ChangePointDetector::from_config(config);
    let mut short: Vec<Regression> = tracer.span(SPAN_SHORT, || {
        ids.iter()
            .zip(&windows)
            .filter_map(|(id, w)| change_point.detect(id, w.as_ref()?, now).ok().flatten())
            .collect()
    });
    let long_term = LongTermDetector::from_config(config);
    let mut long: Vec<Regression> = tracer.span(SPAN_LONG, || {
        if !config.long_term_enabled {
            return Vec::new();
        }
        ids.iter()
            .zip(&windows)
            .filter_map(|(id, w)| long_term.detect(id, w.as_ref()?, now).ok().flatten())
            .collect()
    });
    drop(windows);
    // The pipeline's deterministic candidate order.
    short.sort_by(|a, b| a.series.cmp(&b.series));
    long.sort_by(|a, b| a.series.cmp(&b.series));
    funnel.change_points = short.len() + long.len();

    work.short_candidates = short.len() as u64;
    let went_away = WentAwayDetector::from_config(config);
    tracer.span(SPAN_WENT_AWAY, || {
        short.retain(|r| went_away.evaluate(r).map(|v| v.keep).unwrap_or(false));
    });
    funnel.after_went_away = short.len() + long.len();

    work.seasonality_candidates = short.len() as u64;
    let seasonality = SeasonalityDetector::from_config(config);
    tracer.span(SPAN_SEASONALITY, || {
        short.retain(|r| seasonality.evaluate(r).map(|v| v.keep).unwrap_or(false));
    });
    funnel.after_seasonality = short.len() + long.len();

    let thresholded: Vec<Regression> = tracer.span(SPAN_THRESHOLD, || {
        let kept: Vec<Regression> = short
            .into_iter()
            .chain(long)
            .filter(|r| config.threshold.is_met(r.mean_before, r.mean_after))
            .collect();
        funnel.after_threshold = kept.len();
        state.merger.filter_new(kept)
    });
    funnel.after_same_merger = thresholded.len();

    work.som_candidates = thresholded.len() as u64;
    let mut representatives: Vec<Regression> = tracer.span(SPAN_SOM, || {
        let som_config = SomDedupConfig {
            importance_weights: config.importance_weights,
            rca_lookback: config.rca_lookback,
            seed: 0xDED0,
        };
        match som_dedup(&thresholded, context.changelog, &som_config, |_| 0.0) {
            Ok(groups) => {
                let mut pool: Vec<Option<Regression>> = thresholded.into_iter().map(Some).collect();
                groups
                    .iter()
                    .filter_map(|g| pool.get_mut(g.representative).and_then(Option::take))
                    .collect()
            }
            Err(_) => thresholded,
        }
    });
    funnel.after_som_dedup = representatives.len();

    if !context.domain_providers.is_empty() {
        work.cost_shift_candidates = representatives.len() as u64;
        let detector = CostShiftDetector::from_config(config);
        representatives = tracer.span(SPAN_COST_SHIFT, || {
            representatives
                .into_iter()
                .filter(|r| {
                    r.series.metric != MetricKind::GCpu || !is_cost_shift(&detector, store, r, config, now, context)
                })
                .collect()
        });
    }
    funnel.after_cost_shift = representatives.len();

    work.pairwise_candidates = representatives.len() as u64;
    let prior_groups = state.groups.len();
    tracer.span(SPAN_PAIRWISE, || {
        let corpus: Vec<String> = representatives
            .iter()
            .map(Regression::metric_id)
            .chain(
                state
                    .groups
                    .iter()
                    .flat_map(|g| g.members.iter().map(Regression::metric_id)),
            )
            .collect();
        let rule = config.pairwise_rule.unwrap_or(MergeRule {
            min_correlation: Some(config.pairwise_min_correlation),
            min_text_similarity: Some(config.pairwise_min_text_similarity),
            min_stack_overlap: None,
            combination: RuleCombination::All,
        });
        let engine = PairwiseDedup::new(rule, &corpus);
        state.groups = engine.dedup(std::mem::take(&mut representatives), std::mem::take(&mut state.groups));
    });
    funnel.after_pairwise_dedup = state.groups.len() - prior_groups;
    let mut reports: Vec<Regression> = state.groups[prior_groups..]
        .iter()
        .map(|g| g.representative().clone())
        .collect();

    if let Some(log) = context.changelog {
        work.rca_reports = reports.len() as u64;
        let rca = RootCauseAnalyzer::from_config(config);
        tracer.span(SPAN_RCA, || {
            for r in reports.iter_mut() {
                if let Ok(ranked) = rca.analyze(r, log, &RcaContext::default()) {
                    r.root_cause_candidates = ranked.into_iter().map(|c| c.change_id).collect();
                }
            }
        });
    }
    tracer.exit();
    (funnel, reports, work)
}

/// The pipeline's cost-domain check: sum the domain members' windows and
/// apply the §5.4 rules at the regression's change point.
fn is_cost_shift(
    detector: &CostShiftDetector,
    store: &TsdbStore,
    regression: &Regression,
    config: &DetectorConfig,
    now: u64,
    context: &ScanContext<'_>,
) -> bool {
    let service = &regression.series.service;
    let cp = regression.change_index;
    detector
        .is_cost_shift(
            regression,
            &regression.series.target,
            &context.domain_providers,
            |members| {
                let mut total: Option<Vec<f64>> = None;
                for m in members {
                    let id = SeriesId::new(service.clone(), MetricKind::GCpu, m.clone());
                    let values = store.windows(&id, &config.windows, now).ok()?.into_values();
                    match total.as_mut() {
                        None => total = Some(values),
                        Some(acc) if acc.len() == values.len() => {
                            acc.iter_mut().zip(values).for_each(|(a, v)| *a += v);
                        }
                        Some(_) => return None,
                    }
                }
                let total = total?;
                (cp + 1 < total.len()).then(|| {
                    let (before, after) = total.split_at(cp + 1);
                    (before.to_vec(), after.to_vec())
                })
            },
        )
        .unwrap_or(false)
}

/// Turns the staged spans' summed durations into the direct-call metrics.
pub fn report_staged(metrics: &mut MetricSet, tracer: &Tracer, work: &StagedWork) {
    let totals = crate::trace::totals_by_name(tracer.spans());
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let per = |name: &str, units: u64| share(ns(name), units as f64);
    metrics.set(
        "tsdb.store.snapshot_windows_ns_per_series",
        per(SPAN_WINDOWS, work.series),
    );
    metrics.set("core.change_point.detect_ns_per_series", per(SPAN_SHORT, work.series));
    metrics.set("core.long_term.detect_ns_per_series", per(SPAN_LONG, work.series));
    metrics.set(
        "core.went_away.evaluate_ns_per_candidate",
        per(SPAN_WENT_AWAY, work.short_candidates),
    );
    metrics.set(
        "core.seasonality.evaluate_ns_per_candidate",
        per(SPAN_SEASONALITY, work.seasonality_candidates),
    );
    metrics.set("core.dedup.som_ns_per_candidate", per(SPAN_SOM, work.som_candidates));
    metrics.set(
        "core.cost_shift.ns_per_candidate",
        per(SPAN_COST_SHIFT, work.cost_shift_candidates),
    );
    metrics.set(
        "core.dedup.pairwise_ns_per_candidate",
        per(SPAN_PAIRWISE, work.pairwise_candidates),
    );
    metrics.set("core.root_cause.ns_per_report", per(SPAN_RCA, work.rca_reports));
    metrics.set(
        "trace.closure_ratio",
        crate::trace::closure_under(tracer.spans(), STAGED_ROOT),
    );
}

/// How many series or windows a kernel probe samples.
const PROBE_SAMPLE: usize = 256;

/// Evenly spread sample of at most [`PROBE_SAMPLE`] ids.
fn sample_ids(ids: &[SeriesId]) -> Vec<&SeriesId> {
    let step = ids.len().div_ceil(PROBE_SAMPLE).max(1);
    ids.iter().step_by(step).collect()
}

/// `SealedBlock::from_points` and `decode_into` over seal-limit-sized
/// chunks of sampled series.
pub fn probe_blocks(tracer: &mut Tracer, metrics: &mut MetricSet, store: &TsdbStore, ids: &[SeriesId]) {
    let chunk = StoreConfig::DEFAULT_SEAL_LIMIT as usize;
    let series: Vec<Vec<DataPoint>> = sample_ids(ids)
        .into_iter()
        .filter_map(|id| store.get(id).ok())
        .map(|s| s.iter().collect())
        .collect();
    let chunks: Vec<&[DataPoint]> = series.iter().flat_map(|p| p.chunks_exact(chunk)).collect();
    let points = (chunks.len() * chunk) as f64;
    let t = Instant::now();
    let blocks: Vec<SealedBlock> = tracer.span("tsdb.block.from_points", || {
        chunks.iter().map(|c| SealedBlock::from_points(c)).collect()
    });
    let seal_ns = t.elapsed().as_nanos() as f64;
    let bytes: usize = blocks.iter().map(SealedBlock::byte_len).sum();
    let mut out = Vec::with_capacity(chunk);
    let t = Instant::now();
    tracer.span("tsdb.block.decode_into", || {
        for b in &blocks {
            out.clear();
            b.decode_into(&mut out);
            black_box(&out);
        }
    });
    let decode_ns = t.elapsed().as_nanos() as f64;
    metrics.set("tsdb.block.seal_ns_per_point", share(seal_ns, points));
    metrics.set("tsdb.block.decode_ns_per_point", share(decode_ns, points));
    metrics.set("tsdb.block.bytes_per_point", share(bytes as f64, points));
}

/// The `fbd-stats` kernels behind the detector and filter stages, each over
/// the window region its stage hands it.
pub fn probe_stats_kernels(
    tracer: &mut Tracer,
    metrics: &mut MetricSet,
    store: &TsdbStore,
    ids: &[SeriesId],
    config: &DetectorConfig,
    now: u64,
) {
    let windows: Vec<WindowedData> = sample_ids(ids)
        .into_iter()
        .filter_map(|id| store.windows(id, &config.windows, now).ok())
        .collect();
    let n = windows.len() as f64;
    let mut time = |name: &'static str, f: &mut dyn FnMut(&WindowedData)| {
        let t = Instant::now();
        tracer.span(name, || windows.iter().for_each(&mut *f));
        share(t.elapsed().as_nanos() as f64, n)
    };
    let lrt = time("stats.likelihood_ratio_test", &mut |w| {
        let _ = black_box(hypothesis::likelihood_ratio_test(
            w.all(),
            w.historic_len().max(1),
            0.01,
        ));
    });
    let mann_kendall = time("stats.mann_kendall", &mut |w| {
        let _ = black_box(trend::mann_kendall(w.analysis_and_extended(), 0.05));
    });
    let theil_sen = time("stats.theil_sen", &mut |w| {
        let _ = black_box(trend::theil_sen(w.analysis_and_extended()));
    });
    let stl = time("stats.stl_decompose", &mut |w| {
        let _ = black_box(decompose(w.all(), StlConfig::for_period(24)));
    });
    metrics.set("stats.lrt_ns_per_window", lrt);
    metrics.set("stats.mann_kendall_ns_per_window", mann_kendall);
    metrics.set("stats.theil_sen_ns_per_window", theil_sen);
    metrics.set("stats.stl_ns_per_window", stl);
}

/// One `snapshot_deltas` call over `ids` against the versions the caller
/// last observed; returns ns per series and the versions now current.
pub fn probe_snapshot_deltas(
    tracer: &mut Tracer,
    store: &TsdbStore,
    ids: &[SeriesId],
    known: &[Option<SeriesVersion>],
    config: &DetectorConfig,
    now: u64,
) -> (f64, Vec<Option<SeriesVersion>>) {
    use fbd_tsdb::SeriesDelta;
    let refs: Vec<&SeriesId> = ids.iter().collect();
    let t = Instant::now();
    let deltas = tracer.span("tsdb.store.snapshot_deltas", || {
        store.snapshot_deltas(&refs, known, &config.windows, now)
    });
    let ns = t.elapsed().as_nanos() as f64;
    let versions = deltas
        .iter()
        .map(|d| match d {
            SeriesDelta::Unchanged { version }
            | SeriesDelta::Appended { version, .. }
            | SeriesDelta::Reset { version, .. } => Some(*version),
            SeriesDelta::Missing => None,
        })
        .collect();
    (share(ns, ids.len() as f64), versions)
}

/// The ingest stages one by one, over wire batches the workload's own
/// generator produced: decode, validate, quota, then `append_batch` of the
/// validated points into a scratch store (sealing included).
pub fn probe_ingest_stages(tracer: &mut Tracer, metrics: &mut MetricSet, batches: &[Bytes]) {
    let mut validator = Validator::new(ValidatorConfig::default());
    let mut quotas = TenantQuotas::new(QuotaConfig {
        burst: u64::MAX / 2,
        points_per_sec: 0,
    });
    let scratch = TsdbStore::with_config(StoreConfig::compressed());
    let (mut decode_ns, mut validate_ns, mut quota_ns, mut append_ns) = (0u128, 0u128, 0u128, 0u128);
    let (mut wire_bytes, mut decoded_points, mut appended_points, mut admitted) = (0usize, 0usize, 0usize, 0u64);
    for raw in batches {
        let t = Instant::now();
        let decoded = tracer.span("ingest.wire.decode_batch", || decode_batch(raw));
        decode_ns += t.elapsed().as_nanos();
        // Planted truncations fail here, as they do in the pipeline.
        let Ok(batch) = decoded else { continue };
        wire_bytes += raw.len();
        decoded_points += batch.point_count();
        let t = Instant::now();
        let ok = tracer.span("ingest.quota.admit", || {
            quotas.admit(&batch.tenant, batch.collected_at, batch.point_count() as u64)
        });
        quota_ns += t.elapsed().as_nanos();
        admitted += u64::from(ok);
        let t = Instant::now();
        let validated = tracer.span("ingest.validate.validate", || validator.validate(&batch));
        validate_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let outcome = tracer.span("tsdb.store.append_batch", || scratch.append_batch(&validated.routed));
        append_ns += t.elapsed().as_nanos();
        appended_points += outcome.appended;
    }
    metrics.set(
        "ingest.wire.decode_ns_per_point",
        share(decode_ns as f64, decoded_points as f64),
    );
    metrics.set(
        "ingest.wire.bytes_per_point",
        share(wire_bytes as f64, decoded_points as f64),
    );
    metrics.set(
        "ingest.validate.ns_per_point",
        share(validate_ns as f64, decoded_points as f64),
    );
    metrics.set("ingest.quota.ns_per_batch", share(quota_ns as f64, admitted as f64));
    metrics.set(
        "tsdb.store.append_ns_per_point",
        share(append_ns as f64, appended_points as f64),
    );
}
