//! The FBDetect workflow (Figure 6).
//!
//! Orchestrates the detectors in the paper's fast-filters-first order:
//! change-point detection → went-away → seasonality → threshold →
//! SameRegressionMerger → SOMDedup → cost-shift → PairwiseDedup → root
//! cause analysis. The long-term path (§5.3) skips the went-away and
//! seasonality filters (STL is built into it) and joins at threshold
//! filtering. Per-stage [`FunnelCounters`] reproduce Table 3.
//!
//! Series scanning is embarrassingly parallel; the per-series steps —
//! both detectors and the went-away and seasonality filters, which are pure
//! functions of one candidate — fan out across workers one store shard at
//! a time ([`Pipeline::detect_sharded`]), matching the paper's "scanning
//! different time series in parallel". The calling thread is worker 0;
//! workers 1..N−1 run the same loop under `std::thread::scope`.
//!
//! The scan acts as a fault-tolerant *supervisor*: each per-series
//! detection task runs under `catch_unwind`, failing series are parked in a
//! [`Quarantine`] with exponential backoff, a per-scan [`ScanBudget`] sheds
//! the expensive dedup stages when the deadline is blown, and every scan
//! reports [`ScanHealth`] telemetry alongside its regression reports.

use crate::change_point::ChangePointDetector;
use crate::config::DetectorConfig;
use crate::cost_shift::{CostDomainProvider, CostShiftDetector};
use crate::dedup::pairwise_dedup::{MergeRule, PairwiseDedup, RuleCombination};
use crate::dedup::same_merger::SameRegressionMerger;
use crate::dedup::som_dedup::{som_dedup, SomDedupConfig};
use crate::long_term::LongTermDetector;
use crate::profile::StageNanos;
use crate::quarantine::{FaultKind, Quarantine, QuarantineConfig};
use crate::root_cause::{ChangeText, RcaContext, RootCauseAnalyzer};
use crate::scan_cache::CacheStats;
use crate::scan_state::{
    CachedScan, EngineStats, OnlinePolicy, Prepared, ShortVerdict, StreamingEngine,
};
use crate::seasonality::{SeasonalArtifacts, SeasonalityDetector};
use crate::types::{FunnelCounters, Regression, ScanHealth};
use crate::went_away::{WentAwayDetector, WentAwayStats};
use crate::{DetectError, Result};
use fbd_changelog::ChangeLog;
use fbd_cluster::pairwise::Group;
use fbd_profiler::callgraph::CallGraph;
use fbd_profiler::gcpu::stack_trace_overlap;
use fbd_profiler::sample::StackSample;
use fbd_tsdb::{MetricKind, SeriesId, Timestamp, TsdbStore, WindowedData};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// External evidence handed to a scan.
#[derive(Default)]
pub struct ScanContext<'a> {
    /// The change log, for root-cause candidates and commit cost domains.
    pub changelog: Option<&'a ChangeLog>,
    /// Stack samples spanning the scan window, for gCPU attribution and
    /// stack-overlap dedup features.
    pub samples: Option<&'a [StackSample]>,
    /// The service's call graph, for cost domains and RCA.
    pub graph: Option<&'a CallGraph>,
    /// Cost-domain providers to consult (§5.4).
    pub domain_providers: Vec<&'a dyn CostDomainProvider>,
}

/// The result of one pipeline scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Final regression reports (representatives, root-caused when
    /// possible).
    pub reports: Vec<Regression>,
    /// Per-stage funnel counters (Table 3).
    pub funnel: FunnelCounters,
    /// Fleet-health telemetry for this scan.
    pub health: ScanHealth,
}

/// Per-scan resource and data-quality budget.
#[derive(Debug, Clone, Copy)]
pub struct ScanBudget {
    /// Wall-clock deadline for one scan. When the cheap stages
    /// (change-point through SameRegressionMerger) have already consumed
    /// the deadline, the scan finishes in degraded mode: the expensive
    /// SOMDedup / cost-shift / PairwiseDedup / RCA stages are shed and the
    /// outcome is flagged via [`ScanHealth::degraded`]. `None` disables
    /// the deadline.
    pub deadline: Option<Duration>,
    /// Window-coverage fraction below which a series is counted as
    /// partial in [`ScanHealth`].
    pub min_coverage: f64,
    /// Minimum fraction of finite values required in the historic and
    /// analysis windows; sparser series are treated as data-quality faults
    /// and quarantined.
    pub min_finite_fraction: f64,
}

impl Default for ScanBudget {
    fn default() -> Self {
        ScanBudget {
            deadline: None,
            min_coverage: 0.5,
            min_finite_fraction: 0.5,
        }
    }
}

/// A fault-injection hook called for every series before detection.
///
/// Used by chaos drills and tests: a hook that panics for selected series
/// exercises the supervisor's panic isolation exactly where a buggy
/// detector would.
pub type ChaosHook = Arc<dyn Fn(&SeriesId) + Send + Sync>;

/// Per-series outcome inside the supervised detection fan-out: the
/// engine's replayable verdict, or the detector error that prevented one.
type SeriesScan = std::result::Result<CachedScan, DetectError>;

/// Scan telemetry: per-stage wall time, how often a seasonality/STL answer
/// or a filter verdict was reused, and which went-away term decided each
/// candidate. Kept out of [`ScanHealth`]/[`FunnelCounters`] so warm-vs-cold
/// scan fingerprints stay byte-identical. Each worker accumulates one on
/// its stack and hands it over with its batch; the pipeline keeps the
/// cumulative one.
#[derive(Default)]
struct Tally {
    stages: StageNanos,
    reuse: CacheStats,
    went_away: WentAwayStats,
}

impl Tally {
    fn accumulate(&mut self, other: &Tally) {
        self.stages.accumulate(&other.stages);
        self.reuse.accumulate(&other.reuse);
        self.went_away.accumulate(&other.went_away);
    }
}

/// Aggregated result of the supervised detection stage.
#[derive(Default)]
struct DetectBatch {
    /// Every short-term candidate with the filters' verdict on it.
    short: Vec<(Regression, ShortVerdict)>,
    long: Vec<Regression>,
    partial: usize,
    faults: Vec<(SeriesId, FaultKind, String)>,
    tally: Tally,
}

/// Renders a caught panic payload for quarantine records.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One instance of the FBDetect pipeline for a workload configuration.
pub struct Pipeline {
    config: DetectorConfig,
    change_point: ChangePointDetector,
    went_away: WentAwayDetector,
    seasonality: SeasonalityDetector,
    long_term: LongTermDetector,
    cost_shift: CostShiftDetector,
    merger: SameRegressionMerger,
    rca: RootCauseAnalyzer,
    /// Groups from prior PairwiseDedup rounds (the incremental state of
    /// §5.5.2).
    existing_groups: Vec<Group<Regression>>,
    /// Failing series parked with exponential backoff.
    quarantine: Quarantine,
    /// Per-scan deadline and data-quality floors.
    pub budget: ScanBudget,
    /// Optional fault-injection hook (chaos drills).
    chaos_hook: Option<ChaosHook>,
    /// Streaming incremental scan engine (round-over-round reuse of window
    /// snapshots, statistics, and quiet verdicts); `None` disables it and
    /// every round re-extracts from batched store snapshots.
    streaming: Option<StreamingEngine>,
    /// Cumulative telemetry across every scan so far.
    tally: Tally,
    /// Number of detection worker threads.
    pub threads: usize,
}

impl Pipeline {
    /// Builds a pipeline from a workload configuration.
    pub fn new(config: DetectorConfig) -> Result<Self> {
        config.validate()?;
        Ok(Pipeline {
            change_point: ChangePointDetector::from_config(&config),
            went_away: WentAwayDetector::from_config(&config),
            seasonality: SeasonalityDetector::from_config(&config),
            long_term: LongTermDetector::from_config(&config),
            cost_shift: CostShiftDetector::from_config(&config),
            merger: SameRegressionMerger::new(config.windows.rerun_interval),
            rca: RootCauseAnalyzer::from_config(&config),
            existing_groups: Vec::new(),
            quarantine: Quarantine::new(
                QuarantineConfig::default(),
                config.windows.rerun_interval,
            ),
            budget: ScanBudget::default(),
            chaos_hook: None,
            streaming: Some(Self::engine(&config)),
            tally: Tally::default(),
            threads: 4,
            config,
        })
    }

    /// The configuration this pipeline runs with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Accumulated PairwiseDedup groups across scans.
    pub fn groups(&self) -> &[Group<Regression>] {
        &self.existing_groups
    }

    /// The quarantine registry of failing series.
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Reuse counters of the seasonality/STL answers shared within a
    /// series' round and of the filter verdicts replayed across rounds.
    pub fn cache_stats(&self) -> CacheStats {
        self.tally.reuse
    }

    /// Enables or disables the streaming incremental scan engine.
    /// Disabling drops all engine state; re-enabling starts cold. Scan
    /// decisions, reports, and fault messages are identical either way —
    /// the engine only changes how much work a round repeats.
    pub fn set_streaming(&mut self, enabled: bool) {
        if enabled {
            if self.streaming.is_none() {
                self.streaming = Some(Self::engine(&self.config));
            }
        } else {
            self.streaming = None;
        }
    }

    /// A cold streaming engine whose Level C online refuter mirrors the
    /// detectors this pipeline actually runs, so online refutations are
    /// sound against them by construction.
    fn engine(config: &DetectorConfig) -> StreamingEngine {
        StreamingEngine::new(config.windows).with_online_policy(OnlinePolicy {
            significance: config.significance,
            threshold: config.threshold,
            long_term_enabled: config.long_term_enabled,
            max_period: config.max_seasonal_period,
        })
    }

    /// Round-over-round reuse counters of the streaming engine, when
    /// enabled.
    pub fn streaming_stats(&self) -> Option<EngineStats> {
        self.streaming.as_ref().map(StreamingEngine::stats)
    }

    /// Cumulative per-stage wall-time totals across every scan so far.
    /// Benchmarks snapshot this before and after a round and diff with
    /// [`StageNanos::since`] to attribute that round stage by stage.
    pub fn stage_profile(&self) -> StageNanos {
        self.tally.stages
    }

    /// How many short-term candidates each term of the went-away predicate
    /// decided (and how many verdicts were replayed), cumulative across
    /// every scan so far.
    pub fn went_away_stats(&self) -> WentAwayStats {
        self.tally.went_away
    }

    /// Installs a fault-injection hook called for every series before
    /// detection. A hook that panics simulates a buggy detector; the
    /// supervisor must isolate it.
    pub fn set_chaos_hook(&mut self, hook: ChaosHook) {
        self.chaos_hook = Some(hook);
    }

    /// Removes the fault-injection hook.
    pub fn clear_chaos_hook(&mut self) {
        self.chaos_hook = None;
    }

    /// Flips series whose *decrease* means a regression (throughput) so
    /// that, per §5.2, an increase always means a regression.
    fn orient(windows: &mut WindowedData, metric: MetricKind) {
        if metric == MetricKind::Throughput {
            for v in windows.values_mut() {
                *v = -*v;
            }
        }
    }

    /// Scans the given series at time `now`, returning the surviving
    /// reports, the per-stage funnel, and scan-health telemetry.
    ///
    /// The scan is supervised: per-series panics and errors are isolated,
    /// counted in [`ScanHealth`], and parked in the [`Quarantine`]; an
    /// `Err` return is reserved for infrastructure failures (e.g. the
    /// thread pool itself dying).
    pub fn scan(
        &mut self,
        store: &TsdbStore,
        series: &[SeriesId],
        now: Timestamp,
        context: &ScanContext<'_>,
    ) -> Result<ScanOutcome> {
        let scan_started = Instant::now();
        let mut funnel = FunnelCounters::default();
        let mut health = ScanHealth {
            series_total: series.len(),
            ..ScanHealth::default()
        };
        // --- Quarantine gate: skip series parked under backoff. Only
        // references are collected; ids are cloned solely when a fault is
        // recorded. ---
        let eligible: Vec<&SeriesId> = if self.quarantine.is_empty() {
            series.iter().collect()
        } else {
            let admitted: Vec<&SeriesId> = series
                .iter()
                .filter(|id| !self.quarantine.is_quarantined(id, now))
                .collect();
            health.series_quarantined = series.len() - admitted.len();
            admitted
        };
        // --- Streaming round open: serially advance the engine's round
        // clock; the per-shard delta ingests themselves ride the detection
        // workers below (shard-per-core), so ingest cost scales with the
        // thread sweep instead of serializing ahead of it. ---
        if let Some(engine) = self.streaming.as_mut() {
            engine.round_prologue(now);
        }
        // --- Stages 1–3: change-point detection and the went-away and
        // seasonality filters on its short-term candidates, parallel across
        // shards, each series isolated under `catch_unwind`. ---
        let batch = self.detect_sharded(store, &eligible, now)?;
        // --- Streaming round close: stale engine states are swept. ---
        if let Some(engine) = self.streaming.as_mut() {
            engine.finish_round();
        }
        health.series_scanned = eligible.len().saturating_sub(batch.faults.len());
        health.series_partial = batch.partial;
        for (_, kind, _) in &batch.faults {
            match kind {
                FaultKind::Panic => health.panicked += 1,
                FaultKind::DetectorError => health.errored += 1,
                FaultKind::NoData | FaultKind::DataQuality => health.series_skipped += 1,
            }
        }
        // Re-admit series that recovered, then record this scan's faults.
        if !self.quarantine.is_empty() {
            let faulted: BTreeSet<&SeriesId> = batch.faults.iter().map(|(id, _, _)| id).collect();
            for &id in &eligible {
                if !faulted.contains(id) {
                    self.quarantine.record_success(id);
                }
            }
        }
        for (id, kind, detail) in &batch.faults {
            self.quarantine.record_failure(id, *kind, detail.clone(), now);
        }
        let (deseasoned, long) = self.tally_filters(batch, &mut funnel, &mut health, now);
        // Serial-stage wall-time attribution for this scan, added to the
        // cumulative tally at every return site.
        let mut serial = StageNanos::default();
        let mut stage_t = Instant::now();
        // --- Stage 4: threshold filtering (Table 1). ---
        let mut thresholded: Vec<Regression> = deseasoned
            .into_iter()
            .chain(long)
            .filter(|r| self.config.threshold.is_met(r.mean_before, r.mean_after))
            .collect();
        funnel.after_threshold = thresholded.len();
        // --- Stage 5: SameRegressionMerger. ---
        thresholded = self.merger.filter_new(thresholded);
        funnel.after_same_merger = thresholded.len();
        serial.threshold = stage_t.elapsed().as_nanos() as u64;
        stage_t = Instant::now();
        // --- Budget check: the cheap, high-recall stages are done. If the
        // deadline is already blown, shed the expensive dedup/RCA stages
        // and ship the thresholded candidates as-is (graceful
        // degradation: noisier output beats no output). ---
        if self
            .budget
            .deadline
            .is_some_and(|d| scan_started.elapsed() >= d)
        {
            health.skip_stage("som_dedup");
            health.skip_stage("cost_shift");
            health.skip_stage("pairwise_dedup");
            health.skip_stage("root_cause");
            funnel.after_som_dedup = thresholded.len();
            funnel.after_cost_shift = thresholded.len();
            funnel.after_pairwise_dedup = thresholded.len();
            self.tally.stages.accumulate(&serial);
            return Ok(ScanOutcome {
                reports: thresholded,
                funnel,
                health,
            });
        }
        // --- Stage 6: SOMDedup. ---
        let som_config = SomDedupConfig {
            importance_weights: self.config.importance_weights,
            rca_lookback: self.config.rca_lookback,
            seed: 0xDED0,
        };
        let popularity = {
            let samples = context.samples;
            let regs = &thresholded;
            move |i: usize| -> f64 {
                let (Some(samples), Some(graph)) = (samples, context.graph) else {
                    return 0.0;
                };
                let Ok(frame) = graph.frame_by_name(&regs[i].series.target) else {
                    return 0.0;
                };
                if samples.is_empty() {
                    return 0.0;
                }
                samples.iter().filter(|s| s.contains(frame)).count() as f64 / samples.len() as f64
            }
        };
        // A batch-stage failure degrades to pass-through rather than
        // aborting the scan: every candidate is its own representative.
        let mut representatives: Vec<Regression> =
            match som_dedup(&thresholded, context.changelog, &som_config, popularity) {
                Ok(groups) => {
                    // Representatives are moved out of the candidate pool by
                    // index (group representatives are distinct), not cloned.
                    let mut pool: Vec<Option<Regression>> =
                        thresholded.into_iter().map(Some).collect();
                    // Representatives are distinct pool indices; a bad index
                    // drops the group instead of panicking the scan.
                    groups
                        .iter()
                        .filter_map(|g| pool.get_mut(g.representative).and_then(Option::take))
                        .collect()
                }
                Err(_) => {
                    health.stage_errors += 1;
                    health.skip_stage("som_dedup");
                    thresholded
                }
            };
        funnel.after_som_dedup = representatives.len();
        serial.som_dedup = stage_t.elapsed().as_nanos() as u64;
        stage_t = Instant::now();
        // --- Stage 7: cost-shift analysis (gCPU regressions only). An
        // analysis error fails open (the regression is kept). ---
        if !context.domain_providers.is_empty() {
            let mut kept = Vec::with_capacity(representatives.len());
            for r in representatives {
                let filtered = r.series.metric == MetricKind::GCpu
                    && match self.is_cost_shift(store, &r, now, context) {
                        Ok(is_shift) => is_shift,
                        Err(_) => {
                            health.stage_errors += 1;
                            false
                        }
                    };
                if !filtered {
                    kept.push(r);
                }
            }
            representatives = kept;
        }
        funnel.after_cost_shift = representatives.len();
        serial.cost_shift = stage_t.elapsed().as_nanos() as u64;
        stage_t = Instant::now();
        // --- Stage 8: PairwiseDedup into the accumulated groups. ---
        let corpus: Vec<String> = representatives
            .iter()
            .map(|r| r.metric_id())
            .chain(
                self.existing_groups
                    .iter()
                    .flat_map(|g| g.members.iter().map(|m| m.metric_id())),
            )
            .collect();
        // Default rule: correlation alone over-merges step-shaped series
        // (any two steps in the same window correlate), so require agreeing
        // text evidence. Workloads override via `config.pairwise_rule`
        // (§5.5.2's user-defined rules).
        let rule = self.config.pairwise_rule.unwrap_or(MergeRule {
            min_correlation: Some(self.config.pairwise_min_correlation),
            min_text_similarity: Some(self.config.pairwise_min_text_similarity),
            min_stack_overlap: None,
            combination: RuleCombination::All,
        });
        let mut engine = PairwiseDedup::new(rule, &corpus);
        if let (Some(samples), Some(graph)) = (context.samples, context.graph) {
            // Stack overlap resolves names through the graph.
            let samples = samples.to_vec();
            let name_to_frame: std::collections::BTreeMap<String, usize> = graph
                .names()
                .iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), i))
                .collect();
            engine = engine.with_overlap(move |a, b| {
                match (name_to_frame.get(a), name_to_frame.get(b)) {
                    (Some(&fa), Some(&fb)) => stack_trace_overlap(&samples, fa, fb).unwrap_or(0.0),
                    _ => 0.0,
                }
            });
        }
        let prior_group_count = self.existing_groups.len();
        let all_groups = engine.dedup(representatives, std::mem::take(&mut self.existing_groups));
        let new_groups = all_groups.len().saturating_sub(prior_group_count);
        self.existing_groups = all_groups;
        funnel.after_pairwise_dedup = new_groups;
        serial.pairwise_dedup = stage_t.elapsed().as_nanos() as u64;
        stage_t = Instant::now();
        // The reports are the representatives of the groups founded in this
        // scan (merged ones were duplicates of known regressions).
        let mut reports: Vec<Regression> = self.existing_groups[prior_group_count..]
            .iter()
            .map(|g| g.representative().clone())
            .collect();
        // --- Stage 9: root cause analysis. An RCA failure leaves the
        // report un-attributed rather than losing it. The reports share
        // one memo of change word vectors. ---
        if let Some(log) = context.changelog {
            let mut change_text = ChangeText::new(log);
            for r in reports.iter_mut() {
                let (before, after) = split_samples(context.samples, r.change_time);
                let rca_context = RcaContext {
                    samples_before: before,
                    samples_after: after,
                    graph: context.graph,
                };
                match self.rca.analyze_with(r, &rca_context, &mut change_text) {
                    Ok(ranked) => {
                        r.root_cause_candidates =
                            ranked.into_iter().map(|c| c.change_id).collect();
                    }
                    Err(_) => health.stage_errors += 1,
                }
            }
        }
        serial.root_cause = stage_t.elapsed().as_nanos() as u64;
        self.tally.stages.accumulate(&serial);
        Ok(ScanOutcome {
            reports,
            funnel,
            health,
        })
    }

    /// What is left of stages 2–3 on the scan thread: sums the workers'
    /// filter verdicts into the funnel and returns the short-term candidates
    /// both filters kept, with the long-term ones. A filter error dropped
    /// its candidate and quarantines the series (which still counts as
    /// scanned): went-away errors first, each filter's in series order.
    fn tally_filters(
        &mut self,
        batch: DetectBatch,
        funnel: &mut FunnelCounters,
        health: &mut ScanHealth,
        now: Timestamp,
    ) -> (Vec<Regression>, Vec<Regression>) {
        self.tally.accumulate(&batch.tally);
        let long = batch.long;
        funnel.change_points = batch.short.len() + long.len();
        funnel.after_went_away = long.len();
        let mut deseasoned = Vec::new();
        let (mut went_away_errors, mut seasonality_errors) = (Vec::new(), Vec::new());
        for (r, verdict) in batch.short {
            funnel.after_went_away += usize::from(verdict.past_went_away());
            match verdict {
                ShortVerdict::Kept => deseasoned.push(r),
                ShortVerdict::WentAway | ShortVerdict::Seasonal => {}
                ShortVerdict::WentAwayError(detail) => went_away_errors.push((r.series, detail)),
                ShortVerdict::SeasonalityError(detail) => seasonality_errors.push((r.series, detail)),
            }
        }
        for (id, detail) in went_away_errors.into_iter().chain(seasonality_errors) {
            health.errored += 1;
            self.quarantine.record_failure(&id, FaultKind::DetectorError, detail, now);
        }
        funnel.after_seasonality = deseasoned.len() + long.len();
        (deseasoned, long)
    }

    /// Runs detection on freshly extracted *raw* windows (the store /
    /// snapshot path): data-quality gate, orientation, then the detectors.
    /// Never called outside the `catch_unwind` isolation in
    /// [`Pipeline::detect_sharded`].
    fn detect_windowed(
        &self,
        id: &SeriesId,
        windows: fbd_tsdb::Result<WindowedData>,
        now: Timestamp,
        tally: &mut Tally,
    ) -> SeriesScan {
        let mut windows = match windows {
            Ok(w) => w,
            Err(e) => return Ok(CachedScan::NoData(e.to_string())),
        };
        // Data-quality gate: a window drowned in non-finite values (a NaN
        // burst from a broken collector) is a fault, not an input.
        for (name, values) in [("historic", windows.historic()), ("analysis", windows.analysis())] {
            let finite = values.iter().filter(|v| v.is_finite()).count();
            if (finite as f64) < self.budget.min_finite_fraction * values.len() as f64 {
                return Ok(CachedScan::BadData(format!(
                    "{name} window: only {finite}/{} finite values",
                    values.len()
                )));
            }
        }
        Self::orient(&mut windows, id.metric);
        self.run_detectors(id, &windows, now, tally)
    }

    /// Runs the short- and long-term detectors over one series' oriented,
    /// gated windows, then the went-away and seasonality filters on the
    /// short-term candidate — the one place a scan calls them, whichever
    /// way the windows were obtained. Both detectors read one
    /// [`fbd_stats::prefix::PrefixStats`] of the window, built here (and
    /// timed as short-term work); the three consumers of a seasonality
    /// search or STL decomposition of these windows share one
    /// [`SeasonalArtifacts`].
    fn run_detectors(
        &self,
        id: &SeriesId,
        windows: &WindowedData,
        now: Timestamp,
        tally: &mut Tally,
    ) -> SeriesScan {
        let t = Instant::now();
        let prefix = fbd_stats::prefix::validated(windows.all(), 8).ok();
        let short = self
            .change_point
            .detect_with(id, windows, prefix.as_ref(), now)?;
        tally.stages.short_term += t.elapsed().as_nanos() as u64;
        let mut artifacts = SeasonalArtifacts::default();
        let t = Instant::now();
        let long = if self.config.long_term_enabled {
            self.long_term
                .detect_with(id, windows, prefix.as_ref(), &mut artifacts)
        } else {
            Ok(None)
        };
        tally.stages.long_term += t.elapsed().as_nanos() as u64;
        let scan = long.map(|long| CachedScan::Ok {
            short: short.map(|r| {
                let verdict = self.filter_short(&r, &mut artifacts, tally);
                (r, verdict)
            }),
            long,
            partial: windows.coverage.is_partial(self.budget.min_coverage),
        });
        tally.reuse.accumulate(&artifacts.reuse);
        scan
    }

    /// Stages 2–3 for one short-term candidate: the went-away filter, then
    /// (when it keeps the candidate) the seasonality filter.
    fn filter_short(
        &self,
        r: &Regression,
        artifacts: &mut SeasonalArtifacts,
        tally: &mut Tally,
    ) -> ShortVerdict {
        let t = Instant::now();
        let went_away = self.went_away.evaluate_with(r, artifacts);
        tally.stages.went_away += t.elapsed().as_nanos() as u64;
        match went_away {
            Ok(v) => {
                tally.went_away.record(v.decided_by);
                if !v.keep {
                    return ShortVerdict::WentAway;
                }
            }
            Err(e) => return ShortVerdict::WentAwayError(e.to_string()),
        }
        let t = Instant::now();
        let seasonality = self.seasonality.evaluate_with(r, artifacts);
        tally.stages.seasonality += t.elapsed().as_nanos() as u64;
        match seasonality {
            Ok(v) if v.keep => ShortVerdict::Kept,
            Ok(_) => ShortVerdict::Seasonal,
            Err(e) => ShortVerdict::SeasonalityError(e.to_string()),
        }
    }

    /// Runs detection for one series through the streaming engine: replays
    /// reusable outcomes, runs the detectors on engine-extracted
    /// (pre-oriented, pre-gated) windows, and falls back to the plain store
    /// path when the engine cannot serve the series. Decisions are
    /// bit-identical to [`Pipeline::detect_windowed`] on the same data.
    fn detect_one_streaming(
        &self,
        store: &TsdbStore,
        engine: &StreamingEngine,
        id: &SeriesId,
        now: Timestamp,
        tally: &mut Tally,
    ) -> SeriesScan {
        let t = Instant::now();
        let prepared = engine.prepare(id, self.budget.min_finite_fraction, self.budget.min_coverage);
        tally.stages.windowing += t.elapsed().as_nanos() as u64;
        match prepared {
            Prepared::Fallback => {
                let t = Instant::now();
                let windows = store.windows(id, &self.config.windows, now);
                tally.stages.windowing += t.elapsed().as_nanos() as u64;
                self.detect_windowed(id, windows, now, tally)
            }
            Prepared::Reuse(outcome) => {
                // Only Level A replays a candidate, and with it the
                // filters' verdict(s) on it.
                if let CachedScan::Ok { short: Some((_, verdict)), .. } = &outcome {
                    tally.went_away.replayed += 1;
                    tally.reuse.hits += 1 + u64::from(verdict.past_went_away());
                }
                Ok(outcome)
            }
            Prepared::Scan { windows, token } => {
                let scan = self.run_detectors(id, &windows, now, tally);
                // A detector error records nothing (nor, by the engine's
                // own rule, does a filter error) but still returns the
                // window buffer to the engine.
                let t = Instant::now();
                engine.complete(id, token, scan.as_ref().ok().cloned(), windows);
                tally.stages.complete += t.elapsed().as_nanos() as u64;
                scan
            }
        }
    }

    /// Runs one series' detection under supervision — the chaos hook and
    /// `detect` inside `catch_unwind` — and folds the result into the
    /// worker's partial batch.
    fn supervise(&self, part: &mut DetectBatch, id: &SeriesId, detect: impl FnOnce() -> SeriesScan) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.chaos_hook {
                hook(id);
            }
            detect()
        }));
        let (kind, detail) = match outcome {
            Ok(Ok(CachedScan::Ok {
                short,
                long,
                partial,
            })) => {
                part.short.extend(short);
                part.long.extend(long);
                part.partial += usize::from(partial);
                return;
            }
            Ok(Ok(CachedScan::NoData(detail))) => (FaultKind::NoData, detail),
            Ok(Ok(CachedScan::BadData(detail))) => (FaultKind::DataQuality, detail),
            Ok(Err(e)) => (FaultKind::DetectorError, e.to_string()),
            Err(payload) => (FaultKind::Panic, panic_message(payload)),
        };
        part.faults.push((id.clone(), kind, detail));
    }

    /// Merges the workers' partial batches and restores a deterministic
    /// order regardless of thread interleaving.
    fn join_batches(joined: Vec<std::thread::Result<DetectBatch>>) -> Result<DetectBatch> {
        let mut batch = DetectBatch::default();
        for worker in joined {
            // Per-series panics are already caught; a worker dying here
            // means the supervisor loop itself broke.
            let part = worker.map_err(panic_message).map_err(DetectError::Panic)?;
            batch.short.extend(part.short);
            batch.long.extend(part.long);
            batch.partial += part.partial;
            batch.faults.extend(part.faults);
            batch.tally.accumulate(&part.tally);
        }
        batch.short.sort_by(|a, b| a.0.series.cmp(&b.0.series));
        batch.long.sort_by(|a, b| a.series.cmp(&b.series));
        batch.faults.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(batch)
    }

    /// Stage-1 detection fanned out over worker threads — the one driver
    /// behind every scan, streaming engine on or off — with each series
    /// supervised: a panicking or erroring detector loses that series
    /// only, never the scan.
    ///
    /// The calling thread is worker 0 and runs under `catch_unwind`;
    /// workers 1..N−1 run the same closure under `std::thread::scope`, so
    /// a one-thread scan spawns nothing. A worker whose supervisor loop
    /// itself panics, spawned or not, fails the scan with
    /// [`DetectError::Panic`].
    ///
    /// Eligible series are partitioned by their store shard
    /// ([`fbd_tsdb::TsdbStore::shard_of`], which the engine's shards
    /// mirror) and workers steal whole shards from an atomic cursor, so
    /// every thread stays busy until the shards are drained. A worker that
    /// steals a shard first obtains its series' data — with the engine on
    /// by ingesting the shard's deltas ([`StreamingEngine::ingest_shard`]:
    /// one engine shard lock, one store shard lock), with it off by one
    /// batched [`fbd_tsdb::TsdbStore::snapshot_windows`] over the shard's
    /// ids (one store shard lock) — then runs supervised detection for
    /// every series in the shard. One shard's locks therefore stay on one
    /// core for the whole round, distinct shards proceed fully in
    /// parallel, and scan throughput scales with threads up to the store's
    /// shard count. [`StreamingEngine::round_prologue`] and
    /// [`StreamingEngine::finish_round`] bracket this call in
    /// [`Pipeline::scan`].
    ///
    /// Lock acquisition order follows the workspace hierarchy in
    /// `LOCK_ORDER.manifest` (engine-shard before store-shard; the
    /// detectors and filters take no lock), enforced statically by
    /// fbd-lint's `lock-order` rule and dynamically by the [`fbd_sync`]
    /// debug validator.
    fn detect_sharded(
        &self,
        store: &TsdbStore,
        series: &[&SeriesId],
        now: Timestamp,
    ) -> Result<DetectBatch> {
        let mut by_shard: Vec<Vec<&SeriesId>> =
            (0..TsdbStore::shard_count()).map(|_| Vec::new()).collect();
        for &id in series {
            by_shard[TsdbStore::shard_of(id)].push(id);
        }
        let work: Vec<(usize, Vec<&SeriesId>)> = by_shard
            .into_iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
            .collect();
        let threads = self.threads.clamp(1, 64).min(work.len().max(1));
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut part = DetectBatch::default();
            let mut tally = Tally::default();
            loop {
                let w = next.fetch_add(1, Ordering::Relaxed);
                let Some((shard_idx, ids)) = work.get(w) else { break };
                let t = Instant::now();
                if let Some(engine) = self.streaming.as_ref() {
                    engine.ingest_shard(store, *shard_idx, ids, now);
                    tally.stages.ingest += t.elapsed().as_nanos() as u64;
                    for &id in ids {
                        self.supervise(&mut part, id, || {
                            self.detect_one_streaming(store, engine, id, now, &mut tally)
                        });
                    }
                } else {
                    let windows = store.snapshot_windows(ids, &self.config.windows, now);
                    tally.stages.windowing += t.elapsed().as_nanos() as u64;
                    for (&id, windows) in ids.iter().zip(windows) {
                        self.supervise(&mut part, id, || {
                            self.detect_windowed(id, windows, now, &mut tally)
                        });
                    }
                }
            }
            part.tally = tally;
            part
        };
        // Every handle is joined before the scope ends, so the scope itself
        // never panics: a dying worker is an `Err` in `joined`.
        let joined = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut joined = vec![catch_unwind(AssertUnwindSafe(worker))];
            joined.extend(helpers.into_iter().map(|h| h.join()));
            joined
        });
        Self::join_batches(joined)
    }

    /// Sums the cost domain's gCPU series and applies the §5.4 rules.
    fn is_cost_shift(
        &self,
        store: &TsdbStore,
        regression: &Regression,
        now: Timestamp,
        context: &ScanContext<'_>,
    ) -> Result<bool> {
        let subroutine = regression.series.target.clone();
        let service = regression.series.service.clone();
        let windows_config = self.config.windows;
        let cp = regression.change_index;
        self.cost_shift.is_cost_shift(
            regression,
            &subroutine,
            &context.domain_providers,
            |members| {
                // Sum the members' windows, aligned with the regression's.
                let mut sum: Option<Vec<f64>> = None;
                for m in members {
                    let id = SeriesId::new(service.clone(), MetricKind::GCpu, m.clone());
                    let w = store.windows(&id, &windows_config, now).ok()?;
                    let values = w.into_values();
                    match sum.as_mut() {
                        None => sum = Some(values),
                        Some(acc) => {
                            if acc.len() != values.len() {
                                return None;
                            }
                            for (a, v) in acc.iter_mut().zip(values) {
                                *a += v;
                            }
                        }
                    }
                }
                let total = sum?;
                if cp + 1 >= total.len() {
                    return None;
                }
                let (before, after) = total.split_at(cp + 1);
                Some((before.to_vec(), after.to_vec()))
            },
        )
    }
}

/// Splits retained stack samples at the regression's change time.
fn split_samples(
    samples: Option<&[StackSample]>,
    change_time: Timestamp,
) -> (&[StackSample], &[StackSample]) {
    let Some(samples) = samples else {
        return (&[], &[]);
    };
    let split = samples.partition_point(|s| s.timestamp < change_time);
    samples.split_at(split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Threshold;
    use fbd_tsdb::WindowConfig;

    fn test_config(threshold: f64) -> DetectorConfig {
        let windows = WindowConfig {
            historic: 3_000,
            analysis: 1_000,
            extended: 500,
            rerun_interval: 500,
        };
        DetectorConfig::new("test", windows, Threshold::Absolute(threshold))
    }

    fn fill_series(store: &TsdbStore, id: &SeriesId, len: u64, f: impl Fn(u64) -> f64) {
        for t in 0..len {
            store.append(id, t * 10, f(t * 10)).unwrap();
        }
    }

    fn noise(t: u64, scale: f64) -> f64 {
        let mut z = t.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (((z >> 33) % 1000) as f64 / 1000.0 - 0.5) * scale
    }

    #[test]
    fn end_to_end_step_regression_detected() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "hot");
        // 4500 seconds of data at 10s cadence; step at t=3800.
        fill_series(&store, &id, 450, |t| {
            if t >= 3_800 {
                0.02 + noise(t, 0.001)
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(
                &store,
                std::slice::from_ref(&id),
                4_500,
                &ScanContext::default(),
            )
            .unwrap();
        assert_eq!(out.reports.len(), 1, "funnel = {:?}", out.funnel);
        let r = &out.reports[0];
        assert_eq!(r.series, id);
        assert!((r.magnitude() - 0.01).abs() < 0.003);
    }

    #[test]
    fn transient_is_filtered_end_to_end() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "hot");
        // A dip that recovers within the analysis+extended region.
        fill_series(&store, &id, 450, |t| {
            if (3_500..3_900).contains(&t) {
                0.03 + noise(t, 0.001)
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert!(out.reports.is_empty(), "funnel = {:?}", out.funnel);
        assert!(out.funnel.change_points >= 1);
    }

    #[test]
    fn quiet_series_produces_nothing() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "calm");
        fill_series(&store, &id, 450, |t| 0.01 + noise(t, 0.001));
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert!(out.reports.is_empty());
        assert_eq!(out.funnel.change_points, 0);
    }

    #[test]
    fn rescans_are_deduplicated_by_merger() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "hot");
        fill_series(&store, &id, 500, |t| {
            if t >= 3_800 {
                0.02 + noise(t, 0.001)
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let first = p
            .scan(
                &store,
                std::slice::from_ref(&id),
                4_500,
                &ScanContext::default(),
            )
            .unwrap();
        let second = p
            .scan(&store, &[id], 5_000, &ScanContext::default())
            .unwrap();
        assert_eq!(first.reports.len(), 1);
        assert!(
            second.reports.is_empty(),
            "second funnel = {:?}",
            second.funnel
        );
    }

    #[test]
    fn threshold_suppresses_small_shifts() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "hot");
        fill_series(&store, &id, 450, |t| {
            if t >= 3_800 {
                0.012 + noise(t, 0.0005)
            } else {
                0.01 + noise(t, 0.0005)
            }
        });
        // Threshold far above the injected 0.002 shift.
        let mut p = Pipeline::new(test_config(0.05)).unwrap();
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert!(out.reports.is_empty());
        assert!(out.funnel.after_threshold == 0);
    }

    #[test]
    fn throughput_drop_counts_as_regression() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::Throughput, "");
        fill_series(&store, &id, 450, |t| {
            if t >= 3_800 {
                80.0 + noise(t, 2.0)
            } else {
                100.0 + noise(t, 2.0)
            }
        });
        let mut p = Pipeline::new(test_config(5.0)).unwrap();
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert_eq!(out.reports.len(), 1, "funnel = {:?}", out.funnel);
    }

    #[test]
    fn panicking_detector_is_isolated_and_quarantined() {
        let store = TsdbStore::new();
        let hot = SeriesId::new("svc", MetricKind::GCpu, "hot");
        let calm = SeriesId::new("svc", MetricKind::GCpu, "calm");
        let poison = SeriesId::new("svc", MetricKind::GCpu, "poison");
        fill_series(&store, &hot, 450, |t| {
            if t >= 3_800 {
                0.02 + noise(t, 0.001)
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        fill_series(&store, &calm, 450, |t| 0.01 + noise(t, 0.001));
        fill_series(&store, &poison, 450, |t| 0.01 + noise(t, 0.001));
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        p.set_chaos_hook(std::sync::Arc::new(|id: &SeriesId| {
            assert!(id.target != "poison", "injected detector bug");
        }));
        let out = p
            .scan(
                &store,
                &[hot.clone(), calm, poison.clone()],
                4_500,
                &ScanContext::default(),
            )
            .expect("a panicking series must not abort the scan");
        // The healthy regression is still caught.
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].series, hot);
        // The panic is counted and the series parked.
        assert_eq!(out.health.panicked, 1);
        assert_eq!(out.health.series_scanned, 2);
        let entry = p.quarantine().entry(&poison).expect("poison quarantined");
        assert_eq!(entry.kind, crate::quarantine::FaultKind::Panic);
        assert!(entry.detail.contains("injected detector bug"));
        assert!(p.quarantine().is_quarantined(&poison, 4_500));
        // Within the backoff span the series is skipped entirely.
        let out2 = p
            .scan(&store, std::slice::from_ref(&poison), 4_600, &ScanContext::default())
            .unwrap();
        assert_eq!(out2.health.series_quarantined, 1);
        assert_eq!(out2.health.panicked, 0);
        // After the hook is fixed and the backoff expires, it is
        // re-admitted on the next successful scan.
        p.clear_chaos_hook();
        let out3 = p
            .scan(&store, std::slice::from_ref(&poison), 5_000, &ScanContext::default())
            .unwrap();
        assert_eq!(out3.health.series_scanned, 1);
        assert!(p.quarantine().entry(&poison).is_none());
    }

    #[test]
    fn one_thread_scans_every_series_on_the_calling_thread() {
        let store = TsdbStore::new();
        let ids: Vec<SeriesId> = (0..24)
            .map(|i| SeriesId::new("svc", MetricKind::GCpu, format!("s{i}")))
            .collect();
        for id in &ids {
            fill_series(&store, id, 450, |t| 0.01 + noise(t, 0.001));
        }
        let shards: BTreeSet<usize> = ids.iter().map(TsdbStore::shard_of).collect();
        assert!(shards.len() > 1, "the series must span several shards");
        for streaming in [true, false] {
            let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut p = Pipeline::new(test_config(0.005)).unwrap();
            p.threads = 1;
            p.set_streaming(streaming);
            let hook_seen = Arc::clone(&seen);
            p.set_chaos_hook(Arc::new(move |_: &SeriesId| {
                hook_seen.lock().unwrap().push(std::thread::current().id());
            }));
            let out = p.scan(&store, &ids, 4_500, &ScanContext::default()).unwrap();
            assert_eq!(out.health.series_scanned, ids.len());
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), ids.len());
            let me = std::thread::current().id();
            assert!(seen.iter().all(|&t| t == me), "streaming {streaming}: a worker was spawned");
        }
    }

    #[test]
    fn zero_deadline_sheds_expensive_stages() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "hot");
        fill_series(&store, &id, 450, |t| {
            if t >= 3_800 {
                0.02 + noise(t, 0.001)
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        p.budget.deadline = Some(std::time::Duration::ZERO);
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert!(out.health.degraded);
        assert_eq!(
            out.health.stages_skipped,
            vec!["som_dedup", "cost_shift", "pairwise_dedup", "root_cause"]
        );
        // Degraded mode still ships the thresholded candidates.
        assert_eq!(out.reports.len(), 1, "funnel = {:?}", out.funnel);
        // Funnel counters stay monotone through the shed stages.
        assert_eq!(out.funnel.after_pairwise_dedup, out.funnel.after_same_merger);
    }

    #[test]
    fn nan_burst_is_a_data_quality_fault() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "broken-collector");
        // The analysis window [3000, 4000) is drowned in NaN.
        fill_series(&store, &id, 450, |t| {
            if (3_000..4_000).contains(&t) {
                f64::NAN
            } else {
                0.01 + noise(t, 0.001)
            }
        });
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(
                &store,
                std::slice::from_ref(&id),
                4_500,
                &ScanContext::default(),
            )
            .unwrap();
        assert!(out.reports.is_empty());
        assert_eq!(out.health.series_skipped, 1);
        assert_eq!(out.health.series_scanned, 0);
        let entry = p.quarantine().entry(&id).unwrap();
        assert_eq!(entry.kind, crate::quarantine::FaultKind::DataQuality);
    }

    #[test]
    fn missing_data_is_skipped_and_quarantined() {
        let store = TsdbStore::new();
        let empty = SeriesId::new("svc", MetricKind::GCpu, "empty");
        store.insert_series(empty.clone(), fbd_tsdb::TimeSeries::new());
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(
                &store,
                std::slice::from_ref(&empty),
                4_500,
                &ScanContext::default(),
            )
            .unwrap();
        assert_eq!(out.health.series_skipped, 1);
        assert_eq!(
            p.quarantine().entry(&empty).unwrap().kind,
            crate::quarantine::FaultKind::NoData
        );
    }

    #[test]
    fn sparse_series_counts_as_partial() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::GCpu, "gappy");
        // 10s cadence, but 70% of the analysis window's samples dropped.
        for t in 0..450u64 {
            let ts = t * 10;
            if (3_000..4_000).contains(&ts) && ts % 100 != 0 {
                continue;
            }
            store.append(&id, ts, 0.01 + noise(ts, 0.001)).unwrap();
        }
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(&store, &[id], 4_500, &ScanContext::default())
            .unwrap();
        assert_eq!(out.health.series_partial, 1);
        assert_eq!(out.health.series_scanned, 1);
    }

    #[test]
    fn funnel_counters_are_monotone() {
        let store = TsdbStore::new();
        let mut ids = Vec::new();
        for i in 0..20 {
            let id = SeriesId::new("svc", MetricKind::GCpu, format!("s{i}"));
            let step = i % 3 == 0;
            fill_series(&store, &id, 450, move |t| {
                let base = if step && t >= 3_800 { 0.02 } else { 0.01 };
                base + noise(t ^ i, 0.001)
            });
            ids.push(id);
        }
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let out = p
            .scan(&store, &ids, 4_500, &ScanContext::default())
            .unwrap();
        let f = out.funnel;
        assert!(f.change_points >= f.after_went_away);
        assert!(f.after_went_away >= f.after_seasonality);
        assert!(f.after_seasonality >= f.after_threshold);
        assert!(f.after_threshold >= f.after_same_merger);
        assert!(f.after_same_merger >= f.after_som_dedup);
        assert!(f.after_som_dedup >= f.after_cost_shift);
        assert!(f.after_cost_shift >= f.after_pairwise_dedup);
    }

    #[test]
    fn filter_error_costs_the_short_candidate_and_nothing_else() {
        let mut p = Pipeline::new(test_config(0.005)).unwrap();
        let sid = |name: &str| SeriesId::new("svc", MetricKind::GCpu, name);
        let candidate = |id: &SeriesId, kind, historic: &[f64]| {
            let analysis: Vec<f64> =
                (0..100u64).map(|t| if t < 30 { 1.0 } else { 1.6 } + noise(t, 0.1)).collect();
            let extended: Vec<f64> = (0..100u64).map(|t| 1.6 + noise(t ^ 7, 0.1)).collect();
            Regression {
                series: id.clone(),
                kind,
                change_index: 329,
                change_time: 0,
                mean_before: 1.0,
                mean_after: 1.6,
                windows: WindowedData::from_regions(historic, &analysis, &extended, 0, 100),
                root_cause_candidates: Vec::new(),
            }
        };
        // Finite samples whose spread overflows error in went-away.
        let overflowing: Vec<f64> =
            (0..300).map(|i| if i % 3 == 0 { -1.7e308 } else { 1.7e308 }).collect();
        let mut tally = Tally::default();
        let verdict = p.filter_short(
            &candidate(&sid("a"), crate::types::RegressionKind::ShortTerm, &overflowing),
            &mut SeasonalArtifacts::default(),
            &mut tally,
        );
        let ShortVerdict::WentAwayError(detail) = verdict else {
            panic!("went-away must error: {verdict:?}");
        };
        assert_eq!(tally.went_away, WentAwayStats::default(), "an error is not a decision");
        // Through a scan's tail: the candidate still counts as found (and,
        // for a seasonality error, as past went-away), the long-term
        // candidate survives, and the series is not a detection fault — it
        // counts as scanned — but is quarantined as a detector error.
        let quiet: Vec<f64> = (0..300u64).map(|t| 1.0 + noise(t, 0.1)).collect();
        let mut part = DetectBatch::default();
        type Errored = fn(String) -> ShortVerdict;
        for (name, errored) in [
            ("c", ShortVerdict::WentAwayError as Errored),
            ("b", ShortVerdict::SeasonalityError),
            ("a", ShortVerdict::WentAwayError),
        ] {
            let id = sid(name);
            p.supervise(&mut part, &id, || {
                Ok(CachedScan::Ok {
                    short: Some((
                        candidate(&id, crate::types::RegressionKind::ShortTerm, &quiet),
                        errored(format!("{name}: {detail}")),
                    )),
                    long: Some(candidate(&id, crate::types::RegressionKind::LongTerm, &quiet)),
                    partial: false,
                })
            });
        }
        let batch = Pipeline::join_batches(vec![Ok(part)]).unwrap();
        assert!(batch.faults.is_empty());
        let (mut funnel, mut health) = (FunnelCounters::default(), ScanHealth::default());
        let (deseasoned, long) = p.tally_filters(batch, &mut funnel, &mut health, 4_500);
        assert!(deseasoned.is_empty());
        assert_eq!(long.len(), 3);
        assert_eq!(
            (funnel.change_points, funnel.after_went_away, funnel.after_seasonality),
            (6, 4, 3)
        );
        assert_eq!(health.errored, 3);
        for name in ["a", "b", "c"] {
            let entry = p.quarantine().entry(&sid(name)).expect("quarantined");
            assert_eq!(entry.kind, FaultKind::DetectorError);
            assert!(entry.detail.starts_with(name));
        }
    }

    #[test]
    fn went_away_stats_account_for_every_short_term_candidate() {
        use crate::went_away::DecidedBy;
        let store = TsdbStore::new();
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let id = SeriesId::new("svc", MetricKind::GCpu, format!("s{i}"));
            // Steps that persist, and spikes that are back down by the end.
            fill_series(&store, &id, 450, move |t| {
                let base = match i % 3 {
                    0 if t >= 3_800 => 0.02,
                    1 if (3_800..4_100).contains(&t) => 0.02,
                    _ => 0.01,
                };
                base + noise(t ^ i, 0.001)
            });
            ids.push(id);
        }
        let mut config = test_config(0.005);
        config.long_term_enabled = false;
        let mut p = Pipeline::new(config).unwrap();
        let first = p.scan(&store, &ids, 4_500, &ScanContext::default()).unwrap();
        let stats = p.went_away_stats();
        let kept = [DecidedBy::TooShort, DecidedBy::NewPattern, DecidedBy::Lasting];
        let decided: u64 = DecidedBy::ALL.iter().map(|&t| stats.decided_by(t)).sum();
        assert_eq!(decided as usize, first.funnel.change_points);
        assert_eq!(
            kept.iter().map(|&t| stats.decided_by(t)).sum::<u64>() as usize,
            first.funnel.after_went_away
        );
        assert!(stats.decided_by(DecidedBy::GoneAway) > 0, "stats = {stats:?}");
        assert_eq!(stats.replayed, 0);
        // Same watermark again: every verdict is replayed, none re-decided.
        p.scan(&store, &ids, 4_500, &ScanContext::default()).unwrap();
        let again = p.went_away_stats();
        assert_eq!(again.replayed as usize, first.funnel.change_points);
        assert_eq!(again.named()[..7], stats.named()[..7]);
    }
}
