//! Streaming incremental scan engine: round-over-round reuse of per-series
//! scan work.
//!
//! Production FBDetect re-scans every workload on a fixed re-run interval
//! (Table 1) while the fleet keeps appending points between scans. A cold
//! scan re-reads every series under its shard lock, re-copies the window
//! range, re-fingerprints it, and re-runs every detector — even though
//! round over round almost nothing a detector looks at has changed: the
//! scan watermark `now` only moves once per re-run interval, and appends
//! land at or beyond it.
//!
//! The [`StreamingEngine`] exploits that structure:
//!
//! * **Versioned delta ingest** — [`StreamingEngine::ingest_shard`] pulls
//!   [`fbd_tsdb::SeriesDelta`]s in one batched store pass per shard. An unchanged
//!   series costs O(1) (a version compare, no bytes copied); an appended
//!   series costs O(k) for k new points; only replaced/expired series pay a
//!   full copy — columns decoded straight from the sealed blocks, each
//!   value written once into the buffer the state then keeps. Workers then
//!   never touch a shard lock.
//! * **Partition-equality reuse** (*Level A*) — each round records the
//!   absolute point-index partitions at the window boundary timestamps.
//!   Retained points are immutable and their absolute indices are stable,
//!   so equal partitions (plus an untrimmed range) imply the exact same
//!   region slices, cadence estimate, and coverage. When the partitions
//!   match the previous round at the same `now`, the previous outcome —
//!   including candidate regressions and, with the short-term one, the
//!   went-away and seasonality filters' verdict on it (pure functions of
//!   the candidate) — is returned verbatim. An advanced watermark never
//!   replays, even under equal partitions: a candidate's `change_time`
//!   moves with the window timestamps, and the fixed re-run interval moves
//!   every boundary of a series sampled more often than it re-runs.
//! * **Fault gates** — wherever Level A does not replay, an empty historic
//!   or analysis region is answered from the partitions, and the NaN-burst
//!   gate from the blockwise finite counts a [`RollingStats`] per series
//!   maintains, instead of rescanning the window. Either produces the store
//!   path's fault messages byte for byte, before any window is built.
//!   Everything else is a fresh scan, in which the detectors' own
//!   pre-filters (the short-term LRT skip bound and the long-term trend
//!   pre-filter) refute quiet series; an engine-side copy of them over
//!   rolling moments measured no cheaper (DESIGN.md, "Streaming scan
//!   engine").
//! * **One window scratch per shard** — a fresh scan copies its window into
//!   the scratch buffer of the series' engine shard and hands it back on
//!   [`StreamingEngine::complete`]; a shard's series are scanned one after
//!   another on one worker, so one buffer serves them all and steady-state
//!   rounds extract windows with zero new allocations
//!   ([`EngineStats::buffer_growth`] counts the exceptions).
//! * **One resident copy per point** — a state is two columns over one
//!   absolute point index: the values live only in the [`RollingStats`]
//!   ring and the timestamps only as [`TimeRuns`] (one run for a regular
//!   series), so window boundaries and the cadence estimate never touch a
//!   per-point timestamp and a window is one slice copy of the ring.
//!
//! Values are *oriented at ingest* (throughput is negated so a drop reads
//! as a regression, exactly as [`crate::pipeline::Pipeline`] does after
//! windowing). Negation is an exact sign-bit flip and commutes with
//! slicing, so engine windows are bit-identical to the store path's
//! oriented windows and the detectors see the same bytes either way.
//!
//! ## Sharded rounds
//!
//! Engine state is partitioned into the *same* shards as the
//! [`TsdbStore`] ([`fbd_tsdb::TsdbStore::shard_of`]): one
//! [`EngineShard`] per store shard, each behind its own lock. A round is
//! driven in three steps — [`StreamingEngine::round_prologue`] (serial:
//! advance the watermark and round counter), one
//! [`StreamingEngine::ingest_shard`] call per shard (safe to run
//! concurrently from worker threads; each call takes exactly one engine
//! shard lock and, inside the store, exactly one store shard lock), and
//! [`StreamingEngine::finish_round`] (serial: stale-state sweep). The
//! shard-per-core driver in [`crate::pipeline::Pipeline`] pins each
//! shard's ingest *and* its series' detection to one worker, so shard
//! locks are uncontended in the steady state.
//!
//! ## Known aliasing limit
//!
//! Version counters survive in the store, not the observer: a series that
//! is fully removed (e.g. by retention) and later re-created could, in
//! principle, present counters that line up with the observer's pure-append
//! history. The engine defends with a tail-continuity check — an appended
//! tail that starts before the state's last timestamp drops the state and
//! falls back to a full store scan for the round — and a fresh `Reset`
//! rebuilds it next round.

use crate::types::Regression;
use fbd_stats::streaming::RollingStats;
use fbd_tsdb::{
    snapshot_bounds, window_coverage_from_counts, DataPoint, MetricKind, SeriesColumns, SeriesDelta,
    SeriesId, SeriesVersion, TimeRuns, Timestamp, TsdbError, TsdbStore, WindowConfig,
    WindowCoverage, WindowedData,
};
use fbd_sync::{LockDomain, OrderedMutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// States untouched for this many rounds are dropped (series that left the
/// scan set keep no memory forever).
const STALE_ROUNDS: u64 = 64;

/// Absolute point-index partitions of one series at the five boundary
/// timestamps window extraction uses: historic start, analysis start,
/// extended start, `now`, and the cadence-slice end `max(now, historic
/// start + 1)`. Equal partitions over an append-only state mean the exact
/// same points fall in every region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Partitions {
    h: u64,
    a: u64,
    e: u64,
    n: u64,
    c: u64,
}

/// What the went-away and seasonality filters, in that order, made of a
/// short-term candidate. A pure function of the candidate, so wherever the
/// candidate may be replayed its verdict may be too — except an error,
/// which [`StreamingEngine::complete`] does not record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShortVerdict {
    /// Both filters kept it.
    Kept,
    /// The went-away filter dropped it.
    WentAway,
    /// The seasonality filter dropped it.
    Seasonal,
    /// The went-away filter failed with this message.
    WentAwayError(String),
    /// The seasonality filter failed with this message.
    SeasonalityError(String),
}

impl ShortVerdict {
    /// Whether the candidate got past the went-away filter.
    pub fn past_went_away(&self) -> bool {
        !matches!(self, ShortVerdict::WentAway | ShortVerdict::WentAwayError(_))
    }
}

/// A per-series scan outcome the engine can replay on a later round.
///
/// Mirrors the pipeline's per-series verdicts without depending on its
/// private types; the pipeline converts on reuse.
// Candidates stay inline: boxing `Regression` would put an allocation on
// the per-series hot path to shrink the (rare) quiet variants.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CachedScan {
    /// A healthy scan: the short- and long-term candidates (usually `None`)
    /// and whether the series' window coverage was partial.
    Ok {
        /// Short-term change-point candidate and the filters' verdict on it.
        short: Option<(Regression, ShortVerdict)>,
        /// Long-term (gradual) candidate.
        long: Option<Regression>,
        /// Whether coverage fell below the scan's partial floor.
        partial: bool,
    },
    /// Window extraction found nothing to scan (empty historic/analysis
    /// window).
    NoData(String),
    /// The data-quality gate rejected the series (NaN burst).
    BadData(String),
}

impl CachedScan {
    /// Whether a filter failed on the short-term candidate. Such an outcome
    /// is never recorded: the next round evaluates the filter again.
    fn filter_errored(&self) -> bool {
        use ShortVerdict::{SeasonalityError, WentAwayError};
        matches!(self, CachedScan::Ok { short: Some((_, WentAwayError(_) | SeasonalityError(_))), .. })
    }
}

/// What the previous round computed for one series, and under which gate
/// inputs, so a later round can prove the outcome still holds.
#[derive(Debug, Clone)]
struct RoundArtifacts {
    now: Timestamp,
    parts: Partitions,
    min_finite_fraction: f64,
    min_coverage: f64,
    outcome: CachedScan,
}

impl RoundArtifacts {
    fn new(
        now: Timestamp,
        parts: Partitions,
        min_finite_fraction: f64,
        min_coverage: f64,
        outcome: CachedScan,
    ) -> Self {
        RoundArtifacts { now, parts, min_finite_fraction, min_coverage, outcome }
    }
}

/// Opaque receipt from [`StreamingEngine::prepare`], handed back to
/// [`StreamingEngine::complete`] so the round's artifacts are recorded
/// against the partitions the windows were actually built from.
#[derive(Debug, Clone, Copy)]
pub struct RoundToken {
    parts: Partitions,
    buffer_capacity: usize,
    min_finite_fraction: f64,
    min_coverage: f64,
}

/// Per-series engine state, columnar with one resident copy per point:
/// the oriented values live only in the rolling statistics, the timestamps
/// only as runs. Both columns share one absolute point index, stable across
/// trims, which is what makes [`Partitions`] comparable across rounds.
struct SeriesState {
    version: SeriesVersion,
    /// Retained values, oriented, with their blockwise finite counts.
    stats: RollingStats,
    /// Retained timestamps as arithmetic runs: window boundaries and the
    /// cadence estimate come from the runs, O(log runs) on a regular series
    /// instead of a rescan of the window's timestamps.
    times: TimeRuns,
    /// Points with timestamps below this may have been discarded; a scan
    /// whose historic window starts earlier cannot be served from here.
    trim_ts: Timestamp,
    last: Option<RoundArtifacts>,
    /// Round counter at last sighting, for stale eviction.
    touched: u64,
}

impl SeriesState {
    /// Builds a fresh state from a `Reset` delta's columns: the value
    /// column is oriented in place and adopted as the rolling statistics'
    /// storage, so the values the block decoder wrote are never written
    /// again.
    // fbd-lint::hot
    fn rebuild(
        id: &SeriesId,
        version: SeriesVersion,
        columns: SeriesColumns,
        trim_ts: Timestamp,
        touched: u64,
    ) -> Self {
        let SeriesColumns { times, mut values } = columns;
        if id.metric == MetricKind::Throughput {
            values.iter_mut().for_each(|v| *v = -*v);
        }
        SeriesState {
            version,
            stats: RollingStats::adopt(times.first_index(), values),
            times,
            trim_ts,
            last: None,
            touched,
        }
    }

    /// Folds an `Appended` delta's tail into both columns. `false` — and
    /// nothing folded — when the tail starts before the last retained
    /// timestamp: a true append never does (appends are non-decreasing),
    /// so the version counters must have aliased another lineage.
    // fbd-lint::hot
    fn append_tail(&mut self, id: &SeriesId, tail: &[DataPoint]) -> bool {
        if let (Some(prev), Some(next)) = (self.times.last(), tail.first()) {
            if next.timestamp < prev {
                return false;
            }
        }
        let negate = id.metric == MetricKind::Throughput;
        for p in tail {
            self.stats.append(if negate { -p.value } else { p.value });
            self.times.push(p.timestamp);
        }
        true
    }

    /// The absolute point-index partitions at a scan's boundary timestamps
    /// (as window extraction computes them from `now`).
    fn partitions(
        &self,
        historic_start: Timestamp,
        analysis_start: Timestamp,
        extended_start: Timestamp,
        now: Timestamp,
    ) -> Partitions {
        let pp = |t: Timestamp| self.times.partition_point(t);
        // The boundaries ascend, so over ordered timestamps the partitions
        // do too; the `max` chain only keeps the region lengths from
        // underflowing on the disorder a corrupt block decodes to.
        let h = pp(historic_start);
        let a = pp(analysis_start).max(h);
        let e = pp(extended_start).max(a);
        let n = pp(now).max(e);
        let c = pp(now.max(historic_start + 1)).max(n);
        Partitions { h, a, e, n, c }
    }

    /// The coverage verdict window extraction would attach to the windows
    /// at `parts`: region counts fall out of the partitions and the cadence
    /// out of the timestamp runs, so it costs a walk over the runs instead
    /// of a rescan of the window's timestamps.
    fn coverage(&self, parts: &Partitions, config: &WindowConfig, now: Timestamp) -> WindowCoverage {
        window_coverage_from_counts(
            (parts.a - parts.h) as usize,
            (parts.e - parts.a) as usize,
            (parts.n - parts.e) as usize,
            self.times.min_gap(parts.h + 1, parts.c),
            config,
            now,
        )
    }

    /// Copies the window `[parts.h, parts.n)` out of the value column into
    /// `buffer` — the three regions are adjacent, so it is one copy (two
    /// when the ring has wrapped).
    // fbd-lint::hot
    fn fill_window(&self, parts: &Partitions, buffer: &mut Vec<f64>) {
        let (front, back) = self.stats.slices(parts.h, parts.n);
        buffer.clear();
        buffer.reserve(front.len() + back.len());
        buffer.extend_from_slice(front);
        buffer.extend_from_slice(back);
    }

    /// Drops points before `bound_start` (they precede every window a scan
    /// at the current watermark reads), keeping absolute indices stable.
    fn trim(&mut self, bound_start: Timestamp) {
        let to = self.times.partition_point(bound_start);
        if to == self.times.first_index() {
            return;
        }
        self.times.trim(to);
        self.stats.evict_to(to);
        if self.trim_ts < bound_start {
            self.trim_ts = bound_start;
        }
    }

    /// Heap bytes this state holds: values with their block counts, and
    /// timestamp runs, each at its capacity.
    fn resident_bytes(&self) -> usize {
        self.stats.resident_bytes() + self.times.resident_bytes()
    }
}

/// What [`StreamingEngine::prepare`] decided for one series this round.
// `Reuse`/`Scan` both carry large payloads by design; this value lives for
// one match arm, so boxing would be pure overhead.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    /// The outcome is already known — replayed from a previous round or
    /// short-circuited by the incremental data-quality gate.
    Reuse(CachedScan),
    /// Fresh detection is needed; `windows` are extracted (pre-oriented,
    /// gate already passed) and `token` must be returned via
    /// [`StreamingEngine::complete`].
    Scan {
        /// Extracted, oriented windows for the detectors.
        windows: WindowedData,
        /// Receipt for [`StreamingEngine::complete`].
        token: RoundToken,
    },
    /// The engine cannot serve this series this round (no state, counter
    /// alias, or a regressed watermark); the caller must run the plain
    /// store-path scan.
    Fallback,
}

/// Monotonic engine counters, one snapshot per call to
/// [`StreamingEngine::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rounds opened via [`StreamingEngine::round_prologue`].
    pub rounds: u64,
    /// Series states currently held.
    pub tracked: u64,
    /// O(1) ingests: version unchanged, no bytes copied.
    pub unchanged: u64,
    /// Series extended in place from an appended tail.
    pub appended_series: u64,
    /// Total appended points ingested.
    pub appended_points: u64,
    /// Full state rebuilds from a `Reset` delta.
    pub resets: u64,
    /// States dropped (series missing, or tail-continuity defense fired).
    pub removed: u64,
    /// Level A reuse: same watermark, equal partitions — previous outcome
    /// replayed verbatim.
    pub reused_full: u64,
    /// Fault outcomes decided from partitions/rolling stats without
    /// building windows.
    pub gated: u64,
    /// Always 0: the online refuters that counted here were deleted. Kept
    /// until the benchmark stops reading it.
    pub advanced_online: u64,
    /// Always 0, like [`EngineStats::advanced_online`].
    pub online_fallbacks: u64,
    /// Rounds answered without building windows — the sum of every
    /// [`Prepared::Reuse`] return (Level A and the fault gates): the
    /// series' partitions and its [`RollingStats`] finite counts alone
    /// settled it.
    pub summary_hits: u64,
    /// Fresh window builds handed to the detectors.
    pub scanned: u64,
    /// Series the engine could not serve (caller fell back to the store
    /// path).
    pub fallbacks: u64,
    /// Completed scans whose shard's window scratch had to grow — at most
    /// one per shard on a fleet of like-sized windows, and zero once a
    /// fleet reaches steady state.
    pub buffer_growth: u64,
    /// Samples currently retained across all series states. Shrinks when
    /// the stale sweep retires states or `trim` drops points behind the
    /// historic boundary.
    pub resident_points: u64,
    /// Heap bytes those states hold — value rings (with their block
    /// counts) and timestamp runs, each at its capacity — so the engine's
    /// memory footprint reads off its own counters. The per-shard window
    /// scratch is transient working memory and is not counted.
    pub resident_bytes: u64,
}

#[derive(Default)]
struct Counters {
    rounds: AtomicU64,
    unchanged: AtomicU64,
    appended_series: AtomicU64,
    appended_points: AtomicU64,
    resets: AtomicU64,
    removed: AtomicU64,
    reused_full: AtomicU64,
    gated: AtomicU64,
    summary_hits: AtomicU64,
    scanned: AtomicU64,
    fallbacks: AtomicU64,
    buffer_growth: AtomicU64,
}

/// One engine shard: the per-series states whose ids route to the same
/// [`TsdbStore`] shard, and the window scratch its scans share. Guarded by
/// one lock so a whole shard's round can be pinned to one worker.
#[derive(Default)]
struct EngineShard {
    states: BTreeMap<SeriesId, SeriesState>,
    /// Window value buffer: lent out by [`StreamingEngine::prepare`] and
    /// returned by [`StreamingEngine::complete`].
    scratch: Vec<f64>,
}

/// The streaming incremental scan engine. Owned by the pipeline; one
/// instance tracks one scan population under one window configuration.
pub struct StreamingEngine {
    config: WindowConfig,
    /// One shard per store shard, aligned with [`TsdbStore::shard_of`].
    /// Ranked `engine-shard` in `LOCK_ORDER.manifest`: held across
    /// [`TsdbStore::snapshot_deltas`] (store-shard ranks higher).
    shards: Vec<OrderedMutex<EngineShard>>,
    now: Timestamp,
    round: u64,
    counters: Counters,
}

impl StreamingEngine {
    /// Creates an empty engine for the given window configuration.
    pub fn new(config: WindowConfig) -> Self {
        StreamingEngine {
            config,
            shards: (0..TsdbStore::shard_count())
                .map(|_| OrderedMutex::new(LockDomain::EngineShard, EngineShard::default()))
                .collect(),
            now: 0,
            round: 0,
            counters: Counters::default(),
        }
    }

    /// Number of engine shards (equal to [`TsdbStore::shard_count`]). A
    /// round is complete once every shard that holds eligible series has
    /// been ingested via [`StreamingEngine::ingest_shard`].
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, id: &SeriesId) -> &OrderedMutex<EngineShard> {
        &self.shards[TsdbStore::shard_of(id) % self.shards.len()]
    }

    /// Serially opens a round at watermark `now`: advances the round
    /// counter so the per-shard ingests and the stale sweep agree on the
    /// round number. A round is this call, then one
    /// [`StreamingEngine::ingest_shard`] per shard holding series to scan
    /// (each before that shard's first [`StreamingEngine::prepare`]), then
    /// [`StreamingEngine::finish_round`].
    pub fn round_prologue(&mut self, now: Timestamp) {
        self.now = now;
        self.round += 1;
        self.counters.rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Ingests one shard's deltas for the series about to be scanned at
    /// `now`. `ids` must all route to `shard_idx`
    /// ([`TsdbStore::shard_of`]); one batched store pass classifies every
    /// series as unchanged / appended / reset / missing against the
    /// engine's recorded versions, and states are updated accordingly.
    ///
    /// Thread-safe: takes exactly one engine shard lock, and the store
    /// pass — ids all routing to one store shard — takes exactly one store
    /// shard lock (in the mode [`TsdbStore::snapshot_deltas`] documents),
    /// so distinct shards ingest fully in parallel.
    pub fn ingest_shard(
        &self,
        store: &TsdbStore,
        shard_idx: usize,
        ids: &[&SeriesId],
        now: Timestamp,
    ) {
        debug_assert!(
            ids.iter()
                .all(|id| TsdbStore::shard_of(id) % self.shards.len()
                    == shard_idx % self.shards.len()),
            "ids must route to the ingested shard"
        );
        let round = self.round;
        let mut guard = self.shards[shard_idx % self.shards.len()].lock();
        let shard = &mut *guard;
        let known: Vec<Option<SeriesVersion>> = ids
            .iter()
            .map(|id| shard.states.get(*id).map(|s| s.version))
            .collect();
        let deltas = store.snapshot_deltas(ids, &known, &self.config, now);
        let (bound_start, _) = snapshot_bounds(&self.config, now);
        for (id, delta) in ids.iter().zip(deltas) {
            match delta {
                SeriesDelta::Missing => {
                    if shard.states.remove(*id).is_some() {
                        self.counters.removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                SeriesDelta::Unchanged { version } => {
                    if let Some(s) = shard.states.get_mut(*id) {
                        s.version = version;
                        s.touched = round;
                        s.trim(bound_start);
                        self.counters.unchanged.fetch_add(1, Ordering::Relaxed);
                    }
                }
                SeriesDelta::Appended { version, tail } => {
                    // A discontinuous tail (counter aliasing) drops the
                    // state; the round falls back to a full store scan.
                    let mut extended = false;
                    if let Some(s) = shard.states.get_mut(*id) {
                        if s.append_tail(id, &tail) {
                            s.version = version;
                            s.touched = round;
                            s.trim(bound_start);
                            extended = true;
                        }
                    }
                    if extended {
                        self.counters.appended_series.fetch_add(1, Ordering::Relaxed);
                        self.counters
                            .appended_points
                            .fetch_add(tail.len() as u64, Ordering::Relaxed);
                    } else if shard.states.remove(*id).is_some() {
                        self.counters.removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                SeriesDelta::Reset { version, columns } => {
                    let state = SeriesState::rebuild(id, version, columns, bound_start, round);
                    match shard.states.get_mut(*id) {
                        Some(s) => *s = state,
                        None => {
                            shard.states.insert((*id).clone(), state);
                        }
                    }
                    self.counters.resets.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Serially closes a round: every [`STALE_ROUNDS`] rounds, states not
    /// sighted for a full stale period are dropped. Must be called after
    /// the round's last [`StreamingEngine::ingest_shard`].
    pub fn finish_round(&mut self) {
        let round = self.round;
        if round.is_multiple_of(STALE_ROUNDS) {
            for shard in &mut self.shards {
                shard
                    .get_mut()
                    .states
                    .retain(|_, s| s.touched + STALE_ROUNDS > round);
            }
        }
    }

    /// Decides how to scan one series this round. Thread-safe: takes the
    /// series' engine shard lock; the shard-per-core driver keeps each
    /// shard on one worker, so the lock is uncontended in steady state.
    /// A [`Prepared::Scan`] carries the shard's window scratch: hand it
    /// back through [`StreamingEngine::complete`] before the shard's next
    /// scan, or that scan allocates a buffer of its own.
    // fbd-lint::hot
    pub fn prepare(&self, id: &SeriesId, min_finite_fraction: f64, min_coverage: f64) -> Prepared {
        let mut guard = self.shard(id).lock();
        let shard = &mut *guard;
        let Some(s) = shard.states.get_mut(id) else {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            return Prepared::Fallback;
        };
        let now = self.now;
        // Boundary timestamps exactly as window extraction computes them.
        let extended_start = now.saturating_sub(self.config.extended);
        let analysis_start = extended_start.saturating_sub(self.config.analysis);
        let historic_start = analysis_start.saturating_sub(self.config.historic);
        if historic_start < s.trim_ts {
            // The watermark moved backwards past points already trimmed.
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
            return Prepared::Fallback;
        }
        let parts = s.partitions(historic_start, analysis_start, extended_start, now);
        let replay = s.last.as_ref().filter(|last| {
            last.now == now
                && last.parts == parts
                && last.min_finite_fraction.to_bits() == min_finite_fraction.to_bits()
                && last.min_coverage.to_bits() == min_coverage.to_bits()
        });
        if let Some(last) = replay {
            self.counters.reused_full.fetch_add(1, Ordering::Relaxed);
            self.counters.summary_hits.fetch_add(1, Ordering::Relaxed);
            return Prepared::Reuse(last.outcome.clone());
        }
        // Fault gates straight from the partitions and the rolling finite
        // counts — byte-identical messages to the store path, no window
        // build, no value rescan.
        let gate = if parts.a == parts.h {
            Some(CachedScan::NoData(
                TsdbError::EmptyWindow("historic").to_string(),
            ))
        } else if parts.e == parts.a {
            Some(CachedScan::NoData(
                TsdbError::EmptyWindow("analysis").to_string(),
            ))
        } else {
            let mut bad = None;
            for (name, lo, hi) in [("historic", parts.h, parts.a), ("analysis", parts.a, parts.e)] {
                let len = (hi - lo) as usize;
                let finite = s.stats.finite_count(lo, hi);
                if (finite as f64) < min_finite_fraction * len as f64 {
                    bad = Some(CachedScan::BadData(format!(
                        "{name} window: only {finite}/{len} finite values"
                    )));
                    break;
                }
            }
            bad
        };
        if let Some(outcome) = gate {
            self.counters.gated.fetch_add(1, Ordering::Relaxed);
            self.counters.summary_hits.fetch_add(1, Ordering::Relaxed);
            s.last = Some(RoundArtifacts::new(
                now,
                parts,
                min_finite_fraction,
                min_coverage,
                outcome.clone(),
            ));
            return Prepared::Reuse(outcome);
        }
        // Fresh detection: the gates above left a non-empty historic and
        // analysis region, so the windows always build.
        let mut buffer = std::mem::take(&mut shard.scratch);
        let buffer_capacity = buffer.capacity();
        s.fill_window(&parts, &mut buffer);
        let coverage = s.coverage(&parts, &self.config, now);
        self.counters.scanned.fetch_add(1, Ordering::Relaxed);
        Prepared::Scan {
            windows: WindowedData::from_parts(
                buffer,
                (parts.a - parts.h) as usize,
                (parts.e - parts.a) as usize,
                analysis_start,
                extended_start,
                coverage,
            ),
            token: RoundToken {
                parts,
                buffer_capacity,
                min_finite_fraction,
                min_coverage,
            },
        }
    }

    /// Returns a [`Prepared::Scan`]'s window buffer to the shard's scratch
    /// and records the round's outcome for future reuse. `outcome` is `None`
    /// when the detectors errored, and is ignored when a filter did
    /// ([`ShortVerdict::WentAwayError`]): the buffer is still reclaimed, and the
    /// previous artifacts (whose gates remain sound — retained points are
    /// immutable) are kept.
    // fbd-lint::hot
    pub fn complete(
        &self,
        id: &SeriesId,
        token: RoundToken,
        outcome: Option<CachedScan>,
        windows: WindowedData,
    ) {
        let mut guard = self.shard(id).lock();
        let shard = &mut *guard;
        let buffer = windows.into_values();
        if buffer.capacity() > token.buffer_capacity {
            self.counters.buffer_growth.fetch_add(1, Ordering::Relaxed);
        }
        shard.scratch = buffer;
        let Some(s) = shard.states.get_mut(id) else { return };
        if let Some(outcome) = outcome.filter(|o| !o.filter_errored()) {
            s.last = Some(RoundArtifacts::new(
                self.now,
                token.parts,
                token.min_finite_fraction,
                token.min_coverage,
                outcome,
            ));
        }
    }

    /// A snapshot of the engine's counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let (mut tracked, mut resident_points, mut resident_bytes) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let guard = shard.lock();
            tracked += guard.states.len() as u64;
            for s in guard.states.values() {
                resident_points += s.stats.len() as u64;
                resident_bytes += s.resident_bytes() as u64;
            }
        }
        EngineStats {
            rounds: c.rounds.load(Ordering::Relaxed),
            tracked,
            unchanged: c.unchanged.load(Ordering::Relaxed),
            appended_series: c.appended_series.load(Ordering::Relaxed),
            appended_points: c.appended_points.load(Ordering::Relaxed),
            resets: c.resets.load(Ordering::Relaxed),
            removed: c.removed.load(Ordering::Relaxed),
            reused_full: c.reused_full.load(Ordering::Relaxed),
            gated: c.gated.load(Ordering::Relaxed),
            advanced_online: 0,
            online_fallbacks: 0,
            summary_hits: c.summary_hits.load(Ordering::Relaxed),
            scanned: c.scanned.load(Ordering::Relaxed),
            fallbacks: c.fallbacks.load(Ordering::Relaxed),
            buffer_growth: c.buffer_growth.load(Ordering::Relaxed),
            resident_points,
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WindowConfig {
        WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 25,
        }
    }

    fn sid(name: &str) -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, name)
    }

    /// One whole round, serially: prologue, every populated shard's
    /// ingest, epilogue.
    fn begin_round(
        engine: &mut StreamingEngine,
        store: &TsdbStore,
        ids: &[&SeriesId],
        now: Timestamp,
    ) {
        engine.round_prologue(now);
        for (idx, shard_ids) in partition(engine, ids).iter().enumerate() {
            if !shard_ids.is_empty() {
                engine.ingest_shard(store, idx, shard_ids, now);
            }
        }
        engine.finish_round();
    }

    fn fill(store: &TsdbStore, id: &SeriesId, upto: u64) {
        for t in 0..upto {
            store.append(id, t, t as f64).unwrap();
        }
    }

    #[test]
    fn first_round_scans_then_level_a_reuses() {
        let store = TsdbStore::new();
        let id = sid("s");
        fill(&store, &id, 200);
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&id];
        begin_round(&mut engine, &store, &ids, 200);
        let windows = match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Scan { windows, token } => {
                let reference = store.windows(&id, &cfg(), 200).unwrap();
                assert_eq!(windows, reference);
                engine.complete(
                    &id,
                    token,
                    Some(CachedScan::Ok {
                        short: None,
                        long: None,
                        partial: false,
                    }),
                    windows.clone(),
                );
                windows
            }
            _ => panic!("first round must scan"),
        };
        // Appends beyond the watermark do not move any partition: Level A.
        store.append(&id, 200, 1.0).unwrap();
        store.append(&id, 205, 2.0).unwrap();
        begin_round(&mut engine, &store, &ids, 200);
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Reuse(CachedScan::Ok { short, long, .. }) => {
                assert!(short.is_none() && long.is_none());
            }
            _ => panic!("unchanged partitions at the same now must reuse"),
        }
        let stats = engine.stats();
        assert_eq!(stats.reused_full, 1);
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.appended_points, 2);
        // The reused round would have produced the same windows anyway.
        assert_eq!(store.windows(&id, &cfg(), 200).unwrap(), windows);
    }

    #[test]
    fn appends_inside_window_force_rescan_with_identical_windows() {
        let store = TsdbStore::new();
        let id = sid("s");
        fill(&store, &id, 200);
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&id];
        begin_round(&mut engine, &store, &ids, 200);
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Scan { token, windows } => {
                engine.complete(
                    &id,
                    token,
                    Some(CachedScan::Ok {
                        short: None,
                        long: None,
                        partial: false,
                    }),
                    windows,
                );
            }
            _ => panic!("first round must scan"),
        }
        // The watermark advances: partitions shift, reuse must not fire for
        // a changed window, and the engine's windows must equal the store's.
        for t in 200..230 {
            store.append(&id, t, t as f64).unwrap();
        }
        begin_round(&mut engine, &store, &ids, 230);
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Scan { windows, token } => {
                assert_eq!(windows, store.windows(&id, &cfg(), 230).unwrap());
                engine.complete(&id, token, None, windows);
            }
            _ => panic!("changed partitions must rescan"),
        }
    }

    #[test]
    fn level_a_replays_short_with_its_verdict_and_an_advanced_watermark_never_replays() {
        // Points every 10 ticks, so the window boundaries of now = 300,
        // 301 and 302 all fall in the same gaps: equal partitions at an
        // advancing watermark, the one shape where a later round could
        // mistake the previous outcome for its own.
        let store = TsdbStore::new();
        let id = sid("s");
        for t in (0..300u64).step_by(10) {
            store.append(&id, t, t as f64).unwrap();
        }
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&id];
        let quiet = || CachedScan::Ok {
            short: None,
            long: None,
            partial: false,
        };
        begin_round(&mut engine, &store, &ids, 300);
        let Prepared::Scan { windows, token } = engine.prepare(&id, 0.5, 0.5) else {
            panic!("first round must scan");
        };
        let candidate = Regression {
            series: id.clone(),
            kind: crate::types::RegressionKind::ShortTerm,
            change_index: 12,
            change_time: 260,
            mean_before: 1.0,
            mean_after: 2.0,
            windows: windows.clone(),
            root_cause_candidates: Vec::new(),
        };
        let with_verdict = |verdict| CachedScan::Ok {
            short: Some((candidate.clone(), verdict)),
            long: None,
            partial: false,
        };
        // A filter error is not recorded: the same round scans again.
        let errored = with_verdict(ShortVerdict::WentAwayError("boom".to_string()));
        engine.complete(&id, token, Some(errored), windows);
        begin_round(&mut engine, &store, &ids, 300);
        let Prepared::Scan { windows, token } = engine.prepare(&id, 0.5, 0.5) else {
            panic!("an errored verdict must not be replayed");
        };
        engine.complete(&id, token, Some(with_verdict(ShortVerdict::Seasonal)), windows);
        // Same watermark: the candidate comes back with its verdict.
        begin_round(&mut engine, &store, &ids, 300);
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Reuse(CachedScan::Ok {
                short: Some((r, verdict)),
                long: None,
                ..
            }) => {
                assert_eq!((r.change_index, r.change_time), (12, 260));
                assert_eq!(verdict, ShortVerdict::Seasonal);
            }
            _ => panic!("Level A must replay the candidate and its verdict"),
        }
        assert_eq!(engine.stats().reused_full, 1);
        // Advanced watermark, equal partitions: neither the candidate (at
        // 301) nor a quiet outcome (at 302) is replayed — each step scans
        // afresh, with the store path's windows.
        for now in [301, 302] {
            begin_round(&mut engine, &store, &ids, now);
            let Prepared::Scan { windows, token } = engine.prepare(&id, 0.5, 0.5) else {
                panic!("an advanced watermark must not replay (now = {now})");
            };
            assert_eq!(windows, store.windows(&id, &cfg(), now).unwrap());
            engine.complete(&id, token, Some(quiet()), windows);
        }
        assert_eq!(engine.stats().reused_full, 1);
    }

    #[test]
    fn empty_and_nan_gates_match_store_messages() {
        let store = TsdbStore::new();
        let empty = sid("empty");
        store.insert_series(empty.clone(), fbd_tsdb::TimeSeries::new());
        let nans = sid("nans");
        for t in 0..200u64 {
            let v = if (100..160).contains(&t) {
                f64::NAN
            } else {
                1.0
            };
            store.append(&nans, t, v).unwrap();
        }
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&empty, &nans];
        begin_round(&mut engine, &store, &ids, 200);
        match engine.prepare(&empty, 0.5, 0.5) {
            Prepared::Reuse(CachedScan::NoData(msg)) => {
                let store_err = store.windows(&empty, &cfg(), 200).unwrap_err();
                assert_eq!(msg, store_err.to_string());
            }
            _ => panic!("empty series must gate as NoData"),
        }
        match engine.prepare(&nans, 0.5, 0.5) {
            Prepared::Reuse(CachedScan::BadData(msg)) => {
                // The analysis window [125, 175) holds 35 NaNs out of 50.
                assert_eq!(msg, "analysis window: only 15/50 finite values");
            }
            _ => panic!("NaN burst must gate as BadData"),
        }
        assert_eq!(engine.stats().gated, 2);
        // Gate outcomes are themselves Level-A reusable.
        begin_round(&mut engine, &store, &ids, 200);
        assert!(matches!(
            engine.prepare(&nans, 0.5, 0.5),
            Prepared::Reuse(CachedScan::BadData(_))
        ));
        assert_eq!(engine.stats().reused_full, 1);
    }

    #[test]
    fn replacement_resets_and_discontinuous_tail_falls_back() {
        let store = TsdbStore::new();
        let id = sid("s");
        fill(&store, &id, 200);
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&id];
        begin_round(&mut engine, &store, &ids, 200);
        assert!(matches!(
            engine.prepare(&id, 0.5, 0.5),
            Prepared::Scan { .. }
        ));
        // Wholesale replacement: the delta is a Reset; the engine rebuilds
        // and serves windows identical to the store path.
        let replacement = fbd_tsdb::TimeSeries::from_values(0, 1, &[3.5; 210]);
        store.insert_series(id.clone(), replacement);
        begin_round(&mut engine, &store, &ids, 200);
        assert_eq!(engine.stats().resets, 2); // first observation + replacement
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Scan { windows, .. } => {
                assert_eq!(windows, store.windows(&id, &cfg(), 200).unwrap());
            }
            _ => panic!("replaced series must rescan"),
        }
    }

    #[test]
    fn oriented_ingest_negates_throughput_values() {
        let store = TsdbStore::new();
        let id = SeriesId::new("svc", MetricKind::Throughput, "t");
        fill(&store, &id, 200);
        let mut engine = StreamingEngine::new(cfg());
        let ids = [&id];
        begin_round(&mut engine, &store, &ids, 200);
        match engine.prepare(&id, 0.5, 0.5) {
            Prepared::Scan { windows, .. } => {
                let mut reference = store.windows(&id, &cfg(), 200).unwrap();
                for v in reference.values_mut() {
                    *v = -*v;
                }
                assert_eq!(windows, reference);
            }
            _ => panic!("first round must scan"),
        }
    }

    #[test]
    fn stale_states_are_evicted() {
        let store = TsdbStore::new();
        let kept = sid("kept");
        let stale = sid("stale");
        fill(&store, &kept, 200);
        fill(&store, &stale, 200);
        let mut engine = StreamingEngine::new(cfg());
        begin_round(&mut engine, &store, &[&kept, &stale], 200);
        assert_eq!(engine.stats().tracked, 2);
        // A state survives the eviction sweep until a full stale period has
        // elapsed since its last sighting, so run through two sweeps.
        for _ in 0..2 * STALE_ROUNDS {
            begin_round(&mut engine, &store, &[&kept], 200);
        }
        assert_eq!(engine.stats().tracked, 1);
        assert!(matches!(
            engine.prepare(&stale, 0.5, 0.5),
            Prepared::Fallback
        ));
    }

    fn fill_flat(store: &TsdbStore, id: &SeriesId, upto: u64) {
        for t in 0..upto {
            // Tiny deterministic jitter so the series is quiet but not
            // degenerate-constant.
            let v = 1.0 + ((t * 2_654_435_761) % 1_000) as f64 / 1_000_000.0;
            store.append(id, t, v).unwrap();
        }
    }

    #[test]
    fn stale_sweep_retires_online_detector_state() {
        // Series that leave the scan set must not keep their state (values,
        // block counts, timestamp runs) resident forever: the sweep
        // retires them and the engine's memory footprint shrinks.
        let store = TsdbStore::new();
        let kept = sid("kept");
        fill_flat(&store, &kept, 200);
        let orphans: Vec<SeriesId> = (0..8).map(|i| sid(&format!("orphan{i}"))).collect();
        for id in &orphans {
            fill_flat(&store, id, 200);
        }
        let mut engine = StreamingEngine::new(cfg());
        let mut ids: Vec<&SeriesId> = vec![&kept];
        ids.extend(orphans.iter());
        begin_round(&mut engine, &store, &ids, 200);
        for id in &ids {
            let Prepared::Scan { windows, token } = engine.prepare(id, 0.5, 0.5) else {
                panic!("first round must scan");
            };
            let quiet = CachedScan::Ok { short: None, long: None, partial: false };
            engine.complete(id, token, Some(quiet), windows);
        }
        let before = engine.stats();
        assert_eq!(before.tracked, 9);
        assert_eq!(before.scanned, 9);
        assert!(before.resident_points >= 9 * 175);
        // Only `kept` stays in the scan set; two sweep periods retire the
        // rest.
        for _ in 0..2 * STALE_ROUNDS {
            begin_round(&mut engine, &store, &[&kept], 200);
        }
        let after = engine.stats();
        assert_eq!(after.tracked, 1);
        assert!(
            after.resident_points <= before.resident_points / 8,
            "orphaned state must be retired: {} -> {}",
            before.resident_points,
            after.resident_points
        );
        assert!(matches!(
            engine.prepare(&orphans[0], 0.5, 0.5),
            Prepared::Fallback
        ));
    }

    #[test]
    fn resident_counters_follow_trims_and_resets() {
        let store = TsdbStore::new();
        let id = sid("s");
        fill_flat(&store, &id, 2_000);
        let mut engine = StreamingEngine::new(cfg());
        // The watermark sits at the start of the data: nothing is trimmed
        // and every appended point stays resident.
        begin_round(&mut engine, &store, &[&id], 175);
        let loaded = engine.stats();
        assert_eq!(loaded.resident_points, 2_000);
        // One copy per value: the ring at its power-of-two capacity, a
        // single timestamp run, no window buffer yet.
        assert!(loaded.resident_bytes >= 2_000 * 8);
        assert!(loaded.resident_bytes < 2_048 * 8 + 2_048, "{}", loaded.resident_bytes);
        // Jumping the watermark trims everything behind the new historic
        // boundary: the count drops at once, not at some later compaction.
        begin_round(&mut engine, &store, &[&id], 2_000);
        assert_eq!(engine.stats().resident_points, 175);
        // A replacement resets the state to the replacement's scan range.
        store.insert_series(id.clone(), fbd_tsdb::TimeSeries::from_values(1_900, 1, &[2.0; 100]));
        begin_round(&mut engine, &store, &[&id], 2_000);
        let reset = engine.stats();
        assert_eq!((reset.resets, reset.resident_points), (2, 100));
        assert!(reset.resident_bytes < loaded.resident_bytes / 8, "{}", reset.resident_bytes);
    }

    #[test]
    fn window_scratch_is_one_buffer_per_shard() {
        // A cold scan lends every fresh scan its shard's scratch: the
        // buffer grows at most once per shard, and no window copy stays
        // resident with a series state once its scan completes.
        let store = TsdbStore::new();
        let mut engine = StreamingEngine::new(cfg());
        let shards = engine.shard_count();
        let ids: Vec<SeriesId> = (0..10 * shards).map(|i| sid(&format!("w{i}"))).collect();
        for id in &ids {
            fill_flat(&store, id, 200);
        }
        let refs: Vec<&SeriesId> = ids.iter().collect();
        begin_round(&mut engine, &store, &refs, 200);
        let loaded = engine.stats();
        for id in &ids {
            let Prepared::Scan { windows, token } = engine.prepare(id, 0.5, 0.5) else {
                panic!("first round must scan");
            };
            assert_eq!(windows, store.windows(id, &cfg(), 200).unwrap());
            let quiet = CachedScan::Ok { short: None, long: None, partial: false };
            engine.complete(id, token, Some(quiet), windows);
        }
        let scanned = engine.stats();
        assert_eq!(scanned.scanned, ids.len() as u64);
        assert!(scanned.buffer_growth <= shards as u64, "{} > {shards}", scanned.buffer_growth);
        assert_eq!(scanned.resident_bytes, loaded.resident_bytes);
    }

    mod columnar {
        use super::*;
        use fbd_tsdb::{window_coverage, windows_from_points, TimeSeries};
        use proptest::prelude::*;

        /// The oracle: the retained points as a plain oriented vector, and
        /// the absolute index of its first element.
        struct Oracle {
            first: u64,
            live: Vec<DataPoint>,
        }

        fn orient(id: &SeriesId, p: DataPoint) -> DataPoint {
            let negate = id.metric == MetricKind::Throughput;
            DataPoint::new(p.timestamp, if negate { -p.value } else { p.value })
        }

        proptest! {
            #[test]
            fn columnar_state_matches_a_point_vector(
                ops in prop::collection::vec((0u8..10, 1usize..70, any::<u64>()), 1..14),
                throughput in any::<bool>(),
                seal_limit in 1u32..24,
                top in any::<bool>(),
            ) {
                // Random append / trim / reset sequences over NaNs, both
                // orientations, duplicate timestamps and a gap that changes
                // at every sample, optionally pushed against `u64::MAX`:
                // the five partitions, the cadence, the coverage verdict
                // and the window bytes the columnar state produces must be
                // those of the plain point vector.
                let kind = if throughput { MetricKind::Throughput } else { MetricKind::GCpu };
                let id = SeriesId::new("svc", kind, "s");
                let config = cfg();
                let version = SeriesVersion { version: 0, appended: 0 };
                let mut series = TimeSeries::with_seal_limit(seal_limit);
                let mut state =
                    SeriesState::rebuild(&id, version, SeriesColumns::default(), 0, 0);
                let mut oracle = Oracle { first: 0, live: Vec::new() };
                let mut t = if top { u64::MAX - 4_000 } else { 0 };
                for (round, &(op, k, seed)) in ops.iter().enumerate() {
                    match op {
                        // Appends: regular, jittered, duplicate-heavy.
                        0..=5 => {
                            let mut tail = Vec::new();
                            for j in 0..k as u64 {
                                let z = seed.wrapping_add(j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                                t += match op {
                                    0 | 1 => 1,
                                    2 => j % 5,
                                    3 => (z >> 60) % 4,
                                    _ => u64::from(j % 3 == 0),
                                };
                                let v = if z % 11 == 0 { f64::NAN } else { (z >> 40) as f64 / 1e6 };
                                series.append(t, v).unwrap();
                                tail.push(DataPoint::new(t, v));
                            }
                            prop_assert!(state.append_tail(&id, &tail));
                            oracle.live.extend(tail.iter().map(|&p| orient(&id, p)));
                        }
                        // Trim to a bound somewhere in the retained span.
                        6 | 7 => {
                            let lo = oracle.live.first().map_or(0, |p| p.timestamp);
                            let bound = lo + seed % (t - lo + 2);
                            state.trim(bound);
                            let cut = oracle.live.partition_point(|p| p.timestamp < bound);
                            oracle.live.drain(..cut);
                            oracle.first += cut as u64;
                        }
                        // Reset from a start inside (or before) the series.
                        _ => {
                            let lo = series.first_timestamp().unwrap_or(0);
                            let start = lo + seed % (t - lo + 2);
                            let columns = series.columns_from(start);
                            state = SeriesState::rebuild(&id, version, columns, start, 0);
                            oracle = Oracle {
                                first: 0,
                                live: series
                                    .iter()
                                    .filter(|p| p.timestamp >= start)
                                    .map(|p| orient(&id, p))
                                    .collect(),
                            };
                        }
                    }
                    prop_assert_eq!(state.stats.len(), oracle.live.len());
                    prop_assert_eq!(state.times.len(), oracle.live.len());
                    prop_assert_eq!(state.stats.first_index(), oracle.first);
                    for now in [t, t.saturating_sub(seed % 40), t.saturating_add(30)] {
                        let extended_start = now.saturating_sub(config.extended);
                        let analysis_start = extended_start.saturating_sub(config.analysis);
                        let historic_start = analysis_start.saturating_sub(config.historic);
                        if historic_start < state.trim_ts {
                            continue; // `prepare` falls back to the store path
                        }
                        let parts = state.partitions(historic_start, analysis_start, extended_start, now);
                        let pp = |b: Timestamp| {
                            oracle.first + oracle.live.partition_point(|p| p.timestamp < b) as u64
                        };
                        let want = Partitions {
                            h: pp(historic_start),
                            a: pp(analysis_start),
                            e: pp(extended_start),
                            n: pp(now),
                            c: pp(now.max(historic_start + 1)),
                        };
                        prop_assert_eq!(parts, want);
                        let span = &oracle.live
                            [(parts.h - oracle.first) as usize..(parts.c - oracle.first) as usize];
                        let cadence = span
                            .windows(2)
                            .map(|w| w[1].timestamp - w[0].timestamp)
                            .filter(|&g| g > 0)
                            .min();
                        prop_assert_eq!(state.times.min_gap(parts.h + 1, parts.c), cadence);
                        let coverage = state.coverage(&parts, &config, now);
                        prop_assert_eq!(coverage, window_coverage(&oracle.live, &config, now));
                        let mut buffer = Vec::new();
                        state.fill_window(&parts, &mut buffer);
                        let bits: Vec<u64> = buffer.iter().map(|v| v.to_bits()).collect();
                        match windows_from_points(&oracle.live, &config, now) {
                            Ok(cold) => {
                                let cold_bits: Vec<u64> = cold.all().iter().map(|v| v.to_bits()).collect();
                                prop_assert_eq!(bits, cold_bits, "round {} now {}", round, now);
                                prop_assert_eq!(
                                    ((parts.a - parts.h) as usize, (parts.e - parts.a) as usize),
                                    (cold.historic_len(), cold.analysis_len())
                                );
                            }
                            // Exactly the two gates `prepare` answers
                            // before it ever builds a window.
                            Err(_) => prop_assert!(parts.a == parts.h || parts.e == parts.a),
                        }
                    }
                }
            }
        }
    }

    fn partition<'a>(engine: &StreamingEngine, ids: &[&'a SeriesId]) -> Vec<Vec<&'a SeriesId>> {
        let mut by_shard: Vec<Vec<&SeriesId>> =
            (0..engine.shard_count()).map(|_| Vec::new()).collect();
        for &id in ids {
            by_shard[TsdbStore::shard_of(id) % engine.shard_count()].push(id);
        }
        by_shard
    }

    #[test]
    fn sharded_round_matches_serial_begin_round() {
        let store = TsdbStore::new();
        let ids: Vec<SeriesId> = (0..32).map(|i| sid(&format!("s{i}"))).collect();
        for id in &ids {
            fill(&store, id, 200);
        }
        let refs: Vec<&SeriesId> = ids.iter().collect();
        let mut serial = StreamingEngine::new(cfg());
        let mut sharded = StreamingEngine::new(cfg());
        begin_round(&mut serial, &store, &refs, 200);
        // The shard-stealing driver ingests shards in whatever order its
        // workers reach them: the reverse order must build the same states.
        sharded.round_prologue(200);
        for (idx, shard_ids) in partition(&sharded, &refs).iter().enumerate().rev() {
            if !shard_ids.is_empty() {
                sharded.ingest_shard(&store, idx, shard_ids, 200);
            }
        }
        sharded.finish_round();
        let (a, b) = (serial.stats(), sharded.stats());
        assert_eq!(a.tracked, b.tracked);
        assert_eq!(a.resets, b.resets);
        assert_eq!(a.rounds, b.rounds);
        for id in &ids {
            match (serial.prepare(id, 0.5, 0.5), sharded.prepare(id, 0.5, 0.5)) {
                (Prepared::Scan { windows: wa, .. }, Prepared::Scan { windows: wb, .. }) => {
                    assert_eq!(wa, wb);
                }
                _ => panic!("both engines must scan on first sight"),
            }
        }
    }

    #[test]
    fn concurrent_shard_ingest_is_complete() {
        let store = TsdbStore::new();
        let ids: Vec<SeriesId> = (0..64).map(|i| sid(&format!("c{i}"))).collect();
        for id in &ids {
            fill(&store, id, 200);
        }
        let refs: Vec<&SeriesId> = ids.iter().collect();
        let mut engine = StreamingEngine::new(cfg());
        engine.round_prologue(200);
        let by_shard = partition(&engine, &refs);
        let engine_ref = &engine;
        let store_ref = &store;
        std::thread::scope(|scope| {
            for (idx, shard_ids) in by_shard.iter().enumerate() {
                if shard_ids.is_empty() {
                    continue;
                }
                scope.spawn(move || {
                    engine_ref.ingest_shard(store_ref, idx, shard_ids, 200);
                });
            }
        });
        engine.finish_round();
        assert_eq!(engine.stats().tracked, ids.len() as u64);
        for id in &ids {
            match engine.prepare(id, 0.5, 0.5) {
                Prepared::Scan { windows, token } => {
                    assert_eq!(windows, store.windows(id, &cfg(), 200).unwrap());
                    engine.complete(&id.clone(), token, None, windows);
                }
                _ => panic!("every concurrently ingested series must be served"),
            }
        }
    }
}
