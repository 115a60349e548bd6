//! Concurrent store mapping series ids to time series.

use crate::columns::SeriesColumns;
use crate::scratch::ScratchPoints;
use crate::series::TimeSeries;
use crate::types::{SeriesId, Timestamp};
use crate::window::{snapshot_bounds, windows_from_points, WindowConfig, WindowedData};
use crate::{Result, TsdbError};
use fbd_sync::{LockDomain, OrderedRwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time observation of a series' mutation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesVersion {
    /// Counter advanced by every mutation.
    pub version: u64,
    /// Counter advanced only by appends.
    pub appended: u64,
}

/// What changed in one series since a previously observed [`SeriesVersion`],
/// as captured by [`TsdbStore::snapshot_deltas`] under one short shard lock.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesDelta {
    /// The series does not exist (or no longer exists).
    Missing,
    /// No mutation since the known version: nothing was copied.
    Unchanged {
        /// The (unchanged) counters at snapshot time.
        version: SeriesVersion,
    },
    /// Only appends happened since the known version; `tail` holds exactly
    /// the newly appended points, oldest first.
    Appended {
        /// Counters at snapshot time.
        version: SeriesVersion,
        /// The points appended since the known version, in a recycled
        /// [`ScratchPoints`] buffer (dropping it returns the capacity to
        /// the per-thread pool).
        tail: ScratchPoints,
    },
    /// Anything else (expiry, replacement, first observation): `columns`
    /// holds everything from the scan range start onward — including points
    /// timestamped at or after `now` (ingestion running ahead of the scan
    /// watermark) — so a consumer that extends the copy with later
    /// [`SeriesDelta::Appended`] tails never develops a gap.
    Reset {
        /// Counters at snapshot time.
        version: SeriesVersion,
        /// All points from `snapshot_bounds(config, now).0` onward, decoded
        /// straight from the sealed blocks ([`TimeSeries::columns_from`]).
        columns: SeriesColumns,
    },
}

/// What happened to each point of a [`TsdbStore::append_batch`] call.
#[derive(Debug, Default)]
pub struct BatchAppendOutcome {
    /// Points successfully appended.
    pub appended: usize,
    /// Points the store refused, as `(index into the input batch, error)`.
    pub rejected: Vec<(usize, TsdbError)>,
}

/// Storage policy for a [`TsdbStore`]: how aggressively series compress
/// their history and how much memory each shard may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Head size (points) at which each series seals a compressed block;
    /// a limit of 0 counts as 1.
    pub seal_limit: u32,
    /// Optional per-shard resident-byte budget. When a shard exceeds it,
    /// the store evicts whole sealed blocks — oldest block first (by the
    /// block's first timestamp, ties broken by series id) — until the
    /// shard fits. Mutable heads are never evicted, so recent data always
    /// survives. `None` disables enforcement.
    pub shard_budget_bytes: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seal_limit: Self::DEFAULT_SEAL_LIMIT,
            shard_budget_bytes: None,
        }
    }
}

impl StoreConfig {
    /// The default seal limit: small enough that a paper-shaped 900-point
    /// series packs into several blocks (so expiry and eviction have
    /// useful granularity), large enough that Gorilla's delta-of-delta and
    /// XOR windows amortize the 16-byte first sample.
    pub const DEFAULT_SEAL_LIMIT: u32 = 128;

    /// The default config under its older name: seal every
    /// [`StoreConfig::DEFAULT_SEAL_LIMIT`] points, no memory budget.
    pub fn compressed() -> Self {
        Self::default()
    }

    /// This config with a per-shard resident-byte budget.
    pub fn with_budget(mut self, bytes: usize) -> Self {
        self.shard_budget_bytes = Some(bytes);
        self
    }
}

/// Memory and eviction accounting for one shard, captured by
/// [`TsdbStore::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Series stored in the shard.
    pub series: usize,
    /// Total points across those series.
    pub points: usize,
    /// Resident bytes under the accounting model of
    /// [`TimeSeries::resident_bytes`]: 16 bytes per head point, compressed
    /// payload bytes, and `SUMMARY_BYTES` per sealed block.
    pub resident_bytes: usize,
    /// Compressed payload bytes (subset of `resident_bytes`).
    pub sealed_bytes: usize,
    /// Sealed blocks across the shard.
    pub sealed_blocks: usize,
    /// Uncompressed head points across the shard.
    pub head_points: usize,
    /// Blocks dropped by budget enforcement since the store was created.
    pub evicted_blocks: u64,
    /// Points dropped by budget enforcement since the store was created.
    pub evicted_points: u64,
    /// Constant 0 (there is no decode cache): read only by perfbench's two
    /// `tsdb.store.decode_cache_*` metrics, and goes with them in the next `benchmark` PR.
    pub decode_cache_misses: u64,
}

/// Store-wide storage statistics: one [`ShardStats`] per shard plus
/// aggregate accessors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-shard breakdown, indexed by shard number.
    pub shards: Vec<ShardStats>,
    /// Sealed blocks decoded by window, snapshot and delta reads, counted
    /// from block headers without touching the payloads.
    pub direct_blocks_decoded: u64,
}

impl StoreStats {
    /// Total series stored.
    pub fn series(&self) -> usize {
        self.shards.iter().map(|s| s.series).sum()
    }

    /// Total points stored.
    pub fn points(&self) -> usize {
        self.shards.iter().map(|s| s.points).sum()
    }

    /// Total resident bytes.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_bytes).sum()
    }

    /// Total compressed payload bytes.
    pub fn sealed_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.sealed_bytes).sum()
    }

    /// Total sealed blocks.
    pub fn sealed_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.sealed_blocks).sum()
    }

    /// Total uncompressed head points.
    pub fn head_points(&self) -> usize {
        self.shards.iter().map(|s| s.head_points).sum()
    }

    /// Total blocks dropped by budget enforcement.
    pub fn evicted_blocks(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted_blocks).sum()
    }

    /// Total points dropped by budget enforcement.
    pub fn evicted_points(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted_points).sum()
    }

    /// Total sealed blocks decoded by store reads.
    pub fn blocks_decoded(&self) -> u64 {
        self.direct_blocks_decoded
    }

    /// Constant 0 (there is no decode cache): read only by perfbench's two
    /// `tsdb.store.decode_cache_*` metrics, and goes with them in the next `benchmark` PR.
    pub fn decode_cache_hits(&self) -> u64 {
        0
    }

    /// Constant 0 (there is no decode cache): read only by perfbench's two
    /// `tsdb.store.decode_cache_*` metrics, and goes with them in the next `benchmark` PR.
    pub fn decode_cache_evictions(&self) -> u64 {
        0
    }

    /// Resident bytes per stored point (0 when empty) — the headline
    /// compression number (16.0 while every point sits in a head).
    pub fn bytes_per_point(&self) -> f64 {
        let points = self.points();
        if points == 0 {
            0.0
        } else {
            self.resident_bytes() as f64 / points as f64
        }
    }

    /// Largest single-shard resident footprint — what a per-shard budget
    /// is checked against.
    pub fn max_shard_resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_bytes).max().unwrap_or(0)
    }
}

/// One lock domain: the series map plus its memory accounting. The
/// resident counter is maintained incrementally (signed before/after delta
/// around every mutation — sealing can *shrink* a series mid-append) so
/// budget checks are O(1), not a walk of the map.
#[derive(Debug, Default)]
struct Shard {
    map: BTreeMap<SeriesId, TimeSeries>,
    resident_bytes: usize,
    evicted_blocks: u64,
    evicted_points: u64,
}

impl Shard {
    /// Folds a series' resident-byte change into the shard counter.
    fn track(&mut self, before: usize, after: usize) {
        self.resident_bytes = (self.resident_bytes + after).saturating_sub(before);
    }
}

/// A thread-safe in-memory time-series store.
///
/// Writers (the fleet simulator's collectors) append samples concurrently
/// with readers (the detection pipeline scanning windows). The store is
/// sharded by series id hash to keep lock contention low; each shard also
/// tracks its resident bytes so an optional [`StoreConfig`] budget can be
/// enforced without scanning.
#[derive(Debug)]
pub struct TsdbStore {
    /// Ranked `store-shard` in `LOCK_ORDER.manifest`: acquired under an
    /// engine-shard guard by the streaming round driver, never the other
    /// way around.
    shards: Vec<OrderedRwLock<Shard>>,
    config: StoreConfig,
    /// Backs [`StoreStats::direct_blocks_decoded`].
    direct_blocks_decoded: AtomicU64,
}

const SHARD_COUNT: usize = 16;

impl Default for TsdbStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TsdbStore {
    /// Creates an empty store with the default config.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// Creates an empty store with an explicit storage policy.
    pub fn with_config(config: StoreConfig) -> Self {
        TsdbStore {
            shards: (0..SHARD_COUNT)
                .map(|_| OrderedRwLock::new(LockDomain::StoreShard, Shard::default()))
                .collect(),
            config,
            direct_blocks_decoded: AtomicU64::new(0),
        }
    }

    /// Creates a store wrapped in an [`Arc`] for sharing across threads.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The storage policy this store was created with.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    fn shard_index(id: &SeriesId) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        id.hash(&mut h);
        (h.finish() as usize) % SHARD_COUNT
    }

    /// Number of shards the store partitions series across.
    pub const fn shard_count() -> usize {
        SHARD_COUNT
    }

    /// The shard a series id routes to. Stable across processes
    /// (`DefaultHasher` with fixed keys), so external writers — the
    /// ingestion pipeline's shard-append workers and the shard-per-core
    /// round driver — can partition work to match the store's own locking
    /// granularity.
    pub fn shard_of(id: &SeriesId) -> usize {
        Self::shard_index(id)
    }

    fn shard(&self, id: &SeriesId) -> &OrderedRwLock<Shard> {
        &self.shards[Self::shard_index(id)]
    }

    fn new_series(&self) -> TimeSeries {
        TimeSeries::with_seal_limit(self.config.seal_limit)
    }

    /// Evicts whole sealed blocks — oldest first — until the shard fits
    /// its budget. Deterministic: the victim is the minimum (front-block
    /// first timestamp, series id) pair, independent of map iteration
    /// incidentals (BTreeMap order is already id order). Heads are never
    /// touched; if nothing sealed remains the shard is allowed to exceed
    /// the budget rather than lose unsealed recent data.
    fn enforce_budget(&self, shard: &mut Shard) {
        let Some(budget) = self.config.shard_budget_bytes else {
            return;
        };
        while shard.resident_bytes > budget {
            let victim = shard
                .map
                .iter()
                .filter_map(|(id, s)| s.front_sealed_first_timestamp().map(|ts| (ts, id.clone())))
                .min();
            let Some((_, id)) = victim else {
                break;
            };
            let Some(series) = shard.map.get_mut(&id) else {
                break;
            };
            let Some((points, bytes)) = series.evict_front_block() else {
                break;
            };
            shard.resident_bytes = shard.resident_bytes.saturating_sub(bytes);
            shard.evicted_blocks += 1;
            shard.evicted_points += points as u64;
        }
    }

    /// Appends a sample, creating the series on first write.
    pub fn append(&self, id: &SeriesId, timestamp: Timestamp, value: f64) -> Result<()> {
        let mut guard = self.shard(id).write();
        let shard = &mut *guard;
        let series = shard.map.entry(id.clone()).or_insert_with(|| self.new_series());
        let before = series.resident_bytes();
        let result = series.append(timestamp, value);
        let after = series.resident_bytes();
        shard.track(before, after);
        self.enforce_budget(shard);
        result
    }

    /// Appends a batch of samples, acquiring each touched shard's write
    /// lock once instead of once per point. Points are grouped by shard
    /// in input order, and within a shard each point goes through the
    /// ordinary per-point [`TimeSeries::append`] — so the series' version
    /// and appended counters keep their lockstep stride and delta
    /// snapshots still classify the mutation as append-only.
    ///
    /// Per-point failures (out-of-order timestamps) do not abort the
    /// batch: the point is skipped and reported in
    /// [`BatchAppendOutcome::rejected`] with its index into `points`.
    pub fn append_batch(&self, points: &[(SeriesId, Timestamp, f64)]) -> BatchAppendOutcome {
        let mut outcome = BatchAppendOutcome::default();
        let by_shard = Self::group_by_shard(points.iter().map(|(id, _, _)| id));
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let mut guard = shard.write();
            let shard = &mut *guard;
            for &i in indices {
                let (id, timestamp, value) = &points[i];
                let series = shard.map.entry(id.clone()).or_insert_with(|| self.new_series());
                let before = series.resident_bytes();
                let result = series.append(*timestamp, *value);
                let after = series.resident_bytes();
                shard.track(before, after);
                match result {
                    Ok(()) => outcome.appended += 1,
                    Err(e) => outcome.rejected.push((i, e)),
                }
            }
            self.enforce_budget(shard);
        }
        outcome
    }

    /// Inserts (or replaces) a whole series, re-packing it to this store's
    /// seal limit. Replacement advances the new series' version past the
    /// old lineage so delta snapshots observe it as a reset, never as an
    /// append-only change.
    pub fn insert_series(&self, id: SeriesId, mut series: TimeSeries) {
        series.set_seal_limit(self.config.seal_limit);
        let mut guard = self.shard(&id).write();
        let shard = &mut *guard;
        if let Some(old) = shard.map.get(&id) {
            series.mark_replacement_of(old.version());
            shard.resident_bytes = shard.resident_bytes.saturating_sub(old.resident_bytes());
        }
        shard.resident_bytes += series.resident_bytes();
        shard.map.insert(id, series);
        self.enforce_budget(shard);
    }

    /// Returns a clone of the series, or an error if absent.
    pub fn get(&self, id: &SeriesId) -> Result<TimeSeries> {
        let shard = self.shard(id).read();
        shard.map.get(id).cloned().ok_or_else(|| TsdbError::SeriesNotFound(id.metric_id()))
    }

    /// Runs a closure against a borrowed series under the shard read lock,
    /// avoiding the whole-series clone [`TsdbStore::get`] pays. This is the
    /// read path scans should use: the closure sees `&TimeSeries` in place.
    pub fn with_series<R>(&self, id: &SeriesId, f: impl FnOnce(&TimeSeries) -> R) -> Result<R> {
        let shard = self.shard(id).read();
        let series = shard
            .map
            .get(id)
            .ok_or_else(|| TsdbError::SeriesNotFound(id.metric_id()))?;
        Ok(f(series))
    }

    /// Timestamp of the series' newest sample without cloning the series.
    pub fn last_timestamp(&self, id: &SeriesId) -> Result<Option<Timestamp>> {
        self.with_series(id, |s| s.last_timestamp())
    }

    /// Whether a series exists.
    pub fn contains(&self, id: &SeriesId) -> bool {
        self.shard(id).read().map.contains_key(id)
    }

    /// All series ids, sorted.
    pub fn series_ids(&self) -> Vec<SeriesId> {
        let mut ids: Vec<SeriesId> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().map.keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Series ids belonging to one service, sorted.
    pub fn series_ids_for_service(&self, service: &str) -> Vec<SeriesId> {
        let mut ids: Vec<SeriesId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.read();
                shard
                    .map
                    .keys()
                    .filter(|id| id.service == service)
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort();
        ids
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().map.len()).sum()
    }

    /// Storage statistics, one entry per shard. The walk recomputes the
    /// point/block tallies under each shard's read lock; `resident_bytes`
    /// comes from the incrementally maintained counter the budget checks
    /// use, so tests can cross-check the two models agree.
    pub fn stats(&self) -> StoreStats {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let shard = shard.read();
                let mut out = ShardStats {
                    series: shard.map.len(),
                    resident_bytes: shard.resident_bytes,
                    evicted_blocks: shard.evicted_blocks,
                    evicted_points: shard.evicted_points,
                    ..ShardStats::default()
                };
                for series in shard.map.values() {
                    out.points += series.len();
                    out.sealed_bytes += series.sealed_bytes();
                    out.sealed_blocks += series.sealed_block_count();
                    out.head_points += series.head_len();
                }
                out
            })
            .collect();
        StoreStats {
            shards,
            direct_blocks_decoded: self.direct_blocks_decoded.load(Ordering::Relaxed),
        }
    }

    /// Groups the positions of `ids` by the shard each id routes to.
    fn group_by_shard<'a>(ids: impl Iterator<Item = &'a SeriesId>) -> Vec<Vec<usize>> {
        let mut by_shard: Vec<Vec<usize>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for (i, id) in ids.enumerate() {
            by_shard[Self::shard_index(id)].push(i);
        }
        by_shard
    }

    /// Tallies sealed blocks a read is about to decode. Callers count them
    /// from block headers, so the tally itself never decodes.
    fn tally_decoded(&self, blocks: u64) {
        self.direct_blocks_decoded.fetch_add(blocks, Ordering::Relaxed);
    }

    /// The points of `series` in `[start, end)`, tallied.
    fn range_counted(&self, series: &TimeSeries, start: Timestamp, end: Timestamp) -> ScratchPoints {
        self.tally_decoded(series.overlapping_block_count(start, end));
        series.range_scratch(start, end)
    }

    /// Classifies one series against a previously observed version and
    /// copies the minimal point set — the per-series body of
    /// [`TsdbStore::snapshot_deltas`].
    fn classify_delta(
        &self,
        series: &TimeSeries,
        known: Option<SeriesVersion>,
        start: Timestamp,
    ) -> SeriesDelta {
        let current = SeriesVersion {
            version: series.version(),
            appended: series.appended(),
        };
        match known {
            Some(k) if k.version == current.version => SeriesDelta::Unchanged { version: current },
            // Append-only since `k`: every mutation bumped both counters by
            // one, so the deltas agree and equal the number of new tail points.
            Some(k)
                if current.version.wrapping_sub(k.version)
                    == current.appended.wrapping_sub(k.appended)
                    && current.appended.wrapping_sub(k.appended) <= series.len() as u64 =>
            {
                let new = current.appended.wrapping_sub(k.appended) as usize;
                self.tally_decoded(series.tail_block_count(new));
                SeriesDelta::Appended {
                    version: current,
                    tail: series.tail_scratch(new),
                }
            }
            _ => {
                self.tally_decoded(series.blocks_from(start).len() as u64);
                SeriesDelta::Reset {
                    version: current,
                    columns: series.columns_from(start),
                }
            }
        }
    }

    /// Extracts detection windows for one series at scan time `now`: the
    /// raw scan range is copied out under one shard read-lock hold and
    /// windowed after it is released.
    pub fn windows(
        &self,
        id: &SeriesId,
        config: &WindowConfig,
        now: Timestamp,
    ) -> Result<WindowedData> {
        let (start, end) = snapshot_bounds(config, now);
        let points = {
            let shard = self.shard(id).read();
            shard.map.get(id).map(|series| self.range_counted(series, start, end))
        };
        let points = points.ok_or_else(|| TsdbError::SeriesNotFound(id.metric_id()))?;
        windows_from_points(&points, config, now)
    }

    /// Extracts detection windows for a whole batch of series, holding each
    /// shard's read lock once and only long enough to copy the raw scan
    /// ranges out. All windowing work (boundary partitioning, cadence and
    /// coverage estimation, buffer assembly) happens after that shard's
    /// lock is released, so detection workers consuming the result never
    /// contend with writers. Per-entry results mirror
    /// [`TsdbStore::windows`] exactly, including `SeriesNotFound` and
    /// `EmptyWindow` errors.
    pub fn snapshot_windows(
        &self,
        ids: &[&SeriesId],
        config: &WindowConfig,
        now: Timestamp,
    ) -> Vec<Result<WindowedData>> {
        let (start, end) = snapshot_bounds(config, now);
        let mut windows: Vec<Option<Result<WindowedData>>> = ids.iter().map(|_| None).collect();
        let by_shard = Self::group_by_shard(ids.iter().copied());
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let copies: Vec<Option<ScratchPoints>> = {
                let shard = shard.read();
                indices
                    .iter()
                    .map(|&i| shard.map.get(ids[i]).map(|series| self.range_counted(series, start, end)))
                    .collect()
            };
            for (&i, copy) in indices.iter().zip(copies) {
                windows[i] = copy.map(|points| windows_from_points(&points, config, now));
            }
        }
        ids.iter()
            .zip(windows)
            .map(|(id, w)| w.unwrap_or_else(|| Err(TsdbError::SeriesNotFound(id.metric_id()))))
            .collect()
    }

    /// Captures what changed in a batch of series since previously observed
    /// versions, copying only appended tails for append-only mutations. Each
    /// shard's read lock is held once, for the duration of the raw point
    /// copies only.
    ///
    /// `known[i]` is the version of `ids[i]` from the caller's last
    /// observation (`None` for a first observation). Entries beyond
    /// `known.len()` are treated as first observations.
    pub fn snapshot_deltas(
        &self,
        ids: &[&SeriesId],
        known: &[Option<SeriesVersion>],
        config: &WindowConfig,
        now: Timestamp,
    ) -> Vec<SeriesDelta> {
        let (start, _) = snapshot_bounds(config, now);
        let mut deltas: Vec<SeriesDelta> = ids.iter().map(|_| SeriesDelta::Missing).collect();
        let by_shard = Self::group_by_shard(ids.iter().copied());
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let shard = shard.read();
            for &i in indices {
                // An absent series stays `Missing`.
                if let Some(series) = shard.map.get(ids[i]) {
                    deltas[i] = self.classify_delta(series, known.get(i).copied().flatten(), start);
                }
            }
        }
        deltas
    }

    /// Applies a retention policy: drops points older than `cutoff` in all
    /// series and removes series that become empty. Returns the number of
    /// points removed.
    pub fn expire_before(&self, cutoff: Timestamp) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let Shard { map, resident_bytes, .. } = &mut *guard;
            map.retain(|_, series| {
                let before = series.resident_bytes();
                removed += series.expire_before(cutoff);
                *resident_bytes =
                    (*resident_bytes + series.resident_bytes()).saturating_sub(before);
                !series.is_empty()
            });
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataPoint, MetricKind};

    fn id(target: &str) -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, target)
    }

    #[test]
    fn append_get_roundtrip() {
        let store = TsdbStore::new();
        store.append(&id("a"), 1, 0.5).unwrap();
        store.append(&id("a"), 2, 0.6).unwrap();
        let s = store.get(&id("a")).unwrap();
        assert_eq!(s.values(), vec![0.5, 0.6]);
    }

    #[test]
    fn missing_series_errors() {
        let store = TsdbStore::new();
        assert!(matches!(
            store.get(&id("nope")),
            Err(TsdbError::SeriesNotFound(_))
        ));
    }

    #[test]
    fn series_listing_by_service() {
        let store = TsdbStore::new();
        store
            .append(&SeriesId::new("a", MetricKind::Cpu, ""), 0, 1.0)
            .unwrap();
        store
            .append(&SeriesId::new("b", MetricKind::Cpu, ""), 0, 1.0)
            .unwrap();
        store
            .append(&SeriesId::new("a", MetricKind::Memory, ""), 0, 1.0)
            .unwrap();
        assert_eq!(store.series_count(), 3);
        assert_eq!(store.series_ids_for_service("a").len(), 2);
        assert_eq!(store.series_ids().len(), 3);
    }

    #[test]
    fn windows_through_store() {
        let store = TsdbStore::new();
        for t in 0..200u64 {
            store.append(&id("w"), t, t as f64).unwrap();
        }
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let w = store.windows(&id("w"), &cfg, 150).unwrap();
        assert_eq!(w.historic_len(), 100);
        assert_eq!(w.analysis_len(), 50);
    }

    #[test]
    fn with_series_borrows_without_cloning() {
        let store = TsdbStore::new();
        for t in 0..10u64 {
            store.append(&id("b"), t, t as f64).unwrap();
        }
        let len = store.with_series(&id("b"), |s| s.len()).unwrap();
        assert_eq!(len, 10);
        assert_eq!(store.last_timestamp(&id("b")).unwrap(), Some(9));
        assert!(store.last_timestamp(&id("missing")).is_err());
    }

    #[test]
    fn retention_drops_points_and_empty_series() {
        let store = TsdbStore::new();
        store.append(&id("old"), 10, 1.0).unwrap();
        store.append(&id("new"), 100, 1.0).unwrap();
        let removed = store.expire_before(50);
        assert_eq!(removed, 1);
        assert!(!store.contains(&id("old")));
        assert!(store.contains(&id("new")));
    }

    #[test]
    fn snapshot_windows_matches_per_series_windows() {
        let store = TsdbStore::new();
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 25,
            rerun_interval: 10,
        };
        let mut ids = Vec::new();
        for s in 0..20 {
            let sid = id(&format!("s{s}"));
            for t in 0..200u64 {
                store.append(&sid, t, (t + s) as f64).unwrap();
            }
            ids.push(sid);
        }
        // One id that holds too little data, one that is missing entirely.
        let sparse = id("sparse");
        store.append(&sparse, 190, 1.0).unwrap();
        ids.push(sparse);
        ids.push(id("missing"));
        let now = 200;
        let refs: Vec<&SeriesId> = ids.iter().collect();
        let batch = store.snapshot_windows(&refs, &cfg, now);
        assert_eq!(batch.len(), ids.len());
        for (sid, got) in ids.iter().zip(&batch) {
            let individually = store.windows(sid, &cfg, now);
            assert_eq!(got, &individually, "series {sid:?}");
        }
        assert!(matches!(
            batch[ids.len() - 2],
            Err(TsdbError::EmptyWindow("historic"))
        ));
        assert!(matches!(
            batch[ids.len() - 1],
            Err(TsdbError::SeriesNotFound(_))
        ));
    }

    #[test]
    fn snapshot_deltas_classify_mutations() {
        let store = TsdbStore::new();
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let a = id("a");
        let b = id("b");
        let c = id("c");
        for t in 0..100u64 {
            store.append(&a, t, 1.0).unwrap();
            store.append(&b, t, 2.0).unwrap();
            store.append(&c, t, 3.0).unwrap();
        }
        // First observation: everything is a Reset carrying the scan range.
        let first = store.snapshot_deltas(&[&a, &b, &c], &[], &cfg, 100);
        let mut known = Vec::new();
        for d in &first {
            match d {
                SeriesDelta::Reset { version, columns } => {
                    assert!(!columns.values.is_empty());
                    known.push(Some(*version));
                }
                other => panic!("expected Reset, got {other:?}"),
            }
        }
        // a: untouched; b: two appends; c: replaced wholesale with a series
        // of the same length (the counter-collision case replacement must
        // not alias as Unchanged or Appended).
        store.append(&b, 100, 9.0).unwrap();
        store.append(&b, 101, 9.5).unwrap();
        store.insert_series(c.clone(), TimeSeries::from_values(0, 1, &[7.0; 100]));
        let missing = id("missing");
        let ids = [&a, &b, &c, &missing];
        known.push(None);
        let second = store.snapshot_deltas(&ids, &known, &cfg, 102);
        assert!(matches!(second[0], SeriesDelta::Unchanged { .. }));
        match &second[1] {
            SeriesDelta::Appended { tail, .. } => {
                assert_eq!(tail.len(), 2);
                assert_eq!(tail[0].timestamp, 100);
                assert_eq!(tail[1].value, 9.5);
            }
            other => panic!("expected Appended, got {other:?}"),
        }
        assert!(matches!(second[2], SeriesDelta::Reset { .. }));
        assert!(matches!(second[3], SeriesDelta::Missing));

        // Store-wide expiry is a non-append mutation on every touched
        // series: the next delta for `a` must be a Reset.
        let known_a = match second[0] {
            SeriesDelta::Unchanged { version } => Some(version),
            _ => None,
        };
        store.expire_before(5);
        let third = store.snapshot_deltas(&[&a], &[known_a], &cfg, 102);
        assert!(matches!(third[0], SeriesDelta::Reset { .. }));
    }

    #[test]
    fn append_batch_matches_per_point_appends_and_keeps_stride() {
        let per_point = TsdbStore::new();
        let batched = TsdbStore::new();
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let ids: Vec<SeriesId> = (0..5).map(|s| id(&format!("s{s}"))).collect();
        let mut batch = Vec::new();
        for t in 0..50u64 {
            for (s, sid) in ids.iter().enumerate() {
                per_point.append(sid, t, (t + s as u64) as f64).unwrap();
                batch.push((sid.clone(), t, (t + s as u64) as f64));
            }
        }
        let out = batched.append_batch(&batch);
        assert_eq!(out.appended, batch.len());
        assert!(out.rejected.is_empty());
        let refs: Vec<&SeriesId> = ids.iter().collect();
        let first = batched.snapshot_deltas(&refs, &[], &cfg, 50);
        let known: Vec<Option<SeriesVersion>> = first
            .iter()
            .map(|d| match d {
                SeriesDelta::Reset { version, .. } => Some(*version),
                other => panic!("expected Reset, got {other:?}"),
            })
            .collect();
        for (sid, got) in ids.iter().zip(&known) {
            let series = per_point.get(sid).unwrap();
            assert_eq!(batched.get(sid).unwrap().points(), series.points());
            // Same counters as the per-point path: the batch kept the
            // append-only stride.
            assert_eq!(got.unwrap().version, series.version());
            assert_eq!(got.unwrap().appended, series.appended());
        }
        // A follow-up batch is observed as Appended, not Reset.
        let tail: Vec<(SeriesId, u64, f64)> =
            ids.iter().map(|sid| (sid.clone(), 50, 9.0)).collect();
        let out = batched.append_batch(&tail);
        assert_eq!(out.appended, ids.len());
        for (i, d) in batched
            .snapshot_deltas(&refs, &known, &cfg, 51)
            .into_iter()
            .enumerate()
        {
            match d {
                SeriesDelta::Appended { tail, .. } => assert_eq!(tail.len(), 1, "series {i}"),
                other => panic!("series {i}: expected Appended, got {other:?}"),
            }
        }
    }

    #[test]
    fn append_batch_reports_out_of_order_rejects() {
        let store = TsdbStore::new();
        let a = id("a");
        let batch = vec![
            (a.clone(), 10, 1.0),
            (a.clone(), 5, 2.0), // out of order: rejected
            (a.clone(), 10, 3.0), // equal timestamp: allowed
            (a.clone(), 11, 4.0),
        ];
        let out = store.append_batch(&batch);
        assert_eq!(out.appended, 3);
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(out.rejected[0].0, 1);
        assert!(matches!(
            out.rejected[0].1,
            TsdbError::OutOfOrderAppend { last: 10, attempted: 5 }
        ));
        assert_eq!(store.get(&a).unwrap().len(), 3);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let a = id("route");
        assert_eq!(TsdbStore::shard_of(&a), TsdbStore::shard_of(&a.clone()));
        assert!(TsdbStore::shard_of(&a) < TsdbStore::shard_count());
    }

    #[test]
    fn concurrent_appends() {
        let store = TsdbStore::shared();
        let mut handles = Vec::new();
        for worker in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let sid = id(&format!("t{worker}"));
                for t in 0..1000u64 {
                    store.append(&sid, t, t as f64).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.series_count(), 8);
        for worker in 0..8 {
            assert_eq!(store.get(&id(&format!("t{worker}"))).unwrap().len(), 1000);
        }
    }

    // --- compression + budget tests ---

    /// Appends the same workload to a default store and to one plain point
    /// vector per series, the model every read path must agree with.
    fn modelled_store(n_series: usize, n_points: u64) -> (TsdbStore, Vec<SeriesId>, Vec<Vec<DataPoint>>) {
        let store = TsdbStore::new();
        let (mut ids, mut models) = (Vec::new(), Vec::new());
        for s in 0..n_series {
            let sid = id(&format!("s{s}"));
            let model: Vec<DataPoint> = (0..n_points)
                .map(|t| DataPoint::new(t * 60, ((t + s as u64) as f64 * 0.01).sin()))
                .collect();
            for p in &model {
                store.append(&sid, p.timestamp, p.value).unwrap();
            }
            ids.push(sid);
            models.push(model);
        }
        (store, ids, models)
    }

    #[test]
    fn compressed_store_matches_uncompressed_reads() {
        let cfg = WindowConfig {
            historic: 100 * 60,
            analysis: 50 * 60,
            extended: 25 * 60,
            rerun_interval: 600,
        };
        let now = 290 * 60;
        // 300 points seal into blocks; 100 stay in the head.
        for (n_points, sealed) in [(300, true), (100, false)] {
            let (packed, ids, models) = modelled_store(6, n_points);
            let refs: Vec<&SeriesId> = ids.iter().collect();
            let want_windows: Vec<_> =
                models.iter().map(|m| windows_from_points(m, &cfg, now)).collect();
            assert_eq!(packed.snapshot_windows(&refs, &cfg, now), want_windows);
            for ((sid, model), want) in ids.iter().zip(&models).zip(&want_windows) {
                assert_eq!(&packed.windows(sid, &cfg, now), want);
                assert_eq!(&*packed.get(sid).unwrap().points(), &model[..]);
                assert_eq!(
                    packed.last_timestamp(sid).unwrap(),
                    model.last().map(|p| p.timestamp)
                );
            }
            let start = snapshot_bounds(&cfg, now).0;
            let want_deltas: Vec<SeriesDelta> = models
                .iter()
                .map(|m| {
                    let mut columns = SeriesColumns::default();
                    for p in m.iter().filter(|p| p.timestamp >= start) {
                        columns.times.push(p.timestamp);
                        columns.values.push(p.value);
                    }
                    let n = m.len() as u64;
                    let version = SeriesVersion { version: n, appended: n };
                    SeriesDelta::Reset { version, columns }
                })
                .collect();
            assert_eq!(packed.snapshot_deltas(&refs, &[], &cfg, now), want_deltas);
            // Sealed-block reads are tallied; head-only series have none.
            assert_eq!(packed.stats().blocks_decoded() > 0, sealed);
        }
    }

    #[test]
    fn window_and_snapshot_reads_share_the_shard_with_a_held_read_guard() {
        let cfg = WindowConfig {
            historic: 100 * 60,
            analysis: 50 * 60,
            extended: 25 * 60,
            rerun_interval: 600,
        };
        let (packed, ids, _) = modelled_store(1, 300);
        let sid = &ids[0];
        assert!(packed.with_series(sid, |s| s.sealed_block_count()).unwrap() > 0);
        let now = 290 * 60;
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // Thread A (this one) holds the shard's read guard until thread
            // B reports that all three read paths returned under it.
            let in_time = packed
                .with_series(sid, |_| {
                    scope.spawn(|| {
                        let known = match &packed.snapshot_deltas(&[sid], &[], &cfg, now)[0] {
                            SeriesDelta::Reset { version, .. } => Some(*version),
                            other => panic!("expected Reset, got {other:?}"),
                        };
                        packed.windows(sid, &cfg, now).unwrap();
                        assert!(packed.snapshot_windows(&[sid], &cfg, now)[0].is_ok());
                        let again = packed.snapshot_deltas(&[sid], &[known], &cfg, now);
                        assert!(matches!(again[0], SeriesDelta::Unchanged { .. }));
                        done.send(()).unwrap();
                    });
                    finished.recv_timeout(std::time::Duration::from_secs(2))
                })
                .unwrap();
            assert!(in_time.is_ok(), "a store read waited for another reader's guard");
        });
    }

    #[test]
    fn compressed_store_keeps_append_stride_across_seals() {
        let cfg = WindowConfig {
            historic: 100,
            analysis: 50,
            extended: 0,
            rerun_interval: 10,
        };
        let store = TsdbStore::with_config(StoreConfig {
            seal_limit: 8,
            shard_budget_bytes: None,
        });
        let a = id("a");
        for t in 0..20u64 {
            store.append(&a, t, t as f64).unwrap();
        }
        let first = store.snapshot_deltas(&[&a], &[], &cfg, 20);
        let known = match &first[0] {
            SeriesDelta::Reset { version, .. } => Some(*version),
            other => panic!("expected Reset, got {other:?}"),
        };
        // 12 appends crossing a seal boundary (head 4 -> seal at 8 twice).
        for t in 20..32u64 {
            store.append(&a, t, t as f64).unwrap();
        }
        match &store.snapshot_deltas(&[&a], &[known], &cfg, 32)[0] {
            SeriesDelta::Appended { tail, .. } => {
                let ts: Vec<u64> = tail.iter().map(|p| p.timestamp).collect();
                assert_eq!(ts, (20..32).collect::<Vec<u64>>());
            }
            other => panic!("expected Appended across seals, got {other:?}"),
        }
    }

    #[test]
    fn stats_track_compression_and_agree_with_recount() {
        // 100-point series never fill a block; 300-point ones seal two.
        let (plain, _, _) = modelled_store(4, 100);
        let (packed, _, _) = modelled_store(4, 300);
        let ps = plain.stats();
        let cs = packed.stats();
        assert_eq!((ps.points(), cs.points()), (4 * 100, 4 * 300));
        assert_eq!((ps.series(), cs.series()), (4, 4));
        assert_eq!((ps.sealed_blocks(), ps.head_points()), (0, 4 * 100));
        assert!((ps.bytes_per_point() - 16.0).abs() < 1e-9);
        assert!(
            cs.bytes_per_point() < 12.0,
            "expected compression below 12 B/pt, got {}",
            cs.bytes_per_point()
        );
        assert!(cs.sealed_blocks() > 0);
        // The incrementally maintained shard counter must equal a direct
        // recount of every series' resident bytes.
        for store in [&plain, &packed] {
            let stats = store.stats();
            for (i, shard_stats) in stats.shards.iter().enumerate() {
                let recount: usize = store
                    .series_ids()
                    .iter()
                    .filter(|sid| TsdbStore::shard_of(sid) == i)
                    .map(|sid| store.with_series(sid, |s| s.resident_bytes()).unwrap())
                    .sum();
                assert_eq!(shard_stats.resident_bytes, recount, "shard {i}");
            }
        }
    }

    #[test]
    fn budget_evicts_oldest_blocks_deterministically() {
        let config = StoreConfig {
            seal_limit: 16,
            shard_budget_bytes: Some(2_000),
        };
        let store = TsdbStore::with_config(config);
        // Everything lands in one series -> one shard; enough noisy data
        // that compressed blocks overflow 2 KB.
        let a = id("a");
        let mut state = 1u64;
        for t in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64;
            store.append(&a, t * 60, v).unwrap();
        }
        let stats = store.stats();
        assert!(stats.evicted_blocks() > 0, "budget should have evicted");
        assert_eq!(stats.evicted_points() % 16, 0, "whole blocks only");
        assert!(
            stats.max_shard_resident_bytes() <= 2_000,
            "shard still over budget: {} bytes",
            stats.max_shard_resident_bytes()
        );
        // Eviction drops the *oldest* data: the series now starts later.
        let series = store.get(&a).unwrap();
        assert!(series.first_timestamp().unwrap() > 0);
        assert_eq!(series.last_timestamp().unwrap(), 1_999 * 60);
        // Determinism: a second identical run evicts identically.
        let twin = TsdbStore::with_config(config);
        let mut state = 1u64;
        for t in 0..2_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64;
            twin.append(&a, t * 60, v).unwrap();
        }
        assert_eq!(store.get(&a).unwrap(), twin.get(&a).unwrap());
        assert_eq!(store.stats(), twin.stats());
    }

    #[test]
    fn eviction_is_observed_as_reset_by_delta_snapshots() {
        let cfg = WindowConfig {
            historic: 100_000,
            analysis: 50_000,
            extended: 0,
            rerun_interval: 600,
        };
        let config = StoreConfig {
            seal_limit: 16,
            shard_budget_bytes: Some(1_000),
        };
        let store = TsdbStore::with_config(config);
        let a = id("a");
        for t in 0..64u64 {
            store.append(&a, t * 60, (t as f64).sin()).unwrap();
        }
        let first = store.snapshot_deltas(&[&a], &[], &cfg, 64 * 60);
        let known = match &first[0] {
            SeriesDelta::Reset { version, .. } => Some(*version),
            other => panic!("expected Reset, got {other:?}"),
        };
        // Force evictions with noisy data that cannot compress under 1 KB.
        let mut state = 7u64;
        for t in 64..512u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            store.append(&a, t * 60, f64::from_bits(0x3FF0_0000_0000_0000 | (state >> 12))).unwrap();
        }
        assert!(store.stats().evicted_blocks() > 0);
        // The eviction bumped version without appended: never Appended.
        match &store.snapshot_deltas(&[&a], &[known], &cfg, 512 * 60)[0] {
            SeriesDelta::Reset { .. } => {}
            other => panic!("eviction must surface as Reset, got {other:?}"),
        }
    }

    #[test]
    fn insert_series_repacks_to_store_policy() {
        let store = TsdbStore::new();
        let a = id("a");
        store.insert_series(a.clone(), TimeSeries::from_values(0, 60, &vec![1.5; 400]));
        let series = store.get(&a).unwrap();
        assert!(series.sealed_block_count() > 0, "insert should compress");
        assert_eq!(series.len(), 400);
        let stats = store.stats();
        assert_eq!(stats.points(), 400);
        assert!(stats.resident_bytes() < 400 * 16);
    }

    #[test]
    fn default_store_seals() {
        let store = TsdbStore::new();
        assert_eq!(*store.config(), StoreConfig::compressed());
        assert_eq!(StoreConfig::default().seal_limit, StoreConfig::DEFAULT_SEAL_LIMIT);
        for t in 0..300u64 {
            store.append(&id("a"), t, 1.0).unwrap();
        }
        let stats = store.stats();
        assert_eq!((stats.sealed_blocks(), stats.head_points()), (2, 300 - 256));
        let series = store.get(&id("a")).unwrap();
        assert_eq!(stats.resident_bytes(), series.resident_bytes());
        assert_eq!(stats.max_shard_resident_bytes(), series.resident_bytes());
        assert!(stats.bytes_per_point() < 16.0 / 4.0, "constant data packs >4x");
        // A zero seal limit counts as one: every point is its own block.
        let tiny = TsdbStore::with_config(StoreConfig { seal_limit: 0, shard_budget_bytes: None });
        tiny.append(&id("a"), 0, 1.0).unwrap();
        assert_eq!((tiny.stats().sealed_blocks(), tiny.stats().head_points()), (1, 0));
    }
}
