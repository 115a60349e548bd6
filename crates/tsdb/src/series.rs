//! A single append-only time series.
//!
//! Storage is a run of sealed Gorilla-compressed blocks
//! ([`crate::block::SealedBlock`]) followed by a small mutable head of
//! uncompressed points. Appends always land in the head; when the head
//! reaches `seal_limit` points (by default
//! [`StoreConfig::DEFAULT_SEAL_LIMIT`]) it is compressed into one immutable
//! block. This is the only layout: a short series is simply all head.
//!
//! Sealing is a *representation* change, not a data change: it bumps
//! neither counter, so the streaming engine's append-stride proofs hold
//! across seals. Evicting or expiring sealed data bumps `version` only,
//! which snapshot readers observe as a reset.

use std::borrow::Cow;

use crate::scratch::ScratchPoints;
use fbd_stats::streaming::retained_capacity;

use crate::block::{SealedBlock, SUMMARY_BYTES};
use crate::columns::{SeriesColumns, TimeRuns};
use crate::store::StoreConfig;
use crate::types::{DataPoint, Timestamp};
use crate::window::points_in;
use crate::{Result, TsdbError};

/// An append-only, timestamp-ordered series of samples.
///
/// Two monotonic counters let readers detect *how* a series changed since a
/// prior observation without diffing points: `version` advances on every
/// data mutation, `appended` only on appends. When both counters advanced
/// by the same amount, the change was append-only and exactly that many
/// points were pushed onto the tail — the basis of the streaming scan
/// engine's O(k) delta snapshots. Sealing head points into a compressed
/// block advances neither counter.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    sealed: Vec<SealedBlock>,
    /// Total points across `sealed` (cached so `len` is O(1)).
    sealed_points: usize,
    /// Total compressed payload bytes across `sealed`.
    sealed_bytes: usize,
    head: Vec<DataPoint>,
    /// Head size that triggers sealing; at least 1.
    seal_limit: u32,
    version: u64,
    appended: u64,
}

/// Equality compares the stored points only: two series with identical data
/// are equal even if they arrived by different append/expire histories or
/// sit in different sealed/head representations.
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::with_seal_limit(StoreConfig::DEFAULT_SEAL_LIMIT)
    }
}

impl TimeSeries {
    /// Creates an empty series that seals every
    /// [`StoreConfig::DEFAULT_SEAL_LIMIT`] points.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates an empty series that seals its head into a compressed block
    /// every `seal_limit` points (a limit of 0 counts as 1).
    pub fn with_seal_limit(seal_limit: u32) -> Self {
        TimeSeries {
            sealed: Vec::new(),
            sealed_points: 0,
            sealed_bytes: 0,
            head: Vec::new(),
            seal_limit: seal_limit.max(1),
            version: 0,
            appended: 0,
        }
    }

    /// Builds a series from `(timestamp, value)` pairs; the pairs must be in
    /// non-decreasing timestamp order.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Timestamp, f64)>) -> Result<Self> {
        let mut s = TimeSeries::new();
        for (t, v) in pairs {
            s.append(t, v)?;
        }
        Ok(s)
    }

    /// Builds a series from values sampled at a fixed interval starting at
    /// `start`.
    pub fn from_values(start: Timestamp, interval: Timestamp, values: &[f64]) -> Self {
        let mut s = TimeSeries::new();
        s.head = values
            .iter()
            .enumerate()
            .map(|(i, &v)| DataPoint::new(start + i as Timestamp * interval, v))
            .collect();
        s.version = values.len() as u64;
        s.appended = s.version;
        s.seal_ready();
        s
    }

    /// Appends a sample; timestamps must be non-decreasing.
    pub fn append(&mut self, timestamp: Timestamp, value: f64) -> Result<()> {
        if let Some(last) = self.last_timestamp() {
            if timestamp < last {
                return Err(TsdbError::OutOfOrderAppend {
                    last,
                    attempted: timestamp,
                });
            }
        }
        self.head.push(DataPoint::new(timestamp, value));
        self.version = self.version.wrapping_add(1);
        self.appended = self.appended.wrapping_add(1);
        self.seal_ready();
        Ok(())
    }

    /// Compresses every full `seal_limit`-sized run of head points into a
    /// sealed block. Representation-only: counters are untouched.
    fn seal_ready(&mut self) {
        let limit = self.seal_limit as usize;
        let full = self.head.len() / limit * limit;
        for run in self.head[..full].chunks_exact(limit) {
            let block = SealedBlock::from_points(run);
            self.sealed_points += block.count() as usize;
            self.sealed_bytes += block.byte_len();
            self.sealed.push(block);
        }
        // On the append path the head is exactly `limit` long, so this
        // clears it while keeping its capacity for the next fill.
        self.head.drain(..full);
    }

    /// Changes the seal limit (a limit of 0 counts as 1), re-packing the
    /// stored points into blocks of the new size. Representation-only —
    /// the stored points and both counters are unchanged.
    pub fn set_seal_limit(&mut self, seal_limit: u32) {
        let seal_limit = seal_limit.max(1);
        if seal_limit == self.seal_limit {
            return;
        }
        if !self.sealed.is_empty() {
            let mut points = Vec::with_capacity(self.len());
            for block in &self.sealed {
                block.decode_into(&mut points);
            }
            points.extend_from_slice(&self.head);
            self.sealed.clear();
            self.sealed_points = 0;
            self.sealed_bytes = 0;
            self.head = points;
        }
        self.seal_limit = seal_limit;
        self.seal_ready();
    }

    /// The configured seal limit.
    pub fn seal_limit(&self) -> u32 {
        self.seal_limit
    }

    /// Monotonic mutation counter: advances on every append or expiry.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Marks this series as the replacement of one whose mutation counter
    /// had reached `old_version`, jumping `version` far enough past it that
    /// no observation of the old lineage can alias as `Unchanged` (version
    /// equal) or `Appended` (version delta equal to append delta): the new
    /// version delta exceeds any possible append delta.
    pub(crate) fn mark_replacement_of(&mut self, old_version: u64) {
        self.version = old_version
            .wrapping_add(self.appended)
            .wrapping_add(2)
            .max(self.version);
    }

    /// Monotonic append counter: advances only when a point is appended.
    ///
    /// `version - appended` (as observed deltas between two reads) tells a
    /// snapshotting reader whether anything other than appends happened.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.sealed_points + self.head.len()
    }

    /// Whether the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.sealed_points == 0 && self.head.is_empty()
    }

    /// All points in timestamp order. Borrows the head directly while no
    /// block is sealed; otherwise decodes into an owned vector — prefer
    /// [`TimeSeries::iter`], [`TimeSeries::range_into`], or
    /// [`TimeSeries::tail_to_vec`] on hot paths.
    pub fn points(&self) -> Cow<'_, [DataPoint]> {
        if self.sealed.is_empty() {
            return Cow::Borrowed(&self.head);
        }
        let mut out = Vec::with_capacity(self.len());
        for block in &self.sealed {
            block.decode_into(&mut out);
        }
        out.extend_from_slice(&self.head);
        Cow::Owned(out)
    }

    /// Iterates every point in timestamp order, decoding sealed blocks on
    /// the fly without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = DataPoint> + '_ {
        self.sealed
            .iter()
            .flat_map(SealedBlock::iter)
            .chain(self.head.iter().copied())
    }

    /// All values, in timestamp order, as a fresh allocation. Hot readers
    /// should prefer [`TimeSeries::iter`].
    pub fn values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.values_into(&mut out);
        out
    }

    /// Appends every value in timestamp order to `out`.
    pub fn values_into(&self, out: &mut Vec<f64>) {
        out.reserve(self.len());
        out.extend(self.iter().map(|p| p.value));
    }

    /// Timestamp of the first point.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.sealed
            .first()
            .map(SealedBlock::first_timestamp)
            .or_else(|| self.head.first().map(|p| p.timestamp))
    }

    /// Timestamp of the last point.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.head
            .last()
            .map(|p| p.timestamp)
            .or_else(|| self.sealed.last().map(SealedBlock::last_timestamp))
    }

    /// Points with timestamps in `[start, end)`. Errors when `start >= end`
    /// (see [`TimeSeries::range_to_vec`] for the non-failing variant).
    pub fn range(&self, start: Timestamp, end: Timestamp) -> Result<Vec<DataPoint>> {
        if start >= end {
            return Err(TsdbError::InvalidRange);
        }
        Ok(self.range_to_vec(start, end))
    }

    /// Points with timestamps in `[start, end)`; an inverted or empty range
    /// yields an empty vector.
    pub fn range_to_vec(&self, start: Timestamp, end: Timestamp) -> Vec<DataPoint> {
        let mut out = Vec::new();
        self.range_into(start, end, &mut out);
        out
    }

    /// The sealed blocks a `[start, end)` read decodes — the one statement
    /// of the block-run rule. Sealed blocks are never empty and sit in
    /// timestamp order, so the blocks holding any point of the range form
    /// one contiguous run: it starts at the first block whose last point
    /// reaches `start` and stops before the first block that begins at or
    /// past `end`. Equal timestamps may straddle a block boundary; both
    /// comparisons are on the side that keeps such a block in.
    fn range_blocks(&self, start: Timestamp, end: Timestamp) -> &[SealedBlock] {
        if start >= end {
            return &[];
        }
        let from = self.blocks_from(start);
        &from[..from.partition_point(|b| b.first_timestamp() < end)]
    }

    /// The sealed blocks holding any point at or after `start`: the
    /// unbounded-`end` half of the [`TimeSeries::range_blocks`] rule.
    pub(crate) fn blocks_from(&self, start: Timestamp) -> &[SealedBlock] {
        &self.sealed[self.sealed.partition_point(|b| b.last_timestamp() < start)..]
    }

    /// Appends the points with timestamps in `[start, end)` to `out`,
    /// decoding only the sealed blocks that overlap the range.
    // fbd-lint::hot
    pub fn range_into(&self, start: Timestamp, end: Timestamp, out: &mut Vec<DataPoint>) {
        let blocks = self.range_blocks(start, end);
        let head = points_in(&self.head, start, end);
        out.reserve(blocks.iter().map(|b| b.count() as usize).sum::<usize>() + head.len());
        for block in blocks {
            if block.first_timestamp() >= start && block.last_timestamp() < end {
                // Fully inside the range: bulk-decode.
                block.decode_into(out);
            } else {
                out.extend(
                    block
                        .iter()
                        .skip_while(|p| p.timestamp < start)
                        .take_while(|p| p.timestamp < end),
                );
            }
        }
        out.extend_from_slice(head);
    }

    /// Every point timestamped at or after `start`, as columns decoded
    /// straight from the sealed blocks: each value is written once, into a
    /// buffer already sized for `RollingStats::adopt`, and the timestamps
    /// only ever exist as runs. The copy a [`crate::SeriesDelta::Reset`]
    /// carries.
    // fbd-lint::hot
    pub fn columns_from(&self, start: Timestamp) -> SeriesColumns {
        let blocks = self.blocks_from(start);
        let head = &self.head[self.head.partition_point(|p| p.timestamp < start)..];
        let sealed: usize = blocks.iter().map(|b| b.count() as usize).sum();
        let mut times = TimeRuns::new();
        let mut values = Vec::with_capacity(retained_capacity(sealed + head.len()));
        // Only the first block can hold points before `start`.
        for block in blocks {
            block.decode_columns(start, &mut times, &mut values);
        }
        for p in head {
            times.push(p.timestamp);
            values.push(p.value);
        }
        SeriesColumns { times, values }
    }

    /// The sealed blocks a tail-`n` read decodes, and how many of their
    /// leading points precede the tail (always fewer than the first
    /// block holds) — the one statement of the walk-back rule. Empty while
    /// the head alone covers the tail.
    fn tail_blocks(&self, n: usize) -> (&[SealedBlock], usize) {
        let needed = n.min(self.len()).saturating_sub(self.head.len());
        let mut start_block = self.sealed.len();
        let mut covered = 0usize;
        while start_block > 0 && covered < needed {
            start_block -= 1;
            covered += self.sealed[start_block].count() as usize;
        }
        (&self.sealed[start_block..], covered - needed)
    }

    /// Appends the last `n` points (all points when `n >= len`) to `out`,
    /// decoding only the sealed blocks that overlap the tail.
    // fbd-lint::hot
    fn tail_into(&self, n: usize, out: &mut Vec<DataPoint>) {
        let (blocks, mut skip) = self.tail_blocks(n);
        out.reserve(n.min(self.len()));
        for block in blocks {
            out.extend(block.iter().skip(skip));
            skip = 0;
        }
        // The head's share: all of it once the tail reaches into sealed
        // blocks, else its last `n` points.
        out.extend_from_slice(&self.head[self.head.len().saturating_sub(n)..]);
    }

    /// The last `n` points (all points when `n >= len`) as a fresh vector.
    pub fn tail_to_vec(&self, n: usize) -> Vec<DataPoint> {
        let mut out = Vec::new();
        self.tail_into(n, &mut out);
        out
    }

    /// [`TimeSeries::tail_to_vec`] into a recycled [`ScratchPoints`]
    /// buffer — the allocation-free variant for the per-round
    /// snapshot-delta path, where a fresh tail copy per series per round
    /// would put the global allocator on the scan loop.
    pub fn tail_scratch(&self, n: usize) -> ScratchPoints {
        let mut out = ScratchPoints::with_capacity(0);
        self.tail_into(n, &mut out);
        out
    }

    /// [`TimeSeries::range_to_vec`] into a recycled [`ScratchPoints`]
    /// buffer — the allocation-free variant for reset copies on the
    /// snapshot-delta path.
    pub fn range_scratch(&self, start: Timestamp, end: Timestamp) -> ScratchPoints {
        let mut out = ScratchPoints::with_capacity(0);
        self.range_into(start, end, &mut out);
        out
    }

    /// Values with timestamps in `[start, end)`.
    pub fn values_in(&self, start: Timestamp, end: Timestamp) -> Result<Vec<f64>> {
        Ok(self.range(start, end)?.iter().map(|p| p.value).collect())
    }

    /// Bytes resident for this series under the accounting model used by
    /// shard budgets: 16 bytes per uncompressed head point, the compressed
    /// payload of every sealed block, plus [`SUMMARY_BYTES`] for the
    /// header stored beside each block. Container slack (vector
    /// capacity beyond length, block bookkeeping) is deliberately excluded
    /// so the number is stable across reallocation strategies.
    pub fn resident_bytes(&self) -> usize {
        self.head.len() * std::mem::size_of::<DataPoint>()
            + self.sealed_bytes
            + self.sealed.len() * SUMMARY_BYTES
    }

    /// Number of sealed (compressed) blocks.
    pub fn sealed_block_count(&self) -> usize {
        self.sealed.len()
    }

    /// The sealed blocks, oldest first. Read-only: callers may decode or
    /// inspect headers but never mutate sealed history.
    pub fn sealed_blocks(&self) -> &[SealedBlock] {
        &self.sealed
    }

    /// Swaps sealed block `idx` for `block`, counters untouched. Test hook
    /// for the corrupt-block contracts (see [`SealedBlock::with_payload`]):
    /// production blocks only ever come from sealing the head.
    #[doc(hidden)]
    pub fn replace_sealed_block(&mut self, idx: usize, block: SealedBlock) {
        self.sealed_bytes = self.sealed_bytes - self.sealed[idx].byte_len() + block.byte_len();
        self.sealed[idx] = block;
    }

    /// The uncompressed head points (newest data, not yet sealed).
    pub fn head(&self) -> &[DataPoint] {
        &self.head
    }

    /// Number of sealed blocks a `[start, end)` range read decodes,
    /// answered from block headers alone.
    pub fn overlapping_block_count(&self, start: Timestamp, end: Timestamp) -> u64 {
        self.range_blocks(start, end).len() as u64
    }

    /// Number of sealed blocks a tail-`n` read decodes — zero while the
    /// head still covers the tail.
    pub fn tail_block_count(&self, n: usize) -> u64 {
        self.tail_blocks(n).0.len() as u64
    }

    /// Total compressed payload bytes across sealed blocks.
    pub fn sealed_bytes(&self) -> usize {
        self.sealed_bytes
    }

    /// Number of points currently in the uncompressed head.
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// First timestamp of the oldest sealed block, if any — the eviction
    /// candidate key used by store budget enforcement.
    pub(crate) fn front_sealed_first_timestamp(&self) -> Option<Timestamp> {
        self.sealed.first().map(SealedBlock::first_timestamp)
    }

    /// Drops the oldest sealed block, returning `(points, bytes)` freed.
    /// `bytes` is the resident-byte delta — compressed payload plus the
    /// block's [`SUMMARY_BYTES`] — so shard counters stay consistent with
    /// [`TimeSeries::resident_bytes`]. A non-append mutation: bumps
    /// `version` so snapshot readers observe a reset. Never touches the
    /// head.
    pub(crate) fn evict_front_block(&mut self) -> Option<(usize, usize)> {
        if self.sealed.is_empty() {
            return None;
        }
        let block = self.sealed.remove(0);
        let points = block.count() as usize;
        let payload = block.byte_len();
        self.sealed_points -= points;
        self.sealed_bytes -= payload;
        self.version = self.version.wrapping_add(1);
        Some((points, payload + SUMMARY_BYTES))
    }

    /// Drops all points older than `cutoff` (exclusive). Returns how many
    /// points were removed. Whole sealed blocks are dropped without
    /// decoding; at most one straddling block is re-encoded.
    pub fn expire_before(&mut self, cutoff: Timestamp) -> usize {
        let mut removed = 0usize;
        while let Some(front) = self.sealed.first() {
            if front.last_timestamp() >= cutoff {
                break;
            }
            removed += front.count() as usize;
            self.sealed_points -= front.count() as usize;
            self.sealed_bytes -= front.byte_len();
            self.sealed.remove(0);
        }
        if let Some(front) = self.sealed.first() {
            if front.first_timestamp() < cutoff {
                // Straddling block: keep the suffix at or past the cutoff.
                let decoded = front.to_points();
                let keep_from = decoded.partition_point(|p| p.timestamp < cutoff);
                let replacement = SealedBlock::from_points(&decoded[keep_from..]);
                removed += keep_from;
                self.sealed_points -= front.count() as usize;
                self.sealed_bytes -= front.byte_len();
                self.sealed_points += replacement.count() as usize;
                self.sealed_bytes += replacement.byte_len();
                self.sealed[0] = replacement;
            }
        }
        let keep_from = self.head.partition_point(|p| p.timestamp < cutoff);
        removed += self.head.drain(..keep_from).count();
        if removed > 0 {
            // A non-append mutation: bump `version` but not `appended`, so
            // version-delta != append-delta flags the change to snapshots.
            self.version = self.version.wrapping_add(1);
        }
        removed
    }

    /// Downsamples by averaging points into buckets of `bucket` seconds
    /// aligned to the first timestamp. Returns a new series with one point
    /// per non-empty bucket, timestamped at the bucket start.
    pub fn downsample(&self, bucket: Timestamp) -> Result<TimeSeries> {
        if bucket == 0 {
            return Err(TsdbError::InvalidRange);
        }
        let Some(start) = self.first_timestamp() else {
            return Ok(TimeSeries::new());
        };
        let mut out = TimeSeries::new();
        let mut bucket_start = start;
        let mut sum = 0.0;
        let mut count = 0usize;
        for p in self.iter() {
            while p.timestamp >= bucket_start + bucket {
                if count > 0 {
                    out.append(bucket_start, sum / count as f64)?;
                    sum = 0.0;
                    count = 0;
                }
                bucket_start += bucket;
            }
            sum += p.value;
            count += 1;
        }
        if count > 0 {
            out.append(bucket_start, sum / count as f64)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_query() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.append(i * 10, i as f64).unwrap();
        }
        assert_eq!(s.len(), 10);
        let r = s.range(20, 50).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].value, 2.0);
        assert_eq!(s.values_in(0, 1000).unwrap().len(), 10);
    }

    #[test]
    fn rejects_out_of_order() {
        let mut s = TimeSeries::new();
        s.append(100, 1.0).unwrap();
        assert!(matches!(
            s.append(50, 2.0),
            Err(TsdbError::OutOfOrderAppend { .. })
        ));
        // Equal timestamps are allowed (multiple servers reporting at once).
        assert!(s.append(100, 3.0).is_ok());
    }

    #[test]
    fn range_validation() {
        let s = TimeSeries::from_values(0, 1, &[1.0, 2.0]);
        assert!(matches!(s.range(5, 5), Err(TsdbError::InvalidRange)));
        assert!(matches!(s.range(6, 5), Err(TsdbError::InvalidRange)));
    }

    #[test]
    fn range_is_half_open() {
        let s = TimeSeries::from_values(0, 10, &[1.0, 2.0, 3.0]);
        let r = s.range(0, 20).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn expire_removes_old_points() {
        let mut s = TimeSeries::from_values(0, 1, &[1.0, 2.0, 3.0, 4.0]);
        let removed = s.expire_before(2);
        assert_eq!(removed, 2);
        assert_eq!(s.first_timestamp(), Some(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn downsample_averages_buckets() {
        let s = TimeSeries::from_values(0, 1, &[1.0, 3.0, 5.0, 7.0]);
        let d = s.downsample(2).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.points()[0].value, 2.0);
        assert_eq!(d.points()[1].value, 6.0);
    }

    #[test]
    fn downsample_skips_empty_buckets() {
        let s = TimeSeries::from_pairs([(0, 1.0), (1, 1.0), (10, 5.0)]).unwrap();
        let d = s.downsample(2).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.points()[1].timestamp, 10);
    }

    #[test]
    fn downsample_zero_bucket_errors() {
        let s = TimeSeries::from_values(0, 1, &[1.0]);
        assert!(s.downsample(0).is_err());
    }

    #[test]
    fn version_counters_track_mutations() {
        let mut s = TimeSeries::new();
        assert_eq!((s.version(), s.appended()), (0, 0));
        s.append(1, 1.0).unwrap();
        s.append(2, 2.0).unwrap();
        assert_eq!((s.version(), s.appended()), (2, 2));
        // Expiry that removes nothing does not bump the version.
        assert_eq!(s.expire_before(0), 0);
        assert_eq!((s.version(), s.appended()), (2, 2));
        // Expiry that removes points bumps version but not appended.
        assert_eq!(s.expire_before(2), 1);
        assert_eq!((s.version(), s.appended()), (3, 2));
        // A rejected append leaves both counters untouched.
        assert!(s.append(0, 9.0).is_err());
        assert_eq!((s.version(), s.appended()), (3, 2));
    }

    #[test]
    fn from_values_counts_as_appends() {
        let s = TimeSeries::from_values(0, 1, &[1.0, 2.0, 3.0]);
        assert_eq!((s.version(), s.appended()), (3, 3));
    }

    #[test]
    fn equality_ignores_counters() {
        let a = TimeSeries::from_pairs([(1, 1.0), (2, 2.0)]).unwrap();
        let mut c = TimeSeries::from_values(0, 1, &[0.0, 1.0, 2.0]);
        c.expire_before(1);
        // Same points, different append/expire histories (and counters).
        assert_ne!((a.version(), a.appended()), (c.version(), c.appended()));
        assert_eq!(a, c);
    }

    #[test]
    fn from_pairs_roundtrip() {
        let s = TimeSeries::from_pairs([(5, 1.5), (6, 2.5)]).unwrap();
        assert_eq!(s.values(), vec![1.5, 2.5]);
        assert_eq!(s.first_timestamp(), Some(5));
        assert_eq!(s.last_timestamp(), Some(6));
    }

    // --- compressed-representation tests ---

    /// Appends `n` points under the given seal limit and asserts every read
    /// path agrees bit-for-bit with the plain point vector appended.
    fn assert_repr_parity(n: u64, seal_limit: u32) {
        let model: Vec<DataPoint> =
            (0..n).map(|i| DataPoint::new(i * 60, (i as f64 * 0.1).sin() + 1.0)).collect();
        let mut packed = TimeSeries::with_seal_limit(seal_limit);
        for p in &model {
            packed.append(p.timestamp, p.value).unwrap();
        }
        assert_eq!(packed.len(), model.len());
        assert_eq!(
            (packed.version(), packed.appended()),
            (n, n),
            "sealing must not touch the counters"
        );
        assert_eq!(packed.first_timestamp(), model.first().map(|p| p.timestamp));
        assert_eq!(packed.last_timestamp(), model.last().map(|p| p.timestamp));
        assert_eq!(&*packed.points(), &model[..]);
        assert!(packed.iter().eq(model.iter().copied()));
        assert_eq!(packed.values(), model.iter().map(|p| p.value).collect::<Vec<_>>());
        let (lo, hi) = (n * 60 / 4, n * 60 * 3 / 4);
        if lo < hi {
            let want: Vec<DataPoint> =
                model.iter().filter(|p| p.timestamp >= lo && p.timestamp < hi).copied().collect();
            assert_eq!(packed.range_to_vec(lo, hi), want);
        }
        for k in [0, 1, n as usize / 2, n as usize, n as usize + 7] {
            assert_eq!(packed.tail_to_vec(k), &model[model.len() - k.min(model.len())..], "tail {k}");
        }
    }

    #[test]
    fn compressed_matches_uncompressed_across_limits() {
        for limit in [1, 2, 3, 16, 100, 1000] {
            assert_repr_parity(50, limit);
        }
        assert_repr_parity(0, 16);
        assert_repr_parity(1, 16);
    }

    #[test]
    fn sealing_happens_at_the_limit() {
        let mut s = TimeSeries::with_seal_limit(10);
        for i in 0..25 {
            s.append(i * 60, 1.0).unwrap();
        }
        assert_eq!(s.sealed_block_count(), 2);
        assert_eq!(s.head_len(), 5);
        assert_eq!(s.len(), 25);
        assert!(matches!(s.points(), Cow::Owned(_)), "sealed points are decoded");
        assert!(s.sealed_bytes() > 0);
    }

    #[test]
    fn uncompressed_points_borrows() {
        let s = TimeSeries::from_values(0, 60, &[1.0, 2.0]);
        assert!(matches!(s.points(), Cow::Borrowed(_)));
        assert_eq!((s.sealed_block_count(), s.head_len()), (0, 2));
    }

    #[test]
    fn every_constructor_seals_at_the_default_limit_and_zero_counts_as_one() {
        let limit = StoreConfig::DEFAULT_SEAL_LIMIT;
        let values: Vec<f64> = (0..300).map(|i| i as f64).collect();
        let pairs = values.iter().enumerate().map(|(i, &v)| (i as Timestamp, v));
        for s in [
            TimeSeries::from_values(0, 1, &values),
            TimeSeries::from_pairs(pairs).unwrap(),
        ] {
            assert_eq!(s.seal_limit(), limit);
            assert_eq!((s.sealed_block_count(), s.head_len()), (2, 300 - 2 * limit as usize));
            assert_eq!(s.values(), values);
        }
        assert_eq!(TimeSeries::new().seal_limit(), limit);
        assert_eq!(TimeSeries::default().seal_limit(), limit);
        let mut s = TimeSeries::with_seal_limit(0);
        assert_eq!(s.seal_limit(), 1);
        s.append(0, 1.0).unwrap();
        assert_eq!((s.sealed_block_count(), s.head_len()), (1, 0));
        s.set_seal_limit(4);
        s.set_seal_limit(0);
        assert_eq!(s.seal_limit(), 1);
    }

    #[test]
    fn set_seal_limit_repacks_without_touching_counters() {
        let mut s = TimeSeries::from_values(0, 60, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let before = (s.version(), s.appended());
        s.set_seal_limit(2);
        assert_eq!(s.sealed_block_count(), 2);
        assert_eq!(s.head_len(), 1);
        assert_eq!((s.version(), s.appended()), before);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // A larger limit decodes the blocks back into one head.
        s.set_seal_limit(8);
        assert_eq!(s.sealed_block_count(), 0);
        assert_eq!(s.head_len(), 5);
        assert_eq!((s.version(), s.appended()), before);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // A smaller one re-packs from scratch.
        s.set_seal_limit(3);
        assert_eq!((s.sealed_block_count(), s.head_len()), (1, 2));
        assert_eq!((s.version(), s.appended()), before);
        assert_eq!(s.values(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn expire_drops_whole_blocks_and_splits_straddlers() {
        let mut s = TimeSeries::with_seal_limit(4);
        for i in 0..12 {
            s.append(i * 10, i as f64).unwrap();
        }
        // Blocks: [0..40), [40..80), [80..120); head empty.
        let removed = s.expire_before(50);
        assert_eq!(removed, 5);
        assert_eq!(s.first_timestamp(), Some(50));
        assert_eq!(s.len(), 7);
        assert_eq!(
            s.values(),
            vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
        );
    }

    #[test]
    fn expire_bumps_version_once_for_compressed() {
        let mut s = TimeSeries::with_seal_limit(4);
        for i in 0..8 {
            s.append(i, 0.0).unwrap();
        }
        let v = s.version();
        assert_eq!(s.expire_before(3), 3);
        assert_eq!(s.version(), v.wrapping_add(1));
        assert_eq!(s.appended(), 8);
    }

    #[test]
    fn evict_front_block_frees_and_resets() {
        let mut s = TimeSeries::with_seal_limit(4);
        for i in 0..10 {
            s.append(i * 10, i as f64).unwrap();
        }
        let before_bytes = s.resident_bytes();
        let v = s.version();
        let (points, bytes) = s.evict_front_block().unwrap();
        assert_eq!(points, 4);
        assert!(bytes > 0);
        assert_eq!(s.len(), 6);
        assert_eq!(s.resident_bytes(), before_bytes - bytes);
        assert_eq!(s.version(), v.wrapping_add(1), "eviction is a reset");
        assert_eq!(s.first_timestamp(), Some(40));
        // Head untouched.
        assert_eq!(s.head_len(), 2);
    }

    #[test]
    fn evict_on_pure_head_is_none() {
        let mut s = TimeSeries::from_values(0, 1, &[1.0, 2.0]);
        assert!(s.evict_front_block().is_none());
    }

    #[test]
    fn resident_bytes_shrinks_when_sealing() {
        let mut packed = TimeSeries::with_seal_limit(64);
        for i in 0..640 {
            packed.append(i * 60, 2.5).unwrap();
            if i < 63 {
                // Until the first seal every point costs its plain 16 bytes.
                assert_eq!(packed.resident_bytes(), (i as usize + 1) * 16);
            }
        }
        let plain = 640 * std::mem::size_of::<DataPoint>();
        assert!(
            packed.resident_bytes() < plain / 4,
            "constant data should compress >4x: {} vs {plain}",
            packed.resident_bytes(),
        );
    }

    #[test]
    fn resident_bytes_pins_the_accounting_formula() {
        // The formula every consumer (shard counters, budget eviction,
        // both benches' bytes_per_point) must agree on:
        //   head_points * 16 + sealed payload + sealed_blocks * SUMMARY_BYTES
        let mut s = TimeSeries::with_seal_limit(16);
        for i in 0..70u64 {
            s.append(i * 60, (i as f64).sin()).unwrap();
        }
        assert_eq!(s.sealed_block_count(), 4);
        assert_eq!(s.head_len(), 6);
        assert_eq!(
            s.resident_bytes(),
            s.head_len() * std::mem::size_of::<DataPoint>()
                + s.sealed_bytes()
                + s.sealed_block_count() * SUMMARY_BYTES
        );
        // Evicting a block frees exactly its payload plus its header.
        let front_payload = s.sealed_blocks()[0].byte_len();
        let before = s.resident_bytes();
        let (_, freed) = s.evict_front_block().unwrap();
        assert_eq!(freed, front_payload + SUMMARY_BYTES);
        assert_eq!(s.resident_bytes(), before - freed);
    }

    #[test]
    fn summaries_expose_sealed_blocks_without_decode() {
        let mut s = TimeSeries::with_seal_limit(8);
        for i in 0..20u64 {
            s.append(i * 60, i as f64).unwrap();
        }
        let blocks = s.sealed_blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].count(), 8);
        assert_eq!(blocks[0].first_timestamp(), 0);
        assert_eq!(blocks[0].last_timestamp(), 7 * 60);
        assert_eq!(blocks[1].first_timestamp(), 8 * 60);
        assert_eq!(s.head().len(), 4);
        assert_eq!(s.head()[0].timestamp, 16 * 60);
    }

    #[test]
    fn tail_to_vec_spans_blocks() {
        let mut s = TimeSeries::with_seal_limit(3);
        for i in 0..10 {
            s.append(i, i as f64).unwrap();
        }
        // head has 1 point; asking for 5 spans two sealed blocks.
        let tail = s.tail_to_vec(5);
        assert_eq!(
            tail.iter().map(|p| p.timestamp).collect::<Vec<_>>(),
            vec![5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn block_count_helpers_mirror_decode_paths() {
        let mut s = TimeSeries::with_seal_limit(4);
        for i in 0..18u64 {
            s.append(i * 10, i as f64).unwrap();
        }
        // Blocks: [0..30], [40..70], [80..110], [120..150]; head [160, 170].
        assert_eq!(s.sealed_block_count(), 4);
        assert_eq!(s.head_len(), 2);
        // Range counts mirror range_into's skip/break rules.
        assert_eq!(s.overlapping_block_count(0, 180), 4);
        assert_eq!(s.overlapping_block_count(45, 85), 2);
        assert_eq!(s.overlapping_block_count(160, 180), 0);
        assert_eq!(s.overlapping_block_count(50, 50), 0);
        // Tail counts mirror tail_scratch's walk-back: 0 while the head
        // covers the tail, then whole blocks.
        assert_eq!(s.tail_block_count(2), 0);
        assert_eq!(s.tail_block_count(3), 1);
        assert_eq!(s.tail_block_count(7), 2);
        assert_eq!(s.tail_block_count(100), 4);
    }

    #[test]
    fn block_runs_match_brute_force_across_shared_boundary_timestamps() {
        // Equal timestamps are legal appends, so adjacent blocks may share
        // a boundary timestamp (and one timestamp may fill a whole block).
        let mut s = TimeSeries::with_seal_limit(3);
        let stamps = [0u64, 10, 10, 10, 10, 20, 20, 20, 20, 20, 30, 30, 40, 50];
        for (i, &t) in stamps.iter().enumerate() {
            s.append(t, i as f64).unwrap();
        }
        assert_eq!((s.sealed_block_count(), s.head_len()), (4, 2));
        let all = s.points().into_owned();
        // Two blocks here start at 20, so a block is identified by its
        // first timestamp together with its last.
        let span = |b: &SealedBlock| (b.first_timestamp(), b.last_timestamp());
        let spans = |blocks: &[SealedBlock]| blocks.iter().map(span).collect::<Vec<_>>();
        for start in (0..=55).step_by(5) {
            for end in (0..=55).step_by(5) {
                // A block is read iff it is neither wholly before `start`
                // nor wholly at or past `end`, judged on its decoded points.
                let brute: Vec<(Timestamp, Timestamp)> = s
                    .sealed_blocks()
                    .iter()
                    .filter(|b| {
                        let pts = b.to_points();
                        start < end
                            && pts.iter().any(|p| p.timestamp >= start)
                            && pts.iter().any(|p| p.timestamp < end)
                    })
                    .map(span)
                    .collect();
                assert_eq!(spans(s.range_blocks(start, end)), brute, "[{start}, {end})");
                let expected: Vec<DataPoint> = all
                    .iter()
                    .filter(|p| p.timestamp >= start && p.timestamp < end)
                    .copied()
                    .collect();
                assert_eq!(s.range_to_vec(start, end), expected, "[{start}, {end})");
            }
        }
        for n in 0..=stamps.len() + 2 {
            let want = &all[all.len() - n.min(all.len())..];
            assert_eq!(s.tail_to_vec(n), want, "tail {n}");
            // The run is the shortest block suffix covering the tail's
            // sealed share; `skip` is what that suffix holds in excess.
            let sealed_share = want.len().saturating_sub(s.head_len());
            let (blocks, skip) = s.tail_blocks(n);
            let held: usize = blocks.iter().map(|b| b.count() as usize).sum();
            assert_eq!(held, sealed_share + skip, "tail {n}");
            assert!(blocks.first().map_or(skip == 0, |b| skip < b.count() as usize), "tail {n}");
            let first = s.sealed_block_count() - blocks.len();
            assert_eq!(spans(blocks), spans(&s.sealed_blocks()[first..]), "tail {n}");
        }
    }

    #[test]
    fn nan_survives_seal_roundtrip() {
        let mut s = TimeSeries::with_seal_limit(2);
        s.append(0, f64::NAN).unwrap();
        s.append(1, -0.0).unwrap();
        s.append(2, 0.0).unwrap();
        let vals = s.values();
        assert!(vals[0].is_nan());
        assert_eq!(vals[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(vals[2].to_bits(), 0.0f64.to_bits());
    }
}
