//! Cross-scan per-series artifact cache.
//!
//! The monitoring scheduler re-scans every series on a cadence, and between
//! rounds most series' windows are unchanged (no new samples arrived) or
//! merely shifted by a few points. The expensive per-series artifacts —
//! the ACF seasonality search and the STL decomposition — and the two
//! filter verdicts are pure functions of their inputs, so they can be
//! reused within and across rounds whenever the inputs are bit-identical.
//!
//! # Keying and invalidation
//!
//! Every cached artifact is keyed by a 64-bit content fingerprint of the
//! exact input slice (`f64::to_bits` of every sample plus the length,
//! mixed SplitMix-style) together with *all* parameters of the computation
//! (periods, thresholds, bucket counts — floats by `to_bits`). A lookup
//! hits only on exact key equality, and a store replaces the series' slot
//! for that artifact kind, so memory is bounded at one entry per artifact
//! per live series and stale values are evicted by the next differing scan
//! rather than by a clock.
//!
//! # Determinism
//!
//! A hit returns a value computed earlier by the same pure function on
//! bit-identical inputs, so scan output is unchanged by caching — with or
//! without hits, across thread counts, and across rounds. The map is a
//! `BTreeMap` (deterministic iteration, per the workspace hash-order
//! invariant) behind a `Mutex`, and per-series keys never interact, so
//! worker interleaving cannot influence values. Hit/miss counters are
//! telemetry only.

use crate::types::Regression;
use crate::Result;
use fbd_stats::acf::{self, Seasonality};
use fbd_stats::stl::{decompose, StlConfig, StlDecomposition};
use fbd_tsdb::SeriesId;
use fbd_sync::{LockDomain, OrderedMutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Content fingerprint of a sample slice: length plus every sample's bit
/// pattern, mixed through a SplitMix64-style avalanche and folded FNV-style.
/// Bit-exact inputs (and only those, up to 64-bit collisions) share a
/// fingerprint.
fn fingerprint(data: &[f64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (data.len() as u64);
    for v in data {
        let mut z = v.to_bits().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        h = (h ^ z).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Key of a cached seasonality search: data fingerprint, `min_period`,
/// `max_lag`, and the ACF threshold bits.
type SeasonalityKey = (u64, usize, usize, u64);
/// Key of a cached decomposition: data fingerprint and STL period.
type DecompositionKey = (u64, usize);

/// Key identifying a candidate regression for filter-verdict reuse: the
/// fingerprints of all three window regions plus every change field the
/// filters read. Two candidates with equal keys are bit-identical inputs to
/// the went-away and seasonality filters (up to 64-bit fingerprint
/// collisions on the window content).
pub type CandidateKey = (u64, u64, u64, usize, u64, u64, u64);

/// The [`CandidateKey`] of a candidate regression.
pub fn candidate_key(r: &Regression) -> CandidateKey {
    (
        fingerprint(r.windows.historic()),
        fingerprint(r.windows.analysis()),
        fingerprint(r.windows.extended()),
        r.change_index,
        r.change_time,
        r.mean_before.to_bits(),
        r.mean_after.to_bits(),
    )
}

/// The artifacts cached for one series — one replaceable slot per kind.
#[derive(Debug, Default, Clone)]
struct SeriesArtifacts {
    /// Round number of the last store into any slot; drives eviction.
    last_round: u64,
    seasonality: Option<(SeasonalityKey, Option<Seasonality>)>,
    decomposition: Option<(DecompositionKey, StlDecomposition)>,
    /// Memoized `keep` decisions of the went-away and seasonality filters
    /// for the series' last candidate. The filters are pure functions of
    /// the candidate (windows + change fields, all in the key), so on the
    /// scheduler cadence — where an unchanged watermark replays the same
    /// candidate round after round — the verdict is replayed too.
    went_away_keep: Option<(CandidateKey, bool)>,
    seasonality_keep: Option<(CandidateKey, bool)>,
}

/// Hit/miss telemetry for a [`ScanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Series entries dropped by the capacity bound.
    pub evicted: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-series cross-scan cache of seasonality and STL artifacts.
///
/// Owned by the pipeline so it persists across [`crate::scheduler`] rounds;
/// shared with the parallel detection workers by reference (the interior
/// `Mutex` makes it `Sync`). See the module docs for the keying,
/// invalidation, and determinism arguments.
#[derive(Debug)]
pub struct ScanCache {
    /// Ranked `scan-cache` (a leaf) in `LOCK_ORDER.manifest`: no other
    /// supervised lock may be acquired while this guard is live.
    inner: OrderedMutex<BTreeMap<SeriesId, SeriesArtifacts>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    /// Maximum retained series entries (0 disables the bound).
    capacity: usize,
    /// Monotone round counter; stores stamp entries with the current value.
    round: AtomicU64,
}

/// Default bound on retained series entries: comfortably above any single
/// round's working set while capping steady-state memory on long-lived
/// pipelines that churn through many distinct series.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

impl Default for ScanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ScanCache {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache retaining at most `capacity` series entries
    /// (0 disables the bound).
    pub fn with_capacity(capacity: usize) -> Self {
        ScanCache {
            inner: OrderedMutex::new(LockDomain::ScanCache, BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            capacity,
            round: AtomicU64::new(0),
        }
    }

    /// Advances the round counter and enforces the capacity bound.
    ///
    /// Called by the pipeline at the start of each scan round, outside the
    /// worker fan-out. Eviction happens only here — never inside a store —
    /// so the victim set is a pure function of which rounds touched which
    /// series, independent of worker interleaving: entries are dropped
    /// oldest round first, ties in `SeriesId` order, until at most
    /// `capacity` remain. Within a round the map may transiently exceed the
    /// bound by the number of newly seen series.
    pub fn note_round(&self) {
        self.round.fetch_add(1, Ordering::Relaxed);
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.inner.lock();
        let mut excess = guard.len().saturating_sub(self.capacity);
        while excess > 0 {
            let victim = guard
                .iter()
                .min_by(|(ida, a), (idb, b)| {
                    a.last_round.cmp(&b.last_round).then_with(|| ida.cmp(idb))
                })
                .map(|(id, _)| id.clone());
            let Some(id) = victim else {
                break;
            };
            guard.remove(&id);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            excess -= 1;
        }
    }

    /// The configured capacity bound (0 means unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Number of series with at least one cached artifact.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no series has cached artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Cached [`acf::find_seasonality`].
    pub fn seasonality(
        &self,
        series: &SeriesId,
        data: &[f64],
        min_period: usize,
        max_lag: usize,
        threshold: f64,
    ) -> Result<Option<Seasonality>> {
        let key = (fingerprint(data), min_period, max_lag, threshold.to_bits());
        if let Some(cached) = self.lookup(series, |a| {
            a.seasonality.as_ref().filter(|(k, _)| *k == key).map(|(_, v)| *v)
        }) {
            return Ok(cached);
        }
        let computed = acf::find_seasonality(data, min_period, max_lag, threshold)?;
        self.store(series, |a| a.seasonality = Some((key, computed)));
        Ok(computed)
    }

    /// Cached full STL decomposition at [`StlConfig::for_period`]`(period)`:
    /// the long-term detector takes its trend and the seasonality filter,
    /// later in the round, the seasonal and residual components of the same
    /// `(data, period)` — one slot, one STL run per series per round.
    pub fn decomposition(
        &self,
        series: &SeriesId,
        data: &[f64],
        period: usize,
    ) -> Result<StlDecomposition> {
        let key = (fingerprint(data), period);
        if let Some(cached) = self.lookup(series, |a| {
            a.decomposition
                .as_ref()
                .filter(|(k, _)| *k == key)
                .map(|(_, d)| d.clone())
        }) {
            return Ok(cached);
        }
        let computed = decompose(data, StlConfig::for_period(period))?;
        self.store(series, |a| a.decomposition = Some((key, computed.clone())));
        Ok(computed)
    }

    /// Memoized went-away `keep` decision for a candidate, or `None` on a
    /// key mismatch (the caller evaluates and stores).
    pub fn went_away_keep(&self, series: &SeriesId, key: CandidateKey) -> Option<bool> {
        self.lookup(series, |a| {
            a.went_away_keep.filter(|(k, _)| *k == key).map(|(_, keep)| keep)
        })
    }

    /// Stores a went-away `keep` decision for the candidate identified by
    /// `key`.
    pub fn store_went_away_keep(&self, series: &SeriesId, key: CandidateKey, keep: bool) {
        self.store(series, |a| a.went_away_keep = Some((key, keep)));
    }

    /// Memoized seasonality-filter `keep` decision for a candidate.
    pub fn seasonality_keep(&self, series: &SeriesId, key: CandidateKey) -> Option<bool> {
        self.lookup(series, |a| {
            a.seasonality_keep.filter(|(k, _)| *k == key).map(|(_, keep)| keep)
        })
    }

    /// Stores a seasonality-filter `keep` decision for the candidate
    /// identified by `key`.
    pub fn store_seasonality_keep(&self, series: &SeriesId, key: CandidateKey, keep: bool) {
        self.store(series, |a| a.seasonality_keep = Some((key, keep)));
    }

    /// One locked lookup; counts a hit or miss. Computation never happens
    /// under the lock.
    fn lookup<T>(&self, series: &SeriesId, get: impl Fn(&SeriesArtifacts) -> Option<T>) -> Option<T> {
        let found = self.inner.lock().get(series).and_then(get);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// One locked replace-on-mismatch store into the series' slot. Stamps
    /// the entry with the current round so eviction can order by recency.
    fn store(&self, series: &SeriesId, put: impl FnOnce(&mut SeriesArtifacts)) {
        let round = self.round.load(Ordering::Relaxed);
        let mut guard = self.inner.lock();
        let entry = guard.entry(series.clone()).or_default();
        entry.last_round = round;
        put(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbd_tsdb::MetricKind;

    fn sid(name: &str) -> SeriesId {
        SeriesId::new("svc", MetricKind::GCpu, name)
    }

    fn sine(n: usize, period: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 / period as f64 * std::f64::consts::TAU).sin())
            .collect()
    }

    #[test]
    fn fingerprint_sensitive_to_content_and_length() {
        let a = vec![1.0, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b[2] = 3.0000000001;
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..2]));
        // -0.0 and 0.0 differ bitwise and must not collide.
        assert_ne!(fingerprint(&[0.0]), fingerprint(&[-0.0]));
    }

    #[test]
    fn second_identical_call_hits_and_matches() {
        let cache = ScanCache::new();
        let data = sine(240, 24);
        let s = sid("a");
        let first = cache.seasonality(&s, &data, 2, 30, 0.4).unwrap();
        let second = cache.seasonality(&s, &data, 2, 30, 0.4).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, acf::find_seasonality(&data, 2, 30, 0.4).unwrap());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn changed_data_or_params_invalidate() {
        let cache = ScanCache::new();
        let s = sid("a");
        let data = sine(240, 24);
        cache.seasonality(&s, &data, 2, 30, 0.4).unwrap();
        // Different threshold: miss.
        cache.seasonality(&s, &data, 2, 30, 0.5).unwrap();
        // Appended data: miss (the slot now holds the new key).
        let mut longer = data.clone();
        longer.push(0.0);
        cache.seasonality(&s, &longer, 2, 30, 0.5).unwrap();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 3);
        // The latest key is the live one.
        cache.seasonality(&s, &longer, 2, 30, 0.5).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn trend_matches_uncached_paths() {
        let cache = ScanCache::new();
        let s = sid("t");
        let data = sine(240, 24);
        let cached = cache.decomposition(&s, &data, 24).unwrap();
        let direct = decompose(&data, StlConfig::for_period(24)).unwrap();
        assert_eq!(cached, direct);
        // Re-request: a hit, identical bits.
        let again = cache.decomposition(&s, &data, 24).unwrap().trend;
        for (c, d) in again.iter().zip(&direct.trend) {
            assert_eq!(c.to_bits(), d.to_bits());
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn series_slots_are_independent() {
        let cache = ScanCache::new();
        let data = sine(240, 24);
        cache.decomposition(&sid("a"), &data, 24).unwrap();
        cache.decomposition(&sid("b"), &data, 24).unwrap();
        // Same data, different series: each series misses once.
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_evicts_oldest_round_first() {
        let cache = ScanCache::with_capacity(2);
        let data = sine(240, 24);
        // Round 1: a and b. Round 2: c, plus a refresh of a.
        cache.note_round();
        cache.decomposition(&sid("a"), &data, 24).unwrap();
        cache.decomposition(&sid("b"), &data, 24).unwrap();
        cache.note_round();
        cache.decomposition(&sid("c"), &data, 24).unwrap();
        cache.decomposition(&sid("a"), &data, 24).unwrap();
        assert_eq!(cache.len(), 3); // Transient overshoot within the round.
        // Round 3 enforces the bound: b (round 1) is the oldest entry.
        cache.note_round();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evicted, 1);
        cache.decomposition(&sid("a"), &data, 24).unwrap();
        cache.decomposition(&sid("c"), &data, 24).unwrap();
        cache.decomposition(&sid("b"), &data, 24).unwrap();
        // a and c survived (hits); b was evicted (miss).
        assert_eq!(cache.stats().hits, 3); // a's round-2 hit + these two.
    }

    #[test]
    fn capacity_ties_break_in_series_id_order() {
        let cache = ScanCache::with_capacity(1);
        let data = sine(240, 24);
        cache.note_round();
        cache.decomposition(&sid("b"), &data, 24).unwrap();
        cache.decomposition(&sid("a"), &data, 24).unwrap();
        cache.decomposition(&sid("c"), &data, 24).unwrap();
        cache.note_round();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evicted, 2);
        // Same round stamps: the smallest SeriesIds go first, "c" survives.
        cache.decomposition(&sid("c"), &data, 24).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_disables_the_bound() {
        let cache = ScanCache::with_capacity(0);
        let data = sine(240, 24);
        for name in ["a", "b", "c", "d"] {
            cache.decomposition(&sid(name), &data, 24).unwrap();
            cache.note_round();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evicted, 0);
    }
}
