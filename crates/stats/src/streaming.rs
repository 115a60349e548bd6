//! Incremental rolling statistics for the streaming scan engine.
//!
//! A scheduler round appends `k` points per series and slides the detection
//! windows forward; the engine needs each window segment's finite-sample
//! count (the data-quality gate's input) without an O(n) rescan per round,
//! and the window values themselves without a second resident copy.
//!
//! [`RollingStats`] keeps the retained samples in one ring and a
//! finite-sample count per block aligned to **absolute stream indices**:
//! block `b` always covers samples `[b·B, (b+1)·B)` of the series'
//! lifetime, regardless of how many samples have been evicted. Counts are
//! integers, so an incrementally maintained structure and a cold rebuild
//! over the same retained samples answer every query identically — the
//! property the round-over-round determinism of the scan engine rests on,
//! and what the proptests pin.
//!
//! Non-finite samples are retained (they occupy indices) but not counted;
//! `finite_count` reports how many samples in a segment are usable.

use std::collections::VecDeque;

/// Number of samples per sealed block. Chosen so per-append amortized work
/// is ~1 and partial-edge scans stay under a cache line burst.
const BLOCK: u64 = 64;

/// Value capacity a [`RollingStats`] holds for `len` retained samples: the
/// power of two one-by-one appends would have reached. An exact fit
/// reallocates to twice the run at the very next append, so bulk loads
/// ([`RollingStats::extend`], [`RollingStats::adopt`] and whoever allocates
/// the buffer `adopt` takes over) size to this instead.
pub fn retained_capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

/// Append/evict rolling statistics over a series' lifetime, queryable by
/// absolute sample index. See the module docs for the design contract.
#[derive(Debug, Clone, Default)]
pub struct RollingStats {
    /// Retained raw samples; `values[0]` has absolute index `first`.
    values: VecDeque<f64>,
    /// Absolute index of the first retained sample.
    first: u64,
    /// Finite-sample counts of fully retained, complete blocks;
    /// `blocks[0]` covers block number `first_block`.
    blocks: VecDeque<u32>,
    /// Block number of `blocks[0]`.
    first_block: u64,
}

impl RollingStats {
    /// Creates an empty structure whose first appended sample will have
    /// absolute index `start`.
    pub fn new(start: u64) -> Self {
        RollingStats {
            values: VecDeque::new(),
            first: start,
            blocks: VecDeque::new(),
            first_block: 0,
        }
    }

    /// Takes over `values` as the retained samples, the first at absolute
    /// index `start` — identical to [`Self::extend`]ing a new structure by
    /// them, without writing a single sample again: the vector's allocation
    /// becomes the ring (resized only when its capacity is not
    /// [`retained_capacity`] of its length).
    pub fn adopt(start: u64, mut values: Vec<f64>) -> Self {
        let capacity = retained_capacity(values.len());
        if values.capacity() < capacity {
            values.reserve_exact(capacity - values.len());
        } else {
            values.shrink_to(capacity);
        }
        let mut s = RollingStats::new(start);
        s.values = VecDeque::from(values);
        s.seal_completed(start);
        s
    }

    /// Absolute index of the first retained sample.
    pub fn first_index(&self) -> u64 {
        self.first
    }

    /// One past the absolute index of the last retained sample.
    pub fn end_index(&self) -> u64 {
        self.first + self.values.len() as u64
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends one sample at the next absolute index. O(1) amortized: a
    /// completed block is sealed by one count over its `BLOCK` samples.
    // fbd-lint::hot
    pub fn append(&mut self, value: f64) {
        let old_end = self.end_index();
        self.values.push_back(value);
        self.seal_completed(old_end);
    }

    /// Appends a run of samples at the next absolute indices, identical to
    /// [`Self::append`]ing them one by one: storage is reserved once for
    /// the whole run and the completed blocks are sealed afterwards.
    // fbd-lint::hot
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        let values = values.into_iter();
        let (old_len, old_end) = (self.values.len(), self.end_index());
        let needed = old_len + values.size_hint().0;
        if needed > self.values.capacity() {
            self.values.reserve_exact(retained_capacity(needed) - old_len);
        }
        self.values.extend(values);
        self.seal_completed(old_end);
    }

    /// Seals every block completed since the structure ended at absolute
    /// index `old_end`, if it is fully retained.
    fn seal_completed(&mut self, old_end: u64) {
        for block_no in old_end / BLOCK..self.end_index() / BLOCK {
            let start = block_no * BLOCK;
            if start >= self.first {
                if self.blocks.is_empty() {
                    self.first_block = block_no;
                }
                let finite = self.count_raw(start, start + BLOCK);
                self.blocks.push_back(finite as u32);
            }
        }
    }

    /// Evicts the `k` oldest retained samples (all of them if `k` exceeds
    /// the length). Sealed blocks that lose any sample are dropped; their
    /// surviving samples are counted raw by queries.
    pub fn evict_front(&mut self, k: usize) {
        let k = k.min(self.values.len());
        self.values.drain(..k);
        self.first += k as u64;
        while !self.blocks.is_empty() && self.first_block * BLOCK < self.first {
            self.blocks.pop_front();
            self.first_block += 1;
        }
    }

    /// Evicts every sample with absolute index below `abs`.
    pub fn evict_to(&mut self, abs: u64) {
        if abs > self.first {
            self.evict_front((abs - self.first) as usize);
        }
    }

    /// The retained samples at absolute indices `[a, b)` (clamped to the
    /// retained range), oldest first, as the two contiguous halves of the
    /// ring — so a reader copies a window out with two slice copies instead
    /// of one indexed read per sample.
    pub fn slices(&self, a: u64, b: u64) -> (&[f64], &[f64]) {
        let len = self.values.len();
        let lo = (a.saturating_sub(self.first) as usize).min(len);
        let hi = (b.saturating_sub(self.first) as usize).clamp(lo, len);
        let (front, back) = self.values.as_slices();
        let split = front.len();
        (
            &front[lo.min(split)..hi.min(split)],
            &back[lo.saturating_sub(split)..hi.saturating_sub(split)],
        )
    }

    /// Heap bytes held: the sample ring and the block counts, each at its
    /// capacity.
    pub fn resident_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.blocks.capacity() * std::mem::size_of::<u32>()
    }

    /// Finite-sample count over absolute index range `[a, b)`, clamped to
    /// the retained range: sealed counts for the whole blocks inside it,
    /// raw counts for its two edges. O(len/64 + edges).
    pub fn finite_count(&self, a: u64, b: u64) -> usize {
        let a = a.max(self.first);
        let b = b.min(self.end_index());
        let sealed_end = self.first_block + self.blocks.len() as u64;
        let lo = a.div_ceil(BLOCK).max(self.first_block);
        let hi = (b / BLOCK).min(sealed_end);
        if lo >= hi {
            return self.count_raw(a, b);
        }
        let sealed: usize = self
            .blocks
            .range((lo - self.first_block) as usize..(hi - self.first_block) as usize)
            .map(|&c| c as usize)
            .sum();
        self.count_raw(a, lo * BLOCK) + sealed + self.count_raw(hi * BLOCK, b)
    }

    /// Counts the finite retained samples in `[a, b)` one by one.
    fn count_raw(&self, a: u64, b: u64) -> usize {
        let (front, back) = self.slices(a, b);
        front.iter().chain(back).filter(|v| v.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> f64 {
        // Deterministic pseudo-noise, a NaN every 13th sample.
        if i % 13 == 5 {
            return f64::NAN;
        }
        1.0 + ((i * 2_654_435_761) % 1_000) as f64 / 10_000.0
    }

    fn cold(values: &[f64], start: u64) -> RollingStats {
        let mut s = RollingStats::new(start);
        s.extend(values.iter().copied());
        s
    }

    fn direct(values: &[f64]) -> usize {
        values.iter().filter(|v| v.is_finite()).count()
    }

    #[test]
    fn matches_cold_rebuild_after_appends_and_evictions() {
        let mut inc = RollingStats::new(0);
        let mut all: Vec<f64> = Vec::new();
        for i in 0..500 {
            inc.append(sample(i));
            all.push(sample(i));
        }
        inc.evict_front(137);
        for i in 500..700 {
            inc.append(sample(i));
            all.push(sample(i));
        }
        inc.evict_to(300);
        let cold = cold(&all[300..], 300);
        for (a, b) in [(300, 700), (301, 699), (350, 420), (0, 10_000), (640, 641)] {
            assert_eq!(inc.finite_count(a, b), cold.finite_count(a, b), "[{a}, {b})");
            let (lo, hi) = (a.clamp(300, 700) as usize, b.clamp(300, 700) as usize);
            assert_eq!(inc.finite_count(a, b), direct(&all[lo..hi]), "[{a}, {b})");
        }
    }

    #[test]
    fn non_finite_samples_are_counted_out() {
        let mut s = RollingStats::new(0);
        for i in 0..130 {
            if i % 10 == 3 {
                s.append(f64::NAN);
            } else {
                s.append(1.0);
            }
        }
        assert_eq!(s.finite_count(0, 130), 130 - 13);
        assert_eq!(s.finite_count(64, 128), 64 - 6);
        assert_eq!(s.finite_count(3, 4), 0);
    }

    #[test]
    fn eviction_clamps_and_tracks_indices() {
        let mut s = RollingStats::new(5);
        for i in 0..10 {
            s.append(i as f64);
        }
        assert_eq!((s.first_index(), s.end_index()), (5, 15));
        s.evict_front(100);
        assert!(s.is_empty());
        assert_eq!(s.first_index(), 15);
        s.append(3.0);
        assert_eq!(s.slices(15, 16), (&[3.0][..], &[][..]));
        assert_eq!(s.slices(14, 15), (&[][..], &[][..]));
    }

    #[test]
    fn adopt_keeps_the_buffer_and_the_power_of_two_capacity() {
        let vals: Vec<f64> = (0..900).map(sample).collect();
        // Sized by the loader: adopted as is, no reallocation.
        let mut sized = Vec::with_capacity(retained_capacity(900));
        sized.extend_from_slice(&vals);
        let at = sized.as_ptr();
        let s = RollingStats::adopt(0, sized);
        assert_eq!(s.values.capacity(), 1024);
        assert_eq!(s.values.as_slices().0.as_ptr(), at);
        // An exact fit would double on the next append; an oversized buffer
        // would strand memory: both are brought to the same capacity.
        for cap in [900, 5000] {
            let mut v = Vec::with_capacity(cap);
            v.extend_from_slice(&vals);
            let mut s = RollingStats::adopt(0, v);
            assert_eq!(s.values.capacity(), 1024, "from capacity {cap}");
            s.append(1.0);
            assert_eq!(s.values.capacity(), 1024);
        }
        assert_eq!(RollingStats::adopt(7, Vec::new()).values.capacity(), 0);
        let (front, back) = s.slices(10, 20);
        assert_eq!(back.len(), 0);
        assert!(front.iter().zip(&vals[10..20]).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(s.finite_count(0, 900), direct(&vals));
    }

    #[test]
    fn partial_block_eviction_falls_back_to_raw_edges() {
        let mut s = RollingStats::new(0);
        let vals: Vec<f64> = (0..256).map(sample).collect();
        for &v in &vals {
            s.append(v);
        }
        // Evict into the middle of the second sealed block.
        s.evict_front(70);
        assert_eq!(s.finite_count(70, 256), cold(&vals[70..], 70).finite_count(70, 256));
        assert_eq!(s.finite_count(70, 256), direct(&vals[70..]));
        assert_eq!(s.finite_count(70, 128), direct(&vals[70..128]));
    }
}
