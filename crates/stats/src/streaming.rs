//! Incremental rolling statistics for the streaming scan engine.
//!
//! A scheduler round appends `k` points per series and slides the detection
//! windows forward; the engine needs window-segment statistics (finite
//! counts, sums, sums of squares) without an O(n) rescan per round.
//!
//! ## Why not incremental mean-centered prefix sums
//!
//! [`crate::prefix::PrefixStats`] stores *mean-centered* prefix sums: every
//! entry depends on the global mean, so a single append shifts the mean and
//! rewrites every entry — an O(k) `append` that stays bit-identical to a
//! cold rebuild is impossible in that representation. [`RollingStats`]
//! instead freezes a centering *pivot* at the first finite sample and keeps
//! per-block partial sums aligned to **absolute stream indices**: block `b`
//! always covers samples `[b·B, (b+1)·B)` of the series' lifetime,
//! regardless of how many samples have been evicted. Because block
//! boundaries and the accumulation order inside each block are functions of
//! the absolute index alone, an incrementally maintained structure and a
//! cold rebuild over the same retained samples (with the same pivot)
//! produce bit-identical query results — the property the round-over-round
//! determinism of the scan engine rests on, and what the proptests pin.
//!
//! Non-finite samples are retained (they occupy indices) but excluded from
//! the sums; `finite_count` reports how many samples in a segment are
//! usable, which is what the pipeline's data-quality gate consumes.

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

#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    sum: f64,
    sum_sq: f64,
    finite: u32,
    /// Largest |v − pivot| over the finite samples (0 when none): lets a
    /// query bound the data scale without rescanning values.
    max_dev: f64,
}

/// Finite-sample moments of one absolute-index segment, pivot-centered.
/// Returned by [`RollingStats::segment_moments`]; the online refuters in
/// [`crate::online`] consume these instead of rescanning window values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentMoments {
    /// Number of finite samples in the segment.
    pub finite: usize,
    /// Σ (v − pivot) over the finite samples.
    pub sum: f64,
    /// Σ (v − pivot)² over the finite samples.
    pub sum_sq: f64,
    /// max |v − pivot| over the finite samples (0 when none).
    pub max_dev: f64,
}

impl SegmentMoments {
    /// Residual sum of squares of the segment around its own mean, clamped
    /// non-negative — the Gaussian segment cost, matching
    /// [`crate::prefix::PrefixStats::segment_cost`] up to rounding (the
    /// identity is centering-invariant in exact arithmetic).
    pub fn sse(&self) -> f64 {
        if self.finite == 0 {
            return 0.0;
        }
        (self.sum_sq - self.sum * self.sum / self.finite as f64).max(0.0)
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
    /// Sealed sums for fully retained, complete blocks; `blocks[0]` covers
    /// block number `first_block`.
    blocks: VecDeque<Block>,
    /// Block number of `blocks[0]`.
    first_block: u64,
    /// Centering pivot, frozen at the first finite sample ever appended.
    pivot: Option<f64>,
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
            pivot: None,
        }
    }

    /// Takes over `values` as the retained samples, the first at absolute
    /// index `start` — bit-identical to [`Self::extend`]ing a new structure
    /// by them, without writing a single sample again: the vector's
    /// allocation becomes the ring (resized only when its capacity is not
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
        s.absorb(0, start);
        s
    }

    /// Cold rebuild: equivalent to appending every sample of `values`
    /// starting at absolute index `start`, but with the pivot imposed.
    /// Ground truth for the incremental maintenance proptests.
    pub fn rebuild(values: &[f64], start: u64, pivot: Option<f64>) -> Self {
        let mut s = RollingStats::new(start);
        s.pivot = pivot;
        s.extend(values.iter().copied());
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

    /// The frozen centering pivot, if any finite sample has been seen.
    pub fn pivot(&self) -> Option<f64> {
        self.pivot
    }

    /// Appends one sample at the next absolute index. O(1) amortized: a
    /// completed block is sealed by one pass over its `BLOCK` samples.
    // fbd-lint::hot
    pub fn append(&mut self, value: f64) {
        if self.pivot.is_none() && value.is_finite() {
            self.pivot = Some(value);
        }
        let old_end = self.end_index();
        self.values.push_back(value);
        self.seal_completed(old_end);
    }

    /// Appends a run of samples at the next absolute indices, bit-identical
    /// to [`Self::append`]ing them one by one: storage is reserved once for
    /// the whole run and the completed blocks are sealed afterwards, each
    /// by the same left-to-right pass over its samples.
    // fbd-lint::hot
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        let values = values.into_iter();
        let (old_len, old_end) = (self.values.len(), self.end_index());
        let needed = old_len + values.size_hint().0;
        if needed > self.values.capacity() {
            self.values.reserve_exact(retained_capacity(needed) - old_len);
        }
        self.values.extend(values);
        self.absorb(old_len, old_end);
    }

    /// Folds the samples stored since the structure held `old_len` of them
    /// and ended at absolute index `old_end` into the pivot and the sealed
    /// blocks.
    fn absorb(&mut self, old_len: usize, old_end: u64) {
        if self.pivot.is_none() {
            // A block sealed before the first finite sample has nothing to
            // centre, so fixing the pivot once the run is stored is the
            // same as fixing it at that sample.
            self.pivot = self.values.range(old_len..).copied().find(|v| v.is_finite());
        }
        self.seal_completed(old_end);
    }

    /// Seals every block completed since the structure ended at absolute
    /// index `old_end`, if it is fully retained.
    fn seal_completed(&mut self, old_end: u64) {
        for block_no in old_end / BLOCK..self.end_index() / BLOCK {
            if block_no * BLOCK >= self.first {
                if self.blocks.is_empty() {
                    self.first_block = block_no;
                }
                self.blocks.push_back(self.seal(block_no * BLOCK));
            }
        }
    }

    /// Evicts the `k` oldest retained samples (all of them if `k` exceeds
    /// the length). Sealed blocks that lose any sample are dropped; their
    /// surviving samples are handled by the raw-edge path in queries.
    pub fn evict_front(&mut self, k: usize) {
        let k = k.min(self.values.len());
        self.values.drain(..k);
        self.first += k as u64;
        while let Some(_front) = self.blocks.front() {
            if self.first_block * BLOCK < self.first {
                self.blocks.pop_front();
                self.first_block += 1;
            } else {
                break;
            }
        }
    }

    /// Evicts every sample with absolute index below `abs`.
    pub fn evict_to(&mut self, abs: u64) {
        if abs > self.first {
            self.evict_front((abs - self.first) as usize);
        }
    }

    /// The retained sample at absolute index `abs`, if retained.
    pub fn get(&self, abs: u64) -> Option<f64> {
        if abs < self.first {
            return None;
        }
        self.values.get((abs - self.first) as usize).copied()
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

    /// Heap bytes held: the sample ring at its capacity plus the sealed
    /// block sums.
    pub fn resident_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.blocks.capacity() * std::mem::size_of::<Block>()
    }

    /// Finite-sample count over absolute index range `[a, b)`, clamped to
    /// the retained range. Integer-exact, so it is trivially identical
    /// between incremental and cold-rebuilt structures.
    pub fn finite_count(&self, a: u64, b: u64) -> usize {
        self.fold(a, b).finite as usize
    }

    /// Pivot-centered sum of finite samples over `[a, b)` (clamped).
    pub fn centered_sum(&self, a: u64, b: u64) -> f64 {
        self.fold(a, b).sum
    }

    /// Pivot-centered sum of squares of finite samples over `[a, b)`.
    pub fn centered_sum_sq(&self, a: u64, b: u64) -> f64 {
        self.fold(a, b).sum_sq
    }

    /// Mean of the finite samples in `[a, b)`, or `None` when none exist.
    pub fn mean(&self, a: u64, b: u64) -> Option<f64> {
        let f = self.fold(a, b);
        if f.finite == 0 {
            return None;
        }
        self.pivot.map(|p| p + f.sum / f64::from(f.finite))
    }

    /// All finite-sample moments of `[a, b)` (clamped to the retained
    /// range) in one traversal: count, pivot-centered sum and sum of
    /// squares, and the largest absolute deviation from the pivot. Sealed
    /// blocks make this O(len/64 + edges).
    pub fn segment_moments(&self, a: u64, b: u64) -> SegmentMoments {
        let f = self.fold(a, b);
        SegmentMoments {
            finite: f.finite as usize,
            sum: f.sum,
            sum_sq: f.sum_sq,
            max_dev: f.max_dev,
        }
    }

    /// Upper bound on max |v| over the finite samples of `[a, b)`:
    /// |pivot| + max |v − pivot|. Zero when no finite sample is retained in
    /// the range. Used to size guard bands against the data scale.
    pub fn max_abs_upper_bound(&self, a: u64, b: u64) -> f64 {
        let f = self.fold(a, b);
        if f.finite == 0 {
            return 0.0;
        }
        self.pivot.unwrap_or(0.0).abs() + f.max_dev
    }

    /// Accumulates a segment left-to-right: raw leading edge, sealed
    /// interior blocks, raw trailing edge. The traversal is a pure function
    /// of the absolute index range and retained bounds, which is what makes
    /// incremental and cold-rebuilt results bit-identical.
    fn fold(&self, a: u64, b: u64) -> Block {
        let pivot = self.pivot.unwrap_or(0.0);
        let a = a.max(self.first);
        let b = b.min(self.end_index());
        let mut acc = Block {
            sum: 0.0,
            sum_sq: 0.0,
            finite: 0,
            max_dev: 0.0,
        };
        let mut i = a;
        while i < b {
            if i.is_multiple_of(BLOCK) && i + BLOCK <= b {
                if let Some(block) = self.sealed(i / BLOCK) {
                    acc.sum += block.sum;
                    acc.sum_sq += block.sum_sq;
                    acc.finite += block.finite;
                    acc.max_dev = acc.max_dev.max(block.max_dev);
                    i += BLOCK;
                    continue;
                }
            }
            let Some(v) = self.get(i) else {
                break;
            };
            if v.is_finite() {
                let c = v - pivot;
                acc.sum += c;
                acc.sum_sq += c * c;
                acc.finite += 1;
                acc.max_dev = acc.max_dev.max(c.abs());
            }
            i += 1;
        }
        acc
    }

    /// The sealed sums for block `block_no`, when fully retained.
    fn sealed(&self, block_no: u64) -> Option<Block> {
        if block_no < self.first_block {
            return None;
        }
        self.blocks.get((block_no - self.first_block) as usize).copied()
    }

    /// Computes a complete block's sums by one left-to-right pass over its
    /// raw samples. `block_start` is the block's first absolute index.
    fn seal(&self, block_start: u64) -> Block {
        let pivot = self.pivot.unwrap_or(0.0);
        let mut acc = Block {
            sum: 0.0,
            sum_sq: 0.0,
            finite: 0,
            max_dev: 0.0,
        };
        let at = (block_start - self.first) as usize;
        for &v in self.values.range(at..at + BLOCK as usize) {
            if v.is_finite() {
                let c = v - pivot;
                acc.sum += c;
                acc.sum_sq += c * c;
                acc.finite += 1;
                acc.max_dev = acc.max_dev.max(c.abs());
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> f64 {
        // Deterministic pseudo-noise around a level shift.
        let base = if i < 200 { 1.0 } else { 1.5 };
        base + ((i * 2_654_435_761) % 1_000) as f64 / 10_000.0
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
        let cold = RollingStats::rebuild(&all[300..], 300, inc.pivot());
        for (a, b) in [(300, 700), (301, 699), (350, 420), (0, 10_000), (640, 641)] {
            assert_eq!(inc.finite_count(a, b), cold.finite_count(a, b));
            assert!(
                inc.centered_sum(a, b).to_bits() == cold.centered_sum(a, b).to_bits(),
                "sum mismatch on [{a}, {b})"
            );
            assert!(
                inc.centered_sum_sq(a, b).to_bits() == cold.centered_sum_sq(a, b).to_bits(),
                "sum_sq mismatch on [{a}, {b})"
            );
        }
    }

    #[test]
    fn mean_matches_direct_computation() {
        let mut s = RollingStats::new(10);
        let vals: Vec<f64> = (0..100).map(|i| sample(i)).collect();
        for &v in &vals {
            s.append(v);
        }
        let m = s.mean(10, 110).unwrap();
        let direct = s.pivot().unwrap()
            + vals.iter().map(|v| v - s.pivot().unwrap()).sum::<f64>() / vals.len() as f64;
        assert!((m - direct).abs() < 1e-12);
        assert_eq!(s.mean(10, 10), None);
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
        assert_eq!(s.centered_sum(0, 130), 0.0); // pivot == 1.0, all centered to 0
        assert!(s.centered_sum(0, 130).is_finite());
    }

    #[test]
    fn pivot_freezes_at_first_finite_sample() {
        let mut s = RollingStats::new(0);
        s.append(f64::NAN);
        assert_eq!(s.pivot(), None);
        s.append(42.0);
        assert_eq!(s.pivot(), Some(42.0));
        s.append(7.0);
        s.evict_front(3);
        assert_eq!(s.pivot(), Some(42.0)); // survives eviction
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
        assert_eq!(s.get(15), Some(3.0));
        assert_eq!(s.get(14), None);
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
        assert_eq!((front, back.len()), (&vals[10..20], 0));
    }

    #[test]
    fn partial_block_eviction_falls_back_to_raw_edges() {
        let mut s = RollingStats::new(0);
        let vals: Vec<f64> = (0..256).map(|i| sample(i)).collect();
        for &v in &vals {
            s.append(v);
        }
        // Evict into the middle of the second sealed block.
        s.evict_front(70);
        let cold = RollingStats::rebuild(&vals[70..], 70, s.pivot());
        assert_eq!(
            s.centered_sum(70, 256).to_bits(),
            cold.centered_sum(70, 256).to_bits()
        );
        assert_eq!(s.finite_count(70, 128), 58);
    }
}
