//! Columnar point runs: a run-length-encoded timestamp column beside a
//! plain value column.
//!
//! Production series sample on a fixed cadence, so consecutive timestamps
//! form long arithmetic runs. [`TimeRuns`] stores one `(first index, first
//! timestamp, gap)` triple per run — a regular series is a single run
//! however long it grows — and answers the questions a scan asks of
//! timestamps (where does a window boundary fall, what is the smallest
//! positive gap) from the runs, without a timestamp per point. The worst
//! case, a gap that changes at every sample, is one 24-byte run per point.
//!
//! All arithmetic wraps, exactly as the block codec's does, so any `u64`
//! sequence — including the non-monotone garbage a corrupt block decodes
//! to — round-trips bit for bit and never overflows; the queries assume
//! what [`crate::TimeSeries::append`] enforces, non-decreasing timestamps,
//! and return some in-bounds answer otherwise.

use crate::types::Timestamp;
use std::collections::VecDeque;

/// One arithmetic run: the point at absolute index `i` in `[start, next
/// run's start)` has timestamp `t0 + (i - start) * gap`, and `gap` is also
/// the gap *into* `start` (what ended the previous run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    t0: Timestamp,
    gap: u64,
}

/// An append/trim timestamp column addressed by absolute point index:
/// indices are stable across [`TimeRuns::trim`], like
/// `fbd_stats::streaming::RollingStats`'s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeRuns {
    /// The front run starts at the first retained index.
    runs: VecDeque<Run>,
    /// One past the absolute index of the last point.
    end: u64,
    /// Timestamp of the last point pushed.
    last: Timestamp,
}

impl TimeRuns {
    /// An empty column whose first pushed point gets absolute index 0.
    pub fn new() -> Self {
        TimeRuns::default()
    }

    /// Absolute index of the first retained point.
    pub fn first_index(&self) -> u64 {
        self.runs.front().map_or(self.end, |r| r.start)
    }

    /// One past the absolute index of the last retained point.
    pub fn end_index(&self) -> u64 {
        self.end
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        (self.end - self.first_index()) as usize
    }

    /// Whether no point is retained.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Timestamp of the last retained point.
    pub fn last(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(self.last)
    }

    /// Timestamp of the retained point at absolute index `abs`.
    pub fn get(&self, abs: u64) -> Option<Timestamp> {
        if abs >= self.end {
            return None;
        }
        let k = self.runs.partition_point(|r| r.start <= abs).checked_sub(1)?;
        let run = self.runs[k];
        Some(run.t0.wrapping_add((abs - run.start).wrapping_mul(run.gap)))
    }

    /// Appends one timestamp at the next absolute index, extending the last
    /// run when the gap repeats.
    // fbd-lint::hot
    pub fn push(&mut self, t: Timestamp) {
        let gap = t.wrapping_sub(self.last);
        // The gap into the first retained point is never asked for, so a
        // lone point's run takes the gap of the second: a regular series
        // stays one run from its first point on.
        let lone = self.len() == 1;
        match self.runs.back_mut() {
            Some(run) if lone => run.gap = gap,
            Some(run) if run.gap == gap => {}
            _ => self.runs.push_back(Run {
                start: self.end,
                t0: t,
                gap: if self.runs.is_empty() { 0 } else { gap },
            }),
        }
        self.end += 1;
        self.last = t;
    }

    /// Appends `k` more points, each one last-run gap after the one before
    /// — what `k` [`TimeRuns::push`]es of those timestamps would build,
    /// without materialising any of them. Needs two retained points, so
    /// that the last run's gap is the gap between them.
    pub fn repeat_last_gap(&mut self, k: u64) {
        debug_assert!(k == 0 || self.len() >= 2, "no gap to repeat");
        if let Some(run) = self.runs.back() {
            self.end += k;
            self.last = self.last.wrapping_add(k.wrapping_mul(run.gap));
        }
    }

    /// Absolute index of the first retained point with timestamp `>= t`
    /// ([`TimeRuns::end_index`] when none) — `partition_point(|p|
    /// p.timestamp < t)` over the retained points.
    pub fn partition_point(&self, t: Timestamp) -> u64 {
        // Runs begin at non-decreasing timestamps, so every run before the
        // last one that begins below `t` lies wholly below it and every
        // later run at or above it.
        let k = self.runs.partition_point(|r| r.t0 < t);
        let Some(run) = k.checked_sub(1).map(|k| self.runs[k]) else {
            return self.first_index();
        };
        let len = self.runs.get(k).map_or(self.end, |next| next.start) - run.start;
        // ceil((t - t0) / gap) points of the run lie below `t`, all of them
        // in a run of duplicates; the subtraction wraps only on non-monotone
        // input.
        let below = t
            .wrapping_sub(run.t0)
            .wrapping_sub(1)
            .checked_div(run.gap)
            .map_or(len, |q| q.saturating_add(1).min(len));
        run.start + below
    }

    /// Smallest positive gap `t[j] - t[j-1]` over absolute indices `j` in
    /// `[lo, hi)` — the cadence estimate [`crate::window_coverage`] takes
    /// over the points `[lo - 1, hi)`. `None` when every gap in the range
    /// is zero or the range holds no gap (the first retained point has
    /// none).
    pub fn min_gap(&self, lo: u64, hi: u64) -> Option<u64> {
        let lo = lo.max(self.first_index().saturating_add(1));
        if lo >= hi {
            return None;
        }
        let from = self.runs.partition_point(|r| r.start <= lo).saturating_sub(1);
        self.runs
            .range(from..)
            .take_while(|r| r.start < hi)
            .map(|r| r.gap)
            .filter(|&gap| gap > 0)
            .min()
    }

    /// Drops every point with absolute index below `to`.
    pub fn trim(&mut self, to: u64) {
        if to >= self.end {
            self.runs.clear();
            return;
        }
        while self.runs.get(1).is_some_and(|next| next.start <= to) {
            self.runs.pop_front();
        }
        if let Some(front) = self.runs.front_mut() {
            if front.start < to {
                front.t0 = front.t0.wrapping_add((to - front.start).wrapping_mul(front.gap));
                front.start = to;
            }
        }
    }

    /// Heap bytes held: 24 per run at the run list's capacity.
    pub fn resident_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
    }
}

/// A columnar copy of a run of points: timestamps as [`TimeRuns`] (absolute
/// index 0 is the first point), values in point order, each written once —
/// sealed blocks decode straight into the two columns
/// ([`crate::SealedBlock::decode_columns`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesColumns {
    /// Timestamps, one per value.
    pub times: TimeRuns,
    /// Values, sized so `fbd_stats::streaming::RollingStats::adopt` can
    /// take the allocation over as it is.
    pub values: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(ts: &[Timestamp]) -> TimeRuns {
        let mut runs = TimeRuns::new();
        for &t in ts {
            runs.push(t);
        }
        runs
    }

    #[test]
    fn regular_cadence_is_one_run() {
        let ts: Vec<u64> = (0..900).map(|i| 1_000 + i * 60).collect();
        let mut runs = runs_of(&ts);
        assert_eq!(runs.runs.len(), 1);
        assert_eq!((runs.first_index(), runs.end_index(), runs.len()), (0, 900, 900));
        assert_eq!(runs.last(), Some(1_000 + 899 * 60));
        assert_eq!(runs.partition_point(0), 0);
        assert_eq!(runs.partition_point(1_000), 0);
        assert_eq!(runs.partition_point(1_001), 1);
        assert_eq!(runs.partition_point(1_060), 1);
        assert_eq!(runs.partition_point(u64::MAX), 900);
        assert_eq!(runs.min_gap(1, 900), Some(60));
        runs.trim(450);
        assert_eq!(runs.runs.len(), 1);
        assert_eq!((runs.first_index(), runs.len()), (450, 450));
        assert_eq!(runs.get(449), None);
        assert_eq!(runs.get(450), Some(ts[450]));
        assert_eq!(runs.partition_point(0), 450);
        assert_eq!(runs.partition_point(ts[451]), 451);
        // The gap into the first retained point is not a gap of the range.
        assert_eq!(runs.min_gap(450, 451), None);
        assert_eq!(runs.min_gap(450, 452), Some(60));
    }

    #[test]
    fn hostile_shapes_round_trip_and_partition() {
        // Duplicates, a gap that changes at every sample (one run per
        // point), a lone point, and timestamps at the top of the range.
        let cases: [&[u64]; 5] = [
            &[10, 10, 10, 20, 20, 50],
            &[0, 1, 3, 6, 10, 15, 21],
            &[42],
            &[u64::MAX - 2, u64::MAX - 1, u64::MAX, u64::MAX],
            &[],
        ];
        for ts in cases {
            let runs = runs_of(ts);
            assert_eq!(runs.len(), ts.len());
            assert_eq!(runs.last(), ts.last().copied());
            for (i, &t) in ts.iter().enumerate() {
                assert_eq!(runs.get(i as u64), Some(t), "{ts:?}[{i}]");
            }
            let probes = ts.iter().flat_map(|&t| [t.saturating_sub(1), t, t.saturating_add(1)]);
            for t in probes.chain([0, u64::MAX]) {
                let want = ts.partition_point(|&p| p < t) as u64;
                assert_eq!(runs.partition_point(t), want, "{ts:?} at {t}");
            }
            for lo in 0..=ts.len() {
                for hi in 0..=ts.len() {
                    let want = (lo.max(1)..hi).map(|j| ts[j] - ts[j - 1]).filter(|&g| g > 0).min();
                    assert_eq!(runs.min_gap(lo as u64, hi as u64), want, "{ts:?} [{lo}, {hi})");
                }
            }
        }
        assert_eq!(runs_of(&[0, 1, 3, 6, 10, 15, 21]).runs.len(), 6);
    }

    #[test]
    fn repeat_last_gap_equals_pushes() {
        let mut pushed = runs_of(&[5, 65]);
        let mut repeated = pushed.clone();
        for t in [125, 185, 245] {
            pushed.push(t);
        }
        repeated.repeat_last_gap(3);
        assert_eq!(pushed, repeated);
        repeated.repeat_last_gap(0);
        assert_eq!(pushed, repeated);
    }

    #[test]
    fn trim_to_empty_then_refill_keeps_absolute_indices() {
        let mut runs = runs_of(&[0, 60, 120, 500]);
        runs.trim(4);
        assert!(runs.is_empty());
        assert_eq!((runs.first_index(), runs.end_index(), runs.last()), (4, 4, None));
        runs.push(560);
        runs.push(620);
        assert_eq!((runs.first_index(), runs.end_index()), (4, 6));
        assert_eq!((runs.get(4), runs.get(5)), (Some(560), Some(620)));
        assert_eq!(runs.min_gap(0, 6), Some(60));
        // Trimming into the middle of the second of two runs.
        let mut runs = runs_of(&[0, 10, 20, 25, 30, 35]);
        runs.trim(4);
        assert_eq!(runs.runs.len(), 1);
        assert_eq!((runs.get(4), runs.get(5)), (Some(30), Some(35)));
        assert_eq!(runs.partition_point(31), 5);
    }

    #[test]
    fn non_monotone_input_round_trips_without_overflow() {
        let ts = [u64::MAX, 3, 0, u64::MAX / 2, 7, 7, 6];
        let mut runs = runs_of(&ts);
        for (i, &t) in ts.iter().enumerate() {
            assert_eq!(runs.get(i as u64), Some(t));
        }
        for t in [0, 1, 6, 7, u64::MAX] {
            let at = runs.partition_point(t);
            assert!(at <= runs.end_index());
        }
        let _ = runs.min_gap(0, 7);
        runs.trim(3);
        assert_eq!(runs.get(3), Some(u64::MAX / 2));
    }
}
