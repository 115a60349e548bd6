//! Data-quality fault injection.
//!
//! [`transient`](crate::transient) models *performance* disturbances — the
//! metrics move but the data is sound. This module models the other failure
//! mode production monitoring lives with: the *data itself* goes bad.
//! Collectors drop samples, report the same timestamp twice, emit NaN
//! bursts, freeze on a stale constant, or deliver whole windows late. The
//! detection pipeline's scan supervisor must survive all of it; the chaos
//! tests drive it with [`DataFault`] schedules.
//!
//! Faults are applied to a raw `(timestamp, value)` sample stream before it
//! is inserted into the store, mirroring where real collectors corrupt
//! data: upstream of the TSDB.

use rand::Rng;

/// The kinds of data-quality faults collectors exhibit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFaultKind {
    /// Samples inside the window are dropped with probability `intensity`.
    DroppedSamples,
    /// Samples inside the window are reported twice (same timestamp) with
    /// probability `intensity`.
    DuplicatedTimestamps,
    /// Sample values inside the window become NaN with probability
    /// `intensity`.
    NaNBurst,
    /// A stuck collector: every sample in the window repeats the value
    /// observed at the window start.
    StuckConstant,
    /// The window's samples arrive late: timestamps shift past the window
    /// end by its duration (a gap followed by a catch-up burst).
    LateWindow,
}

impl DataFaultKind {
    /// All kinds, for sweep tests and random schedules.
    pub const ALL: [DataFaultKind; 5] = [
        DataFaultKind::DroppedSamples,
        DataFaultKind::DuplicatedTimestamps,
        DataFaultKind::NaNBurst,
        DataFaultKind::StuckConstant,
        DataFaultKind::LateWindow,
    ];

    /// Whether the fault removes or invalidates data (as opposed to merely
    /// distorting it) — the kinds the scan supervisor is expected to
    /// surface as skipped/quarantined series when severe.
    pub fn is_destructive(&self) -> bool {
        matches!(
            self,
            DataFaultKind::DroppedSamples | DataFaultKind::NaNBurst | DataFaultKind::LateWindow
        )
    }
}

/// One scheduled data-quality fault on a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataFault {
    /// What goes wrong.
    pub kind: DataFaultKind,
    /// First affected timestamp (simulator seconds).
    pub start: u64,
    /// Length of the affected window in seconds.
    pub duration: u64,
    /// Fault probability per sample in `[0, 1]` (ignored by
    /// `StuckConstant` and `LateWindow`, which affect the whole window).
    pub intensity: f64,
}

impl DataFault {
    /// Whether the fault affects samples at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start && t < self.start.saturating_add(self.duration)
    }

    /// Applies the fault to a sample stream, returning the corrupted
    /// stream sorted by timestamp. `rng` drives the per-sample coin flips,
    /// so corruption is deterministic per seed.
    pub fn apply<R: Rng>(&self, rng: &mut R, samples: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let p = self.intensity.clamp(0.0, 1.0);
        let mut out: Vec<(u64, f64)> = Vec::with_capacity(samples.len());
        match self.kind {
            DataFaultKind::DroppedSamples => {
                for &(t, v) in samples {
                    if self.active_at(t) && rng.gen_bool(p) {
                        continue;
                    }
                    out.push((t, v));
                }
            }
            DataFaultKind::DuplicatedTimestamps => {
                for &(t, v) in samples {
                    out.push((t, v));
                    if self.active_at(t) && rng.gen_bool(p) {
                        out.push((t, v));
                    }
                }
            }
            DataFaultKind::NaNBurst => {
                for &(t, v) in samples {
                    if self.active_at(t) && rng.gen_bool(p) {
                        out.push((t, f64::NAN));
                    } else {
                        out.push((t, v));
                    }
                }
            }
            DataFaultKind::StuckConstant => {
                let stuck = samples
                    .iter()
                    .find(|(t, _)| self.active_at(*t))
                    .map(|&(_, v)| v);
                for &(t, v) in samples {
                    match stuck {
                        Some(s) if self.active_at(t) => out.push((t, s)),
                        _ => out.push((t, v)),
                    }
                }
            }
            DataFaultKind::LateWindow => {
                for &(t, v) in samples {
                    if self.active_at(t) {
                        out.push((t.saturating_add(self.duration), v));
                    } else {
                        out.push((t, v));
                    }
                }
            }
        }
        out.sort_by_key(|&(t, _)| t);
        out
    }
}

/// A schedule of data-quality faults affecting one series.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    faults: Vec<DataFault>,
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn add(&mut self, fault: DataFault) {
        self.faults.push(fault);
    }

    /// All scheduled faults.
    pub fn faults(&self) -> &[DataFault] {
        &self.faults
    }

    /// Applies every fault in schedule order to the sample stream.
    pub fn apply<R: Rng>(&self, rng: &mut R, samples: &[(u64, f64)]) -> Vec<(u64, f64)> {
        let mut out = samples.to_vec();
        for fault in &self.faults {
            out = fault.apply(rng, &out);
        }
        out
    }

    /// Populates the schedule with random faults over `[start, end)` at
    /// the given mean rate (faults per day), mirroring
    /// [`TransientSchedule::generate_random`](crate::transient::TransientSchedule::generate_random).
    /// Durations are log-uniform from one minute to eight hours.
    pub fn generate_random<R: Rng>(&mut self, rng: &mut R, start: u64, end: u64, faults_per_day: f64) {
        let days = (end.saturating_sub(start)) as f64 / 86_400.0;
        let count = (faults_per_day * days).round() as usize;
        for _ in 0..count {
            let kind = DataFaultKind::ALL[rng.gen_range(0..DataFaultKind::ALL.len())];
            let fault_start = rng.gen_range(start..end.max(start + 1));
            let log_lo = (60.0f64).ln();
            let log_hi = (8.0 * 3600.0f64).ln();
            let duration = rng.gen_range(log_lo..log_hi).exp() as u64;
            self.add(DataFault {
                kind,
                start: fault_start,
                duration: duration.max(1),
                intensity: rng.gen_range(0.5..1.0),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(n: u64) -> Vec<(u64, f64)> {
        (0..n).map(|t| (t * 10, 1.0 + t as f64 * 0.001)).collect()
    }

    #[test]
    fn dropped_samples_thin_the_window_only() {
        let mut rng = StdRng::seed_from_u64(1);
        let fault = DataFault {
            kind: DataFaultKind::DroppedSamples,
            start: 1_000,
            duration: 1_000,
            intensity: 1.0,
        };
        let out = fault.apply(&mut rng, &stream(300));
        assert!(out.iter().all(|&(t, _)| !(1_000..2_000).contains(&t)));
        // 100 samples fall in the window at 10s cadence.
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn duplicates_preserve_timestamp_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let fault = DataFault {
            kind: DataFaultKind::DuplicatedTimestamps,
            start: 0,
            duration: 3_000,
            intensity: 1.0,
        };
        let out = fault.apply(&mut rng, &stream(300));
        assert_eq!(out.len(), 600);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn nan_burst_hits_only_the_window() {
        let mut rng = StdRng::seed_from_u64(3);
        let fault = DataFault {
            kind: DataFaultKind::NaNBurst,
            start: 500,
            duration: 500,
            intensity: 1.0,
        };
        let out = fault.apply(&mut rng, &stream(200));
        for (t, v) in out {
            assert_eq!(v.is_nan(), (500..1_000).contains(&t), "t = {t}");
        }
    }

    #[test]
    fn stuck_constant_freezes_the_window() {
        let mut rng = StdRng::seed_from_u64(4);
        let fault = DataFault {
            kind: DataFaultKind::StuckConstant,
            start: 1_000,
            duration: 500,
            intensity: 1.0,
        };
        let input = stream(300);
        let stuck_value = input.iter().find(|(t, _)| *t >= 1_000).unwrap().1;
        let out = fault.apply(&mut rng, &input);
        for (i, &(t, v)) in out.iter().enumerate() {
            if (1_000..1_500).contains(&t) {
                assert_eq!(v.to_bits(), stuck_value.to_bits());
            } else {
                assert_eq!(v.to_bits(), input[i].1.to_bits());
            }
        }
    }

    #[test]
    fn late_window_shifts_past_the_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let fault = DataFault {
            kind: DataFaultKind::LateWindow,
            start: 1_000,
            duration: 500,
            intensity: 1.0,
        };
        let out = fault.apply(&mut rng, &stream(300));
        // The window [1000, 1500) is empty; its samples land in
        // [1500, 2000) interleaved with the on-time ones.
        assert!(out.iter().all(|&(t, _)| !(1_000..1_500).contains(&t)));
        assert_eq!(out.len(), 300);
        assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn intensity_scales_corruption() {
        let mut rng = StdRng::seed_from_u64(6);
        let fault = DataFault {
            kind: DataFaultKind::DroppedSamples,
            start: 0,
            duration: 10_000,
            intensity: 0.5,
        };
        let out = fault.apply(&mut rng, &stream(1_000));
        let dropped = 1_000 - out.len();
        assert!((300..700).contains(&dropped), "dropped = {dropped}");
    }

    #[test]
    fn schedule_applies_faults_in_order() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut schedule = FaultSchedule::new();
        schedule.add(DataFault {
            kind: DataFaultKind::NaNBurst,
            start: 0,
            duration: 500,
            intensity: 1.0,
        });
        schedule.add(DataFault {
            kind: DataFaultKind::DroppedSamples,
            start: 1_000,
            duration: 500,
            intensity: 1.0,
        });
        let out = schedule.apply(&mut rng, &stream(200));
        assert!(out
            .iter()
            .any(|&(t, v)| t < 500 && v.is_nan()));
        assert!(out.iter().all(|&(t, _)| !(1_000..1_500).contains(&t)));
    }

    #[test]
    fn random_schedule_respects_rate_and_range() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut schedule = FaultSchedule::new();
        schedule.generate_random(&mut rng, 0, 10 * 86_400, 2.0);
        assert_eq!(schedule.faults().len(), 20);
        for f in schedule.faults() {
            assert!(f.start < 10 * 86_400);
            assert!(f.duration >= 1 && f.duration <= 8 * 3_600 + 1);
            assert!((0.5..1.0).contains(&f.intensity));
        }
    }

    #[test]
    fn destructive_kinds_are_flagged() {
        assert!(DataFaultKind::DroppedSamples.is_destructive());
        assert!(DataFaultKind::NaNBurst.is_destructive());
        assert!(DataFaultKind::LateWindow.is_destructive());
        assert!(!DataFaultKind::StuckConstant.is_destructive());
        assert!(!DataFaultKind::DuplicatedTimestamps.is_destructive());
    }
}
