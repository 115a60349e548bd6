//! Declarative single-series generation.
//!
//! Most of the evaluation benches need thousands of series with controlled
//! structure: a base level, Gaussian noise, optional seasonality, and a set
//! of *events* — step regressions, gradual ramps, transient dips/spikes.
//! [`SeriesSpec`] declares the structure; [`SeriesSpec::generate`] renders
//! it deterministically from a seed.

use crate::noise::NormalSampler;
use crate::seasonality::SeasonalProfile;
use crate::{FleetError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An event perturbing a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A permanent mean shift starting at `at` — a true regression.
    Step {
        /// Index of the first affected sample.
        at: usize,
        /// Mean shift.
        delta: f64,
    },
    /// A gradual drift: the mean moves linearly from 0 extra at `start` to
    /// `delta` extra at `end`, then stays — a long-term regression (§5.3).
    Ramp {
        /// First affected index.
        start: usize,
        /// Index where the full delta is reached.
        end: usize,
        /// Final mean shift.
        delta: f64,
    },
    /// A transient excursion that recovers on its own — the Figure 1(c)
    /// false positive.
    Transient {
        /// First affected index.
        at: usize,
        /// Number of affected samples.
        duration: usize,
        /// Mean shift while active (negative = dip).
        delta: f64,
    },
}

/// Declarative description of one synthetic series.
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    /// Number of samples.
    pub len: usize,
    /// Seconds between samples (used for seasonality phase).
    pub interval: u64,
    /// Base mean.
    pub base: f64,
    /// Gaussian noise standard deviation.
    pub noise_std: f64,
    /// Optional multiplicative seasonality.
    pub seasonal: Option<SeasonalProfile>,
    /// Events, applied additively.
    pub events: Vec<Event>,
    /// Clamp range (e.g. `[0, 1]` for CPU fractions); `None` disables.
    pub clamp: Option<(f64, f64)>,
}

impl SeriesSpec {
    /// A flat noisy series with no events.
    pub fn flat(len: usize, base: f64, noise_std: f64) -> Self {
        SeriesSpec {
            len,
            interval: 60,
            base,
            noise_std,
            seasonal: None,
            events: Vec::new(),
            clamp: None,
        }
    }

    /// Adds an event (builder style).
    pub fn with_event(mut self, event: Event) -> Self {
        self.events.push(event);
        self
    }

    /// Adds seasonality (builder style).
    pub fn with_seasonality(mut self, profile: SeasonalProfile) -> Self {
        self.seasonal = Some(profile);
        self
    }

    /// Validates event indices against the length.
    fn validate(&self) -> Result<()> {
        if self.len == 0 {
            return Err(FleetError::InvalidConfig("series length is zero"));
        }
        for e in &self.events {
            let at = match *e {
                Event::Step { at, .. } => at,
                Event::Ramp { start, end, .. } => {
                    if end < start {
                        return Err(FleetError::InvalidConfig("ramp end before start"));
                    }
                    start
                }
                Event::Transient { at, .. } => at,
            };
            if at >= self.len {
                return Err(FleetError::EventOutOfRange { at, len: self.len });
            }
        }
        Ok(())
    }

    /// The deterministic mean (no noise) at sample `i` — useful for tests.
    pub fn mean_at(&self, i: usize) -> f64 {
        let mut mean = self.base;
        for e in &self.events {
            mean += match *e {
                Event::Step { at, delta } => {
                    if i >= at {
                        delta
                    } else {
                        0.0
                    }
                }
                Event::Ramp { start, end, delta } => {
                    if i < start {
                        0.0
                    } else if i >= end {
                        delta
                    } else {
                        delta * (i - start) as f64 / (end - start).max(1) as f64
                    }
                }
                Event::Transient {
                    at,
                    duration,
                    delta,
                } => {
                    if i >= at && i < at + duration {
                        delta
                    } else {
                        0.0
                    }
                }
            };
        }
        if let Some(p) = &self.seasonal {
            mean *= p.factor(i as u64 * self.interval);
        }
        mean
    }

    /// Renders the series with noise from the given seed.
    pub fn generate(&self, seed: u64) -> Result<Vec<f64>> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = NormalSampler::new();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let mut v = sampler.sample(&mut rng, self.mean_at(i), self.noise_std);
            if let Some((lo, hi)) = self.clamp {
                v = v.clamp(lo, hi);
            }
            out.push(v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_series_statistics() {
        let data = SeriesSpec::flat(10_000, 5.0, 0.1).generate(1).unwrap();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((mean - 5.0).abs() < 0.01);
    }

    #[test]
    fn step_changes_the_mean() {
        let spec = SeriesSpec::flat(2_000, 1.0, 0.05).with_event(Event::Step {
            at: 1_000,
            delta: 0.5,
        });
        let data = spec.generate(2).unwrap();
        let before: f64 = data[..1000].iter().sum::<f64>() / 1000.0;
        let after: f64 = data[1000..].iter().sum::<f64>() / 1000.0;
        assert!((after - before - 0.5).abs() < 0.02);
    }

    #[test]
    fn ramp_interpolates() {
        let spec = SeriesSpec::flat(100, 0.0, 0.0).with_event(Event::Ramp {
            start: 20,
            end: 40,
            delta: 1.0,
        });
        assert_eq!(spec.mean_at(19).to_bits(), 0.0_f64.to_bits());
        assert!((spec.mean_at(30) - 0.5).abs() < 1e-12);
        assert_eq!(spec.mean_at(40).to_bits(), 1.0_f64.to_bits());
        assert_eq!(spec.mean_at(99).to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn transient_recovers() {
        let spec = SeriesSpec::flat(100, 1.0, 0.0).with_event(Event::Transient {
            at: 10,
            duration: 5,
            delta: -0.5,
        });
        assert_eq!(spec.mean_at(9).to_bits(), 1.0_f64.to_bits());
        assert_eq!(spec.mean_at(12).to_bits(), 0.5_f64.to_bits());
        assert_eq!(spec.mean_at(15).to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn clamping_applies() {
        let mut spec = SeriesSpec::flat(1_000, 0.02, 0.2);
        spec.clamp = Some((0.0, 1.0));
        let data = spec.generate(3).unwrap();
        assert!(data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn determinism() {
        let spec = SeriesSpec::flat(100, 1.0, 0.3);
        assert_eq!(spec.generate(7).unwrap(), spec.generate(7).unwrap());
        assert_ne!(spec.generate(7).unwrap(), spec.generate(8).unwrap());
    }

    #[test]
    fn invalid_specs_rejected() {
        let spec = SeriesSpec::flat(0, 1.0, 0.1);
        assert!(spec.generate(1).is_err());
        let spec = SeriesSpec::flat(10, 1.0, 0.1).with_event(Event::Step { at: 10, delta: 1.0 });
        assert!(matches!(
            spec.generate(1),
            Err(FleetError::EventOutOfRange { .. })
        ));
        let spec = SeriesSpec::flat(10, 1.0, 0.1).with_event(Event::Ramp {
            start: 5,
            end: 3,
            delta: 1.0,
        });
        assert!(spec.generate(1).is_err());
    }

    #[test]
    fn seasonality_modulates_mean() {
        let spec = SeriesSpec {
            len: 24 * 7,
            interval: 3600,
            base: 100.0,
            noise_std: 0.0,
            seasonal: Some(SeasonalProfile::TYPICAL),
            events: vec![],
            clamp: None,
        };
        let data = spec.generate(1).unwrap();
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        let min = data.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 110.0);
        assert!(min < 90.0);
    }
}
