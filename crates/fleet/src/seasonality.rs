//! Seasonal load profiles (diurnal and weekly cycles).
//!
//! Production traffic exhibits strong daily and weekly seasonality; the
//! seasonality detector (§5.2.3) must remove it before judging regressions.
//! The profile is a smooth multiplicative factor around 1.0.

/// A multiplicative seasonal profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeasonalProfile {
    /// Amplitude of the diurnal cycle (e.g. 0.2 = ±20%).
    pub diurnal_amplitude: f64,
    /// Amplitude of the weekly cycle.
    pub weekly_amplitude: f64,
    /// Phase offset in seconds (shifts the daily peak).
    pub phase: u64,
}

/// Seconds per day.
pub const DAY: u64 = 86_400;
/// Seconds per week.
pub const WEEK: u64 = 7 * DAY;

impl SeasonalProfile {
    /// A flat profile (no seasonality).
    pub const FLAT: SeasonalProfile = SeasonalProfile {
        diurnal_amplitude: 0.0,
        weekly_amplitude: 0.0,
        phase: 0,
    };

    /// A typical interactive-service profile: ±15% daily, ±5% weekly.
    pub const TYPICAL: SeasonalProfile = SeasonalProfile {
        diurnal_amplitude: 0.15,
        weekly_amplitude: 0.05,
        phase: 0,
    };

    /// The multiplicative load factor at time `t` (seconds), ≥ 0.
    pub fn factor(&self, t: u64) -> f64 {
        let tp = t.wrapping_add(self.phase);
        let daily = (tp % DAY) as f64 / DAY as f64 * std::f64::consts::TAU;
        let weekly = (tp % WEEK) as f64 / WEEK as f64 * std::f64::consts::TAU;
        (1.0 + self.diurnal_amplitude * daily.sin() + self.weekly_amplitude * weekly.sin()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_is_one() {
        for t in [0, 1000, DAY, WEEK + 5] {
            assert_eq!(SeasonalProfile::FLAT.factor(t).to_bits(), 1.0_f64.to_bits());
        }
    }

    #[test]
    fn diurnal_cycle_repeats_daily() {
        let p = SeasonalProfile {
            diurnal_amplitude: 0.2,
            weekly_amplitude: 0.0,
            phase: 0,
        };
        for t in [123, 4567, 50_000] {
            assert!((p.factor(t) - p.factor(t + DAY)).abs() < 1e-9);
        }
    }

    #[test]
    fn amplitude_bounds_hold() {
        let p = SeasonalProfile::TYPICAL;
        for t in (0..WEEK).step_by(977) {
            let f = p.factor(t);
            assert!(f >= 1.0 - 0.15 - 0.05 - 1e-9);
            assert!(f <= 1.0 + 0.15 + 0.05 + 1e-9);
        }
    }

    #[test]
    fn mean_factor_is_about_one() {
        let p = SeasonalProfile::TYPICAL;
        let n = 7 * 24;
        let mean: f64 = (0..n).map(|i| p.factor(i * 3600)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn phase_shifts_the_peak() {
        let a = SeasonalProfile {
            diurnal_amplitude: 0.2,
            weekly_amplitude: 0.0,
            phase: 0,
        };
        let b = SeasonalProfile {
            diurnal_amplitude: 0.2,
            weekly_amplitude: 0.0,
            phase: DAY / 2,
        };
        // Half a day out of phase: peaks oppose.
        let t = DAY / 4;
        assert!((a.factor(t) - 1.2).abs() < 1e-6);
        assert!((b.factor(t) - 0.8).abs() < 1e-6);
    }
}
