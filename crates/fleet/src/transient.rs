//! Transient production issues (§1, Figure 1(c)).
//!
//! "Server failures, maintenance operations, load spikes, software rolling
//! updates, canary tests, and traffic shifts … can last from seconds to
//! hours." These events perturb metrics without any code change; the
//! went-away detector (§5.2.2) must filter them out. Each issue has a time
//! window and an additive/multiplicative effect per metric dimension.

use rand::Rng;

/// The kinds of transient issues the paper enumerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// A server crashes and restarts: throughput dips, error rate spikes.
    ServerFailure,
    /// Planned maintenance drains part of the fleet.
    Maintenance,
    /// A sudden surge of requests.
    LoadSpike,
    /// A rolling software update cycles through servers.
    RollingUpdate,
    /// A canary test shifts a slice of traffic to new code.
    CanaryTest,
    /// Traffic is shifted between regions/clusters.
    TrafficShift,
}

impl TransientKind {
    /// All kinds, for sweep tests.
    pub const ALL: [TransientKind; 6] = [
        TransientKind::ServerFailure,
        TransientKind::Maintenance,
        TransientKind::LoadSpike,
        TransientKind::RollingUpdate,
        TransientKind::CanaryTest,
        TransientKind::TrafficShift,
    ];
}

/// A scheduled transient issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientIssue {
    /// What happened.
    pub kind: TransientKind,
    /// Start (simulator seconds).
    pub start: u64,
    /// Duration in seconds ("seconds to hours").
    pub duration: u64,
    /// Severity in `[0, 1]`; scales the effect.
    pub severity: f64,
}

impl TransientIssue {
    /// Whether the issue is active at time `t`.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.start && t < self.start + self.duration
    }

    /// Multiplicative effect on CPU-like metrics at time `t` (1.0 = none).
    pub fn cpu_factor(&self, t: u64) -> f64 {
        if !self.active_at(self.clamp_time(t)) {
            return 1.0;
        }
        match self.kind {
            // Fewer servers doing the same work -> higher CPU on survivors.
            TransientKind::ServerFailure => 1.0 + 0.3 * self.severity,
            TransientKind::Maintenance => 1.0 + 0.15 * self.severity,
            TransientKind::LoadSpike => 1.0 + 0.5 * self.severity,
            // Restarting servers run colder caches -> transient extra CPU.
            TransientKind::RollingUpdate => 1.0 + 0.2 * self.severity,
            TransientKind::CanaryTest => 1.0 + 0.1 * self.severity,
            TransientKind::TrafficShift => 1.0 - 0.2 * self.severity,
        }
    }

    /// Multiplicative effect on throughput at time `t` (1.0 = none).
    pub fn throughput_factor(&self, t: u64) -> f64 {
        if !self.active_at(self.clamp_time(t)) {
            return 1.0;
        }
        match self.kind {
            TransientKind::ServerFailure => 1.0 - 0.4 * self.severity,
            TransientKind::Maintenance => 1.0 - 0.2 * self.severity,
            TransientKind::LoadSpike => 1.0 + 0.6 * self.severity,
            TransientKind::RollingUpdate => 1.0 - 0.1 * self.severity,
            TransientKind::CanaryTest => 1.0,
            TransientKind::TrafficShift => 1.0 - 0.5 * self.severity,
        }
    }

    /// Additive effect on error rate at time `t`.
    pub fn error_rate_delta(&self, t: u64) -> f64 {
        if !self.active_at(self.clamp_time(t)) {
            return 0.0;
        }
        match self.kind {
            TransientKind::ServerFailure => 0.02 * self.severity,
            TransientKind::RollingUpdate => 0.005 * self.severity,
            TransientKind::CanaryTest => 0.002 * self.severity,
            _ => 0.0,
        }
    }

    fn clamp_time(&self, t: u64) -> u64 {
        t
    }
}

/// A schedule of transient issues affecting one service.
#[derive(Debug, Clone, Default)]
pub struct TransientSchedule {
    issues: Vec<TransientIssue>,
}

impl TransientSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an issue.
    pub fn add(&mut self, issue: TransientIssue) {
        self.issues.push(issue);
    }

    /// All scheduled issues.
    pub fn issues(&self) -> &[TransientIssue] {
        &self.issues
    }

    /// Combined CPU factor at time `t` (product over active issues).
    pub fn cpu_factor(&self, t: u64) -> f64 {
        self.issues.iter().map(|i| i.cpu_factor(t)).product()
    }

    /// Combined throughput factor at time `t`.
    pub fn throughput_factor(&self, t: u64) -> f64 {
        self.issues.iter().map(|i| i.throughput_factor(t)).product()
    }

    /// Combined error-rate delta at time `t`.
    pub fn error_rate_delta(&self, t: u64) -> f64 {
        self.issues.iter().map(|i| i.error_rate_delta(t)).sum()
    }

    /// Populates the schedule with random issues over `[start, end)` at the
    /// given mean rate (issues per day). Durations span seconds to hours.
    pub fn generate_random<R: Rng>(
        &mut self,
        rng: &mut R,
        start: u64,
        end: u64,
        issues_per_day: f64,
    ) {
        let days = (end.saturating_sub(start)) as f64 / 86_400.0;
        let count = (issues_per_day * days).round() as usize;
        for _ in 0..count {
            let kind = TransientKind::ALL[rng.gen_range(0..TransientKind::ALL.len())];
            let issue_start = rng.gen_range(start..end.max(start + 1));
            // Log-uniform duration from 30 seconds to 4 hours.
            let log_lo = (30.0f64).ln();
            let log_hi = (4.0 * 3600.0f64).ln();
            let duration = rng.gen_range(log_lo..log_hi).exp() as u64;
            self.add(TransientIssue {
                kind,
                start: issue_start,
                duration: duration.max(1),
                severity: rng.gen_range(0.3..1.0),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn active_window_is_half_open() {
        let i = TransientIssue {
            kind: TransientKind::LoadSpike,
            start: 100,
            duration: 50,
            severity: 1.0,
        };
        assert!(!i.active_at(99));
        assert!(i.active_at(100));
        assert!(i.active_at(149));
        assert!(!i.active_at(150));
    }

    #[test]
    fn effects_revert_after_issue() {
        let i = TransientIssue {
            kind: TransientKind::ServerFailure,
            start: 0,
            duration: 10,
            severity: 1.0,
        };
        assert!(i.cpu_factor(5) > 1.0);
        assert!(i.throughput_factor(5) < 1.0);
        assert!(i.error_rate_delta(5) > 0.0);
        assert_eq!(i.cpu_factor(20).to_bits(), 1.0_f64.to_bits());
        assert_eq!(i.throughput_factor(20).to_bits(), 1.0_f64.to_bits());
        assert_eq!(i.error_rate_delta(20).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn severity_scales_effects() {
        let mk = |s| TransientIssue {
            kind: TransientKind::LoadSpike,
            start: 0,
            duration: 10,
            severity: s,
        };
        assert!(mk(1.0).cpu_factor(0) > mk(0.3).cpu_factor(0));
    }

    #[test]
    fn schedule_combines_overlapping_issues() {
        let mut s = TransientSchedule::new();
        s.add(TransientIssue {
            kind: TransientKind::LoadSpike,
            start: 0,
            duration: 10,
            severity: 1.0,
        });
        s.add(TransientIssue {
            kind: TransientKind::ServerFailure,
            start: 5,
            duration: 10,
            severity: 1.0,
        });
        assert!((s.cpu_factor(7) - 1.5 * 1.3).abs() < 1e-12);
        assert_eq!(s.cpu_factor(100).to_bits(), 1.0_f64.to_bits());
    }

    #[test]
    fn random_schedule_respects_rate_and_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = TransientSchedule::new();
        s.generate_random(&mut rng, 0, 10 * 86_400, 3.0);
        assert_eq!(s.issues().len(), 30);
        for i in s.issues() {
            assert!(i.start < 10 * 86_400);
            assert!(i.duration >= 1 && i.duration <= 4 * 3600 + 1);
            assert!((0.3..1.0).contains(&i.severity));
        }
    }

    #[test]
    fn traffic_shift_lowers_cpu() {
        let i = TransientIssue {
            kind: TransientKind::TrafficShift,
            start: 0,
            duration: 10,
            severity: 1.0,
        };
        assert!(i.cpu_factor(0) < 1.0);
        assert!(i.throughput_factor(0) < 1.0);
    }
}
