//! Open-loop scheduling: operations are due at fixed times whatever the
//! system does, and each is timed from when it was due, so the wait a stall
//! imposes on later operations is counted.

use std::time::{Duration, Instant};

/// A fixed-period schedule: operation `k` is due `k × period` after the
/// start. Due times never depend on when earlier operations finished.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period_ns: u64,
    next: u64,
}

impl OpenLoop {
    pub fn new(period: Duration) -> Self {
        OpenLoop {
            period_ns: period.as_nanos() as u64,
            next: 0,
        }
    }

    /// Due time of the next operation, nanoseconds since the start.
    pub fn next_due(&mut self) -> u64 {
        let due = self.next * self.period_ns;
        self.next += 1;
        due
    }
}

/// Sleeps until `due_ns` after `epoch` when that is still ahead; returns
/// how late the caller already was (0 when it had to wait).
pub fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    let now_ns = epoch.elapsed().as_nanos() as u64;
    if now_ns < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
    }
    // Oversleeping is lateness too: measure after the wait.
    (epoch.elapsed().as_nanos() as u64).saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the schedule against a simulated clock: operation `k` takes
    /// `service(k)` ns once started, and starts at its due time or when the
    /// previous one finished, whichever is later. Returns per operation
    /// `(due, latency from due)`.
    fn simulate(period_ns: u64, ops: u64, service: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        let mut schedule = OpenLoop::new(Duration::from_nanos(period_ns));
        let mut clock = 0u64;
        (0..ops)
            .map(|k| {
                let due = schedule.next_due();
                let start = clock.max(due);
                clock = start + service(k);
                (due, clock - due)
            })
            .collect()
    }

    #[test]
    fn a_stalled_operation_delays_no_later_due_time() {
        // Operation 2 stalls for five periods; everything else takes 10 ns.
        let timeline = simulate(100, 10, |k| if k == 2 { 500 } else { 10 });
        for (k, (due, _)) in timeline.iter().enumerate() {
            assert_eq!(*due, k as u64 * 100, "due time moved for operation {k}");
        }
        // The stall ends at 700: operations 3..=6 were due at 300..=600 and
        // their latency counts the wait behind it.
        let latencies: Vec<u64> = timeline.iter().map(|&(_, l)| l).collect();
        assert_eq!(latencies, vec![10, 10, 500, 410, 320, 230, 140, 50, 10, 10]);
    }

    #[test]
    fn wait_until_reports_lateness_not_earliness() {
        let epoch = Instant::now();
        assert_eq!(OpenLoop::new(Duration::from_millis(5)).next_due(), 0);
        let late = wait_until(epoch, 2_000_000);
        assert!(epoch.elapsed() >= Duration::from_millis(2));
        // Waited for the due time: at most scheduler oversleep late.
        assert!(late < 50_000_000, "{late}");
        std::thread::sleep(Duration::from_millis(3));
        assert!(wait_until(epoch, 2_000_000) >= 3_000_000);
    }
}
