//! Time-ordered change log with the queries root-cause analysis needs.

use crate::change::{Change, ChangeId};
use std::ops::Range;

/// A time-ordered log of deployed changes.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    // Kept sorted by deploy_time.
    changes: Vec<Change>,
}

impl ChangeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a change, keeping the log sorted by deploy time.
    pub fn record(&mut self, change: Change) {
        let pos = self
            .changes
            .partition_point(|c| c.deploy_time <= change.deploy_time);
        self.changes.insert(pos, change);
    }

    /// Number of recorded changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// All changes, in deploy order.
    pub fn all(&self) -> &[Change] {
        &self.changes
    }

    /// Looks a change up by id.
    pub fn get(&self, id: ChangeId) -> Option<&Change> {
        self.changes.iter().find(|c| c.id == id)
    }

    /// Changes deployed in `[start, end)` — the candidate generator for a
    /// regression whose change point falls shortly after `start` (§5.6
    /// "changes deployed immediately before the regression occurred").
    /// Empty when `end <= start`.
    pub fn deployed_between(&self, start: u64, end: u64) -> &[Change] {
        &self.changes[self.positions_between(start, end)]
    }

    /// Positions in [`ChangeLog::all`] of the changes deployed in
    /// `[start, end)`; empty when `end <= start`.
    pub fn positions_between(&self, start: u64, end: u64) -> Range<usize> {
        let lo = self.changes.partition_point(|c| c.deploy_time < start);
        let hi = self.changes.partition_point(|c| c.deploy_time < end);
        lo..hi.max(lo)
    }

    /// Changes to a given service deployed in `[start, end)`.
    pub fn deployed_to_service_between(&self, service: &str, start: u64, end: u64) -> Vec<&Change> {
        self.deployed_between(start, end)
            .iter()
            .filter(|c| c.service == service)
            .collect()
    }

    /// Changes in `[start, end)` that modify the named subroutine — the
    /// code-analysis root-cause factor (§5.6) and a SOMDedup candidate
    /// feature (§5.5.1).
    pub fn modifying_subroutine_between(
        &self,
        subroutine: &str,
        start: u64,
        end: u64,
    ) -> Vec<&Change> {
        self.deployed_between(start, end)
            .iter()
            .filter(|c| c.modifies(subroutine))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeKind;

    fn change(id: ChangeId, time: u64, subs: &[&str]) -> Change {
        Change {
            id,
            kind: ChangeKind::Code,
            service: "svc".into(),
            deploy_time: time,
            modified_subroutines: subs.iter().map(|s| s.to_string()).collect(),
            title: format!("change {id}"),
            summary: String::new(),
            files: vec![],
            author: "dev".into(),
        }
    }

    #[test]
    fn log_stays_sorted() {
        let mut log = ChangeLog::new();
        log.record(change(2, 200, &[]));
        log.record(change(1, 100, &[]));
        log.record(change(3, 150, &[]));
        let times: Vec<u64> = log.all().iter().map(|c| c.deploy_time).collect();
        assert_eq!(times, vec![100, 150, 200]);
    }

    #[test]
    fn range_query_is_half_open() {
        let mut log = ChangeLog::new();
        for t in [100, 200, 300] {
            log.record(change(t, t, &[]));
        }
        let hits = log.deployed_between(100, 300);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn empty_and_inverted_ranges_are_empty() {
        let mut log = ChangeLog::new();
        for t in [100, 200, 300] {
            log.record(change(t, t, &["a"]));
        }
        assert!(log.deployed_between(250, 250).is_empty());
        // Inverted with changes on both sides of `start`: no slice panic.
        assert!(log.deployed_between(250, 150).is_empty());
        assert!(log.deployed_between(u64::MAX, 0).is_empty());
        assert!(log.positions_between(250, 150).is_empty());
        assert!(log.modifying_subroutine_between("a", 301, 0).is_empty());
        assert!(log.deployed_to_service_between("svc", 400, 10).is_empty());
        assert_eq!(log.positions_between(150, 301), 1..3);
    }

    #[test]
    fn subroutine_filter() {
        let mut log = ChangeLog::new();
        log.record(change(1, 100, &["a", "b"]));
        log.record(change(2, 110, &["c"]));
        log.record(change(3, 120, &["a"]));
        let hits = log.modifying_subroutine_between("a", 0, 1000);
        let ids: Vec<ChangeId> = hits.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn service_filter() {
        let mut log = ChangeLog::new();
        let mut c = change(1, 100, &[]);
        c.service = "other".into();
        log.record(c);
        log.record(change(2, 100, &[]));
        assert_eq!(log.deployed_to_service_between("svc", 0, 1000).len(), 1);
    }

    #[test]
    fn get_by_id() {
        let mut log = ChangeLog::new();
        log.record(change(42, 5, &[]));
        assert!(log.get(42).is_some());
        assert!(log.get(43).is_none());
    }
}
