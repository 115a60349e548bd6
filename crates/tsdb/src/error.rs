//! Error type for the time-series store.

use std::fmt;

/// Errors produced by the time-series database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsdbError {
    /// The requested series does not exist.
    SeriesNotFound(String),
    /// A query used an empty or inverted time range.
    InvalidRange,
    /// Points must be appended in non-decreasing timestamp order.
    OutOfOrderAppend {
        /// Timestamp of the last stored point.
        last: u64,
        /// The offending timestamp.
        attempted: u64,
    },
    /// A window configuration was invalid (e.g. zero-length analysis window).
    InvalidWindowConfig(&'static str),
    /// The queried window contains no data.
    EmptyWindow(&'static str),
    /// A snapshot file could not be read or written.
    Snapshot {
        /// 1-based line of the snapshot text the failure belongs to.
        line: usize,
        /// What is wrong there.
        reason: &'static str,
    },
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::SeriesNotFound(id) => write!(f, "series not found: {id}"),
            TsdbError::InvalidRange => write!(f, "invalid time range"),
            TsdbError::OutOfOrderAppend { last, attempted } => {
                write!(f, "out-of-order append: {attempted} after {last}")
            }
            TsdbError::InvalidWindowConfig(what) => write!(f, "invalid window config: {what}"),
            TsdbError::EmptyWindow(which) => write!(f, "no data in {which} window"),
            TsdbError::Snapshot { line, reason } => write!(f, "snapshot line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TsdbError {}
