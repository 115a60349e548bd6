//! In-memory time-series database for the FBDetect reproduction.
//!
//! Production FBDetect reads ~800,000 time series out of Meta's monitoring
//! stores. This crate is the stand-in: series are identified by
//! (service, metric kind, target), points are `(timestamp, value)` pairs,
//! and the store supports the window queries the detection pipeline needs —
//! the *historic*, *analysis*, and *extended* windows of Figure 4 — plus
//! retention, downsampling, and fleet-wide aggregation.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod aggregate;
pub mod block;
pub mod columns;
pub mod error;
pub mod scratch;
pub mod series;
pub mod snapshot;
pub mod store;
pub mod types;
pub mod window;

pub use block::{BlockBuilder, SealedBlock};
pub use columns::{SeriesColumns, TimeRuns};
pub use error::TsdbError;
pub use scratch::ScratchPoints;
pub use series::TimeSeries;
pub use store::{
    BatchAppendOutcome, SeriesDelta, SeriesVersion, ShardStats, StoreConfig, StoreStats, TsdbStore,
};
pub use types::{DataPoint, MetricKind, SeriesId, Timestamp};
pub use window::{
    snapshot_bounds, window_coverage, window_coverage_from_counts, windows_from_points,
    windows_from_points_into, WindowConfig, WindowCoverage, WindowedData,
};

/// Convenience alias used by fallible routines in this crate.
pub type Result<T> = std::result::Result<T, TsdbError>;
