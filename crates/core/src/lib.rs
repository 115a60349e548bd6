//! FBDetect core: in-production performance-regression detection.
//!
//! This crate implements the paper's primary contribution — the full
//! detection workflow of Figure 6:
//!
//! 1. [`change_point`] — CUSUM+EM change-point detection with
//!    likelihood-ratio validation (§5.2.1);
//! 2. [`went_away`] — filtering of transient regressions via SAX patterns,
//!    Mann-Kendall trends, and Theil-Sen slopes (§5.2.2);
//! 3. [`seasonality`] — STL-based seasonal false-positive filtering
//!    (§5.2.3);
//! 4. [`dedup::som_dedup`] — fast SOM-based deduplication with
//!    `ImportanceScore` representative selection (§5.5.1);
//! 5. [`cost_shift`] — cost-domain analysis filtering refactoring-induced
//!    false positives (§5.4);
//! 6. [`dedup::pairwise_dedup`] — accurate rule-driven pairwise
//!    deduplication (§5.5.2);
//! 7. [`root_cause`] — ranked root-cause candidates from gCPU attribution,
//!    text similarity, and time-series correlation (§5.6).
//!
//! [`long_term`] implements the separate long-term (gradual) regression
//! path (§5.3), and [`pipeline`] orchestrates everything with the
//! fast-filters-first ordering the paper describes, exposing the per-stage
//! funnel counters behind Table 3.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod change_point;
pub mod config;
pub mod cost_shift;
pub mod dedup;
pub mod error;
pub mod known_changes;
pub mod long_term;
pub mod pipeline;
pub mod profile;
pub mod quarantine;
pub mod report;
pub mod root_cause;
pub mod scan_cache;
pub mod scan_state;
pub mod scheduler;
pub mod seasonality;
pub mod types;
pub mod went_away;

pub use config::{DetectorConfig, Threshold};
pub use error::DetectError;
pub use pipeline::{Pipeline, ScanBudget, ScanContext, ScanOutcome};
pub use profile::StageNanos;
pub use quarantine::{FaultKind, Quarantine, QuarantineConfig};
pub use scan_state::{EngineStats, StreamingEngine};
pub use types::{FunnelCounters, Regression, RegressionKind, ScanHealth};
pub use went_away::{DecidedBy, WentAwayStats, WentAwayVerdict};

/// Convenience alias used by fallible routines in this crate.
pub type Result<T> = std::result::Result<T, DetectError>;
