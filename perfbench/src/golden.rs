//! Committed pins for the default seed (`--seed 777`, full size).
//!
//! Input fingerprints guard the generators in `fbd-fleet`/`fbd-changelog`,
//! which live outside this package: if they drift, the workload is no
//! longer the one the recorded numbers describe, and the run fails. Funnel
//! and quality pins guard detection outcomes: a speed-up that changes what
//! is detected is a behaviour change, not a speed-up.
//!
//! A run on the default seed prints the values it saw in its `inputs:` and
//! `funnel:` lines; a deliberate change copies them here in a PR of its
//! own.

/// `[change_points, after_went_away, after_seasonality, after_threshold,
/// after_same_merger, after_som_dedup, after_cost_shift,
/// after_pairwise_dedup]`, then the report count.
pub type FunnelPin = ([usize; 8], usize);

pub const COLD_SCAN_INPUTS: u64 = 0x6167_eff8_9f9e_c995;
pub const COLD_SCAN_FUNNEL: FunnelPin = ([1678, 123, 123, 119, 60, 9, 9, 9], 9);

pub const STEADY_ROUNDS_INPUTS: u64 = 0xe717_916e_deb4_ba7b;
/// Funnel of round 0, the cold first scan of the loaded store.
pub const STEADY_ROUNDS_FUNNEL: FunnelPin = ([559, 39, 39, 38, 19, 7, 7, 6], 6);

/// Suite fingerprint xor the fingerprint of the first 16 wire batches.
pub const INGEST_UNDER_SCAN_INPUTS: u64 = 0xfac9_98c1_d1b2_6c20;

pub const FUNNEL_STORM_INPUTS: u64 = 0xfee5_9f85_afb9_b96f;
/// Summed over the two scans of a trial.
pub const FUNNEL_STORM_FUNNEL: FunnelPin = ([5870, 3542, 3542, 3484, 1110, 49, 44, 21], 21);
/// `(planted clusters and ramps with a report, false reports, cluster
/// reports naming the planted culprit in their top 3, cluster reports)`.
/// SOMDedup and PairwiseDedup merge the 70 planted units into 21 reports
/// (20 on cluster series, one on a ramp), which is what bounds the recall.
pub const FUNNEL_STORM_QUALITY: (usize, usize, usize, usize) = (21, 0, 20, 20);

/// What every seed must meet. Seventy seeds measured 16–22 of the 70
/// planted units recalled (0.23–0.31: how many groups dedup leaves, not how
/// many regressions were seen), an RCA top-3 share of 0.95–1 and no false
/// report.
pub const FUNNEL_RECALL_FLOOR: f64 = 0.15;
pub const FUNNEL_RCA_TOP3_FLOOR: f64 = 0.85;
pub const FUNNEL_FALSE_REPORTS_CEILING: usize = 2;
