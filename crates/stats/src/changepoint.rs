//! Offline change-point search with normal loss and dynamic programming
//! (§5.3).
//!
//! The long-term detector locates a change point by minimizing the summed
//! within-segment variance on both sides of a partition point — the optimal
//! single-split under a Gaussian cost, found exactly with prefix sums. A
//! multi-change-point dynamic program (Truong et al.'s selective-review
//! formulation with a per-segment penalty) is also provided for workloads
//! with several shifts in one window.

use crate::error::{ensure_finite, ensure_len};
use crate::prefix::PrefixStats;
use crate::Result;

/// Result of the optimal single-split search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitResult {
    /// Index of the last sample in the first segment.
    pub index: usize,
    /// Total within-segment cost at the optimal split.
    pub cost: f64,
    /// Cost of the unsplit series, for comparison.
    pub unsplit_cost: f64,
}

impl SplitResult {
    /// Fractional cost reduction achieved by splitting, in `[0, 1]`.
    pub fn gain(&self) -> f64 {
        if self.unsplit_cost <= 0.0 {
            0.0
        } else {
            1.0 - self.cost / self.unsplit_cost
        }
    }
}

/// Finds the partition point minimizing the variance on both sides (§5.3).
///
/// # Examples
///
/// ```
/// let mut data = vec![1.0; 30];
/// data.extend(vec![2.0; 30]);
/// let r = fbd_stats::changepoint::optimal_single_split(&data).unwrap();
/// assert_eq!(r.index, 29);
/// assert!(r.gain() > 0.99);
/// ```
pub fn optimal_single_split(data: &[f64]) -> Result<SplitResult> {
    ensure_len(data, 4)?;
    ensure_finite(data)?;
    let ps = PrefixStats::new(data);
    let n = data.len();
    let unsplit_cost = ps.segment_cost(0, n);
    let mut best_idx = 0;
    let mut best_cost = f64::INFINITY;
    for split in 1..n - 1 {
        let cost = ps.segment_cost(0, split + 1) + ps.segment_cost(split + 1, n);
        if cost < best_cost {
            best_cost = cost;
            best_idx = split;
        }
    }
    Ok(SplitResult {
        index: best_idx,
        cost: best_cost,
        unsplit_cost,
    })
}

/// Multiple change points via penalized dynamic programming (PELT-style
/// exact search without pruning; O(n²) which is fine for window-sized data).
///
/// `penalty` is added per segment; larger penalties yield fewer change
/// points. A common default is `2 σ² ln n` (BIC-like).
///
/// Returns the sorted indices of the last sample of each non-final segment.
pub fn optimal_partition(data: &[f64], penalty: f64) -> Result<Vec<usize>> {
    ensure_len(data, 2)?;
    ensure_finite(data)?;
    let n = data.len();
    let ps = PrefixStats::new(data);
    // best_cost[i] = minimal penalized cost of data[0..i].
    let mut best_cost = vec![0.0f64; n + 1];
    let mut last_cut = vec![0usize; n + 1];
    for i in 1..=n {
        let mut bc = f64::INFINITY;
        let mut blc = 0;
        for (j, &prior) in best_cost.iter().enumerate().take(i) {
            let c = prior + ps.segment_cost(j, i) + penalty;
            if c < bc {
                bc = c;
                blc = j;
            }
        }
        best_cost[i] = bc;
        last_cut[i] = blc;
    }
    // Backtrack.
    let mut cuts = Vec::new();
    let mut i = n;
    while i > 0 {
        let j = last_cut[i];
        if j > 0 {
            cuts.push(j - 1);
        }
        i = j;
    }
    cuts.reverse();
    Ok(cuts)
}

/// A BIC-style penalty for [`optimal_partition`]: `2 σ̂² ln n` where `σ̂²` is
/// a robust variance estimate from first differences.
pub fn bic_penalty(data: &[f64]) -> Result<f64> {
    ensure_len(data, 3)?;
    ensure_finite(data)?;
    // Variance from lag-1 differences is robust to mean shifts:
    // Var(x_{i+1} - x_i) = 2 σ² for IID noise.
    let diffs: Vec<f64> = data.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
    let var = diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / diffs.len() as f64 / 2.0;
    Ok((2.0 * var * (data.len() as f64).ln()).max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(vals: &[(usize, f64)], noise: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for &(n, mean) in vals {
            for i in 0..n {
                let j = out.len() + i;
                out.push(mean + (((j * 48271) % 233) as f64 / 233.0 - 0.5) * noise);
            }
        }
        out
    }

    #[test]
    fn single_split_exact_step() {
        let data = noisy(&[(40, 0.0), (40, 1.0)], 0.0);
        let r = optimal_single_split(&data).unwrap();
        assert_eq!(r.index, 39);
        assert!(r.cost < 1e-12);
        assert!(r.gain() > 0.999);
    }

    #[test]
    fn single_split_noisy_step() {
        let data = noisy(&[(100, 5.0), (100, 5.4)], 0.2);
        let r = optimal_single_split(&data).unwrap();
        assert!((95..=105).contains(&r.index), "index {}", r.index);
        assert!(r.gain() > 0.5);
    }

    #[test]
    fn single_split_flat_has_tiny_gain() {
        let data = noisy(&[(120, 3.0)], 0.2);
        let r = optimal_single_split(&data).unwrap();
        assert!(r.gain() < 0.2, "gain = {}", r.gain());
    }

    #[test]
    fn partition_finds_two_steps() {
        let data = noisy(&[(50, 0.0), (50, 2.0), (50, 4.0)], 0.1);
        let pen = bic_penalty(&data).unwrap();
        let cuts = optimal_partition(&data, pen).unwrap();
        assert_eq!(cuts.len(), 2, "cuts = {cuts:?}");
        assert!((45..=54).contains(&cuts[0]));
        assert!((95..=104).contains(&cuts[1]));
    }

    #[test]
    fn partition_flat_has_no_cuts() {
        let data = noisy(&[(150, 1.0)], 0.2);
        let pen = bic_penalty(&data).unwrap();
        let cuts = optimal_partition(&data, pen).unwrap();
        assert!(cuts.is_empty(), "cuts = {cuts:?}");
    }

    #[test]
    fn partition_huge_penalty_yields_no_cuts() {
        let data = noisy(&[(40, 0.0), (40, 5.0)], 0.1);
        let cuts = optimal_partition(&data, 1e9).unwrap();
        assert!(cuts.is_empty());
    }

    #[test]
    fn partition_zero_penalty_overfits() {
        let data = noisy(&[(10, 0.0), (10, 1.0)], 0.3);
        let cuts = optimal_partition(&data, 0.0).unwrap();
        // With no penalty every point becomes its own segment boundary.
        assert!(cuts.len() >= 10);
    }

    #[test]
    fn prefix_stats_segment_cost() {
        let ps = PrefixStats::new(&[1.0, 2.0, 3.0]);
        // RSS of [1,2,3] around mean 2 is 2.
        assert!((ps.segment_cost(0, 3) - 2.0).abs() < 1e-12);
        assert_eq!(ps.segment_cost(1, 1).to_bits(), 0.0_f64.to_bits());
    }
}
