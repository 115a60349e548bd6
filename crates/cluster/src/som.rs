//! Self-Organizing Map clustering (§5.5.1).
//!
//! SOMDedup maps high-dimensional regression features onto an `L × L` grid
//! and merges items landing on the same cell. The paper's robust
//! hyperparameter rule is `L = ⌈n^(1/4)⌉`, which "consistently yields good
//! results across diverse workloads" — the reason SOM was chosen over KNN
//! and hierarchical clustering.

use crate::features::{check_matrix, distance, normalize_columns, squared_distance};
use crate::{ClusterError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's grid-size rule: `L = ⌈n^(1/4)⌉`, at least 1.
pub fn som_grid_side(n_items: usize) -> usize {
    ((n_items as f64).powf(0.25).ceil() as usize).max(1)
}

/// SOM training parameters.
#[derive(Debug, Clone, Copy)]
pub struct SomConfig {
    /// Grid side length; `None` applies the `⌈n^(1/4)⌉` rule.
    pub grid_side: Option<usize>,
    /// Training epochs over the data.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to ~0).
    pub initial_learning_rate: f64,
    /// RNG seed for weight initialization and shuffling.
    pub seed: u64,
}

impl Default for SomConfig {
    fn default() -> Self {
        SomConfig {
            grid_side: None,
            epochs: 20,
            initial_learning_rate: 0.5,
            seed: 0x50D0,
        }
    }
}

/// A trained self-organizing map.
#[derive(Debug, Clone)]
pub struct SelfOrganizingMap {
    side: usize,
    dim: usize,
    /// Row-major `side × side` grid of codebook vectors.
    weights: Vec<Vec<f64>>,
}

impl SelfOrganizingMap {
    /// Trains a SOM on (normalized copies of) the items.
    ///
    /// # Examples
    ///
    /// ```
    /// use fbd_cluster::{SelfOrganizingMap, SomConfig};
    /// let items = vec![
    ///     vec![0.0, 0.0], vec![0.1, 0.0],   // Cluster A.
    ///     vec![10.0, 10.0], vec![10.1, 10.0], // Cluster B.
    /// ];
    /// let som = SelfOrganizingMap::train(&items, SomConfig::default()).unwrap();
    /// let cells = som.assign(&items).unwrap();
    /// assert_eq!(cells[0], cells[1]);
    /// assert_eq!(cells[2], cells[3]);
    /// assert_ne!(cells[0], cells[2]);
    /// ```
    pub fn train(items: &[Vec<f64>], config: SomConfig) -> Result<Self> {
        let dim = check_matrix(items)?;
        if config.epochs == 0 {
            return Err(ClusterError::InvalidParameter("epochs must be positive"));
        }
        let side = config
            .grid_side
            .unwrap_or_else(|| som_grid_side(items.len()));
        if side == 0 {
            return Err(ClusterError::InvalidParameter("grid side must be positive"));
        }
        let mut normalized = items.to_vec();
        normalize_columns(&mut normalized)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Initialize codebook vectors by sampling training items with jitter.
        let mut weights: Vec<Vec<f64>> = (0..side * side)
            .map(|_| {
                let base = &normalized[rng.gen_range(0..normalized.len())];
                base.iter()
                    .map(|v| v + rng.gen_range(-0.01..0.01))
                    .collect()
            })
            .collect();
        let total_steps = (config.epochs * normalized.len()).max(1);
        let initial_radius = (side as f64 / 2.0).max(1.0);
        let mut step = 0usize;
        let mut order: Vec<usize> = (0..normalized.len()).collect();
        for _ in 0..config.epochs {
            // Fisher-Yates shuffle for presentation order.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &idx in &order {
                let item = &normalized[idx];
                let progress = step as f64 / total_steps as f64;
                let lr = config.initial_learning_rate * (1.0 - progress);
                let radius = initial_radius * (1.0 - progress) + 0.5;
                let bmu = best_matching_unit(&weights, item);
                let (bx, by) = (bmu % side, bmu / side);
                // Update the BMU neighbourhood with a Gaussian kernel.
                let reach = radius.ceil() as isize;
                for dy in -reach..=reach {
                    for dx in -reach..=reach {
                        let x = bx as isize + dx;
                        let y = by as isize + dy;
                        if x < 0 || y < 0 || x >= side as isize || y >= side as isize {
                            continue;
                        }
                        let grid_dist2 = (dx * dx + dy * dy) as f64;
                        let influence = (-grid_dist2 / (2.0 * radius * radius)).exp();
                        let w = &mut weights[y as usize * side + x as usize];
                        for (wv, iv) in w.iter_mut().zip(item) {
                            *wv += lr * influence * (iv - *wv);
                        }
                    }
                }
                step += 1;
            }
        }
        Ok(SelfOrganizingMap { side, dim, weights })
    }

    /// Grid side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Maps each item to its best-matching grid cell index.
    ///
    /// Items must have the training dimensionality; they are normalized with
    /// their own column statistics, so pass the same batch that was trained
    /// on (SOMDedup trains and assigns per analysis window).
    pub fn assign(&self, items: &[Vec<f64>]) -> Result<Vec<usize>> {
        let dim = check_matrix(items)?;
        if dim != self.dim {
            return Err(ClusterError::DimensionMismatch {
                expected: self.dim,
                actual: dim,
            });
        }
        let mut normalized = items.to_vec();
        normalize_columns(&mut normalized)?;
        Ok(normalized
            .iter()
            .map(|item| best_matching_unit(&self.weights, item))
            .collect())
    }

    /// Quantization error: mean distance from each item to its BMU weight.
    pub fn quantization_error(&self, items: &[Vec<f64>]) -> Result<f64> {
        let mut normalized = items.to_vec();
        normalize_columns(&mut normalized)?;
        let total: f64 = normalized
            .iter()
            .map(|item| distance(item, &self.weights[best_matching_unit(&self.weights, item)]))
            .sum();
        Ok(total / items.len() as f64)
    }
}

fn best_matching_unit(weights: &[Vec<f64>], item: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, w) in weights.iter().enumerate() {
        let d = squared_distance(w, item);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Groups item indices by their assigned SOM cell — the SOMDedup clustering
/// step. Returns the clusters (each a list of item indices), ordered by
/// first occurrence. `assignments` are SOM cell indices (below `side²`):
/// the lookup table is indexed by cell.
pub fn cluster_by_cell(assignments: &[usize]) -> Vec<Vec<usize>> {
    let cells = assignments
        .iter()
        .max()
        .map_or(0, |&max| max.saturating_add(1));
    // The cluster each cell founded, in first-occurrence order.
    let mut cluster_of: Vec<Option<usize>> = vec![None; cells];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for (i, &cell) in assignments.iter().enumerate() {
        let at = *cluster_of[cell].get_or_insert_with(|| {
            clusters.push(Vec::new());
            clusters.len() - 1
        });
        clusters[at].push(i);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(centers: &[(f64, f64)], per: usize) -> Vec<Vec<f64>> {
        let mut items = Vec::new();
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for j in 0..per {
                let jitter = (ci * per + j) as f64 * 0.001;
                items.push(vec![cx + jitter, cy - jitter]);
            }
        }
        items
    }

    #[test]
    fn grid_rule_matches_paper() {
        assert_eq!(som_grid_side(1), 1);
        assert_eq!(som_grid_side(16), 2);
        assert_eq!(som_grid_side(17), 3);
        assert_eq!(som_grid_side(10_000), 10);
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let items = blobs(&[(0.0, 0.0), (50.0, 50.0), (0.0, 50.0)], 10);
        let som = SelfOrganizingMap::train(&items, SomConfig::default()).unwrap();
        let cells = som.assign(&items).unwrap();
        // All items of one blob share a cell; different blobs differ.
        for blob in 0..3 {
            let first = cells[blob * 10];
            assert!(cells[blob * 10..(blob + 1) * 10]
                .iter()
                .all(|&c| c == first));
        }
        assert_ne!(cells[0], cells[10]);
        assert_ne!(cells[10], cells[20]);
    }

    #[test]
    fn cluster_by_cell_groups_indices() {
        let clusters = cluster_by_cell(&[5, 5, 3, 5, 3]);
        assert_eq!(clusters, vec![vec![0, 1, 3], vec![2, 4]]);
    }

    #[test]
    fn deterministic_given_seed() {
        let items = blobs(&[(0.0, 0.0), (10.0, 10.0)], 8);
        let cfg = SomConfig::default();
        let a = SelfOrganizingMap::train(&items, cfg)
            .unwrap()
            .assign(&items)
            .unwrap();
        let b = SelfOrganizingMap::train(&items, cfg)
            .unwrap()
            .assign(&items)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantization_error_small_for_tight_blobs() {
        let items = blobs(&[(0.0, 0.0), (100.0, 100.0)], 20);
        let som = SelfOrganizingMap::train(&items, SomConfig::default()).unwrap();
        assert!(som.quantization_error(&items).unwrap() < 0.2);
    }

    #[test]
    fn dimension_mismatch_on_assign() {
        let items = blobs(&[(0.0, 0.0)], 4);
        let som = SelfOrganizingMap::train(&items, SomConfig::default()).unwrap();
        let bad = vec![vec![1.0, 2.0, 3.0]];
        assert!(matches!(
            som.assign(&bad),
            Err(ClusterError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_zero_epochs() {
        assert!(SelfOrganizingMap::train(&[], SomConfig::default()).is_err());
        let cfg = SomConfig {
            epochs: 0,
            ..Default::default()
        };
        assert!(SelfOrganizingMap::train(&[vec![1.0]], cfg).is_err());
    }

    #[test]
    fn single_item_trains() {
        let som = SelfOrganizingMap::train(&[vec![1.0, 2.0]], SomConfig::default()).unwrap();
        assert_eq!(som.side(), 1);
        assert_eq!(som.assign(&[vec![1.0, 2.0]]).unwrap(), vec![0]);
    }
}
