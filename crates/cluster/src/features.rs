//! Feature-matrix utilities shared by the clustering algorithms.

use crate::{ClusterError, Result};

/// Validates that all rows are finite and share one dimension; returns it.
pub fn check_matrix(items: &[Vec<f64>]) -> Result<usize> {
    let Some(first) = items.first() else {
        return Err(ClusterError::EmptyInput);
    };
    let dim = first.len();
    if dim == 0 {
        return Err(ClusterError::InvalidParameter("zero-dimensional features"));
    }
    for row in items {
        if row.len() != dim {
            return Err(ClusterError::DimensionMismatch {
                expected: dim,
                actual: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(ClusterError::NonFiniteInput);
        }
    }
    Ok(dim)
}

/// Squared Euclidean distance between two equal-length vectors.
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// Z-score normalizes each column in place; constant columns become zeros.
///
/// Feature scales differ wildly (a variance feature vs. a 64-bit hash), so
/// all clustering entry points normalize first.
pub fn normalize_columns(items: &mut [Vec<f64>]) -> Result<()> {
    let dim = check_matrix(items)?;
    let n = items.len() as f64;
    for col in 0..dim {
        let mean: f64 = items.iter().map(|r| r[col]).sum::<f64>() / n;
        let var: f64 = items
            .iter()
            .map(|r| (r[col] - mean) * (r[col] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        for row in items.iter_mut() {
            row[col] = if std > 0.0 {
                (row[col] - mean) / std
            } else {
                0.0
            };
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_matrix_happy_path() {
        let m = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(check_matrix(&m).unwrap(), 2);
    }

    #[test]
    fn check_matrix_rejects_bad_input() {
        assert_eq!(check_matrix(&[]), Err(ClusterError::EmptyInput));
        assert!(matches!(
            check_matrix(&[vec![1.0], vec![1.0, 2.0]]),
            Err(ClusterError::DimensionMismatch { .. })
        ));
        assert_eq!(
            check_matrix(&[vec![f64::NAN]]),
            Err(ClusterError::NonFiniteInput)
        );
        assert!(check_matrix(&[vec![]]).is_err());
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]).to_bits(), 25.0_f64.to_bits());
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]).to_bits(), 5.0_f64.to_bits());
    }

    #[test]
    fn normalization_zero_mean_unit_std() {
        let mut m = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        normalize_columns(&mut m).unwrap();
        for col in 0..2 {
            let mean: f64 = m.iter().map(|r| r[col]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
        }
        // Both columns now have comparable magnitude.
        assert!((m[0][0] - m[0][1]).abs() < 1e-12);
    }

    #[test]
    fn normalization_constant_column_zeroed() {
        let mut m = vec![vec![7.0], vec![7.0]];
        normalize_columns(&mut m).unwrap();
        assert_eq!(m, vec![vec![0.0], vec![0.0]]);
    }
}
