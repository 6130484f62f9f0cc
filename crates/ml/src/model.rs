//! Linear model instances.

use crate::{MlError, Result};
use nimbus_data::Dataset;
use nimbus_linalg::Vector;

/// A linear hypothesis `h ∈ R^d`: scores are inner products `hᵀx`.
///
/// This is the paper's "ML model instance" for its entire model menu — an
/// instance of least-squares regression, logistic regression or a linear SVM
/// is a weight vector, and the noise mechanisms of `nimbus-core` operate on
/// these coordinates directly (Figure 4 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vector,
}

impl LinearModel {
    /// Wraps a weight vector as a model instance.
    pub fn new(weights: Vector) -> Self {
        LinearModel { weights }
    }

    /// The zero model of dimension `d` — the conventional starting point for
    /// iterative trainers.
    pub fn zeros(d: usize) -> Self {
        LinearModel {
            weights: Vector::zeros(d),
        }
    }

    /// Model dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Immutable access to the weights.
    pub fn weights(&self) -> &Vector {
        &self.weights
    }

    /// Mutable access to the weights (used by trainers and mechanisms).
    pub fn weights_mut(&mut self) -> &mut Vector {
        &mut self.weights
    }

    /// Raw score `hᵀx` for a feature row.
    pub fn score(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        nimbus_linalg::vector::dot_slices(self.weights.as_slice(), x)
    }

    /// Scores every example in `data`. Errors on dimension mismatch.
    pub fn score_dataset(&self, data: &Dataset) -> Result<Vector> {
        if data.num_features() != self.dim() {
            return Err(MlError::DimensionMismatch {
                model: self.dim(),
                data: data.num_features(),
            });
        }
        let mut out = Vec::with_capacity(data.len());
        for i in 0..data.len() {
            out.push(self.score(data.features().row(i)));
        }
        Ok(Vector::from_vec(out))
    }

    /// Classifies a feature row as 0/1 by thresholding the score at zero
    /// (the paper's `1_{wᵀx > 0}` convention).
    pub fn classify(&self, x: &[f64]) -> f64 {
        if self.score(x) > 0.0 {
            1.0
        } else {
            0.0
        }
    }

    /// Squared Euclidean distance between two model instances — the square
    /// loss `ε_s(h, D) = ‖h − h*‖²` of Section 4.1 when `other` is `h*`.
    pub fn distance_squared(&self, other: &LinearModel) -> Result<f64> {
        self.weights
            .distance_squared(&other.weights)
            .map_err(MlError::from)
    }

    /// Returns a copy with `noise` added coordinate-wise — the additive
    /// perturbation primitive used by every mechanism in `nimbus-core`.
    pub fn perturbed(&self, noise: &Vector) -> Result<LinearModel> {
        Ok(LinearModel {
            weights: self.weights.add(noise)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_data::Task;
    use nimbus_linalg::Matrix;

    fn data() -> Dataset {
        let x = Matrix::from_row_major(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let y = Vector::from_vec(vec![1.0, 0.0, 1.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn scores_are_inner_products() {
        let m = LinearModel::new(Vector::from_vec(vec![2.0, -1.0]));
        assert_eq!(m.score(&[3.0, 4.0]), 2.0);
        let s = m.score_dataset(&data()).unwrap();
        assert_eq!(s.as_slice(), &[2.0, -1.0, 1.0]);
    }

    #[test]
    fn classify_thresholds_at_zero() {
        let m = LinearModel::new(Vector::from_vec(vec![1.0]));
        assert_eq!(m.classify(&[0.5]), 1.0);
        assert_eq!(m.classify(&[-0.5]), 0.0);
        assert_eq!(m.classify(&[0.0]), 0.0, "ties go to the negative class");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let m = LinearModel::zeros(3);
        assert!(matches!(
            m.score_dataset(&data()),
            Err(MlError::DimensionMismatch { model: 3, data: 2 })
        ));
    }

    #[test]
    fn distance_squared_matches_square_loss() {
        let a = LinearModel::new(Vector::from_vec(vec![1.0, 2.0]));
        let b = LinearModel::new(Vector::from_vec(vec![4.0, -2.0]));
        assert_eq!(a.distance_squared(&b).unwrap(), 9.0 + 16.0);
    }

    #[test]
    fn perturbed_adds_noise() {
        let m = LinearModel::new(Vector::from_vec(vec![1.0, 1.0]));
        let n = Vector::from_vec(vec![0.5, -0.25]);
        let p = m.perturbed(&n).unwrap();
        assert_eq!(p.weights().as_slice(), &[1.5, 0.75]);
        // Original untouched.
        assert_eq!(m.weights().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn zeros_model() {
        let m = LinearModel::zeros(4);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.score(&[1.0, 2.0, 3.0, 4.0]), 0.0);
    }
}
