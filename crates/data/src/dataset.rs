//! The labeled-dataset container used across Nimbus.

use crate::{DataError, Result};
use nimbus_linalg::{Matrix, Vector};

/// Supervised task type, which determines valid targets and the error
/// functions the broker offers (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Real-valued target; least-squares style losses.
    Regression,
    /// Binary target encoded as `0.0` / `1.0`; logistic or hinge losses.
    /// Hinge-based trainers map labels to `±1` internally.
    BinaryClassification,
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Task::Regression => write!(f, "regression"),
            Task::BinaryClassification => write!(f, "classification"),
        }
    }
}

/// A dense labeled dataset: `n` examples of `d` features plus targets.
///
/// Rows are examples `z_i = (x_i, y_i)`, matching the paper's relational
/// setting where features and target are attributes of a single relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    targets: Vector,
    task: Task,
}

impl Dataset {
    /// Creates a dataset, validating shapes, finiteness and (for
    /// classification) that every target is `0.0` or `1.0`.
    pub fn new(features: Matrix, targets: Vector, task: Task) -> Result<Self> {
        if features.rows() != targets.len() {
            return Err(DataError::LengthMismatch {
                features: features.rows(),
                targets: targets.len(),
            });
        }
        for i in 0..features.rows() {
            if !features.row(i).iter().all(|v| v.is_finite()) || !targets[i].is_finite() {
                return Err(DataError::NonFinite { row: i });
            }
            if task == Task::BinaryClassification && targets[i] != 0.0 && targets[i] != 1.0 {
                return Err(DataError::InvalidTarget {
                    row: i,
                    value: targets[i],
                });
            }
        }
        Ok(Dataset {
            features,
            targets,
            task,
        })
    }

    /// Number of examples `n`.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of features `d`.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// The task tag.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Feature matrix (rows are examples).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Target vector.
    pub fn targets(&self) -> &Vector {
        &self.targets
    }

    /// Feature row of example `i`.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (self.features.row(i), self.targets[i])
    }

    /// Builds a new dataset containing the rows at `indices`, in order.
    /// Out-of-range indices are a programming error and panic.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let d = self.num_features();
        let mut data = Vec::with_capacity(indices.len() * d);
        let mut y = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.features.row(i));
            y.push(self.targets[i]);
        }
        Dataset {
            features: Matrix::from_row_major(indices.len(), d, data)
                .expect("selection preserves row width"),
            targets: Vector::from_vec(y),
            task: self.task,
        }
    }

    /// Frees the dataset and hands its memory back to the OS (see
    /// [`nimbus_linalg::release_pages`]): for a dataset dropped for good.
    pub fn release(self) {
        self.features.release();
        self.targets.release();
    }

    /// Fraction of positive labels; `None` for regression datasets.
    pub fn positive_rate(&self) -> Option<f64> {
        if self.task != Task::BinaryClassification || self.is_empty() {
            return None;
        }
        let pos = self
            .targets
            .as_slice()
            .iter()
            .filter(|&&y| y == 1.0)
            .count();
        Some(pos as f64 / self.len() as f64)
    }

    /// Mean of the target column (the "average" hypothesis of the paper's
    /// Example 1). Errors on an empty dataset.
    pub fn target_mean(&self) -> Result<f64> {
        self.targets.mean().ok_or(DataError::EmptyDataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let x = Matrix::from_row_major(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = Vector::from_vec(vec![1.0, 0.0, 1.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.task(), Task::BinaryClassification);
        let (x0, y0) = d.example(0);
        assert_eq!(x0, &[1.0, 2.0]);
        assert_eq!(y0, 1.0);
    }

    #[test]
    fn rejects_length_mismatch() {
        let x = Matrix::zeros(2, 2);
        let y = Vector::zeros(3);
        assert!(matches!(
            Dataset::new(x, y, Task::Regression),
            Err(DataError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_classification_labels() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_vec(vec![0.0, 2.0]);
        assert!(matches!(
            Dataset::new(x, y, Task::BinaryClassification),
            Err(DataError::InvalidTarget { row: 1, .. })
        ));
    }

    #[test]
    fn regression_allows_arbitrary_targets() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_vec(vec![-3.5, 12.0]);
        assert!(Dataset::new(x, y, Task::Regression).is_ok());
    }

    #[test]
    fn rejects_non_finite() {
        let x = Matrix::from_row_major(1, 1, vec![f64::NAN]).unwrap();
        let y = Vector::from_vec(vec![0.0]);
        assert!(matches!(
            Dataset::new(x, y, Task::Regression),
            Err(DataError::NonFinite { row: 0 })
        ));
        let x = Matrix::zeros(1, 1);
        let y = Vector::from_vec(vec![f64::INFINITY]);
        assert!(Dataset::new(x, y, Task::Regression).is_err());
    }

    #[test]
    fn select_reorders_rows() {
        let d = tiny();
        let s = d.select(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.example(0).0, &[5.0, 6.0]);
        assert_eq!(s.example(1).0, &[1.0, 2.0]);
        assert_eq!(s.targets().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn positive_rate() {
        let d = tiny();
        assert!((d.positive_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let x = Matrix::zeros(1, 1);
        let y = Vector::from_vec(vec![2.5]);
        let r = Dataset::new(x, y, Task::Regression).unwrap();
        assert!(r.positive_rate().is_none());
    }

    #[test]
    fn target_mean_and_empty() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_vec(vec![2.0, 4.0]);
        let d = Dataset::new(x, y, Task::Regression).unwrap();
        assert_eq!(d.target_mean().unwrap(), 3.0);

        let empty = Dataset::new(Matrix::zeros(0, 1), Vector::zeros(0), Task::Regression).unwrap();
        assert!(empty.is_empty());
        assert!(matches!(empty.target_mean(), Err(DataError::EmptyDataset)));
    }

    #[test]
    fn task_display() {
        assert_eq!(Task::Regression.to_string(), "regression");
        assert_eq!(Task::BinaryClassification.to_string(), "classification");
    }
}
