//! Least-squares linear regression via the normal equations.
//!
//! The broker trains the optimal model instance `h*_λ(D)` once (Section 4:
//! "the broker first trains the optimal model instance, which is a one-time
//! cost"). For the square loss `λ(h, D) = 1/(2n) Σ (hᵀx − y)² + μ‖h‖²` the
//! optimum solves the SPD linear system
//!
//! ```text
//! (XᵀX / n + 2μ I) h = Xᵀy / n
//! ```
//!
//! which we factor with Cholesky: `O(n d²)` to assemble the Gram matrix plus
//! `O(d³)` to solve — the dominant one-time cost that makes subsequent
//! noisy-model sales essentially free. Both sides of the system come from
//! one pass of [`Matrix::normal_equations`](nimbus_linalg::Matrix::normal_equations)
//! over the training rows; its register-tiled kernel sums every entry in
//! ascending row order, so `h*` has the bits of the textbook row-at-a-time
//! loop, which journalled sales replay against.

use crate::loss::SquaredLoss;
use crate::{LinearModel, MlError, Result, Trainer};
use nimbus_data::{Dataset, Task};
use nimbus_linalg::Cholesky;

/// Closed-form trainer for (regularized) least squares.
#[derive(Debug, Clone, Copy)]
pub struct LinearRegressionTrainer {
    /// L2 regularization strength `μ ≥ 0`.
    pub mu: f64,
}

impl LinearRegressionTrainer {
    /// Ordinary least squares (no regularization). Requires full-column-rank
    /// features; otherwise training reports an ill-conditioned system.
    pub fn ols() -> Self {
        LinearRegressionTrainer { mu: 0.0 }
    }

    /// Ridge regression with strength `mu`.
    pub fn ridge(mu: f64) -> Self {
        LinearRegressionTrainer { mu }
    }

    /// The training loss `λ` this trainer minimizes.
    pub fn loss(&self) -> SquaredLoss {
        SquaredLoss { mu: self.mu }
    }
}

impl Trainer for LinearRegressionTrainer {
    fn train(&self, data: &Dataset) -> Result<LinearModel> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.task() != Task::Regression {
            return Err(MlError::TaskMismatch {
                expected: "regression",
            });
        }
        if !(self.mu >= 0.0 && self.mu.is_finite()) {
            return Err(MlError::InvalidHyperparameter {
                name: "mu",
                value: self.mu,
            });
        }
        let n = data.len() as f64;
        let (gram, mut rhs) = data.features().normal_equations(data.targets())?;
        let mut system = gram.scaled(1.0 / n);
        system.add_diagonal(2.0 * self.mu)?;
        rhs.scale(1.0 / n);
        // For μ = 0 on rank-deficient data the Gram matrix is singular;
        // factor_with_jitter nudges it to the minimum-norm-ish solution
        // rather than failing outright.
        let (chol, _jitter) = Cholesky::factor_with_jitter(&system, 24)?;
        let w = chol.solve(&rhs)?;
        Ok(LinearModel::new(w))
    }

    fn name(&self) -> &'static str {
        "linear_regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gd::{gradient_descent, GdConfig};
    use crate::loss::Loss;
    use nimbus_data::synthetic::{generate_regression, RegressionSpec};
    use nimbus_linalg::{Matrix, Vector};

    fn exact_data() -> Dataset {
        let x =
            Matrix::from_row_major(5, 2, vec![1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0, 5.0, 1.0])
                .unwrap();
        let y = Vector::from_vec(vec![1.0, 4.0, 7.0, 10.0, 13.0]);
        Dataset::new(x, y, Task::Regression).unwrap()
    }

    #[test]
    fn ols_recovers_exact_fit() {
        let model = LinearRegressionTrainer::ols().train(&exact_data()).unwrap();
        let w = model.weights();
        assert!((w[0] - 3.0).abs() < 1e-9);
        assert!((w[1] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_planted_hyperplane() {
        let (data, truth) = generate_regression(&RegressionSpec::simulated1(2_000, 8), 42).unwrap();
        let model = LinearRegressionTrainer::ols().train(&data).unwrap();
        for j in 0..8 {
            assert!(
                (model.weights()[j] - truth[j]).abs() < 1e-6,
                "weight {j}: {} vs {}",
                model.weights()[j],
                truth[j]
            );
        }
    }

    #[test]
    fn ridge_shrinks_weights() {
        let data = exact_data();
        let ols = LinearRegressionTrainer::ols().train(&data).unwrap();
        let ridge = LinearRegressionTrainer::ridge(10.0).train(&data).unwrap();
        assert!(ridge.weights().norm2() < ols.weights().norm2());
    }

    #[test]
    fn closed_form_matches_gradient_descent() {
        let (data, _) = generate_regression(
            &RegressionSpec {
                n: 300,
                d: 4,
                target_noise: 0.5,
                target_scale: 1.0,
                feature_scale: 1.0,
            },
            7,
        )
        .unwrap();
        let trainer = LinearRegressionTrainer::ridge(0.05);
        let closed = trainer.train(&data).unwrap();
        let gd = gradient_descent(
            &trainer.loss(),
            &data,
            LinearModel::zeros(4),
            // 1e-10 on the gradient norm is beyond what backtracking GD
            // reliably reaches in f64 on every data draw; 1e-8 is ample for
            // the 1e-5 weight agreement asserted below.
            &GdConfig {
                max_iters: 50_000,
                tolerance: 1e-8,
                ..GdConfig::default()
            },
        )
        .unwrap();
        assert!(gd.converged);
        for j in 0..4 {
            assert!(
                (closed.weights()[j] - gd.model.weights()[j]).abs() < 1e-5,
                "weight {j}"
            );
        }
    }

    #[test]
    fn trained_model_is_stationary_point() {
        let (data, _) = generate_regression(
            &RegressionSpec {
                n: 200,
                d: 3,
                target_noise: 1.0,
                target_scale: 1.0,
                feature_scale: 1.0,
            },
            9,
        )
        .unwrap();
        let trainer = LinearRegressionTrainer::ridge(0.1);
        let model = trainer.train(&data).unwrap();
        let g = trainer.loss().gradient(&model, &data).unwrap();
        assert!(g.norm_inf() < 1e-8, "gradient at optimum: {}", g.norm_inf());
    }

    #[test]
    fn rejects_bad_inputs() {
        let data = exact_data();
        assert!(LinearRegressionTrainer::ridge(f64::NAN)
            .train(&data)
            .is_err());
        assert!(LinearRegressionTrainer::ridge(-1.0).train(&data).is_err());
        let empty = Dataset::new(Matrix::zeros(0, 2), Vector::zeros(0), Task::Regression).unwrap();
        assert!(matches!(
            LinearRegressionTrainer::ols().train(&empty),
            Err(MlError::EmptyDataset)
        ));
    }

    #[test]
    fn rejects_classification_data() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_vec(vec![0.0, 1.0]);
        let d = Dataset::new(x, y, Task::BinaryClassification).unwrap();
        assert!(matches!(
            LinearRegressionTrainer::ols().train(&d),
            Err(MlError::TaskMismatch { .. })
        ));
    }

    #[test]
    fn collinear_features_survive_via_jitter() {
        // Duplicate column: XᵀX is singular; OLS still returns a finite fit.
        let x = Matrix::from_row_major(4, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]).unwrap();
        let y = Vector::from_vec(vec![2.0, 4.0, 6.0, 8.0]);
        let d = Dataset::new(x, y, Task::Regression).unwrap();
        let model = LinearRegressionTrainer::ols().train(&d).unwrap();
        assert!(model.weights().is_finite());
        // Predictions are still essentially exact.
        let (x0, y0) = d.example(0);
        assert!((model.score(x0) - y0).abs() < 1e-3);
    }
}
