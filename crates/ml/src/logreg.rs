//! Logistic regression via damped Newton iterations.
//!
//! The logistic loss with L2 regularization (Table 2, row 2) is smooth and
//! strictly convex, so Newton's method with step halving converges in a
//! handful of iterations at the paper's dimensionalities (d ≤ 90). Each step
//! solves `(XᵀS X / n + 2μI) Δ = -∇` with `S = diag(σ(1−σ))` via Cholesky.

use crate::loss::{sigmoid, LogisticLoss, Loss};
use crate::{LinearModel, MlError, Result, Trainer};
use nimbus_data::{Dataset, Task};
use nimbus_linalg::{Cholesky, Matrix, Vector};

/// Damped-Newton trainer for L2-regularized logistic regression.
#[derive(Debug, Clone, Copy)]
pub struct LogisticRegressionTrainer {
    /// L2 regularization strength `μ ≥ 0`. A small positive value keeps the
    /// Hessian uniformly positive definite and the optimum finite even on
    /// separable data.
    pub mu: f64,
    /// Maximum Newton iterations.
    pub max_iters: usize,
    /// Convergence threshold on the gradient infinity norm.
    pub tolerance: f64,
}

impl LogisticRegressionTrainer {
    /// Default configuration: `μ = 1e-6`, 100 iterations, tolerance `1e-8`.
    pub fn new(mu: f64) -> Self {
        LogisticRegressionTrainer {
            mu,
            max_iters: 100,
            tolerance: 1e-8,
        }
    }

    /// The training loss `λ` this trainer minimizes.
    pub fn loss(&self) -> LogisticLoss {
        LogisticLoss { mu: self.mu }
    }

    /// `XᵀSX / n + 2μI` with `S = diag(σ(1−σ))` at `model`.
    fn hessian(&self, model: &LinearModel, data: &Dataset) -> Result<Matrix> {
        let weights = (0..data.len())
            .map(|i| {
                let p = sigmoid(model.score(data.example(i).0));
                p * (1.0 - p)
            })
            .collect();
        let n = data.len() as f64;
        let mut h = data
            .features()
            .weighted_gram(&Vector::from_vec(weights))?
            .scaled(1.0 / n);
        h.add_diagonal(2.0 * self.mu)?;
        Ok(h)
    }
}

impl Trainer for LogisticRegressionTrainer {
    fn train(&self, data: &Dataset) -> Result<LinearModel> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.task() != Task::BinaryClassification {
            return Err(MlError::TaskMismatch {
                expected: "classification",
            });
        }
        if !(self.mu >= 0.0 && self.mu.is_finite()) {
            return Err(MlError::InvalidHyperparameter {
                name: "mu",
                value: self.mu,
            });
        }
        let loss = self.loss();
        let mut model = LinearModel::zeros(data.num_features());
        let mut objective = loss.value(&model, data)?;

        for iter in 0..self.max_iters {
            let grad = loss.gradient(&model, data)?;
            if grad.norm_inf() <= self.tolerance {
                return Ok(model);
            }
            let hess = self.hessian(&model, data)?;
            let (chol, _) = Cholesky::factor_with_jitter(&hess, 24)?;
            let direction = chol.solve(&grad)?;

            // Damped step: halve until the objective decreases.
            let mut step = 1.0;
            let mut accepted = false;
            while step > 1e-12 {
                let mut candidate = model.clone();
                candidate.weights_mut().axpy(-step, &direction)?;
                let cand_obj = loss.value(&candidate, data)?;
                if cand_obj < objective {
                    model = candidate;
                    objective = cand_obj;
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted {
                // No descent possible: we are at numerical optimum.
                let residual = loss.gradient(&model, data)?.norm_inf();
                if residual <= self.tolerance * 1e3 {
                    return Ok(model);
                }
                return Err(MlError::DidNotConverge {
                    iterations: iter,
                    residual,
                });
            }
        }
        let residual = loss.gradient(&model, data)?.norm_inf();
        if residual <= self.tolerance * 1e3 {
            Ok(model)
        } else {
            Err(MlError::DidNotConverge {
                iterations: self.max_iters,
                residual,
            })
        }
    }

    fn name(&self) -> &'static str {
        "logistic_regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gd::{gradient_descent, GdConfig};
    use crate::loss::ZeroOneLoss;
    use nimbus_data::synthetic::{generate_classification, ClassificationSpec};
    use nimbus_linalg::{Matrix, Vector};

    fn toy() -> Dataset {
        let x = Matrix::from_row_major(6, 1, vec![-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]).unwrap();
        let y = Vector::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn separates_toy_data() {
        let model = LogisticRegressionTrainer::new(0.01).train(&toy()).unwrap();
        assert!(model.weights()[0] > 0.0);
        let err = ZeroOneLoss.value(&model, &toy()).unwrap();
        assert_eq!(err, 0.0);
    }

    #[test]
    fn gradient_at_optimum_is_small() {
        let trainer = LogisticRegressionTrainer::new(0.05);
        let (data, _) =
            generate_classification(&ClassificationSpec::simulated2(500, 4), 3).unwrap();
        let model = trainer.train(&data).unwrap();
        let g = trainer.loss().gradient(&model, &data).unwrap();
        assert!(g.norm_inf() < 1e-6, "gradient norm {}", g.norm_inf());
    }

    #[test]
    fn newton_matches_gradient_descent() {
        let trainer = LogisticRegressionTrainer::new(0.1);
        let (data, _) =
            generate_classification(&ClassificationSpec::simulated2(300, 3), 11).unwrap();
        let newton = trainer.train(&data).unwrap();
        let gd = gradient_descent(
            &trainer.loss(),
            &data,
            LinearModel::zeros(3),
            &GdConfig {
                max_iters: 20_000,
                tolerance: 1e-7,
                ..GdConfig::default()
            },
        )
        .unwrap();
        // The strictly convex objective has a unique optimum: both solvers
        // must land on (essentially) the same objective value, and the
        // first-order solutions must be close.
        let loss = trainer.loss();
        let newton_obj = loss.value(&newton, &data).unwrap();
        let gd_obj = loss.value(&gd.model, &data).unwrap();
        assert!(
            (newton_obj - gd_obj).abs() < 1e-6,
            "objectives diverge: newton {newton_obj} vs gd {gd_obj}"
        );
        for j in 0..3 {
            assert!(
                (newton.weights()[j] - gd.model.weights()[j]).abs() < 1e-2,
                "weight {j}: newton {} vs gd {}",
                newton.weights()[j],
                gd.model.weights()[j]
            );
        }
    }

    #[test]
    fn accuracy_beats_chance_on_simulated2() {
        let (data, _) =
            generate_classification(&ClassificationSpec::simulated2(4_000, 8), 21).unwrap();
        let model = LogisticRegressionTrainer::new(1e-4).train(&data).unwrap();
        let err = ZeroOneLoss.value(&model, &data).unwrap();
        // Bayes error is 5%; a good fit should be close to it.
        assert!(err < 0.10, "0/1 error {err}");
    }

    #[test]
    fn recovered_direction_aligns_with_planted_hyperplane() {
        let (data, truth) =
            generate_classification(&ClassificationSpec::simulated2(5_000, 5), 31).unwrap();
        let model = LogisticRegressionTrainer::new(1e-4).train(&data).unwrap();
        let cos = model.weights().dot(&truth).unwrap() / (model.weights().norm2() * truth.norm2());
        assert!(cos > 0.95, "cosine similarity {cos}");
    }

    #[test]
    fn separable_data_with_regularization_stays_finite() {
        // Perfectly separable: unregularized optimum is at infinity, but
        // μ > 0 keeps it finite.
        let model = LogisticRegressionTrainer::new(0.1).train(&toy()).unwrap();
        assert!(model.weights().is_finite());
        assert!(model.weights().norm2() < 100.0);
    }

    #[test]
    fn rejects_regression_data_and_bad_mu() {
        let x = Matrix::zeros(2, 1);
        let y = Vector::from_vec(vec![0.5, 1.5]);
        let d = Dataset::new(x, y, Task::Regression).unwrap();
        assert!(matches!(
            LogisticRegressionTrainer::new(0.1).train(&d),
            Err(MlError::TaskMismatch { .. })
        ));
        assert!(LogisticRegressionTrainer::new(-0.5).train(&toy()).is_err());
    }
}
