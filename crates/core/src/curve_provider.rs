//! A policy object turning an [`ErrorMetric`] into a monotone [`ErrorCurve`].
//!
//! The broker needs one error-transformation curve per `(metric, mechanism,
//! model)` triple before it can price anything (Figure 2(b)). How that curve
//! is obtained depends on the metric: the square loss has the closed form
//! `E[ε_s(h^δ)] = δ` (Lemma 3) and gets an exact analytic curve; every other
//! metric — logistic, hinge, 0/1 — is estimated by Monte Carlo over the δ
//! grid. [`CurveProvider`] packages that dispatch together with the
//! estimation budget (`samples`), the RNG `seed`, and the thread fan-out, so
//! higher layers (the broker, the CLI, experiments) ask for "the curve for
//! this metric" and never reimplement the choice.
//!
//! The Monte-Carlo path is [`ErrorCurve::estimate_parallel`]'s, with each
//! δ point's noisy models scored in one [`ErrorMetric::evaluate_batch`]
//! call; the per-δ-point RNG streams make the result bitwise-identical to a
//! sequential estimate for the same seed, regardless of `max_threads`.

use crate::error_curve::ErrorCurve;
use crate::mechanism::RandomizedMechanism;
use crate::ncp::Ncp;
use crate::Result;
use nimbus_ml::{ErrorMetric, LinearModel};

/// Builds monotone error curves for arbitrary [`ErrorMetric`]s, choosing the
/// exact closed form when the metric provides one and deterministic parallel
/// Monte-Carlo estimation otherwise.
#[derive(Debug, Clone, Copy)]
pub struct CurveProvider {
    samples: usize,
    seed: u64,
    max_threads: Option<usize>,
}

impl CurveProvider {
    /// Creates a provider drawing `samples` noisy models per δ point (for
    /// metrics without a closed form) from streams derived from `seed`.
    pub fn new(samples: usize, seed: u64) -> CurveProvider {
        CurveProvider {
            samples,
            seed,
            max_threads: None,
        }
    }

    /// Caps the Monte-Carlo fan-out at `threads` scoped threads. The default
    /// (`None`) uses the machine's available parallelism. The produced curve
    /// is identical either way; only wall-clock time changes.
    pub fn with_max_threads(mut self, threads: usize) -> CurveProvider {
        self.max_threads = Some(threads);
        self
    }

    /// Monte-Carlo samples per δ point.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Root seed for the per-point RNG streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The curve `δ ↦ E[ε(h^δ, D)]` for `metric` under `mechanism`, smoothed
    /// isotonically so the error inverse `φ` (Theorem 6) is well defined.
    ///
    /// Dispatch: if the metric reports a closed-form expected error for every
    /// grid δ (the square loss does, per Lemma 3), the curve is exact with
    /// zero standard error; otherwise each point is estimated from `samples`
    /// draws of `mechanism`, scored together by the metric's
    /// [`ErrorMetric::evaluate_batch`].
    pub fn curve_for<M>(
        &self,
        metric: &dyn ErrorMetric,
        mechanism: &M,
        optimal: &LinearModel,
        deltas: &[Ncp],
    ) -> Result<ErrorCurve>
    where
        M: RandomizedMechanism + Sync + ?Sized,
    {
        let closed_form = !deltas.is_empty()
            && deltas
                .iter()
                .all(|d| metric.closed_form_expected_error(d.delta()).is_some());
        if closed_form {
            return ErrorCurve::from_closed_form(deltas, |d| {
                metric
                    .closed_form_expected_error(d)
                    .expect("all grid points verified closed-form")
            });
        }
        ErrorCurve::estimate_batched(
            mechanism,
            optimal,
            |models: &[LinearModel]| metric.evaluate_batch(models).map_err(Into::into),
            deltas,
            self.samples,
            self.seed,
            self.max_threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::GaussianMechanism;
    use nimbus_data::{Dataset, Task};
    use nimbus_linalg::{Matrix, Vector};
    use nimbus_ml::{LossMetric, SquareDistanceMetric};

    fn deltas(values: &[f64]) -> Vec<Ncp> {
        values.iter().map(|&v| Ncp::new(v).unwrap()).collect()
    }

    fn tiny_classification_data() -> Dataset {
        let x = Matrix::from_rows(&[
            vec![1.0, 0.5],
            vec![-1.0, -0.5],
            vec![0.8, 1.0],
            vec![-0.7, -1.2],
        ])
        .unwrap();
        let y = Vector::from_vec(vec![1.0, 0.0, 1.0, 0.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn square_metric_takes_the_exact_path() {
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, 2.0]));
        let metric = SquareDistanceMetric::new(optimal.clone());
        let provider = CurveProvider::new(10, 1);
        let grid = deltas(&[0.5, 1.0, 2.0]);
        let c = provider
            .curve_for(&metric, &GaussianMechanism, &optimal, &grid)
            .unwrap();
        for p in c.points() {
            assert_eq!(p.mean_error, p.delta, "Lemma 3 identity, exactly");
            assert_eq!(p.std_error, 0.0);
        }
    }

    #[test]
    fn loss_metric_takes_the_monte_carlo_path() {
        let data = tiny_classification_data();
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, 1.0]));
        let metric = LossMetric::logistic(data);
        let provider = CurveProvider::new(300, 42);
        let grid = deltas(&[0.25, 1.0, 4.0]);
        let c = provider
            .curve_for(&metric, &GaussianMechanism, &optimal, &grid)
            .unwrap();
        assert_eq!(c.len(), 3);
        // Monte-Carlo points carry sampling uncertainty.
        assert!(c.points().iter().any(|p| p.std_error > 0.0));
        // Smoothed curve is monotone so φ exists.
        let sm: Vec<f64> = c.points().iter().map(|p| p.smoothed_error).collect();
        assert!(crate::isotonic::is_non_decreasing(&sm, 1e-12));
    }

    #[test]
    fn provider_is_deterministic_across_thread_counts() {
        let data = tiny_classification_data();
        let optimal = LinearModel::new(Vector::from_vec(vec![0.5, -0.5]));
        let metric = LossMetric::zero_one(data);
        let grid = deltas(&[0.5, 1.0, 2.0, 4.0]);
        let a = CurveProvider::new(200, 7)
            .with_max_threads(1)
            .curve_for(&metric, &GaussianMechanism, &optimal, &grid)
            .unwrap();
        let b = CurveProvider::new(200, 7)
            .with_max_threads(4)
            .curve_for(&metric, &GaussianMechanism, &optimal, &grid)
            .unwrap();
        for (p, q) in a.points().iter().zip(b.points()) {
            assert_eq!(p.mean_error.to_bits(), q.mean_error.to_bits());
        }
    }

    #[test]
    fn empty_grid_is_rejected() {
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0]));
        let metric = SquareDistanceMetric::new(optimal.clone());
        let provider = CurveProvider::new(10, 1);
        assert!(provider
            .curve_for(&metric, &GaussianMechanism, &optimal, &[])
            .is_err());
    }
}
