//! Buyer-facing error metrics `ε(h, D)` as first-class objects.
//!
//! The paper's §3.1 separates the *training* loss `λ` (fixed by the broker)
//! from the *buyer's* error function `ε`: Theorem 4 only needs `ε` convex
//! in `h` for the expected error to be monotone in the NCP, and Theorem 6
//! prices any strictly convex `ε` through the error-inverse map `φ`. An
//! [`ErrorMetric`] bundles an `ε` with the data it is evaluated on, so the
//! curve-estimation and pricing layers can be generic over the metric:
//!
//! * [`SquareDistanceMetric`] — `ε_s(h) = ‖h − h*‖²`, the paper's default,
//!   with the Lemma 3 closed form `E[ε_s(h^δ)] = δ` (no Monte Carlo
//!   needed);
//! * [`LossMetric`] — any Table 2 loss on a held-out dataset: logistic
//!   loss, hinge loss, test-set mean squared error, or the (non-convex,
//!   evaluation-only) 0/1 misclassification rate.

use crate::loss::{Convexity, HingeLoss, LogisticLoss, Loss, ZeroOneLoss};
use crate::{LinearModel, Result};
use nimbus_data::Dataset;

/// A buyer-facing error function `ε(·, D)` partially applied to its data.
///
/// Monte-Carlo curve estimation evaluates thousands of noisy models, a δ
/// point's worth at a time, through [`ErrorMetric::evaluate_batch`];
/// metrics that can score many models in one pass over their data override
/// it. Implementations must be thread-safe, since the curve estimator fans
/// δ points out over scoped threads.
pub trait ErrorMetric: Send + Sync {
    /// Short stable identifier, used to tag quotes and sales
    /// (e.g. `"square"`, `"logistic"`, `"zero_one"`).
    fn name(&self) -> &'static str;

    /// The error of a (possibly noise-perturbed) model instance.
    fn evaluate(&self, model: &LinearModel) -> Result<f64>;

    /// [`ErrorMetric::evaluate`] of every model in `models`, in order, with
    /// the same bits. The default calls `evaluate` once per model.
    fn evaluate_batch(&self, models: &[LinearModel]) -> Result<Vec<f64>> {
        models.iter().map(|m| self.evaluate(m)).collect()
    }

    /// Exact expected error at noise level δ, when known in closed form.
    ///
    /// Returning `Some` for every δ lets the curve layer skip Monte Carlo
    /// entirely — the square loss returns `Some(delta)` per Lemma 3.
    /// The default is `None` (estimate empirically).
    fn closed_form_expected_error(&self, _delta: f64) -> Option<f64> {
        None
    }

    /// Convexity class of the metric in the model instance `h`.
    ///
    /// [`Convexity::Strict`] is what Theorem 6 requires for the
    /// error-inverse `φ` to be a bijection; non-convex metrics (0/1 error)
    /// still get empirical curves with isotonic repair.
    fn convexity(&self) -> Convexity;
}

/// The paper's default metric: squared L2 distance to the optimal model,
/// `ε_s(h, D) = ‖h − h*_λ(D)‖²` (§3.2).
///
/// Under any unbiased mechanism with total variance δ — in particular the
/// Gaussian mechanism `K_G` — Lemma 3 gives `E[ε_s(h^δ)] = δ` exactly, so
/// this metric reports a closed form and never needs sampling.
#[derive(Debug, Clone)]
pub struct SquareDistanceMetric {
    optimal: LinearModel,
}

impl SquareDistanceMetric {
    /// Creates the metric anchored at the trained optimal model.
    pub fn new(optimal: LinearModel) -> Self {
        SquareDistanceMetric { optimal }
    }

    /// The anchor model `h*`.
    pub fn optimal(&self) -> &LinearModel {
        &self.optimal
    }
}

impl ErrorMetric for SquareDistanceMetric {
    fn name(&self) -> &'static str {
        "square"
    }

    fn evaluate(&self, model: &LinearModel) -> Result<f64> {
        model.distance_squared(&self.optimal)
    }

    fn closed_form_expected_error(&self, delta: f64) -> Option<f64> {
        // Lemma 3: E[‖h^δ − h*‖²] = δ for unbiased mechanisms with total
        // variance δ.
        Some(delta)
    }

    fn convexity(&self) -> Convexity {
        Convexity::Strict
    }
}

/// A Table 2 loss evaluated on a fixed dataset (typically the test split) —
/// the general-`ε` metrics priced through the φ map of Theorem 6.
pub struct LossMetric {
    loss: Box<dyn Loss + Send + Sync>,
    data: Dataset,
}

impl LossMetric {
    /// Wraps an arbitrary loss with its evaluation dataset.
    pub fn new(loss: Box<dyn Loss + Send + Sync>, data: Dataset) -> Self {
        LossMetric { loss, data }
    }

    /// Logistic loss on `data` (strictly convex when regularized).
    pub fn logistic(data: Dataset) -> Self {
        Self::new(Box::new(LogisticLoss::plain()), data)
    }

    /// Hinge (L2-SVM) loss on `data`; errors when `mu` is not positive.
    pub fn hinge(data: Dataset, mu: f64) -> Result<Self> {
        Ok(Self::new(Box::new(HingeLoss::new(mu)?), data))
    }

    /// 0/1 misclassification rate on `data` (evaluation-only, non-convex).
    pub fn zero_one(data: Dataset) -> Self {
        Self::new(Box::new(ZeroOneLoss), data)
    }

    /// The evaluation dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }
}

impl ErrorMetric for LossMetric {
    fn name(&self) -> &'static str {
        self.loss.name()
    }

    fn evaluate(&self, model: &LinearModel) -> Result<f64> {
        self.loss.value(model, &self.data)
    }

    fn evaluate_batch(&self, models: &[LinearModel]) -> Result<Vec<f64>> {
        self.loss.value_batch(models, &self.data)
    }

    fn convexity(&self) -> Convexity {
        self.loss.convexity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_data::Task;
    use nimbus_linalg::{Matrix, Vector};

    fn cls_data() -> Dataset {
        let x = Matrix::from_row_major(4, 1, vec![-2.0, -1.0, 1.0, 2.0]).unwrap();
        let y = Vector::from_vec(vec![0.0, 0.0, 1.0, 1.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn square_distance_reports_lemma3_closed_form() {
        let opt = LinearModel::new(Vector::from_vec(vec![1.0, -2.0]));
        let m = SquareDistanceMetric::new(opt.clone());
        assert_eq!(m.name(), "square");
        assert_eq!(m.closed_form_expected_error(0.25), Some(0.25));
        assert_eq!(m.convexity(), Convexity::Strict);
        assert_eq!(m.evaluate(&opt).unwrap(), 0.0);
        let off = LinearModel::new(Vector::from_vec(vec![2.0, -2.0]));
        assert!((m.evaluate(&off).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loss_metrics_have_no_closed_form() {
        let m = LossMetric::zero_one(cls_data());
        assert_eq!(m.name(), "zero_one");
        assert_eq!(m.closed_form_expected_error(0.5), None);
        assert_eq!(m.convexity(), Convexity::NonConvex);
        let good = LinearModel::new(Vector::from_vec(vec![1.0]));
        assert_eq!(m.evaluate(&good).unwrap(), 0.0);
    }

    #[test]
    fn logistic_and_hinge_metrics_evaluate() {
        let log = LossMetric::logistic(cls_data());
        assert_eq!(log.name(), "logistic");
        assert_eq!(log.convexity(), Convexity::Convex);
        let strong = LinearModel::new(Vector::from_vec(vec![2.0]));
        let weak = LinearModel::new(Vector::from_vec(vec![0.1]));
        assert!(log.evaluate(&strong).unwrap() < log.evaluate(&weak).unwrap());

        let hinge = LossMetric::hinge(cls_data(), 1e-3).unwrap();
        assert_eq!(hinge.name(), "hinge");
        assert_eq!(hinge.convexity(), Convexity::Strict);
        assert!(hinge.evaluate(&strong).unwrap().is_finite());
        assert!(LossMetric::hinge(cls_data(), 0.0).is_err());
    }

    #[test]
    fn batch_evaluation_matches_one_call_per_model() {
        let models: Vec<LinearModel> = [-1.5, -0.25, 0.0, 0.7, 3.0]
            .iter()
            .map(|&w| LinearModel::new(Vector::from_vec(vec![w])))
            .collect();
        let metrics: Vec<Box<dyn ErrorMetric>> = vec![
            Box::new(SquareDistanceMetric::new(LinearModel::zeros(1))),
            Box::new(LossMetric::logistic(cls_data())),
            Box::new(LossMetric::hinge(cls_data(), 0.1).unwrap()),
            Box::new(LossMetric::zero_one(cls_data())),
        ];
        for metric in &metrics {
            let batch = metric.evaluate_batch(&models).unwrap();
            let single: Vec<f64> = models.iter().map(|m| metric.evaluate(m).unwrap()).collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batch), bits(&single), "{}", metric.name());
        }
    }

    #[test]
    fn metrics_are_object_safe_and_shareable() {
        let metrics: Vec<Box<dyn ErrorMetric>> = vec![
            Box::new(SquareDistanceMetric::new(LinearModel::zeros(1))),
            Box::new(LossMetric::zero_one(cls_data())),
        ];
        let names: Vec<&str> = metrics.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["square", "zero_one"]);
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn ErrorMetric>();
    }
}
