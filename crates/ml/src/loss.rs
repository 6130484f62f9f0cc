//! The error functions of Table 2.
//!
//! Each loss measures the goodness of a hypothesis `h` on a dataset and may
//! serve as the training loss `λ` (on `D_train`) and/or the buyer-facing
//! error `ε` (on `D_test` or `D_train`). All aggregate values are averaged
//! over the number of examples, as the paper's Table 2 footnote specifies.
//!
//! Strict convexity matters for the pricing theory: Theorem 4 guarantees
//! monotonicity of the expected error in the noise control parameter for
//! convex `ε` (strictly, for strictly convex), and Theorem 6 needs a strictly
//! convex `ε` to define the error-inverse `φ`. Each loss reports its
//! convexity class via [`Loss::convexity`].

use crate::{LinearModel, MlError, Result};
use nimbus_data::{Dataset, Task};
use nimbus_linalg::Vector;

/// Convexity class of a loss as a function of the model instance `h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Convexity {
    /// Strictly convex in `h` (unique minimizer; Theorem 6 applies).
    Strict,
    /// Convex but not strictly (Theorem 4's non-strict variant applies).
    Convex,
    /// Not convex (e.g. 0/1 loss); only empirical error curves apply.
    NonConvex,
}

/// An error function `λ` or `ε` over linear hypotheses.
pub trait Loss {
    /// Short stable identifier for reports (e.g. `"square"`).
    fn name(&self) -> &'static str;

    /// Average loss of `model` on `data` (plus any regularization term).
    fn value(&self, model: &LinearModel, data: &Dataset) -> Result<f64>;

    /// [`Loss::value`] of every model in `models`, in order — the entry
    /// point Monte-Carlo curve estimation scores a δ point's noisy models
    /// through. The default calls `value` once per model; the losses of
    /// this module score all the models in one batched pass over `data`
    /// and return the same bits.
    fn value_batch(&self, models: &[LinearModel], data: &Dataset) -> Result<Vec<f64>> {
        models.iter().map(|m| self.value(m, data)).collect()
    }

    /// Gradient with respect to the model weights. Losses that are not
    /// differentiable everywhere return a subgradient; the 0/1 loss errors.
    fn gradient(&self, model: &LinearModel, data: &Dataset) -> Result<Vector>;

    /// Convexity class of this loss in `h`.
    fn convexity(&self) -> Convexity;

    /// Whether this loss can train (serve as `λ`): requires a usable
    /// (sub)gradient.
    fn trainable(&self) -> bool {
        true
    }
}

/// For each model, `Σ_i term(hᵀx_i, y_i)` over the rows of `data`, added
/// in ascending row order from `+0.0` — the sum a row loop calling
/// [`LinearModel::score`] makes, bit for bit, since every batched score has
/// the bits of `score`. Each model is checked as [`Loss::value`] checks it,
/// with the task check when `classification` is set.
fn row_sums(
    models: &[LinearModel],
    data: &Dataset,
    classification: bool,
    term: impl Fn(f64, f64) -> f64,
) -> Result<Vec<f64>> {
    for model in models {
        check_dims(model, data)?;
        if classification && data.task() != Task::BinaryClassification {
            return Err(MlError::TaskMismatch {
                expected: "classification",
            });
        }
    }
    let weights: Vec<&[f64]> = models.iter().map(|m| m.weights().as_slice()).collect();
    let y = data.targets().as_slice();
    let mut totals = vec![0.0; models.len()];
    data.features().for_each_score(&weights, |i, m0, scores| {
        for (total, &s) in totals[m0..].iter_mut().zip(scores) {
            *total += term(s, y[i]);
        }
    })?;
    Ok(totals)
}

/// `total / denom + mu·‖h‖²` for each model and its row sum.
fn averaged(models: &[LinearModel], totals: Vec<f64>, denom: f64, mu: f64) -> Vec<f64> {
    models
        .iter()
        .zip(totals)
        .map(|(m, total)| total / denom + mu * m.weights().norm2_squared())
        .collect()
}

/// The single-model case of a loss's batched [`Loss::value_batch`].
fn value_of(loss: &dyn Loss, model: &LinearModel, data: &Dataset) -> Result<f64> {
    Ok(loss.value_batch(std::slice::from_ref(model), data)?[0])
}

fn check_dims(model: &LinearModel, data: &Dataset) -> Result<()> {
    if model.dim() != data.num_features() {
        return Err(MlError::DimensionMismatch {
            model: model.dim(),
            data: data.num_features(),
        });
    }
    if data.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    Ok(())
}

/// Converts a 0/1 label to the ±1 convention used by margin losses.
fn signed(y: f64) -> f64 {
    if y == 1.0 {
        1.0
    } else {
        -1.0
    }
}

/// Least-squares loss `1/(2n) Σ (hᵀx − y)² + μ‖h‖²` (Table 2, row 1).
///
/// Strictly convex whenever `μ > 0` or the design matrix has full column
/// rank; we report strict convexity for `μ > 0` and plain convexity at
/// `μ = 0` to stay on the conservative side.
#[derive(Debug, Clone, Copy)]
pub struct SquaredLoss {
    /// L2 regularization strength `μ ≥ 0`.
    pub mu: f64,
}

impl SquaredLoss {
    /// Unregularized least squares.
    pub fn plain() -> Self {
        SquaredLoss { mu: 0.0 }
    }

    /// Ridge regression with strength `mu`.
    pub fn ridge(mu: f64) -> Self {
        SquaredLoss { mu }
    }
}

impl Loss for SquaredLoss {
    fn name(&self) -> &'static str {
        "square"
    }

    fn value(&self, model: &LinearModel, data: &Dataset) -> Result<f64> {
        value_of(self, model, data)
    }

    fn value_batch(&self, models: &[LinearModel], data: &Dataset) -> Result<Vec<f64>> {
        let n = data.len() as f64;
        let sse = row_sums(models, data, false, |s, y| {
            let r = s - y;
            r * r
        })?;
        Ok(averaged(models, sse, 2.0 * n, self.mu))
    }

    fn gradient(&self, model: &LinearModel, data: &Dataset) -> Result<Vector> {
        check_dims(model, data)?;
        let n = data.len() as f64;
        let mut g = vec![0.0; model.dim()];
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            let r = model.score(x) - y;
            for (gj, xj) in g.iter_mut().zip(x) {
                *gj += r * xj;
            }
        }
        let mut g = Vector::from_vec(g);
        g.scale(1.0 / n);
        g.axpy(2.0 * self.mu, model.weights())?;
        Ok(g)
    }

    fn convexity(&self) -> Convexity {
        if self.mu > 0.0 {
            Convexity::Strict
        } else {
            Convexity::Convex
        }
    }
}

/// Logistic loss `1/n Σ log(1 + e^{−ỹ hᵀx}) + μ‖h‖²` with `ỹ ∈ {−1, +1}`
/// (Table 2, row 2).
#[derive(Debug, Clone, Copy)]
pub struct LogisticLoss {
    /// L2 regularization strength `μ ≥ 0`.
    pub mu: f64,
}

impl LogisticLoss {
    /// Unregularized logistic loss.
    pub fn plain() -> Self {
        LogisticLoss { mu: 0.0 }
    }

    /// Regularized logistic loss.
    pub fn regularized(mu: f64) -> Self {
        LogisticLoss { mu }
    }
}

/// Numerically stable `log(1 + e^{-z})`: `log1p(e^{-|z|})`, plus `-z`
/// when `z ≤ 0`. Both signs share one `exp`/`ln_1p` call on `-|z|`
/// (written as a select, so `±0.0` and NaN take the `z ≤ 0` side exactly
/// as a two-branch form would), and the result is selected, not branched
/// to, on the sign of `z`.
pub fn log1p_exp_neg(z: f64) -> f64 {
    let positive = z > 0.0;
    let l = (if positive { -z } else { z }).exp().ln_1p();
    if positive {
        l
    } else {
        -z + l
    }
}

/// Numerically stable logistic sigmoid `1 / (1 + e^{-z})`.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Loss for LogisticLoss {
    fn name(&self) -> &'static str {
        "logistic"
    }

    fn value(&self, model: &LinearModel, data: &Dataset) -> Result<f64> {
        value_of(self, model, data)
    }

    fn value_batch(&self, models: &[LinearModel], data: &Dataset) -> Result<Vec<f64>> {
        let n = data.len() as f64;
        let totals = row_sums(models, data, true, |s, y| log1p_exp_neg(signed(y) * s))?;
        Ok(averaged(models, totals, n, self.mu))
    }

    fn gradient(&self, model: &LinearModel, data: &Dataset) -> Result<Vector> {
        check_dims(model, data)?;
        if data.task() != Task::BinaryClassification {
            return Err(MlError::TaskMismatch {
                expected: "classification",
            });
        }
        let n = data.len() as f64;
        let mut g = vec![0.0; model.dim()];
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            let yy = signed(y);
            // d/dw log(1+e^{-y wᵀx}) = -y x σ(-y wᵀx)
            let coeff = -yy * sigmoid(-yy * model.score(x));
            for (gj, xj) in g.iter_mut().zip(x) {
                *gj += coeff * xj;
            }
        }
        let mut g = Vector::from_vec(g);
        g.scale(1.0 / n);
        g.axpy(2.0 * self.mu, model.weights())?;
        Ok(g)
    }

    fn convexity(&self) -> Convexity {
        if self.mu > 0.0 {
            Convexity::Strict
        } else {
            Convexity::Convex
        }
    }
}

/// Hinge loss `1/n Σ max(0, 1 − ỹ hᵀx) + μ‖h‖²` with `μ > 0` (Table 2,
/// row 3 — the L2 linear SVM objective; the regularizer is what makes it
/// strictly convex).
#[derive(Debug, Clone, Copy)]
pub struct HingeLoss {
    /// L2 regularization strength `μ > 0` for the SVM objective.
    pub mu: f64,
}

impl HingeLoss {
    /// Creates the SVM hinge objective; errors when `mu` is not positive,
    /// since the unregularized hinge is not strictly convex and Pegasos
    /// requires `μ > 0`.
    pub fn new(mu: f64) -> Result<Self> {
        if !(mu > 0.0 && mu.is_finite()) {
            return Err(MlError::InvalidHyperparameter {
                name: "mu",
                value: mu,
            });
        }
        Ok(HingeLoss { mu })
    }
}

impl Loss for HingeLoss {
    fn name(&self) -> &'static str {
        "hinge"
    }

    fn value(&self, model: &LinearModel, data: &Dataset) -> Result<f64> {
        value_of(self, model, data)
    }

    fn value_batch(&self, models: &[LinearModel], data: &Dataset) -> Result<Vec<f64>> {
        let n = data.len() as f64;
        let totals = row_sums(models, data, true, |s, y| (1.0 - signed(y) * s).max(0.0))?;
        Ok(averaged(models, totals, n, self.mu))
    }

    fn gradient(&self, model: &LinearModel, data: &Dataset) -> Result<Vector> {
        check_dims(model, data)?;
        if data.task() != Task::BinaryClassification {
            return Err(MlError::TaskMismatch {
                expected: "classification",
            });
        }
        // Subgradient: -y x on the active set {1 - y wᵀx > 0}.
        let n = data.len() as f64;
        let mut g = vec![0.0; model.dim()];
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            let yy = signed(y);
            if 1.0 - yy * model.score(x) > 0.0 {
                for (gj, xj) in g.iter_mut().zip(x) {
                    *gj -= yy * xj;
                }
            }
        }
        let mut g = Vector::from_vec(g);
        g.scale(1.0 / n);
        g.axpy(2.0 * self.mu, model.weights())?;
        Ok(g)
    }

    fn convexity(&self) -> Convexity {
        // μ > 0 is enforced at construction.
        Convexity::Strict
    }
}

/// 0/1 misclassification rate (Table 2 — evaluation-only error for
/// classification models; the paper's `Σ 1_{y = (wᵀx > 0)}` counts matches,
/// so the *error* is one minus that average).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroOneLoss;

impl Loss for ZeroOneLoss {
    fn name(&self) -> &'static str {
        "zero_one"
    }

    fn value(&self, model: &LinearModel, data: &Dataset) -> Result<f64> {
        value_of(self, model, data)
    }

    /// Counts each model's mistakes as a float sum of `1.0`s, exact below
    /// `2^53` rows, so the rate has the bits of `wrong as f64 / n`.
    fn value_batch(&self, models: &[LinearModel], data: &Dataset) -> Result<Vec<f64>> {
        let n = data.len() as f64;
        let wrong = row_sums(models, data, true, |s, y| {
            let predicted = if s > 0.0 { 1.0 } else { 0.0 };
            if predicted != y {
                1.0
            } else {
                0.0
            }
        })?;
        Ok(wrong.into_iter().map(|w| w / n).collect())
    }

    fn gradient(&self, _model: &LinearModel, _data: &Dataset) -> Result<Vector> {
        Err(MlError::NotDifferentiable { loss: "zero_one" })
    }

    fn convexity(&self) -> Convexity {
        Convexity::NonConvex
    }

    fn trainable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_linalg::Matrix;

    fn reg_data() -> Dataset {
        // y = 2x exactly.
        let x = Matrix::from_row_major(4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = Vector::from_vec(vec![2.0, 4.0, 6.0, 8.0]);
        Dataset::new(x, y, Task::Regression).unwrap()
    }

    fn cls_data() -> Dataset {
        let x = Matrix::from_row_major(4, 1, vec![-2.0, -1.0, 1.0, 2.0]).unwrap();
        let y = Vector::from_vec(vec![0.0, 0.0, 1.0, 1.0]);
        Dataset::new(x, y, Task::BinaryClassification).unwrap()
    }

    #[test]
    fn squared_loss_zero_at_truth() {
        let loss = SquaredLoss::plain();
        let truth = LinearModel::new(Vector::from_vec(vec![2.0]));
        assert_eq!(loss.value(&truth, &reg_data()).unwrap(), 0.0);
        let g = loss.gradient(&truth, &reg_data()).unwrap();
        assert!(g.norm_inf() < 1e-12);
    }

    #[test]
    fn squared_loss_value_manual() {
        let loss = SquaredLoss::plain();
        let m = LinearModel::new(Vector::from_vec(vec![0.0]));
        // residuals are targets: (4+16+36+64)/(2*4) = 15.
        assert_eq!(loss.value(&m, &reg_data()).unwrap(), 15.0);
    }

    #[test]
    fn ridge_term_adds_mu_norm() {
        let plain = SquaredLoss::plain();
        let ridge = SquaredLoss::ridge(0.5);
        let m = LinearModel::new(Vector::from_vec(vec![3.0]));
        let diff = ridge.value(&m, &reg_data()).unwrap() - plain.value(&m, &reg_data()).unwrap();
        assert!((diff - 0.5 * 9.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_difference_squared() {
        let loss = SquaredLoss::ridge(0.1);
        let m = LinearModel::new(Vector::from_vec(vec![0.7]));
        let g = loss.gradient(&m, &reg_data()).unwrap();
        let eps = 1e-6;
        let up = LinearModel::new(Vector::from_vec(vec![0.7 + eps]));
        let dn = LinearModel::new(Vector::from_vec(vec![0.7 - eps]));
        let fd = (loss.value(&up, &reg_data()).unwrap() - loss.value(&dn, &reg_data()).unwrap())
            / (2.0 * eps);
        assert!((g[0] - fd).abs() < 1e-5, "grad {} vs fd {}", g[0], fd);
    }

    #[test]
    fn gradient_matches_finite_difference_logistic() {
        let loss = LogisticLoss::regularized(0.05);
        let m = LinearModel::new(Vector::from_vec(vec![0.3]));
        let d = cls_data();
        let g = loss.gradient(&m, &d).unwrap();
        let eps = 1e-6;
        let up = LinearModel::new(Vector::from_vec(vec![0.3 + eps]));
        let dn = LinearModel::new(Vector::from_vec(vec![0.3 - eps]));
        let fd = (loss.value(&up, &d).unwrap() - loss.value(&dn, &d).unwrap()) / (2.0 * eps);
        assert!((g[0] - fd).abs() < 1e-5);
    }

    #[test]
    fn logistic_loss_decreases_with_correct_confidence() {
        let loss = LogisticLoss::plain();
        let d = cls_data();
        let weak = LinearModel::new(Vector::from_vec(vec![0.1]));
        let strong = LinearModel::new(Vector::from_vec(vec![2.0]));
        assert!(loss.value(&strong, &d).unwrap() < loss.value(&weak, &d).unwrap());
    }

    #[test]
    fn hinge_loss_zero_beyond_margin() {
        let loss = HingeLoss::new(1e-9).unwrap();
        let d = cls_data();
        // Weight 1.0 gives margins y*wx = 2,1,1,2 >= 1: hinge part is 0.
        let m = LinearModel::new(Vector::from_vec(vec![1.0]));
        assert!(loss.value(&m, &d).unwrap() < 1e-8);
    }

    #[test]
    fn hinge_rejects_zero_mu() {
        assert!(HingeLoss::new(0.0).is_err());
        assert!(HingeLoss::new(-1.0).is_err());
        assert!(HingeLoss::new(f64::NAN).is_err());
    }

    #[test]
    fn hinge_subgradient_matches_fd_off_kink() {
        let loss = HingeLoss::new(0.1).unwrap();
        let d = cls_data();
        // At w = 0.3 no example sits exactly on the hinge kink.
        let m = LinearModel::new(Vector::from_vec(vec![0.3]));
        let g = loss.gradient(&m, &d).unwrap();
        let eps = 1e-7;
        let up = LinearModel::new(Vector::from_vec(vec![0.3 + eps]));
        let dn = LinearModel::new(Vector::from_vec(vec![0.3 - eps]));
        let fd = (loss.value(&up, &d).unwrap() - loss.value(&dn, &d).unwrap()) / (2.0 * eps);
        assert!((g[0] - fd).abs() < 1e-5);
    }

    #[test]
    fn zero_one_counts_mistakes() {
        let loss = ZeroOneLoss;
        let d = cls_data();
        let good = LinearModel::new(Vector::from_vec(vec![1.0]));
        assert_eq!(loss.value(&good, &d).unwrap(), 0.0);
        let bad = LinearModel::new(Vector::from_vec(vec![-1.0]));
        assert_eq!(loss.value(&bad, &d).unwrap(), 1.0);
        assert!(!loss.trainable());
        assert!(matches!(
            loss.gradient(&good, &d),
            Err(MlError::NotDifferentiable { .. })
        ));
    }

    #[test]
    fn classification_losses_reject_regression_data() {
        let d = reg_data();
        let m = LinearModel::zeros(1);
        assert!(LogisticLoss::plain().value(&m, &d).is_err());
        assert!(HingeLoss::new(0.1).unwrap().value(&m, &d).is_err());
        assert!(ZeroOneLoss.value(&m, &d).is_err());
    }

    #[test]
    fn convexity_classes() {
        assert_eq!(SquaredLoss::plain().convexity(), Convexity::Convex);
        assert_eq!(SquaredLoss::ridge(0.1).convexity(), Convexity::Strict);
        assert_eq!(LogisticLoss::plain().convexity(), Convexity::Convex);
        assert_eq!(
            LogisticLoss::regularized(0.1).convexity(),
            Convexity::Strict
        );
        assert_eq!(HingeLoss::new(0.1).unwrap().convexity(), Convexity::Strict);
        assert_eq!(ZeroOneLoss.convexity(), Convexity::NonConvex);
    }

    /// The two-branch form `log1p_exp_neg` had before it shared one
    /// `exp`/`ln_1p` pair between its sides.
    fn two_branch_log1p_exp_neg(z: f64) -> f64 {
        if z > 0.0 {
            (-z).exp().ln_1p()
        } else {
            -z + z.exp().ln_1p()
        }
    }

    #[test]
    fn log1p_exp_neg_matches_the_two_branch_form_bit_for_bit() {
        let mut zs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            f64::EPSILON,
            36.0,
            37.0,
            709.0,
            709.8,
            745.0,
            745.2,
            750.5,
            800.0,
            1e300,
            f64::MAX,
        ];
        zs.extend(zs.clone().iter().map(|z| -z));
        // A dense sweep over the range where both sides do real work, and
        // random bit patterns over every exponent.
        zs.extend((-200_000..=200_000).map(|k| k as f64 * 2.5e-4));
        let mut state = 0x2545_f491_4f6c_dd1du64;
        zs.extend((0..200_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        }));
        for z in zs {
            let (new, old) = (log1p_exp_neg(z), two_branch_log1p_exp_neg(z));
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "z = {z:e} ({:#x})",
                z.to_bits()
            );
        }
    }

    /// The row loops the batched losses replaced: one `score` per row,
    /// summed in row order.
    fn row_loop(loss: &str, mu: f64, model: &LinearModel, data: &Dataset) -> f64 {
        let n = data.len() as f64;
        let rows = (0..data.len()).map(|i| data.example(i));
        let reg = mu * model.weights().norm2_squared();
        match loss {
            "square" => {
                let mut sse = 0.0;
                for (x, y) in rows {
                    let r = model.score(x) - y;
                    sse += r * r;
                }
                sse / (2.0 * n) + reg
            }
            "logistic" => {
                let mut total = 0.0;
                for (x, y) in rows {
                    total += two_branch_log1p_exp_neg(signed(y) * model.score(x));
                }
                total / n + reg
            }
            "hinge" => {
                let mut total = 0.0;
                for (x, y) in rows {
                    total += (1.0 - signed(y) * model.score(x)).max(0.0);
                }
                total / n + reg
            }
            _ => rows.filter(|&(x, y)| model.classify(x) != y).count() as f64 / n,
        }
    }

    /// Deterministic values with zeros of both signs, subnormals and
    /// large magnitudes among ordinary ones.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0;
                match (state >> 3) % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => u * 1e-310,
                    3 => u * 1e3,
                    _ => u,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn batched_values_match_the_row_loop_bit_for_bit(
            n in 1usize..=60,
            d in 1usize..=20,
            count in 1usize..=9,
            seed in 0u64..1_000_000,
        ) {
            let x = Matrix::from_row_major(n, d, values(n * d, seed)).unwrap();
            let labels: Vec<f64> = values(n, seed ^ 1).iter().map(|v| f64::from(*v > 0.0)).collect();
            let targets = values(n, seed ^ 2);
            let cls = Dataset::new(x.clone(), Vector::from_vec(labels), Task::BinaryClassification).unwrap();
            let reg = Dataset::new(x, Vector::from_vec(targets), Task::Regression).unwrap();
            let models: Vec<LinearModel> = (0..count)
                .map(|m| LinearModel::new(Vector::from_vec(values(d, seed ^ (m as u64 + 3) << 20))))
                .collect();
            let cases: [(&str, Box<dyn Loss>, &Dataset, f64); 5] = [
                ("square", Box::new(SquaredLoss::ridge(0.25)), &reg, 0.25),
                ("logistic", Box::new(LogisticLoss::regularized(0.5)), &cls, 0.5),
                ("logistic", Box::new(LogisticLoss::plain()), &cls, 0.0),
                ("hinge", Box::new(HingeLoss::new(1e-3).unwrap()), &cls, 1e-3),
                ("zero_one", Box::new(ZeroOneLoss), &cls, 0.0),
            ];
            for (name, loss, data, mu) in cases {
                let batch = loss.value_batch(&models, data).unwrap();
                proptest::prop_assert_eq!(batch.len(), count);
                for (model, got) in models.iter().zip(&batch) {
                    let want = row_loop(name, mu, model, data);
                    proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{} batch, n={} d={}", name, n, d);
                    let single = loss.value(model, data).unwrap();
                    proptest::prop_assert_eq!(single.to_bits(), want.to_bits(), "{} value, n={} d={}", name, n, d);
                }
            }
        }
    }

    #[test]
    fn batched_values_check_every_model() {
        let d = cls_data();
        let good = LinearModel::zeros(1);
        let wide = LinearModel::zeros(2);
        assert!(matches!(
            LogisticLoss::plain().value_batch(&[good.clone(), wide], &d),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            ZeroOneLoss.value_batch(std::slice::from_ref(&good), &reg_data()),
            Err(MlError::TaskMismatch { .. })
        ));
        assert_eq!(
            HingeLoss::new(0.1).unwrap().value_batch(&[], &d).unwrap(),
            vec![]
        );
        assert_eq!(
            SquaredLoss::plain().value_batch(&[good], &d).unwrap().len(),
            1
        );
    }

    #[test]
    fn sigmoid_and_log1p_are_stable_at_extremes() {
        assert!(sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) < 1e-300);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(log1p_exp_neg(800.0).is_finite());
        assert!(log1p_exp_neg(-800.0).is_finite());
        assert!((log1p_exp_neg(0.0) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn dimension_and_empty_checks() {
        let loss = SquaredLoss::plain();
        let m = LinearModel::zeros(2);
        assert!(matches!(
            loss.value(&m, &reg_data()),
            Err(MlError::DimensionMismatch { .. })
        ));
        let empty = Dataset::new(Matrix::zeros(0, 1), Vector::zeros(0), Task::Regression).unwrap();
        let m1 = LinearModel::zeros(1);
        assert!(matches!(
            loss.value(&m1, &empty),
            Err(MlError::EmptyDataset)
        ));
    }
}
