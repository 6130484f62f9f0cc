//! Synthetic dataset generators.
//!
//! Section 6.1 of the paper describes two simulated datasets:
//!
//! * **Simulated1** (regression): feature vectors drawn from a normal
//!   distribution; targets are the inner product of the features with a
//!   planted hyperplane.
//! * **Simulated2** (classification): feature vectors drawn from a normal
//!   distribution; the label of a point above a planted hyperplane is 1 with
//!   probability 0.95 (and symmetric below), i.e. a 5% label-flip rate.
//!
//! Both generators here are parameterized by `n`, `d`, seed and (for
//! regression) target noise, so the catalog module can also reuse them to
//! build shape-matched stand-ins for the UCI datasets of Table 3. Each one
//! collects the rows of its [`crate::stream`] twin, which the catalog reads
//! directly to fill a train/test split without a full copy.

use crate::stream::{collect, SyntheticClassificationStream, SyntheticRegressionStream};
use crate::{Dataset, Result, Task};
use nimbus_linalg::Vector;

/// Parameters for the planted-hyperplane regression generator.
#[derive(Debug, Clone)]
pub struct RegressionSpec {
    /// Number of examples to generate.
    pub n: usize,
    /// Number of features.
    pub d: usize,
    /// Standard deviation of additive Gaussian noise on the target
    /// (0.0 reproduces the paper's noiseless Simulated1 exactly).
    pub target_noise: f64,
    /// Scale applied to the generated targets, used by catalog stand-ins to
    /// land test errors in the same numeric regime as the paper's figures.
    pub target_scale: f64,
    /// Standard deviation of the feature coordinates (features are
    /// `N(0, feature_scale²)`). Model perturbation of total variance δ
    /// inflates the test MSE by `δ·feature_scale²`, so catalog stand-ins
    /// use this to match the visible error drop of the paper's Figure 6
    /// panels.
    pub feature_scale: f64,
}

impl RegressionSpec {
    /// The paper's `Simulated1` shape: noiseless linear targets.
    pub fn simulated1(n: usize, d: usize) -> Self {
        RegressionSpec {
            n,
            d,
            target_noise: 0.0,
            target_scale: 1.0,
            feature_scale: 1.0,
        }
    }
}

/// Parameters for the planted-hyperplane classification generator.
#[derive(Debug, Clone)]
pub struct ClassificationSpec {
    /// Number of examples to generate.
    pub n: usize,
    /// Number of features.
    pub d: usize,
    /// Probability that a point on the positive side of the hyperplane is
    /// labeled 1 (the paper's Simulated2 uses 0.95).
    pub positive_fidelity: f64,
}

impl ClassificationSpec {
    /// The paper's `Simulated2` shape: 95% label fidelity.
    pub fn simulated2(n: usize, d: usize) -> Self {
        ClassificationSpec {
            n,
            d,
            positive_fidelity: 0.95,
        }
    }
}

/// Generates a regression dataset with targets `y = s·(wᵀx) + noise` for a
/// planted hyperplane `w` drawn from the unit normal, features `x ~ N(0, I)`.
/// Returns the dataset and the planted hyperplane. The rows are those of
/// [`SyntheticRegressionStream`], collected.
pub fn generate_regression(spec: &RegressionSpec, seed: u64) -> Result<(Dataset, Vector)> {
    let mut stream = SyntheticRegressionStream::new(spec.clone(), seed);
    let w = Vector::from_vec(stream.planted_hyperplane());
    Ok((collect(&mut stream, Task::Regression)?, w))
}

/// Generates a classification dataset: labels follow the sign of `wᵀx` for a
/// planted hyperplane `w`, flipped with probability `1 - positive_fidelity`.
/// Returns the dataset and the planted hyperplane. The rows are those of
/// [`SyntheticClassificationStream`], collected.
pub fn generate_classification(spec: &ClassificationSpec, seed: u64) -> Result<(Dataset, Vector)> {
    let mut stream = SyntheticClassificationStream::new(spec.clone(), seed);
    let w = Vector::from_vec(stream.planted_hyperplane());
    Ok((collect(&mut stream, Task::BinaryClassification)?, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated1_targets_are_exact_inner_products() {
        let (ds, w) = generate_regression(&RegressionSpec::simulated1(200, 5), 1).unwrap();
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.num_features(), 5);
        for i in 0..ds.len() {
            let (x, y) = ds.example(i);
            let pred: f64 = x.iter().zip(w.as_slice()).map(|(a, b)| a * b).sum();
            assert!((pred - y).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn regression_noise_perturbs_targets() {
        let spec = RegressionSpec {
            n: 500,
            d: 3,
            target_noise: 1.0,
            target_scale: 1.0,
            feature_scale: 1.0,
        };
        let (ds, w) = generate_regression(&spec, 2).unwrap();
        let mut sse = 0.0;
        for i in 0..ds.len() {
            let (x, y) = ds.example(i);
            let pred: f64 = x.iter().zip(w.as_slice()).map(|(a, b)| a * b).sum();
            sse += (pred - y) * (pred - y);
        }
        let mse = sse / ds.len() as f64;
        assert!(
            (mse - 1.0).abs() < 0.2,
            "noise variance should be ~1, got {mse}"
        );
    }

    #[test]
    fn target_scale_scales_targets() {
        let spec = RegressionSpec {
            n: 100,
            d: 4,
            target_noise: 0.0,
            target_scale: 10.0,
            feature_scale: 1.0,
        };
        let (ds, w) = generate_regression(&spec, 3).unwrap();
        // Returned hyperplane absorbs the scale: predictions still match.
        for i in 0..5 {
            let (x, y) = ds.example(i);
            let pred: f64 = x.iter().zip(w.as_slice()).map(|(a, b)| a * b).sum();
            assert!((pred - y).abs() < 1e-9);
        }
    }

    #[test]
    fn simulated2_flip_rate_is_about_five_percent() {
        let (ds, w) =
            generate_classification(&ClassificationSpec::simulated2(20_000, 8), 4).unwrap();
        let mut flips = 0usize;
        for i in 0..ds.len() {
            let (x, y) = ds.example(i);
            let score: f64 = x.iter().zip(w.as_slice()).map(|(a, b)| a * b).sum();
            let ideal = if score > 0.0 { 1.0 } else { 0.0 };
            if ideal != y {
                flips += 1;
            }
        }
        let rate = flips as f64 / ds.len() as f64;
        assert!((rate - 0.05).abs() < 0.01, "flip rate {rate}");
    }

    #[test]
    fn classification_labels_are_binary_and_balanced() {
        let (ds, _) =
            generate_classification(&ClassificationSpec::simulated2(10_000, 6), 5).unwrap();
        let pos = ds.positive_rate().unwrap();
        // A zero-threshold hyperplane over symmetric features gives ~50/50.
        assert!((pos - 0.5).abs() < 0.05, "positive rate {pos}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = generate_regression(&RegressionSpec::simulated1(50, 3), 7).unwrap();
        let b = generate_regression(&RegressionSpec::simulated1(50, 3), 7).unwrap();
        assert_eq!(a.0.features().as_slice(), b.0.features().as_slice());
        assert_eq!(a.1.as_slice(), b.1.as_slice());
        let c = generate_regression(&RegressionSpec::simulated1(50, 3), 8).unwrap();
        assert_ne!(a.0.features().as_slice(), c.0.features().as_slice());
    }

    #[test]
    #[should_panic(expected = "fidelity")]
    fn classification_rejects_bad_fidelity() {
        let spec = ClassificationSpec {
            n: 1,
            d: 1,
            positive_fidelity: 0.2,
        };
        let _ = generate_classification(&spec, 0);
    }
}
