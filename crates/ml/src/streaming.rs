//! Constant-memory streaming training for least squares.
//!
//! The normal-equation system `(XᵀX/n + 2μI) w = Xᵀy/n` only needs the
//! `d×d` Gram matrix and the `d`-vector of cross moments, both of which
//! accumulate in one pass over an [`ExampleStream`]. This is how the broker
//! trains on the paper's full-size Table 3 datasets (10M rows) in `O(d²)`
//! memory — and, because the accumulators merge, the pass parallelizes over
//! row shards.

use crate::{LinearModel, MlError, Result};
use nimbus_data::stream::ExampleStream;
use nimbus_linalg::{Cholesky, Matrix, Vector};

/// One-pass accumulator of the least-squares sufficient statistics.
#[derive(Debug, Clone)]
pub struct LeastSquaresAccumulator {
    d: usize,
    count: u64,
    // Upper triangle of Σ x xᵀ, packed row-major.
    gram_upper: Vec<f64>,
    xty: Vec<f64>,
    yty: f64,
}

impl LeastSquaresAccumulator {
    /// Creates an empty accumulator for `d` features.
    pub fn new(d: usize) -> Self {
        LeastSquaresAccumulator {
            d,
            count: 0,
            gram_upper: vec![0.0; d * (d + 1) / 2],
            xty: vec![0.0; d],
            yty: 0.0,
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.d
    }

    /// Examples absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one example.
    #[expect(
        clippy::needless_range_loop,
        reason = "triangular index arithmetic is clearer explicit"
    )]
    pub fn push(&mut self, x: &[f64], y: f64) {
        debug_assert_eq!(x.len(), self.d);
        let mut idx = 0;
        for a in 0..self.d {
            let xa = x[a];
            // Row a of the upper triangle: columns a..d.
            if xa != 0.0 {
                for b in a..self.d {
                    self.gram_upper[idx + (b - a)] += xa * x[b];
                }
            }
            idx += self.d - a;
            self.xty[a] += xa * y;
        }
        self.yty += y * y;
        self.count += 1;
    }

    /// Absorbs an entire stream (from its current position).
    pub fn push_stream<S: ExampleStream + ?Sized>(&mut self, stream: &mut S) -> Result<()> {
        if stream.num_features() != self.d {
            return Err(MlError::DimensionMismatch {
                model: self.d,
                data: stream.num_features(),
            });
        }
        let mut x = vec![0.0; self.d];
        while let Some(y) = stream.next_example(&mut x) {
            self.push(&x, y);
        }
        Ok(())
    }

    /// Merges another accumulator (parallel shards).
    pub fn merge(&mut self, other: &LeastSquaresAccumulator) -> Result<()> {
        if other.d != self.d {
            return Err(MlError::DimensionMismatch {
                model: self.d,
                data: other.d,
            });
        }
        for (a, b) in self.gram_upper.iter_mut().zip(&other.gram_upper) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(&other.xty) {
            *a += b;
        }
        self.yty += other.yty;
        self.count += other.count;
        Ok(())
    }

    /// Solves the ridge system for the accumulated statistics.
    pub fn solve(&self, mu: f64) -> Result<LinearModel> {
        if self.count == 0 {
            return Err(MlError::EmptyDataset);
        }
        if !(mu >= 0.0 && mu.is_finite()) {
            return Err(MlError::InvalidHyperparameter {
                name: "mu",
                value: mu,
            });
        }
        let n = self.count as f64;
        let mut system = Matrix::zeros(self.d, self.d);
        let mut idx = 0;
        for a in 0..self.d {
            for b in a..self.d {
                let v = self.gram_upper[idx] / n;
                system.set(a, b, v);
                system.set(b, a, v);
                idx += 1;
            }
        }
        system.add_diagonal(2.0 * mu)?;
        let mut rhs = Vector::from_vec(self.xty.clone());
        rhs.scale(1.0 / n);
        let (chol, _) = Cholesky::factor_with_jitter(&system, 24)?;
        Ok(LinearModel::new(chol.solve(&rhs)?))
    }

    /// Training mean squared error of a model against the accumulated
    /// statistics: `(wᵀGw − 2wᵀ(Xᵀy) + yᵀy)/n`, no second pass needed.
    pub fn mse(&self, model: &LinearModel) -> Result<f64> {
        if model.dim() != self.d {
            return Err(MlError::DimensionMismatch {
                model: model.dim(),
                data: self.d,
            });
        }
        if self.count == 0 {
            return Err(MlError::EmptyDataset);
        }
        let w = model.weights().as_slice();
        let mut quad = 0.0;
        let mut idx = 0;
        for a in 0..self.d {
            for b in a..self.d {
                let g = self.gram_upper[idx];
                quad += if a == b {
                    w[a] * w[a] * g
                } else {
                    2.0 * w[a] * w[b] * g
                };
                idx += 1;
            }
        }
        let cross: f64 = w.iter().zip(&self.xty).map(|(wi, c)| wi * c).sum();
        Ok(((quad - 2.0 * cross + self.yty) / self.count as f64).max(0.0))
    }
}

/// Trains ridge regression in one pass over a stream.
pub fn train_least_squares_stream<S: ExampleStream + ?Sized>(
    stream: &mut S,
    mu: f64,
) -> Result<LinearModel> {
    let mut acc = LeastSquaresAccumulator::new(stream.num_features());
    acc.push_stream(stream)?;
    acc.solve(mu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearRegressionTrainer, Trainer};
    use nimbus_data::stream::{DatasetStream, SyntheticRegressionStream};
    use nimbus_data::synthetic::{generate_regression, RegressionSpec};

    #[test]
    fn streaming_matches_materialized_training() {
        let spec = RegressionSpec {
            n: 500,
            d: 6,
            target_noise: 0.7,
            target_scale: 1.0,
            feature_scale: 1.0,
        };
        let (ds, _) = generate_regression(&spec, 5).unwrap();
        let in_memory = LinearRegressionTrainer::ridge(0.01).train(&ds).unwrap();
        let mut stream = DatasetStream::new(&ds);
        let streamed = train_least_squares_stream(&mut stream, 0.01).unwrap();
        for j in 0..6 {
            assert!(
                (in_memory.weights()[j] - streamed.weights()[j]).abs() < 1e-9,
                "weight {j}"
            );
        }
    }

    #[test]
    fn synthetic_stream_training_recovers_hyperplane() {
        let spec = RegressionSpec::simulated1(50_000, 8);
        let mut stream = SyntheticRegressionStream::new(spec, 11);
        let truth = stream.planted_hyperplane();
        let model = train_least_squares_stream(&mut stream, 0.0).unwrap();
        for (j, t) in truth.iter().enumerate() {
            assert!(
                (model.weights()[j] - t).abs() < 1e-6,
                "weight {j}: {} vs {}",
                model.weights()[j],
                t
            );
        }
    }

    #[test]
    fn merge_equals_single_pass() {
        let spec = RegressionSpec {
            n: 300,
            d: 4,
            target_noise: 0.5,
            target_scale: 1.0,
            feature_scale: 1.0,
        };
        let (ds, _) = generate_regression(&spec, 3).unwrap();
        // Single pass.
        let mut all = LeastSquaresAccumulator::new(4);
        all.push_stream(&mut DatasetStream::new(&ds)).unwrap();
        // Two shards.
        let idx_a: Vec<usize> = (0..150).collect();
        let idx_b: Vec<usize> = (150..300).collect();
        let (da, db) = (ds.select(&idx_a), ds.select(&idx_b));
        let mut sa = LeastSquaresAccumulator::new(4);
        sa.push_stream(&mut DatasetStream::new(&da)).unwrap();
        let mut sb = LeastSquaresAccumulator::new(4);
        sb.push_stream(&mut DatasetStream::new(&db)).unwrap();
        sa.merge(&sb).unwrap();
        assert_eq!(sa.count(), all.count());
        let w_all = all.solve(0.05).unwrap();
        let w_merged = sa.solve(0.05).unwrap();
        for j in 0..4 {
            assert!((w_all.weights()[j] - w_merged.weights()[j]).abs() < 1e-10);
        }
    }

    #[test]
    fn accumulator_mse_matches_direct_evaluation() {
        let spec = RegressionSpec {
            n: 200,
            d: 3,
            target_noise: 1.0,
            target_scale: 1.0,
            feature_scale: 1.0,
        };
        let (ds, _) = generate_regression(&spec, 8).unwrap();
        let mut acc = LeastSquaresAccumulator::new(3);
        acc.push_stream(&mut DatasetStream::new(&ds)).unwrap();
        let model = acc.solve(0.0).unwrap();
        let acc_mse = acc.mse(&model).unwrap();
        let direct = crate::metrics::mse(&model, &ds).unwrap();
        assert!(
            (acc_mse - direct).abs() < 1e-8 * (1.0 + direct),
            "acc {acc_mse} vs direct {direct}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let acc = LeastSquaresAccumulator::new(3);
        assert!(matches!(acc.solve(0.1), Err(MlError::EmptyDataset)));
        let mut a = LeastSquaresAccumulator::new(2);
        let b = LeastSquaresAccumulator::new(3);
        assert!(a.merge(&b).is_err());
        let mut filled = LeastSquaresAccumulator::new(1);
        filled.push(&[1.0], 1.0);
        assert!(filled.solve(-1.0).is_err());
        assert!(filled.solve(f64::NAN).is_err());
        assert!(filled.mse(&LinearModel::zeros(2)).is_err());
    }
}
