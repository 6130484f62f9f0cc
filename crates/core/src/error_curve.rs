//! The error-transformation curve `δ ↦ E[ε(h^δ, D)]` and its inverse `φ`.
//!
//! Figure 2(b) of the paper: before prices can be optimized, the broker
//! transforms buyer-facing error levels into the mechanism's parameter
//! space. Theorem 4 guarantees the map is strictly monotone for strictly
//! convex `ε`; for the square loss it is the identity (Lemma 3); for
//! anything else Nimbus estimates it by Monte Carlo — sample `m` noisy
//! models per δ, average the observed error (this is exactly the 2000-model
//! procedure of §6.1 / Figure 6) — then smooths the estimates isotonically
//! so the empirical inverse `φ` (Theorem 6) is well defined.
//!
//! # Determinism
//!
//! Each δ point draws its samples from a private RNG stream
//! `seeded_rng(split_stream(seed, i))`, where `i` is the point's index in
//! the δ-ascending grid. The estimate is therefore a pure function of
//! `(mechanism, optimal, ε, grid, samples, seed)` — and because the streams
//! are independent, [`ErrorCurve::estimate_parallel`] fans the points out
//! over scoped threads and still produces a curve bitwise-identical to the
//! sequential [`ErrorCurve::estimate`] (the same routine on one thread).
//!
//! A point draws all of its models first, in stream order, and then scores
//! them together; scoring draws nothing, so the models are the ones a
//! draw-then-score loop would make. The batch goes to the metric's
//! [`ErrorMetric::evaluate_batch`] when the curve comes from
//! [`CurveProvider`](crate::CurveProvider), and that must return the bits
//! of one [`ErrorMetric::evaluate`] per model, so the curve does not depend
//! on how a metric scores its batch.
//!
//! [`ErrorMetric::evaluate_batch`]: nimbus_ml::ErrorMetric::evaluate_batch
//! [`ErrorMetric::evaluate`]: nimbus_ml::ErrorMetric::evaluate

use crate::isotonic::isotonic_increasing;
use crate::mechanism::RandomizedMechanism;
use crate::parallel::parallel_map;
use crate::{CoreError, Ncp, Result};
use nimbus_ml::LinearModel;
use nimbus_randkit::{seeded_rng, split_stream, RunningStats};

/// One estimated point of the error curve.
#[derive(Debug, Clone, Copy)]
pub struct ErrorCurvePoint {
    /// The noise control parameter δ.
    pub delta: f64,
    /// Convenience: the inverse parameter `x = 1/δ`.
    pub inverse: f64,
    /// Raw Monte-Carlo mean of `ε(h^δ, D)`.
    pub mean_error: f64,
    /// Standard error of that mean (0 for analytic curves).
    pub std_error: f64,
    /// Isotonically smoothed mean (non-decreasing in δ).
    pub smoothed_error: f64,
}

/// A monotone error-transformation curve over a δ grid.
#[derive(Debug, Clone)]
pub struct ErrorCurve {
    points: Vec<ErrorCurvePoint>,
}

impl ErrorCurve {
    /// Estimates the curve by Monte Carlo: for each δ, draw `samples` noisy
    /// instances from `mechanism` and average `evaluate` over them.
    ///
    /// `evaluate` is the buyer's error function `ε(·, D)` partially applied
    /// to the dataset — e.g. test-set square loss, logistic loss or 0/1
    /// error from `nimbus-ml`. Each grid point samples from its own RNG
    /// stream derived from `(seed, point index)`, so the result is
    /// deterministic for a fixed seed and independent of evaluation order.
    /// This is [`ErrorCurve::estimate_parallel`] on one thread.
    pub fn estimate<M, F>(
        mechanism: &M,
        optimal: &LinearModel,
        evaluate: F,
        deltas: &[Ncp],
        samples: usize,
        seed: u64,
    ) -> Result<ErrorCurve>
    where
        M: RandomizedMechanism + Sync + ?Sized,
        F: Fn(&LinearModel) -> Result<f64> + Sync,
    {
        Self::estimate_parallel(mechanism, optimal, evaluate, deltas, samples, seed, Some(1))
    }

    /// [`ErrorCurve::estimate`] with the δ points fanned out over up to
    /// `max_threads` scoped threads (available parallelism when `None`).
    ///
    /// Because every point owns its RNG stream `split_stream(seed, i)`, the
    /// result is **bitwise identical** to the sequential estimate for the
    /// same seed — thread scheduling cannot leak into the samples.
    pub fn estimate_parallel<M, F>(
        mechanism: &M,
        optimal: &LinearModel,
        evaluate: F,
        deltas: &[Ncp],
        samples: usize,
        seed: u64,
        max_threads: Option<usize>,
    ) -> Result<ErrorCurve>
    where
        M: RandomizedMechanism + Sync + ?Sized,
        F: Fn(&LinearModel) -> Result<f64> + Sync,
    {
        Self::estimate_batched(
            mechanism,
            optimal,
            |models: &[LinearModel]| models.iter().map(&evaluate).collect(),
            deltas,
            samples,
            seed,
            max_threads,
        )
    }

    /// [`ErrorCurve::estimate_parallel`] with a batch evaluator:
    /// `evaluate_batch` receives a δ point's `samples` noisy models at once
    /// and returns their errors in order.
    pub(crate) fn estimate_batched<M, F>(
        mechanism: &M,
        optimal: &LinearModel,
        evaluate_batch: F,
        deltas: &[Ncp],
        samples: usize,
        seed: u64,
        max_threads: Option<usize>,
    ) -> Result<ErrorCurve>
    where
        M: RandomizedMechanism + Sync + ?Sized,
        F: Fn(&[LinearModel]) -> Result<Vec<f64>> + Sync,
    {
        let sorted = Self::sorted_grid(deltas, samples)?;
        let indexed: Vec<(usize, Ncp)> = sorted.into_iter().enumerate().collect();
        let raw = parallel_map(indexed, max_threads, |(i, ncp)| {
            Self::estimate_point(mechanism, optimal, &evaluate_batch, ncp, samples, seed, i)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Self::from_raw(raw)
    }

    /// Validates and δ-ascending-sorts the grid shared by both estimators.
    fn sorted_grid(deltas: &[Ncp], samples: usize) -> Result<Vec<Ncp>> {
        if deltas.is_empty() || samples == 0 {
            return Err(CoreError::EmptyCurve);
        }
        let mut sorted = deltas.to_vec();
        sorted.sort_by(|a, b| a.delta().partial_cmp(&b.delta()).expect("NCPs are finite"));
        Ok(sorted)
    }

    /// One grid point's Monte-Carlo mean and standard error: all `samples`
    /// models drawn in turn from the point's private stream
    /// `split_stream(seed, index)`, then scored in one batch.
    fn estimate_point<M, F>(
        mechanism: &M,
        optimal: &LinearModel,
        evaluate_batch: &F,
        ncp: Ncp,
        samples: usize,
        seed: u64,
        index: usize,
    ) -> Result<(f64, f64, f64)>
    where
        M: RandomizedMechanism + ?Sized,
        F: Fn(&[LinearModel]) -> Result<Vec<f64>>,
    {
        let mut rng = seeded_rng(split_stream(seed, index as u64));
        let noisy = (0..samples)
            .map(|_| mechanism.perturb(optimal, ncp, &mut rng))
            .collect::<Result<Vec<_>>>()?;
        let errors = evaluate_batch(&noisy)?;
        debug_assert_eq!(errors.len(), samples, "one error per model");
        let mut stats = RunningStats::new();
        for error in errors {
            stats.push(error);
        }
        Ok((ncp.delta(), stats.mean(), stats.standard_error()))
    }

    /// Builds an exact curve from a closed-form expected-error map
    /// `δ ↦ E[ε(h^δ)]`, with zero Monte-Carlo uncertainty.
    pub fn from_closed_form<F>(deltas: &[Ncp], expected_error: F) -> Result<ErrorCurve>
    where
        F: Fn(f64) -> f64,
    {
        if deltas.is_empty() {
            return Err(CoreError::EmptyCurve);
        }
        let mut raw: Vec<(f64, f64, f64)> = deltas
            .iter()
            .map(|d| (d.delta(), expected_error(d.delta()), 0.0))
            .collect();
        raw.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite deltas"));
        Self::from_raw(raw)
    }

    /// Builds the exact analytic curve for the square loss, where
    /// `E[ε_s(h^δ)] = δ` (Lemma 3) with zero Monte-Carlo uncertainty.
    pub fn analytic_square_loss(deltas: &[Ncp]) -> Result<ErrorCurve> {
        Self::from_closed_form(deltas, |delta| delta)
    }

    /// Builds a curve from raw `(δ, mean, stderr)` triples (sorted by δ).
    pub(crate) fn from_raw(raw: Vec<(f64, f64, f64)>) -> Result<ErrorCurve> {
        for (i, (d, m, _)) in raw.iter().enumerate() {
            if !(d.is_finite() && *d > 0.0) {
                return Err(CoreError::InvalidCurvePoint {
                    index: i,
                    reason: "delta must be positive and finite",
                });
            }
            if !m.is_finite() {
                return Err(CoreError::InvalidCurvePoint {
                    index: i,
                    reason: "mean error must be finite",
                });
            }
        }
        let means: Vec<f64> = raw.iter().map(|r| r.1).collect();
        let weights = vec![1.0; means.len()];
        let smoothed = isotonic_increasing(&means, &weights);
        let points = raw
            .into_iter()
            .zip(smoothed)
            .map(
                |((delta, mean_error, std_error), smoothed_error)| ErrorCurvePoint {
                    delta,
                    inverse: 1.0 / delta,
                    mean_error,
                    std_error,
                    smoothed_error,
                },
            )
            .collect();
        Ok(ErrorCurve { points })
    }

    /// The curve points, ordered by increasing δ.
    pub fn points(&self) -> &[ErrorCurvePoint] {
        &self.points
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points (never true for constructed curves).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Expected error at an arbitrary δ by linear interpolation of the
    /// smoothed curve; clamps outside the grid to the boundary values.
    pub fn expected_error_at(&self, ncp: Ncp) -> f64 {
        let d = ncp.delta();
        let pts = &self.points;
        if d <= pts[0].delta {
            return pts[0].smoothed_error;
        }
        if d >= pts[pts.len() - 1].delta {
            return pts[pts.len() - 1].smoothed_error;
        }
        let idx = pts.partition_point(|p| p.delta < d);
        let (lo, hi) = (&pts[idx - 1], &pts[idx]);
        let t = (d - lo.delta) / (hi.delta - lo.delta);
        lo.smoothed_error + t * (hi.smoothed_error - lo.smoothed_error)
    }

    /// The empirical error-inverse `φ` of Theorem 6: the δ whose expected
    /// error equals `target_error`, by inverse interpolation of the smoothed
    /// curve. Errors when the target lies outside the curve's error range.
    pub fn error_inverse(&self, target_error: f64) -> Result<Ncp> {
        let pts = &self.points;
        let lo_err = pts[0].smoothed_error;
        let hi_err = pts[pts.len() - 1].smoothed_error;
        if !target_error.is_finite() || target_error < lo_err || target_error > hi_err {
            return Err(CoreError::BudgetUnsatisfiable {
                kind: "error",
                budget: target_error,
            });
        }
        // Find the first point at or above the target.
        let idx = pts.partition_point(|p| p.smoothed_error < target_error);
        if idx == 0 {
            return Ncp::new(pts[0].delta);
        }
        let (a, b) = (&pts[idx - 1], &pts[idx]);
        if (b.smoothed_error - a.smoothed_error).abs() < 1e-300 {
            // A flat (pooled) stretch: any δ in it has the target error;
            // return the largest (cheapest for the buyer).
            return Ncp::new(b.delta);
        }
        let t = (target_error - a.smoothed_error) / (b.smoothed_error - a.smoothed_error);
        Ncp::new(a.delta + t * (b.delta - a.delta))
    }

    /// `true` when the *raw* (pre-smoothing) means are already monotone
    /// non-decreasing in δ within `tol` — the empirical check behind
    /// Figure 6's claim.
    pub fn raw_is_monotone(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].mean_error >= w[0].mean_error - tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::GaussianMechanism;
    use crate::square_loss::square_loss;
    use nimbus_linalg::Vector;

    fn deltas(values: &[f64]) -> Vec<Ncp> {
        values.iter().map(|&v| Ncp::new(v).unwrap()).collect()
    }

    #[test]
    fn analytic_square_loss_curve_is_identity() {
        let c = ErrorCurve::analytic_square_loss(&deltas(&[0.5, 1.0, 2.0, 4.0])).unwrap();
        for p in c.points() {
            assert_eq!(p.mean_error, p.delta);
            assert_eq!(p.smoothed_error, p.delta);
            assert_eq!(p.std_error, 0.0);
        }
        assert!(c.raw_is_monotone(0.0));
    }

    #[test]
    fn monte_carlo_square_loss_matches_lemma3() {
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, -2.0, 0.5, 3.0]));
        let grid = deltas(&[0.5, 1.0, 2.0, 4.0, 8.0]);
        let opt = optimal.clone();
        let c = ErrorCurve::estimate(
            &GaussianMechanism,
            &optimal,
            |h| square_loss(h, &opt),
            &grid,
            8_000,
            9,
        )
        .unwrap();
        for p in c.points() {
            assert!(
                (p.mean_error - p.delta).abs() < 0.08 * p.delta.max(1.0),
                "δ={}: mean {}",
                p.delta,
                p.mean_error
            );
        }
        assert!(c.raw_is_monotone(0.05));
    }

    #[test]
    fn estimate_sorts_unordered_grids() {
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, 1.0]));
        let grid = deltas(&[4.0, 1.0, 2.0]);
        let opt = optimal.clone();
        let c = ErrorCurve::estimate(
            &GaussianMechanism,
            &optimal,
            |h| square_loss(h, &opt),
            &grid,
            200,
            2,
        )
        .unwrap();
        let ds: Vec<f64> = c.points().iter().map(|p| p.delta).collect();
        assert_eq!(ds, vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn interpolation_and_clamping() {
        let c = ErrorCurve::analytic_square_loss(&deltas(&[1.0, 3.0])).unwrap();
        assert_eq!(c.expected_error_at(Ncp::new(1.0).unwrap()), 1.0);
        assert_eq!(c.expected_error_at(Ncp::new(2.0).unwrap()), 2.0);
        assert_eq!(c.expected_error_at(Ncp::new(0.5).unwrap()), 1.0);
        assert_eq!(c.expected_error_at(Ncp::new(10.0).unwrap()), 3.0);
    }

    #[test]
    fn error_inverse_roundtrip() {
        let c = ErrorCurve::analytic_square_loss(&deltas(&[1.0, 2.0, 4.0, 8.0])).unwrap();
        for target in [1.0, 1.5, 3.0, 8.0] {
            let ncp = c.error_inverse(target).unwrap();
            assert!((ncp.delta() - target).abs() < 1e-12, "target {target}");
        }
        assert!(c.error_inverse(0.5).is_err());
        assert!(c.error_inverse(9.0).is_err());
        assert!(c.error_inverse(f64::NAN).is_err());
    }

    #[test]
    fn smoothing_fixes_sampling_dips() {
        // Hand-built raw curve with a dip at δ=2.
        let raw = vec![(1.0, 1.0, 0.1), (2.0, 0.8, 0.1), (3.0, 3.0, 0.1)];
        let c = ErrorCurve::from_raw(raw).unwrap();
        assert!(!c.raw_is_monotone(0.0));
        let sm: Vec<f64> = c.points().iter().map(|p| p.smoothed_error).collect();
        assert!(crate::isotonic::is_non_decreasing(&sm, 1e-12));
        // φ still works on the smoothed curve.
        assert!(c.error_inverse(0.95).is_ok());
    }

    #[test]
    fn rejects_empty_and_bad_inputs() {
        assert!(ErrorCurve::analytic_square_loss(&[]).is_err());
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0]));
        let opt = optimal.clone();
        let r = ErrorCurve::estimate(
            &GaussianMechanism,
            &optimal,
            |h| square_loss(h, &opt),
            &deltas(&[1.0]),
            0,
            1,
        );
        assert!(r.is_err());
    }

    #[test]
    fn parallel_estimate_is_bitwise_identical_to_sequential() {
        let optimal = LinearModel::new(Vector::from_vec(vec![1.0, -2.0, 0.5]));
        let grid = deltas(&[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]);
        let opt = optimal.clone();
        let eval = |h: &LinearModel| square_loss(h, &opt);
        let seq = ErrorCurve::estimate(&GaussianMechanism, &optimal, eval, &grid, 400, 77).unwrap();
        for threads in [Some(1), Some(3), Some(8), None] {
            let par = ErrorCurve::estimate_parallel(
                &GaussianMechanism,
                &optimal,
                eval,
                &grid,
                400,
                77,
                threads,
            )
            .unwrap();
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.points().iter().zip(par.points()) {
                assert_eq!(a.delta.to_bits(), b.delta.to_bits());
                assert_eq!(a.mean_error.to_bits(), b.mean_error.to_bits());
                assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
                assert_eq!(a.smoothed_error.to_bits(), b.smoothed_error.to_bits());
            }
        }
    }

    #[test]
    fn seed_fully_determines_the_estimate() {
        let optimal = LinearModel::new(Vector::from_vec(vec![2.0, 1.0]));
        let grid = deltas(&[0.5, 1.0, 2.0]);
        let opt = optimal.clone();
        let eval = |h: &LinearModel| square_loss(h, &opt);
        let a = ErrorCurve::estimate(&GaussianMechanism, &optimal, eval, &grid, 100, 5).unwrap();
        let b = ErrorCurve::estimate(&GaussianMechanism, &optimal, eval, &grid, 100, 5).unwrap();
        let c = ErrorCurve::estimate(&GaussianMechanism, &optimal, eval, &grid, 100, 6).unwrap();
        for (p, q) in a.points().iter().zip(b.points()) {
            assert_eq!(p.mean_error.to_bits(), q.mean_error.to_bits());
        }
        assert!(a
            .points()
            .iter()
            .zip(c.points())
            .any(|(p, q)| p.mean_error != q.mean_error));
    }
}
