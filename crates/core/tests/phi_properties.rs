//! Property tests for the φ error-inverse layer (Theorem 6).
//!
//! An arbitrage-free price curve posted over the inverse NCP stays monotone
//! and subadditive when re-examined on the φ-mapped grid of a Monte-Carlo
//! error curve — including the non-convex losses (logistic, hinge, 0/1)
//! whose curves are only monotone after isotonic smoothing. Also checks
//! that curve estimation is bitwise-deterministic in the seed, regardless
//! of how many threads the estimator fans out over, and of whether the
//! noisy models are scored in one batch or one at a time.

use nimbus_core::arbitrage::check_arbitrage_free_after_phi;
use nimbus_core::{CurveProvider, ErrorCurve, GaussianMechanism, Ncp, PiecewiseLinearPricing};
use nimbus_data::{Dataset, Task};
use nimbus_linalg::{Matrix, Vector};
use nimbus_ml::{ErrorMetric, LinearModel, LossMetric};
use proptest::prelude::*;

/// A small, fixed, linearly-separable-ish binary classification set: the
/// properties quantify over seeds and pricing shapes, not over data.
fn tiny_classification() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            let t = i as f64 * 0.4;
            vec![t.sin() + if i % 2 == 0 { 0.8 } else { -0.8 }, t.cos() * 0.5]
        })
        .collect();
    let labels: Vec<f64> = (0..16)
        .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
        .collect();
    Dataset::new(
        Matrix::from_rows(&rows).expect("rectangular"),
        Vector::from_vec(labels),
        Task::BinaryClassification,
    )
    .expect("valid dataset")
}

fn optimal_model() -> LinearModel {
    LinearModel::new(Vector::from_vec(vec![1.4, -0.3]))
}

fn metric_for(hinge: bool) -> Box<dyn ErrorMetric> {
    let data = tiny_classification();
    if hinge {
        Box::new(LossMetric::hinge(data, 1e-3).expect("valid hinge margin"))
    } else {
        Box::new(LossMetric::logistic(data))
    }
}

fn delta_grid() -> Vec<Ncp> {
    (1..=8)
        .map(|i| Ncp::new(0.125 * i as f64).expect("positive"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    // Theorem 6: if the posted curve p(x) is monotone + subadditive, then
    // the induced error-domain pricing p(φ(e)) admits no arbitrage. We
    // verify the numerical contrapositive: mapping a Monte-Carlo curve's
    // error levels back through φ and re-running the Theorem 5 check on
    // the collapsed grid still passes, for concave power pricings s·x^γ.
    #[test]
    fn phi_mapped_concave_prices_stay_arbitrage_free(
        scale in 5.0..200.0f64,
        gamma in 0.1..1.0f64,
        seed in 0u64..u64::MAX,
        hinge in 0u32..2,
    ) {
        let metric = metric_for(hinge == 1);
        let provider = CurveProvider::new(60, seed);
        let curve = provider
            .curve_for(metric.as_ref(), &GaussianMechanism, &optimal_model(), &delta_grid())
            .unwrap();
        let points: Vec<(f64, f64)> = curve
            .points()
            .iter()
            .map(|p| (p.inverse, scale * p.inverse.powf(gamma)))
            .collect();
        let pricing = PiecewiseLinearPricing::new(points).unwrap();
        let report = check_arbitrage_free_after_phi(&pricing, &curve, 1e-6).unwrap();
        prop_assert!(
            report.is_arbitrage_free(),
            "violations: {:?}",
            report
        );
    }

    // A convex pricing (superlinear unit price) must be caught by the same
    // post-φ re-check: the guard is not vacuous.
    #[test]
    fn phi_recheck_flags_convex_prices(
        scale in 1.0..50.0f64,
        seed in 0u64..u64::MAX,
    ) {
        let metric = metric_for(false);
        let provider = CurveProvider::new(60, seed);
        let curve = provider
            .curve_for(metric.as_ref(), &GaussianMechanism, &optimal_model(), &delta_grid())
            .unwrap();
        let points: Vec<(f64, f64)> = curve
            .points()
            .iter()
            .map(|p| (p.inverse, scale * p.inverse * p.inverse))
            .collect();
        let pricing = PiecewiseLinearPricing::new(points).unwrap();
        let report = check_arbitrage_free_after_phi(&pricing, &curve, 1e-6).unwrap();
        prop_assert!(!report.is_arbitrage_free());
    }

    // The parallel estimator must be bitwise-identical to the sequential
    // one for every seed, sample count, and thread count: the per-δ seed
    // streams make scheduling irrelevant.
    #[test]
    fn estimation_is_bitwise_deterministic_across_threads(
        seed in 0u64..u64::MAX,
        samples in 20usize..80,
        threads in 2usize..9,
        hinge in 0u32..2,
    ) {
        let metric = metric_for(hinge == 1);
        let model = optimal_model();
        let deltas = delta_grid();
        let eval = |h: &LinearModel| metric.evaluate(h).map_err(Into::into);
        let sequential =
            ErrorCurve::estimate(&GaussianMechanism, &model, eval, &deltas, samples, seed).unwrap();
        let parallel = ErrorCurve::estimate_parallel(
            &GaussianMechanism,
            &model,
            eval,
            &deltas,
            samples,
            seed,
            Some(threads),
        )
        .unwrap();
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.points().iter().zip(parallel.points()) {
            prop_assert_eq!(s.delta.to_bits(), p.delta.to_bits());
            prop_assert_eq!(s.mean_error.to_bits(), p.mean_error.to_bits());
            prop_assert_eq!(s.std_error.to_bits(), p.std_error.to_bits());
            prop_assert_eq!(s.smoothed_error.to_bits(), p.smoothed_error.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    // `CurveProvider` scores each δ point's models in one
    // `evaluate_batch`; the closure API scores them one `evaluate` at a
    // time. Both must give the same curve bits for every loss the batch
    // path specializes.
    #[test]
    fn batched_scoring_gives_the_per_model_curve(
        seed in 0u64..u64::MAX,
        samples in 1usize..40,
        threads in 1usize..4,
        loss in 0u32..3,
    ) {
        let metric: Box<dyn ErrorMetric> = match loss {
            0 => metric_for(false),
            1 => metric_for(true),
            _ => Box::new(LossMetric::zero_one(tiny_classification())),
        };
        let model = optimal_model();
        let deltas = delta_grid();
        let batched = CurveProvider::new(samples, seed)
            .with_max_threads(threads)
            .curve_for(metric.as_ref(), &GaussianMechanism, &model, &deltas)
            .unwrap();
        let eval = |h: &LinearModel| metric.evaluate(h).map_err(Into::into);
        let one_by_one =
            ErrorCurve::estimate(&GaussianMechanism, &model, eval, &deltas, samples, seed).unwrap();
        for (b, o) in batched.points().iter().zip(one_by_one.points()) {
            prop_assert_eq!(b.mean_error.to_bits(), o.mean_error.to_bits());
            prop_assert_eq!(b.std_error.to_bits(), o.std_error.to_bits());
            prop_assert_eq!(b.smoothed_error.to_bits(), o.smoothed_error.to_bits());
        }
    }
}
