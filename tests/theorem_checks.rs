//! Consolidated numeric checks for the paper's remaining lemmas — the ones
//! not already pinned by a dedicated suite. Each test names the result it
//! verifies.

use nimbus::core::arbitrage::check_arbitrage_free;
use nimbus::prelude::*;

/// Lemma 1: an arbitrage-free pricing function is also error-monotone.
/// Contrapositive, numerically: whenever the checker reports NO
/// monotonicity violations and NO subadditivity violations, the prices are
/// non-decreasing in x (hence non-increasing in the expected error); and a
/// deliberately non-monotone function is always caught through the
/// monotonicity half of the report.
#[test]
fn lemma1_arbitrage_free_implies_error_monotone() {
    // Price curve that dips: monotonicity violation must be reported.
    let dip = PiecewiseLinearPricing::new(vec![(1.0, 10.0), (2.0, 6.0), (3.0, 12.0)]).unwrap();
    let report = check_arbitrage_free(&dip, &[1.0, 2.0, 3.0], 1e-9).unwrap();
    assert!(!report.monotonicity_violations.is_empty());
    assert!(!report.is_arbitrage_free());

    // Any DP output passes the full check, and its prices are monotone in
    // x — i.e. error-monotone, since E[ε_s] = 1/x is decreasing in x.
    let problem = RevenueProblem::figure5_example();
    let dp = solve_revenue_dp(&problem).unwrap();
    assert!(dp.prices.windows(2).all(|w| w[1] >= w[0] - 1e-12));
}

/// Lemma 2: `K_G` is unbiased — verified on a fresh model/δ pair beyond the
/// mechanism suite's fixtures, with tight statistical bounds.
#[test]
fn lemma2_gaussian_mechanism_is_unbiased() {
    let optimal = LinearModel::new(nimbus::linalg::Vector::from_vec(vec![
        -4.2, 0.0, 13.7, 0.5, -0.01,
    ]));
    let ncp = Ncp::new(0.7).unwrap();
    let mut rng = seeded_rng(20190707);
    let reps = 50_000;
    let mut mean = [0.0f64; 5];
    for _ in 0..reps {
        let noisy = GaussianMechanism.perturb(&optimal, ncp, &mut rng).unwrap();
        for (m, w) in mean.iter_mut().zip(noisy.weights().as_slice()) {
            *m += w;
        }
    }
    // Per-coordinate stderr = sqrt(δ/d / reps) ≈ 0.0017; allow 5σ.
    let tol = 5.0 * (0.7f64 / 5.0 / reps as f64).sqrt();
    for (j, acc) in mean.iter().enumerate() {
        let m = acc / reps as f64;
        assert!(
            (m - optimal.weights()[j]).abs() < tol,
            "coordinate {j}: mean {m} vs {} (tol {tol})",
            optimal.weights()[j]
        );
    }
}

/// Lemma 8: any price vector satisfying the relaxed constraints of program
/// (5) is subadditive (and so is its piecewise-linear extension) — checked
/// on a family of feasible vectors, including boundary cases where the
/// unit price is exactly constant.
#[test]
fn lemma8_relaxed_constraints_imply_subadditivity() {
    let grids: Vec<Vec<(f64, f64)>> = vec![
        // Constant unit price (boundary of the constraint).
        (1..=8).map(|i| (i as f64, 3.0 * i as f64)).collect(),
        // Strictly decreasing unit price.
        (1..=8)
            .map(|i| (i as f64, 10.0 * (i as f64).sqrt()))
            .collect(),
        // Flat prices (monotone boundary).
        (1..=8).map(|i| (i as f64, 7.0)).collect(),
    ];
    let xs: Vec<f64> = (1..=16).map(|i| i as f64 * 0.5).collect();
    for points in grids {
        let pricing = PiecewiseLinearPricing::new(points.clone()).unwrap();
        assert!(
            certify_menu(pricing.breakpoints(), pricing.values()).is_ok(),
            "{points:?}"
        );
        let report = check_arbitrage_free(&pricing, &xs, 1e-9).unwrap();
        assert!(
            report.is_arbitrage_free(),
            "{points:?}: {:?}",
            report.subadditivity_violations
        );
    }
}

/// Lemma 9: for any feasible `p` of the exact program, the function
/// `q(x) = x · min_{0<y≤x} p(y)/y` is relaxed-feasible and sandwiched in
/// `[p(x)/2, p(x)]`. Verified numerically for a genuinely subadditive but
/// NOT unit-price-monotone pricing function.
#[test]
fn lemma9_half_approximation_construction() {
    // p(x) = min(x, 3 + x/4): concave piecewise → subadditive & monotone,
    // but p(y)/y jumps around the breakpoint.
    let p = |x: f64| x.min(3.0 + x / 4.0);
    let xs: Vec<f64> = (1..=80).map(|i| i as f64 * 0.25).collect();

    // Construct q on the grid.
    let q: Vec<f64> = xs
        .iter()
        .map(|&x| {
            let min_unit = xs
                .iter()
                .filter(|&&y| y <= x)
                .map(|&y| p(y) / y)
                .fold(f64::INFINITY, f64::min);
            x * min_unit
        })
        .collect();

    // Sandwich: p/2 ≤ q ≤ p.
    for (&x, &qx) in xs.iter().zip(&q) {
        let px = p(x);
        assert!(qx <= px + 1e-9, "q({x}) = {qx} > p = {px}");
        assert!(qx >= px / 2.0 - 1e-9, "q({x}) = {qx} < p/2 = {}", px / 2.0);
    }
    // Relaxed feasibility: q/x non-increasing and q non-decreasing.
    let units: Vec<f64> = q.iter().zip(&xs).map(|(q, x)| q / x).collect();
    assert!(units.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    assert!(q.windows(2).all(|w| w[1] >= w[0] - 1e-9));
}

/// Theorem 4 (non-strict direction) on a convex-but-not-strictly-convex
/// error: the hinge evaluation loss is convex in the model, so its expected
/// value is non-decreasing in δ.
#[test]
fn theorem4_convex_hinge_error_is_monotone_in_delta() {
    let (ds, _) = generate_classification(&ClassificationSpec::simulated2(600, 4), 3).unwrap();
    let mut rng = seeded_rng(5);
    let tt = train_test_split(&ds, 0.75, &mut rng).unwrap();
    let model = LogisticRegressionTrainer::new(1e-3)
        .train(&tt.train)
        .unwrap();
    let hinge = nimbus::ml::HingeLoss::new(1e-9).unwrap();
    use nimbus::ml::Loss;

    let mut last = f64::NEG_INFINITY;
    for delta in [0.05, 0.2, 0.8, 3.2] {
        let ncp = Ncp::new(delta).unwrap();
        let reps = 3_000;
        let mut total = 0.0;
        for _ in 0..reps {
            let noisy = GaussianMechanism.perturb(&model, ncp, &mut rng).unwrap();
            total += hinge.value(&noisy, &tt.test).unwrap();
        }
        let mean = total / reps as f64;
        assert!(
            mean >= last - 0.03,
            "hinge expected error decreased: {mean} after {last} at δ = {delta}"
        );
        last = mean;
    }
}

/// The §3.2 restriction pair, end to end, for the Laplace mechanism — the
/// alternative Example 2 closes with: unbiased AND error-monotone, so the
/// entire pricing stack is valid for it too.
#[test]
fn laplace_mechanism_satisfies_both_market_restrictions() {
    use nimbus::core::properties::{check_error_monotonicity, check_unbiased};
    use nimbus::core::square_loss::square_loss;
    let model = LinearModel::new(nimbus::linalg::Vector::from_vec(vec![1.0, -2.0, 3.0]));
    let mut rng = seeded_rng(99);
    let report = check_unbiased(
        &LaplaceMechanism,
        &model,
        Ncp::new(1.5).unwrap(),
        20_000,
        &mut rng,
    )
    .unwrap();
    assert!(report.is_unbiased_within(5.0));

    let grid: Vec<Ncp> = [0.1, 0.4, 1.6]
        .iter()
        .map(|&d| Ncp::new(d).unwrap())
        .collect();
    let m = model.clone();
    let mono = check_error_monotonicity(
        &LaplaceMechanism,
        &model,
        |h| square_loss(h, &m),
        &grid,
        5_000,
        &mut rng,
    )
    .unwrap();
    assert!(mono.is_monotone_within(0.05), "{:?}", mono.curve);
}
