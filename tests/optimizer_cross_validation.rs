//! Cross-validation of the revenue optimizers against each other and
//! against the paper's guarantees (Propositions 2 and 3, Theorem 13).

use nimbus::core::arbitrage::clamp_menu;
use nimbus::optim::interpolation::interpolate_l2;
use nimbus::prelude::*;
use proptest::prelude::*;

/// Random small grid-rational problems (integer `a`, quarter-unit `v`).
fn small_problem() -> impl Strategy<Value = RevenueProblem> {
    (2usize..=7)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(1u32..120, n),
                prop::collection::vec(1u32..8, n),
            )
        })
        .prop_map(|(v_increments, masses)| {
            let n = v_increments.len();
            let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let mut v = Vec::with_capacity(n);
            let mut acc = 0.0;
            for inc in &v_increments {
                acc += *inc as f64 * 0.25;
                v.push(acc);
            }
            let b: Vec<f64> = masses.iter().map(|m| *m as f64 * 0.25).collect();
            RevenueProblem::from_slices(&a, &b, &v).expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proposition3_sandwich(problem in small_problem()) {
        // C_SA / 2 ≤ C_MBP ≤ C_SA for the revenue objective.
        let dp = solve_revenue_dp(&problem).unwrap();
        let bf = solve_revenue_brute_force(&problem).unwrap();
        prop_assert!(
            dp.revenue <= bf.revenue + 1e-9,
            "DP {} exceeds exact optimum {}",
            dp.revenue, bf.revenue
        );
        prop_assert!(
            dp.revenue >= bf.revenue / 2.0 - 1e-9,
            "DP {} below half of optimum {}",
            dp.revenue, bf.revenue
        );
    }

    #[test]
    fn dp_solutions_satisfy_program5(problem in small_problem()) {
        let dp = solve_revenue_dp(&problem).unwrap();
        prop_assert!(certify_menu(&problem.parameters(), &dp.prices).is_ok());
        // Every charged price respects the valuation cap or yields zero
        // revenue for that point.
        let rev = revenue(&dp.prices, &problem).unwrap();
        prop_assert!((rev - dp.revenue).abs() < 1e-9);
    }

    #[test]
    fn dp_beats_every_baseline(problem in small_problem()) {
        let dp = solve_revenue_dp(&problem).unwrap();
        for baseline in Baseline::fit_all(&problem).unwrap() {
            let r = revenue(&baseline.prices, &problem).unwrap();
            prop_assert!(
                dp.revenue >= r - 1e-9,
                "{} ({r}) beats DP ({})",
                baseline.kind.name(),
                dp.revenue
            );
        }
    }

    #[test]
    fn dp_dominates_relaxed_feasible_grid_candidates(problem in small_problem()) {
        // Any relaxed-feasible price vector sampled from a coarse grid must
        // not beat the DP (exactness of Algorithm 1 under the relaxation).
        let dp = solve_revenue_dp(&problem).unwrap();
        let a = problem.parameters();
        let vmax = *problem.valuations().last().unwrap();
        // Coarse deterministic candidate sweep: constant-unit-price rays,
        // a rich feasible family once the clamp has removed the rounding
        // of each product.
        for k in 1..=20 {
            let unit = vmax * k as f64 / (20.0 * a.last().unwrap());
            let mut candidate: Vec<f64> = a.iter().map(|&ai| unit * ai).collect();
            clamp_menu(&a, &mut candidate);
            prop_assert!(certify_menu(&a, &candidate).is_ok());
            let r = revenue(&candidate, &problem).unwrap();
            prop_assert!(dp.revenue >= r - 1e-9);
        }
    }

    #[test]
    fn l2_interpolation_is_projection_feasible(problem in small_problem()) {
        // Reuse the valuations as interpolation targets.
        let ip = InterpolationProblem::new(
            problem
                .parameters()
                .into_iter()
                .zip(problem.valuations())
                .collect(),
        ).unwrap();
        let z = interpolate_l2(&ip).unwrap();
        prop_assert!(certify_menu(&ip.parameters(), &z).is_ok());
        // The projection never increases any target that is already
        // feasible as a whole.
        let targets = ip.targets();
        if certify_menu(&ip.parameters(), &targets).is_ok() {
            for (zi, ti) in z.iter().zip(&targets) {
                prop_assert!((zi - ti).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn brute_force_monotone_in_valuations(problem in small_problem()) {
        // Raising every valuation by a constant cannot decrease the exact
        // optimum revenue.
        let bf = solve_revenue_brute_force(&problem).unwrap();
        let raised = RevenueProblem::from_slices(
            &problem.parameters(),
            &problem.demands(),
            &problem.valuations().iter().map(|v| v + 5.0).collect::<Vec<_>>(),
        ).unwrap();
        let bf_raised = solve_revenue_brute_force(&raised).unwrap();
        prop_assert!(bf_raised.revenue >= bf.revenue - 1e-9);
    }
}

#[test]
fn dp_runtime_is_quadratic_not_exponential() {
    // 2000 points complete in well under a second — the §6.3 runtime claim
    // in miniature (the MILP would need 2^2000 subsets).
    let n = 2_000;
    let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let v: Vec<f64> = a.iter().map(|x| x.sqrt() * 5.0).collect();
    let b = vec![1.0; n];
    let problem = RevenueProblem::from_slices(&a, &b, &v).unwrap();
    let start = std::time::Instant::now();
    let dp = solve_revenue_dp(&problem).unwrap();
    let elapsed = start.elapsed();
    assert!(dp.revenue > 0.0);
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "DP took {elapsed:?}"
    );
}
