//! Property-based tests for the revenue optimizer beyond the cross-crate
//! suite: covering DP laws, fairness monotonicity, feasibility decisions,
//! and certified DP menus against the arbitrage attack search.

use nimbus_core::arbitrage::find_attack;
use nimbus_core::{certify_menu, PiecewiseLinearPricing};
use nimbus_optim::fairness::fairness_frontier;
use nimbus_optim::feasibility::{subadditive_interpolation_feasible, unbounded_subset_sum};
use nimbus_optim::interpolation::project_relaxed_feasible;
use nimbus_optim::{
    solve_revenue_dp, solve_revenue_dp_with_sale_bonus, InterpolationProblem, RevenueProblem,
};
use proptest::prelude::*;

fn random_problem() -> impl Strategy<Value = RevenueProblem> {
    (2usize..8)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(0.25..40.0f64, n),
                prop::collection::vec(0.25..3.0f64, n),
            )
        })
        .prop_map(|(incs, masses)| {
            let n = incs.len();
            let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let mut v = Vec::with_capacity(n);
            let mut acc = 0.0;
            for i in &incs {
                acc += i;
                v.push(acc);
            }
            RevenueProblem::from_slices(&a, &masses, &v).expect("valid")
        })
}

/// Random problems on irregular knots: gaps, demand masses and valuation
/// steps are all random, so the DP's unit prices are rounded quotients.
fn irregular_problem() -> impl Strategy<Value = RevenueProblem> {
    (2usize..16)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(0.05..3.0f64, n),
                prop::collection::vec(0.0..2.0f64, n),
                prop::collection::vec(0.0..20.0f64, n),
            )
        })
        .prop_map(|(gaps, masses, steps)| {
            let cumulative = |xs: &[f64]| {
                xs.iter()
                    .scan(0.0, |acc, x| {
                        *acc += x;
                        Some(*acc)
                    })
                    .collect::<Vec<f64>>()
            };
            let mut b = masses;
            b[0] += 0.1;
            RevenueProblem::from_slices(&cumulative(&gaps), &b, &cumulative(&steps)).expect("valid")
        })
}

proptest! {
    #[test]
    fn dp_objective_is_monotone_in_bonus(problem in random_problem(), b1 in 0.0..5.0f64, b2 in 5.0..50.0f64) {
        // The generalized objective value (revenue + bonus·served) is
        // monotone in the bonus; affordability weakly increases.
        let s1 = solve_revenue_dp_with_sale_bonus(&problem, b1).unwrap();
        let s2 = solve_revenue_dp_with_sale_bonus(&problem, b2).unwrap();
        let aff = |prices: &[f64]| {
            nimbus_optim::affordability_ratio(prices, &problem).unwrap()
        };
        prop_assert!(aff(&s2.prices) >= aff(&s1.prices) - 1e-9);
        prop_assert!(s2.revenue <= s1.revenue + 1e-9, "revenue cannot rise with bonus");
    }

    #[test]
    fn frontier_is_pareto_ordered(problem in random_problem()) {
        let frontier = fairness_frontier(&problem, &[0.0, 1.0, 5.0, 25.0, 100.0]).unwrap();
        for w in frontier.windows(2) {
            prop_assert!(w[1].affordability >= w[0].affordability - 1e-9);
            prop_assert!(w[1].revenue <= w[0].revenue + 1e-9);
        }
        // Every frontier point is relaxed-feasible.
        let a = problem.parameters();
        for p in &frontier {
            prop_assert!(certify_menu(&a, &p.prices).is_ok());
        }
    }

    #[test]
    fn projection_is_non_expansive(
        targets1 in prop::collection::vec(0.0..100.0f64, 2..12),
        shift in 0.0..10.0f64,
    ) {
        // Euclidean projections onto convex sets are 1-Lipschitz.
        let n = targets1.len();
        let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let targets2: Vec<f64> = targets1.iter().map(|t| t + shift).collect();
        let p1 = project_relaxed_feasible(&a, &targets1);
        let p2 = project_relaxed_feasible(&a, &targets2);
        let dist_in: f64 = targets1
            .iter()
            .zip(&targets2)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let dist_out: f64 = p1
            .iter()
            .zip(&p2)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        prop_assert!(dist_out <= dist_in + 1e-6, "projection expanded: {dist_out} > {dist_in}");
    }

    #[test]
    fn scaled_problems_scale_revenues(problem in random_problem(), scale in 0.5..4.0f64) {
        // Scaling all valuations scales the optimal revenue by the same
        // factor (the constraint cone is scale-invariant).
        let dp = solve_revenue_dp(&problem).unwrap();
        let scaled = RevenueProblem::from_slices(
            &problem.parameters(),
            &problem.demands(),
            &problem.valuations().iter().map(|v| v * scale).collect::<Vec<_>>(),
        ).unwrap();
        let dp_scaled = solve_revenue_dp(&scaled).unwrap();
        prop_assert!(
            (dp_scaled.revenue - scale * dp.revenue).abs() < 1e-6 * (1.0 + dp.revenue),
            "scaled {} vs expected {}",
            dp_scaled.revenue,
            scale * dp.revenue
        );
    }

    #[test]
    fn feasibility_matches_subset_sum_reduction(
        w1 in 2u64..8,
        w2 in 2u64..8,
        k in 9u64..30,
    ) {
        // Theorem 7 reduction as a property: interpolation through
        // {(w, w)} ∪ {(K, K + 1/2)} is feasible iff K is NOT an unbounded
        // subset sum of the weights.
        prop_assume!(w1 != w2 && w1 < k && w2 < k);
        let weights = vec![w1.min(w2), w1.max(w2)];
        let has_sum = unbounded_subset_sum(&weights, k);
        let problem = nimbus_optim::feasibility::theorem7_reduction(&weights, k).unwrap();
        let feasible = subadditive_interpolation_feasible(&problem).unwrap();
        prop_assert_eq!(feasible, !has_sum);
    }

    #[test]
    fn closure_interpolation_of_identity_is_feasible(
        a_values in prop::collection::vec(1u32..60, 1..8),
    ) {
        // P_j = c·a_j is always feasible for any positive c (p(x) = c·x).
        let mut xs: Vec<f64> = a_values.iter().map(|&v| v as f64).collect();
        xs.sort_by(|p, q| p.partial_cmp(q).unwrap());
        xs.dedup();
        let points: Vec<(f64, f64)> = xs.iter().map(|&x| (x, 2.5 * x)).collect();
        let problem = InterpolationProblem::new(points).unwrap();
        prop_assert!(subadditive_interpolation_feasible(&problem).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certified_dp_menus_resist_a_fine_attack_search(
        problem in irregular_problem(),
        fractions in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        // The certificate is a proof over all x, so no combination of
        // purchases, at knots or between them, undercuts any target: at a
        // knot, between knots, or past the last knot up to twice it.
        let dp = solve_revenue_dp(&problem).unwrap();
        let a = problem.parameters();
        prop_assert!(certify_menu(&a, &dp.prices).is_ok(), "{:?}", dp.prices);
        let pricing =
            PiecewiseLinearPricing::new(a.iter().copied().zip(dp.prices).collect()).unwrap();
        let mut candidates = a.clone();
        candidates.push(0.5 * a[0]);
        candidates.extend(a.windows(2).map(|w| 0.5 * (w[0] + w[1])));
        let top = 2.0 * a[a.len() - 1];
        let between = fractions.iter().map(|f| (0.01 + 0.99 * f) * top);
        for target in a.iter().copied().chain([top]).chain(between) {
            let attack = find_attack(&pricing, target, &candidates, 4_000).unwrap();
            prop_assert!(attack.is_none(), "attack at {target}: {attack:?}");
        }
    }
}
