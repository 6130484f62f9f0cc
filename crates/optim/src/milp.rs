//! Algorithm 2: the exponential brute force for the exact subadditive
//! optimum (the paper's "MILP" reference solver).
//!
//! The exact revenue problem (3) asks for the best monotone **subadditive**
//! pricing — coNP-hard in general (Theorem 7). For the small instances of
//! Figures 5, 9, 10, 13 and 14 the paper solves it by brute force
//! (Appendix C): enumerate every *active set* `A` of points that are priced
//! exactly at their valuations; the tightest monotone subadditive function
//! consistent with those caps prices every point at its **min-cost
//! unbounded covering**
//!
//! ```text
//! p_A(a_j) = min { Σ_{w∈A} k_w·v_w  :  k_w ∈ ℕ,  Σ_{w∈A} k_w·a_w ≥ a_j }
//! ```
//!
//! and the best revenue over all `2^n − 1` active sets is the subadditive
//! optimum. The covering is computed exactly by scaling all `a_j` onto a
//! common integer grid (the experiments use integral inverse-NCP points),
//! then running an unbounded-knapsack DP.

use crate::objective::revenue;
use crate::problem::RevenueProblem;
use crate::{OptimError, Result};

/// Hard limit on the number of points the brute force will accept
/// (`2^20 ≈ 10⁶` subsets is already seconds of work — exactly the blow-up
/// Figures 9/10 measure).
pub const BRUTE_FORCE_LIMIT: usize = 20;

/// Maximum number of integer grid units for the covering DP.
const MAX_UNITS: usize = 4_000_000;

/// Output of the brute-force solver.
#[derive(Debug, Clone)]
pub struct BruteForceSolution {
    /// Optimal subadditive prices at the problem's points.
    pub prices: Vec<f64>,
    /// The achieved revenue.
    pub revenue: f64,
    /// Number of active sets examined (`2^n − 1`).
    pub subsets_examined: u64,
}

/// Scales the `a` values onto a common integer grid: returns per-point unit
/// counts. Tries decimal scales 1, 10, …, 10⁶.
pub(crate) fn integer_units(a: &[f64]) -> Result<Vec<usize>> {
    'scales: for exp in 0..=6u32 {
        let scale = 10f64.powi(exp as i32);
        let mut units = Vec::with_capacity(a.len());
        for &x in a {
            let scaled = x * scale;
            let rounded = scaled.round();
            if (scaled - rounded).abs() > 1e-9 * scale.max(1.0) || rounded < 1.0 {
                continue 'scales;
            }
            if rounded > MAX_UNITS as f64 {
                return Err(OptimError::NotGridRational);
            }
            units.push(rounded as usize);
        }
        return Ok(units);
    }
    Err(OptimError::NotGridRational)
}

/// Min-cost unbounded covering: `closure[u]` = cheapest way to accumulate at
/// least `u` units using items `(units_w, cost_w)` with unlimited copies.
/// `closure[0] = 0`; unreachable targets stay `+∞` (only possible with no
/// items).
pub(crate) fn min_cost_covering(items: &[(usize, f64)], max_units: usize) -> Vec<f64> {
    let mut dp = vec![f64::INFINITY; max_units + 1];
    dp[0] = 0.0;
    for u in 1..=max_units {
        for &(units, cost) in items {
            if units == 0 {
                continue;
            }
            let from = u.saturating_sub(units);
            if dp[from].is_finite() {
                let c = dp[from] + cost;
                if c < dp[u] {
                    dp[u] = c;
                }
            }
        }
    }
    dp
}

/// Solves the exact subadditive revenue problem by brute force (Algorithm 2).
pub fn solve_revenue_brute_force(problem: &RevenueProblem) -> Result<BruteForceSolution> {
    let pts = problem.points();
    let n = pts.len();
    if n > BRUTE_FORCE_LIMIT {
        return Err(OptimError::TooLarge {
            n,
            limit: BRUTE_FORCE_LIMIT,
        });
    }
    let units = integer_units(&problem.parameters())?;
    let max_units = *units.iter().max().expect("non-empty problem");

    let mut best_prices: Vec<f64> = vec![0.0; n];
    let mut best_revenue = 0.0f64;
    let total_masks: u64 = 1u64 << n;

    for mask in 1..total_masks {
        // Items of this active set: (grid units, valuation price).
        let items: Vec<(usize, f64)> = (0..n)
            .filter(|j| mask & (1 << j) != 0)
            .map(|j| (units[j], pts[j].v))
            .collect();
        let closure = min_cost_covering(&items, max_units);
        let prices: Vec<f64> = units.iter().map(|&u| closure[u]).collect();
        if prices.iter().any(|p| !p.is_finite()) {
            continue;
        }
        let r = revenue(&prices, problem)?;
        if r > best_revenue {
            best_revenue = r;
            best_prices = prices;
        }
    }

    Ok(BruteForceSolution {
        prices: best_prices,
        revenue: best_revenue,
        subsets_examined: total_masks - 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve_revenue_dp;
    use crate::problem::RevenueProblem;
    use nimbus_core::arbitrage::check_arbitrage_free;
    use nimbus_core::pricing::PiecewiseLinearPricing;
    use nimbus_core::PricingFunction;

    #[test]
    fn integer_units_handles_decimals() {
        assert_eq!(integer_units(&[1.0, 2.0, 3.0]).unwrap(), vec![1, 2, 3]);
        assert_eq!(integer_units(&[0.5, 1.5]).unwrap(), vec![5, 15]);
        assert_eq!(integer_units(&[0.25, 1.0]).unwrap(), vec![25, 100]);
        assert!(integer_units(&[std::f64::consts::PI]).is_err());
    }

    #[test]
    fn covering_dp_basics() {
        // Items: 2 units @ 3, 3 units @ 4.
        let dp = min_cost_covering(&[(2, 3.0), (3, 4.0)], 7);
        assert_eq!(dp[0], 0.0);
        assert_eq!(dp[1], 3.0); // one 2-unit item overshoots to cover 1
        assert_eq!(dp[2], 3.0);
        assert_eq!(dp[3], 4.0);
        assert_eq!(dp[4], 6.0); // 2+2
        assert_eq!(dp[5], 7.0); // 2+3
        assert_eq!(dp[6], 8.0); // 3+3
        assert_eq!(dp[7], 10.0); // 2+2+3
                                 // Monotone non-decreasing.
        assert!(dp.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn figure5_brute_force_beats_dp_but_within_factor_two() {
        let problem = RevenueProblem::figure5_example();
        let bf = solve_revenue_brute_force(&problem).unwrap();
        let dp = solve_revenue_dp(&problem).unwrap();
        assert_eq!(bf.subsets_examined, 15);
        // Exact subadditive optimum on Figure 5: prices (100, 150, 250,
        // 300) with revenue 200 (p(3) ≤ p(1)+p(2), p(4) ≤ 2·p(2)).
        assert!(
            (bf.revenue - 200.0).abs() < 1e-9,
            "bf revenue {}",
            bf.revenue
        );
        assert_eq!(bf.prices, vec![100.0, 150.0, 250.0, 300.0]);
        // Proposition 3 sandwich: CSA/2 ≤ CMBP ≤ CSA.
        assert!(dp.revenue <= bf.revenue + 1e-9);
        assert!(dp.revenue >= bf.revenue / 2.0 - 1e-9);
    }

    #[test]
    fn brute_force_prices_are_arbitrage_free() {
        let problem = RevenueProblem::figure5_example();
        let bf = solve_revenue_brute_force(&problem).unwrap();
        let pl = PiecewiseLinearPricing::new(
            problem
                .parameters()
                .into_iter()
                .zip(bf.prices.iter().copied())
                .collect(),
        )
        .unwrap();
        // Check the interpolant numerically on a fine grid.
        let grid: Vec<f64> = (1..=80).map(|i| i as f64 * 0.05).collect();
        assert!(check_arbitrage_free(&pl, &grid, 1e-9)
            .unwrap()
            .is_arbitrage_free());
        let _ = pl.price(nimbus_core::InverseNcp::new(2.5).unwrap());
    }

    #[test]
    fn concave_valuations_bf_equals_dp() {
        // When the valuation curve itself is subadditive both solvers
        // extract everything — the empirical near-equality of §6.3.
        let a = [1.0, 2.0, 3.0, 4.0];
        let v = [40.0, 70.0, 90.0, 100.0];
        let problem = RevenueProblem::from_slices(&a, &[1.0; 4], &v).unwrap();
        let bf = solve_revenue_brute_force(&problem).unwrap();
        let dp = solve_revenue_dp(&problem).unwrap();
        assert!((bf.revenue - 300.0).abs() < 1e-9);
        assert!((dp.revenue - bf.revenue).abs() < 1e-9);
    }

    #[test]
    fn single_point() {
        let problem = RevenueProblem::from_slices(&[3.0], &[2.0], &[7.0]).unwrap();
        let bf = solve_revenue_brute_force(&problem).unwrap();
        assert_eq!(bf.prices, vec![7.0]);
        assert_eq!(bf.revenue, 14.0);
        assert_eq!(bf.subsets_examined, 1);
    }

    #[test]
    fn rejects_oversized_instances() {
        let n = BRUTE_FORCE_LIMIT + 1;
        let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let v: Vec<f64> = a.iter().map(|x| x * 2.0).collect();
        let problem = RevenueProblem::from_slices(&a, &vec![1.0; n], &v).unwrap();
        assert!(matches!(
            solve_revenue_brute_force(&problem),
            Err(OptimError::TooLarge { .. })
        ));
    }

    #[test]
    fn dp_within_factor_two_on_many_random_instances() {
        // Proposition 3, verified across deterministic pseudo-random
        // instances with convex-ish valuation curves (the hard case).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..25 {
            let n = 3 + (trial % 4);
            let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let mut v = Vec::with_capacity(n);
            let mut acc = 1.0 + next() * 10.0;
            for _ in 0..n {
                acc += next() * 30.0;
                v.push((acc * 4.0).round() / 4.0);
            }
            let b: Vec<f64> = (0..n)
                .map(|_| (next() * 4.0).round() / 4.0 + 0.25)
                .collect();
            let problem = RevenueProblem::from_slices(&a, &b, &v).unwrap();
            let dp = solve_revenue_dp(&problem).unwrap();
            let bf = solve_revenue_brute_force(&problem).unwrap();
            assert!(
                dp.revenue <= bf.revenue + 1e-9,
                "trial {trial}: dp {} exceeds exact optimum {}",
                dp.revenue,
                bf.revenue
            );
            assert!(
                dp.revenue >= bf.revenue / 2.0 - 1e-9,
                "trial {trial}: dp {} below half of optimum {}",
                dp.revenue,
                bf.revenue
            );
        }
    }
}
