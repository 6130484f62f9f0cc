//! Revenue ↔ fairness (affordability) trade-off — the future-work item the
//! paper closes with (§6.3: "there is still room to improve fairness. …
//! we leave a formal study of trade-off between revenue and fairness to
//! future work").
//!
//! Fairness here is the §6.2 **affordability ratio**: the demand-weighted
//! fraction of buyer groups who can afford their desired version. Pure
//! revenue maximization sometimes prices low-valuation groups out (the
//! `Skip` branch of Algorithm 1); a seller may prefer to give up a little
//! revenue to serve more of the market.
//!
//! The implementation is a **Lagrangian sweep** over the generalized DP of
//! [`crate::dp::solve_revenue_dp_with_sale_bonus`]: a per-sale bonus `λ`
//! rewards serving a group regardless of price, so as `λ` grows the optimal
//! policy serves (weakly) more groups. Each sweep point is an *exact*
//! optimizer of `revenue + λ·served_mass` under the relaxed arbitrage-free
//! constraints, so the resulting `(revenue, affordability)` pairs lie on
//! the Pareto frontier of that scalarization.

use crate::dp::solve_revenue_dp_with_sale_bonus;
use crate::objective::{affordability_ratio, revenue};
use crate::problem::RevenueProblem;
use crate::{OptimError, Result};

/// One point on the revenue↔affordability frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The Lagrange multiplier (per-sale bonus) that produced this point.
    pub lambda: f64,
    /// Prices at the problem's points.
    pub prices: Vec<f64>,
    /// Revenue of those prices.
    pub revenue: f64,
    /// Affordability ratio of those prices.
    pub affordability: f64,
}

/// Sweeps the Lagrangian frontier for the given multipliers (sorted
/// ascending internally). Returns one exact DP solution per `λ`.
pub fn fairness_frontier(problem: &RevenueProblem, lambdas: &[f64]) -> Result<Vec<FrontierPoint>> {
    if lambdas.is_empty() {
        return Err(OptimError::EmptyProblem);
    }
    let mut ls: Vec<f64> = lambdas.to_vec();
    ls.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = Vec::with_capacity(ls.len());
    for lambda in ls {
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(OptimError::InvalidPoint {
                index: 0,
                field: "lambda",
                value: lambda,
            });
        }
        let sol = solve_revenue_dp_with_sale_bonus(problem, lambda)?;
        let aff = affordability_ratio(&sol.prices, problem)?;
        out.push(FrontierPoint {
            lambda,
            prices: sol.prices,
            revenue: sol.revenue,
            affordability: aff,
        });
    }
    Ok(out)
}

/// Maximizes revenue subject to an affordability floor `τ ∈ [0, 1]`, by
/// bisection on the Lagrange multiplier.
///
/// Returns the cheapest-multiplier frontier point whose affordability is at
/// least `τ`. A floor of `τ = 1` is always achievable: with a large enough
/// bonus every group is served (any group can be served at price ≤ its
/// valuation without violating the relaxed constraints, since scaling the
/// whole price curve down preserves them).
pub fn maximize_revenue_with_affordability_floor(
    problem: &RevenueProblem,
    tau: f64,
) -> Result<FrontierPoint> {
    if !(0.0..=1.0).contains(&tau) {
        return Err(OptimError::InvalidPoint {
            index: 0,
            field: "tau",
            value: tau,
        });
    }
    let base = solve_revenue_dp_with_sale_bonus(problem, 0.0)?;
    let base_aff = affordability_ratio(&base.prices, problem)?;
    if base_aff >= tau {
        return Ok(FrontierPoint {
            lambda: 0.0,
            revenue: base.revenue,
            affordability: base_aff,
            prices: base.prices,
        });
    }
    // Upper bound: a bonus exceeding the largest valuation always makes
    // serving every group optimal.
    let mut lo = 0.0f64;
    let mut hi = problem.valuations().last().copied().unwrap_or(1.0).max(1.0) * 4.0;
    let mut best: Option<FrontierPoint> = None;
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        let sol = solve_revenue_dp_with_sale_bonus(problem, mid)?;
        let aff = affordability_ratio(&sol.prices, problem)?;
        if aff >= tau {
            let rev = revenue(&sol.prices, problem)?;
            best = Some(FrontierPoint {
                lambda: mid,
                prices: sol.prices,
                revenue: rev,
                affordability: aff,
            });
            hi = mid;
        } else {
            lo = mid;
        }
    }
    match best {
        Some(p) => Ok(p),
        None => {
            // Fall back to the largest multiplier (maximum affordability the
            // scalarization can reach).
            let sol = solve_revenue_dp_with_sale_bonus(problem, hi)?;
            let aff = affordability_ratio(&sol.prices, problem)?;
            Ok(FrontierPoint {
                lambda: hi,
                revenue: revenue(&sol.prices, problem)?,
                affordability: aff,
                prices: sol.prices,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::certify_menu;

    /// Convex-valued instance where pure revenue maximization prices the
    /// low end out.
    fn skewed_problem() -> RevenueProblem {
        RevenueProblem::from_slices(
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0; 5],
            &[1.0, 2.0, 4.0, 30.0, 100.0],
        )
        .unwrap()
    }

    #[test]
    fn zero_lambda_recovers_plain_dp() {
        let p = RevenueProblem::figure5_example();
        let frontier = fairness_frontier(&p, &[0.0]).unwrap();
        let plain = crate::dp::solve_revenue_dp(&p).unwrap();
        assert_eq!(frontier[0].prices, plain.prices);
        assert_eq!(frontier[0].revenue, plain.revenue);
    }

    #[test]
    fn larger_lambda_weakly_increases_affordability() {
        let p = skewed_problem();
        let frontier = fairness_frontier(&p, &[0.0, 0.5, 2.0, 10.0, 100.0]).unwrap();
        for w in frontier.windows(2) {
            assert!(
                w[1].affordability >= w[0].affordability - 1e-9,
                "affordability dropped: {:?} -> {:?}",
                (w[0].lambda, w[0].affordability),
                (w[1].lambda, w[1].affordability)
            );
            assert!(
                w[1].revenue <= w[0].revenue + 1e-9,
                "revenue rose with lambda: {:?} -> {:?}",
                (w[0].lambda, w[0].revenue),
                (w[1].lambda, w[1].revenue)
            );
        }
        // The sweep actually moves: pure revenue skips someone, big lambda
        // serves everyone.
        assert!(frontier[0].affordability < 1.0);
        assert!(frontier.last().unwrap().affordability == 1.0);
    }

    #[test]
    fn frontier_prices_stay_arbitrage_free() {
        let p = skewed_problem();
        let a = p.parameters();
        for point in fairness_frontier(&p, &[0.0, 1.0, 10.0]).unwrap() {
            assert!(
                certify_menu(&a, &point.prices).is_ok(),
                "λ = {}: {:?}",
                point.lambda,
                point.prices
            );
        }
    }

    #[test]
    fn affordability_floor_is_met_with_minimal_revenue_loss() {
        let p = skewed_problem();
        let unconstrained = crate::dp::solve_revenue_dp(&p).unwrap();
        let base_aff = affordability_ratio(&unconstrained.prices, &p).unwrap();
        assert!(base_aff < 1.0, "test needs a binding constraint");

        let constrained = maximize_revenue_with_affordability_floor(&p, 1.0).unwrap();
        assert!(constrained.affordability >= 1.0 - 1e-9);
        assert!(constrained.revenue <= unconstrained.revenue + 1e-9);
        // Serving everyone still earns something.
        assert!(constrained.revenue > 0.0);
    }

    #[test]
    fn trivial_floor_returns_unconstrained_solution() {
        let p = RevenueProblem::figure5_example();
        let sol = maximize_revenue_with_affordability_floor(&p, 0.0).unwrap();
        assert_eq!(sol.lambda, 0.0);
        let plain = crate::dp::solve_revenue_dp(&p).unwrap();
        assert_eq!(sol.prices, plain.prices);
    }

    #[test]
    fn rejects_bad_inputs() {
        let p = skewed_problem();
        assert!(fairness_frontier(&p, &[]).is_err());
        assert!(fairness_frontier(&p, &[-1.0]).is_err());
        assert!(fairness_frontier(&p, &[f64::NAN]).is_err());
        assert!(maximize_revenue_with_affordability_floor(&p, 1.5).is_err());
        assert!(maximize_revenue_with_affordability_floor(&p, -0.1).is_err());
    }

    #[test]
    fn figure5_frontier_shape() {
        // On Figure 5 pure revenue already serves everyone, so the frontier
        // is flat.
        let p = RevenueProblem::figure5_example();
        let frontier = fairness_frontier(&p, &[0.0, 10.0, 100.0]).unwrap();
        for point in &frontier {
            assert_eq!(point.affordability, 1.0);
            assert!((point.revenue - 193.75).abs() < 1e-9);
        }
    }
}
