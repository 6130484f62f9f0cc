//! The error-curve transformation of Figure 2(a)→(b).
//!
//! Market research naturally expresses buyer value and demand **as functions
//! of model error** ("a model with 5% misclassification is worth $80 to this
//! segment"). The optimizer, however, works over the inverse NCP `x = 1/δ`.
//! The bridge — pushing the research through the monotone error curve onto
//! the φ-mapped grid — lives with the problem type it produces:
//! [`RevenueProblem::on_phi_grid`] in `nimbus-optim`. This module keeps the
//! market-level entry point, which simply delegates and lifts the error.

use crate::Result;
use nimbus_core::ErrorCurve;
use nimbus_optim::RevenueProblem;

/// Transforms error-domain market research onto the inverse-NCP axis.
///
/// * `error_curve` — the broker's estimated (or analytic) transformation
///   curve for the buyer's chosen error function `ε`; its grid becomes the
///   version menu.
/// * `value_of_error` — buyer value at a given expected error; should be
///   non-increasing in the error (violations are isotonically repaired).
/// * `demand_of_error` — non-negative demand mass at a given expected
///   error; normalized to sum to 1 across the menu.
///
/// Delegates to [`RevenueProblem::on_phi_grid`].
pub fn transform_research<FV, FD>(
    error_curve: &ErrorCurve,
    value_of_error: FV,
    demand_of_error: FD,
) -> Result<RevenueProblem>
where
    FV: Fn(f64) -> f64,
    FD: Fn(f64) -> f64,
{
    RevenueProblem::on_phi_grid(error_curve, value_of_error, demand_of_error).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_core::Ncp;

    fn square_loss_curve() -> ErrorCurve {
        // δ grid 0.05..1 → x grid 1..20, E[ε_s] = δ.
        let deltas: Vec<Ncp> = (1..=20)
            .map(|i| Ncp::new(i as f64 * 0.05).unwrap())
            .collect();
        ErrorCurve::analytic_square_loss(&deltas).unwrap()
    }

    #[test]
    fn transforms_value_and_demand() {
        let curve = square_loss_curve();
        // Value: $100 at zero error, linearly down to $0 at error 1.
        // Demand: uniform over errors.
        let problem = transform_research(&curve, |e| 100.0 * (1.0 - e), |_| 1.0).unwrap();
        assert_eq!(problem.len(), 20);
        // Ascending x with ascending v.
        let a = problem.parameters();
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let v = problem.valuations();
        assert!(v.windows(2).all(|w| w[1] >= w[0]));
        // Highest-accuracy version (x = 1/0.05 = 20, error 0.05) is worth 95.
        assert!((v.last().unwrap() - 95.0).abs() < 1e-9);
        // Demand normalized.
        assert!((problem.total_demand() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn demand_can_concentrate_on_low_error() {
        let curve = square_loss_curve();
        let problem = transform_research(
            &curve,
            |e| 100.0 / (1.0 + e),
            // Only errors below 0.2 have demand.
            |e| if e < 0.2 { 1.0 } else { 0.0 },
        )
        .unwrap();
        let demands = problem.demands();
        let positive: usize = demands.iter().filter(|&&b| b > 0.0).count();
        assert_eq!(positive, 3, "errors 0.05, 0.10, 0.15 qualify");
        // All demand mass sits on the most accurate versions (largest a).
        let pts = problem.points();
        assert!(pts[pts.len() - 1].b > 0.0);
        assert_eq!(pts[0].b, 0.0);
    }

    #[test]
    fn non_monotone_research_is_repaired() {
        let curve = square_loss_curve();
        // A wiggly value function: not monotone in error.
        let problem =
            transform_research(&curve, |e| 50.0 + 10.0 * (e * 40.0).sin(), |_| 1.0).unwrap();
        let v = problem.valuations();
        assert!(v.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn rejects_degenerate_research() {
        let curve = square_loss_curve();
        assert!(transform_research(&curve, |_| f64::NAN, |_| 1.0).is_err());
        assert!(transform_research(&curve, |_| 1.0, |_| -1.0).is_err());
        assert!(transform_research(&curve, |_| 1.0, |_| 0.0).is_err());
    }

    #[test]
    fn end_to_end_with_revenue_dp() {
        let curve = square_loss_curve();
        let problem = transform_research(&curve, |e| 100.0 * (1.0 - e).max(0.0), |_| 1.0).unwrap();
        let dp = nimbus_optim::solve_revenue_dp(&problem).unwrap();
        assert!(dp.revenue > 0.0);
        // Prices respect the relaxed constraints on the transformed axis.
        nimbus_core::certify_menu(&problem.parameters(), &dp.prices).unwrap();
    }
}
