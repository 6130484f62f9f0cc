//! Objective functions: revenue `T_BV`, affordability, and the
//! interpolation objectives `T²_PI` / `T∞_PI`.

use crate::problem::{InterpolationProblem, RevenueProblem};
use crate::{OptimError, Result};

/// Relative tolerance on the "can afford" predicate `z ≤ v`.
///
/// Prices produced by reconstructing a line or piecewise interpolant can
/// exceed the intended valuation by a few ulps; without slack, a buyer
/// priced *exactly at* their valuation would spuriously walk away. The
/// paper's model has buyers purchase iff `p(a_j) ≤ v_j`, inclusive.
pub const AFFORD_EPS: f64 = 1e-9;

/// The purchase predicate `z ≤ v` with ulp slack.
pub fn affords(price: f64, valuation: f64) -> bool {
    price <= valuation + AFFORD_EPS * valuation.abs().max(1.0)
}

fn check_lengths(prices: &[f64], n: usize) -> Result<()> {
    if prices.len() != n {
        return Err(OptimError::LengthMismatch {
            prices: prices.len(),
            points: n,
        });
    }
    Ok(())
}

/// Revenue from buyer valuations: `T_BV(z) = Σ_j b_j · z_j · 1[z_j ≤ v_j]` —
/// buyers at point `j` pay `z_j` iff it does not exceed their valuation.
pub fn revenue(prices: &[f64], problem: &RevenueProblem) -> Result<f64> {
    check_lengths(prices, problem.len())?;
    Ok(prices
        .iter()
        .zip(problem.points())
        .map(|(&z, p)| if affords(z, p.v) { p.b * z } else { 0.0 })
        .sum())
}

/// Affordability ratio: the demand-weighted fraction of buyers who can
/// afford their version, `Σ b_j 1[z_j ≤ v_j] / Σ b_j` (§6.2's metric).
pub fn affordability_ratio(prices: &[f64], problem: &RevenueProblem) -> Result<f64> {
    check_lengths(prices, problem.len())?;
    let total = problem.total_demand();
    // nimbus-audit: allow(float-eq) — exact-zero guard on a sum of non-negative masses
    if total == 0.0 {
        return Ok(0.0);
    }
    let affordable: f64 = prices
        .iter()
        .zip(problem.points())
        .map(|(&z, p)| if affords(z, p.v) { p.b } else { 0.0 })
        .sum();
    Ok(affordable / total)
}

/// `T²_PI(z) = −Σ (z_j − P_j)²` — the squared-loss interpolation objective.
pub fn tpi_l2(prices: &[f64], problem: &InterpolationProblem) -> Result<f64> {
    check_lengths(prices, problem.len())?;
    Ok(-prices
        .iter()
        .zip(problem.points())
        .map(|(&z, &(_, p))| (z - p) * (z - p))
        .sum::<f64>())
}

/// `T∞_PI(z) = −Σ |z_j − P_j|` — the absolute-loss interpolation objective.
pub fn tpi_l1(prices: &[f64], problem: &InterpolationProblem) -> Result<f64> {
    check_lengths(prices, problem.len())?;
    Ok(-prices
        .iter()
        .zip(problem.points())
        .map(|(&z, &(_, p))| (z - p).abs())
        .sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> RevenueProblem {
        RevenueProblem::figure5_example()
    }

    #[test]
    fn revenue_counts_only_affordable() {
        let p = problem();
        // All at valuation: 0.25 * (100 + 150 + 280 + 350) = 220.
        let r = revenue(&[100.0, 150.0, 280.0, 350.0], &p).unwrap();
        assert!((r - 220.0).abs() < 1e-12);
        // Overpricing the last point loses its revenue entirely.
        let r = revenue(&[100.0, 150.0, 280.0, 351.0], &p).unwrap();
        assert!((r - 132.5).abs() < 1e-12);
    }

    #[test]
    fn zero_prices_give_zero_revenue_full_affordability() {
        let p = problem();
        assert_eq!(revenue(&[0.0; 4], &p).unwrap(), 0.0);
        assert_eq!(affordability_ratio(&[0.0; 4], &p).unwrap(), 1.0);
    }

    #[test]
    fn affordability_fractions() {
        let p = problem();
        let a = affordability_ratio(&[100.0, 200.0, 280.0, 400.0], &p).unwrap();
        // Points 1 and 3 affordable of 4 equal masses.
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_demand_gives_zero_affordability() {
        let p = RevenueProblem::from_slices(&[1.0, 2.0], &[0.0, 0.0], &[1.0, 2.0]).unwrap();
        assert_eq!(affordability_ratio(&[0.5, 0.5], &p).unwrap(), 0.0);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let p = problem();
        assert!(revenue(&[1.0], &p).is_err());
        assert!(affordability_ratio(&[1.0], &p).is_err());
    }

    #[test]
    fn interpolation_objectives() {
        let ip = InterpolationProblem::new(vec![(1.0, 10.0), (2.0, 20.0)]).unwrap();
        assert_eq!(tpi_l2(&[10.0, 20.0], &ip).unwrap(), 0.0);
        assert_eq!(tpi_l2(&[11.0, 18.0], &ip).unwrap(), -(1.0 + 4.0));
        assert_eq!(tpi_l1(&[11.0, 18.0], &ip).unwrap(), -3.0);
        assert!(tpi_l2(&[1.0], &ip).is_err());
    }
}
