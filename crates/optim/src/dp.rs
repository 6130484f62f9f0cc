//! Algorithm 1: the O(n²) dynamic program for revenue maximization.
//!
//! Solves the relaxed program (5) — maximize `T_BV(z) = Σ b_j z_j 1[z_j ≤
//! v_j]` subject to `z` non-decreasing, `z_j/a_j` non-increasing, `z ≥ 0` —
//! *exactly*, in `O(n²)` time (Theorem 13). It keeps one byte of choice
//! per `(k, Δ)` cell and two rows of values, so `n = 4096` needs ~16 MiB.
//!
//! The recursion of §5.3: `OPT(k, Δ)` is the best revenue from points
//! `k..n` when every unit price `z_j/a_j` is capped at `Δ`. Only `n+1`
//! values of `Δ` ever arise — `{v_1/a_1, …, v_n/a_n, +∞}` — because caps are
//! introduced exclusively when some point `k` is priced exactly at its
//! valuation (`Δ := v_k/a_k`). At each `(k, Δ)`:
//!
//! * if `a_k·Δ ≤ v_k`, the unique optimum prices `z_k = Δ·a_k` (Lemma 11);
//! * otherwise the solver branches (Lemma 12): either *cap* — sell to `k` at
//!   `z_k = v_k`, tightening the cap to `v_k/a_k` — or *skip* — price `k`
//!   out of reach, inheriting the unit price of `k+1`.

use crate::objective::revenue;
use crate::problem::RevenueProblem;
use crate::Result;
use nimbus_core::arbitrage::clamp_menu;

/// Output of the revenue DP.
#[derive(Debug, Clone)]
pub struct DpSolution {
    /// Optimal prices `z_j = p(a_j)`, aligned with the problem's sorted
    /// points. They pass [`nimbus_core::certify_menu`] exactly: feasible
    /// for the relaxed program (5), hence arbitrage-free.
    pub prices: Vec<f64>,
    /// The achieved revenue `T_BV(z)`.
    pub revenue: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    /// `a_k·Δ ≤ v_k`: price at the cap, `z_k = Δ·a_k`.
    Follow,
    /// Price at the valuation, introducing cap `v_k/a_k`.
    Cap,
    /// Price point `k` out of reach (same unit price as `k+1`).
    Skip,
}

/// Solves the relaxed revenue-maximization program exactly (Algorithm 1).
pub fn solve_revenue_dp(problem: &RevenueProblem) -> Result<DpSolution> {
    solve_revenue_dp_with_sale_bonus(problem, 0.0)
}

/// Algorithm 1 with a generalized objective `Σ b_j (z_j + bonus) 1[z_j ≤
/// v_j]`: each completed sale earns a flat `bonus` on top of the price.
///
/// `bonus = 0` recovers the paper's `T_BV`. A positive bonus rewards
/// *serving* a buyer group independently of the price, which is exactly a
/// Lagrangian relaxation of an affordability (fairness) floor — the future
/// work the paper's §6.3/§7 point to. See [`crate::fairness`] for the
/// frontier sweep built on top of this.
///
/// The Lemma 11/12 structure is unchanged: conditional on selling to a
/// group, the reward is still strictly increasing in the price, and the
/// branch comparison only gains a constant `b_k·bonus` on the sell side, so
/// the same `n+1` cap values and the same recursion remain exact.
pub fn solve_revenue_dp_with_sale_bonus(
    problem: &RevenueProblem,
    bonus: f64,
) -> Result<DpSolution> {
    assert!(
        bonus >= 0.0 && bonus.is_finite(),
        "sale bonus must be non-negative and finite"
    );
    let pts = problem.points();
    let n = pts.len();
    // Δ candidates: v_j/a_j for each j, plus +∞ at index n.
    let mut delta_set: Vec<f64> = pts.iter().map(|p| p.v / p.a).collect();
    delta_set.push(f64::INFINITY);
    let m = delta_set.len();

    // Two rolling rows of opt[·][di] (point k+1, then k), and choice[k][di]
    // flattened at k·m + di. Prices are rebuilt along the chosen path only.
    let mut next = vec![0.0f64; m];
    let mut row = vec![0.0f64; m];
    let mut choice = vec![Choice::Follow; n * m];

    // Base case: the last point takes the highest affordable price.
    let last = &pts[n - 1];
    for (di, &delta) in delta_set.iter().enumerate() {
        // `a > 0` is finite, so Δ = +∞ gives `Δ·a = +∞` and `capped = v`.
        let capped = last.v.min(delta * last.a);
        next[di] = last.b * (capped + bonus);
        choice[(n - 1) * m + di] = if capped < last.v {
            Choice::Follow
        } else {
            Choice::Cap
        };
    }

    // Backward induction.
    for k in (0..n.saturating_sub(1)).rev() {
        let p = &pts[k];
        for (di, &delta) in delta_set.iter().enumerate() {
            let cap_price = delta * p.a;
            // Lemma 11: price exactly at the cap. Lemma 12: cap at valuation
            // or skip this buyer group.
            let opt_cap = p.b * (p.v + bonus) + next[k];
            (row[di], choice[k * m + di]) = if cap_price <= p.v {
                (p.b * (cap_price + bonus) + next[di], Choice::Follow)
            } else if opt_cap > next[di] {
                (opt_cap, Choice::Cap)
            } else {
                (next[di], Choice::Skip)
            };
        }
        std::mem::swap(&mut next, &mut row);
    }

    // Forward pass from (k = 0, Δ = +∞) fixes the path of caps …
    let mut path = Vec::with_capacity(n);
    let mut di = m - 1;
    for k in 0..n {
        path.push((di, choice[k * m + di]));
        if choice[k * m + di] == Choice::Cap && k < n - 1 {
            di = k; // Δ := v_k / a_k
        }
    }
    // … and the prices are rebuilt backward along it. A skip inherits the
    // (k+1) unit price so the relaxed subadditive chain stays intact; on
    // the path, k+1 shares k's cap, so that is `prices[k + 1]`.
    let mut prices = vec![0.0f64; n];
    for k in (0..n).rev() {
        let (di, c) = path[k];
        prices[k] = match c {
            Choice::Follow => delta_set[di] * pts[k].a,
            Choice::Cap => pts[k].v,
            Choice::Skip => prices[k + 1] * pts[k].a / pts[k + 1].a,
        };
    }
    // Repair pass: `clamp_menu` moves each `z_k` into `[z_{k−1}, B_k]`, `B_k`
    // the largest `f64` with `B_k·a_{k−1} ≤ z_{k−1}·a_k` exactly. Raising
    // repairs skips: a skip prices `k` at the unit price of `k+1`, which can
    // dip below a valuation-capped `z_{k−1}`; the running maximum keeps every
    // unit-price constraint and prices no served buyer out (`z_j ≤ v_j ≤
    // v_k`), so the DP value is kept. Lowering repairs rounding: a knot can
    // sit an ulp over its predecessor's unit price. It prices no served buyer
    // out either; `clamp_menu` bounds the move, and revenue falls by at most
    // `Σ b_k·(z_k − z'_k)` (it could rise only where a price lies within that
    // distance above its buyer's valuation).
    clamp_menu(&problem.parameters(), &mut prices);

    let achieved = revenue(&prices, problem)?;
    #[cfg(debug_assertions)]
    {
        let served_mass: f64 = prices
            .iter()
            .zip(pts)
            .map(|(&z, p)| if z <= p.v { p.b } else { 0.0 })
            .sum();
        let objective = achieved + bonus * served_mass;
        let best = next[m - 1];
        debug_assert!(
            (objective - best).abs() <= 1e-9 * (1.0 + objective.abs()),
            "reconstructed objective {objective} disagrees with DP value {best}"
        );
    }
    Ok(DpSolution {
        prices,
        revenue: achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::affordability_ratio;
    use crate::problem::RevenueProblem;
    use nimbus_core::certify_menu;

    #[test]
    fn figure5_example_matches_hand_computation() {
        // Worked through Lemma 11/12 by hand: prices (100, 150, 225, 300),
        // revenue 0.25·(100+150+225+300) = 193.75.
        let problem = RevenueProblem::figure5_example();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert_eq!(sol.prices, vec![100.0, 150.0, 225.0, 300.0]);
        assert!((sol.revenue - 193.75).abs() < 1e-9);
    }

    #[test]
    fn solution_is_relaxed_feasible() {
        let problem = RevenueProblem::figure5_example();
        let sol = solve_revenue_dp(&problem).unwrap();
        certify_menu(&problem.parameters(), &sol.prices).unwrap();
    }

    #[test]
    fn single_point_takes_valuation() {
        let problem = RevenueProblem::from_slices(&[2.0], &[3.0], &[50.0]).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert_eq!(sol.prices, vec![50.0]);
        assert_eq!(sol.revenue, 150.0);
    }

    #[test]
    fn zero_valuations_give_zero_revenue() {
        let problem = RevenueProblem::from_slices(&[1.0, 2.0], &[1.0, 1.0], &[0.0, 0.0]).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert_eq!(sol.revenue, 0.0);
        assert!(sol.prices.iter().all(|&z| z == 0.0));
    }

    #[test]
    fn linear_valuations_are_fully_extracted() {
        // v_j = c·a_j is itself relaxed-feasible: the DP extracts it all.
        let a = [1.0, 2.0, 3.0, 4.0];
        let v: Vec<f64> = a.iter().map(|x| 10.0 * x).collect();
        let problem = RevenueProblem::from_slices(&a, &[1.0; 4], &v).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert_eq!(sol.prices, v);
        assert!((sol.revenue - 100.0).abs() < 1e-9);
    }

    #[test]
    fn concave_valuations_are_fully_extracted() {
        // A concave valuation curve has decreasing unit values, so pricing
        // at valuation is feasible (§6.2: "a concave function is also a
        // subadditive function and thus MBP can match exactly the value
        // curve").
        let a = [1.0, 2.0, 3.0, 4.0];
        let v = [40.0, 70.0, 90.0, 100.0]; // v/a = 40, 35, 30, 25 decreasing
        let problem = RevenueProblem::from_slices(&a, &[1.0; 4], &v).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert_eq!(sol.prices, v.to_vec());
        assert!((sol.revenue - 300.0).abs() < 1e-9);
    }

    #[test]
    fn dp_is_optimal_versus_exhaustive_grid_search() {
        // Tiny instances, exhaustively search relaxed-feasible price grids.
        let instances = vec![
            RevenueProblem::from_slices(&[1.0, 2.0, 3.0], &[1.0, 2.0, 1.0], &[4.0, 5.0, 9.0])
                .unwrap(),
            RevenueProblem::from_slices(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0], &[2.0, 8.0, 9.0])
                .unwrap(),
            RevenueProblem::from_slices(&[1.0, 3.0, 4.0], &[0.5, 1.0, 2.0], &[3.0, 3.0, 12.0])
                .unwrap(),
        ];
        for problem in instances {
            let sol = solve_revenue_dp(&problem).unwrap();
            // Exhaustive: prices from a fine grid 0..=max_v step 0.25.
            let a = problem.parameters();
            let vmax = problem.valuations().last().copied().unwrap();
            let steps = (vmax / 0.25) as usize + 1;
            let grid: Vec<f64> = (0..=steps).map(|i| i as f64 * 0.25).collect();
            let mut best = 0.0f64;
            for &z1 in &grid {
                for &z2 in &grid {
                    for &z3 in &grid {
                        let z = [z1, z2, z3];
                        if certify_menu(&a, &z).is_ok() {
                            let r = revenue(&z, &problem).unwrap();
                            best = best.max(r);
                        }
                    }
                }
            }
            assert!(
                sol.revenue >= best - 1e-9,
                "dp {} below grid optimum {} for {:?}",
                sol.revenue,
                best,
                problem
            );
        }
    }

    #[test]
    fn dp_beats_or_matches_any_constant_price() {
        let problem = RevenueProblem::figure5_example();
        let sol = solve_revenue_dp(&problem).unwrap();
        for &v in &problem.valuations() {
            let constant = vec![v; problem.len()];
            let r = revenue(&constant, &problem).unwrap();
            assert!(sol.revenue >= r - 1e-9, "constant {v} beats DP");
        }
    }

    #[test]
    fn affordability_of_dp_solution_is_full_on_figure5() {
        // On Figure 5 the DP prices every point at or below its valuation.
        let problem = RevenueProblem::figure5_example();
        let sol = solve_revenue_dp(&problem).unwrap();
        let aff = affordability_ratio(&sol.prices, &problem).unwrap();
        assert_eq!(aff, 1.0);
    }

    #[test]
    fn skipped_points_stay_monotone_under_zero_demand_masses() {
        // Regression: with zero demand at some points (common for
        // empirical demand curves where nobody quoted a menu point), the
        // DP skips them, and the raw skip reconstruction priced them at
        // the next point's unit price — which can dip below the previous
        // capped price and break the `z` non-decreasing constraint. The
        // instance is lifted from a live closed-loop simulation run.
        let a = [
            1.0, 7.6, 14.2, 20.8, 27.4, 34.0, 40.6, 47.2, 53.8, 60.4, 67.0, 73.6, 80.2, 86.8, 93.4,
            100.0,
        ];
        let b = [
            0.0, 0.0, 0.0, 0.0, 52.0, 45.0, 59.0, 0.0, 86.0, 83.0, 91.0, 0.0, 0.0, 30.0, 44.0, 30.0,
        ];
        let v = [
            5.26, 39.98, 50.41, 57.79, 58.80, 60.78, 64.69, 71.71, 71.71, 85.49, 85.49, 85.49,
            85.49, 85.49, 94.11, 102.67,
        ];
        let problem = RevenueProblem::from_slices(&a, &b, &v).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        assert!(
            sol.prices.windows(2).all(|w| w[0] <= w[1]),
            "prices must be non-decreasing: {:?}",
            sol.prices
        );
        certify_menu(&a, &sol.prices).unwrap();
    }

    #[test]
    fn large_instance_runs_fast_and_feasible() {
        // 400 points: O(n²) must stay well under a second.
        let n = 400;
        let a: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let v: Vec<f64> = a.iter().map(|x| 10.0 * x.sqrt()).collect(); // concave
        let b = vec![1.0; n];
        let problem = RevenueProblem::from_slices(&a, &b, &v).unwrap();
        let sol = solve_revenue_dp(&problem).unwrap();
        certify_menu(&a, &sol.prices).unwrap();
        // Concave curve: full extraction.
        let total: f64 = v.iter().sum();
        assert!((sol.revenue - total).abs() < 1e-6 * total);
    }
}
