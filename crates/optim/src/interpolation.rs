//! Price interpolation under the relaxed constraints (Section 5's first
//! scenario).
//!
//! Given target prices `P_j` at parameters `a_j`, find relaxed-feasible
//! prices `z` (non-negative, non-decreasing, unit price non-increasing)
//! closest to the targets:
//!
//! * `T²_PI` — minimize `Σ (z_j − P_j)²`. The feasible set is an
//!   intersection of three closed convex cones, so the exact Euclidean
//!   projection is computed by **Dykstra's alternating projections**, with
//!   each cone projection an `O(n)` pool-adjacent-violators (PAV) pass:
//!   the monotone cone directly, the unit-price cone after the substitution
//!   `u_j = z_j/a_j` (weights `a_j²`), and the non-negative orthant by
//!   clamping.
//! * `T∞_PI` — minimize `Σ |z_j − P_j|`. Non-smooth; solved by projected
//!   subgradient descent with a decaying step, keeping the best feasible
//!   iterate. Proposition 2 still bounds the loss of the relaxation itself.

use crate::objective::tpi_l1;
use crate::problem::InterpolationProblem;
use crate::Result;
use nimbus_core::arbitrage::clamp_menu;
use nimbus_core::isotonic::{isotonic_decreasing, isotonic_increasing};

/// Tolerance on Dykstra's fixed-point iteration.
const DYKSTRA_TOL: f64 = 1e-11;
/// Iteration cap for Dykstra (each sweep is `O(n)`).
const DYKSTRA_MAX_SWEEPS: usize = 5_000;

/// Exact Euclidean projection of `targets` onto the relaxed-feasible set
/// `{z ≥ 0, z non-decreasing, z_j/a_j non-increasing}` via Dykstra.
///
/// This solves the `T²_PI` price-interpolation problem (5) exactly: for a
/// least-squares objective, maximizing `−Σ(z_j − P_j)²` over a convex set is
/// the projection of `P` onto that set.
pub fn project_relaxed_feasible(parameters: &[f64], targets: &[f64]) -> Vec<f64> {
    assert_eq!(parameters.len(), targets.len());
    let n = targets.len();
    if n == 0 {
        return Vec::new();
    }
    let unit_weights: Vec<f64> = vec![1.0; n];
    let a2: Vec<f64> = parameters.iter().map(|a| a * a).collect();

    let mut z: Vec<f64> = targets.to_vec();
    // Dykstra correction terms, one per constraint set.
    let mut inc1 = vec![0.0; n];
    let mut inc2 = vec![0.0; n];
    let mut inc3 = vec![0.0; n];

    for _ in 0..DYKSTRA_MAX_SWEEPS {
        let before = z.clone();

        // Set 1: monotone non-decreasing cone.
        let y1: Vec<f64> = z.iter().zip(&inc1).map(|(z, c)| z + c).collect();
        let p1 = isotonic_increasing(&y1, &unit_weights);
        for i in 0..n {
            inc1[i] = y1[i] - p1[i];
        }
        z = p1;

        // Set 2: unit price non-increasing; substitute u = z/a with
        // weights a² so the projection stays Euclidean in z.
        let y2: Vec<f64> = z.iter().zip(&inc2).map(|(z, c)| z + c).collect();
        let u: Vec<f64> = y2.iter().zip(parameters).map(|(z, a)| z / a).collect();
        let pu = isotonic_decreasing(&u, &a2);
        let p2: Vec<f64> = pu.iter().zip(parameters).map(|(u, a)| u * a).collect();
        for i in 0..n {
            inc2[i] = y2[i] - p2[i];
        }
        z = p2;

        // Set 3: non-negative orthant.
        let y3: Vec<f64> = z.iter().zip(&inc3).map(|(z, c)| z + c).collect();
        let p3: Vec<f64> = y3.iter().map(|v| v.max(0.0)).collect();
        for i in 0..n {
            inc3[i] = y3[i] - p3[i];
        }
        z = p3;

        let delta: f64 = z
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if delta < DYKSTRA_TOL {
            break;
        }
    }
    // Snap to exact feasibility: `z` is non-negative after set 3, and the
    // certificate's clamp removes the residual O(tol) violations left by
    // truncating Dykstra, and the rounding ones.
    clamp_menu(parameters, &mut z);
    z
}

/// Solves the `T²_PI` interpolation problem exactly.
pub fn interpolate_l2(problem: &InterpolationProblem) -> Result<Vec<f64>> {
    Ok(project_relaxed_feasible(
        &problem.parameters(),
        &problem.targets(),
    ))
}

/// Approximately solves the `T∞_PI` (absolute loss) interpolation problem
/// via projected subgradient descent, returning the best feasible iterate.
pub fn interpolate_l1(problem: &InterpolationProblem, iterations: usize) -> Result<Vec<f64>> {
    let a = problem.parameters();
    let targets = problem.targets();
    // The L2 projection is an excellent warm start (and already feasible).
    let mut z = project_relaxed_feasible(&a, &targets);
    let mut best = z.clone();
    let mut best_obj = tpi_l1(&z, problem)?;

    let scale = targets.iter().cloned().fold(1.0_f64, f64::max);
    for t in 1..=iterations.max(1) {
        let step = 0.5 * scale / (t as f64).sqrt();
        // Subgradient of Σ|z − P| is sign(z − P).
        for (zi, pi) in z.iter_mut().zip(&targets) {
            let g = (*zi - pi).signum();
            *zi -= step * g;
        }
        z = project_relaxed_feasible(&a, &z);
        let obj = tpi_l1(&z, problem)?;
        if obj > best_obj {
            best_obj = obj;
            best = z.clone();
        }
    }
    debug_assert!(nimbus_core::certify_menu(&a, &best).is_ok());
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::tpi_l2;
    use nimbus_core::certify_menu;

    #[test]
    fn feasible_targets_are_unchanged() {
        // Already monotone with decreasing unit price.
        let a = vec![1.0, 2.0, 4.0];
        let p = vec![10.0, 16.0, 24.0];
        let z = project_relaxed_feasible(&a, &p);
        for (zi, pi) in z.iter().zip(&p) {
            assert!((zi - pi).abs() < 1e-8, "{z:?}");
        }
    }

    #[test]
    fn projection_is_feasible() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let p = vec![5.0, 30.0, 20.0, 100.0]; // wildly infeasible
        let z = project_relaxed_feasible(&a, &p);
        assert!(certify_menu(&a, &z).is_ok(), "{z:?}");
    }

    #[test]
    fn projection_optimality_via_perturbation() {
        // The projection minimizes Σ(z − P)² over the feasible cone; any
        // feasible perturbation must not do better.
        let a = vec![1.0, 2.0, 3.0];
        let targets = [1.0, 8.0, 6.0];
        let problem =
            InterpolationProblem::new(a.iter().copied().zip(targets.iter().copied()).collect())
                .unwrap();
        let z = interpolate_l2(&problem).unwrap();
        let base = -tpi_l2(&z, &problem).unwrap();

        // Random-ish feasible candidates from a coarse grid.
        let grid: Vec<f64> = (0..=40).map(|i| i as f64 * 0.25).collect();
        for &c1 in &grid {
            for &c2 in &grid {
                for &c3 in &grid {
                    let cand = [c1, c2, c3];
                    if certify_menu(&a, &cand).is_ok() {
                        let obj = -tpi_l2(&cand, &problem).unwrap();
                        assert!(
                            obj >= base - 1e-6,
                            "grid point {cand:?} (obj {obj}) beats projection {z:?} (obj {base})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn negative_targets_clamp_to_zero() {
        let a = vec![1.0, 2.0];
        let p = vec![-5.0, -1.0];
        let z = project_relaxed_feasible(&a, &p);
        assert!(z.iter().all(|&v| v >= 0.0));
        assert!(z.iter().all(|&v| v.abs() < 1e-8));
    }

    #[test]
    fn l1_solution_is_feasible_and_not_worse_than_l2_start() {
        let problem =
            InterpolationProblem::new(vec![(1.0, 2.0), (2.0, 10.0), (3.0, 9.0), (4.0, 30.0)])
                .unwrap();
        let l2 = interpolate_l2(&problem).unwrap();
        let l1 = interpolate_l1(&problem, 200).unwrap();
        certify_menu(&problem.parameters(), &l1).unwrap();
        let obj_l1 = tpi_l1(&l1, &problem).unwrap();
        let obj_l2_start = tpi_l1(&l2, &problem).unwrap();
        assert!(obj_l1 >= obj_l2_start - 1e-9);
    }

    #[test]
    fn empty_projection() {
        assert!(project_relaxed_feasible(&[], &[]).is_empty());
    }

    #[test]
    fn single_point_projection_clamps_only() {
        let z = project_relaxed_feasible(&[2.0], &[7.0]);
        assert_eq!(z, vec![7.0]);
        let z = project_relaxed_feasible(&[2.0], &[-3.0]);
        assert_eq!(z, vec![0.0]);
    }

    #[test]
    fn proposition2_additive_bound_holds() {
        // CSA + Σ T_i(0)/2 ≤ CMBP ≤ CSA for concave non-positive T_i.
        // For T², T(0) = -ΣP². The relaxed optimum (our projection) must be
        // within that additive bound of the unconstrained optimum (CSA ≤ 0
        // is bounded above by 0 = perfect interpolation).
        let problem = InterpolationProblem::new(vec![
            (1.0, 3.0),
            (2.0, 100.0), // hopelessly superadditive target
        ])
        .unwrap();
        let z = interpolate_l2(&problem).unwrap();
        let cmbp = tpi_l2(&z, &problem).unwrap();
        let sum_p2: f64 = problem.targets().iter().map(|p| p * p).sum();
        // CSA ≤ 0 always; bound: CMBP ≥ CSA - ΣP²/2 ≥ -ΣP²/2 ... the paper's
        // guarantee implies CMBP ≥ -ΣP² in the worst case; sanity-check the
        // projection is no worse than pricing everything at zero.
        assert!(cmbp >= -sum_p2);
    }
}
