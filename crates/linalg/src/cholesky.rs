//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The broker's one-time training cost for ridge / ordinary least squares is
//! dominated by solving the normal equations `(XᵀX + μI) w = Xᵀy`. The system
//! matrix is symmetric positive definite whenever `μ > 0` (or `X` has full
//! column rank), which makes Cholesky the canonical solver: `O(d³/3)` flops,
//! unconditionally stable, no pivoting.

use crate::triangular::{solve_lower, solve_lower_transposed};
use crate::{LinalgError, Matrix, Result, Vector};

/// A lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is garbage (e.g. a partially assembled Gram
    /// matrix). Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive, which for the normal equations signals collinear
    /// features and no (or insufficient) regularization.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if !a.is_finite() {
            return Err(LinalgError::NonFinite { op: "cholesky" });
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite {
                            pivot: i,
                            value: sum,
                        });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a`, retrying with exponentially growing diagonal jitter
    /// when `a` is numerically semi-definite. Returns the factorization and
    /// the jitter that was finally added (0.0 when none was needed).
    ///
    /// This is the trainer-facing entry point: with float rounding a Gram
    /// matrix of nearly collinear features can have a tiny negative pivot
    /// even though the exact matrix is PSD.
    pub fn factor_with_jitter(a: &Matrix, max_attempts: usize) -> Result<(Self, f64)> {
        match Cholesky::factor(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        // Scale the initial jitter with the matrix magnitude so that it is
        // meaningful for both tiny and huge Gram matrices.
        let scale = a.frobenius_norm().max(1.0);
        let mut jitter = scale * 1e-12;
        for _ in 0..max_attempts {
            let mut aj = a.clone();
            aj.add_diagonal(jitter)?;
            match Cholesky::factor(&aj) {
                Ok(c) => return Ok((c, jitter)),
                Err(LinalgError::NotPositiveDefinite { .. }) => jitter *= 10.0,
                Err(e) => return Err(e),
            }
        }
        Err(LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: jitter,
        })
    }

    /// Solves `A x = b` via the two triangular solves `L y = b`, `Lᵀ x = y`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let y = solve_lower(&self.l, b)?;
        solve_lower_transposed(&self.l, &y)
    }

    /// Log-determinant of `A`, i.e. `2 Σ log L_ii`. Useful as a conditioning
    /// diagnostic for the trained system.
    pub fn log_det(&self) -> f64 {
        let n = self.l.rows();
        (0..n).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Reconstructs `A = L Lᵀ` (testing / diagnostics only — `O(n³)`).
    pub fn reconstruct(&self) -> Matrix {
        let lt = self.l.transposed();
        self.l.matmul(&lt).expect("square factors always multiply")
    }
}

/// One-shot convenience: solves the SPD system `A x = b`.
pub fn solve_spd(a: &Matrix, b: &Vector) -> Result<Vector> {
    Cholesky::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for a fixed B, hence strictly positive definite.
        let b = Matrix::from_row_major(3, 3, vec![1.0, 2.0, 0.0, 0.5, 1.0, 1.0, -1.0, 0.0, 2.0])
            .unwrap();
        let mut a = b.matmul(&b.transposed()).unwrap();
        a.add_diagonal(1.0).unwrap();
        a
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let r = c.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                assert!((a.get(i, j) - r.get(i, j)).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd3();
        let x_true = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        let b = a.matvec(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_non_finite() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
        let mut a = Matrix::identity(2);
        a.set(0, 0, f64::NAN);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        // Rank-1 PSD matrix: exactly semi-definite, plain factor fails.
        let a = Matrix::from_row_major(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let (c, jitter) = Cholesky::factor_with_jitter(&a, 30).unwrap();
        assert!(jitter > 0.0);
        // The jittered factor still approximately solves against A + jitter I.
        let b = Vector::from_vec(vec![2.0, 2.0]);
        let x = c.solve(&b).unwrap();
        assert!(x.is_finite());
    }

    #[test]
    fn jitter_zero_for_pd_input() {
        let a = spd3();
        let (_, jitter) = Cholesky::factor_with_jitter(&a, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn log_det_of_identity_is_zero() {
        let c = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert!(c.log_det().abs() < 1e-12);
    }

    #[test]
    fn log_det_scales() {
        let a = Matrix::identity(3).scaled(4.0);
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - 3.0 * 4.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn only_lower_triangle_is_read() {
        let mut a = spd3();
        // Poison the strict upper triangle; factorization must not care.
        a.set(0, 1, 999.0);
        a.set(0, 2, -999.0);
        a.set(1, 2, 42.0);
        let c = Cholesky::factor(&a).unwrap();
        let r = c.reconstruct();
        // Lower triangle of reconstruction matches the lower triangle input.
        for i in 0..3 {
            for j in 0..=i {
                assert!((a.get(i, j) - r.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn large_random_like_system() {
        // Deterministic pseudo-random SPD system of moderate size.
        let n = 24;
        let mut b = Matrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15u64;
        for i in 0..n {
            for j in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                b.set(i, j, u - 0.5);
            }
        }
        let mut a = b.matmul(&b.transposed()).unwrap();
        a.add_diagonal(0.5).unwrap();
        let x_true = Vector::from_vec((0..n).map(|i| (i as f64 * 0.37).sin()).collect());
        let rhs = a.matvec(&x_true).unwrap();
        let x = solve_spd(&a, &rhs).unwrap();
        let err = x.sub(&x_true).unwrap().norm_inf();
        assert!(err < 1e-8, "residual too large: {err}");
    }
}
