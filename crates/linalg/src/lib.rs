//! Dense linear algebra substrate for the Nimbus model-based pricing system.
//!
//! The Nimbus broker trains convex linear models (ordinary least squares /
//! ridge regression via the normal equations, logistic regression via damped
//! Newton steps) and the Gaussian noise mechanism perturbs model vectors in
//! `R^d`. Everything those code paths need — dense vectors and matrices,
//! Gram-matrix assembly, Cholesky factorization, and triangular solves — is
//! implemented here from scratch with no external numeric dependencies.
//!
//! Design notes:
//!
//! * Storage is `f64` throughout: the paper's models are small (`d` in the
//!   tens), so numerical head-room matters more than memory.
//! * [`Matrix`] is row-major, which matches the row-at-a-time access pattern
//!   of dataset scans in `nimbus-data` and keeps Gram-matrix assembly cache
//!   friendly.
//! * All fallible operations return [`LinalgError`] rather than panicking, so
//!   callers (e.g. the broker) can surface degenerate training data as a
//!   market error instead of aborting.

pub mod cholesky;
pub mod error;
mod gram;
mod kernel;
pub mod matrix;
mod scores;
pub mod triangular;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::{release_pages, Matrix};
pub use vector::Vector;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Absolute tolerance used by approximate comparisons in tests and
/// diagnostics. Chosen to be loose enough for accumulated rounding across
/// `O(d^3)` factorizations at the dimensions Nimbus uses (`d <= 128`).
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` are within `tol` of each other, treating
/// non-finite inputs as never approximately equal.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_rejects_non_finite() {
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
        assert!(!approx_eq(f64::INFINITY, f64::INFINITY, 1.0));
    }
}
