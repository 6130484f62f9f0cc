//! Dense `f64` vector with the BLAS-1 style operations Nimbus needs.

use crate::{LinalgError, Result};

/// A dense, heap-allocated vector of `f64` values.
///
/// `Vector` is the representation of ML model instances throughout Nimbus: an
/// instance of a linear model over `d` features is exactly a point in `R^d`
/// (optionally `R^{d+1}` with an intercept), and the Gaussian mechanism
/// perturbs these coordinates directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Vector { data }
    }

    /// Frees the vector and hands its memory back to the OS (see
    /// [`release_pages`](crate::release_pages)).
    pub fn release(self) {
        crate::release_pages(self.data);
    }

    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f64) -> Self {
        Vector {
            data: vec![value; len],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns entry `i`, panicking on out-of-bounds (mirrors slice indexing).
    pub fn get(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Sets entry `i`, panicking on out-of-bounds.
    pub fn set(&mut self, i: usize, value: f64) {
        self.data[i] = value;
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Dot product `self · other`.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "dot",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(dot_slices(&self.data, &other.data))
    }

    /// Euclidean (L2) norm.
    pub fn norm2(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Squared Euclidean norm — the paper's square loss `ε_s` is exactly
    /// `‖h − h*‖₂²`, so this is on the hot path of error estimation.
    pub fn norm2_squared(&self) -> f64 {
        dot_slices(&self.data, &self.data)
    }

    /// L1 norm.
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Max (infinity) norm; returns 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Vector) -> Result<Vector> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// In-place `self += alpha * other` (the classic `axpy`).
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self * alpha` as a new vector.
    pub fn scaled(&self, alpha: f64) -> Vector {
        Vector {
            data: self.data.iter().map(|v| v * alpha).collect(),
        }
    }

    /// Scales in place by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Squared Euclidean distance to `other`.
    pub fn distance_squared(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "distance_squared",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Arithmetic mean of the entries; `None` for the empty vector.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }

    fn zip_with(
        &self,
        other: &Vector,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                op,
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector::from_vec(data)
    }
}

impl std::ops::Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl std::ops::IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

/// Dot product over raw slices. Accumulates in four independent lanes so the
/// compiler can keep the reduction pipelined. It serves one-off products:
/// [`Vector::dot`], matrix-vector products and `LinearModel::score` in
/// `nimbus-ml`.
///
/// Its rounding is a contract: lane `k` starts at `+0.0` and adds `a[j]·b[j]`
/// for `j ≡ k (mod 4)` below `4·⌊n/4⌋` in ascending `j`, the lanes combine
/// as `((acc0 + acc1) + acc2) + acc3`, and the remaining terms are added in
/// order. [`Matrix::for_each_score`](crate::Matrix::for_each_score), which
/// scores Monte-Carlo error curves, reproduces exactly these operations for
/// every (row, model) pair, so a curve's bits do not depend on which of the
/// two computed its scores.
pub fn dot_slices(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let base = i * 4;
        acc[0] += a[base] * b[base];
        acc[1] += a[base + 1] * b[base + 1];
        acc[2] += a[base + 2] * b[base + 2];
        acc[3] += a[base + 3] * b[base + 3];
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut v = Vector::zeros(3);
        assert_eq!(v.len(), 3);
        v.set(1, 2.5);
        assert_eq!(v.get(1), 2.5);
        assert_eq!(v[1], 2.5);
        v[2] = -1.0;
        assert_eq!(v.as_slice(), &[0.0, 2.5, -1.0]);
    }

    #[test]
    fn filled_vector() {
        let v = Vector::filled(4, 7.0);
        assert_eq!(v.as_slice(), &[7.0; 4]);
    }

    #[test]
    fn dot_product_matches_manual() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Vector::from_vec(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.dot(&b).unwrap(), 5.0 + 8.0 + 9.0 + 8.0 + 5.0);
    }

    #[test]
    fn dot_shape_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::ShapeMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from_vec(vec![3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-12);
        assert!((v.norm2_squared() - 25.0).abs() < 1e-12);
        assert!((v.norm1() - 7.0).abs() < 1e-12);
        assert!((v.norm_inf() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_vector_norms_are_zero() {
        let v = Vector::zeros(0);
        assert_eq!(v.norm2(), 0.0);
        assert_eq!(v.norm_inf(), 0.0);
        assert!(v.mean().is_none());
    }

    #[test]
    fn add_sub_axpy() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
    }

    #[test]
    fn scaled_and_scale() {
        let v = Vector::from_vec(vec![1.0, -2.0]);
        assert_eq!(v.scaled(-3.0).as_slice(), &[-3.0, 6.0]);
        let mut w = v.clone();
        w.scale(0.5);
        assert_eq!(w.as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn distance_squared_matches_norm_of_difference() {
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Vector::from_vec(vec![0.0, 4.0, 1.0]);
        let d = a.distance_squared(&b).unwrap();
        let diff = a.sub(&b).unwrap();
        assert!((d - diff.norm2_squared()).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan() {
        let v = Vector::from_vec(vec![1.0, f64::NAN]);
        assert!(!v.is_finite());
        let w = Vector::from_vec(vec![1.0, 2.0]);
        assert!(w.is_finite());
    }

    #[test]
    fn mean_of_values() {
        let v = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.mean(), Some(2.5));
    }

    #[test]
    fn dot_slices_handles_non_multiple_of_four() {
        for n in 0..9 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let expected: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot_slices(&a, &b), expected, "n={n}");
        }
    }
}
