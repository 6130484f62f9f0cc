//! Dense row-major `f64` matrix.

use crate::kernel::Kernel;
use crate::vector::dot_slices;
use crate::{LinalgError, Result, Vector};

/// A dense row-major matrix.
///
/// Row-major layout is deliberate: datasets in `nimbus-data` are scanned one
/// labeled example (row) at a time, and Gram-matrix assembly (`XᵀX`) walks
/// rows sequentially, so this layout keeps the training hot loops on
/// contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data. Errors when `data.len() !=
    /// rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_row_major",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a slice of equal-length rows. Errors if the rows
    /// are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    left: (i, cols),
                    right: (i, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Entry at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = value;
    }

    /// Immutable view of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    pub fn col(&self, j: usize) -> Vector {
        debug_assert!(j < self.cols);
        Vector::from_vec((0..self.rows).map(|i| self.get(i, j)).collect())
    }

    /// Immutable view of the full row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            out.push(dot_slices(self.row(i), xs));
        }
        Ok(Vector::from_vec(out))
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps both `self` and `other` accesses sequential.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(other_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Gram matrix `selfᵀ * self`. Only the upper triangle is summed and
    /// then mirrored, so the result is symmetric by construction. For
    /// finite entries every entry has the bits of a row-at-a-time sum of
    /// outer products taken in ascending row order.
    pub fn gram(&self) -> Matrix {
        self.normal_parts(None, None).0
    }

    /// Weighted Gram matrix `selfᵀ S self` with `S = diag(weights)` — the
    /// Hessian shape of a generalized linear model. Each product is rounded
    /// as `(s_i·x_ia)·x_ib`. Errors unless there is one weight per row.
    pub fn weighted_gram(&self, weights: &Vector) -> Result<Matrix> {
        if weights.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "weighted_gram",
                left: (self.rows, self.cols),
                right: (weights.len(), 1),
            });
        }
        Ok(self.normal_parts(Some(weights.as_slice()), None).0)
    }

    /// Both sides of the least-squares normal equations, `selfᵀ self` and
    /// `selfᵀ y`, from one pass over the rows. Errors unless `y` has one
    /// entry per row.
    pub fn normal_equations(&self, y: &Vector) -> Result<(Matrix, Vector)> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "normal_equations",
                left: (self.cols, self.rows),
                right: (y.len(), 1),
            });
        }
        Ok(self.normal_parts(None, Some(y.as_slice())))
    }

    /// Scores every row against every model (one weight per column each),
    /// calling `sink(i, m0, scores)` with row `i`'s scores under models
    /// `m0..m0 + scores.len()`. Each score has the bits of
    /// [`dot_slices`]`(model, row)`, and every model receives its rows in
    /// ascending order, so a per-model sum kept by the sink adds in row
    /// order. Errors unless every model has one weight per column.
    pub fn for_each_score<F>(&self, models: &[&[f64]], mut sink: F) -> Result<()>
    where
        F: FnMut(usize, usize, &[f64]),
    {
        if let Some(m) = models.iter().find(|m| m.len() != self.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "for_each_score",
                left: (self.rows, self.cols),
                right: (m.len(), 1),
            });
        }
        Kernel::detect().score(&self.data, self.rows, self.cols, models, &mut sink);
        Ok(())
    }

    fn normal_parts(&self, weights: Option<&[f64]>, y: Option<&[f64]>) -> (Matrix, Vector) {
        let d = self.cols;
        let mut g = Matrix::zeros(d, d);
        let mut xty = vec![0.0; if y.is_some() { d } else { 0 }];
        Kernel::detect().accumulate(&self.data, d, weights, y, &mut g.data, &mut xty);
        for a in 0..d {
            for b in 0..a {
                let v = g.get(b, a);
                g.set(a, b, v);
            }
        }
        (g, Vector::from_vec(xty))
    }

    /// Adds `alpha` to every diagonal entry in place (ridge regularization /
    /// positive-definiteness jitter). Errors when the matrix is not square.
    pub fn add_diagonal(&mut self, alpha: f64) -> Result<()> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        for i in 0..self.rows {
            let v = self.get(i, i);
            self.set(i, i, v + alpha);
        }
        Ok(())
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "matrix add",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self * alpha` as a new matrix.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * alpha).collect(),
        }
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|`; 0 for symmetric
    /// matrices. Errors when the matrix is not square.
    pub fn asymmetry(&self) -> Result<f64> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..i {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        Ok(worst)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        dot_slices(&self.data, &self.data).sqrt()
    }

    /// Frees the matrix and hands its memory back to the OS (see
    /// [`release_pages`]). For a buffer that is dropped for good, such as
    /// a seller's dataset once `h*` is trained.
    pub fn release(self) {
        release_pages(self.data);
    }
}

/// Frees `buf`, first handing every whole page inside it back to the
/// kernel, so the memory leaves the process's resident set even when the
/// allocator keeps the freed block in its heap. (glibc serves a block
/// from its heap once an earlier free of a larger mmapped block has
/// raised its mmap threshold, and a freed heap block stays resident.)
///
/// On Linux this is one `madvise(MADV_DONTNEED)`, whose cost grows with
/// the number of resident pages and is paid here, by the caller.
/// Elsewhere, and under Miri, it is a plain drop.
pub fn release_pages(mut buf: Vec<f64>) {
    discard_pages(&mut buf);
    drop(buf);
}

/// Byte offsets, from the start of `buf`, of the whole `page`-sized pages
/// that lie inside it; empty when there is none. `page` must be a power
/// of two.
#[cfg(target_os = "linux")]
fn whole_pages(buf: &[f64], page: usize) -> std::ops::Range<usize> {
    let start = buf.as_ptr() as usize;
    let end = start + std::mem::size_of_val(buf);
    let first = start.next_multiple_of(page);
    let last = end & !(page - 1);
    if first >= last {
        return 0..0;
    }
    first - start..last - start
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_void};

    pub(super) const MADV_DONTNEED: c_int = 4;
    const SC_PAGESIZE: c_int = 30;

    extern "C" {
        fn sysconf(name: c_int) -> c_long;
        pub(super) fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(test)]
        pub(super) fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    }

    /// The kernel's page size, or `None` if it cannot be read.
    pub(super) fn page_size() -> Option<usize> {
        // SAFETY: sysconf takes no pointers and only reads a constant.
        let page = unsafe { sysconf(SC_PAGESIZE) };
        usize::try_from(page).ok().filter(|p| p.is_power_of_two())
    }
}

/// Zeroes every whole page inside `buf` by handing it back to the kernel;
/// entries outside those pages keep their values.
#[cfg(target_os = "linux")]
fn discard_pages(buf: &mut [f64]) {
    if cfg!(miri) {
        return;
    }
    let Some(page) = sys::page_size() else {
        return;
    };
    let pages = whole_pages(buf, page);
    if pages.is_empty() {
        return;
    }
    // SAFETY: `pages` holds only whole pages strictly inside `buf`, so the
    // offset stays in bounds and no allocator metadata, which lies outside
    // the block, is touched. `buf` is an exclusive borrow of heap memory
    // the allocator got from the kernel as private anonymous pages, and
    // all-zero bytes are the valid `f64` `0.0`, so the zapped entries stay
    // initialized. [`release_pages`] frees the buffer next. A failed call
    // leaves the pages as they were, so its result is ignored.
    unsafe {
        sys::madvise(
            buf.as_mut_ptr().cast::<u8>().add(pages.start).cast(),
            pages.len(),
            sys::MADV_DONTNEED,
        )
    };
}

#[cfg(not(target_os = "linux"))]
fn discard_pages(_buf: &mut [f64]) {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_row_major(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn from_row_major_rejects_bad_length() {
        assert!(Matrix::from_row_major(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = Matrix::identity(3);
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(i3.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&x).unwrap().as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn for_each_score_matches_matvec_and_checks_widths() {
        let m = sample();
        let x = Vector::from_vec(vec![1.0, 0.0, -1.0]);
        let mut seen = Vec::new();
        m.for_each_score(&[x.as_slice()], |i, m0, s| seen.push((i, m0, s.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, 0, vec![-2.0]), (1, 0, vec![-2.0])]);
        assert!(m.for_each_score(&[&[1.0][..]], |_, _, _| {}).is_err());
    }

    #[test]
    fn normal_equations_match_explicit_transpose() {
        let m = sample();
        let y = Vector::from_vec(vec![2.0, -1.0]);
        let (g, xty) = m.normal_equations(&y).unwrap();
        assert_eq!(xty, m.transposed().matvec(&y).unwrap());
        assert_eq!(g, m.gram());
        assert!(m.normal_equations(&Vector::zeros(3)).is_err());
        assert!(m.weighted_gram(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_row_major(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gram_matches_transpose_matmul() {
        let m = sample();
        let g = m.gram();
        let expected = m.transposed().matmul(&m).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((g.get(i, j) - expected.get(i, j)).abs() < 1e-12);
            }
        }
        assert_eq!(g.asymmetry().unwrap(), 0.0);
        // Small integer entries sum exactly, so every shape — widths on
        // both sides of each register-tile edge — must match exactly.
        for (rows, cols) in [(0, 3), (1, 1), (3, 5), (6, 9), (5, 13)] {
            let data = (0..rows * cols).map(|k| (k % 7) as f64 - 3.0).collect();
            let m = Matrix::from_row_major(rows, cols, data).unwrap();
            assert_eq!(
                m.gram(),
                m.transposed().matmul(&m).unwrap(),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn add_diagonal_ridge() {
        let mut m = Matrix::identity(2);
        m.add_diagonal(0.5).unwrap();
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 1), 1.5);
        assert_eq!(m.get(0, 1), 0.0);
        let mut r = Matrix::zeros(2, 3);
        assert!(r.add_diagonal(1.0).is_err());
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::identity(2);
        let b = a.scaled(3.0);
        let c = a.add(&b).unwrap();
        assert_eq!(c.get(0, 0), 4.0);
        assert_eq!(c.get(0, 1), 0.0);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_from_rows() {
        let m = Matrix::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
    }

    #[test]
    #[cfg(target_os = "linux")]
    #[cfg_attr(miri, ignore)]
    fn discarded_pages_leave_the_resident_set_and_read_zero() {
        let page = sys::page_size().unwrap();
        let mut buf = vec![1.5; (3 << 20) / 8 + 3];
        let pages = whole_pages(&buf, page);
        let start = buf.as_ptr() as usize;
        assert_eq!((start + pages.start) % page, 0);
        assert_eq!((start + pages.end) % page, 0);
        assert!(pages.start < page && pages.end <= buf.len() * 8);
        assert_eq!(whole_pages(&buf[..100], page), 0..0);
        let resident = |buf: &mut [f64]| {
            let mut vec = vec![0u8; pages.len() / page];
            // SAFETY: the range is whole pages inside `buf`'s live block,
            // and `vec` holds one byte per page.
            let rc = unsafe {
                sys::mincore(
                    buf.as_mut_ptr().cast::<u8>().add(pages.start).cast(),
                    pages.len(),
                    vec.as_mut_ptr(),
                )
            };
            assert_eq!(rc, 0);
            vec.iter().filter(|&&b| b & 1 == 1).count()
        };
        assert_eq!(resident(&mut buf), pages.len() / page);
        discard_pages(&mut buf);
        assert_eq!(resident(&mut buf), 0);
        let (lo, hi) = (pages.start / 8, pages.end / 8);
        assert!(buf[lo..hi].iter().all(|v| v.to_bits() == 0));
        assert!(buf[..lo].iter().chain(&buf[hi..]).all(|&v| v == 1.5));
        release_pages(buf);
    }

    #[test]
    fn is_finite_detects_inf() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 1, f64::INFINITY);
        assert!(!m.is_finite());
    }
}
