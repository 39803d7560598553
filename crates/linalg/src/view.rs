//! Stride-based borrowed matrix views (the rsp2 `MatrixRef` idiom).
//!
//! A [`MatrixRef`] is a non-owning `(rows, cols)` window into a flat
//! scalar buffer described by a `(row_stride, col_stride)` pair. Two
//! properties make it the right currency for the hot kernels:
//!
//! * **Transposition is free.** [`MatrixRef::t`] swaps the dims and the
//!   strides — no buffer is touched. The packed GEMM consumes arbitrary
//!   strides when it packs panels, so `aᵀ·b` and `a·bᵀ` run without ever
//!   materializing a transpose (the old code cloned a full transposed
//!   matrix per call).
//! * **Row windows are free.** [`Matrix::rows_view`](crate::Matrix::rows_view)
//!   borrows a chunk of rows in place, so batch-parallel scoring no
//!   longer copies each chunk into a fresh `Matrix` before the kernel.

use crate::{LinalgError, Matrix};

/// A borrowed, read-only, stride-described matrix window.
///
/// `element(i, j)` lives at `data[i * row_stride + j * col_stride]`.
/// Row-major contiguous views have `col_stride == 1`.
#[derive(Debug, Clone, Copy)]
pub struct MatrixRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

// `#[inline]` lets the calling crates (cnd-nn, cnd-ml, cnd-core) inline
// these small accessors into their per-row loops.
impl<'a> MatrixRef<'a> {
    /// Builds a row-major contiguous view over `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[inline]
    pub fn from_slice(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        MatrixRef {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// Builds a view with explicit strides.
    ///
    /// # Panics
    ///
    /// Panics unless the last addressable element fits inside `data`.
    #[inline]
    pub fn with_strides(
        data: &'a [f64],
        rows: usize,
        cols: usize,
        row_stride: usize,
        col_stride: usize,
    ) -> Self {
        if rows > 0 && cols > 0 {
            let last = (rows - 1) * row_stride + (cols - 1) * col_stride;
            assert!(last < data.len(), "strided view escapes its buffer");
        }
        MatrixRef {
            data,
            rows,
            cols,
            row_stride,
            col_stride,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The transposed view — dims and strides swap, nothing is copied.
    #[inline]
    pub fn t(&self) -> MatrixRef<'a> {
        MatrixRef {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "view index out of bounds");
        self.data[i * self.row_stride + j * self.col_stride]
    }

    /// `true` when rows are contiguous (`col_stride == 1`), which
    /// enables slice-based fast paths.
    #[inline]
    pub fn is_row_contiguous(&self) -> bool {
        self.col_stride == 1
    }

    /// Row `i` as a slice — only for row-contiguous views.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or the view is strided in `j`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        assert!(self.col_stride == 1, "row(): view is not row-contiguous");
        assert!(i < self.rows, "view row out of bounds");
        &self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// A sub-view of rows `start..end` (half-open), sharing the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `end > rows` or `start > end`.
    #[inline]
    pub fn rows_view(&self, start: usize, end: usize) -> MatrixRef<'a> {
        assert!(end <= self.rows && start <= end, "rows_view out of bounds");
        let offset = start * self.row_stride;
        // An empty window may sit exactly at the end of the buffer.
        let data = if start == end {
            &self.data[..0]
        } else {
            &self.data[offset..]
        };
        MatrixRef {
            data,
            rows: end - start,
            cols: self.cols,
            row_stride: self.row_stride,
            col_stride: self.col_stride,
        }
    }

    /// Raw element at a precomputed flat offset (packing fast path).
    #[inline(always)]
    pub(crate) fn flat(&self, idx: usize) -> f64 {
        self.data[idx]
    }

    /// The underlying buffer, starting at element `(0, 0)`.
    #[inline(always)]
    pub(crate) fn raw(&self) -> &'a [f64] {
        self.data
    }

    /// The view's `(row_stride, col_stride)` pair.
    #[inline]
    pub fn strides(&self) -> (usize, usize) {
        (self.row_stride, self.col_stride)
    }

    /// Copies the viewed window into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// Matrix product `self * other` through the packed GEMM kernel.
    ///
    /// Transposed and row-window views multiply directly — packing
    /// absorbs the strides — so call sites never materialize
    /// `transpose()` clones.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &MatrixRef<'_>) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        Ok(crate::gemm::matmul(*self, *other))
    }
}

/// A borrowed, mutable, row-contiguous matrix window.
///
/// The write half of the view pair: GEMM writes output row blocks
/// through it, and callers can wrap any `&mut [f64]` that holds
/// `rows * cols` row-major elements.
#[derive(Debug)]
pub struct MatrixMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
}

impl<'a> MatrixMut<'a> {
    /// Builds a row-major mutable view over `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[inline]
    pub fn from_slice(rows: usize, cols: usize, data: &'a mut [f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "mut view shape mismatch");
        MatrixMut { data, rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "mut view row out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Read-only view of the same window.
    #[inline]
    pub fn as_ref(&self) -> MatrixRef<'_> {
        MatrixRef::from_slice(self.rows, self.cols, self.data)
    }
}

impl Matrix {
    /// Borrows the whole matrix as a [`MatrixRef`] view.
    pub fn view(&self) -> MatrixRef<'_> {
        MatrixRef::from_slice(self.rows(), self.cols(), self.as_slice())
    }

    /// Borrows rows `start..end` (half-open) as a view — the
    /// non-allocating sibling of [`slice_rows`](Matrix::slice_rows).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if `end > rows` or
    /// `start > end`.
    pub fn rows_view(&self, start: usize, end: usize) -> Result<MatrixRef<'_>, LinalgError> {
        if end > self.rows() || start > end {
            return Err(LinalgError::IndexOutOfBounds {
                index: end,
                len: self.rows(),
            });
        }
        Ok(self.view().rows_view(start, end))
    }

    /// Borrows the whole matrix as a mutable row-major view.
    pub fn view_mut(&mut self) -> MatrixMut<'_> {
        let (rows, cols) = self.shape();
        MatrixMut::from_slice(rows, cols, self.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m34() -> Matrix {
        Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64)
    }

    #[test]
    fn whole_view_round_trips() {
        let m = m34();
        let v = m.view();
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.to_matrix(), m);
        assert!(v.is_row_contiguous());
        assert_eq!(v.row(2), m.row(2));
    }

    #[test]
    fn transposed_view_matches_materialized_transpose() {
        let m = m34();
        let t = m.view().t();
        assert_eq!(t.shape(), (4, 3));
        assert!(!t.is_row_contiguous());
        assert_eq!(t.to_matrix(), m.transpose());
        // Double transpose is the identity view.
        assert_eq!(t.t().to_matrix(), m);
    }

    #[test]
    fn rows_view_windows_share_the_buffer() {
        let m = m34();
        let v = m.rows_view(1, 3).unwrap();
        assert_eq!(v.shape(), (2, 4));
        assert_eq!(v.row(0), m.row(1));
        assert_eq!(v.to_matrix(), m.slice_rows(1, 3).unwrap());
        // Window of a window.
        let w = v.rows_view(1, 2);
        assert_eq!(w.row(0), m.row(2));
        // Empty windows (including at the very end) are fine.
        assert_eq!(m.rows_view(3, 3).unwrap().rows(), 0);
        assert!(m.rows_view(2, 5).is_err());
    }

    #[test]
    fn view_matmul_equals_owned_matmul() {
        let a = Matrix::from_fn(5, 3, |i, j| (i + 2 * j) as f64 * 0.5 - 1.0);
        let b = Matrix::from_fn(3, 7, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
        let via_view = a.view().matmul(&b.view()).unwrap();
        assert_eq!(via_view, a.matmul(&b).unwrap());
    }

    #[test]
    fn transposed_view_matmul_avoids_materializing() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(6, 3, |i, j| ((i * 2 + j) % 7) as f64 * 0.25);
        // aᵀ · b via views vs. the allocating transpose.
        let lhs = a.view().t().matmul(&b.view()).unwrap();
        let rhs = a.transpose().matmul(&b).unwrap();
        assert_eq!(lhs, rhs);
        // a · aᵀ with the transpose on the right.
        let lhs = a.view().matmul(&a.view().t()).unwrap();
        let rhs = a.matmul(&a.transpose()).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn view_matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.view().matmul(&b.view()),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn mut_view_writes_through() {
        let mut m = Matrix::zeros(2, 3);
        {
            let mut v = m.view_mut();
            v.row_mut(1)[2] = 7.0;
            assert_eq!(v.as_ref().get(1, 2), 7.0);
        }
        assert_eq!(m[(1, 2)], 7.0);
    }

    #[test]
    #[should_panic(expected = "not row-contiguous")]
    fn strided_row_access_panics() {
        let m = m34();
        let t = m.view().t();
        let _ = t.row(0);
    }
}
