use std::fmt;
use std::ops::{Index, IndexMut, Range};

use crate::LinalgError;

/// A dense, row-major, heap-allocated `f64` matrix.
///
/// `Matrix` is the common numeric container of the CND-IDS workspace.
/// Datasets are stored as one sample per row; neural-network weights are
/// stored as `(fan_in, fan_out)` matrices so a batch activates as
/// `x.matmul(&w)`.
///
/// # Example
///
/// ```
/// use cnd_linalg::Matrix;
///
/// let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]])?;
/// assert_eq!(x.shape(), (2, 2));
/// assert_eq!(x[(1, 1)], 2.0);
/// # Ok::<(), cnd_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Example
    ///
    /// ```
    /// use cnd_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert!(z.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// use cnd_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::BadDimensions`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadDimensions {
                len: data.len(),
                rows,
                cols,
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty slice and
    /// [`LinalgError::RaggedRows`] if rows differ in length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows {
                    expected: cols,
                    row: i,
                    found: r.len(),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Example
    ///
    /// ```
    /// use cnd_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
    /// assert_eq!(m[(1, 1)], 2.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over column `j` by striding the row-major buffer — no
    /// allocation. (The old allocating `col` accessor went through a
    /// deprecation cycle and is gone; collect this iterator if a `Vec`
    /// is genuinely needed.)
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use cnd_linalg::Matrix;
    /// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
    /// assert_eq!(m.col_iter(1).sum::<f64>(), 6.0);
    /// # Ok::<(), cnd_linalg::LinalgError>(())
    /// ```
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(move |i| self.data[i * self.cols + j])
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(self.cols.max(1))
    }

    /// Returns a new matrix containing the selected rows, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any index is out of range.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix, LinalgError> {
        let mut out = Matrix {
            rows: 0,
            cols: self.cols,
            data: Vec::with_capacity(indices.len() * self.cols),
        };
        self.select_rows_into(indices, &mut out)?;
        Ok(out)
    }

    /// [`select_rows`](Self::select_rows) into `out`, keeping its
    /// allocation when it is large enough. On error `out` holds the
    /// rows before the bad index.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any index is out of range.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) -> Result<(), LinalgError> {
        out.data.clear();
        out.rows = 0;
        out.cols = self.cols;
        for &i in indices {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i,
                    len: self.rows,
                });
            }
            out.data.extend_from_slice(self.row(i));
            out.rows += 1;
        }
        Ok(())
    }

    /// Makes this a `rows × cols` matrix of `+0.0`, keeping its
    /// allocation when it is large enough.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns the sub-matrix of rows `start..end` (half-open).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if `end > rows` or
    /// `start > end`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Matrix, LinalgError> {
        if end > self.rows || start > end {
            return Err(LinalgError::IndexOutOfBounds {
                index: end,
                len: self.rows,
            });
        }
        Ok(Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        })
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols && !self.is_empty() && !other.is_empty() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "vstack",
            });
        }
        if self.is_empty() {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Vertically stacks an iterator of matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the iterator yields nothing and
    /// [`LinalgError::ShapeMismatch`] on inconsistent column counts.
    pub fn vstack_all<'a, I: IntoIterator<Item = &'a Matrix>>(
        mats: I,
    ) -> Result<Matrix, LinalgError> {
        let mut iter = mats.into_iter();
        let first = iter.next().ok_or(LinalgError::Empty { op: "vstack_all" })?;
        let mut acc = first.clone();
        for m in iter {
            acc = acc.vstack(m)?;
        }
        Ok(acc)
    }

    /// Returns the transpose.
    ///
    /// Cache-blocked in `TRANSPOSE_BLOCK` square tiles; large matrices
    /// fan the output-row ranges out over the [`cnd_parallel::current`]
    /// pool (each job writes a disjoint block of output rows, so the
    /// result is identical at every pool size).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        if self.is_empty() {
            return out;
        }
        let pool = cnd_parallel::current();
        if self.len() >= PAR_ELEMS_MIN && pool.threads() > 1 {
            let min_rows = TRANSPOSE_BLOCK.max(self.cols.div_ceil(pool.threads()));
            let (rows, cols) = (self.rows, self.cols);
            pool.par_map_rows(&mut out.data, cols, rows, min_rows, |j0, block| {
                transpose_block_into(&self.data, block, rows, cols, j0);
            });
        } else {
            transpose_block_into(&self.data, &mut out.data, self.rows, self.cols, 0);
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Large products go through the packed-panel GEMM in
    /// [`crate::gemm`]: `other` is repacked into column panels, `self`
    /// into row panels, and a 4×8 register-tile microkernel (AVX2+FMA
    /// build when the CPU supports it, portable otherwise — see
    /// [`crate::gemm::active_kernel`]) does the arithmetic, fanning
    /// output-row ranges out over the [`cnd_parallel::current`] pool.
    /// Small products stay on a cache-blocked ikj kernel that skips the
    /// packing overhead. Every output element accumulates over `k` in
    /// ascending order with multiply separate from add regardless of
    /// kernel, blocking, or pool size, so all paths are
    /// **bit-identical** (and match
    /// [`matmul_naive`](Matrix::matmul_naive) on finite inputs).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    ///
    /// # Example
    ///
    /// ```
    /// use cnd_linalg::Matrix;
    /// let a = Matrix::from_rows(&[vec![1.0, 2.0]])?;
    /// let b = Matrix::from_rows(&[vec![3.0], vec![4.0]])?;
    /// assert_eq!(a.matmul(&b)?[(0, 0)], 11.0);
    /// # Ok::<(), cnd_linalg::LinalgError>(())
    /// ```
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        Ok(crate::gemm::matmul(self.view(), other.view()))
    }

    /// The original naive ijk triple-loop product, retained **only as a
    /// test oracle** for the blocked/parallel [`matmul`](Matrix::matmul).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul_naive(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * other.data[k * other.cols + j];
                }
                out.data[i * other.cols + j] = acc;
            }
        }
        Ok(out)
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on differing shapes.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on differing shapes.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on differing shapes.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: other.shape(),
                op,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Adds `row` to every row of the matrix (broadcast add).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&self, row: &[f64]) -> Result<Matrix, LinalgError> {
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (1, row.len()),
                op: "add_row_broadcast",
            });
        }
        let mut out = self.clone();
        for r in out.data.chunks_mut(self.cols) {
            for (v, &b) in r.iter_mut().zip(row) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Subtracts `row` from every row of the matrix (broadcast subtract).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row.len() != self.cols()`.
    pub fn sub_row_broadcast(&self, row: &[f64]) -> Result<Matrix, LinalgError> {
        let neg: Vec<f64> = row.iter().map(|v| -v).collect();
        self.add_row_broadcast(&neg)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared Frobenius norm (sum of squared elements).
    pub fn frobenius_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Per-row sums, as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        self.iter_rows().map(|r| r.iter().sum()).collect()
    }

    /// Per-column sums, as a vector of length `cols`.
    ///
    /// Tall matrices accumulate in fixed `COL_SUM_CHUNK`-row chunks
    /// combined by an ordered tree reduction (parallel on the
    /// [`cnd_parallel::current`] pool), so the floating-point association
    /// order — and therefore the result, bit for bit — depends only on
    /// the row count, never on the pool size.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// [`col_sums`](Self::col_sums) written into `out`, with the same
    /// bits; allocates nothing up to `COL_SUM_CHUNK` = 512 rows.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.cols()`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "col_sums_into: output width");
        if self.rows <= COL_SUM_CHUNK || self.cols == 0 {
            out.fill(0.0);
            self.col_sums_range(0..self.rows, out);
            return;
        }
        let sums = cnd_parallel::current()
            .par_reduce(
                self.rows,
                COL_SUM_CHUNK,
                |r| {
                    let mut part = vec![0.0; self.cols];
                    self.col_sums_range(r, &mut part);
                    part
                },
                |mut acc, part| {
                    for (a, b) in acc.iter_mut().zip(&part) {
                        *a += b;
                    }
                    acc
                },
            )
            .expect("more than COL_SUM_CHUNK rows give partials");
        out.copy_from_slice(&sums);
    }

    /// Serial column sums over a row range, added into `out`.
    fn col_sums_range(&self, rows: Range<usize>, out: &mut [f64]) {
        for i in rows {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
    }

    /// Maximum absolute elementwise difference between two matrices.
    ///
    /// Useful in tests; returns `f64::INFINITY` when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns `true` if all elements are finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Square tile edge for the blocked ikj matmul kernel: a 64×64 f64 tile
/// of the right operand is 32 KiB — half a typical L1d — and is reused
/// across 64 output rows.
const MATMUL_BLOCK: usize = 64;

/// Tile edge for the blocked transpose (a 32×32 f64 tile is 8 KiB).
const TRANSPOSE_BLOCK: usize = 32;

/// Minimum element count before `transpose` fans out to the pool.
const PAR_ELEMS_MIN: usize = 1 << 16;

/// Fixed accumulation-chunk height for [`Matrix::col_sums`]; also the
/// threshold below which the sum stays a single serial pass.
const COL_SUM_CHUNK: usize = 512;

/// Cache-blocked ikj product of output rows `r0..r1` into `out`, where
/// `out` holds exactly those rows (`(r1 - r0) * p` elements). `a` is
/// `? × m` row-major, `b` is `m × p` row-major.
///
/// For every output element the accumulation runs over `k` in ascending
/// order — blocking and row-partitioning change only the *interleaving*
/// across elements, never the per-element order, which is what makes
/// serial, blocked, and parallel results bit-identical.
///
/// Retained as the small-product path of [`crate::gemm`] (packing
/// overhead beats the microkernel win below a few hundred-kiloflop
/// products, e.g. single-flow serve scoring).
pub(crate) fn matmul_block_into(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    r0: usize,
    r1: usize,
    m: usize,
    p: usize,
) {
    for ib in (r0..r1).step_by(MATMUL_BLOCK) {
        let i_end = (ib + MATMUL_BLOCK).min(r1);
        for kb in (0..m).step_by(MATMUL_BLOCK) {
            let k_end = (kb + MATMUL_BLOCK).min(m);
            for i in ib..i_end {
                let arow = &a[i * m..(i + 1) * m];
                let orow = &mut out[(i - r0) * p..(i - r0 + 1) * p];
                for k in kb..k_end {
                    let aik = arow[k];
                    let brow = &b[k * p..(k + 1) * p];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
        }
    }
}

/// Blocked transpose of output rows `j0..` into `out`, where `out` holds
/// `out.len() / rows` consecutive output rows starting at `j0`. `src` is
/// `rows × cols` row-major; output row `j` is column `j` of `src`.
fn transpose_block_into(src: &[f64], out: &mut [f64], rows: usize, cols: usize, j0: usize) {
    let j1 = j0 + out.len() / rows.max(1);
    for jb in (j0..j1).step_by(TRANSPOSE_BLOCK) {
        let jb_end = (jb + TRANSPOSE_BLOCK).min(j1);
        for ib in (0..rows).step_by(TRANSPOSE_BLOCK) {
            let ib_end = (ib + TRANSPOSE_BLOCK).min(rows);
            for j in jb..jb_end {
                let orow = &mut out[(j - j0) * rows..(j - j0 + 1) * rows];
                for i in ib..ib_end {
                    orow[i] = src[i * cols + j];
                }
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, r) in self.iter_rows().enumerate() {
            if i >= max_rows {
                writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
                break;
            }
            write!(f, "  [")?;
            for (j, v) in r.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let i = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 5]),
            Err(LinalgError::BadDimensions { .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
        assert!(matches!(e, Err(LinalgError::RaggedRows { row: 1, .. })));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn row_and_col_access() {
        let m = m22();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col_iter(0).collect::<Vec<_>>(), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        m22().row(2);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = m22();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c[(0, 0)], 32.0);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn col_iter_strides_the_row_major_buffer() {
        let m = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f64);
        for j in 0..3 {
            let strided: Vec<f64> = m.col_iter(j).collect();
            let expected: Vec<f64> = (0..7).map(|i| (i * 3 + j) as f64).collect();
            assert_eq!(strided, expected);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_iter_out_of_bounds_panics() {
        let _ = m22().col_iter(2);
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle() {
        // Shapes straddling the 64-wide block boundary on every axis.
        for (n, m, p) in [
            (1, 1, 1),
            (5, 64, 3),
            (65, 67, 33),
            (64, 128, 64),
            (3, 1, 130),
        ] {
            let a = Matrix::from_fn(n, m, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
            let b = Matrix::from_fn(m, p, |i, j| ((i * 7 + j * 29) % 11) as f64 * 0.25);
            let blocked = a.matmul(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            assert_eq!(blocked, naive, "({n},{m},{p})");
        }
    }

    #[test]
    fn matmul_degenerate_shapes() {
        // Inner dimension zero: a well-formed all-zeros product.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b).unwrap(), Matrix::zeros(3, 4));
        // Zero output rows / cols.
        assert_eq!(
            Matrix::zeros(0, 5).matmul(&Matrix::zeros(5, 4)).unwrap(),
            Matrix::zeros(0, 4)
        );
        assert_eq!(
            Matrix::zeros(4, 5).matmul(&Matrix::zeros(5, 0)).unwrap(),
            Matrix::zeros(4, 0)
        );
    }

    #[test]
    fn blocked_transpose_odd_tile_sizes() {
        for (r, c) in [(1, 1), (33, 65), (70, 31), (2, 200)] {
            let m = Matrix::from_fn(r, c, |i, j| (i * c + j) as f64);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)], m[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (5, 3));
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m22();
        let b = Matrix::filled(2, 2, 0.5);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(c.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = m22();
        let h = a.hadamard(&a).unwrap();
        assert_eq!(h[(1, 1)], 16.0);
    }

    #[test]
    fn broadcast_add_row() {
        let a = m22();
        let b = a.add_row_broadcast(&[10.0, 20.0]).unwrap();
        assert_eq!(b[(0, 0)], 11.0);
        assert_eq!(b[(1, 1)], 24.0);
    }

    #[test]
    fn broadcast_rejects_wrong_len() {
        assert!(m22().add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn select_and_slice_rows() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f64);
        let s = m.select_rows(&[3, 0]).unwrap();
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
        let sl = m.slice_rows(1, 3).unwrap();
        assert_eq!(sl.rows(), 2);
        assert_eq!(sl.row(0), &[1.0, 1.0]);
    }

    #[test]
    fn select_rows_out_of_bounds() {
        assert!(m22().select_rows(&[5]).is_err());
    }

    #[test]
    fn vstack_shapes() {
        let a = m22();
        let b = Matrix::filled(1, 2, 9.0);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[9.0, 9.0]);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn vstack_all_concatenates() {
        let parts = [m22(), m22(), m22()];
        let v = Matrix::vstack_all(parts.iter()).unwrap();
        assert_eq!(v.shape(), (6, 2));
    }

    #[test]
    fn reductions() {
        let m = m22();
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.frobenius_sq(), 30.0);
        assert_eq!(m.row_sums(), vec![3.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 6.0]);
    }

    #[test]
    fn map_and_scale() {
        let m = m22().scale(2.0);
        assert_eq!(m[(1, 1)], 8.0);
        let sq = m22().map(|v| v * v);
        assert_eq!(sq[(1, 0)], 9.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = m22();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn display_truncates() {
        let m = Matrix::zeros(20, 2);
        let s = format!("{m}");
        assert!(s.contains("more rows"));
    }
}
