//! Row-major dense `f32` matrices.
//!
//! [`Matrix`] is deliberately small and predictable: all operations are
//! shape-checked, panicking variants are documented, and the storage is a
//! plain `Vec<f32>` so the quantizer and the eNVM fault injector can view
//! the raw values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when two matrices have incompatible shapes.
///
/// # Example
///
/// ```
/// use edgebert_tensor::Matrix;
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(4, 4);
/// assert!(a.checked_matmul(&b).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    msg: String,
}

impl ShapeError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape mismatch: {}", self.msg)
    }
}

impl std::error::Error for ShapeError {}

/// A row-major dense matrix of `f32` values.
///
/// # Example
///
/// ```
/// use edgebert_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Reshapes to `rows x cols`, keeping the buffer: a scratch matrix
    /// that already held this many elements is reshaped without touching
    /// the allocator. Element values are unspecified afterwards (old
    /// contents, zeros where the buffer grew).
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`, shape `(m, k) x (k, n) -> (m, n)`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree; use
    /// [`Matrix::checked_matmul`] for a fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.checked_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `self.cols() != rhs.rows()`.
    pub fn checked_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(format!(
                "matmul {}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        Ok(out)
    }

    /// Matrix product `self * rhs` written into `out`, which is reshaped
    /// to `(m, n)` and overwritten (it may hold anything on entry).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dims {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_to(self.rows, rhs.cols);
        let n = rhs.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 48 <= n {
                row_block::<48>(a_row, &rhs.data, n, j, out_row);
                j += 48;
            }
            while j + 16 <= n {
                row_block::<16>(a_row, &rhs.data, n, j, out_row);
                j += 16;
            }
            while j + 4 <= n {
                row_block::<4>(a_row, &rhs.data, n, j, out_row);
                j += 4;
            }
            while j < n {
                row_block::<1>(a_row, &rhs.data, n, j, out_row);
                j += 1;
            }
        }
    }

    /// Matrix product with the transpose of `rhs`: `self * rhs^T`.
    ///
    /// Shape `(m, k) x (n, k) -> (m, n)`. Used by backward passes; see
    /// [`Matrix::matmul_nt_into`] for the sums it forms.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let (mut out, mut rhs_t) = (Matrix::default(), Matrix::default());
        self.matmul_nt_into(rhs, &mut out, &mut rhs_t);
        out
    }

    /// [`Matrix::matmul_nt`] written into `out` through `rhs_t`, which
    /// receives the transpose of `rhs`; both are reshaped and overwritten.
    ///
    /// The product is [`Matrix::matmul_into`] on that transpose: each
    /// element is summed over `k` ascending from `+0.0`, skipping the
    /// terms whose `self` entry is zero. On finite operands that is bit
    /// for bit the plain running dot product: a skipped term is `±0.0`,
    /// and a running sum that starts at `+0.0` is never `-0.0` (`x + -x`
    /// and `+0.0 + -0.0` both round to `+0.0`), so adding the term would
    /// not have changed it. Only a non-finite `rhs` entry behind a zero
    /// differs: its `0 * inf = NaN` is not formed.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix, rhs_t: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt inner dims {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        rhs.transpose_into(rhs_t);
        self.matmul_into(rhs_t, out);
    }

    /// Matrix product with the transpose of `self`: `self^T * rhs`.
    ///
    /// Shape `(k, m)^T x (k, n) -> (m, n)`. Used by backward passes.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let (mut out, mut self_t) = (Matrix::default(), Matrix::default());
        self.matmul_tn_into(rhs, &mut out, &mut self_t);
        out
    }

    /// [`Matrix::matmul_tn`] written into `out` through `self_t`, which
    /// receives the transpose of `self`; both are reshaped and
    /// overwritten. The product is [`Matrix::matmul_into`] on that
    /// transpose: summed over `k` ascending from `+0.0`, skipping zero
    /// entries of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix, self_t: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn inner dims ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.transpose_into(self_t);
        self_t.matmul_into(rhs, out);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// The transpose written into `out`, which is reshaped and
    /// overwritten. Works through slices, four source rows at a time,
    /// so that every visit to an output row writes four adjacent values
    /// and no element pays index arithmetic or a bounds check (2-3x a
    /// per-element `get`/`set` loop at the model's shapes).
    pub fn transpose_into(&self, out: &mut Matrix) {
        let (rows, cols) = (self.rows, self.cols);
        out.resize_to(cols, rows);
        if self.data.is_empty() {
            return;
        }
        let mut r = 0;
        while r + 4 <= rows {
            let (a, rest) = self.data[r * cols..(r + 4) * cols].split_at(cols);
            let (b, rest) = rest.split_at(cols);
            let (c, d) = rest.split_at(cols);
            // Chunk `k` of `out` from offset `r` starts at `out[k][r]`.
            let columns = out.data[r..].chunks_mut(rows);
            for ((((o, &a), &b), &c), &d) in columns.zip(a).zip(b).zip(c).zip(d) {
                o[..4].copy_from_slice(&[a, b, c, d]);
            }
            r += 4;
        }
        for r in r..rows {
            let column = out.data[r..].iter_mut().step_by(rows);
            for (o, &v) in column.zip(self.row(r)) {
                *o = v;
            }
        }
    }

    /// Overwrites `self` with a copy of `src`, keeping the buffer.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_to(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaling by a scalar.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds `bias` (length `cols`) to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast_assign(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector. Used by bias
    /// gradients.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = Matrix::default();
        self.sum_rows_into(&mut out);
        out.data
    }

    /// [`Matrix::sum_rows`] written into `out`, which is reshaped to
    /// `1 x cols` and overwritten: each column summed from zero over the
    /// rows in ascending order.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize_to(1, self.cols);
        out.data.fill(0.0);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
    }

    /// Extracts the sub-matrix of columns `[start, start + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the matrix width.
    pub fn slice_cols(&self, start: usize, width: usize) -> Matrix {
        assert!(start + width <= self.cols, "column slice out of range");
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Writes `block` into columns `[start, start + block.cols())`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn set_cols(&mut self, start: usize, block: &Matrix) {
        assert_eq!(self.rows, block.rows, "set_cols row mismatch");
        assert!(start + block.cols <= self.cols, "set_cols out of range");
        for r in 0..self.rows {
            let dst = &mut self.data[r * self.cols + start..r * self.cols + start + block.cols];
            dst.copy_from_slice(block.row(r));
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Fraction of exactly-zero elements in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f32 / self.data.len() as f32
    }

    /// Number of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "element-wise shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

/// Columns `[j, j + W)` of one row of a matrix product: `a_row` against
/// the `n`-wide row-major `rhs`, accumulated over `k` in ascending order
/// and skipping zero entries of `a_row` — element for element the sums of
/// an i-k-j loop that streams whole rows, but with the `W` running sums
/// held in registers instead of re-read from `out_row` for every `k`.
/// `matmul_into` asks for 48 columns at a time where it can: twelve
/// 4-lane accumulators are what fits beside the broadcast `a` and the
/// loaded operand in sixteen vector registers.
#[inline(always)]
fn row_block<const W: usize>(a_row: &[f32], rhs: &[f32], n: usize, j: usize, out_row: &mut [f32]) {
    let mut acc = [0.0f32; W];
    for (k, &a) in a_row.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let rhs_block = &rhs[k * n + j..k * n + j + W];
        for (o, &b) in acc.iter_mut().zip(rhs_block) {
            *o += a * b;
        }
    }
    out_row[j..j + W].copy_from_slice(&acc);
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn blocked_matmul_keeps_the_streaming_loops_sums_bitwise() {
        // Widths on both sides of every block size, zeros (of both
        // signs) in the left operand, and a NaN behind one of them.
        let mut rng = crate::Rng::seed_from(48);
        for n in (1..=70).chain([95, 96, 97, 192]) {
            let (m, k) = (3, 1 + n % 7);
            let mut a = rng.gaussian_matrix(m, k, 1.0);
            let mut b = rng.gaussian_matrix(k, n, 1.0);
            a.set(1, 0, 0.0);
            a.set(2, k - 1, -0.0);
            b.set(0, n / 2, f32::NAN);
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let av = a.get(i, kk);
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        expect[i * n + j] += av * b.get(kk, j);
                    }
                }
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.matmul(&b).as_slice()), bits(&expect), "n = {n}");
        }
    }

    #[test]
    fn matmul_into_overwrites_a_dirty_misshapen_buffer() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::filled(3, 5, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn checked_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let err = a.checked_matmul(&b).unwrap_err();
        assert!(err.to_string().contains("matmul"));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.5, -1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[1.0, 1.0, 1.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut with_bias = a.clone();
        with_bias.add_row_broadcast_assign(&[10.0, 20.0]);
        assert_eq!(
            with_bias,
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn slicing_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let mid = a.slice_cols(1, 2);
        assert_eq!(mid, Matrix::from_rows(&[&[2.0, 3.0], &[6.0, 7.0]]));
        let mut b = a.clone();
        b.set_cols(1, &mid);
        assert_eq!(b, a);
    }

    #[test]
    fn sparsity_counts_zeros() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert!((a.sparsity() - 0.75).abs() < 1e-6);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }
}
