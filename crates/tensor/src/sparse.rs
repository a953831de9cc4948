//! Bitmask-encoded sparse matrices.
//!
//! The EdgeBERT processing unit stores compressed matrices as a *bitmask*
//! (one bit per element; `1` = non-zero) plus a dense array of the non-zero
//! payloads (paper §7.3). The same layout is reproduced here so that:
//!
//! * the eNVM subsystem can store the bitmask in SLC cells and the payload
//!   in MLC2 cells exactly as the accelerator does, and
//! * the hardware model can charge decoder/encoder energy per bit/word that
//!   actually exists.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A sparse matrix in the accelerator's bitmask format.
///
/// # Example
///
/// ```
/// use edgebert_tensor::{BitmaskMatrix, Matrix};
///
/// let dense = Matrix::from_rows(&[&[0.0, 1.5], &[0.0, 0.0]]);
/// let sparse = BitmaskMatrix::encode(&dense);
/// assert_eq!(sparse.nnz(), 1);
/// assert_eq!(sparse.decode(), dense);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitmaskMatrix {
    rows: usize,
    cols: usize,
    /// One bit per element, row-major, packed LSB-first into bytes.
    mask: Vec<u8>,
    /// Non-zero payloads in row-major order.
    values: Vec<f32>,
}

impl BitmaskMatrix {
    /// Encodes a dense matrix into bitmask format (the PU encoder path).
    pub fn encode(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let n = rows * cols;
        let mut mask = vec![0u8; n.div_ceil(8)];
        let mut values = Vec::new();
        for (i, &v) in dense.as_slice().iter().enumerate() {
            if v != 0.0 {
                mask[i / 8] |= 1 << (i % 8);
                values.push(v);
            }
        }
        Self {
            rows,
            cols,
            mask,
            values,
        }
    }

    /// Decodes back to a dense matrix (the PU decoder path): walks the
    /// bitmask and re-inserts zeros at the tagged positions.
    pub fn decode(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let data = out.as_mut_slice();
        let mut vi = 0;
        for (i, slot) in data.iter_mut().enumerate() {
            if self.bit(i) {
                *slot = self.values[vi];
                vi += 1;
            }
        }
        out
    }

    /// Whether element `i` (row-major) is tagged non-zero.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        (self.mask[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero payloads.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of the matrix (`nnz / (rows*cols)`), in `[0, 1]`.
    pub fn density(&self) -> f32 {
        let n = self.rows * self.cols;
        if n == 0 {
            0.0
        } else {
            self.values.len() as f32 / n as f32
        }
    }

    /// The packed bitmask bytes (stored in SLC ReRAM on the accelerator).
    pub fn mask_bytes(&self) -> &[u8] {
        &self.mask
    }

    /// The non-zero payloads (stored in MLC2 ReRAM on the accelerator).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the payload array.
    ///
    /// The eNVM fault injector perturbs stored values through this view;
    /// the bitmask stays consistent because only magnitudes change. Writing
    /// an exact `0.0` is allowed — it models a cell stuck at the zero level
    /// and the element remains "present" per the mask.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }
}

impl From<&Matrix> for BitmaskMatrix {
    fn from(m: &Matrix) -> Self {
        Self::encode(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn round_trip_dense() {
        let dense = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[2.5, 0.0, -3.0]]);
        let sp = BitmaskMatrix::encode(&dense);
        assert_eq!(sp.nnz(), 3);
        assert_eq!(sp.decode(), dense);
    }

    #[test]
    fn round_trip_all_zero_and_all_dense() {
        let z = Matrix::zeros(4, 4);
        assert_eq!(BitmaskMatrix::encode(&z).decode(), z);
        let d = Matrix::filled(3, 5, 1.25);
        let sp = BitmaskMatrix::encode(&d);
        assert_eq!(sp.density(), 1.0);
        assert_eq!(sp.decode(), d);
    }

    #[test]
    fn density_matches_dense_sparsity() {
        let mut rng = Rng::seed_from(42);
        let dense = rng.sparse_gaussian(16, 16, 0.7);
        let sp = BitmaskMatrix::encode(&dense);
        assert!((sp.density() - (1.0 - dense.sparsity())).abs() < 1e-6);
    }

    #[test]
    fn values_mut_preserves_mask() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0, 3.0]]);
        let mut sp = BitmaskMatrix::encode(&dense);
        sp.values_mut()[0] = 9.0;
        let out = sp.decode();
        assert_eq!(out.get(0, 0), 9.0);
        assert_eq!(out.get(0, 1), 0.0);
        assert_eq!(out.get(0, 2), 3.0);
    }
}
