//! Minimal row-major f32 matrix over the blocked kernels.
//!
//! Only the operations the attention computation needs; no BLAS, no
//! unsafe. The products run on the register-tiled 8-lane micro-kernel of
//! [`crate::kernels`]: the right-hand operand is packed transposed so
//! every inner loop is a contiguous dot of two rows, cache-blocked over
//! output rows and columns. Blocking and tiling never change the
//! reduction order — each output element is reduced by the fixed 8-lane
//! tree, bitwise-identical to the scalar oracle in [`crate::reference`].

use crate::kernels;
use std::fmt;

/// Output-row tile: `ROW_BLOCK` rows of the left operand are swept per
/// column block, keeping their slices hot across the block.
const ROW_BLOCK: usize = 32;
/// Packed-operand tile: `COL_BLOCK` rows of the packed (transposed)
/// right operand per sweep — small enough to sit in L1 for the typical
/// `K ≤ 128` of the attention shapes.
const COL_BLOCK: usize = 64;

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Build from row vectors; panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`; panics on dimension mismatch.
    ///
    /// Packs `rhs` transposed (one `K×N` copy) so the micro-kernel reads
    /// both operands contiguously, then runs the blocked row/column
    /// sweep of [`Matrix::matmul_nt`]. Every output element is a fixed
    /// 8-lane-tree reduction over `k` — bitwise-equal to
    /// [`crate::reference::matmul`] on any machine.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul_nt(&rhs.transpose())
    }

    /// Matrix product `self · rhsᵀ` with `rhs` given row-major — the
    /// packed-transpose fast path: when the right operand is naturally
    /// available transposed (the `K`/`V` operands of attention, or a
    /// pre-packed kernel), its rows *are* the columns the product needs,
    /// so no packing copy is paid at all.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, n, k) = (self.rows, rhs.rows, self.cols);
        let mut out = Matrix::zeros(m, n);
        for jb in (0..n).step_by(COL_BLOCK) {
            let jend = (jb + COL_BLOCK).min(n);
            // The packed rows of this column block, contiguous in rhs.
            let block = &rhs.data[jb * k..jend * k];
            for ib in (0..m).step_by(ROW_BLOCK) {
                let iend = (ib + ROW_BLOCK).min(m);
                for i in ib..iend {
                    let orow = &mut out.data[i * n..(i + 1) * n];
                    kernels::dot_rows(self.row(i), block, &mut orow[jb..jend]);
                }
            }
        }
        out
    }

    /// The backing row-major storage as one contiguous slice
    /// (`rows × cols` elements, row `r` at `r·cols..(r+1)·cols`).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Transpose (blocked copy; same values as the naive element swap).
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 16;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TILE) {
            for cb in (0..self.cols).step_by(TILE) {
                for r in rb..(rb + TILE).min(self.rows) {
                    for c in cb..(cb + TILE).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Multiply every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Numerically-stable softmax applied to each row in place
    /// (canonical order, deterministic `exp`; see [`kernels::softmax`]).
    pub fn softmax_rows(&mut self) {
        for r in 0..self.rows {
            kernels::softmax(&mut self.data[r * self.cols..(r + 1) * self.cols]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let id = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![1.0], vec![0.5], vec![2.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert!((c.get(0, 0) - 8.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]);
        m.softmax_rows();
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&v| v > 0.0));
        }
        // larger logit => larger probability
        assert!(m.get(0, 2) > m.get(0, 1));
    }

    #[test]
    fn softmax_is_stable_for_large_values() {
        let mut m = Matrix::from_rows(&[vec![1000.0, 1001.0]]);
        m.softmax_rows();
        assert!(m.get(0, 1) > m.get(0, 0));
        assert!((m.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn scale_in_place() {
        let mut a = Matrix::from_rows(&[vec![1.0, -2.0]]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[2.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
