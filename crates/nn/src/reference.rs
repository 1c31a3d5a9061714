//! Paper-literal scalar oracle for the blocked kernels.
//!
//! The Eq. 6–7 attention computation is written here the way the paper
//! reads: materialize the full per-head score matrix, scale it, softmax
//! every row, average over heads — plain indexed loops, no blocking, no
//! register tiling, no packing. The one liberty the oracle shares with
//! the fast path is the **canonical reduction order**: floats are not
//! associative, so the crate pins every sum to the 8-lane tree
//! documented in [`crate::kernels`] (lane `k mod 8`, fixed pairwise
//! combine), and [`dot`] below *is* that definition in its plainest
//! scalar form. The same single [`kernels::exp_det`] is the crate's one
//! `exp`.
//!
//! Property tests assert that the blocked kernels in [`crate::matrix`]
//! and the fused streaming passes in [`crate::attention`] reproduce this
//! oracle **bitwise** on every shape, including empty, 1×N, N×1,
//! non-lane-aligned, and NaN/∞ inputs. That equality is what lets the
//! repo keep its bit-identity pins (served == offline, N-shard ==
//! 1-shard, fit-cache round-trips) while the hot path is rebuilt freely.

use crate::attention::MultiHeadAttention;
use crate::kernels::{self, LANES};
use crate::matrix::Matrix;

/// The canonical dot product, spelled as the definition: lane `k mod 8`
/// accumulates element `k` by a fused multiply-add, then the fixed
/// pairwise tree combines the lanes. `f32::mul_add` is the IEEE 754
/// exactly-rounded fma, so this line means the same bits on every
/// machine — hardware `vfmadd`, native aarch64 fma, or softfloat alike.
/// [`kernels::dot`] / [`kernels::dot4`] must equal this bitwise.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut lanes = [0.0f32; LANES];
    for k in 0..a.len() {
        lanes[k % LANES] = a[k].mul_add(b[k], lanes[k % LANES]);
    }
    kernels::reduce_lanes(&lanes)
}

/// Scalar matrix product `a · b` under the canonical reduction order.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "reference matmul {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let col: Vec<f32> = (0..b.rows()).map(|k| b.get(k, j)).collect();
            out.set(i, j, dot(a.row(i), &col));
        }
    }
    out
}

/// Scalar row softmax: sequential max, `exp_det`, sum, divide — the
/// literal form of [`kernels::softmax`], one row at a time.
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mut max = f32::NEG_INFINITY;
        for &v in row.iter() {
            max = max.max(v);
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = kernels::exp_det(*v - max);
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Eq. 7 attention probabilities averaged over heads, fully
/// materialized: per head, the `n×n` score matrix `(X·C_h)·Xᵀ` is built,
/// scaled by `1/√d_k`, row-softmaxed, and accumulated. The score kernels
/// `C_h` are construction-time constants, rebuilt here from the fast
/// path's packed block. Oracle for [`MultiHeadAttention::attention_matrix`].
pub fn attention_matrix(mha: &MultiHeadAttention, x: &Matrix) -> Matrix {
    let n = x.rows();
    let heads = mha.config().heads;
    let scale = 1.0 / (mha.config().d_k as f32).sqrt();
    let xt = x.transpose();
    let mut avg = Matrix::zeros(n, n);
    for h in 0..heads {
        let mut scores = matmul(&matmul(x, &mha.score_kernel(h)), &xt);
        for i in 0..n {
            for j in 0..n {
                scores.set(i, j, scores.get(i, j) * scale);
            }
        }
        softmax_rows(&mut scores);
        for i in 0..n {
            for j in 0..n {
                avg.set(i, j, avg.get(i, j) + scores.get(i, j));
            }
        }
    }
    let inv = 1.0 / heads as f32;
    for i in 0..n {
        for j in 0..n {
            avg.set(i, j, avg.get(i, j) * inv);
        }
    }
    avg
}
