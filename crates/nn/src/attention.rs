//! Multi-head scaled dot-product self-attention probabilities (paper
//! Eqs. 6–7).
//!
//! The paper derives WSPTC edge weights from the first-layer encoder
//! attention of the PLM: linear Q/K maps, `heads = 16` scaled
//! dot-product attentions with `d_k = 64` and softmax normalization.
//! This module reproduces that computation over the deterministic
//! embeddings of [`crate::embedding`], with sinusoidal position
//! encodings so that nearby tokens attend more — the locality bias real
//! layer-1 heads show.
//!
//! The quantity GCED consumes is the **token-to-token attention
//! probability matrix**; following the paper we expose the per-head
//! softmax scores averaged over heads via
//! [`MultiHeadAttention::attention_matrix`]. Eq. 8 (value weighting,
//! head concatenation and the `Wo` projection) produces contextual
//! encodings that WSPTC never reads, so it is not computed.
//!
//! The pass runs **fused**: the score → scale → softmax chain streams
//! one query row at a time through the blocked kernels of
//! [`crate::kernels`], so the full `n×n` per-head score matrix is never
//! materialized — per row, a length-`n` score buffer is filled by the
//! register-tiled dot kernel, softmaxed in place, and immediately
//! accumulated. Every reduction uses the fixed 8-lane tree, so the fused
//! pass is bitwise-identical to the materialized scalar oracle in
//! [`crate::reference`] (property-tested), and identical on any machine
//! at any thread count.

use crate::embedding::EmbeddingTable;
use crate::kernels;
use crate::matrix::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Hyperparameters (paper defaults: 16 heads, d_k = 64).
#[derive(Debug, Clone, Copy)]
pub struct AttentionConfig {
    /// Model (embedding) dimensionality.
    pub d_model: usize,
    /// Number of attention heads (paper: 16).
    pub heads: usize,
    /// Per-head key/query dimensionality (paper: 64).
    pub d_k: usize,
    /// RNG seed for the projection matrices.
    pub seed: u64,
    /// Strength of the additive position encoding (0 disables).
    pub positional_weight: f32,
}

impl Default for AttentionConfig {
    fn default() -> Self {
        AttentionConfig {
            d_model: 64,
            heads: 16,
            d_k: 64,
            seed: 42,
            positional_weight: 0.35,
        }
    }
}

/// A frozen multi-head self-attention layer.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    config: AttentionConfig,
    /// The per-head score kernels `C_h = (Wq · WQ_h) · (Wk · WK_h)ᵀ`
    /// (d_model × d_model each): the score matrix of Eq. 7 factors as
    /// `(X·C_h)·Xᵀ`, which removes the two per-head Q/K projections of
    /// the hot path. Stored transposed and stacked into one packed
    /// `(heads·d_model) × d_model` matrix (row `h·d_model + j` is column
    /// `j` of `C_h`), so the fused path computes every head's projection
    /// `X·C_h` in a single `matmul_nt` sweep with no per-call packing.
    score_kernels_t: Matrix,
    /// Positional encodings for the first rows, precomputed (the `powf`
    /// per element is measurable on the distill hot path).
    positional_cache: Matrix,
}

/// Positions covered by the precomputed positional-encoding cache.
const POSITIONAL_CACHE_ROWS: usize = 256;

/// The Eq. 6–7 query/key projections, alive only while the score
/// kernels are built.
struct Projections {
    /// Shared first-stage projections (Eq. 6): d_model × d_model.
    wq: Matrix,
    wk: Matrix,
    /// Per-head projections (Eq. 7): d_model × d_k each.
    head_q: Vec<Matrix>,
    head_k: Vec<Matrix>,
}

/// Draw the projections from the seeded PRNG (Xavier-style scaling) in
/// the layer's fixed order: `Wq`, `Wk`, `Wv`, then per head `WQ_h`,
/// `WK_h`, `WV_h`. The value maps belong to Eq. 8, which is not
/// computed; they are still drawn and dropped because the draw order
/// fixes the bits of every later weight. `Wo`, the last draw, is
/// skipped.
fn draw_projections(config: &AttentionConfig) -> Projections {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let init = |rows: usize, cols: usize, rng: &mut SmallRng| {
        let scale = (2.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
    };
    let (d, dk) = (config.d_model, config.d_k);
    let wq = init(d, d, &mut rng);
    let wk = init(d, d, &mut rng);
    let _wv = init(d, d, &mut rng);
    let mut head_q = Vec::with_capacity(config.heads);
    let mut head_k = Vec::with_capacity(config.heads);
    for _ in 0..config.heads {
        head_q.push(init(d, dk, &mut rng));
        head_k.push(init(d, dk, &mut rng));
        let _head_v = init(d, dk, &mut rng);
    }
    Projections {
        wq,
        wk,
        head_q,
        head_k,
    }
}

impl MultiHeadAttention {
    /// Initialize the layer from the seeded PRNG (deterministic for a
    /// given config) and fold the Q/K projections into the packed score
    /// kernels.
    pub fn new(config: AttentionConfig) -> Self {
        assert!(config.heads > 0 && config.d_k > 0 && config.d_model > 0);
        let p = draw_projections(&config);
        let d = config.d_model;
        // C_hᵀ = (Wk·WK_h)·(Wq·WQ_h)ᵀ: element [j][i] is the same
        // canonical dot of row i of Wq·WQ_h and row j of Wk·WK_h as
        // C_h[i][j] (the fma multiply commutes exactly).
        let kernels_t: Vec<Matrix> = (0..config.heads)
            .map(|h| {
                p.wk.matmul(&p.head_k[h])
                    .matmul_nt(&p.wq.matmul(&p.head_q[h]))
            })
            .collect();
        let score_kernels_t =
            Matrix::from_fn(config.heads * d, d, |r, c| kernels_t[r / d].get(r % d, c));
        let positional_cache = Matrix::from_fn(POSITIONAL_CACHE_ROWS, config.d_model, |p, j| {
            positional(p, j, config.d_model)
        });
        MultiHeadAttention {
            config,
            score_kernels_t,
            positional_cache,
        }
    }

    /// The layer's configuration.
    pub fn config(&self) -> &AttentionConfig {
        &self.config
    }

    /// The head-`h` score kernel `C_h`, rebuilt from the packed block
    /// (oracle access).
    pub(crate) fn score_kernel(&self, h: usize) -> Matrix {
        let d = self.config.d_model;
        Matrix::from_fn(d, d, |i, j| self.score_kernels_t.get(h * d + j, i))
    }

    /// Embed a token sequence (adding position encodings) into an
    /// `n × d_model` matrix.
    ///
    /// Base embeddings are memoized per distinct surface form within the
    /// call — repeated words copy the first occurrence's row instead of
    /// re-hashing character n-grams — then one pass adds the positional
    /// term. Same bits as embedding each position independently.
    pub fn embed_sequence(&self, words: &[String], table: &EmbeddingTable) -> Matrix {
        assert_eq!(table.dim(), self.config.d_model, "embedding dim mismatch");
        let n = words.len();
        let d = self.config.d_model;
        let mut x = Matrix::zeros(n, d);
        let mut first: HashMap<&str, usize> = HashMap::new();
        for (i, word) in words.iter().enumerate() {
            match first.get(word.as_str()) {
                Some(&src) => {
                    let row: Vec<f32> = x.row(src).to_vec();
                    x.row_mut(i).copy_from_slice(&row);
                }
                None => {
                    table.embed_into(word, x.row_mut(i));
                    first.insert(word.as_str(), i);
                }
            }
        }
        let w = self.config.positional_weight;
        for i in 0..n {
            if i < POSITIONAL_CACHE_ROWS {
                let pe: Vec<f32> = self.positional_cache.row(i).to_vec();
                for (v, p) in x.row_mut(i).iter_mut().zip(&pe) {
                    // gced-allow(DET002): elementwise positional bias, one add per element — no reduction order exists
                    *v += w * p;
                }
            } else {
                for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                    // gced-allow(DET002): elementwise positional bias (uncached rows), same single add per element
                    *v += w * positional(i, j, d);
                }
            }
        }
        x
    }

    /// Eq. 7 attention probabilities, averaged over all heads:
    /// `A[i][j]` = mean_h softmax_j(Q_h(i)·K_h(j)/√d_k). Rows sum to 1.
    ///
    /// Fused row-streaming pass over the precomputed score kernels
    /// (`Q_h·K_hᵀ = (X·C_h)·Xᵀ`): one packed `matmul_nt` computes every
    /// head's `X·C_h` projection, then per query row the length-`n`
    /// score row is built by the register-tiled dot kernel (`X` itself
    /// is the packed transpose of `Xᵀ`, so no transpose is ever
    /// materialized), scaled, softmaxed in place, and accumulated — the
    /// `n×n` per-head score matrix never exists. Bitwise-equal to
    /// [`crate::reference::attention_matrix`].
    pub fn attention_matrix(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let d = self.config.d_model;
        let heads = self.config.heads;
        let scale = 1.0 / (self.config.d_k as f32).sqrt();
        // P[i][h·d + j] = (X·C_h)[i][j], all heads in one blocked sweep.
        let p = x.matmul_nt(&self.score_kernels_t);
        let mut avg = Matrix::zeros(n, n);
        let mut s = vec![0.0f32; n];
        for i in 0..n {
            for h in 0..heads {
                let pi = &p.row(i)[h * d..(h + 1) * d];
                score_row(pi, x, scale, &mut s);
                kernels::softmax(&mut s);
                for (a, &v) in avg.row_mut(i).iter_mut().zip(&s) {
                    // gced-allow(DET002): sequential accumulation in fixed head order h = 0..heads, bitwise-mirrored by reference::attention_matrix
                    *a += v;
                }
            }
        }
        avg.scale(1.0 / heads as f32);
        avg
    }

    /// Convenience: attention matrix straight from words.
    pub fn attend_words(&self, words: &[String], table: &EmbeddingTable) -> Matrix {
        self.attention_matrix(&self.embed_sequence(words, table))
    }
}

/// One streamed score row: `s[j] = dot(query, keys.row(j)) · scale`,
/// contracted against all key rows in a single [`kernels::dot_rows`]
/// batch (the keys are row-major, so the whole matrix is the packed
/// operand). The scale multiply is a separate pass over the finished
/// dots — the same op order as `dot(...) * scale` one `j` at a time.
fn score_row(query: &[f32], keys: &Matrix, scale: f32, s: &mut [f32]) {
    debug_assert_eq!(s.len(), keys.rows());
    kernels::dot_rows(query, keys.as_slice(), s);
    for v in s.iter_mut() {
        *v *= scale;
    }
}

/// Sinusoidal position encoding (Vaswani et al. form).
fn positional(pos: usize, dim_index: usize, d_model: usize) -> f32 {
    let i = (dim_index / 2) as f32;
    let angle = pos as f32 / (10_000f32).powf(2.0 * i / d_model as f32);
    if dim_index.is_multiple_of(2) {
        angle.sin()
    } else {
        angle.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn words(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn default_layer() -> (MultiHeadAttention, EmbeddingTable) {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 4,
            d_k: 16,
            seed: 7,
            positional_weight: 0.35,
        };
        (MultiHeadAttention::new(cfg), EmbeddingTable::new(32, 7))
    }

    #[test]
    fn attention_rows_are_distributions() {
        let (mha, table) = default_layer();
        let ws = words(&["denver", "broncos", "defeated", "carolina", "panthers"]);
        let a = mha.attend_words(&ws, &table);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.cols(), 5);
        for r in 0..5 {
            let s: f32 = a.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            assert!(a.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn attention_is_deterministic() {
        let (mha1, t1) = default_layer();
        let (mha2, t2) = default_layer();
        let ws = words(&["the", "battle", "of", "hastings"]);
        let a1 = mha1.attend_words(&ws, &t1);
        let a2 = mha2.attend_words(&ws, &t2);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(a1.get(r, c), a2.get(r, c));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg1 = AttentionConfig {
            seed: 1,
            d_model: 32,
            heads: 2,
            d_k: 8,
            positional_weight: 0.35,
        };
        let cfg2 = AttentionConfig { seed: 2, ..cfg1 };
        let t = EmbeddingTable::new(32, 1);
        let ws = words(&["a", "b", "c"]);
        let a1 = MultiHeadAttention::new(cfg1).attend_words(&ws, &t);
        let a2 = MultiHeadAttention::new(cfg2).attend_words(&ws, &t);
        let mut any_diff = false;
        for r in 0..3 {
            for c in 0..3 {
                if (a1.get(r, c) - a2.get(r, c)).abs() > 1e-9 {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff);
    }

    /// Paper-literal Eq. 7 head average from freshly drawn projections:
    /// `mean_h softmax((X·Wq·WQ_h)(X·Wk·WK_h)ᵀ / √d_k)`, plain loops.
    fn literal_attention(config: &AttentionConfig, x: &Matrix) -> Vec<Vec<f64>> {
        let p = draw_projections(config);
        let n = x.rows();
        let scale = 1.0 / (config.d_k as f64).sqrt();
        let mut avg = vec![vec![0.0f64; n]; n];
        for h in 0..config.heads {
            let q = x.matmul(&p.wq).matmul(&p.head_q[h]);
            let k = x.matmul(&p.wk).matmul(&p.head_k[h]);
            for (i, avg_row) in avg.iter_mut().enumerate() {
                let scores: Vec<f64> = (0..n)
                    .map(|j| {
                        let dot: f64 = (0..config.d_k)
                            .map(|c| f64::from(q.get(i, c)) * f64::from(k.get(j, c)))
                            .sum();
                        dot * scale
                    })
                    .collect();
                let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                let sum: f64 = exps.iter().sum();
                for (a, e) in avg_row.iter_mut().zip(&exps) {
                    *a += e / sum / config.heads as f64;
                }
            }
        }
        avg
    }

    #[test]
    fn score_kernels_factor_the_literal_head_average() {
        let shapes = [
            (8, 1, 4, 5),
            (16, 2, 8, 9),
            (12, 3, 5, 1),
            (32, 4, 16, 17),
            (64, 16, 64, 24),
        ];
        for (d_model, heads, d_k, n) in shapes {
            let config = AttentionConfig {
                d_model,
                heads,
                d_k,
                seed: 1234 + d_model as u64,
                positional_weight: 0.35,
            };
            let mha = MultiHeadAttention::new(config);
            let mut rng = SmallRng::seed_from_u64(99 + n as u64);
            let x = Matrix::from_fn(n, d_model, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
            let fused = mha.attention_matrix(&x);
            let literal = literal_attention(&config, &x);
            for (i, row) in literal.iter().enumerate() {
                for (j, &want) in row.iter().enumerate() {
                    let got = f64::from(fused.get(i, j));
                    assert!(
                        (got - want).abs() < 1e-5,
                        "{d_model}/{heads}/{d_k} n={n} [{i}][{j}]: {got} vs {want}"
                    );
                }
            }
            // The packed block holds exactly the bits of the scalar-oracle
            // product `(Wq·WQ_h)·(Wk·WK_h)ᵀ`.
            let p = draw_projections(&config);
            for h in 0..heads {
                let want = reference::matmul(
                    &reference::matmul(&p.wq, &p.head_q[h]),
                    &reference::matmul(&p.wk, &p.head_k[h]).transpose(),
                );
                let got = mha.score_kernel(h);
                assert!(
                    got.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{d_model}/{heads}/{d_k}: C_{h} bits differ"
                );
            }
        }
    }

    #[test]
    fn singleton_sequence_attends_to_itself() {
        let (mha, table) = default_layer();
        let a = mha.attend_words(&words(&["solo"]), &table);
        assert_eq!(a.rows(), 1);
        assert!((a.get(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn position_encoding_differentiates_repeated_words() {
        let (mha, table) = default_layer();
        let x = mha.embed_sequence(&words(&["echo", "echo"]), &table);
        let row0: Vec<f32> = x.row(0).to_vec();
        let row1: Vec<f32> = x.row(1).to_vec();
        assert_ne!(row0, row1);
    }

    #[test]
    fn paper_default_config() {
        let cfg = AttentionConfig::default();
        assert_eq!(cfg.heads, 16);
        assert_eq!(cfg.d_k, 64);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn mismatched_table_dim_panics() {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 2,
            d_k: 8,
            seed: 1,
            positional_weight: 0.0,
        };
        let mha = MultiHeadAttention::new(cfg);
        let table = EmbeddingTable::new(16, 1);
        let _ = mha.embed_sequence(&words(&["x"]), &table);
    }
}
