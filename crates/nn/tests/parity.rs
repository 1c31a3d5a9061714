//! Bitwise-parity suite: the blocked/register-tiled kernels and fused
//! attention passes must reproduce the paper-literal scalar oracle in
//! `gced_nn::reference` **bit for bit**, on every shape — empty, 1×N,
//! N×1, dims off the 8-lane grid, and NaN/∞ inputs. This equality is
//! the contract that lets the repo's bit-identity pins (served ==
//! offline, N-shard == 1-shard) survive kernel rewrites.

use gced_nn::{reference, AttentionConfig, EmbeddingTable, Matrix, MultiHeadAttention};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded dense matrix with values in [-2, 2).
fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 4.0 - 2.0)
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            assert_eq!(
                a.get(r, c).to_bits(),
                b.get(r, c).to_bits(),
                "{what}: [{r}][{c}] {} vs {}",
                a.get(r, c),
                b.get(r, c)
            );
        }
    }
}

fn layer(d_model: usize, heads: usize, d_k: usize, seed: u64) -> MultiHeadAttention {
    MultiHeadAttention::new(AttentionConfig {
        d_model,
        heads,
        d_k,
        seed,
        positional_weight: 0.35,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Blocked matmul ≡ scalar oracle on arbitrary shapes, including
    /// zero extents and dims not divisible by the 8-lane block.
    #[test]
    fn matmul_matches_reference(m in 0usize..20, k in 0usize..20, n in 0usize..20, seed in 0u64..1_000_000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0x9e37);
        assert_bitwise(&a.matmul(&b), &reference::matmul(&a, &b), "matmul");
    }

    /// The packed-transpose fast path `A·Bᵀ` ≡ oracle of the transposed
    /// product.
    #[test]
    fn matmul_nt_matches_reference(m in 0usize..20, k in 0usize..20, n in 0usize..20, seed in 0u64..1_000_000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0x51f1);
        assert_bitwise(&a.matmul_nt(&b), &reference::matmul(&a, &b.transpose()), "matmul_nt");
    }

    /// Row softmax (deterministic exp, canonical order) ≡ oracle.
    #[test]
    fn softmax_matches_reference(rows in 0usize..10, cols in 0usize..20, seed in 0u64..1_000_000) {
        let mut fast = rand_matrix(rows, cols, seed);
        let mut slow = fast.clone();
        fast.softmax_rows();
        reference::softmax_rows(&mut slow);
        assert_bitwise(&fast, &slow, "softmax_rows");
    }

    /// Fused row-streaming attention ≡ materialized oracle, across
    /// head/dim configurations off the lane grid.
    #[test]
    fn attention_matrix_matches_reference(
        n in 0usize..12,
        d_model in 1usize..34,
        heads in 1usize..5,
        d_k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mha = layer(d_model, heads, d_k, seed);
        let x = rand_matrix(n, d_model, seed ^ 0xabcd);
        assert_bitwise(
            &mha.attention_matrix(&x),
            &reference::attention_matrix(&mha, &x),
            "attention_matrix",
        );
    }

    /// The full public hot path — embed (memoized rows + positional
    /// encodings) then fused attention — ≡ oracle over the same
    /// embedding, with repeated words forcing the row-copy memo.
    #[test]
    fn attend_words_matches_reference(seed in 0u64..1_000_000, n in 1usize..14) {
        let vocab = ["broncos", "the", "champion", "denver", "title", "won", "the"];
        let mut rng = SmallRng::seed_from_u64(seed);
        let words: Vec<String> = (0..n)
            .map(|_| vocab[(rng.gen::<f32>() * vocab.len() as f32) as usize % vocab.len()].to_string())
            .collect();
        let mha = layer(32, 4, 16, 7);
        let table = EmbeddingTable::new(32, 7);
        let x = mha.embed_sequence(&words, &table);
        assert_bitwise(
            &mha.attend_words(&words, &table),
            &reference::attention_matrix(&mha, &x),
            "attend_words",
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge shapes
// ---------------------------------------------------------------------------

#[test]
fn empty_matrices() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (3, 0, 4), (4, 6, 0)] {
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        let out = a.matmul(&b);
        assert_eq!((out.rows(), out.cols()), (m, n));
        assert_bitwise(&out, &reference::matmul(&a, &b), "empty matmul");
        // K = 0 contracts to exact zeros, not garbage.
        if k == 0 {
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(out.get(r, c).to_bits(), 0.0f32.to_bits());
                }
            }
        }
    }
}

#[test]
fn row_and_column_vectors() {
    for k in [1, 7, 8, 9, 16, 27] {
        let row = rand_matrix(1, k, 3);
        let col = rand_matrix(k, 1, 4);
        assert_bitwise(
            &row.matmul(&col),
            &reference::matmul(&row, &col),
            "1xN · Nx1",
        );
        assert_bitwise(
            &col.matmul(&row),
            &reference::matmul(&col, &row),
            "Nx1 · 1xN",
        );
    }
}

#[test]
fn non_lane_aligned_dims() {
    // Every dim deliberately off the 8-lane / 4-wide register tile.
    for (m, k, n) in [(7, 9, 13), (1, 15, 1), (5, 3, 17), (13, 65, 7)] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(k, n, 6);
        assert_bitwise(&a.matmul(&b), &reference::matmul(&a, &b), "off-lane matmul");
    }
}

#[test]
fn nan_and_inf_propagate_identically() {
    let mut a = rand_matrix(5, 9, 7);
    a.set(1, 2, f32::NAN);
    a.set(3, 0, f32::INFINITY);
    a.set(4, 8, f32::NEG_INFINITY);
    let b = rand_matrix(9, 6, 8);
    let fast = a.matmul(&b);
    let slow = reference::matmul(&a, &b);
    assert_bitwise(&fast, &slow, "NaN/∞ matmul");
    assert!(fast.get(1, 0).is_nan(), "NaN row must poison its products");
    assert!(fast.get(3, 0).is_infinite() || fast.get(3, 0).is_nan());
}

#[test]
fn nan_and_inf_through_fused_softmax() {
    // Scores containing NaN and ±∞ must flow through the fused
    // score→scale→softmax chain exactly as through the oracle.
    let mha = layer(16, 2, 8, 11);
    let mut x = rand_matrix(6, 16, 12);
    x.set(2, 3, f32::NAN);
    x.set(4, 0, f32::INFINITY);
    let fast = mha.attention_matrix(&x);
    let slow = reference::attention_matrix(&mha, &x);
    assert_bitwise(&fast, &slow, "NaN/∞ fused attention");
    // The NaN-poisoned query row stays NaN in both.
    assert!(fast.get(2, 0).is_nan());

    // And directly on softmax_rows: a NaN entry, an all--∞ row, and a
    // +∞ spike each take the documented edge path, identically.
    let mut m = Matrix::from_rows(&[
        vec![1.0, f32::NAN, 0.5],
        vec![f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY],
        vec![f32::INFINITY, 1.0, 0.0],
        vec![1.0, 2.0, 3.0],
    ]);
    let mut r = m.clone();
    m.softmax_rows();
    reference::softmax_rows(&mut r);
    assert_bitwise(&m, &r, "softmax edge rows");
    assert!(m.get(0, 0).is_nan() || m.get(0, 1).is_nan());
    // +∞ wins its row outright: exp(x-∞)=0 elsewhere, exp(∞-∞)=NaN there.
    assert!(m.get(2, 0).is_nan());
}

#[test]
fn softmax_dense_exp_sweep_matches_scalar() {
    // 8-wide rows push every element through the packed exp path (when
    // the machine has one) while the oracle stays scalar; sweeping the
    // whole useful domain catches any rounding corner the random
    // proptests might miss (clamp edges, the round-magic boundary).
    let mut vals = Vec::new();
    let mut x = -95.0f32;
    while x < 2.0 {
        vals.push(x);
        x += 0.007_31;
    }
    for chunk in vals.chunks_exact(8) {
        let mut fast = Matrix::from_rows(&[chunk.to_vec()]);
        let mut slow = fast.clone();
        fast.softmax_rows();
        reference::softmax_rows(&mut slow);
        assert_bitwise(&fast, &slow, "dense exp sweep");
    }
}

#[test]
fn embed_into_matches_embed() {
    let mut table = EmbeddingTable::new(48, 9);
    table.fit(
        &[vec!["broncos".into(), "champion".into(), "team".into()]],
        2,
        2,
        0.25,
    );
    for w in ["broncos", "Champion", "neverseen", "x"] {
        let via_vec = table.embed(w);
        let mut buf = vec![7.0f32; 48];
        table.embed_into(w, &mut buf);
        assert_eq!(via_vec, buf, "{w}");
    }
}
