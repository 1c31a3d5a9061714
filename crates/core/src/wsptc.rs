//! Weighted Syntactic Parsing Tree Constructor (paper Sec. III-D).
//!
//! Parses the answer-oriented sentences with the L-PCFG CKY parser into a
//! head-lexicalized dependency tree whose nodes are token indices, then
//! annotates every (child → parent) edge with a head-averaged attention
//! probability (Eqs. 6–7). Higher weight = stronger dependence between
//! the node and its parent — the quantity both SGS (max) and the SCS
//! tie-break (min) consult.

use gced_nn::{EmbeddingTable, MultiHeadAttention};
use gced_parser::{CkyParser, DepTree};
use gced_text::Document;

/// A dependency tree with per-edge attention weights.
#[derive(Debug, Clone)]
pub struct WeightedTree {
    /// The tree over local token indices of the AOS document.
    pub tree: DepTree,
    /// `weights[i]` = attention weight between token *i* and its parent
    /// (0.0 for the root).
    pub weights: Vec<f64>,
}

impl WeightedTree {
    /// Attention weight between node `i` and its parent.
    pub fn edge_weight(&self, i: usize) -> f64 {
        self.weights[i]
    }
}

/// Build the weighted tree for an analysed AOS document.
pub fn construct(
    parser: &CkyParser,
    mha: &MultiHeadAttention,
    emb: &EmbeddingTable,
    aos: &Document,
) -> WeightedTree {
    let tree = gced_parser::parse_document_with(aos, parser);
    let n = aos.len();
    let mut weights = vec![0.0f64; n];
    if n > 0 {
        let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
        let attn = mha.attend_words(&words, emb);
        for (i, weight) in weights.iter_mut().enumerate() {
            if let Some(p) = tree.parent(i) {
                // Symmetrized attention between the two endpoints: the
                // paper reads "attention from a node to its child node";
                // averaging both directions keeps the weight insensitive
                // to row-normalization artifacts.
                *weight = 0.5 * (attn.get(p, i) + attn.get(i, p)) as f64;
            }
        }
    }
    WeightedTree { tree, weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_nn::AttentionConfig;
    use gced_text::analyze;

    fn substrate() -> (CkyParser, MultiHeadAttention, EmbeddingTable) {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 4,
            d_k: 16,
            seed: 7,
            positional_weight: 0.35,
        };
        (
            CkyParser::embedded(),
            MultiHeadAttention::new(cfg),
            EmbeddingTable::new(32, 7),
        )
    }

    #[test]
    fn weights_cover_all_non_root_nodes() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos defeated the Panthers to earn the title.");
        let wt = construct(&parser, &mha, &emb, &aos);
        wt.tree.validate().unwrap();
        assert_eq!(wt.weights.len(), aos.len());
        for i in 0..aos.len() {
            if i == wt.tree.root() {
                assert_eq!(wt.edge_weight(i), 0.0);
            } else {
                assert!(wt.edge_weight(i) > 0.0, "node {i} weightless");
                assert!(wt.edge_weight(i) <= 1.0);
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The duke led troops in the battle.");
        let a = construct(&parser, &mha, &emb, &aos);
        let b = construct(&parser, &mha, &emb, &aos);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn empty_document() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("");
        let wt = construct(&parser, &mha, &emb, &aos);
        assert!(wt.tree.is_empty());
        assert!(wt.weights.is_empty());
    }

    #[test]
    fn multi_sentence_tree_is_connected() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos won the title. The team celebrated in Denver.");
        let wt = construct(&parser, &mha, &emb, &aos);
        wt.tree.validate().unwrap();
        assert_eq!(wt.tree.subtree(wt.tree.root()).len(), aos.len());
    }
}
