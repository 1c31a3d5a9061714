//! The probabilistic grammar: symbols, rules, head directions.
//!
//! The grammar is expressed directly in the binary/unary form CKY needs:
//! * preterminal rules `NT -> Pos` anchor nonterminals to POS tags;
//! * unary rules `NT -> NT` are closed over during parsing;
//! * binary rules `NT -> NT NT` carry a [`HeadSide`] marking which child
//!   contributes the lexical head — the "lexicalized" part of L-PCFG that
//!   the dependency extraction of Sec. III-D consumes.
//!
//! Rule weights are relative; [`GrammarBuilder::build`] normalizes them
//! into probabilities per left-hand side and compiles them once into
//! chart tables: symbol- and POS-indexed rule lists with precomputed
//! `ln(prob)`, the form the dense CKY chart reads.

use gced_text::Pos;

/// Number of [`Pos`] variants (the preterminal table's length).
const POS_COUNT: usize = Pos::Other as usize + 1;

/// Grammar nonterminal symbols (plus the goal symbol `Top`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symbol {
    /// Goal symbol.
    Top,
    /// Clause.
    S,
    /// Noun phrase.
    Np,
    /// Nominal core (adjectives + nouns).
    Nbar,
    /// Lexical noun head.
    N,
    /// Verb phrase.
    Vp,
    /// Lexical verb head.
    V,
    /// Auxiliary wrapper.
    Aux,
    /// Prepositional phrase.
    Pp,
    /// Preposition wrapper.
    In,
    /// Adjective phrase.
    Adjp,
    /// Adverb phrase.
    Advp,
    /// Determiner wrapper.
    Dt,
    /// Coordination tail for NPs (`CC NP`).
    CcNp,
    /// Coordination tail for VPs (`CC VP`).
    CcVp,
    /// Coordination tail for clauses (`CC S`).
    CcS,
    /// Conjunction wrapper.
    Cc,
    /// Number wrapper.
    Num,
}

impl Symbol {
    /// Number of symbols: the width of a dense chart cell.
    pub(crate) const COUNT: usize = Symbol::Num as usize + 1;

    /// Every symbol, in declaration (and `Ord`) order: `ALL[s.index()] == s`.
    pub(crate) const ALL: [Symbol; Symbol::COUNT] = [
        Symbol::Top,
        Symbol::S,
        Symbol::Np,
        Symbol::Nbar,
        Symbol::N,
        Symbol::Vp,
        Symbol::V,
        Symbol::Aux,
        Symbol::Pp,
        Symbol::In,
        Symbol::Adjp,
        Symbol::Advp,
        Symbol::Dt,
        Symbol::CcNp,
        Symbol::CcVp,
        Symbol::CcS,
        Symbol::Cc,
        Symbol::Num,
    ];

    /// Dense index in `0..COUNT`, ordered like `Ord`.
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short label for tree rendering.
    pub fn label(self) -> &'static str {
        match self {
            Symbol::Top => "TOP",
            Symbol::S => "S",
            Symbol::Np => "NP",
            Symbol::Nbar => "NBAR",
            Symbol::N => "N",
            Symbol::Vp => "VP",
            Symbol::V => "V",
            Symbol::Aux => "AUX",
            Symbol::Pp => "PP",
            Symbol::In => "IN",
            Symbol::Adjp => "ADJP",
            Symbol::Advp => "ADVP",
            Symbol::Dt => "DT",
            Symbol::CcNp => "CCNP",
            Symbol::CcVp => "CCVP",
            Symbol::CcS => "CCS",
            Symbol::Cc => "CC",
            Symbol::Num => "NUM",
        }
    }
}

/// Which child of a binary rule carries the lexical head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadSide {
    /// Left child is the head.
    Left,
    /// Right child is the head.
    Right,
}

/// `lhs -> pos` with probability `prob`.
#[derive(Debug, Clone, Copy)]
pub struct PretermRule {
    pub lhs: Symbol,
    pub pos: Pos,
    pub prob: f64,
}

/// `lhs -> child` with probability `prob` (head = child).
#[derive(Debug, Clone, Copy)]
pub struct UnaryRule {
    pub lhs: Symbol,
    pub child: Symbol,
    pub prob: f64,
}

/// `lhs -> left right` with probability `prob` and a head side.
#[derive(Debug, Clone, Copy)]
pub struct BinaryRule {
    pub lhs: Symbol,
    pub left: Symbol,
    pub right: Symbol,
    pub prob: f64,
    pub head: HeadSide,
}

/// A normalized PCFG plus its compiled chart tables.
#[derive(Debug, Clone)]
pub struct Grammar {
    preterm: Vec<PretermRule>,
    unary: Vec<UnaryRule>,
    binary: Vec<BinaryRule>,
    tables: Tables,
}

/// A unary rule compiled for the chart.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseUnary {
    pub lhs: usize,
    pub child: usize,
    pub lp: f64,
}

/// A binary rule compiled for the chart, filed under its left child.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseBinary {
    pub lhs: usize,
    pub right: usize,
    pub lp: f64,
    /// Index into [`Grammar::binary_rules`] (the chart's back-pointer).
    pub rule: u16,
}

/// The grammar compiled once for the dense CKY chart. Symbols are
/// [`Symbol::index`] values and every `lp` is `prob.ln()` of the
/// normalized rule, so the chart never hashes and never calls `ln`.
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    /// Per [`Pos`] index: `(lhs, lp)` of its preterminal rules, in
    /// declaration order.
    pub preterm: Vec<Vec<(usize, f64)>>,
    /// Unary rules in declaration order (the closure's scan order).
    pub unary: Vec<DenseUnary>,
    /// Per left-child index: its binary rules sorted by right child,
    /// then declaration order (the chart's canonical tie order).
    pub by_left: Vec<Vec<DenseBinary>>,
    /// Per left-child index: the set of right children it combines
    /// with, as a symbol bitmask.
    pub rights: Vec<u32>,
}

impl Tables {
    fn compile(preterm: &[PretermRule], unary: &[UnaryRule], binary: &[BinaryRule]) -> Tables {
        let mut tables = Tables {
            preterm: vec![Vec::new(); POS_COUNT],
            unary: unary
                .iter()
                .map(|r| DenseUnary {
                    lhs: r.lhs.index(),
                    child: r.child.index(),
                    lp: r.prob.ln(),
                })
                .collect(),
            by_left: vec![Vec::new(); Symbol::COUNT],
            rights: vec![0; Symbol::COUNT],
        };
        for r in preterm {
            tables.preterm[r.pos as usize].push((r.lhs.index(), r.prob.ln()));
        }
        assert!(
            binary.len() <= usize::from(u16::MAX),
            "too many binary rules"
        );
        for (i, r) in binary.iter().enumerate() {
            let left = r.left.index();
            tables.by_left[left].push(DenseBinary {
                lhs: r.lhs.index(),
                right: r.right.index(),
                lp: r.prob.ln(),
                rule: i as u16,
            });
            tables.rights[left] |= 1 << r.right.index();
        }
        for rules in &mut tables.by_left {
            // Stable: equal right children keep declaration order.
            rules.sort_by_key(|r| r.right);
        }
        tables
    }
}

impl Grammar {
    /// All preterminal rules.
    pub fn preterminal_rules(&self) -> &[PretermRule] {
        &self.preterm
    }

    /// All unary rules.
    pub fn unary_rules(&self) -> &[UnaryRule] {
        &self.unary
    }

    /// All binary rules.
    pub fn binary_rules(&self) -> &[BinaryRule] {
        &self.binary
    }

    /// The compiled chart tables.
    pub(crate) fn tables(&self) -> &Tables {
        &self.tables
    }

    /// The embedded English grammar used throughout the reproduction.
    ///
    /// Weights are hand-set relative frequencies tuned on the synthetic
    /// corpora; `build` normalizes them per LHS.
    pub fn english() -> Grammar {
        let mut g = GrammarBuilder::new();
        use HeadSide::{Left, Right};
        use Symbol::*;

        // ---- preterminals ------------------------------------------------
        g.preterm(N, Pos::Noun, 6.0);
        g.preterm(N, Pos::ProperNoun, 5.0);
        g.preterm(N, Pos::Pronoun, 1.5);
        g.preterm(N, Pos::Num, 0.8);
        g.preterm(N, Pos::Other, 0.2);
        g.preterm(N, Pos::Wh, 0.1);
        g.preterm(V, Pos::Verb, 1.0);
        g.preterm(Aux, Pos::Aux, 1.0);
        g.preterm(In, Pos::Prep, 1.0);
        g.preterm(Dt, Pos::Det, 1.0);
        g.preterm(Cc, Pos::Conj, 1.0);
        g.preterm(Adjp, Pos::Adj, 1.0);
        g.preterm(Advp, Pos::Adv, 1.0);
        g.preterm(Num, Pos::Num, 1.0);

        // ---- unaries ------------------------------------------------------
        g.unary(Top, S, 8.0);
        g.unary(Top, Np, 1.5); // fragments: titles, appositives
        g.unary(Top, Vp, 0.5);
        g.unary(Nbar, N, 5.0);
        g.unary(Np, Nbar, 4.0);
        g.unary(Vp, V, 1.0);

        // ---- clauses ------------------------------------------------------
        g.binary(S, Np, Vp, 9.0, Right);
        g.binary(S, S, CcS, 0.6, Left);
        g.binary(CcS, Cc, S, 1.0, Right);
        g.binary(S, Advp, S, 0.4, Right);

        // ---- noun phrases ---------------------------------------------------
        g.binary(Np, Dt, Nbar, 4.5, Right);
        g.binary(Np, Np, Pp, 2.0, Left);
        g.binary(Np, Num, Nbar, 0.6, Right);
        g.binary(Np, Np, CcNp, 0.8, Left);
        g.binary(CcNp, Cc, Np, 1.0, Right);
        g.binary(Nbar, Adjp, Nbar, 2.2, Right);
        g.binary(Nbar, N, Nbar, 2.8, Right); // noun compounds, right-headed
        g.binary(Nbar, Num, Nbar, 0.4, Right);
        g.binary(Np, Np, Np, 0.3, Left); // appositions ("the duke William")

        // ---- verb phrases ---------------------------------------------------
        g.binary(Vp, V, Np, 4.0, Left);
        g.binary(Vp, V, Pp, 1.2, Left);
        g.binary(Vp, Vp, Pp, 2.0, Left);
        g.binary(Vp, Aux, Vp, 1.4, Right);
        g.binary(Vp, Aux, Np, 0.7, Right); // copula: "is the capital"
        g.binary(Vp, Aux, Adjp, 0.5, Right);
        g.binary(Vp, Aux, Pp, 0.4, Right);
        g.binary(Vp, Advp, Vp, 0.4, Right);
        g.binary(Vp, Vp, Advp, 0.4, Left);
        g.binary(Vp, V, Adjp, 0.3, Left);
        g.binary(Vp, Vp, CcVp, 0.5, Left);
        g.binary(CcVp, Cc, Vp, 1.0, Right);
        g.binary(Vp, Vp, Np, 0.3, Left); // ditransitive tail
        g.binary(Vp, V, S, 0.2, Left); // clausal complement

        // ---- prepositional / modifier phrases --------------------------------
        g.binary(Pp, In, Np, 1.0, Left); // preposition heads its phrase
        g.binary(Adjp, Advp, Adjp, 0.3, Right);
        g.binary(Adjp, Adjp, Adjp, 0.1, Right);

        g.build()
    }
}

/// Incremental grammar construction with per-LHS normalization.
#[derive(Debug, Default)]
pub struct GrammarBuilder {
    preterm: Vec<PretermRule>,
    unary: Vec<UnaryRule>,
    binary: Vec<BinaryRule>,
}

impl GrammarBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a preterminal rule with relative weight `w`.
    pub fn preterm(&mut self, lhs: Symbol, pos: Pos, w: f64) -> &mut Self {
        self.preterm.push(PretermRule { lhs, pos, prob: w });
        self
    }

    /// Add a unary rule with relative weight `w`.
    pub fn unary(&mut self, lhs: Symbol, child: Symbol, w: f64) -> &mut Self {
        self.unary.push(UnaryRule {
            lhs,
            child,
            prob: w,
        });
        self
    }

    /// Add a binary rule with relative weight `w` and head side.
    pub fn binary(
        &mut self,
        lhs: Symbol,
        left: Symbol,
        right: Symbol,
        w: f64,
        head: HeadSide,
    ) -> &mut Self {
        self.binary.push(BinaryRule {
            lhs,
            left,
            right,
            prob: w,
            head,
        });
        self
    }

    /// Normalize weights per LHS (across all three rule kinds) and
    /// compile the chart tables.
    pub fn build(&self) -> Grammar {
        let mut totals = [0.0f64; Symbol::COUNT];
        for r in &self.preterm {
            totals[r.lhs.index()] += r.prob;
        }
        for r in &self.unary {
            totals[r.lhs.index()] += r.prob;
        }
        for r in &self.binary {
            totals[r.lhs.index()] += r.prob;
        }
        let norm = |lhs: Symbol, p: f64| p / totals[lhs.index()];

        let preterm: Vec<PretermRule> = self
            .preterm
            .iter()
            .map(|r| PretermRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();
        let unary: Vec<UnaryRule> = self
            .unary
            .iter()
            .map(|r| UnaryRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();
        let binary: Vec<BinaryRule> = self
            .binary
            .iter()
            .map(|r| BinaryRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();

        let tables = Tables::compile(&preterm, &unary, &binary);
        Grammar {
            preterm,
            unary,
            binary,
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn english_grammar_normalizes_per_lhs() {
        let g = Grammar::english();
        let mut sums: HashMap<Symbol, f64> = HashMap::new();
        for r in g.preterminal_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in g.unary_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in g.binary_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for (lhs, total) in sums {
            assert!((total - 1.0).abs() < 1e-9, "{lhs:?} sums to {total}");
        }
    }

    #[test]
    fn pos_table_covers_open_classes() {
        let g = Grammar::english();
        for pos in [
            Pos::Noun,
            Pos::ProperNoun,
            Pos::Verb,
            Pos::Adj,
            Pos::Adv,
            Pos::Det,
            Pos::Prep,
        ] {
            assert!(
                !g.tables().preterm[pos as usize].is_empty(),
                "{pos:?} unproducible"
            );
        }
        assert!(g.tables().preterm[Pos::Punct as usize].is_empty());
    }

    #[test]
    fn left_table_finds_s_rule() {
        let g = Grammar::english();
        let t = g.tables();
        let np = Symbol::Np.index();
        assert_ne!(t.rights[np] & (1 << Symbol::Vp.index()), 0);
        assert!(t.by_left[np].iter().any(|r| {
            let rule = g.binary_rules()[usize::from(r.rule)];
            r.right == Symbol::Vp.index()
                && r.lhs == Symbol::S.index()
                && (rule.left, rule.right, rule.head) == (Symbol::Np, Symbol::Vp, HeadSide::Right)
                && r.lp == rule.prob.ln()
        }));
    }

    #[test]
    fn symbol_index_round_trips_in_ord_order() {
        for (i, s) in Symbol::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert!(Symbol::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn left_tables_sort_by_right_then_declaration() {
        let g = Grammar::english();
        for rules in &g.tables().by_left {
            assert!(rules
                .windows(2)
                .all(|w| (w[0].right, w[0].rule) < (w[1].right, w[1].rule)));
        }
    }

    #[test]
    fn probabilities_positive() {
        let g = Grammar::english();
        assert!(g.preterminal_rules().iter().all(|r| r.prob > 0.0));
        assert!(g.unary_rules().iter().all(|r| r.prob > 0.0));
        assert!(g.binary_rules().iter().all(|r| r.prob > 0.0));
    }

    #[test]
    fn labels_render() {
        assert_eq!(Symbol::Np.label(), "NP");
        assert_eq!(Symbol::Top.label(), "TOP");
    }
}
