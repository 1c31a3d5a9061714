//! Probabilistic CKY with unary closure, plus robust token-level parsing.
//!
//! [`CkyParser::parse_constituency`] runs exact Viterbi CKY over a POS
//! sequence; [`CkyParser::parse_tokens`] wraps it into a total function
//! from tokens to a dependency tree — punctuation/clitics are excluded
//! from the grammar and re-attached afterwards, and out-of-grammar or
//! over-long inputs fall back to a right-branching tree rather than
//! failing (GCED must distill *something* for every context).
//!
//! ## Chart layout
//!
//! The grammar arrives compiled ([`crate::grammar`]'s tables: rules
//! addressed by symbol index, `ln(prob)` precomputed). The chart is
//! triangular — one cell per span, `n(n+1)/2` in all, stored width-major
//! so a cell is pushed right after its last sub-span — and each cell
//! holds `[f64; 18]` scores, `u32`-packed back-pointers and a `u32`
//! occupancy mask over the 18 symbols. A split skips empty sub-cells and
//! walks only the set bits of the left mask; for each left symbol it
//! scans that symbol's binary rules and checks the right mask. About
//! 224 bytes a cell, so a 72-token chart is under 600 KB.
//!
//! ## Tie rule
//!
//! Candidates for one cell are visited split ascending, then left symbol
//! ascending, then right symbol ascending, then rule declaration order;
//! a strictly better score replaces, so on an exact tie the first
//! candidate wins. Every score is `(left + right) + ln(rule)`, summed in
//! that order. The unary closure scans the unary rules in declaration
//! order until nothing improves. The goal is `TOP` when it spans the
//! input, else the best-scoring full-span symbol, the lowest [`Symbol`]
//! on a tie. So the tree is a function of the tags alone.
//!
//! ## Length cutoff
//!
//! `MAX_LEN` stays 72 kept tokens. CKY is O(n³) in time and the chart
//! O(n²) in memory, and raising the cutoff would route today's
//! right-branching fallbacks (about a fifth of the long run-on sentences
//! in TriviaQA-web-style contexts) through the grammar, changing their
//! trees and with them every downstream evidence byte.

use crate::cache::{ParseCache, ParseCacheStats};
use crate::dep::DepTree;
use crate::grammar::{Grammar, HeadSide, Symbol};
use crate::tree::{ConstNode, ConstTree};
use gced_text::{Pos, Token};
use std::sync::{Arc, Mutex};

/// Packed back-pointer kinds (bits 30..32). A preterminal is `0`; a
/// unary keeps its child symbol in the low bits; a binary keeps its rule
/// index in bits 0..16 and its split (the left child's width) in bits
/// 16..30.
const BACK_UNARY: u32 = 1 << 30;
const BACK_BINARY: u32 = 2 << 30;
const BACK_KIND: u32 = 3 << 30;

/// Sentences longer than this (in parseable tokens) skip CKY and use
/// the right-branching fallback (CKY is O(n³)).
const MAX_LEN: usize = 72;

// Every split of a parseable input fits the 14-bit split field.
const _: () = assert!(MAX_LEN < 1 << 14);

// The occupancy mask has one bit per symbol.
const _: () = assert!(Symbol::COUNT <= 32);

/// One chart cell: best score and back-pointer per symbol, valid where
/// `mask` has the symbol's bit.
#[derive(Clone, Copy, Default)]
struct ChartCell {
    score: [f64; Symbol::COUNT],
    back: [u32; Symbol::COUNT],
    mask: u32,
}

impl ChartCell {
    /// Keep `score` for `sym` unless the cell already holds at least as
    /// good a score. Returns whether it replaced.
    fn offer(&mut self, sym: usize, score: f64, back: u32) -> bool {
        let bit = 1 << sym;
        if self.mask & bit != 0 && self.score[sym] >= score {
            return false;
        }
        self.mask |= bit;
        self.score[sym] = score;
        self.back[sym] = back;
        true
    }
}

/// The triangular chart over `n` tokens: cells stored width-major, so
/// every cell is pushed after all of its sub-spans.
struct Chart {
    n: usize,
    cells: Vec<ChartCell>,
}

impl Chart {
    fn new(n: usize) -> Self {
        Chart {
            n,
            cells: Vec::with_capacity(n * (n + 1) / 2),
        }
    }

    /// Index of the span `start..start + width`.
    fn index(&self, start: usize, width: usize) -> usize {
        let w = width - 1;
        w * (self.n + 1) - w * (w + 1) / 2 + start
    }

    fn at(&self, start: usize, width: usize) -> &ChartCell {
        &self.cells[self.index(start, width)]
    }

    /// Append the next cell in width-major order.
    fn push(&mut self, start: usize, width: usize, cell: ChartCell) {
        debug_assert_eq!(self.cells.len(), self.index(start, width));
        self.cells.push(cell);
    }
}

/// Set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// A CKY parser over a fixed grammar.
#[derive(Debug, Clone)]
pub struct CkyParser {
    grammar: Grammar,
    /// Optional memoization of [`CkyParser::parse_tokens`] keyed by the
    /// POS-tag signature (see [`crate::cache`]). Shared by clones, so a
    /// cloned pipeline keeps feeding the same warm cache.
    cache: Option<Arc<Mutex<ParseCache>>>,
}

impl CkyParser {
    /// Parser over the embedded English grammar.
    pub fn embedded() -> Self {
        CkyParser {
            grammar: Grammar::english(),
            cache: None,
        }
    }

    /// Parser over a custom grammar.
    pub fn new(grammar: Grammar) -> Self {
        CkyParser {
            grammar,
            cache: None,
        }
    }

    /// Memoize [`CkyParser::parse_tokens`] results in a bounded LRU of
    /// `capacity` POS-tag signatures (`0` disables caching). The parse
    /// is a pure function of the tag sequence, so cached output is
    /// bit-identical to an uncached parse.
    pub fn with_parse_cache(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| Arc::new(Mutex::new(ParseCache::new(capacity))));
        self
    }

    /// Hit/miss/occupancy counters of the parse cache, if one is
    /// installed.
    pub fn parse_cache_stats(&self) -> Option<ParseCacheStats> {
        self.cache
            .as_ref()
            .map(|c| c.lock().expect("parse cache lock").stats())
    }

    /// The grammar in use.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Exact Viterbi parse of a POS sequence. Returns `None` when the
    /// grammar cannot derive `TOP` (or any full-span constituent) over
    /// the input, or the input is empty/over-long.
    pub fn parse_constituency(&self, tags: &[Pos]) -> Option<ConstTree> {
        let n = tags.len();
        if n == 0 || n > MAX_LEN {
            return None;
        }
        let tables = self.grammar.tables();
        let mut chart = Chart::new(n);
        for (i, &pos) in tags.iter().enumerate() {
            let mut cell = ChartCell::default();
            for &(lhs, lp) in &tables.preterm[pos as usize] {
                cell.offer(lhs, lp, 0);
            }
            self.unary_closure(&mut cell);
            chart.push(i, 1, cell);
        }
        for width in 2..=n {
            for start in 0..=(n - width) {
                let mut cell = ChartCell::default();
                for split in 1..width {
                    let left = chart.at(start, split);
                    let right = chart.at(start + split, width - split);
                    if right.mask == 0 {
                        continue;
                    }
                    let split_bits = (split as u32) << 16;
                    for ls in bits(left.mask) {
                        if tables.rights[ls] & right.mask == 0 {
                            continue;
                        }
                        let lp = left.score[ls];
                        for rule in &tables.by_left[ls] {
                            if right.mask & (1 << rule.right) == 0 {
                                continue;
                            }
                            let score = lp + right.score[rule.right] + rule.lp;
                            let back = BACK_BINARY | split_bits | u32::from(rule.rule);
                            cell.offer(rule.lhs, score, back);
                        }
                    }
                }
                self.unary_closure(&mut cell);
                chart.push(start, width, cell);
            }
        }
        let top_cell = chart.at(0, n);
        // Prefer TOP; otherwise the best-scoring full-span symbol, the
        // lowest symbol on a tie.
        let top = Symbol::Top.index();
        let goal = if top_cell.mask & (1 << top) != 0 {
            top
        } else {
            let mut best: Option<usize> = None;
            for s in bits(top_cell.mask) {
                if best.is_none_or(|b| top_cell.score[s] > top_cell.score[b]) {
                    best = Some(s);
                }
            }
            best?
        };
        let mut nodes = Vec::new();
        let root = self.extract(&chart, tags, 0, n, goal, &mut nodes);
        let tree = ConstTree::new(nodes, root, n);
        debug_assert!(tree.validate().is_ok(), "CKY produced invalid tree");
        Some(tree)
    }

    /// Apply unary rules to a fixed point (grammar unaries are acyclic in
    /// probability: a rewrite is only taken when it improves the score).
    fn unary_closure(&self, cell: &mut ChartCell) {
        let unary = &self.grammar.tables().unary;
        loop {
            let mut changed = false;
            for r in unary {
                if cell.mask & (1 << r.child) != 0 {
                    let score = cell.score[r.child] + r.lp;
                    changed |= cell.offer(r.lhs, score, BACK_UNARY | r.child as u32);
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Rebuild the tree from back-pointers; returns the arena id.
    fn extract(
        &self,
        chart: &Chart,
        tags: &[Pos],
        start: usize,
        width: usize,
        sym: usize,
        nodes: &mut Vec<ConstNode>,
    ) -> usize {
        let back = chart.at(start, width).back[sym];
        let label = Symbol::ALL[sym];
        let (children, head) = match back & BACK_KIND {
            BACK_UNARY => {
                let child = (back & !BACK_KIND) as usize;
                let c = self.extract(chart, tags, start, width, child, nodes);
                (vec![c], head_of_node(nodes, c))
            }
            BACK_BINARY => {
                let split = ((back & !BACK_KIND) >> 16) as usize;
                let rule = self.grammar.binary_rules()[(back & 0xffff) as usize];
                let l = self.extract(chart, tags, start, split, rule.left.index(), nodes);
                let (rs, rw) = (start + split, width - split);
                let r = self.extract(chart, tags, rs, rw, rule.right.index(), nodes);
                let head = match rule.head {
                    HeadSide::Left => head_of_node(nodes, l),
                    HeadSide::Right => head_of_node(nodes, r),
                };
                (vec![l, r], head)
            }
            _ => {
                nodes.push(ConstNode::Leaf {
                    token: start,
                    pos: tags[start],
                });
                (vec![nodes.len() - 1], start)
            }
        };
        nodes.push(ConstNode::Internal {
            label,
            children,
            head,
        });
        nodes.len() - 1
    }

    /// Total parse of a token slice into a dependency tree over local
    /// indices `0..tokens.len()`. Never fails:
    /// 1. punctuation/particle tokens are excluded from the grammar run;
    /// 2. CKY parses the remaining POS sequence;
    /// 3. on failure, a right-branching backbone is used instead;
    /// 4. excluded tokens re-attach to the nearest preceding kept token.
    ///
    /// Every step consults only the POS tags, so with a cache installed
    /// ([`CkyParser::with_parse_cache`]) the result is memoized by the
    /// tag signature. The lock is **not** held across the parse itself:
    /// concurrent misses on one signature parse redundantly and insert
    /// identical trees, trading a little duplicate work for zero
    /// serialization of the O(n³) path.
    pub fn parse_tokens(&self, tokens: &[Token]) -> DepTree {
        let _span = gced_obs::span("parse");
        let Some(cache) = &self.cache else {
            return self.parse_tokens_uncached(tokens);
        };
        let signature: Vec<Pos> = tokens.iter().map(|t| t.pos).collect();
        if let Some(tree) = cache.lock().expect("parse cache lock").get(&signature) {
            gced_obs::counter("parse_cache_hits", 1);
            return tree;
        }
        gced_obs::counter("parse_cache_misses", 1);
        let tree = self.parse_tokens_uncached(tokens);
        cache
            .lock()
            .expect("parse cache lock")
            .insert(signature, tree.clone());
        tree
    }

    fn parse_tokens_uncached(&self, tokens: &[Token]) -> DepTree {
        let n = tokens.len();
        if n == 0 {
            return DepTree::empty();
        }
        let kept: Vec<usize> = (0..n)
            .filter(|&i| !matches!(tokens[i].pos, Pos::Punct | Pos::Particle))
            .collect();
        if kept.is_empty() {
            // All punctuation: chain every token to its predecessor.
            return DepTree::right_branching(n);
        }
        let tags: Vec<Pos> = kept.iter().map(|&i| tokens[i].pos).collect();
        // Edges among kept tokens, in kept-index space.
        let edges: Vec<Option<usize>> = match self.parse_constituency(&tags) {
            Some(tree) => dependency_edges(&tree),
            None => (0..kept.len())
                .map(|i| if i == 0 { None } else { Some(i - 1) })
                .collect(),
        };
        let mut parent: Vec<Option<usize>> = vec![None; n];
        for (ki, edge) in edges.iter().enumerate() {
            parent[kept[ki]] = edge.map(|p| kept[p]);
        }
        // Re-attach excluded tokens to the nearest preceding kept token,
        // or the first kept token when none precedes.
        for i in 0..n {
            if matches!(tokens[i].pos, Pos::Punct | Pos::Particle) {
                let anchor = kept.iter().rev().find(|&&k| k < i).or_else(|| kept.first());
                parent[i] = anchor.copied();
            }
        }
        DepTree::from_parents(parent)
    }
}

/// Head (local token index) of an arena node.
fn head_of_node(nodes: &[ConstNode], id: usize) -> usize {
    match &nodes[id] {
        ConstNode::Leaf { token, .. } => *token,
        ConstNode::Internal { head, .. } => *head,
    }
}

/// Head-percolated dependency extraction: for every constituent, each
/// non-head child's head token depends on the constituent's head token.
/// Returns the parent (in local token space) of each token; the sentence
/// head has parent `None`.
pub fn dependency_edges(tree: &ConstTree) -> Vec<Option<usize>> {
    let n = tree.token_count();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for id in 0..tree.node_count() {
        if let ConstNode::Internal { children, head, .. } = tree.node(id) {
            for &c in children {
                let ch = tree.head_of(c);
                if ch != *head {
                    parent[ch] = Some(*head);
                }
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_text::analyze;

    fn parse(text: &str) -> (Vec<Token>, DepTree) {
        let doc = analyze(text);
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        (doc.tokens, tree)
    }

    #[test]
    fn parses_simple_transitive_clause() {
        let doc = analyze("The Broncos defeated the Panthers");
        let parser = CkyParser::embedded();
        let tags: Vec<Pos> = doc.tokens.iter().map(|t| t.pos).collect();
        let tree = parser.parse_constituency(&tags).expect("should parse");
        tree.validate().unwrap();
        // Sentence head should be the verb "defeated" (index 2).
        assert_eq!(tree.head_of(tree.root()), 2);
    }

    #[test]
    fn dependency_edges_form_a_tree() {
        let (tokens, tree) = parse("The Broncos defeated the Panthers.");
        assert_eq!(tree.len(), tokens.len());
        tree.validate().unwrap();
        // verb is root
        let root = tree.root();
        assert_eq!(tokens[root].text, "defeated");
        // subject and object heads attach to the verb
        let broncos = tokens.iter().position(|t| t.text == "Broncos").unwrap();
        let panthers = tokens.iter().position(|t| t.text == "Panthers").unwrap();
        assert_eq!(tree.parent(broncos), Some(root));
        assert_eq!(tree.parent(panthers), Some(root));
    }

    #[test]
    fn determiners_attach_to_their_nouns() {
        let (tokens, tree) = parse("The Broncos defeated the Panthers.");
        let broncos = tokens.iter().position(|t| t.text == "Broncos").unwrap();
        assert_eq!(tree.parent(0), Some(broncos)); // "The" -> "Broncos"
    }

    #[test]
    fn pp_attaches_into_clause() {
        let (tokens, tree) = parse("The duke led troops in the battle.");
        tree.validate().unwrap();
        let inn = tokens.iter().position(|t| t.text == "in").unwrap();
        let battle = tokens.iter().position(|t| t.text == "battle").unwrap();
        // preposition heads its NP; battle under "in"
        assert_eq!(tree.parent(battle), Some(inn));
    }

    #[test]
    fn punctuation_attaches_to_preceding_token() {
        let (tokens, tree) = parse("The Broncos won.");
        let dot = tokens.iter().position(|t| t.text == ".").unwrap();
        assert_eq!(tree.parent(dot), Some(dot - 1));
    }

    #[test]
    fn unparseable_input_falls_back() {
        // A POS soup the grammar cannot derive: conj conj conj.
        let doc = analyze("and or but and");
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), 4);
        tree.validate().unwrap();
    }

    #[test]
    fn all_punctuation_input() {
        let doc = analyze("!!! ???");
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), doc.tokens.len());
        tree.validate().unwrap();
    }

    #[test]
    fn over_long_input_uses_fallback() {
        let long = (0..100).map(|_| "word").collect::<Vec<_>>().join(" ");
        let doc = analyze(&long);
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), 100);
        tree.validate().unwrap();
    }

    #[test]
    fn empty_input() {
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&[]);
        assert_eq!(tree.len(), 0);
    }

    #[test]
    fn coordination_parses() {
        let (_, tree) = parse("The duke and the king led troops.");
        tree.validate().unwrap();
    }

    #[test]
    fn copula_parses() {
        let (tokens, tree) = parse("Paris is the capital of France.");
        tree.validate().unwrap();
        let is = tokens.iter().position(|t| t.text == "is").unwrap();
        let root = tree.root();
        // Either "is" (copula as aux-root) or "capital"; both acceptable —
        // what matters is the NP internal structure.
        let capital = tokens.iter().position(|t| t.text == "capital").unwrap();
        assert!(
            root == is || root == capital,
            "root = {}",
            tokens[root].text
        );
    }

    #[test]
    fn parse_is_deterministic() {
        let (_, t1) = parse("The famous singer performed in many competitions.");
        let (_, t2) = parse("The famous singer performed in many competitions.");
        assert_eq!(t1, t2);
    }

    #[test]
    fn parentheticals_do_not_break_parsing() {
        let (tokens, tree) = parse("Football Conference (AFC) champion Denver Broncos won.");
        tree.validate().unwrap();
        assert_eq!(tree.len(), tokens.len());
    }

    #[test]
    fn cached_parse_is_identical_and_counts_hits() {
        let plain = CkyParser::embedded();
        let cached = CkyParser::embedded().with_parse_cache(64);
        let texts = [
            "The Broncos defeated the Panthers.",
            "The duke led troops in the battle.",
            "The Broncos defeated the Panthers.", // repeat → hit
            "The Eagles defeated the Falcons.",   // same POS shape → hit
        ];
        for text in texts {
            let doc = analyze(text);
            assert_eq!(
                cached.parse_tokens(&doc.tokens),
                plain.parse_tokens(&doc.tokens),
                "{text}"
            );
        }
        let stats = cached.parse_cache_stats().expect("cache installed");
        assert!(stats.hits >= 2, "stats: {stats:?}");
        assert!(stats.misses >= 2, "stats: {stats:?}");
        assert!(stats.len <= 64);
        assert!(plain.parse_cache_stats().is_none());
    }

    #[test]
    fn cache_is_shared_across_clones() {
        let cached = CkyParser::embedded().with_parse_cache(16);
        let clone = cached.clone();
        let doc = analyze("The Broncos won the title.");
        let a = cached.parse_tokens(&doc.tokens);
        let b = clone.parse_tokens(&doc.tokens);
        assert_eq!(a, b);
        let stats = clone.parse_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// Two preterminals of one POS with equal weight feed one binary
    /// LHS, so `S -> Np Np` and `S -> Vp Vp` tie exactly over
    /// "Noun Noun", and `Np`/`Vp` tie as goals over a lone "Noun".
    fn tie_grammar() -> Grammar {
        use crate::grammar::GrammarBuilder;
        let mut g = GrammarBuilder::new();
        g.preterm(Symbol::Np, Pos::Noun, 1.0);
        g.preterm(Symbol::Vp, Pos::Noun, 1.0);
        g.binary(Symbol::S, Symbol::Vp, Symbol::Vp, 1.0, HeadSide::Right);
        g.binary(Symbol::S, Symbol::Np, Symbol::Np, 1.0, HeadSide::Left);
        g.build()
    }

    #[test]
    fn exact_ties_resolve_canonically() {
        let tags = [Pos::Noun, Pos::Noun];
        let first = CkyParser::new(tie_grammar())
            .parse_constituency(&tags)
            .expect("S spans the input");
        // Left symbol ascending: Np < Vp, so `S -> Np Np` (head left)
        // wins although `S -> Vp Vp` was declared first.
        let labels = |t: &ConstTree| -> Vec<&'static str> {
            (0..t.node_count())
                .filter_map(|id| match t.node(id) {
                    ConstNode::Internal { label, .. } => Some(label.label()),
                    ConstNode::Leaf { .. } => None,
                })
                .collect()
        };
        assert_eq!(labels(&first), ["NP", "NP", "S"]);
        assert_eq!(first.head_of(first.root()), 0);
        // Goal tie over one token: the lowest symbol (Np) wins.
        let lone = CkyParser::new(tie_grammar())
            .parse_constituency(&[Pos::Noun])
            .expect("a full-span symbol exists");
        assert_eq!(labels(&lone), ["NP"]);
        for _ in 0..100 {
            let parser = CkyParser::new(tie_grammar());
            assert_eq!(parser.parse_constituency(&tags).as_ref(), Some(&first));
            assert_eq!(
                reference::parse(parser.grammar(), &tags).as_ref(),
                Some(&first)
            );
            assert_eq!(
                parser.parse_constituency(&[Pos::Noun]).as_ref(),
                Some(&lone)
            );
        }
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let parser = CkyParser::embedded().with_parse_cache(0);
        assert!(parser.parse_cache_stats().is_none());
    }
}

/// The pre-dense chart, kept as a test oracle: one `BTreeMap` cell per
/// span and a linear rule scan per symbol pair. BTreeMap iteration visits
/// symbols in `Ord` order, so this chart walks candidates in exactly the
/// canonical tie order the module docs define, with none of the dense
/// chart's tables, masks or packing.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    enum Back {
        Term,
        Unary(Symbol),
        /// Absolute split position, child symbols, head side.
        Binary(usize, Symbol, Symbol, HeadSide),
    }

    type Cell = BTreeMap<Symbol, (f64, Back)>;

    fn offer(cell: &mut Cell, sym: Symbol, score: f64, back: Back) -> bool {
        match cell.get(&sym) {
            Some(&(best, _)) if best >= score => false,
            _ => {
                cell.insert(sym, (score, back));
                true
            }
        }
    }

    fn unary_closure(grammar: &Grammar, cell: &mut Cell) {
        loop {
            let mut changed = false;
            for r in grammar.unary_rules() {
                if let Some(&(child_score, _)) = cell.get(&r.child) {
                    changed |= offer(cell, r.lhs, child_score + r.prob.ln(), Back::Unary(r.child));
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Viterbi parse of `tags` (no length cutoff).
    pub fn parse(grammar: &Grammar, tags: &[Pos]) -> Option<ConstTree> {
        let n = tags.len();
        if n == 0 {
            return None;
        }
        // chart[i][j] spans tokens i..=i+j (j = width-1).
        let mut chart: Vec<Vec<Cell>> = vec![vec![Cell::new(); n]; n];
        for (i, &pos) in tags.iter().enumerate() {
            let mut cell = Cell::new();
            for r in grammar.preterminal_rules().iter().filter(|r| r.pos == pos) {
                offer(&mut cell, r.lhs, r.prob.ln(), Back::Term);
            }
            unary_closure(grammar, &mut cell);
            chart[i][0] = cell;
        }
        for width in 2..=n {
            for start in 0..=(n - width) {
                let mut cell = Cell::new();
                for split in 1..width {
                    let left = &chart[start][split - 1];
                    let right = &chart[start + split][width - split - 1];
                    for (&ls, &(lp, _)) in left {
                        for (&rs, &(rp, _)) in right {
                            for rule in grammar.binary_rules() {
                                if (rule.left, rule.right) == (ls, rs) {
                                    let back = Back::Binary(start + split, ls, rs, rule.head);
                                    offer(&mut cell, rule.lhs, lp + rp + rule.prob.ln(), back);
                                }
                            }
                        }
                    }
                }
                unary_closure(grammar, &mut cell);
                chart[start][width - 1] = cell;
            }
        }
        let top_cell = &chart[0][n - 1];
        let goal = if top_cell.contains_key(&Symbol::Top) {
            Symbol::Top
        } else {
            let mut best: Option<(Symbol, f64)> = None;
            for (&s, &(score, _)) in top_cell {
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((s, score));
                }
            }
            best?.0
        };
        let mut nodes = Vec::new();
        let root = extract(&chart, tags, 0, n - 1, goal, &mut nodes);
        Some(ConstTree::new(nodes, root, n))
    }

    fn extract(
        chart: &[Vec<Cell>],
        tags: &[Pos],
        start: usize,
        width_m1: usize,
        sym: Symbol,
        nodes: &mut Vec<ConstNode>,
    ) -> usize {
        let (children, head) = match chart[start][width_m1][&sym].1 {
            Back::Term => {
                nodes.push(ConstNode::Leaf {
                    token: start,
                    pos: tags[start],
                });
                (vec![nodes.len() - 1], start)
            }
            Back::Unary(child) => {
                let c = extract(chart, tags, start, width_m1, child, nodes);
                (vec![c], head_of_node(nodes, c))
            }
            Back::Binary(split, ls, rs, head_side) => {
                let l = extract(chart, tags, start, split - start - 1, ls, nodes);
                let r = extract(chart, tags, split, width_m1 - (split - start), rs, nodes);
                let head = match head_side {
                    HeadSide::Left => head_of_node(nodes, l),
                    HeadSide::Right => head_of_node(nodes, r),
                };
                (vec![l, r], head)
            }
        };
        nodes.push(ConstNode::Internal {
            label: sym,
            children,
            head,
        });
        nodes.len() - 1
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn word() -> impl Strategy<Value = &'static str> {
        prop::sample::select(vec![
            "the", "a", "famous", "duke", "battle", "troops", "led", "defeated", "in", "of", "and",
            "quickly", "Broncos", "title", "won", ",", ".", "1066",
        ])
    }

    /// Tag sequences of length 1..=24 built from phrase-shaped chunks,
    /// so a good share parse to `TOP`, with lone odd tags (one a Punct)
    /// keeping the partial and unparseable paths in the mix.
    fn tags() -> impl Strategy<Value = Vec<Pos>> {
        use Pos::*;
        let chunks: Vec<Vec<Pos>> = vec![
            vec![Det, Noun],
            vec![Det, Adj, Noun],
            vec![ProperNoun],
            vec![ProperNoun, ProperNoun],
            vec![Pronoun],
            vec![Noun],
            vec![Num, Noun],
            vec![Verb],
            vec![Verb, Det, Noun],
            vec![Aux, Verb],
            vec![Aux, Adj],
            vec![Prep, Det, Noun],
            vec![Prep, ProperNoun],
            vec![Conj],
            vec![Adv],
            vec![Adj],
            vec![Wh],
            vec![Other],
            vec![Punct],
        ];
        prop::collection::vec(prop::sample::select(chunks), 1..13).prop_map(|cs| {
            let mut tags: Vec<Pos> = cs.concat();
            tags.truncate(24);
            tags
        })
    }

    /// A small random grammar over five symbols and three tags with
    /// weights in 1..=2, so exact score ties are everywhere. Each code
    /// picks a rule kind, its symbols and its weight.
    fn tie_heavy_grammar(codes: &[u32]) -> Grammar {
        use crate::grammar::GrammarBuilder;
        let sym = |c: u32| Symbol::ALL[(c % 5) as usize];
        let pos = |c: u32| [Pos::Noun, Pos::Verb, Pos::Det][(c % 3) as usize];
        let mut g = GrammarBuilder::new();
        for &c in codes {
            let w = f64::from(1 + (c >> 20) % 2);
            let head = if (c >> 21) % 2 == 0 {
                HeadSide::Left
            } else {
                HeadSide::Right
            };
            match c % 4 {
                0 => g.preterm(sym(c >> 2), pos(c >> 5), w),
                1 => g.unary(sym(c >> 2), sym(c >> 5), w),
                _ => g.binary(sym(c >> 2), sym(c >> 5), sym(c >> 8), w, head),
            };
        }
        g.build()
    }

    proptest! {
        /// The dense chart builds exactly the tree of the BTreeMap
        /// reference chart, over the English grammar.
        #[test]
        fn dense_matches_reference(tags in tags()) {
            let parser = CkyParser::embedded();
            prop_assert_eq!(
                parser.parse_constituency(&tags),
                reference::parse(parser.grammar(), &tags)
            );
        }

        /// Same, over random tie-heavy grammars: the canonical tie rule
        /// holds, not just the English grammar's lack of ties.
        #[test]
        fn dense_matches_reference_on_tie_heavy_grammars(
            codes in prop::collection::vec(0u32..(1 << 22), 4..40),
            tag_codes in prop::collection::vec(0u32..3, 1..13),
        ) {
            let parser = CkyParser::new(tie_heavy_grammar(&codes));
            let tags: Vec<Pos> = tag_codes
                .iter()
                .map(|&c| [Pos::Noun, Pos::Verb, Pos::Det][c as usize])
                .collect();
            prop_assert_eq!(
                parser.parse_constituency(&tags),
                reference::parse(parser.grammar(), &tags)
            );
        }

        /// parse_tokens is total: any word soup yields a valid dependency
        /// tree covering every token.
        #[test]
        fn parse_tokens_total(ws in prop::collection::vec(word(), 1..18)) {
            let text = ws.join(" ");
            let doc = gced_text::analyze(&text);
            let parser = CkyParser::embedded();
            let tree = parser.parse_tokens(&doc.tokens);
            prop_assert_eq!(tree.len(), doc.tokens.len());
            prop_assert!(tree.validate().is_ok());
        }

        /// A cached parser is observationally identical to an uncached
        /// one over arbitrary word soups, even with a tiny capacity that
        /// forces constant eviction.
        #[test]
        fn cached_parser_matches_uncached(
            soups in prop::collection::vec(prop::collection::vec(word(), 1..14), 1..24)
        ) {
            let plain = CkyParser::embedded();
            let cached = CkyParser::embedded().with_parse_cache(4);
            for ws in &soups {
                let doc = gced_text::analyze(&ws.join(" "));
                prop_assert_eq!(
                    cached.parse_tokens(&doc.tokens),
                    plain.parse_tokens(&doc.tokens)
                );
            }
            let stats = cached.parse_cache_stats().expect("cache installed");
            prop_assert!(stats.len <= 4);
            prop_assert_eq!(stats.hits + stats.misses, soups.len() as u64);
        }
    }
}
