//! Unranked text trees and hedges (Section 2 of the paper).
//!
//! A *hedge* is a finite sequence of trees; a *tree* is a hedge with exactly
//! one root. Leaves may be labelled with values from the infinite set `Text`
//! (text nodes); inner nodes and element leaves carry symbols from a finite
//! alphabet `Σ`.
//!
//! Hedges are stored in a flat arena ([`Hedge`]); [`Tree`] is a thin wrapper
//! enforcing the single-root invariant. Nodes are addressed by [`NodeId`]s
//! and, following the paper, also by their *address* in `ℕ*` (1-based child
//! positions), which induces document order (`<lex`).

use crate::alphabet::{Alphabet, Symbol};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// Identifier of a node within one [`Hedge`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The label of a node: either an element label from `Σ` or a `Text` value.
///
/// The paper models `Text` as an abstract infinite set; here text values are
/// arbitrary strings, treated opaquely by all algorithms (which keeps every
/// tree language closed under `Text`-substitutions by construction).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeLabel {
    /// An element node labelled with a symbol from `Σ`.
    Elem(Symbol),
    /// A text node carrying a `Text` value. Always a leaf.
    Text(String),
}

impl NodeLabel {
    /// The element symbol, if this is an element label.
    pub fn elem(&self) -> Option<Symbol> {
        match self {
            NodeLabel::Elem(s) => Some(*s),
            NodeLabel::Text(_) => None,
        }
    }

    /// The text value, if this is a text label.
    pub fn text(&self) -> Option<&str> {
        match self {
            NodeLabel::Elem(_) => None,
            NodeLabel::Text(t) => Some(t),
        }
    }

    /// Whether this is a text label.
    pub fn is_text(&self) -> bool {
        matches!(self, NodeLabel::Text(_))
    }
}

#[derive(Clone, Debug)]
struct Node {
    label: NodeLabel,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// An unranked hedge (sequence of trees) over `Σ ∪ Text`.
///
/// Invariants:
/// * text nodes are leaves,
/// * `roots` and every `children` list are in sibling order,
/// * parent/child links are consistent.
///
/// Structural equality ([`PartialEq`]) compares shapes and labels, ignoring
/// arena numbering, so two hedges built in different orders compare equal
/// when they denote the same hedge.
#[derive(Clone, Default)]
pub struct Hedge {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

impl Hedge {
    /// The empty hedge `ε`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this is the empty hedge.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// The root nodes, in sibling order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Total number of nodes (the paper's `|h|`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The label of `v`.
    pub fn label(&self, v: NodeId) -> &NodeLabel {
        &self.nodes[v.index()].label
    }

    /// The children of `v`, in sibling order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[v.index()].children
    }

    /// The parent of `v` (`None` for roots).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v.index()].parent
    }

    /// Whether `v` is a leaf (no children).
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// Whether `v` is a text node.
    pub fn is_text(&self, v: NodeId) -> bool {
        self.label(v).is_text()
    }

    /// The 1-based position of `v` among its siblings.
    pub fn sibling_position(&self, v: NodeId) -> usize {
        let sibs = match self.parent(v) {
            Some(p) => self.children(p),
            None => self.roots(),
        };
        1 + sibs
            .iter()
            .position(|&s| s == v)
            .expect("node not among its siblings")
    }

    /// The next sibling of `v`, if any.
    pub fn next_sibling(&self, v: NodeId) -> Option<NodeId> {
        let sibs = match self.parent(v) {
            Some(p) => self.children(p),
            None => self.roots(),
        };
        let i = sibs.iter().position(|&s| s == v)?;
        sibs.get(i + 1).copied()
    }

    /// The previous sibling of `v`, if any.
    pub fn prev_sibling(&self, v: NodeId) -> Option<NodeId> {
        let sibs = match self.parent(v) {
            Some(p) => self.children(p),
            None => self.roots(),
        };
        let i = sibs.iter().position(|&s| s == v)?;
        i.checked_sub(1).map(|j| sibs[j])
    }

    /// The first child of `v`, if any.
    pub fn first_child(&self, v: NodeId) -> Option<NodeId> {
        self.children(v).first().copied()
    }

    /// The address of `v` as a sequence of 1-based child positions, exactly
    /// the paper's node naming in `ℕ*` (e.g. `[1, 1, 2]` for node `112` in
    /// Figure 1).
    pub fn address(&self, v: NodeId) -> Vec<usize> {
        let mut addr = Vec::new();
        let mut cur = v;
        loop {
            addr.push(self.sibling_position(cur));
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        addr.reverse();
        addr
    }

    /// Depth of `v`; the root of a tree has depth 1 (paper convention).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 1;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Ancestors of `v` from the root down to and including `v`.
    pub fn ancestors_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = Some(v);
        while let Some(u) = cur {
            path.push(u);
            cur = self.parent(u);
        }
        path.reverse();
        path
    }

    /// The ancestor string `anc-str(v)`: labels on the path from the root to
    /// `v`, inclusive.
    pub fn ancestor_string(&self, v: NodeId) -> Vec<NodeLabel> {
        self.ancestors_from_root(v)
            .into_iter()
            .map(|u| self.label(u).clone())
            .collect()
    }

    /// The lowest common ancestor of `v1` and `v2` (longest common prefix of
    /// their addresses). `None` when they live in different root trees.
    pub fn lca(&self, v1: NodeId, v2: NodeId) -> Option<NodeId> {
        let p1 = self.ancestors_from_root(v1);
        let p2 = self.ancestors_from_root(v2);
        let mut best = None;
        for (a, b) in p1.iter().zip(p2.iter()) {
            if a == b {
                best = Some(*a);
            } else {
                break;
            }
        }
        best
    }

    /// Compares two nodes in document order (`<lex` on addresses). Ancestors
    /// come before their descendants.
    pub fn doc_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.address(a).cmp(&self.address(b))
    }

    /// All nodes in document order (depth-first, left to right).
    pub fn dfs(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(v) = stack.pop() {
            out.push(v);
            stack.extend(self.children(v).iter().rev());
        }
        out
    }

    /// Whether `anc` is an ancestor of `v` (proper or reflexive per `strict`).
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId, strict: bool) -> bool {
        if anc == v {
            return !strict;
        }
        let mut cur = self.parent(v);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            cur = self.parent(u);
        }
        false
    }

    /// The text nodes in document order (`text-nodes` in the paper).
    pub fn text_nodes(&self) -> Vec<NodeId> {
        self.dfs()
            .into_iter()
            .filter(|&v| self.is_text(v))
            .collect()
    }

    /// The text content: the sequence of `Text` values of all text nodes in
    /// document order (a string over the alphabet `Text`).
    pub fn text_content(&self) -> Vec<&str> {
        self.dfs()
            .into_iter()
            .filter_map(|v| self.label(v).text())
            .collect()
    }

    /// The frontier: labels of all leaves in document order.
    pub fn frontier(&self) -> Vec<NodeLabel> {
        self.dfs()
            .into_iter()
            .filter(|&v| self.is_leaf(v))
            .map(|v| self.label(v).clone())
            .collect()
    }

    /// Leaves in document order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.dfs()
            .into_iter()
            .filter(|&v| self.is_leaf(v))
            .collect()
    }

    /// Extracts the subtree rooted at `v` as a fresh [`Tree`].
    pub fn subtree(&self, v: NodeId) -> Tree {
        let mut b = HedgeBuilder::new();
        self.copy_into(&mut b, v);
        b.finish_tree().expect("single root by construction")
    }

    fn copy_into(&self, b: &mut HedgeBuilder, v: NodeId) {
        match self.label(v) {
            NodeLabel::Text(t) => {
                b.text(t);
            }
            NodeLabel::Elem(s) => {
                b.open(*s);
                for &c in self.children(v) {
                    self.copy_into(b, c);
                }
                b.close();
            }
        }
    }

    /// The paper's `h[u ← h']`: a new hedge with `subtree(u)` replaced by the
    /// hedge `repl` (which may be empty, deleting the subtree, or contain
    /// several trees).
    pub fn replace(&self, u: NodeId, repl: &Hedge) -> Hedge {
        let mut b = HedgeBuilder::new();
        for &r in self.roots() {
            self.replace_into(&mut b, r, u, repl);
        }
        b.finish()
    }

    fn replace_into(&self, b: &mut HedgeBuilder, v: NodeId, target: NodeId, repl: &Hedge) {
        if v == target {
            for &r in repl.roots() {
                repl.copy_into(b, r);
            }
            return;
        }
        match self.label(v) {
            NodeLabel::Text(t) => {
                b.text(t);
            }
            NodeLabel::Elem(s) => {
                b.open(*s);
                for &c in self.children(v) {
                    self.replace_into(b, c, target, repl);
                }
                b.close();
            }
        }
    }

    /// Relabels a text node in place. Panics if `v` is not a text node.
    pub fn set_text(&mut self, v: NodeId, value: &str) {
        match &mut self.nodes[v.index()].label {
            NodeLabel::Text(t) => *t = value.to_owned(),
            NodeLabel::Elem(_) => panic!("set_text on an element node"),
        }
    }

    /// Renders the hedge in the paper's term syntax using `alpha` for labels.
    pub fn display<'a>(&'a self, alpha: &'a Alphabet) -> impl fmt::Display + 'a {
        crate::term::DisplayHedge { hedge: self, alpha }
    }

    fn structural_eq_node(&self, a: NodeId, other: &Hedge, b: NodeId) -> bool {
        if self.label(a) != other.label(b) {
            return false;
        }
        let ca = self.children(a);
        let cb = other.children(b);
        ca.len() == cb.len()
            && ca
                .iter()
                .zip(cb.iter())
                .all(|(&x, &y)| self.structural_eq_node(x, other, y))
    }
}

impl PartialEq for Hedge {
    fn eq(&self, other: &Self) -> bool {
        self.roots.len() == other.roots.len()
            && self
                .roots
                .iter()
                .zip(other.roots.iter())
                .all(|(&a, &b)| self.structural_eq_node(a, other, b))
    }
}

impl Eq for Hedge {}

impl fmt::Debug for Hedge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug output without an alphabet: symbols rendered as σi.
        fn rec(h: &Hedge, v: NodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match h.label(v) {
                NodeLabel::Text(t) => write!(f, "{t:?}"),
                NodeLabel::Elem(s) => {
                    write!(f, "{s:?}")?;
                    if !h.children(v).is_empty() {
                        write!(f, "(")?;
                        for (i, &c) in h.children(v).iter().enumerate() {
                            if i > 0 {
                                write!(f, " ")?;
                            }
                            rec(h, c, f)?;
                        }
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        for (i, &r) in self.roots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            rec(self, r, f)?;
        }
        Ok(())
    }
}

/// A tree: a hedge with exactly one root. Derefs to [`Hedge`].
#[derive(Clone, PartialEq, Eq)]
pub struct Tree(Hedge);

impl Tree {
    /// Wraps a single-root hedge. Returns `None` if `h` is not a tree.
    pub fn from_hedge(h: Hedge) -> Option<Tree> {
        (h.roots().len() == 1).then_some(Tree(h))
    }

    /// A single text-leaf tree.
    pub fn text(value: &str) -> Tree {
        let mut b = HedgeBuilder::new();
        b.text(value);
        b.finish_tree().unwrap()
    }

    /// A single element leaf `σ()`.
    pub fn leaf(s: Symbol) -> Tree {
        let mut b = HedgeBuilder::new();
        b.open(s);
        b.close();
        b.finish_tree().unwrap()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.0.roots()[0]
    }

    /// The underlying hedge.
    pub fn as_hedge(&self) -> &Hedge {
        &self.0
    }

    /// Consumes the tree, yielding its hedge.
    pub fn into_hedge(self) -> Hedge {
        self.0
    }
}

impl Deref for Tree {
    type Target = Hedge;
    fn deref(&self) -> &Hedge {
        &self.0
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Linear-time builder for hedges, with an open/close (SAX-like) interface.
///
/// ```
/// use tpx_trees::{Alphabet, HedgeBuilder};
/// let mut sigma = Alphabet::new();
/// let (a, b) = (sigma.intern("a"), sigma.intern("b"));
/// let mut hb = HedgeBuilder::new();
/// hb.open(a);
/// hb.text("hello");
/// hb.open(b);
/// hb.close();
/// hb.close();
/// let t = hb.finish_tree().unwrap();
/// assert_eq!(t.node_count(), 3);
/// assert_eq!(t.text_content(), vec!["hello"]);
/// ```
#[derive(Default)]
pub struct HedgeBuilder {
    hedge: Hedge,
    stack: Vec<NodeId>,
}

impl HedgeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_node(&mut self, label: NodeLabel) -> NodeId {
        let id = NodeId(u32::try_from(self.hedge.nodes.len()).expect("hedge too large"));
        let parent = self.stack.last().copied();
        self.hedge.nodes.push(Node {
            label,
            parent,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.hedge.nodes[p.index()].children.push(id),
            None => self.hedge.roots.push(id),
        }
        id
    }

    /// Opens an element node `σ(...`; returns its id.
    pub fn open(&mut self, s: Symbol) -> NodeId {
        let id = self.push_node(NodeLabel::Elem(s));
        self.stack.push(id);
        id
    }

    /// Closes the most recently opened element.
    pub fn close(&mut self) {
        self.stack.pop().expect("close without open");
    }

    /// Adds a text leaf; returns its id.
    pub fn text(&mut self, value: &str) -> NodeId {
        self.push_node(NodeLabel::Text(value.to_owned()))
    }

    /// Adds an element leaf `σ()`; returns its id.
    pub fn leaf(&mut self, s: Symbol) -> NodeId {
        let id = self.open(s);
        self.close();
        id
    }

    /// Splices a copy of `h` at the current position.
    pub fn hedge(&mut self, h: &Hedge) {
        for &r in h.roots() {
            h.copy_into(self, r);
        }
    }

    /// Finishes, returning the built hedge. Panics on unclosed elements.
    pub fn finish(self) -> Hedge {
        assert!(self.stack.is_empty(), "unclosed element in builder");
        self.hedge
    }

    /// Finishes as a tree; `None` if the hedge does not have exactly one root.
    pub fn finish_tree(self) -> Option<Tree> {
        Tree::from_hedge(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (Alphabet, Symbol, Symbol, Symbol) {
        let mut al = Alphabet::new();
        let a = al.intern("a");
        let b = al.intern("b");
        let c = al.intern("c");
        (al, a, b, c)
    }

    /// a( "x" b( "y" c ) "z" )
    fn sample() -> (Alphabet, Tree) {
        let (al, a, b, c) = abc();
        let mut hb = HedgeBuilder::new();
        hb.open(a);
        hb.text("x");
        hb.open(b);
        hb.text("y");
        hb.leaf(c);
        hb.close();
        hb.text("z");
        hb.close();
        (al, hb.finish_tree().unwrap())
    }

    #[test]
    fn navigation_basics() {
        let (_, t) = sample();
        let root = t.root();
        assert_eq!(t.children(root).len(), 3);
        assert_eq!(t.node_count(), 6);
        let kids = t.children(root).to_vec();
        assert_eq!(t.parent(kids[0]), Some(root));
        assert_eq!(t.next_sibling(kids[0]), Some(kids[1]));
        assert_eq!(t.prev_sibling(kids[1]), Some(kids[0]));
        assert_eq!(t.prev_sibling(kids[0]), None);
        assert_eq!(t.next_sibling(kids[2]), None);
        assert_eq!(t.first_child(root), Some(kids[0]));
        assert!(t.is_leaf(kids[0]));
        assert!(!t.is_leaf(kids[1]));
    }

    #[test]
    fn addresses_follow_paper_convention() {
        let (_, t) = sample();
        let root = t.root();
        assert_eq!(t.address(root), vec![1]);
        let b = t.children(root)[1];
        assert_eq!(t.address(b), vec![1, 2]);
        let c = t.children(b)[1];
        assert_eq!(t.address(c), vec![1, 2, 2]);
        assert_eq!(t.depth(root), 1);
        assert_eq!(t.depth(c), 3);
    }

    #[test]
    fn document_order_and_text_content() {
        let (_, t) = sample();
        assert_eq!(t.text_content(), vec!["x", "y", "z"]);
        let dfs = t.dfs();
        assert_eq!(dfs.len(), 6);
        for w in dfs.windows(2) {
            assert_eq!(t.doc_cmp(w[0], w[1]), Ordering::Less);
        }
    }

    #[test]
    fn frontier_contains_leaves_in_order() {
        let (al, t) = sample();
        let f = t.frontier();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].text(), Some("x"));
        assert_eq!(f[1].text(), Some("y"));
        assert_eq!(f[2].elem(), Some(al.sym("c")));
        assert_eq!(f[3].text(), Some("z"));
    }

    #[test]
    fn lca_and_ancestors() {
        let (_, t) = sample();
        let root = t.root();
        let b = t.children(root)[1];
        let y = t.children(b)[0];
        let z = t.children(root)[2];
        assert_eq!(t.lca(y, z), Some(root));
        assert_eq!(t.lca(y, b), Some(b));
        assert_eq!(t.lca(y, y), Some(y));
        assert!(t.is_ancestor(root, y, true));
        assert!(!t.is_ancestor(y, root, true));
        assert!(t.is_ancestor(y, y, false));
        assert!(!t.is_ancestor(y, y, true));
    }

    #[test]
    fn ancestor_string() {
        let (al, t) = sample();
        let b = t.children(t.root())[1];
        let y = t.children(b)[0];
        let anc = t.ancestor_string(y);
        assert_eq!(anc.len(), 3);
        assert_eq!(anc[0].elem(), Some(al.sym("a")));
        assert_eq!(anc[1].elem(), Some(al.sym("b")));
        assert_eq!(anc[2].text(), Some("y"));
    }

    #[test]
    fn subtree_extraction() {
        let (_, t) = sample();
        let b = t.children(t.root())[1];
        let sub = t.subtree(b);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.text_content(), vec!["y"]);
    }

    #[test]
    fn replace_subtree_with_hedge() {
        let (al, t) = sample();
        let b = t.children(t.root())[1];
        // Replace b(...) with the two-tree hedge `c c`.
        let mut rb = HedgeBuilder::new();
        rb.leaf(al.sym("c"));
        rb.leaf(al.sym("c"));
        let repl = rb.finish();
        let out = t.replace(b, &repl);
        assert_eq!(out.node_count(), 5);
        assert_eq!(out.text_content(), vec!["x", "z"]);
        // Replace with empty hedge deletes.
        let del = t.replace(b, &Hedge::new());
        assert_eq!(del.node_count(), 3);
        assert_eq!(del.text_content(), vec!["x", "z"]);
    }

    #[test]
    fn structural_equality_ignores_build_order() {
        let (al, t) = sample();
        // Rebuild via replace with identical content.
        let b = t.children(t.root())[1];
        let same = t.replace(b, t.subtree(b).as_hedge());
        assert_eq!(*t.as_hedge(), same);
        let diff = t.replace(b, &Hedge::new());
        assert_ne!(*t.as_hedge(), diff);
        let _ = al;
    }

    #[test]
    fn empty_hedge() {
        let h = Hedge::new();
        assert!(h.is_empty());
        assert_eq!(h.node_count(), 0);
        assert!(h.text_content().is_empty());
        assert!(h.dfs().is_empty());
    }

    #[test]
    fn set_text_relabels() {
        let (_, t) = sample();
        let mut h = t.into_hedge();
        let tx = h.text_nodes()[0];
        h.set_text(tx, "new");
        assert_eq!(h.text_content(), vec!["new", "y", "z"]);
    }

    #[test]
    fn replace_at_root_and_multi_root_hedges() {
        let (al, t) = sample();
        // Replacing the root with a hedge of two leaves.
        let mut rb = HedgeBuilder::new();
        rb.leaf(al.sym("c"));
        rb.leaf(al.sym("b"));
        let repl = rb.finish();
        let out = t.replace(t.root(), &repl);
        assert_eq!(out.roots().len(), 2);
        assert_eq!(out.node_count(), 2);
        // doc order across multiple roots.
        let roots = out.roots().to_vec();
        assert_eq!(out.doc_cmp(roots[0], roots[1]), Ordering::Less);
        assert_eq!(out.address(roots[1]), vec![2]);
    }

    #[test]
    fn siblings_across_roots() {
        let (al, _) = sample();
        let mut b = HedgeBuilder::new();
        b.leaf(al.sym("a"));
        b.text("t");
        b.leaf(al.sym("b"));
        let h = b.finish();
        let roots = h.roots().to_vec();
        assert_eq!(h.next_sibling(roots[0]), Some(roots[1]));
        assert_eq!(h.prev_sibling(roots[2]), Some(roots[1]));
        assert_eq!(h.sibling_position(roots[2]), 3);
        assert_eq!(h.lca(roots[0], roots[2]), None);
        assert_eq!(h.depth(roots[0]), 1);
    }

    #[test]
    fn subtree_of_text_leaf() {
        let (_, t) = sample();
        let tx = t.text_nodes()[0];
        let sub = t.subtree(tx);
        assert_eq!(sub.node_count(), 1);
        assert_eq!(sub.text_content(), vec!["x"]);
    }

    #[test]
    fn builder_splices_hedges() {
        let (al, t) = sample();
        let mut b = HedgeBuilder::new();
        b.open(al.sym("c"));
        b.hedge(t.as_hedge());
        b.hedge(t.as_hedge());
        b.close();
        let out = b.finish();
        assert_eq!(out.node_count(), 1 + 2 * t.node_count());
        assert_eq!(out.text_content().len(), 6);
    }

    #[test]
    #[should_panic(expected = "set_text on an element node")]
    fn set_text_on_element_panics() {
        let (_, t) = sample();
        let root = t.root();
        let mut h = t.into_hedge();
        h.set_text(root, "oops");
    }
}
