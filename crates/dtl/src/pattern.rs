//! The pattern-language abstraction of Definition 5.1.
//!
//! A pattern language provides unary patterns (`UP(Σ)`, deciding where a
//! rule fires) and binary patterns (`BP(Σ)`, selecting the nodes a state
//! leaf expands to). The paper instantiates DTL with Core XPath
//! (Section 5.4) and MSO (Section 5.3); both are implemented here, plus the
//! [`MsoDefinable`] bridge the symbolic deciders need.

use tpx_mso::{Formula, Var, VarGen};
use tpx_trees::{Hedge, NodeId};

/// A pattern language: evaluation of unary and binary patterns on hedges.
pub trait PatternLanguage {
    /// Unary patterns (subsets of `⋃_t {t} × Nodes_t`).
    type Unary: Clone + std::fmt::Debug;
    /// Binary patterns (subsets of `⋃_t {t} × Nodes_t × Nodes_t`).
    type Binary: Clone + std::fmt::Debug;

    /// Per-node truth table of `φ` on `h` (dense by node index).
    fn unary_table(&self, h: &Hedge, phi: &Self::Unary) -> Vec<bool>;

    /// Selection table of `α` on `h`: for each source node, the selected
    /// targets in document order.
    fn binary_table(&self, h: &Hedge, alpha: &Self::Binary) -> Vec<Vec<NodeId>>;
}

/// Pattern languages whose patterns are MSO-definable — the requirement for
/// the symbolic deciders of Section 5.3/5.4. (All pattern languages in the
/// paper are.)
pub trait MsoDefinable: PatternLanguage {
    /// The unary pattern as a formula with free variable `x`.
    fn unary_formula(&self, phi: &Self::Unary, x: Var, gen: &mut VarGen) -> Formula;

    /// The binary pattern as a formula with free variables `x, y`.
    fn binary_formula(&self, alpha: &Self::Binary, x: Var, y: Var, gen: &mut VarGen) -> Formula;
}

/// Core XPath patterns (Definition 5.14): node expressions as unary
/// patterns, path expressions as binary patterns.
#[derive(Clone, Copy, Debug, Default)]
pub struct XPathPatterns;

impl PatternLanguage for XPathPatterns {
    type Unary = tpx_xpath::NodeExpr;
    type Binary = tpx_xpath::PathExpr;

    fn unary_table(&self, h: &Hedge, phi: &Self::Unary) -> Vec<bool> {
        tpx_xpath::eval_node_expr(h, phi)
    }

    fn binary_table(&self, h: &Hedge, alpha: &Self::Binary) -> Vec<Vec<NodeId>> {
        let rel = tpx_xpath::all_pairs(h, alpha);
        h.dfs()
            .into_iter()
            .map(|v| (v, rel.targets(v).to_vec()))
            .fold(vec![Vec::new(); h.node_count()], |mut acc, (v, ts)| {
                acc[v.index()] = ts;
                acc
            })
    }
}

impl MsoDefinable for XPathPatterns {
    fn unary_formula(&self, phi: &Self::Unary, x: Var, gen: &mut VarGen) -> Formula {
        crate::xpath_mso::node_expr_to_mso(phi, x, gen)
    }

    fn binary_formula(&self, alpha: &Self::Binary, x: Var, y: Var, gen: &mut VarGen) -> Formula {
        crate::xpath_mso::path_expr_to_mso(alpha, x, y, gen)
    }
}

/// MSO patterns (Section 5.3): unary patterns are formulas with one
/// designated free variable, binary patterns with two.
///
/// By convention the designated variables are [`MsoPatterns::HOLE_X`] and
/// [`MsoPatterns::HOLE_Y`]; all other variables in a pattern must be bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct MsoPatterns;

impl MsoPatterns {
    /// The designated free variable of unary patterns (and the source
    /// variable of binary patterns).
    pub const HOLE_X: Var = Var(1_000_000);
    /// The designated target variable of binary patterns.
    pub const HOLE_Y: Var = Var(1_000_001);
}

impl PatternLanguage for MsoPatterns {
    type Unary = Formula;
    type Binary = Formula;

    fn unary_table(&self, h: &Hedge, phi: &Self::Unary) -> Vec<bool> {
        let mut out = vec![false; h.node_count()];
        for v in h.dfs() {
            let asg = tpx_mso::Assignment::new().bind(Self::HOLE_X, v);
            out[v.index()] = tpx_mso::naive_eval(h, phi, &asg).unwrap_or_else(|e| panic!("{e}"));
        }
        out
    }

    fn binary_table(&self, h: &Hedge, alpha: &Self::Binary) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); h.node_count()];
        let nodes = h.dfs();
        for &v in &nodes {
            for &u in &nodes {
                let asg = tpx_mso::Assignment::new()
                    .bind(Self::HOLE_X, v)
                    .bind(Self::HOLE_Y, u);
                if tpx_mso::naive_eval(h, alpha, &asg).unwrap_or_else(|e| panic!("{e}")) {
                    out[v.index()].push(u);
                }
            }
        }
        // `nodes` is already in document order, so target lists are too.
        out
    }
}

impl MsoDefinable for MsoPatterns {
    fn unary_formula(&self, phi: &Self::Unary, x: Var, _gen: &mut VarGen) -> Formula {
        phi.rename_fo(Self::HOLE_X, x)
    }

    fn binary_formula(&self, alpha: &Self::Binary, x: Var, y: Var, _gen: &mut VarGen) -> Formula {
        alpha.rename_fo(Self::HOLE_X, x).rename_fo(Self::HOLE_Y, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    #[test]
    fn xpath_tables() {
        let mut al = Alphabet::from_labels(["a", "b"]);
        let t = parse_tree(r#"a(b "x" b)"#, &mut al).unwrap();
        let p = XPathPatterns;
        let phi = tpx_xpath::parse_node_expr("b", &mut al).unwrap();
        let table = p.unary_table(&t, &phi);
        assert_eq!(table.iter().filter(|&&b| b).count(), 2);
        let alpha = tpx_xpath::parse_path("child[b]", &mut al).unwrap();
        let bt = p.binary_table(&t, &alpha);
        assert_eq!(bt[t.root().index()].len(), 2);
    }

    #[test]
    fn mso_tables_agree_with_xpath_on_children() {
        let mut al = Alphabet::from_labels(["a", "b"]);
        let t = parse_tree(r#"a(b(b) "x" b)"#, &mut al).unwrap();
        let xp = XPathPatterns;
        let mp = MsoPatterns;
        let alpha_x = tpx_xpath::parse_path("child", &mut al).unwrap();
        let alpha_m = Formula::Child(MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y);
        assert_eq!(xp.binary_table(&t, &alpha_x), mp.binary_table(&t, &alpha_m));
    }

    #[test]
    fn mso_formula_instantiation_renames_holes() {
        let mp = MsoPatterns;
        let mut gen = VarGen::new();
        let phi = Formula::IsText(MsoPatterns::HOLE_X);
        let inst = mp.unary_formula(&phi, Var(7), &mut gen);
        assert_eq!(inst, Formula::IsText(Var(7)));
    }
}
