//! Core XPath → MSO translation.
//!
//! Path expressions become binary formulas, node expressions unary
//! formulas. Axis closures (`child*`, `next*`, …) map to the atomic
//! descendant / transitive-sibling relations, so the translation of *Core*
//! XPath (where `R*` is only applied to axes, Definition 5.13) introduces
//! no set quantifiers; the generalized `α*` on compound paths falls back to
//! the standard second-order closure encoding.

use tpx_mso::{formula::derived, Formula, Var, VarGen};
use tpx_xpath::{Axis, NodeExpr, PathExpr};

/// The binary formula of a path expression: `α(x, y)`.
pub fn path_expr_to_mso(alpha: &PathExpr, x: Var, y: Var, gen: &mut VarGen) -> Formula {
    match alpha {
        PathExpr::Axis(Axis::Child) => Formula::Child(x, y),
        PathExpr::Axis(Axis::Parent) => Formula::Child(y, x),
        PathExpr::Axis(Axis::NextSibling) => Formula::NextSib(x, y),
        PathExpr::Axis(Axis::PrevSibling) => Formula::NextSib(y, x),
        PathExpr::Dot => Formula::Eq(x, y),
        PathExpr::Seq(a, b) => {
            let z = gen.var();
            let fa = path_expr_to_mso(a, x, z, gen);
            let fb = path_expr_to_mso(b, z, y, gen);
            Formula::exists(z, fa.and(fb))
        }
        PathExpr::Union(a, b) => path_expr_to_mso(a, x, y, gen).or(path_expr_to_mso(b, x, y, gen)),
        PathExpr::Filter(a, phi) => {
            path_expr_to_mso(a, x, y, gen).and(node_expr_to_mso(phi, y, gen))
        }
        PathExpr::Star(a) => match a.as_ref() {
            // Axis closures: atomic relations, no set quantification.
            PathExpr::Axis(Axis::Child) => derived::descendant_or_self(x, y),
            PathExpr::Axis(Axis::Parent) => derived::descendant_or_self(y, x),
            PathExpr::Axis(Axis::NextSibling) => Formula::Eq(x, y).or(Formula::SibLess(x, y)),
            PathExpr::Axis(Axis::PrevSibling) => Formula::Eq(x, y).or(Formula::SibLess(y, x)),
            // General closure: ∀Z (x ∈ Z ∧ closed-under-α → y ∈ Z).
            inner => {
                let z = gen.set_var();
                let u = gen.var();
                let v = gen.var();
                let step = path_expr_to_mso(inner, u, v, gen);
                let closed = Formula::forall(
                    u,
                    Formula::forall(v, Formula::In(u, z).and(step).implies(Formula::In(v, z))),
                );
                Formula::forall_set(z, Formula::In(x, z).and(closed).implies(Formula::In(y, z)))
            }
        },
    }
}

/// The unary formula of a node expression: `φ(x)`.
pub fn node_expr_to_mso(phi: &NodeExpr, x: Var, gen: &mut VarGen) -> Formula {
    match phi {
        NodeExpr::True => Formula::True,
        NodeExpr::Label(s) => Formula::Lab(*s, x),
        NodeExpr::IsText => Formula::IsText(x),
        NodeExpr::Not(a) => node_expr_to_mso(a, x, gen).not(),
        NodeExpr::And(a, b) => node_expr_to_mso(a, x, gen).and(node_expr_to_mso(b, x, gen)),
        NodeExpr::Has(a) => {
            let y = gen.var();
            Formula::exists(y, path_expr_to_mso(a, x, y, gen))
        }
    }
}

/// A `VarGen` safe to use alongside the fixed variables `vars`.
pub fn gen_above(vars: &[Var]) -> VarGen {
    let mut g = VarGen::new();
    for &v in vars {
        g.reserve(v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_mso::{naive_eval, Assignment};
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    /// Exhaustive agreement between the XPath evaluator (Table 1) and the
    /// MSO translation (via the naive MSO model checker).
    fn check_path(src: &str) {
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let samples = [
            r#"a(b("x") c b(c "y"))"#,
            "a",
            "a(a(a))",
            r#"c(b b("z") a)"#,
        ];
        for tsrc in samples {
            let mut al2 = al.clone();
            let t = parse_tree(tsrc, &mut al2).unwrap();
            let alpha = tpx_xpath::parse_path(src, &mut al).unwrap();
            let rel = tpx_xpath::all_pairs(&t, &alpha);
            let (x, y) = (Var(0), Var(1));
            let mut gen = gen_above(&[x, y]);
            let f = path_expr_to_mso(&alpha, x, y, &mut gen);
            for &v in &t.dfs() {
                for &u in &t.dfs() {
                    let expect = rel.contains(v, u);
                    let got = naive_eval(&t, &f, &Assignment::new().bind(x, v).bind(y, u)).unwrap();
                    assert_eq!(got, expect, "{src} on {tsrc} at {v:?},{u:?}");
                }
            }
        }
    }

    fn check_node(src: &str) {
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let samples = [r#"a(b("x") c b(c "y"))"#, "a", "a(a(a))"];
        for tsrc in samples {
            let mut al2 = al.clone();
            let t = parse_tree(tsrc, &mut al2).unwrap();
            let phi = tpx_xpath::parse_node_expr(src, &mut al).unwrap();
            let table = tpx_xpath::eval_node_expr(&t, &phi);
            let x = Var(0);
            let mut gen = gen_above(&[x]);
            let f = node_expr_to_mso(&phi, x, &mut gen);
            for &v in &t.dfs() {
                let got = naive_eval(&t, &f, &Assignment::new().bind(x, v)).unwrap();
                assert_eq!(got, table[v.index()], "{src} on {tsrc} at {v:?}");
            }
        }
    }

    #[test]
    fn axes_translate() {
        for src in ["child", "parent", "next", "prev", "."] {
            check_path(src);
        }
    }

    #[test]
    fn axis_closures_translate_atomically() {
        for src in ["(child)*", "(parent)*", "(next)*", "(prev)*"] {
            check_path(src);
        }
    }

    #[test]
    fn compound_paths_translate() {
        for src in [
            "child/child",
            "child[b]",
            "child | next",
            "child[b & <child[text()]>]/next",
            "(child)*[c]",
            "parent/child[!b]",
        ] {
            check_path(src);
        }
    }

    #[test]
    fn general_star_uses_set_closure() {
        // (child/child)* is not an axis closure; exercised on tiny trees
        // because the naive SO enumeration is exponential.
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let alpha = tpx_xpath::parse_path("(child/child)*", &mut al).unwrap();
        let mut al2 = al.clone();
        let t = parse_tree("a(b(c))", &mut al2).unwrap();
        let rel = tpx_xpath::all_pairs(&t, &alpha);
        let (x, y) = (Var(0), Var(1));
        let mut gen = gen_above(&[x, y]);
        let f = path_expr_to_mso(&alpha, x, y, &mut gen);
        for &v in &t.dfs() {
            for &u in &t.dfs() {
                let got = naive_eval(&t, &f, &Assignment::new().bind(x, v).bind(y, u)).unwrap();
                assert_eq!(got, rel.contains(v, u), "{v:?},{u:?}");
            }
        }
    }

    #[test]
    fn node_expressions_translate() {
        for src in [
            "a",
            "true",
            "text()",
            "!b",
            "a & <child>",
            "<child[b]/next>",
        ] {
            check_node(src);
        }
    }
}
