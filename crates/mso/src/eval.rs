//! Naive MSO model checking on concrete hedges — the exact (but
//! exponential-in-SO-quantifiers) oracle used to validate the compiler.

use crate::formula::{Formula, SetVar, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;
use tpx_trees::{Hedge, NodeId, NodeLabel};

/// A free variable of the evaluated formula was not bound by the
/// assignment. Carries the offending variable and the variables that *were*
/// in scope, for diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// An unbound first-order variable.
    UnboundVar {
        /// The offending variable.
        var: Var,
        /// The FO variables the assignment did bind.
        bound: Vec<Var>,
    },
    /// An unbound second-order (set) variable.
    UnboundSetVar {
        /// The offending variable.
        var: SetVar,
        /// The SO variables the assignment did bind.
        bound: Vec<SetVar>,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar { var, bound } => {
                write!(f, "unbound variable {var:?} (bound: {bound:?})")
            }
            EvalError::UnboundSetVar { var, bound } => {
                write!(f, "unbound set variable {var:?} (bound: {bound:?})")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// An assignment of nodes to FO variables and node sets to SO variables.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// First-order assignments.
    pub fo: HashMap<Var, NodeId>,
    /// Second-order assignments.
    pub so: HashMap<SetVar, HashSet<NodeId>>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `v ↦ node`.
    pub fn bind(mut self, v: Var, node: NodeId) -> Self {
        self.fo.insert(v, node);
        self
    }
}

/// Evaluates `φ` on `h` under `asg`. All free variables must be bound.
///
/// SO quantifiers enumerate all `2^|h|` subsets — use only on small trees.
/// An unbound free variable is an [`EvalError`] naming the variable and
/// the assignment's scope.
pub fn naive_eval(h: &Hedge, phi: &Formula, asg: &Assignment) -> Result<bool, EvalError> {
    let nodes = h.dfs();
    eval(h, &nodes, phi, asg)
}

fn node(asg: &Assignment, v: Var) -> Result<NodeId, EvalError> {
    asg.fo
        .get(&v)
        .copied()
        .ok_or_else(|| EvalError::UnboundVar {
            var: v,
            bound: asg.fo.keys().copied().collect(),
        })
}

fn set(asg: &Assignment, s: SetVar) -> Result<&HashSet<NodeId>, EvalError> {
    asg.so.get(&s).ok_or_else(|| EvalError::UnboundSetVar {
        var: s,
        bound: asg.so.keys().copied().collect(),
    })
}

fn eval(h: &Hedge, nodes: &[NodeId], phi: &Formula, asg: &Assignment) -> Result<bool, EvalError> {
    Ok(match phi {
        Formula::True => true,
        Formula::False => false,
        Formula::Child(x, y) => h.parent(node(asg, *y)?) == Some(node(asg, *x)?),
        Formula::NextSib(x, y) => h.next_sibling(node(asg, *x)?) == Some(node(asg, *y)?),
        Formula::SibLess(x, y) => {
            let (a, b) = (node(asg, *x)?, node(asg, *y)?);
            a != b
                && h.parent(a) == h.parent(b)
                && h.parent(a).is_some()
                && h.sibling_position(a) < h.sibling_position(b)
        }
        Formula::Descendant(x, y) => {
            let (a, b) = (node(asg, *x)?, node(asg, *y)?);
            h.is_ancestor(a, b, true)
        }
        Formula::Lab(s, x) => matches!(h.label(node(asg, *x)?), NodeLabel::Elem(l) if l == s),
        Formula::IsText(x) => h.is_text(node(asg, *x)?),
        Formula::Eq(x, y) => node(asg, *x)? == node(asg, *y)?,
        Formula::Root(x) => {
            let a = node(asg, *x)?;
            h.parent(a).is_none() && h.prev_sibling(a).is_none() && h.next_sibling(a).is_none()
        }
        Formula::In(x, s) => set(asg, *s)?.contains(&node(asg, *x)?),
        Formula::Not(a) => !eval(h, nodes, a, asg)?,
        Formula::And(a, b) => eval(h, nodes, a, asg)? && eval(h, nodes, b, asg)?,
        Formula::Or(a, b) => eval(h, nodes, a, asg)? || eval(h, nodes, b, asg)?,
        Formula::ExistsFo(v, a) => {
            let mut found = false;
            for &n in nodes {
                let mut inner = asg.clone();
                inner.fo.insert(*v, n);
                if eval(h, nodes, a, &inner)? {
                    found = true;
                    break;
                }
            }
            found
        }
        Formula::ForallFo(v, a) => {
            let mut all = true;
            for &n in nodes {
                let mut inner = asg.clone();
                inner.fo.insert(*v, n);
                if !eval(h, nodes, a, &inner)? {
                    all = false;
                    break;
                }
            }
            all
        }
        Formula::ExistsSo(v, a) => {
            let mut found = false;
            for s in subsets(nodes) {
                let mut inner = asg.clone();
                inner.so.insert(*v, s);
                if eval(h, nodes, a, &inner)? {
                    found = true;
                    break;
                }
            }
            found
        }
        Formula::ForallSo(v, a) => {
            let mut all = true;
            for s in subsets(nodes) {
                let mut inner = asg.clone();
                inner.so.insert(*v, s);
                if !eval(h, nodes, a, &inner)? {
                    all = false;
                    break;
                }
            }
            all
        }
    })
}

fn subsets(nodes: &[NodeId]) -> impl Iterator<Item = HashSet<NodeId>> + '_ {
    assert!(
        nodes.len() <= 20,
        "naive SO enumeration on a tree with more than 20 nodes"
    );
    (0u64..(1 << nodes.len())).map(move |mask| {
        nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &n)| n)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{derived, VarGen};
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    fn sample() -> (Alphabet, tpx_trees::Tree) {
        let mut al = Alphabet::from_labels(["a", "b", "c"]);
        let t = parse_tree(r#"a(b("x") c b)"#, &mut al).unwrap();
        (al, t)
    }

    #[test]
    fn atomic_relations() {
        let (al, t) = sample();
        let root = t.root();
        let kids = t.children(root).to_vec();
        let tx = t.children(kids[0])[0];
        let (x, y) = (Var(0), Var(1));
        let bind2 = |a, b| Assignment::new().bind(x, a).bind(y, b);
        assert!(naive_eval(&t, &Formula::Child(x, y), &bind2(root, kids[0])).unwrap());
        assert!(!naive_eval(&t, &Formula::Child(x, y), &bind2(kids[0], root)).unwrap());
        assert!(!naive_eval(&t, &Formula::Child(x, y), &bind2(root, tx)).unwrap());
        assert!(naive_eval(&t, &Formula::Descendant(x, y), &bind2(root, tx)).unwrap());
        assert!(naive_eval(&t, &Formula::NextSib(x, y), &bind2(kids[0], kids[1])).unwrap());
        assert!(!naive_eval(&t, &Formula::NextSib(x, y), &bind2(kids[0], kids[2])).unwrap());
        assert!(naive_eval(&t, &Formula::SibLess(x, y), &bind2(kids[0], kids[2])).unwrap());
        assert!(!naive_eval(&t, &Formula::SibLess(x, y), &bind2(kids[2], kids[0])).unwrap());
        let one = Assignment::new().bind(x, root);
        assert!(naive_eval(&t, &Formula::Root(x), &one).unwrap());
        assert!(naive_eval(&t, &Formula::Lab(al.sym("a"), x), &one).unwrap());
        assert!(naive_eval(&t, &Formula::IsText(x), &Assignment::new().bind(x, tx)).unwrap());
    }

    #[test]
    fn unbound_variables_are_reported_with_context() {
        let (al, t) = sample();
        let (x, y) = (Var(0), Var(7));
        let asg = Assignment::new().bind(x, t.root());
        let err = naive_eval(&t, &Formula::Child(x, y), &asg).unwrap_err();
        assert_eq!(
            err,
            EvalError::UnboundVar {
                var: y,
                bound: vec![x],
            }
        );
        let z = crate::formula::SetVar(3);
        let err = naive_eval(&t, &Formula::In(x, z), &asg).unwrap_err();
        assert!(matches!(err, EvalError::UnboundSetVar { var, .. } if var == z));
        let _ = al;
    }

    #[test]
    fn quantifiers() {
        let (al, t) = sample();
        let mut g = VarGen::new();
        let x = g.var();
        // ∃x lab_c(x)
        let f = Formula::exists(x, Formula::Lab(al.sym("c"), x));
        assert!(naive_eval(&t, &f, &Assignment::new()).unwrap());
        // ∀x (lab_b(x) → ∃y child(x,y)) — false: the second b is a leaf.
        let y = g.var();
        let f2 = Formula::forall(
            x,
            Formula::Lab(al.sym("b"), x).implies(Formula::exists(y, Formula::Child(x, y))),
        );
        assert!(!naive_eval(&t, &f2, &Assignment::new()).unwrap());
    }

    #[test]
    fn set_quantifiers_express_reachability() {
        let (_, t) = sample();
        let mut g = VarGen::new();
        let (x, y) = (g.var(), g.var());
        let z = g.set_var();
        let (u, v) = (g.var(), g.var());
        // descendant-or-self via set closure: ∀Z (x∈Z ∧ closed-under-child → y∈Z)
        let closed = Formula::forall(
            u,
            Formula::forall(
                v,
                Formula::In(u, z)
                    .and(Formula::Child(u, v))
                    .implies(Formula::In(v, z)),
            ),
        );
        let reach =
            Formula::forall_set(z, Formula::In(x, z).and(closed).implies(Formula::In(y, z)));
        let root = t.root();
        let tx = t.text_nodes()[0];
        assert!(naive_eval(&t, &reach, &Assignment::new().bind(x, root).bind(y, tx)).unwrap());
        assert!(!naive_eval(&t, &reach, &Assignment::new().bind(x, tx).bind(y, root)).unwrap());
        // Agrees with the atomic descendant relation everywhere.
        for &a in &t.dfs() {
            for &b in &t.dfs() {
                let asg = Assignment::new().bind(x, a).bind(y, b);
                let via_sets = naive_eval(&t, &reach, &asg).unwrap();
                let via_atomic =
                    naive_eval(&t, &crate::formula::derived::descendant_or_self(x, y), &asg)
                        .unwrap();
                assert_eq!(via_sets, via_atomic, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn doc_before_matches_doc_cmp() {
        let (_, t) = sample();
        let mut g = VarGen::new();
        let (x, y) = (g.var(), g.var());
        let f = derived::doc_before(x, y, &mut g);
        for &a in &t.dfs() {
            for &b in &t.dfs() {
                let expect = t.doc_cmp(a, b) == std::cmp::Ordering::Less;
                let got = naive_eval(&t, &f, &Assignment::new().bind(x, a).bind(y, b)).unwrap();
                assert_eq!(got, expect, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn derived_leaf_and_first_child() {
        let (_, t) = sample();
        let mut g = VarGen::new();
        let x = g.var();
        let leaf = derived::leaf(x, &mut g);
        let leaves: Vec<_> = t
            .dfs()
            .into_iter()
            .filter(|&v| naive_eval(&t, &leaf, &Assignment::new().bind(x, v)).unwrap())
            .collect();
        assert_eq!(leaves, t.leaves());
        let y = g.var();
        let fc = derived::first_child(x, y, &mut g);
        let root = t.root();
        let kids = t.children(root).to_vec();
        assert!(naive_eval(&t, &fc, &Assignment::new().bind(x, root).bind(y, kids[0])).unwrap());
        assert!(!naive_eval(&t, &fc, &Assignment::new().bind(x, root).bind(y, kids[1])).unwrap());
    }
}
