//! MSO formulas over the paper's tree vocabulary.
//!
//! Atomic relations (Section 5.3): `E(x, y)` (child), `x < y` (sibling
//! order), `lab_σ(x)`, plus equality and set membership. This crate also
//! treats *next sibling*, *proper descendant* and *transitive sibling
//! order* as atomic — all three are MSO-definable from the paper's
//! vocabulary, but keeping them atomic lets the compiler use small
//! hand-coded automata instead of set quantification (see
//! [`crate::atomic`]).

use std::collections::BTreeSet;
use std::fmt;
use tpx_trees::Symbol;

/// A first-order variable (ranges over nodes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

/// A second-order variable (ranges over node sets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetVar(pub u32);

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Debug for SetVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A fresh-variable generator, shared by derived-formula constructors.
#[derive(Clone, Debug, Default)]
pub struct VarGen {
    next_fo: u32,
    next_so: u32,
}

impl VarGen {
    /// A generator whose variables start above any in use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh first-order variable.
    pub fn var(&mut self) -> Var {
        self.next_fo += 1;
        Var(self.next_fo - 1)
    }

    /// A fresh second-order variable.
    pub fn set_var(&mut self) -> SetVar {
        self.next_so += 1;
        SetVar(self.next_so - 1)
    }

    /// Reserves ids so fresh variables never collide with `v`.
    pub fn reserve(&mut self, v: Var) {
        self.next_fo = self.next_fo.max(v.0 + 1);
    }
}

/// An MSO formula. Constructors below keep the usual precedence readable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// `⊤`.
    True,
    /// `⊥`.
    False,
    /// `E(x, y)`: `y` is a child of `x`.
    Child(Var, Var),
    /// `y` is the immediate next sibling of `x` (atomic for the compiler).
    NextSib(Var, Var),
    /// `x < y`: same parent, `x` strictly before `y` (the paper's sibling
    /// order; transitive).
    SibLess(Var, Var),
    /// `y` is a proper descendant of `x` (atomic for the compiler).
    Descendant(Var, Var),
    /// `lab_σ(x)`.
    Lab(Symbol, Var),
    /// `x` is a text node.
    IsText(Var),
    /// `x = y`.
    Eq(Var, Var),
    /// `x` is the root.
    Root(Var),
    /// `x ∈ X`.
    In(Var, SetVar),
    /// `¬φ`.
    Not(Box<Formula>),
    /// `φ ∧ ψ`.
    And(Box<Formula>, Box<Formula>),
    /// `φ ∨ ψ`.
    Or(Box<Formula>, Box<Formula>),
    /// `∃x φ`.
    ExistsFo(Var, Box<Formula>),
    /// `∀x φ`.
    ForallFo(Var, Box<Formula>),
    /// `∃X φ`.
    ExistsSo(SetVar, Box<Formula>),
    /// `∀X φ`.
    ForallSo(SetVar, Box<Formula>),
}

impl Formula {
    /// `φ ∧ ψ` (with unit shortcuts).
    pub fn and(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::True, b) => b,
            (a, Formula::True) => a,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (a, b) => Formula::And(Box::new(a), Box::new(b)),
        }
    }

    /// `φ ∨ ψ` (with unit shortcuts).
    pub fn or(self, other: Formula) -> Formula {
        match (self, other) {
            (Formula::False, b) => b,
            (a, Formula::False) => a,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (a, b) => Formula::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `¬φ`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        match self {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// `φ → ψ`.
    pub fn implies(self, other: Formula) -> Formula {
        self.not().or(other)
    }

    /// `∃x φ`.
    pub fn exists(v: Var, body: Formula) -> Formula {
        Formula::ExistsFo(v, Box::new(body))
    }

    /// `∀x φ`.
    pub fn forall(v: Var, body: Formula) -> Formula {
        Formula::ForallFo(v, Box::new(body))
    }

    /// `∀X φ`.
    pub fn forall_set(v: SetVar, body: Formula) -> Formula {
        Formula::ForallSo(v, Box::new(body))
    }

    /// Conjunction of many formulas.
    pub fn all(items: impl IntoIterator<Item = Formula>) -> Formula {
        items.into_iter().fold(Formula::True, Formula::and)
    }

    /// Disjunction of many formulas.
    pub fn any(items: impl IntoIterator<Item = Formula>) -> Formula {
        items.into_iter().fold(Formula::False, Formula::or)
    }

    /// Free first-order and second-order variables.
    pub fn free_vars(&self) -> (BTreeSet<Var>, BTreeSet<SetVar>) {
        let mut fo = BTreeSet::new();
        let mut so = BTreeSet::new();
        self.collect_free(&mut fo, &mut so);
        (fo, so)
    }

    fn collect_free(&self, fo: &mut BTreeSet<Var>, so: &mut BTreeSet<SetVar>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Child(x, y)
            | Formula::NextSib(x, y)
            | Formula::SibLess(x, y)
            | Formula::Descendant(x, y)
            | Formula::Eq(x, y) => {
                fo.insert(*x);
                fo.insert(*y);
            }
            Formula::Lab(_, x) | Formula::IsText(x) | Formula::Root(x) => {
                fo.insert(*x);
            }
            Formula::In(x, s) => {
                fo.insert(*x);
                so.insert(*s);
            }
            Formula::Not(a) => a.collect_free(fo, so),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_free(fo, so);
                b.collect_free(fo, so);
            }
            Formula::ExistsFo(v, a) | Formula::ForallFo(v, a) => {
                let mut inner_fo = BTreeSet::new();
                let mut inner_so = BTreeSet::new();
                a.collect_free(&mut inner_fo, &mut inner_so);
                inner_fo.remove(v);
                fo.extend(inner_fo);
                so.extend(inner_so);
            }
            Formula::ExistsSo(v, a) | Formula::ForallSo(v, a) => {
                let mut inner_fo = BTreeSet::new();
                let mut inner_so = BTreeSet::new();
                a.collect_free(&mut inner_fo, &mut inner_so);
                inner_so.remove(v);
                fo.extend(inner_fo);
                so.extend(inner_so);
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::True
            | Formula::False
            | Formula::Child(_, _)
            | Formula::NextSib(_, _)
            | Formula::SibLess(_, _)
            | Formula::Descendant(_, _)
            | Formula::Lab(_, _)
            | Formula::IsText(_)
            | Formula::Eq(_, _)
            | Formula::Root(_)
            | Formula::In(_, _) => 1,
            Formula::Not(a)
            | Formula::ExistsFo(_, a)
            | Formula::ForallFo(_, a)
            | Formula::ExistsSo(_, a)
            | Formula::ForallSo(_, a) => 1 + a.size(),
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Bound first-order variables (anywhere in the formula).
    pub fn bound_fo_vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_bound(&mut out);
        out
    }

    fn collect_bound(&self, out: &mut BTreeSet<Var>) {
        match self {
            Formula::Not(a) | Formula::ExistsSo(_, a) | Formula::ForallSo(_, a) => {
                a.collect_bound(out)
            }
            Formula::ExistsFo(v, a) | Formula::ForallFo(v, a) => {
                out.insert(*v);
                a.collect_bound(out);
            }
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_bound(out);
                b.collect_bound(out);
            }
            _ => {}
        }
    }

    /// Replaces every *free* occurrence of `from` with `to`.
    ///
    /// Panics if `to` is bound anywhere in the formula (which would capture
    /// it) — callers pick `to` from a [`VarGen`] reserved above all pattern
    /// variables, so this never fires in practice.
    pub fn rename_fo(&self, from: Var, to: Var) -> Formula {
        assert!(
            !self.bound_fo_vars().contains(&to),
            "rename_fo would capture {to:?}"
        );
        self.rename_fo_unchecked(from, to)
    }

    fn rename_fo_unchecked(&self, from: Var, to: Var) -> Formula {
        let r = |v: Var| if v == from { to } else { v };
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Child(x, y) => Formula::Child(r(*x), r(*y)),
            Formula::NextSib(x, y) => Formula::NextSib(r(*x), r(*y)),
            Formula::SibLess(x, y) => Formula::SibLess(r(*x), r(*y)),
            Formula::Descendant(x, y) => Formula::Descendant(r(*x), r(*y)),
            Formula::Lab(s, x) => Formula::Lab(*s, r(*x)),
            Formula::IsText(x) => Formula::IsText(r(*x)),
            Formula::Eq(x, y) => Formula::Eq(r(*x), r(*y)),
            Formula::Root(x) => Formula::Root(r(*x)),
            Formula::In(x, s) => Formula::In(r(*x), *s),
            Formula::Not(a) => Formula::Not(Box::new(a.rename_fo_unchecked(from, to))),
            Formula::And(a, b) => Formula::And(
                Box::new(a.rename_fo_unchecked(from, to)),
                Box::new(b.rename_fo_unchecked(from, to)),
            ),
            Formula::Or(a, b) => Formula::Or(
                Box::new(a.rename_fo_unchecked(from, to)),
                Box::new(b.rename_fo_unchecked(from, to)),
            ),
            Formula::ExistsFo(v, a) => {
                if *v == from {
                    self.clone() // `from` is shadowed; nothing free below
                } else {
                    Formula::ExistsFo(*v, Box::new(a.rename_fo_unchecked(from, to)))
                }
            }
            Formula::ForallFo(v, a) => {
                if *v == from {
                    self.clone()
                } else {
                    Formula::ForallFo(*v, Box::new(a.rename_fo_unchecked(from, to)))
                }
            }
            Formula::ExistsSo(v, a) => {
                Formula::ExistsSo(*v, Box::new(a.rename_fo_unchecked(from, to)))
            }
            Formula::ForallSo(v, a) => {
                Formula::ForallSo(*v, Box::new(a.rename_fo_unchecked(from, to)))
            }
        }
    }

    /// Maximum quantifier nesting depth (a complexity measure for E6).
    pub fn quantifier_depth(&self) -> usize {
        match self {
            Formula::Not(a) => a.quantifier_depth(),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.quantifier_depth().max(b.quantifier_depth())
            }
            Formula::ExistsFo(_, a)
            | Formula::ForallFo(_, a)
            | Formula::ExistsSo(_, a)
            | Formula::ForallSo(_, a) => 1 + a.quantifier_depth(),
            _ => 0,
        }
    }
}

/// Derived formulas (macros over the core vocabulary).
pub mod derived {
    use super::*;

    /// `y` is a descendant of `x` or `x` itself.
    pub fn descendant_or_self(x: Var, y: Var) -> Formula {
        Formula::Eq(x, y).or(Formula::Descendant(x, y))
    }

    /// `x` is a leaf: no children.
    pub fn leaf(x: Var, gen: &mut VarGen) -> Formula {
        let y = gen.var();
        Formula::exists(y, Formula::Child(x, y)).not()
    }

    /// `y` is the parent of `x`.
    pub fn parent(x: Var, y: Var) -> Formula {
        Formula::Child(y, x)
    }

    /// `y` is the first child of `x`.
    pub fn first_child(x: Var, y: Var, gen: &mut VarGen) -> Formula {
        let z = gen.var();
        Formula::Child(x, y).and(Formula::exists(z, Formula::NextSib(z, y)).not())
    }

    /// Document order: `x <lex y` (strict). An ancestor precedes its
    /// descendants; otherwise order is decided at the separating siblings.
    pub fn doc_before(x: Var, y: Var, gen: &mut VarGen) -> Formula {
        let s1 = gen.var();
        let s2 = gen.var();
        Formula::Descendant(x, y).or(Formula::exists(
            s1,
            Formula::exists(
                s2,
                Formula::SibLess(s1, s2)
                    .and(descendant_or_self(s1, x))
                    .and(descendant_or_self(s2, y)),
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        let (x, y) = (Var(0), Var(1));
        let s = SetVar(0);
        let f = Formula::exists(y, Formula::Child(x, y).and(Formula::In(y, s)));
        let (fo, so) = f.free_vars();
        assert!(fo.contains(&x));
        assert!(!fo.contains(&y));
        assert!(so.contains(&s));
    }

    #[test]
    fn connective_shortcuts() {
        assert_eq!(Formula::True.and(Formula::False), Formula::False);
        assert_eq!(Formula::False.or(Formula::True), Formula::True);
        assert_eq!(Formula::True.not(), Formula::False);
        assert_eq!(Formula::True.not().not(), Formula::True);
    }

    #[test]
    fn size_and_depth() {
        let x = Var(0);
        let f = Formula::exists(x, Formula::Root(x).and(Formula::IsText(x).not()));
        assert_eq!(f.quantifier_depth(), 1);
        assert!(f.size() >= 4);
    }

    #[test]
    fn vargen_is_fresh() {
        let mut g = VarGen::new();
        let a = g.var();
        let b = g.var();
        assert_ne!(a, b);
        g.reserve(Var(10));
        assert!(g.var().0 > 10);
    }
}
