//! The Thatcher–Wright compiler: MSO formulas → bottom-up tree automata
//! over marked encodings.
//!
//! `compile(φ, ctx, n_symbols)` produces an automaton over
//! `(Σ ⊎ {text}) × 2^|ctx|` accepting exactly the marked encodings of trees
//! `t` with valuations `ν` (singleton marks for FO variables, arbitrary
//! marks for SO variables) such that `t ⊨ φ[ν]`.
//!
//! Recipe (per the classical construction):
//! * atomic formulas: the hand-coded automata of [`crate::atomic`];
//! * `∧` / `∨`: product / union (+ trim);
//! * `¬`: pushed toward the atoms first (double negation, De Morgan,
//!   quantifier duality), so only irreducibly negated subformulas pay the
//!   determinize–complement–trim route — the source of the non-elementary
//!   worst case;
//! * `∃x`: intersect with the singleton guard for `x`, then project the
//!   bit away; `∃X`: project directly; `∀` is `¬∃¬`.

pub use crate::atomic::MSym;
use crate::atomic::{self};
use crate::formula::{Formula, SetVar, Var};
use std::collections::HashMap;
use std::fmt;
use tpx_treeauto::{EncSym, Nbta, RankedTree};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::{Hedge, NodeId, Tree};

/// Why a compilation failed: a malformed query (free variable missing from
/// the context) or an exhausted resource budget.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// `φ` mentions a variable the caller's context does not bind.
    UnboundVariable {
        /// The offending variable.
        var: VarKey,
        /// The context it was looked up in.
        ctx: Vec<VarKey>,
    },
    /// The budget ran out mid-compilation.
    Budget(BudgetExceeded),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnboundVariable { var, ctx } => {
                write!(f, "variable {var:?} not in context {ctx:?}")
            }
            CompileError::Budget(b) => write!(f, "mso compilation {b}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<BudgetExceeded> for CompileError {
    fn from(b: BudgetExceeded) -> Self {
        CompileError::Budget(b)
    }
}

/// A memoization cache for [`compile`]: large deciders (Section 5.3)
/// instantiate the same reachability subformulas for many state pairs, and
/// compilation is by far the dominant cost.
#[derive(Default)]
pub struct CompileCache {
    map: HashMap<(Formula, Vec<VarKey>, usize), Nbta<MSym>>,
}

impl CompileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached automata.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// [`compile`] with memoization on every recursive step.
///
/// Only successful compilations are memoized, so a budget-aborted
/// compilation can be retried with a larger budget.
pub fn compile_cached(
    phi: &Formula,
    ctx: &[VarKey],
    n_symbols: usize,
    cache: &mut CompileCache,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, CompileError> {
    let key = (phi.clone(), ctx.to_vec(), n_symbols);
    if let Some(hit) = cache.map.get(&key) {
        return Ok(hit.clone());
    }
    let result = compile_inner(phi, ctx, n_symbols, &mut Some(cache), budget)?;
    cache.map.insert(key, result.clone());
    Ok(result)
}

/// A context entry: a free variable with its bit position given by its
/// index in the context slice.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VarKey {
    /// A first-order variable.
    Fo(Var),
    /// A second-order variable.
    So(SetVar),
}

/// The bit position of `k` in `ctx`, or an [`CompileError::UnboundVariable`]
/// naming the variable and the context it was missing from.
fn bit_of(ctx: &[VarKey], k: VarKey) -> Result<usize, CompileError> {
    ctx.iter()
        .position(|&c| c == k)
        .ok_or_else(|| CompileError::UnboundVariable {
            var: k,
            ctx: ctx.to_vec(),
        })
}

/// Compiles `φ` against the given context (which must contain all free
/// variables of `φ`).
pub fn compile(
    phi: &Formula,
    ctx: &[VarKey],
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, CompileError> {
    compile_inner(phi, ctx, n_symbols, &mut None, budget)
}

fn rec(
    phi: &Formula,
    ctx: &[VarKey],
    n_symbols: usize,
    cache: &mut Option<&mut CompileCache>,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, CompileError> {
    match cache {
        Some(c) => compile_cached(phi, ctx, n_symbols, c, budget),
        None => compile_inner(phi, ctx, n_symbols, &mut None, budget),
    }
}

fn compile_inner(
    phi: &Formula,
    ctx: &[VarKey],
    n_symbols: usize,
    cache: &mut Option<&mut CompileCache>,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, CompileError> {
    budget.charge(1)?;
    let w = ctx.len();
    Ok(match phi {
        Formula::True => atomic::true_auto(n_symbols, w),
        Formula::False => atomic::false_auto(n_symbols, w),
        Formula::Child(x, y) => atomic::child(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::Fo(*y))?,
        ),
        Formula::NextSib(x, y) => atomic::next_sib(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::Fo(*y))?,
        ),
        Formula::SibLess(x, y) => atomic::sib_less(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::Fo(*y))?,
        ),
        Formula::Descendant(x, y) => atomic::descendant(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::Fo(*y))?,
        ),
        Formula::Lab(s, x) => atomic::label_is(n_symbols, w, bit_of(ctx, VarKey::Fo(*x))?, *s),
        Formula::IsText(x) => atomic::is_text(n_symbols, w, bit_of(ctx, VarKey::Fo(*x))?),
        Formula::Eq(x, y) => atomic::eq(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::Fo(*y))?,
        ),
        Formula::Root(x) => atomic::root_marked(n_symbols, w, bit_of(ctx, VarKey::Fo(*x))?),
        Formula::In(x, s) => atomic::in_set(
            n_symbols,
            w,
            bit_of(ctx, VarKey::Fo(*x))?,
            bit_of(ctx, VarKey::So(*s))?,
        ),
        Formula::And(a, b) => {
            let aa = rec(a, ctx, n_symbols, cache, budget)?;
            let bb = rec(b, ctx, n_symbols, cache, budget)?;
            aa.intersect(&bb, budget)?.trim(budget)?
        }
        Formula::Or(a, b) => {
            let aa = rec(a, ctx, n_symbols, cache, budget)?;
            let bb = rec(b, ctx, n_symbols, cache, budget)?;
            aa.union(&bb).trim(budget)?
        }
        Formula::Not(a) => match pushed_negation(a) {
            // Negation stays symbolic where the formula shape allows: De
            // Morgan / double-negation / quantifier duality move the `¬`
            // toward the atoms, so only irreducibly negated subformulas
            // ever pay for the subset construction.
            Some(simpler) => rec(&simpler, ctx, n_symbols, cache, budget)?,
            None => complement(&rec(a, ctx, n_symbols, cache, budget)?, budget)?,
        },
        Formula::ExistsFo(v, a) => {
            let inner = extend_ctx(ctx, VarKey::Fo(*v));
            let body = rec(a, &inner, n_symbols, cache, budget)?;
            let guarded = body
                .intersect(
                    &atomic::singleton(n_symbols, inner.len(), ctx.len()),
                    budget,
                )?
                .trim(budget)?;
            project_last_bit(&guarded, n_symbols, ctx.len(), budget)?
        }
        Formula::ExistsSo(v, a) => {
            let inner = extend_ctx(ctx, VarKey::So(*v));
            let body = rec(a, &inner, n_symbols, cache, budget)?;
            project_last_bit(&body.trim(budget)?, n_symbols, ctx.len(), budget)?
        }
        Formula::ForallFo(v, a) => {
            // ∀x φ = ¬∃x ¬φ.
            let neg = Formula::ExistsFo(*v, Box::new(a.clone().not()));
            complement(&rec(&neg, ctx, n_symbols, cache, budget)?, budget)?
        }
        Formula::ForallSo(v, a) => {
            let neg = Formula::ExistsSo(*v, Box::new(a.clone().not()));
            complement(&rec(&neg, ctx, n_symbols, cache, budget)?, budget)?
        }
    })
}

/// One step of negation pushing: `¬φ` rewritten to an equivalent formula
/// with the negation strictly closer to the atoms, or `None` when `φ` is
/// an atom or an existential (where a single complement is the plan).
/// The compiler's recursion applies this incrementally, so chains like
/// `¬¬¬(α ∧ ∀x β)` dissolve without a separate normalization pass.
fn pushed_negation(phi: &Formula) -> Option<Formula> {
    Some(match phi {
        Formula::True => Formula::False,
        Formula::False => Formula::True,
        Formula::Not(a) => (**a).clone(),
        Formula::And(a, b) => Formula::Or(
            Box::new(Formula::Not(a.clone())),
            Box::new(Formula::Not(b.clone())),
        ),
        Formula::Or(a, b) => Formula::And(
            Box::new(Formula::Not(a.clone())),
            Box::new(Formula::Not(b.clone())),
        ),
        Formula::ForallFo(v, a) => Formula::ExistsFo(*v, Box::new(Formula::Not(a.clone()))),
        Formula::ForallSo(v, a) => Formula::ExistsSo(*v, Box::new(Formula::Not(a.clone()))),
        _ => return None,
    })
}

fn extend_ctx(ctx: &[VarKey], k: VarKey) -> Vec<VarKey> {
    assert!(
        !ctx.contains(&k),
        "variable shadowing is not supported: {k:?} already in scope"
    );
    let mut v = ctx.to_vec();
    v.push(k);
    v
}

fn complement(a: &Nbta<MSym>, budget: &BudgetHandle) -> Result<Nbta<MSym>, BudgetExceeded> {
    a.determinize(budget)?.complement().to_nbta().trim(budget)
}

/// Drops the highest bit (the variable at position `width`, i.e. the last
/// of `width + 1` bits): existential projection onto the canonical
/// alphabets for `width` bits, in one pass over the rule table.
///
/// Charges one fuel unit per rule of `a`, then the trim's.
fn project_last_bit(
    a: &Nbta<MSym>,
    n_symbols: usize,
    width: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, BudgetExceeded> {
    budget.charge(a.rule_count() as u64)?;
    let mask = (1u64 << width) - 1;
    let projected = a.relabel(
        atomic::leaf_alphabet(),
        atomic::internal_alphabet(n_symbols, width),
        |s| MSym {
            label: s.label,
            bits: s.bits & mask,
        },
    );
    projected.trim(budget)
}

/// Compiles a sentence (no free variables) to an automaton over plain
/// encoding symbols: the regular language `{ t : t ⊨ φ }`.
pub fn compile_sentence(
    phi: &Formula,
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<EncSym>, CompileError> {
    let (fo, so) = phi.free_vars();
    assert!(
        fo.is_empty() && so.is_empty(),
        "compile_sentence requires a closed formula"
    );
    let a = compile(phi, &[], n_symbols, budget)?;
    Ok(strip_bits(&a, n_symbols, budget)?)
}

/// As [`compile_sentence`], but with memoization across calls.
pub fn compile_sentence_cached(
    phi: &Formula,
    n_symbols: usize,
    cache: &mut CompileCache,
    budget: &BudgetHandle,
) -> Result<Nbta<EncSym>, CompileError> {
    let (fo, so) = phi.free_vars();
    assert!(
        fo.is_empty() && so.is_empty(),
        "compile_sentence requires a closed formula"
    );
    let a = compile_cached(phi, &[], n_symbols, cache, budget)?;
    Ok(strip_bits(&a, n_symbols, budget)?)
}

/// Converts a zero-bit marked automaton into one over plain encoding
/// symbols, in one pass over the rule table.
///
/// Charges one fuel unit per rule of `a`, then the trim's.
pub fn strip_bits(
    a: &Nbta<MSym>,
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<EncSym>, BudgetExceeded> {
    budget.charge(a.rule_count() as u64)?;
    let out = a.relabel(
        vec![EncSym::Nil],
        tpx_treeauto::convert::enc_internal_alphabet(n_symbols),
        |s| s.label,
    );
    out.trim(budget)
}

/// Re-embeds an automaton compiled at a narrow context into a wider one:
/// bit `i` of `a` is read from position `positions[i]` of the target
/// context; all other target bits are ignored. No determinization — this is
/// plain cylindrification, the cheap way to compose independently compiled
/// components (the paper's product constructions over `Σ_mark`).
pub fn lift(a: &Nbta<MSym>, n_symbols: usize, positions: &[usize], to_width: usize) -> Nbta<MSym> {
    for &p in positions {
        assert!(p < to_width);
    }
    a.inverse_map(
        atomic::leaf_alphabet(),
        atomic::internal_alphabet(n_symbols, to_width),
        |m: &MSym| {
            let mut bits = 0u64;
            for (i, &p) in positions.iter().enumerate() {
                if m.bits & (1 << p) != 0 {
                    bits |= 1 << i;
                }
            }
            MSym {
                label: m.label,
                bits,
            }
        },
    )
}

/// Existentially projects the *last* bit of a width-`width + 1` automaton,
/// guarding it as a singleton when `fo` is true (first-order variables).
/// No determinization: projection of a nondeterministic automaton is a
/// relabelling.
pub fn project_bit(
    a: &Nbta<MSym>,
    n_symbols: usize,
    width: usize,
    fo: bool,
    budget: &BudgetHandle,
) -> Result<Nbta<MSym>, BudgetExceeded> {
    let guarded = if fo {
        a.intersect(&atomic::singleton(n_symbols, width + 1, width), budget)?
            .trim(budget)?
    } else {
        a.trim(budget)?
    };
    project_last_bit(&guarded, n_symbols, width, budget)
}

/// The marked encoding of a tree under an assignment: bit `i` set exactly
/// on the binary node encoding the assigned node(s) of `ctx[i]`.
pub fn marked_encoding(
    t: &Tree,
    ctx: &[VarKey],
    asg: &crate::eval::Assignment,
) -> RankedTree<MSym> {
    marked_encoding_hedge(t.as_hedge(), ctx, asg)
}

/// Hedge variant of [`marked_encoding`].
pub fn marked_encoding_hedge(
    h: &Hedge,
    ctx: &[VarKey],
    asg: &crate::eval::Assignment,
) -> RankedTree<MSym> {
    let bt = tpx_trees::encode_hedge(h);
    let bits_for = |src: Option<NodeId>| -> u64 {
        let Some(node) = src else { return 0 };
        let mut bits = 0u64;
        for (i, k) in ctx.iter().enumerate() {
            let marked = match k {
                VarKey::Fo(v) => asg.fo.get(v) == Some(&node),
                VarKey::So(s) => asg.so.get(s).is_some_and(|set| set.contains(&node)),
            };
            if marked {
                bits |= 1 << i;
            }
        }
        bits
    };
    build_marked(&bt, bt.root(), &bits_for)
}

fn build_marked(
    bt: &tpx_trees::BinTree,
    v: tpx_trees::BinNodeId,
    bits_for: &impl Fn(Option<NodeId>) -> u64,
) -> RankedTree<MSym> {
    let label = match bt.label(v) {
        tpx_trees::BinLabel::Elem(s) => EncSym::Elem(*s),
        tpx_trees::BinLabel::Text(_) => EncSym::Text,
        tpx_trees::BinLabel::Nil => EncSym::Nil,
    };
    let sym = MSym {
        label,
        bits: bits_for(bt.source(v)),
    };
    match bt.kids(v) {
        None => RankedTree::Leaf(sym),
        Some((l, r)) => RankedTree::node(
            sym,
            build_marked(bt, l, bits_for),
            build_marked(bt, r, bits_for),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{naive_eval, Assignment};
    use crate::formula::{derived, VarGen};
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    const SAMPLES: [&str; 6] = [
        "a",
        r#"a("x")"#,
        "a(b)",
        r#"a(b("x") b)"#,
        "a(b(a) a)",
        r#"b(a "y" a(b))"#,
    ];

    /// Checks compiler vs naive evaluator on all samples, all assignments of
    /// the (≤ 2) FO variables.
    fn agree_binary(phi_name: &str, mk: impl Fn(Var, Var) -> Formula) {
        let (x, y) = (Var(0), Var(1));
        let phi = mk(x, y);
        let ctx = [VarKey::Fo(x), VarKey::Fo(y)];
        for src in SAMPLES {
            let mut al = alpha();
            let t = parse_tree(src, &mut al).unwrap();
            let a = compile(&phi, &ctx, al.len(), &BudgetHandle::unlimited()).unwrap();
            for &n1 in &t.dfs() {
                for &n2 in &t.dfs() {
                    let asg = Assignment::new().bind(x, n1).bind(y, n2);
                    let expect = naive_eval(&t, &phi, &asg).unwrap();
                    let got = a.accepts(&marked_encoding(&t, &ctx, &asg));
                    assert_eq!(got, expect, "{phi_name} on {src} at {n1:?},{n2:?}");
                }
            }
        }
    }

    #[test]
    fn atomic_child_agrees() {
        agree_binary("child", Formula::Child);
    }

    #[test]
    fn atomic_next_sib_agrees() {
        agree_binary("next_sib", Formula::NextSib);
    }

    #[test]
    fn atomic_sib_less_agrees() {
        agree_binary("sib_less", Formula::SibLess);
    }

    #[test]
    fn atomic_descendant_agrees() {
        agree_binary("descendant", Formula::Descendant);
    }

    #[test]
    fn atomic_eq_agrees() {
        agree_binary("eq", Formula::Eq);
    }

    #[test]
    fn atomic_unary_agree() {
        let x = Var(0);
        let al = alpha();
        let formulas = [
            ("lab_a", Formula::Lab(al.sym("a"), x)),
            ("lab_b", Formula::Lab(al.sym("b"), x)),
            ("istext", Formula::IsText(x)),
            ("root", Formula::Root(x)),
        ];
        let ctx = [VarKey::Fo(x)];
        for (name, phi) in &formulas {
            for src in SAMPLES {
                let mut al = alpha();
                let t = parse_tree(src, &mut al).unwrap();
                let a = compile(phi, &ctx, al.len(), &BudgetHandle::unlimited()).unwrap();
                for &n in &t.dfs() {
                    let asg = Assignment::new().bind(x, n);
                    let expect = naive_eval(&t, phi, &asg).unwrap();
                    let got = a.accepts(&marked_encoding(&t, &ctx, &asg));
                    assert_eq!(got, expect, "{name} on {src} at {n:?}");
                }
            }
        }
    }

    #[test]
    fn boolean_connectives_agree() {
        let (x, y) = (Var(0), Var(1));
        agree_binary("child∧¬eq", |x, y| {
            Formula::Child(x, y).and(Formula::Eq(x, y).not())
        });
        agree_binary("sibless∨child", |x, y| {
            Formula::SibLess(x, y).or(Formula::Child(x, y))
        });
        let _ = (x, y);
    }

    #[test]
    fn sentences_with_quantifiers() {
        let mut al = alpha();
        let mut g = VarGen::new();
        let x = g.var();
        // ∃x lab_b(x): trees containing a b-node.
        let phi = Formula::exists(x, Formula::Lab(al.sym("b"), x));
        let a = compile_sentence(&phi, al.len(), &BudgetHandle::unlimited()).unwrap();
        for (src, expect) in [
            ("a", false),
            ("a(b)", true),
            (r#"a("t")"#, false),
            ("b", true),
            ("a(a(a(b)))", true),
        ] {
            let t = parse_tree(src, &mut al).unwrap();
            let enc = tpx_treeauto::convert::encode_for_automata(&t);
            assert_eq!(a.accepts(&enc), expect, "{src}");
        }
    }

    #[test]
    fn forall_fo_sentence() {
        let budget = BudgetHandle::unlimited();
        let mut al = alpha();
        let mut g = VarGen::new();
        let x = g.var();
        // ∀x (text(x) ∨ lab_a(x) ∨ lab_b(x)): trivially true.
        let phi = Formula::forall(
            x,
            Formula::IsText(x)
                .or(Formula::Lab(al.sym("a"), x))
                .or(Formula::Lab(al.sym("b"), x)),
        );
        let a = compile_sentence(&phi, al.len(), &budget).unwrap();
        let t = parse_tree(r#"a(b "x")"#, &mut al).unwrap();
        assert!(a.accepts(&tpx_treeauto::convert::encode_for_automata(&t)));
        // ∀x lab_a(x): only pure-a trees.
        let y = g.var();
        let phi2 = Formula::forall(y, Formula::Lab(al.sym("a"), y));
        let a2 = compile_sentence(&phi2, al.len(), &budget).unwrap();
        let pure = parse_tree("a(a a)", &mut al).unwrap();
        let mixed = parse_tree("a(b)", &mut al).unwrap();
        assert!(a2.accepts(&tpx_treeauto::convert::encode_for_automata(&pure)));
        assert!(!a2.accepts(&tpx_treeauto::convert::encode_for_automata(&mixed)));
    }

    #[test]
    fn set_quantifier_reachability_agrees_with_descendant() {
        let budget = BudgetHandle::unlimited();
        // reach(x, y) via ∀Z closure = descendant-or-self(x, y).
        let mut g = VarGen::new();
        let (x, y) = (g.var(), g.var());
        let z = g.set_var();
        let (u, v) = (g.var(), g.var());
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
        let dos = derived::descendant_or_self(x, y);
        let ctx = [VarKey::Fo(x), VarKey::Fo(y)];
        let mut al = alpha();
        let t = parse_tree(r#"a(b("t") a)"#, &mut al).unwrap();
        let a_reach = compile(&reach, &ctx, al.len(), &budget).unwrap();
        let a_dos = compile(&dos, &ctx, al.len(), &budget).unwrap();
        for &n1 in &t.dfs() {
            for &n2 in &t.dfs() {
                let asg = Assignment::new().bind(x, n1).bind(y, n2);
                let enc = marked_encoding(&t, &ctx, &asg);
                assert_eq!(a_reach.accepts(&enc), a_dos.accepts(&enc), "{n1:?} {n2:?}");
            }
        }
    }

    #[test]
    fn lift_and_project_compose_like_quantifiers() {
        let budget = BudgetHandle::unlimited();
        // ∃y child(x, y) computed two ways: through the compiler, and
        // manually via lift + singleton-guarded projection.
        let (x, y) = (Var(0), Var(1));
        let mut al = alpha();
        let n = al.len();
        let child = compile(
            &Formula::Child(x, y),
            &[VarKey::Fo(x), VarKey::Fo(y)],
            n,
            &budget,
        )
        .unwrap();
        // Manual route: child is already at ctx [x, y]; project bit 1.
        let manual = crate::compile::project_bit(&child, n, 1, true, &budget).unwrap();
        let via_compiler = compile(
            &Formula::exists(y, Formula::Child(x, y)),
            &[VarKey::Fo(x)],
            n,
            &budget,
        )
        .unwrap();
        let t = parse_tree(r#"a(b "t") "#.trim(), &mut al).unwrap();
        let ctx = [VarKey::Fo(x)];
        for &v in &t.dfs() {
            let asg = Assignment::new().bind(x, v);
            let enc = marked_encoding(&t, &ctx, &asg);
            assert_eq!(manual.accepts(&enc), via_compiler.accepts(&enc), "{v:?}");
            assert_eq!(via_compiler.accepts(&enc), !t.children(v).is_empty());
        }
    }

    #[test]
    fn lift_reorders_bits_correctly() {
        let budget = BudgetHandle::unlimited();
        // child(x, y) lifted into a 3-marker context with x ↦ bit 2 and
        // y ↦ bit 0 must test the relation between those markers.
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let mut al = alpha();
        let n = al.len();
        let child = compile(
            &Formula::Child(x, y),
            &[VarKey::Fo(x), VarKey::Fo(y)],
            n,
            &budget,
        )
        .unwrap();
        let lifted = crate::compile::lift(&child, n, &[2, 0], 3);
        // Equivalent formula at the wide context: Child(z, x) with ctx
        // [x, y, z] — bit 2 is z (source), bit 0 is x (target).
        let direct = compile(
            &Formula::Child(z, x),
            &[VarKey::Fo(x), VarKey::Fo(y), VarKey::Fo(z)],
            n,
            &budget,
        )
        .unwrap();
        let t = parse_tree("a(b(a) a)", &mut al).unwrap();
        let ctx = [VarKey::Fo(x), VarKey::Fo(y), VarKey::Fo(z)];
        for &n1 in &t.dfs() {
            for &n2 in &t.dfs() {
                for &n3 in &t.dfs() {
                    let asg = Assignment::new().bind(x, n1).bind(y, n2).bind(z, n3);
                    let enc = marked_encoding(&t, &ctx, &asg);
                    assert_eq!(
                        lifted.accepts(&enc),
                        direct.accepts(&enc),
                        "{n1:?} {n2:?} {n3:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn doc_before_compiles_correctly() {
        let mut g = VarGen::new();
        let (x, y) = (g.var(), g.var());
        let phi = derived::doc_before(x, y, &mut g);
        let ctx = [VarKey::Fo(x), VarKey::Fo(y)];
        let mut al = alpha();
        let t = parse_tree(r#"a(b("s") a(b) "t")"#, &mut al).unwrap();
        let a = compile(&phi, &ctx, al.len(), &BudgetHandle::unlimited()).unwrap();
        for &n1 in &t.dfs() {
            for &n2 in &t.dfs() {
                let expect = t.doc_cmp(n1, n2) == std::cmp::Ordering::Less;
                let asg = Assignment::new().bind(x, n1).bind(y, n2);
                assert_eq!(
                    a.accepts(&marked_encoding(&t, &ctx, &asg)),
                    expect,
                    "{n1:?} {n2:?}"
                );
            }
        }
    }
}
