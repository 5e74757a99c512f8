//! Nondeterministic tree-jumping automata with MSO transitions
//! (Definition 5.7) and their regularity (Corollary 5.9).
//!
//! A TJA_MSO is `(Q, Σ, δ, q₀, F, M_u, M_b)` with transitions
//! `δ(q, φ, α) ∋ q'`: from state `q` at node `v` with `t ⊨ φ(v)`, jump to
//! any `v'` with `t ⊨ α(v, v')` in state `q'`. A tree is accepted when some
//! run starting at the root reaches a final state.
//!
//! Two faces are implemented:
//!
//! * **semantic**: run search on a concrete tree (fixpoint over
//!   `(state, node)` pairs) — [`Tja::accepts`];
//! * **symbolic**: the acceptance condition as an MSO sentence (via
//!   [`crate::reach`]) compiled to a tree automaton — [`Tja::to_language`].
//!   Corollary 5.9 (TJA_MSO define exactly the regular tree languages) is
//!   witnessed by the agreement of the two faces, tested below.

use crate::pattern::MsoPatterns;
use crate::reach::ReachSystem;
use std::collections::HashSet;
use tpx_mso::{
    compile_sentence_cached, naive_eval, Assignment, CompileCache, CompileError, Formula, VarGen,
};
use tpx_treeauto::{EncSym, Nbta};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::{NodeId, Tree};

/// A transition `(q, φ, α) → q'`.
#[derive(Clone, Debug)]
pub struct TjaTransition {
    /// Source state.
    pub from: usize,
    /// Unary test at the current node (free variable
    /// [`MsoPatterns::HOLE_X`]).
    pub test: Formula,
    /// Jump relation (free variables [`MsoPatterns::HOLE_X`],
    /// [`MsoPatterns::HOLE_Y`]).
    pub jump: Formula,
    /// Target state.
    pub to: usize,
}

/// A nondeterministic tree-jumping automaton with MSO transitions.
#[derive(Clone, Debug)]
pub struct Tja {
    /// Number of states; state `0..n`.
    pub n_states: usize,
    /// The initial state `q₀`.
    pub initial: usize,
    /// Final states.
    pub finals: Vec<usize>,
    /// The transitions.
    pub transitions: Vec<TjaTransition>,
}

impl Tja {
    /// Semantic acceptance: does some run from `(q₀, root)` reach a final
    /// state? (Fixpoint over `(state, node)` pairs; patterns evaluated with
    /// the naive MSO model checker, so keep trees small.)
    pub fn accepts(&self, t: &Tree) -> bool {
        let nodes = t.dfs();
        let mut reached: HashSet<(usize, NodeId)> = HashSet::new();
        let mut stack = vec![(self.initial, t.root())];
        reached.insert((self.initial, t.root()));
        while let Some((q, v)) = stack.pop() {
            if self.finals.contains(&q) {
                return true;
            }
            for tr in &self.transitions {
                if tr.from != q {
                    continue;
                }
                let test_asg = Assignment::new().bind(MsoPatterns::HOLE_X, v);
                if !naive_eval(t, &tr.test, &test_asg).unwrap_or_else(|e| panic!("{e}")) {
                    continue;
                }
                for &u in &nodes {
                    let jump_asg = Assignment::new()
                        .bind(MsoPatterns::HOLE_X, v)
                        .bind(MsoPatterns::HOLE_Y, u);
                    if naive_eval(t, &tr.jump, &jump_asg).unwrap_or_else(|e| panic!("{e}"))
                        && reached.insert((tr.to, u))
                    {
                        stack.push((tr.to, u));
                    }
                }
            }
        }
        false
    }

    /// The acceptance condition as an MSO sentence:
    /// `∃r ∃y (Root(r) ∧ ⋁_{f ∈ F} reach_{q₀,f}(r, y))`.
    pub fn acceptance_sentence(&self) -> Formula {
        let mut gen = VarGen::new();
        gen.reserve(tpx_mso::Var(MsoPatterns::HOLE_Y.0 + 1));
        let mut sys = ReachSystem::new(self.n_states, &mut gen);
        for tr in &self.transitions {
            sys.add_edge(tr.from, tr.test.clone(), tr.jump.clone(), tr.to);
        }
        let r = gen.var();
        let y = gen.var();
        let body = Formula::Root(r).and(Formula::any(
            self.finals
                .iter()
                .map(|&f| sys.reach(self.initial, f, r, y)),
        ));
        Formula::exists(r, Formula::exists(y, body))
    }

    /// Corollary 5.9: `L(B)` as a bottom-up tree automaton over encodings —
    /// TJA_MSO define only regular tree languages.
    pub fn to_language(
        &self,
        n_symbols: usize,
        budget: &BudgetHandle,
    ) -> Result<Nbta<EncSym>, CompileError> {
        let mut cache = CompileCache::new();
        compile_sentence_cached(&self.acceptance_sentence(), n_symbols, &mut cache, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_treeauto::convert::encode_for_automata;
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    /// A TJA that jumps from the root to any descendant b-node, then checks
    /// it has a text child: accepts trees containing `b(… text …)`.
    fn sample_tja(al: &Alphabet) -> Tja {
        let (hx, hy) = (MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y);
        Tja {
            n_states: 2,
            initial: 0,
            finals: vec![1],
            transitions: vec![
                TjaTransition {
                    from: 0,
                    test: Formula::True,
                    jump: Formula::Descendant(hx, hy).and(Formula::Lab(al.sym("b"), hy)),
                    to: 0,
                },
                TjaTransition {
                    from: 0,
                    test: Formula::Lab(al.sym("b"), hx),
                    jump: Formula::Child(hx, hy).and(Formula::IsText(hy)),
                    to: 1,
                },
            ],
        }
    }

    #[test]
    fn semantic_runs() {
        let al = Alphabet::from_labels(["a", "b"]);
        let tja = sample_tja(&al);
        let mut al2 = al.clone();
        let yes = parse_tree(r#"a(a(b("x")))"#, &mut al2).unwrap();
        let no1 = parse_tree(r#"a(b(a))"#, &mut al2).unwrap();
        let no2 = parse_tree(r#"a("x")"#, &mut al2).unwrap();
        assert!(tja.accepts(&yes));
        assert!(!tja.accepts(&no1));
        assert!(!tja.accepts(&no2));
    }

    #[test]
    fn corollary_5_9_language_is_regular_and_agrees() {
        let al = Alphabet::from_labels(["a", "b"]);
        let tja = sample_tja(&al);
        let lang = tja
            .to_language(al.len(), &BudgetHandle::unlimited())
            .unwrap();
        for src in [
            r#"a(a(b("x")))"#,
            r#"a(b(a))"#,
            r#"a("x")"#,
            r#"b("x")"#,
            "a",
            r#"a(b("x") a)"#,
        ] {
            let mut al2 = al.clone();
            let t = parse_tree(src, &mut al2).unwrap();
            assert_eq!(
                lang.accepts(&encode_for_automata(&t)),
                tja.accepts(&t),
                "{src}"
            );
        }
    }

    #[test]
    fn jumping_beats_walking_shape() {
        // A jump directly between cousins — no walking axes involved.
        let al = Alphabet::from_labels(["a", "b"]);
        let (hx, hy) = (MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y);
        let tja = Tja {
            n_states: 2,
            initial: 0,
            finals: vec![1],
            transitions: vec![TjaTransition {
                from: 0,
                // Jump from the root to any text node anywhere.
                test: Formula::Root(hx),
                jump: Formula::IsText(hy),
                to: 1,
            }],
        };
        let mut al2 = al.clone();
        let yes = parse_tree(r#"a(a(a("deep")))"#, &mut al2).unwrap();
        let no = parse_tree("a(a)", &mut al2).unwrap();
        assert!(tja.accepts(&yes));
        assert!(!tja.accepts(&no));
        let lang = tja
            .to_language(al.len(), &BudgetHandle::unlimited())
            .unwrap();
        assert!(lang.accepts(&encode_for_automata(&yes)));
        assert!(!lang.accepts(&encode_for_automata(&no)));
    }
}
