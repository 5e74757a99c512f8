//! Path automata (Lemma 4.8).
//!
//! The *text path language* of a tree language `L` is the set of ancestor
//! strings `σ₁⋯σₙ · text` of text nodes in trees of `L`. Lemma 4.8 shows:
//!
//! 1. for an NTA `N`, a *path automaton* `A_N` for `L(N)` is constructible
//!    in polynomial time, and
//! 2. for a transducer `T`, a *transducer path automaton* `A_T` accepting
//!    exactly the text paths on which `T` has a path run is constructible
//!    in polynomial time.
//!
//! Both are NFAs over `Σ ⊎ {text}` accepting only strings ending in `text`.

use crate::transducer::{frontier_states, Transducer};
use tpx_automata::{Nfa, StateId};
use tpx_treeauto::Nta;
use tpx_trees::budget::BudgetHandle;
use tpx_trees::{NodeLabel, Symbol, Tree};

/// A symbol of a text path: an element label or the terminal `text` marker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathSym {
    /// An element label.
    Elem(Symbol),
    /// The terminal `text` symbol.
    Text,
}

/// The ancestor string of a text node as a path word (element labels plus
/// the final `text`).
pub fn text_path_of(t: &Tree, v: tpx_trees::NodeId) -> Option<Vec<PathSym>> {
    if !t.is_text(v) {
        return None;
    }
    let mut w: Vec<PathSym> = t
        .ancestor_string(v)
        .iter()
        .filter_map(|l| match l {
            NodeLabel::Elem(s) => Some(PathSym::Elem(*s)),
            NodeLabel::Text(_) => None,
        })
        .collect();
    w.push(PathSym::Text);
    Some(w)
}

/// All text paths of a tree, in document order.
pub fn text_paths(t: &Tree) -> Vec<Vec<PathSym>> {
    t.text_nodes()
        .into_iter()
        .filter_map(|v| text_path_of(t, v))
        .collect()
}

/// Lemma 4.8(1): the path automaton `A_N` of `L(N)`.
///
/// NFA states are pairs `(q, σ)` ("the current node has NTA state `q` and
/// label `σ`, and is completable to a valid subtree"), plus a start state
/// and an accepting sink reached on the final `text` symbol.
pub fn path_automaton_nta(nta: &Nta) -> Nfa<PathSym> {
    let inhabited = nta
        .inhabited_states(&BudgetHandle::unlimited())
        .expect("unlimited budget");
    let n_syms = nta.symbol_count();
    let mut nfa: Nfa<PathSym> = Nfa::new();
    let start = nfa.add_state();
    nfa.set_initial(start);
    let sink = nfa.add_state();
    nfa.set_final(sink, true);
    // State of pair (q, σ): dense layout after start/sink.
    let pair = |q: tpx_treeauto::State, s: Symbol| StateId(2 + q.0 * n_syms as u32 + s.0);
    for _ in 0..(nta.state_count() * n_syms) {
        nfa.add_state();
    }
    // A pair (q, σ) is *viable* if δ(q, σ) accepts some inhabited word.
    let viable = |q: tpx_treeauto::State, s: Symbol| nta.content_satisfiable(q, s, &inhabited);
    for &r in nta.roots() {
        for sym in 0..n_syms {
            let s = Symbol(sym as u32);
            if viable(r, s) {
                nfa.add_transition(start, PathSym::Elem(s), pair(r, s));
            }
        }
    }
    for q in nta.states() {
        for sym in 0..n_syms {
            let s = Symbol(sym as u32);
            if !viable(q, s) {
                continue;
            }
            let children = nta.content_useful_children(q, s, &inhabited);
            for &c in &children {
                // Element continuation.
                for sym2 in 0..n_syms {
                    let s2 = Symbol(sym2 as u32);
                    if viable(c, s2) {
                        nfa.add_transition(pair(q, s), PathSym::Elem(s2), pair(c, s2));
                    }
                }
                // Text termination.
                if nta.text_ok(c) {
                    nfa.add_transition(pair(q, s), PathSym::Text, sink);
                }
            }
        }
    }
    nfa.trim()
}

/// Lemma 4.8(2): the transducer path automaton `A_T`, accepting the text
/// paths on which `T` has a path run.
///
/// NFA states are the transducer states plus an accepting sink; transitions
/// `q --a--> q'` exist when `q'` occurs at a leaf of `rhs(q, a)`, and
/// `q --text--> sink` when `(q, text) → text ∈ R`.
pub fn path_automaton_transducer(t: &Transducer) -> Nfa<PathSym> {
    let mut nfa: Nfa<PathSym> = Nfa::new();
    for _ in 0..t.state_count() {
        nfa.add_state();
    }
    let sink = nfa.add_state();
    nfa.set_final(sink, true);
    nfa.set_initial(StateId(t.initial().0));
    for q in t.states() {
        for sym in 0..t.symbol_count() {
            let s = Symbol(sym as u32);
            if let Some(rhs) = t.rhs(q, s) {
                for p in frontier_states(rhs) {
                    nfa.add_transition(StateId(q.0), PathSym::Elem(s), StateId(p.0));
                }
            }
        }
        if t.text_rule(q) {
            nfa.add_transition(StateId(q.0), PathSym::Text, sink);
        }
    }
    nfa
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_schema::samples::recipe_dtd;
    use tpx_trees::samples::{recipe_alphabet, recipe_tree};
    use tpx_trees::Alphabet;

    #[test]
    fn nta_path_automaton_accepts_exactly_tree_paths() {
        let mut al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let an = path_automaton_nta(&nta);
        let t = recipe_tree(&mut al);
        assert!(nta.accepts(&t));
        for p in text_paths(&t) {
            assert!(an.accepts(&p), "path {p:?} must be accepted");
        }
        // Paths not in the language.
        let bad1 = vec![PathSym::Elem(al.sym("recipes")), PathSym::Text];
        let bad2 = vec![
            PathSym::Elem(al.sym("recipes")),
            PathSym::Elem(al.sym("recipe")),
            PathSym::Elem(al.sym("comments")),
            PathSym::Text,
        ];
        let not_root = vec![PathSym::Elem(al.sym("recipe")), PathSym::Text];
        for p in [bad1, bad2, not_root] {
            assert!(!an.accepts(&p), "path {p:?} must be rejected");
        }
    }

    #[test]
    fn nta_path_automaton_respects_completability() {
        // Schema: root a must have a b-child AND a text child; b-children
        // require an impossible subtree — so no valid tree exists and the
        // path language is empty.
        let al = Alphabet::from_labels(["a", "b"]);
        let mut builder = tpx_treeauto::NtaBuilder::new(&al);
        builder.root("q0");
        builder.rule("q0", "a", "qb qt");
        builder.rule("qb", "b", "qb"); // uninhabited
        builder.text_rule("qt");
        let nta = builder.finish();
        let an = path_automaton_nta(&nta);
        assert!(an.is_empty());
    }

    #[test]
    fn transducer_path_automaton_matches_runs() {
        let al = recipe_alphabet();
        let t = crate::samples::example_4_2(&al);
        let at = path_automaton_transducer(&t);
        // Path with a run: recipes/recipe/description/text.
        let good = vec![
            PathSym::Elem(al.sym("recipes")),
            PathSym::Elem(al.sym("recipe")),
            PathSym::Elem(al.sym("description")),
            PathSym::Text,
        ];
        assert!(at.accepts(&good));
        // item text is reached through the deleting rule (q, item) → q.
        let item = vec![
            PathSym::Elem(al.sym("recipes")),
            PathSym::Elem(al.sym("recipe")),
            PathSym::Elem(al.sym("ingredients")),
            PathSym::Elem(al.sym("item")),
            PathSym::Text,
        ];
        assert!(at.accepts(&item));
        // Comments are dropped: no run.
        let comment = vec![
            PathSym::Elem(al.sym("recipes")),
            PathSym::Elem(al.sym("recipe")),
            PathSym::Elem(al.sym("comments")),
            PathSym::Elem(al.sym("positive")),
            PathSym::Elem(al.sym("comment")),
            PathSym::Text,
        ];
        assert!(!at.accepts(&comment));
        // Text directly below recipes: q0 has no text rule.
        let top = vec![PathSym::Elem(al.sym("recipes")), PathSym::Text];
        assert!(!at.accepts(&top));
    }

    #[test]
    fn path_automata_are_polynomial_in_input() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let an = path_automaton_nta(&nta);
        let t = crate::samples::example_4_2(&al);
        let at = path_automaton_transducer(&t);
        // Loose sanity bounds: quadratic-ish, not exponential.
        assert!(an.size() <= (nta.size() + 2) * (nta.symbol_count() + 2) * 4);
        assert!(at.size() <= (t.size() + 2) * 4);
    }

    #[test]
    fn text_path_extraction() {
        let mut al = Alphabet::new();
        let t = tpx_trees::term::parse_tree(r#"a(b("x") "y")"#, &mut al).unwrap();
        let paths = text_paths(&t);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 3); // a b text
        assert_eq!(paths[1].len(), 2); // a text
        assert_eq!(paths[0][2], PathSym::Text);
    }
}
