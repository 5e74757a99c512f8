//! Lazy, antichain-pruned decision procedures on word NFAs.
//!
//! The eager route decides `L(A) ⊆ L(B)` by determinizing `B`,
//! complementing, and intersecting — the word-level twin of the NBTA
//! construction that DESIGN.md §13 replaced with the tree-level antichain
//! layer. The procedures here never build the subset automaton. They
//! explore, on the fly and forward from the initial states, only the
//! *reachable* portion of the product of `A` with the subset automaton of
//! `B`: pairs `(p, S)` where `p` is an `A`-state reached by some word `w`
//! and `S` is the **exact** set of `B`-states reached by `w`. A pair with
//! `p` final in `A` and `S ∩ F_B = ∅` is a counterexample, and a
//! predecessor chain decodes the concrete word the moment one is interned.
//!
//! The same two properties that make the tree layer fast apply verbatim:
//!
//! * **Reachability**: most of the `2^{|Q_B|}` subset space is never
//!   reached by any word, and the exploration simply never visits it.
//! * **Antichain pruning**: the macro-step is monotone (`S ⊆ S'` implies
//!   `step(S, a) ⊆ step(S', a)`) and rejection (`S ∩ F_B = ∅`) is
//!   downward closed, so a pair whose macro-state is a *superset* of an
//!   already-explored macro-state for the same `A`-state can never reach
//!   a counterexample the explored one cannot. We keep only the
//!   ⊆-minimal macro-states per `A`-state and skip every dominated
//!   candidate.
//!
//! Exploration is breadth-first, so a returned counterexample is a
//! shortest one — the witness quality the path-automaton callers
//! (Lemma 4.8 / the text-retention analysis) surface to users.

use crate::antichain::{bit_has, bit_set, Frontier};
use crate::nfa::{Nfa, StateId};
use std::collections::HashMap;
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// How an explored pair was reached: the predecessor's frontier id and
/// the symbol read (`None` for the initial pairs).
type Prov<A> = Option<(usize, A)>;

fn decode<A: Clone>(frontier: &Frontier<StateId, Prov<A>>, mut id: usize) -> Vec<A> {
    let mut w = Vec::new();
    while let Some((parent, a)) = &frontier[id].prov {
        w.push(a.clone());
        id = *parent;
    }
    w.reverse();
    w
}

impl<A: Clone + Eq + Hash> Nfa<A> {
    /// Whether `L(self) ⊆ L(other)` — decided lazily, without ever
    /// determinizing `other`. Charges one fuel unit per explored pair and
    /// per macro-step.
    pub fn included_in(
        &self,
        other: &Nfa<A>,
        budget: &BudgetHandle,
    ) -> Result<bool, BudgetExceeded> {
        Ok(self.inclusion_counterexample(other, budget)?.is_none())
    }

    /// A shortest word in `L(self) \ L(other)`, or `None` when
    /// `L(self) ⊆ L(other)`. Explores `(p, S)` pairs breadth-first, prunes
    /// with a per-state antichain of ⊆-minimal macro-states, and
    /// early-exits with a decoded word at the first rejecting pair.
    pub fn inclusion_counterexample(
        &self,
        other: &Nfa<A>,
        budget: &BudgetHandle,
    ) -> Result<Option<Vec<A>>, BudgetExceeded> {
        budget.charge(1)?;
        let words = other.state_count().div_ceil(64).max(1);
        let mut b_final_bits = vec![0u64; words];
        for q in other.states() {
            if other.is_final(q) {
                bit_set(&mut b_final_bits, q.index());
            }
        }
        // `other`'s transitions indexed by (state, symbol), for the
        // macro-step.
        let mut b_idx: HashMap<(StateId, &A), Vec<StateId>> = HashMap::new();
        for q in other.states() {
            for (a, r) in other.transitions_from(q) {
                b_idx.entry((q, a)).or_default().push(*r);
            }
        }
        let rejects = |set: &[u64]| set.iter().zip(&b_final_bits).all(|(s, f)| s & f == 0);
        let mut frontier: Frontier<StateId, Prov<A>> = Frontier::default();

        // The ε-word pair seeds the worklist: every A-initial state is
        // paired with the full B-initial macro-state.
        let mut seed = vec![0u64; words];
        for &b in other.initial_states() {
            bit_set(&mut seed, b.index());
        }
        for &p in self.initial_states() {
            budget.charge(1)?;
            if let Some(id) = frontier.intern(p, seed.clone(), None) {
                if self.is_final(p) && rejects(&frontier[id].set) {
                    return Ok(Some(decode(&frontier, id)));
                }
            }
        }

        while let Some(id) = frontier.pop() {
            budget.charge(1)?;
            let p = frontier[id].state;
            // The macro-successor depends only on (S, a), so compute it
            // once per symbol even when several A-transitions share one.
            let mut succ_memo: HashMap<&A, Vec<u64>> = HashMap::new();
            for (a, p2) in self.transitions_from(p) {
                budget.charge(1)?;
                let succ = succ_memo
                    .entry(a)
                    .or_insert_with(|| {
                        let mut out = vec![0u64; words];
                        for b in other.states() {
                            if bit_has(&frontier[id].set, b.index()) {
                                if let Some(rs) = b_idx.get(&(b, a)) {
                                    for &r in rs {
                                        bit_set(&mut out, r.index());
                                    }
                                }
                            }
                        }
                        out
                    })
                    .clone();
                if let Some(nid) = frontier.intern(*p2, succ, Some((id, a.clone()))) {
                    if self.is_final(*p2) && rejects(&frontier[nid].set) {
                        return Ok(Some(decode(&frontier, nid)));
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    /// `(a|b)*a` — every word ending in `a`.
    fn ends_in_a() -> Nfa<char> {
        let mut n = Nfa::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_initial(q0);
        n.set_final(q1, true);
        n.add_transition(q0, 'a', q0);
        n.add_transition(q0, 'b', q0);
        n.add_transition(q0, 'a', q1);
        n
    }

    /// Every word over {a, b}.
    fn universal() -> Nfa<char> {
        let mut n = Nfa::new();
        let q = n.add_state();
        n.set_initial(q);
        n.set_final(q, true);
        n.add_transition(q, 'a', q);
        n.add_transition(q, 'b', q);
        n
    }

    #[test]
    fn inclusion_verdicts() {
        let a = ends_in_a();
        let u = universal();
        let b = BudgetHandle::unlimited();
        assert!(a.included_in(&u, &b).unwrap());
        assert!(!u.included_in(&a, &b).unwrap());
        assert!(a.included_in(&a, &b).unwrap());
        assert!(u.included_in(&u, &b).unwrap());
    }

    #[test]
    fn counterexample_is_genuine_and_shortest() {
        let a = ends_in_a();
        let u = universal();
        let b = BudgetHandle::unlimited();
        let w = u
            .inclusion_counterexample(&a, &b)
            .unwrap()
            .expect("u ⊄ ends_in_a");
        assert!(u.accepts(&w));
        assert!(!a.accepts(&w));
        // ε is the shortest word in L(u) \ L(a).
        assert!(w.is_empty());
        assert!(a.inclusion_counterexample(&u, &b).unwrap().is_none());
    }

    #[test]
    fn inclusion_agrees_with_eager_complement_route() {
        let a = ends_in_a();
        let u = universal();
        let ab = ['a', 'b'];
        let b = BudgetHandle::unlimited();
        for (x, y) in [(&a, &u), (&u, &a), (&a, &a), (&u, &u)] {
            let eager = x
                .intersect(&y.determinize(&ab, &b).unwrap().complement().to_nfa(), &b)
                .unwrap()
                .is_empty();
            assert_eq!(x.included_in(y, &b).unwrap(), eager);
        }
    }

    #[test]
    fn inclusion_against_empty_language() {
        let empty = Nfa::<char>::new();
        let b = BudgetHandle::unlimited();
        assert!(empty.included_in(&ends_in_a(), &b).unwrap());
        let w = ends_in_a()
            .inclusion_counterexample(&empty, &b)
            .unwrap()
            .expect("nonempty ⊄ ∅");
        assert!(ends_in_a().accepts(&w));
        assert_eq!(w, lit("a"));
    }

    #[test]
    fn try_intersect_matches_eager() {
        let a = ends_in_a();
        let u = universal();
        let b = BudgetHandle::unlimited();
        let i = a.intersect(&u, &b).unwrap();
        for w in ["", "a", "ba", "ab", "bb"] {
            assert_eq!(i.accepts(&lit(w)), a.accepts(&lit(w)), "{w}");
        }
    }

    #[test]
    fn try_determinize_matches_eager() {
        let budget = BudgetHandle::unlimited();
        let a = ends_in_a();
        let ab = ['a', 'b'];
        let d = a.determinize(&ab, &budget).unwrap();
        for w in ["", "a", "ba", "ab", "bb"] {
            assert_eq!(d.accepts(&lit(w)), a.accepts(&lit(w)), "{w}");
        }
        assert!(d.equivalent(&a.determinize(&ab, &budget).unwrap()));
    }

    #[test]
    fn budgeted_ops_charge_and_fail_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let a = ends_in_a();
        let u = universal();
        let gen = Budget::default().with_fuel(1_000_000).start();
        assert!(a.included_in(&u, &gen).unwrap());
        assert!(!u.included_in(&a, &gen).unwrap());
        assert!(gen.fuel_spent() > 0, "the lazy ops must charge fuel");
        let z = Budget::default().with_fuel(0).start();
        for err in [
            a.included_in(&u, &z).map(|_| ()).unwrap_err(),
            a.inclusion_counterexample(&u, &z).map(|_| ()).unwrap_err(),
            a.intersect(&u, &z).map(|_| ()).unwrap_err(),
            a.determinize(&['a', 'b'], &z).map(|_| ()).unwrap_err(),
        ] {
            assert_eq!(err.reason, ExhaustReason::Fuel);
        }
    }
}
