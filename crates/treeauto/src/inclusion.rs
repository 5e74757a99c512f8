//! Lazy, antichain-pruned decision procedures on NBTAs.
//!
//! The eager Boolean route decides `L(A) ⊆ L(B)` by materializing the
//! determinized complement of `B` — the workspace's one truly exponential
//! construction — and testing the intersection for emptiness. The
//! procedures here never build that automaton. Instead they explore, on
//! the fly and bottom-up, only the *reachable* portion of the product of
//! `A` with the subset automaton of `B`: pairs `(a, S)` where `a` is an
//! `A`-state derivable by some tree `t` and `S` is the **exact** set of
//! `B`-states derivable at `t`. A pair with `a` final in `A` and
//! `S ∩ F_B = ∅` is a counterexample, and provenance tracking lets us
//! decode the concrete witness tree the moment one is interned.
//!
//! Two properties make this fast in practice (the antichain idea of the
//! typechecking / inclusion literature, see DESIGN.md §13):
//!
//! * **Reachability**: most of the `2^{|Q_B|}` subset space is never
//!   derivable by any tree, and the exploration simply never visits it.
//! * **Antichain pruning**: the macro-successor map is monotone
//!   (`S ⊆ S'` implies `step(σ, S, T) ⊆ step(σ, S', T)`) and rejection
//!   (`S ∩ F_B = ∅`) is downward closed, so a pair whose macro-state is a
//!   *superset* of an already-explored macro-state for the same `A`-state
//!   can never reach a counterexample the explored one cannot. We
//!   therefore keep only the ⊆-minimal macro-states per `A`-state — the
//!   complement-side view of the literature's ⊆-maximal antichains —
//!   and skip every dominated candidate.
//!
//! The same machinery yields an early-exit emptiness-of-product test
//! ([`Nbta::intersect_witness`]): explore derivable `(a, b)` pairs
//! with provenance and stop at the first final×final pair, without
//! constructing the product automaton that [`Nbta::intersect`] returns.

use crate::nbta::{Event, Nbta, Via};
use crate::nta::State;
use crate::ranked::RankedTree;
use std::hash::Hash;
use tpx_automata::antichain::{bit_has, bit_set, Frontier};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::hash::FxHashMap;

impl<L: Clone + Eq + Hash> Nbta<L> {
    /// Whether `L(self) ⊆ L(other)` — decided lazily, without ever
    /// determinizing `other`. Alphabets must match as sets.
    ///
    /// Charges one fuel unit per explored pair and per macro-successor join.
    pub fn included_in(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<bool, BudgetExceeded> {
        Ok(self.inclusion_counterexample(other, budget)?.is_none())
    }

    /// A tree in `L(self) \ L(other)`, or `None` when `L(self) ⊆ L(other)`.
    ///
    /// Explores `(a, S)` pairs bottom-up, prunes with a per-state antichain of
    /// ⊆-minimal macro-states, and early-exits with a decoded witness at the
    /// first rejecting pair. `self`'s side of each join reads its operand
    /// index, as [`Nbta::intersect`] does.
    pub fn inclusion_counterexample(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        budget.charge(1)?;
        let other = self.aligned(other);
        let words = other.state_count().div_ceil(64).max(1);
        let mut b_final_bits = vec![0u64; words];
        for q in other.states() {
            if other.is_final(q) {
                bit_set(&mut b_final_bits, q.index());
            }
        }
        // `other`'s rules grouped by symbol id, for the macro-successor step.
        let b_by_symbol = other.rules_by_symbol();
        let step = |sym: u32, s1: &[u64], s2: &[u64]| -> Vec<u64> {
            let mut out = vec![0u64; words];
            for &(b1, b2, outs) in &b_by_symbol[sym as usize] {
                if bit_has(s1, b1.index()) && bit_has(s2, b2.index()) {
                    for &b in outs {
                        bit_set(&mut out, b.index());
                    }
                }
            }
            out
        };

        // Dominated pairs leave their antichain but stay in the arena, so
        // `by_astate` (the join index over every interned pair) keeps them
        // as valid join partners.
        let mut frontier: Frontier<State, Via> = Frontier::default();
        let mut by_astate: Vec<Vec<usize>> = vec![Vec::new(); self.state_count()];
        let rejects = |set: &[u64]| set.iter().zip(&b_final_bits).all(|(s, f)| s & f == 0);
        let decode =
            |frontier: &Frontier<State, Via>, id: usize| self.decode(id, &|i| frontier[i].prov);

        // Leaf rules seed the worklist; every interned pair is checked for
        // rejection immediately, so a leaf-level counterexample exits here.
        for (pos, l) in self.leaf_alphabet().iter().enumerate() {
            let mut seed = vec![0u64; words];
            for &b in other.leaf_states(l) {
                bit_set(&mut seed, b.index());
            }
            for &a in self.leaf_states(l) {
                budget.charge(1)?;
                if let Some(id) = frontier.intern(a, seed.clone(), Via::Leaf(pos)) {
                    by_astate[a.index()].push(id);
                    if self.is_final(a) && rejects(&frontier[id].set) {
                        return Ok(Some(decode(&frontier, id)));
                    }
                }
            }
        }

        while let Some(p) = frontier.pop() {
            budget.charge(1)?;
            let a = frontier[p].state;
            // The macro-successor depends only on (σ, S₁, S₂), not on the
            // A-rule, so compute it once per symbol, partner and side.
            let mut succ_memo: FxHashMap<(u32, usize, bool), Vec<u64>> = FxHashMap::default();
            // Popped pair as LEFT and as RIGHT operand; partners must
            // already be interned (the later-popped side completes every
            // join).
            for left in [true, false] {
                for (sym, a2, outs) in self.operand_rules(a, left) {
                    let partners = by_astate[a2.index()].clone();
                    for p2 in partners {
                        budget.charge(1)?;
                        let succ = succ_memo
                            .entry((sym, p2, left))
                            .or_insert_with(|| {
                                if left {
                                    step(sym, &frontier[p].set, &frontier[p2].set)
                                } else {
                                    step(sym, &frontier[p2].set, &frontier[p].set)
                                }
                            })
                            .clone();
                        let via = if left {
                            Via::Node(sym, p, p2)
                        } else {
                            Via::Node(sym, p2, p)
                        };
                        for &oa in outs {
                            if let Some(id) = frontier.intern(oa, succ.clone(), via) {
                                by_astate[oa.index()].push(id);
                                if self.is_final(oa) && rejects(&frontier[id].set) {
                                    return Ok(Some(decode(&frontier, id)));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// A tree in `L(self) ∩ L(other)`, or `None` when the intersection is
    /// empty — found by the same pair walk as [`Nbta::intersect`], stopped
    /// at the first final×final pair, without building the product
    /// automaton.
    ///
    /// Charges one fuel unit up front, then per popped pair and per product
    /// rule target, like [`Nbta::intersect`].
    pub fn intersect_witness(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        budget.charge(1)?;
        let mut prov: Vec<Via> = Vec::new();
        let mut found = None;
        self.product_walk(other, budget, |event| {
            let Event::Pair { id, a, b, via } = event else {
                return false;
            };
            prov.push(via);
            let accepting = self.is_final(a) && other.is_final(b);
            if accepting {
                found = Some(id);
            }
            accepting
        })?;
        Ok(found.map(|id| self.decode(id, &|i| prov[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts trees containing at least one 'a' internal node.
    fn contains_a() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q0 = b.add_state();
        let q1 = b.add_state();
        b.set_final(q1, true);
        b.add_leaf_rule('#', q0);
        for (l, x, y, o) in [
            ('b', q0, q0, q0),
            ('b', q0, q1, q1),
            ('b', q1, q0, q1),
            ('b', q1, q1, q1),
            ('a', q0, q0, q1),
            ('a', q0, q1, q1),
            ('a', q1, q0, q1),
            ('a', q1, q1, q1),
        ] {
            b.add_rule(l, x, y, o);
        }
        b
    }

    /// Accepts every tree over {a, b}.
    fn universal() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q = b.add_state();
        b.set_final(q, true);
        b.add_leaf_rule('#', q);
        b.add_rule('a', q, q, q);
        b.add_rule('b', q, q, q);
        b
    }

    #[test]
    fn inclusion_verdicts() {
        let budget = BudgetHandle::unlimited();
        let a = contains_a();
        let u = universal();
        assert!(a.included_in(&u, &budget).unwrap());
        assert!(!u.included_in(&a, &budget).unwrap());
        assert!(a.included_in(&a, &budget).unwrap());
        assert!(u.included_in(&u, &budget).unwrap());
    }

    #[test]
    fn counterexample_is_genuine() {
        let budget = BudgetHandle::unlimited();
        let a = contains_a();
        let u = universal();
        let w = u
            .inclusion_counterexample(&a, &budget)
            .unwrap()
            .expect("u ⊄ contains_a");
        assert!(u.accepts(&w));
        assert!(!a.accepts(&w));
        assert!(a.inclusion_counterexample(&u, &budget).unwrap().is_none());
    }

    #[test]
    fn inclusion_agrees_with_eager_complement_route() {
        let budget = BudgetHandle::unlimited();
        let a = contains_a();
        let u = universal();
        for (x, y) in [(&a, &u), (&u, &a), (&a, &a), (&u, &u)] {
            let eager = x
                .intersect(
                    &y.determinize(&budget)
                        .unwrap()
                        .complement()
                        .to_nbta()
                        .trim(&budget)
                        .unwrap(),
                    &budget,
                )
                .unwrap()
                .is_empty(&budget)
                .unwrap();
            assert_eq!(x.included_in(y, &budget).unwrap(), eager);
        }
    }

    #[test]
    fn inclusion_against_empty_language() {
        let budget = BudgetHandle::unlimited();
        let mut empty = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q = empty.add_state();
        empty.add_leaf_rule('#', q);
        // No final state: the language is empty.
        assert!(empty.included_in(&contains_a(), &budget).unwrap());
        let w = contains_a()
            .inclusion_counterexample(&empty, &budget)
            .unwrap()
            .expect("nonempty ⊄ ∅");
        assert!(contains_a().accepts(&w));
    }

    #[test]
    fn intersect_witness_agrees_with_product() {
        let budget = BudgetHandle::unlimited();
        let a = contains_a();
        let u = universal();
        let w = a
            .intersect_witness(&u, &budget)
            .unwrap()
            .expect("intersection nonempty");
        assert!(a.accepts(&w) && u.accepts(&w));
        // Root-is-b automaton: intersection with contains_a is nonempty.
        let mut rb = Nbta::new(vec!['#'], vec!['a', 'b']);
        let any = rb.add_state();
        let rootb = rb.add_state();
        rb.set_final(rootb, true);
        rb.add_leaf_rule('#', any);
        for l in ['a', 'b'] {
            rb.add_rule(l, any, any, any);
        }
        rb.add_rule('b', any, any, rootb);
        let w = a
            .intersect_witness(&rb, &budget)
            .unwrap()
            .expect("nonempty");
        assert!(a.accepts(&w) && rb.accepts(&w));
        assert_eq!(
            a.intersect_witness(&rb, &budget).unwrap().is_some(),
            !a.intersect(&rb, &budget)
                .unwrap()
                .is_empty(&budget)
                .unwrap()
        );
        // Empty intersection: contains_a ∩ complement(contains_a).
        let not_a = a
            .determinize(&budget)
            .unwrap()
            .complement()
            .to_nbta()
            .trim(&budget)
            .unwrap();
        assert!(a.intersect_witness(&not_a, &budget).unwrap().is_none());
        assert!(a
            .intersect(&not_a, &budget)
            .unwrap()
            .is_empty(&budget)
            .unwrap());
    }

    #[test]
    fn budgeted_inclusion_matches_unbudgeted_and_fails_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let a = contains_a();
        let u = universal();
        let gen = Budget::default().with_fuel(1_000_000).start();
        assert!(a.included_in(&u, &gen).unwrap());
        assert!(!u.included_in(&a, &gen).unwrap());
        assert!(a.intersect_witness(&u, &gen).unwrap().is_some());
        assert!(gen.fuel_spent() > 0, "the lazy ops must charge fuel");
        let z = Budget::default().with_fuel(0).start();
        for err in [
            a.included_in(&u, &z).map(|_| ()).unwrap_err(),
            a.inclusion_counterexample(&u, &z).map(|_| ()).unwrap_err(),
            a.intersect_witness(&u, &z).map(|_| ()).unwrap_err(),
        ] {
            assert_eq!(err.reason, ExhaustReason::Fuel);
        }
    }
}
