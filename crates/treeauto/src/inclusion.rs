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

use crate::nbta::Nbta;
use crate::nta::State;
use crate::ranked::RankedTree;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use tpx_automata::antichain::{bit_has, bit_set, Frontier};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// How an explored pair was first derived, for witness decoding. Ids
/// index the exploration arena and always point at earlier entries.
enum Prov<L> {
    Leaf(L),
    Node(L, usize, usize),
}

fn decode<L: Clone>(frontier: &Frontier<State, Prov<L>>, id: usize) -> RankedTree<L> {
    match &frontier[id].prov {
        Prov::Leaf(l) => RankedTree::Leaf(l.clone()),
        Prov::Node(l, p1, p2) => {
            RankedTree::node(l.clone(), decode(frontier, *p1), decode(frontier, *p2))
        }
    }
}

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
    /// first rejecting pair.
    pub fn inclusion_counterexample(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        budget.charge(1)?;
        let words = other.n_states.div_ceil(64).max(1);
        let mut b_final_bits = vec![0u64; words];
        for q in other.states() {
            if other.is_final(q) {
                bit_set(&mut b_final_bits, q.index());
            }
        }
        // `other`'s rules grouped by symbol, for the macro-successor step.
        type BySymbol<'x, L> = HashMap<&'x L, Vec<(State, State, &'x Vec<State>)>>;
        let mut b_by_symbol: BySymbol<'_, L> = HashMap::new();
        for ((l, b1, b2), outs) in &other.rules {
            b_by_symbol.entry(l).or_default().push((*b1, *b2, outs));
        }
        // `self`'s rules indexed by (symbol, operand side), as in
        // `intersect`.
        type Idx<'x, L> = HashMap<(&'x L, State), Vec<(State, &'x Vec<State>)>>;
        let mut idx_first: Idx<'_, L> = HashMap::new();
        let mut idx_second: Idx<'_, L> = HashMap::new();
        for ((l, a1, a2), outs) in &self.rules {
            idx_first.entry((l, *a1)).or_default().push((*a2, outs));
            idx_second.entry((l, *a2)).or_default().push((*a1, outs));
        }

        // Dominated pairs leave their antichain but stay in the arena, so
        // `by_astate` (the join index over every interned pair) keeps them
        // as valid join partners.
        let mut frontier: Frontier<State, Prov<L>> = Frontier::default();
        let mut by_astate: HashMap<State, Vec<usize>> = HashMap::new();
        let rejects = |set: &[u64]| set.iter().zip(&b_final_bits).all(|(s, f)| s & f == 0);

        // Leaf rules seed the worklist; every interned pair is checked for
        // rejection immediately, so a leaf-level counterexample exits here.
        for l in self.leaf_alphabet().to_vec() {
            let mut seed = vec![0u64; words];
            for &b in other.leaf_states(&l) {
                bit_set(&mut seed, b.index());
            }
            for &a in &self.leaf_states(&l).to_vec() {
                budget.charge(1)?;
                if let Some(id) = frontier.intern(a, seed.clone(), Prov::Leaf(l.clone())) {
                    by_astate.entry(a).or_default().push(id);
                    if self.is_final(a) && rejects(&frontier[id].set) {
                        return Ok(Some(decode(&frontier, id)));
                    }
                }
            }
        }

        let symbols: Vec<&L> = self.internal_alphabet().iter().collect();
        while let Some(p) = frontier.pop() {
            budget.charge(1)?;
            let a = frontier[p].state;
            for &l in &symbols {
                // The macro-successor depends only on (σ, S₁, S₂), not on
                // the A-rule, so compute it once per partner per side.
                let mut succ_memo: HashMap<(usize, bool), Vec<u64>> = HashMap::new();
                let step = |s1: &[u64], s2: &[u64]| -> Vec<u64> {
                    let mut out = vec![0u64; words];
                    if let Some(rules) = b_by_symbol.get(l) {
                        for &(b1, b2, outs) in rules {
                            if bit_has(s1, b1.index()) && bit_has(s2, b2.index()) {
                                for &b in outs {
                                    bit_set(&mut out, b.index());
                                }
                            }
                        }
                    }
                    out
                };
                // Popped pair as LEFT and as RIGHT operand; partners must
                // already be interned (the later-popped side completes
                // every join, exactly as in `intersect`).
                for left in [true, false] {
                    let idx = if left { &idx_first } else { &idx_second };
                    let Some(rules_a) = idx.get(&(l, a)) else {
                        continue;
                    };
                    for &(a2, outs) in rules_a {
                        let partners = by_astate.get(&a2).cloned().unwrap_or_default();
                        for p2 in partners {
                            budget.charge(1)?;
                            let succ = succ_memo
                                .entry((p2, left))
                                .or_insert_with(|| {
                                    if left {
                                        step(&frontier[p].set, &frontier[p2].set)
                                    } else {
                                        step(&frontier[p2].set, &frontier[p].set)
                                    }
                                })
                                .clone();
                            let prov = |l: &L| {
                                if left {
                                    Prov::Node(l.clone(), p, p2)
                                } else {
                                    Prov::Node(l.clone(), p2, p)
                                }
                            };
                            for &oa in outs {
                                if let Some(id) = frontier.intern(oa, succ.clone(), prov(l)) {
                                    by_astate.entry(oa).or_default().push(id);
                                    if self.is_final(oa) && rejects(&frontier[id].set) {
                                        return Ok(Some(decode(&frontier, id)));
                                    }
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
    /// empty — found by exploring derivable `(a, b)` pairs with
    /// provenance and exiting at the first final×final pair, without
    /// building the product automaton.
    ///
    /// Charges one fuel unit per discovered pair and per rule join, like
    /// [`Nbta::intersect`].
    pub fn intersect_witness(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        budget.charge(1)?;
        struct PairAb<L> {
            a: State,
            b: State,
            prov: Prov<L>,
        }
        let mut arena: Vec<PairAb<L>> = Vec::new();
        let mut ids: HashMap<(State, State), usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let intern = |a: State,
                      b: State,
                      prov: Prov<L>,
                      arena: &mut Vec<PairAb<L>>,
                      ids: &mut HashMap<(State, State), usize>,
                      queue: &mut VecDeque<usize>|
         -> (usize, bool) {
            if let Some(&id) = ids.get(&(a, b)) {
                return (id, false);
            }
            let id = arena.len();
            arena.push(PairAb { a, b, prov });
            ids.insert((a, b), id);
            queue.push_back(id);
            (id, true)
        };
        let accepting = |arena: &[PairAb<L>], id: usize| -> Option<RankedTree<L>> {
            let p = &arena[id];
            (self.is_final(p.a) && other.is_final(p.b)).then(|| {
                fn build<L: Clone>(arena: &[PairAb<L>], id: usize) -> RankedTree<L> {
                    match &arena[id].prov {
                        Prov::Leaf(l) => RankedTree::Leaf(l.clone()),
                        Prov::Node(l, p1, p2) => {
                            RankedTree::node(l.clone(), build(arena, *p1), build(arena, *p2))
                        }
                    }
                }
                build(arena, id)
            })
        };
        for l in self.leaf_alphabet().to_vec() {
            let bs = other.leaf_states(&l).to_vec();
            for &a in &self.leaf_states(&l).to_vec() {
                for &b in &bs {
                    budget.charge(1)?;
                    let (id, fresh) = intern(
                        a,
                        b,
                        Prov::Leaf(l.clone()),
                        &mut arena,
                        &mut ids,
                        &mut queue,
                    );
                    if fresh {
                        if let Some(w) = accepting(&arena, id) {
                            return Ok(Some(w));
                        }
                    }
                }
            }
        }
        type Idx<'x, L> = HashMap<(&'x L, State), Vec<(State, &'x Vec<State>)>>;
        let mut idx1_first: Idx<'_, L> = HashMap::new();
        let mut idx1_second: Idx<'_, L> = HashMap::new();
        for ((l, a1, a2), outs) in &self.rules {
            idx1_first.entry((l, *a1)).or_default().push((*a2, outs));
            idx1_second.entry((l, *a2)).or_default().push((*a1, outs));
        }
        let mut idx2_first: Idx<'_, L> = HashMap::new();
        let mut idx2_second: Idx<'_, L> = HashMap::new();
        for ((l, b1, b2), outs) in &other.rules {
            idx2_first.entry((l, *b1)).or_default().push((*b2, outs));
            idx2_second.entry((l, *b2)).or_default().push((*b1, outs));
        }
        let symbols: Vec<&L> = self.internal_alphabet().iter().collect();
        while let Some(p) = queue.pop_front() {
            budget.charge(1)?;
            let (a, b) = (arena[p].a, arena[p].b);
            for &l in &symbols {
                for left in [true, false] {
                    let (i1, i2) = if left {
                        (&idx1_first, &idx2_first)
                    } else {
                        (&idx1_second, &idx2_second)
                    };
                    let (Some(r1), Some(r2)) = (i1.get(&(l, a)), i2.get(&(l, b))) else {
                        continue;
                    };
                    let joins: Vec<(State, &Vec<State>, State, &Vec<State>)> = r1
                        .iter()
                        .flat_map(|&(a2, o1)| r2.iter().map(move |&(b2, o2)| (a2, o1, b2, o2)))
                        .collect();
                    for (a2, outs1, b2, outs2) in joins {
                        // The partner pair must already be discovered.
                        if !ids.contains_key(&(a2, b2)) {
                            continue;
                        }
                        let p2 = ids[&(a2, b2)];
                        for &oa in outs1 {
                            for &ob in outs2 {
                                budget.charge(1)?;
                                let prov = if left {
                                    Prov::Node(l.clone(), p, p2)
                                } else {
                                    Prov::Node(l.clone(), p2, p)
                                };
                                let (id, fresh) =
                                    intern(oa, ob, prov, &mut arena, &mut ids, &mut queue);
                                if fresh {
                                    if let Some(w) = accepting(&arena, id) {
                                        return Ok(Some(w));
                                    }
                                }
                            }
                        }
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
