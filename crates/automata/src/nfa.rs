//! Nondeterministic finite automata over generic symbol types.
//!
//! An [`Nfa<A>`] is `(Q, A, δ, I, F)` with a *set* of initial states (the
//! paper uses a single `q₀`; a set costs nothing and simplifies unions).
//! There are no ε-transitions; constructions that would need them (union,
//! concatenation) splice transitions instead.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};

/// A dense automaton state identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A nondeterministic finite automaton over symbols of type `A`.
#[derive(Clone, Debug)]
pub struct Nfa<A> {
    /// Outgoing transitions per state.
    trans: Vec<Vec<(A, StateId)>>,
    initial: Vec<StateId>,
    finals: Vec<bool>,
}

impl<A: Clone + Eq + Hash> Default for Nfa<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Clone + Eq + Hash> Nfa<A> {
    /// The automaton with no states (empty language).
    pub fn new() -> Self {
        Nfa {
            trans: Vec::new(),
            initial: Vec::new(),
            finals: Vec::new(),
        }
    }

    /// An automaton accepting exactly the empty word.
    pub fn epsilon() -> Self {
        let mut n = Self::new();
        let q = n.add_state();
        n.set_initial(q);
        n.set_final(q, true);
        n
    }

    /// An automaton accepting exactly the single-symbol word `a`.
    pub fn symbol(a: A) -> Self {
        let mut n = Self::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        n.set_initial(q0);
        n.set_final(q1, true);
        n.add_transition(q0, a, q1);
        n
    }

    /// An automaton accepting exactly the word `w`.
    pub fn word(w: impl IntoIterator<Item = A>) -> Self {
        let mut n = Self::new();
        let mut cur = n.add_state();
        n.set_initial(cur);
        for a in w {
            let next = n.add_state();
            n.add_transition(cur, a, next);
            cur = next;
        }
        n.set_final(cur, true);
        n
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(u32::try_from(self.trans.len()).expect("too many states"));
        self.trans.push(Vec::new());
        self.finals.push(false);
        id
    }

    /// Adds `n` fresh states, returning the first id.
    pub fn add_states(&mut self, n: usize) -> StateId {
        let first = StateId(self.trans.len() as u32);
        for _ in 0..n {
            self.add_state();
        }
        first
    }

    /// Marks `q` as (an additional) initial state.
    pub fn set_initial(&mut self, q: StateId) {
        if !self.initial.contains(&q) {
            self.initial.push(q);
        }
    }

    /// Sets the final flag of `q`.
    pub fn set_final(&mut self, q: StateId, is_final: bool) {
        self.finals[q.index()] = is_final;
    }

    /// Adds a transition `q --a--> r` (duplicates ignored).
    pub fn add_transition(&mut self, q: StateId, a: A, r: StateId) {
        let row = &mut self.trans[q.index()];
        if !row.iter().any(|(b, s)| *b == a && *s == r) {
            row.push((a, r));
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.trans.iter().map(Vec::len).sum()
    }

    /// The paper's `|A|`: states plus transitions.
    pub fn size(&self) -> usize {
        self.state_count() + self.transition_count()
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.trans.len() as u32).map(StateId)
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[StateId] {
        &self.initial
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q.index()]
    }

    /// Outgoing transitions of `q`.
    pub fn transitions_from(&self, q: StateId) -> &[(A, StateId)] {
        &self.trans[q.index()]
    }

    /// Iterates over all transitions `(q, a, r)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, &A, StateId)> {
        self.trans
            .iter()
            .enumerate()
            .flat_map(|(q, row)| row.iter().map(move |(a, r)| (StateId(q as u32), a, *r)))
    }

    /// Successor set of `S` under symbol `a`.
    pub fn step(&self, states: &HashSet<StateId>, a: &A) -> HashSet<StateId> {
        let mut out = HashSet::new();
        for &q in states {
            for (b, r) in &self.trans[q.index()] {
                if b == a {
                    out.insert(*r);
                }
            }
        }
        out
    }

    /// Whether the automaton accepts `w`.
    pub fn accepts(&self, w: &[A]) -> bool {
        let mut cur: HashSet<StateId> = self.initial.iter().copied().collect();
        for a in w {
            if cur.is_empty() {
                return false;
            }
            cur = self.step(&cur, a);
        }
        cur.iter().any(|&q| self.is_final(q))
    }

    /// Whether the automaton accepts the empty word.
    pub fn accepts_empty(&self) -> bool {
        self.initial.iter().any(|&q| self.is_final(q))
    }

    /// Whether the language is empty (no final state reachable).
    pub fn is_empty(&self) -> bool {
        self.shortest_word().is_none()
    }

    /// A shortest accepted word, if the language is non-empty (BFS).
    pub fn shortest_word(&self) -> Option<Vec<A>> {
        let mut pred: HashMap<StateId, Option<(StateId, A)>> = HashMap::new();
        let mut queue = VecDeque::new();
        for &q in &self.initial {
            if pred.insert(q, None).is_none() {
                queue.push_back(q);
            }
        }
        while let Some(q) = queue.pop_front() {
            if self.is_final(q) {
                let mut w = Vec::new();
                let mut cur = q;
                while let Some(Some((p, a))) = pred.get(&cur) {
                    w.push(a.clone());
                    cur = *p;
                }
                w.reverse();
                return Some(w);
            }
            for (a, r) in &self.trans[q.index()] {
                if !pred.contains_key(r) {
                    pred.insert(*r, Some((q, a.clone())));
                    queue.push_back(*r);
                }
            }
        }
        None
    }

    /// Marks, indexed by state, of the states reachable from the initial
    /// states.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.trans.len()];
        let mut stack: Vec<StateId> = Vec::new();
        for &q in &self.initial {
            if !seen[q.index()] {
                seen[q.index()] = true;
                stack.push(q);
            }
        }
        while let Some(q) = stack.pop() {
            for (_, r) in &self.trans[q.index()] {
                if !seen[r.index()] {
                    seen[r.index()] = true;
                    stack.push(*r);
                }
            }
        }
        seen
    }

    /// Marks, indexed by state, of the states from which a final state is
    /// reachable.
    pub fn productive(&self) -> Vec<bool> {
        // Reverse reachability from finals.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.trans.len()];
        for (q, _, r) in self.transitions() {
            rev[r.index()].push(q);
        }
        let mut seen = self.finals.clone();
        let mut stack: Vec<StateId> = self.states().filter(|&q| self.is_final(q)).collect();
        while let Some(q) = stack.pop() {
            for &p in &rev[q.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Removes unreachable and unproductive states, renumbering the rest in
    /// index order. Language-preserving.
    pub fn trim(&self) -> Nfa<A> {
        let reach = self.reachable();
        let prod = self.productive();
        let mut out = Nfa::new();
        let remap: Vec<Option<StateId>> = (0..self.trans.len())
            .map(|i| (reach[i] && prod[i]).then(|| out.add_state()))
            .collect();
        for (q, nq) in remap.iter().enumerate() {
            let Some(nq) = *nq else { continue };
            out.finals[nq.index()] = self.finals[q];
            // Rows hold no duplicates and the renumbering is injective, so
            // the kept transitions go in without `add_transition`'s scan.
            out.trans[nq.index()] = self.trans[q]
                .iter()
                .filter_map(|(a, r)| remap[r.index()].map(|nr| (a.clone(), nr)))
                .collect();
        }
        for q in &self.initial {
            if let Some(nq) = remap[q.index()] {
                out.set_initial(nq);
            }
        }
        out
    }

    /// Product automaton accepting `L(self) ∩ L(other)`. Charges one fuel
    /// unit per product state and per product transition, so a blowing-up
    /// product exhausts its budget instead of the host.
    pub fn intersect(
        &self,
        other: &Nfa<A>,
        budget: &BudgetHandle,
    ) -> Result<Nfa<A>, BudgetExceeded> {
        budget.charge(1)?;
        let mut out = Nfa::new();
        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut stack = Vec::new();
        for &p in &self.initial {
            for &q in &other.initial {
                budget.charge(1)?;
                let id = *ids.entry((p, q)).or_insert_with(|| {
                    stack.push((p, q));
                    out.add_state()
                });
                out.set_initial(id);
            }
        }
        while let Some((p, q)) = stack.pop() {
            let id = ids[&(p, q)];
            out.set_final(id, self.is_final(p) && other.is_final(q));
            for (a, p2) in &self.trans[p.index()] {
                for (b, q2) in &other.trans[q.index()] {
                    if a == b {
                        budget.charge(1)?;
                        let next = *ids.entry((*p2, *q2)).or_insert_with(|| {
                            stack.push((*p2, *q2));
                            out.add_state()
                        });
                        out.add_transition(id, a.clone(), next);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Disjoint union accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nfa<A>) -> Nfa<A> {
        let mut out = self.clone();
        let offset = out.state_count() as u32;
        for row in &other.trans {
            let q = out.add_state();
            for (a, r) in row {
                out.add_transition(q, a.clone(), StateId(r.0 + offset));
            }
        }
        for q in other.states() {
            out.set_final(StateId(q.0 + offset), other.is_final(q));
        }
        for &q in &other.initial {
            out.set_initial(StateId(q.0 + offset));
        }
        out
    }

    /// Concatenation `L(self) · L(other)`.
    pub fn concat(&self, other: &Nfa<A>) -> Nfa<A> {
        let mut out = self.clone();
        let offset = out.state_count() as u32;
        for row in &other.trans {
            let q = out.add_state();
            for (a, r) in row {
                out.add_transition(q, a.clone(), StateId(r.0 + offset));
            }
        }
        let other_initial: Vec<StateId> = other
            .initial
            .iter()
            .map(|q| StateId(q.0 + offset))
            .collect();
        let other_accepts_empty = other.accepts_empty();
        // Splice: from every self-final state, copy the out-edges of other's
        // initial states; self-final states stay final iff other accepts ε.
        for q in self.states() {
            if self.is_final(q) {
                for &i in &other_initial {
                    let edges: Vec<(A, StateId)> = out.trans[i.index()].clone();
                    for (a, r) in edges {
                        out.add_transition(q, a, r);
                    }
                }
                out.set_final(q, other_accepts_empty);
            }
        }
        for q in other.states() {
            out.set_final(StateId(q.0 + offset), other.is_final(q));
        }
        if self.accepts_empty() {
            for &i in &other_initial {
                out.set_initial(i);
            }
        }
        out
    }

    /// Kleene star `L(self)*`.
    pub fn star(&self) -> Nfa<A> {
        let mut out = self.plus();
        // Ensure ε is accepted: add a fresh initial+final state.
        let q = out.add_state();
        out.set_initial(q);
        out.set_final(q, true);
        out
    }

    /// Kleene plus `L(self)⁺`.
    pub fn plus(&self) -> Nfa<A> {
        let mut out = self.clone();
        // From every final state, copy out-edges of initial states.
        let init_edges: Vec<(StateId, A, StateId)> = out
            .initial
            .clone()
            .into_iter()
            .flat_map(|i| {
                out.trans[i.index()]
                    .clone()
                    .into_iter()
                    .map(move |(a, r)| (i, a, r))
            })
            .collect();
        for q in out.states().collect::<Vec<_>>() {
            if out.is_final(q) {
                for (_, a, r) in &init_edges {
                    out.add_transition(q, a.clone(), *r);
                }
            }
        }
        out
    }

    /// Optional `L(self) ∪ {ε}`.
    pub fn optional(&self) -> Nfa<A> {
        let mut out = self.clone();
        let q = out.add_state();
        out.set_initial(q);
        out.set_final(q, true);
        out
    }

    /// Maps symbols through `f`, preserving structure.
    pub fn map_symbols<B: Clone + Eq + Hash>(&self, mut f: impl FnMut(&A) -> B) -> Nfa<B> {
        let mut out = Nfa::new();
        out.add_states(self.state_count());
        for (q, a, r) in self.transitions() {
            out.add_transition(q, f(a), r);
        }
        for q in self.states() {
            out.set_final(q, self.is_final(q));
        }
        for &q in &self.initial {
            out.set_initial(q);
        }
        out
    }

    /// The symbols occurring on transitions (the *effective* alphabet).
    pub fn alphabet(&self) -> Vec<A> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, a, _) in self.transitions() {
            if seen.insert(a.clone()) {
                out.push(a.clone());
            }
        }
        out
    }
}

impl tpx_trees::StableHash for StateId {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        h.write_u64(u64::from(self.0));
    }
}

/// Structural content hash: two NFAs built the same way hash the same, in
/// every process — the engine layer keys its artifact cache on this.
impl<A: tpx_trees::StableHash> tpx_trees::StableHash for Nfa<A> {
    fn stable_hash(&self, h: &mut tpx_trees::StableHasher) {
        self.initial.stable_hash(h);
        self.finals.stable_hash(h);
        h.write_usize(self.trans.len());
        for per_state in &self.trans {
            per_state.as_slice().stable_hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn word_automaton() {
        let n = Nfa::word("abc".chars());
        assert!(n.accepts(&lit("abc")));
        assert!(!n.accepts(&lit("ab")));
        assert!(!n.accepts(&lit("abcd")));
        assert_eq!(n.state_count(), 4);
    }

    #[test]
    fn epsilon_and_symbol() {
        let e = Nfa::<char>::epsilon();
        assert!(e.accepts(&[]));
        assert!(!e.accepts(&lit("a")));
        let s = Nfa::symbol('a');
        assert!(s.accepts(&lit("a")));
        assert!(!s.accepts(&[]));
    }

    #[test]
    fn union_and_intersection() {
        let a = Nfa::word("ab".chars());
        let b = Nfa::word("ac".chars());
        let u = a.union(&b);
        assert!(u.accepts(&lit("ab")));
        assert!(u.accepts(&lit("ac")));
        assert!(!u.accepts(&lit("aa")));
        let i = u.intersect(&a, &BudgetHandle::unlimited()).unwrap();
        assert!(i.accepts(&lit("ab")));
        assert!(!i.accepts(&lit("ac")));
    }

    #[test]
    fn concat_handles_epsilon_cases() {
        let e = Nfa::<char>::epsilon();
        let a = Nfa::symbol('a');
        assert!(e.concat(&a).accepts(&lit("a")));
        assert!(a.concat(&e).accepts(&lit("a")));
        assert!(e.concat(&e).accepts(&[]));
        let ab = a.concat(&Nfa::symbol('b'));
        assert!(ab.accepts(&lit("ab")));
        assert!(!ab.accepts(&lit("a")));
        // (a|ε)(b): both paths.
        let opt_a = a.optional();
        let c = opt_a.concat(&Nfa::symbol('b'));
        assert!(c.accepts(&lit("ab")));
        assert!(c.accepts(&lit("b")));
        assert!(!c.accepts(&lit("a")));
    }

    #[test]
    fn star_and_plus() {
        let a = Nfa::symbol('a');
        let s = a.star();
        assert!(s.accepts(&[]));
        assert!(s.accepts(&lit("aaa")));
        assert!(!s.accepts(&lit("ab")));
        let p = a.plus();
        assert!(!p.accepts(&[]));
        assert!(p.accepts(&lit("a")));
        assert!(p.accepts(&lit("aa")));
        // (ab)+ via word.
        let abp = Nfa::word("ab".chars()).plus();
        assert!(abp.accepts(&lit("abab")));
        assert!(!abp.accepts(&lit("aba")));
    }

    #[test]
    fn emptiness_and_shortest_word() {
        let mut n = Nfa::<char>::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.set_initial(q0);
        n.add_transition(q0, 'a', q1);
        n.add_transition(q1, 'b', q2);
        n.add_transition(q0, 'x', q2);
        assert!(n.is_empty());
        n.set_final(q2, true);
        assert!(!n.is_empty());
        assert_eq!(n.shortest_word(), Some(lit("x")));
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut n = Nfa::<char>::new();
        let q0 = n.add_state();
        let q1 = n.add_state();
        let dead = n.add_state(); // unreachable
        let unprod = n.add_state(); // reachable but no path to final
        n.set_initial(q0);
        n.set_final(q1, true);
        n.add_transition(q0, 'a', q1);
        n.add_transition(q0, 'b', unprod);
        n.add_transition(dead, 'c', q1);
        let t = n.trim();
        assert_eq!(t.state_count(), 2);
        assert!(t.accepts(&lit("a")));
        assert!(!t.accepts(&lit("b")));
    }

    #[test]
    fn map_symbols_relabels() {
        let n = Nfa::word("ab".chars());
        let m = n.map_symbols(|c| c.to_ascii_uppercase());
        assert!(m.accepts(&lit("AB")));
        assert!(!m.accepts(&lit("ab")));
    }

    #[test]
    fn intersect_of_disjoint_is_empty() {
        let a = Nfa::word("a".chars());
        let b = Nfa::word("b".chars());
        assert!(a
            .intersect(&b, &BudgetHandle::unlimited())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn alphabet_lists_used_symbols() {
        let n = Nfa::word("aba".chars());
        let mut al = n.alphabet();
        al.sort();
        assert_eq!(al, vec!['a', 'b']);
    }
}
