//! The ⊆-minimal frontier behind the lazy inclusion checks, shared by
//! word NFAs ([`crate::inclusion`]) and tree automata (`tpx-treeauto`).
//!
//! Both checks explore pairs `(p, S)` of a state `p` of the left
//! automaton and the exact set `S` of right-automaton states reached by
//! the same input, kept as a bitset. Rejection (`S ∩ F = ∅`) is downward
//! closed and the macro-step is monotone, so a pair whose set is a
//! superset of an explored set for the same `p` can never reach a
//! counterexample the explored one cannot. A [`Frontier`] keeps only the
//! ⊆-minimal sets per left state and skips every dominated candidate.
//!
//! The frontier owns the arena of interned pairs, the per-state chains
//! and the FIFO of pairs still to expand. Successor computation and
//! witness decoding stay with the caller, which records how each pair
//! was reached in the entry's `prov` field.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::ops::Index;

/// Whether bit `i` is set.
pub fn bit_has(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Sets bit `i`.
pub fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// `a ⊆ b` on bitsets of equal length.
pub fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// One interned pair: a left-automaton state, the exact right-automaton
/// state set as a bitset, and the caller's provenance record.
pub struct Entry<K, P> {
    /// The left-automaton state.
    pub state: K,
    /// The right-automaton states reached, as a bitset.
    pub set: Vec<u64>,
    /// How the pair was reached, for witness decoding.
    pub prov: P,
}

/// The arena of explored pairs plus, per left state, the ids whose sets
/// are ⊆-minimal among those interned for it.
///
/// A dominated entry leaves its chain, so later domination checks stay
/// cheap, but it stays in the arena and in the queue: exploring it is
/// redundant, never unsound.
pub struct Frontier<K, P> {
    entries: Vec<Entry<K, P>>,
    chains: HashMap<K, Vec<usize>>,
    queue: VecDeque<usize>,
}

impl<K: Copy + Eq + Hash, P> Default for Frontier<K, P> {
    fn default() -> Self {
        Frontier {
            entries: Vec::new(),
            chains: HashMap::new(),
            queue: VecDeque::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, P> Frontier<K, P> {
    /// Interns `(state, set)` and queues it for expansion, unless an
    /// explored set for `state` is a subset of `set`. Returns the new
    /// entry's id, or `None` when the candidate is dominated.
    pub fn intern(&mut self, state: K, set: Vec<u64>, prov: P) -> Option<usize> {
        let entries = &self.entries;
        let chain = self.chains.entry(state).or_default();
        if chain.iter().any(|&i| is_subset(&entries[i].set, &set)) {
            return None;
        }
        chain.retain(|&i| !is_subset(&set, &entries[i].set));
        let id = self.entries.len();
        chain.push(id);
        self.entries.push(Entry { state, set, prov });
        self.queue.push_back(id);
        Some(id)
    }

    /// The oldest entry not yet expanded (breadth-first order).
    pub fn pop(&mut self) -> Option<usize> {
        self.queue.pop_front()
    }
}

impl<K, P> Index<usize> for Frontier<K, P> {
    type Output = Entry<K, P>;

    fn index(&self, id: usize) -> &Entry<K, P> {
        &self.entries[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_keeps_minimal_sets() {
        let mut f: Frontier<u32, ()> = Frontier::default();
        let big = f.intern(0, vec![0b11], ()).expect("first set is minimal");
        // A superset of an explored set is dominated.
        assert!(f.intern(0, vec![0b111], ()).is_none());
        // A subset replaces the explored set in the chain...
        let small = f.intern(0, vec![0b01], ()).expect("subset is minimal");
        assert!(f.intern(0, vec![0b11], ()).is_none());
        // ...and other states have their own chains.
        assert!(f.intern(1, vec![0b11], ()).is_some());
        assert_eq!(f[small].set, vec![0b01]);
        assert_eq!(f.pop(), Some(big));
        assert_eq!(f.pop(), Some(small));
    }
}
