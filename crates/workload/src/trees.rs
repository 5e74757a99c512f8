//! Random text-tree generation: free-form and schema-guided.

use tpx_treeauto::{Nta, State};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::rng::SplitMix64;
use tpx_trees::{Hedge, HedgeBuilder, Symbol, Tree};

/// Shape parameters for free-form random trees.
#[derive(Clone, Copy, Debug)]
pub struct TreeGenConfig {
    /// Number of element labels to draw from (`Symbol(0..n)`).
    pub n_symbols: usize,
    /// Maximum depth.
    pub max_depth: usize,
    /// Maximum children per node.
    pub max_children: usize,
    /// Probability that a leaf position becomes a text node.
    pub text_prob: f64,
}

impl Default for TreeGenConfig {
    fn default() -> Self {
        TreeGenConfig {
            n_symbols: 3,
            max_depth: 4,
            max_children: 3,
            text_prob: 0.4,
        }
    }
}

/// A random tree with the given shape, deterministic in `seed`.
pub fn random_tree(cfg: &TreeGenConfig, seed: u64) -> Tree {
    let mut rng = SplitMix64::new(seed);
    let mut b = HedgeBuilder::new();
    let mut counter = 0usize;
    gen_node(cfg, &mut rng, &mut b, cfg.max_depth, &mut counter);
    b.finish_tree().expect("generator emits a single root")
}

fn gen_node(
    cfg: &TreeGenConfig,
    rng: &mut SplitMix64,
    b: &mut HedgeBuilder,
    depth: usize,
    counter: &mut usize,
) {
    let sym = Symbol(rng.below(cfg.n_symbols) as u32);
    b.open(sym);
    if depth > 0 {
        let n_children = rng.range_inclusive(0, cfg.max_children);
        for _ in 0..n_children {
            if rng.chance(cfg.text_prob) {
                b.text(&format!("t{}", *counter));
                *counter += 1;
            } else {
                gen_node(cfg, rng, b, depth - 1, counter);
            }
        }
    }
    b.close();
}

/// Samples a random tree from `L(nta)` with a soft node budget (the result
/// may exceed it slightly when content models force more children).
/// `None` if and only if the language is empty.
///
/// Sampling walks top-down: at each node it picks a random accepting child
/// word over inhabited states, biased toward short words as the budget
/// shrinks. A random branch can still dead-end (the walk commits to a
/// content word before recursing); instead of propagating that `None` out,
/// the sampler retries with seeds derived from `seed` and, as a last
/// resort, falls back to the NTA's deterministic witness — so the result is
/// deterministic in `seed` and `None` is reserved for empty languages.
pub fn random_schema_tree(nta: &Nta, budget: usize, seed: u64) -> Option<Tree> {
    let inhabited = nta
        .inhabited_states(&BudgetHandle::unlimited())
        .expect("unlimited budget");
    let costs = completion_costs(nta);
    let roots: Vec<State> = nta
        .roots()
        .iter()
        .copied()
        .filter(|q| inhabited[q.index()])
        .collect();
    if roots.is_empty() {
        return None;
    }
    // Derived-seed retries: each attempt re-mixes the seed, so one
    // dead-ended walk does not turn a non-empty language into `None`.
    for attempt in 0..8u64 {
        let mut rng = SplitMix64::new(seed.wrapping_add(attempt.wrapping_mul(0x9E3779B97F4A7C15)));
        let root = roots[rng.below(roots.len())];
        let mut b = HedgeBuilder::new();
        let mut counter = 0usize;
        let mut remaining = budget as i64;
        if sample_state(
            nta,
            &inhabited,
            &costs,
            root,
            &mut rng,
            &mut b,
            &mut counter,
            &mut remaining,
        )
        .is_some()
        {
            if let Some(t) = b.finish_tree() {
                return Some(t);
            }
        }
    }
    // Every randomized attempt dead-ended; the language is still non-empty
    // (an inhabited root exists), so emit the deterministic witness.
    nta.witness(&BudgetHandle::unlimited())
        .expect("unlimited budget")
}

/// Per-state completion cost: the minimum number of nodes in any tree
/// derivable from the state (`None` for uninhabited states). Under budget
/// pressure the sampler follows these costs, so it always makes progress
/// toward a finished tree — a *shortest* content word may well be the
/// recursive one and loop forever (e.g. `δ(q, a) = (qb qb) | q`, where the
/// length-1 word `q` never terminates).
fn completion_costs(nta: &Nta) -> Vec<Option<u64>> {
    let n = nta
        .inhabited_states(&BudgetHandle::unlimited())
        .expect("unlimited budget")
        .len();
    let mut costs: Vec<Option<u64>> = (0..n)
        .map(|q| nta.text_ok(State(q as u32)).then_some(1))
        .collect();
    loop {
        let mut changed = false;
        for q in 0..n {
            for sym in 0..nta.symbol_count() {
                let Some(nfa) = nta.content(State(q as u32), Symbol(sym as u32)) else {
                    continue;
                };
                if let Some((word_cost, _)) = cheapest_word(nfa, &costs) {
                    let c = 1 + word_cost;
                    if costs[q].is_none_or(|old| c < old) {
                        costs[q] = Some(c);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return costs;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn sample_state(
    nta: &Nta,
    inhabited: &[bool],
    costs: &[Option<u64>],
    q: State,
    rng: &mut SplitMix64,
    b: &mut HedgeBuilder,
    counter: &mut usize,
    remaining: &mut i64,
) -> Option<()> {
    *remaining -= 1;
    // Prefer a text leaf when allowed and the budget is tight.
    let tight = *remaining <= 0;
    if nta.text_ok(q) && (tight || rng.chance(0.3)) {
        b.text(&format!("t{}", *counter));
        *counter += 1;
        return Some(());
    }
    // Candidate (symbol, word) choices.
    let mut choices: Vec<(Symbol, Vec<State>)> = Vec::new();
    for sym in 0..nta.symbol_count() {
        let s = Symbol(sym as u32);
        // Aim for wider nodes while plenty of budget remains.
        let target = ((*remaining).max(0) as usize / 4).clamp(1, 16);
        if let Some(word) = sample_word(nta, inhabited, costs, q, s, rng, tight, target) {
            choices.push((s, word));
        }
    }
    if choices.is_empty() {
        if nta.text_ok(q) {
            b.text(&format!("t{}", *counter));
            *counter += 1;
            return Some(());
        }
        return None;
    }
    // Prefer the cheapest completion under pressure, random otherwise.
    let pick = if tight {
        choices
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, w))| word_cost(w, costs))
            .map(|(i, _)| i)
            .unwrap()
    } else {
        rng.below(choices.len())
    };
    let (s, word) = choices.swap_remove(pick);
    b.open(s);
    for qc in word {
        sample_state(nta, inhabited, costs, qc, rng, b, counter, remaining)?;
    }
    b.close();
    Some(())
}

fn word_cost(word: &[State], costs: &[Option<u64>]) -> u64 {
    word.iter()
        .map(|q| costs[q.index()].unwrap_or(u64::MAX / 64))
        .sum()
}

/// A random accepting word of `δ(q, s)` over inhabited states; the
/// cheapest-to-complete word when `tight`.
#[allow(clippy::too_many_arguments)]
fn sample_word(
    nta: &Nta,
    inhabited: &[bool],
    costs: &[Option<u64>],
    q: State,
    s: Symbol,
    rng: &mut SplitMix64,
    tight: bool,
    target: usize,
) -> Option<Vec<State>> {
    let nfa = nta.content(q, s)?;
    // Random walk with fuel; fall back to the cheapest completion when
    // tight or stuck.
    if !tight {
        for _ in 0..4 {
            if let Some(w) = random_walk_word(nfa, inhabited, rng, target) {
                return Some(w);
            }
        }
    }
    cheapest_word(nfa, costs).map(|(_, w)| w)
}

fn random_walk_word(
    nfa: &tpx_automata::Nfa<State>,
    inhabited: &[bool],
    rng: &mut SplitMix64,
    target: usize,
) -> Option<Vec<State>> {
    let inits = nfa.initial_states();
    if inits.is_empty() {
        return None;
    }
    let mut cur = inits[rng.below(inits.len())];
    let mut word = Vec::new();
    for _ in 0..(target + 8) {
        let stop_prob = if word.len() >= target {
            0.8
        } else if word.is_empty() && target > 1 {
            0.0 // avoid degenerate ε-words while budget remains
        } else {
            0.15
        };
        if nfa.is_final(cur) && rng.chance(stop_prob) {
            return Some(word);
        }
        let edges: Vec<&(State, tpx_automata::StateId)> = nfa
            .transitions_from(cur)
            .iter()
            .filter(|(a, _)| inhabited[a.index()])
            .collect();
        if edges.is_empty() {
            return nfa.is_final(cur).then_some(word);
        }
        let (a, r) = edges[rng.below(edges.len())];
        word.push(*a);
        cur = *r;
    }
    None
}

/// The accepting word of `nfa` minimizing the summed completion cost of its
/// letters (letters without a cost, i.e. uninhabited states, are unusable).
/// Returns the total cost and the word. Letter costs are ≥ 1, so the
/// predecessor chain is acyclic and reconstruction terminates.
fn cheapest_word(
    nfa: &tpx_automata::Nfa<State>,
    costs: &[Option<u64>],
) -> Option<(u64, Vec<State>)> {
    use std::collections::VecDeque;
    let n = nfa.state_count();
    let mut dist: Vec<u64> = vec![u64::MAX; n];
    let mut pred: Vec<Option<(tpx_automata::StateId, State)>> = vec![None; n];
    let mut discovered: Vec<tpx_automata::StateId> = Vec::new();
    let mut queue: VecDeque<tpx_automata::StateId> = VecDeque::new();
    for &p in nfa.initial_states() {
        if dist[p.index()] != 0 {
            dist[p.index()] = 0;
            discovered.push(p);
            queue.push_back(p);
        }
    }
    while let Some(p) = queue.pop_front() {
        let d = dist[p.index()];
        for (a, r) in nfa.transitions_from(p) {
            let Some(c) = costs[a.index()] else { continue };
            let nd = d.saturating_add(c);
            if nd < dist[r.index()] {
                if dist[r.index()] == u64::MAX {
                    discovered.push(*r);
                }
                dist[r.index()] = nd;
                pred[r.index()] = Some((p, *a));
                queue.push_back(*r);
            }
        }
    }
    let best = discovered
        .into_iter()
        .filter(|&p| nfa.is_final(p))
        .min_by_key(|&p| dist[p.index()])?;
    let mut w = Vec::new();
    let mut cur = best;
    while let Some((prev, a)) = pred[cur.index()] {
        w.push(a);
        cur = prev;
    }
    w.reverse();
    Some((dist[best.index()], w))
}

/// Relabels all text values to be unique (`t0, t1, …` in document order) —
/// handy after generation when value-uniqueness matters.
pub fn uniquify(h: &Hedge) -> Hedge {
    tpx_trees::make_value_unique(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_tree_is_deterministic_in_seed() {
        let cfg = TreeGenConfig::default();
        let a = random_tree(&cfg, 42);
        let b = random_tree(&cfg, 42);
        let c = random_tree(&cfg, 43);
        assert_eq!(*a.as_hedge(), *b.as_hedge());
        // Different seeds almost surely differ (fixed seeds chosen so).
        assert_ne!(*a.as_hedge(), *c.as_hedge());
    }

    #[test]
    fn random_tree_respects_shape() {
        let cfg = TreeGenConfig {
            n_symbols: 2,
            max_depth: 3,
            max_children: 2,
            text_prob: 0.5,
        };
        for seed in 0..20 {
            let t = random_tree(&cfg, seed);
            for v in t.dfs() {
                assert!(t.depth(v) <= 4); // max_depth + 1 for text leaves
                assert!(t.children(v).len() <= 2);
            }
        }
    }

    #[test]
    fn schema_sampling_yields_valid_trees() {
        let al = tpx_trees::samples::recipe_alphabet();
        let dtd = tpx_schema::samples::recipe_dtd(&al);
        let nta = dtd.to_nta();
        for seed in 0..20 {
            let t = random_schema_tree(&nta, 30, seed).expect("non-empty schema");
            assert!(nta.accepts(&t), "seed {seed}: {t:?}");
            assert!(dtd.validates(&t), "seed {seed}");
        }
    }

    #[test]
    fn schema_sampling_is_deterministic_in_seed() {
        let al = tpx_trees::samples::recipe_alphabet();
        let nta = tpx_schema::samples::recipe_dtd(&al).to_nta();
        for seed in 0..10 {
            let a = random_schema_tree(&nta, 25, seed).unwrap();
            let b = random_schema_tree(&nta, 25, seed).unwrap();
            assert_eq!(*a.as_hedge(), *b.as_hedge(), "seed {seed}");
        }
    }

    #[test]
    fn schema_sampling_never_spuriously_none() {
        // A schema whose only non-text content model forces an exact word
        // (`b b`) next to an optional recursive branch: random walks may
        // wander, but the language is plainly non-empty, so every seed must
        // produce a tree.
        let al = tpx_trees::Alphabet::from_labels(["a", "b"]);
        let mut b = tpx_treeauto::NtaBuilder::new(&al);
        b.root("q");
        b.rule("q", "a", "(qb qb) | q");
        b.rule("qb", "b", "qt?");
        b.text_rule("qt");
        let nta = b.finish();
        for seed in 0..200 {
            let t = random_schema_tree(&nta, 6, seed)
                .unwrap_or_else(|| panic!("seed {seed}: spurious None"));
            assert!(nta.accepts(&t), "seed {seed}");
        }
    }

    #[test]
    fn schema_sampling_of_empty_language_is_none() {
        let al = tpx_trees::Alphabet::from_labels(["a"]);
        let mut b = tpx_treeauto::NtaBuilder::new(&al);
        b.root("q");
        b.rule("q", "a", "qdead");
        b.rule("qdead", "a", "qdead");
        let nta = b.finish();
        assert!(random_schema_tree(&nta, 10, 0).is_none());
    }

    #[test]
    fn schema_sampling_scales_with_budget() {
        let al = tpx_trees::samples::recipe_alphabet();
        let nta = tpx_schema::samples::recipe_dtd(&al).to_nta();
        let small = random_schema_tree(&nta, 10, 7).unwrap();
        let large = random_schema_tree(&nta, 300, 7).unwrap();
        assert!(large.node_count() > small.node_count());
    }
}
