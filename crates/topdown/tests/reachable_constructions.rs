//! The two transducer-side constructions of Theorem 4.11 — the Lemma 4.5
//! pair automaton and the Lemma 4.10 rearranging NTA — are built from
//! their start and fill only what they reach. This suite checks them
//! against eager references written here over public APIs (the whole
//! dense state space filled, then trimmed): the trimmed artifacts must be
//! identical, state for state and transition for transition.
//!
//! Inputs: seeded `random_transducer` draws over several state counts and
//! rule probabilities, the `transducers::suite` families at the sizes the
//! chain and comb schemas are swept at, and the paper's sample
//! transducers. Failures print the offending case for replay.

use tpx_automata::{Nfa, StateId};
use tpx_topdown::decide::rearranging_nta;
use tpx_topdown::transducer::frontier_states;
use tpx_topdown::{
    compile_copy_artifacts, path_automaton_transducer, PathSym, TdState, Transducer,
};
use tpx_treeauto::{Nta, State};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::rng::SplitMix64;
use tpx_trees::{stable_hash_of, Alphabet, Symbol};
use tpx_workload::transducers::{plain_alphabet, random_transducer, suite};
use tpx_workload::{chain_schema, comb_schema};

/// Dense role ids of the Lemma 4.10 automaton over `n` transducer states:
/// `Any`, `S0(q)`, `D(q₁, q₂)`, `B1(q)`, `B2(q)`.
struct Roles {
    n: u32,
}

impl Roles {
    fn size(&self) -> usize {
        (1 + 3 * self.n + self.n * self.n) as usize
    }
    fn s0(&self, q: TdState) -> State {
        State(1 + q.0)
    }
    fn d(&self, q1: TdState, q2: TdState) -> State {
        State(1 + self.n + q1.0 * self.n + q2.0)
    }
    fn b1(&self, q: TdState) -> State {
        State(1 + self.n + self.n * self.n + q.0)
    }
    fn b2(&self, q: TdState) -> State {
        State(1 + 2 * self.n + self.n * self.n + q.0)
    }
}

/// `Any* · X · Any*` over the singles, plus `Any* B1 Any* B2 Any*` splits.
fn content(singles: &[State], splits: &[(State, State)]) -> Nfa<State> {
    let any = State(0);
    let mut nfa: Nfa<State> = Nfa::new();
    let s0 = nfa.add_state();
    let s1 = nfa.add_state();
    nfa.set_initial(s0);
    nfa.set_final(s1, true);
    nfa.add_transition(s0, any, s0);
    nfa.add_transition(s1, any, s1);
    for &x in singles {
        nfa.add_transition(s0, x, s1);
    }
    if !splits.is_empty() {
        let mid = nfa.add_state();
        nfa.add_transition(mid, any, mid);
        for &(x1, x2) in splits {
            nfa.add_transition(s0, x1, mid);
            nfa.add_transition(mid, x2, s1);
        }
    }
    nfa
}

/// Lemma 4.10 over the whole role space: every row of every role, then
/// the trim.
fn eager_rearranging_nta(t: &Transducer) -> Nta {
    let sp = Roles {
        n: t.state_count() as u32,
    };
    let mut m = Nta::new(t.symbol_count());
    for _ in 0..sp.size() {
        m.add_state();
    }
    for sym in 0..t.symbol_count() {
        let s = Symbol(sym as u32);
        let mut any_nfa: Nfa<State> = Nfa::new();
        let a0 = any_nfa.add_state();
        any_nfa.set_initial(a0);
        any_nfa.set_final(a0, true);
        any_nfa.add_transition(a0, State(0), a0);
        m.set_content(State(0), s, any_nfa);
        for q in t.states() {
            let Some(rhs) = t.rhs(q, s) else { continue };
            let ls = frontier_states(rhs);
            let mut singles: Vec<State> = ls.iter().map(|&p| sp.s0(p)).collect();
            let mut splits = Vec::new();
            let mut pairs: Vec<(TdState, TdState)> = Vec::new();
            for j in 0..ls.len() {
                for j2 in (j + 1)..ls.len() {
                    if !pairs.contains(&(ls[j], ls[j2])) {
                        pairs.push((ls[j], ls[j2]));
                    }
                }
            }
            for (earlier, later) in pairs {
                singles.push(sp.d(later, earlier));
                splits.push((sp.b1(later), sp.b2(earlier)));
            }
            m.set_content(sp.s0(q), s, content(&singles, &splits));
            let b1: Vec<State> = ls.iter().map(|&p| sp.b1(p)).collect();
            m.set_content(sp.b1(q), s, content(&b1, &[]));
            let b2: Vec<State> = ls.iter().map(|&p| sp.b2(p)).collect();
            m.set_content(sp.b2(q), s, content(&b2, &[]));
        }
        for q1 in t.states() {
            for q2 in t.states() {
                let (Some(rhs1), Some(rhs2)) = (t.rhs(q1, s), t.rhs(q2, s)) else {
                    continue;
                };
                let mut singles = Vec::new();
                let mut splits = Vec::new();
                for &p1 in &frontier_states(rhs1) {
                    for &p2 in &frontier_states(rhs2) {
                        singles.push(sp.d(p1, p2));
                        splits.push((sp.b1(p1), sp.b2(p2)));
                    }
                }
                m.set_content(sp.d(q1, q2), s, content(&singles, &splits));
            }
        }
    }
    m.set_text_ok(State(0), true);
    for q in t.states() {
        m.set_text_ok(sp.b1(q), t.text_rule(q));
        m.set_text_ok(sp.b2(q), t.text_rule(q));
    }
    m.add_root(sp.s0(t.initial()));
    m.trim(&BudgetHandle::unlimited()).unwrap()
}

/// Lemma 4.5 condition (1) over all `2·|Q|²` rows, then the trim.
fn eager_diverging(a_t: &Nfa<PathSym>) -> Nfa<PathSym> {
    let n = a_t.state_count() as u32;
    let id = |p: StateId, q: StateId, d: bool| StateId((p.0 * n + q.0) * 2 + u32::from(d));
    let mut out: Nfa<PathSym> = Nfa::new();
    out.add_states(2 * (n as usize) * (n as usize));
    for &i in a_t.initial_states() {
        for &j in a_t.initial_states() {
            out.set_initial(id(i, j, i != j));
        }
    }
    for p in a_t.states() {
        for q in a_t.states() {
            for flag in [false, true] {
                let from = id(p, q, flag);
                for (a, p2) in a_t.transitions_from(p) {
                    for (b, q2) in a_t.transitions_from(q) {
                        if a == b {
                            out.add_transition(from, *a, id(*p2, *q2, flag || p2 != q2));
                        }
                    }
                }
                if flag && a_t.is_final(p) && a_t.is_final(q) {
                    out.set_final(from, true);
                }
            }
        }
    }
    out.trim()
}

/// Initial states, the final flag of every state, and every transition, in
/// order.
type NfaShape = (Vec<StateId>, Vec<bool>, Vec<(StateId, PathSym, StateId)>);

fn nfa_shape(nfa: &Nfa<PathSym>) -> NfaShape {
    (
        nfa.initial_states().to_vec(),
        nfa.states().map(|q| nfa.is_final(q)).collect(),
        nfa.transitions().map(|(p, a, r)| (p, *a, r)).collect(),
    )
}

fn assert_same_artifacts(case: &str, t: &Transducer) {
    let budget = BudgetHandle::unlimited();
    let m = rearranging_nta(t, &budget).unwrap();
    let reference = eager_rearranging_nta(t);
    assert_eq!(
        (m.state_count(), m.size(), stable_hash_of(&m)),
        (
            reference.state_count(),
            reference.size(),
            stable_hash_of(&reference)
        ),
        "{case}: rearranging NTA differs from the eager construction"
    );
    let copy = compile_copy_artifacts(t, &budget).unwrap();
    let reference = eager_diverging(&path_automaton_transducer(t));
    assert_eq!(
        nfa_shape(&copy.diverging),
        nfa_shape(&reference),
        "{case}: diverging-pairs NFA differs from the eager construction"
    );
}

#[test]
fn random_transducers_build_the_eager_artifacts() {
    let mut rng = SplitMix64::new(0x4_10);
    let mut inhabited = 0;
    for labels in [2usize, 3, 4] {
        let alpha = plain_alphabet(labels);
        for n_states in [1usize, 2, 3, 5, 8] {
            for rule_prob in [0.3, 0.6, 0.9] {
                for _ in 0..6 {
                    let seed = rng.next_u64();
                    let t = random_transducer(&alpha, n_states, rule_prob, seed);
                    let case =
                        format!("labels {labels}, states {n_states}, p {rule_prob}, seed {seed}");
                    assert_same_artifacts(&case, &t);
                    if rearranging_nta(&t, &BudgetHandle::unlimited())
                        .unwrap()
                        .state_count()
                        > 0
                    {
                        inhabited += 1;
                    }
                }
            }
        }
    }
    // The draws must exercise non-empty swap automata, not only the
    // trivially equal empty ones.
    assert!(inhabited >= 20, "only {inhabited} inhabited draws");
}

#[test]
fn suite_transducers_build_the_eager_artifacts() {
    for n in [2usize, 5, 8, 16] {
        for (name, (alpha, _)) in [("chain", chain_schema(n)), ("comb", comb_schema(n))] {
            for (kind, t) in suite(&alpha, n) {
                assert_same_artifacts(&format!("{name}-{n} {kind:?}"), &t);
            }
        }
    }
}

#[test]
fn sample_transducers_build_the_eager_artifacts() {
    let recipe = tpx_trees::samples::recipe_alphabet();
    let samples = [
        ("example 4.2", tpx_topdown::samples::example_4_2(&recipe)),
        ("copying", tpx_topdown::samples::copying_example(&recipe)),
        (
            "rearranging",
            tpx_topdown::samples::rearranging_example(&recipe),
        ),
    ];
    for (name, t) in &samples {
        assert_same_artifacts(name, t);
    }
    let alpha = Alphabet::from_labels(["a", "b", "c"]);
    let t = tpx_topdown::samples::chain_selector(&alpha, "b", 4);
    assert_same_artifacts("chain selector", &t);
}
