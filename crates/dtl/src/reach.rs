//! MSO-definable configuration reachability (the heart of Section 5.3).
//!
//! The paper represents `(q, v) ;* (q', v')` by tree-jumping automata and
//! proves their languages regular via the TJA → TWA → NTA chain
//! (Lemma 5.8). This crate realizes the *same* relation directly in MSO:
//! with one node-set variable `X_p` per transducer state,
//!
//! ```text
//! reach_{q,q'}(x, y) := ∀X₀ … ∀X_{n-1}
//!     ( x ∈ X_q ∧ Closed → y ∈ X_{q'} )
//! Closed := ⋀_{edges (p, φ, α, p')} ∀u ∀v
//!     ( u ∈ X_p ∧ φ(u) ∧ α(u, v) → v ∈ X_{p'} )
//! ```
//!
//! which says `y` is in every `;`-closed family of sets containing `x` —
//! the least-fixpoint characterization of reachability. Compiling this with
//! the Thatcher–Wright pipeline yields the regular languages of Theorem
//! 5.12; see DESIGN.md (substitution 1) for why the routes are equivalent.
//!
//! The same builder serves the DTL deciders and the tree-jumping automata
//! of [`crate::tja`] — both are "pattern-labelled transition systems".

use crate::pattern::MsoPatterns;
use tpx_mso::{Formula, SetVar, Var, VarGen};

/// A pattern-labelled transition system: states `0..n_states` with edges
/// guarded by a unary pattern (on the source node) and a binary step
/// pattern (source → target node).
///
/// Guard formulas use the free variable [`MsoPatterns::HOLE_X`]; step
/// formulas use [`MsoPatterns::HOLE_X`] (source) and
/// [`MsoPatterns::HOLE_Y`] (target).
pub struct ReachSystem {
    n_states: usize,
    edges: Vec<(usize, Formula, Formula, usize)>,
    set_vars: Vec<SetVar>,
    u: Var,
    v: Var,
}

impl ReachSystem {
    /// A system with `n_states` states; fresh closure variables are drawn
    /// from `gen` (which must already be reserved above all pattern
    /// variables).
    pub fn new(n_states: usize, gen: &mut VarGen) -> Self {
        let set_vars = (0..n_states).map(|_| gen.set_var()).collect();
        let u = gen.var();
        let v = gen.var();
        ReachSystem {
            n_states,
            edges: Vec::new(),
            set_vars,
            u,
            v,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Adds an edge `from --(guard, step)--> to`.
    pub fn add_edge(&mut self, from: usize, guard: Formula, step: Formula, to: usize) {
        assert!(from < self.n_states && to < self.n_states);
        self.edges.push((from, guard, step, to));
    }

    /// The `Closed` formula (free variables: the set variables).
    fn closed(&self) -> Formula {
        Formula::all(self.edges.iter().map(|(p, guard, step, p2)| {
            let g = guard.rename_fo(MsoPatterns::HOLE_X, self.u);
            let s = step
                .rename_fo(MsoPatterns::HOLE_X, self.u)
                .rename_fo(MsoPatterns::HOLE_Y, self.v);
            Formula::forall(
                self.u,
                Formula::forall(
                    self.v,
                    Formula::In(self.u, self.set_vars[*p])
                        .and(g)
                        .and(s)
                        .implies(Formula::In(self.v, self.set_vars[*p2])),
                ),
            )
        }))
    }

    /// The reachability formula `reach_{q,q'}(x, y)` — reflexive and
    /// transitive, anchored nowhere (compose with [`Formula::Root`] to
    /// anchor at the root).
    pub fn reach(&self, q: usize, q2: usize, x: Var, y: Var) -> Formula {
        assert!(q < self.n_states && q2 < self.n_states);
        let mut body = Formula::In(x, self.set_vars[q])
            .and(self.closed())
            .implies(Formula::In(y, self.set_vars[q2]));
        for &sv in self.set_vars.iter().rev() {
            body = Formula::forall_set(sv, body);
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_mso::{naive_eval, Assignment};
    use tpx_trees::term::parse_tree;
    use tpx_trees::Alphabet;

    /// A 1-state system stepping along the child relation: reach = the
    /// reflexive-transitive closure of child = descendant-or-self.
    #[test]
    fn reach_child_equals_descendant_or_self() {
        let mut gen = VarGen::new();
        gen.reserve(Var(1_000_002));
        let mut sys = ReachSystem::new(1, &mut gen);
        sys.add_edge(
            0,
            Formula::True,
            Formula::Child(MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y),
            0,
        );
        let (x, y) = (gen.var(), gen.var());
        let reach = sys.reach(0, 0, x, y);
        let mut al = Alphabet::from_labels(["a", "b"]);
        let t = parse_tree(r#"a(b("s") a)"#, &mut al).unwrap();
        for &n1 in &t.dfs() {
            for &n2 in &t.dfs() {
                let asg = Assignment::new().bind(x, n1).bind(y, n2);
                let expect = n1 == n2 || t.is_ancestor(n1, n2, true);
                assert_eq!(
                    naive_eval(&t, &reach, &asg).unwrap(),
                    expect,
                    "{n1:?} {n2:?}"
                );
            }
        }
    }

    /// Two states alternating: 0 steps to 1 on child, 1 steps to 0 on
    /// child; reach(0, 0) = even-depth descendants.
    #[test]
    fn reach_respects_states() {
        let mut gen = VarGen::new();
        gen.reserve(Var(1_000_002));
        let mut sys = ReachSystem::new(2, &mut gen);
        let step = Formula::Child(MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y);
        sys.add_edge(0, Formula::True, step.clone(), 1);
        sys.add_edge(1, Formula::True, step, 0);
        let (x, y) = (gen.var(), gen.var());
        let reach00 = sys.reach(0, 0, x, y);
        let reach01 = sys.reach(0, 1, x, y);
        let mut al = Alphabet::from_labels(["a"]);
        let t = parse_tree("a(a(a))", &mut al).unwrap();
        let nodes = t.dfs(); // depths 1, 2, 3
        let root = nodes[0];
        for (i, &n) in nodes.iter().enumerate() {
            let asg = Assignment::new().bind(x, root).bind(y, n);
            assert_eq!(
                naive_eval(&t, &reach00, &asg).unwrap(),
                i % 2 == 0,
                "depth {}",
                i + 1
            );
            assert_eq!(
                naive_eval(&t, &reach01, &asg).unwrap(),
                i % 2 == 1,
                "depth {}",
                i + 1
            );
        }
    }

    /// Guards restrict which nodes an edge can fire at.
    #[test]
    fn guards_restrict_steps() {
        let mut gen = VarGen::new();
        gen.reserve(Var(1_000_002));
        let mut al = Alphabet::from_labels(["a", "b"]);
        let mut sys = ReachSystem::new(1, &mut gen);
        // Only step below a-labelled nodes.
        sys.add_edge(
            0,
            Formula::Lab(al.sym("a"), MsoPatterns::HOLE_X),
            Formula::Child(MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y),
            0,
        );
        let (x, y) = (gen.var(), gen.var());
        let reach = sys.reach(0, 0, x, y);
        let t = parse_tree("a(b(a))", &mut al).unwrap();
        let nodes = t.dfs();
        let (root, b, inner) = (nodes[0], nodes[1], nodes[2]);
        let ok =
            |n1, n2| naive_eval(&t, &reach, &Assignment::new().bind(x, n1).bind(y, n2)).unwrap();
        assert!(ok(root, b)); // one a-step
        assert!(!ok(root, inner)); // blocked at the b node
        assert!(ok(b, b)); // reflexive
    }
}
