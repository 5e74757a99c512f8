//! The PTIME deciders of Section 4.3.
//!
//! * Copying over `L(N)` (Lemma 4.9): an NFA `M` simulating the path
//!   automaton `A_N` together with two copies of the transducer path
//!   automaton `A_T`, accepting text paths witnessing condition (1) or (2)
//!   of Lemma 4.5. `T` is copying over `L(N)` iff `L(M) ≠ ∅`.
//! * Rearranging over `L(N)` (Lemma 4.10): an NTA `M` accepting exactly the
//!   trees on which `T` rearranges (condition of Lemma 4.6); `T` is
//!   rearranging over `L(N)` iff `L(M ∩ N) ≠ ∅`.
//! * Text-preservation (Theorem 4.11): by Theorem 3.3, `T` is
//!   text-preserving over `L(N)` iff it is neither copying nor rearranging.
//!
//! All constructions are polynomial; emptiness tests are linear-time graph
//! searches, so the whole decision procedure is PTIME.

use crate::paths::{path_automaton_nta, path_automaton_transducer, PathSym};
use crate::transducer::{frontier_states, TdState, Transducer};
use tpx_automata::{Nfa, StateId};
use tpx_obs::{SpanFields, Tracer};
use tpx_treeauto::{Nta, State};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::{Symbol, Tree};

/// The outcome of [`is_text_preserving`], with a diagnostic witness.
#[derive(Clone, Debug)]
pub enum CheckReport {
    /// The transduction is text-preserving over the schema.
    TextPreserving,
    /// The transduction copies; the witness is a text path of the schema on
    /// which `T` has two different path runs or a doubling rule.
    Copying {
        /// A witness text path.
        path: Vec<PathSym>,
    },
    /// The transduction rearranges; the witness is a schema tree on which
    /// two text values swap.
    Rearranging {
        /// A witness tree (text values are placeholders).
        witness: Tree,
    },
}

impl CheckReport {
    /// Whether the report says "text-preserving".
    pub fn is_preserving(&self) -> bool {
        matches!(self, CheckReport::TextPreserving)
    }
}

/// The schema-side stage of the pipeline: everything Lemma 4.9 needs from
/// the schema alone. Reusable across every transducer checked against the
/// same schema — the engine layer caches it by schema content hash.
#[derive(Clone, Debug)]
pub struct SchemaArtifacts {
    /// `A_N`, the path automaton of `L(N)` (Lemma 4.8(1)).
    pub a_n: Nfa<PathSym>,
    /// The full path-symbol alphabet `Σ ⊎ {text}` of the schema, hoisted
    /// here so per-analysis pipelines (text-retention's `through-σ`
    /// automaton, determinization-requiring callers) never rebuild it per
    /// call.
    pub path_alphabet: Vec<PathSym>,
}

impl SchemaArtifacts {
    /// Total size of the compiled artifacts (states + transitions).
    pub fn size(&self) -> usize {
        self.a_n.size() + self.path_alphabet.len()
    }
}

/// The copy-side transducer stage: the Lemma 4.5 condition automata built
/// from `A_T` (Lemma 4.8(2)). Linear in `|T|`² — cheap next to the
/// rearranging NTA, so callers that only need the copying half (e.g.
/// [`crate::extensions`], the E1 copying-only sweep) can stop here.
#[derive(Clone, Debug)]
pub struct CopyArtifacts {
    /// `A_T`, the transducer path automaton (Lemma 4.8(2)).
    pub a_t: Nfa<PathSym>,
    /// Two lock-step copies of `A_T` accepting paths with two *different*
    /// runs (condition (1) of Lemma 4.5).
    pub diverging: Nfa<PathSym>,
    /// One copy of `A_T` marked once a doubling rule fires (condition (2)
    /// of Lemma 4.5).
    pub doubling: Nfa<PathSym>,
}

impl CopyArtifacts {
    /// Total size of the compiled artifacts (states + transitions).
    pub fn size(&self) -> usize {
        self.a_t.size() + self.diverging.size() + self.doubling.size()
    }
}

/// The full transducer-side stage: copy-side automata plus the Lemma 4.10
/// rearranging NTA. Reusable across every schema the same transducer is
/// checked against — the engine layer caches it by transducer content hash.
#[derive(Clone, Debug)]
pub struct TransducerArtifacts {
    /// The copy-side condition automata (Lemma 4.5 / 4.9).
    pub copying: CopyArtifacts,
    /// The rearranging NTA `M` of Lemma 4.10.
    pub rearranging: Nta,
}

impl TransducerArtifacts {
    /// Total size of the compiled artifacts (states + transitions/rules).
    pub fn size(&self) -> usize {
        self.copying.size() + self.rearranging.size()
    }
}

/// Stage 1a: compiles the schema-side artifacts (Lemma 4.8(1)).
///
/// Charges one fuel unit per state and transition of the constructed path
/// automaton.
pub fn compile_schema_artifacts(
    nta: &Nta,
    budget: &BudgetHandle,
) -> Result<SchemaArtifacts, BudgetExceeded> {
    // Entering the stage costs one unit, so a zero-fuel budget fails fast
    // before any construction starts.
    budget.charge(1)?;
    let a_n = path_automaton_nta(nta);
    budget.charge(a_n.size() as u64)?;
    let mut path_alphabet: Vec<PathSym> = (0..nta.symbol_count() as u32)
        .map(|i| PathSym::Elem(Symbol(i)))
        .collect();
    path_alphabet.push(PathSym::Text);
    budget.charge(path_alphabet.len() as u64)?;
    Ok(SchemaArtifacts { a_n, path_alphabet })
}

/// Stage 1b (copy side): `A_T` and the two Lemma 4.5 condition automata.
///
/// Fuel: `|A_T|`, then one unit per reachable row of the pair automaton and
/// per `(state, symbol)` row of the doubling automaton.
pub fn compile_copy_artifacts(
    t: &Transducer,
    budget: &BudgetHandle,
) -> Result<CopyArtifacts, BudgetExceeded> {
    let a_t = path_automaton_transducer(t);
    budget.charge(a_t.size() as u64)?;
    let diverging = diverging_pairs_automaton(&a_t, budget)?;
    let doubling = doubling_marked_automaton(t, budget)?;
    Ok(CopyArtifacts {
        a_t,
        diverging,
        doubling,
    })
}

/// Stage 1b (full): copy-side automata plus the Lemma 4.10 rearranging NTA.
///
/// Fuel probes run inside both the copy-side construction and the
/// rearranging-NTA role worklist. Emits one sub-span per compiled half
/// (`topdown/transducer/copying`, `topdown/transducer/rearranging`)
/// carrying the fuel charged and the artifact size.
pub fn compile_transducer_artifacts(
    t: &Transducer,
    budget: &BudgetHandle,
    tracer: &Tracer,
) -> Result<TransducerArtifacts, BudgetExceeded> {
    let span = tracer.span("topdown/transducer/copying");
    let fuel_before = budget.fuel_spent();
    let copying = compile_copy_artifacts(t, budget)?;
    span.exit_with(
        SpanFields::new()
            .fuel(budget.fuel_spent() - fuel_before)
            .size(copying.size()),
    );
    let span = tracer.span("topdown/transducer/rearranging");
    let fuel_before = budget.fuel_spent();
    let rearranging = rearranging_nta(t, budget)?;
    span.exit_with(
        SpanFields::new()
            .fuel(budget.fuel_spent() - fuel_before)
            .size(rearranging.size()),
    );
    Ok(TransducerArtifacts {
        copying,
        rearranging,
    })
}

/// Stage 2 (copying): the Lemma 4.9 emptiness tests over precompiled
/// artifacts — two linear products plus shortest-word searches. Each
/// product charges one fuel unit per state and per transition.
pub fn copying_witness_with(
    schema: &SchemaArtifacts,
    copy: &CopyArtifacts,
    budget: &BudgetHandle,
) -> Result<Option<Vec<PathSym>>, BudgetExceeded> {
    // Condition (1): two different path runs on the same text path.
    let m1 = schema.a_n.intersect(&copy.diverging, budget)?;
    if let Some(w) = m1.shortest_word() {
        return Ok(Some(w));
    }
    // Condition (2): one path run through a doubling rule.
    let m2 = schema.a_n.intersect(&copy.doubling, budget)?;
    Ok(m2.shortest_word())
}

/// Stage 2 (rearranging): the Lemma 4.10 emptiness test over the
/// precompiled rearranging NTA — a witness search of `M ∩ N` that visits
/// only the product pairs `M` and the schema reach together, under the
/// caller's fuel/deadline budget.
pub fn rearranging_witness_with(
    transducer: &TransducerArtifacts,
    nta: &Nta,
    budget: &BudgetHandle,
) -> Result<Option<Tree>, BudgetExceeded> {
    transducer.rearranging.intersect_witness(nta, budget)
}

/// Stage 3: the Theorem 4.11 verdict over precompiled artifacts.
///
/// Both emptiness tests are run under the budget; an exhausted budget
/// aborts with the fuel/deadline report. Emits one sub-span per emptiness
/// test (`topdown/decide/copying`, `topdown/decide/rearranging`) carrying
/// the fuel each charged.
pub fn is_text_preserving_with(
    schema: &SchemaArtifacts,
    transducer: &TransducerArtifacts,
    nta: &Nta,
    budget: &BudgetHandle,
    tracer: &Tracer,
) -> Result<CheckReport, BudgetExceeded> {
    let span = tracer.span("topdown/decide/copying");
    let fuel_before = budget.fuel_spent();
    let copying = copying_witness_with(schema, &transducer.copying, budget)?;
    span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
    if let Some(path) = copying {
        return Ok(CheckReport::Copying { path });
    }
    let span = tracer.span("topdown/decide/rearranging");
    let fuel_before = budget.fuel_spent();
    let rearranging = rearranging_witness_with(transducer, nta, budget)?;
    span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
    if let Some(witness) = rearranging {
        return Ok(CheckReport::Rearranging { witness });
    }
    Ok(CheckReport::TextPreserving)
}

/// Theorem 4.11: decides in PTIME whether `t` is text-preserving over
/// `L(nta)`. Returns a witness for the violated condition otherwise.
///
/// One-shot convenience over the staged pipeline
/// ([`compile_schema_artifacts`] → [`compile_transducer_artifacts`] →
/// [`is_text_preserving_with`]); batch callers should compile the stages
/// once and reuse them (see the `tpx-engine` crate).
pub fn is_text_preserving(t: &Transducer, nta: &Nta) -> CheckReport {
    let budget = BudgetHandle::unlimited();
    let schema = compile_schema_artifacts(nta, &budget).expect("unlimited budget");
    let transducer =
        compile_transducer_artifacts(t, &budget, Tracer::disabled_ref()).expect("unlimited budget");
    is_text_preserving_with(&schema, &transducer, nta, &budget, Tracer::disabled_ref())
        .expect("unlimited budget")
}

/// Lemma 4.9: whether `t` is copying over `L(nta)`; returns a witness text
/// path. PTIME. One-shot convenience over the copy side of the staged
/// pipeline (the rearranging NTA is *not* built).
pub fn copying_witness(t: &Transducer, nta: &Nta) -> Option<Vec<PathSym>> {
    let budget = BudgetHandle::unlimited();
    let schema = compile_schema_artifacts(nta, &budget).expect("unlimited budget");
    let copy = compile_copy_artifacts(t, &budget).expect("unlimited budget");
    copying_witness_with(&schema, &copy, &budget).expect("unlimited budget")
}

/// Lemma 4.10: whether `t` is rearranging over `L(nta)`; returns a witness
/// tree. PTIME. One-shot convenience over the staged pipeline.
pub fn rearranging_witness(t: &Transducer, nta: &Nta) -> Option<Tree> {
    let budget = BudgetHandle::unlimited();
    rearranging_nta(t, &budget)
        .and_then(|m| m.intersect_witness(nta, &budget))
        .expect("unlimited budget")
}

/// Simulates two copies of `a_t` in lock-step, accepting iff both accept
/// and the two state sequences differ somewhere (condition (1) of
/// Lemma 4.5: two *different* path runs).
///
/// States keep the dense `(p, q, flag)` numbering, but only the rows of
/// triples reachable from the initial pairs are filled, through a worklist;
/// the final trim renumbers the survivors in index order, so the result is
/// the automaton the full `2·|Q|²` table trims to. One fuel unit per
/// reachable row `(p, q, flag)`.
fn diverging_pairs_automaton(
    a_t: &Nfa<PathSym>,
    budget: &BudgetHandle,
) -> Result<Nfa<PathSym>, BudgetExceeded> {
    let n = a_t.state_count() as u32;
    let id =
        |p: StateId, q: StateId, diverged: bool| StateId((p.0 * n + q.0) * 2 + u32::from(diverged));
    let mut out: Nfa<PathSym> = Nfa::new();
    out.add_states(2 * (n as usize) * (n as usize));
    let mut seen = vec![false; out.state_count()];
    let mut stack: Vec<(StateId, StateId, bool)> = Vec::new();
    let mut visit = |p: StateId, q: StateId, flag: bool, stack: &mut Vec<_>| {
        let s = id(p, q, flag);
        if !seen[s.index()] {
            seen[s.index()] = true;
            stack.push((p, q, flag));
        }
        s
    };
    for &i in a_t.initial_states() {
        for &j in a_t.initial_states() {
            out.set_initial(visit(i, j, i != j, &mut stack));
        }
    }
    while let Some((p, q, flag)) = stack.pop() {
        budget.charge(1)?;
        let from = id(p, q, flag);
        for (a, p2) in a_t.transitions_from(p) {
            for (b, q2) in a_t.transitions_from(q) {
                if a == b {
                    let to = visit(*p2, *q2, flag || p2 != q2, &mut stack);
                    out.add_transition(from, *a, to);
                }
            }
        }
        if flag && a_t.is_final(p) && a_t.is_final(q) {
            out.set_final(from, true);
        }
    }
    Ok(out.trim())
}

/// One copy of `A_T` with a flag set once a transition uses a rule whose
/// frontier contains the successor state twice (condition (2) of
/// Lemma 4.5).
///
/// One fuel unit per `(state, symbol)` rule row.
fn doubling_marked_automaton(
    t: &Transducer,
    budget: &BudgetHandle,
) -> Result<Nfa<PathSym>, BudgetExceeded> {
    let n = t.state_count() as u32;
    let id = |q: TdState, flag: bool| StateId(q.0 * 2 + u32::from(flag));
    let sink = StateId(2 * n); // accepting, flag already consumed
    let mut out: Nfa<PathSym> = Nfa::new();
    out.add_states(2 * n as usize + 1);
    out.set_initial(id(t.initial(), false));
    out.set_final(sink, true);
    for q in t.states() {
        for sym in 0..t.symbol_count() {
            budget.charge(1)?;
            let s = Symbol(sym as u32);
            let Some(rhs) = t.rhs(q, s) else { continue };
            let states = frontier_states(rhs);
            for &p in &states {
                let copies = states.iter().filter(|&&x| x == p).count();
                for flag in [false, true] {
                    out.add_transition(id(q, flag), PathSym::Elem(s), id(p, flag || copies >= 2));
                }
            }
        }
        if t.text_rule(q) {
            out.add_transition(id(q, true), PathSym::Text, sink);
        }
    }
    Ok(out.trim())
}

/// The role of an NTA state of the rearranging automaton `M` (Lemma 4.10).
///
/// Layout of the dense state space over `n` transducer states:
/// `Any`, then `S0(q)`, then `D(q₁, q₂)` (both runs at the same node), then
/// `B1(q)` (run towards the doc-earlier leaf `v₁`), then `B2(q)` (towards
/// `v₂`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Any,
    S0(TdState),
    D(TdState, TdState),
    B1(TdState),
    B2(TdState),
}

struct RearrangeSpace {
    n: u32,
}

impl RearrangeSpace {
    fn size(&self) -> usize {
        (1 + 3 * self.n + self.n * self.n) as usize
    }
    fn any(&self) -> State {
        State(0)
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
    fn role(&self, s: State) -> Role {
        let i = s.0;
        if i == 0 {
            Role::Any
        } else if i < 1 + self.n {
            Role::S0(TdState(i - 1))
        } else if i < 1 + self.n + self.n * self.n {
            let j = i - 1 - self.n;
            Role::D(TdState(j / self.n), TdState(j % self.n))
        } else if i < 1 + 2 * self.n + self.n * self.n {
            Role::B1(TdState(i - 1 - self.n - self.n * self.n))
        } else {
            Role::B2(TdState(i - 1 - 2 * self.n - self.n * self.n))
        }
    }

    /// The row `δ(role, σ)` of `M` over dense role ids, given the frontier
    /// of `rhs(q, σ)` for every transducer state (`None`: no rule).
    fn row(&self, role: State, frontier: &[Option<Vec<TdState>>]) -> Option<Row> {
        let f = |q: TdState| frontier[q.index()].as_deref();
        match self.role(role) {
            Role::Any => Some(Row::AnyHedge),
            Role::S0(q) => {
                // S0(q): continue single run, or diverge.
                let ls = f(q)?;
                let mut singles: Vec<State> = ls.iter().map(|&p| self.s0(p)).collect();
                let mut splits: Vec<(State, State)> = Vec::new();
                for (earlier, later) in swap_pairs(ls) {
                    // Both runs descend into the same child: run1 = `later`
                    // (reaches v₁), run2 = `earlier` (reaches v₂).
                    singles.push(self.d(later, earlier));
                    // Runs split to different children c₁ < c₂: run1 into c₁.
                    splits.push((self.b1(later), self.b2(earlier)));
                }
                Some(Row::Content(singles, splits))
            }
            // D(q1, q2): continue both runs in the same child, or split with
            // run1 (towards v₁) into a strictly earlier child.
            Role::D(q1, q2) => {
                let (ls1, ls2) = (f(q1)?, f(q2)?);
                let mut singles = Vec::new();
                let mut splits = Vec::new();
                for &p1 in ls1 {
                    for &p2 in ls2 {
                        singles.push(self.d(p1, p2));
                        splits.push((self.b1(p1), self.b2(p2)));
                    }
                }
                Some(Row::Content(singles, splits))
            }
            // B1(q) / B2(q): continue a single run.
            Role::B1(q) => Some(Row::Content(
                f(q)?.iter().map(|&p| self.b1(p)).collect(),
                Vec::new(),
            )),
            Role::B2(q) => Some(Row::Content(
                f(q)?.iter().map(|&p| self.b2(p)).collect(),
                Vec::new(),
            )),
        }
    }
}

/// One content model of `M`, over role ids.
enum Row {
    /// `Any*`: any children hedge — crucially including the *empty* one, so
    /// an element leaf in a don't-care position still evaluates to `Any`.
    /// (An `Any* · X · Any*`-shaped row here would demand at least one
    /// child, silently missing every witness with an element leaf outside
    /// the swap paths.)
    AnyHedge,
    /// `Any* · X · Any*` with `X` from the singles, plus the split words
    /// `Any* B1 Any* B2 Any*`.
    Content(Vec<State>, Vec<(State, State)>),
}

impl Row {
    /// The role ids the row mentions besides `Any`.
    fn targets(&self) -> impl Iterator<Item = State> + '_ {
        let (singles, splits): (&[State], &[(State, State)]) = match self {
            Row::AnyHedge => (&[], &[]),
            Row::Content(singles, splits) => (singles, splits),
        };
        singles
            .iter()
            .copied()
            .chain(splits.iter().flat_map(|&(x1, x2)| [x1, x2]))
    }

    /// The content NFA, with every role id (and `any`) mapped through `id`.
    ///
    /// Don't-care positions loop on the single `Any` state rather than on
    /// every state of the space: every schema subtree evaluates to `Any`
    /// (its row accepts every hedge over `Any`, including the empty one),
    /// so the accepted tree language is unchanged while each row stays
    /// O(|singles| + |splits|) instead of O(n²) transitions.
    fn nfa(&self, any: State, id: impl Fn(State) -> State) -> Nfa<State> {
        let mut nfa: Nfa<State> = Nfa::new();
        let s0 = nfa.add_state();
        nfa.set_initial(s0);
        nfa.add_transition(s0, id(any), s0);
        let Row::Content(singles, splits) = self else {
            nfa.set_final(s0, true);
            return nfa;
        };
        let s1 = nfa.add_state();
        nfa.set_final(s1, true);
        nfa.add_transition(s1, id(any), s1);
        for &x in singles {
            nfa.add_transition(s0, id(x), s1);
        }
        if !splits.is_empty() {
            let mid = nfa.add_state();
            nfa.add_transition(mid, id(any), mid);
            for &(x1, x2) in splits {
                nfa.add_transition(s0, id(x1), mid);
                nfa.add_transition(mid, id(x2), s1);
            }
        }
        nfa
    }
}

/// Ordered pairs `(earlier, later)` of *distinct frontier positions* of a
/// rule's frontier `f`: `earlier` appears strictly before `later`. A swap
/// is witnessed when the run that continues from `earlier` reaches the
/// doc-*later* leaf `v₂` and the run from `later` reaches `v₁`.
fn swap_pairs(f: &[TdState]) -> Vec<(TdState, TdState)> {
    let mut out = Vec::new();
    for j in 0..f.len() {
        for j2 in (j + 1)..f.len() {
            let pair = (f[j], f[j2]);
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
    }
    out
}

/// The Lemma 4.10 automaton: an NTA accepting exactly the trees on which
/// `t` rearranges (over all text trees; intersect with a schema to restrict).
///
/// Built from the root: a worklist over roles, started at `S0(q₀)` and
/// `Any`, follows the edges the rows encode (`S0 → S0`, swap pairs →
/// `D`/`B1`/`B2`, `D → D`/`B1`/`B2`, `B1 → B1`, `B2 → B2`). Only the
/// reached roles get states and content NFAs, numbered in dense-layout
/// order, so the final trim — which keeps its survivors in index order —
/// yields state for state the automaton built over the whole role space.
///
/// One fuel unit per reachable `(role, symbol)` row (the dominant cost —
/// each row is a fresh horizontal NFA), plus the trim's.
pub fn rearranging_nta(t: &Transducer, budget: &BudgetHandle) -> Result<Nta, BudgetExceeded> {
    let sp = RearrangeSpace {
        n: t.state_count() as u32,
    };
    // frontiers[σ][q]: the frontier of rhs(q, σ), if that rule exists.
    let frontiers: Vec<Vec<Option<Vec<TdState>>>> = (0..t.symbol_count())
        .map(|sym| {
            t.states()
                .map(|q| t.rhs(q, Symbol(sym as u32)).map(frontier_states))
                .collect()
        })
        .collect();

    // Pass 1: the rows of every role reachable from the root.
    let mut reached = vec![false; sp.size()];
    let mut stack = vec![sp.any(), sp.s0(t.initial())];
    for &r in &stack {
        reached[r.index()] = true;
    }
    let mut rows: Vec<(State, Symbol, Row)> = Vec::new();
    while let Some(role) = stack.pop() {
        for (sym, frontier) in frontiers.iter().enumerate() {
            budget.charge(1)?;
            let Some(row) = sp.row(role, frontier) else {
                continue;
            };
            for x in row.targets() {
                if !reached[x.index()] {
                    reached[x.index()] = true;
                    stack.push(x);
                }
            }
            rows.push((role, Symbol(sym as u32), row));
        }
    }

    // Pass 2: states for the reached roles, in dense-layout order.
    let mut m = Nta::new(t.symbol_count());
    let mut local = vec![State(u32::MAX); sp.size()];
    for (i, _) in reached.iter().enumerate().filter(|(_, &r)| r) {
        let q = m.add_state();
        local[i] = q;
        let text_ok = match sp.role(State(i as u32)) {
            Role::Any => true,
            Role::B1(p) | Role::B2(p) => t.text_rule(p),
            Role::S0(_) | Role::D(_, _) => false,
        };
        m.set_text_ok(q, text_ok);
    }
    for (role, sym, row) in &rows {
        m.set_content(
            local[role.index()],
            *sym,
            row.nfa(sp.any(), |x| local[x.index()]),
        );
    }
    m.add_root(local[sp.s0(t.initial()).index()]);
    m.trim(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::semantic;
    use tpx_schema::samples::recipe_dtd;
    use tpx_trees::samples::recipe_alphabet;
    use tpx_trees::Alphabet;

    fn recipe_setup() -> (Alphabet, Nta) {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        (al, nta)
    }

    #[test]
    fn example_4_2_is_text_preserving_over_recipe_dtd() {
        let (al, nta) = recipe_setup();
        let t = samples::example_4_2(&al);
        assert!(copying_witness(&t, &nta).is_none());
        assert!(rearranging_witness(&t, &nta).is_none());
        assert!(is_text_preserving(&t, &nta).is_preserving());
    }

    #[test]
    fn copying_example_detected_with_witness_path() {
        let (al, nta) = recipe_setup();
        let t = samples::copying_example(&al);
        let path = copying_witness(&t, &nta).expect("must be copying");
        // The witness path must end in text and be a real schema path on
        // which T has two runs / a doubling.
        assert_eq!(*path.last().unwrap(), PathSym::Text);
        let report = is_text_preserving(&t, &nta);
        assert!(matches!(report, CheckReport::Copying { .. }));
    }

    #[test]
    fn rearranging_example_detected_with_witness_tree() {
        let (al, nta) = recipe_setup();
        let t = samples::rearranging_example(&al);
        assert!(copying_witness(&t, &nta).is_none());
        let w = rearranging_witness(&t, &nta).expect("must be rearranging");
        // The witness is a schema tree on which the semantic oracle agrees.
        assert!(nta.accepts(&w));
        assert!(semantic::rearranging_on(&t, &w));
        assert!(!semantic::text_preserving_on(
            &t,
            &Tree::from_hedge(tpx_trees::make_value_unique(w.as_hedge())).unwrap()
        ));
    }

    #[test]
    fn doubling_within_one_rule_is_copying() {
        // (q0, a) → a(q q): q appears twice.
        let al = Alphabet::from_labels(["a"]);
        let mut b = crate::transducer::TransducerBuilder::new(&al, "q0");
        b.state("q");
        b.rule("q0", "a", "a(q q)");
        b.text_rule("q");
        let t = b.finish();
        // Schema: a with text children.
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("r");
        nb.rule("r", "a", "rt*");
        nb.text_rule("rt");
        let nta = nb.finish();
        assert!(copying_witness(&t, &nta).is_some());
    }

    #[test]
    fn two_runs_through_different_states_is_copying() {
        // (q0, a) → a(p r); both p and r copy text.
        let al = Alphabet::from_labels(["a"]);
        let mut b = crate::transducer::TransducerBuilder::new(&al, "q0");
        b.state("p");
        b.state("r");
        b.rule("q0", "a", "a(p r)");
        b.text_rule("p");
        b.text_rule("r");
        let t = b.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "st*");
        nb.text_rule("st");
        let nta = nb.finish();
        assert!(copying_witness(&t, &nta).is_some());
    }

    #[test]
    fn copying_outside_schema_is_ignored() {
        // T copies below b-nodes, but the schema has no b.
        let al = Alphabet::from_labels(["a", "b"]);
        let mut b = crate::transducer::TransducerBuilder::new(&al, "q0");
        b.state("q");
        b.rule("q0", "a", "a(q0)");
        b.rule("q0", "b", "b(q q)");
        b.text_rule("q0");
        b.text_rule("q");
        let t = b.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(s | st)*");
        nb.text_rule("st");
        let nta = nb.finish();
        assert!(copying_witness(&t, &nta).is_none());
        assert!(is_text_preserving(&t, &nta).is_preserving());
    }

    #[test]
    fn swap_within_single_rule_is_rearranging() {
        // (q0, a) → a(p2 p1) where p1 handles the first child... actually a
        // swap needs occurrence order vs doc order: rule emits second-child
        // content before first-child content via two sibling subtrees:
        // (q0, a) → a(b(pb) c(pc)) cannot reorder;  instead classic swap:
        // (q0, a) → a(p p) is copying. True rearranging: route text of the
        // b-child after the c-child by separate states with swapped output
        // order.
        let al = Alphabet::from_labels(["root", "b", "c"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.state("pb");
        tb.state("pc");
        tb.state("q");
        // Output pc's result (c-subtree text) before pb's (b-subtree text).
        tb.rule("q0", "root", "root(pc pb)");
        tb.rule("pb", "b", "b(q)");
        tb.rule("pc", "c", "c(q)");
        tb.text_rule("q");
        let t = tb.finish();
        // Schema: root(b c), each with one text child.
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "root", "sb sc");
        nb.rule("sb", "b", "st");
        nb.rule("sc", "c", "st");
        nb.text_rule("st");
        let nta = nb.finish();
        let w = rearranging_witness(&t, &nta).expect("swap must be found");
        assert!(nta.accepts(&w));
        assert!(semantic::rearranging_on(&t, &w));
        assert!(copying_witness(&t, &nta).is_none());
    }

    #[test]
    fn swap_with_element_leaf_sibling_is_detected() {
        // Regression: the `Any` row of the rearranging NTA used to demand
        // at least one child, so an *element leaf* (a σ-node with no
        // children) in a don't-care position derived no state at all and
        // every witness containing one was missed. Here the only schema
        // tree is root(b(text) c(text) d) — d is an element leaf the
        // transducer deletes — and the transducer swaps the b/c text.
        let al = Alphabet::from_labels(["root", "b", "c", "d"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.state("pb");
        tb.state("pc");
        tb.state("q");
        tb.rule("q0", "root", "root(pc pb)");
        tb.rule("pb", "b", "b(q)");
        tb.rule("pc", "c", "c(q)");
        tb.text_rule("q");
        let t = tb.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "root", "sb sc sd");
        nb.rule("sb", "b", "st");
        nb.rule("sc", "c", "st");
        nb.rule("sd", "d", "%eps");
        nb.text_rule("st");
        let nta = nb.finish();
        let w = rearranging_witness(&t, &nta).expect("swap next to an element leaf must be found");
        assert!(nta.accepts(&w));
        assert!(semantic::rearranging_on(&t, &w));
        assert!(matches!(
            is_text_preserving(&t, &nta),
            CheckReport::Rearranging { .. }
        ));
    }

    #[test]
    fn deleting_one_side_is_not_rearranging() {
        // Same as above but pb never outputs text: no swap materializes.
        let al = Alphabet::from_labels(["root", "b", "c"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        tb.state("pb");
        tb.state("pc");
        tb.state("q");
        tb.rule("q0", "root", "root(pc pb)");
        tb.rule("pb", "b", "b");
        tb.rule("pc", "c", "c(q)");
        tb.text_rule("q");
        let t = tb.finish();
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "root", "sb sc");
        nb.rule("sb", "b", "st");
        nb.rule("sc", "c", "st");
        nb.text_rule("st");
        let nta = nb.finish();
        assert!(rearranging_witness(&t, &nta).is_none());
        assert!(is_text_preserving(&t, &nta).is_preserving());
    }

    #[test]
    fn swap_below_shared_path_is_detected() {
        // The divergence happens two levels above the text leaves, with a
        // shared-node double phase in between.
        let al = Alphabet::from_labels(["root", "mid", "b", "c"]);
        let mut tb = crate::transducer::TransducerBuilder::new(&al, "q0");
        for s in ["pb", "pc", "q"] {
            tb.state(s);
        }
        // Swap at the root rule: pc's region before pb's.
        tb.rule("q0", "root", "root(pc pb)");
        // Both runs traverse the same mid node.
        tb.rule("pb", "mid", "mid(pb)");
        tb.rule("pc", "mid", "mid(pc)");
        tb.rule("pb", "b", "b(q)");
        tb.rule("pc", "c", "c(q)");
        tb.text_rule("q");
        let t = tb.finish();
        // Schema: root(mid(b c)).
        let mut nb = tpx_treeauto::NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "root", "sm");
        nb.rule("sm", "mid", "sb sc");
        nb.rule("sb", "b", "st");
        nb.rule("sc", "c", "st");
        nb.text_rule("st");
        let nta = nb.finish();
        let w = rearranging_witness(&t, &nta).expect("deep swap must be found");
        assert!(semantic::rearranging_on(&t, &w));
    }
}
