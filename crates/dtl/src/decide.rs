//! The symbolic deciders of Section 5.3 / 5.4: text-preservation for
//! `DTL_MSO` (Theorem 5.12) and `DTL_XPath` (Theorem 5.18), and the maximal
//! sub-schema (paper conclusion).
//!
//! The construction mirrors the paper's `Σ_mark` recipe very closely. Each
//! building block — `A^{q,q'}_T` (configuration reachability, via the MSO
//! encoding of [`crate::reach`]), the pattern automata `A^φ_•`, `A^α_{•,•1}`
//! and the marker-relation automata `A_{<,◦}` — is compiled *separately* at
//! a narrow context of at most two marking bits, then cylindrified into the
//! common marker alphabet, intersected per condition tuple (`G`, `H`, `I`,
//! `J` in the paper), united, and finally the markers are projected away
//! with singleton guards. Everything after the narrow compiles is
//! complement-free, which keeps the pipeline tractable.
//!
//! Marker conventions (paper → bit position):
//!
//! * copying: `• = 0, •1 = 1, •2 = 2, ◦ = 3`;
//! * rearranging: `• = 0, •1 = 1, •2 = 2, ◦1 = 3, ◦2 = 4`.

use crate::pattern::{MsoDefinable, MsoPatterns};
use crate::reach::ReachSystem;
use crate::transducer::{frontier_calls, DtlState, DtlTransducer};
use std::collections::HashMap;

use tpx_mso::formula::derived;
use tpx_mso::{
    compile_cached, lift, project_bit, strip_bits, CompileCache, CompileError, Formula, MSym, Var,
    VarGen, VarKey,
};
use tpx_obs::{SpanFields, Tracer};
use tpx_treeauto::{nbta_to_nta, nta_to_nbta, EncSym, Nbta, Nta};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::Tree;

/// Failure modes of the budgeted symbolic DTL pipeline.
#[derive(Clone, Debug)]
pub enum DtlDecideError {
    /// The fuel/deadline budget ran out mid-construction.
    Budget(BudgetExceeded),
    /// An invariant of the construction itself failed (e.g. a witness of
    /// the schema product that does not decode to an unranked tree).
    Internal(String),
}

impl std::fmt::Display for DtlDecideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtlDecideError::Budget(b) => write!(f, "dtl decision {b}"),
            DtlDecideError::Internal(msg) => write!(f, "dtl decision internal error: {msg}"),
        }
    }
}

impl std::error::Error for DtlDecideError {}

impl From<BudgetExceeded> for DtlDecideError {
    fn from(b: BudgetExceeded) -> Self {
        DtlDecideError::Budget(b)
    }
}

impl From<CompileError> for DtlDecideError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Budget(b) => DtlDecideError::Budget(b),
            other => DtlDecideError::Internal(other.to_string()),
        }
    }
}

/// The outcome of [`dtl_text_preserving`].
#[derive(Clone, Debug)]
pub enum DtlCheckReport {
    /// Text-preserving over the schema.
    Preserving,
    /// Not text-preserving; a schema tree on which `T` copies or
    /// rearranges (text values are placeholders).
    NotPreserving {
        /// The witness tree.
        witness: Tree,
    },
}

impl DtlCheckReport {
    /// Whether the transduction is text-preserving.
    pub fn is_preserving(&self) -> bool {
        matches!(self, DtlCheckReport::Preserving)
    }
}

/// One transducer rule, compiled: (state, guard formula, calls as
/// (state, step formula)).
type RuleRow = (usize, Formula, Vec<(usize, Formula)>);

/// Shared state for building the component automata.
struct AutoBuilder {
    n_symbols: usize,
    cache: CompileCache,
    gen: VarGen,
    sys: ReachSystem,
    /// Per rule: (state, guard formula at HOLE_X, calls as (state, step
    /// formula at HOLE_X/HOLE_Y)).
    rules: Vec<RuleRow>,
    text_states: Vec<usize>,
    initial: usize,
    /// Canonical variables for the narrow (≤ 2 bit) compiles.
    vx: Var,
    vy: Var,
    rooted_memo: HashMap<usize, Nbta<MSym>>,
    reach_text_memo: HashMap<usize, Nbta<MSym>>,
}

impl AutoBuilder {
    fn new<P: MsoDefinable>(t: &DtlTransducer<P>, n_symbols: usize) -> Self {
        let mut gen = VarGen::new();
        gen.reserve(Var(MsoPatterns::HOLE_Y.0 + 1));
        let mut rules = Vec::new();
        for rule in t.rules() {
            let guard = t
                .patterns()
                .unary_formula(&rule.guard, MsoPatterns::HOLE_X, &mut gen);
            let calls: Vec<(usize, Formula)> = frontier_calls(&rule.rhs)
                .into_iter()
                .map(|(q2, alpha)| {
                    let step = t.patterns().binary_formula(
                        t.binary_pattern(alpha),
                        MsoPatterns::HOLE_X,
                        MsoPatterns::HOLE_Y,
                        &mut gen,
                    );
                    (q2.index(), step)
                })
                .collect();
            rules.push((rule.state.index(), guard, calls));
        }
        let mut sys = ReachSystem::new(t.state_count(), &mut gen);
        for (state, guard, calls) in &rules {
            for (to, step) in calls {
                sys.add_edge(*state, guard.clone(), step.clone(), *to);
            }
        }
        let text_states = t
            .states()
            .filter(|&q| t.text_rule(q))
            .map(DtlState::index)
            .collect();
        let vx = gen.var();
        let vy = gen.var();
        AutoBuilder {
            n_symbols,
            cache: CompileCache::new(),
            gen,
            sys,
            rules,
            text_states,
            initial: t.initial().index(),
            vx,
            vy,
            rooted_memo: HashMap::new(),
            reach_text_memo: HashMap::new(),
        }
    }

    /// Compiles a formula with free variable `vx` at width 1.
    fn compile1(
        &mut self,
        phi: &Formula,
        budget: &BudgetHandle,
    ) -> Result<Nbta<MSym>, CompileError> {
        compile_cached(
            phi,
            &[VarKey::Fo(self.vx)],
            self.n_symbols,
            &mut self.cache,
            budget,
        )
    }

    /// Compiles a formula with free variables `vx, vy` at width 2.
    fn compile2(
        &mut self,
        phi: &Formula,
        budget: &BudgetHandle,
    ) -> Result<Nbta<MSym>, CompileError> {
        compile_cached(
            phi,
            &[VarKey::Fo(self.vx), VarKey::Fo(self.vy)],
            self.n_symbols,
            &mut self.cache,
            budget,
        )
    }

    /// `A^{q0,q}_{root,•}`: some root-anchored run reaches `(q, vx)`.
    fn rooted(&mut self, q: usize, budget: &BudgetHandle) -> Result<Nbta<MSym>, CompileError> {
        if let Some(hit) = self.rooted_memo.get(&q) {
            return Ok(hit.clone());
        }
        let r = self.gen.var();
        let phi = Formula::exists(
            r,
            Formula::Root(r).and(self.sys.reach(self.initial, q, r, self.vx)),
        );
        let a = self.compile1(&phi, budget)?;
        self.rooted_memo.insert(q, a.clone());
        Ok(a)
    }

    /// A text path run from `(p, vx)` ending at the text node `vy`.
    fn reach_text(&mut self, p: usize, budget: &BudgetHandle) -> Result<Nbta<MSym>, CompileError> {
        if let Some(hit) = self.reach_text_memo.get(&p) {
            return Ok(hit.clone());
        }
        let ends = self.text_states.clone();
        let phi = Formula::IsText(self.vy).and(Formula::any(
            ends.into_iter()
                .map(|e| self.sys.reach(p, e, self.vx, self.vy)),
        ));
        let a = self.compile2(&phi, budget)?;
        self.reach_text_memo.insert(p, a.clone());
        Ok(a)
    }

    /// Guard formula instantiated at `vx` and compiled (width 1).
    fn guard_auto(
        &mut self,
        guard: &Formula,
        budget: &BudgetHandle,
    ) -> Result<Nbta<MSym>, CompileError> {
        let phi = guard.rename_fo(MsoPatterns::HOLE_X, self.vx);
        self.compile1(&phi, budget)
    }

    /// Step formula instantiated at `(vx, vy)` and compiled (width 2).
    fn step_auto(
        &mut self,
        step: &Formula,
        budget: &BudgetHandle,
    ) -> Result<Nbta<MSym>, CompileError> {
        let phi = step
            .rename_fo(MsoPatterns::HOLE_X, self.vx)
            .rename_fo(MsoPatterns::HOLE_Y, self.vy);
        self.compile2(&phi, budget)
    }

    /// `vx <lex vy` (document order), width 2.
    fn doc_before_auto(&mut self, budget: &BudgetHandle) -> Result<Nbta<MSym>, CompileError> {
        let phi = derived::doc_before(self.vx, self.vy, &mut self.gen);
        self.compile2(&phi, budget)
    }

    /// `vx ≠ vy`, width 2.
    fn neq_auto(&mut self, budget: &BudgetHandle) -> Result<Nbta<MSym>, CompileError> {
        let phi = Formula::Eq(self.vx, self.vy).not();
        self.compile2(&phi, budget)
    }

    /// The copying counter-example automaton (markers `•, •1, •2, ◦`),
    /// with the markers already projected away (a sentence automaton).
    fn copy_auto(&mut self, budget: &BudgetHandle) -> Result<Nbta<EncSym>, DtlDecideError> {
        let mut disjuncts: Vec<Nbta<EncSym>> = Vec::new();
        let rules = self.rules.clone();
        for (state, guard, calls) in &rules {
            let rooted = self.rooted(*state, budget)?;
            let guard_a = self.guard_auto(guard, budget)?;
            for (i, (qi, step_i)) in calls.iter().enumerate() {
                for (j, (qj, step_j)) in calls.iter().enumerate() {
                    if i >= j {
                        continue;
                    }
                    // Markers: • = 0, •1 = 1, •2 = 2, ◦ = 3.
                    // Doubling (Lemma 5.4 condition 2): same state, same
                    // target node, two frontier positions.
                    if qi == qj {
                        let factors = vec![
                            Factor::new(rooted.clone(), vec![0]),
                            Factor::new(guard_a.clone(), vec![0]),
                            Factor::new(self.step_auto(step_i, budget)?, vec![0, 1]),
                            Factor::new(self.step_auto(step_j, budget)?, vec![0, 1]),
                            Factor::new(self.reach_text(*qi, budget)?, vec![1, 3]),
                        ];
                        disjuncts.push(join_eliminate(factors, self.n_symbols, budget)?);
                    }
                    // Two different runs (condition 1): distinct successor
                    // configurations, common end node.
                    let mut factors = vec![
                        Factor::new(rooted.clone(), vec![0]),
                        Factor::new(guard_a.clone(), vec![0]),
                        Factor::new(self.step_auto(step_i, budget)?, vec![0, 1]),
                        Factor::new(self.step_auto(step_j, budget)?, vec![0, 2]),
                        Factor::new(self.reach_text(*qi, budget)?, vec![1, 3]),
                        Factor::new(self.reach_text(*qj, budget)?, vec![2, 3]),
                    ];
                    if qi == qj {
                        factors.push(Factor::new(self.neq_auto(budget)?, vec![1, 2]));
                    }
                    disjuncts.push(join_eliminate(factors, self.n_symbols, budget)?);
                }
            }
        }
        Ok(union_sentences(disjuncts, self.n_symbols, budget)?)
    }

    /// The rearranging counter-example automaton (markers
    /// `• = 0, •1 = 1, •2 = 2, ◦1 = 3, ◦2 = 4`), markers projected.
    fn rearrange_auto(&mut self, budget: &BudgetHandle) -> Result<Nbta<EncSym>, DtlDecideError> {
        let mut disjuncts: Vec<Nbta<EncSym>> = Vec::new();
        let rules = self.rules.clone();
        for (state, guard, calls) in &rules {
            let rooted = self.rooted(*state, budget)?;
            let guard_a = self.guard_auto(guard, budget)?;
            for (e, (p1, step_e)) in calls.iter().enumerate() {
                for (l, (q1, step_l)) in calls.iter().enumerate() {
                    if e > l {
                        continue;
                    }
                    // α from the later position targets •1; β from the
                    // earlier position targets •2; the later-output run
                    // must end doc-earlier: ◦1 <lex ◦2.
                    let mut factors = vec![
                        Factor::new(rooted.clone(), vec![0]),
                        Factor::new(guard_a.clone(), vec![0]),
                        Factor::new(self.step_auto(step_l, budget)?, vec![0, 1]),
                        Factor::new(self.step_auto(step_e, budget)?, vec![0, 2]),
                        Factor::new(self.reach_text(*q1, budget)?, vec![1, 3]),
                        Factor::new(self.reach_text(*p1, budget)?, vec![2, 4]),
                        Factor::new(self.doc_before_auto(budget)?, vec![3, 4]),
                    ];
                    if e == l {
                        // Condition (2): one position, two targets with the
                        // doc-earlier target's run ending doc-later:
                        // •2 <lex •1.
                        factors.push(Factor::new(self.doc_before_auto(budget)?, vec![2, 1]));
                    }
                    disjuncts.push(join_eliminate(factors, self.n_symbols, budget)?);
                }
            }
        }
        Ok(union_sentences(disjuncts, self.n_symbols, budget)?)
    }
}

/// A relation over marker variables: an automaton whose bit `i` marks the
/// variable `vars[i]`.
struct Factor {
    auto: Nbta<MSym>,
    vars: Vec<usize>,
}

impl Factor {
    fn new(auto: Nbta<MSym>, vars: Vec<usize>) -> Self {
        Factor { auto, vars }
    }
}

/// Joins the factors and existentially eliminates every marker variable,
/// one at a time in increasing order (the condition graphs of Lemmas
/// 5.4/5.5 have treewidth 2, so at most three variables are ever live —
/// keeping every intermediate product over a tiny alphabet).
fn join_eliminate(
    mut factors: Vec<Factor>,
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<EncSym>, BudgetExceeded> {
    let mut all_vars: Vec<usize> = factors.iter().flat_map(|f| f.vars.clone()).collect();
    all_vars.sort_unstable();
    all_vars.dedup();
    for &v in &all_vars {
        // Factors mentioning v join; the rest pass through.
        let (touch, rest): (Vec<Factor>, Vec<Factor>) =
            factors.into_iter().partition(|f| f.vars.contains(&v));
        factors = rest;
        let mut scope: Vec<usize> = touch.iter().flat_map(|f| f.vars.clone()).collect();
        scope.sort_unstable();
        scope.dedup();
        // Put v last so project_bit can drop it.
        scope.retain(|&x| x != v);
        scope.push(v);
        let width = scope.len();
        let mut joined: Option<Nbta<MSym>> = None;
        for f in touch {
            let positions: Vec<usize> = f
                .vars
                .iter()
                .map(|x| scope.iter().position(|y| y == x).unwrap())
                .collect();
            budget.charge(f.auto.state_count() as u64)?;
            let lifted = lift(&f.auto, n_symbols, &positions, width);
            joined = Some(match joined {
                None => lifted,
                Some(a) => a.intersect(&lifted, budget)?.trim(budget)?,
            });
        }
        let joined = joined.expect("v came from some factor");
        let projected = project_bit(&joined, n_symbols, width - 1, true, budget)?;
        scope.pop();
        factors.push(Factor {
            auto: projected,
            vars: scope,
        });
    }
    // All variables eliminated: remaining factors are sentences.
    let mut sentence: Option<Nbta<MSym>> = None;
    for f in factors {
        debug_assert!(f.vars.is_empty());
        sentence = Some(match sentence {
            None => f.auto,
            Some(a) => a.intersect(&f.auto, budget)?.trim(budget)?,
        });
    }
    let sentence = sentence.unwrap_or_else(|| tpx_mso::atomic::true_auto(n_symbols, 0));
    strip_bits(&sentence, n_symbols, budget)
}

fn union_sentences(
    items: Vec<Nbta<EncSym>>,
    n_symbols: usize,
    budget: &BudgetHandle,
) -> Result<Nbta<EncSym>, BudgetExceeded> {
    let mut out: Option<Nbta<EncSym>> = None;
    for item in items {
        out = Some(match out {
            None => item,
            Some(a) => a.union(&item).trim(budget)?,
        });
    }
    match out {
        Some(a) => Ok(a),
        None => strip_bits(
            &tpx_mso::atomic::false_auto(n_symbols, 0),
            n_symbols,
            budget,
        ),
    }
}

/// The regular language of counter-example trees over `Trees_Σ(Text)`: the
/// compiled `A^copy ∪ A^rearrange` of Section 5.3.
///
/// Every MSO compile, product, trim and projection along the way runs under
/// the fuel/deadline budget. Emits one sub-span per compiled half
/// (`dtl/counterexample/copying`, `dtl/counterexample/rearranging`)
/// carrying the fuel charged and the automaton size.
pub fn counterexample_nbta<P: MsoDefinable>(
    t: &DtlTransducer<P>,
    n_symbols: usize,
    budget: &BudgetHandle,
    tracer: &Tracer,
) -> Result<Nbta<EncSym>, DtlDecideError> {
    let mut b = AutoBuilder::new(t, n_symbols);
    let span = tracer.span("dtl/counterexample/copying");
    let fuel_before = budget.fuel_spent();
    let copy = b.copy_auto(budget)?;
    span.exit_with(
        SpanFields::new()
            .fuel(budget.fuel_spent() - fuel_before)
            .size(copy.state_count()),
    );
    let span = tracer.span("dtl/counterexample/rearranging");
    let fuel_before = budget.fuel_spent();
    let rearrange = b.rearrange_auto(budget)?;
    span.exit_with(
        SpanFields::new()
            .fuel(budget.fuel_spent() - fuel_before)
            .size(rearrange.state_count()),
    );
    Ok(copy.union(&rearrange).trim(budget)?)
}

/// Schema-side artifact of the staged DTL pipeline: the trimmed NBTA over
/// the binary encoding accepting exactly the schema trees. Depends only on
/// the schema, so the engine layer caches it across transducers.
#[derive(Clone)]
pub struct DtlSchemaArtifacts {
    /// `nta_to_nbta(nta).trim()`.
    pub schema: Nbta<EncSym>,
}

impl DtlSchemaArtifacts {
    /// Total state count — the artifact's size measure.
    pub fn size(&self) -> usize {
        self.schema.state_count()
    }
}

/// Transducer-side artifact of the staged DTL pipeline: the compiled
/// counter-example automaton `A^copy ∪ A^rearrange` of Section 5.3. This is
/// the expensive MSO→NBTA compilation; it depends only on the transducer
/// and the alphabet size, so the engine layer caches it across schemas over
/// the same alphabet.
#[derive(Clone)]
pub struct DtlTransducerArtifacts {
    /// The counter-example sentence automaton over the binary encoding.
    pub counterexample: Nbta<EncSym>,
    /// Alphabet size the automaton was compiled for.
    pub n_symbols: usize,
}

impl DtlTransducerArtifacts {
    /// Total state count — the artifact's size measure.
    pub fn size(&self) -> usize {
        self.counterexample.state_count()
    }
}

/// Stage 1 (schema side): encode and trim the schema NTA.
pub fn compile_schema_nbta(
    nta: &Nta,
    budget: &BudgetHandle,
) -> Result<DtlSchemaArtifacts, BudgetExceeded> {
    Ok(DtlSchemaArtifacts {
        schema: nta_to_nbta(nta).trim(budget)?,
    })
}

/// Stage 1 (transducer side): compile the counter-example automaton — the
/// expensive MSO→NBTA stage, and the usual place a tight fuel budget trips
/// on hard instances. See [`counterexample_nbta`] for the sub-spans
/// emitted.
pub fn compile_counterexample<P: MsoDefinable>(
    t: &DtlTransducer<P>,
    n_symbols: usize,
    budget: &BudgetHandle,
    tracer: &Tracer,
) -> Result<DtlTransducerArtifacts, DtlDecideError> {
    Ok(DtlTransducerArtifacts {
        counterexample: counterexample_nbta(t, n_symbols, budget, tracer)?,
        n_symbols,
    })
}

/// Stage 2: intersect precompiled artifacts and extract a witness. This is
/// the cheap final step of Theorems 5.12 / 5.18. A witness that fails to
/// decode to an unranked tree is reported as [`DtlDecideError::Internal`]
/// instead of panicking.
///
/// Emits `dtl/decide/product` around the lazy product exploration and
/// `dtl/decide/witness` around the witness decoding, each carrying the
/// fuel charged. The product is never materialized:
/// [`Nbta::intersect_witness`] explores only derivable
/// counterexample×schema state pairs and exits at the first accepting one,
/// so a non-preserving program is reported as soon as *one* counterexample
/// tree is derivable, and a preserving one costs only the reachable product
/// — not the full `|Q₁|·|Q₂|` grid plus a trim that the eager route paid.
pub fn dtl_text_preserving_with(
    transducer: &DtlTransducerArtifacts,
    schema: &DtlSchemaArtifacts,
    budget: &BudgetHandle,
    tracer: &Tracer,
) -> Result<DtlCheckReport, DtlDecideError> {
    let span = tracer.span("dtl/decide/product");
    let fuel_before = budget.fuel_spent();
    let witness = transducer
        .counterexample
        .intersect_witness(&schema.schema, budget)?;
    span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
    let span = tracer.span("dtl/decide/witness");
    let fuel_before = budget.fuel_spent();
    let result = match witness {
        None => Ok(DtlCheckReport::Preserving),
        Some(w) => {
            let witness = tpx_treeauto::convert::decode_witness(&w).ok_or_else(|| {
                DtlDecideError::Internal(
                    "counterexample witness does not decode to an unranked tree".into(),
                )
            })?;
            Ok(DtlCheckReport::NotPreserving { witness })
        }
    };
    span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
    result
}

/// Theorems 5.12 / 5.18: decides whether `t` is text-preserving over
/// `L(nta)`, with a witness tree when it is not.
///
/// One-shot wrapper over the staged pipeline: [`compile_counterexample`] +
/// [`compile_schema_nbta`] + [`dtl_text_preserving_with`].
pub fn dtl_text_preserving<P: MsoDefinable>(t: &DtlTransducer<P>, nta: &Nta) -> DtlCheckReport {
    let budget = BudgetHandle::unlimited();
    let ce = compile_counterexample(t, nta.symbol_count(), &budget, Tracer::disabled_ref())
        .unwrap_or_else(|e| panic!("{e}"));
    let schema = compile_schema_nbta(nta, &budget).expect("unlimited budget");
    dtl_text_preserving_with(&ce, &schema, &budget, Tracer::disabled_ref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The conclusion's stronger test for DTL: does `t` delete some text value
/// below a node labelled with one of `labels`, on some tree of `L(nta)`?
/// Returns a witness tree, or `None` when every such text value is output.
///
/// A text value at node `w` is output iff some text path run ends at `w`,
/// i.e. `∃p (q₀, root) ;* (p, w)` with `(p, text) → text`; deletion below
/// `σ` is the complement of that, intersected with "w is a text node below
/// a σ-node".
///
/// Every compile/project stage charges the shared budget, and the final
/// schema product is explored lazily with an early exit at the first
/// witness.
pub fn dtl_deleted_text_under<P: MsoDefinable>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    labels: &[tpx_trees::Symbol],
    budget: &BudgetHandle,
) -> Result<Option<Tree>, DtlDecideError> {
    let n_symbols = nta.symbol_count();
    let mut b = AutoBuilder::new(t, n_symbols);
    // "Some run outputs the value at vx" at width 1 (vx = the text node).
    let text_states = b.text_states.clone();
    let r = b.gen.var();
    let reached = Formula::exists(
        r,
        Formula::Root(r).and(Formula::any(
            text_states
                .iter()
                .map(|&p| b.sys.reach(b.initial, p, r, b.vx)),
        )),
    );
    let vx = b.vx;
    let under = {
        let s_var = b.gen.var();
        Formula::IsText(vx).and(Formula::exists(
            s_var,
            Formula::any(labels.iter().map(|&l| Formula::Lab(l, s_var)))
                .and(Formula::Descendant(s_var, vx)),
        ))
    };
    let phi = under.and(reached.not());
    let deleted = compile_cached(&phi, &[VarKey::Fo(vx)], n_symbols, &mut b.cache, budget)?;
    let sentence = project_bit(&deleted, n_symbols, 0, true, budget)?;
    let schema = nta_to_nbta(nta).trim(budget)?;
    let witness = strip_bits(&sentence, n_symbols, budget)?.intersect_witness(&schema, budget)?;
    witness
        .map(|w| {
            tpx_treeauto::convert::decode_witness(&w).ok_or_else(|| {
                DtlDecideError::Internal("schema product witness does not decode".into())
            })
        })
        .transpose()
}

/// Definition 5.1's determinism restriction, decided statically over a
/// schema: two rules of the same state must never both match a node of a
/// schema tree. Returns the first offending rule pair with a witness tree,
/// or `None` when the transducer is deterministic over `L(nta)`.
///
/// Guard compilations charge the shared budget and each overlap test is a
/// lazy early-exit product exploration instead of a materialized
/// intersection.
pub fn check_determinism<P: MsoDefinable>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    budget: &BudgetHandle,
) -> Result<Option<(usize, usize, Tree)>, DtlDecideError> {
    let n_symbols = nta.symbol_count();
    let mut gen = VarGen::new();
    gen.reserve(Var(MsoPatterns::HOLE_Y.0 + 1));
    let mut cache = CompileCache::new();
    let x = gen.var();
    let schema = nta_to_nbta(nta).trim(budget)?;
    let guards: Vec<(DtlState, Formula)> = t
        .rules()
        .iter()
        .map(|r| {
            (
                r.state,
                t.patterns()
                    .unary_formula(&r.guard, MsoPatterns::HOLE_X, &mut gen),
            )
        })
        .collect();
    for (i, (qi, gi)) in guards.iter().enumerate() {
        for (j, (qj, gj)) in guards.iter().enumerate().skip(i + 1) {
            if qi != qj {
                continue;
            }
            let both = Formula::exists(
                x,
                gi.rename_fo(MsoPatterns::HOLE_X, x)
                    .and(gj.rename_fo(MsoPatterns::HOLE_X, x)),
            );
            let a = compile_cached(&both, &[], n_symbols, &mut cache, budget)?;
            let overlap = strip_bits(&a, n_symbols, budget)?.intersect_witness(&schema, budget)?;
            if let Some(w) = overlap {
                let witness = tpx_treeauto::convert::decode_witness(&w).ok_or_else(|| {
                    DtlDecideError::Internal("schema product witness does not decode".into())
                })?;
                return Ok(Some((i, j, witness)));
            }
        }
    }
    Ok(None)
}

/// [`dtl_maximal_subschema`] over precompiled artifacts.
///
/// This is the one consumer that genuinely needs the complemented
/// counterexample language *as an automaton* (the sub-schema is returned to
/// the caller), so the eager determinize–complement route stays — but every
/// stage charges the shared budget.
pub fn dtl_maximal_subschema_with(
    transducer: &DtlTransducerArtifacts,
    schema: &DtlSchemaArtifacts,
    budget: &BudgetHandle,
) -> Result<Nta, DtlDecideError> {
    let not_ce = transducer
        .counterexample
        .determinize(budget)?
        .complement()
        .to_nbta()
        .trim(budget)?;
    Ok(nbta_to_nta(
        &schema.schema.intersect(&not_ce, budget)?.trim(budget)?,
        transducer.n_symbols,
        budget,
    )?)
}

/// The maximal sub-schema on which `t` is text-preserving (conclusion):
/// `L(nta) ∖ counterexamples(t)`, as an NTA; every stage charges `budget`.
pub fn dtl_maximal_subschema<P: MsoDefinable>(
    t: &DtlTransducer<P>,
    nta: &Nta,
    budget: &BudgetHandle,
) -> Result<Nta, DtlDecideError> {
    let ce = compile_counterexample(t, nta.symbol_count(), budget, Tracer::disabled_ref())?;
    let schema = compile_schema_nbta(nta, budget)?;
    dtl_maximal_subschema_with(&ce, &schema, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use crate::pattern::XPathPatterns;
    use crate::transducer::{DtlBuilder, Rhs};
    use tpx_treeauto::NtaBuilder;
    use tpx_trees::Alphabet;

    fn alpha() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    /// Universal schema over {a, b} with text anywhere.
    fn universal(al: &Alphabet) -> Nta {
        let mut b = NtaBuilder::new(al);
        b.root("u");
        b.rule("u", "a", "(u | ut)*");
        b.rule("u", "b", "(u | ut)*");
        b.text_rule("ut");
        b.finish()
    }

    #[test]
    fn identity_dtl_is_preserving() {
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child");
        b.rule_simple("q0", "b", "b", "q0", "child");
        b.text_rule("q0");
        let t = b.finish();
        let nta = universal(&al);
        let report = dtl_text_preserving(&t, &nta);
        assert!(report.is_preserving(), "{report:?}");
    }

    #[test]
    fn doubling_dtl_detected_with_valid_witness() {
        // (q0, a) → a((q0, child), (q0, child)): a doubling.
        let al = alpha();
        use tpx_xpath::{Axis, PathExpr};
        let mut t = DtlTransducer::new(XPathPatterns, 1, DtlState(0));
        let c1 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
        let c2 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("a")),
            vec![Rhs::Elem(
                al.sym("a"),
                vec![Rhs::Call(DtlState(0), c1), Rhs::Call(DtlState(0), c2)],
            )],
        );
        t.set_text_rule(DtlState(0), true);
        let nta = universal(&al);
        let report = dtl_text_preserving(&t, &nta);
        let DtlCheckReport::NotPreserving { witness } = report else {
            panic!("doubling must be detected");
        };
        assert!(nta.accepts(&witness));
        assert!(config::copying_on(&t, &witness).unwrap());
    }

    #[test]
    fn swap_dtl_detected_with_valid_witness() {
        // (q0, a) → a((qt, child[text()]), (qt, child[b]/child)):
        // direct text children first, then text inside b-children —
        // rearranging when a b-child precedes a text child.
        let al = alpha();
        let mut scratch = al.clone();
        let mut t = DtlTransducer::new(XPathPatterns, 2, DtlState(0));
        let direct =
            t.add_binary_pattern(tpx_xpath::parse_path("child[text()]", &mut scratch).unwrap());
        let inner =
            t.add_binary_pattern(tpx_xpath::parse_path("child[b]/child", &mut scratch).unwrap());
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("a")),
            vec![Rhs::Elem(
                al.sym("a"),
                vec![
                    Rhs::Call(DtlState(1), direct),
                    Rhs::Call(DtlState(1), inner),
                ],
            )],
        );
        t.set_text_rule(DtlState(1), true);
        let nta = universal(&al);
        let report = dtl_text_preserving(&t, &nta);
        let DtlCheckReport::NotPreserving { witness } = report else {
            panic!("swap must be detected");
        };
        assert!(nta.accepts(&witness));
        assert!(config::rearranging_on(&t, &witness).unwrap());
    }

    #[test]
    fn deleting_dtl_is_preserving() {
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child[b]");
        b.rule_simple("q0", "b", "b", "qt", "child[text()]");
        b.text_rule("qt");
        let t = b.finish();
        let nta = universal(&al);
        assert!(dtl_text_preserving(&t, &nta).is_preserving());
    }

    #[test]
    fn copying_outside_schema_is_ignored() {
        // Doubling fires below b-nodes only; one schema forbids b.
        let al = alpha();
        let mut scratch = al.clone();
        let mut t = DtlTransducer::new(XPathPatterns, 2, DtlState(0));
        let child = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        let c1 = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        let c2 = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("a")),
            vec![Rhs::Elem(al.sym("a"), vec![Rhs::Call(DtlState(0), child)])],
        );
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("b")),
            vec![Rhs::Elem(
                al.sym("b"),
                vec![Rhs::Call(DtlState(1), c1), Rhs::Call(DtlState(1), c2)],
            )],
        );
        t.set_text_rule(DtlState(0), true);
        t.set_text_rule(DtlState(1), true);
        let mut nb = NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(s | st)*");
        nb.text_rule("st");
        let only_a = nb.finish();
        assert!(dtl_text_preserving(&t, &only_a).is_preserving());
        let report = dtl_text_preserving(&t, &universal(&al));
        assert!(!report.is_preserving());
    }

    #[test]
    fn dtl_deleted_text_under_matches_topdown_extension() {
        let budget = BudgetHandle::unlimited();
        // Keep a-subtrees, drop b-subtrees entirely.
        let al = alpha();
        let mut tb = tpx_topdown::TransducerBuilder::new(&al, "q0");
        tb.rule("q0", "a", "a(q0)");
        tb.text_rule("q0");
        let td = tb.finish();
        let dtl = crate::from_topdown(&td);
        let nta = universal(&al);
        // Deletes text under b…
        let w = dtl_deleted_text_under(&dtl, &nta, &[al.sym("b")], &budget)
            .unwrap()
            .expect("text under b is deleted");
        assert!(nta.accepts(&w));
        // …which the top-down extension also reports.
        assert!(tpx_topdown::extensions::deleted_text_under(&td, &nta, &[al.sym("b")]).is_some());
        // The witness really loses text: some value under a b-node is gone.
        let out = dtl.transform(&w).unwrap();
        assert!(out.text_content().len() < w.text_content().len());
        // But never under a (when not nested below b): restrict the schema
        // to b-free trees and the test passes.
        let mut nb = NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(s | st)*");
        nb.text_rule("st");
        let only_a = nb.finish();
        assert!(
            dtl_deleted_text_under(&dtl, &only_a, &[al.sym("a")], &budget)
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn determinism_check_accepts_disjoint_guards() {
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child");
        b.rule_simple("q0", "b", "b", "q0", "child");
        b.text_rule("q0");
        let t = b.finish();
        assert!(
            check_determinism(&t, &universal(&al), &BudgetHandle::unlimited())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn determinism_check_finds_overlap_with_witness() {
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child");
        // Overlaps with the rule above on any a-node with a b-child.
        b.rule_simple("q0", "a & <child[b]>", "b", "q0", "child");
        let t = b.finish();
        let (i, j, w) = check_determinism(&t, &universal(&al), &BudgetHandle::unlimited())
            .unwrap()
            .expect("overlap");
        assert_ne!(i, j);
        // Definition 5.1 quantifies over every node of a schema tree, so
        // the witness must have SOME node where both guards match — the
        // transform's traversal need not reach it (the emptiness check is
        // free to return a witness whose overlap node sits under a node no
        // rule descends through).
        let tables = t.tables(w.as_hedge());
        assert!(
            (0..tables.rule_guards[i].len())
                .any(|v| tables.rule_guards[i][v] && tables.rule_guards[j][v]),
            "witness has no node where rules {i} and {j} both match: {w:?}"
        );
    }

    #[test]
    fn determinism_overlap_outside_schema_is_fine() {
        let al = alpha();
        let mut b = DtlBuilder::new(&al, "q0");
        b.rule_simple("q0", "a", "a", "q0", "child");
        b.rule_simple("q0", "a & <child[b]>", "b", "q0", "child");
        let t = b.finish();
        // Schema without b-nodes: the overlap never materializes.
        let mut nb = NtaBuilder::new(&al);
        nb.root("s");
        nb.rule("s", "a", "(s | st)*");
        nb.text_rule("st");
        let only_a = nb.finish();
        assert!(check_determinism(&t, &only_a, &BudgetHandle::unlimited())
            .unwrap()
            .is_none());
    }

    #[test]
    fn maximal_subschema_for_doubling_below_b() {
        let budget = BudgetHandle::unlimited();
        let al = alpha();
        let mut scratch = al.clone();
        let mut t = DtlTransducer::new(XPathPatterns, 2, DtlState(0));
        let child = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        let c1 = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        let c2 = t.add_binary_pattern(tpx_xpath::parse_path("child", &mut scratch).unwrap());
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("a")),
            vec![Rhs::Elem(al.sym("a"), vec![Rhs::Call(DtlState(0), child)])],
        );
        t.add_rule(
            DtlState(0),
            tpx_xpath::NodeExpr::Label(al.sym("b")),
            vec![Rhs::Elem(
                al.sym("b"),
                vec![Rhs::Call(DtlState(1), c1), Rhs::Call(DtlState(1), c2)],
            )],
        );
        t.set_text_rule(DtlState(0), true);
        t.set_text_rule(DtlState(1), true);
        let nta = universal(&al);
        let max = dtl_maximal_subschema(&t, &nta, &budget).unwrap();
        assert!(!max.is_empty(&budget).unwrap());
        let mut al2 = al.clone();
        let inside = tpx_trees::term::parse_tree(r#"a("x" b)"#, &mut al2).unwrap();
        assert!(max.accepts(&inside));
        let outside = tpx_trees::term::parse_tree(r#"a(b("y"))"#, &mut al2).unwrap();
        assert!(!max.accepts(&outside));
        let w = max.witness(&budget).unwrap().unwrap();
        assert!(config::text_preserving_on(
            &t,
            &Tree::from_hedge(tpx_trees::make_value_unique(w.as_hedge())).unwrap()
        )
        .unwrap());
    }
}
