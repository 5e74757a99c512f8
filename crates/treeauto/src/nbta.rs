//! Nondeterministic and deterministic bottom-up binary tree automata.
//!
//! These run on ranked trees with arities 0 and 2 — in this workspace,
//! always the first-child/next-sibling encodings of unranked hedges. The
//! alphabet is split into *leaf symbols* (arity 0, typically only the `⊥`
//! padding symbol) and *internal symbols* (arity 2); determinization and
//! complement are relative to those explicit alphabets, so Boolean closure
//! is available for the counter-example-language constructions of
//! Sections 4.3 and 5.3.
//!
//! Representation (DESIGN.md §13): a rule names its symbol by its
//! position in the internal alphabet (a `u32` id). Rules live in one
//! table in insertion order, one entry per `(σ, q₁, q₂)` key, with a
//! single target stored inline. Products, saturations and trims read an
//! *operand index* — per state, the rules taking it as left (resp. right)
//! operand, sorted by symbol id — built once per automaton and shared by
//! its clones. Every walk follows table or index order, never a hash
//! map's, so results, witnesses and fuel charges are reproducible.

use crate::nta::State;
use crate::ranked::RankedTree;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::{Arc, OnceLock};
use tpx_automata::antichain::{bit_has, bit_set};
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::hash::{FxHashMap, FxHashSet};

/// The leaf and internal alphabets plus the internal symbol → id table,
/// shared by every automaton built over the same symbols.
#[derive(Debug)]
struct Alphabets<L> {
    leaf: Vec<L>,
    internal: Vec<L>,
    ids: FxHashMap<L, u32>,
}

impl<L: Clone + Eq + Hash> Alphabets<L> {
    fn new(leaf: Vec<L>, internal: Vec<L>) -> Arc<Self> {
        let mut ids = FxHashMap::default();
        for (i, l) in internal.iter().enumerate() {
            ids.entry(l.clone()).or_insert(i as u32);
        }
        Arc::new(Alphabets {
            leaf,
            internal,
            ids,
        })
    }

    fn id(&self, l: &L) -> Option<u32> {
        self.ids.get(l).copied()
    }

    fn leaf_pos(&self, l: &L) -> Option<usize> {
        self.leaf.iter().position(|x| x == l)
    }
}

/// The result states of one rule key; the common single target is inline.
#[derive(Clone, Debug)]
enum Targets {
    One(State),
    Many(Vec<State>),
}

impl Targets {
    fn as_slice(&self) -> &[State] {
        match self {
            Targets::One(q) => std::slice::from_ref(q),
            Targets::Many(v) => v,
        }
    }

    fn insert(&mut self, q: State) {
        match self {
            Targets::One(p) if *p == q => {}
            Targets::One(p) => *self = Targets::Many(vec![*p, q]),
            Targets::Many(v) if !v.contains(&q) => v.push(q),
            Targets::Many(_) => {}
        }
    }

    /// The targets `f` keeps, renamed by it; `None` when it keeps none.
    /// `f` must be injective on the targets it keeps.
    fn filter_map(&self, f: impl Fn(State) -> Option<State>) -> Option<Targets> {
        match self {
            Targets::One(q) => f(*q).map(Targets::One),
            Targets::Many(v) => match v.iter().filter_map(|&q| f(q)).collect::<Vec<_>>() {
                kept if kept.len() > 1 => Some(Targets::Many(kept)),
                kept => kept.first().map(|&q| Targets::One(q)),
            },
        }
    }
}

/// `σ(left, right) → targets`, with `σ` as an internal symbol id.
#[derive(Clone, Debug)]
struct Rule {
    sym: u32,
    left: State,
    right: State,
    targets: Targets,
}

/// One entry of an operand-index row: the rule `rule` uses the row's
/// state together with `partner` under symbol `sym`.
#[derive(Clone, Copy, Debug)]
struct Use {
    sym: u32,
    partner: State,
    rule: u32,
}

/// Per state, the rules taking it as left and as right operand, each row
/// sorted by symbol id (ties in table order). Rows are slices of one flat
/// array per side.
#[derive(Debug)]
struct OperandIndex {
    left_start: Vec<u32>,
    left: Vec<Use>,
    right_start: Vec<u32>,
    right: Vec<Use>,
}

impl OperandIndex {
    fn build<L>(a: &Nbta<L>) -> Self {
        // Table positions in symbol order, so that grouping them by state
        // (a stable counting sort) leaves each row sorted.
        let by_symbol = (a.rules.iter().enumerate()).map(|(i, r)| (r.sym as usize, i as u32));
        let (_, order) = group(a.alphabets.internal.len(), by_symbol);
        let rows = |side: fn(&Rule) -> (State, State)| {
            let uses = order.iter().map(|&i| {
                let r = &a.rules[i as usize];
                let (own, partner) = side(r);
                let u = Use {
                    sym: r.sym,
                    partner,
                    rule: i,
                };
                (own.index(), u)
            });
            group(a.n_states, uses)
        };
        let (left_start, left) = rows(|r| (r.left, r.right));
        let (right_start, right) = rows(|r| (r.right, r.left));
        OperandIndex {
            left_start,
            left,
            right_start,
            right,
        }
    }

    fn left(&self, q: State) -> &[Use] {
        &self.left[self.left_start[q.index()] as usize..self.left_start[q.index() + 1] as usize]
    }

    fn right(&self, q: State) -> &[Use] {
        &self.right[self.right_start[q.index()] as usize..self.right_start[q.index() + 1] as usize]
    }
}

/// How a state, product pair or explored entry was first derived: at a
/// leaf (by leaf-alphabet position) or by an internal symbol id over two
/// earlier derivations. Decoded into witness trees by [`Nbta::decode`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Via {
    Leaf(usize),
    Node(u32, usize, usize),
}

/// What [`Nbta::product_walk`] reports to its sink.
pub(crate) enum Event<'e> {
    /// Pair `id = (a, b)` was interned, first derived by `via`.
    Pair {
        id: usize,
        a: State,
        b: State,
        via: Via,
    },
    /// The product leaf rule `leaf → id` (leaf-alphabet position).
    Leaf { leaf: usize, id: usize },
    /// The product rule `sym(left, right) → targets`, over pair ids. Each
    /// key is reported once.
    Rule {
        sym: u32,
        left: usize,
        right: usize,
        targets: &'e [usize],
    },
}

/// A nondeterministic bottom-up binary tree automaton over symbols `L`.
#[derive(Clone, Debug)]
pub struct Nbta<L> {
    alphabets: Arc<Alphabets<L>>,
    n_states: usize,
    finals: Vec<bool>,
    /// Every state is known to be derivable: set by the constructions
    /// that only create derivable states (products, trims, and their
    /// unions and lossless relabellings), cleared by `add_state`.
    /// Lets [`Nbta::derivable_states`] skip its saturation.
    derivable: bool,
    /// `leaf → q`, by leaf-alphabet position.
    leaf_rules: Vec<Vec<State>>,
    /// `σ(q₁, q₂) → q`, one entry per key, in insertion order.
    rules: Vec<Rule>,
    /// Key → table position; built on the first keyed lookup or
    /// [`Nbta::add_rule`], never by the bulk constructions.
    keys: OnceLock<FxHashMap<(u32, State, State), u32>>,
    /// Built on first use. The cell is shared with clones, so a clone
    /// built from a cached automaton reuses its index; a mutation gives
    /// the mutated automaton a fresh cell.
    index: Arc<OnceLock<OperandIndex>>,
}

impl<L: Clone + Eq + Hash> Nbta<L> {
    /// An automaton with the given alphabets and no states.
    pub fn new(leaf_alphabet: Vec<L>, internal_alphabet: Vec<L>) -> Self {
        Nbta::over(Alphabets::new(leaf_alphabet, internal_alphabet))
    }

    fn over(alphabets: Arc<Alphabets<L>>) -> Self {
        Nbta {
            leaf_rules: vec![Vec::new(); alphabets.leaf.len()],
            alphabets,
            n_states: 0,
            finals: Vec::new(),
            derivable: false,
            rules: Vec::new(),
            keys: OnceLock::new(),
            index: Arc::default(),
        }
    }

    /// An automaton over `alphabets` with `self`'s states and final flags.
    fn same_states<M: Clone + Eq + Hash>(&self, alphabets: Arc<Alphabets<M>>) -> Nbta<M> {
        Nbta {
            n_states: self.n_states,
            finals: self.finals.clone(),
            derivable: self.derivable,
            ..Nbta::over(alphabets)
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> State {
        let q = State(self.n_states as u32);
        self.n_states += 1;
        self.finals.push(false);
        self.derivable = false;
        self.touch();
        q
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states
    }

    /// Number of rules (leaf + internal).
    pub fn rule_count(&self) -> usize {
        self.leaf_rules.iter().map(Vec::len).sum::<usize>()
            + self
                .rules
                .iter()
                .map(|r| r.targets.as_slice().len())
                .sum::<usize>()
    }

    /// The leaf alphabet.
    pub fn leaf_alphabet(&self) -> &[L] {
        &self.alphabets.leaf
    }

    /// The internal alphabet.
    pub fn internal_alphabet(&self) -> &[L] {
        &self.alphabets.internal
    }

    /// Marks `q` final.
    pub fn set_final(&mut self, q: State, f: bool) {
        self.finals[q.index()] = f;
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: State) -> bool {
        self.finals[q.index()]
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = State> {
        (0..self.n_states as u32).map(State)
    }

    /// Adds the leaf rule `l → q`. Panics if `l` is not in the leaf
    /// alphabet.
    pub fn add_leaf_rule(&mut self, l: L, q: State) {
        let pos = self
            .alphabets
            .leaf_pos(&l)
            .expect("leaf symbol outside the automaton's leaf alphabet");
        let row = &mut self.leaf_rules[pos];
        if !row.contains(&q) {
            row.push(q);
        }
    }

    /// Adds the rule `σ(q₁, q₂) → q`. Panics if `σ` is not in the internal
    /// alphabet.
    pub fn add_rule(&mut self, sigma: L, q1: State, q2: State, q: State) {
        let sym = self
            .alphabets
            .id(&sigma)
            .expect("internal symbol outside the automaton's internal alphabet");
        self.insert_rule(sym, q1, q2, q);
    }

    fn insert_rule(&mut self, sym: u32, q1: State, q2: State, q: State) {
        let rules = &self.rules;
        self.keys.get_or_init(|| key_table(rules));
        let keys = self.keys.get_mut().expect("initialized above");
        match keys.entry((sym, q1, q2)) {
            Entry::Occupied(e) => self.rules[*e.get() as usize].targets.insert(q),
            Entry::Vacant(e) => {
                e.insert(self.rules.len() as u32);
                self.rules.push(Rule {
                    sym,
                    left: q1,
                    right: q2,
                    targets: Targets::One(q),
                });
            }
        }
        self.touch();
    }

    /// The states derivable at an `l`-leaf.
    pub fn leaf_states(&self, l: &L) -> &[State] {
        self.alphabets
            .leaf_pos(l)
            .map_or(&[], |pos| &self.leaf_rules[pos])
    }

    /// The states derivable by `σ(q₁, q₂)`.
    pub fn rule_states(&self, sigma: &L, q1: State, q2: State) -> &[State] {
        let Some(sym) = self.alphabets.id(sigma) else {
            return &[];
        };
        self.keys
            .get_or_init(|| key_table(&self.rules))
            .get(&(sym, q1, q2))
            .map_or(&[], |&i| self.rules[i as usize].targets.as_slice())
    }

    /// Every internal rule `σ(q₁, q₂) → targets`, one per key, in insertion
    /// order.
    pub fn rules(&self) -> impl Iterator<Item = (&L, State, State, &[State])> {
        self.rules.iter().map(|r| {
            (
                &self.alphabets.internal[r.sym as usize],
                r.left,
                r.right,
                r.targets.as_slice(),
            )
        })
    }

    /// The rules taking `q` as left (or right) operand, as `(symbol id,
    /// partner, targets)`, in symbol order.
    pub(crate) fn operand_rules(
        &self,
        q: State,
        left: bool,
    ) -> impl Iterator<Item = (u32, State, &[State])> {
        let idx = self.index();
        let row = if left { idx.left(q) } else { idx.right(q) };
        row.iter().map(|u| {
            let targets = self.rules[u.rule as usize].targets.as_slice();
            (u.sym, u.partner, targets)
        })
    }

    /// The rules as `(q₁, q₂, targets)` grouped by symbol id, each group in
    /// table order.
    pub(crate) fn rules_by_symbol(&self) -> Vec<Vec<(State, State, &[State])>> {
        let mut by_symbol = vec![Vec::new(); self.alphabets.internal.len()];
        for r in &self.rules {
            by_symbol[r.sym as usize].push((r.left, r.right, r.targets.as_slice()));
        }
        by_symbol
    }

    fn index(&self) -> &OperandIndex {
        self.index.get_or_init(|| OperandIndex::build(self))
    }

    /// Detaches `self` from a built (and possibly shared) index before a
    /// mutation.
    fn touch(&mut self) {
        if self.index.get().is_some() {
            self.index = Arc::default();
        }
    }

    /// The tree derived by `via(root)`, following `via` down to the leaves.
    pub(crate) fn decode(&self, root: usize, via: &impl Fn(usize) -> Via) -> RankedTree<L> {
        match via(root) {
            Via::Leaf(pos) => RankedTree::Leaf(self.alphabets.leaf[pos].clone()),
            Via::Node(sym, a, b) => RankedTree::node(
                self.alphabets.internal[sym as usize].clone(),
                self.decode(a, via),
                self.decode(b, via),
            ),
        }
    }

    /// Bottom-up evaluation: the set of states derivable at the root of `t`.
    pub fn eval(&self, t: &RankedTree<L>) -> Vec<State> {
        match t {
            RankedTree::Leaf(l) => self.leaf_states(l).to_vec(),
            RankedTree::Node(l, a, b) => {
                let sa = self.eval(a);
                let sb = self.eval(b);
                let mut out = Vec::new();
                let mut seen = vec![false; self.n_states];
                for &q1 in &sa {
                    for &q2 in &sb {
                        for &q in self.rule_states(l, q1, q2) {
                            if !seen[q.index()] {
                                seen[q.index()] = true;
                                out.push(q);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &RankedTree<L>) -> bool {
        self.eval(t).iter().any(|&q| self.is_final(q))
    }

    /// Worklist saturation from the leaves: each derivable state is popped
    /// once, and a rule fires once, when the later of its operands is
    /// popped. `first` sees each derivable state with its first derivation
    /// (`Via::Node` over operand states). Returns the derivable flags.
    ///
    /// Charges one fuel unit per operand-index entry visited.
    fn saturate(
        &self,
        budget: &BudgetHandle,
        mut first: impl FnMut(State, Via),
    ) -> Result<Vec<bool>, BudgetExceeded> {
        let idx = self.index();
        let mut derivable = vec![false; self.n_states];
        let mut popped = vec![false; self.n_states];
        let mut queue: VecDeque<State> = VecDeque::new();
        for (pos, states) in self.leaf_rules.iter().enumerate() {
            for &q in states {
                if !derivable[q.index()] {
                    derivable[q.index()] = true;
                    first(q, Via::Leaf(pos));
                    queue.push_back(q);
                }
            }
        }
        while let Some(q) = queue.pop_front() {
            popped[q.index()] = true;
            let (left, right) = (idx.left(q), idx.right(q));
            budget.charge((left.len() + right.len()) as u64)?;
            // A self-pair `σ(q, q)` sits in both rows; it fires from the left.
            let ready = left.iter().filter(|u| popped[u.partner.index()]).chain(
                right
                    .iter()
                    .filter(|u| u.partner != q && popped[u.partner.index()]),
            );
            for u in ready {
                let r = &self.rules[u.rule as usize];
                for &t in r.targets.as_slice() {
                    if !derivable[t.index()] {
                        derivable[t.index()] = true;
                        first(t, Via::Node(r.sym, r.left.index(), r.right.index()));
                        queue.push_back(t);
                    }
                }
            }
        }
        Ok(derivable)
    }

    /// States derivable by *some* tree.
    ///
    /// Charges one fuel unit per rule visit of the worklist saturation —
    /// nothing when every state is derivable by construction.
    pub fn derivable_states(&self, budget: &BudgetHandle) -> Result<Vec<bool>, BudgetExceeded> {
        if self.derivable {
            return Ok(vec![true; self.n_states]);
        }
        self.saturate(budget, |_, _| {})
    }

    /// Whether `L(B) = ∅`.
    pub fn is_empty(&self, budget: &BudgetHandle) -> Result<bool, BudgetExceeded> {
        let derivable = self.derivable_states(budget)?;
        Ok(!self
            .states()
            .any(|q| self.is_final(q) && derivable[q.index()]))
    }

    /// A witness tree, if the language is non-empty (small, not necessarily
    /// minimal): the first derivation of the lowest-numbered derivable
    /// final state.
    ///
    /// Charges one fuel unit per rule visit of the worklist saturation.
    pub fn witness(&self, budget: &BudgetHandle) -> Result<Option<RankedTree<L>>, BudgetExceeded> {
        let mut recipe: Vec<Option<Via>> = vec![None; self.n_states];
        let derivable = self.saturate(budget, |q, via| recipe[q.index()] = Some(via))?;
        Ok(self
            .states()
            .find(|&q| self.is_final(q) && derivable[q.index()])
            .map(|q| {
                self.decode(q.index(), &|i| {
                    recipe[i].expect("derivable states have a recipe")
                })
            }))
    }

    /// `other` with its rules renumbered onto `self`'s internal symbol ids:
    /// a borrow when the alphabets already agree. Rules over symbols
    /// `self` lacks are dropped — no product can use them.
    pub(crate) fn aligned<'o>(&self, other: &'o Nbta<L>) -> Cow<'o, Nbta<L>> {
        if Arc::ptr_eq(&self.alphabets, &other.alphabets)
            || self.alphabets.internal == other.alphabets.internal
        {
            Cow::Borrowed(other)
        } else {
            let ids: Vec<Option<u32>> = (other.alphabets.internal.iter())
                .map(|l| self.alphabets.id(l))
                .collect();
            let mut out = other.same_states(self.alphabets.clone());
            out.derivable = false;
            for (pos, l) in self.alphabets.leaf.iter().enumerate() {
                out.leaf_rules[pos] = other.leaf_states(l).to_vec();
            }
            out.rules = (other.rules.iter())
                .filter_map(|r| {
                    Some(Rule {
                        sym: ids[r.sym as usize]?,
                        ..r.clone()
                    })
                })
                .collect();
            Cow::Owned(out)
        }
    }

    /// Explores the derivable pairs of `self × other` bottom-up, reporting
    /// each new pair, each product leaf rule and each product rule key to
    /// `sink` (pair ids count up from 0 in discovery order). Pairs are
    /// popped in id order; a popped pair is merge-joined, symbol by symbol,
    /// with every pair popped before it (and itself) through the two
    /// operands' index rows, so each product rule is built exactly once.
    /// Stops as soon as `sink` returns `true`, and then returns `Ok(true)`.
    ///
    /// Charges one fuel unit per popped pair and per product rule target.
    pub(crate) fn product_walk(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
        mut sink: impl FnMut(Event<'_>) -> bool,
    ) -> Result<bool, BudgetExceeded> {
        let other = self.aligned(other);
        let (ia, ib) = (self.index(), other.index());
        let mut pairs: Vec<(State, State)> = Vec::new();
        let mut ids: FxHashMap<u64, usize> = FxHashMap::default();
        // Interns `(a, b)`: its id, and whether it is new.
        fn intern(
            pairs: &mut Vec<(State, State)>,
            ids: &mut FxHashMap<u64, usize>,
            a: State,
            b: State,
        ) -> (usize, bool) {
            match ids.entry(pair_key(a, b)) {
                Entry::Occupied(e) => (*e.get(), false),
                Entry::Vacant(e) => {
                    pairs.push((a, b));
                    (*e.insert(pairs.len() - 1), true)
                }
            }
        }
        for (pos, l) in self.alphabets.leaf.iter().enumerate() {
            for &a in &self.leaf_rules[pos] {
                for &b in other.leaf_states(l) {
                    let (id, fresh) = intern(&mut pairs, &mut ids, a, b);
                    let via = Via::Leaf(pos);
                    if fresh && sink(Event::Pair { id, a, b, via }) {
                        return Ok(true);
                    }
                    if sink(Event::Leaf { leaf: pos, id }) {
                        return Ok(true);
                    }
                }
            }
        }
        let mut targets: Vec<usize> = Vec::new();
        let mut cur = 0;
        while cur < pairs.len() {
            budget.charge(1)?;
            let (a, b) = pairs[cur];
            for as_left in [true, false] {
                let (ra, rb) = if as_left {
                    (ia.left(a), ib.left(b))
                } else {
                    (ia.right(a), ib.right(b))
                };
                let (mut i, mut j) = (0, 0);
                while i < ra.len() && j < rb.len() {
                    let sym = ra[i].sym;
                    if sym != rb[j].sym {
                        if sym < rb[j].sym {
                            i += 1;
                        } else {
                            j += 1;
                        }
                        continue;
                    }
                    let i_end = i + ra[i..].iter().take_while(|u| u.sym == sym).count();
                    let j_end = j + rb[j..].iter().take_while(|u| u.sym == sym).count();
                    for ua in &ra[i..i_end] {
                        for ub in &rb[j..j_end] {
                            // The partner pair must be popped already; the
                            // self-pair joins once, as left operand.
                            let Some(&partner) = ids.get(&pair_key(ua.partner, ub.partner)) else {
                                continue;
                            };
                            if partner > cur || (partner == cur && !as_left) {
                                continue;
                            }
                            let (left, right) = if as_left {
                                (cur, partner)
                            } else {
                                (partner, cur)
                            };
                            let ta = self.rules[ua.rule as usize].targets.as_slice();
                            let tb = other.rules[ub.rule as usize].targets.as_slice();
                            budget.charge((ta.len() * tb.len()) as u64)?;
                            targets.clear();
                            for &oa in ta {
                                for &ob in tb {
                                    let (id, fresh) = intern(&mut pairs, &mut ids, oa, ob);
                                    let via = Via::Node(sym, left, right);
                                    if fresh
                                        && sink(Event::Pair {
                                            id,
                                            a: oa,
                                            b: ob,
                                            via,
                                        })
                                    {
                                        return Ok(true);
                                    }
                                    targets.push(id);
                                }
                            }
                            let rule = Event::Rule {
                                sym,
                                left,
                                right,
                                targets: &targets,
                            };
                            if sink(rule) {
                                return Ok(true);
                            }
                        }
                    }
                    (i, j) = (i_end, j_end);
                }
            }
            cur += 1;
        }
        Ok(false)
    }

    /// Product automaton accepting `L(self) ∩ L(other)` (alphabets must
    /// match as sets; `self`'s ordering is kept).
    ///
    /// Built on the fly over *derivable* state pairs only, so the cost is
    /// bounded by the reachable product, not `|Q₁|·|Q₂|` — essential for
    /// the long intersection chains in the Section 5.3 deciders.
    ///
    /// Charges one fuel unit per discovered product state and per product rule
    /// constructed.
    pub fn intersect(
        &self,
        other: &Nbta<L>,
        budget: &BudgetHandle,
    ) -> Result<Nbta<L>, BudgetExceeded> {
        let mut out = Nbta::over(self.alphabets.clone());
        // Every pair is interned by a leaf or a rule over earlier pairs.
        out.derivable = true;
        self.product_walk(other, budget, |event| {
            match event {
                Event::Pair { a, b, .. } => {
                    out.n_states += 1;
                    out.finals.push(self.is_final(a) && other.is_final(b));
                }
                Event::Leaf { leaf, id } => out.leaf_rules[leaf].push(State(id as u32)),
                Event::Rule {
                    sym,
                    left,
                    right,
                    targets,
                } => out.rules.push(Rule {
                    sym,
                    left: State(left as u32),
                    right: State(right as u32),
                    targets: match targets {
                        &[t] => Targets::One(State(t as u32)),
                        _ => Targets::Many(targets.iter().map(|&t| State(t as u32)).collect()),
                    },
                }),
            }
            false
        })?;
        Ok(out)
    }

    /// Disjoint union accepting `L(self) ∪ L(other)`. The result's
    /// alphabets are `self`'s, followed by any symbols only `other` has.
    pub fn union(&self, other: &Nbta<L>) -> Nbta<L> {
        let extend = |own: &[L], more: &[L]| -> Vec<L> {
            let mut all = own.to_vec();
            all.extend(more.iter().filter(|l| !own.contains(l)).cloned());
            all
        };
        let leaf = extend(&self.alphabets.leaf, &other.alphabets.leaf);
        let internal = extend(&self.alphabets.internal, &other.alphabets.internal);
        let alphabets = if (leaf.len(), internal.len())
            == (self.alphabets.leaf.len(), self.alphabets.internal.len())
        {
            self.alphabets.clone()
        } else {
            Alphabets::new(leaf, internal)
        };
        let mut out = self.same_states(alphabets);
        out.leaf_rules[..self.leaf_rules.len()].clone_from_slice(&self.leaf_rules);
        out.rules = self.rules.clone();
        let offset = self.n_states as u32;
        let shift = |q: State| State(q.0 + offset);
        out.n_states += other.n_states;
        out.finals.extend_from_slice(&other.finals);
        out.derivable = self.derivable && other.derivable;
        for (l, states) in other.alphabets.leaf.iter().zip(&other.leaf_rules) {
            let pos = out.alphabets.leaf_pos(l).expect("merged leaf alphabet");
            out.leaf_rules[pos].extend(states.iter().map(|&q| shift(q)));
        }
        for r in &other.rules {
            let l = &other.alphabets.internal[r.sym as usize];
            out.rules.push(Rule {
                sym: out.alphabets.id(l).expect("merged internal alphabet"),
                left: shift(r.left),
                right: shift(r.right),
                targets: r.targets.filter_map(|q| Some(shift(q))).expect("kept"),
            });
        }
        out
    }

    /// Relabels symbols through `f` (used for MSO projection `∃X`: dropping
    /// a variable bit). The result is nondeterministic even if `self` was
    /// obtained from a DBTA. Its alphabets are the images of `self`'s.
    pub fn map_symbols<M: Clone + Eq + Hash>(&self, f: impl Fn(&L) -> M) -> Nbta<M> {
        let images = |alphabet: &[L]| -> Vec<M> {
            let mut seen = FxHashSet::default();
            alphabet
                .iter()
                .map(&f)
                .filter(|m| seen.insert(m.clone()))
                .collect()
        };
        let (leaf, internal) = (
            images(&self.alphabets.leaf),
            images(&self.alphabets.internal),
        );
        self.relabel(leaf, internal, &f)
    }

    /// Relabels symbols through `f` onto the given alphabets, in one pass
    /// over the rule table; rules whose keys collide merge their targets.
    /// Rules whose image falls outside the new alphabets are dropped.
    pub fn relabel<M: Clone + Eq + Hash>(
        &self,
        leaf_alphabet: Vec<M>,
        internal_alphabet: Vec<M>,
        f: impl Fn(&L) -> M,
    ) -> Nbta<M> {
        let mut out = self.same_states(Alphabets::new(leaf_alphabet, internal_alphabet));
        let mut kept_all = true;
        for (l, states) in self.alphabets.leaf.iter().zip(&self.leaf_rules) {
            match out.alphabets.leaf_pos(&f(l)) {
                Some(pos) => {
                    for &q in states {
                        if !out.leaf_rules[pos].contains(&q) {
                            out.leaf_rules[pos].push(q);
                        }
                    }
                }
                None => kept_all &= states.is_empty(),
            }
        }
        let ids: Vec<Option<u32>> = (self.alphabets.internal.iter())
            .map(|l| out.alphabets.id(&f(l)))
            .collect();
        for r in &self.rules {
            match ids[r.sym as usize] {
                Some(sym) => {
                    for &q in r.targets.as_slice() {
                        out.insert_rule(sym, r.left, r.right, q);
                    }
                }
                None => kept_all = false,
            }
        }
        out.derivable &= kept_all;
        out
    }

    /// Inverse relabelling (MSO cylindrification): builds an automaton over
    /// the new alphabets that treats each symbol `m` like `self` treats
    /// `g(m)`. One pass over the rule table.
    pub fn inverse_map<M: Clone + Eq + Hash>(
        &self,
        leaf_alphabet: Vec<M>,
        internal_alphabet: Vec<M>,
        g: impl Fn(&M) -> L,
    ) -> Nbta<M> {
        let mut out = self.same_states(Alphabets::new(leaf_alphabet, internal_alphabet));
        out.derivable = false;
        for pos in 0..out.alphabets.leaf.len() {
            out.leaf_rules[pos] = self.leaf_states(&g(&out.alphabets.leaf[pos])).to_vec();
        }
        // Each source symbol id → the (first occurrences of) new symbols
        // that read as it.
        let mut preimages: Vec<Vec<u32>> = vec![Vec::new(); self.alphabets.internal.len()];
        for (i, m) in out.alphabets.internal.iter().enumerate() {
            if out.alphabets.id(m) == Some(i as u32) {
                if let Some(s) = self.alphabets.id(&g(m)) {
                    preimages[s as usize].push(i as u32);
                }
            }
        }
        for r in &self.rules {
            for &sym in &preimages[r.sym as usize] {
                out.rules.push(Rule { sym, ..r.clone() });
            }
        }
        out
    }

    /// Removes states that are not derivable or cannot contribute to an
    /// accepting run. Language-preserving; crucial for keeping the MSO
    /// pipeline small.
    ///
    /// Charges one fuel unit per rule visit of the two worklist passes
    /// (derivability, then co-derivability) plus one per surviving rule
    /// rebuilt.
    pub fn trim(&self, budget: &BudgetHandle) -> Result<Nbta<L>, BudgetExceeded> {
        let derivable = self.derivable_states(budget)?;
        // Co-derivability: q is useful if final, or an operand of a rule
        // with a useful target and a derivable sibling. Worklist over the
        // table positions of the rules producing each state.
        let by_target = (self.rules.iter().enumerate())
            .flat_map(|(i, r)| (r.targets.as_slice().iter()).map(move |t| (t.index(), i as u32)));
        let (start, producing) = group(self.n_states, by_target);
        let mut useful: Vec<bool> = self
            .states()
            .map(|q| self.is_final(q) && derivable[q.index()])
            .collect();
        let mut queue: VecDeque<State> = self.states().filter(|q| useful[q.index()]).collect();
        while let Some(t) = queue.pop_front() {
            let row = &producing[start[t.index()] as usize..start[t.index() + 1] as usize];
            budget.charge(row.len() as u64)?;
            for &i in row {
                let r = &self.rules[i as usize];
                if derivable[r.left.index()] && derivable[r.right.index()] {
                    for q in [r.left, r.right] {
                        if !useful[q.index()] {
                            useful[q.index()] = true;
                            queue.push_back(q);
                        }
                    }
                }
            }
        }
        let mut remap: Vec<Option<State>> = vec![None; self.n_states];
        let mut out = Nbta::over(self.alphabets.clone());
        for q in self.states() {
            if derivable[q.index()] && useful[q.index()] {
                let nq = out.add_state();
                out.set_final(nq, self.is_final(q));
                remap[q.index()] = Some(nq);
            }
        }
        for (pos, states) in self.leaf_rules.iter().enumerate() {
            out.leaf_rules[pos] = states.iter().filter_map(|q| remap[q.index()]).collect();
        }
        for r in &self.rules {
            let (Some(left), Some(right)) = (remap[r.left.index()], remap[r.right.index()]) else {
                continue;
            };
            if let Some(targets) = r.targets.filter_map(|q| remap[q.index()]) {
                budget.charge(targets.as_slice().len() as u64)?;
                out.rules.push(Rule {
                    sym: r.sym,
                    left,
                    right,
                    targets,
                });
            }
        }
        out.derivable = true;
        Ok(out)
    }

    /// Subset construction: a complete deterministic automaton over the same
    /// alphabets.
    ///
    /// Charges one fuel unit per transition of the subset automaton, plus
    /// one per operand-index entry read to compute it — the construction is
    /// the workspace's one truly exponential site, so this is where a budget
    /// matters most, and the charge follows the work it does.
    pub fn determinize(&self, budget: &BudgetHandle) -> Result<Dbta<L>, BudgetExceeded> {
        // Classes are state sets held as bitsets. The successors of a pair
        // of classes under every symbol come out of one pass over the
        // left class's operand-index rows.
        let n_syms = self.alphabets.internal.len();
        let idx = self.index();
        let words = self.n_states.div_ceil(64).max(1);
        let mut live = vec![false; n_syms];
        for r in &self.rules {
            live[r.sym as usize] = true;
        }
        // Symbols with no rules map every pair to ∅.
        let live: Vec<usize> = (0..n_syms).filter(|&s| live[s]).collect();
        let mut ids: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        let mut classes: Vec<Vec<u64>> = Vec::new();
        let mut intern = |bits: &[u64], classes: &mut Vec<Vec<u64>>| -> u32 {
            if let Some(&id) = ids.get(bits) {
                return id;
            }
            let id = classes.len() as u32;
            classes.push(bits.to_vec());
            ids.insert(bits.to_vec(), id);
            id
        };
        let mut leaf_map = Vec::with_capacity(self.leaf_rules.len());
        for states in &self.leaf_rules {
            let mut bits = vec![0u64; words];
            for q in states {
                bit_set(&mut bits, q.index());
            }
            leaf_map.push(intern(&bits, &mut classes));
        }
        // Make sure the empty class exists (needed as a sink).
        let empty = intern(&vec![0u64; words], &mut classes);

        // Classes are paired in id order: popping class `c` pairs it with
        // every class before it and with itself, so each ordered pair is
        // processed once.
        let mut trans: Vec<(usize, u32, u32, u32)> = Vec::new();
        let mut succ = vec![0u64; n_syms * words];
        let mut c = 0;
        while c < classes.len() {
            for d in 0..=c {
                let pairs = if d == c {
                    vec![(c, c)]
                } else {
                    vec![(c, d), (d, c)]
                };
                for (c1, c2) in pairs {
                    let (b1, b2) = (&classes[c1], &classes[c2]);
                    let rows: Vec<&[Use]> = (self.states())
                        .filter(|q| bit_has(b1, q.index()))
                        .map(|q| idx.left(q))
                        .collect();
                    let visits: usize = rows.iter().map(|row| row.len()).sum();
                    budget.charge((live.len() + visits) as u64)?;
                    succ.fill(0);
                    for u in rows.into_iter().flatten() {
                        if bit_has(b2, u.partner.index()) {
                            let out = &mut succ[u.sym as usize * words..][..words];
                            for q in self.rules[u.rule as usize].targets.as_slice() {
                                bit_set(out, q.index());
                            }
                        }
                    }
                    for &sym in &live {
                        let id = intern(&succ[sym * words..][..words], &mut classes);
                        trans.push((sym, c1 as u32, c2 as u32, id));
                    }
                }
            }
            c += 1;
        }
        let n = classes.len();
        let mut table = vec![empty; n_syms * n * n];
        for (sym, c1, c2, c) in trans {
            table[(sym * n + c1 as usize) * n + c2 as usize] = c;
        }
        let finals = (classes.iter())
            .map(|bits| {
                self.states()
                    .any(|q| self.is_final(q) && bit_has(bits, q.index()))
            })
            .collect();
        Ok(Dbta {
            alphabets: self.alphabets.clone(),
            n_classes: n,
            leaf_map,
            trans: table,
            finals,
        })
    }
}

/// Groups `(bucket, value)` items by bucket, keeping their order within a
/// bucket (a stable counting sort): bucket `b` is
/// `values[start[b]..start[b + 1]]` of the returned `(start, values)`.
fn group<T: Copy>(n: usize, items: impl Iterator<Item = (usize, T)> + Clone) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; n + 1];
    for (b, _) in items.clone() {
        start[b + 1] += 1;
    }
    for b in 1..=n {
        start[b] += start[b - 1];
    }
    let Some((_, first)) = items.clone().next() else {
        return (start, Vec::new());
    };
    let mut fill = start.clone();
    let mut values = vec![first; start[n] as usize];
    for (b, v) in items {
        values[fill[b] as usize] = v;
        fill[b] += 1;
    }
    (start, values)
}

/// The product pair table's key for `(a, b)`: `a·2³² + b`.
fn pair_key(a: State, b: State) -> u64 {
    u64::from(a.0) << 32 | u64::from(b.0)
}

/// Key → table position for a rule table.
fn key_table(rules: &[Rule]) -> FxHashMap<(u32, State, State), u32> {
    rules
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.sym, r.left, r.right), i as u32))
        .collect()
}

/// A complete deterministic bottom-up binary tree automaton.
#[derive(Clone, Debug)]
pub struct Dbta<L> {
    alphabets: Arc<Alphabets<L>>,
    n_classes: usize,
    /// The class of each leaf symbol, by leaf-alphabet position.
    leaf_map: Vec<u32>,
    /// `σ(c₁, c₂)` at `(σ·n + c₁)·n + c₂` for `n` classes.
    trans: Vec<u32>,
    finals: Vec<bool>,
}

impl<L: Clone + Eq + Hash> Dbta<L> {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_classes
    }

    fn step(&self, sym: usize, c1: u32, c2: u32) -> u32 {
        let n = self.n_classes;
        self.trans[(sym * n + c1 as usize) * n + c2 as usize]
    }

    /// Evaluates `t` to its unique state. Panics on symbols outside the
    /// alphabets.
    pub fn eval(&self, t: &RankedTree<L>) -> u32 {
        match t {
            RankedTree::Leaf(l) => {
                let pos = self.alphabets.leaf_pos(l);
                self.leaf_map[pos.expect("leaf symbol outside the automaton's alphabet")]
            }
            RankedTree::Node(l, a, b) => {
                let sym = self.alphabets.id(l);
                let sym = sym.expect("internal symbol outside the automaton's alphabet");
                self.step(sym as usize, self.eval(a), self.eval(b))
            }
        }
    }

    /// Whether the automaton accepts `t`.
    pub fn accepts(&self, t: &RankedTree<L>) -> bool {
        self.finals[self.eval(t) as usize]
    }

    /// Complement (final flags flipped; completeness makes this exact).
    pub fn complement(&self) -> Dbta<L> {
        Dbta {
            finals: self.finals.iter().map(|f| !f).collect(),
            ..self.clone()
        }
    }

    /// Moore-style minimization: merges language-equivalent states. The
    /// result is again complete and deterministic, restricted to states
    /// reachable from some tree.
    pub fn minimize(&self) -> Dbta<L> {
        let n_syms = self.alphabets.internal.len();
        // Reachable states (derivable by some tree), in discovery order.
        let mut reach: Vec<bool> = vec![false; self.n_classes];
        let mut members: Vec<u32> = Vec::new();
        for &c in &self.leaf_map {
            if !reach[c as usize] {
                reach[c as usize] = true;
                members.push(c);
            }
        }
        loop {
            let before = members.len();
            for sym in 0..n_syms {
                for i in 0..members.len() {
                    for j in 0..members.len() {
                        let c = self.step(sym, members[i], members[j]);
                        if !reach[c as usize] {
                            reach[c as usize] = true;
                            members.push(c);
                        }
                    }
                }
            }
            if members.len() == before {
                break;
            }
        }
        // Partition refinement over reachable states: signature = final flag
        // plus, per (symbol, partner, side), the partner's current class.
        let mut part: Vec<u32> = vec![u32::MAX; self.n_classes];
        for &c in &members {
            part[c as usize] = u32::from(self.finals[c as usize]);
        }
        loop {
            let mut sigs: FxHashMap<(u32, Vec<u32>), u32> = FxHashMap::default();
            let mut next = vec![u32::MAX; self.n_classes];
            for &c in &members {
                let mut sig: Vec<u32> = Vec::with_capacity(2 * n_syms * members.len());
                for sym in 0..n_syms {
                    for &d in &members {
                        sig.push(part[self.step(sym, c, d) as usize]);
                        sig.push(part[self.step(sym, d, c) as usize]);
                    }
                }
                let fresh = sigs.len() as u32;
                next[c as usize] = *sigs.entry((part[c as usize], sig)).or_insert(fresh);
            }
            if next == part {
                break;
            }
            part = next;
        }
        let n = members
            .iter()
            .map(|&c| part[c as usize] as usize + 1)
            .max()
            .unwrap_or(0);
        let mut finals = vec![false; n];
        let mut trans = vec![0u32; n_syms * n * n];
        for &c in &members {
            let pc = part[c as usize] as usize;
            finals[pc] = self.finals[c as usize];
            for sym in 0..n_syms {
                for &d in &members {
                    let pd = part[d as usize] as usize;
                    trans[(sym * n + pc) * n + pd] = part[self.step(sym, c, d) as usize];
                }
            }
        }
        Dbta {
            alphabets: self.alphabets.clone(),
            n_classes: n,
            leaf_map: self.leaf_map.iter().map(|&c| part[c as usize]).collect(),
            trans,
            finals,
        }
    }

    /// Converts back to a nondeterministic automaton.
    pub fn to_nbta(&self) -> Nbta<L> {
        let mut out = Nbta::over(self.alphabets.clone());
        out.n_states = self.n_classes;
        out.finals = self.finals.clone();
        for (pos, &c) in self.leaf_map.iter().enumerate() {
            out.leaf_rules[pos].push(State(c));
        }
        let n = self.n_classes as u32;
        for sym in 0..self.alphabets.internal.len() {
            for c1 in 0..n {
                for c2 in 0..n {
                    out.rules.push(Rule {
                        sym: sym as u32,
                        left: State(c1),
                        right: State(c2),
                        targets: Targets::One(State(self.step(sym, c1, c2))),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type T = RankedTree<char>;

    fn leaf() -> T {
        RankedTree::Leaf('#')
    }

    fn node(l: char, a: T, b: T) -> T {
        RankedTree::node(l, a, b)
    }

    /// Accepts trees whose frontier-to-root path... simpler: accepts trees
    /// containing at least one 'a' internal node.
    fn contains_a() -> Nbta<char> {
        let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
        let q0 = b.add_state(); // no 'a' seen
        let q1 = b.add_state(); // 'a' seen
        b.set_final(q1, true);
        b.add_leaf_rule('#', q0);
        for (l, r, o) in [
            ('b', (q0, q0), q0),
            ('b', (q0, q1), q1),
            ('b', (q1, q0), q1),
            ('b', (q1, q1), q1),
            ('a', (q0, q0), q1),
            ('a', (q0, q1), q1),
            ('a', (q1, q0), q1),
            ('a', (q1, q1), q1),
        ]
        .map(|(l, (x, y), o)| (l, (x, y), o))
        {
            b.add_rule(l, r.0, r.1, o);
        }
        b
    }

    #[test]
    fn eval_and_accept() {
        let m = contains_a();
        assert!(!m.accepts(&leaf()));
        assert!(!m.accepts(&node('b', leaf(), leaf())));
        assert!(m.accepts(&node('a', leaf(), leaf())));
        assert!(m.accepts(&node('b', node('a', leaf(), leaf()), leaf())));
    }

    #[test]
    fn emptiness_and_witness() {
        let budget = BudgetHandle::unlimited();
        let m = contains_a();
        assert!(!m.is_empty(&budget).unwrap());
        let w = m.witness(&budget).unwrap().unwrap();
        assert!(m.accepts(&w));

        let mut empty = Nbta::new(vec!['#'], vec!['a']);
        let q = empty.add_state();
        let f = empty.add_state();
        empty.set_final(f, true);
        empty.add_leaf_rule('#', q);
        // No rule ever produces f.
        assert!(empty.is_empty(&budget).unwrap());
        assert!(empty.witness(&budget).unwrap().is_none());
    }

    #[test]
    fn determinize_complement() {
        let m = contains_a();
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        let c = d.complement();
        let samples = [
            leaf(),
            node('a', leaf(), leaf()),
            node('b', leaf(), leaf()),
            node('b', node('b', leaf(), leaf()), node('a', leaf(), leaf())),
        ];
        for t in &samples {
            assert_eq!(d.accepts(t), m.accepts(t));
            assert_eq!(c.accepts(t), !m.accepts(t));
        }
        // Round trip through NBTA preserves language.
        let back = c.to_nbta();
        for t in &samples {
            assert_eq!(back.accepts(t), !m.accepts(t));
        }
    }

    #[test]
    fn intersection_union() {
        // L1: contains 'a'. L2: root is 'b'.
        let m1 = contains_a();
        let mut m2 = Nbta::new(vec!['#'], vec!['a', 'b']);
        let any = m2.add_state();
        let rootb = m2.add_state();
        m2.set_final(rootb, true);
        m2.add_leaf_rule('#', any);
        for l in ['a', 'b'] {
            m2.add_rule(l, any, any, any);
        }
        m2.add_rule('b', any, any, rootb);
        let i = m1.intersect(&m2, &BudgetHandle::unlimited()).unwrap();
        let u = m1.union(&m2);
        let t_yes = node('b', node('a', leaf(), leaf()), leaf());
        let t_only1 = node('a', leaf(), leaf());
        let t_only2 = node('b', leaf(), leaf());
        let t_no = leaf();
        assert!(i.accepts(&t_yes));
        assert!(!i.accepts(&t_only1));
        assert!(!i.accepts(&t_only2));
        assert!(u.accepts(&t_only1));
        assert!(u.accepts(&t_only2));
        assert!(!u.accepts(&t_no));
    }

    #[test]
    fn trim_preserves_language() {
        let mut m = contains_a();
        // Add junk states.
        let dead = m.add_state();
        m.add_rule('a', dead, dead, dead);
        let trimmed = m.trim(&BudgetHandle::unlimited()).unwrap();
        assert!(trimmed.state_count() <= 2);
        for t in [
            leaf(),
            node('a', leaf(), leaf()),
            node('b', node('a', leaf(), leaf()), leaf()),
        ] {
            assert_eq!(trimmed.accepts(&t), contains_a().accepts(&t));
        }
    }

    #[test]
    fn map_and_inverse_map() {
        let m = contains_a();
        // Project 'a' and 'b' to a single symbol 'x': language becomes
        // "some projected tree containing a"; since both map to 'x', the
        // projected automaton accepts any 'x'-tree with ≥ 1 internal node.
        let p = m.map_symbols(|&c| if c == '#' { '#' } else { 'x' });
        assert!(p.accepts(&node('x', RankedTree::Leaf('#'), RankedTree::Leaf('#'))));
        assert!(!p.accepts(&RankedTree::Leaf('#')));
        // Inverse map: interpret 'A' and 'a' both as 'a', 'B' as 'b'.
        let inv = m.inverse_map(vec!['#'], vec!['A', 'B', 'a', 'b'], |&c| {
            c.to_ascii_lowercase()
        });
        assert!(inv.accepts(&node('A', leaf(), leaf())));
        assert!(!inv.accepts(&node('B', leaf(), leaf())));
    }

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let m = contains_a();
        // Pad with redundant structure: union with itself.
        let padded = m.union(&contains_a());
        let d = padded.determinize(&BudgetHandle::unlimited()).unwrap();
        let mini = d.minimize();
        assert!(mini.state_count() <= d.state_count());
        for t in [
            leaf(),
            node('a', leaf(), leaf()),
            node('b', leaf(), leaf()),
            node('b', node('a', leaf(), leaf()), node('b', leaf(), leaf())),
        ] {
            assert_eq!(mini.accepts(&t), d.accepts(&t));
        }
        // `contains_a` needs exactly 2 reachable classes.
        assert_eq!(mini.state_count(), 2);
    }

    #[test]
    fn minimize_of_complement_is_minimal_too() {
        let d = contains_a()
            .determinize(&BudgetHandle::unlimited())
            .unwrap();
        let c = d.complement().minimize();
        assert!(c.accepts(&leaf()));
        assert!(!c.accepts(&node('a', leaf(), leaf())));
        assert_eq!(c.state_count(), 2);
    }

    #[test]
    fn budgeted_ops_match_unbudgeted_and_fail_on_zero_fuel() {
        use tpx_trees::budget::{Budget, ExhaustReason};
        let m = contains_a();
        // Generous budget: identical results.
        let b = Budget::default().with_fuel(1_000_000).start();
        let i = m.intersect(&contains_a(), &b).unwrap();
        assert_eq!(
            i.state_count(),
            m.intersect(&contains_a(), &BudgetHandle::unlimited())
                .unwrap()
                .state_count()
        );
        let d = m.determinize(&b).unwrap();
        assert_eq!(
            d.state_count(),
            m.determinize(&BudgetHandle::unlimited())
                .unwrap()
                .state_count()
        );
        assert_eq!(
            m.is_empty(&b).unwrap(),
            m.is_empty(&BudgetHandle::unlimited()).unwrap()
        );
        assert!(m.witness(&b).unwrap().is_some());
        assert!(b.fuel_spent() > 0, "the ops must charge fuel");
        // Zero fuel: every op fails fast with a Fuel exhaustion.
        let z = Budget::default().with_fuel(0).start();
        for err in [
            m.intersect(&contains_a(), &z).unwrap_err(),
            m.determinize(&z).map(|_| ()).unwrap_err(),
            m.trim(&z).map(|_| ()).unwrap_err(),
            m.is_empty(&z).map(|_| ()).unwrap_err(),
            m.witness(&z).map(|_| ()).unwrap_err(),
        ] {
            assert_eq!(err.reason, ExhaustReason::Fuel);
        }
    }

    #[test]
    fn complement_of_universal_is_empty() {
        // The subset automaton interns the empty class as a sink even when
        // no tree reaches it; as the complement's only final state it must
        // not count as derivable.
        let budget = BudgetHandle::unlimited();
        let mut u = Nbta::new(vec!['#'], vec!['a']);
        let q = u.add_state();
        u.set_final(q, true);
        u.add_leaf_rule('#', q);
        u.add_rule('a', q, q, q);
        let c = u.determinize(&budget).unwrap().complement().to_nbta();
        assert!(c.is_empty(&budget).unwrap());
        assert!(c.trim(&budget).unwrap().is_empty(&budget).unwrap());
        assert!(c.witness(&budget).unwrap().is_none());
    }

    #[test]
    fn determinize_is_complete_over_alphabet() {
        // Automaton with NO rules still evaluates every tree (to the empty
        // class) after determinization.
        let m: Nbta<char> = Nbta::new(vec!['#'], vec!['a']);
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        assert!(!d.accepts(&leaf()));
        assert!(!d.accepts(&node('a', leaf(), leaf())));
        // And its complement accepts everything.
        let c = d.complement();
        assert!(c.accepts(&leaf()));
        assert!(c.accepts(&node('a', node('a', leaf(), leaf()), leaf())));
    }
}
