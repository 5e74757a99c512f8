//! Randomized validation of the NBTA Boolean operations on seeded random
//! automata and random ranked trees — the operations every decider in the
//! workspace leans on.
//!
//! Formerly proptest-based; rewritten over the in-repo deterministic PRNG
//! so the suite runs in the offline build environment (`proptest` is not a
//! resolvable dependency there). Coverage is equivalent: each property is
//! exercised on a few hundred independently seeded (automaton, tree)
//! pairs, and failures print the offending seed for replay.

use tpx_treeauto::{Nbta, RankedTree, State};
use tpx_trees::budget::BudgetHandle;
use tpx_trees::rng::SplitMix64;

type T = RankedTree<char>;

fn leaf() -> T {
    RankedTree::Leaf('#')
}

/// Random binary tree over internal symbols {a, b}, depth ≤ 4.
fn random_tree(rng: &mut SplitMix64, depth: usize) -> T {
    if depth == 0 || rng.chance(0.3) {
        return leaf();
    }
    let l = if rng.chance(0.5) { 'a' } else { 'b' };
    RankedTree::node(l, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
}

/// Random NBTA over leaf {#} and internal {a, b} with ≤ 4 states.
fn random_nbta(rng: &mut SplitMix64) -> Nbta<char> {
    let n = rng.range_inclusive(1, 4);
    let mut b = Nbta::new(vec!['#'], vec!['a', 'b']);
    for _ in 0..n {
        b.add_state();
    }
    for i in 0..n {
        if rng.chance(0.5) {
            b.add_leaf_rule('#', State(i as u32));
        }
    }
    for _ in 0..rng.below(14) {
        let l = if rng.chance(0.5) { 'a' } else { 'b' };
        b.add_rule(
            l,
            State(rng.below(n) as u32),
            State(rng.below(n) as u32),
            State(rng.below(n) as u32),
        );
    }
    for i in 0..n {
        b.set_final(State(i as u32), rng.chance(0.5));
    }
    b
}

fn pairs(cases: usize) -> impl Iterator<Item = (u64, Nbta<char>, T)> {
    (0..cases as u64).map(|seed| {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let m = random_nbta(&mut rng);
        let t = random_tree(&mut rng, 4);
        (seed, m, t)
    })
}

/// Determinization preserves the language; the complement flips it.
#[test]
fn determinize_and_complement() {
    for (seed, m, t) in pairs(200) {
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        assert_eq!(d.accepts(&t), m.accepts(&t), "seed {seed}");
        assert_eq!(d.complement().accepts(&t), !m.accepts(&t), "seed {seed}");
        // Round trip through NBTA.
        assert_eq!(d.to_nbta().accepts(&t), m.accepts(&t), "seed {seed}");
    }
}

/// Minimization preserves the language and never grows.
#[test]
fn minimize_preserves() {
    for (seed, m, t) in pairs(200) {
        let d = m.determinize(&BudgetHandle::unlimited()).unwrap();
        let mini = d.minimize();
        assert!(mini.state_count() <= d.state_count(), "seed {seed}");
        assert_eq!(mini.accepts(&t), d.accepts(&t), "seed {seed}");
    }
}

/// Products and unions have Boolean semantics; trim is invisible.
#[test]
fn boolean_ops() {
    let budget = BudgetHandle::unlimited();
    for (seed, m1, t) in pairs(200) {
        let mut rng = SplitMix64::new(seed.wrapping_add(0xB0B0));
        let m2 = random_nbta(&mut rng);
        let i = m1.intersect(&m2, &budget).unwrap();
        assert_eq!(
            i.accepts(&t),
            m1.accepts(&t) && m2.accepts(&t),
            "seed {seed}"
        );
        let u = m1.union(&m2);
        assert_eq!(
            u.accepts(&t),
            m1.accepts(&t) || m2.accepts(&t),
            "seed {seed}"
        );
        assert_eq!(
            m1.trim(&budget).unwrap().accepts(&t),
            m1.accepts(&t),
            "seed {seed}"
        );
    }
}

/// Emptiness agrees with witness extraction, and witnesses are members.
#[test]
fn emptiness_and_witness() {
    let budget = BudgetHandle::unlimited();
    for (seed, m, _) in pairs(300) {
        match m.witness(&budget).unwrap() {
            Some(w) => {
                assert!(!m.is_empty(&budget).unwrap(), "seed {seed}");
                assert!(m.accepts(&w), "seed {seed}");
            }
            None => assert!(m.is_empty(&budget).unwrap(), "seed {seed}"),
        }
    }
}

/// De Morgan: ¬(A ∪ B) = ¬A ∩ ¬B on random inputs.
#[test]
fn de_morgan() {
    let budget = BudgetHandle::unlimited();
    for (seed, m1, t) in pairs(150) {
        let mut rng = SplitMix64::new(seed.wrapping_add(0xDEAD));
        let m2 = random_nbta(&mut rng);
        let lhs = m1.union(&m2).determinize(&budget).unwrap().complement();
        let rhs = m1
            .determinize(&budget)
            .unwrap()
            .complement()
            .to_nbta()
            .intersect(
                &m2.determinize(&budget).unwrap().complement().to_nbta(),
                &budget,
            )
            .unwrap();
        assert_eq!(lhs.accepts(&t), rhs.accepts(&t), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Kernel equivalence: every NBTA operation against a naive reference
// that keeps the rules as a plain list and computes by brute force.
// ---------------------------------------------------------------------

/// A marked symbol as in the MSO pipeline: a label plus variable bits.
type Sym = (char, u8);

const NIL: Sym = ('#', 0);

/// `labels × 2^bits`, bits-major like `tpx_mso::atomic::internal_alphabet`.
fn marked(labels: &[char], bits: u32) -> Vec<Sym> {
    (0..1u8 << bits)
        .flat_map(|b| labels.iter().map(move |&c| (c, b)))
        .collect()
}

/// The reference model: states as bit positions, rules as a list.
#[derive(Clone, Debug)]
struct Naive {
    n: usize,
    finals: u64,
    leaf: u64,
    rules: Vec<(Sym, usize, usize, usize)>,
}

impl Naive {
    /// Reads a kernel automaton back through its public surface.
    fn of(a: &Nbta<Sym>) -> Naive {
        assert!(a.state_count() <= 64);
        let mut rules = Vec::new();
        for (&s, q1, q2, targets) in a.rules() {
            for t in targets {
                rules.push((s, q1.index(), q2.index(), t.index()));
            }
        }
        Naive {
            n: a.state_count(),
            finals: mask(a.states().filter(|&q| a.is_final(q)).map(State::index)),
            leaf: mask(a.leaf_states(&NIL).iter().map(|q| q.index())),
            rules,
        }
    }

    fn build(&self, alphabet: Vec<Sym>) -> Nbta<Sym> {
        let mut b = Nbta::new(vec![NIL], alphabet);
        for q in 0..self.n {
            let s = b.add_state();
            b.set_final(s, self.finals & (1 << q) != 0);
            if self.leaf & (1 << q) != 0 {
                b.add_leaf_rule(NIL, s);
            }
        }
        for &(s, q1, q2, t) in &self.rules {
            b.add_rule(s, State(q1 as u32), State(q2 as u32), State(t as u32));
        }
        b
    }

    fn step(&self, s: Sym, x: u64, y: u64) -> u64 {
        self.rules
            .iter()
            .filter(|&&(r, q1, q2, _)| r == s && x & (1 << q1) != 0 && y & (1 << q2) != 0)
            .fold(0, |m, &(_, _, _, t)| m | 1 << t)
    }

    fn eval(&self, t: &RankedTree<Sym>) -> u64 {
        match t {
            RankedTree::Leaf(_) => self.leaf,
            RankedTree::Node(s, a, b) => self.step(*s, self.eval(a), self.eval(b)),
        }
    }

    /// Brute-force fixpoint: every rule rescanned until nothing changes.
    fn derivable(&self) -> u64 {
        let mut d = self.leaf;
        loop {
            let next = self.rules.iter().fold(d, |m, &(_, q1, q2, t)| {
                if d & (1 << q1) != 0 && d & (1 << q2) != 0 {
                    m | 1 << t
                } else {
                    m
                }
            });
            if next == d {
                return d;
            }
            d = next;
        }
    }

    /// Brute-force co-derivability over derivable states.
    fn useful(&self) -> u64 {
        let d = self.derivable();
        let mut u = self.finals & d;
        loop {
            let next = self.rules.iter().fold(u, |m, &(_, q1, q2, t)| {
                let fires = d & (1 << q1) != 0 && d & (1 << q2) != 0 && u & (1 << t) != 0;
                if fires {
                    m | 1 << q1 | 1 << q2
                } else {
                    m
                }
            });
            if next == u {
                return u;
            }
            u = next;
        }
    }
}

fn mask(qs: impl Iterator<Item = usize>) -> u64 {
    qs.fold(0, |m, q| m | 1 << q)
}

/// Acceptance of each part on every tree of height ≤ 3 over `alphabet`.
/// Part `i` reads a node labelled `s` as `views[i].1(s)`. Trees are not
/// enumerated one by one: each level keeps the distinct tuples of state
/// sets the trees so far evaluate to, which covers every tree exactly.
fn accept_vectors(alphabet: &[Sym], views: &[(&Naive, &dyn Fn(Sym) -> Sym)]) -> Vec<Vec<bool>> {
    use std::collections::BTreeSet;
    let mut level: BTreeSet<Vec<u64>> = BTreeSet::new();
    level.insert(views.iter().map(|(a, _)| a.leaf).collect());
    for _ in 0..3 {
        let prev: Vec<Vec<u64>> = level.iter().cloned().collect();
        for &s in alphabet {
            for x in &prev {
                for y in &prev {
                    let t = (views.iter().enumerate())
                        .map(|(i, (a, g))| a.step(g(s), x[i], y[i]))
                        .collect();
                    level.insert(t);
                }
            }
        }
    }
    level
        .into_iter()
        .map(|t| {
            (views.iter().zip(t))
                .map(|((a, _), m)| m & a.finals != 0)
                .collect()
        })
        .collect()
}

/// A random automaton over `alphabet` (≤ 6 states): some symbols get no
/// rules at all, some keys get several targets, and self-pairs `σ(q, q)`
/// are frequent.
fn random_naive(rng: &mut SplitMix64, alphabet: &[Sym]) -> Naive {
    let n = rng.range_inclusive(1, 6);
    let used: Vec<Sym> = alphabet
        .iter()
        .copied()
        .filter(|_| rng.chance(0.7))
        .collect();
    let mut rules = Vec::new();
    if !used.is_empty() {
        for _ in 0..rng.below(4 * n + 4) {
            let s = *rng.pick(&used);
            let q1 = rng.below(n);
            let q2 = if rng.chance(0.25) { q1 } else { rng.below(n) };
            for _ in 0..rng.range_inclusive(1, 3) {
                let t = rng.below(n);
                if !rules.contains(&(s, q1, q2, t)) {
                    rules.push((s, q1, q2, t));
                }
            }
        }
    }
    Naive {
        n,
        finals: mask((0..n).filter(|_| rng.chance(0.4))),
        leaf: mask((0..n).filter(|_| rng.chance(0.4))),
        rules,
    }
}

/// The alphabet in a seeded order, so operands often disagree on symbol ids.
fn shuffled(rng: &mut SplitMix64, alphabet: &[Sym]) -> Vec<Sym> {
    let mut v = alphabet.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

const KERNEL_SEEDS: u64 = 120;

fn kernel_cases() -> impl Iterator<Item = (u64, SplitMix64)> {
    (0..KERNEL_SEEDS).map(|seed| (seed, SplitMix64::new(0x5EED_0000 + seed)))
}

fn id(s: Sym) -> Sym {
    s
}

/// Saturation, emptiness and witnesses against brute-force fixpoints.
#[test]
fn kernel_saturation_matches_fixpoints() {
    let budget = BudgetHandle::unlimited();
    let alphabet = marked(&['a', 'b'], 1);
    for (seed, mut rng) in kernel_cases() {
        let r = random_naive(&mut rng, &alphabet);
        let k = r.build(alphabet.clone());
        let derivable = k.derivable_states(&budget).unwrap();
        assert_eq!(
            mask((0..r.n).filter(|&q| derivable[q])),
            r.derivable(),
            "seed {seed}"
        );
        let nonempty = r.derivable() & r.finals != 0;
        assert_eq!(k.is_empty(&budget).unwrap(), !nonempty, "seed {seed}");
        match k.witness(&budget).unwrap() {
            Some(w) => assert!(r.eval(&w) & r.finals != 0, "seed {seed}: bad witness"),
            None => assert!(!nonempty, "seed {seed}: missing witness"),
        }
    }
}

/// `trim` keeps the language and leaves only derivable, useful states.
#[test]
fn kernel_trim_matches_reference() {
    let budget = BudgetHandle::unlimited();
    let alphabet = marked(&['a', 'b'], 1);
    for (seed, mut rng) in kernel_cases() {
        let r = random_naive(&mut rng, &alphabet);
        let t = Naive::of(&r.build(alphabet.clone()).trim(&budget).unwrap());
        let all = mask(0..t.n);
        assert_eq!(t.derivable(), all, "seed {seed}: underivable state kept");
        assert_eq!(t.useful(), all, "seed {seed}: useless state kept");
        assert_eq!(
            t.n,
            (r.derivable() & r.useful()).count_ones() as usize,
            "seed {seed}"
        );
        for acc in accept_vectors(&alphabet, &[(&r, &id), (&t, &id)]) {
            assert_eq!(acc[0], acc[1], "seed {seed}");
        }
    }
}

/// `intersect` is exactly the product over derivable pairs: same state
/// count and rule count as the brute-force product, and the intersection
/// language — also when the operands order their alphabets differently.
#[test]
fn kernel_intersect_matches_reference() {
    let budget = BudgetHandle::unlimited();
    let alphabet = marked(&['a', 'b'], 1);
    for (seed, mut rng) in kernel_cases() {
        let (r1, r2) = (
            random_naive(&mut rng, &alphabet),
            random_naive(&mut rng, &alphabet),
        );
        let k1 = r1.build(alphabet.clone());
        let k2 = r2.build(shuffled(&mut rng, &alphabet));
        let p = k1.intersect(&k2, &budget).unwrap();
        // Brute-force product: pairs as bits `a * n2 + b`.
        let pair = |a: usize, b: usize| a * r2.n + b;
        let mut prod = Naive {
            n: r1.n * r2.n,
            finals: 0,
            leaf: 0,
            rules: Vec::new(),
        };
        for a in 0..r1.n {
            for b in 0..r2.n {
                if r1.finals & (1 << a) != 0 && r2.finals & (1 << b) != 0 {
                    prod.finals |= 1 << pair(a, b);
                }
                if r1.leaf & (1 << a) != 0 && r2.leaf & (1 << b) != 0 {
                    prod.leaf |= 1 << pair(a, b);
                }
            }
        }
        for &(s, a1, a2, at) in &r1.rules {
            for &(s2, b1, b2, bt) in &r2.rules {
                if s == s2 {
                    prod.rules
                        .push((s, pair(a1, b1), pair(a2, b2), pair(at, bt)));
                }
            }
        }
        let d = prod.derivable();
        assert_eq!(
            p.state_count(),
            d.count_ones() as usize,
            "seed {seed}: states"
        );
        let live_rules = (prod.rules.iter())
            .filter(|&&(_, x, y, _)| d & (1 << x) != 0 && d & (1 << y) != 0)
            .count();
        assert_eq!(
            p.rule_count(),
            live_rules + prod.leaf.count_ones() as usize,
            "seed {seed}: rules"
        );
        let pn = Naive::of(&p);
        for acc in accept_vectors(&alphabet, &[(&r1, &id), (&r2, &id), (&pn, &id)]) {
            assert_eq!(acc[2], acc[0] && acc[1], "seed {seed}");
        }
        // The early-exit walk agrees with the product's emptiness.
        let w = k1.intersect_witness(&k2, &budget).unwrap();
        assert_eq!(w.is_some(), !p.is_empty(&budget).unwrap(), "seed {seed}");
        if let Some(w) = w {
            assert!(r1.eval(&w) & r1.finals != 0 && r2.eval(&w) & r2.finals != 0);
        }
    }
}

/// `union` accepts exactly the union.
#[test]
fn kernel_union_matches_reference() {
    let alphabet = marked(&['a', 'b'], 1);
    for (seed, mut rng) in kernel_cases() {
        let (r1, r2) = (
            random_naive(&mut rng, &alphabet),
            random_naive(&mut rng, &alphabet),
        );
        let k2 = r2.build(shuffled(&mut rng, &alphabet));
        let u = Naive::of(&r1.build(alphabet.clone()).union(&k2));
        assert_eq!(u.n, r1.n + r2.n, "seed {seed}");
        for acc in accept_vectors(&alphabet, &[(&r1, &id), (&r2, &id), (&u, &id)]) {
            assert_eq!(acc[2], acc[0] || acc[1], "seed {seed}");
        }
    }
}

/// `map_symbols` (projection of bit 0) is the relabelled rule list, and
/// `inverse_map` (cylindrification onto a wider alphabet, reading the
/// source bit from position 1 as `tpx_mso::lift` does) treats each symbol
/// as its image.
#[test]
fn kernel_relabelling_matches_reference() {
    let alphabet = marked(&['a', 'b'], 1);
    let wide = marked(&['a', 'b'], 2);
    let project = |(c, _): Sym| (c, 0u8);
    let read_bit1 = |(c, b): Sym| (c, (b >> 1) & 1);
    for (seed, mut rng) in kernel_cases() {
        let r = random_naive(&mut rng, &alphabet);
        let k = r.build(alphabet.clone());

        let projected = k.map_symbols(|&s| project(s));
        let mut reference = r.clone();
        for rule in &mut reference.rules {
            rule.0 = project(rule.0);
        }
        let images = marked(&['a', 'b'], 0);
        let pn = Naive::of(&projected);
        for acc in accept_vectors(&images, &[(&reference, &id), (&pn, &id)]) {
            assert_eq!(acc[0], acc[1], "seed {seed}: map_symbols");
        }

        let lifted = Naive::of(&k.inverse_map(vec![NIL], wide.clone(), |&s| read_bit1(s)));
        for acc in accept_vectors(&wide, &[(&r, &read_bit1), (&lifted, &id)]) {
            assert_eq!(acc[0], acc[1], "seed {seed}: inverse_map");
        }
    }
}

/// The same inputs give the same automaton, rule for rule, and the same
/// fuel: nothing depends on hash-map iteration order.
#[test]
fn kernel_is_deterministic() {
    use tpx_trees::budget::Budget;
    let alphabet = marked(&['a', 'b'], 1);
    for (seed, mut rng) in kernel_cases().take(30) {
        let (r1, r2) = (
            random_naive(&mut rng, &alphabet),
            random_naive(&mut rng, &alphabet),
        );
        let run = || {
            let budget = Budget::default().with_fuel(u64::MAX / 2).start();
            let (k1, k2) = (r1.build(alphabet.clone()), r2.build(alphabet.clone()));
            let p = k1.intersect(&k2, &budget).unwrap().trim(&budget).unwrap();
            let w = p.witness(&budget).unwrap();
            (format!("{:?}", Naive::of(&p)), w, budget.fuel_spent())
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}
