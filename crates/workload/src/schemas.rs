//! Scalable schema families for the experiments, plus a seeded random
//! DTD generator for differential testing.

use tpx_schema::{Dtd, DtdBuilder};
use tpx_treeauto::Nta;
use tpx_trees::budget::BudgetHandle;
use tpx_trees::rng::SplitMix64;
use tpx_trees::Alphabet;

/// A chain schema of depth `n`: `root(l1(l2(… (text) …)))` — exactly one
/// path, used to scale `|N|` linearly (E1/E2).
///
/// Returns the alphabet (labels `l0..l(n-1)`) and the NTA.
pub fn chain_schema(n: usize) -> (Alphabet, Nta) {
    assert!(n >= 1);
    let alpha = Alphabet::from_labels((0..n).map(|i| format!("l{i}")));
    let mut b = tpx_treeauto::NtaBuilder::new(&alpha);
    b.root("q0");
    for i in 0..n {
        let content = if i + 1 < n {
            format!("q{}", i + 1)
        } else {
            "qt".to_owned()
        };
        b.rule(&format!("q{i}"), &format!("l{i}"), &content);
    }
    b.text_rule("qt");
    (alpha, b.finish())
}

/// A comb schema over `width` sibling labels: the root has any number of
/// children from `width` kinds, each holding optional text — scales content
/// model width (E1/E2).
pub fn comb_schema(width: usize) -> (Alphabet, Nta) {
    assert!(width >= 1);
    let mut labels = vec!["root".to_owned()];
    labels.extend((0..width).map(|i| format!("c{i}")));
    let alpha = Alphabet::from_labels(labels.iter().map(String::as_str));
    let mut b = tpx_treeauto::NtaBuilder::new(&alpha);
    b.root("q0");
    let union = (0..width)
        .map(|i| format!("p{i}"))
        .collect::<Vec<_>>()
        .join(" | ");
    b.rule("q0", "root", &format!("({union})*"));
    for i in 0..width {
        b.rule(&format!("p{i}"), &format!("c{i}"), "qt?");
    }
    b.text_rule("qt");
    (alpha, b.finish())
}

/// A random DTD-shaped schema with its declaration sources — the raw
/// `(element, content-model)` pairs are kept so the schema can be shrunk
/// declaration-by-declaration and serialized as a regression case.
#[derive(Clone, Debug)]
pub struct RandomSchema {
    /// The label alphabet (`a0..a(n-1)`).
    pub alpha: Alphabet,
    /// Start symbol names.
    pub starts: Vec<String>,
    /// `(element name, content model)` declarations, in source order.
    pub decls: Vec<(String, String)>,
}

impl RandomSchema {
    /// Builds the DTD from the current declarations.
    pub fn dtd(&self) -> Dtd {
        let mut b = DtdBuilder::new(&self.alpha);
        for s in &self.starts {
            b.start(s);
        }
        for (name, content) in &self.decls {
            b.elem(name, content);
        }
        b.finish()
    }

    /// The schema as an NTA.
    pub fn nta(&self) -> Nta {
        self.dtd().to_nta()
    }
}

/// A random DTD over labels `a0..a(n_labels-1)`, deterministic in `seed`,
/// with a non-empty language (re-rolled over derived seeds until the start
/// symbol is productive; a text-only fallback guarantees termination).
pub fn random_dtd(n_labels: usize, seed: u64) -> RandomSchema {
    assert!(n_labels >= 1);
    let alpha = crate::transducers::plain_alphabet(n_labels);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..16 {
        let schema = roll_dtd(&alpha, n_labels, &mut rng);
        if !schema
            .nta()
            .is_empty(&BudgetHandle::unlimited())
            .expect("unlimited budget")
        {
            return schema;
        }
    }
    // Degenerate fallback: every element holds text; trivially non-empty.
    RandomSchema {
        alpha: alpha.clone(),
        starts: vec!["a0".to_owned()],
        decls: (0..n_labels)
            .map(|i| (format!("a{i}"), "text".to_owned()))
            .collect(),
    }
}

fn roll_dtd(alpha: &Alphabet, n_labels: usize, rng: &mut SplitMix64) -> RandomSchema {
    let label = |rng: &mut SplitMix64| format!("a{}", rng.below(n_labels));
    let decls = (0..n_labels)
        .map(|i| {
            let (x, y) = (label(rng), label(rng));
            let content = match rng.below(8) {
                0 => "text".to_owned(),
                1 => format!("({x} | {y} | text)*"),
                2 => format!("{x}*"),
                3 => format!("{x}? {y}?"),
                4 => format!("{x} {y}"),
                5 => format!("({x} | text)*"),
                6 => format!("({x} {y})?"),
                _ => format!("{x}* text?"),
            };
            (format!("a{i}"), content)
        })
        .collect();
    RandomSchema {
        alpha: alpha.clone(),
        starts: vec![label(rng)],
        decls,
    }
}

/// The recipe schema (Example 2.3) as an NTA, with its alphabet.
pub fn recipe_schema() -> (Alphabet, Nta) {
    let alpha = tpx_trees::samples::recipe_alphabet();
    let nta = tpx_schema::samples::recipe_dtd(&alpha).to_nta();
    (alpha, nta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::random_schema_tree;

    #[test]
    fn chain_schema_has_single_witness_shape() {
        let budget = BudgetHandle::unlimited();
        let (_, nta) = chain_schema(5);
        assert!(!nta.is_empty(&budget).unwrap());
        let w = nta.witness(&budget).unwrap().unwrap();
        assert_eq!(w.node_count(), 6); // 5 elements + text leaf
    }

    #[test]
    fn comb_schema_accepts_any_mix() {
        let (mut alpha, nta) = comb_schema(3);
        let t = tpx_trees::term::parse_tree(r#"root(c0("x") c2 c1("y") c0)"#, &mut alpha).unwrap();
        assert!(nta.accepts(&t));
        let bad = tpx_trees::term::parse_tree(r#"c0("x")"#, &mut alpha).unwrap();
        assert!(!nta.accepts(&bad));
    }

    #[test]
    fn schemas_are_samplable() {
        for (name, (_, nta)) in [
            ("chain", chain_schema(4)),
            ("comb", comb_schema(4)),
            ("recipe", recipe_schema()),
        ] {
            let t = random_schema_tree(&nta, 20, 1).unwrap_or_else(|| panic!("{name}"));
            assert!(nta.accepts(&t), "{name}");
        }
    }

    #[test]
    fn random_dtd_is_deterministic_nonempty_and_samplable() {
        for seed in 0..30 {
            let s1 = random_dtd(3, seed);
            let s2 = random_dtd(3, seed);
            assert_eq!(s1.decls, s2.decls, "seed {seed}");
            assert_eq!(s1.starts, s2.starts, "seed {seed}");
            let nta = s1.nta();
            assert!(
                !nta.is_empty(&BudgetHandle::unlimited()).unwrap(),
                "seed {seed}: empty language"
            );
            let t = random_schema_tree(&nta, 15, seed).unwrap();
            assert!(nta.accepts(&t), "seed {seed}");
            assert!(s1.dtd().validates(&t), "seed {seed}");
        }
    }

    #[test]
    fn sizes_scale() {
        let (_, small) = chain_schema(4);
        let (_, big) = chain_schema(64);
        assert!(big.size() > 10 * small.size() / 2);
    }
}
