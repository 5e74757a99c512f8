//! Randomized tests of the paper's core invariants on seeded random inputs.
//!
//! Formerly proptest-based; rewritten over the in-repo deterministic PRNG
//! (`tpx_trees::rng`) so the suite runs in the offline build environment
//! where `proptest` is not resolvable. Each property runs on a fixed fan of
//! seeds; assertion messages carry the seed for replay.

use textpres::prelude::*;
use tpx_trees::make_value_unique;
use tpx_trees::rng::SplitMix64;

/// A random small term-syntax tree over {a0, a1} with text leaves,
/// mirroring the old proptest strategy: depth-bounded, ≤ 3 children.
fn random_tree_src(rng: &mut SplitMix64, depth: usize) -> String {
    if depth == 0 || rng.chance(0.25) {
        return match rng.below(3) {
            0 => "a0".to_owned(),
            1 => "a1".to_owned(),
            _ => {
                let len = rng.range_inclusive(1, 3);
                let text: String = (0..len)
                    .map(|_| char::from(b'a' + rng.below(3) as u8))
                    .collect();
                format!("\"{text}\"")
            }
        };
    }
    let label = if rng.chance(0.5) { "a0" } else { "a1" };
    let kids: Vec<String> = (0..rng.below(3))
        .map(|_| random_tree_src(rng, depth - 1))
        .collect();
    if kids.is_empty() {
        label.to_owned()
    } else {
        format!("{label}({})", kids.join(" "))
    }
}

fn parse(src: &str) -> (Alphabet, Tree) {
    let mut alpha = tpx_workload::transducers::plain_alphabet(2);
    let t = tpx_trees::term::parse_tree(src, &mut alpha).unwrap();
    (alpha, t)
}

/// A seeded (tree, transducer-seed) fan. Only element-labelled roots are
/// yielded (transducers start at Σ-labels; text roots are trivially fine).
fn cases(n: usize, depth: usize) -> impl Iterator<Item = (u64, Alphabet, Tree)> {
    (0..n as u64 * 4)
        .filter_map(move |seed| {
            let mut rng = SplitMix64::new(seed.wrapping_mul(0x5851_F42D).wrapping_add(7));
            let src = random_tree_src(&mut rng, depth);
            let (alpha, tree) = parse(&src);
            matches!(tree.label(tree.root()), NodeLabel::Elem(_)).then_some((seed, alpha, tree))
        })
        .take(n)
}

/// Theorem 3.3 on random transducers and random trees: text-preserving on
/// the value-unique version ⟺ neither copying nor rearranging.
#[test]
fn theorem_3_3() {
    for (seed, alpha, tree) in cases(64, 3) {
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.7, seed);
        assert!(
            tpx_topdown::semantic::theorem_3_3_holds_on(&t, &tree),
            "seed {seed}"
        );
    }
}

/// Lemma 4.3: top-down uniform transducers are admissible
/// (Text-independent and Text-functional).
#[test]
fn lemma_4_3_admissibility() {
    for (seed, alpha, tree) in cases(64, 3) {
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.7, seed);
        assert!(
            tpx_topdown::semantic::admissible_on(&t, &tree),
            "seed {seed}"
        );
    }
}

/// The identity transformation is always text-preserving, and deleting
/// subtrees never breaks preservation.
#[test]
fn identity_and_deletion_preserve() {
    for (seed, alpha, tree) in cases(64, 3) {
        let id = tpx_workload::identity_transducer(&alpha);
        assert!(
            tpx_topdown::semantic::text_preserving_on(&id, &tree),
            "seed {seed}"
        );
        // Delete all a1-subtrees.
        let mut tb = TransducerBuilder::new(&alpha, "q0");
        tb.rule("q0", "a0", "a0(q0)");
        tb.text_rule("q0");
        let del = tb.finish();
        assert!(
            tpx_topdown::semantic::text_preserving_on(&del, &tree),
            "seed {seed}"
        );
    }
}

/// Transducer reduction (Section 4.1) preserves the transformation.
#[test]
fn reduction_preserves_semantics() {
    for (seed, alpha, tree) in cases(64, 3) {
        let t = tpx_workload::transducers::random_transducer(&alpha, 3, 0.6, seed);
        let r = t.reduce();
        assert!(r.is_reduced(), "seed {seed}");
        assert_eq!(t.transform(&tree), r.transform(&tree), "seed {seed}");
    }
}

/// The top-down → DTL translation (Section 5.1) is semantics-preserving.
#[test]
fn dtl_translation_equivalent() {
    for (seed, alpha, tree) in cases(64, 3) {
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.7, seed);
        let dtl = tpx_dtl::from_topdown(&t);
        assert_eq!(
            t.transform(&tree),
            dtl.transform(&tree).unwrap(),
            "seed {seed}"
        );
    }
}

/// The subsequence relation really characterizes per-run preservation:
/// a value-unique input is preserved iff no duplicate values and no
/// inversions appear in the output.
#[test]
fn definition_2_2_vs_3_1() {
    for (seed, alpha, tree) in cases(64, 3) {
        let unique = Tree::from_hedge(make_value_unique(tree.as_hedge())).unwrap();
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.7, seed);
        let preserved = tpx_topdown::semantic::text_preserving_on(&t, &unique);
        let copying = tpx_topdown::semantic::copying_on(&t, &unique);
        let rearranging = tpx_topdown::semantic::rearranging_on(&t, &unique);
        assert_eq!(preserved, !copying && !rearranging, "seed {seed}");
    }
}

/// XPath evaluation (Table 1) agrees with the XPath → MSO translation
/// (evaluated naively) on random trees, for a library of expressions.
#[test]
fn xpath_vs_mso_on_random_trees() {
    let mut done = 0;
    for (seed, alpha, tree) in cases(64, 2) {
        if tree.node_count() > 10 {
            continue;
        }
        done += 1;
        let mut alpha = alpha;
        for expr in ["child", "child[a0]/next", "(child)*[a1]", "parent/child"] {
            let path = tpx_xpath::parse_path(expr, &mut alpha).unwrap();
            let rel = tpx_xpath::all_pairs(&tree, &path);
            let (x, y) = (tpx_mso::Var(0), tpx_mso::Var(1));
            let mut gen = tpx_dtl::xpath_mso::gen_above(&[x, y]);
            let f = tpx_dtl::xpath_mso::path_expr_to_mso(&path, x, y, &mut gen);
            for &v in &tree.dfs() {
                for &u in &tree.dfs() {
                    let asg = tpx_mso::Assignment::new().bind(x, v).bind(y, u);
                    assert_eq!(
                        tpx_mso::naive_eval(&tree, &f, &asg).unwrap(),
                        rel.contains(v, u),
                        "seed {seed}: {expr} at {v:?},{u:?}"
                    );
                }
            }
        }
        if done >= 24 {
            break;
        }
    }
    assert!(done >= 8, "too few small trees sampled: {done}");
}

/// Schema validation agrees between the DTD and its NTA compilation on
/// random trees.
#[test]
fn dtd_vs_nta_membership() {
    for (seed, alpha, tree) in cases(64, 3) {
        let mut db = DtdBuilder::new(&alpha);
        db.start("a0");
        db.elem("a0", "(a0 | a1 | text)*");
        db.elem("a1", "a0* text?");
        let dtd = db.finish();
        let nta = dtd.to_nta();
        assert_eq!(dtd.validates(&tree), nta.accepts(&tree), "seed {seed}");
    }
}
