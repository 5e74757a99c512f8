//! Cross-validation of the symbolic deciders against ground truth:
//!
//! * the PTIME decider (Theorem 4.11) against semantic evaluation on
//!   sampled schema trees and against its own witnesses,
//! * the copying NFA route (Lemma 4.9) against the copying NTA route
//!   (tree-level Lemma 4.5) on random transducers,
//! * the DTL operational checks (Lemmas 5.4/5.5) against semantic
//!   evaluation on random inputs.

use textpres::prelude::*;
use tpx_trees::budget::BudgetHandle;
use tpx_trees::make_value_unique;

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

/// The decider's verdict must match exhaustive semantic checking on many
/// sampled schema trees; its witnesses must be genuine.
#[test]
fn topdown_decider_vs_semantics_on_random_transducers() {
    let alpha = tpx_workload::transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let mut preserving_count = 0;
    let mut violating_count = 0;
    for seed in 0..40 {
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.8, seed);
        let report = textpres::check_topdown(&t, &schema);
        match &report {
            CheckReport::TextPreserving => {
                preserving_count += 1;
                // No sampled tree may violate.
                for tree_seed in 0..30 {
                    if let Some(tree) = tpx_workload::random_schema_tree(&schema, 10, tree_seed) {
                        let unique = Tree::from_hedge(make_value_unique(tree.as_hedge())).unwrap();
                        assert!(
                            tpx_topdown::semantic::text_preserving_on(&t, &unique),
                            "decider said preserving but seed {seed}/{tree_seed} violates"
                        );
                    }
                }
            }
            CheckReport::Rearranging { witness } => {
                violating_count += 1;
                assert!(
                    schema.accepts(witness),
                    "seed {seed}: witness outside schema"
                );
                assert!(
                    tpx_topdown::semantic::rearranging_on(&t, witness),
                    "seed {seed}: rearranging witness not semantically rearranging"
                );
            }
            CheckReport::Copying { path } => {
                violating_count += 1;
                // The path must be a schema path with a transducer run.
                let a_n = tpx_topdown::path_automaton_nta(&schema);
                let a_t = tpx_topdown::path_automaton_transducer(&t);
                assert!(
                    a_n.accepts(path),
                    "seed {seed}: witness path outside schema"
                );
                assert!(a_t.accepts(path), "seed {seed}: no run on witness path");
            }
        }
    }
    // The random family must exercise both outcomes.
    assert!(preserving_count > 0, "random suite never preserving");
    assert!(violating_count > 0, "random suite never violating");
}

/// Lemma 4.9's NFA construction and the tree-level copying NTA accept the
/// same verdicts.
#[test]
fn copying_nfa_route_agrees_with_nta_route() {
    let budget = BudgetHandle::unlimited();
    let alpha = tpx_workload::transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    for seed in 0..60 {
        let t = tpx_workload::transducers::random_transducer(&alpha, 2, 0.7, seed);
        let via_nfa = tpx_topdown::decide::copying_witness(&t, &schema).is_some();
        let via_nta = !tpx_topdown::subschema::copying_nta(&t, &budget)
            .unwrap()
            .intersect(&schema, &budget)
            .unwrap()
            .trim(&budget)
            .unwrap()
            .is_empty(&budget)
            .unwrap();
        assert_eq!(via_nfa, via_nta, "seed {seed}");
    }
}

/// The ground-truth transducer families get the right verdict at several
/// scales (E1's workload sanity).
#[test]
fn workload_suite_ground_truth() {
    let alpha = tpx_workload::transducers::plain_alphabet(3);
    let schema = universal(&alpha);
    for n in [2, 4, 8] {
        for (kind, t) in tpx_workload::transducers::suite(&alpha, n) {
            let verdict = textpres::check_topdown(&t, &schema).is_preserving();
            assert_eq!(
                verdict,
                kind == tpx_workload::TransducerKind::Preserving,
                "kind {kind:?} at n={n}"
            );
        }
    }
}

/// DTL per-tree operational checks (Lemmas 5.4/5.5) agree with semantic
/// evaluation on random trees, through the top-down → DTL translation.
#[test]
fn dtl_lemma_checks_vs_semantics_on_random_inputs() {
    let alpha = tpx_workload::transducers::plain_alphabet(2);
    let cfg = tpx_workload::TreeGenConfig {
        n_symbols: 2,
        max_depth: 3,
        max_children: 3,
        text_prob: 0.5,
    };
    for seed in 0..25 {
        let td = tpx_workload::transducers::random_transducer(&alpha, 2, 0.8, seed);
        let dtl = tpx_dtl::from_topdown(&td);
        for tree_seed in 0..8 {
            let tree = tpx_workload::random_tree(&cfg, 1000 + tree_seed);
            let sem_copy = tpx_dtl::config::copying_on(&dtl, &tree).unwrap();
            let lem_copy = tpx_dtl::config::copying_lemma_5_4(&dtl, &tree).unwrap();
            assert_eq!(sem_copy, lem_copy, "copying seed {seed}/{tree_seed}");
            let sem_re = tpx_dtl::config::rearranging_on(&dtl, &tree).unwrap();
            let lem_re = tpx_dtl::config::rearranging_lemma_5_5(&dtl, &tree).unwrap();
            assert_eq!(sem_re, lem_re, "rearranging seed {seed}/{tree_seed}");
            // And the DTL translation agrees with the original transducer.
            assert_eq!(
                td.transform(&tree),
                dtl.transform(&tree).unwrap(),
                "translation seed {seed}/{tree_seed}"
            );
        }
    }
}

/// The bounded-enumeration baseline never contradicts the PTIME decider
/// (it is sound, and complete up to its bound).
#[test]
fn bounded_baseline_consistent_with_decider() {
    let alpha = tpx_workload::transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    for seed in 0..15 {
        let td = tpx_workload::transducers::random_transducer(&alpha, 2, 0.8, seed);
        let dtl = tpx_dtl::from_topdown(&td);
        let decider_preserving = textpres::check_topdown(&td, &schema).is_preserving();
        let bounded = tpx_dtl::bounded::bounded_counterexample(&dtl, &schema, 5, 2000).unwrap();
        if let Some(w) = bounded {
            assert!(
                !decider_preserving,
                "seed {seed}: bounded found {w:?} but decider says preserving"
            );
        }
        // (If the bounded search finds nothing, either verdict is possible:
        // the counter-example may simply be larger than the bound.)
    }
}
