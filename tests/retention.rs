//! Seeded equivalence suite for the text-retention analysis: over random
//! DTDs, random top-down transducers and random label subsets, the
//! symbolic [`TextRetentionDecider`] must agree with the bounded
//! enumerate-and-run oracle — a *keeps-everything* verdict is contradicted
//! by no enumerated schema tree, and a *deletes* verdict carries a
//! deleted-path witness that validates exactly (schema path, through a
//! selected label, no transducer path run). The mixed-analysis batch test
//! pins the cache-sharing contract: one schema's shared artifacts compile
//! exactly once across analyses and deciders, deterministically on 1/2/4
//! workers, and every decider prefetches exactly the stages its check
//! consumes.

use textpres::engine::{
    CheckOptions, Decider, DtlDecider, Engine, Outcome, OutputConformanceDecider, Task,
    TextRetentionDecider, TopdownDecider, Verdict, OUTPUT_CONFORMANCE, TEXT_PRESERVATION,
    TEXT_RETENTION,
};
use textpres::prelude::*;
use textpres::topdown::{path_automaton_nta, path_automaton_transducer, PathSym};
use textpres::trees::make_value_unique;
use tpx_workload::{random_dtd, random_transducer};

/// The value-unique version of `tree` (so output values identify their
/// input occurrences).
fn unique_tree(tree: &Tree) -> Tree {
    Tree::from_hedge(make_value_unique(tree.as_hedge())).expect("uniquifying keeps the shape")
}

/// The enumerate-and-run oracle: does `t` delete some text value of `tree`
/// sitting strictly below a node labeled in `labels`?
fn deleted_under(t: &Transducer, tree: &Tree, labels: &[Symbol]) -> bool {
    let unique = unique_tree(tree);
    let out = t.transform(&unique);
    let kept: std::collections::HashSet<&str> = out.text_content().into_iter().collect();
    let h = unique.as_hedge();
    let mut stack: Vec<(textpres::trees::NodeId, bool)> =
        h.roots().iter().map(|&v| (v, false)).collect();
    while let Some((v, below)) = stack.pop() {
        match h.label(v) {
            NodeLabel::Text(value) => {
                if below && !kept.contains(value.as_str()) {
                    return true;
                }
            }
            NodeLabel::Elem(s) => {
                let below = below || labels.contains(s);
                stack.extend(h.children(v).iter().map(|&c| (c, below)));
            }
        }
    }
    false
}

/// Deterministic label subsets for one seed: every singleton, a
/// seed-derived mixed subset, and the full alphabet.
fn label_subsets(alpha: &Alphabet, seed: u64) -> Vec<Vec<Symbol>> {
    let symbols: Vec<Symbol> = alpha.symbols().collect();
    let mut subsets: Vec<Vec<Symbol>> = symbols.iter().map(|&s| vec![s]).collect();
    let mixed: Vec<Symbol> = symbols
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| (seed >> i) & 1 == 1)
        .map(|(_, s)| s)
        .collect();
    if !mixed.is_empty() && mixed.len() < symbols.len() {
        subsets.push(mixed);
    }
    subsets.push(symbols);
    subsets
}

#[test]
fn retention_decider_matches_bounded_enumerate_and_run_oracle() {
    let engine = Engine::new();
    let mut deletions = 0usize;
    for n_labels in [2usize, 3] {
        for seed in 0..10u64 {
            let schema = random_dtd(n_labels, seed);
            let nta = schema.nta();
            let t = random_transducer(&schema.alpha, 2, 0.8, seed ^ 0xDEAD_BEEF);
            let trees = textpres::dtl::bounded::enumerate_schema_trees(&nta, 5, 200);
            for labels in label_subsets(&schema.alpha, seed) {
                let ctx = format!("n_labels {n_labels}, seed {seed}, labels {labels:?}");
                let verdict = engine
                    .check_governed(
                        &TextRetentionDecider::new(&t, labels.clone()),
                        &nta,
                        &CheckOptions::unlimited(),
                    )
                    .unwrap();
                assert_eq!(verdict.analysis, TEXT_RETENTION, "{ctx}");
                assert_eq!(verdict.decider, "topdown/retention", "{ctx}");
                match &verdict.outcome {
                    Outcome::Preserving => {
                        for tree in &trees {
                            assert!(
                                !deleted_under(&t, tree, &labels),
                                "{ctx}: decider says retains; the oracle found a deletion on {}",
                                tree.display(&schema.alpha)
                            );
                        }
                    }
                    Outcome::DeletesText { path } => {
                        deletions += 1;
                        assert!(
                            path_automaton_nta(&nta).accepts(path),
                            "{ctx}: witness path is not a schema path"
                        );
                        assert!(
                            path.iter()
                                .any(|p| labels.iter().any(|&l| *p == PathSym::Elem(l))),
                            "{ctx}: witness path misses the selected labels"
                        );
                        assert!(
                            !path_automaton_transducer(&t).accepts(path),
                            "{ctx}: transducer keeps the witness path's value"
                        );
                    }
                    other => panic!("{ctx}: foreign outcome {other:?}"),
                }
            }
        }
    }
    // The suite must exercise both verdicts; random transducers with
    // density 0.8 drop rules often enough that deletions are plentiful.
    assert!(deletions > 0, "no deletion detected — suite is vacuous");
}

#[test]
fn retention_shares_the_schema_artifact_with_text_preservation() {
    let unlimited = CheckOptions::unlimited();
    // The retention decider declares the *same* analysis-free
    // `topdown/schema` stage as the text-preservation decider, so running
    // either one first means the other hits the cache.
    let schema = random_dtd(3, 7);
    let nta = schema.nta();
    let t = random_transducer(&schema.alpha, 2, 0.8, 99);
    let labels: Vec<Symbol> = schema.alpha.symbols().collect();
    let engine = Engine::new();
    let first = engine
        .check_governed(&TopdownDecider::new(&t), &nta, &unlimited)
        .unwrap();
    assert_eq!(
        first.stats.stage("topdown/schema").unwrap().cache_hit,
        Some(false)
    );
    let second = engine
        .check_governed(
            &TextRetentionDecider::new(&t, labels.clone()),
            &nta,
            &unlimited,
        )
        .unwrap();
    assert_eq!(
        second.stats.stage("topdown/schema").unwrap().cache_hit,
        Some(true),
        "retention must reuse the schema artifact"
    );
    // The retention transducer artifact is label-independent: a different
    // label set against the same transducer hits it.
    let third = engine
        .check_governed(
            &TextRetentionDecider::new(&t, labels[..1].to_vec()),
            &nta,
            &unlimited,
        )
        .unwrap();
    assert_eq!(
        third
            .stats
            .stage("topdown/retention/transducer")
            .unwrap()
            .cache_hit,
        Some(true),
        "the retention transducer artifact must be shared across label sets"
    );
}

#[test]
fn mixed_analysis_batch_compiles_shared_artifacts_once_and_is_deterministic() {
    let schema = random_dtd(3, 11);
    let nta = schema.nta();
    let t = random_transducer(&schema.alpha, 2, 0.8, 42);
    let labels: Vec<Symbol> = schema.alpha.symbols().collect();
    let mut b = DtlBuilder::new(&schema.alpha, "q0");
    for (_, label) in schema.alpha.entries() {
        b.rule_simple("q0", label, label, "q0", "child");
    }
    b.text_rule("q0");
    let identity_dtl = b.finish();
    let mut verdicts_by_jobs: Vec<Vec<(&'static str, bool)>> = Vec::new();
    for jobs in [1usize, 2, 4] {
        let engine = Engine::with_jobs(jobs);
        let preservation = TopdownDecider::new(&t);
        let retention = TextRetentionDecider::new(&t, labels.clone());
        let conformance = OutputConformanceDecider::new(&t, &nta);
        let dtl = DtlDecider::new(&identity_dtl);
        let tasks: Vec<Task> = vec![
            (&preservation as &dyn Decider, &nta),
            (&retention as &dyn Decider, &nta),
            (&conformance as &dyn Decider, &nta),
            (&dtl as &dyn Decider, &nta),
        ];
        let results = engine.check_many_governed(&tasks, &CheckOptions::unlimited());
        let verdicts: Vec<Verdict> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("jobs {jobs}: {e}")))
            .collect();
        assert_eq!(verdicts[0].analysis, TEXT_PRESERVATION);
        assert_eq!(verdicts[1].analysis, TEXT_RETENTION);
        assert_eq!(verdicts[2].analysis, OUTPUT_CONFORMANCE);
        assert_eq!(verdicts[3].analysis, TEXT_PRESERVATION);
        assert!(
            verdicts[3].is_preserving(),
            "the identity DTL preserves text"
        );
        // The batch needs exactly six distinct artifacts: the top-down
        // schema bundle (shared by preservation and retention), the two
        // top-down transducer-side bundles, the conformance inverse, and
        // the DTL schema NBTA and counter-example automaton. Each
        // compiles exactly once; every per-check stage report is a hit
        // because the prefetch tasks own the misses.
        let stats = engine.cache_stats();
        assert_eq!(
            stats.misses, 6,
            "jobs {jobs}: shared artifacts must compile exactly once"
        );
        assert_eq!(stats.entries, 6, "jobs {jobs}");
        for v in &verdicts {
            for s in v.stats.stages.iter().filter(|s| s.cache_hit.is_some()) {
                assert_eq!(
                    s.cache_hit,
                    Some(true),
                    "jobs {jobs}: check-side stage {} must be prefetched",
                    s.stage
                );
            }
        }
        verdicts_by_jobs.push(
            verdicts
                .iter()
                .map(|v| (v.analysis.name, v.is_preserving()))
                .collect(),
        );
    }
    assert_eq!(verdicts_by_jobs[0], verdicts_by_jobs[1]);
    assert_eq!(verdicts_by_jobs[0], verdicts_by_jobs[2]);
}

#[test]
fn conformance_decider_agrees_with_the_transform_oracle_on_enumerated_trees() {
    // Identity conforms to its own schema; a violating verdict's witness
    // image must really fail target validation.
    for seed in 0..8u64 {
        let schema = random_dtd(2, seed);
        let nta = schema.nta();
        let t = random_transducer(&schema.alpha, 2, 0.8, seed ^ 0x5151);
        let engine = Engine::new();
        let verdict = engine
            .check_governed(
                &OutputConformanceDecider::new(&t, &nta),
                &nta,
                &CheckOptions::unlimited(),
            )
            .unwrap();
        assert_eq!(verdict.analysis, OUTPUT_CONFORMANCE, "seed {seed}");
        match &verdict.outcome {
            Outcome::Preserving => {
                for tree in textpres::dtl::bounded::enumerate_schema_trees(&nta, 5, 200) {
                    assert!(
                        textpres::topdown::conforms_on(&t, &tree, &nta),
                        "seed {seed}: conformance holds symbolically but {} violates",
                        tree.display(&schema.alpha)
                    );
                }
            }
            Outcome::NonConforming { witness } => {
                assert!(nta.accepts(witness), "seed {seed}: witness outside schema");
                assert!(
                    !textpres::topdown::conforms_on(&t, witness, &nta),
                    "seed {seed}: witness image conforms after all"
                );
            }
            other => panic!("seed {seed}: foreign outcome {other:?}"),
        }
    }
}
