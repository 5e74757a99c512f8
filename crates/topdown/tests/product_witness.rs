//! `Nta::intersect_witness` answers the Theorem 4.11 and conformance
//! emptiness questions without building the product `M ∩ N`. This suite
//! checks it against the eager reference written here — build the
//! product, trim it, take its witness — and compares the `Option<Tree>`
//! exactly: the same witness tree, not only the same verdict.
//!
//! Inputs: seeded `random_transducer` draws over random DTDs, the
//! `transducers::suite` families on the chain and comb schemas, conformance
//! artifacts against random target schemas, and the E11 XSLT corpus pairs.
//! Failures print the offending case for replay.

use std::collections::BTreeSet;

use tpx_schema::DtdBuilder;
use tpx_topdown::decide::rearranging_nta;
use tpx_topdown::{compile_conformance_artifacts, Transducer};
use tpx_treeauto::Nta;
use tpx_trees::budget::BudgetHandle;
use tpx_trees::{Alphabet, Tree};
use tpx_workload::transducers::{random_transducer, suite};
use tpx_workload::{chain_schema, comb_schema, random_dtd, xslt_corpus};

/// The eager reference: the whole product, trimmed, then its witness.
fn eager_witness(m: &Nta, schema: &Nta) -> Option<Tree> {
    let budget = BudgetHandle::unlimited();
    m.intersect(schema, &budget)
        .and_then(|p| p.trim(&budget))
        .and_then(|p| p.witness(&budget))
        .unwrap()
}

/// Compares the search with the reference on one `(M, N)` pair and
/// returns whether the intersection is non-empty.
fn assert_same_witness(case: &str, m: &Nta, schema: &Nta) -> bool {
    let searched = m
        .intersect_witness(schema, &BudgetHandle::unlimited())
        .unwrap();
    let reference = eager_witness(m, schema);
    assert_eq!(
        searched, reference,
        "{case}: witness differs from the eager product"
    );
    if let Some(w) = &searched {
        assert!(
            m.accepts(w) && schema.accepts(w),
            "{case}: witness not in M ∩ N"
        );
    }
    searched.is_some()
}

fn rearranging(t: &Transducer) -> Nta {
    rearranging_nta(t, &BudgetHandle::unlimited()).unwrap()
}

/// Random DTD seeds; each is paired with three transducer draws.
const SEEDS: u64 = 500;

#[test]
fn random_transducers_over_random_dtds() {
    let (mut cases, mut non_empty) = (0, 0);
    for seed in 0..SEEDS {
        let schema = random_dtd(2 + (seed % 3) as usize, seed);
        let nta = schema.nta();
        for (i, rule_prob) in [0.3, 0.6, 0.9].into_iter().enumerate() {
            let n_states = 2 + (seed as usize + i) % 4;
            let t_seed = seed * 3 + i as u64;
            let t = random_transducer(&schema.alpha, n_states, rule_prob, t_seed);
            let case = format!(
                "dtd seed {seed}, states {n_states}, p {rule_prob}, transducer seed {t_seed}"
            );
            cases += 1;
            non_empty += usize::from(assert_same_witness(&case, &rearranging(&t), &nta));
        }
    }
    assert_eq!(cases, 3 * SEEDS);
    // The draws must exercise non-empty products, not only the trivially
    // equal empty ones.
    assert!(non_empty >= 50, "only {non_empty} of {cases} non-empty");
}

#[test]
fn suite_families_on_chain_and_comb_schemas() {
    let mut non_empty = 0;
    for n in [2usize, 5, 8, 16, 24, 32] {
        for (name, (alpha, nta)) in [("chain", chain_schema(n)), ("comb", comb_schema(n))] {
            for (kind, t) in suite(&alpha, n) {
                let case = format!("{name}-{n} {kind:?}");
                non_empty += usize::from(assert_same_witness(&case, &rearranging(&t), &nta));
            }
        }
    }
    // No suite family rearranges on these schemas (a chain has one text
    // node, a comb's swap depth holds at most one): all 48 are empty.
    assert_eq!(non_empty, 0);
}

#[test]
fn conformance_artifacts_against_random_targets() {
    let budget = BudgetHandle::unlimited();
    let mut non_empty = 0;
    for seed in 0..120u64 {
        let labels = 2 + (seed % 3) as usize;
        let schema = random_dtd(labels, seed);
        let target = random_dtd(labels, seed ^ 0xc0f0).nta();
        let t = random_transducer(&schema.alpha, 1 + (seed % 3) as usize, 0.6, seed);
        let art = compile_conformance_artifacts(&t, &target, labels, &budget).unwrap();
        let case = format!("conformance seed {seed}, {labels} labels");
        non_empty += usize::from(assert_same_witness(&case, &art.bad, &schema.nta()));
    }
    assert!(non_empty >= 10, "only {non_empty} violations found");
}

/// The text-format schema of an E11 corpus case (`start` / `elem name =
/// content` lines), over `alpha`.
fn corpus_schema(src: &str, alpha: &mut Alphabet) -> tpx_schema::Dtd {
    let is_name = |c: char| c.is_alphanumeric() || matches!(c, '_' | '-' | ':');
    let lines: Vec<&str> = src
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    for line in &lines {
        for token in line.split(|c: char| !is_name(c)) {
            if !matches!(token, "" | "start" | "elem" | "text") {
                alpha.intern(token);
            }
        }
    }
    let mut b = DtdBuilder::new(alpha);
    for line in &lines {
        if let Some(name) = line.strip_prefix("start ") {
            b.start(name.trim());
        } else if let Some((name, content)) =
            line.strip_prefix("elem ").and_then(|d| d.split_once('='))
        {
            b.elem(name.trim(), content.trim());
        }
    }
    b.finish()
}

#[test]
fn e11_corpus_pairs() {
    let mut seen = BTreeSet::new();
    let mut non_empty = 0;
    for seed in [1u64, 7] {
        for case in xslt_corpus(300, seed) {
            if !seen.insert((case.schema_src.clone(), case.xslt_src.clone())) {
                continue;
            }
            let mut alpha = Alphabet::new();
            corpus_schema(&case.schema_src, &mut alpha);
            let compiled = tpx_xslt::compile(&case.xslt_src, &mut alpha).unwrap();
            assert!(compiled.diagnostics.is_empty(), "{}", case.name);
            let nta = corpus_schema(&case.schema_src, &mut alpha).to_nta();
            let m = rearranging(&compiled.transducer);
            non_empty += usize::from(assert_same_witness(&case.name, &m, &nta));
        }
    }
    assert!(
        seen.len() >= 20,
        "only {} distinct corpus pairs",
        seen.len()
    );
    assert!(non_empty >= 3, "only {non_empty} reorderers found");
}
