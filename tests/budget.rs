//! Budget semantics over the regression corpus: resource governance must
//! be *observably inert* when the budget is generous — same verdicts, no
//! degradation — and fail fast when it is zero.
//!
//! The corpus (`tests/regressions/*.case`) is the same one the replay
//! suite uses, so every schema/transducer pair here once mattered enough
//! to be a shrunk fuzzer reproducer.

use textpres::dtl::{DtlState, Rhs};
use textpres::engine::{
    Budget, CheckOptions, Decider, DecisionError, DtlDecider, Engine, OutputConformanceDecider,
    TextRetentionDecider, TopdownDecider,
};
use textpres::format::parse_case;
use textpres::prelude::{Alphabet, DtlBuilder, DtlTransducer, NodeExpr, NtaBuilder, XPathPatterns};
use textpres::treeauto::{complement_nta, difference_nta, language_equal, Nta};
use tpx_trees::budget::BudgetHandle;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(dir).expect("tests/regressions exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "case") {
            let src = std::fs::read_to_string(&path).expect("readable case file");
            cases.push((path.display().to_string(), src));
        }
    }
    assert!(!cases.is_empty(), "regression corpus must not be empty");
    cases.sort();
    cases
}

/// Runs `decider` ungoverned and under `options` (each on a fresh cache,
/// so fuel is attributed to real builds) and checks the verdicts agree.
fn assert_budget_inert(decider: &dyn Decider, nta: &Nta, options: &CheckOptions, path: &str) {
    let plain = Engine::new()
        .check_governed(decider, nta, &CheckOptions::unlimited())
        .unwrap();
    let governed = Engine::new()
        .check_governed(decider, nta, options)
        .unwrap_or_else(|e| panic!("{path}: generous budget exhausted: {e}"));
    assert_eq!(
        plain.is_preserving(),
        governed.is_preserving(),
        "{path}: the budget changed the verdict"
    );
    assert!(
        governed.degraded.is_none(),
        "{path}: a generous budget must not degrade"
    );
    assert!(
        governed.stats.stages.iter().all(|s| s.fuel.is_some()),
        "{path}: governed stages must account fuel"
    );
    assert!(
        plain.stats.stages.iter().all(|s| s.fuel.is_none()),
        "{path}: ungoverned stages must not report fuel"
    );
}

#[test]
fn generous_budget_changes_no_corpus_verdict() {
    // Top-down cases only: the symbolic DTL decider is EXPTIME and the
    // corpus DTL programs take minutes per check in a debug build, so
    // their parity coverage lives in `generous_budget_is_inert_for_dtl`
    // (small fixed programs) and their exhaustion coverage in
    // `zero_fuel_exhausts_on_every_corpus_case` (fails fast).
    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        if let Some(t) = &rc.case.transducer {
            assert_budget_inert(&TopdownDecider::new(t), &nta, &options, &path);
        }
    }
}

#[test]
fn generous_budget_is_inert_for_retention_and_conformance() {
    // The two new analyses obey the same governance contract as
    // text-preservation, over the same corpus pairs: retention over the
    // full alphabet (the strictest label set) and conformance against the
    // case's own schema.
    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        if let Some(t) = &rc.case.transducer {
            let labels: Vec<_> = rc.case.alpha.symbols().collect();
            assert_budget_inert(&TextRetentionDecider::new(t, labels), &nta, &options, &path);
            assert_budget_inert(
                &OutputConformanceDecider::new(t, &nta),
                &nta,
                &options,
                &path,
            );
        }
    }
}

#[test]
fn zero_fuel_exhausts_retention_and_conformance() {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(0));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        let engine = Engine::new();
        if let Some(t) = &rc.case.transducer {
            let labels: Vec<_> = rc.case.alpha.symbols().collect();
            let err = engine
                .check_governed(&TextRetentionDecider::new(t, labels), &nta, &options)
                .expect_err("zero fuel cannot complete a retention check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
            let err = engine
                .check_governed(&OutputConformanceDecider::new(t, &nta), &nta, &options)
                .expect_err("zero fuel cannot complete a conformance check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
    }
}

#[test]
fn generous_budget_is_inert_for_dtl() {
    let alpha = Alphabet::from_labels(["a", "b"]);
    let mut b = NtaBuilder::new(&alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    let uni = b.finish();

    // Identity (preserving) and a text-dropping (still preserving) DTL
    // program — both small enough that the symbolic check runs in seconds.
    let mut b = DtlBuilder::new(&alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child");
    b.rule_simple("q0", "b", "b", "q0", "child");
    b.text_rule("q0");
    let identity = b.finish();
    let mut b = DtlBuilder::new(&alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child[b]");
    b.rule_simple("q0", "b", "b", "qt", "child[text()]");
    b.text_rule("qt");
    let dropping = b.finish();

    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    assert_budget_inert(&DtlDecider::new(&identity), &uni, &options, "dtl/identity");
    assert_budget_inert(&DtlDecider::new(&dropping), &uni, &options, "dtl/dropping");
}

/// Fuel and witnesses do not depend on hash-map iteration order: the
/// same governed DTL check, run three times on fresh engines, charges the
/// same fuel in every stage and, when the program is not preserving,
/// reports the same witness.
#[test]
fn dtl_fuel_and_witness_are_reproducible() {
    let alpha = Alphabet::from_labels(["a"]);
    let mut b = NtaBuilder::new(&alpha);
    b.root("u");
    b.rule("u", "a", "(u | ut)*");
    b.text_rule("ut");
    let uni = b.finish();

    // a → a((q1, child) (q1, child)) with q1 keeping text: every child's
    // text twice, so copying on a("x").
    let a = alpha.sym("a");
    let mut copying = DtlTransducer::new(XPathPatterns, 2, DtlState(0));
    let calls = [0, 1].map(|_| {
        let child = textpres::xpath::parse_path("child", &mut alpha.clone()).unwrap();
        Rhs::Call(DtlState(1), copying.add_binary_pattern(child))
    });
    copying.add_rule(
        DtlState(0),
        NodeExpr::Label(a),
        vec![Rhs::Elem(a, calls.to_vec())],
    );
    copying.set_text_rule(DtlState(1), true);

    let options = CheckOptions::with_budget(Budget::default().with_fuel(500_000_000));
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let v = Engine::new()
                .check_governed(&DtlDecider::new(&copying), &uni, &options)
                .expect("a generous budget decides");
            let fuel: Vec<_> = v.stats.stages.iter().map(|s| (s.stage, s.fuel)).collect();
            (fuel, format!("{:?}", v.outcome))
        })
        .collect();
    assert!(runs[0].1.starts_with("NotPreserving"), "{:?}", runs[0].1);
    assert!(runs[0].0.iter().all(|(_, f)| f.is_some_and(|f| f > 0)));
    assert_eq!(runs[0], runs[1], "fuel or witness differs between runs");
    assert_eq!(runs[0], runs[2], "fuel or witness differs between runs");
}

/// The transducer stage builds only what its start reaches. A cold check
/// of the chain-32 deep selector (|Σ| = |Q_T| = 32) charges
/// `topdown/transducer` 3,237 fuel, under 4·|Σ|·|Q_T| = 4,096. Filling
/// the whole Lemma 4.10 role space would charge |Σ|·(1 + |Q_T| + |Q_T|²)
/// ≈ 33.8k for its rows alone (76,198 for the stage). Two fresh engines
/// charge the same fuel in every stage.
#[test]
fn topdown_transducer_fuel_stays_linear_on_a_deep_selector() {
    let (alpha, schema) = tpx_workload::chain_schema(32);
    let t = tpx_workload::deep_selector(&alpha, 32);
    let options = CheckOptions::with_budget(Budget::default().with_fuel(5_000_000));
    let runs: Vec<Vec<(&str, Option<u64>)>> = (0..2)
        .map(|_| {
            let v = Engine::new()
                .check_governed(&TopdownDecider::new(&t), &schema, &options)
                .expect("a generous budget decides");
            assert!(v.outcome.is_preserving(), "{:?}", v.outcome);
            v.stats.stages.iter().map(|s| (s.stage, s.fuel)).collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "fuel differs between fresh engines");
    let fuel = runs[0]
        .iter()
        .find(|(stage, _)| *stage == "topdown/transducer")
        .and_then(|(_, f)| *f)
        .expect("the transducer stage reports fuel");
    let bound = 4 * alpha.len() as u64 * t.state_count() as u64;
    assert!(fuel <= bound, "topdown/transducer charged {fuel} > {bound}");
}

/// The product witness searches behind `topdown/decide` (Lemma 4.10's
/// `M ∩ N`) and `conformance/decide` (`bad ∩ N`) charge reproducible fuel:
/// two fresh engines charge the same fuel in every stage of a cold check.
/// A budget one unit short of the check's total runs out inside the decide
/// stage and never yields a verdict.
#[test]
fn product_search_fuel_is_reproducible_and_exhausts_in_decide() {
    let (alpha, comb) = tpx_workload::comb_schema(8);
    let (_, swapper) = tpx_workload::transducers::suite(&alpha, 8)
        .into_iter()
        .find(|(kind, _)| *kind == tpx_workload::TransducerKind::Rearranging)
        .expect("the suite has a swapper");
    let deciders: [(Box<dyn Decider>, &str); 2] = [
        (Box::new(TopdownDecider::new(&swapper)), "topdown/decide"),
        (
            Box::new(OutputConformanceDecider::new(&swapper, &comb)),
            "conformance/decide",
        ),
    ];
    for (decider, decide_stage) in &deciders {
        let generous = CheckOptions::with_budget(Budget::default().with_fuel(5_000_000));
        let runs: Vec<Vec<(&str, Option<u64>)>> = (0..2)
            .map(|_| {
                let v = Engine::new()
                    .check_governed(decider.as_ref(), &comb, &generous)
                    .expect("a generous budget decides");
                v.stats.stages.iter().map(|s| (s.stage, s.fuel)).collect()
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "{decide_stage}: fuel differs between fresh engines"
        );
        let decide = runs[0]
            .iter()
            .find(|(stage, _)| stage == decide_stage)
            .and_then(|(_, f)| *f)
            .unwrap_or_else(|| panic!("{decide_stage} reports no fuel"));
        assert!(decide > 0, "{decide_stage} charged nothing");
        let total: u64 = runs[0].iter().filter_map(|(_, f)| *f).sum();
        let exact = CheckOptions::with_budget(Budget::default().with_fuel(total));
        Engine::new()
            .check_governed(decider.as_ref(), &comb, &exact)
            .unwrap_or_else(|e| panic!("{decide_stage}: the exact total must decide: {e}"));
        let short = CheckOptions::with_budget(Budget::default().with_fuel(total - 1));
        match Engine::new().check_governed(decider.as_ref(), &comb, &short) {
            Err(DecisionError::ResourceExhausted { stage, .. }) => {
                assert_eq!(stage, *decide_stage, "exhausted in the wrong stage");
            }
            other => panic!("{decide_stage}: one unit short must exhaust, got {other:?}"),
        }
    }
}

#[test]
fn generous_budget_is_inert_for_treeauto_set_ops() {
    // The governed automata-level ops (complement / difference) must be
    // language-identical to their ungoverned twins under generous fuel,
    // and exhaust immediately under none. Corpus schemas keep the shapes
    // honest — these are the automata the lazy decision layer feeds on.
    let generous = textpres::trees::budget::Budget::default()
        .with_fuel(200_000_000)
        .start();
    let zero = textpres::trees::budget::Budget::default()
        .with_fuel(0)
        .start();
    let mut schemas: Vec<(String, Nta)> = Vec::new();
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        schemas.push((path, rc.case.schema_nta()));
    }
    for (path, nta) in &schemas {
        let plain = complement_nta(nta, &BudgetHandle::unlimited()).unwrap();
        let governed = complement_nta(nta, &generous)
            .unwrap_or_else(|e| panic!("{path}: generous complement exhausted: {e}"));
        assert!(
            language_equal(&plain, &governed, &BudgetHandle::unlimited()).unwrap(),
            "{path}: budget changed the complement language"
        );
        assert!(
            complement_nta(nta, &zero).is_err(),
            "{path}: zero fuel must exhaust the complement"
        );
    }
    // Difference over a corpus pair: same inertness contract.
    let (p1, n1) = &schemas[0];
    let (p2, n2) = &schemas[schemas.len() - 1];
    let plain = difference_nta(n1, n2, &BudgetHandle::unlimited()).unwrap();
    let governed = difference_nta(n1, n2, &generous)
        .unwrap_or_else(|e| panic!("{p1} \\ {p2}: generous difference exhausted: {e}"));
    assert!(
        language_equal(&plain, &governed, &BudgetHandle::unlimited()).unwrap(),
        "{p1} \\ {p2}: budget changed the difference language"
    );
    assert!(generous.fuel_spent() > 0, "governed ops must account fuel");
}

#[test]
fn zero_fuel_exhausts_on_every_corpus_case() {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(0));
    for (path, src) in corpus() {
        let rc = parse_case(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let nta = rc.case.schema_nta();
        let engine = Engine::new();
        if let Some(t) = &rc.case.transducer {
            let err = engine
                .check_governed(&TopdownDecider::new(t), &nta, &options)
                .expect_err("zero fuel cannot complete a top-down check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
        if let Some(prog) = rc.case.dtl_program() {
            let err = engine
                .check_governed(&DtlDecider::new(&prog), &nta, &options)
                .expect_err("zero fuel cannot complete a DTL check");
            assert!(err.is_resource_exhausted(), "{path}: {err}");
        }
    }
}
