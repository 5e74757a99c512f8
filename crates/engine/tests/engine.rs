//! Integration tests for the decision engine: cache semantics, batch
//! consistency, verdict structure, and resource governance (budgets, panic
//! isolation, graceful degradation).

use tpx_engine::{
    ArtifactCache, Budget, CheckOptions, Decider, DecisionError, DegradeBound, DtlDecider, Engine,
    ExhaustReason, Outcome, Task, TopdownDecider, Verdict,
};
use tpx_treeauto::{Nta, NtaBuilder};
use tpx_trees::Alphabet;
use tpx_workload::{chain_schema, comb_schema, recipe_schema, transducers};

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

#[test]
fn schema_artifacts_compile_once_across_transducers() {
    let unlimited = CheckOptions::unlimited();
    let (alpha, schema) = chain_schema(4);
    let engine = Engine::new();
    // Three distinct transducers against ONE schema.
    let t1 = transducers::identity_transducer(&alpha);
    let t2 = transducers::deep_selector(&alpha, 3);
    let t3 = transducers::copier_at_depth(&alpha, 3, 1);
    let v1 = engine
        .check_governed(&TopdownDecider::new(&t1), &schema, &unlimited)
        .unwrap();
    let v2 = engine
        .check_governed(&TopdownDecider::new(&t2), &schema, &unlimited)
        .unwrap();
    let v3 = engine
        .check_governed(&TopdownDecider::new(&t3), &schema, &unlimited)
        .unwrap();
    // First check builds the schema artifact; the later two hit it.
    assert_eq!(
        v1.stats.stage("topdown/schema").unwrap().cache_hit,
        Some(false)
    );
    for v in [&v2, &v3] {
        assert_eq!(
            v.stats.stage("topdown/schema").unwrap().cache_hit,
            Some(true)
        );
    }
    // Cache-wide: exactly 1 schema + 3 transducer compilations.
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 4, "1 schema + 3 transducer artifacts");
    assert_eq!(stats.entries, 4);
    assert_eq!(stats.hits, 2, "two schema-side hits");
}

#[test]
fn transducer_artifacts_reused_across_schemas() {
    let unlimited = CheckOptions::unlimited();
    let (alpha, chain) = chain_schema(3);
    let uni = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let engine = Engine::new();
    let d = TopdownDecider::new(&t);
    let v1 = engine.check_governed(&d, &chain, &unlimited).unwrap();
    let v2 = engine.check_governed(&d, &uni, &unlimited).unwrap();
    assert_eq!(
        v1.stats.stage("topdown/transducer").unwrap().cache_hit,
        Some(false)
    );
    assert_eq!(
        v2.stats.stage("topdown/transducer").unwrap().cache_hit,
        Some(true),
        "same transducer, different schema: transducer side is cached"
    );
    // Two schemas, one transducer.
    assert_eq!(engine.cache_stats().entries, 3);
}

#[test]
fn equal_content_shares_cache_entries() {
    let unlimited = CheckOptions::unlimited();
    // Two separately built but structurally identical transducers share
    // one artifact (content hashing, not identity hashing).
    let (alpha, schema) = chain_schema(3);
    let t1 = transducers::identity_transducer(&alpha);
    let t2 = transducers::identity_transducer(&alpha);
    let engine = Engine::new();
    engine
        .check_governed(&TopdownDecider::new(&t1), &schema, &unlimited)
        .unwrap();
    let v = engine
        .check_governed(&TopdownDecider::new(&t2), &schema, &unlimited)
        .unwrap();
    assert_eq!(
        v.stats.stage("topdown/transducer").unwrap().cache_hit,
        Some(true)
    );
    assert_eq!(engine.cache_stats().entries, 2);
}

#[test]
fn verdicts_match_one_shot_deciders() {
    // The engine's verdicts agree with the underlying one-shot deciders on
    // the full workload suite.
    for (alpha, schema) in [chain_schema(4), comb_schema(4), recipe_schema()] {
        let engine = Engine::new();
        for (_, t) in transducers::suite(&alpha, 3) {
            let verdict = engine
                .check_governed(
                    &TopdownDecider::new(&t),
                    &schema,
                    &CheckOptions::unlimited(),
                )
                .unwrap();
            let report = tpx_topdown::is_text_preserving(&t, &schema);
            assert_eq!(verdict.is_preserving(), report.is_preserving());
            match (&verdict.outcome, &report) {
                (Outcome::Preserving, tpx_topdown::CheckReport::TextPreserving) => {}
                (Outcome::Copying { path }, tpx_topdown::CheckReport::Copying { path: expect }) => {
                    assert_eq!(path, expect)
                }
                (
                    Outcome::Rearranging { witness },
                    tpx_topdown::CheckReport::Rearranging { witness: expect },
                ) => assert_eq!(
                    witness.display(&alpha).to_string(),
                    expect.display(&alpha).to_string()
                ),
                (got, want) => panic!("verdict {got:?} disagrees with report {want:?}"),
            }
        }
    }
}

#[test]
fn check_many_parallel_matches_sequential() {
    let unlimited = CheckOptions::unlimited();
    // The full workload suite over all three schema families, checked on 4
    // workers and on 1, must produce identical verdicts in task order.
    let families = [chain_schema(4), comb_schema(4), recipe_schema()];
    let mut owned: Vec<(tpx_topdown::Transducer, &Nta, &Alphabet)> = Vec::new();
    for (alpha, schema) in &families {
        for (_, t) in transducers::suite(alpha, 3) {
            owned.push((t, schema, alpha));
        }
    }
    let deciders: Vec<TopdownDecider> = owned
        .iter()
        .map(|(t, _, _)| TopdownDecider::new(t))
        .collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .zip(&owned)
        .map(|(d, (_, schema, _))| (d as &dyn Decider, *schema))
        .collect();

    let parallel = Engine::with_jobs(4)
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    let sequential = Engine::new()
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    assert_eq!(parallel.len(), tasks.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        let alpha = owned[i].2;
        assert_eq!(p.is_preserving(), s.is_preserving(), "task {i}");
        let render = |o: &Outcome| match o {
            Outcome::Preserving => "preserving".to_owned(),
            Outcome::Copying { path } => format!("copying {path:?}"),
            Outcome::Rearranging { witness } => {
                format!("rearranging {}", witness.display(alpha))
            }
            Outcome::NotPreserving { witness } => {
                format!("not-preserving {}", witness.display(alpha))
            }
            Outcome::DeletesText { path } => format!("deletes-text {path:?}"),
            Outcome::NonConforming { witness } => {
                format!("non-conforming {}", witness.display(alpha))
            }
        };
        assert_eq!(render(&p.outcome), render(&s.outcome), "task {i}");
    }
}

#[test]
fn check_many_parallel_never_recompiles() {
    // 8 tasks over 2 schemas × 1 transducer on 4 workers: the cache's
    // build-once guarantee holds under contention.
    let (alpha, chain) = chain_schema(3);
    let uni = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let d = TopdownDecider::new(&t);
    let tasks: Vec<Task> = (0..8)
        .map(|i| (&d as &dyn Decider, if i % 2 == 0 { &chain } else { &uni }))
        .collect();
    let engine = Engine::with_jobs(4);
    let verdicts = engine
        .check_many_governed(&tasks, &CheckOptions::unlimited())
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    assert!(verdicts.iter().all(|v| v.is_preserving()));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 3, "2 schemas + 1 transducer, built once each");
    // The scheduler prefetches the 3 distinct stages (the misses above),
    // so all 8 checks hit on both of their stages — exactly, on every run,
    // whatever the interleaving.
    assert_eq!(stats.hits, 8 * 2);
    let batch = engine.batch_stats();
    assert_eq!(batch.batches, 1);
    assert_eq!(batch.stage_tasks, 3, "deduplicated across the batch");
    assert_eq!(batch.checks, 8);
}

#[test]
fn dtl_decider_caches_both_sides() {
    let unlimited = CheckOptions::unlimited();
    let al = Alphabet::from_labels(["a", "b"]);
    let uni = universal(&al);
    // Identity DTL transducer.
    let mut b = tpx_dtl::DtlBuilder::new(&al, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child");
    b.rule_simple("q0", "b", "b", "q0", "child");
    b.text_rule("q0");
    let t1 = b.finish();
    // A deleting (still preserving) one.
    let mut b = tpx_dtl::DtlBuilder::new(&al, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child[b]");
    b.rule_simple("q0", "b", "b", "qt", "child[text()]");
    b.text_rule("qt");
    let t2 = b.finish();

    let engine = Engine::new();
    let v1 = engine
        .check_governed(&DtlDecider::new(&t1), &uni, &unlimited)
        .unwrap();
    let v2 = engine
        .check_governed(&DtlDecider::new(&t2), &uni, &unlimited)
        .unwrap();
    assert!(v1.is_preserving() && v2.is_preserving());
    assert_eq!(v1.stats.stage("dtl/schema").unwrap().cache_hit, Some(false));
    assert_eq!(
        v2.stats.stage("dtl/schema").unwrap().cache_hit,
        Some(true),
        "schema NBTA compiled once across two DTL transducers"
    );
    // Same transducer again: the expensive MSO→NBTA compilation hits.
    let v3 = engine
        .check_governed(&DtlDecider::new(&t1), &uni, &unlimited)
        .unwrap();
    assert_eq!(
        v3.stats.stage("dtl/counterexample").unwrap().cache_hit,
        Some(true)
    );
    assert_eq!(v3.stats.cache_hits(), 2, "both cached stages hit");
}

#[test]
fn dtl_witness_surfaces_in_outcome() {
    let al = Alphabet::from_labels(["a", "b"]);
    let uni = universal(&al);
    use tpx_xpath::{Axis, PathExpr};
    let mut t = tpx_dtl::DtlTransducer::new(tpx_dtl::XPathPatterns, 1, tpx_dtl::DtlState(0));
    let c1 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    let c2 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    t.add_rule(
        tpx_dtl::DtlState(0),
        tpx_xpath::NodeExpr::Label(al.sym("a")),
        vec![tpx_dtl::Rhs::Elem(
            al.sym("a"),
            vec![
                tpx_dtl::Rhs::Call(tpx_dtl::DtlState(0), c1),
                tpx_dtl::Rhs::Call(tpx_dtl::DtlState(0), c2),
            ],
        )],
    );
    t.set_text_rule(tpx_dtl::DtlState(0), true);
    let verdict = Engine::new()
        .check_governed(&DtlDecider::new(&t), &uni, &CheckOptions::unlimited())
        .unwrap();
    let Outcome::NotPreserving { witness } = &verdict.outcome else {
        panic!("doubling must be detected, got {:?}", verdict.outcome);
    };
    assert!(uni.accepts(witness));
}

/// A decider that always panics, standing in for a decision path that hits
/// a bug on one specific input of a batch.
struct PanickingDecider;

impl Decider for PanickingDecider {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn decide(
        &self,
        _schema: &Nta,
        _pipeline: &mut tpx_engine::Pipeline<'_>,
    ) -> Result<Outcome, DecisionError> {
        panic!("decider blew up on this instance");
    }
}

#[test]
fn zero_fuel_fails_fast_with_resource_exhausted() {
    let (alpha, schema) = chain_schema(4);
    let t = transducers::identity_transducer(&alpha);
    let engine = Engine::new();
    let options = CheckOptions::with_budget(Budget::default().with_fuel(0));
    let err = engine
        .check_governed(&TopdownDecider::new(&t), &schema, &options)
        .expect_err("zero fuel cannot complete any stage");
    let DecisionError::ResourceExhausted {
        stage,
        reason,
        fuel_spent,
        ..
    } = err
    else {
        panic!("expected ResourceExhausted, got {err:?}");
    };
    assert_eq!(stage, "topdown/schema", "first probe trips");
    assert_eq!(reason, ExhaustReason::Fuel);
    // Stage entry charges exactly one unit, which is already over a zero
    // budget — no construction work happens first.
    assert_eq!(fuel_spent, 1, "the entry probe fires before any work");
}

#[test]
fn generous_budget_changes_no_verdict() {
    // Governed with room to spare ≡ ungoverned, over the workload suite.
    for (alpha, schema) in [chain_schema(4), comb_schema(4), recipe_schema()] {
        let engine = Engine::new();
        let governed_engine = Engine::new();
        let options = CheckOptions::with_budget(Budget::default().with_fuel(50_000_000));
        for (name, t) in transducers::suite(&alpha, 3) {
            let d = TopdownDecider::new(&t);
            let plain = engine
                .check_governed(&d, &schema, &CheckOptions::unlimited())
                .unwrap();
            let governed = governed_engine
                .check_governed(&d, &schema, &options)
                .unwrap_or_else(|e| panic!("{name:?}: generous budget exhausted: {e}"));
            assert_eq!(plain.is_preserving(), governed.is_preserving(), "{name:?}");
            assert!(governed.degraded.is_none());
            // Per-stage fuel is accounted under a limited budget.
            assert!(
                governed.stats.stages.iter().all(|s| s.fuel.is_some()),
                "{name:?}: governed stages must report fuel"
            );
            assert!(governed.stats.total_fuel() > 0, "{name:?}");
            assert!(
                plain.stats.stages.iter().all(|s| s.fuel.is_none()),
                "{name:?}: ungoverned stages report no fuel"
            );
        }
    }
}

#[test]
fn dtl_exhaustion_degrades_to_bounded_oracle() {
    let al = Alphabet::from_labels(["a", "b"]);
    let uni = universal(&al);
    // The doubling transducer from `dtl_witness_surfaces_in_outcome`.
    use tpx_xpath::{Axis, PathExpr};
    let mut t = tpx_dtl::DtlTransducer::new(tpx_dtl::XPathPatterns, 1, tpx_dtl::DtlState(0));
    let c1 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    let c2 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    t.add_rule(
        tpx_dtl::DtlState(0),
        tpx_xpath::NodeExpr::Label(al.sym("a")),
        vec![tpx_dtl::Rhs::Elem(
            al.sym("a"),
            vec![
                tpx_dtl::Rhs::Call(tpx_dtl::DtlState(0), c1),
                tpx_dtl::Rhs::Call(tpx_dtl::DtlState(0), c2),
            ],
        )],
    );
    t.set_text_rule(tpx_dtl::DtlState(0), true);
    let d = DtlDecider::new(&t);
    let engine = Engine::new();
    // Starved symbolic pipeline, no fallback: a structured error.
    let starved = CheckOptions::with_budget(Budget::default().with_fuel(50));
    let err = engine.check_governed(&d, &uni, &starved).unwrap_err();
    assert!(err.is_resource_exhausted(), "{err:?}");
    // Same budget with degradation: the bounded oracle finds the doubling
    // and the verdict carries the bound it searched.
    let bound = DegradeBound {
        max_nodes: 4,
        limit: 500,
    };
    let degraded = engine
        .check_governed(
            &d,
            &uni,
            &CheckOptions::with_budget(Budget::default().with_fuel(50)).degrade_with(bound),
        )
        .expect("bounded fallback produces a verdict");
    assert_eq!(degraded.degraded, Some(bound));
    assert!(degraded.is_degraded());
    assert!(
        matches!(degraded.outcome, Outcome::NotPreserving { .. }),
        "the doubling has a witness within 4 nodes"
    );
    assert!(degraded.stats.stage("dtl/bounded").is_some());
}

#[test]
fn panicking_task_yields_other_verdicts_in_order() {
    let unlimited = CheckOptions::unlimited();
    let (alpha, schema) = chain_schema(4);
    let good: Vec<_> = (1..=4)
        .map(|d| transducers::deep_selector(&alpha, d))
        .collect();
    let deciders: Vec<TopdownDecider> = good.iter().map(TopdownDecider::new).collect();
    let bad = PanickingDecider;
    // Poison the middle of the batch.
    let mut tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d as &dyn Decider, &schema))
        .collect();
    tasks.insert(2, (&bad as &dyn Decider, &schema));
    for engine in [Engine::new(), Engine::with_jobs(4)] {
        let results = engine.check_many_governed(&tasks, &unlimited);
        assert_eq!(results.len(), tasks.len());
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                let Err(DecisionError::Panicked { message, .. }) = r else {
                    panic!("task 2 must surface its panic, got {r:?}");
                };
                assert!(message.contains("blew up"), "{message}");
            } else {
                assert!(r.is_ok(), "task {i} must still complete: {r:?}");
            }
        }
        // The shared cache survived the panic and stays serviceable.
        let after = engine
            .check_governed(&deciders[0], &schema, &unlimited)
            .unwrap();
        assert_eq!(
            after.stats.stage("topdown/schema").unwrap().cache_hit,
            Some(true),
            "cache still serves the artifacts built around the panic"
        );
    }
}

#[test]
fn stats_report_every_stage() {
    let (alpha, schema) = chain_schema(3);
    let t = transducers::identity_transducer(&alpha);
    let v = Engine::new()
        .check_governed(
            &TopdownDecider::new(&t),
            &schema,
            &CheckOptions::unlimited(),
        )
        .unwrap();
    assert_eq!(v.decider, "topdown");
    let names: Vec<&str> = v.stats.stages.iter().map(|s| s.stage).collect();
    assert_eq!(
        names,
        ["topdown/schema", "topdown/transducer", "topdown/decide"]
    );
    for s in &v.stats.stages {
        if s.stage == "topdown/decide" {
            assert_eq!(s.artifact_size, None);
            assert_eq!(s.cache_hit, None);
        } else {
            assert!(s.artifact_size.unwrap() > 0);
        }
    }
}

#[test]
fn engine_types_are_send_and_sync() {
    // Compile-time guarantees the serve daemon relies on: one shared
    // `Engine` (and its cache) is used from every connection thread, and
    // verdicts/errors cross thread boundaries in batch mode. A regression
    // here (say, an `Rc` or a bare `*mut` slipping into a cached
    // artifact) should fail this test at compile time, not deadlock a
    // daemon at runtime.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<ArtifactCache>();
    assert_send_sync::<Budget>();
    assert_send_sync::<CheckOptions>();
    assert_send_sync::<Verdict>();
    assert_send_sync::<DecisionError>();
    assert_send_sync::<tpx_engine::BudgetHandle>();
    assert_send_sync::<tpx_engine::Tracer>();
    assert_send_sync::<tpx_engine::Metrics>();
}
