//! Observability contract tests: tracing determinism across worker
//! counts, metrics aggregation, and the disabled-is-silent guarantee.
//!
//! Span *names* are deterministic — the pipelines run the same stages no
//! matter which worker executes them — so a sequential batch and a
//! `jobs = 4` batch over the same tasks must emit the same multiset of
//! span names and identical verdicts. Timings and interleaving may
//! differ, so only names and counters are compared, never durations.

use std::collections::BTreeMap;
use std::sync::Arc;

use textpres::engine::{
    Budget, CheckOptions, Decider, DegradeBound, DtlDecider, Engine, Metrics,
    OutputConformanceDecider, Task, TextRetentionDecider, TopdownDecider, Tracer, Verdict,
};
use textpres::prelude::*;
use tpx_workload::transducers;

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

/// Multiset of exited span names.
fn span_multiset(tracer: &Tracer) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for name in tracer.exit_span_names() {
        *counts.entry(name).or_insert(0usize) += 1;
    }
    counts
}

/// Runs the workload suite as a traced, metered batch on `jobs` workers.
fn run_batch(jobs: usize) -> (BTreeMap<&'static str, usize>, Vec<Verdict>, Metrics) {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let suite: Vec<_> = transducers::suite(&alpha, 4)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let deciders: Vec<TopdownDecider> = suite.iter().map(TopdownDecider::new).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d as &dyn Decider, &schema))
        .collect();
    let tracer = Arc::new(Tracer::enabled());
    let metrics = Arc::new(Metrics::enabled());
    let engine = Engine::with_jobs(jobs)
        .with_tracer(tracer.clone())
        .with_metrics(metrics.clone());
    let verdicts: Vec<Verdict> = engine
        .check_many_governed(&tasks, &CheckOptions::unlimited())
        .into_iter()
        .map(|r| r.expect("suite checks succeed"))
        .collect();
    let spans = span_multiset(&tracer);
    drop(engine); // release the engine's clones so the Arc unwraps
    let metrics = Arc::try_unwrap(metrics).unwrap_or_else(|_| panic!("engine dropped"));
    (spans, verdicts, metrics)
}

#[test]
fn batch_tracing_is_deterministic_across_worker_counts() {
    let (spans_seq, verdicts_seq, metrics_seq) = run_batch(1);
    // Every engine-level stage span closed as often as it opened: the
    // Verdict stage reports account for the same stages the tracer saw.
    assert!(!spans_seq.is_empty());
    for v in &verdicts_seq {
        for s in &v.stats.stages {
            assert!(
                spans_seq.contains_key(s.stage),
                "stage {} missing from trace",
                s.stage
            );
        }
    }

    for jobs in [2usize, 4] {
        let (spans_par, verdicts_par, metrics_par) = run_batch(jobs);

        // Same span-name multiset, regardless of scheduling.
        assert_eq!(spans_seq, spans_par, "span multiset differs at jobs={jobs}");

        // Identical verdicts in task order.
        assert_eq!(verdicts_seq.len(), verdicts_par.len());
        for (a, b) in verdicts_seq.iter().zip(&verdicts_par) {
            assert_eq!(a.is_preserving(), b.is_preserving());
            assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
        }

        // Counters are deterministic too: the scheduler prefetches each
        // distinct artifact exactly once before the checks that need it,
        // so hit/miss totals — and every other counter — agree. (Duration
        // and steal histograms are timing/scheduling-dependent and
        // deliberately not compared.)
        assert_eq!(
            metrics_seq.snapshot().counters,
            metrics_par.snapshot().counters,
            "metric counters differ at jobs={jobs}"
        );
    }
}

/// The ordered enter (`+`) / exit (`-`) sequence of a tracer's events.
fn span_sequence(tracer: &Tracer) -> Vec<String> {
    tracer
        .events()
        .iter()
        .map(|e| format!("{}{}", if e.is_exit() { '-' } else { '+' }, e.span()))
        .collect()
}

/// Expands a nested `(span, children)` outline into its enter/exit
/// sequence.
fn expected_sequence(outline: &[(&str, &[&str])]) -> Vec<String> {
    let mut out = Vec::new();
    for (stage, subs) in outline {
        out.push(format!("+{stage}"));
        for sub in *subs {
            out.push(format!("+{stage}/{sub}"));
            out.push(format!("-{stage}/{sub}"));
        }
        out.push(format!("-{stage}"));
    }
    out
}

/// Pins the span tree that per-layer benchmark attribution reads: every
/// stage span of a cold check, with its sub-spans nested inside it, in
/// pipeline order.
#[test]
fn cold_check_span_tree_is_pinned() {
    let unlimited = CheckOptions::unlimited();
    let alpha = transducers::plain_alphabet(1);
    let schema = universal(&alpha);

    let t = transducers::identity_transducer(&alpha);
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::with_jobs(1).with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
        .expect("identity check succeeds");
    assert!(verdict.is_preserving());
    assert_eq!(
        span_sequence(&tracer),
        expected_sequence(&[
            ("topdown/schema", &[]),
            ("topdown/transducer", &["copying", "rearranging"]),
            ("topdown/decide", &["copying", "rearranging"]),
        ])
    );

    let mut b = DtlBuilder::new(&alpha, "q0");
    for (_, label) in alpha.entries() {
        b.rule_simple("q0", label, label, "q0", "child");
    }
    b.text_rule("q0");
    let dtl = b.finish();
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::with_jobs(1).with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(&DtlDecider::new(&dtl), &schema, &unlimited)
        .expect("identity check succeeds");
    assert!(verdict.is_preserving());
    assert_eq!(
        span_sequence(&tracer),
        expected_sequence(&[
            ("dtl/schema", &[]),
            ("dtl/counterexample", &["copying", "rearranging"]),
            ("dtl/decide", &["product", "witness"]),
        ])
    );

    let labels: Vec<Symbol> = alpha.symbols().collect();
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::with_jobs(1).with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(&TextRetentionDecider::new(&t, labels), &schema, &unlimited)
        .expect("identity retention check succeeds");
    assert!(verdict.is_preserving());
    assert_eq!(
        span_sequence(&tracer),
        expected_sequence(&[
            ("topdown/schema", &[]),
            ("topdown/retention/transducer", &[]),
            ("topdown/retention/decide", &[]),
        ])
    );

    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::with_jobs(1).with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(
            &OutputConformanceDecider::new(&t, &schema),
            &schema,
            &unlimited,
        )
        .expect("identity conformance check succeeds");
    assert!(verdict.is_preserving());
    assert_eq!(
        span_sequence(&tracer),
        expected_sequence(&[("conformance/inverse", &[]), ("conformance/decide", &[])])
    );

    // Starved of fuel, the symbolic DTL pipeline exhausts inside the
    // counter-example compilation (its span closes without fields) and the
    // check degrades to the bounded oracle, which gets a span of its own.
    let starved = CheckOptions::with_budget(Budget::default().with_fuel(1000))
        .degrade_with(DegradeBound::default());
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::with_jobs(1).with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(&DtlDecider::new(&dtl), &schema, &starved)
        .expect("a degraded check still yields a verdict");
    assert!(verdict.is_degraded() && verdict.is_preserving());
    assert_eq!(
        span_sequence(&tracer),
        expected_sequence(&[
            ("dtl/schema", &[]),
            ("dtl/counterexample", &["copying"]),
            ("dtl/bounded", &[]),
        ])
    );
}

#[test]
fn disabled_tracer_and_metrics_emit_nothing() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let engine = Engine::new(); // disabled tracer + metrics by default
    let verdict = engine
        .check_governed(
            &TopdownDecider::new(&t),
            &schema,
            &CheckOptions::unlimited(),
        )
        .unwrap();
    assert!(verdict.is_preserving());
    assert!(!engine.tracer().is_enabled());
    assert!(engine.tracer().events().is_empty());
    assert!(engine.tracer().to_jsonl().is_empty());
    assert!(!engine.metrics().is_enabled());
    assert!(engine.metrics().snapshot().is_empty());
}

#[test]
fn single_check_trace_has_one_span_per_reported_stage() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::identity_transducer(&alpha);
    let tracer = Arc::new(Tracer::enabled());
    let engine = Engine::new().with_tracer(tracer.clone());
    let verdict = engine
        .check_governed(
            &TopdownDecider::new(&t),
            &schema,
            &CheckOptions::unlimited(),
        )
        .unwrap();
    let spans = span_multiset(&tracer);
    for s in &verdict.stats.stages {
        assert_eq!(
            spans.get(s.stage),
            Some(&1),
            "stage {} should have exactly one span",
            s.stage
        );
    }
    // Enter/exit events pair up.
    let events = tracer.events();
    assert_eq!(events.len() % 2, 0);
    assert_eq!(
        events.iter().filter(|e| e.is_exit()).count() * 2,
        events.len()
    );
}
