//! E10 — decision-engine overhead and artifact-cache payoff.
//!
//! Measures (a) a cold engine check vs. the one-shot decider (engine
//! overhead should be noise), (b) a warm check against a populated cache
//! (the schema+transducer compile cost disappears), (c) batch checking
//! a transducer suite with a shared cache on 1 vs. many workers, and
//! (d) the cost of an *enabled* span tracer on a cold check, measured as
//! interleaved A/B samples so multi-second thermal/frequency drift cannot
//! masquerade as tracing cost. The disabled tracer does strictly less
//! work per span than the enabled one, so (d) also bounds the cost of
//! merely shipping the instrumentation.
//!
//! Unlike the other experiment targets, this one has a custom `main`: it
//! persists every result, the traced-replay stage taxonomy, and the
//! overhead comparison to `BENCH_engine.json` (path overridable via
//! `TPX_BENCH_JSON`; sample counts via `TPX_BENCH_SAMPLES`). CI's
//! bench-smoke job parses that file back with `validate_bench`.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;

use textpres::engine::{
    Budget, CheckOptions, Decider, DegradeBound, DtlDecider, Engine, OutputConformanceDecider,
    Task, TextRetentionDecider, TopdownDecider, Tracer,
};
use textpres::format::{parse_dtl_transducer, parse_schema, render_schema, render_transducer};
use textpres::prelude::Alphabet;
use textpres::serve::{ServeConfig, Server};
use tpx_bench::{
    black_box, criterion_group, BenchReport, BenchmarkId, Criterion, Overhead, Scaling, Throughput,
};
use tpx_workload::{chain_schema, transducers, xslt_corpus};

fn engine_single(c: &mut Criterion) {
    let unlimited = CheckOptions::unlimited();
    let mut g = c.benchmark_group("e10_single");
    g.sample_size(20);
    for n in [8usize, 32] {
        let (alpha, schema) = chain_schema(n);
        let t = transducers::deep_selector(&alpha, n);
        g.bench_with_input(BenchmarkId::new("oneshot", n), &n, |b, _| {
            b.iter(|| black_box(textpres::topdown::is_text_preserving(&t, &schema)))
        });
        g.bench_with_input(BenchmarkId::new("engine_cold", n), &n, |b, _| {
            b.iter(|| {
                let engine = Engine::new();
                black_box(
                    engine
                        .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
                        .unwrap(),
                )
            })
        });
        let warm = Engine::new();
        warm.check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
            .unwrap();
        g.bench_with_input(BenchmarkId::new("engine_warm", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    warm.check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn engine_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_batch");
    g.sample_size(10);
    // Sized so each task still costs milliseconds: the O(n²) rearranging
    // construction (DESIGN.md §13) made the old chain-16 suite so cheap
    // that the scaling curve measured scheduler overhead, not batch work.
    let (alpha, schema) = chain_schema(32);
    let suite: Vec<_> = (0..4)
        .flat_map(|_| transducers::suite(&alpha, 16))
        .map(|(_, t)| t)
        .collect();
    let deciders: Vec<TopdownDecider> = suite.iter().map(TopdownDecider::new).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d as &dyn Decider, &schema))
        .collect();
    g.throughput(Throughput::Elements(tasks.len() as u64));
    for jobs in SCALING_JOBS {
        g.bench_with_input(BenchmarkId::new("check_many", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                black_box(
                    Engine::with_jobs(jobs)
                        .check_many_governed(&tasks, &CheckOptions::unlimited())
                        .into_iter()
                        .map(Result::unwrap)
                        .collect::<Vec<_>>(),
                )
            })
        });
    }
    g.finish();
}

/// Per-analysis cold checks over the same chain-schema workload: the
/// text-retention and output-conformance deciders next to the
/// text-preservation baseline, so `BENCH_engine.json` records every
/// analysis the engine fronts and a regression in one shows up as a
/// divergence from its siblings rather than as ambient noise.
fn engine_analyses(c: &mut Criterion) {
    let unlimited = CheckOptions::unlimited();
    let mut g = c.benchmark_group("e10_analyses");
    g.sample_size(10);
    for n in [8usize, 32] {
        let (alpha, schema) = chain_schema(n);
        let t = transducers::deep_selector(&alpha, n);
        let labels: Vec<_> = alpha.symbols().collect();
        g.bench_with_input(BenchmarkId::new("text_preservation", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    Engine::new()
                        .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("text_retention", n), &n, |b, _| {
            b.iter(|| {
                let decider = TextRetentionDecider::new(&t, labels.clone());
                black_box(
                    Engine::new()
                        .check_governed(&decider, &schema, &unlimited)
                        .unwrap(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("conformance", n), &n, |b, _| {
            b.iter(|| {
                let decider = OutputConformanceDecider::new(&t, &schema);
                black_box(
                    Engine::new()
                        .check_governed(&decider, &schema, &unlimited)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// One-shot symbolic DTL checks: identity `DTL_XPath` programs over the
/// universal n-label schema, cold engine per iteration. This is the
/// EXPTIME route the lazy antichain layer (DESIGN.md §13) keeps honest —
/// the `dtl/decide/product` / `dtl/decide/witness` spans in `stages`
/// attribute where the time goes, and `validate_bench` fails if the
/// group disappears or the route regresses past its ceiling.
fn engine_symbolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_symbolic");
    g.sample_size(10);
    for n in [1usize, 2] {
        let (schema, dtl) = symbolic_instance(n);
        g.bench_with_input(BenchmarkId::new("oneshot_symbolic", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    Engine::new()
                        .check_governed(&DtlDecider::new(&dtl), &schema, &CheckOptions::unlimited())
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

/// The universal schema over `n` labels and the identity DTL program over
/// the same alphabet — the smallest family that exercises every stage of
/// the symbolic pipeline while scaling with the alphabet.
fn symbolic_instance(
    n: usize,
) -> (
    textpres::treeauto::Nta,
    textpres::dtl::DtlTransducer<textpres::dtl::XPathPatterns>,
) {
    let alpha = Alphabet::from_labels((0..n).map(|i| format!("a{i}")));
    let mut b = textpres::prelude::NtaBuilder::new(&alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    let schema = b.finish();
    let mut b = textpres::prelude::DtlBuilder::new(&alpha, "q0");
    let labels: Vec<String> = alpha.entries().map(|(_, s)| s.to_owned()).collect();
    for l in &labels {
        b.rule_simple("q0", l, l, "q0", "child");
    }
    b.text_rule("q0");
    (schema, b.finish())
}

/// E11 — XSLT corpus throughput: thousands of generated TEI/BPMN-like
/// schema×stylesheet pairs through the frontend.
///
/// `compile/N` drives [`textpres::frontend::compile_stylesheet`] end to
/// end (schema parse, fragment translation, alphabet reconciliation,
/// schema rebuild) over the whole corpus; `check_many/N` batch-checks
/// the pre-compiled artifacts through [`Engine::check_many_governed`]
/// with the default worker count, the way `textpres batch` would. The
/// corpus carries ground-truth verdicts, so the check pass doubles as a
/// correctness sweep: a frontend or decider regression that flips a
/// verdict panics here before `validate_bench` ever sees the numbers.
fn corpus_e11(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_corpus");
    g.sample_size(10);
    let cases = xslt_corpus(E11_CORPUS_SIZE, 0xE11);
    g.throughput(Throughput::Elements(cases.len() as u64));
    g.bench_with_input(
        BenchmarkId::new("compile", cases.len()),
        &cases,
        |b, cases| {
            b.iter(|| {
                for case in cases {
                    black_box(
                        textpres::frontend::compile_stylesheet(&case.schema_src, &case.xslt_src)
                            .unwrap_or_else(|e| panic!("{} does not compile: {e}", case.name)),
                    );
                }
            })
        },
    );
    let artifacts: Vec<_> = cases
        .iter()
        .map(|case| {
            textpres::frontend::compile_stylesheet(&case.schema_src, &case.xslt_src)
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", case.name))
        })
        .collect();
    let deciders: Vec<TopdownDecider> = artifacts
        .iter()
        .map(|a| TopdownDecider::new(&a.transducer))
        .collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .zip(&artifacts)
        .map(|(d, a)| (d as &dyn Decider, &a.schema))
        .collect();
    g.bench_with_input(BenchmarkId::new("check_many", tasks.len()), &(), |b, _| {
        b.iter(|| {
            let verdicts = Engine::new().check_many_governed(&tasks, &CheckOptions::unlimited());
            for ((v, case), _) in verdicts.iter().zip(&cases).zip(&tasks) {
                let v = v.as_ref().unwrap_or_else(|e| panic!("{}: {e}", case.name));
                assert_eq!(
                    v.is_preserving(),
                    case.expect_preserving,
                    "verdict flipped on {}",
                    case.name
                );
            }
            black_box(verdicts)
        })
    });
    g.finish();
}

/// The E11 corpus size: thousands of pairs, per the experiment plan, yet
/// still cheap enough that a 10-sample run finishes in seconds.
const E11_CORPUS_SIZE: usize = 2000;

/// Warm served-request latency: the `engine_warm/32` workload driven
/// through a live `textpres serve` daemon over loopback TCP, one frame
/// per iteration on a persistent registered-ref connection. The delta
/// over `engine_warm/32` is the full service tax — frame parse, memo
/// lookup, admission gate, response render, two socket hops — and
/// `validate_bench` holds the median to at most 2× the in-process
/// figure from the same report.
fn engine_serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_serve");
    g.sample_size(20);
    let n = 32usize;
    let (alpha, _) = chain_schema(n);
    // The daemon speaks the DTD text format, so re-render the chain-n
    // workload as source: l0 → l1 → … → l{n-1} → text.
    let decls: Vec<(String, String)> = (0..n)
        .map(|i| {
            let content = if i + 1 < n {
                format!("l{}", i + 1)
            } else {
                "text".to_owned()
            };
            (format!("l{i}"), content)
        })
        .collect();
    let schema_src = render_schema(&["l0".to_owned()], &decls);
    let t_src = render_transducer(&transducers::deep_selector(&alpha, n), &alpha);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let mut roundtrip = |frame: &str| -> String {
        stream.write_all(frame.as_bytes()).expect("send frame");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert!(line.contains("\"ok\":true"), "daemon error: {line}");
        line
    };
    roundtrip(&format!(
        "{{\"type\":\"register\",\"name\":\"s\",\"kind\":\"schema\",\"text\":{}}}",
        tpx_obs::quote(&schema_src)
    ));
    roundtrip(&format!(
        "{{\"type\":\"register\",\"name\":\"t\",\"kind\":\"transducer\",\"text\":{}}}",
        tpx_obs::quote(&t_src)
    ));
    // Warm the parse memo and the engine's artifact cache before timing.
    let check = "{\"type\":\"check\",\"schema_ref\":\"s\",\"transducer_ref\":\"t\"}";
    for _ in 0..3 {
        roundtrip(check);
    }
    g.bench_with_input(BenchmarkId::new("warm_request", n), &n, |b, _| {
        b.iter(|| black_box(roundtrip(check)))
    });
    roundtrip("{\"type\":\"shutdown\"}");
    drop((reader, stream));
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drained cleanly");
    g.finish();
}

/// The worker counts the batch scaling curve samples (base first).
const SCALING_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Assembles the `scaling` section from the `check_many/{jobs}` records,
/// stamping in the host parallelism the curve was measured under — a
/// 1-core runner structurally cannot show parallel speedup, and the
/// validator judges the curve against that.
fn scaling_curve(results: &[tpx_bench::BenchRecord]) -> Option<Scaling> {
    let medians: Vec<(usize, u64)> = SCALING_JOBS
        .iter()
        .filter_map(|&jobs| {
            results
                .iter()
                .find(|r| r.group == "e10_batch" && r.id == format!("check_many/{jobs}"))
                .map(|r| (jobs, r.median_ns))
        })
        .collect();
    if medians.len() != SCALING_JOBS.len() {
        return None;
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Some(Scaling::from_medians(
        "check_many",
        parallelism,
        1,
        &medians,
    ))
}

/// Interleaved A/B overhead measurement: alternating cold checks with a
/// disabled vs an enabled tracer on the `engine_cold/8` workload, medians
/// compared. Alternation matters — on this bench's multi-second groups,
/// CPU frequency and allocator drift between two *separate* benchmark
/// runs dwarfs the cost of the handful of spans a check emits.
fn measure_overhead() -> Overhead {
    let unlimited = CheckOptions::unlimited();
    // The workload must dwarf the cost of the handful of spans a check
    // emits, or the comparison measures timer noise: chain-32 costs tens
    // of milliseconds per check even after the §13 speedups (chain-8 fell
    // to ~0.5ms, far too small). Never scale the pair count *down* with
    // TPX_BENCH_SAMPLES, or a noisy spike in one pair dominates the median.
    let pairs = std::env::var("TPX_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map_or(30, |n| n.max(30));
    let n = 32usize;
    let (alpha, schema) = chain_schema(n);
    let t = transducers::deep_selector(&alpha, n);
    let mut disabled = Vec::with_capacity(pairs);
    let mut traced = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let start = std::time::Instant::now();
        black_box(
            Engine::new()
                .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
                .unwrap(),
        );
        disabled.push(start.elapsed());
        let start = std::time::Instant::now();
        let engine = Engine::new().with_tracer(Arc::new(Tracer::enabled()));
        black_box(
            engine
                .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
                .unwrap(),
        );
        traced.push(start.elapsed());
    }
    disabled.sort_unstable();
    traced.sort_unstable();
    Overhead::from_medians(
        format!("engine_cold/{n} (interleaved x{pairs})"),
        disabled[pairs / 2].as_nanos() as u64,
        traced[pairs / 2].as_nanos() as u64,
    )
}

criterion_group!(
    benches,
    engine_single,
    engine_batch,
    engine_analyses,
    engine_symbolic,
    corpus_e11,
    engine_serve
);

/// The universal one-label schema and an identity `DTL_XPath` program:
/// the cheapest instances that still drive every DTL pipeline stage.
const UNIVERSAL_1: &str = "start a\nelem a = (a | text)*\n";
const DTL_IDENTITY: &str = "dtl\ninitial q0\nrule q0 : a -> a(q0 / child)\ntext q0\n";

/// Replays one traced check per analysis (text-preservation,
/// text-retention, output-conformance), one traced symbolic DTL check,
/// and one fuel-starved degraded DTL check (cold engines), returning the
/// sorted, deduplicated span names observed — the full pipeline-stage
/// taxonomy for `BENCH_engine.json`'s `stages` field.
fn traced_stage_coverage() -> Vec<String> {
    let unlimited = CheckOptions::unlimited();
    let tracer = Arc::new(Tracer::enabled());
    let (alpha, schema) = chain_schema(8);
    let t = transducers::deep_selector(&alpha, 8);
    Engine::new()
        .with_tracer(tracer.clone())
        .check_governed(&TopdownDecider::new(&t), &schema, &unlimited)
        .unwrap();
    let labels: Vec<_> = alpha.symbols().collect();
    Engine::new()
        .with_tracer(tracer.clone())
        .check_governed(&TextRetentionDecider::new(&t, labels), &schema, &unlimited)
        .unwrap();
    Engine::new()
        .with_tracer(tracer.clone())
        .check_governed(
            &OutputConformanceDecider::new(&t, &schema),
            &schema,
            &unlimited,
        )
        .unwrap();

    let mut dtl_alpha = Alphabet::new();
    let dtd = parse_schema(UNIVERSAL_1, &mut dtl_alpha).expect("bench schema parses");
    let dtl_schema = dtd.to_nta();
    let dtl = parse_dtl_transducer(DTL_IDENTITY, &dtl_alpha).expect("bench DTL parses");
    Engine::new()
        .with_tracer(tracer.clone())
        .check_governed(&DtlDecider::new(&dtl), &dtl_schema, &unlimited)
        .expect("symbolic DTL check succeeds");
    // One unit of fuel exhausts immediately; --degrade semantics fall back
    // to the bounded oracle, covering the `dtl/bounded` span.
    let starved = CheckOptions::with_budget(Budget::default().with_fuel(1))
        .degrade_with(DegradeBound::default());
    Engine::new()
        .with_tracer(tracer.clone())
        .check_governed(&DtlDecider::new(&dtl), &dtl_schema, &starved)
        .expect("degraded DTL check produces a verdict");
    // The XSLT frontend's compile stage, on a corpus case so the bench
    // and the taxonomy exercise the same generator.
    let case = &xslt_corpus(1, 0xE11)[0];
    let traced_engine = Engine::new().with_tracer(tracer.clone());
    textpres::frontend::compile_stylesheet_cached(&traced_engine, &case.schema_src, &case.xslt_src)
        .expect("corpus stylesheet compiles");

    let mut names: Vec<String> = tracer
        .exit_span_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    names.sort();
    names.dedup();
    names
}

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    let results = tpx_bench::take_records();
    let overhead = measure_overhead();
    println!(
        "tracing overhead on {}: {:+.2}% (disabled {} ns, traced {} ns)",
        overhead.benchmark,
        overhead.traced_overhead_pct,
        overhead.disabled_median_ns,
        overhead.traced_median_ns
    );
    let scaling = scaling_curve(&results);
    if let Some(s) = &scaling {
        for p in &s.points {
            println!(
                "scaling check_many/{}: {} ns ({:.2}x, host parallelism {})",
                p.jobs, p.median_ns, p.speedup, s.parallelism
            );
        }
    }
    let report = BenchReport {
        bench: "e10_engine_batch".into(),
        stages: traced_stage_coverage(),
        overhead: Some(overhead),
        scaling,
        results,
    };
    let path = tpx_bench::default_json_path();
    std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}
