//! `corpus_batch`: the batch user. E11 TEI/BPMN schema × stylesheet pairs
//! are compiled through the XSLT frontend and batch-checked with
//! `check_many_governed` on `nproc` workers, one fresh engine per batch
//! (as one `textpres batch` run), in a closed loop.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use textpres::engine::{
    Budget, CheckOptions, Decider, Engine, Metrics, Task, TopdownDecider, Tracer,
};
use textpres::frontend::{compile_stylesheet, XsltArtifact};
use textpres::prelude::Alphabet;
use tpx_workload::{xslt_corpus, CorpusCase};

use crate::calib::Calib;
use crate::common::{
    confirm_topdown_witness, end_window, finish_trace, fits_another_round, outcome_key,
    overhead_pct, print_overhead, set_topdown_span_metrics, timed_setup, Report, RunCfg, StageSums,
};
use crate::stats::{percentile, tail_percentile};
use crate::trace::Recorder;

/// Schema × stylesheet pairs per batch.
pub const CASES: usize = 1000;
/// Per-task fuel budget (a corpus check charges a few thousand).
pub const FUEL: u64 = 1_000_000;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a pass measured.
#[derive(Default)]
struct Pass {
    /// Calibrated wall time of each batch (compile + check), ms: the time
    /// a batch user waits for the last verdict.
    batch_ms: Vec<f64>,
    compile_us: f64,
    /// Wall time of compile + check over all batches.
    wall_s: f64,
    batch_wall_s: f64,
    cases: u64,
    batches: u64,
    sums: StageSums,
    hits: u64,
    lookups: u64,
    evictions: u64,
    entries: u64,
    stage_tasks: u64,
    steals: u64,
    /// Stage time of all batches (raw), and their raw check wall time.
    busy_us: f64,
    raw_check_s: f64,
}

/// Verified outcomes per distinct (schema, stylesheet) pair (each new
/// witness is verified once).
type Seen = HashMap<(String, String), HashSet<String>>;

fn run_pass(
    cases: &[CorpusCase],
    window: Duration,
    mut traced: Option<(&Arc<Tracer>, f64, &mut Recorder)>,
    with_metrics: bool,
    seen: &mut Seen,
    report: &mut Report,
) -> Result<Pass, String> {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(FUEL));
    let jobs = workers();
    let tracer: Option<Arc<Tracer>> = traced.as_ref().map(|(t, _, _)| Arc::clone(t));
    let mut pass = Pass::default();
    let mut calib = Calib::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    while fits_another_round(start.elapsed(), rounds, window) {
        rounds += 1;
        let t_batch = Instant::now();
        let mut artifacts: Vec<XsltArtifact> = Vec::with_capacity(cases.len());
        let mut compile_ms = Vec::with_capacity(cases.len());
        for (i, case) in cases.iter().enumerate() {
            let compile = || {
                let t0 = Instant::now();
                let a = compile_stylesheet(&case.schema_src, &case.xslt_src);
                (a, t0.elapsed())
            };
            let (a, took) = match &mut traced {
                Some((_, _, rec)) => rec.span("frontend.compile", i as u64 + 1, compile),
                None => compile(),
            };
            artifacts.push(a.map_err(|e| format!("{}: does not compile: {e}", case.name))?);
            compile_ms.push(took.as_secs_f64() * 1e3);
        }
        let deciders: Vec<TopdownDecider> = artifacts
            .iter()
            .map(|a| TopdownDecider::new(&a.transducer))
            .collect();
        let tasks: Vec<Task> = deciders
            .iter()
            .zip(&artifacts)
            .map(|(d, a)| (d as &dyn Decider, &a.schema))
            .collect();
        let mut engine = Engine::with_jobs(jobs);
        if let Some(tr) = &tracer {
            engine = engine.with_tracer(Arc::clone(tr));
        }
        let metrics = Arc::new(if with_metrics {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        });
        engine = engine.with_metrics(Arc::clone(&metrics));
        report.tally.attempted += cases.len() as u64;
        let check = || {
            let t0 = Instant::now();
            let v = engine.check_many_governed(&tasks, &options);
            (v, t0.elapsed())
        };
        let (verdicts, check_wall) = match &mut traced {
            Some((_, _, rec)) => rec.span("engine.sched", 0, check),
            None => check(),
        };
        let k = calib.next_factor();
        let batch_wall = t_batch.elapsed().as_secs_f64() * k;
        pass.batch_ms.push(batch_wall * 1e3);
        pass.wall_s += batch_wall;
        pass.batch_wall_s += check_wall.as_secs_f64() * k;
        pass.raw_check_s += check_wall.as_secs_f64();
        pass.batches += 1;

        for (i, (result, case)) in verdicts.into_iter().zip(cases).enumerate() {
            let v = match result {
                Ok(v) => v,
                Err(e) => {
                    report.tally.errored += 1;
                    return Err(format!("{}: check failed: {e}", case.name));
                }
            };
            if v.is_preserving() != case.expect_preserving {
                return Err(format!(
                    "WRONG VERDICT on {}: expected preserving={}, got {:?}",
                    case.name, case.expect_preserving, v.outcome
                ));
            }
            let verified = seen
                .entry((case.schema_src.clone(), case.xslt_src.clone()))
                .or_default();
            let got = outcome_key(&v.outcome);
            if !verified.contains(&got) {
                let a = &artifacts[i];
                confirm_topdown_witness(&a.transducer, &a.schema, &v.outcome, &[])
                    .map_err(|e| format!("WRONG WITNESS on {}: {e}", case.name))?;
                verified.insert(got);
            }
            pass.compile_us += compile_ms[i] * 1e3 * k;
            pass.sums.add(&v);
            report.tally.succeeded += 1;
            pass.cases += 1;
        }
        let c = engine.cache_stats();
        pass.hits += c.hits;
        pass.lookups += c.hits + c.misses;
        pass.evictions += c.evictions;
        pass.entries += c.entries as u64;
        let b = engine.batch_stats();
        pass.stage_tasks += b.stage_tasks;
        pass.steals += b.steals;
        if with_metrics {
            let snap = metrics.snapshot();
            pass.busy_us += snap
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with("stage/") && k.ends_with("/us"))
                .map(|(_, h)| h.sum as f64)
                .sum::<f64>();
        }
        if let Some((tr, offset, rec)) = &mut traced {
            rec.add_events(&tr.take_events(), *offset);
            rec.attribute();
        }
    }
    Ok(pass)
}

/// Runs `f`, returning its value and its wall time in µs.
fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e6)
}

/// The per-layer metrics this workload produces.
pub const PER_LAYER: &[&str] = &[
    "format.parse_schema_us",
    "format.parse_transducer_us",
    "xslt.compile_us",
    "frontend.compile_us",
    "engine.cache.hit_ratio",
    "engine.cache.evictions",
    "engine.cache.entries",
    "engine.sched.stage_tasks",
    "engine.sched.steals",
    "engine.sched.busy_ratio",
    "topdown.schema_ms",
    "topdown.transducer_ms",
    "topdown.decide_ms",
    "topdown.transducer_size",
    "topdown.fuel",
    "topdown.transducer.copying_ms",
    "topdown.transducer.rearranging_ms",
    "topdown.decide.copying_ms",
    "topdown.decide.rearranging_ms",
    "topdown.transducer.self_share",
];

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, cases) = timed_setup(9, || Ok(xslt_corpus(CASES, cfg.seed)))?;
    report.set("setup_s", setup_s);
    println!(
        "corpus_batch: {CASES} pairs per batch, fuel {FUEL} per task, closed loop, 1 client, {} workers",
        workers()
    );
    let mut seen = Seen::new();
    let plain = run_pass(
        &cases,
        cfg.pass_seconds(),
        None,
        cfg.trace,
        &mut seen,
        &mut report,
    )?;
    println!(
        "batches {}  cases {}  distinct pairs {}  compile {:.3} s  check {:.3} s",
        plain.batches,
        plain.cases,
        seen.len(),
        plain.wall_s - plain.batch_wall_s,
        plain.batch_wall_s
    );
    if !cfg.trace {
        let mut b = plain.batch_ms.clone();
        b.sort_by(f64::total_cmp);
        if tail_percentile(b.len()).is_none_or(|p| p < 90.0) {
            return Err(format!(
                "corpus_batch: only {} batches, too few to report p90",
                b.len()
            ));
        }
        let (p50, p90) = (
            percentile(&b, 50.0).expect("non-empty"),
            percentile(&b, 90.0).expect("non-empty"),
        );
        report.set("checks_per_s", plain.cases as f64 / plain.wall_s);
        report.set("verdict_p50_ms", p50);
        report.set("verdict_p90_ms", p90);
        end_window()?;
        let scratch = &mut Report::default();
        let a = run_pass(&cases, Duration::ZERO, None, false, &mut seen, scratch)?;
        let mut rec = Recorder::new();
        let (tracer, offset) = rec.tracer();
        let b = run_pass(
            &cases,
            Duration::ZERO,
            Some((&tracer, offset, &mut rec)),
            false,
            &mut seen,
            scratch,
        )?;
        print_overhead(a.wall_s, b.wall_s, "one batch each");
        return Ok(report);
    }

    let n = plain.cases.max(1) as f64;
    let batches = plain.batches.max(1) as f64;
    report.set("frontend.compile_us", plain.compile_us / n);
    // Timed calls into single layers, on the workload's own sources.
    let (mut parse_schema_us, mut xslt_us, mut parse_t_us) = (0.0, 0.0, 0.0);
    for c in &cases {
        let mut alpha = Alphabet::new();
        let (r, us) = time_us(|| textpres::format::parse_schema(&c.schema_src, &mut alpha));
        r.map_err(|e| format!("{}: {e}", c.name))?;
        parse_schema_us += us;
        let (r, us) = time_us(|| textpres::xslt::compile(&c.xslt_src, &mut alpha));
        let compiled = r.map_err(|e| format!("{}: {e}", c.name))?;
        xslt_us += us;
        let src = textpres::format::render_transducer(&compiled.transducer, &alpha);
        let (r, us) = time_us(|| textpres::format::parse_transducer(&src, &alpha));
        r.map_err(|e| format!("{}: {e}", c.name))?;
        parse_t_us += us;
    }
    let nc = cases.len() as f64;
    report.set("format.parse_schema_us", parse_schema_us / nc);
    report.set("xslt.compile_us", xslt_us / nc);
    report.set("format.parse_transducer_us", parse_t_us / nc);
    report.set(
        "engine.cache.hit_ratio",
        if plain.lookups > 0 {
            plain.hits as f64 / plain.lookups as f64
        } else {
            0.0
        },
    );
    report.set("engine.cache.evictions", plain.evictions as f64 / batches);
    report.set("engine.cache.entries", plain.entries as f64 / batches);
    report.set(
        "engine.sched.stage_tasks",
        plain.stage_tasks as f64 / batches,
    );
    report.set("engine.sched.steals", plain.steals as f64 / batches);
    report.set(
        "engine.sched.busy_ratio",
        plain.busy_us / (plain.raw_check_s * 1e6 * workers() as f64),
    );
    let s = &plain.sums;
    report.set("topdown.schema_ms", s.ms_per_check("topdown/schema"));
    report.set(
        "topdown.transducer_ms",
        s.ms_per_check("topdown/transducer"),
    );
    report.set("topdown.decide_ms", s.ms_per_check("topdown/decide"));
    report.set("topdown.transducer_size", s.mean_size("topdown/transducer"));
    report.set("topdown.fuel", s.fuel_per_check("topdown/"));

    let mut rec = Recorder::new();
    let (tracer, offset) = rec.tracer();
    // Metrics on in both passes, so the overhead compares like with like.
    let traced = run_pass(
        &cases,
        cfg.pass_seconds(),
        Some((&tracer, offset, &mut rec)),
        true,
        &mut seen,
        &mut report,
    )?;
    set_topdown_span_metrics(&mut report, &rec, traced.cases as f64);
    let per_case = |p: &Pass| p.wall_s / p.cases.max(1) as f64;
    report.set(
        "obs.trace_overhead_pct",
        overhead_pct(per_case(&plain), per_case(&traced)),
    );
    finish_trace(cfg, "corpus_batch", &rec)?;
    Ok(report)
}
