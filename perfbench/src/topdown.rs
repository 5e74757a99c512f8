//! `topdown_deep`: cold single checks of the transducer suite on chain
//! schemas up to n = 32 — the Theorem 4.11 route at scale, one fresh
//! `Engine` per check as one `textpres check` pays.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use textpres::engine::{Budget, CheckOptions, Engine, TopdownDecider, Tracer};
use textpres::prelude::{Nta, Transducer, Tree};
use tpx_workload::{chain_schema, transducers, TransducerKind};

use crate::calib::Calib;
use crate::common::{
    chain_expectation, confirm_topdown_witness, end_window, finish_trace, fits_another_round,
    outcome_key, overhead_pct, print_overhead, rng, set_topdown_span_metrics, shuffle, timed_setup,
    Repeats, Report, RunCfg, StageSums,
};
use crate::trace::Recorder;

/// Chain lengths of one round.
pub const SIZES: [usize; 4] = [8, 16, 24, 32];
/// Per-check fuel budget (the heaviest check charges about 110k).
pub const FUEL: u64 = 5_000_000;

struct Case {
    name: String,
    schema: Nta,
    tree: Tree,
    t: Transducer,
    expect_preserving: bool,
    /// Outcomes already verified (each new witness is verified once).
    verified: HashSet<String>,
}

fn build_cases() -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for n in SIZES {
        let (alpha, schema) = chain_schema(n);
        let tree = crate::common::chain_tree(&schema, n)?;
        for (kind, t) in transducers::suite(&alpha, n) {
            let expect_preserving = chain_expectation(&t, &tree);
            // Ground truth by kind, where the kind decides it: a chain has
            // no sibling pair, so the swapper's answer comes from the
            // oracle alone.
            let by_kind = match kind {
                TransducerKind::Preserving => Some(true),
                TransducerKind::Copying => Some(false),
                TransducerKind::Rearranging => None,
            };
            if by_kind.is_some_and(|k| k != expect_preserving) {
                return Err(format!(
                    "chain-{n} {kind:?}: oracle disagrees with the kind"
                ));
            }
            cases.push(Case {
                name: format!("chain{n}-{kind:?}").to_lowercase(),
                schema: schema.clone(),
                tree: tree.clone(),
                t,
                expect_preserving,
                verified: HashSet::new(),
            });
        }
    }
    Ok(cases)
}

/// One pass: whole rounds of the suite until `window` is used up.
struct Pass {
    lat: Repeats,
    sums: StageSums,
    hits: u64,
    lookups: u64,
}

fn run_pass(
    cases: &mut [Case],
    order: &[usize],
    window: Duration,
    mut traced: Option<(&Arc<Tracer>, f64, &mut Recorder)>,
    report: &mut Report,
) -> Result<Pass, String> {
    let options = CheckOptions::with_budget(Budget::default().with_fuel(FUEL));
    let mut pass = Pass {
        lat: Repeats::default(),
        sums: StageSums::default(),
        hits: 0,
        lookups: 0,
    };
    let tracer: Option<Arc<Tracer>> = traced.as_ref().map(|(t, _, _)| Arc::clone(t));
    let mut calib = Calib::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    while fits_another_round(start.elapsed(), rounds, window) {
        rounds += 1;
        for &i in order {
            let case = &mut cases[i];
            report.tally.attempted += 1;
            let req = report.tally.attempted;
            let (result, engine, took) = {
                let check = || {
                    let t0 = Instant::now();
                    let engine = match &tracer {
                        Some(tr) => Engine::new().with_tracer(Arc::clone(tr)),
                        None => Engine::new(),
                    };
                    let r = engine.check_governed(
                        &TopdownDecider::new(&case.t),
                        &case.schema,
                        &options,
                    );
                    (r, engine, t0.elapsed().as_secs_f64() * 1e3)
                };
                match &mut traced {
                    Some((_, _, rec)) => rec.span("engine.check", req, check),
                    None => check(),
                }
            };
            let stats = engine.cache_stats();
            pass.hits += stats.hits;
            pass.lookups += stats.hits + stats.misses;
            let verdict = match result {
                Ok(v) => v,
                Err(e) => {
                    report.tally.errored += 1;
                    return Err(format!("{}: check failed: {e}", case.name));
                }
            };
            pass.lat.push(i, took * calib.next_factor());
            pass.sums.add(&verdict);
            verify(case, &verdict.outcome)?;
            report.tally.succeeded += 1;
        }
        if let Some((tr, offset, rec)) = &mut traced {
            rec.add_events(&tr.take_events(), *offset);
            rec.attribute();
        }
    }
    Ok(pass)
}

fn verify(case: &mut Case, outcome: &textpres::engine::Outcome) -> Result<(), String> {
    if outcome.is_preserving() != case.expect_preserving {
        return Err(format!(
            "WRONG VERDICT on {}: expected preserving={}, got {outcome:?}",
            case.name, case.expect_preserving
        ));
    }
    let key = outcome_key(outcome);
    if !case.verified.contains(&key) {
        confirm_topdown_witness(
            &case.t,
            &case.schema,
            outcome,
            std::slice::from_ref(&case.tree),
        )
        .map_err(|e| format!("WRONG WITNESS on {}: {e}", case.name))?;
        case.verified.insert(key);
    }
    Ok(())
}

/// The per-layer metrics this workload produces.
pub const PER_LAYER: &[&str] = &[
    "engine.cache.hit_ratio",
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
    let (setup_s, mut cases) = timed_setup(9, build_cases)?;
    report.set("setup_s", setup_s);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    shuffle(&mut order, &mut rng(cfg.seed, 0x7D));
    println!(
        "topdown_deep: {} checks per round (sizes {SIZES:?} x 4 kinds), fuel {FUEL} per check, closed loop, 1 client",
        cases.len()
    );

    let plain = run_pass(&mut cases, &order, cfg.pass_seconds(), None, &mut report)?;
    if !cfg.trace {
        let (p50, p90) = plain.lat.p50_p90("topdown_deep")?;
        report.set("checks_per_s", plain.lat.checks_per_s());
        report.set("verdict_p50_ms", p50);
        report.set("verdict_p90_ms", p90);
        println!(
            "checks {}  p50 {p50:.3} ms  p90 {p90:.3} ms",
            plain.lat.checks()
        );
        end_window()?;
        let scratch = &mut Report::default();
        let a = run_pass(&mut cases, &order, Duration::ZERO, None, scratch)?;
        let mut rec = Recorder::new();
        let (tracer, offset) = rec.tracer();
        let b = run_pass(
            &mut cases,
            &order,
            Duration::ZERO,
            Some((&tracer, offset, &mut rec)),
            scratch,
        )?;
        print_overhead(a.lat.raw_total_s(), b.lat.raw_total_s(), "one round each");
        return Ok(report);
    }

    let s = &plain.sums;
    report.set("topdown.schema_ms", s.ms_per_check("topdown/schema"));
    report.set(
        "topdown.transducer_ms",
        s.ms_per_check("topdown/transducer"),
    );
    report.set("topdown.decide_ms", s.ms_per_check("topdown/decide"));
    report.set("topdown.transducer_size", s.mean_size("topdown/transducer"));
    report.set("topdown.fuel", s.fuel_per_check("topdown/"));
    report.set(
        "engine.cache.hit_ratio",
        if plain.lookups > 0 {
            plain.hits as f64 / plain.lookups as f64
        } else {
            0.0
        },
    );

    let mut rec = Recorder::new();
    let (tracer, offset) = rec.tracer();
    let traced = run_pass(
        &mut cases,
        &order,
        cfg.pass_seconds(),
        Some((&tracer, offset, &mut rec)),
        &mut report,
    )?;
    set_topdown_span_metrics(&mut report, &rec, traced.lat.checks() as f64);
    let mean = |l: &Repeats| l.raw_total_s() / l.checks().max(1) as f64;
    report.set(
        "obs.trace_overhead_pct",
        overhead_pct(mean(&plain.lat), mean(&traced.lat)),
    );
    finish_trace(cfg, "topdown_deep", &rec)?;
    Ok(report)
}
