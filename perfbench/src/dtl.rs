//! `dtl_symbolic`: cold governed DTL checks — the Theorem 5.18 route,
//! where `dtl/counterexample` takes nearly all the time.
//!
//! One round checks, in a seeded order and each on a fresh `Engine`:
//! the identity programs over the universal 1- and 2-label schemas (known
//! preserving), a planted copying and a planted rearranging program over
//! the universal 1-label schema (known not preserving, so the witness
//! stage runs), and a seeded draw of one-state `random_dtl` programs over
//! `random_dtd(2, ·)` — the differential checker's population, whose
//! answers are not known.
//!
//! The known instances run under [`FUEL`], large enough that all of them
//! decide; running out there is a failure. Most random draws would not
//! decide under any budget a run can afford (their compile charges run
//! into the tens of millions), so they run under [`RANDOM_FUEL`] with
//! degradation on, as `textpres check --fuel N --degrade` does: a draw
//! whose symbolic route runs out of fuel gets the bounded oracle's
//! verdict, marked degraded and counted in `dtl.exhausted`. Most draws
//! degrade, so the verdict percentiles mostly time that path, while
//! `checks_per_s` follows the known instances (see `WORKLOADS.md`).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use textpres::dtl::{DtlState, Rhs};
use textpres::engine::{Budget, CheckOptions, DegradeBound, DtlDecider, Engine, Outcome, Tracer};
use textpres::prelude::{Alphabet, DtlBuilder, DtlTransducer, Nta, NtaBuilder, XPathPatterns};
use tpx_workload::{random_dtd, random_dtl};

use crate::calib::Calib;
use crate::common::{
    end_window, finish_trace, fits_another_round, outcome_key, overhead_pct, print_overhead, rng,
    shuffle, timed_setup, Repeats, Report, RunCfg, StageSums,
};
use crate::trace::Recorder;

/// Per-check fuel of the known instances: the 2-label identity, the
/// heaviest, charges about 12.6M.
pub const FUEL: u64 = 16_000_000;
/// Per-check fuel of the random draws (those that decide at all charge
/// under 7k).
pub const RANDOM_FUEL: u64 = 10_000;
/// The bounded oracle a degrading random draw falls back to.
pub const RANDOM_BOUND: DegradeBound = DegradeBound {
    max_nodes: 5,
    limit: 200,
};
/// Random draws per round.
pub const RANDOM_DRAWS: usize = 768;

type Program = DtlTransducer<XPathPatterns>;

struct Instance {
    name: String,
    schema: Nta,
    t: Program,
    /// Known answer, when there is one.
    expect_preserving: Option<bool>,
    options: CheckOptions,
    /// Outcomes already verified (witnesses may differ between cold
    /// checks; each new one is verified once).
    verified: HashSet<String>,
    /// The polarity of the first verdict: later ones must agree.
    polarity: Option<bool>,
}

/// The universal schema over labels `a0..a{n-1}`.
fn universal(n: usize) -> (Alphabet, Nta) {
    let alpha = Alphabet::from_labels((0..n).map(|i| format!("a{i}")));
    let mut b = NtaBuilder::new(&alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    let schema = b.finish();
    (alpha, schema)
}

/// The identity program over `alpha`.
fn identity(alpha: &Alphabet) -> Program {
    let mut b = DtlBuilder::new(alpha, "q0");
    let labels: Vec<String> = alpha.entries().map(|(_, s)| s.to_owned()).collect();
    for l in &labels {
        b.rule_simple("q0", l, l, "q0", "child");
    }
    b.text_rule("q0");
    b.finish()
}

/// `q0: σ → σ((q1, p1) (q1, p2))` for every label, where `q1` only keeps
/// text: outputs the text selected by `p1`, then the text selected by `p2`.
fn two_calls(alpha: &Alphabet, p1: &str, p2: &str) -> Result<Program, String> {
    let mut t = DtlTransducer::new(XPathPatterns, 2, DtlState(0));
    let mut scratch = alpha.clone();
    let mut pattern = |src: &str| {
        textpres::xpath::parse_path(src, &mut scratch).map_err(|e| format!("pattern {src}: {e:?}"))
    };
    let (a, b) = (pattern(p1)?, pattern(p2)?);
    let (a, b) = (t.add_binary_pattern(a), t.add_binary_pattern(b));
    for s in alpha.symbols() {
        t.add_rule(
            DtlState(0),
            textpres::xpath::NodeExpr::Label(s),
            vec![Rhs::Elem(
                s,
                vec![Rhs::Call(DtlState(1), a), Rhs::Call(DtlState(1), b)],
            )],
        );
    }
    t.set_text_rule(DtlState(1), true);
    Ok(t)
}

fn build(seed: u64) -> Result<Vec<Instance>, String> {
    let known = CheckOptions::with_budget(Budget::default().with_fuel(FUEL));
    let random = CheckOptions::with_budget(Budget::default().with_fuel(RANDOM_FUEL))
        .degrade_with(RANDOM_BOUND);
    let mut out = Vec::new();
    let mut add = |name: String, schema: Nta, t: Program, expect: Option<bool>, options| {
        out.push(Instance {
            name,
            schema,
            t,
            expect_preserving: expect,
            options,
            verified: HashSet::new(),
            polarity: None,
        })
    };
    for n in [1, 2] {
        let (alpha, schema) = universal(n);
        add(
            format!("identity-u{n}"),
            schema,
            identity(&alpha),
            Some(true),
            known,
        );
    }
    let (alpha, schema) = universal(1);
    // Every child's text twice: copying on a0("x").
    add(
        "copy-u1".into(),
        schema.clone(),
        two_calls(&alpha, "child", "child")?,
        Some(false),
        known,
    );
    // Grandchildren's text before children's: rearranging on
    // a0("x" a0("y")).
    add(
        "rearrange-u1".into(),
        schema,
        two_calls(&alpha, "child/child", "child")?,
        Some(false),
        known,
    );
    let mut draws = rng(seed, 0xD7);
    for k in 0..RANDOM_DRAWS {
        let s = draws.next_u64();
        let dtd = random_dtd(2, s);
        let t = random_dtl(&dtd.alpha, 1, s);
        add(format!("random-{k}-{s:016x}"), dtd.nta(), t, None, random);
    }
    Ok(out)
}

/// Checks a verdict against the instance's known answer, or, without
/// one, against the oracles: a witness must be a schema tree on which
/// Lemma 5.4 or 5.5 holds; a preserving verdict must agree with the
/// bounded oracle at the fallback's bound (all a degraded verdict claims;
/// a symbolic one claims more).
fn verify(inst: &mut Instance, outcome: &Outcome) -> Result<(), String> {
    if let Some(expect) = inst.expect_preserving {
        if outcome.is_preserving() != expect {
            return Err(format!(
                "WRONG VERDICT on {}: expected preserving={expect}, got {outcome:?}",
                inst.name
            ));
        }
    }
    let preserving = outcome.is_preserving();
    if *inst.polarity.get_or_insert(preserving) != preserving {
        return Err(format!(
            "{}: verdict flipped between identical checks to {outcome:?}",
            inst.name
        ));
    }
    let key = outcome_key(outcome);
    if inst.verified.contains(&key) {
        return Ok(());
    }
    match outcome {
        Outcome::Preserving => {
            let b = RANDOM_BOUND;
            match textpres::dtl::bounded::bounded_counterexample(
                &inst.t,
                &inst.schema,
                b.max_nodes,
                b.limit,
            ) {
                Ok(None) => {}
                Ok(Some(_)) => {
                    return Err(format!(
                        "WRONG VERDICT on {}: bounded oracle finds a counter-example",
                        inst.name
                    ))
                }
                Err(e) => return Err(format!("{}: bounded oracle failed: {e:?}", inst.name)),
            }
        }
        Outcome::NotPreserving { witness } | Outcome::Rearranging { witness } => {
            if !inst.schema.accepts(witness) {
                return Err(format!(
                    "WRONG WITNESS on {}: outside the schema",
                    inst.name
                ));
            }
            let copying = textpres::dtl::config::copying_lemma_5_4(&inst.t, witness);
            let rearranging = textpres::dtl::config::rearranging_lemma_5_5(&inst.t, witness);
            if !(matches!(copying, Ok(true)) || matches!(rearranging, Ok(true))) {
                return Err(format!(
                    "WRONG WITNESS on {}: not re-confirmed (copying {copying:?}, rearranging {rearranging:?})",
                    inst.name
                ));
            }
        }
        other => return Err(format!("{}: foreign outcome {other:?}", inst.name)),
    }
    inst.verified.insert(key);
    Ok(())
}

struct Pass {
    lat: Repeats,
    sums: StageSums,
    degraded: u64,
    /// Check time of the known instances and of the random draws, s.
    known_s: f64,
    random_s: f64,
}

fn run_pass(
    insts: &mut [Instance],
    order: &[usize],
    window: Duration,
    mut traced: Option<(&Arc<Tracer>, f64, &mut Recorder)>,
    report: &mut Report,
) -> Result<Pass, String> {
    let tracer: Option<Arc<Tracer>> = traced.as_ref().map(|(t, _, _)| Arc::clone(t));
    let mut pass = Pass {
        lat: Repeats::default(),
        sums: StageSums::default(),
        degraded: 0,
        known_s: 0.0,
        random_s: 0.0,
    };
    let mut calib = Calib::new();
    let start = Instant::now();
    let mut rounds = 0u32;
    while fits_another_round(start.elapsed(), rounds, window) {
        rounds += 1;
        for &i in order {
            let inst = &mut insts[i];
            report.tally.attempted += 1;
            let req = report.tally.attempted;
            let check = || {
                let t0 = Instant::now();
                let engine = match &tracer {
                    Some(tr) => Engine::new().with_tracer(Arc::clone(tr)),
                    None => Engine::new(),
                };
                let r =
                    engine.check_governed(&DtlDecider::new(&inst.t), &inst.schema, &inst.options);
                (r, t0.elapsed().as_secs_f64() * 1e3)
            };
            let (result, took) = match &mut traced {
                Some((_, _, rec)) => rec.span("engine.check", req, check),
                None => check(),
            };
            let v = result.map_err(|e| {
                report.tally.errored += 1;
                format!("{}: check failed: {e}", inst.name)
            })?;
            let took = took * calib.next_factor();
            pass.lat.push(i, took);
            if inst.expect_preserving.is_some() {
                pass.known_s += took / 1e3;
            } else {
                pass.random_s += took / 1e3;
            }
            pass.sums.add(&v);
            if v.is_degraded() {
                pass.degraded += 1;
            }
            verify(inst, &v.outcome)?;
            report.tally.succeeded += 1;
        }
        if let Some((tr, offset, rec)) = &mut traced {
            rec.add_events(&tr.take_events(), *offset);
            rec.attribute();
        }
    }
    Ok(pass)
}

/// The per-layer metrics this workload produces.
pub const PER_LAYER: &[&str] = &[
    "dtl.schema_ms",
    "dtl.counterexample_ms",
    "dtl.counterexample.copying_ms",
    "dtl.counterexample.rearranging_ms",
    "dtl.decide.product_ms",
    "dtl.decide.witness_ms",
    "dtl.counterexample_size",
    "dtl.fuel",
    "dtl.exhausted",
    "dtl.bounded_ms",
    "dtl.counterexample.self_share",
];

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, mut insts) = timed_setup(9, || build(cfg.seed))?;
    report.set("setup_s", setup_s);
    let mut order: Vec<usize> = (0..insts.len()).collect();
    shuffle(&mut order, &mut rng(cfg.seed, 0x0D));
    println!(
        "dtl_symbolic: {} checks per round (4 known + {RANDOM_DRAWS} random), fuel {FUEL} known / {RANDOM_FUEL} random (degrading), closed loop, 1 client",
        insts.len()
    );
    let plain = run_pass(&mut insts, &order, cfg.pass_seconds(), None, &mut report)?;
    let n = plain.lat.checks() as f64;
    println!(
        "checks {}  degraded {} ({:.1}%)  known {:.3} s  random {:.3} s",
        plain.lat.checks(),
        plain.degraded,
        plain.degraded as f64 * 100.0 / n.max(1.0),
        plain.known_s,
        plain.random_s
    );
    if !cfg.trace {
        let (p50, p90) = plain.lat.p50_p90("dtl_symbolic")?;
        report.set("checks_per_s", plain.lat.checks_per_s());
        report.set("verdict_p50_ms", p50);
        report.set("verdict_p90_ms", p90);
        end_window()?;
        // The cheapest known instance, untraced then traced.
        let probe = [insts
            .iter()
            .position(|i| i.name == "identity-u1")
            .expect("built above")];
        let scratch = &mut Report::default();
        let a = run_pass(&mut insts, &probe, Duration::ZERO, None, scratch)?;
        let mut rec = Recorder::new();
        let (tracer, offset) = rec.tracer();
        let b = run_pass(
            &mut insts,
            &probe,
            Duration::ZERO,
            Some((&tracer, offset, &mut rec)),
            scratch,
        )?;
        print_overhead(
            a.lat.raw_total_s(),
            b.lat.raw_total_s(),
            "identity-u1 once each",
        );
        return Ok(report);
    }
    let s = &plain.sums;
    report.set("dtl.schema_ms", s.ms_per_check("dtl/schema"));
    report.set(
        "dtl.counterexample_ms",
        s.ms_per_check("dtl/counterexample"),
    );
    report.set("dtl.counterexample_size", s.mean_size("dtl/counterexample"));
    report.set("dtl.fuel", s.fuel_per_check("dtl/"));
    report.set("dtl.bounded_ms", s.ms_per_check("dtl/bounded"));
    report.set("dtl.exhausted", plain.degraded as f64 / n.max(1.0));

    let mut rec = Recorder::new();
    let (tracer, offset) = rec.tracer();
    let traced = run_pass(
        &mut insts,
        &order,
        cfg.pass_seconds(),
        Some((&tracer, offset, &mut rec)),
        &mut report,
    )?;
    let checks = traced.lat.checks().max(1) as f64;
    for (metric, layer) in [
        (
            "dtl.counterexample.copying_ms",
            "dtl.counterexample.copying",
        ),
        (
            "dtl.counterexample.rearranging_ms",
            "dtl.counterexample.rearranging",
        ),
        ("dtl.decide.product_ms", "dtl.decide.product"),
        ("dtl.decide.witness_ms", "dtl.decide.witness"),
    ] {
        report.set(metric, rec.self_us(layer) / 1e3 / checks);
    }
    report.set(
        "dtl.counterexample.self_share",
        rec.share_under("dtl.counterexample"),
    );
    let mean = |l: &Repeats| l.raw_total_s() / l.checks().max(1) as f64;
    report.set(
        "obs.trace_overhead_pct",
        overhead_pct(mean(&plain.lat), mean(&traced.lat)),
    );
    finish_trace(cfg, "dtl_symbolic", &rec)?;
    Ok(report)
}
