//! `textpres` — verify that XML transformations are text-preserving.
//!
//! ```text
//! textpres check <schema> <transducer> [document.xml] [--stats]
//! textpres analyze <schema> <transducer> [--analysis NAME]
//!                  [--label L]... [--target SCHEMA] [--stats]
//! textpres subschema <schema> <transducer> [--fuel N] [--timeout-ms N]
//! textpres batch <schema> <transducer>... [--jobs N] [--stats]
//! textpres fuzz [--seeds N] [--budget B] [--base-seed S] [--no-dtl-symbolic]
//!               [--xslt] [--analysis NAME] [--out DIR] [--stats]
//! textpres --version
//! ```
//!
//! `check` decides (in PTIME, Theorem 4.11 of the paper) whether the
//! transformation never copies or reorders text on ANY document valid
//! under the schema; with a document argument it also runs the
//! transformation. A transducer file whose first meaningful line is `dtl`
//! is a `DTL_XPath` program, checked with the EXPTIME DTL decider
//! (Theorem 5.18) instead.
//!
//! `analyze` runs one of the engine's preservation analyses under the
//! same governed contract as `check` (`check` is `analyze --analysis
//! text-preservation`):
//!
//! * `--analysis text-preservation` (default) — the Theorem 4.11 / 5.18
//!   check;
//! * `--analysis text-retention` — does the transducer ever delete a text
//!   value below a node carrying one of the `--label` labels, on some
//!   schema document? (the conclusion's stronger test); needs one or more
//!   `--label` flags and a top-down transducer;
//! * `--analysis conformance` — does every output `T(d)`, for `d` valid
//!   under the schema, validate against the `--target` schema? (inverse
//!   type inference); needs `--target` and a top-down transducer.
//!
//! `subschema` prints a witness from the maximal
//! sub-schema on which the transformation IS text-preserving. `batch`
//! checks many transducer files against one schema on a work-stealing
//! worker pool, sharing compiled schema artifacts across all of them;
//! `--jobs 0` (the default) auto-detects the worker count from
//! `std::thread::available_parallelism`. `fuzz` runs the
//! differential checker (`tpx-diffcheck`): random schema/transducer pairs,
//! symbolic verdicts cross-checked against per-tree semantic oracles and
//! the bounded-enumeration baseline, with shrunk reproducers written to
//! `--out` as regression case files. The symbolic DTL decider runs on
//! generated DTL programs by default (the lazy antichain layer of
//! DESIGN.md §13 keeps it cheap, and the default fuel budget degrades
//! unlucky seeds); `--no-dtl-symbolic` opts out, and programs larger
//! than the configured size cap are counted as `dtl-size-skipped` in the
//! run summary.
//!
//! `--fuel N` and `--timeout-ms N` put a resource budget on each check:
//! fuel is charged at automaton state/transition construction sites (a
//! deterministic cost measure), the timeout is wall-clock. A check that
//! exhausts its budget exits with code 3 — unless `--degrade` is given,
//! in which case a DTL check falls back to the bounded-enumeration
//! oracle and reports a verdict marked `degraded` (sound only up to the
//! bound). `fuzz` runs every random instance under a default fuel budget;
//! exhausted instances are counted and skipped, not divergences.
//!
//! `--trace-out PATH` writes a JSONL span trace of every pipeline stage
//! the run executed (one `enter` and one `exit` line per stage, with fuel
//! charged, artifact sizes and cache attribution on the exits); `--metrics`
//! prints an aggregated counter/histogram table to stderr. Both are
//! documented in DESIGN.md §11. With `fuzz --out DIR`, each shrunk
//! reproducer additionally gets a `seedN-kind.trace.jsonl` span trace of
//! its replay written next to the `.case` file.
//!
//! Exit codes: 0 = text-preserving (all of them, for `batch`; no
//! divergence, for `fuzz`); 1 = some transformation is not text-preserving
//! (a divergence was found, for `fuzz`); 2 = usage or I/O error; 3 = a
//! resource budget was exhausted (and `--degrade` did not apply).
//!
//! File formats are documented in `textpres::format`.

use std::process::ExitCode;
use textpres::diffcheck::{run_fuzz, FuzzConfig};
use textpres::engine::{
    analysis_by_name, Budget, CheckOptions, Decider, DecisionError, DegradeBound, DtlDecider,
    Engine, Metrics, Outcome, OutputConformanceDecider, Task, TextRetentionDecider, TopdownDecider,
    Tracer, Verdict, ANALYSIS_NAMES, OUTPUT_CONFORMANCE, TEXT_PRESERVATION, TEXT_RETENTION,
};
use textpres::format::{
    is_dtl_transducer, parse_dtl_transducer, parse_schema, parse_transducer, render_case,
    render_path, render_transducer, render_witness, RegressionCase,
};
use textpres::prelude::*;

const USAGE: &str = "\
usage: textpres check <schema> <transducer> [document.xml] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
       textpres analyze <schema> <transducer> [--analysis NAME]
                [--label L]... [--target SCHEMA] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
                (analyses: text-preservation (default),
                 text-retention (needs --label, repeatable),
                 conformance (needs --target, a schema file))
       textpres subschema <schema> <transducer> [--fuel N] [--timeout-ms N]
       textpres compile-xslt <schema> <stylesheet> [--dtl] [--out PATH]
                (compile a restricted XSLT 1.0 stylesheet to the top-down
                transducer format; --dtl emits the equivalent DTL_XPath
                program instead when the stylesheet is expressible; exits 1
                listing every unsupported construct with its source line)
       textpres batch <schema> <transducer>... [--jobs N] [--stats]
                [--fuel N] [--timeout-ms N] [--degrade]
                [--trace-out PATH] [--metrics]
                (--jobs 0, the default, auto-detects the worker count)
       textpres serve [--addr HOST:PORT] [--slots N] [--queue N]
                [--max-connections N] [--max-frame-bytes N]
                [--max-fuel N] [--max-timeout-ms N] [--drain-ms N]
                [--idle-timeout-ms N] [--trace-out PATH] [--metrics]
                (long-running daemon with a persistent warm engine;
                newline-delimited JSON frames over TCP, graceful drain
                on SIGTERM/SIGINT or a shutdown frame; --slots 0, the
                default, admits one concurrent check per host core)
       textpres client <addr> check <schema> <transducer>
                [--analysis NAME] [--label L]... [--target SCHEMA]
                [--fuel N] [--timeout-ms N] [--degrade]
       textpres client <addr> (health | stats | shutdown)
       textpres client <addr> raw '<json-frame>'
                (one-shot client for the serve protocol; prints the
                response frame and maps it onto the exit codes below)
       textpres fuzz [--seeds N] [--budget B] [--base-seed S]
                     [--no-dtl-symbolic] [--xslt] [--analysis NAME]
                     [--fuel N] [--timeout-ms N]
                     [--out DIR] [--stats] [--trace-out PATH] [--metrics]
                     (symbolic DTL cross-checks run by default;
                     --no-dtl-symbolic opts out; --analysis text-retention
                     adds the retention cross-checks to the sweep; --xslt
                     adds the stylesheet-frontend cross-checks: a seeded
                     fragment stylesheet per seed, compiled and diffed
                     against its ground-truth direct translation)
       textpres --version

transducer files starting with a `dtl` line are DTL_XPath programs,
checked with the EXPTIME DTL decider instead of the PTIME top-down one;
transducer files starting with `<` are XSLT stylesheets, compiled with
the restricted-fragment frontend before checking (check/analyze/batch
refuse stylesheets with untranslatable constructs)

--trace-out writes a JSONL span trace (one enter/exit pair per pipeline
stage) and --metrics prints aggregated counters/histograms to stderr

exit codes: 0 = analysis passed, 1 = analysis failed (a witness was
            found), 2 = usage/IO error, 3 = resource budget exhausted";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Global flags first: --version / --help work anywhere.
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("textpres {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if args.is_empty()
        || args
            .iter()
            .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let (cmd, rest) = (args[0].as_str(), &args[1..]);
    match cmd {
        "check" => cmd_check(rest),
        "analyze" => cmd_analyze(rest),
        "subschema" => cmd_subschema(rest),
        "compile-xslt" => cmd_compile_xslt(rest),
        "batch" => cmd_batch(rest),
        "fuzz" => cmd_fuzz(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        unknown => {
            eprintln!("error: unknown command {unknown:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The flags of the commands parsed by [`parse_flags`]; each command
/// accepts only the subset it uses.
#[derive(Default)]
struct Flags<'a> {
    positional: Vec<&'a str>,
    stats: bool,
    jobs: Option<usize>,
    fuel: Option<u64>,
    timeout_ms: Option<u64>,
    degrade: bool,
    trace_out: Option<&'a str>,
    metrics: bool,
    analysis: Option<&'a str>,
    labels: Vec<&'a str>,
    target: Option<&'a str>,
    dtl: bool,
    out: Option<&'a str>,
}

impl Flags<'_> {
    /// The [`CheckOptions`] the flags describe.
    fn check_options(&self) -> CheckOptions {
        let mut budget = Budget::default();
        if let Some(fuel) = self.fuel {
            budget = budget.with_fuel(fuel);
        }
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout(std::time::Duration::from_millis(ms));
        }
        let options = CheckOptions::with_budget(budget);
        if self.degrade {
            options.degrade_with(DegradeBound::default())
        } else {
            options
        }
    }
}

/// The budget flags of every command that runs a budgeted computation.
const BUDGET_FLAGS: [&str; 2] = ["--fuel", "--timeout-ms"];
/// The flags `check` accepts; `analyze` adds [`ANALYSIS_FLAGS`].
const CHECK_FLAGS: [&str; 6] = [
    "--stats",
    "--fuel",
    "--timeout-ms",
    "--degrade",
    "--trace-out",
    "--metrics",
];
/// The analysis-selection flags of `analyze` and `client check`.
const ANALYSIS_FLAGS: [&str; 3] = ["--analysis", "--label", "--target"];

/// Splits flags from positional arguments, rejecting any flag that is not
/// in `accepted` (the flags the calling command uses).
fn parse_flags<'a>(args: &'a [String], accepted: &[&str]) -> Result<Flags<'a>, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !accepted.contains(&a.as_str()) {
            return Err(format!("unsupported flag {a:?}"));
        }
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match a.as_str() {
            "--stats" => flags.stats = true,
            "--jobs" => flags.jobs = Some(num("--jobs")? as usize),
            "--fuel" => flags.fuel = Some(num("--fuel")?),
            "--timeout-ms" => flags.timeout_ms = Some(num("--timeout-ms")?),
            "--degrade" => flags.degrade = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--trace-out needs a path".to_string())?;
                flags.trace_out = Some(v.as_str());
            }
            "--metrics" => flags.metrics = true,
            "--analysis" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--analysis needs a name".to_string())?;
                flags.analysis = Some(v.as_str());
            }
            "--label" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--label needs a label".to_string())?;
                flags.labels.push(v.as_str());
            }
            "--target" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--target needs a schema file".to_string())?;
                flags.target = Some(v.as_str());
            }
            "--dtl" => flags.dtl = true,
            "--out" => {
                let v = it.next().ok_or_else(|| "--out needs a path".to_string())?;
                flags.out = Some(v.as_str());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            pos => flags.positional.push(pos),
        }
    }
    Ok(flags)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Attaches an enabled tracer and/or metrics registry to `engine` when the
/// observability flags ask for them (both stay disabled — and free —
/// otherwise).
fn instrument(engine: Engine, trace_out: Option<&str>, metrics: bool) -> Engine {
    let engine = if trace_out.is_some() {
        engine.with_tracer(std::sync::Arc::new(Tracer::enabled()))
    } else {
        engine
    };
    if metrics {
        engine.with_metrics(std::sync::Arc::new(Metrics::enabled()))
    } else {
        engine
    }
}

/// Flushes observability output: the JSONL span trace to `trace_out` and
/// the metrics table to stderr. Runs on every exit path (including budget
/// exhaustion) so a failed run still leaves its trace behind.
fn flush_obs(engine: &Engine, trace_out: Option<&str>, metrics: bool) -> Result<(), String> {
    if let Some(path) = trace_out {
        std::fs::write(path, engine.tracer().to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if metrics {
        eprint!("{}", engine.metrics().snapshot().render_table());
    }
    Ok(())
}

fn load_schema(path: &str) -> Result<(Alphabet, Nta), String> {
    let src = read(path)?;
    let mut alpha = Alphabet::new();
    let dtd = parse_schema(&src, &mut alpha).map_err(|e| format!("{path}: {e}"))?;
    Ok((alpha, dtd.to_nta()))
}

fn load_transducer(path: &str, alpha: &Alphabet) -> Result<Transducer, String> {
    let src = read(path)?;
    parse_transducer(&src, alpha).map_err(|e| format!("{path}: {e}"))
}

fn print_stats(engine: &Engine, verdicts: &[&Verdict]) {
    for v in verdicts {
        for s in &v.stats.stages {
            let attribution = match s.cache_hit {
                Some(true) => " [cache hit]",
                Some(false) => " [compiled]",
                None => "",
            };
            let size = s
                .artifact_size
                .map_or(String::new(), |n| format!(", size {n}"));
            let fuel = s.fuel.map_or(String::new(), |n| format!(", fuel {n}"));
            eprintln!("  {}: {:?}{size}{fuel}{attribution}", s.stage, s.duration);
        }
    }
    let c = engine.cache_stats();
    eprintln!(
        "  cache: {} hits, {} misses, {} artifacts",
        c.hits, c.misses, c.entries
    );
}

fn report_verdict(label: &str, verdict: &Verdict, alpha: &Alphabet) -> bool {
    if let Some(bound) = &verdict.degraded {
        println!(
            "! {label}: budget exhausted; verdict DEGRADED to the bounded oracle \
             (exhaustive only up to {} nodes, {} trees)",
            bound.max_nodes, bound.limit
        );
    }
    match &verdict.outcome {
        Outcome::Preserving => {
            if verdict.analysis == TEXT_RETENTION {
                println!("✓ {label}: [text-retention] retains all text under the selected labels");
            } else if verdict.analysis == OUTPUT_CONFORMANCE {
                println!("✓ {label}: [conformance] every output conforms to the target schema");
            } else {
                println!("✓ {label}: text-preserving over every valid document");
            }
            true
        }
        Outcome::Copying { path } => {
            println!(
                "✗ {label}: COPIES text reached via: {}",
                render_path(path, alpha)
            );
            false
        }
        Outcome::Rearranging { witness } => {
            println!("✗ {label}: REORDERS text, e.g. on this valid document:");
            println!("  {}", render_witness(witness, alpha));
            false
        }
        Outcome::NotPreserving { witness } => {
            println!("✗ {label}: not text-preserving, e.g. on:");
            println!("  {}", render_witness(witness, alpha));
            false
        }
        Outcome::DeletesText { path } => {
            println!(
                "✗ {label}: [text-retention] DELETES text under a selected label, \
                 reached via: {}",
                render_path(path, alpha)
            );
            false
        }
        Outcome::NonConforming { witness } => {
            println!(
                "✗ {label}: [conformance] output does NOT conform to the target, \
                 e.g. on this valid document:"
            );
            println!("  {}", render_witness(witness, alpha));
            false
        }
    }
}

/// A loaded transducer of either kind, dispatching to the right decider.
enum AnyTransducer {
    Topdown(Transducer),
    Dtl(DtlTransducer<XPathPatterns>),
}

impl AnyTransducer {
    /// A decider for this transducer, borrowing it.
    fn decider(&self) -> Box<dyn Decider + '_> {
        match self {
            AnyTransducer::Topdown(t) => Box::new(TopdownDecider::new(t)),
            AnyTransducer::Dtl(t) => Box::new(DtlDecider::new(t)),
        }
    }
}

/// Loads the schema and every transducer file together. Stylesheet files
/// (sniffed by a leading `<`) compile through the XSLT frontend, which may
/// extend the alphabet with literal result labels — so stylesheets compile
/// in a first pass that interns every label, everything is built in a
/// second pass at the final alphabet width, and the schema NTA is parsed
/// last so its width matches.
fn load_inputs(
    schema_path: &str,
    transducer_paths: &[&str],
) -> Result<(Alphabet, Nta, Vec<AnyTransducer>), String> {
    let schema_src = read(schema_path)?;
    let mut alpha = Alphabet::new();
    parse_schema(&schema_src, &mut alpha).map_err(|e| format!("{schema_path}: {e}"))?;
    let mut sources = Vec::new();
    for path in transducer_paths {
        sources.push((*path, read(path)?));
    }
    for (path, src) in &sources {
        if textpres::xslt::is_stylesheet(src) {
            textpres::xslt::compile(src, &mut alpha).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let mut transducers = Vec::new();
    for (path, src) in &sources {
        let t = if textpres::xslt::is_stylesheet(src) {
            let c = textpres::xslt::compile(src, &mut alpha).map_err(|e| format!("{path}: {e}"))?;
            if !c.diagnostics.is_empty() {
                return Err(format!(
                    "{path}: {}",
                    textpres::frontend::untranslatable(&c.diagnostics)
                ));
            }
            AnyTransducer::Topdown(c.transducer)
        } else if is_dtl_transducer(src) {
            AnyTransducer::Dtl(
                parse_dtl_transducer(src, &alpha).map_err(|e| format!("{path}: {e}"))?,
            )
        } else {
            AnyTransducer::Topdown(
                parse_transducer(src, &alpha).map_err(|e| format!("{path}: {e}"))?,
            )
        };
        transducers.push(t);
    }
    let schema = parse_schema(&schema_src, &mut alpha)
        .expect("schema parsed once already")
        .to_nta();
    Ok((alpha, schema, transducers))
}

/// Runs one (possibly governed) check, reporting any failure. The `Err`
/// payload is the process exit code: 3 for budget exhaustion, 2 for an
/// isolated panic or internal error.
fn run_check(
    engine: &Engine,
    decider: &dyn Decider,
    schema: &Nta,
    flags: &Flags<'_>,
    label: &str,
) -> Result<Verdict, u8> {
    engine
        .check_governed(decider, schema, &flags.check_options())
        .map_err(|e| {
            eprintln!("error: {label}: {e}");
            if e.is_resource_exhausted() {
                3
            } else {
                2
            }
        })
}

fn cmd_check(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &CHECK_FLAGS) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (schema_path, transducer_path, doc) = match flags.positional.as_slice() {
        [s, t] => (*s, *t, None),
        [s, t, d] => (*s, *t, Some(*d)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut alpha, schema, mut loaded) = match load_inputs(schema_path, &[transducer_path]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let t = loaded.pop().expect("one transducer loaded");
    if let Some(doc_path) = doc {
        let AnyTransducer::Topdown(t) = &t else {
            eprintln!("error: transforming a document is only supported for top-down transducers");
            return ExitCode::from(2);
        };
        let xml = match read(doc_path) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        match textpres::trees::xml::parse_document(&xml, &mut alpha) {
            Ok(tree) => {
                let out = t.transform(&tree);
                println!("transformed {doc_path}:");
                println!("{}", textpres::trees::xml::to_xml(&out, &alpha));
                let ok = textpres::is_text_preserving_run(&tree, &out);
                println!("this run is text-preserving: {ok}\n");
            }
            Err(e) => {
                eprintln!("error: {doc_path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let engine = instrument(Engine::new(), flags.trace_out, flags.metrics);
    let decider = t.decider();
    let result = run_check(&engine, decider.as_ref(), &schema, &flags, transducer_path);
    if let Err(e) = flush_obs(&engine, flags.trace_out, flags.metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let verdict = match result {
        Ok(v) => v,
        Err(code) => return ExitCode::from(code),
    };
    let ok = report_verdict(transducer_path, &verdict, &alpha);
    if flags.stats {
        print_stats(&engine, &[&verdict]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Unwraps a loaded transducer for an analysis that only supports
/// top-down transducers, with a clear error for DTL files.
fn topdown_for(analysis: &str, path: &str, t: AnyTransducer) -> Result<Transducer, String> {
    match t {
        AnyTransducer::Topdown(t) => Ok(t),
        AnyTransducer::Dtl(_) => Err(format!(
            "{path}: --analysis {analysis} is only supported for top-down transducers"
        )),
    }
}

/// Runs the analysis check, flushes observability, and reports the
/// verdict — the shared tail of every `analyze` branch.
fn finish_analyze(
    engine: &Engine,
    decider: &dyn Decider,
    schema: &Nta,
    flags: &Flags<'_>,
    label: &str,
    alpha: &Alphabet,
) -> ExitCode {
    let result = run_check(engine, decider, schema, flags, label);
    if let Err(e) = flush_obs(engine, flags.trace_out, flags.metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let verdict = match result {
        Ok(v) => v,
        Err(code) => return ExitCode::from(code),
    };
    let ok = report_verdict(label, &verdict, alpha);
    if flags.stats {
        print_stats(engine, &[&verdict]);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &[&CHECK_FLAGS[..], &ANALYSIS_FLAGS].concat()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = flags.analysis.unwrap_or(TEXT_PRESERVATION.name);
    let Some(analysis) = analysis_by_name(name) else {
        eprintln!(
            "error: unknown analysis {name:?} (expected one of: {})\n{USAGE}",
            ANALYSIS_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if analysis != TEXT_RETENTION && !flags.labels.is_empty() {
        eprintln!("error: --label only applies to --analysis text-retention\n{USAGE}");
        return ExitCode::from(2);
    }
    if analysis != OUTPUT_CONFORMANCE && flags.target.is_some() {
        eprintln!("error: --target only applies to --analysis conformance\n{USAGE}");
        return ExitCode::from(2);
    }
    let [schema_path, transducer_path] = flags.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (mut alpha, schema, mut loaded) = match load_inputs(schema_path, &[transducer_path]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let any = loaded.pop().expect("one transducer loaded");
    let engine = instrument(Engine::new(), flags.trace_out, flags.metrics);
    if analysis == TEXT_RETENTION {
        if flags.labels.is_empty() {
            eprintln!("error: --analysis text-retention needs at least one --label\n{USAGE}");
            return ExitCode::from(2);
        }
        let mut labels = Vec::new();
        for l in &flags.labels {
            match alpha.get(l) {
                Some(s) => labels.push(s),
                None => {
                    eprintln!("error: --label {l:?} is not in the schema alphabet");
                    return ExitCode::from(2);
                }
            }
        }
        let t = match topdown_for(name, transducer_path, any) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let decider = TextRetentionDecider::new(&t, labels);
        finish_analyze(&engine, &decider, &schema, &flags, transducer_path, &alpha)
    } else if analysis == OUTPUT_CONFORMANCE {
        let Some(target_path) = flags.target else {
            eprintln!("error: --analysis conformance needs --target <schema>\n{USAGE}");
            return ExitCode::from(2);
        };
        let t = match topdown_for(name, transducer_path, any) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        // The target schema is parsed into the *same* alphabet so its
        // symbols line up with the input schema's; new labels extend the
        // alphabet, and the conformance pipeline pads the narrower
        // automata up to the common width.
        let target = match read(target_path).and_then(|src| {
            parse_schema(&src, &mut alpha).map_err(|e| format!("{target_path}: {e}"))
        }) {
            Ok(dtd) => dtd.to_nta(),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let decider = OutputConformanceDecider::new(&t, &target);
        finish_analyze(&engine, &decider, &schema, &flags, transducer_path, &alpha)
    } else {
        let decider = any.decider();
        finish_analyze(
            &engine,
            decider.as_ref(),
            &schema,
            &flags,
            transducer_path,
            &alpha,
        )
    }
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &[&CHECK_FLAGS[..], &["--jobs"]].concat()) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let [schema_path, transducer_paths @ ..] = flags.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if transducer_paths.is_empty() {
        eprintln!("error: batch needs at least one transducer file\n{USAGE}");
        return ExitCode::from(2);
    }
    let (alpha, schema, transducers) = match load_inputs(schema_path, transducer_paths) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // `--jobs 0` (and the default) auto-detects the worker count from the
    // host's available parallelism.
    let jobs = match flags.jobs {
        Some(0) | None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Some(n) => n,
    };
    let engine = instrument(Engine::with_jobs(jobs), flags.trace_out, flags.metrics);
    let deciders: Vec<Box<dyn Decider + '_>> = transducers.iter().map(|t| t.decider()).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .map(|d| (d.as_ref() as &dyn Decider, &schema))
        .collect();
    // Each task fails independently: one exhausted or panicking check still
    // lets every other transducer get its verdict.
    let results = engine.check_many_governed(&tasks, &flags.check_options());
    if let Err(e) = flush_obs(&engine, flags.trace_out, flags.metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let mut all_ok = true;
    let mut exhausted = 0usize;
    let mut errored = 0usize;
    let mut preserving = 0usize;
    for (path, result) in transducer_paths.iter().zip(&results) {
        match result {
            Ok(verdict) => {
                all_ok &= report_verdict(path, verdict, &alpha);
                preserving += verdict.is_preserving() as usize;
            }
            Err(e) if e.is_resource_exhausted() => {
                println!("? {path}: {e}");
                exhausted += 1;
            }
            Err(e) => {
                println!("? {path}: {e}");
                errored += 1;
            }
        }
    }
    println!(
        "{preserving}/{} text-preserving ({} workers{})",
        results.len(),
        engine.jobs(),
        if exhausted + errored > 0 {
            format!(", {exhausted} exhausted, {errored} failed")
        } else {
            String::new()
        }
    );
    if flags.stats {
        let verdicts: Vec<&Verdict> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        print_stats(&engine, &verdicts);
        let b = engine.batch_stats();
        eprintln!(
            "  scheduler: {} stage tasks + {} checks, {} steals",
            b.stage_tasks, b.checks, b.steals
        );
    }
    if !all_ok {
        ExitCode::FAILURE
    } else if exhausted > 0 {
        ExitCode::from(3)
    } else if errored > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut cfg = FuzzConfig::default();
    let mut out_dir: Option<String> = None;
    let mut stats = false;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut it = args.iter();
    let parse_err = |flag: &str, v: &str| format!("{flag}: not a number: {v:?}");
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse::<u64>().map_err(|_| parse_err(flag, v))
        };
        match a.as_str() {
            "--seeds" => match num("--seeds") {
                Ok(n) => cfg.seeds = n,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--budget" => match num("--budget") {
                Ok(n) => cfg.budget = n as usize,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--base-seed" => match num("--base-seed") {
                Ok(n) => cfg.base_seed = n,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--fuel" => match num("--fuel") {
                Ok(n) => cfg.fuel = Some(n),
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--timeout-ms" => match num("--timeout-ms") {
                Ok(n) => cfg.timeout_ms = Some(n),
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => {
                    eprintln!("error: --trace-out needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--metrics" => metrics = true,
            "--dtl-symbolic" => cfg.dtl_symbolic = true,
            "--no-dtl-symbolic" => cfg.dtl_symbolic = false,
            "--xslt" => cfg.xslt = true,
            "--analysis" => match it.next().map(|s| s.as_str()) {
                // The text-preservation cross-checks always run; the
                // retention sweep rides along when asked for.
                Some("text-preservation") => {}
                Some("text-retention") => cfg.retention = true,
                Some(other) => {
                    eprintln!(
                        "error: unknown fuzz analysis {other:?} \
                         (expected text-preservation or text-retention)\n{USAGE}"
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --analysis needs a name\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--stats" => stats = true,
            other => {
                eprintln!("error: unknown fuzz argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let engine = instrument(Engine::new(), trace_out.as_deref(), metrics);
    let report = run_fuzz(&engine, &cfg);
    if let Err(e) = flush_obs(&engine, trace_out.as_deref(), metrics) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!(
        "fuzz: {} seeds, {} cross-checks, {} budget-exhausted, {} dtl-size-skipped, \
         {} divergence(s)",
        report.seeds_run,
        report.checks,
        report.exhausted,
        report.dtl_skipped,
        report.divergences.len()
    );
    for d in &report.divergences {
        println!("✗ seed {}: {} — {}", d.seed, d.kind, d.detail);
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for d in &report.divergences {
            let rc = RegressionCase {
                kind: d.kind,
                seed: d.seed,
                detail: d.detail.clone(),
                case: d.case.clone(),
            };
            let path = format!("{dir}/seed{}-{}.case", d.seed, d.kind);
            if let Err(e) = std::fs::write(&path, render_case(&rc)) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("  wrote {path}");
            if let Some(trace) = &d.trace_jsonl {
                let tpath = format!("{dir}/seed{}-{}.trace.jsonl", d.seed, d.kind);
                if let Err(e) = std::fs::write(&tpath, trace) {
                    eprintln!("error: cannot write {tpath}: {e}");
                    return ExitCode::from(2);
                }
                println!("  wrote {tpath}");
            }
        }
    }
    if stats {
        let c = engine.cache_stats();
        eprintln!(
            "  cache: {} hits, {} misses, {} artifacts, {} evicted",
            c.hits, c.misses, c.entries, c.evictions
        );
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `textpres compile-xslt`: translate a stylesheet against a schema and
/// print the transducer (or, with `--dtl`, the equivalent `DTL_XPath`
/// program). Untranslatable constructs are listed with their source lines
/// and exit 1; a file that is not a stylesheet at all exits 2.
fn cmd_compile_xslt(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["--dtl", "--out"]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let [schema_path, xslt_path] = flags.positional.as_slice() else {
        eprintln!("error: compile-xslt needs <schema> <stylesheet>\n{USAGE}");
        return ExitCode::from(2);
    };
    let sources = read(schema_path).and_then(|s| read(xslt_path).map(|x| (s, x)));
    let (schema_src, xslt_src) = match sources {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut alpha = Alphabet::new();
    if let Err(e) = parse_schema(&schema_src, &mut alpha) {
        eprintln!("error: {schema_path}: {e}");
        return ExitCode::from(2);
    }
    let compiled = match textpres::xslt::compile(&xslt_src, &mut alpha) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {xslt_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if !compiled.diagnostics.is_empty() {
        eprintln!(
            "error: {xslt_path}: {}",
            textpres::frontend::untranslatable(&compiled.diagnostics)
        );
        return ExitCode::FAILURE;
    }
    let output = if flags.dtl {
        match compiled.dtl {
            Some(d) => d,
            None => {
                eprintln!(
                    "error: {xslt_path}: stylesheet is not DTL_XPath-expressible \
                     (it uses element-only or text-only selections, constant output, \
                     or rules emitting more than one element)"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut s = String::new();
        for state in &compiled.states {
            s.push_str(&format!("# {state}\n"));
        }
        s.push_str(&render_transducer(&compiled.transducer, &alpha));
        s
    };
    match flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        None => print!("{output}"),
    }
    ExitCode::SUCCESS
}

fn cmd_subschema(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &BUDGET_FLAGS) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let [schema_path, transducer_path] = flags.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (alpha, schema) = match load_schema(schema_path) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let t = match load_transducer(transducer_path, &alpha) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The sub-schema and both sample searches share one budget. `None`:
    // the sub-schema is empty.
    let budget = flags.check_options().budget.start();
    let result = textpres::topdown::maximal_subschema(&t, &schema, &budget).and_then(|max| {
        let Some(inside) = max.witness(&budget)? else {
            return Ok(None);
        };
        let outside =
            textpres::treeauto::difference_nta(&schema, &max, &budget)?.witness(&budget)?;
        Ok(Some((max, inside, outside)))
    });
    let (max, inside, outside) = match result {
        Ok(Some(x)) => x,
        Ok(None) => {
            println!("the transformation is text-preserving on NO document of the schema");
            return ExitCode::FAILURE;
        }
        Err(b) => {
            let e = DecisionError::exhausted("topdown/subschema", b);
            eprintln!("error: {transducer_path}: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "maximal text-preserving sub-schema: NTA with {} states (size {})",
        max.state_count(),
        max.size()
    );
    println!("{}", max.display(&alpha));
    println!("sample document inside:  {}", inside.display(&alpha));
    match outside {
        Some(w) => println!("sample document outside: {}", w.display(&alpha)),
        None => println!("(the transformation is text-preserving on the whole schema)"),
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// serve / client
// ---------------------------------------------------------------------------

/// `textpres serve`: bind, announce, install signal handlers, run until
/// drained. Exit 0 after a clean drain (signal or shutdown frame);
/// exit 2 when the listener cannot bind or dies (the drain + flush
/// still ran).
fn cmd_serve(args: &[String]) -> ExitCode {
    use textpres::serve::{ServeConfig, Server};

    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    let next_val = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .map(|s| s.to_owned())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_num = |flag: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
    };
    while let Some(a) = it.next() {
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--addr" => cfg.addr = next_val("--addr", &mut it)?,
                "--slots" => {
                    cfg.slots = parse_num("--slots", next_val("--slots", &mut it)?)? as usize
                }
                "--queue" => {
                    cfg.queue = parse_num("--queue", next_val("--queue", &mut it)?)? as usize
                }
                "--max-connections" => {
                    cfg.max_connections =
                        parse_num("--max-connections", next_val("--max-connections", &mut it)?)?
                            as usize
                }
                "--max-frame-bytes" => {
                    cfg.max_frame_bytes =
                        parse_num("--max-frame-bytes", next_val("--max-frame-bytes", &mut it)?)?
                            as usize
                }
                "--max-fuel" => {
                    cfg.max_fuel = Some(parse_num("--max-fuel", next_val("--max-fuel", &mut it)?)?)
                }
                "--max-timeout-ms" => {
                    cfg.max_timeout = std::time::Duration::from_millis(parse_num(
                        "--max-timeout-ms",
                        next_val("--max-timeout-ms", &mut it)?,
                    )?)
                }
                "--drain-ms" => {
                    cfg.drain_deadline = std::time::Duration::from_millis(parse_num(
                        "--drain-ms",
                        next_val("--drain-ms", &mut it)?,
                    )?)
                }
                "--idle-timeout-ms" => {
                    cfg.idle_timeout = std::time::Duration::from_millis(parse_num(
                        "--idle-timeout-ms",
                        next_val("--idle-timeout-ms", &mut it)?,
                    )?)
                }
                "--trace-out" => cfg.trace_out = Some(next_val("--trace-out", &mut it)?.into()),
                "--metrics" => cfg.metrics_dump = true,
                other => return Err(format!("unknown serve flag {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve: cannot bind: {e}");
            return ExitCode::from(2);
        }
    };
    // Announced on stdout (and flushed) so wrappers can scrape the
    // resolved port when binding with port 0.
    println!("textpres serve: listening on {}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    Server::install_signal_handlers();
    match server.run() {
        Ok(r) => {
            eprintln!(
                "textpres serve: drained cleanly (served {}, shed {}, rejected {}{})",
                r.served,
                r.shed,
                r.rejected,
                if r.forced_drain {
                    ", drain deadline forced"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::from(2)
        }
    }
}

/// Maps a response frame onto the CLI exit-code contract: 0 = verdict
/// pass (or a non-verdict success like health/stats), 1 = verdict fail,
/// 3 = retryable resource condition (exhausted / overloaded /
/// shutting-down), 2 = anything else.
fn client_exit(line: &str) -> ExitCode {
    use textpres::obs::JsonValue;
    let Ok(v) = JsonValue::parse(line) else {
        return ExitCode::from(2);
    };
    if v.get("ok").and_then(|b| b.as_bool()) == Some(true) {
        return match v.get("verdict").and_then(|s| s.as_str()) {
            Some("pass") | None => ExitCode::SUCCESS,
            Some(_) => ExitCode::FAILURE,
        };
    }
    match v.get("error").and_then(|s| s.as_str()) {
        Some("exhausted") | Some("overloaded") | Some("shutting-down") => ExitCode::from(3),
        _ => ExitCode::from(2),
    }
}

/// `textpres client`: one request frame, one response line on stdout.
fn cmd_client(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use textpres::obs::quote;

    let (addr, sub, rest) = match args {
        [addr, sub, rest @ ..] => (addr.as_str(), sub.as_str(), rest),
        _ => {
            eprintln!("error: client needs <addr> and a subcommand\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let frame: String = match sub {
        "health" | "stats" | "shutdown" => {
            if !rest.is_empty() {
                eprintln!("error: client {sub} takes no further arguments\n{USAGE}");
                return ExitCode::from(2);
            }
            format!("{{\"id\":1,\"type\":{}}}", quote(sub))
        }
        "raw" => match rest {
            [line] => line.clone(),
            _ => {
                eprintln!("error: client raw needs exactly one frame argument\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        "check" => {
            let accepted = [&ANALYSIS_FLAGS[..], &BUDGET_FLAGS, &["--degrade"]].concat();
            let flags = match parse_flags(rest, &accepted) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            let [schema_path, transducer_path] = flags.positional.as_slice() else {
                eprintln!("error: client check needs <schema> <transducer>\n{USAGE}");
                return ExitCode::from(2);
            };
            let sources = read(schema_path)
                .and_then(|schema| read(transducer_path).map(|transducer| (schema, transducer)));
            let (schema_src, t_src) = match sources {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut frame = format!(
                "{{\"id\":1,\"type\":\"check\",\"schema\":{},\"transducer\":{}",
                quote(&schema_src),
                quote(&t_src)
            );
            if let Some(name) = flags.analysis {
                frame.push_str(&format!(",\"analysis\":{}", quote(name)));
            }
            if !flags.labels.is_empty() {
                frame.push_str(",\"labels\":[");
                for (i, l) in flags.labels.iter().enumerate() {
                    if i > 0 {
                        frame.push(',');
                    }
                    frame.push_str(&quote(l));
                }
                frame.push(']');
            }
            if let Some(target_path) = flags.target {
                match read(target_path) {
                    Ok(target) => frame.push_str(&format!(",\"target\":{}", quote(&target))),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            if let Some(fuel) = flags.fuel {
                frame.push_str(&format!(",\"fuel\":{fuel}"));
            }
            if let Some(ms) = flags.timeout_ms {
                frame.push_str(&format!(",\"timeout_ms\":{ms}"));
            }
            if flags.degrade {
                frame.push_str(",\"degrade\":true");
            }
            frame.push('}');
            frame
        }
        other => {
            eprintln!("error: unknown client subcommand {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let stream = std::net::TcpStream::connect(addr);
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: client: cannot connect to {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(10)));
    if let Err(e) = stream
        .write_all(frame.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
    {
        eprintln!("error: client: cannot send to {addr}: {e}");
        return ExitCode::from(2);
    }
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(0) => {
            eprintln!("error: client: {addr} closed the connection without answering");
            ExitCode::from(2)
        }
        Ok(_) => {
            let line = line.trim_end();
            println!("{line}");
            client_exit(line)
        }
        Err(e) => {
            eprintln!("error: client: cannot read from {addr}: {e}");
            ExitCode::from(2)
        }
    }
}
