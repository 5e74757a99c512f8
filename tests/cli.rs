//! End-to-end tests of the `textpres` CLI: subcommands, flags, exit codes.
//!
//! Exit-code contract: 0 = text-preserving, 1 = not text-preserving,
//! 2 = usage or I/O error, 3 = resource budget exhausted.

use std::path::PathBuf;
use std::process::{Command, Output};

const SCHEMA: &str = "
start doc
elem doc  = (keep | drop)*
elem keep = text
elem drop = text
";

const GOOD: &str = "
initial q0
rule q0 doc -> doc(q)
rule q  keep -> keep(qt)
text qt
";

const BAD: &str = "
initial q0
rule q0 doc -> doc(q q)
rule q keep -> keep(qt)
text qt
";

/// The universal schema over {a, b}: every tree is valid.
const UNIVERSAL: &str = "
start a
start b
elem a = (a | b | text)*
elem b = (a | b | text)*
";

/// The E5 `k = 2` DTL_XPath instance (filter chain of length 2 in the
/// call pattern): EXPTIME-hard territory — the symbolic decision runs for
/// many minutes, so only budgeted runs are testable.
const DTL_K2: &str = "
dtl
initial q0
rule q0 : a -> a(q0 / child[a]/child[a]/child)
rule q0 : b -> b(q0 / child)
text q0
";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("textpres-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("schema.txt"), SCHEMA).unwrap();
        std::fs::write(dir.join("good.txt"), GOOD).unwrap();
        std::fs::write(dir.join("bad.txt"), BAD).unwrap();
        std::fs::write(dir.join("universal.txt"), UNIVERSAL).unwrap();
        std::fs::write(dir.join("k2.dtl"), DTL_K2).unwrap();
        Fixture { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_textpres"))
            .args(args)
            .output()
            .expect("spawn textpres")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn version_flag() {
    let f = Fixture::new("version");
    let out = f.run(&["--version"]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("textpres "), "{stdout}");
}

#[test]
fn unknown_command_prints_help_and_exits_2() {
    let f = Fixture::new("unknown");
    let out = f.run(&["frobnicate"]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn no_args_prints_help_and_exits_2() {
    let f = Fixture::new("noargs");
    let out = f.run(&[]);
    assert_eq!(code(&out), 2);
}

#[test]
fn check_preserving_exits_0() {
    let f = Fixture::new("good");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("good.txt")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("text-preserving"));
}

#[test]
fn check_violating_exits_1_with_witness_path() {
    let f = Fixture::new("bad");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("bad.txt")]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("COPIES"), "{stdout}");
    assert!(stdout.contains("doc/keep/text()"), "{stdout}");
}

#[test]
fn check_missing_file_exits_2() {
    let f = Fixture::new("missing");
    let out = f.run(&["check", &f.path("schema.txt"), &f.path("nosuch.txt")]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn check_stats_flag_reports_stages() {
    let f = Fixture::new("stats");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--stats",
    ]);
    assert_eq!(code(&out), 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("topdown/schema"), "{stderr}");
    assert!(stderr.contains("cache:"), "{stderr}");
}

#[test]
fn batch_mixed_exits_1_and_reports_each() {
    let f = Fixture::new("batch");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("bad.txt"),
        "--jobs",
        "2",
        "--stats",
    ]);
    assert_eq!(code(&out), 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1/2 text-preserving"), "{stdout}");
    assert!(stdout.contains("(2 workers"), "{stdout}");
    // The schema artifact is shared: compiled once, hit once.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[cache hit]"), "{stderr}");
    // --stats surfaces the scheduler's stage-task/steal counters.
    assert!(stderr.contains("scheduler:"), "{stderr}");
    assert!(stderr.contains("stage tasks"), "{stderr}");
}

#[test]
fn batch_jobs_zero_auto_detects_workers() {
    let f = Fixture::new("batch-auto");
    let auto = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--jobs",
        "0",
    ]);
    assert_eq!(code(&auto), 0, "{}", String::from_utf8_lossy(&auto.stderr));
    let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stdout = String::from_utf8_lossy(&auto.stdout);
    assert!(
        stdout.contains(&format!("({expected} workers")),
        "--jobs 0 should auto-detect {expected} workers: {stdout}"
    );
    // Omitting --jobs entirely gives the same auto-detected default.
    let default = f.run(&["batch", &f.path("schema.txt"), &f.path("good.txt")]);
    assert_eq!(code(&default), 0);
    assert!(String::from_utf8_lossy(&default.stdout).contains(&format!("({expected} workers")));
}

#[test]
fn batch_all_preserving_exits_0() {
    let f = Fixture::new("batchok");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("good.txt"),
    ]);
    assert_eq!(code(&out), 0);
}

#[test]
fn unknown_flag_exits_2() {
    let f = Fixture::new("flag");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--bogus",
    ]);
    assert_eq!(code(&out), 2);
}

#[test]
fn check_fuel_exhaustion_exits_3() {
    // The EXPTIME E5 instance under one unit of fuel must fail fast with
    // the documented resource-exhausted exit code instead of running for
    // minutes.
    let f = Fixture::new("fuel3");
    let start = std::time::Instant::now();
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(1),
        "exhaustion must fail fast, took {:?}",
        start.elapsed()
    );
}

#[test]
fn check_fuel_exhaustion_with_degrade_reports_bounded_verdict() {
    let f = Fixture::new("degrade");
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
        "--degrade",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEGRADED"), "{stdout}");
}

#[test]
fn check_generous_fuel_reports_per_stage_fuel() {
    let f = Fixture::new("fuelok");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--fuel",
        "1000000",
        "--stats",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fuel "), "{stderr}");
}

#[test]
fn batch_with_exhausted_task_exits_3_but_reports_the_rest() {
    let f = Fixture::new("batch3");
    let out = f.run(&[
        "batch",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1",
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 exhausted"), "{stdout}");
}

#[test]
fn bad_dtl_file_exits_2_with_line_number() {
    let f = Fixture::new("baddtl");
    std::fs::write(
        f.dir.join("broken.dtl"),
        "dtl\ninitial q0\nrule q0 : a -> a(q0 / child[[)\n",
    )
    .unwrap();
    let out = f.run(&["check", &f.path("universal.txt"), &f.path("broken.dtl")]);
    assert_eq!(code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
}

#[test]
fn subschema_runs() {
    let f = Fixture::new("subschema");
    let out = f.run(&["subschema", &f.path("schema.txt"), &f.path("bad.txt")]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("maximal text-preserving sub-schema"));
}

#[test]
fn subschema_honors_its_budget_flags() {
    let f = Fixture::new("subschema-budget");
    let (schema, bad) = (f.path("schema.txt"), f.path("bad.txt"));
    let out = f.run(&["subschema", &schema, &bad, "--fuel", "1"]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    let out = f.run(&["subschema", &schema, &bad, "--fuel", "100000000"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    // Flags subschema does not use are rejected, not silently ignored.
    for flag in ["--jobs", "--degrade", "--metrics"] {
        let mut args = vec!["subschema", &schema, &bad, flag];
        if flag == "--jobs" {
            args.push("7");
        }
        assert_eq!(code(&f.run(&args)), 2, "subschema {flag}");
    }
}

#[test]
fn flags_of_other_commands_are_rejected() {
    let f = Fixture::new("foreign-flags");
    let (schema, good) = (f.path("schema.txt"), f.path("good.txt"));
    let out = f.run(&["check", &schema, &good, "--label", "doc", "--target", "x"]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    let out = f.run(&["batch", &schema, &good, "--dtl"]);
    assert_eq!(code(&out), 2);
}

#[test]
fn check_trace_out_writes_jsonl_and_metrics_prints_table() {
    let f = Fixture::new("trace");
    let trace = f.path("trace.jsonl");
    let out = f.run(&[
        "check",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        "--trace-out",
        &trace,
        "--metrics",
    ]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));

    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(!lines.is_empty(), "trace is empty");
    for line in &lines {
        assert!(
            line.starts_with("{\"ev\":\"") && line.ends_with('}'),
            "not a JSONL event: {line}"
        );
    }
    // One enter and one exit per span, and the engine-level stages of a
    // top-down check are all present by name.
    let enters = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"enter\""))
        .count();
    let exits = lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"exit\""))
        .count();
    assert_eq!(enters, exits);
    for stage in ["topdown/schema", "topdown/transducer", "topdown/decide"] {
        assert!(
            jsonl.contains(&format!("\"span\":\"{stage}\"")),
            "stage {stage} missing from trace"
        );
    }

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("counters:"), "no metrics table:\n{stderr}");
    assert!(stderr.contains("engine/checks"), "{stderr}");
}

#[test]
fn trace_is_flushed_on_budget_exhaustion() {
    let f = Fixture::new("trace-exhaust");
    let trace = f.path("exhausted.jsonl");
    let out = f.run(&[
        "check",
        &f.path("universal.txt"),
        &f.path("k2.dtl"),
        "--fuel",
        "1000",
        "--trace-out",
        &trace,
    ]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
    // The trace survives the failed run: that is the debugging contract.
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written on exit 3");
    assert!(jsonl.contains("\"span\":\"dtl/"), "no dtl span:\n{jsonl}");
}

#[test]
fn batch_trace_out_covers_all_tasks() {
    let f = Fixture::new("batch-trace");
    let trace = f.path("batch.jsonl");
    let out = f.run(&[
        "batch",
        &f.path("schema.txt"),
        &f.path("good.txt"),
        &f.path("bad.txt"),
        "--jobs",
        "2",
        "--trace-out",
        &trace,
        "--metrics",
    ]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&trace).expect("trace file written");
    // Two tasks, one shared schema artifact: the decide stage ran twice.
    let decides = jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"exit\"") && l.contains("\"span\":\"topdown/decide\""))
        .count();
    assert_eq!(decides, 2, "{jsonl}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("engine/checks"));
}
