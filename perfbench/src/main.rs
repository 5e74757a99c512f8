//! `tpx-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corpus_batch|topdown_deep|dtl_symbolic|serve_open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in a child process of its own; the parent reads the
//! child's peak resident memory (`VmHWM`) from outside when the child's
//! measurement window ends, before the work that follows it. `--trace 0`
//! prints every end-to-end metric, `--trace 1` every per-layer metric
//! (the traced run: an untraced and a traced pass). The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong verdict exits non-zero, naming the case,
//! without printing a result. See `perfbench/WORKLOADS.md`.

mod calib;
mod common;
mod corpus;
mod dtl;
mod serve;
mod stats;
mod topdown;
mod trace;

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, ExitCode, Stdio};

use common::{Report, RunCfg, WINDOW_END_TAG};
use textpres::obs::JsonValue;

/// The benchmark's definition, read from the repository root: the
/// metric names and units a run prints come from here.
const DEFINITION: &str = "BENCHMARK.json";

/// `(name, unit)` of every metric in `section` of [`DEFINITION`].
fn metric_table(section: &str) -> Result<Vec<(String, String)>, String> {
    let src = std::fs::read_to_string(DEFINITION)
        .map_err(|e| format!("cannot read {DEFINITION}: {e}"))?;
    let json = JsonValue::parse(&src).map_err(|e| format!("{DEFINITION}: {e}"))?;
    let items = json
        .get(section)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{DEFINITION} has no {section} list"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{DEFINITION}: a {section} entry lacks name or unit"))
        })
        .collect()
}

const WORKLOADS: [&str; 4] = ["corpus_batch", "topdown_deep", "dtl_symbolic", "serve_open"];

/// Marks the child's result line on its stdout.
const RESULT_TAG: &str = "@@perfbench-result ";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload in this process and prints the tagged result line,
/// then waits for the parent to close stdin (after it read `VmHWM`).
fn child(args: &Args) -> Result<(), String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: std::path::PathBuf::from("perfbench/out"),
    };
    let (report, owned) = match args.workload.as_str() {
        "corpus_batch" => (corpus::run(&cfg), corpus::PER_LAYER),
        "topdown_deep" => (topdown::run(&cfg), topdown::PER_LAYER),
        "dtl_symbolic" => (dtl::run(&cfg), dtl::PER_LAYER),
        "serve_open" => (serve::run(&cfg), serve::PER_LAYER),
        _ => unreachable!("validated"),
    };
    let json = result_json(&report?, args.trace, owned)?;
    println!("{RESULT_TAG}{json}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    Ok(())
}

/// Per-layer metrics every workload owns.
const PER_LAYER_ALL: [&str; 2] = ["failed_share", "obs.trace_overhead_pct"];

/// Builds the result object; `peak_rss_mb` is filled in by the parent.
/// A traced run fails when the workload did not produce a per-layer
/// metric it owns (`owned`, plus [`PER_LAYER_ALL`]). A traced run's
/// result line carries every per-layer metric of [`DEFINITION`], so the
/// ones a workload does not own are printed as 0 and listed as not
/// applicable.
fn result_json(report: &Report, trace: bool, owned: &[&str]) -> Result<String, String> {
    let mut metrics = report.metrics.clone();
    metrics.insert("failed_share", report.tally.failed_share());
    let table = metric_table(if trace { "per_layer" } else { "end_to_end" })?;
    let owned: Vec<&str> = owned.iter().chain(&PER_LAYER_ALL).copied().collect();
    if trace {
        for name in &owned {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("per-layer metric {name} is not in {DEFINITION}"));
            }
        }
    }
    let mut not_applicable = Vec::new();
    let mut parts = Vec::new();
    for (name, unit) in &table {
        let value = if trace {
            match (metrics.get(name.as_str()), owned.contains(&name.as_str())) {
                (Some(v), true) => *v,
                (None, true) => {
                    return Err(format!("workload did not produce per-layer metric {name}"))
                }
                (Some(_), false) => {
                    return Err(format!(
                        "workload sets per-layer metric {name} it does not own"
                    ))
                }
                (None, false) => {
                    not_applicable.push(name.as_str());
                    0.0
                }
            }
        } else {
            match metrics.get(name.as_str()) {
                Some(v) => *v,
                None if name == "peak_rss_mb" => continue,
                None => return Err(format!("workload did not produce end-to-end metric {name}")),
            }
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !not_applicable.is_empty() {
        println!(
            "not applicable (printed as 0): {}",
            not_applicable.join(" ")
        );
    }
    let t = &report.tally;
    println!(
        "tally: attempted {} succeeded {} errored {} shed {} dropped {} failed_share {}",
        t.attempted,
        t.succeeded,
        t.errored,
        t.shed,
        t.dropped,
        t.failed_share()
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed(),
        parts.join(", ")
    ))
}

/// Spawns the child, relays its output, reads its peak RSS from outside
/// when its measurement window ends, and prints the final result line.
fn parent(args: &Args) -> Result<(), String> {
    // Fail before the run, not after it, when the definition is unreadable.
    metric_table("end_to_end")?;
    metric_table("per_layer")?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--child")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the workload process: {e}"))?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("piped");
    let mut result = None;
    let mut peak_kib = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the workload's output: {e}"))?;
        if line == WINDOW_END_TAG {
            peak_kib = vm_hwm_kib(pid);
            let stdin = child.stdin.as_mut().ok_or("window ended twice")?;
            stdin
                .write_all(b"\n")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("acknowledging the window end: {e}"))?;
        } else if let Some(json) = line.strip_prefix(RESULT_TAG) {
            result = Some(json.to_owned());
            drop(child.stdin.take());
        } else {
            println!("{line}");
        }
    }
    drop(child.stdin.take());
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the workload: {e}"))?;
    if !status.success() {
        return Err(format!("workload {} failed ({status})", args.workload));
    }
    let json = result.ok_or("the workload printed no result")?;
    let json = if args.trace {
        json
    } else {
        let kib = peak_kib.ok_or("cannot read the workload's VmHWM at the window end")?;
        let mb = kib as f64 / 1024.0;
        println!("peak_rss_mb {mb:.1} (VmHWM of pid {pid})");
        let insert = format!(", \"peak_rss_mb\": {{\"value\": {mb}, \"unit\": \"MiB\"}}}}}}");
        let trimmed = json.strip_suffix("}}").ok_or("malformed result line")?;
        format!("{trimmed}{insert}")
    };
    println!("{json}");
    Ok(())
}

/// `VmHWM` (peak resident set, KiB) of a live process.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
