//! Pieces every workload shares: run configuration, the result a workload
//! hands back, seeded shuffling, chain-schema sources and the top-down
//! verdict oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use textpres::engine::{Outcome, Verdict};
use textpres::prelude::{Nta, Transducer, Tree};
use textpres::topdown::semantic;
use textpres::trees::rng::SplitMix64;

use crate::calib::Calib;
use crate::stats::{low_decile, percentile, tail_percentile, Tally};
use crate::trace::Recorder;

/// How one run is configured (from the command line).
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}

impl RunCfg {
    /// The measurement window of one pass: the whole run when timed, half
    /// of it for each of the untraced and traced passes of a traced run.
    pub fn pass_seconds(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// The span file of this run.
    pub fn span_path(&self, workload: &str) -> std::path::PathBuf {
        self.out_dir
            .join(format!("{workload}-seed{}.spans.jsonl", self.seed))
    }
}

/// What a workload reports: named metric values plus the failure tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value (units live in the metric tables of `main`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every attempted operation's fate.
    pub tally: Tally,
}

impl Report {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Marks the end of a timed run's measurement window on stdout.
pub const WINDOW_END_TAG: &str = "@@perfbench-window-end";

/// Ends a timed run's measurement window: prints [`WINDOW_END_TAG`] and
/// waits for the parent's acknowledgement line on stdin, which it sends
/// after reading this process's peak resident memory. Work after the
/// window (the tracing-overhead probe) so stays out of `peak_rss_mb`.
pub fn end_window() -> Result<(), String> {
    use std::io::{BufRead, Write};
    println!("{WINDOW_END_TAG}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut ack = String::new();
    match std::io::stdin().lock().read_line(&mut ack) {
        Ok(n) if n > 0 => Ok(()),
        Ok(_) => Err("the parent closed stdin before acknowledging the window end".into()),
        Err(e) => Err(format!("waiting for the parent: {e}")),
    }
}

/// Times `setup` `times` times and returns the median (calibrated)
/// seconds plus the last set-up's value.
pub fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    let mut calib = Calib::new();
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup()?;
        secs.push(t0.elapsed().as_secs_f64() * calib.next_factor());
        last = Some(value);
    }
    let median = crate::stats::median(&secs).unwrap_or(0.0);
    Ok((median, last.expect("times >= 1")))
}

/// Whether a closed loop of whole rounds starts another round: always the
/// first two (every case needs a repeat), later ones only if the run would
/// end closer to `window` with it than without it (estimating a round by
/// the mean so far).
pub fn fits_another_round(elapsed: Duration, rounds: u32, window: Duration) -> bool {
    if rounds < 2 {
        return true;
    }
    let per_round = elapsed / rounds;
    elapsed + per_round / 2 < window
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Per-case latency samples (ms, calibrated — see [`crate::calib`]).
///
/// A case is work that is the same on every repeat (a check of one
/// instance; in `serve_open`, one request path). A case's time is the low
/// decile of its repeats ([`low_decile`]), which drops the short stalls
/// calibration between units cannot see. The per-check distribution gives
/// every check its case's time.
#[derive(Debug, Default)]
pub struct Repeats {
    samples: Vec<Vec<f64>>,
}

impl Repeats {
    /// Records one sample of case `case`, ms.
    pub fn push(&mut self, case: usize, ms: f64) {
        if self.samples.len() <= case {
            self.samples.resize_with(case + 1, Vec::new);
        }
        self.samples[case].push(ms);
    }

    /// Checks recorded.
    pub fn checks(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Sum of the raw samples, seconds.
    pub fn raw_total_s(&self) -> f64 {
        self.samples.iter().flatten().sum::<f64>() / 1e3
    }

    /// Every check at its case's time, ascending.
    fn per_check(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| !s.is_empty())
            .flat_map(|s| std::iter::repeat_n(low_decile(s), s.len()))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Checks per second at the cases' times.
    pub fn checks_per_s(&self) -> f64 {
        let v = self.per_check();
        v.len() as f64 / (v.iter().sum::<f64>() / 1e3)
    }

    /// (p50, p90) in ms. Fails unless p90 has ten samples beyond it.
    pub fn p50_p90(&self, what: &str) -> Result<(f64, f64), String> {
        let v = self.per_check();
        if tail_percentile(v.len()).is_none_or(|p| p < 90.0) {
            return Err(format!(
                "{what}: only {} checks, too few to report p90",
                v.len()
            ));
        }
        let at = |p| percentile(&v, p).expect("checked non-empty above");
        Ok((at(50.0), at(90.0)))
    }
}

/// Per-stage sums over the verdicts of a pass (from their `StageReport`s).
#[derive(Debug, Default)]
pub struct StageSums {
    /// Stage name → (total ms, total fuel, total artifact size, reports
    /// that carried a size).
    pub stages: BTreeMap<&'static str, (f64, u64, u64, u64)>,
    /// Checks folded in.
    pub checks: u64,
}

impl StageSums {
    /// Folds in one verdict's stages.
    pub fn add(&mut self, v: &Verdict) {
        self.checks += 1;
        for s in &v.stats.stages {
            let e = self.stages.entry(s.stage).or_default();
            e.0 += s.duration.as_secs_f64() * 1e3;
            e.1 += s.fuel.unwrap_or(0);
            if let Some(size) = s.artifact_size {
                e.2 += size as u64;
                e.3 += 1;
            }
        }
    }

    /// Mean ms of `stage` per check.
    pub fn ms_per_check(&self, stage: &str) -> f64 {
        self.per_check(stage, |e| e.0)
    }

    /// Mean fuel of every stage under `prefix` per check.
    pub fn fuel_per_check(&self, prefix: &str) -> f64 {
        let total: u64 = self
            .stages
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, e)| e.1)
            .sum();
        if self.checks == 0 {
            0.0
        } else {
            total as f64 / self.checks as f64
        }
    }

    /// Mean artifact size of `stage` over the reports that carried one.
    pub fn mean_size(&self, stage: &str) -> f64 {
        match self.stages.get(stage) {
            Some(e) if e.3 > 0 => e.2 as f64 / e.3 as f64,
            _ => 0.0,
        }
    }

    fn per_check(&self, stage: &str, f: impl Fn(&(f64, u64, u64, u64)) -> f64) -> f64 {
        match self.stages.get(stage) {
            Some(e) if self.checks > 0 => f(e) / self.checks as f64,
            _ => 0.0,
        }
    }
}

/// `(starts, decls)` of `chain_schema(n)` as DTD text:
/// `l0 → l1 → … → l{n-1} → text`.
pub fn chain_schema_src(n: usize) -> String {
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
    textpres::format::render_schema(&["l0".to_owned()], &decls)
}

/// The only tree of `chain_schema(n)` (up to its text value).
pub fn chain_tree(schema: &Nta, n: usize) -> Result<Tree, String> {
    let trees = textpres::dtl::bounded::enumerate_schema_trees(schema, n + 1, 2);
    match trees.as_slice() {
        [t] => Ok(t.clone()),
        _ => Err(format!(
            "chain-{n} schema should have exactly one tree, found {}",
            trees.len()
        )),
    }
}

/// Known verdict of a top-down transducer over a single-tree schema: the
/// semantic oracle (Definition 2.2) on that tree decides it exactly.
pub fn chain_expectation(t: &Transducer, tree: &Tree) -> bool {
    let unique = Tree::from_hedge(textpres::trees::make_value_unique(tree.as_hedge()))
        .expect("uniquifying keeps the shape");
    semantic::text_preserving_on(t, &unique)
}

/// Re-confirms a not-preserving top-down verdict. A rearranging witness
/// must be a schema tree on which the per-tree semantic oracle sees the
/// swap. A copying witness path must be a schema text path; when one of
/// `trees` carries it, the semantic oracle must see the copy on that
/// tree, otherwise the transducer must have a run along the path.
pub fn confirm_topdown_witness(
    t: &Transducer,
    schema: &Nta,
    outcome: &Outcome,
    trees: &[Tree],
) -> Result<(), String> {
    match outcome {
        Outcome::Preserving => Ok(()),
        Outcome::Copying { path } => {
            if !textpres::topdown::path_automaton_nta(schema).accepts(path) {
                return Err("copying witness path is not a schema path".into());
            }
            let carrier = trees.iter().find(|tree| {
                textpres::topdown::paths::text_paths(tree)
                    .iter()
                    .any(|p| p == path)
            });
            match carrier {
                Some(tree) if !semantic::copying_on(t, tree) => {
                    Err("semantic oracle: not copying on the witness tree".into())
                }
                Some(_) => Ok(()),
                None if !textpres::topdown::path_automaton_transducer(t).accepts(path) => {
                    Err("transducer has no run on the copying witness path".into())
                }
                None => Ok(()),
            }
        }
        Outcome::Rearranging { witness } => {
            if !schema.accepts(witness) {
                Err("rearranging witness outside the schema".into())
            } else if !semantic::rearranging_on(t, witness) {
                Err("semantic oracle: witness is not rearranging".into())
            } else {
                Ok(())
            }
        }
        other => Err(format!(
            "text-preservation check gave a foreign outcome {other:?}"
        )),
    }
}

/// Renders an alphabet-dependent fingerprint of an outcome, so repeated
/// verdicts of one case can be compared with the first (verified) one.
pub fn outcome_key(o: &Outcome) -> String {
    format!("{o:?}")
}

/// The seeded RNG of a workload.
pub fn rng(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Sets the per-check self times of the top-down sub-stage spans and the
/// share of all self time under `topdown.transducer`.
pub fn set_topdown_span_metrics(report: &mut Report, rec: &Recorder, checks: f64) {
    for (metric, layer) in [
        (
            "topdown.transducer.copying_ms",
            "topdown.transducer.copying",
        ),
        (
            "topdown.transducer.rearranging_ms",
            "topdown.transducer.rearranging",
        ),
        ("topdown.decide.copying_ms", "topdown.decide.copying"),
        (
            "topdown.decide.rearranging_ms",
            "topdown.decide.rearranging",
        ),
    ] {
        report.set(metric, rec.self_us(layer) / 1e3 / checks.max(1.0));
    }
    report.set(
        "topdown.transducer.self_share",
        rec.share_under("topdown.transducer"),
    );
}

/// Tracing overhead, %: how much longer the traced work took.
pub fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    (traced_s / untraced_s - 1.0) * 100.0
}

/// Prints the overhead a timed run measures after its window: one unit of
/// work untraced, then traced.
pub fn print_overhead(untraced_s: f64, traced_s: f64, unit: &str) {
    println!(
        "obs.trace_overhead_pct {:+.2} ({unit}, untraced {:.3} s vs traced {:.3} s)",
        overhead_pct(untraced_s, traced_s),
        untraced_s,
        traced_s
    );
}

/// Prints a traced pass's self-time table and writes its spans.
pub fn finish_trace(cfg: &RunCfg, workload: &str, rec: &Recorder) -> Result<(), String> {
    print!("{}", rec.table());
    let path = cfg.span_path(workload);
    rec.write(&path)
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
