//! Batch checking with the decision engine: fan a whole suite of
//! transducers over several schemas on a worker pool, sharing one artifact
//! cache, and print a stats report.
//!
//! This is the "CI for transformations" workflow: a pipeline owner keeps a
//! library of transformations and a handful of schema versions, and wants
//! every (transformation, schema) pair re-verified on each change — fast,
//! because the per-schema and per-transducer compilation artifacts are
//! shared across the whole batch.
//!
//! Run with: `cargo run --example batch_check`

use std::time::Instant;

use textpres::engine::{CheckOptions, Decider, Engine, Outcome, Task, TopdownDecider};
use tpx_workload::{chain_schema, comb_schema, recipe_schema, transducers};

fn main() {
    let unlimited = CheckOptions::unlimited();
    // Three schema families from the workload generators...
    let (chain_alpha, chain) = chain_schema(4);
    let (comb_alpha, comb) = comb_schema(4);
    let (recipe_alpha, recipe) = recipe_schema();
    // ...and per-alphabet transducer suites (identity, selector, copier,
    // swapper — the labels are their behavior over a *universal* schema;
    // over these restricted schemas the engine tells us what's really true).
    let suites = [
        ("chain", &chain_alpha, &chain),
        ("comb", &comb_alpha, &comb),
        ("recipe", &recipe_alpha, &recipe),
    ];

    let mut labels: Vec<String> = Vec::new();
    let mut owned: Vec<(transducers::TransducerKind, tpx_topdown::Transducer)> = Vec::new();
    let mut schema_of: Vec<&tpx_treeauto::Nta> = Vec::new();
    for (name, alpha, schema) in suites {
        for (kind, t) in transducers::suite(alpha, 3) {
            labels.push(format!("{name}/{kind:?}"));
            owned.push((kind, t));
            schema_of.push(schema);
        }
    }
    let deciders: Vec<TopdownDecider> = owned.iter().map(|(_, t)| TopdownDecider::new(t)).collect();
    let tasks: Vec<Task> = deciders
        .iter()
        .zip(&schema_of)
        .map(|(d, schema)| (d as &dyn Decider, *schema))
        .collect();

    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = Engine::with_jobs(jobs);
    let start = Instant::now();
    let verdicts = engine
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    let wall = start.elapsed();

    println!(
        "{:<24} {:<14} {:>9} {:>6}",
        "task", "outcome", "artifacts", "hits"
    );
    for (label, v) in labels.iter().zip(&verdicts) {
        let outcome = match &v.outcome {
            Outcome::Preserving => "preserving".to_owned(),
            Outcome::Copying { path } => format!("copying({})", path.len()),
            Outcome::Rearranging { .. } => "rearranging".to_owned(),
            Outcome::NotPreserving { .. } => "not-preserving".to_owned(),
            Outcome::DeletesText { path } => format!("deletes-text({})", path.len()),
            Outcome::NonConforming { .. } => "non-conforming".to_owned(),
        };
        let artifacts: usize = v.stats.stages.iter().filter_map(|s| s.artifact_size).sum();
        println!(
            "{:<24} {:<14} {:>9} {:>6}",
            label,
            outcome,
            artifacts,
            v.stats.cache_hits()
        );
    }

    let stats = engine.cache_stats();
    println!(
        "\n{} checks on {jobs} workers in {wall:.2?}: cache {} hits / {} misses ({} artifacts)",
        verdicts.len(),
        stats.hits,
        stats.misses,
        stats.entries
    );
    // Every distinct schema and transducer was compiled exactly once,
    // however many tasks shared it.
    assert_eq!(stats.misses as usize, stats.entries);

    // The parallel batch agrees with a fresh sequential engine.
    let sequential = Engine::new()
        .check_many_governed(&tasks, &unlimited)
        .into_iter()
        .map(Result::unwrap)
        .collect::<Vec<_>>();
    for ((label, par), seq) in labels.iter().zip(&verdicts).zip(&sequential) {
        assert_eq!(par.is_preserving(), seq.is_preserving(), "{label}");
    }
    println!("parallel verdicts match a sequential run");
}
