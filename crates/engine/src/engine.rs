//! The [`Engine`]: a shared artifact cache plus one single and one batch
//! check entry point, both governed, with opt-in tracing and metrics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::budget::{CheckOptions, DecisionError};
use crate::cache::{panic_message, ArtifactCache, CacheStats};
use crate::decider::Decider;
use crate::pipeline::{self, CachedStage, StageKey};
use crate::scheduler::{execute, StageGraph};
use crate::verdict::{StageReport, Verdict};
use tpx_obs::{Metrics, Tracer};
use tpx_treeauto::Nta;

/// One unit of batch work: a decider checked against a schema.
pub type Task<'a> = (&'a dyn Decider, &'a Nta);

/// Cumulative scheduler-level counters across every batch an [`Engine`]
/// has run (see [`Engine::batch_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed.
    pub batches: u64,
    /// Distinct artifact-stage tasks scheduled ahead of checks
    /// (after batch-wide deduplication).
    pub stage_tasks: u64,
    /// Check (finalize) tasks executed.
    pub checks: u64,
    /// Work-stealing events across all batches (0 on single-worker runs).
    pub steals: u64,
}

/// The decision engine: owns the [`ArtifactCache`] shared by every check it
/// runs, a worker count for [`Engine::check_many_governed`], and the
/// (disabled by default) [`Tracer`] and [`Metrics`] every check reports to.
pub struct Engine {
    cache: ArtifactCache,
    jobs: usize,
    tracer: Arc<Tracer>,
    metrics: Arc<Metrics>,
    batch: Mutex<BatchStats>,
}

impl Default for Engine {
    /// Same as [`Engine::new`]. (A derived `Default` would store
    /// `jobs: 0` where `new()` stores 1; the public [`Engine::jobs`]
    /// accessor clamped that, but the two constructors must agree.)
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A sequential engine (`jobs = 1`) with an empty cache, tracing and
    /// metrics disabled.
    pub fn new() -> Self {
        Engine {
            cache: ArtifactCache::new(),
            jobs: 1,
            tracer: Arc::new(Tracer::disabled()),
            metrics: Arc::new(Metrics::disabled()),
            batch: Mutex::new(BatchStats::default()),
        }
    }

    /// An engine running batches on up to `jobs` worker threads (0 is
    /// clamped to 1; batches additionally clamp to the task count and the
    /// host parallelism, since oversubscribing a saturated machine only
    /// adds scheduling overhead).
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            ..Engine::new()
        }
    }

    /// Replaces the engine's tracer. Pass `Arc::new(Tracer::enabled())` to
    /// record one span per pipeline stage of every check this engine runs;
    /// keep a clone of the `Arc` (or use [`Engine::tracer`]) to read the
    /// events back.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the engine's metrics registry. Pass
    /// `Arc::new(Metrics::enabled())` to aggregate counters and histograms
    /// across every check this engine runs (batch workers record locally
    /// and merge on completion).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The engine's tracer (disabled unless set via [`Engine::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The engine's metrics registry (disabled unless set via
    /// [`Engine::with_metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs.max(1)
    }

    /// The shared artifact cache (e.g. for [`ArtifactCache::stats`]).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cumulative scheduler counters over every batch this engine has run:
    /// how many batches, how many deduplicated artifact-stage tasks were
    /// scheduled, how many checks, and how many times a worker stole work.
    pub fn batch_stats(&self) -> BatchStats {
        *self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one governed check through the shared cache: the task runs
    /// under the fuel/deadline budget of `options` and inside
    /// `catch_unwind`, so budget exhaustion *and* panics come back as a
    /// structured [`DecisionError`] instead of unwinding. Spans land on
    /// the engine's tracer, observations on its metrics registry.
    ///
    /// Unwind safety at the cache boundary: the cache mutates state only
    /// through atomics, poison-recovering locks whose critical sections
    /// contain no user code, and `OnceLock` slots that stay uninitialized
    /// when a builder unwinds — so the shared cache is observably
    /// consistent (and fully serviceable) after a caught panic.
    ///
    /// Callers without limits pass [`CheckOptions::unlimited`], under which
    /// an error can only be a caught panic or an internal-invariant
    /// failure.
    pub fn check_governed(
        &self,
        decider: &dyn Decider,
        schema: &Nta,
        options: &CheckOptions,
    ) -> Result<Verdict, DecisionError> {
        self.check_observed(decider, schema, options, &self.metrics)
    }

    /// [`Engine::check_governed`] recording onto an explicit metrics
    /// registry (batch workers pass a thread-local one).
    fn check_observed(
        &self,
        decider: &dyn Decider,
        schema: &Nta,
        options: &CheckOptions,
        metrics: &Metrics,
    ) -> Result<Verdict, DecisionError> {
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pipeline::check(decider, schema, &self.cache, options, &self.tracer)
        }))
        .unwrap_or_else(|payload| {
            Err(DecisionError::Panicked {
                stage: "engine/task",
                message: panic_message(payload.as_ref()),
            })
        });
        record_check_metrics(metrics, &result, started.elapsed());
        result
    }

    /// Runs every task, returning verdicts in task order.
    ///
    /// Batches run as a *stage graph*: the distinct artifact stages the
    /// tasks declare (via [`Decider::stages`]) are deduplicated
    /// batch-wide and scheduled as their own prefetch tasks, and each
    /// check becomes a finalize task that starts once its stages are
    /// built. Two checks sharing a schema therefore contend on exactly
    /// one compilation — which runs once, as one task — instead of racing
    /// whole pipelines. The graph is drained by the work-stealing
    /// executor in [`crate::scheduler`]; with `jobs = 1` it runs inline
    /// in deterministic FIFO order, so verdicts *and* aggregated metrics
    /// are identical whatever the worker count.
    ///
    /// Each task gets a fresh budget from `options` and runs inside
    /// `catch_unwind`, so one exhausted or panicking task cannot take down
    /// the batch — the remaining tasks still produce verdicts, in input
    /// order, and the shared cache stays serviceable (see
    /// [`Engine::check_governed`] for the unwind-safety argument). Stage
    /// prefetches are budgeted and isolated the same way, and their
    /// failures are non-fatal: the owning check retries the build under
    /// its own budget.
    ///
    /// Observability: spans from all workers land on the engine's shared
    /// tracer (interleaved across tasks, but every span still closes); each
    /// worker records metrics into a private registry that is merged into
    /// the engine's after the batch, so batch counters never contend on
    /// one lock mid-run. Scheduler-level counts land in
    /// [`Engine::batch_stats`] and, when metrics are enabled, as
    /// `engine/batch/*` metrics (steal counts as a histogram, since they
    /// are scheduling-dependent).
    pub fn check_many_governed(
        &self,
        tasks: &[Task<'_>],
        options: &CheckOptions,
    ) -> Vec<Result<Verdict, DecisionError>> {
        // Clamp to the host parallelism: extra workers on a saturated
        // machine cannot overlap anything, they only add context-switch
        // and steal-scan cost per node (measured ~2x wall time for an
        // 8-worker batch on a 1-CPU container). The requested `jobs` is
        // still an upper bound — a 1-task batch stays inline, etc.
        let host = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        let jobs = self.jobs().min(tasks.len().max(1)).min(host);

        // Deduplicate the declared artifact stages batch-wide. Stage node
        // `i` prefetches `stage_nodes[i]`, the description of the first
        // task that declared it; every declaring task's finalize node
        // depends on it.
        let mut stage_index: HashMap<StageKey, usize> = HashMap::new();
        let mut stage_nodes: Vec<Box<dyn CachedStage + '_>> = Vec::new();
        let mut task_deps: Vec<Vec<usize>> = Vec::with_capacity(tasks.len());
        for (decider, schema) in tasks {
            let mut deps = Vec::new();
            for stage in decider.stages(schema) {
                let node = *stage_index.entry(stage.key()).or_insert_with(|| {
                    stage_nodes.push(stage);
                    stage_nodes.len() - 1
                });
                if !deps.contains(&node) {
                    deps.push(node);
                }
            }
            task_deps.push(deps);
        }
        let n_stages = stage_nodes.len();

        // Bipartite graph: nodes [0, n_stages) prefetch artifacts, nodes
        // [n_stages, n_stages + tasks) finalize checks.
        let mut graph = StageGraph::new(n_stages + tasks.len());
        for (t, deps) in task_deps.iter().enumerate() {
            for &s in deps {
                graph.add_edge(s, n_stages + t);
            }
        }

        let slots: Vec<Mutex<Option<Result<Verdict, DecisionError>>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        let worker_metrics: Vec<Metrics> = (0..jobs)
            .map(|_| {
                if self.metrics.is_enabled() {
                    Metrics::enabled()
                } else {
                    Metrics::disabled()
                }
            })
            .collect();

        let stats = execute(&graph, jobs, |node, worker| {
            let metrics = &worker_metrics[worker];
            if node < n_stages {
                // Panic-isolated like checks; a lost prefetch only costs
                // the overlap (the finalize rebuilds under its budget).
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pipeline::prefetch(&*stage_nodes[node], &self.cache, options, &self.tracer)
                }));
                match outcome {
                    Ok(Ok(stats)) => {
                        for s in &stats.stages {
                            record_stage_metrics(metrics, s);
                        }
                    }
                    Ok(Err(_)) | Err(_) => metrics.incr("engine/prefetch/failed"),
                }
            } else {
                let t = node - n_stages;
                let (decider, schema) = tasks[t];
                let result = self.check_observed(decider, schema, options, metrics);
                *slots[t].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            }
        });

        for m in &worker_metrics {
            self.metrics.merge_from(m);
        }
        // Batch-level counters are scheduling-independent (deterministic
        // across worker counts); steals are not, so they go in a histogram
        // — histogram values are explicitly timing/scheduling-dependent.
        self.metrics.incr("engine/batches");
        self.metrics
            .add("engine/batch/stage_tasks", n_stages as u64);
        self.metrics.add("engine/batch/checks", tasks.len() as u64);
        self.metrics.observe("engine/batch/steals", stats.steals);
        {
            let mut b = self.batch.lock().unwrap_or_else(PoisonError::into_inner);
            b.batches += 1;
            b.stage_tasks += n_stages as u64;
            b.checks += tasks.len() as u64;
            b.steals += stats.steals;
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        Err(DecisionError::Internal(
                            "task was never completed by a worker".into(),
                        ))
                    })
            })
            .collect()
    }
}

/// Folds one check result into a metrics registry: verdict/error counters,
/// check duration, and per-stage hit/miss counters plus duration, fuel and
/// artifact-size histograms. Free when the registry is disabled.
fn record_check_metrics(
    metrics: &Metrics,
    result: &Result<Verdict, DecisionError>,
    elapsed: Duration,
) {
    if !metrics.is_enabled() {
        return;
    }
    metrics.incr("engine/checks");
    metrics.observe("engine/check_us", elapsed.as_micros() as u64);
    match result {
        Ok(v) => {
            metrics.incr(&format!("engine/analysis/{}", v.analysis.name));
            if v.is_preserving() {
                metrics.incr("engine/verdicts/preserving");
            } else {
                metrics.incr("engine/verdicts/violating");
            }
            if v.is_degraded() {
                metrics.incr("engine/verdicts/degraded");
            }
            for s in &v.stats.stages {
                record_stage_metrics(metrics, s);
            }
        }
        Err(DecisionError::ResourceExhausted { .. }) => metrics.incr("engine/errors/exhausted"),
        Err(DecisionError::Panicked { .. }) => metrics.incr("engine/errors/panicked"),
        Err(DecisionError::Internal(_)) => metrics.incr("engine/errors/internal"),
    }
}

/// Folds one [`StageReport`] into a metrics registry: hit/miss counter
/// plus duration, fuel and artifact-size histograms. Used both for the
/// stages inside a verdict and for batch stage prefetches.
fn record_stage_metrics(metrics: &Metrics, s: &StageReport) {
    if !metrics.is_enabled() {
        return;
    }
    let base = format!("stage/{}", s.stage);
    metrics.observe(&format!("{base}/us"), s.duration.as_micros() as u64);
    match s.cache_hit {
        Some(true) => metrics.incr(&format!("{base}/hits")),
        Some(false) => metrics.incr(&format!("{base}/misses")),
        None => {}
    }
    if let Some(fuel) = s.fuel {
        metrics.observe(&format!("{base}/fuel"), fuel);
    }
    if let Some(size) = s.artifact_size {
        metrics.observe(&format!("{base}/size"), size as u64);
    }
}
