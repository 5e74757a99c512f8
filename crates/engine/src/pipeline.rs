//! Stage descriptions and the one check driver every [`Decider`] runs
//! through.
//!
//! A decider's pipeline is a few *cached* stages followed by one uncached
//! decide step. Each cached stage is described once, as a [`Stage`]: its
//! [`StageKey`], the function measuring its artifact, and its builder.
//! That one description serves both consumers:
//!
//! - a check resolves it with [`Pipeline::stage`], which looks the key up
//!   in the shared [`ArtifactCache`] (building on a miss) and hands the
//!   decide step a typed `Arc<T>`;
//! - a batch prefetches it as its own scheduler task through the
//!   type-erased [`CachedStage`] view that [`Decider::stages`] returns,
//!   and drops the artifact.
//!
//! The driver behind [`crate::Engine::check_governed`] and every batch
//! check owns everything else a check does: it starts the budget, lets
//! the decider resolve its stages and run its decide step
//! ([`Pipeline::step`]), falls back to the decider's [`Decider::degrade`]
//! hook when the budget runs out and the options ask for degradation,
//! validates the witness in debug builds, and assembles the [`Verdict`].
//! Every stage, cached or not, emits one span named like its
//! [`StageReport`] and records one report with its fuel delta.

use std::sync::Arc;
use std::time::Instant;

use crate::analysis::Analysis;
use crate::budget::{BudgetExceeded, BudgetHandle, CheckOptions, DecisionError};
use crate::cache::{ArtifactCache, CacheError};
use crate::decider::Decider;
use crate::verdict::{CheckStats, StageReport, Verdict};
use tpx_dtl::DtlDecideError;
use tpx_obs::{SpanFields, Tracer};
use tpx_treeauto::Nta;
use tpx_trees::StableHasher;

/// Identifies one cacheable pipeline stage: the artifact kind (the cache
/// namespace, e.g. `"topdown/schema"`) plus the content hash it is keyed
/// by, plus the [`Analysis`] the stage belongs to when the artifact is
/// analysis-specific. Two checks that declare the same `StageKey` depend
/// on the same artifact, so the batch scheduler runs that build once and
/// both checks hit the cache; an analysis-free key (`analysis: None`)
/// marks a *shared* artifact that any analysis over the same input may
/// reuse, while the analysis of a specific key is folded into the cache
/// key so distinct analyses never collide even under equal content hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StageKey {
    /// The artifact kind / cache namespace.
    pub kind: &'static str,
    /// The content hash the artifact is keyed by within `kind`.
    pub key: u64,
    /// `Some` when the artifact is specific to one analysis; `None` for
    /// artifacts shared across analyses (e.g. schema-side compilations).
    pub analysis: Option<Analysis>,
}

impl StageKey {
    /// A stage building an analysis-independent (shared) artifact.
    pub fn shared(kind: &'static str, key: u64) -> Self {
        StageKey {
            kind,
            key,
            analysis: None,
        }
    }

    /// A stage building an artifact owned by `analysis`.
    pub fn of(analysis: Analysis, kind: &'static str, key: u64) -> Self {
        StageKey {
            kind,
            key,
            analysis: Some(analysis),
        }
    }

    /// The `u64` the artifact is actually cached under: the content hash,
    /// with the owning analysis' discriminant mixed in for
    /// analysis-specific stages.
    pub fn cache_key(&self) -> u64 {
        match self.analysis {
            None => self.key,
            Some(a) => {
                let mut h = StableHasher::new();
                h.write_u64(self.key);
                h.write_u64(a.discriminant);
                h.finish()
            }
        }
    }
}

/// A failure of a stage builder or decide step; the pipeline attributes
/// it to the stage it happened in.
pub trait StageError {
    /// The engine error for this failure inside stage `kind`.
    fn in_stage(self, kind: &'static str) -> DecisionError;
}

impl StageError for BudgetExceeded {
    fn in_stage(self, kind: &'static str) -> DecisionError {
        DecisionError::exhausted(kind, self)
    }
}

impl StageError for DtlDecideError {
    fn in_stage(self, kind: &'static str) -> DecisionError {
        match self {
            DtlDecideError::Budget(b) => DecisionError::exhausted(kind, b),
            DtlDecideError::Internal(msg) => DecisionError::Internal(msg),
        }
    }
}

impl StageError for DecisionError {
    fn in_stage(self, _kind: &'static str) -> DecisionError {
        self
    }
}

type Builder<'a, T> = dyn Fn(&BudgetHandle, &Tracer) -> Result<T, DecisionError> + Sync + 'a;

/// One cached pipeline stage, described once: which artifact it is
/// (`key`), how big a built artifact is (`size`), and how to build it
/// under a budget.
pub struct Stage<'a, T> {
    key: StageKey,
    size: fn(&T) -> usize,
    build: Box<Builder<'a, T>>,
}

impl<'a, T> Stage<'a, T> {
    /// Describes the stage `key` whose artifact `build` compiles and
    /// `size` measures. A builder error is attributed to `key.kind`.
    pub fn new<E: StageError>(
        key: StageKey,
        size: fn(&T) -> usize,
        build: impl Fn(&BudgetHandle, &Tracer) -> Result<T, E> + Sync + 'a,
    ) -> Self {
        Stage {
            key,
            size,
            build: Box::new(move |budget, tracer| {
                build(budget, tracer).map_err(|e| e.in_stage(key.kind))
            }),
        }
    }
}

/// The type-erased view of a [`Stage`] a batch schedules as its own task:
/// its key (for batch-wide deduplication) and a build into the cache.
pub trait CachedStage: Sync {
    /// The artifact this stage builds.
    fn key(&self) -> StageKey;

    /// Resolves the stage through `pipeline` and drops the artifact,
    /// leaving it in the cache for the check that consumes it.
    fn prefetch(&self, pipeline: &mut Pipeline<'_>) -> Result<(), DecisionError>;
}

impl<T: Send + Sync + 'static> CachedStage for Stage<'_, T> {
    fn key(&self) -> StageKey {
        self.key
    }

    fn prefetch(&self, pipeline: &mut Pipeline<'_>) -> Result<(), DecisionError> {
        pipeline.stage(self).map(drop)
    }
}

/// The per-check recording context: the shared cache, the check's
/// fuel/deadline handle, the span sink, and the stage reports so far.
pub struct Pipeline<'a> {
    cache: &'a ArtifactCache,
    budget: BudgetHandle,
    tracer: &'a Tracer,
    stats: CheckStats,
}

impl<'a> Pipeline<'a> {
    /// Starts a fresh budget from `options` for one check or prefetch.
    fn start(cache: &'a ArtifactCache, options: &CheckOptions, tracer: &'a Tracer) -> Self {
        Pipeline {
            cache,
            budget: options.budget.start(),
            tracer,
            stats: CheckStats::default(),
        }
    }

    /// Resolves a cached stage: looks its cache key up, building on miss,
    /// and records duration / artifact size / hit-or-miss / fuel. Fuel is
    /// attributed by sampling the budget's counter around the stage, so a
    /// cache hit reports `0` (whoever built the artifact paid for it).
    /// Analysis-specific stages cache under [`StageKey::cache_key`], which
    /// mixes the analysis discriminant in.
    ///
    /// Emits one span named like the stage, covering lookup and (on miss)
    /// the build; its exit event carries the fuel delta, the artifact
    /// size, and the hit/miss flag. A stage that fails closes its span
    /// without fields.
    pub fn stage<T: Send + Sync + 'static>(
        &mut self,
        stage: &Stage<'_, T>,
    ) -> Result<Arc<T>, DecisionError> {
        let kind = stage.key.kind;
        let start = Instant::now();
        let fuel_before = self.budget.fuel_spent();
        let span = self.tracer.span(kind);
        let built = self.cache.get_or_build(kind, stage.key.cache_key(), || {
            (stage.build)(&self.budget, self.tracer)
        });
        let (artifact, hit) = match built {
            Ok(r) => r,
            Err(CacheError::Build(e)) => return Err(e),
            Err(CacheError::BuilderPanicked { kind, message }) => {
                return Err(DecisionError::Panicked {
                    stage: kind,
                    message,
                })
            }
            Err(e @ CacheError::TypeMismatch { .. }) => {
                return Err(DecisionError::Internal(e.to_string()))
            }
        };
        let artifact_size = (stage.size)(&artifact);
        let fuel = self.budget.fuel_spent() - fuel_before;
        span.exit_with(SpanFields::new().fuel(fuel).size(artifact_size).hit(hit));
        self.stats.stages.push(StageReport {
            stage: kind,
            duration: start.elapsed(),
            artifact_size: Some(artifact_size),
            cache_hit: Some(hit),
            fuel: self.budget.is_limited().then_some(fuel),
        });
        Ok(artifact)
    }

    /// Runs an uncached stage (a decide step or a fallback) under one span
    /// named `kind` and records its report with the fuel it charged. A
    /// step that fails closes its span without fields.
    pub fn step<R, E: StageError>(
        &mut self,
        kind: &'static str,
        run: impl FnOnce(&BudgetHandle, &Tracer) -> Result<R, E>,
    ) -> Result<R, DecisionError> {
        let start = Instant::now();
        let fuel_before = self.budget.fuel_spent();
        let span = self.tracer.span(kind);
        let result = run(&self.budget, self.tracer).map_err(|e| e.in_stage(kind))?;
        let fuel = self.budget.fuel_spent() - fuel_before;
        span.exit_with(SpanFields::new().fuel(fuel));
        self.stats.stages.push(StageReport {
            stage: kind,
            duration: start.elapsed(),
            artifact_size: None,
            cache_hit: None,
            fuel: self.budget.is_limited().then_some(fuel),
        });
        Ok(result)
    }
}

/// Runs one check of `decider` over `schema`: a fresh budget from
/// `options`, the decider's stages and decide step, its
/// [`Decider::degrade`] fallback when the budget runs out and `options`
/// asks for degradation, debug-build witness validation, and the
/// [`Verdict`].
pub(crate) fn check(
    decider: &dyn Decider,
    schema: &Nta,
    cache: &ArtifactCache,
    options: &CheckOptions,
    tracer: &Tracer,
) -> Result<Verdict, DecisionError> {
    let mut pipeline = Pipeline::start(cache, options, tracer);
    let (outcome, degraded) = match decider.decide(schema, &mut pipeline) {
        Ok(outcome) => (outcome, None),
        Err(e) => {
            let fallback = options
                .degrade
                .filter(|_| e.is_resource_exhausted())
                .and_then(|bound| Some((decider.degrade(schema, bound, &mut pipeline)?, bound)));
            match fallback {
                Some((outcome, bound)) => (outcome?, Some(bound)),
                None => return Err(e),
            }
        }
    };
    #[cfg(debug_assertions)]
    decider.validate(schema, &outcome);
    Ok(Verdict {
        decider: decider.name(),
        analysis: decider.analysis(),
        outcome,
        stats: pipeline.stats,
        degraded,
    })
}

/// Builds one declared stage into `cache` under a fresh budget from
/// `options`, returning its report. A batch runs this per distinct stage
/// ahead of the checks that consume it.
pub(crate) fn prefetch(
    stage: &dyn CachedStage,
    cache: &ArtifactCache,
    options: &CheckOptions,
    tracer: &Tracer,
) -> Result<CheckStats, DecisionError> {
    let mut pipeline = Pipeline::start(cache, options, tracer);
    stage.prefetch(&mut pipeline)?;
    Ok(pipeline.stats)
}
