//! The [`Decider`] trait and its two implementations: the PTIME top-down
//! decider (Theorem 4.11) and the DTL decider (Theorems 5.12/5.18).
//!
//! A decider wraps one transducer and runs its staged pipeline against a
//! schema, routing every expensive intermediate through the
//! [`ArtifactCache`] and recording a [`StageReport`] per stage. Cache keys:
//!
//! | kind                  | keyed by                         | artifact |
//! |-----------------------|----------------------------------|----------|
//! | `topdown/schema`      | schema content hash              | [`SchemaArtifacts`] (`A_N`) |
//! | `topdown/transducer`  | transducer content hash          | [`TransducerArtifacts`] (`A_T`, diverging, doubling, rearranging NTA) |
//! | `dtl/schema`          | schema content hash              | [`DtlSchemaArtifacts`] (schema NBTA) |
//! | `dtl/counterexample`  | transducer `Debug` hash + `|Σ|`  | [`DtlTransducerArtifacts`] (MSO→NBTA compilation) |
//!
//! The final decide stage (automata products + emptiness) is cheap and
//! schema×transducer-specific, so it is never cached.
//!
//! Every decider runs *governed and traced*: [`Decider::check`] threads a
//! [`BudgetHandle`] and a [`Tracer`] through the whole staged pipeline
//! (fuel is charged at state/transition construction sites down in
//! `tpx-treeauto` / `tpx-mso`; each stage emits one span named exactly like
//! its [`StageReport`]) and returns a structured [`DecisionError`] instead
//! of panicking or diverging. Callers without limits pass
//! [`CheckOptions::unlimited`]; callers without tracing pass
//! [`Tracer::disabled_ref`].

use std::time::Instant;

use crate::analysis::{Analysis, TEXT_PRESERVATION};
use crate::budget::{BudgetHandle, CheckOptions, DecisionError};
use crate::cache::{ArtifactCache, CacheError};
use crate::verdict::{CheckStats, Outcome, StageReport, Verdict};
use tpx_dtl::pattern::MsoDefinable;
use tpx_dtl::{
    compile_counterexample, compile_schema_nbta, dtl_text_preserving_with, DtlCheckReport,
    DtlDecideError, DtlSchemaArtifacts, DtlTransducer, DtlTransducerArtifacts,
};
use tpx_obs::{SpanFields, Tracer};
use tpx_topdown::{
    compile_schema_artifacts, compile_transducer_artifacts, is_text_preserving_with,
    SchemaArtifacts, Transducer, TransducerArtifacts,
};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_debug, stable_hash_of, StableHasher};

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

/// A text-preservation decision procedure for one fixed transducer.
///
/// `Sync` so a batch of checks can share one decider across the worker
/// threads of [`crate::Engine::check_many_governed`].
pub trait Decider: Sync {
    /// A short name for reports (`"topdown"`, `"dtl"`).
    fn name(&self) -> &'static str;

    /// Which preservation analysis this decider runs. Defaults to the
    /// paper's headline text-preservation question; the retention and
    /// conformance deciders override it. Carried into every [`Verdict`]
    /// the decider produces, and folded into the cache keys of
    /// analysis-specific stages (see [`StageKey::of`]).
    fn analysis(&self) -> Analysis {
        TEXT_PRESERVATION
    }

    /// The cacheable artifact stages this check will consult, in pipeline
    /// order. The batch scheduler deduplicates these across a batch and
    /// prefetches each distinct stage as its own schedulable task, so the
    /// subsequent [`Decider::check`] call finds every declared
    /// artifact already built. The default (no declared stages) keeps the
    /// whole pipeline inside the check task — correct, just unscheduled.
    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        let _ = schema;
        Vec::new()
    }

    /// Builds the single artifact behind `stage` (one of
    /// [`Decider::artifact_stages`]) into `cache`, under a fresh
    /// per-stage budget from `options`. Returns the stage's
    /// [`StageReport`]. Prefetch failures are non-fatal to the batch: the
    /// finalizing [`Decider::check`] retries the build under its
    /// own budget, so a budget-starved or panicked prefetch only loses
    /// the overlap, never the verdict.
    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<StageReport, DecisionError> {
        let _ = (schema, cache, options, tracer);
        Err(DecisionError::Internal(format!(
            "decider {:?} declares no prefetchable stage {:?}",
            self.name(),
            stage.kind
        )))
    }

    /// Decides text-preservation over `L(schema)` under the fuel/deadline
    /// budget of `options`, memoizing expensive intermediates in `cache`
    /// and emitting one span per pipeline stage on `tracer` (span names
    /// match the [`crate::StageReport::stage`] names; a disabled tracer
    /// costs nothing). Budget exhaustion, panics inside cached builders,
    /// and construction invariant failures all surface as a
    /// [`DecisionError`].
    fn check(
        &self,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<Verdict, DecisionError>;
}

/// The per-check recording context threaded through the staged helpers:
/// where stage reports accumulate, the fuel/deadline handle, and the span
/// sink.
pub(crate) struct StageCtx<'a> {
    pub(crate) stats: &'a mut CheckStats,
    pub(crate) budget: &'a BudgetHandle,
    pub(crate) tracer: &'a Tracer,
}

/// Runs a cached stage under a budget: looks the stage's cache key up,
/// building on miss, and records duration / artifact size / hit-or-miss /
/// fuel. Fuel is attributed by sampling the shared handle's counter around
/// the stage, so a cache hit reports `0` (whoever built the artifact paid
/// for it). Analysis-specific stages cache under
/// [`StageKey::cache_key`], which mixes the analysis discriminant in.
///
/// Emits one span named like the stage on the context's tracer, covering
/// lookup and (on miss) the build; its exit event carries the fuel delta,
/// the artifact size, and the hit/miss flag. A stage that fails closes its
/// span without fields.
pub(crate) fn governed_stage<T, F>(
    cache: &ArtifactCache,
    stage: StageKey,
    size: impl Fn(&T) -> usize,
    build: F,
    ctx: &mut StageCtx<'_>,
) -> Result<std::sync::Arc<T>, DecisionError>
where
    T: Send + Sync + 'static,
    F: FnOnce() -> Result<T, DecisionError>,
{
    let StageCtx {
        ref mut stats,
        budget,
        tracer,
    } = *ctx;
    let kind = stage.kind;
    let start = Instant::now();
    let fuel_before = budget.fuel_spent();
    let span = tracer.span(kind);
    let (artifact, hit) = match cache.get_or_build(kind, stage.cache_key(), build) {
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
    let artifact_size = size(&artifact);
    span.exit_with(
        SpanFields::new()
            .fuel(budget.fuel_spent() - fuel_before)
            .size(artifact_size)
            .hit(hit),
    );
    stats.stages.push(StageReport {
        stage: kind,
        duration: start.elapsed(),
        artifact_size: Some(artifact_size),
        cache_hit: Some(hit),
        fuel: budget
            .is_limited()
            .then(|| budget.fuel_spent() - fuel_before),
    });
    Ok(artifact)
}

/// Records an uncached stage report with fuel attribution.
pub(crate) fn uncached_stage(
    kind: &'static str,
    start: Instant,
    fuel_before: u64,
    stats: &mut CheckStats,
    budget: &BudgetHandle,
) {
    stats.stages.push(StageReport {
        stage: kind,
        duration: start.elapsed(),
        artifact_size: None,
        cache_hit: None,
        fuel: budget
            .is_limited()
            .then(|| budget.fuel_spent() - fuel_before),
    });
}

/// The Theorem 4.11 decider for a top-down uniform transducer.
pub struct TopdownDecider<'a> {
    t: &'a Transducer,
    key: u64,
}

impl<'a> TopdownDecider<'a> {
    /// Wraps `t`, content-hashing it once for cache keying.
    pub fn new(t: &'a Transducer) -> Self {
        TopdownDecider {
            t,
            key: stable_hash_of(t),
        }
    }

    /// The transducer's content hash (the `topdown/transducer` cache key).
    pub fn cache_key(&self) -> u64 {
        self.key
    }
}

impl Decider for TopdownDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown"
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![
            StageKey::shared("topdown/schema", stable_hash_of(schema)),
            StageKey::shared("topdown/transducer", self.key),
        ]
    }

    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<StageReport, DecisionError> {
        let budget = options.budget.start();
        let mut stats = CheckStats::default();
        let mut ctx = StageCtx {
            stats: &mut stats,
            budget: &budget,
            tracer,
        };
        match stage.kind {
            "topdown/schema" => {
                governed_stage(
                    cache,
                    stage,
                    SchemaArtifacts::size,
                    || {
                        compile_schema_artifacts(schema, &budget)
                            .map_err(|b| DecisionError::exhausted("topdown/schema", b))
                    },
                    &mut ctx,
                )?;
            }
            "topdown/transducer" => {
                governed_stage(
                    cache,
                    stage,
                    TransducerArtifacts::size,
                    || {
                        compile_transducer_artifacts(self.t, &budget, tracer)
                            .map_err(|b| DecisionError::exhausted("topdown/transducer", b))
                    },
                    &mut ctx,
                )?;
            }
            _ => {
                return Err(DecisionError::Internal(format!(
                    "topdown decider has no stage {:?}",
                    stage.kind
                )))
            }
        }
        stats
            .stages
            .pop()
            .ok_or_else(|| DecisionError::Internal("prefetched stage left no report".into()))
    }

    fn check(
        &self,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<Verdict, DecisionError> {
        let budget = options.budget.start();
        let mut stats = CheckStats::default();
        let schema_art = governed_stage(
            cache,
            StageKey::shared("topdown/schema", stable_hash_of(schema)),
            SchemaArtifacts::size,
            || {
                compile_schema_artifacts(schema, &budget)
                    .map_err(|b| DecisionError::exhausted("topdown/schema", b))
            },
            &mut StageCtx {
                stats: &mut stats,
                budget: &budget,
                tracer,
            },
        )?;
        let trans_art = governed_stage(
            cache,
            StageKey::shared("topdown/transducer", self.key),
            TransducerArtifacts::size,
            || {
                compile_transducer_artifacts(self.t, &budget, tracer)
                    .map_err(|b| DecisionError::exhausted("topdown/transducer", b))
            },
            &mut StageCtx {
                stats: &mut stats,
                budget: &budget,
                tracer,
            },
        )?;
        let start = Instant::now();
        let fuel_before = budget.fuel_spent();
        let span = tracer.span("topdown/decide");
        let report = is_text_preserving_with(&schema_art, &trans_art, schema, &budget, tracer)
            .map_err(|b| DecisionError::exhausted("topdown/decide", b))?;
        span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
        uncached_stage("topdown/decide", start, fuel_before, &mut stats, &budget);
        let outcome: Outcome = report.into();
        #[cfg(debug_assertions)]
        validate_topdown_outcome(self.t, schema, &outcome);
        Ok(Verdict {
            decider: self.name(),
            analysis: self.analysis(),
            outcome,
            stats,
            degraded: None,
        })
    }
}

/// Debug-build witness validation: every counterexample a verdict carries
/// must be a member of `L(schema)` and must be re-confirmed by the per-tree
/// semantic oracle — a decider path emitting an out-of-schema or
/// non-reproducing witness is a bug, caught here before it reaches a user.
#[cfg(debug_assertions)]
fn validate_topdown_outcome(t: &Transducer, schema: &Nta, outcome: &Outcome) {
    match outcome {
        Outcome::Preserving => {}
        Outcome::Copying { path } => {
            debug_assert!(
                tpx_topdown::path_automaton_nta(schema).accepts(path),
                "topdown decider: copying witness path is not a schema path"
            );
            debug_assert!(
                tpx_topdown::path_automaton_transducer(t).accepts(path),
                "topdown decider: transducer has no run on the copying witness path"
            );
        }
        Outcome::Rearranging { witness } => {
            debug_assert!(
                schema.accepts(witness),
                "topdown decider: rearranging witness outside the schema"
            );
            debug_assert!(
                tpx_topdown::semantic::rearranging_on(t, witness),
                "topdown decider: rearranging witness not semantically rearranging"
            );
        }
        Outcome::NotPreserving { witness } => {
            debug_assert!(
                schema.accepts(witness),
                "topdown decider: witness outside the schema"
            );
        }
        Outcome::DeletesText { .. } | Outcome::NonConforming { .. } => {
            debug_assert!(
                false,
                "topdown text-preservation decider produced a foreign-analysis outcome"
            );
        }
    }
}

/// The Theorems 5.12/5.18 decider for a DTL transducer (MSO or XPath
/// patterns).
pub struct DtlDecider<'a, P: MsoDefinable> {
    t: &'a DtlTransducer<P>,
    key: u64,
}

impl<'a, P> DtlDecider<'a, P>
where
    P: MsoDefinable,
    DtlTransducer<P>: std::fmt::Debug,
{
    /// Wraps `t`, hashing its `Debug` rendering once for cache keying
    /// (faithful for any pattern language — `Unary`/`Binary` are `Debug`
    /// by the `PatternLanguage` contract).
    pub fn new(t: &'a DtlTransducer<P>) -> Self {
        DtlDecider {
            t,
            key: stable_hash_debug(t),
        }
    }
}

impl<P: MsoDefinable> DtlDecider<'_, P> {
    /// The `dtl/counterexample` cache key: the counter-example automaton
    /// depends on (transducer, `|Σ|`).
    fn ce_key(&self, n_symbols: usize) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.key);
        h.write_usize(n_symbols);
        h.finish()
    }

    /// The symbolic (exact) pipeline, governed and traced.
    fn symbolic(
        &self,
        schema: &Nta,
        cache: &ArtifactCache,
        budget: &BudgetHandle,
        stats: &mut CheckStats,
        tracer: &Tracer,
    ) -> Result<Outcome, DecisionError> {
        let n_symbols = schema.symbol_count();
        let schema_art = governed_stage(
            cache,
            StageKey::shared("dtl/schema", stable_hash_of(schema)),
            DtlSchemaArtifacts::size,
            || {
                compile_schema_nbta(schema, budget)
                    .map_err(|b| DecisionError::exhausted("dtl/schema", b))
            },
            &mut StageCtx {
                stats,
                budget,
                tracer,
            },
        )?;
        let ce_art = governed_stage(
            cache,
            StageKey::shared("dtl/counterexample", self.ce_key(n_symbols)),
            DtlTransducerArtifacts::size,
            || {
                compile_counterexample(self.t, n_symbols, budget, tracer)
                    .map_err(|e| dtl_error("dtl/counterexample", e))
            },
            &mut StageCtx {
                stats,
                budget,
                tracer,
            },
        )?;
        let start = Instant::now();
        let fuel_before = budget.fuel_spent();
        let span = tracer.span("dtl/decide");
        let report = dtl_text_preserving_with(&ce_art, &schema_art, budget, tracer)
            .map_err(|e| dtl_error("dtl/decide", e))?;
        span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
        uncached_stage("dtl/decide", start, fuel_before, stats, budget);
        Ok(match report {
            DtlCheckReport::Preserving => Outcome::Preserving,
            DtlCheckReport::NotPreserving { witness } => Outcome::NotPreserving { witness },
        })
    }
}

/// Maps a [`DtlDecideError`] onto the engine error, attributing budget
/// exhaustion to `stage`.
fn dtl_error(stage: &'static str, e: DtlDecideError) -> DecisionError {
    match e {
        DtlDecideError::Budget(b) => DecisionError::exhausted(stage, b),
        DtlDecideError::Internal(msg) => DecisionError::Internal(msg),
    }
}

impl<P> Decider for DtlDecider<'_, P>
where
    P: MsoDefinable,
    DtlTransducer<P>: Sync,
{
    fn name(&self) -> &'static str {
        "dtl"
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![
            StageKey::shared("dtl/schema", stable_hash_of(schema)),
            StageKey::shared("dtl/counterexample", self.ce_key(schema.symbol_count())),
        ]
    }

    fn prefetch_stage(
        &self,
        stage: StageKey,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<StageReport, DecisionError> {
        let budget = options.budget.start();
        let mut stats = CheckStats::default();
        let mut ctx = StageCtx {
            stats: &mut stats,
            budget: &budget,
            tracer,
        };
        match stage.kind {
            "dtl/schema" => {
                governed_stage(
                    cache,
                    stage,
                    DtlSchemaArtifacts::size,
                    || {
                        compile_schema_nbta(schema, &budget)
                            .map_err(|b| DecisionError::exhausted("dtl/schema", b))
                    },
                    &mut ctx,
                )?;
            }
            "dtl/counterexample" => {
                let n_symbols = schema.symbol_count();
                governed_stage(
                    cache,
                    stage,
                    DtlTransducerArtifacts::size,
                    || {
                        compile_counterexample(self.t, n_symbols, &budget, tracer)
                            .map_err(|e| dtl_error("dtl/counterexample", e))
                    },
                    &mut ctx,
                )?;
            }
            _ => {
                return Err(DecisionError::Internal(format!(
                    "dtl decider has no stage {:?}",
                    stage.kind
                )))
            }
        }
        stats
            .stages
            .pop()
            .ok_or_else(|| DecisionError::Internal("prefetched stage left no report".into()))
    }

    fn check(
        &self,
        schema: &Nta,
        cache: &ArtifactCache,
        options: &CheckOptions,
        tracer: &Tracer,
    ) -> Result<Verdict, DecisionError> {
        let budget = options.budget.start();
        let mut stats = CheckStats::default();
        match self.symbolic(schema, cache, &budget, &mut stats, tracer) {
            Ok(outcome) => {
                #[cfg(debug_assertions)]
                validate_dtl_outcome(self.t, schema, &outcome);
                Ok(Verdict {
                    decider: self.name(),
                    analysis: self.analysis(),
                    outcome,
                    stats,
                    degraded: None,
                })
            }
            Err(e) if e.is_resource_exhausted() && options.degrade.is_some() => {
                // Graceful degradation: the symbolic pipeline ran out of
                // budget; fall back to the bounded-enumeration oracle.
                // Sound but incomplete — the verdict is marked degraded
                // with the bound that was actually searched.
                let bound = options.degrade.expect("checked is_some");
                let start = Instant::now();
                let span = tracer.span("dtl/bounded");
                let witness = tpx_dtl::bounded::bounded_counterexample(
                    self.t,
                    schema,
                    bound.max_nodes,
                    bound.limit,
                )
                .map_err(|err| DecisionError::Internal(err.to_string()))?;
                span.exit_with(SpanFields::new().fuel(0));
                stats.stages.push(StageReport {
                    stage: "dtl/bounded",
                    duration: start.elapsed(),
                    artifact_size: None,
                    cache_hit: None,
                    fuel: Some(0),
                });
                let outcome = match witness {
                    None => Outcome::Preserving,
                    Some(witness) => Outcome::NotPreserving { witness },
                };
                #[cfg(debug_assertions)]
                validate_dtl_outcome(self.t, schema, &outcome);
                Ok(Verdict {
                    decider: self.name(),
                    analysis: self.analysis(),
                    outcome,
                    stats,
                    degraded: Some(bound),
                })
            }
            Err(e) => Err(e),
        }
    }
}

/// Debug-build witness validation for the DTL decider: the witness must be
/// in `L(schema)` and the Lemma 5.4/5.5 per-tree checks must re-confirm the
/// violation on it.
#[cfg(debug_assertions)]
fn validate_dtl_outcome<P: MsoDefinable>(t: &DtlTransducer<P>, schema: &Nta, outcome: &Outcome) {
    if let Outcome::NotPreserving { witness } = outcome {
        debug_assert!(
            schema.accepts(witness),
            "dtl decider: witness outside the schema"
        );
        let copying = tpx_dtl::config::copying_lemma_5_4(t, witness);
        let rearranging = tpx_dtl::config::rearranging_lemma_5_5(t, witness);
        debug_assert!(
            matches!(copying, Ok(true)) || matches!(rearranging, Ok(true)),
            "dtl decider: witness not re-confirmed by the per-tree oracles \
             (copying: {copying:?}, rearranging: {rearranging:?})"
        );
    }
}
