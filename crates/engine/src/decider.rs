//! The [`Decider`] trait and its two implementations: the PTIME top-down
//! decider (Theorem 4.11) and the DTL decider (Theorems 5.12/5.18).
//!
//! A decider wraps one transducer and declares its pipeline against a
//! schema: one [`Stage`] per cached artifact, then one uncached decide
//! step. Everything else a check does — budget, spans, stage reports, the
//! verdict — is the engine's single driver in [`crate::pipeline`]. Cached
//! stages:
//!
//! | kind                  | keyed by                         | artifact |
//! |-----------------------|----------------------------------|----------|
//! | `topdown/schema`      | schema content hash              | [`SchemaArtifacts`] (`A_N`) |
//! | `topdown/transducer`  | transducer content hash          | [`TransducerArtifacts`] (`A_T`, diverging, doubling, rearranging NTA) |
//! | `dtl/schema`          | schema content hash              | [`DtlSchemaArtifacts`] (schema NBTA) |
//! | `dtl/counterexample`  | transducer `Debug` hash + `|Σ|`  | [`DtlTransducerArtifacts`] (MSO→NBTA compilation) |
//!
//! The decide step (automata products + emptiness) is cheap and
//! schema×transducer-specific, so it is never cached. The `topdown/schema`
//! stage is defined once here and shared with the text-retention decider.
//! Only the DTL decider has a [`Decider::degrade`] fallback: the
//! bounded-enumeration oracle, run as stage `dtl/bounded`.

use crate::analysis::{Analysis, TEXT_PRESERVATION};
use crate::budget::{DecisionError, DegradeBound};
use crate::pipeline::{CachedStage, Pipeline, Stage, StageKey};
use crate::verdict::Outcome;
use tpx_dtl::pattern::MsoDefinable;
use tpx_dtl::{
    compile_counterexample, compile_schema_nbta, dtl_text_preserving_with, DtlCheckReport,
    DtlSchemaArtifacts, DtlTransducer, DtlTransducerArtifacts,
};
use tpx_topdown::{
    compile_schema_artifacts, compile_transducer_artifacts, is_text_preserving_with,
    SchemaArtifacts, Transducer, TransducerArtifacts,
};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_debug, stable_hash_of, StableHasher};

/// A text-preservation decision procedure for one fixed transducer: its
/// cached stages and its uncached decide step. The engine runs every
/// decider through one driver (see [`crate::pipeline`]).
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
    ///
    /// [`Verdict`]: crate::Verdict
    fn analysis(&self) -> Analysis {
        TEXT_PRESERVATION
    }

    /// The cached stages [`Decider::decide`] resolves against `schema`, in
    /// pipeline order. The batch scheduler deduplicates their keys across
    /// a batch and prefetches each distinct stage as its own task, so the
    /// check that follows finds every artifact already built. The default
    /// (no declared stages) keeps the whole pipeline inside the check
    /// task — correct, just unscheduled.
    fn stages<'s>(&'s self, schema: &'s Nta) -> Vec<Box<dyn CachedStage + 's>> {
        let _ = schema;
        Vec::new()
    }

    /// Decides the analysis over `L(schema)`: resolves each of
    /// [`Decider::stages`] through [`Pipeline::stage`], then runs the
    /// uncached decide step through [`Pipeline::step`]. Budget
    /// exhaustion and construction invariant failures surface as a
    /// [`DecisionError`].
    fn decide(&self, schema: &Nta, pipeline: &mut Pipeline<'_>) -> Result<Outcome, DecisionError>;

    /// A sound fallback the driver runs when [`Decider::decide`] exhausts
    /// its budget and the check options carry a [`DegradeBound`]; the
    /// verdict is then marked degraded with `bound`. `None` (the default)
    /// keeps the exhaustion error.
    fn degrade(
        &self,
        schema: &Nta,
        bound: DegradeBound,
        pipeline: &mut Pipeline<'_>,
    ) -> Option<Result<Outcome, DecisionError>> {
        let _ = (schema, bound, pipeline);
        None
    }

    /// Witness validation, run by the driver on every outcome in debug
    /// builds: a counterexample must be a member of `L(schema)` and must
    /// be re-confirmed by a per-tree oracle — a decider path emitting an
    /// out-of-schema or non-reproducing witness is a bug, caught before it
    /// reaches a user.
    fn validate(&self, schema: &Nta, outcome: &Outcome) {
        let _ = (schema, outcome);
    }
}

/// The `topdown/schema` stage: the schema path automaton `A_N` and its
/// path alphabet, shared by the text-preservation and text-retention
/// deciders.
pub(crate) fn topdown_schema_stage(schema: &Nta) -> Stage<'_, SchemaArtifacts> {
    Stage::new(
        StageKey::shared("topdown/schema", stable_hash_of(schema)),
        SchemaArtifacts::size,
        |budget, _| compile_schema_artifacts(schema, budget),
    )
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

    /// The `topdown/transducer` stage: `A_T` plus the diverging, doubling
    /// and rearranging automata.
    fn transducer_stage(&self) -> Stage<'_, TransducerArtifacts> {
        Stage::new(
            StageKey::shared("topdown/transducer", self.key),
            TransducerArtifacts::size,
            |budget, tracer| compile_transducer_artifacts(self.t, budget, tracer),
        )
    }
}

impl Decider for TopdownDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown"
    }

    fn stages<'s>(&'s self, schema: &'s Nta) -> Vec<Box<dyn CachedStage + 's>> {
        vec![
            Box::new(topdown_schema_stage(schema)),
            Box::new(self.transducer_stage()),
        ]
    }

    fn decide(&self, schema: &Nta, pipeline: &mut Pipeline<'_>) -> Result<Outcome, DecisionError> {
        let schema_art = pipeline.stage(&topdown_schema_stage(schema))?;
        let trans_art = pipeline.stage(&self.transducer_stage())?;
        pipeline
            .step("topdown/decide", |budget, tracer| {
                is_text_preserving_with(&schema_art, &trans_art, schema, budget, tracer)
            })
            .map(Outcome::from)
    }

    fn validate(&self, schema: &Nta, outcome: &Outcome) {
        let t = self.t;
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

/// The `dtl/schema` stage: the schema NBTA.
fn dtl_schema_stage(schema: &Nta) -> Stage<'_, DtlSchemaArtifacts> {
    Stage::new(
        StageKey::shared("dtl/schema", stable_hash_of(schema)),
        DtlSchemaArtifacts::size,
        |budget, _| compile_schema_nbta(schema, budget),
    )
}

impl<P> DtlDecider<'_, P>
where
    P: MsoDefinable,
    DtlTransducer<P>: Sync,
{
    /// The `dtl/counterexample` stage: the MSO→NBTA compilation of the
    /// counter-example automaton, which depends on (transducer, `|Σ|`).
    fn counterexample_stage(&self, n_symbols: usize) -> Stage<'_, DtlTransducerArtifacts> {
        let mut h = StableHasher::new();
        h.write_u64(self.key);
        h.write_usize(n_symbols);
        Stage::new(
            StageKey::shared("dtl/counterexample", h.finish()),
            DtlTransducerArtifacts::size,
            move |budget, tracer| compile_counterexample(self.t, n_symbols, budget, tracer),
        )
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

    fn stages<'s>(&'s self, schema: &'s Nta) -> Vec<Box<dyn CachedStage + 's>> {
        vec![
            Box::new(dtl_schema_stage(schema)),
            Box::new(self.counterexample_stage(schema.symbol_count())),
        ]
    }

    fn decide(&self, schema: &Nta, pipeline: &mut Pipeline<'_>) -> Result<Outcome, DecisionError> {
        let schema_art = pipeline.stage(&dtl_schema_stage(schema))?;
        let ce_art = pipeline.stage(&self.counterexample_stage(schema.symbol_count()))?;
        let report = pipeline.step("dtl/decide", |budget, tracer| {
            dtl_text_preserving_with(&ce_art, &schema_art, budget, tracer)
        })?;
        Ok(match report {
            DtlCheckReport::Preserving => Outcome::Preserving,
            DtlCheckReport::NotPreserving { witness } => Outcome::NotPreserving { witness },
        })
    }

    /// Graceful degradation: when the symbolic pipeline runs out of
    /// budget, the bounded-enumeration oracle searches schema trees up to
    /// `bound`. Sound but incomplete.
    fn degrade(
        &self,
        schema: &Nta,
        bound: DegradeBound,
        pipeline: &mut Pipeline<'_>,
    ) -> Option<Result<Outcome, DecisionError>> {
        Some(pipeline.step(
            "dtl/bounded",
            |_, _| match tpx_dtl::bounded::bounded_counterexample(
                self.t,
                schema,
                bound.max_nodes,
                bound.limit,
            ) {
                Ok(None) => Ok(Outcome::Preserving),
                Ok(Some(witness)) => Ok(Outcome::NotPreserving { witness }),
                Err(err) => Err(DecisionError::Internal(err.to_string())),
            },
        ))
    }

    /// The witness must be in `L(schema)` and the Lemma 5.4/5.5 per-tree
    /// checks must re-confirm the violation on it.
    fn validate(&self, schema: &Nta, outcome: &Outcome) {
        if let Outcome::NotPreserving { witness } = outcome {
            debug_assert!(
                schema.accepts(witness),
                "dtl decider: witness outside the schema"
            );
            let copying = tpx_dtl::config::copying_lemma_5_4(self.t, witness);
            let rearranging = tpx_dtl::config::rearranging_lemma_5_5(self.t, witness);
            debug_assert!(
                matches!(copying, Ok(true)) || matches!(rearranging, Ok(true)),
                "dtl decider: witness not re-confirmed by the per-tree oracles \
                 (copying: {copying:?}, rearranging: {rearranging:?})"
            );
        }
    }
}
