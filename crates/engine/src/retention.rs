//! The text-retention decider: a governed, staged, traced wrapper around
//! `tpx_topdown::extensions` — *does the transducer ever delete a text
//! value below a node carrying one of the selected labels?*
//!
//! Pipeline stages:
//!
//! | stage                          | cached | keyed by |
//! |--------------------------------|--------|----------|
//! | `topdown/schema`               | yes    | schema hash (shared with text-preservation) |
//! | `topdown/retention/transducer` | yes    | transducer hash, under the retention analysis |
//! | `topdown/retention/decide`     | no     | — |
//!
//! The schema-side artifact is the *same* `A_N` + path-alphabet bundle the
//! text-preservation decider uses, declared with an analysis-free
//! [`StageKey`], so a mixed batch over one schema compiles it exactly
//! once. The transducer-side artifact (`A_T`) is independent of the
//! selected labels, so every retention query against the same transducer
//! shares it; the labels only parameterize the cheap, uncached decide
//! stage (a product with a 2-state NFA plus the antichain inclusion
//! search).

use std::time::Instant;

use crate::analysis::{Analysis, TEXT_RETENTION};
use crate::budget::{CheckOptions, DecisionError};
use crate::cache::ArtifactCache;
use crate::decider::{governed_stage, uncached_stage, Decider, StageCtx, StageKey};
use crate::verdict::{CheckStats, Outcome, StageReport, Verdict};
use tpx_obs::{SpanFields, Tracer};
use tpx_topdown::extensions::{
    compile_retention_artifacts, deleted_text_under_with, RetentionArtifacts,
};
use tpx_topdown::{compile_schema_artifacts, SchemaArtifacts, Transducer};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_of, Symbol};

/// Decides text-retention for one transducer and one set of selected
/// labels: passes iff no schema tree has a text value below a
/// selected-label node that the transducer deletes.
pub struct TextRetentionDecider<'a> {
    t: &'a Transducer,
    labels: Vec<Symbol>,
    key: u64,
}

impl<'a> TextRetentionDecider<'a> {
    /// Wraps `t` with the labels under which text must be retained,
    /// content-hashing the transducer once for cache keying.
    pub fn new(t: &'a Transducer, labels: Vec<Symbol>) -> Self {
        TextRetentionDecider {
            t,
            labels,
            key: stable_hash_of(t),
        }
    }

    /// The selected labels.
    pub fn labels(&self) -> &[Symbol] {
        &self.labels
    }
}

impl Decider for TextRetentionDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/retention"
    }

    fn analysis(&self) -> Analysis {
        TEXT_RETENTION
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![
            StageKey::shared("topdown/schema", stable_hash_of(schema)),
            StageKey::of(TEXT_RETENTION, "topdown/retention/transducer", self.key),
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
            "topdown/retention/transducer" => {
                governed_stage(
                    cache,
                    stage,
                    RetentionArtifacts::size,
                    || {
                        compile_retention_artifacts(self.t, &budget).map_err(|b| {
                            DecisionError::exhausted("topdown/retention/transducer", b)
                        })
                    },
                    &mut ctx,
                )?;
            }
            _ => {
                return Err(DecisionError::Internal(format!(
                    "retention decider has no stage {:?}",
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
            StageKey::of(TEXT_RETENTION, "topdown/retention/transducer", self.key),
            RetentionArtifacts::size,
            || {
                compile_retention_artifacts(self.t, &budget)
                    .map_err(|b| DecisionError::exhausted("topdown/retention/transducer", b))
            },
            &mut StageCtx {
                stats: &mut stats,
                budget: &budget,
                tracer,
            },
        )?;
        let start = Instant::now();
        let fuel_before = budget.fuel_spent();
        let span = tracer.span("topdown/retention/decide");
        let witness = deleted_text_under_with(&schema_art, &trans_art, &self.labels, &budget)
            .map_err(|b| DecisionError::exhausted("topdown/retention/decide", b))?;
        span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
        uncached_stage(
            "topdown/retention/decide",
            start,
            fuel_before,
            &mut stats,
            &budget,
        );
        let outcome = match witness {
            None => Outcome::Preserving,
            Some(path) => Outcome::DeletesText { path },
        };
        #[cfg(debug_assertions)]
        validate_retention_outcome(self.t, schema, &self.labels, &outcome);
        Ok(Verdict {
            decider: self.name(),
            analysis: self.analysis(),
            outcome,
            stats,
            degraded: None,
        })
    }
}

/// Debug-build witness validation: a deleted-text path must be a schema
/// text path, pass through a selected label, and have no transducer path
/// run (i.e. its value really is deleted).
#[cfg(debug_assertions)]
fn validate_retention_outcome(t: &Transducer, schema: &Nta, labels: &[Symbol], outcome: &Outcome) {
    use tpx_topdown::PathSym;
    if let Outcome::DeletesText { path } = outcome {
        debug_assert!(
            tpx_topdown::path_automaton_nta(schema).accepts(path),
            "retention decider: witness path is not a schema path"
        );
        debug_assert!(
            path.iter()
                .any(|p| labels.iter().any(|&l| *p == PathSym::Elem(l))),
            "retention decider: witness path misses the selected labels"
        );
        debug_assert!(
            !tpx_topdown::path_automaton_transducer(t).accepts(path),
            "retention decider: transducer keeps the witness path's value"
        );
    }
}
