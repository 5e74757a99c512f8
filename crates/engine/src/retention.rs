//! The text-retention decider over `tpx_topdown::extensions` — *does the
//! transducer ever delete a text value below a node carrying one of the
//! selected labels?*
//!
//! Pipeline stages (run by the engine's driver, [`crate::pipeline`]):
//!
//! | stage                          | cached | keyed by |
//! |--------------------------------|--------|----------|
//! | `topdown/schema`               | yes    | schema hash (shared with text-preservation) |
//! | `topdown/retention/transducer` | yes    | transducer hash, under the retention analysis |
//! | `topdown/retention/decide`     | no     | — |
//!
//! The schema-side stage is the *same* definition the text-preservation
//! decider uses (an analysis-free [`StageKey`]), so a mixed batch over one
//! schema compiles it exactly once. The transducer-side artifact (`A_T`) is independent of the
//! selected labels, so every retention query against the same transducer
//! shares it; the labels only parameterize the cheap, uncached decide
//! stage (a product with a 2-state NFA plus the antichain inclusion
//! search).

use crate::analysis::{Analysis, TEXT_RETENTION};
use crate::budget::DecisionError;
use crate::decider::{topdown_schema_stage, Decider};
use crate::pipeline::{CachedStage, Pipeline, Stage, StageKey};
use crate::verdict::Outcome;
use tpx_topdown::extensions::{
    compile_retention_artifacts, deleted_text_under_with, RetentionArtifacts,
};
use tpx_topdown::Transducer;
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

    /// The `topdown/retention/transducer` stage: `A_T`, independent of
    /// the selected labels, cached under the retention analysis.
    fn transducer_stage(&self) -> Stage<'_, RetentionArtifacts> {
        Stage::new(
            StageKey::of(TEXT_RETENTION, "topdown/retention/transducer", self.key),
            RetentionArtifacts::size,
            |budget, _| compile_retention_artifacts(self.t, budget),
        )
    }
}

impl Decider for TextRetentionDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/retention"
    }

    fn analysis(&self) -> Analysis {
        TEXT_RETENTION
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
        let witness = pipeline.step("topdown/retention/decide", |budget, _| {
            deleted_text_under_with(&schema_art, &trans_art, &self.labels, budget)
        })?;
        Ok(match witness {
            None => Outcome::Preserving,
            Some(path) => Outcome::DeletesText { path },
        })
    }

    /// A deleted-text path must be a schema text path, pass through a
    /// selected label, and have no transducer path run (i.e. its value
    /// really is deleted).
    fn validate(&self, schema: &Nta, outcome: &Outcome) {
        use tpx_topdown::PathSym;
        if let Outcome::DeletesText { path } = outcome {
            debug_assert!(
                tpx_topdown::path_automaton_nta(schema).accepts(path),
                "retention decider: witness path is not a schema path"
            );
            debug_assert!(
                path.iter()
                    .any(|p| self.labels.iter().any(|&l| *p == PathSym::Elem(l))),
                "retention decider: witness path misses the selected labels"
            );
            debug_assert!(
                !tpx_topdown::path_automaton_transducer(self.t).accepts(path),
                "retention decider: transducer keeps the witness path's value"
            );
        }
    }
}
