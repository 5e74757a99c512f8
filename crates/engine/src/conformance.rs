//! The output-conformance decider over `tpx_topdown::conformance` — *does
//! `T(L(S))` stay inside a target schema `D`?*
//!
//! Pipeline stages (run by the engine's driver, [`crate::pipeline`]):
//!
//! | stage                 | cached | keyed by |
//! |-----------------------|--------|----------|
//! | `conformance/inverse` | yes    | transducer hash × target hash × alphabet width, under the conformance analysis |
//! | `conformance/decide`  | no     | — |
//!
//! The inverse type-inference artifact (the "bad input trees" NTA) depends
//! on the transducer and the *target* — not on the input schema — so one
//! compilation serves every input schema the pair is checked against. The
//! alphabet width is part of the key because symbols outside the
//! transducer's alphabet still shape types (they transform to `ε`).

use crate::analysis::{Analysis, OUTPUT_CONFORMANCE};
use crate::budget::DecisionError;
use crate::decider::Decider;
use crate::pipeline::{CachedStage, Pipeline, Stage, StageKey};
use crate::verdict::Outcome;
use tpx_topdown::{
    compile_conformance_artifacts, conformance_witness_with, ConformanceArtifacts, Transducer,
};
use tpx_treeauto::Nta;
use tpx_trees::{stable_hash_of, StableHasher};

/// Decides output conformance for one transducer against one target
/// schema: passes iff every schema tree's image validates against the
/// target.
pub struct OutputConformanceDecider<'a> {
    t: &'a Transducer,
    target: &'a Nta,
    t_key: u64,
    target_key: u64,
}

impl<'a> OutputConformanceDecider<'a> {
    /// Wraps `t` and the target schema, content-hashing both once for
    /// cache keying.
    pub fn new(t: &'a Transducer, target: &'a Nta) -> Self {
        OutputConformanceDecider {
            t,
            target,
            t_key: stable_hash_of(t),
            target_key: stable_hash_of(target),
        }
    }

    /// The target schema.
    pub fn target(&self) -> &Nta {
        self.target
    }

    /// The `conformance/inverse` stage: the "bad input trees" NTA, keyed
    /// by (transducer, target, |Σ|) where `|Σ|` also covers `schema`'s
    /// alphabet.
    fn inverse_stage(&self, schema: &Nta) -> Stage<'_, ConformanceArtifacts> {
        let n_symbols = self
            .t
            .symbol_count()
            .max(self.target.symbol_count())
            .max(schema.symbol_count());
        let mut h = StableHasher::new();
        h.write_u64(self.t_key);
        h.write_u64(self.target_key);
        h.write_usize(n_symbols);
        Stage::new(
            StageKey::of(OUTPUT_CONFORMANCE, "conformance/inverse", h.finish()),
            ConformanceArtifacts::size,
            move |budget, _| compile_conformance_artifacts(self.t, self.target, n_symbols, budget),
        )
    }
}

impl Decider for OutputConformanceDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/conformance"
    }

    fn analysis(&self) -> Analysis {
        OUTPUT_CONFORMANCE
    }

    fn stages<'s>(&'s self, schema: &'s Nta) -> Vec<Box<dyn CachedStage + 's>> {
        vec![Box::new(self.inverse_stage(schema))]
    }

    fn decide(&self, schema: &Nta, pipeline: &mut Pipeline<'_>) -> Result<Outcome, DecisionError> {
        let inverse = pipeline.stage(&self.inverse_stage(schema))?;
        let witness = pipeline.step("conformance/decide", |budget, _| {
            conformance_witness_with(&inverse, schema, budget)
        })?;
        Ok(match witness {
            None => Outcome::Preserving,
            Some(witness) => Outcome::NonConforming { witness },
        })
    }

    /// A non-conformance witness must be a schema tree whose image the
    /// per-tree semantic oracle confirms to violate the target.
    fn validate(&self, schema: &Nta, outcome: &Outcome) {
        if let Outcome::NonConforming { witness } = outcome {
            debug_assert!(
                schema.accepts(witness),
                "conformance decider: witness outside the schema"
            );
            debug_assert!(
                !tpx_topdown::conforms_on(self.t, witness, self.target),
                "conformance decider: witness image conforms to the target"
            );
        }
    }
}
