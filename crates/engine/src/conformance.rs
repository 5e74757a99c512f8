//! The output-conformance decider: a governed, staged, traced wrapper
//! around `tpx_topdown::conformance` — *does `T(L(S))` stay inside a
//! target schema `D`?*
//!
//! Pipeline stages:
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

use std::time::Instant;

use crate::analysis::{Analysis, OUTPUT_CONFORMANCE};
use crate::budget::{CheckOptions, DecisionError};
use crate::cache::ArtifactCache;
use crate::decider::{governed_stage, uncached_stage, Decider, StageCtx, StageKey};
use crate::verdict::{CheckStats, Outcome, StageReport, Verdict};
use tpx_obs::{SpanFields, Tracer};
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

    /// The alphabet width the inverse artifact must cover for `schema`.
    fn n_symbols(&self, schema: &Nta) -> usize {
        self.t
            .symbol_count()
            .max(self.target.symbol_count())
            .max(schema.symbol_count())
    }

    /// The `conformance/inverse` cache key: (transducer, target, |Σ|).
    fn inverse_key(&self, n_symbols: usize) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.t_key);
        h.write_u64(self.target_key);
        h.write_usize(n_symbols);
        h.finish()
    }
}

impl Decider for OutputConformanceDecider<'_> {
    fn name(&self) -> &'static str {
        "topdown/conformance"
    }

    fn analysis(&self) -> Analysis {
        OUTPUT_CONFORMANCE
    }

    fn artifact_stages(&self, schema: &Nta) -> Vec<StageKey> {
        vec![StageKey::of(
            OUTPUT_CONFORMANCE,
            "conformance/inverse",
            self.inverse_key(self.n_symbols(schema)),
        )]
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
            "conformance/inverse" => {
                let n_symbols = self.n_symbols(schema);
                governed_stage(
                    cache,
                    stage,
                    ConformanceArtifacts::size,
                    || {
                        compile_conformance_artifacts(self.t, self.target, n_symbols, &budget)
                            .map_err(|b| DecisionError::exhausted("conformance/inverse", b))
                    },
                    &mut ctx,
                )?;
            }
            _ => {
                return Err(DecisionError::Internal(format!(
                    "conformance decider has no stage {:?}",
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
        let n_symbols = self.n_symbols(schema);
        let inverse = governed_stage(
            cache,
            StageKey::of(
                OUTPUT_CONFORMANCE,
                "conformance/inverse",
                self.inverse_key(n_symbols),
            ),
            ConformanceArtifacts::size,
            || {
                compile_conformance_artifacts(self.t, self.target, n_symbols, &budget)
                    .map_err(|b| DecisionError::exhausted("conformance/inverse", b))
            },
            &mut StageCtx {
                stats: &mut stats,
                budget: &budget,
                tracer,
            },
        )?;
        let start = Instant::now();
        let fuel_before = budget.fuel_spent();
        let span = tracer.span("conformance/decide");
        let witness = conformance_witness_with(&inverse, schema, &budget)
            .map_err(|b| DecisionError::exhausted("conformance/decide", b))?;
        span.exit_with(SpanFields::new().fuel(budget.fuel_spent() - fuel_before));
        uncached_stage(
            "conformance/decide",
            start,
            fuel_before,
            &mut stats,
            &budget,
        );
        let outcome = match witness {
            None => Outcome::Preserving,
            Some(witness) => Outcome::NonConforming { witness },
        };
        #[cfg(debug_assertions)]
        validate_conformance_outcome(self.t, schema, self.target, &outcome);
        Ok(Verdict {
            decider: self.name(),
            analysis: self.analysis(),
            outcome,
            stats,
            degraded: None,
        })
    }
}

/// Debug-build witness validation: a non-conformance witness must be a
/// schema tree whose image the per-tree semantic oracle confirms to
/// violate the target.
#[cfg(debug_assertions)]
fn validate_conformance_outcome(t: &Transducer, schema: &Nta, target: &Nta, outcome: &Outcome) {
    if let Outcome::NonConforming { witness } = outcome {
        debug_assert!(
            schema.accepts(witness),
            "conformance decider: witness outside the schema"
        );
        debug_assert!(
            !tpx_topdown::conforms_on(t, witness, target),
            "conformance decider: witness image conforms to the target"
        );
    }
}
