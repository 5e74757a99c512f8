//! The structured result of an engine check: outcome plus per-stage
//! instrumentation.

use std::time::Duration;
use tpx_topdown::{CheckReport, PathSym};
use tpx_trees::Tree;

use crate::analysis::Analysis;
use crate::budget::DegradeBound;

/// What the decider concluded, with the diagnostic witness when the
/// transformation violates the analysis' property.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// The analysis passed: text-preserving over the schema (or, for the
    /// retention/conformance analyses, no deleted text / no conformance
    /// violation — the verdict's [`Analysis`] names the property).
    Preserving,
    /// Copying (top-down decider, Lemma 4.9): a witness text path of the
    /// schema on which the transducer has two path runs or a doubling rule.
    Copying {
        /// The witness text path.
        path: Vec<PathSym>,
    },
    /// Rearranging (top-down decider, Lemma 4.10): a schema tree on which
    /// two text values swap.
    Rearranging {
        /// The witness tree (text values are placeholders).
        witness: Tree,
    },
    /// Not text-preserving, cause unattributed (DTL decider, Theorems
    /// 5.12/5.18: the counter-example automaton unions the copying and
    /// rearranging conditions).
    NotPreserving {
        /// The witness tree (text values are placeholders).
        witness: Tree,
    },
    /// Text-retention analysis: the transducer deletes a text value below
    /// a node carrying one of the selected labels, on some schema tree.
    DeletesText {
        /// A shortest schema text path through a selected label on which
        /// the transducer has no path run (so the value is deleted).
        path: Vec<PathSym>,
    },
    /// Output-conformance analysis: some schema tree's image under the
    /// transducer does not validate against the target schema.
    NonConforming {
        /// The witness tree (text values are placeholders).
        witness: Tree,
    },
}

impl Outcome {
    /// Whether the analysis passed (for text-preservation: whether the
    /// transformation is text-preserving).
    pub fn is_preserving(&self) -> bool {
        matches!(self, Outcome::Preserving)
    }

    /// The witness tree, when the outcome carries one.
    pub fn witness_tree(&self) -> Option<&Tree> {
        match self {
            Outcome::Rearranging { witness }
            | Outcome::NotPreserving { witness }
            | Outcome::NonConforming { witness } => Some(witness),
            _ => None,
        }
    }
}

impl From<CheckReport> for Outcome {
    fn from(r: CheckReport) -> Self {
        match r {
            CheckReport::TextPreserving => Outcome::Preserving,
            CheckReport::Copying { path } => Outcome::Copying { path },
            CheckReport::Rearranging { witness } => Outcome::Rearranging { witness },
        }
    }
}

/// Instrumentation for one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stage name, e.g. `"topdown/schema"` or `"dtl/counterexample"`.
    pub stage: &'static str,
    /// Wall-clock time spent in this stage by *this* check. A cache hit
    /// reports the (near-zero) lookup time, not the original compile time.
    pub duration: Duration,
    /// Size of the artifact the stage produced (states + transitions), when
    /// the stage produces one.
    pub artifact_size: Option<usize>,
    /// Whether the artifact came out of the cache (`Some(true)`), was built
    /// by this check (`Some(false)`), or the stage is uncached (`None`).
    ///
    /// In a batch ([`crate::Engine::check_many_governed`]) the attribution is
    /// deterministic: the scheduler prefetches every declared stage before
    /// the check runs, so the miss belongs to the prefetch task and the
    /// check itself reports a hit — identically on 1 or N workers.
    pub cache_hit: Option<bool>,
    /// Fuel charged by this stage under a governed check (`None` when the
    /// check ran ungoverned). Cache hits report `Some(0)`: the fuel was
    /// spent by whoever built the artifact.
    pub fuel: Option<u64>,
}

/// Per-check statistics: one [`StageReport`] per pipeline stage, in
/// execution order.
#[derive(Clone, Debug, Default)]
pub struct CheckStats {
    /// The stages, in the order they ran.
    pub stages: Vec<StageReport>,
}

impl CheckStats {
    /// Total wall-clock time across all stages.
    pub fn total_duration(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Looks a stage up by name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Total fuel charged across all stages (0 when ungoverned).
    pub fn total_fuel(&self) -> u64 {
        self.stages.iter().filter_map(|s| s.fuel).sum()
    }

    /// How many stages were served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.cache_hit == Some(true))
            .count()
    }

    /// How many stages this check had to build itself (cache misses).
    pub fn cache_misses(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.cache_hit == Some(false))
            .count()
    }
}

/// The structured verdict of a check: the decision plus the stage-level
/// account of how it was computed.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Which decider produced this verdict (`"topdown"`, `"dtl"`,
    /// `"topdown/retention"`, `"topdown/conformance"`).
    pub decider: &'static str,
    /// Which analysis the verdict answers (text-preservation,
    /// text-retention, conformance).
    pub analysis: Analysis,
    /// The decision and witness.
    pub outcome: Outcome,
    /// Per-stage timings, artifact sizes and cache attribution.
    pub stats: CheckStats,
    /// `Some(bound)` when the symbolic pipeline exhausted its budget and
    /// this verdict came from the bounded-enumeration fallback instead —
    /// sound for `NotPreserving`, but `Preserving` then only means "no
    /// counter-example within the bound".
    pub degraded: Option<DegradeBound>,
}

impl Verdict {
    /// Whether the transformation is text-preserving.
    pub fn is_preserving(&self) -> bool {
        self.outcome.is_preserving()
    }

    /// Whether this verdict came from the degraded (bounded) fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_conversions_and_queries() {
        let o: Outcome = CheckReport::TextPreserving.into();
        assert!(o.is_preserving());
        assert!(o.witness_tree().is_none());
        let o: Outcome = CheckReport::Copying { path: vec![] }.into();
        assert!(!o.is_preserving());
    }

    #[test]
    fn stats_aggregate() {
        let stats = CheckStats {
            stages: vec![
                StageReport {
                    stage: "a",
                    duration: Duration::from_millis(2),
                    artifact_size: Some(10),
                    cache_hit: Some(true),
                    fuel: Some(0),
                },
                StageReport {
                    stage: "b",
                    duration: Duration::from_millis(3),
                    artifact_size: None,
                    cache_hit: None,
                    fuel: Some(7),
                },
            ],
        };
        assert_eq!(stats.total_duration(), Duration::from_millis(5));
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(stats.stage("b").unwrap().artifact_size, None);
        assert_eq!(stats.total_fuel(), 7);
    }
}
