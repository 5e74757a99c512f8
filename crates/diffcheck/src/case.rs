//! Replayable divergence cases.
//!
//! A [`Case`] is a self-contained, serializable description of one
//! differential check: a schema (as its DTD declaration sources, so it can
//! be shrunk declaration-by-declaration), at most one transducer (top-down
//! or DTL), and optionally one input tree. Together with a
//! [`DivergenceKind`] it replays through [`crate::recheck`] — the fuzzer
//! records cases that reproduce, the shrinker minimizes them, and the
//! regression suite asserts they *no longer* reproduce once fixed.

use tpx_dtl::{DtlTransducer, XPathPatterns};
use tpx_schema::{Dtd, DtdBuilder};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{Alphabet, Tree};

/// A replayable description of a random DTL program: the generator seed,
/// the state count, and the suppressed rule-addition indices. Regenerating
/// through [`tpx_workload::random_dtl_with_drops`] with these parameters
/// reproduces the exact program, so a case file never has to serialize DTL
/// rule bodies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DtlSpec {
    /// Generator seed.
    pub seed: u64,
    /// Number of DTL states.
    pub n_states: usize,
    /// Generation-order indices of suppressed rule additions (the
    /// shrinker's unit of deletion).
    pub drops: Vec<usize>,
}

impl DtlSpec {
    /// Regenerates the program over `alpha`.
    pub fn program(&self, alpha: &Alphabet) -> DtlTransducer<XPathPatterns> {
        tpx_workload::random_dtl_with_drops(alpha, self.n_states, self.seed, &self.drops).0
    }

    /// The total number of rule additions the generator attempts (the
    /// valid index range for `drops`).
    pub fn total_ops(&self, alpha: &Alphabet) -> usize {
        tpx_workload::random_dtl_with_drops(alpha, self.n_states, self.seed, &[]).1
    }
}

/// A replayable description of a random fragment stylesheet: just the
/// generator seed. Regenerating through
/// [`tpx_workload::fragment_stylesheet`] over the case's alphabet
/// reproduces both the stylesheet source and the ground-truth transducer
/// the XSLT frontend is checked against, so a case file never has to
/// serialize stylesheet text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XsltSpec {
    /// Generator seed.
    pub seed: u64,
}

impl XsltSpec {
    /// Regenerates the stylesheet source over `alpha`.
    pub fn stylesheet(&self, alpha: &Alphabet) -> String {
        tpx_workload::fragment_stylesheet(alpha, self.seed).0
    }

    /// Regenerates the ground-truth direct translation over `alpha`.
    pub fn expected(&self, alpha: &Alphabet) -> Transducer {
        tpx_workload::fragment_stylesheet(alpha, self.seed).1
    }
}

/// One differential check, fully materialized for replay.
///
/// Exactly one of `transducer` / `dtl` / `xslt` is expected to be set (a
/// case pins one decision pipeline); `tree` is present for the per-tree
/// divergence kinds and absent for purely symbolic ones.
#[derive(Clone, Debug)]
pub struct Case {
    /// The label alphabet shared by the schema, transducer, and tree.
    pub alpha: Alphabet,
    /// DTD start symbols.
    pub starts: Vec<String>,
    /// DTD `(element, content model)` declarations, in source order.
    pub decls: Vec<(String, String)>,
    /// The top-down transducer under test, if this is a top-down case.
    pub transducer: Option<Transducer>,
    /// The DTL program under test, if this is a DTL case.
    pub dtl: Option<DtlSpec>,
    /// The fragment stylesheet under test, if this is an XSLT-frontend
    /// case (the transducer under test is the *compiled* stylesheet,
    /// cross-checked against [`XsltSpec::expected`]).
    pub xslt: Option<XsltSpec>,
    /// The input tree the divergence was observed on, if per-tree.
    pub tree: Option<Tree>,
    /// The selected labels of a text-retention case (label names, resolved
    /// against `alpha` at replay time). Empty for every other analysis.
    pub labels: Vec<String>,
}

impl Case {
    /// Builds the schema DTD from the current declarations.
    pub fn schema_dtd(&self) -> Dtd {
        let mut b = DtdBuilder::new(&self.alpha);
        for s in &self.starts {
            b.start(s);
        }
        for (name, content) in &self.decls {
            b.elem(name, content);
        }
        b.finish()
    }

    /// The schema as an NTA.
    pub fn schema_nta(&self) -> Nta {
        self.schema_dtd().to_nta()
    }

    /// Regenerates the DTL program, if this is a DTL case.
    pub fn dtl_program(&self) -> Option<DtlTransducer<XPathPatterns>> {
        self.dtl.as_ref().map(|spec| spec.program(&self.alpha))
    }
}

/// The class of disagreement a differential check can surface. Every kind
/// names two independent computations of the same fact; a case of that kind
/// is a concrete input on which they differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DivergenceKind {
    /// The symbolic decider says *preserving*, but the per-tree semantic
    /// oracle found a schema tree on which text-preservation fails.
    PreservingButViolates,
    /// The symbolic decider's witness is outside the schema language or is
    /// not re-confirmed by the per-tree oracles.
    WitnessInvalid,
    /// The bounded-enumeration baseline and the symbolic decider disagree
    /// (in either direction, where the enumeration is conclusive).
    BoundedContradictsSymbolic,
    /// The Section 5.1 top-down→DTL translation produces a different output
    /// than the top-down transducer itself on some tree.
    TranslationDisagrees,
    /// The Lemma 5.4/5.5 configuration-graph checks disagree with the
    /// direct semantic oracles (transform + inspect output) on some tree.
    DtlLemmaVsOperational,
    /// A generated DTL program (deterministic and terminating by
    /// construction) raised a [`tpx_dtl::DtlError`].
    DtlTransformError,
    /// A symbolic decider failed on a generated instance for a reason other
    /// than budget exhaustion (a panic, or an internal error) — a bug in
    /// the decider itself, isolated by the engine's `catch_unwind`.
    DeciderError,
    /// The symbolic text-retention decider disagrees with the bounded
    /// per-tree semantic oracle: it says *retains* while some schema tree
    /// has a deleted text value below a selected label, or its deleted-path
    /// witness does not validate.
    RetentionDisagrees,
    /// The XSLT frontend disagrees with the ground-truth direct translation
    /// of a generated fragment stylesheet: the compile fails (or reports
    /// diagnostics, or widens the alphabet) on a stylesheet that is inside
    /// the fragment by construction, the compiled transducer transforms a
    /// schema tree differently than the expected one, or the two
    /// transducers get different symbolic text-preservation verdicts.
    XsltCompileDisagrees,
}

impl DivergenceKind {
    /// Stable name used in case files and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::PreservingButViolates => "preserving-but-violates",
            DivergenceKind::WitnessInvalid => "witness-invalid",
            DivergenceKind::BoundedContradictsSymbolic => "bounded-contradicts-symbolic",
            DivergenceKind::TranslationDisagrees => "translation-disagrees",
            DivergenceKind::DtlLemmaVsOperational => "dtl-lemma-vs-operational",
            DivergenceKind::DtlTransformError => "dtl-transform-error",
            DivergenceKind::DeciderError => "decider-error",
            DivergenceKind::RetentionDisagrees => "retention-disagrees",
            DivergenceKind::XsltCompileDisagrees => "xslt-compile-disagrees",
        }
    }

    /// Every kind, for iteration and parsing.
    pub const ALL: [DivergenceKind; 9] = [
        DivergenceKind::PreservingButViolates,
        DivergenceKind::WitnessInvalid,
        DivergenceKind::BoundedContradictsSymbolic,
        DivergenceKind::TranslationDisagrees,
        DivergenceKind::DtlLemmaVsOperational,
        DivergenceKind::DtlTransformError,
        DivergenceKind::DeciderError,
        DivergenceKind::RetentionDisagrees,
        DivergenceKind::XsltCompileDisagrees,
    ];
}

impl std::str::FromStr for DivergenceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| format!("unknown divergence kind {s:?}"))
    }
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::budget::BudgetHandle;

    #[test]
    fn kind_names_round_trip() {
        for kind in DivergenceKind::ALL {
            assert_eq!(kind.as_str().parse::<DivergenceKind>().unwrap(), kind);
        }
        assert!("bogus".parse::<DivergenceKind>().is_err());
    }

    #[test]
    fn dtl_spec_regenerates_the_same_program() {
        let alpha = tpx_trees::Alphabet::from_labels(["a0", "a1"]);
        let spec = DtlSpec {
            seed: 9,
            n_states: 2,
            drops: vec![],
        };
        let a = spec.program(&alpha);
        let b = spec.program(&alpha);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(spec.total_ops(&alpha) > 0);
    }

    #[test]
    fn case_builds_its_schema() {
        let case = Case {
            alpha: tpx_trees::Alphabet::from_labels(["a0", "a1"]),
            starts: vec!["a0".to_owned()],
            decls: vec![
                ("a0".to_owned(), "a1*".to_owned()),
                ("a1".to_owned(), "text".to_owned()),
            ],
            transducer: None,
            dtl: None,
            xslt: None,
            tree: None,
            labels: Vec::new(),
        };
        assert!(!case
            .schema_nta()
            .is_empty(&BudgetHandle::unlimited())
            .unwrap());
    }
}
