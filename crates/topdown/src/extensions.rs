//! The conclusion's stronger tests: beyond text-preservation, require that
//! the transformation *never deletes* text values below nodes with selected
//! labels (the paper's example: never delete text under `instructions`).
//!
//! A text value at node `v` is output by `T` iff `T` has a path run on
//! `anc-str(v)` — i.e. iff `anc-str(v) ∈ L(A_T)`. So "`T` deletes some text
//! under a `σ`-node on some schema tree" reduces to non-emptiness of
//! `L(A_N) ∩ through-σ ∩ complement(L(A_T))`, entirely within the path
//! automata of Lemma 4.8. Rather than determinizing and complementing
//! `A_T` eagerly, the staged pipeline phrases the same question as an
//! inclusion — is `L(A_N ∩ through-σ) ⊆ L(A_T)`? — and answers it with
//! the word-level antichain procedure (`Nfa::inclusion_counterexample`,
//! the string twin of DESIGN.md §13's tree layer), whose breadth-first
//! counterexample is exactly a shortest deleted text path.
//!
//! The *text-retention* analysis of the engine layer
//! (`TextRetentionDecider`) is a thin governed wrapper around
//! [`deleted_text_under_with`]: the schema side reuses the cached
//! [`SchemaArtifacts`] (which carry the hoisted path alphabet), the
//! transducer side is just `A_T`.

use crate::decide::SchemaArtifacts;
use crate::paths::{path_automaton_transducer, PathSym};
use crate::transducer::Transducer;
use tpx_automata::Nfa;
use tpx_treeauto::Nta;
use tpx_trees::budget::{BudgetExceeded, BudgetHandle};
use tpx_trees::Symbol;

/// The transducer-side artifact of the text-retention analysis: the path
/// automaton `A_T` (Lemma 4.8(2)). Independent of the schema *and* of the
/// selected labels, so the engine layer caches it per transducer and
/// shares it across every retention query.
#[derive(Clone, Debug)]
pub struct RetentionArtifacts {
    /// `A_T`, the transducer path automaton.
    pub a_t: Nfa<PathSym>,
}

impl RetentionArtifacts {
    /// Total size of the compiled artifact (states + transitions).
    pub fn size(&self) -> usize {
        self.a_t.size()
    }
}

/// Compiles the transducer-side retention artifact.
///
/// Charges one fuel unit per state and transition of `A_T`.
pub fn compile_retention_artifacts(
    t: &Transducer,
    budget: &BudgetHandle,
) -> Result<RetentionArtifacts, BudgetExceeded> {
    budget.charge(1)?;
    let a_t = path_automaton_transducer(t);
    budget.charge(a_t.size() as u64)?;
    Ok(RetentionArtifacts { a_t })
}

/// The decision stage of the text-retention analysis, over precompiled
/// artifacts: a shortest text path of the schema passing through one of
/// `labels` whose value `T` deletes, or `None` when `T` keeps every such
/// value. The product and the antichain inclusion search both run under
/// the caller's budget.
pub fn deleted_text_under_with(
    schema: &SchemaArtifacts,
    retention: &RetentionArtifacts,
    labels: &[Symbol],
    budget: &BudgetHandle,
) -> Result<Option<Vec<PathSym>>, BudgetExceeded> {
    budget.charge(1)?;
    let through = through_labels(labels, &schema.path_alphabet);
    budget.charge(through.size() as u64)?;
    let constrained = schema.a_n.intersect(&through, budget)?;
    constrained.inclusion_counterexample(&retention.a_t, budget)
}

/// If some schema tree has a text node below a node labelled with one of
/// `labels` whose value `t` deletes, returns that text path as a witness.
/// `None` means `t` never deletes text under those labels, over `L(nta)`.
///
/// Convenience wrapper compiling both artifact sides eagerly; the engine's
/// `TextRetentionDecider` caches them instead.
pub fn deleted_text_under(t: &Transducer, nta: &Nta, labels: &[Symbol]) -> Option<Vec<PathSym>> {
    let unlimited = BudgetHandle::unlimited();
    let schema =
        crate::decide::compile_schema_artifacts(nta, &unlimited).expect("unlimited budget");
    let retention = compile_retention_artifacts(t, &unlimited).expect("unlimited budget");
    deleted_text_under_with(&schema, &retention, labels, &unlimited).expect("unlimited budget")
}

/// Whether `t` both is text-preserving over `L(nta)` and never deletes text
/// under the given labels — the paper's combined "more flexible test".
pub fn text_preserving_and_keeps(t: &Transducer, nta: &Nta, labels: &[Symbol]) -> bool {
    crate::decide::is_text_preserving(t, nta).is_preserving()
        && deleted_text_under(t, nta, labels).is_none()
}

/// NFA accepting path words that pass through one of `labels`.
fn through_labels(labels: &[Symbol], alphabet: &[PathSym]) -> Nfa<PathSym> {
    let mut nfa: Nfa<PathSym> = Nfa::new();
    let s0 = nfa.add_state();
    let s1 = nfa.add_state();
    nfa.set_initial(s0);
    nfa.set_final(s1, true);
    for a in alphabet {
        nfa.add_transition(s0, *a, s0);
        nfa.add_transition(s1, *a, s1);
    }
    for &l in labels {
        nfa.add_transition(s0, PathSym::Elem(l), s1);
    }
    nfa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::path_automaton_nta;
    use crate::samples;
    use tpx_schema::samples::recipe_dtd;
    use tpx_trees::budget::{Budget, ExhaustReason};
    use tpx_trees::samples::recipe_alphabet;

    #[test]
    fn example_4_2_keeps_instructions_but_deletes_comments() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::example_4_2(&al);
        // Never deletes under instructions (it only strips item markup).
        assert!(deleted_text_under(&t, &nta, &[al.sym("instructions")]).is_none());
        assert!(deleted_text_under(&t, &nta, &[al.sym("ingredients")]).is_none());
        // But deletes everything under comments.
        let w = deleted_text_under(&t, &nta, &[al.sym("comments")]).unwrap();
        assert_eq!(*w.last().unwrap(), PathSym::Text);
        assert!(w.contains(&PathSym::Elem(al.sym("comments"))));
        // Combined test.
        assert!(text_preserving_and_keeps(
            &t,
            &nta,
            &[al.sym("instructions")]
        ));
        assert!(!text_preserving_and_keeps(&t, &nta, &[al.sym("comments")]));
    }

    #[test]
    fn witness_is_a_real_schema_path() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::example_4_2(&al);
        let w = deleted_text_under(&t, &nta, &[al.sym("comments")]).unwrap();
        assert!(path_automaton_nta(&nta).accepts(&w));
        assert!(!path_automaton_transducer(&t).accepts(&w));
    }

    #[test]
    fn staged_pipeline_matches_wrapper_and_respects_budget() {
        let al = recipe_alphabet();
        let nta = recipe_dtd(&al).to_nta();
        let t = samples::example_4_2(&al);
        let unlimited = BudgetHandle::unlimited();
        let schema = crate::decide::compile_schema_artifacts(&nta, &unlimited).unwrap();
        let retention = compile_retention_artifacts(&t, &BudgetHandle::unlimited()).unwrap();
        for label in ["instructions", "ingredients", "comments"] {
            let labels = [al.sym(label)];
            let staged = deleted_text_under_with(&schema, &retention, &labels, &unlimited).unwrap();
            let eager = deleted_text_under(&t, &nta, &labels);
            assert_eq!(staged.is_some(), eager.is_some(), "{label}");
        }
        // Fuel is actually charged, and a zero budget fails fast.
        let gen = Budget::default().with_fuel(1_000_000).start();
        deleted_text_under_with(&schema, &retention, &[al.sym("comments")], &gen).unwrap();
        assert!(gen.fuel_spent() > 0);
        let z = Budget::default().with_fuel(0).start();
        let err = deleted_text_under_with(&schema, &retention, &[al.sym("comments")], &z)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
        let err = compile_retention_artifacts(&t, &z).map(|_| ()).unwrap_err();
        assert_eq!(err.reason, ExhaustReason::Fuel);
    }
}
