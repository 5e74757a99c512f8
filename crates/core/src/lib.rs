//! # `textpres`: text-preserving XML transformations
//!
//! A full implementation of *"The Complexity of Text-Preserving XML
//! Transformations"* (Antonopoulos, Martens, Neven; PODS 2011).
//!
//! An XML transformation is **text-preserving** over a set of documents
//! when, for every document, the text content of the output is a
//! *subsequence* of the text content of the input — the markup may change
//! and text may be dropped, but nothing is copied or reordered
//! (Definition 2.2 / Theorem 3.3). This crate decides that property:
//!
//! * in PTIME for top-down uniform tree transducers against
//!   Relax-NG-strength schemas ([`check_topdown`], Theorem 4.11),
//! * for DTL (the XSLT abstraction) with Core XPath patterns
//!   ([`check_dtl`], Theorem 5.18) and MSO patterns (Theorem 5.12),
//! * and computes the *maximal sub-schema* on which a transformation is
//!   text-preserving ([`topdown::maximal_subschema`],
//!   [`dtl::dtl_maximal_subschema`]; paper conclusion).
//!
//! ## Quick start
//!
//! ```
//! use textpres::prelude::*;
//!
//! // Σ, a schema (as a DTD), and a transformation.
//! let mut sigma = Alphabet::from_labels(["doc", "keep", "drop"]);
//! let mut dtd = DtdBuilder::new(&sigma);
//! dtd.start("doc");
//! dtd.elem("doc", "(keep | drop)*");
//! dtd.elem("keep", "text");
//! dtd.elem("drop", "text");
//! let dtd = dtd.finish();
//!
//! // Keep `keep` elements (with text), delete `drop` subtrees.
//! let mut t = TransducerBuilder::new(&sigma, "q0");
//! t.rule("q0", "doc", "doc(q)");
//! t.rule("q", "keep", "keep(qt)");
//! t.text_rule("qt");
//! let t = t.finish();
//!
//! // Decide text-preservation over the schema (PTIME, Theorem 4.11).
//! let report = textpres::check_topdown(&t, &dtd.to_nta());
//! assert!(report.is_preserving());
//!
//! // And it really is: run it.
//! let mut doc = sigma.clone();
//! let input = tpx_trees::term::parse_tree(
//!     r#"doc(keep("hello") drop("secret") keep("world"))"#, &mut doc).unwrap();
//! let output = t.transform(&input);
//! assert_eq!(output.text_content(), vec!["hello", "world"]);
//! ```

pub use tpx_automata as automata;
pub use tpx_diffcheck as diffcheck;
pub use tpx_dtl as dtl;
pub use tpx_engine as engine;
pub use tpx_mso as mso;
pub use tpx_obs as obs;
pub use tpx_schema as schema;
pub use tpx_topdown as topdown;
pub use tpx_treeauto as treeauto;
pub use tpx_trees as trees;
pub use tpx_xpath as xpath;
pub use tpx_xslt as xslt;

use tpx_treeauto::Nta;

pub mod format;
pub mod frontend;
pub mod serve;

/// Frequently used types, re-exported for `use textpres::prelude::*`.
pub mod prelude {
    pub use tpx_dtl::{DtlBuilder, DtlTransducer, MsoPatterns, XPathPatterns};
    pub use tpx_schema::{Dtd, DtdBuilder};
    pub use tpx_topdown::{CheckReport, Transducer, TransducerBuilder};
    pub use tpx_treeauto::{Nta, NtaBuilder};
    pub use tpx_trees::{Alphabet, Hedge, HedgeBuilder, NodeLabel, Symbol, Tree};
    pub use tpx_xpath::{NodeExpr, PathExpr};
}

/// Decides in PTIME whether the top-down uniform transducer `t` is
/// text-preserving over `L(schema)` (Theorem 4.11), with a diagnostic
/// witness otherwise.
///
/// Delegates to the decision engine ([`engine::Engine`]) with no resource
/// limits; batch callers that want artifact reuse, parallelism or a budget
/// should hold an `Engine` and use [`engine::Engine::check_governed`] or
/// [`engine::Engine::check_many_governed`] directly.
pub fn check_topdown(t: &tpx_topdown::Transducer, schema: &Nta) -> tpx_topdown::CheckReport {
    let verdict = tpx_engine::Engine::new()
        .check_governed(
            &tpx_engine::TopdownDecider::new(t),
            schema,
            &tpx_engine::CheckOptions::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    match verdict.outcome {
        tpx_engine::Outcome::Preserving => tpx_topdown::CheckReport::TextPreserving,
        tpx_engine::Outcome::Copying { path } => tpx_topdown::CheckReport::Copying { path },
        tpx_engine::Outcome::Rearranging { witness } => {
            tpx_topdown::CheckReport::Rearranging { witness }
        }
        tpx_engine::Outcome::NotPreserving { .. }
        | tpx_engine::Outcome::DeletesText { .. }
        | tpx_engine::Outcome::NonConforming { .. } => {
            unreachable!("the topdown decider attributes every witness")
        }
    }
}

/// Decides whether a DTL transducer (XPath or MSO patterns) is
/// text-preserving over `L(schema)` (Theorems 5.12 / 5.18).
///
/// Delegates to the decision engine ([`engine::Engine`]) with no resource
/// limits, like [`check_topdown`].
pub fn check_dtl<P>(t: &tpx_dtl::DtlTransducer<P>, schema: &Nta) -> tpx_dtl::DtlCheckReport
where
    P: tpx_dtl::pattern::MsoDefinable,
    tpx_dtl::DtlTransducer<P>: std::fmt::Debug + Sync,
{
    let verdict = tpx_engine::Engine::new()
        .check_governed(
            &tpx_engine::DtlDecider::new(t),
            schema,
            &tpx_engine::CheckOptions::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    match verdict.outcome {
        tpx_engine::Outcome::NotPreserving { witness }
        | tpx_engine::Outcome::Rearranging { witness } => {
            tpx_dtl::DtlCheckReport::NotPreserving { witness }
        }
        _ => tpx_dtl::DtlCheckReport::Preserving,
    }
}

/// Checks text-preservation of a single concrete transformation run
/// (Definition 2.2): output text is a subsequence of input text.
pub fn is_text_preserving_run(input: &tpx_trees::Tree, output: &tpx_trees::Hedge) -> bool {
    tpx_trees::is_subsequence(&output.text_content(), &input.text_content())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_end_to_end_on_the_paper_example() {
        let mut sigma = tpx_trees::samples::recipe_alphabet();
        let schema = tpx_schema::samples::recipe_dtd(&sigma).to_nta();
        let t = tpx_topdown::samples::example_4_2(&sigma);
        assert!(super::check_topdown(&t, &schema).is_preserving());
        let input = tpx_trees::samples::recipe_tree(&mut sigma);
        let output = t.transform(&input);
        assert!(super::is_text_preserving_run(&input, &output));
    }

    #[test]
    fn facade_detects_violations() {
        let sigma = tpx_trees::samples::recipe_alphabet();
        let schema = tpx_schema::samples::recipe_dtd(&sigma).to_nta();
        let copying = tpx_topdown::samples::copying_example(&sigma);
        assert!(!super::check_topdown(&copying, &schema).is_preserving());
        let max = tpx_topdown::maximal_subschema(
            &copying,
            &schema,
            &tpx_trees::budget::BudgetHandle::unlimited(),
        )
        .unwrap();
        // The copying transducer duplicates description text, which every
        // recipe has — so no recipe with a recipe child survives, but the
        // empty recipes document does.
        let mut al = sigma.clone();
        let empty = tpx_trees::term::parse_tree("recipes", &mut al).unwrap();
        assert!(max.accepts(&empty));
        let _ = CheckReport::TextPreserving; // prelude smoke-use
    }
}
