//! # `tpx-topdown`: top-down uniform tree transducers (Section 4)
//!
//! The simple XSLT fragment of Martens–Neven: rules `(q, a) → h` with
//! `h ∈ Hedges_Σ(Q)`, evaluated top-down with every state leaf `p` replaced
//! by `T^p(t₁)⋯T^p(tₙ)`; text leaves are either output verbatim (when the
//! rule `(q, text) → text` exists) or deleted.
//!
//! This crate contains the paper's first headline result chain:
//!
//! * [`transducer`] — Definition 4.1, evaluation, reduction, Example 4.2;
//! * [`semantic`] — per-tree oracles for copying / rearranging /
//!   text-preservation (Definitions 2.2 and 3.1, Theorem 3.3);
//! * [`paths`] — the path automaton `A_N` of a schema and the transducer
//!   path automaton `A_T` (Lemma 4.8), both polynomial;
//! * [`decide`] — the PTIME deciders: copying (Lemma 4.9, via an NFA
//!   product), rearranging (Lemma 4.10, via an NTA construction), and
//!   text-preservation (Theorem 4.11);
//! * [`subschema`] — the regular language of counter-examples and the
//!   maximal sub-schema on which `T` is text-preserving (paper conclusion);
//! * [`extensions`] — the conclusion's stronger tests ("never deletes text
//!   below a node labelled σ").
//!
//! Every operation that can blow up (products, subset constructions,
//! saturations, inclusion and witness searches) takes a `&BudgetHandle`
//! (from `tpx_trees::budget`) and returns a `Result`, and the stage
//! functions that emit sub-spans also take a `&Tracer`; each exists once,
//! under its plain name. Callers without limits pass `&BudgetHandle::unlimited()`
//! and `Tracer::disabled_ref()`.

pub mod conformance;
pub mod decide;
pub mod extensions;
pub mod paths;
pub mod samples;
pub mod semantic;
pub mod subschema;
pub mod transducer;

pub use conformance::{
    compile_conformance_artifacts, conformance_witness, conformance_witness_with, conforms_on,
    hedge_conforms, output_conforms, ConformanceArtifacts,
};
pub use decide::{
    compile_copy_artifacts, compile_schema_artifacts, compile_transducer_artifacts,
    copying_witness_with, is_text_preserving, is_text_preserving_with, rearranging_witness_with,
    CheckReport, CopyArtifacts, SchemaArtifacts, TransducerArtifacts,
};
pub use paths::{path_automaton_nta, path_automaton_transducer, PathSym};
pub use subschema::{counterexample_language, maximal_subschema};
pub use transducer::{RhsNode, TdState, Transducer, TransducerBuilder};
