//! # `tpx-dtl`: DTL — the XSLT abstraction (Section 5)
//!
//! DTL is a rule-based transformation language parameterized by a pattern
//! language: rules `(q, φ) → h` fire at nodes satisfying the unary pattern
//! `φ`, and state leaves `(q', α)` in the right-hand side `h` are replaced
//! by configurations `(q', v₁)⋯(q', vₘ)` over the nodes selected by the
//! binary pattern `α`, in document order (Definition 5.1).
//!
//! Modules:
//!
//! * [`pattern`] — the pattern-language abstraction and its two paper
//!   instantiations: Core XPath ([`XPathPatterns`]) and MSO
//!   ([`MsoPatterns`]);
//! * [`transducer`] — DTL transducers, the rewriting relation `⇒_{T,t}`,
//!   termination and determinism detection, and the translation of every
//!   top-down uniform transducer into DTL (end of Section 5.1);
//! * [`config`] — per-tree configuration graphs, path runs and text path
//!   runs; the operational characterizations of copying (Lemma 5.4) and
//!   rearranging (Lemma 5.5) checked directly on a tree; semantic oracles;
//! * [`xpath_mso`] — the translation of Core XPath into MSO (node
//!   expressions to unary formulas, path expressions to binary formulas);
//! * [`reach`] — the MSO-definable configuration reachability
//!   `(q, v) ;* (q', v')` (the workhorse standing in for the paper's
//!   TJA→TWA→NTA chain; see DESIGN.md, substitution 1);
//! * [`decide`] — the symbolic deciders: Theorem 5.12 (DTL_MSO) and
//!   Theorem 5.18 (DTL_XPath) via compilation of the Section 5.3
//!   counter-example conditions to tree automata, plus the maximal
//!   sub-schema (paper conclusion);
//! * [`tja`] — nondeterministic tree-jumping automata with MSO transitions
//!   (Definition 5.7), semantic runs, and their compiled regular languages
//!   (Corollary 5.9);
//! * [`atwa`] — two-way alternating tree-walking automata over encodings,
//!   per-tree acceptance via game solving, and the TJA_XPath → 2ATWA
//!   translation (Lemma 5.16);
//! * [`bounded`] — the bounded-enumeration baseline decider (exponential;
//!   the comparator for experiments E4/E5);
//! * [`samples`] — Example 5.15.
//!
//! Every operation that can blow up (products, subset constructions,
//! saturations, inclusion and witness searches) takes a `&BudgetHandle`
//! (from `tpx_trees::budget`) and returns a `Result`, and the stage
//! functions that emit sub-spans also take a `&Tracer`; each exists once,
//! under its plain name. Callers without limits pass `&BudgetHandle::unlimited()`
//! and `Tracer::disabled_ref()`.

pub mod atwa;
pub mod bounded;
pub mod config;
pub mod decide;
pub mod pattern;
pub mod reach;
pub mod samples;
pub mod tja;
pub mod transducer;
pub mod xpath_mso;

pub use decide::{
    compile_counterexample, compile_schema_nbta, dtl_maximal_subschema, dtl_maximal_subschema_with,
    dtl_text_preserving, dtl_text_preserving_with, DtlCheckReport, DtlDecideError,
    DtlSchemaArtifacts, DtlTransducerArtifacts,
};
pub use pattern::{MsoPatterns, PatternLanguage, XPathPatterns};
pub use transducer::{from_topdown, DtlBuilder, DtlError, DtlState, DtlTransducer, Rhs};
