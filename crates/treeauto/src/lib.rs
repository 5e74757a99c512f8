//! # `tpx-treeauto`: tree automata over unranked text trees
//!
//! Implements the automata backbone of the paper:
//!
//! * [`nta`] — nondeterministic unranked tree automata (NTAs) exactly as in
//!   Section 2: `δ : Q × (Σ ⊎ {text}) → REG(Q)` with content models given
//!   as NFAs; runs, PTIME membership, emptiness with witness extraction,
//!   intersection, union and trimming.
//! * [`nbta`] — nondeterministic bottom-up *binary* tree automata over
//!   ranked alphabets (arities 0 and 2), with determinization, completion,
//!   complement, product, union, relabelling and emptiness. These run on the
//!   first-child/next-sibling encodings from `tpx_trees::encode` and power
//!   both the MSO compiler and complementation of unranked languages.
//! * [`convert`] — the polynomial translations NTA → NBTA and NBTA → NTA
//!   over encodings, plus the derived Boolean operations on unranked
//!   regular tree languages (complement, difference) used for the maximal
//!   sub-schema constructions (paper conclusion).
//! * [`inclusion`] — the lazy decision layer: antichain-pruned inclusion
//!   `Nbta::included_in` and early-exit product witness
//!   `Nbta::intersect_witness` that never materialize the determinized
//!   complement (DESIGN.md §13).
//! * [`ranked`] — a small ranked-tree value type for NBTA witnesses.
//!
//! Every operation that can blow up (products, subset constructions,
//! saturations, inclusion and witness searches) takes a `&BudgetHandle`
//! (from `tpx_trees::budget`) and returns a `Result`; it exists once, under
//! its plain name. Callers without limits pass `&BudgetHandle::unlimited()`.

pub mod convert;
pub mod inclusion;
pub mod nbta;
pub mod nta;
pub mod ranked;

pub use convert::{
    complement_nta, difference_nta, language_equal, nbta_to_nta, nta_to_nbta, subset_nta, EncSym,
};
pub use nbta::{Dbta, Nbta};
pub use nta::{Nta, NtaBuilder, Run, State};
pub use ranked::RankedTree;
