//! E6 — the non-elementary remark of Section 5.3: MSO compilation time as
//! quantifier alternation depth grows, plus the DTL_MSO decider end to end.
//!
//! The paper notes that deciding text-preservation for DTL_MSO is
//! non-elementary (each quantifier alternation can cost an exponential).
//! We sweep the alternation depth of a compiled sentence; expected shape:
//! each added `∀∃` block multiplies the cost, with the blow-up visible
//! already at depth 3.
//!
//! Hand-rolled timing (single-shot, potentially multi-second operations).

use std::time::Instant;
use textpres::engine::BudgetHandle;
use textpres::mso::{compile_sentence, Formula, VarGen};
use textpres::prelude::*;

/// A sentence with `depth` alternating quantifier blocks over a chain of
/// child steps.
fn alternating_sentence(alpha: &Alphabet, depth: usize) -> Formula {
    let mut gen = VarGen::new();
    let vars: Vec<_> = (0..depth.max(1)).map(|_| gen.var()).collect();
    let mut body = Formula::Lab(alpha.sym("a"), vars[0]);
    for w in vars.windows(2) {
        body = body.and(Formula::Child(w[0], w[1]).or(Formula::IsText(w[1])));
    }
    let mut out = body;
    for (i, &v) in vars.iter().enumerate().rev() {
        out = if i % 2 == 0 {
            Formula::forall(v, out)
        } else {
            Formula::exists(v, out)
        };
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test" || a == "--list") {
        println!("e6_dtl_mso: manual harness (no #[test] entries)");
        return;
    }
    let alpha = Alphabet::from_labels(["a", "b"]);

    println!("e6/mso_compile_vs_alternation (Thatcher–Wright compilation)");
    for depth in [1usize, 2, 3] {
        let phi = alternating_sentence(&alpha, depth);
        let start = Instant::now();
        let a = compile_sentence(&phi, alpha.len(), &BudgetHandle::unlimited()).unwrap();
        println!(
            "  alternation depth {depth}: {:.3} s (formula size {}, automaton states {})",
            start.elapsed().as_secs_f64(),
            phi.size(),
            a.state_count()
        );
    }

    println!("e6/dtl_mso_decider (Theorem 5.12 end to end)");
    {
        use textpres::dtl::pattern::MsoPatterns;
        use textpres::dtl::transducer::{DtlState, DtlTransducer, Rhs};
        let schema = tpx_bench::universal(&alpha);
        let mut t = DtlTransducer::new(MsoPatterns, 1, DtlState(0));
        let child = t.add_binary_pattern(Formula::Child(MsoPatterns::HOLE_X, MsoPatterns::HOLE_Y));
        t.add_rule(
            DtlState(0),
            Formula::Lab(alpha.sym("a"), MsoPatterns::HOLE_X),
            vec![Rhs::Elem(
                alpha.sym("a"),
                vec![Rhs::Call(DtlState(0), child)],
            )],
        );
        t.set_text_rule(DtlState(0), true);
        let start = Instant::now();
        let verdict = textpres::check_dtl(&t, &schema).is_preserving();
        println!(
            "  identity, 1 state, MSO child pattern: {:.2} s (preserving={verdict})",
            start.elapsed().as_secs_f64()
        );
        // A genuinely second-order step pattern (descendant via set
        // closure) pushes the decider into the next exponential tier —
        // minutes even at 1 state / 2 labels — so it is reported in
        // EXPERIMENTS.md from a one-off run rather than re-measured here.
    }
}
