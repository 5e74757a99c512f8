//! The facade ↔ engine contract: `textpres::check_*` delegate to the
//! engine with identical verdicts, and engine witnesses round-trip through
//! `textpres::format`.

use textpres::engine::{CheckOptions, DtlDecider, Engine, Outcome, TopdownDecider};
use textpres::format::{parse_witness, render_path, render_witness};
use textpres::prelude::*;
use tpx_workload::transducers;

fn universal(alpha: &Alphabet) -> Nta {
    let mut b = NtaBuilder::new(alpha);
    b.root("u");
    for (_, name) in alpha.entries() {
        b.rule("u", name, "(u | ut)*");
    }
    b.text_rule("ut");
    b.finish()
}

#[test]
fn facade_check_topdown_equals_engine_verdict() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    for (_, t) in transducers::suite(&alpha, 3) {
        let facade = textpres::check_topdown(&t, &schema);
        let verdict = Engine::new()
            .check_governed(
                &TopdownDecider::new(&t),
                &schema,
                &CheckOptions::unlimited(),
            )
            .unwrap();
        assert_eq!(facade.is_preserving(), verdict.is_preserving());
        match (&facade, &verdict.outcome) {
            (CheckReport::TextPreserving, Outcome::Preserving) => {}
            (CheckReport::Copying { path: a }, Outcome::Copying { path: b }) => {
                assert_eq!(a, b)
            }
            (CheckReport::Rearranging { witness: a }, Outcome::Rearranging { witness: b }) => {
                assert_eq!(render_witness(a, &alpha), render_witness(b, &alpha))
            }
            (f, e) => panic!("facade {f:?} vs engine {e:?}"),
        }
    }
}

#[test]
fn facade_check_dtl_equals_engine_verdict() {
    let alpha = Alphabet::from_labels(["a", "b"]);
    let schema = universal(&alpha);
    let mut b = DtlBuilder::new(&alpha, "q0");
    b.rule_simple("q0", "a", "a", "q0", "child");
    b.rule_simple("q0", "b", "b", "q0", "child");
    b.text_rule("q0");
    let t = b.finish();
    let facade = textpres::check_dtl(&t, &schema);
    let verdict = Engine::new()
        .check_governed(&DtlDecider::new(&t), &schema, &CheckOptions::unlimited())
        .unwrap();
    assert!(facade.is_preserving());
    assert!(verdict.is_preserving());
}

#[test]
fn rearranging_witness_round_trips_through_format() {
    let alpha = textpres::trees::samples::recipe_alphabet();
    let schema = textpres::schema::samples::recipe_dtd(&alpha).to_nta();
    let t = textpres::topdown::samples::rearranging_example(&alpha);
    let verdict = Engine::new()
        .check_governed(
            &TopdownDecider::new(&t),
            &schema,
            &CheckOptions::unlimited(),
        )
        .unwrap();
    let Outcome::Rearranging { witness } = &verdict.outcome else {
        panic!("sample must rearrange over the recipe schema, got {verdict:?}");
    };
    // Render → parse → render is the identity, and the reparsed tree is
    // still a schema tree (so the witness survives serialization intact).
    let rendered = render_witness(witness, &alpha);
    let mut scratch = alpha.clone();
    let reparsed = parse_witness(&rendered, &mut scratch).expect("rendered witness parses");
    assert_eq!(rendered, render_witness(&reparsed, &scratch));
    assert!(schema.accepts(&reparsed));
}

#[test]
fn dtl_witness_round_trips_through_format() {
    let alpha = Alphabet::from_labels(["a", "b"]);
    let schema = universal(&alpha);
    use textpres::xpath::{Axis, PathExpr};
    let mut t = DtlTransducer::new(XPathPatterns, 1, textpres::dtl::DtlState(0));
    let c1 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    let c2 = t.add_binary_pattern(PathExpr::Axis(Axis::Child));
    t.add_rule(
        textpres::dtl::DtlState(0),
        textpres::xpath::NodeExpr::Label(alpha.sym("a")),
        vec![textpres::dtl::Rhs::Elem(
            alpha.sym("a"),
            vec![
                textpres::dtl::Rhs::Call(textpres::dtl::DtlState(0), c1),
                textpres::dtl::Rhs::Call(textpres::dtl::DtlState(0), c2),
            ],
        )],
    );
    t.set_text_rule(textpres::dtl::DtlState(0), true);
    let verdict = Engine::new()
        .check_governed(&DtlDecider::new(&t), &schema, &CheckOptions::unlimited())
        .unwrap();
    let Outcome::NotPreserving { witness } = &verdict.outcome else {
        panic!("doubling must be detected");
    };
    let rendered = render_witness(witness, &alpha);
    let mut scratch = alpha.clone();
    let reparsed = parse_witness(&rendered, &mut scratch).unwrap();
    assert_eq!(rendered, render_witness(&reparsed, &scratch));
    assert!(schema.accepts(&reparsed));
}

#[test]
fn copying_path_renders_readably() {
    let alpha = transducers::plain_alphabet(2);
    let schema = universal(&alpha);
    let t = transducers::copier_at_depth(&alpha, 3, 1);
    let verdict = Engine::new()
        .check_governed(
            &TopdownDecider::new(&t),
            &schema,
            &CheckOptions::unlimited(),
        )
        .unwrap();
    let Outcome::Copying { path } = &verdict.outcome else {
        panic!("copier must copy over the universal schema");
    };
    let rendered = render_path(path, &alpha);
    assert!(rendered.ends_with("text()"), "{rendered}");
    assert!(!rendered.starts_with('/'), "{rendered}");
}
