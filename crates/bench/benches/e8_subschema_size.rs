//! E8 — the conclusion's open question: how large is the representation of
//! the *maximal sub-schema* on which a transducer is text-preserving?
//!
//! We measure construction time and print the resulting NTA sizes for
//! copier transducers over chain schemas of growing size. The chain of
//! constructions is counter-example NTA → encode → determinize →
//! complement → decode → intersect, so the determinization is the expected
//! blow-up point; the printed rows quantify it.

use textpres::engine::BudgetHandle;
use tpx_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpx_workload::transducers::copier_at_depth;

fn subschema_sizes(c: &mut Criterion) {
    let budget = BudgetHandle::unlimited();
    let mut g = c.benchmark_group("e8/maximal_subschema");
    g.sample_size(10);
    for n in [2usize, 4, 8] {
        // Comb schemas leave room for a non-trivial sub-schema: documents
        // whose duplicated region carries no text survive.
        let (alpha, schema) = tpx_workload::comb_schema(n);
        let t = copier_at_depth(&alpha, 2, 1);
        let max = textpres::topdown::maximal_subschema(&t, &schema, &budget).unwrap();
        let ce = textpres::topdown::counterexample_language(&t, &budget).unwrap();
        eprintln!(
            "e8: comb {n}: |T|={} |N|={} |counterexample NTA|={} |max sub-schema|={}",
            t.size(),
            schema.size(),
            ce.size(),
            max.size()
        );
        g.bench_with_input(BenchmarkId::new("comb_copier", n), &n, |b, _| {
            b.iter(|| {
                textpres::topdown::maximal_subschema(&t, &schema, &budget)
                    .unwrap()
                    .size()
            })
        });
    }
    // The recipe scenario: copying variant of Example 4.2.
    let alpha = textpres::trees::samples::recipe_alphabet();
    let schema = textpres::schema::samples::recipe_dtd(&alpha).to_nta();
    let t = textpres::topdown::samples::copying_example(&alpha);
    let max = textpres::topdown::maximal_subschema(&t, &schema, &budget).unwrap();
    eprintln!(
        "e8: recipe copying example: |T|={} |N|={} |max sub-schema|={}",
        t.size(),
        schema.size(),
        max.size()
    );
    g.bench_function("recipe_copying", |b| {
        b.iter(|| {
            textpres::topdown::maximal_subschema(&t, &schema, &budget)
                .unwrap()
                .size()
        })
    });
    g.finish();
}

criterion_group!(benches, subschema_sizes);
criterion_main!(benches);
