//! E3 — Lemmas 4.9 vs 4.10: the two halves of the PTIME decision
//! procedure on identical instances.
//!
//! Paper claim: both PTIME, but the rearranging check builds a tree
//! automaton with a quadratic state component (`D(q₁,q₂)`), so it should
//! dominate as `|Q_T|` grows — the measured gap quantifies it.

use textpres::engine::BudgetHandle;
use tpx_bench::universal;
use tpx_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tpx_workload::transducers::{deep_selector, plain_alphabet};

fn copy_vs_rearrange(c: &mut Criterion) {
    let alpha = plain_alphabet(3);
    let schema = universal(&alpha);
    let mut g = c.benchmark_group("e3/halves");
    g.sample_size(10);
    for n in [2usize, 4, 8, 16] {
        let t = deep_selector(&alpha, n);
        g.bench_with_input(BenchmarkId::new("copying_lemma_4_9", n), &n, |b, _| {
            b.iter(|| textpres::topdown::decide::copying_witness(&t, &schema).is_some())
        });
        g.bench_with_input(BenchmarkId::new("rearranging_lemma_4_10", n), &n, |b, _| {
            b.iter(|| textpres::topdown::decide::rearranging_witness(&t, &schema).is_some())
        });
    }
    g.finish();
}

fn construction_sizes(_c: &mut Criterion) {
    let alpha = plain_alphabet(3);
    for n in [2usize, 8, 16] {
        // For a *preserving* selector the Lemma 4.10 automaton trims to the
        // empty language (that emptiness IS the verdict); the swapper keeps
        // it inhabited, exposing the Θ(n²) pair-tracking states.
        let t = tpx_workload::transducers::swapper_at_depth(&alpha, n, n / 2);
        let budget = BudgetHandle::unlimited();
        let m = textpres::topdown::decide::rearranging_nta(&t, &budget).unwrap();
        eprintln!(
            "e3: swapper n={n}: rearranging NTA (Lemma 4.10 M, trimmed): {} states, size {}, fuel {}",
            m.state_count(),
            m.size(),
            budget.fuel_spent()
        );
    }
}

criterion_group!(benches, copy_vs_rearrange, construction_sizes);
criterion_main!(benches);
