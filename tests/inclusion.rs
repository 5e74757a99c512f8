//! Seeded equivalence suite for the lazy antichain inclusion layer
//! (DESIGN.md §13): over random DTD-shaped schema pairs, the on-the-fly
//! `included_in` / `inclusion_counterexample` route must agree with the
//! eager determinize → complement → intersect route — on the *verdict*
//! and on *witness validity* — and the budgeted wrappers must be inert
//! under generous fuel and fail fast under none.

use textpres::treeauto::{language_equal, nta_to_nbta, subset_nta, EncSym, Nbta, Nta};
use textpres::trees::budget::{Budget, BudgetHandle};
use tpx_workload::random_dtd;

/// The two schema NTAs of a seeded pair, trimmed and in ranked encoding.
fn ranked_pair(seed: u64, n_labels: usize) -> (Nta, Nta, Nbta<EncSym>, Nbta<EncSym>) {
    let budget = BudgetHandle::unlimited();
    let n1 = random_dtd(n_labels, seed).nta();
    let n2 = random_dtd(n_labels, seed + 1000).nta();
    let a = nta_to_nbta(&n1).trim(&budget).unwrap();
    let b = nta_to_nbta(&n2).trim(&budget).unwrap();
    (n1, n2, a, b)
}

/// The eager baseline: L(a) ⊆ L(b) iff L(a) ∩ L(b)ᶜ = ∅, with the
/// complement built by full determinization.
fn eager_included(a: &Nbta<EncSym>, b: &Nbta<EncSym>) -> bool {
    let budget = BudgetHandle::unlimited();
    a.intersect(
        &b.determinize(&budget)
            .unwrap()
            .complement()
            .to_nbta()
            .trim(&budget)
            .unwrap(),
        &budget,
    )
    .unwrap()
    .is_empty(&budget)
    .unwrap()
}

#[test]
fn antichain_inclusion_matches_eager_route_on_random_dtd_pairs() {
    let budget = BudgetHandle::unlimited();
    let mut separated = 0usize;
    for n_labels in [2usize, 3] {
        for seed in 0..12u64 {
            let ctx = format!("n_labels {n_labels}, seed {seed}");
            let (n1, n2, a, b) = ranked_pair(seed, n_labels);
            let eager = eager_included(&a, &b);
            assert_eq!(
                a.included_in(&b, &budget).unwrap(),
                eager,
                "{ctx}: verdict diverged"
            );
            assert_eq!(
                subset_nta(&n1, &n2, &budget).unwrap(),
                eager,
                "{ctx}: Nta-level verdict"
            );
            match a.inclusion_counterexample(&b, &budget).unwrap() {
                Some(cex) => {
                    separated += 1;
                    assert!(!eager, "{ctx}: counterexample despite inclusion");
                    assert!(a.accepts(&cex), "{ctx}: witness not accepted by A");
                    assert!(!b.accepts(&cex), "{ctx}: witness accepted by B");
                }
                None => assert!(eager, "{ctx}: no counterexample despite exclusion"),
            }
        }
    }
    // The suite must exercise the separating branch; random DTD pairs
    // rarely stand in a subset relation, so only demand separations here
    // (the inclusion branch is pinned by the reflexivity test below).
    assert!(separated > 0, "no pair separated — suite is vacuous");
}

#[test]
fn antichain_inclusion_confirms_reflexive_and_union_inclusions() {
    let budget = BudgetHandle::unlimited();
    // Pairs that *are* included by construction: A ⊆ A and A ⊆ A ∪ B.
    for seed in 0..8u64 {
        let (n1, _, a, b) = ranked_pair(seed, 3);
        assert!(a.included_in(&a, &budget).unwrap(), "seed {seed}: A ⊄ A");
        assert!(
            a.inclusion_counterexample(&a.union(&b), &budget)
                .unwrap()
                .is_none(),
            "seed {seed}: A ⊄ A ∪ B"
        );
        assert!(
            language_equal(&n1, &n1, &budget).unwrap(),
            "seed {seed}: A ≠ A"
        );
    }
}

#[test]
fn intersect_witness_matches_product_emptiness() {
    let budget = BudgetHandle::unlimited();
    for seed in 0..12u64 {
        let (_, _, a, b) = ranked_pair(seed, 3);
        let product_empty = a.intersect(&b, &budget).unwrap().is_empty(&budget).unwrap();
        match a.intersect_witness(&b, &budget).unwrap() {
            Some(w) => {
                assert!(!product_empty, "seed {seed}: witness from empty product");
                assert!(a.accepts(&w), "seed {seed}: witness not in L(A)");
                assert!(b.accepts(&w), "seed {seed}: witness not in L(B)");
            }
            None => assert!(product_empty, "seed {seed}: no witness, product non-empty"),
        }
    }
}

#[test]
fn budgeted_inclusion_is_inert_when_generous_and_fails_on_zero_fuel() {
    let generous = Budget::default().with_fuel(50_000_000).start();
    let zero = Budget::default().with_fuel(0).start();
    for seed in 0..6u64 {
        let (n1, n2, _, _) = ranked_pair(seed, 3);
        assert_eq!(
            subset_nta(&n1, &n2, &generous).expect("generous fuel"),
            subset_nta(&n1, &n2, &BudgetHandle::unlimited()).unwrap(),
            "seed {seed}: budget changed the subset verdict"
        );
        assert_eq!(
            language_equal(&n1, &n2, &generous).expect("generous fuel"),
            language_equal(&n1, &n2, &BudgetHandle::unlimited()).unwrap(),
            "seed {seed}: budget changed the equality verdict"
        );
        assert!(
            subset_nta(&n1, &n2, &zero).is_err(),
            "seed {seed}: zero fuel must exhaust"
        );
    }
    assert!(generous.fuel_spent() > 0, "governed runs must account fuel");
}
