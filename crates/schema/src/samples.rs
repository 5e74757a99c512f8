//! The recipe DTD of Example 2.3.

use crate::{Dtd, DtdBuilder};
use tpx_trees::Alphabet;

/// Builds the DTD of Example 2.3 over the recipe alphabet
/// ([`tpx_trees::samples::recipe_alphabet`]).
///
/// ```text
/// recipes      ↦ recipe*
/// recipe       ↦ description · ingredients · instructions · comments
/// ingredients  ↦ item*
/// instructions ↦ (br + text)*
/// br           ↦ ε
/// comments     ↦ negative · positive
/// positive     ↦ comment*
/// negative     ↦ comment*
/// description  ↦ text
/// item         ↦ text
/// comment      ↦ text            (the paper's "d(σ) = text" default)
/// ```
pub fn recipe_dtd(alpha: &Alphabet) -> Dtd {
    let mut b = DtdBuilder::new(alpha);
    b.start("recipes");
    b.elem("recipes", "recipe*");
    b.elem("recipe", "description ingredients instructions comments");
    b.elem("ingredients", "item*");
    b.elem("instructions", "(br | text)*");
    b.elem("br", "%eps");
    b.elem("comments", "negative positive");
    b.elem("positive", "comment*");
    b.elem("negative", "comment*");
    b.elem("description", "text");
    b.elem("item", "text");
    b.elem("comment", "text");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::budget::BudgetHandle;

    #[test]
    fn recipe_dtd_is_reduced_and_nonempty() {
        let al = tpx_trees::samples::recipe_alphabet();
        let d = recipe_dtd(&al);
        assert!(d.is_reduced());
        let nta = d.to_nta();
        assert!(!nta.is_empty(&BudgetHandle::unlimited()).unwrap());
    }

    #[test]
    fn instructions_mix_br_and_text() {
        let mut al = tpx_trees::samples::recipe_alphabet();
        let d = recipe_dtd(&al);
        let t = tpx_trees::term::parse_tree(
            r#"recipes(recipe(description("d") ingredients
                 instructions("step1" br "step2")
                 comments(negative positive)))"#,
            &mut al,
        )
        .unwrap();
        assert!(d.validates(&t));
    }
}
