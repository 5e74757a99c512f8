//! Engine-integrated stylesheet compilation.
//!
//! [`tpx_xslt::compile`] is a pure source-to-transducer translation; this
//! module is the glue that runs it against a *schema* (so stylesheet and
//! schema agree on one alphabet) and memoizes the result in the engine's
//! [`ArtifactCache`](tpx_engine::ArtifactCache) under the shared
//! [`XSLT_COMPILE_STAGE`] stage, so a registered stylesheet in `textpres
//! serve` — or a repeated corpus entry in a bench — compiles once per
//! (schema, stylesheet) source pair. The compile is traced as a span named
//! like the stage, next to `topdown/schema` and friends.
//!
//! The alphabet dance matters: a stylesheet's literal result elements may
//! introduce labels the schema never mentions. [`compile_stylesheet`]
//! parses the schema once (interning its labels), compiles the stylesheet
//! (interning the literals), then widens the parsed DTD so the NTA is built
//! at the final alphabet width — the width the transducer was built at.

use std::sync::Arc;

use tpx_engine::{CacheError, Engine, SpanFields, StageKey};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{Alphabet, StableHasher};
use tpx_xslt::Diagnostic;

use crate::format::parse_schema;

/// The shared pipeline-stage name a compiled stylesheet caches under.
pub const XSLT_COMPILE_STAGE: &str = "xslt/compile";

/// A stylesheet compiled against a schema: the common alphabet, the schema
/// NTA built at the final alphabet width, and the transducer (plus the
/// DTL rendering when the stylesheet is `DTL_XPath`-expressible).
#[derive(Clone, Debug)]
pub struct XsltArtifact {
    /// Schema labels plus the stylesheet's literal result labels.
    pub alpha: Alphabet,
    /// The schema NTA, built over the full `alpha`.
    pub schema: Nta,
    /// The translated transducer.
    pub transducer: Transducer,
    /// The equivalent DTL program source, when expressible.
    pub dtl: Option<String>,
}

/// Renders untranslatable-construct diagnostics as one multi-line error.
pub fn untranslatable(diags: &[Diagnostic]) -> String {
    let mut msg = String::from("stylesheet is not fully translatable:");
    for d in diags {
        msg.push_str("\n  ");
        msg.push_str(&d.to_string());
    }
    msg
}

/// Compiles `xslt_src` against `schema_src` into an exact transducer.
/// Any [`Diagnostic`] is an error here: a check must not silently run a
/// transducer that only approximates the stylesheet.
pub fn compile_stylesheet(schema_src: &str, xslt_src: &str) -> Result<XsltArtifact, String> {
    let mut alpha = Alphabet::new();
    let mut dtd = parse_schema(schema_src, &mut alpha).map_err(|e| format!("schema: {e}"))?;
    let compiled =
        tpx_xslt::compile(xslt_src, &mut alpha).map_err(|e| format!("stylesheet: {e}"))?;
    if !compiled.diagnostics.is_empty() {
        return Err(untranslatable(&compiled.diagnostics));
    }
    // Literal result elements may have extended the alphabet; widen the
    // parsed DTD so the NTA matches the transducer's symbol width.
    dtd.widen(alpha.len());
    Ok(XsltArtifact {
        alpha,
        schema: dtd.to_nta(),
        transducer: compiled.transducer,
        dtl: compiled.dtl,
    })
}

/// [`compile_stylesheet`] through the engine's artifact cache, keyed by
/// the content of both sources, with one `xslt/compile` span on the
/// engine's tracer covering the lookup (and the build, on a miss).
pub fn compile_stylesheet_cached(
    engine: &Engine,
    schema_src: &str,
    xslt_src: &str,
) -> Result<Arc<XsltArtifact>, String> {
    let mut h = StableHasher::new();
    h.write(schema_src.as_bytes());
    h.write_usize(schema_src.len());
    h.write(xslt_src.as_bytes());
    let stage = StageKey::shared(XSLT_COMPILE_STAGE, h.finish());
    let span = engine.tracer().span(XSLT_COMPILE_STAGE);
    match engine
        .cache()
        .get_or_build(XSLT_COMPILE_STAGE, stage.cache_key(), || {
            compile_stylesheet(schema_src, xslt_src)
        }) {
        Ok((artifact, hit)) => {
            span.exit_with(SpanFields::new().size(artifact.transducer.size()).hit(hit));
            Ok(artifact)
        }
        Err(CacheError::Build(e)) => Err(e),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "start doc\nelem doc = (keep | text)*\nelem keep = text*\n";
    const IDENTITY: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="@*|node()">
    <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
  </xsl:template>
</xsl:stylesheet>"#;

    #[test]
    fn compiles_against_the_schema_alphabet() {
        let a = compile_stylesheet(SCHEMA, IDENTITY).expect("identity compiles");
        assert_eq!(a.transducer.symbol_count(), a.alpha.len());
        assert_eq!(a.schema.symbol_count(), a.alpha.len());
        assert!(a.dtl.is_some());
    }

    #[test]
    fn literal_labels_extend_alphabet_and_schema_is_rebuilt_to_match() {
        let wrap = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:template match="doc"><wrapper><xsl:apply-templates/></wrapper></xsl:template>
</xsl:stylesheet>"#;
        let a = compile_stylesheet(SCHEMA, wrap).expect("wrapper compiles");
        assert!(a.alpha.get("wrapper").is_some());
        assert_eq!(a.schema.symbol_count(), a.alpha.len());
        assert_eq!(a.transducer.symbol_count(), a.alpha.len());
    }

    /// The widened single parse builds the NTA a second parse at the final
    /// alphabet would: same structural hash, same size, on every E11 pair.
    #[test]
    fn widened_schema_matches_a_parse_at_the_final_alphabet() {
        let mut widened = 0;
        for seed in [1, 7] {
            for case in tpx_workload::xslt_corpus(1000, seed) {
                let a = compile_stylesheet(&case.schema_src, &case.xslt_src).expect(&case.name);
                let mut alpha = a.alpha.clone();
                let reparsed = parse_schema(&case.schema_src, &mut alpha)
                    .expect(&case.name)
                    .to_nta();
                assert_eq!(alpha.len(), a.alpha.len(), "{}", case.name);
                assert_eq!(
                    (tpx_trees::stable_hash_of(&a.schema), a.schema.size()),
                    (tpx_trees::stable_hash_of(&reparsed), reparsed.size()),
                    "{}: widened schema NTA differs from a parse at the final alphabet",
                    case.name
                );
                let mut schema_only = Alphabet::new();
                parse_schema(&case.schema_src, &mut schema_only).expect(&case.name);
                widened += usize::from(schema_only.len() < a.alpha.len());
            }
        }
        // Stylesheet literals extend the alphabet in a share of the pairs.
        assert!(widened > 0, "no compile extended the alphabet");
    }

    #[test]
    fn diagnostics_are_a_hard_error_with_lines() {
        let bad = "<xsl:stylesheet version=\"1.0\">\n\
                   <xsl:template match=\"doc\">\n\
                   <xsl:value-of select=\".\"/>\n\
                   </xsl:template>\n\
                   </xsl:stylesheet>";
        let err = compile_stylesheet(SCHEMA, bad).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("xsl:value-of"), "{err}");
    }

    #[test]
    fn cached_compile_hits_on_the_second_call_and_traces_the_stage() {
        let engine = Engine::new().with_tracer(Arc::new(tpx_engine::Tracer::enabled()));
        let first = compile_stylesheet_cached(&engine, SCHEMA, IDENTITY).expect("compiles");
        let again = compile_stylesheet_cached(&engine, SCHEMA, IDENTITY).expect("compiles");
        assert!(
            Arc::ptr_eq(&first, &again),
            "second call must hit the cache"
        );
        assert!(engine.cache_stats().hits >= 1);
        assert!(engine
            .tracer()
            .exit_span_names()
            .contains(&XSLT_COMPILE_STAGE));
    }
}
