//! A parser for (the element-declaration fragment of) real DTD syntax, so
//! schemas can be loaded from actual `.dtd` files:
//!
//! ```text
//! <!ELEMENT recipes (recipe*)>
//! <!ELEMENT recipe (description, ingredients, instructions, comments)>
//! <!ELEMENT instructions (#PCDATA | br)*>
//! <!ELEMENT br EMPTY>
//! <!ELEMENT description (#PCDATA)>
//! ```
//!
//! Supported content models: `EMPTY`, `(#PCDATA)`, mixed content
//! `(#PCDATA | a | b)*`, and full element content with `,` (sequence),
//! `|` (choice), `?`, `*`, `+` and nesting. `ANY` and attribute-list
//! declarations (`<!ATTLIST …>`, skipped), comments and processing
//! instructions are tolerated.
//!
//! The start symbol is the first declared element, matching common
//! practice for standalone DTDs.

use crate::{Dtd, DtdSym};
use std::fmt;
use tpx_automata::Regex;
use tpx_trees::Alphabet;

/// Error from [`parse_dtd`].
#[derive(Clone, Debug)]
pub struct DtdParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for DtdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DTD parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DtdParseError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, DtdParseError> {
        Err(DtdParseError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_whitespace()) {
                self.bump();
            }
            if self.src[self.pos..].starts_with("<!--") {
                match self.src[self.pos..].find("-->") {
                    Some(i) => self.pos += i + 3,
                    None => {
                        self.pos = self.src.len();
                    }
                }
            } else {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<&'a str, DtdParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || "_-.:".contains(c)) {
            self.bump();
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(&self.src[start..self.pos])
    }

    fn expect(&mut self, c: char) -> Result<(), DtdParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {c:?}"))
        }
    }

    /// Parses a content-particle expression after `<!ELEMENT name`.
    fn content(&mut self, alpha: &mut Alphabet) -> Result<Regex<DtdSym>, DtdParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with("EMPTY") {
            self.pos += 5;
            return Ok(Regex::Epsilon);
        }
        if self.src[self.pos..].starts_with("ANY") {
            return self.err("ANY content is not supported (list the children explicitly)");
        }
        self.particle(alpha)
    }

    fn particle(&mut self, alpha: &mut Alphabet) -> Result<Regex<DtdSym>, DtdParseError> {
        self.skip_ws();
        let base = if self.peek() == Some('(') {
            self.bump();
            self.skip_ws();
            if self.src[self.pos..].starts_with("#PCDATA") {
                self.pos += 7;
                // Mixed content: (#PCDATA) or (#PCDATA | a | b)*.
                let mut alts = vec![Regex::Sym(DtdSym::Text)];
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some('|') => {
                            self.bump();
                            self.skip_ws();
                            let n = self.name()?;
                            alts.push(Regex::Sym(DtdSym::Elem(alpha.intern(n))));
                        }
                        Some(')') => {
                            self.bump();
                            break;
                        }
                        _ => return self.err("expected '|' or ')' in mixed content"),
                    }
                }
                // XML requires the trailing '*' when elements are mixed in.
                self.skip_ws();
                if self.peek() == Some('*') {
                    self.bump();
                    return Ok(Regex::any(alts).star());
                }
                if alts.len() > 1 {
                    return self.err("mixed content with elements requires a trailing '*'");
                }
                // Plain (#PCDATA): any amount of text.
                return Ok(Regex::Sym(DtdSym::Text).star());
            }
            // Grouped element content: seq/choice of particles.
            let first = self.particle(alpha)?;
            self.skip_ws();
            let group = match self.peek() {
                Some(',') => {
                    let mut items = vec![first];
                    while self.peek() == Some(',') {
                        self.bump();
                        items.push(self.particle(alpha)?);
                        self.skip_ws();
                    }
                    Regex::seq(items)
                }
                Some('|') => {
                    let mut items = vec![first];
                    while self.peek() == Some('|') {
                        self.bump();
                        items.push(self.particle(alpha)?);
                        self.skip_ws();
                    }
                    Regex::any(items)
                }
                _ => first,
            };
            self.expect(')')?;
            group
        } else {
            let n = self.name()?;
            Regex::Sym(DtdSym::Elem(alpha.intern(n)))
        };
        // Occurrence indicator.
        Ok(match self.peek() {
            Some('?') => {
                self.bump();
                base.opt()
            }
            Some('*') => {
                self.bump();
                base.star()
            }
            Some('+') => {
                self.bump();
                base.plus()
            }
            _ => base,
        })
    }
}

/// Parses a DTD document into a [`Dtd`], interning element names into
/// `alpha`. The first declared element becomes the start symbol.
pub fn parse_dtd(src: &str, alpha: &mut Alphabet) -> Result<Dtd, DtdParseError> {
    let mut p = P { src, pos: 0 };
    let mut decls: Vec<(tpx_trees::Symbol, Regex<DtdSym>)> = Vec::new();
    let mut start: Option<tpx_trees::Symbol> = None;
    loop {
        p.skip_ws();
        if p.pos >= src.len() {
            break;
        }
        if p.src[p.pos..].starts_with("<!ELEMENT") {
            p.pos += "<!ELEMENT".len();
            p.skip_ws();
            let name = p.name()?.to_owned();
            let sym = alpha.intern(&name);
            let content = p.content(alpha)?;
            p.expect('>')?;
            if start.is_none() {
                start = Some(sym);
            }
            decls.push((sym, content));
        } else if p.src[p.pos..].starts_with("<!ATTLIST")
            || p.src[p.pos..].starts_with("<!ENTITY")
            || p.src[p.pos..].starts_with("<?")
        {
            // Skip to the closing '>'.
            match p.src[p.pos..].find('>') {
                Some(i) => p.pos += i + 1,
                None => return p.err("unterminated declaration"),
            }
        } else {
            return p.err("expected a declaration");
        }
    }
    let Some(start) = start else {
        return Err(DtdParseError {
            offset: 0,
            message: "no <!ELEMENT> declarations found".into(),
        });
    };
    let mut dtd = Dtd::new(alpha.len());
    dtd.add_start(start);
    for (sym, content) in decls {
        dtd.set_content(sym, content);
    }
    Ok(dtd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpx_trees::budget::BudgetHandle;
    use tpx_trees::term::parse_tree;

    const RECIPE_DTD: &str = r#"
<!-- the DTD of Example 2.3, in real DTD syntax -->
<!ELEMENT recipes (recipe*)>
<!ELEMENT recipe (description, ingredients, instructions, comments)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT ingredients (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT instructions (#PCDATA | br)*>
<!ELEMENT br EMPTY>
<!ELEMENT comments (negative, positive)>
<!ELEMENT negative (comment*)>
<!ELEMENT positive (comment*)>
<!ELEMENT comment (#PCDATA)>
"#;

    #[test]
    fn parses_the_recipe_dtd_and_matches_the_builder_version() {
        let mut alpha = tpx_trees::samples::recipe_alphabet();
        let parsed = parse_dtd(RECIPE_DTD, &mut alpha).unwrap();
        let mut fig1_alpha = alpha.clone();
        let fig1 = tpx_trees::samples::recipe_tree(&mut fig1_alpha);
        assert!(parsed.validates(&fig1));
        // The hand-built Example 2.3 DTD uses `text` (exactly one text
        // node) where XML's `(#PCDATA)` means "any character data" (we
        // model it as `text*`), so the parsed language is a superset.
        let built = crate::samples::recipe_dtd(&alpha);
        assert!(tpx_treeauto::subset_nta(
            &built.to_nta(),
            &parsed.to_nta(),
            &BudgetHandle::unlimited()
        )
        .unwrap());
        // And the difference is exactly about text multiplicity: an empty
        // description is fine for (#PCDATA) but not for `text`.
        let mut a2 = alpha.clone();
        let empty_desc = tpx_trees::term::parse_tree(
            r#"recipes(recipe(description ingredients instructions
               comments(negative positive)))"#,
            &mut a2,
        )
        .unwrap();
        assert!(parsed.validates(&empty_desc));
        assert!(!built.validates(&empty_desc));
    }

    #[test]
    fn mixed_and_empty_content() {
        let mut alpha = tpx_trees::Alphabet::new();
        let dtd = parse_dtd("<!ELEMENT a (#PCDATA | b)*><!ELEMENT b EMPTY>", &mut alpha).unwrap();
        for (src, ok) in [
            (r#"a("x" b "y")"#, true),
            ("a", true),
            ("a(b(b))", false),
            ("b", false), // not the start symbol
        ] {
            let t = parse_tree(src, &mut alpha.clone()).unwrap();
            assert_eq!(dtd.validates(&t), ok, "{src}");
        }
    }

    #[test]
    fn pcdata_only_allows_any_amount_of_text() {
        let mut alpha = tpx_trees::Alphabet::new();
        let dtd = parse_dtd("<!ELEMENT p (#PCDATA)>", &mut alpha).unwrap();
        for (src, ok) in [("p", true), (r#"p("x")"#, true), (r#"p("x" "y")"#, true)] {
            let t = parse_tree(src, &mut alpha.clone()).unwrap();
            assert_eq!(dtd.validates(&t), ok, "{src}");
        }
    }

    #[test]
    fn occurrence_indicators() {
        let mut alpha = tpx_trees::Alphabet::new();
        let dtd = parse_dtd(
            "<!ELEMENT r (a?, b+, (c | d)*)>\
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY>\
             <!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
            &mut alpha,
        )
        .unwrap();
        for (src, ok) in [
            ("r(b)", true),
            ("r(a b b c d c)", true),
            ("r(a)", false),     // b+ missing
            ("r(a a b)", false), // a?
            ("r(b a)", false),   // order
        ] {
            let t = parse_tree(src, &mut alpha.clone()).unwrap();
            assert_eq!(dtd.validates(&t), ok, "{src}");
        }
    }

    #[test]
    fn attlist_and_comments_are_skipped() {
        let mut alpha = tpx_trees::Alphabet::new();
        let dtd = parse_dtd(
            "<!-- hi --><!ELEMENT a (b)><!ATTLIST a id ID #REQUIRED>\
             <!ELEMENT b EMPTY>",
            &mut alpha,
        )
        .unwrap();
        let t = parse_tree("a(b)", &mut alpha.clone()).unwrap();
        assert!(dtd.validates(&t));
    }

    #[test]
    fn errors() {
        let mut alpha = tpx_trees::Alphabet::new();
        assert!(parse_dtd("", &mut alpha).is_err());
        assert!(parse_dtd("<!ELEMENT a ANY>", &mut alpha).is_err());
        assert!(parse_dtd("<!ELEMENT a (#PCDATA | b)>", &mut alpha).is_err());
        assert!(parse_dtd("<!ELEMENT a (b", &mut alpha).is_err());
        assert!(parse_dtd("junk", &mut alpha).is_err());
    }
}
