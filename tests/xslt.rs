//! End-to-end tests of the XSLT frontend: `textpres compile-xslt` on the
//! committed example stylesheets (including the exact diagnostic snapshot
//! for the untranslatable ones), stylesheet sniffing in `check`, and the
//! serve path.
//!
//! Run from the package root (`crates/core`), so the committed examples
//! live at `../../examples/xslt/`.

use std::process::{Command, Output};

fn example(name: &str) -> String {
    format!("{}/../../examples/xslt/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_textpres"))
        .args(args)
        .output()
        .expect("spawn textpres")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sanitize_bpmn_reports_both_value_of_lines_and_exits_1() {
    let out = run(&[
        "compile-xslt",
        &example("bpmn.schema"),
        &example("sanitize_bpmn.xsl"),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    // Snapshot of the diagnostics: exactly the two xsl:value-of calls,
    // each once (wildcard templates must not multiply reports per label),
    // with their true source lines.
    let diag_lines: Vec<&str> = err
        .lines()
        .filter(|l| l.trim_start().starts_with("line "))
        .map(str::trim)
        .collect();
    assert_eq!(
        diag_lines,
        vec![
            "line 24: unsupported xsl:value-of: computes a string; \
             transducer rules cannot output Text values",
            "line 26: unsupported xsl:value-of: computes a string; \
             transducer rules cannot output Text values",
        ],
        "full stderr: {err}"
    );
}

#[test]
fn tct_answer_lists_every_unsupported_construct_with_lines() {
    let out = run(&[
        "compile-xslt",
        &example("tct.schema"),
        &example("tct_answer.xsl"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    let constructs: Vec<&str> = err
        .lines()
        .filter_map(|l| l.trim().strip_prefix("line "))
        .filter_map(|l| l.split_once(": unsupported "))
        .map(|(line, rest)| {
            assert!(
                line.parse::<usize>().is_ok(),
                "line number in {l:?}",
                l = line
            );
            // Constructs themselves contain colons (xsl:output), so split
            // at the colon-space that starts the message.
            rest.split_once(": ").expect("construct: message").0
        })
        .collect();
    assert_eq!(
        constructs,
        vec![
            "xsl:output",
            "match pattern \"/\"",
            "xsl:choose",
            "xsl:text",
            "xsl:value-of",
            "xsl:text",
        ],
        "full stderr: {err}"
    );
}

#[test]
fn fragment_variant_compiles_and_round_trips_through_the_text_format() {
    let out = run(&[
        "compile-xslt",
        &example("bpmn.schema"),
        &example("sanitize_bpmn_fragment.xsl"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let rendered = stdout(&out);
    // The printed transducer must re-parse over the same alphabet
    // (prefixed labels like bpmn:text included).
    let mut alpha = textpres::prelude::Alphabet::new();
    let schema_src = std::fs::read_to_string(example("bpmn.schema")).unwrap();
    textpres::format::parse_schema(&schema_src, &mut alpha).expect("schema parses");
    let t = textpres::format::parse_transducer(&rendered, &alpha)
        .expect("compile-xslt output re-parses");
    assert_eq!(t.symbol_count(), alpha.len());
}

#[test]
fn fragment_variant_is_dtl_expressible_and_the_dtl_re_parses() {
    let out = run(&[
        "compile-xslt",
        "--dtl",
        &example("bpmn.schema"),
        &example("sanitize_bpmn_fragment.xsl"),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let mut alpha = textpres::prelude::Alphabet::new();
    let schema_src = std::fs::read_to_string(example("bpmn.schema")).unwrap();
    textpres::format::parse_schema(&schema_src, &mut alpha).expect("schema parses");
    let rendered = stdout(&out);
    assert!(textpres::format::is_dtl_transducer(&rendered));
    textpres::format::parse_dtl_transducer(&rendered, &alpha).expect("DTL output re-parses");
}

#[test]
fn fredracor_checks_text_preserving_via_stylesheet_sniffing() {
    for extra in [&[][..], &["--fuel", "50000000"][..]] {
        let mut args = vec![
            "check".to_owned(),
            example("tei.schema"),
            example("fredracor_tei.xsl"),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stdout: {} stderr: {}",
            stdout(&out),
            stderr(&out)
        );
        assert!(stdout(&out).contains("text-preserving"), "{}", stdout(&out));
    }
}

#[test]
fn check_refuses_untranslatable_stylesheets_as_usage_error() {
    let out = run(&[
        "check",
        &example("bpmn.schema"),
        &example("sanitize_bpmn.xsl"),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("not fully translatable"));
    assert!(stderr(&out).contains("line 24"));
}

#[test]
fn analyze_retention_accepts_a_stylesheet() {
    // The fragment sanitizer deletes element children of bpmn:text but
    // keeps text — retention on bpmn:b (whose subtree text survives only
    // outside bpmn:text) must find the deletion under bpmn:text.
    let out = run(&[
        "analyze",
        &example("bpmn.schema"),
        &example("sanitize_bpmn_fragment.xsl"),
        "--analysis",
        "text-retention",
        "--label",
        "bpmn:text",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    assert!(stdout(&out).contains("retains"), "{}", stdout(&out));
}

#[test]
fn batch_mixes_stylesheets_and_text_transducers() {
    let dir = std::env::temp_dir().join(format!("textpres-xslt-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("identity.txt");
    std::fs::write(
        &plain,
        "initial q0\n\
         rule q0 tei:TEI -> tei:TEI(q0)\n\
         rule q0 tei:text -> tei:text(q0)\n\
         rule q0 tei:body -> tei:body(q0)\n\
         rule q0 tei:div1 -> tei:div1(q0)\n\
         rule q0 tei:div2 -> tei:div2(q0)\n\
         rule q0 tei:div -> tei:div(q0)\n\
         rule q0 tei:sp -> tei:sp(q0)\n\
         rule q0 tei:speaker -> tei:speaker(q0)\n\
         rule q0 tei:l -> tei:l(q0)\n\
         text q0\n",
    )
    .unwrap();
    let out = run(&[
        "batch",
        &example("tei.schema"),
        &example("fredracor_tei.xsl"),
        plain.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {} stderr: {}",
        stdout(&out),
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("2/2 text-preserving"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn generated_corpus_agrees_with_its_ground_truth() {
    // A slice of the E11 corpus through the real frontend + engine: every
    // generated stylesheet must compile cleanly (they are all inside the
    // fragment by construction) and the text-preservation verdict must
    // match the generator's ground truth.
    use textpres::engine::{CheckOptions, Engine, TopdownDecider};
    let cases = tpx_workload::xslt_corpus(48, 11);
    let mut failing = 0usize;
    for case in &cases {
        let artifact = textpres::frontend::compile_stylesheet(&case.schema_src, &case.xslt_src)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let verdict = Engine::new()
            .check_governed(
                &TopdownDecider::new(&artifact.transducer),
                &artifact.schema,
                &CheckOptions::unlimited(),
            )
            .unwrap();
        assert_eq!(
            verdict.is_preserving(),
            case.expect_preserving,
            "{}:\n{}",
            case.name,
            case.xslt_src
        );
        failing += usize::from(!case.expect_preserving);
    }
    // The sample must actually exercise both verdicts.
    assert!(failing > 0 && failing < cases.len());
}

#[test]
fn serve_checks_a_registered_stylesheet_and_caches_the_compile() {
    use textpres::serve::{ServeConfig, Server};
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let schema_src = std::fs::read_to_string(example("tei.schema")).unwrap();
    let xslt_src = std::fs::read_to_string(example("fredracor_tei.xsl")).unwrap();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |frame: &str| -> String {
        use std::io::{BufRead, Write};
        stream.write_all(frame.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    // A stylesheet registers under kind "transducer" — sniffing decides.
    let reg = format!(
        "{{\"type\":\"register\",\"name\":\"x\",\"kind\":\"transducer\",\"text\":{}}}",
        textpres::obs::quote(&xslt_src)
    );
    assert!(roundtrip(&reg).contains("\"ok\":true"));
    let check = format!(
        "{{\"type\":\"check\",\"schema\":{},\"transducer_ref\":\"x\"}}",
        textpres::obs::quote(&schema_src)
    );
    let first = roundtrip(&check);
    assert!(
        first.contains("\"ok\":true") && first.contains("\"verdict\":\"pass\""),
        "{first}"
    );
    let second = roundtrip(&check);
    assert!(second.contains("\"verdict\":\"pass\""), "{second}");
    // An untranslatable stylesheet is a bad request, not a crash.
    let bad_src = std::fs::read_to_string(example("tct_answer.xsl")).unwrap();
    let bad = format!(
        "{{\"type\":\"check\",\"schema\":{},\"transducer\":{}}}",
        textpres::obs::quote(&std::fs::read_to_string(example("tct.schema")).unwrap()),
        textpres::obs::quote(&bad_src)
    );
    let resp = roundtrip(&bad);
    assert!(
        resp.contains("bad-request") && resp.contains("not fully translatable"),
        "{resp}"
    );
    assert!(roundtrip("{\"type\":\"shutdown\"}").contains("\"ok\":true"));
    daemon.join().unwrap().expect("clean drain");
}
