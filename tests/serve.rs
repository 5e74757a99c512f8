//! End-to-end robustness tests of `textpres serve`: concurrent clients,
//! budget degradation, admission control, fault isolation, and graceful
//! drain — mostly against in-process [`Server`] instances on ephemeral
//! ports, plus one real SIGTERM drain of the spawned binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use textpres::obs::{quote, JsonValue};
use textpres::serve::{ServeConfig, ServeHandle, ServeReport, Server};

const SCHEMA: &str = "
start doc
elem doc  = (keep | drop)*
elem keep = text
elem drop = text
";

const GOOD: &str = "
initial q0
rule q0 doc -> doc(q)
rule q  keep -> keep(qt)
text qt
";

const BAD: &str = "
initial q0
rule q0 doc -> doc(q q)
rule q keep -> keep(qt)
text qt
";

/// The universal schema over {a, b}: every tree is valid.
const UNIVERSAL: &str = "
start a
start b
elem a = (a | b | text)*
elem b = (a | b | text)*
";

/// The E5 `k = 2` DTL_XPath instance — EXPTIME territory, usable only
/// under a budget (see `tests/cli.rs`).
const DTL_K2: &str = "
dtl
initial q0
rule q0 : a -> a(q0 / child[a]/child[a]/child)
rule q0 : b -> b(q0 / child)
text q0
";

/// Starts an in-process server on an ephemeral port and runs it on a
/// background thread until drained.
fn start(
    tweak: impl FnOnce(&mut ServeConfig),
) -> (
    SocketAddr,
    ServeHandle,
    std::thread::JoinHandle<std::io::Result<ServeReport>>,
) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    tweak(&mut cfg);
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// A line-framed test client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection unexpectedly");
        JsonValue::parse(line.trim_end()).expect("response is JSON")
    }

    fn roundtrip(&mut self, line: &str) -> JsonValue {
        self.send(line);
        self.recv()
    }
}

fn check_frame(schema: &str, transducer: &str, extra: &str) -> String {
    format!(
        "{{\"type\":\"check\",\"schema\":{},\"transducer\":{}{extra}}}",
        quote(schema),
        quote(transducer)
    )
}

fn verdict(v: &JsonValue) -> Option<&str> {
    v.get("verdict").and_then(|s| s.as_str())
}

fn error_code(v: &JsonValue) -> Option<&str> {
    v.get("error").and_then(|s| s.as_str())
}

fn shutdown_and_join(
    client: &mut Client,
    join: std::thread::JoinHandle<std::io::Result<ServeReport>>,
) -> ServeReport {
    let ack = client.roundtrip("{\"type\":\"shutdown\"}");
    assert_eq!(ack.get("ok").and_then(|b| b.as_bool()), Some(true));
    join.join().expect("server thread").expect("clean run")
}

#[test]
fn concurrent_clients_get_deterministic_verdicts_matching_the_cli() {
    // The one-shot CLI is the verdict oracle: GOOD passes (exit 0), BAD
    // fails with a copying witness (exit 1).
    let dir = std::env::temp_dir().join(format!("tpx-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("schema.txt"), SCHEMA).unwrap();
    std::fs::write(dir.join("good.txt"), GOOD).unwrap();
    std::fs::write(dir.join("bad.txt"), BAD).unwrap();
    let cli = |t: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_textpres"))
            .arg("check")
            .arg(dir.join("schema.txt"))
            .arg(dir.join(t))
            .output()
            .expect("run textpres check")
            .status
            .code()
            .expect("exit code")
    };
    assert_eq!(cli("good.txt"), 0);
    assert_eq!(cli("bad.txt"), 1);

    let (addr, _handle, join) = start(|_| {});
    let workers: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for round in 0..5 {
                    let expect_pass = (i + round) % 2 == 0;
                    let t = if expect_pass { GOOD } else { BAD };
                    let resp = c.roundtrip(&check_frame(SCHEMA, t, ""));
                    assert_eq!(resp.get("ok").and_then(|b| b.as_bool()), Some(true));
                    let expected = if expect_pass { "pass" } else { "fail" };
                    assert_eq!(verdict(&resp), Some(expected), "client {i} round {round}");
                    if !expect_pass {
                        // Same witness the CLI prints for this instance.
                        assert_eq!(
                            resp.get("witness").and_then(|s| s.as_str()),
                            Some("doc/keep/text()")
                        );
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let mut c = Client::connect(addr);
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    let served = stats
        .get("serve")
        .and_then(|s| s.get("served"))
        .and_then(|n| n.as_u64());
    assert_eq!(served, Some(40));
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.served, 40);
    assert!(!report.forced_drain);
}

#[test]
fn over_budget_request_degrades_while_neighbors_complete() {
    let (addr, _handle, join) = start(|cfg| cfg.slots = 2);
    let neighbor = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        for _ in 0..10 {
            let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
            assert_eq!(verdict(&resp), Some("pass"));
        }
    });
    let mut c = Client::connect(addr);
    // Exhausted without degrade: a structured `exhausted` error.
    let resp = c.roundtrip(&check_frame(UNIVERSAL, DTL_K2, ",\"fuel\":1"));
    assert_eq!(resp.get("ok").and_then(|b| b.as_bool()), Some(false));
    assert_eq!(error_code(&resp), Some("exhausted"));
    // Same instance with degrade: the PR 3 contract — a verdict from the
    // bounded oracle, marked degraded.
    let resp = c.roundtrip(&check_frame(
        UNIVERSAL,
        DTL_K2,
        ",\"fuel\":1,\"degrade\":true",
    ));
    assert_eq!(
        resp.get("ok").and_then(|b| b.as_bool()),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("degraded").and_then(|b| b.as_bool()), Some(true));
    neighbor.join().expect("neighbor thread");
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.served, 12);
}

#[test]
fn malformed_frames_error_without_wedging_the_connection() {
    let (addr, _handle, join) = start(|_| {});
    let mut c = Client::connect(addr);
    let resp = c.roundtrip("this is not json");
    assert_eq!(error_code(&resp), Some("bad-frame"));
    assert!(
        resp.get("message")
            .and_then(|s| s.as_str())
            .is_some_and(|m| m.starts_with("frame 1:")),
        "{resp:?}"
    );
    // Envelope violations are structured errors too.
    let resp = c.roundtrip("{\"type\":\"check\",\"schema\":\"s\"}");
    assert_eq!(error_code(&resp), Some("bad-frame"));
    // An embedded format error carries the format's line number.
    let resp = c.roundtrip(&check_frame("start doc\nelem doc = (", GOOD, ""));
    assert_eq!(error_code(&resp), Some("bad-request"));
    assert!(
        resp.get("message")
            .and_then(|s| s.as_str())
            .is_some_and(|m| m.contains("schema: line 2")),
        "{resp:?}"
    );
    // The connection survived all three: a well-formed check still works.
    let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
    assert_eq!(verdict(&resp), Some("pass"));
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.served, 1);
}

#[test]
fn oversize_frame_answers_then_closes() {
    let (addr, _handle, join) = start(|cfg| cfg.max_frame_bytes = 1024);
    let mut c = Client::connect(addr);
    let huge = "x".repeat(4096);
    c.stream.write_all(huge.as_bytes()).unwrap();
    let resp = c.recv();
    assert_eq!(error_code(&resp), Some("frame-too-large"));
    // EOF follows: the connection cannot resynchronize.
    let mut rest = String::new();
    assert_eq!(c.reader.read_to_string(&mut rest).unwrap(), 0);
    let mut c = Client::connect(addr);
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.rejected, 1);
}

#[test]
fn overload_sheds_with_a_structured_response() {
    let (addr, _handle, join) = start(|cfg| {
        cfg.slots = 1;
        cfg.queue = 0;
    });
    // Hold the single slot with an expensive check bounded by a timeout.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.roundtrip(&check_frame(UNIVERSAL, DTL_K2, ",\"timeout_ms\":1500"))
    });
    // Wait until the slot is actually held.
    let mut c = Client::connect(addr);
    let t0 = Instant::now();
    loop {
        let stats = c.roundtrip("{\"type\":\"stats\"}");
        let inflight = stats
            .get("serve")
            .and_then(|s| s.get("inflight"))
            .and_then(|n| n.as_u64());
        if inflight == Some(1) {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "slot never held");
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
    assert_eq!(error_code(&resp), Some("overloaded"), "{resp:?}");
    let slow_resp = slow.join().expect("slow client");
    // The slow check ends either way (verdict or exhaustion) — the point
    // is it was isolated from the shed request.
    assert!(
        verdict(&slow_resp).is_some() || error_code(&slow_resp) == Some("exhausted"),
        "{slow_resp:?}"
    );
    // The slot is free again afterwards.
    let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
    assert_eq!(verdict(&resp), Some("pass"));
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.shed, 1);
}

#[test]
fn client_check_maps_overloaded_to_retryable_exit_3() {
    // The CLI exit contract: 3 is "retryable resource condition", 2 is
    // "malformed input". A shed (`overloaded`) answer is retryable — the
    // client binary must exit 3, not 2, so wrappers can back off and
    // retry instead of treating the input as bad.
    let dir = std::env::temp_dir().join(format!("tpx-serve-exit3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("schema.txt"), SCHEMA).unwrap();
    std::fs::write(dir.join("good.txt"), GOOD).unwrap();
    let (addr, _handle, join) = start(|cfg| {
        cfg.slots = 1;
        cfg.queue = 0;
    });
    // Hold the single slot with an expensive check bounded by a timeout.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.roundtrip(&check_frame(UNIVERSAL, DTL_K2, ",\"timeout_ms\":2000"))
    });
    let mut c = Client::connect(addr);
    let t0 = Instant::now();
    loop {
        let stats = c.roundtrip("{\"type\":\"stats\"}");
        let inflight = stats
            .get("serve")
            .and_then(|s| s.get("inflight"))
            .and_then(|n| n.as_u64());
        if inflight == Some(1) {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "slot never held");
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_textpres"))
        .arg("client")
        .arg(addr.to_string())
        .arg("check")
        .arg(dir.join("schema.txt"))
        .arg(dir.join("good.txt"))
        .output()
        .expect("run textpres client check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"overloaded\""), "{stdout}");
    assert_eq!(
        out.status.code(),
        Some(3),
        "overloaded must be exit 3 (retryable), stdout: {stdout}"
    );
    let _ = slow.join().expect("slow client");
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.shed, 1);
}

#[test]
fn client_disconnect_mid_request_frees_the_slot() {
    let (addr, _handle, join) = start(|cfg| {
        cfg.slots = 1;
        cfg.queue = 0;
    });
    {
        // Fire an expensive request and vanish without reading the
        // response.
        let mut c = Client::connect(addr);
        c.send(&check_frame(UNIVERSAL, DTL_K2, ",\"timeout_ms\":700"));
    }
    // The abandoned check still runs to its deadline, after which the
    // slot must come back — a well-formed client succeeds.
    let mut c = Client::connect(addr);
    let t0 = Instant::now();
    let resp = loop {
        let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
        if error_code(&resp) != Some("overloaded") {
            break resp;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slot never freed after client disconnect"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(verdict(&resp), Some("pass"));
    let report = shutdown_and_join(&mut c, join);
    assert!(!report.forced_drain);
}

#[test]
fn registered_sources_serve_refs_and_feed_the_memo() {
    let (addr, _handle, join) = start(|_| {});
    let mut c = Client::connect(addr);
    let resp = c.roundtrip(&format!(
        "{{\"type\":\"register\",\"name\":\"s\",\"kind\":\"schema\",\"text\":{}}}",
        quote(SCHEMA)
    ));
    assert_eq!(resp.get("ok").and_then(|b| b.as_bool()), Some(true));
    let resp = c.roundtrip(&format!(
        "{{\"type\":\"register\",\"name\":\"t\",\"kind\":\"transducer\",\"text\":{}}}",
        quote(GOOD)
    ));
    assert_eq!(resp.get("ok").and_then(|b| b.as_bool()), Some(true));
    for _ in 0..3 {
        let resp =
            c.roundtrip("{\"type\":\"check\",\"schema_ref\":\"s\",\"transducer_ref\":\"t\"}");
        assert_eq!(verdict(&resp), Some("pass"));
    }
    // Unknown refs are a structured bad-request, and kind mismatches too.
    let resp = c.roundtrip("{\"type\":\"check\",\"schema_ref\":\"nope\",\"transducer_ref\":\"t\"}");
    assert_eq!(error_code(&resp), Some("bad-request"));
    let resp = c.roundtrip("{\"type\":\"check\",\"schema_ref\":\"t\",\"transducer_ref\":\"t\"}");
    assert_eq!(error_code(&resp), Some("bad-request"));
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    let memo_hits = stats
        .get("serve")
        .and_then(|s| s.get("memo_hits"))
        .and_then(|n| n.as_u64());
    assert_eq!(memo_hits, Some(2), "3 ref checks = 1 compile + 2 memo hits");
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.served, 3);
}

#[test]
fn batch_frames_answer_every_item_in_order() {
    let (addr, _handle, join) = start(|_| {});
    let mut c = Client::connect(addr);
    let resp = c.roundtrip(&format!(
        "{{\"type\":\"batch\",\"schema\":{},\"transducers\":[{},{},{}]}}",
        quote(SCHEMA),
        quote(GOOD),
        quote(BAD),
        quote("initial q0\nrule q0 doc -> ("), // malformed: per-item error
    ));
    assert_eq!(resp.get("ok").and_then(|b| b.as_bool()), Some(true));
    let results = resp.get("results").and_then(|r| r.as_array()).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(verdict(&results[0]), Some("pass"));
    assert_eq!(verdict(&results[1]), Some("fail"));
    assert_eq!(error_code(&results[2]), Some("bad-request"));
    let report = shutdown_and_join(&mut c, join);
    assert_eq!(report.served, 1);
}

#[test]
fn drain_under_load_answers_accepted_requests_and_reports_clean() {
    let (addr, handle, join) = start(|cfg| cfg.slots = 2);
    let load: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut answered = 0;
                loop {
                    // A drained daemon closes the connection; a write that
                    // finds it closed (EPIPE) ends the client like a closed
                    // read does.
                    let frame = format!("{}\n", check_frame(SCHEMA, GOOD, ""));
                    if c.stream.write_all(frame.as_bytes()).is_err() {
                        break answered;
                    }
                    let mut line = String::new();
                    match c.reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break answered,
                        Ok(_) => {
                            let v = JsonValue::parse(line.trim_end()).expect("response");
                            match error_code(&v) {
                                None => {
                                    assert_eq!(verdict(&v), Some("pass"));
                                    answered += 1;
                                }
                                // Once draining, the structured refusal is
                                // the only acceptable "no".
                                Some("shutting-down") => break answered,
                                Some(other) => panic!("unexpected error {other}"),
                            }
                        }
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));
    handle.request_drain();
    let mut total = 0;
    for l in load {
        total += l.join().expect("load thread");
    }
    let report = join.join().expect("server thread").expect("clean run");
    assert!(!report.forced_drain, "drain under this load must be clean");
    assert_eq!(report.served, total, "every accepted request was answered");
    assert!(total > 0, "load ran before the drain");
    // The port is closed after the drain.
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn sigterm_drains_the_spawned_daemon_to_exit_0() {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_textpres"))
        .args(["serve", "--addr", "127.0.0.1:0", "--drain-ms", "3000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn textpres serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .expect("listening line");
    let addr: SocketAddr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in listening line")
        .parse()
        .expect("parseable address");
    let mut c = Client::connect(addr);
    let resp = c.roundtrip(&check_frame(SCHEMA, GOOD, ""));
    assert_eq!(verdict(&resp), Some("pass"));

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    let out = child.wait_with_output().expect("daemon exit");
    assert!(
        out.status.success(),
        "SIGTERM must drain to exit 0, got {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drained cleanly"), "{stderr}");
}
