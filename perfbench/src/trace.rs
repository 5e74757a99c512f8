//! The traced run's span bookkeeping.
//!
//! The benchmark records its own spans around every call it makes into a
//! layer ([`Recorder::span`]): name, start, end, parent and request id, in
//! memory. The program's spans come from the engine's existing
//! [`Tracer`] events (or a daemon's JSONL trace). Those carry no parent
//! ids, so every program span is attributed to its innermost container —
//! a program span whose name is a prefix of its own, or a benchmark span —
//! by interval containment ([`crate::stats::parents`]). Self time is a
//! span's duration minus the part its children cover. Spans are written
//! out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use textpres::engine::{TraceEvent, Tracer};
use textpres::obs::JsonValue;

use crate::stats::{parents, self_times, Interval};

/// At most this many spans are written out per run; attribution still
/// covers every span.
const MAX_WRITTEN_SPANS: usize = 200_000;

/// One span: a benchmark span (`program == false`, named after the layer
/// it calls into) or a program span (named as the tracer names it).
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer name, `.`-separated (program spans have `/` mapped to `.`).
    pub name: String,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// Request (check) id the span belongs to; 0 when unknown.
    pub req: u64,
    /// Whether the program emitted the span.
    pub program: bool,
}

/// In-memory span recorder with one epoch for benchmark and program spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    /// Per-layer self time, µs, accumulated by [`Recorder::attribute`].
    self_us: BTreeMap<String, f64>,
    /// All self time, µs (the denominator of the shares; with parallel
    /// workers it exceeds wall time).
    total_us: f64,
    written: Vec<String>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            self_us: BTreeMap::new(),
            total_us: 0.0,
            written: Vec::new(),
        }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a benchmark span named `name`.
    pub fn span<T>(&mut self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            start_us,
            end_us,
            req,
            program: false,
        });
        out
    }

    /// A fresh enabled tracer plus the recorder time of its epoch.
    pub fn tracer(&self) -> (Arc<Tracer>, f64) {
        let before = self.now_us();
        let tracer = Arc::new(Tracer::enabled());
        let after = self.now_us();
        (tracer, (before + after) / 2.0)
    }

    /// Adds the program spans of `events` (tracer time + `offset_us`).
    pub fn add_events(&mut self, events: &[TraceEvent], offset_us: f64) {
        let mut open: BTreeMap<u64, (&'static str, u64)> = BTreeMap::new();
        for e in events {
            match *e {
                TraceEvent::Enter { span, id, t_us } => {
                    open.insert(id, (span, t_us));
                }
                TraceEvent::Exit { id, t_us, .. } => {
                    if let Some((span, start)) = open.remove(&id) {
                        self.push_program(span, start as f64 + offset_us, t_us as f64 + offset_us);
                    }
                }
            }
        }
    }

    /// Adds the program spans of a daemon's JSONL trace.
    pub fn add_jsonl(&mut self, jsonl: &str, offset_us: f64) -> Result<(), String> {
        let mut open: BTreeMap<u64, (String, u64)> = BTreeMap::new();
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            let v = JsonValue::parse(line).map_err(|e| format!("trace line {line:?}: {e}"))?;
            let field = |k: &str| v.get(k).and_then(JsonValue::as_u64);
            let (Some(id), Some(t_us)) = (field("id"), field("t_us")) else {
                return Err(format!("trace line without id/t_us: {line}"));
            };
            let name = v
                .get("span")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned();
            match v.get("ev").and_then(JsonValue::as_str) {
                Some("enter") => {
                    open.insert(id, (name, t_us));
                }
                Some("exit") => {
                    if let Some((name, start)) = open.remove(&id) {
                        self.push_program(&name, start as f64 + offset_us, t_us as f64 + offset_us);
                    }
                }
                _ => return Err(format!("trace line with unknown event: {line}")),
            }
        }
        Ok(())
    }

    /// A program span; its request id comes from its nearest ancestor.
    fn push_program(&mut self, name: &str, start_us: f64, end_us: f64) {
        self.spans.push(SpanRec {
            name: name.replace('/', "."),
            start_us,
            end_us: end_us.max(start_us),
            req: 0,
            program: true,
        });
    }

    /// Attributes every span recorded since the last call (parents by
    /// containment, then self time per layer) and moves them to the
    /// write-out buffer. Call at quiet points between units of work so the
    /// span set stays small.
    pub fn attribute(&mut self) {
        let spans = std::mem::take(&mut self.spans);
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|s| Interval {
                start: s.start_us,
                end: s.end_us,
            })
            .collect();
        // A program span nests only in a benchmark span or in a program
        // span of its own stage (`topdown.transducer` ⊃
        // `topdown.transducer.copying`): spans of concurrent batch workers
        // may overlap, and the name rule keeps them apart.
        let parent = parents(&intervals, |p, c| {
            let (p, c) = (&spans[p], &spans[c]);
            !p.program
                || (c.program
                    && c.name.len() > p.name.len()
                    && c.name.starts_with(&p.name)
                    && c.name.as_bytes()[p.name.len()] == b'.')
                || (c.program && p.name == "serve.request")
        });
        let selfs = self_times(&intervals, &parent);
        // Program spans inherit the request id of their nearest ancestor.
        let mut req: Vec<u64> = spans.iter().map(|s| s.req).collect();
        for i in 0..spans.len() {
            let mut up = parent[i];
            while let (0, Some(p)) = (req[i], up) {
                req[i] = spans[p].req;
                up = parent[p];
            }
        }
        for (i, s) in spans.iter().enumerate() {
            *self.self_us.entry(s.name.clone()).or_default() += selfs[i];
            self.total_us += selfs[i];
            if self.written.len() < MAX_WRITTEN_SPANS {
                let mut line = String::with_capacity(128);
                let _ = write!(
                    line,
                    "{{\"name\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"req\":{},\"program\":{},\"self_us\":{:.1}}}",
                    textpres::obs::quote(&s.name),
                    s.start_us,
                    s.end_us,
                    parent[i].map_or("null".to_owned(), |p| {
                        // Parents are indices into the written stream.
                        (self.written.len() as isize + p as isize - i as isize).to_string()
                    }),
                    req[i],
                    s.program,
                    selfs[i]
                );
                self.written.push(line);
            }
        }
    }

    /// Self time, µs, of every layer whose name is `prefix` or starts with
    /// `prefix.`.
    pub fn self_us_under(&self, prefix: &str) -> f64 {
        self.self_us
            .iter()
            .filter(|(k, _)| {
                k.as_str() == prefix
                    || (k.starts_with(prefix) && k.as_bytes().get(prefix.len()) == Some(&b'.'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Self time, µs, of exactly the layer `name`.
    pub fn self_us(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }

    /// Share of all self time that lies under `prefix`.
    pub fn share_under(&self, prefix: &str) -> f64 {
        if self.total_us > 0.0 {
            self.self_us_under(prefix) / self.total_us
        } else {
            0.0
        }
    }

    /// The self-time table, largest first, one line per layer.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&String, &f64)> = self.self_us.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        let mut out = String::new();
        for (name, us) in rows {
            let share = if self.total_us > 0.0 {
                us / self.total_us
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  self {name:<36} {:>12.3} ms {:>6.2}%",
                us / 1e3,
                share * 100.0
            );
        }
        out
    }

    /// Writes the attributed spans as JSONL to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut body = self.written.join("\n");
        body.push('\n');
        std::fs::write(path, body)
    }
}
