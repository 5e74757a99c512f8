//! `textpres serve` — a long-running daemon owning one persistent warm
//! [`Engine`].
//!
//! Every one-shot CLI invocation pays process startup plus a cold
//! [`ArtifactCache`](tpx_engine::ArtifactCache); the `engine_warm` bench
//! shows the warm path is ~1000× cheaper. This module keeps that cache
//! (and a parse memo over schema/transducer *sources*) hot across
//! requests, behind a zero-external-dep TCP protocol of
//! newline-delimited JSON frames (see [`protocol`]).
//!
//! The design priority is fault isolation — one bad client must never
//! wedge, crash, or starve the daemon:
//!
//! - every check runs under a per-request [`Budget`] (fuel + deadline),
//!   clamped by server-wide caps, through
//!   [`Engine::check_governed`] — whose `catch_unwind` turns a
//!   panicking decider into a structured [`protocol::codes::PANICKED`]
//!   response;
//! - admission control (see [`admission`]) bounds concurrent checks and
//!   the wait queue, shedding excess load with
//!   [`protocol::codes::OVERLOADED`] instead of growing memory;
//! - connections have read/write timeouts, an idle timeout, and a
//!   max-frame-size cap, so a slow or hostile client cannot pin a slot;
//! - a malformed frame earns a [`protocol::codes::BAD_FRAME`] response
//!   and parsing resynchronizes at the next newline — the connection
//!   survives;
//! - SIGTERM/SIGINT (see [`Server::install_signal_handlers`]) or a
//!   `shutdown` frame begins a graceful drain: stop accepting, answer
//!   everything already admitted (new-work budgets are clamped to the
//!   remaining drain window), hard-fail parked waiters at the drain
//!   deadline, flush traces/metrics once on the single exit path, and
//!   return so the process can exit 0.
//!
//! Connection threads execute their own admitted requests — there is no
//! cross-thread handoff on the hot path, which is what keeps the warm
//! served-request latency within the `validate_bench` bound of 2× the
//! in-process `engine_warm` figure.

pub mod protocol;

mod admission;

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tpx_dtl::{DtlTransducer, XPathPatterns};
use tpx_engine::{
    Budget, CheckOptions, Decider, DecisionError, DegradeBound, DtlDecider, Engine, Metrics,
    Outcome, OutputConformanceDecider, Task, TextRetentionDecider, TopdownDecider, Tracer, Verdict,
};
use tpx_topdown::Transducer;
use tpx_treeauto::Nta;
use tpx_trees::{Alphabet, Symbol};

use crate::format::{
    is_dtl_transducer, parse_dtl_transducer, parse_schema, parse_transducer, render_path,
    render_witness,
};
use admission::{AdmitError, Gate};
use protocol::{
    codes, AnalysisRequest, BatchRequest, BudgetRequest, CheckRequest, ErrorInfo, FrameId,
    HealthSummary, RegisterRequest, RequestBody, ResponseBody, SourceKind, SourceRef, StatsSummary,
    VerdictSummary,
};

/// How often blocked reads and the accept loop wake up to poll the
/// drain/stop flags.
const POLL: Duration = Duration::from_millis(25);

/// Server tuning knobs. [`ServeConfig::default`] is sized for tests and
/// small deployments; the CLI maps `textpres serve` flags onto it.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Concurrent checks (admission slots); 0 = host parallelism.
    pub slots: usize,
    /// Requests that may wait for a slot before shedding starts.
    pub queue: usize,
    /// Maximum simultaneously open client connections.
    pub max_connections: usize,
    /// Maximum bytes in one frame line (larger frames close the
    /// connection with `frame-too-large`).
    pub max_frame_bytes: usize,
    /// Close a connection after this long without a complete frame.
    pub idle_timeout: Duration,
    /// Socket write timeout (a client not draining its responses is
    /// disconnected rather than pinning the thread).
    pub write_timeout: Duration,
    /// Server-wide cap on per-request fuel (`None` = requests may run
    /// unmetered fuel-wise).
    pub max_fuel: Option<u64>,
    /// Server-wide cap on per-request wall-clock. Every check runs with
    /// a deadline of at most this, which is also what bounds the drain.
    pub max_timeout: Duration,
    /// How long a drain may take before parked waiters are hard-failed.
    pub drain_deadline: Duration,
    /// Named-source registry capacity (`register` frames).
    pub registry_cap: usize,
    /// Parse-memo capacity (compiled schema/transducer sources).
    pub memo_cap: usize,
    /// Write a JSONL span trace here on exit.
    pub trace_out: Option<std::path::PathBuf>,
    /// Print the metrics table to stderr on exit.
    pub metrics_dump: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7345".to_owned(),
            slots: 0,
            queue: 64,
            max_connections: 64,
            max_frame_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(10),
            max_fuel: None,
            max_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(5),
            registry_cap: 256,
            memo_cap: 128,
            trace_out: None,
            metrics_dump: false,
        }
    }
}

/// What the server did over its lifetime; returned by [`Server::run`]
/// after the drain completes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Check/batch requests answered with an engine result.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Frames rejected before reaching the engine.
    pub rejected: u64,
    /// Whether the drain deadline fired (parked waiters were answered
    /// with `shutting-down` instead of a verdict).
    pub forced_drain: bool,
}

/// A parsed-and-compiled (schema, transducer, analysis) triple, memoized
/// by source content so warm requests skip the text formats entirely.
struct Prepared {
    alpha: Alphabet,
    schema: Nta,
    kind: PreparedKind,
}

enum PreparedKind {
    Topdown(Transducer),
    Dtl(DtlTransducer<XPathPatterns>),
    Retention { t: Transducer, labels: Vec<Symbol> },
    Conformance { t: Transducer, target: Nta },
}

impl PreparedKind {
    /// The engine decider that runs this prepared check.
    fn decider(&self) -> Box<dyn Decider + '_> {
        match self {
            PreparedKind::Topdown(t) => Box::new(TopdownDecider::new(t)),
            PreparedKind::Dtl(t) => Box::new(DtlDecider::new(t)),
            PreparedKind::Retention { t, labels } => {
                Box::new(TextRetentionDecider::new(t, labels.clone()))
            }
            PreparedKind::Conformance { t, target } => {
                Box::new(OutputConformanceDecider::new(t, target))
            }
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    engine: Engine,
    tracer: Arc<Tracer>,
    metrics: Arc<Metrics>,
    gate: Gate,
    registry: Mutex<HashMap<String, (SourceKind, Arc<String>)>>,
    memo: Mutex<HashMap<u64, Arc<Prepared>>>,
    memo_hits: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    connections: AtomicU64,
    draining: AtomicBool,
    stopping: AtomicBool,
    drain_deadline_at: Mutex<Option<Instant>>,
    started: Instant,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Begins the drain: no new work is admitted, budgets of anything
    /// still racing in are clamped to the drain window.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            *lock(&self.drain_deadline_at) = Some(Instant::now() + self.cfg.drain_deadline);
        }
    }

    fn bad_request(&self, message: impl Into<String>) -> ErrorInfo {
        ErrorInfo::new(codes::BAD_REQUEST, message)
    }

    fn resolve(&self, source: &SourceRef, expect: SourceKind) -> Result<Arc<String>, ErrorInfo> {
        match source {
            SourceRef::Inline(text) => Ok(Arc::new(text.clone())),
            SourceRef::Named(name) => match lock(&self.registry).get(name) {
                Some((kind, text)) if *kind == expect => Ok(Arc::clone(text)),
                Some((kind, _)) => Err(self.bad_request(format!(
                    "ref {name:?} is a registered {}, not a {}",
                    kind.as_str(),
                    expect.as_str()
                ))),
                None => Err(self.bad_request(format!(
                    "unknown {} ref {name:?} (register it first)",
                    expect.as_str()
                ))),
            },
        }
    }

    /// Resolves, parses and compiles a check request's sources, through
    /// the bounded parse memo.
    fn prepare(&self, req: &CheckRequest) -> Result<Arc<Prepared>, ErrorInfo> {
        let schema_src = self.resolve(&req.schema, SourceKind::Schema)?;
        let t_src = self.resolve(&req.transducer, SourceKind::Transducer)?;
        let target_src = match &req.analysis {
            AnalysisRequest::Conformance { target } => {
                Some(self.resolve(target, SourceKind::Schema)?)
            }
            _ => None,
        };
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        schema_src.hash(&mut hasher);
        t_src.hash(&mut hasher);
        match &req.analysis {
            AnalysisRequest::TextPreservation => 0u8.hash(&mut hasher),
            AnalysisRequest::TextRetention { labels } => {
                1u8.hash(&mut hasher);
                labels.hash(&mut hasher);
            }
            AnalysisRequest::Conformance { .. } => {
                2u8.hash(&mut hasher);
                target_src
                    .as_ref()
                    .expect("resolved above")
                    .hash(&mut hasher);
            }
        }
        let key = hasher.finish();
        if let Some(p) = lock(&self.memo).get(&key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(p));
        }

        // Parse outside the memo lock; two racing requests for the same
        // sources may both compile, the second insert wins — the same
        // "duplicate work beats a held lock" tradeoff the ArtifactCache
        // shards make.
        //
        // A transducer source that sniffs as XSLT goes through the
        // frontend instead of the text-format parsers, compiled once per
        // (schema, stylesheet) pair into the engine's artifact cache
        // under the shared `xslt/compile` stage — the memo above only
        // shortcuts re-requests of the identical (analysis, sources)
        // triple, the artifact survives memo resets and is shared across
        // analyses.
        let (mut alpha, schema, resolved) = if tpx_xslt::is_stylesheet(&t_src) {
            let artifact =
                crate::frontend::compile_stylesheet_cached(&self.engine, &schema_src, &t_src)
                    .map_err(|e| self.bad_request(format!("transducer: {e}")))?;
            (
                artifact.alpha.clone(),
                artifact.schema.clone(),
                PreparedKind::Topdown(artifact.transducer.clone()),
            )
        } else {
            let mut alpha = Alphabet::new();
            let schema = parse_schema(&schema_src, &mut alpha)
                .map_err(|e| self.bad_request(format!("schema: {e}")))?
                .to_nta();
            let needs_topdown = |analysis: &str| {
                self.bad_request(format!(
                    "analysis {analysis} needs a top-down transducer, got a dtl program"
                ))
            };
            let resolved = match (&req.analysis, is_dtl_transducer(&t_src)) {
                (_, false) => PreparedKind::Topdown(
                    parse_transducer(&t_src, &alpha)
                        .map_err(|e| self.bad_request(format!("transducer: {e}")))?,
                ),
                (AnalysisRequest::TextPreservation, true) => PreparedKind::Dtl(
                    parse_dtl_transducer(&t_src, &alpha)
                        .map_err(|e| self.bad_request(format!("transducer: {e}")))?,
                ),
                (AnalysisRequest::TextRetention { .. }, true) => {
                    return Err(needs_topdown("text-retention"))
                }
                (AnalysisRequest::Conformance { .. }, true) => {
                    return Err(needs_topdown("conformance"))
                }
            };
            (alpha, schema, resolved)
        };
        // The source resolves to a text-preservation kind (a DTL program
        // only under that analysis); the other analyses wrap its top-down
        // transducer.
        let kind = match (&req.analysis, resolved) {
            (AnalysisRequest::TextRetention { labels }, PreparedKind::Topdown(t)) => {
                let labels = labels
                    .iter()
                    .map(|l| {
                        alpha.get(l).ok_or_else(|| {
                            self.bad_request(format!("label {l:?} is not in the schema alphabet"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                PreparedKind::Retention { t, labels }
            }
            (AnalysisRequest::Conformance { .. }, PreparedKind::Topdown(t)) => {
                // The target is parsed into the *same* alphabet so its
                // symbols line up with the transducer's output labels.
                let target = parse_schema(target_src.as_ref().expect("resolved above"), &mut alpha)
                    .map_err(|e| self.bad_request(format!("target: {e}")))?
                    .to_nta();
                PreparedKind::Conformance { t, target }
            }
            (_, kind) => kind,
        };
        let prepared = Arc::new(Prepared {
            alpha,
            schema,
            kind,
        });
        let mut memo = lock(&self.memo);
        if memo.len() >= self.cfg.memo_cap && !memo.contains_key(&key) {
            // Same wholesale-reset policy as the ArtifactCache entry cap:
            // dead simple, bounded, and a reset only costs re-parses.
            memo.clear();
        }
        memo.insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Clamps a request's budget against the server caps (and, during a
    /// drain, against the remaining drain window, so in-flight work can
    /// never outlive the drain by more than one `max_timeout`).
    fn effective_options(&self, req: &BudgetRequest) -> CheckOptions {
        let mut budget = Budget::default();
        let fuel = match (req.fuel, self.cfg.max_fuel) {
            (Some(f), Some(cap)) => Some(f.min(cap)),
            (Some(f), None) => Some(f),
            (None, cap) => cap,
        };
        if let Some(f) = fuel {
            budget = budget.with_fuel(f);
        }
        let mut timeout = req
            .timeout_ms
            .map_or(self.cfg.max_timeout, Duration::from_millis)
            .min(self.cfg.max_timeout);
        if let Some(deadline) = *lock(&self.drain_deadline_at) {
            let remaining = deadline.saturating_duration_since(Instant::now());
            timeout = timeout.min(remaining.max(Duration::from_millis(1)));
        }
        budget = budget.with_timeout(timeout);
        let mut options = CheckOptions::with_budget(budget);
        if req.degrade {
            options = options.degrade_with(DegradeBound::default());
        }
        options
    }

    fn run_prepared(&self, p: &Prepared, options: &CheckOptions) -> Result<Verdict, DecisionError> {
        self.engine
            .check_governed(&*p.kind.decider(), &p.schema, options)
    }

    fn handle_check(&self, req: &CheckRequest) -> ResponseBody {
        let prepared = match self.prepare(req) {
            Ok(p) => p,
            Err(e) => return self.reject(e),
        };
        let options = self.effective_options(&req.budget);
        let start = Instant::now();
        let result = self.run_prepared(&prepared, &options);
        let elapsed_us = start.elapsed().as_micros() as u64;
        self.served.fetch_add(1, Ordering::Relaxed);
        self.metrics.observe("serve/request_us", elapsed_us);
        match result {
            Ok(v) => ResponseBody::Verdict(summarize(&v, &prepared.alpha, elapsed_us)),
            Err(e) => {
                let info = decision_error_info(&e);
                self.metrics.incr(&format!("serve/errors/{}", info.code));
                ResponseBody::Error(info)
            }
        }
    }

    fn handle_batch(&self, req: &BatchRequest) -> ResponseBody {
        let options = self.effective_options(&req.budget);
        let prepared: Vec<Result<Arc<Prepared>, ErrorInfo>> = req
            .transducers
            .iter()
            .map(|t| {
                self.prepare(&CheckRequest {
                    schema: req.schema.clone(),
                    transducer: t.clone(),
                    analysis: AnalysisRequest::TextPreservation,
                    budget: req.budget.clone(),
                })
            })
            .collect();
        let ok: Vec<&Prepared> = prepared
            .iter()
            .filter_map(|p| p.as_ref().ok().map(Arc::as_ref))
            .collect();
        let deciders: Vec<Box<dyn Decider + '_>> = ok.iter().map(|p| p.kind.decider()).collect();
        let tasks: Vec<Task<'_>> = deciders
            .iter()
            .zip(&ok)
            .map(|(d, p)| (&**d, &p.schema))
            .collect();
        let start = Instant::now();
        let mut verdicts = self
            .engine
            .check_many_governed(&tasks, &options)
            .into_iter();
        let elapsed_us = start.elapsed().as_micros() as u64;
        self.served.fetch_add(1, Ordering::Relaxed);
        self.metrics.observe("serve/request_us", elapsed_us);
        let mut ok_iter = ok.iter();
        let results = prepared
            .iter()
            .map(|p| match p {
                Ok(_) => {
                    let prepared = ok_iter.next().expect("one per Ok");
                    match verdicts.next().expect("one verdict per task") {
                        Ok(v) => Ok(summarize(&v, &prepared.alpha, elapsed_us)),
                        Err(e) => {
                            let info = decision_error_info(&e);
                            self.metrics.incr(&format!("serve/errors/{}", info.code));
                            Err(info)
                        }
                    }
                }
                Err(e) => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    self.metrics.incr(&format!("serve/errors/{}", e.code));
                    Err(e.clone())
                }
            })
            .collect();
        ResponseBody::Batch(results)
    }

    fn handle_register(&self, req: &RegisterRequest) -> ResponseBody {
        let mut registry = lock(&self.registry);
        if registry.len() >= self.cfg.registry_cap && !registry.contains_key(&req.name) {
            return self.reject(ErrorInfo::new(
                codes::REGISTRY_FULL,
                format!("registry holds {} sources already", registry.len()),
            ));
        }
        registry.insert(req.name.clone(), (req.kind, Arc::new(req.text.clone())));
        ResponseBody::Registered {
            name: req.name.clone(),
            kind: req.kind,
        }
    }

    fn stats(&self) -> StatsSummary {
        let cache = self.engine.cache_stats();
        StatsSummary {
            served: self.served.load(Ordering::Relaxed),
            shed: self.gate.shed_total(),
            rejected: self.rejected.load(Ordering::Relaxed),
            inflight: self.gate.inflight(),
            queue_depth: self.gate.depth(),
            connections: self.connections.load(Ordering::Relaxed),
            registry_entries: lock(&self.registry).len() as u64,
            memo_entries: lock(&self.memo).len() as u64,
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            cache: (
                cache.hits,
                cache.misses,
                cache.entries as u64,
                cache.evictions,
            ),
            counters: self.metrics.snapshot().counters,
        }
    }

    /// Counts and returns a pre-engine rejection.
    fn reject(&self, e: ErrorInfo) -> ResponseBody {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.metrics.incr(&format!("serve/errors/{}", e.code));
        ResponseBody::Error(e)
    }

    /// Handles one parsed frame, producing the response body. Admission
    /// control and the draining gate live here.
    fn dispatch(&self, body: &RequestBody) -> ResponseBody {
        match body {
            RequestBody::Health => ResponseBody::Health(HealthSummary {
                status: if self.draining() { "draining" } else { "ok" },
                uptime_ms: self.started.elapsed().as_millis() as u64,
            }),
            RequestBody::Stats => ResponseBody::Stats(Box::new(self.stats())),
            RequestBody::Shutdown => {
                self.begin_drain();
                ResponseBody::ShutdownAck
            }
            RequestBody::Register(req) => {
                if self.draining() {
                    return self.reject(ErrorInfo::new(codes::SHUTTING_DOWN, "server is draining"));
                }
                self.handle_register(req)
            }
            RequestBody::Check(_) | RequestBody::Batch(_) => {
                if self.draining() {
                    return self.reject(ErrorInfo::new(codes::SHUTTING_DOWN, "server is draining"));
                }
                self.metrics.incr("serve/requests");
                let _permit = match self.gate.acquire() {
                    Ok(p) => p,
                    Err(AdmitError::Overloaded) => {
                        self.metrics.incr("serve/shed");
                        return ResponseBody::Error(ErrorInfo::new(
                            codes::OVERLOADED,
                            "all execution slots busy and the wait queue is full; retry",
                        ));
                    }
                    Err(AdmitError::Draining) => {
                        return self
                            .reject(ErrorInfo::new(codes::SHUTTING_DOWN, "server is draining"))
                    }
                };
                let span = self.tracer.span("serve/request");
                let body = match body {
                    RequestBody::Check(req) => self.handle_check(req),
                    RequestBody::Batch(req) => self.handle_batch(req),
                    _ => unreachable!("outer match"),
                };
                span.exit();
                body
            }
        }
    }
}

fn summarize(v: &Verdict, alpha: &Alphabet, elapsed_us: u64) -> VerdictSummary {
    let (outcome, witness) = match &v.outcome {
        Outcome::Preserving => ("preserving", None),
        Outcome::Copying { path } => ("copying", Some(render_path(path, alpha))),
        Outcome::Rearranging { witness } => ("rearranging", Some(render_witness(witness, alpha))),
        Outcome::NotPreserving { witness } => {
            ("not-preserving", Some(render_witness(witness, alpha)))
        }
        Outcome::DeletesText { path } => ("deletes-text", Some(render_path(path, alpha))),
        Outcome::NonConforming { witness } => {
            ("non-conforming", Some(render_witness(witness, alpha)))
        }
    };
    VerdictSummary {
        pass: matches!(v.outcome, Outcome::Preserving),
        analysis: v.analysis.name,
        decider: v.decider,
        outcome,
        degraded: v.degraded.is_some(),
        witness,
        cache_hits: v.stats.cache_hits(),
        cache_misses: v.stats.cache_misses(),
        fuel: v.stats.total_fuel(),
        elapsed_us,
    }
}

fn decision_error_info(e: &DecisionError) -> ErrorInfo {
    let code = match e {
        DecisionError::ResourceExhausted { .. } => codes::EXHAUSTED,
        DecisionError::Panicked { .. } => codes::PANICKED,
        DecisionError::Internal(_) => codes::INTERNAL,
    };
    ErrorInfo::new(code, e.to_string())
}

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // Only an atomic store: the full drain runs on the accept loop's
        // next poll tick, never in signal context.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // libc `signal(2)`, declared directly so the daemon stays
        // zero-external-dep. `signal` semantics (SA_RESTART implied on
        // glibc) are fine here because the accept loop is nonblocking
        // and every socket read has a timeout — nothing relies on EINTR.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;

    pub(super) static REQUESTED: AtomicBool = AtomicBool::new(false);

    pub(super) fn install() {}
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A bound-but-not-yet-running server. [`Server::run`] consumes it and
/// blocks until the drain completes.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

/// A cloneable handle for requesting a drain from another thread (tests
/// use this where a real deployment would send SIGTERM or a `shutdown`
/// frame).
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Begins the graceful drain, exactly like a `shutdown` frame.
    pub fn request_drain(&self) {
        self.shared.begin_drain();
    }
}

impl Server {
    /// Binds the listener and builds the warm engine. The engine's
    /// metrics are always enabled (the `stats` frame serves them); span
    /// tracing is enabled only when `cfg.trace_out` is set, since an
    /// unbounded daemon trace would grow without limit.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let tracer = if cfg.trace_out.is_some() {
            Arc::new(Tracer::enabled())
        } else {
            Arc::new(Tracer::default())
        };
        let metrics = Arc::new(Metrics::enabled());
        let engine = Engine::new()
            .with_tracer(Arc::clone(&tracer))
            .with_metrics(Arc::clone(&metrics));
        let slots = if cfg.slots == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.slots
        };
        let gate = Gate::new(slots, cfg.queue);
        let shared = Arc::new(Shared {
            engine,
            tracer,
            metrics,
            gate,
            registry: Mutex::new(HashMap::new()),
            memo: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            drain_deadline_at: Mutex::new(None),
            started: Instant::now(),
            cfg,
        });
        Ok(Server {
            shared,
            listener,
            local_addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A drain handle usable from other threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Installs SIGTERM/SIGINT handlers that begin a graceful drain on
    /// the running server (no-op off Unix). Call once, from the daemon
    /// binary only — in-process test servers drain via [`ServeHandle`]
    /// or `shutdown` frames instead.
    pub fn install_signal_handlers() {
        signals::install();
    }

    /// Accepts and serves connections until a drain completes. This is
    /// the single exit path: traces and metrics are flushed here whether
    /// the drain came from a signal, a `shutdown` frame, a
    /// [`ServeHandle`], an accept-loop error, or the drain-deadline
    /// backstop.
    pub fn run(self) -> io::Result<ServeReport> {
        let Server {
            shared, listener, ..
        } = self;
        listener.set_nonblocking(true)?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut accept_error = None;
        while !shared.draining() {
            if signals::REQUESTED.swap(false, Ordering::SeqCst) {
                shared.begin_drain();
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    handles.retain(|h| !h.is_finished());
                    if handles.len() >= shared.cfg.max_connections {
                        // Answer before closing so the client sees a
                        // structured shed, not a bare RST.
                        let line = protocol::render_response(
                            &FrameId::None,
                            &ResponseBody::Error(ErrorInfo::new(
                                codes::OVERLOADED,
                                "connection limit reached; retry",
                            )),
                        );
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue;
                    }
                    let shared = Arc::clone(&shared);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream);
                    }));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A dead listener is fatal for new work but must not
                    // lose in-flight answers: drain, flush, then report.
                    accept_error = Some(e);
                    shared.begin_drain();
                }
            }
        }
        drop(listener);

        // Drain: wait for every admitted request to finish, then fire
        // the backstop that sheds anything still parked at the gate.
        let deadline = lock(&shared.drain_deadline_at).unwrap_or_else(Instant::now);
        while !shared.gate.idle() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let forced_drain = !shared.gate.idle();
        if forced_drain {
            shared.gate.begin_hard_drain();
        }
        shared.stopping.store(true, Ordering::SeqCst);
        for h in handles {
            // Bounded: connection loops poll `stopping` every `POLL`,
            // writes time out, and in-flight budgets are clamped to
            // `max_timeout` (to the drain window, once draining).
            let _ = h.join();
        }

        flush_observability(&shared);
        let report = ServeReport {
            served: shared.served.load(Ordering::Relaxed),
            shed: shared.gate.shed_total(),
            rejected: shared.rejected.load(Ordering::Relaxed),
            forced_drain,
        };
        match accept_error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// The PR 4 flush-on-exit guarantee, serve edition: one flush point on
/// the only exit path of [`Server::run`].
fn flush_observability(shared: &Shared) {
    if let Some(path) = &shared.cfg.trace_out {
        match std::fs::File::create(path) {
            Ok(mut f) => {
                if let Err(e) = shared.tracer.write_jsonl(&mut f) {
                    eprintln!("textpres serve: cannot write trace {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("textpres serve: cannot create {}: {e}", path.display()),
        }
    }
    if shared.cfg.metrics_dump {
        let snapshot = shared.metrics.snapshot();
        if !snapshot.is_empty() {
            eprint!("{}", snapshot.render_table());
        }
    }
}

struct ConnGuard<'a>(&'a Shared);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    shared.connections.fetch_add(1, Ordering::Relaxed);
    let _guard = ConnGuard(shared);
    // Nagle + delayed-ACK would add ~40ms to every request/response
    // exchange; a one-line protocol wants the write on the wire now.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut line_no = 0u64;
    let mut last_activity = Instant::now();
    loop {
        // Answer every complete line already buffered before reading
        // more, so frames that arrived before a drain still get served.
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            line_no += 1;
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                continue;
            }
            let (id, body) = match protocol::parse_request_line(line) {
                Ok(frame) => (frame.id, shared.dispatch(&frame.body)),
                Err(mut e) => {
                    e.message = format!("frame {line_no}: {}", e.message);
                    (protocol::recover_id(line), shared.reject(e))
                }
            };
            let response = protocol::render_response(&id, &body);
            if stream.write_all(response.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
            last_activity = Instant::now();
        }
        if buf.len() > shared.cfg.max_frame_bytes {
            // No newline within the cap: the line cannot be
            // resynchronized, so answer once and close.
            let body = shared.reject(ErrorInfo::new(
                codes::FRAME_TOO_LARGE,
                format!(
                    "frame {} exceeds the {}-byte cap",
                    line_no + 1,
                    shared.cfg.max_frame_bytes
                ),
            ));
            let response = protocol::render_response(&FrameId::None, &body);
            let _ = stream.write_all(response.as_bytes());
            let _ = stream.write_all(b"\n");
            return;
        }
        if shared.stopping() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining() && buf.is_empty() {
                    // Idle connection during a drain: close so the
                    // server can finish. Anything mid-frame keeps its
                    // chance until the stop flag.
                    return;
                }
                if last_activity.elapsed() > shared.cfg.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}
