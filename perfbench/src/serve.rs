//! `serve_open`: an in-process `textpres serve` daemon on loopback — the
//! daemon user.
//!
//! The mix is mostly warm `*_ref` checks of registered chain-32 sources
//! (the hit path), a minority of inline checks drawn from a pool of
//! distinct chain sources larger than the parse memo (which churns it and
//! builds artifacts), and a few `register` frames. One generator thread
//! sends on `nproc` persistent connections; one reader thread per
//! connection matches responses (in order) to their requests.
//!
//! A timed run drives the mix from one client in a closed loop, one
//! request outstanding: on a shared 2-CPU host the open loop's figures
//! spread too far between runs to bound a regression (see
//! `WORKLOADS.md`). Each request is classed by the path the daemon took
//! (frame, parse-memo hit or miss, artifacts built or not; see
//! [`path_class`]), so repeats of a class are the same work. A traced
//! run drives the mix in an open loop: one long step at [`REF_RATE`], a
//! ladder of short steps above it — doubling until a step misses
//! [`LIMIT_MS`] at p99 or its backlog grows, then bisecting;
//! `serve_max_rps` is the achieved rate of the highest passing step.
//! Open-loop latency is timed from each request's scheduled send time,
//! so a stall also charges the requests queued behind it. In-band
//! `stats` frames sample the daemon's queue depth, memo and cache.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use textpres::format::{parse_schema, parse_transducer, render_path, render_transducer};
use textpres::obs::{quote, JsonValue};
use textpres::prelude::Alphabet;
use textpres::serve::{ServeConfig, ServeReport, Server};
use tpx_workload::{chain_schema, transducers};

use crate::calib::Calib;
use crate::common::{
    chain_expectation, chain_schema_src, chain_tree, end_window, finish_trace, overhead_pct, rng,
    shuffle, timed_setup, Repeats, Report, RunCfg,
};
use crate::stats::{
    backlog_grows, max_passing_rate, median, percentile, tail_percentile, RateStep, Tally,
};
use crate::trace::Recorder;

/// The reference rate, requests per second: well below capacity.
pub const REF_RATE: f64 = 1000.0;
/// The latency limit a ladder step's p99 must meet, ms.
pub const LIMIT_MS: f64 = 25.0;
/// Length of one ladder step.
const STEP: Duration = Duration::from_millis(1000);
/// Share of a traced pass spent at the reference rate (the rest goes to
/// the rate ladder).
const REF_SHARE: f64 = 0.4;
/// Distinct inline sources: more than `ServeConfig::memo_cap` (128).
const POOL: usize = 160;
/// Names the `register` frames overwrite in turn.
const EXTRA_NAMES: usize = 8;
/// Traffic mix, per mille: warm ref checks, inline checks, the rest
/// `register` frames.
const MIX_REF: u64 = 850;
const MIX_INLINE: u64 = 130;
/// Highest rate the ladder tries.
const MAX_RATE: f64 = 64_000.0;
/// How long the closed loop waits for one answer before giving up.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);
/// Length of one closed-loop chunk of a timed run (calibrated apart).
const CHUNK: Duration = Duration::from_secs(1);
/// How far one closed-loop chunk's calibration factor may stray from the
/// run's median factor (a ratio).
const MAX_CHUNK_SKEW: f64 = 1.25;
/// Requests of each side of a timed run's tracing-overhead probe (a fixed
/// count, so the traced daemon's span buffer is the same size every run).
const PROBE_REQUESTS: u64 = 3000;

/// One schema × transducer pair with its known verdict.
#[derive(Clone)]
struct Source {
    name: String,
    schema_src: String,
    t_src: String,
    expect_pass: bool,
    /// The rendered witness path of a copying verdict.
    witness: Option<String>,
}

fn chain_sources(
    n: usize,
    kinds: Vec<(String, textpres::prelude::Transducer)>,
) -> Result<Vec<Source>, String> {
    let (alpha, schema) = chain_schema(n);
    let tree = chain_tree(&schema, n)?;
    let schema_src = chain_schema_src(n);
    // The daemon parses the sources afresh: compute the expected witness
    // over the alphabet it will intern.
    let mut parsed = Alphabet::new();
    parse_schema(&schema_src, &mut parsed).map_err(|e| e.to_string())?;
    let path = textpres::topdown::paths::text_paths(&tree)
        .pop()
        .ok_or("chain has no text path")?;
    let rendered_path = render_path(&path, &parsed);
    kinds
        .into_iter()
        .map(|(name, t)| {
            let t_src = render_transducer(&t, &alpha);
            let reparsed = parse_transducer(&t_src, &parsed).map_err(|e| format!("{name}: {e}"))?;
            let expect_pass = chain_expectation(&reparsed, &tree);
            if !expect_pass && !textpres::topdown::semantic::copying_on(&reparsed, &tree) {
                return Err(format!("{name}: fails on a chain without copying"));
            }
            Ok(Source {
                name,
                schema_src: schema_src.clone(),
                t_src,
                expect_pass,
                witness: (!expect_pass).then(|| rendered_path.clone()),
            })
        })
        .collect()
}

/// The registered chain-32 sources: identity, deep selector and copier.
/// (The suite's swapper is left out: its warm decide stage alone takes
/// milliseconds at n = 32, and the hit path should stay light.)
fn registered() -> Result<Vec<Source>, String> {
    let (alpha, _) = chain_schema(32);
    let kinds = vec![
        (
            "t-identity".to_owned(),
            transducers::identity_transducer(&alpha),
        ),
        ("t-deep".to_owned(), transducers::deep_selector(&alpha, 32)),
        (
            "t-copier".to_owned(),
            transducers::copier_at_depth(&alpha, 32, 16),
        ),
    ];
    chain_sources(32, kinds)
}

/// [`POOL`] distinct inline sources on chains of 4..=11 labels.
fn pool(seed: u64) -> Result<Vec<Source>, String> {
    let mut all = Vec::new();
    for n in 4..=11 {
        let (alpha, _) = chain_schema(n);
        let mut kinds = Vec::new();
        for k in 0..n {
            kinds.push((
                format!("chain{n}-select{}", k + 1),
                transducers::deep_selector(&alpha, k + 1),
            ));
            kinds.push((
                format!("chain{n}-copy{k}"),
                transducers::copier_at_depth(&alpha, n, k),
            ));
            kinds.push((
                format!("chain{n}-swap{k}"),
                transducers::swapper_at_depth(&alpha, n, k),
            ));
        }
        all.extend(chain_sources(n, kinds)?);
    }
    shuffle(&mut all, &mut rng(seed, 0x5E));
    all.truncate(POOL);
    Ok(all)
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Ref(usize),
    Inline(usize),
    /// A `register` frame: of a pool source (the mix), or set-up/shutdown.
    Register(Option<usize>),
    Stats,
}

struct Pending {
    id: u64,
    due: Instant,
    kind: Kind,
    step: usize,
}

/// What one step observed.
#[derive(Default)]
struct StepObs {
    sent: u64,
    succeeded: u64,
    shed: u64,
    failed: u64,
    lat_ms: Vec<f64>,
    tax_us: Vec<f64>,
    lag_ms: Vec<f64>,
    queue_depth_max: u64,
    inflight: Vec<f64>,
    /// When the step's first request was due, and its last answer came.
    start: Option<Instant>,
    last_recv: Option<Instant>,
    /// Every answered request: its path class (see [`path_class`]) and
    /// latency, ms.
    samples: Vec<(usize, f64)>,
}

struct Shared {
    regs: Vec<Source>,
    pool: Vec<Source>,
    steps: Mutex<Vec<StepObs>>,
    errors: Mutex<Vec<String>>,
    /// Last `stats` frame seen.
    stats: Mutex<Option<JsonValue>>,
    received: AtomicU64,
}

struct Conn {
    stream: TcpStream,
    pending: Arc<Mutex<VecDeque<Pending>>>,
    reader: Option<JoinHandle<()>>,
}

/// A running daemon with its connections.
struct Daemon {
    conns: Vec<Conn>,
    run: JoinHandle<std::io::Result<ServeReport>>,
    shared: Arc<Shared>,
    next_id: u64,
    sent: u64,
}

fn extract<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn on_response(shared: &Shared, p: &Pending, line: &str, recv: Instant) {
    let lat_ms = recv.saturating_duration_since(p.due).as_secs_f64() * 1e3;
    let id_ok = extract(line, "\"id\":") == Some(&p.id.to_string());
    let ok = line.contains("\"ok\":true");
    let mut error = None;
    if !id_ok {
        error = Some(format!(
            "response out of order for request {}: {line}",
            p.id
        ));
    }
    let check = |src: &Source| -> Option<String> {
        let pass = line.contains("\"verdict\":\"pass\"");
        if pass != src.expect_pass {
            return Some(format!(
                "WRONG VERDICT on {}: expected pass={}, got {line}",
                src.name, src.expect_pass
            ));
        }
        if let Some(w) = &src.witness {
            if !line.contains(&format!("\"witness\":{}", quote(w))) {
                return Some(format!(
                    "WRONG WITNESS on {}: expected {w}, got {line}",
                    src.name
                ));
            }
        }
        None
    };
    let mut steps = shared.steps.lock().expect("no reader panicked");
    // The shutdown acknowledgement arrives after the last pass took its
    // steps.
    let Some(obs) = steps.get_mut(p.step) else {
        return;
    };
    if let Kind::Stats = p.kind {
        if let Ok(v) = JsonValue::parse(line) {
            let depth = v
                .get("serve")
                .and_then(|s| s.get("queue_depth"))
                .and_then(JsonValue::as_u64);
            obs.queue_depth_max = obs.queue_depth_max.max(depth.unwrap_or(0));
            *shared.stats.lock().expect("no reader panicked") = Some(v);
        }
        return;
    }
    obs.last_recv = Some(recv);
    if ok {
        let verdict_error = match p.kind {
            Kind::Ref(i) => check(&shared.regs[i]),
            Kind::Inline(i) => check(&shared.pool[i]),
            Kind::Register(_) | Kind::Stats => None,
        };
        error = error.or(verdict_error);
        obs.succeeded += 1;
        obs.lat_ms.push(lat_ms);
        let built = extract(line, "\"cache_misses\":").is_some_and(|m| m != "0");
        obs.samples
            .push((path_class(shared, p.kind, built, false), lat_ms));
        if let Some(us) = extract(line, "\"elapsed_us\":").and_then(|s| s.parse::<f64>().ok()) {
            obs.tax_us.push((lat_ms * 1e3 - us).max(0.0));
        }
    } else if line.contains("\"error\":\"overloaded\"") {
        obs.shed += 1;
    } else {
        obs.failed += 1;
        error = error.or(Some(format!("request {} failed: {line}", p.id)));
    }
    drop(steps);
    if let Some(e) = error {
        shared.errors.lock().expect("no reader panicked").push(e);
    }
}

/// The class of a request in a timed run's closed loop: the frame it
/// sent, whether the daemon built artifacts for it (`cache_misses` in
/// the verdict), and whether it missed the parse memo. Requests of one
/// class take the same path through the daemon, so its repeats are the
/// same work.
fn path_class(shared: &Shared, kind: Kind, built: bool, memo_miss: bool) -> usize {
    let (r, p) = (shared.regs.len(), shared.pool.len());
    let frame = match kind {
        Kind::Ref(i) => i,
        Kind::Inline(i) => r + i,
        Kind::Register(Some(i)) => r + p + i,
        Kind::Register(None) | Kind::Stats => r + 2 * p,
    };
    frame * 4 + usize::from(built) * 2 + usize::from(memo_miss)
}

fn reader_loop(stream: TcpStream, pending: Arc<Mutex<VecDeque<Pending>>>, shared: Arc<Shared>) {
    let mut lines = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let recv = Instant::now();
        let Some(p) = pending.lock().expect("no reader panicked").pop_front() else {
            shared
                .errors
                .lock()
                .expect("no reader panicked")
                .push(format!("unsolicited response: {line}"));
            return;
        };
        on_response(&shared, &p, line.trim_end(), recv);
        shared.received.fetch_add(1, Ordering::Release);
    }
}

impl Daemon {
    /// Binds the daemon, connects, registers the chain-32 suite and warms
    /// its artifacts: the serve workload's set-up.
    fn start(
        regs: &[Source],
        pool: &[Source],
        trace_out: Option<std::path::PathBuf>,
    ) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            // The default (0 = host parallelism) would see the pinned set.
            slots: workers(),
            trace_out,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        // The daemon's threads inherit this thread's CPU set.
        let run = std::thread::spawn(move || {
            pin_current_thread(Side::Server);
            server.run()
        });
        let shared = Arc::new(Shared {
            regs: regs.to_vec(),
            pool: pool.to_vec(),
            steps: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            stats: Mutex::new(None),
            received: AtomicU64::new(0),
        });
        let mut conns = Vec::new();
        for _ in 0..workers() {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let pending = Arc::new(Mutex::new(VecDeque::new()));
            let reader = {
                let (s, p, sh) = (
                    stream.try_clone().map_err(|e| e.to_string())?,
                    Arc::clone(&pending),
                    Arc::clone(&shared),
                );
                std::thread::spawn(move || {
                    pin_current_thread(Side::Client);
                    reader_loop(s, p, sh)
                })
            };
            conns.push(Conn {
                stream,
                pending,
                reader: Some(reader),
            });
        }
        let mut d = Daemon {
            conns,
            run,
            shared,
            next_id: 0,
            sent: 0,
        };
        // Register and warm: one closed-loop step of set-up traffic.
        d.shared
            .steps
            .lock()
            .expect("no reader panicked")
            .push(StepObs::default());
        let setup_step = 0;
        let schema = &regs[0].schema_src;
        d.send(
            0,
            Kind::Register(None),
            &format!(
                "\"type\":\"register\",\"name\":\"s32\",\"kind\":\"schema\",\"text\":{}",
                quote(schema)
            ),
            setup_step,
            Instant::now(),
        )?;
        for (i, r) in regs.iter().enumerate() {
            d.send(
                0,
                Kind::Register(None),
                &format!(
                    "\"type\":\"register\",\"name\":{},\"kind\":\"transducer\",\"text\":{}",
                    quote(&r.name),
                    quote(&r.t_src)
                ),
                setup_step,
                Instant::now(),
            )?;
            d.send(0, Kind::Ref(i), &ref_frame(r), setup_step, Instant::now())?;
        }
        d.drain(Duration::from_secs(30))?;
        d.check_errors()?;
        Ok(d)
    }

    fn send(
        &mut self,
        conn: usize,
        kind: Kind,
        body: &str,
        step: usize,
        due: Instant,
    ) -> Result<(), String> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = format!("{{\"id\":{id},{body}}}\n");
        let c = &mut self.conns[conn];
        c.pending
            .lock()
            .expect("no reader panicked")
            .push_back(Pending {
                id,
                due,
                kind,
                step,
            });
        self.sent += 1;
        c.stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn inflight(&self) -> u64 {
        self.sent - self.shared.received.load(Ordering::Acquire)
    }

    /// Waits until every sent request is answered.
    fn drain(&self, timeout: Duration) -> Result<(), String> {
        let until = Instant::now() + timeout;
        while self.inflight() > 0 {
            if Instant::now() > until {
                return Err(format!(
                    "{} requests unanswered after {timeout:?}",
                    self.inflight()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(())
    }

    fn check_errors(&self) -> Result<(), String> {
        let errors = self.shared.errors.lock().expect("no reader panicked");
        match errors.first() {
            Some(e) => Err(format!("{} error(s); first: {e}", errors.len())),
            None => Ok(()),
        }
    }

    /// Draws the next request of the mix.
    fn draw(&self, mix: &mut textpres::trees::rng::SplitMix64) -> (Kind, String) {
        let roll = mix.below(1000) as u64;
        if roll < MIX_REF {
            let r = mix.below(self.shared.regs.len());
            (Kind::Ref(r), ref_frame(&self.shared.regs[r]))
        } else if roll < MIX_REF + MIX_INLINE {
            let p = mix.below(self.shared.pool.len());
            let s = &self.shared.pool[p];
            (
                Kind::Inline(p),
                format!(
                    "\"type\":\"check\",\"schema\":{},\"transducer\":{}",
                    quote(&s.schema_src),
                    quote(&s.t_src)
                ),
            )
        } else {
            let p = mix.below(self.shared.pool.len());
            let name = format!("extra-{}", p % EXTRA_NAMES);
            (
                Kind::Register(Some(p)),
                format!(
                    "\"type\":\"register\",\"name\":{},\"kind\":\"transducer\",\"text\":{}",
                    quote(&name),
                    quote(&self.shared.pool[p].t_src)
                ),
            )
        }
    }

    /// Waits for the one outstanding request of a closed loop.
    fn await_answer(&self) -> Result<(), String> {
        let sent = Instant::now();
        while self.inflight() > 0 {
            if sent.elapsed() > ANSWER_TIMEOUT {
                return Err(format!("no answer within {ANSWER_TIMEOUT:?}"));
            }
            std::thread::yield_now();
        }
        Ok(())
    }

    /// The daemon's parse-memo hit count, from a `stats` frame.
    fn memo_hits(&mut self, step: usize) -> Result<u64, String> {
        self.send(0, Kind::Stats, "\"type\":\"stats\"", step, Instant::now())?;
        self.await_answer()?;
        self.shared
            .stats
            .lock()
            .expect("no reader panicked")
            .as_ref()
            .and_then(|v| v.get("serve")?.get("memo_hits")?.as_u64())
            .ok_or_else(|| "the stats frame has no serve.memo_hits".to_owned())
    }

    /// Runs the mix in a closed loop for `dur` or `max_requests`, whichever
    /// ends first: one client, one request outstanding at a time. After
    /// each request an untimed `stats` frame tells whether it hit the
    /// parse memo. Returns the step index.
    fn closed_step(
        &mut self,
        dur: Duration,
        max_requests: u64,
        mix: &mut textpres::trees::rng::SplitMix64,
    ) -> Result<usize, String> {
        let start = Instant::now();
        let step = {
            let mut steps = self.shared.steps.lock().expect("no reader panicked");
            steps.push(StepObs {
                start: Some(start),
                ..StepObs::default()
            });
            steps.len() - 1
        };
        let mut n = 0;
        let mut hits = self.memo_hits(step)?;
        while start.elapsed() < dur && n < max_requests {
            let (kind, body) = self.draw(mix);
            let answered = self.shared.steps.lock().expect("no reader panicked")[step]
                .samples
                .len();
            self.send(0, kind, &body, step, Instant::now())?;
            n += 1;
            self.await_answer()?;
            let now = self.memo_hits(step)?;
            let memo_miss = now == hits && !matches!(kind, Kind::Register(_));
            hits = now;
            if let Some(sample) = self.shared.steps.lock().expect("no reader panicked")[step]
                .samples
                .get_mut(answered)
            {
                sample.0 += usize::from(memo_miss);
            }
        }
        self.shared.steps.lock().expect("no reader panicked")[step].sent = n;
        Ok(step)
    }

    /// Runs one open-loop step at `rate` for `dur`; returns its index.
    fn step(
        &mut self,
        rate: f64,
        dur: Duration,
        mix: &mut textpres::trees::rng::SplitMix64,
    ) -> Result<usize, String> {
        let start = Instant::now() + Duration::from_millis(2);
        let step = {
            let mut steps = self.shared.steps.lock().expect("no reader panicked");
            steps.push(StepObs {
                start: Some(start),
                ..StepObs::default()
            });
            steps.len() - 1
        };
        let n = (rate * dur.as_secs_f64()).round() as u64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut lags = Vec::with_capacity(n as usize);
        let mut inflight = Vec::new();
        let (mut next_sample, mut next_stats) = (start, start);
        let mut i = 0u64;
        while i < n {
            let now = Instant::now();
            let due = start + interval.mul_f64(i as f64);
            if due > now {
                std::thread::sleep((due - now).min(Duration::from_micros(200)));
                continue;
            }
            if now >= next_sample {
                inflight.push(self.inflight() as f64);
                next_sample += Duration::from_millis(10);
            }
            if now >= next_stats {
                self.send(0, Kind::Stats, "\"type\":\"stats\"", step, now)?;
                next_stats += Duration::from_millis(100);
            }
            let conn = (i as usize) % self.conns.len();
            let (kind, body) = self.draw(mix);
            self.send(conn, kind, &body, step, due)?;
            lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            i += 1;
        }
        // The backlog left at the end of the step is part of its series.
        inflight.push(self.inflight() as f64);
        self.drain(Duration::from_secs(20))?;
        let mut steps = self.shared.steps.lock().expect("no reader panicked");
        let obs = &mut steps[step];
        obs.sent = n;
        obs.lag_ms = lags;
        obs.inflight = inflight;
        Ok(step)
    }

    /// Shuts the daemon down and checks that it drained cleanly.
    fn stop(mut self) -> Result<ServeReport, String> {
        let id = self.next_id + 1;
        self.conns[0]
            .stream
            .write_all(format!("{{\"id\":{id},\"type\":\"shutdown\"}}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        self.conns[0]
            .pending
            .lock()
            .expect("no reader panicked")
            .push_back(Pending {
                id,
                due: Instant::now(),
                kind: Kind::Register(None),
                step: 0,
            });
        for c in &mut self.conns {
            let _ = c.stream.shutdown(std::net::Shutdown::Write);
        }
        for c in &mut self.conns {
            if let Some(r) = c.reader.take() {
                r.join()
                    .map_err(|_| "a reader thread panicked".to_owned())?;
            }
        }
        let report = self
            .run
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
            .map_err(|e| format!("daemon did not drain cleanly: {e}"))?;
        if report.forced_drain {
            return Err("daemon drain hit its deadline".into());
        }
        Ok(report)
    }
}

fn ref_frame(s: &Source) -> String {
    format!(
        "\"type\":\"check\",\"schema_ref\":\"s32\",\"transducer_ref\":{}",
        quote(&s.name)
    )
}

/// The host's CPU count, read once before any thread is pinned (pinning
/// narrows what `available_parallelism` reports).
fn workers() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Which CPUs a thread runs on: the load generator and its readers get
/// the last CPU, the daemon the others, so the two sides of the loopback
/// never compete for a core (with one CPU both share it).
#[derive(Clone, Copy)]
enum Side {
    Server,
    Client,
}

/// A calibration probe on the daemon's CPUs.
fn server_probe() -> f64 {
    std::thread::spawn(|| {
        pin_current_thread(Side::Server);
        crate::calib::probe()
    })
    .join()
    .expect("the probe thread runs no program code")
}

#[cfg(target_os = "linux")]
fn pin_current_thread(side: Side) {
    extern "C" {
        // glibc `sched_setaffinity(2)`; pid 0 is the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let n = workers();
    if n < 2 {
        return;
    }
    let mut mask = [0u64; 16];
    let cpus = match side {
        Side::Server => 0..n - 1,
        Side::Client => n - 1..n,
    };
    let bits = 64 * mask.len();
    for cpu in cpus.filter(|&c| c < bits) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialized array of
    // `size_of_val(&mask)` bytes for the duration of the call, and the
    // kernel only reads it. A failure (e.g. a restricted CPU set) leaves
    // the thread unpinned, which is harmless.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_side: Side) {}

/// Summary of one step, scaled by its calibration factor `k`. The
/// achieved rate counts answered requests over the time from the first
/// due send to the last answer.
fn summarize(obs: &StepObs, rate: f64, k: f64) -> RateStep {
    let mut lat = obs.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    let span = match (obs.start, obs.last_recv) {
        (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
        _ => f64::INFINITY,
    };
    RateStep {
        offered: rate,
        achieved: obs.succeeded as f64 / (span * k),
        p99_ms: percentile(&lat, 99.0).map_or(f64::INFINITY, |p| p * k),
        backlog_growing: backlog_grows(&obs.inflight, 8.0),
        failed: obs.failed
            + obs.shed
            + obs
                .sent
                .saturating_sub(obs.succeeded + obs.shed + obs.failed),
    }
}

/// Everything one pass (reference step + ladder) measured.
struct Pass {
    ref_step: usize,
    /// Calibration factor of the reference step.
    ref_k: f64,
    /// Step index, summary and calibration factor of every judged step.
    steps: Vec<(usize, RateStep, f64)>,
    /// `serve_max_rps`.
    max_rps: f64,
    obs: Vec<StepObs>,
    stats: Option<JsonValue>,
}

fn run_pass(
    d: &mut Daemon,
    window: Duration,
    seed: u64,
    report: &mut Report,
) -> Result<Pass, String> {
    let mut mix = rng(seed, 0x0E);
    let ref_dur = window.mul_f64(REF_SHARE);
    let mut calib = Calib::with_probe(server_probe);
    let ref_step = d.step(REF_RATE, ref_dur, &mut mix)?;
    let ref_k = calib.next_factor();
    let mut steps = Vec::new();
    let summary = |d: &Daemon, i: usize, rate: f64, k: f64| {
        summarize(
            d.shared
                .steps
                .lock()
                .expect("no reader panicked")
                .get(i)
                .expect("step recorded"),
            rate,
            k,
        )
    };
    steps.push((ref_step, summary(d, ref_step, REF_RATE, ref_k), ref_k));
    let (mut lo, mut hi) = (REF_RATE, None::<f64>);
    let mut rate = REF_RATE * 2.0;
    // Doubling, then geometric bisection between the last pass and the
    // first miss.
    for _ in 0..12 {
        if let Some(h) = hi {
            if h / lo < 1.15 {
                break;
            }
            rate = (lo * h).sqrt();
        } else if rate > MAX_RATE {
            break;
        }
        let i = d.step(rate, STEP, &mut mix)?;
        let k = calib.next_factor();
        let s = summary(d, i, rate, k);
        steps.push((i, s, k));
        if s.passes(LIMIT_MS) {
            lo = rate;
            if hi.is_none() {
                rate *= 2.0;
            }
        } else {
            hi = Some(rate);
        }
    }
    d.check_errors()?;
    let rs: Vec<RateStep> = steps.iter().map(|(_, s, _)| *s).collect();
    let max_rps = max_passing_rate(&rs, LIMIT_MS)
        .ok_or("no rate met the latency limit, not even the reference rate")?;
    let obs = std::mem::take(&mut *d.shared.steps.lock().expect("no reader panicked"));
    let mut tally = Tally::default();
    for (i, _, _) in &steps {
        tally.merge(&step_tally(&obs[*i]));
    }
    for (i, s, k) in &steps {
        let o = &obs[*i];
        println!(
            "rate {:>8.0}/s: sent {} succeeded {} shed {} failed {}  p99 {:.3} ms  achieved {:.0}/s (calibrated, k {k:.3})  backlog {}  {}",
            s.offered,
            o.sent,
            o.succeeded,
            o.shed,
            o.failed,
            s.p99_ms,
            s.achieved,
            if s.backlog_growing { "growing" } else { "steady" },
            if s.passes(LIMIT_MS) { "pass" } else { "miss" }
        );
    }
    report.tally.merge(&tally);
    let stats = d.shared.stats.lock().expect("no reader panicked").take();
    Ok(Pass {
        ref_step,
        ref_k,
        steps,
        max_rps,
        obs,
        stats,
    })
}

/// What one step's requests came to.
fn step_tally(o: &StepObs) -> Tally {
    Tally {
        attempted: o.sent,
        succeeded: o.succeeded,
        errored: o.failed,
        shed: o.shed,
        dropped: o.sent.saturating_sub(o.succeeded + o.shed + o.failed),
    }
}

/// Runs `chunks` closed-loop chunks of [`CHUNK`] (or `max_requests`),
/// each calibrated apart, and returns every request's calibrated latency
/// under its path class (see [`path_class`]) with the requests' tally.
///
/// A class's time is the low decile of its repeats across all chunks, so
/// one chunk scaled too far down would set it. A chunk's factor is
/// therefore kept within [`MAX_CHUNK_SKEW`] of the run's median factor.
fn closed_loop(
    d: &mut Daemon,
    chunks: u32,
    max_requests: u64,
    mix: &mut textpres::trees::rng::SplitMix64,
) -> Result<(Repeats, Tally), String> {
    let mut calib = Calib::with_probe(server_probe);
    let mut done = Vec::new();
    for _ in 0..chunks {
        let i = d.closed_step(CHUNK, max_requests, mix)?;
        done.push((i, calib.next_factor()));
        d.check_errors()?;
    }
    let ks: Vec<f64> = done.iter().map(|&(_, k)| k).collect();
    let median_k = median(&ks).expect("at least one chunk");
    let mut lat = Repeats::default();
    let mut tally = Tally::default();
    let steps = d.shared.steps.lock().expect("no reader panicked");
    for (i, k) in done {
        let k = k.clamp(median_k / MAX_CHUNK_SKEW, median_k * MAX_CHUNK_SKEW);
        for &(class, ms) in &steps[i].samples {
            lat.push(class, ms * k);
        }
        tally.merge(&step_tally(&steps[i]));
    }
    Ok((lat, tally))
}

/// A timed run: one client in a closed loop over the mix, then a fixed
/// number of requests each on this daemon and on a traced one for the
/// overhead.
fn timed(
    cfg: &RunCfg,
    regs: &[Source],
    pool: &[Source],
    mut report: Report,
) -> Result<Report, String> {
    let mut mix = rng(cfg.seed, 0x0E);
    let mut d = Daemon::start(regs, pool, None)?;
    let chunks = (cfg.seconds * 0.75).round().max(1.0) as u32;
    let (lat, tally) = closed_loop(&mut d, chunks, u64::MAX, &mut mix)?;
    let (p50, p90) = lat.p50_p90("serve_open")?;
    report.set("checks_per_s", lat.checks_per_s());
    report.set("verdict_p50_ms", p50);
    report.set("verdict_p90_ms", p90);
    report.tally.merge(&tally);
    let (memo_misses, built) = d
        .shared
        .steps
        .lock()
        .expect("no reader panicked")
        .iter()
        .skip(1) // the daemon's set-up traffic
        .flat_map(|o| &o.samples)
        .fold((0, 0), |(m, b), &(class, _)| {
            (m + class % 2, b + class / 2 % 2)
        });
    println!(
        "closed loop: {} requests ({memo_misses} missed the parse memo, {built} built artifacts)  p50 {p50:.4} ms  p90 {p90:.4} ms",
        lat.checks()
    );
    end_window()?;
    let untraced = closed_loop(&mut d, 1, PROBE_REQUESTS, &mut mix)?
        .0
        .raw_total_s();
    let served = d.stop()?;
    println!(
        "daemon drained cleanly: served {} shed {} rejected {}",
        served.served, served.shed, served.rejected
    );
    let path = cfg
        .out_dir
        .join(format!("serve_open-seed{}.probe-trace.jsonl", cfg.seed));
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let mut t = Daemon::start(regs, pool, Some(path))?;
    let traced = closed_loop(&mut t, 1, PROBE_REQUESTS, &mut mix)?
        .0
        .raw_total_s();
    t.stop()?;
    println!(
        "obs.trace_overhead_pct {:+.2} (closed loop, {PROBE_REQUESTS} requests each)",
        overhead_pct(untraced, traced)
    );
    Ok(report)
}

/// The per-layer metrics this workload produces.
pub const PER_LAYER: &[&str] = &[
    "engine.cache.hit_ratio",
    "engine.cache.evictions",
    "engine.cache.entries",
    "serve.frame_parse_us",
    "serve.tax_us",
    "serve.memo_hit_ratio",
    "serve.shed",
    "serve.queue_depth_max",
    "serve.p50_ms",
    "serve.p99_ms",
    "serve.max_rps",
    "loadgen.lag_p99_ms",
];

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    workers();
    pin_current_thread(Side::Client);
    let mut report = Report::default();
    let regs = registered()?;
    let pool = pool(cfg.seed)?;
    let (setup_s, _) = timed_setup(7, || {
        Daemon::start(&regs, &pool, None).and_then(Daemon::stop)
    })?;
    report.set("setup_s", setup_s);
    println!(
        "serve_open: open loop, {} connections, reference {REF_RATE}/s, ladder steps {STEP:?}, p99 limit {LIMIT_MS} ms, mix ref/inline/register {MIX_REF}/{MIX_INLINE}/{} per mille, pool {POOL}",
        workers(),
        1000 - MIX_REF - MIX_INLINE
    );
    if !cfg.trace {
        return timed(cfg, &regs, &pool, report);
    }
    let mut d = Daemon::start(&regs, &pool, None)?;
    let plain = run_pass(&mut d, cfg.pass_seconds(), cfg.seed, &mut report)?;
    let served = d.stop()?;
    println!(
        "daemon drained cleanly: served {} shed {} rejected {}",
        served.served, served.shed, served.rejected
    );
    let ref_obs = &plain.obs[plain.ref_step];
    let k = plain.ref_k;
    let mut lat: Vec<f64> = ref_obs.lat_ms.iter().map(|l| l * k).collect();
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| percentile(&lat, p).unwrap_or(0.0);
    let mut lag: Vec<f64> = plain
        .steps
        .iter()
        .flat_map(|(i, _, _)| plain.obs[*i].lag_ms.iter().copied())
        .collect();
    lag.sort_by(f64::total_cmp);
    let lag_p99 = percentile(&lag, 99.0).unwrap_or(0.0);
    println!(
        "serve_p50_ms {:.4}  serve_p99_ms {:.4}  serve_max_rps {:.1}  loadgen.lag_p99_ms {lag_p99:.4}  ({} samples at {REF_RATE}/s)",
        pct(50.0),
        pct(99.0),
        plain.max_rps,
        lat.len()
    );
    if tail_percentile(lat.len()).is_none_or(|p| p < 99.0) {
        return Err(format!(
            "serve_open: only {} samples at the reference rate, too few for p99",
            lat.len()
        ));
    }
    report.set("serve.p50_ms", pct(50.0));
    report.set("serve.p99_ms", pct(99.0));
    report.set("serve.max_rps", plain.max_rps);
    report.set("loadgen.lag_p99_ms", lag_p99);
    report.set("serve.tax_us", {
        let mut t: Vec<f64> = ref_obs.tax_us.iter().map(|l| l * k).collect();
        t.sort_by(f64::total_cmp);
        percentile(&t, 50.0).unwrap_or(0.0)
    });
    report.set(
        "serve.shed",
        plain.obs.iter().map(|o| o.shed).sum::<u64>() as f64,
    );
    report.set(
        "serve.queue_depth_max",
        plain
            .obs
            .iter()
            .map(|o| o.queue_depth_max)
            .max()
            .unwrap_or(0) as f64,
    );
    {
        let s = plain
            .stats
            .as_ref()
            .ok_or("serve_open: the daemon answered no stats frame")?;
        let num = |path: &[&str]| {
            let mut v = Some(s);
            for k in path {
                v = v.and_then(|x| x.get(k));
            }
            v.and_then(JsonValue::as_u64).unwrap_or(0) as f64
        };
        let served = num(&["serve", "served"]);
        report.set(
            "serve.memo_hit_ratio",
            if served > 0.0 {
                num(&["serve", "memo_hits"]) / served
            } else {
                0.0
            },
        );
        let (hits, misses) = (num(&["cache", "hits"]), num(&["cache", "misses"]));
        report.set(
            "engine.cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        report.set("engine.cache.entries", num(&["cache", "entries"]));
        report.set("engine.cache.evictions", num(&["cache", "evictions"]));
    }
    // Timed frame parsing over one of each frame shape the mix sends.
    let frames: Vec<String> = [
        ref_frame(&regs[0]),
        format!(
            "\"type\":\"check\",\"schema\":{},\"transducer\":{}",
            quote(&pool[0].schema_src),
            quote(&pool[0].t_src)
        ),
        format!(
            "\"type\":\"register\",\"name\":\"extra-0\",\"kind\":\"transducer\",\"text\":{}",
            quote(&pool[0].t_src)
        ),
    ]
    .iter()
    .map(|b| format!("{{\"id\":1,{b}}}"))
    .collect();
    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            textpres::serve::protocol::parse_request_line(f).map_err(|e| e.message)?;
        }
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / (reps * frames.len()) as f64;
    report.set("serve.frame_parse_us", parse_us);

    // Traced pass: the daemon writes its span trace on drain.
    let trace_path = cfg
        .out_dir
        .join(format!("serve_open-seed{}.daemon-trace.jsonl", cfg.seed));
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    let offset = rec.now_us();
    let mut d = Daemon::start(&regs, &pool, Some(trace_path.clone()))?;
    let traced = run_pass(&mut d, cfg.pass_seconds(), cfg.seed, &mut report)?;
    d.stop()?;
    let jsonl = std::fs::read_to_string(&trace_path).map_err(|e| format!("daemon trace: {e}"))?;
    rec.add_jsonl(&jsonl, offset)?;
    rec.attribute();
    let mut tlat: Vec<f64> = traced.obs[traced.ref_step]
        .lat_ms
        .iter()
        .map(|l| l * traced.ref_k)
        .collect();
    tlat.sort_by(f64::total_cmp);
    let tp50 = percentile(&tlat, 50.0).unwrap_or(0.0);
    report.set("obs.trace_overhead_pct", overhead_pct(pct(50.0), tp50));
    finish_trace(cfg, "serve_open", &rec)?;
    Ok(report)
}
