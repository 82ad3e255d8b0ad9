//! `jim-load` — a concurrent-session load driver for `jim-serve`.
//!
//! The driver opens `--concurrency` client connections (one worker thread
//! each) against a running server — an external one via `--addr`, or an
//! in-process one it spawns itself with `--spawn` — and drives
//! `--sessions` synthetic inference sessions through them: a seeded mixed
//! workload of `CreateSession` (scenario and strategy mix, the `social`
//! self-join included), `NextQuestion`+`Answer` turns, `TopK`+`AnswerBatch`
//! turns, side ops (`Stats`, `Sql`, `Transcript`, `Explain`,
//! `ResumeSession`) and a probabilistic `CloseSession`.
//!
//! Every request's round-trip latency lands in a per-worker, per-op
//! `jim-metrics` [`Histogram`]; workers never share a lock. At the end the
//! per-worker snapshots are **merged** — the exact snapshot-merge
//! invariant `jim-metrics` proptests — into one client-side percentile
//! table per op, and the driver asks the server for its own `Metrics`
//! snapshot. When the driver is the only client (`--spawn`, or `--addr`
//! with `--exclusive`), the two views must agree *exactly*: for every op,
//! the client's sent count equals the server's request counter (the
//! `Metrics` fetch itself included — the server counts requests before
//! dispatch). Any disagreement, any `ok:false` response and any transport
//! error fails the run.
//!
//! The result is written as `BENCH_load.json`: git revision, full config,
//! per-op count + p50/p90/p99/max/mean microseconds, throughput, error
//! counts and the server's store counters. The file is re-parsed after
//! writing; an unwritable or invalid report also fails the run.
//!
//! The workload is error-free *by construction*: answers label only
//! tuples the server just proposed (always informative, hence unlabeled
//! and unpruned), batches apply one label polarity (same-label batches
//! can never conflict), and `Explain` passes an explicitly known tuple.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use jim_json::Json;
use jim_metrics::{Histogram, HistogramSnapshot};
use jim_server::{
    serve_with, Handler, JournalStore, Op, SessionStore, Shutdown, StoreConfig, TransportLimits,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scenario mix the sessions draw from (weights out of 100).
const SCENARIOS: [(&str, u32); 3] = [("flights", 40), ("social", 40), ("setgame", 20)];

/// Run configuration (CLI flags parsed by [`cli_main`]).
#[derive(Debug, Clone)]
pub struct Config {
    /// Server address; `None` spawns an in-process server.
    pub addr: Option<String>,
    /// Worker threads = concurrent client connections.
    pub concurrency: usize,
    /// Total sessions driven across all workers.
    pub sessions: usize,
    /// Upper bound on interaction turns per session.
    pub max_turns: usize,
    /// Base RNG seed; worker `i` derives its own stream from it.
    pub seed: u64,
    /// Where the report lands.
    pub out: PathBuf,
    /// The driver is the only client: cross-check client vs. server
    /// counts exactly (implied by spawning).
    pub exclusive: bool,
    /// Smoke preset (small, CI-sized run).
    pub smoke: bool,
    /// Transport guardrails for the spawned server (admission cap, idle
    /// timeout) — recorded in the report so a BENCH_load.json diff shows
    /// what front end produced it.
    pub limits: TransportLimits,
    /// The admission-churn preset: more workers than connection slots,
    /// one connection per session, so every session pays the full
    /// admit-or-shed path. The run *fails* if the cap never sheds.
    pub connections_preset: bool,
    /// A previously written `BENCH_load.json` to regression-gate against:
    /// the run fails if any op's p99 exceeds
    /// [`BASELINE_P99_FACTOR`]× the baseline's.
    pub check_baseline: Option<PathBuf>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: None,
            concurrency: 100,
            sessions: 200,
            max_turns: 20,
            seed: 42,
            out: PathBuf::from("BENCH_load.json"),
            exclusive: true,
            smoke: false,
            limits: TransportLimits::default(),
            connections_preset: false,
            check_baseline: None,
        }
    }
}

impl Config {
    /// The CI-sized preset: small enough for a smoke gate, mixed enough
    /// to touch every op.
    pub fn smoke() -> Config {
        Config {
            concurrency: 8,
            sessions: 24,
            max_turns: 10,
            smoke: true,
            ..Config::default()
        }
    }

    /// The `--connections` preset: twice as many workers as connection
    /// slots, reconnecting for every session, so the admission cap sheds
    /// continuously while admitted traffic stays error-free. Shed
    /// workers retry with backoff until a slot frees.
    pub fn connections() -> Config {
        Config {
            concurrency: 64,
            sessions: 96,
            max_turns: 5,
            limits: TransportLimits {
                max_connections: 32,
                ..TransportLimits::default()
            },
            connections_preset: true,
            ..Config::default()
        }
    }
}

/// How long a fresh connection listens for an immediate shed notice
/// before concluding it was admitted. The server sheds synchronously at
/// accept, so on loopback the notice (or its FIN) lands in microseconds;
/// the window only bounds the *admitted* case, which pays it once.
const ADMISSION_PROBE: Duration = Duration::from_millis(150);

/// One line-oriented client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Connect and classify the server's admission verdict before
    /// sending anything: a shed connection hears the typed `overloaded`
    /// line (or at least the close) immediately, an admitted one hears
    /// nothing until it speaks. `Ok(None)` means shed — the caller backs
    /// off and retries. Probing before the first write keeps the notice
    /// reliable (the client has nothing in flight, so the server's close
    /// is a clean FIN, never a data-discarding reset) and keeps shed
    /// requests out of the sent counts entirely.
    fn connect_probe(addr: &str) -> Result<Option<Conn>, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(ADMISSION_PROBE))
            .map_err(|e| format!("probe timeout: {e}"))?;
        let mut one = [0u8; 1];
        match stream.peek(&mut one) {
            Ok(_) => Ok(None), // the shed notice (or bare close): not admitted
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
                let reader = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| format!("clone stream: {e}"))?,
                );
                Ok(Some(Conn {
                    reader,
                    writer: stream,
                }))
            }
            Err(e) => Err(format!("probe {addr}: {e}")),
        }
    }

    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Per-worker accounting: op counts, per-op latency histograms, errors.
struct WorkerStats {
    sent: Vec<u64>,
    latency: Vec<Histogram>,
    protocol_errors: u64,
    io_errors: u64,
    rejected_batches: u64,
    sheds: u64,
    error_samples: Vec<String>,
}

/// Cap on retained error messages, per worker and in the merged report.
const ERROR_SAMPLES: usize = 5;

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            sent: vec![0; Op::ALL.len()],
            latency: (0..Op::ALL.len()).map(|_| Histogram::new()).collect(),
            protocol_errors: 0,
            io_errors: 0,
            rejected_batches: 0,
            sheds: 0,
            error_samples: Vec::new(),
        }
    }

    /// Send one request, time the round trip, account the outcome.
    fn request(&mut self, conn: &mut Conn, op: Op, line: &str) -> Result<Json, String> {
        self.sent[op as usize] += 1;
        let start = Instant::now();
        let response = match conn.round_trip(line) {
            Ok(response) => response,
            Err(e) => {
                self.io_errors += 1;
                return Err(e);
            }
        };
        let json = match Json::parse(response.trim()) {
            Ok(json) => json,
            Err(e) => {
                self.io_errors += 1;
                return Err(format!("unparseable response: {e}"));
            }
        };
        if json.get("code").and_then(Json::as_str) == Some("overloaded") {
            // Shed at admission (the connect probe's window was outrun):
            // the server never read this request, so it must not count
            // toward the exact cross-check. The connection is closing —
            // tell the caller to reconnect.
            self.sent[op as usize] -= 1;
            self.sheds += 1;
            return Err("shed at admission".into());
        }
        self.latency[op as usize].record_duration(start.elapsed());
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            self.protocol_errors += 1;
            if self.error_samples.len() < ERROR_SAMPLES {
                let message = json
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("(no error field)");
                self.error_samples.push(format!("{}: {message}", op.name()));
            }
        }
        Ok(json)
    }
}

/// Pick from a weighted table (weights sum to 100).
fn pick_weighted<'a>(rng: &mut StdRng, table: &[(&'a str, u32)]) -> &'a str {
    let roll = rng.gen_range(0u32..100);
    let mut acc = 0;
    for &(name, weight) in table {
        acc += weight;
        if roll < acc {
            return name;
        }
    }
    table.last().expect("non-empty table").0
}

/// Drive one full session lifecycle over `conn`. `Err` means the
/// connection itself is unusable (I/O failure or an admission shed that
/// outran the connect probe) — the worker reconnects and retries.
fn drive_session(
    conn: &mut Conn,
    rng: &mut StdRng,
    stats: &mut WorkerStats,
    max_turns: usize,
) -> Result<(), String> {
    let scenario = pick_weighted(rng, &SCENARIOS);
    let strategy = match rng.gen_range(0u32..4) {
        0 => String::new(), // server default
        1 => r#","strategy":"lookahead-minprune""#.into(),
        2 => r#","strategy":"local-general""#.into(),
        _ => format!(r#","strategy":"random:{}""#, rng.gen_range(1u64..1000)),
    };
    // Cap setgame's 144-tuple product below its size so every setgame
    // session exercises the oversized open: it factorizes, exactly.
    let limit = if scenario == "setgame" {
        r#","max_product":64"#
    } else {
        ""
    };
    let create = format!(
        r#"{{"op":"CreateSession","source":{{"scenario":"{scenario}"}}{strategy}{limit}}}"#
    );
    let r = stats.request(conn, Op::CreateSession, &create)?;
    let Some(sid) = r.get("session").and_then(Json::as_u64) else {
        return Ok(());
    };
    let mut last_tuple: Option<u64> = None;
    for _ in 0..max_turns {
        let roll = rng.gen_range(0u32..100);
        let resolved = if roll < 55 {
            one_question_turn(conn, rng, stats, sid, &mut last_tuple)
        } else if roll < 75 {
            batch_turn(conn, rng, stats, sid, &mut last_tuple)
        } else {
            side_op_turn(conn, rng, stats, sid, last_tuple)
        };
        if resolved? {
            break;
        }
    }
    if rng.gen_bool(0.85) {
        stats.request(
            conn,
            Op::CloseSession,
            &format!(r#"{{"op":"CloseSession","session":{sid}}}"#),
        )?;
    }
    Ok(())
}

/// `NextQuestion` then `Answer` on the proposed tuple. `Ok(true)` once
/// the session resolves.
fn one_question_turn(
    conn: &mut Conn,
    rng: &mut StdRng,
    stats: &mut WorkerStats,
    sid: u64,
    last_tuple: &mut Option<u64>,
) -> Result<bool, String> {
    let q = stats.request(
        conn,
        Op::NextQuestion,
        &format!(r#"{{"op":"NextQuestion","session":{sid}}}"#),
    )?;
    if q.get("resolved").and_then(Json::as_bool) == Some(true) {
        return Ok(true);
    }
    let Some(tuple) = q.get("tuple").and_then(Json::as_u64) else {
        return Ok(false);
    };
    *last_tuple = Some(tuple);
    // Mostly negative answers keep sessions converging the way the
    // paper's walkthrough does; the explicit tuple rank makes the answer
    // valid even if the session was evicted and resumed in between.
    let label = if rng.gen_bool(0.7) { "-" } else { "+" };
    let a = stats.request(
        conn,
        Op::Answer,
        &format!(r#"{{"op":"Answer","session":{sid},"tuple":{tuple},"label":"{label}"}}"#),
    )?;
    Ok(a.get("resolved").and_then(Json::as_bool) == Some(true))
}

/// `TopK` then a same-label `AnswerBatch` over the returned tuples
/// (one polarity per batch: such a batch can never self-conflict).
fn batch_turn(
    conn: &mut Conn,
    rng: &mut StdRng,
    stats: &mut WorkerStats,
    sid: u64,
    last_tuple: &mut Option<u64>,
) -> Result<bool, String> {
    let k = rng.gen_range(2u64..5);
    let b = stats.request(
        conn,
        Op::TopK,
        &format!(r#"{{"op":"TopK","session":{sid},"k":{k}}}"#),
    )?;
    if b.get("resolved").and_then(Json::as_bool) == Some(true) {
        return Ok(true);
    }
    let tuples: Vec<u64> = b
        .get("tuples")
        .and_then(Json::as_array)
        .map(|ts| {
            ts.iter()
                .filter_map(|t| t.get("tuple").and_then(Json::as_u64))
                .collect()
        })
        .unwrap_or_default();
    if tuples.is_empty() {
        return Ok(false);
    }
    *last_tuple = Some(tuples[0]);
    let label = if rng.gen_bool(0.8) { "-" } else { "+" };
    let labels: Vec<String> = tuples
        .iter()
        .map(|t| format!(r#"{{"tuple":{t},"label":"{label}"}}"#))
        .collect();
    let a = stats.request(
        conn,
        Op::AnswerBatch,
        &format!(
            r#"{{"op":"AnswerBatch","session":{sid},"labels":[{}]}}"#,
            labels.join(",")
        ),
    )?;
    if a.get("ok").and_then(Json::as_bool) == Some(false) {
        let message = a.get("error").and_then(Json::as_str).unwrap_or("");
        if message.contains("contradicts") {
            // A simulated user labels without ground truth, so a batch of
            // `+` labels can contradict the session's earlier answers.
            // The server's atomic rejection (session untouched) is the
            // documented contract, not a failure — reclassify it out of
            // the error gate into its own ledger.
            stats.protocol_errors -= 1;
            stats.rejected_batches += 1;
            if stats
                .error_samples
                .last()
                .is_some_and(|s| s.contains("contradicts"))
            {
                stats.error_samples.pop();
            }
        }
        return Ok(false);
    }
    Ok(a.get("resolved").and_then(Json::as_bool) == Some(true))
}

/// One observer op: `Stats`, `Sql`, `Transcript`, `Explain` (when a
/// tuple is known) or `ResumeSession` on the session's own id.
fn side_op_turn(
    conn: &mut Conn,
    rng: &mut StdRng,
    stats: &mut WorkerStats,
    sid: u64,
    last_tuple: Option<u64>,
) -> Result<bool, String> {
    let (op, line) = match rng.gen_range(0u32..5) {
        0 => (Op::Stats, format!(r#"{{"op":"Stats","session":{sid}}}"#)),
        1 => (Op::Sql, format!(r#"{{"op":"Sql","session":{sid}}}"#)),
        2 => (
            Op::Transcript,
            format!(r#"{{"op":"Transcript","session":{sid}}}"#),
        ),
        3 => match last_tuple {
            Some(t) => (
                Op::Explain,
                format!(r#"{{"op":"Explain","session":{sid},"tuple":{t}}}"#),
            ),
            None => (Op::Stats, format!(r#"{{"op":"Stats","session":{sid}}}"#)),
        },
        _ => (
            Op::ResumeSession,
            format!(r#"{{"op":"ResumeSession","session":{sid}}}"#),
        ),
    };
    stats.request(conn, op, &line)?;
    Ok(false)
}

/// The merged outcome of a run, ready to render and judge.
pub struct Report {
    /// The configuration that produced it.
    pub config: Config,
    /// Address actually driven.
    pub addr: String,
    /// Front end driven: `epoll` for the spawned server, `external` for
    /// an `--addr` one.
    pub transport: String,
    /// Wall-clock for the traffic phase.
    pub elapsed: Duration,
    /// Per-op (sent, merged latency) in [`Op::ALL`] order.
    pub ops: Vec<(u64, HistogramSnapshot)>,
    /// `ok:false` responses observed.
    pub protocol_errors: u64,
    /// Transport-level failures (connect/read/write/parse).
    pub io_errors: u64,
    /// `AnswerBatch` contradiction rejections — expected workload
    /// outcomes (atomic rejection is the contract), outside the gate.
    pub rejected_batches: u64,
    /// Admission sheds the client observed (typed `overloaded` notices).
    /// Expected traffic under the `--connections` preset — which *fails*
    /// if this stays zero, since then the cap was never exercised.
    pub sheds: u64,
    /// The first few `ok:false` messages, `"Op: message"`, for triage.
    pub error_samples: Vec<String>,
    /// `"exact"`, `"skipped"`, or a mismatch description.
    pub cross_check: String,
    /// The server's `store` metrics section, verbatim.
    pub server_store: Json,
    /// The server's `transport` metrics section, verbatim — dispatch and
    /// shed/reap counters.
    pub server_transport: Json,
}

impl Report {
    /// Total requests across every op.
    pub fn requests_total(&self) -> u64 {
        self.ops.iter().map(|(sent, _)| sent).sum()
    }

    /// Requests per second over the traffic phase.
    pub fn throughput_rps(&self) -> f64 {
        self.requests_total() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Did the run meet the gate: no errors, no cross-check mismatch,
    /// and — under the `--connections` preset — an admission cap that
    /// actually shed something?
    pub fn clean(&self) -> bool {
        self.protocol_errors == 0
            && self.io_errors == 0
            && (self.cross_check == "exact" || self.cross_check == "skipped")
            && (!self.config.connections_preset || self.sheds > 0)
    }

    /// Render the `BENCH_load.json` document.
    pub fn to_json(&self) -> Json {
        let ops: Vec<(String, Json)> = Op::ALL
            .iter()
            .zip(&self.ops)
            .map(|(&op, (sent, lat))| {
                (
                    op.name().to_string(),
                    Json::object([
                        ("count", Json::from(*sent)),
                        ("p50_us", Json::from(lat.p50())),
                        ("p90_us", Json::from(lat.p90())),
                        ("p99_us", Json::from(lat.p99())),
                        ("max_us", Json::from(lat.max())),
                        ("mean_us", Json::from(lat.mean())),
                    ]),
                )
            })
            .collect();
        Json::object([
            ("bench", Json::from("load")),
            ("git_rev", Json::from(git_rev())),
            ("timestamp_unix", Json::from(unix_now())),
            (
                "config",
                Json::object([
                    ("addr", Json::from(self.addr.as_str())),
                    ("transport", Json::from(self.transport.as_str())),
                    ("concurrency", Json::from(self.config.concurrency)),
                    ("sessions", Json::from(self.config.sessions)),
                    ("max_turns", Json::from(self.config.max_turns)),
                    ("seed", Json::from(self.config.seed)),
                    ("smoke", Json::Bool(self.config.smoke)),
                    (
                        "connections_preset",
                        Json::Bool(self.config.connections_preset),
                    ),
                    ("exclusive", Json::Bool(self.config.exclusive)),
                    // The spawned server's transport guardrails, so a
                    // throughput diff can be attributed to (or ruled out
                    // of) a front-end reconfiguration at a glance.
                    (
                        "max_connections",
                        Json::from(self.config.limits.max_connections),
                    ),
                    (
                        "idle_timeout_secs",
                        match self.config.limits.idle_timeout {
                            Some(t) => Json::from(t.as_secs()),
                            None => Json::Null,
                        },
                    ),
                    // The last revision that touched the lint rules: a
                    // BENCH_load.json produced under a different rule
                    // set (e.g. before a panic-path refactor the lint
                    // forced) is attributable to it.
                    ("lint_rev", Json::from(crate_rev("crates/lint"))),
                ]),
            ),
            ("elapsed_secs", Json::from(self.elapsed.as_secs_f64())),
            ("ops", Json::Object(ops)),
            ("requests_total", Json::from(self.requests_total())),
            ("throughput_rps", Json::from(self.throughput_rps())),
            (
                "errors",
                Json::object([
                    ("protocol", Json::from(self.protocol_errors)),
                    ("io", Json::from(self.io_errors)),
                    (
                        "samples",
                        Json::Array(
                            self.error_samples
                                .iter()
                                .map(|s| Json::from(s.as_str()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("rejected_batches", Json::from(self.rejected_batches)),
            ("sheds", Json::from(self.sheds)),
            ("cross_check", Json::from(self.cross_check.as_str())),
            ("server_store", self.server_store.clone()),
            ("server_transport", self.server_transport.clone()),
        ])
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The last commit that touched a crate's directory — a per-subsystem
/// provenance stamp, distinct from the workspace `git_rev`. Used for
/// the lint rule set (`crates/lint`).
fn crate_rev(path: &str) -> String {
    std::process::Command::new("git")
        .args(["log", "-n1", "--format=%H", "--", path])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A spawned in-process server, torn down on drop.
struct SpawnedServer {
    addr: String,
    shutdown: Shutdown,
    serve_thread: Option<std::thread::JoinHandle<()>>,
    journal_dir: PathBuf,
}

impl SpawnedServer {
    fn start(config: &Config) -> Result<SpawnedServer, String> {
        let journal_dir = std::env::temp_dir().join(format!(
            "jim-load-journal-{}-{}",
            std::process::id(),
            config.seed
        ));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let journal = JournalStore::open(&journal_dir).map_err(|e| format!("journal dir: {e}"))?;
        // Capacity above the live working set (one open session per
        // worker plus the ~15% left unclosed), yet low enough that a
        // long run exercises LRU eviction + journal resume.
        let store = SessionStore::with_journal(
            StoreConfig {
                max_sessions: config.concurrency * 2 + 64,
                ttl: Duration::from_secs(600),
            },
            journal,
        );
        let handler = Arc::new(Handler::new(Arc::new(store)));
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let shutdown = Shutdown::new();
        let serve_shutdown = shutdown.clone();
        let limits = config.limits.clone();
        let serve_thread = std::thread::spawn(move || {
            if let Err(e) = serve_with(listener, handler, serve_shutdown, limits) {
                eprintln!("jim-load: spawned server failed: {e}");
            }
        });
        Ok(SpawnedServer {
            addr,
            shutdown,
            serve_thread: Some(serve_thread),
            journal_dir,
        })
    }
}

impl Drop for SpawnedServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(t) = self.serve_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

/// Run the workload and produce the merged report (the report is not yet
/// written to disk — [`cli_main`] does that, so tests can inspect runs
/// without touching the filesystem).
pub fn run(config: Config) -> Result<Report, String> {
    let spawned = match &config.addr {
        Some(_) => None,
        None => Some(SpawnedServer::start(&config)?),
    };
    let addr = config
        .addr
        .clone()
        .unwrap_or_else(|| spawned.as_ref().expect("spawned").addr.clone());
    let transport = match config.addr {
        Some(_) => "external",
        None => "epoll",
    }
    .to_string();

    // Deal sessions round-robin so every worker gets within one of the
    // same share.
    let workers = config.concurrency.max(1);
    // Shedding is reachable whenever the workers can outnumber the
    // admission slots; then (and only then) connects pay the probe, and
    // a shed is an expected outcome to retry rather than an error.
    let shed_possible =
        config.addr.is_none() && config.limits.clone().normalized().max_connections < workers + 1;
    let churn = config.connections_preset;
    let base = config.sessions / workers;
    let extra = config.sessions % workers;
    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let addr = addr.clone();
            let sessions = base + usize::from(i < extra);
            let seed = config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
            let max_turns = config.max_turns;
            std::thread::spawn(move || {
                let mut stats = WorkerStats::new();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut remaining = sessions;
                let mut backoff = Duration::from_millis(5);
                let mut stalls = 0u32;
                while remaining > 0 {
                    let conn = if shed_possible {
                        match Conn::connect_probe(&addr) {
                            Ok(Some(conn)) => Some(conn),
                            Ok(None) => {
                                stats.sheds += 1;
                                None
                            }
                            Err(e) => {
                                eprintln!("jim-load: worker {i}: {e}");
                                stats.io_errors += 1;
                                None
                            }
                        }
                    } else {
                        match Conn::connect(&addr) {
                            Ok(conn) => Some(conn),
                            Err(e) => {
                                eprintln!("jim-load: worker {i}: {e}");
                                stats.io_errors += 1;
                                None
                            }
                        }
                    };
                    let Some(mut conn) = conn else {
                        stalls += 1;
                        if stalls > 400 {
                            eprintln!("jim-load: worker {i}: no admission after {stalls} tries");
                            stats.io_errors += 1;
                            break;
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(200));
                        continue;
                    };
                    stalls = 0;
                    backoff = Duration::from_millis(5);
                    while remaining > 0 {
                        match drive_session(&mut conn, &mut rng, &mut stats, max_turns) {
                            Ok(()) => {
                                remaining -= 1;
                                // The churn preset releases its slot after
                                // every session so admission keeps cycling.
                                if churn {
                                    break;
                                }
                            }
                            Err(_) => break, // connection gone; reconnect
                        }
                    }
                }
                stats
            })
        })
        .collect();

    let mut sent = vec![0u64; Op::ALL.len()];
    let mut latency: Vec<HistogramSnapshot> = (0..Op::ALL.len())
        .map(|_| HistogramSnapshot::empty())
        .collect();
    let (mut protocol_errors, mut io_errors) = (0u64, 0u64);
    let mut rejected_batches = 0u64;
    let mut sheds = 0u64;
    let mut error_samples = Vec::new();
    for handle in handles {
        let stats = handle.join().map_err(|_| "worker panicked".to_string())?;
        for (i, &n) in stats.sent.iter().enumerate() {
            sent[i] += n;
        }
        for (i, h) in stats.latency.iter().enumerate() {
            latency[i].merge(&h.snapshot());
        }
        protocol_errors += stats.protocol_errors;
        io_errors += stats.io_errors;
        rejected_batches += stats.rejected_batches;
        sheds += stats.sheds;
        for sample in stats.error_samples {
            if error_samples.len() < ERROR_SAMPLES {
                error_samples.push(sample);
            }
        }
    }
    let elapsed = start.elapsed();

    // The observer pass: one fresh connection asks for the listing and
    // the server-side snapshot. These requests count like any others —
    // the server increments before dispatch, so the snapshot includes
    // the very request that fetched it and the totals can match exactly.
    // After a shed-heavy run, lingering slots may still be draining —
    // retry until one frees (observer sheds are the server's to count,
    // not part of the client shed tally).
    let mut observer = WorkerStats::new();
    let mut conn = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match Conn::connect_probe(&addr) {
                Ok(Some(conn)) => break conn,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Ok(None) => return Err("observer connection never admitted".into()),
                Err(e) => return Err(e),
            }
        }
    };
    let _ = observer.request(&mut conn, Op::ListSessions, r#"{"op":"ListSessions"}"#)?;
    observer.sent[Op::Metrics as usize] += 1;
    let snapshot = conn.round_trip(r#"{"op":"Metrics"}"#)?;
    let snapshot = Json::parse(snapshot.trim()).map_err(|e| format!("metrics response: {e}"))?;
    for (i, &n) in observer.sent.iter().enumerate() {
        sent[i] += n;
    }
    protocol_errors += observer.protocol_errors;
    io_errors += observer.io_errors;

    let cross_check = if config.exclusive || spawned.is_some() {
        cross_check(&sent, &snapshot)
    } else {
        "skipped".to_string()
    };
    let server_store = snapshot.get("store").cloned().unwrap_or(Json::Null);
    let server_transport = snapshot.get("transport").cloned().unwrap_or(Json::Null);

    Ok(Report {
        config,
        addr,
        transport,
        elapsed,
        ops: sent.into_iter().zip(latency).collect(),
        protocol_errors,
        io_errors,
        rejected_batches,
        sheds,
        error_samples,
        cross_check,
        server_store,
        server_transport,
    })
}

/// Compare client sent counts with the server's per-op request counters.
fn cross_check(sent: &[u64], snapshot: &Json) -> String {
    let Some(ops) = snapshot.get("ops") else {
        return "mismatch: Metrics response has no ops section".into();
    };
    let mut mismatches = Vec::new();
    for (i, &op) in Op::ALL.iter().enumerate() {
        let server = ops
            .get(op.name())
            .and_then(|o| o.get("requests"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if server != sent[i] {
            mismatches.push(format!(
                "{}: client {} vs server {}",
                op.name(),
                sent[i],
                server
            ));
        }
    }
    if mismatches.is_empty() {
        "exact".into()
    } else {
        format!("mismatch: {}", mismatches.join(", "))
    }
}

/// How many times a baseline p99 may grow before `--check-baseline`
/// fails the run. Generous on purpose: load-driver latencies on shared
/// CI hosts jitter freely, and the gate exists to catch order-of-
/// magnitude regressions (a lock on the hot path, an accidental
/// per-request allocation storm), not scheduler noise.
pub const BASELINE_P99_FACTOR: u64 = 3;

/// Compare this run's per-op p99 latencies against a previously written
/// `BENCH_load.json` document. Returns one line per regression — an op
/// whose p99 exceeded [`BASELINE_P99_FACTOR`]× the baseline's — or an
/// error if the baseline has no readable ops table. Ops that either side
/// never exercised are skipped (a count of 0 measures nothing), as are
/// baseline p99s of 0 (sub-resolution measurements have no meaningful
/// multiple).
pub fn p99_regressions(report: &Report, baseline: &Json) -> Result<Vec<String>, String> {
    let ops = baseline
        .get("ops")
        .ok_or_else(|| "baseline has no ops section".to_string())?;
    let mut regressions = Vec::new();
    for (&op, (sent, lat)) in Op::ALL.iter().zip(&report.ops) {
        let Some(base) = ops.get(op.name()) else {
            continue; // op added after the baseline was written
        };
        let base_count = base.get("count").and_then(Json::as_u64).unwrap_or(0);
        let base_p99 = base.get("p99_us").and_then(Json::as_u64).unwrap_or(0);
        if *sent == 0 || base_count == 0 || base_p99 == 0 {
            continue;
        }
        let p99 = lat.p99();
        if p99 > base_p99.saturating_mul(BASELINE_P99_FACTOR) {
            regressions.push(format!(
                "{}: p99 {p99}us vs baseline {base_p99}us (over {BASELINE_P99_FACTOR}x)",
                op.name()
            ));
        }
    }
    Ok(regressions)
}

/// Parse CLI flags, run the workload, write and validate the report.
/// Exits non-zero on any error, mismatch or invalid report.
pub fn cli_main() {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("jim-load: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let out = config.out.clone();
    let report = match run(config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("jim-load: {message}");
            std::process::exit(1);
        }
    };
    let rendered = report.to_json().render();
    if let Err(e) = std::fs::write(&out, format!("{rendered}\n")) {
        eprintln!("jim-load: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    // Validate what actually landed on disk, not what we meant to write.
    let valid = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| Json::parse(text.trim()).ok())
        .is_some_and(|json| {
            [
                "bench",
                "git_rev",
                "config",
                "ops",
                "throughput_rps",
                "errors",
            ]
            .iter()
            .all(|key| json.get(key).is_some())
        });
    if !valid {
        eprintln!("jim-load: {} failed schema validation", out.display());
        std::process::exit(1);
    }
    println!(
        "jim-load: {} requests in {:.2}s ({:.0} req/s), errors: {} protocol / {} io, \
         {} batch(es) rejected as contradictory, {} connection(s) shed at admission, \
         cross-check: {} -> {}",
        report.requests_total(),
        report.elapsed.as_secs_f64(),
        report.throughput_rps(),
        report.protocol_errors,
        report.io_errors,
        report.rejected_batches,
        report.sheds,
        report.cross_check,
        out.display(),
    );
    if !report.clean() {
        eprintln!(
            "jim-load: run failed the gate (errors, cross-check mismatch, or an \
             admission preset that never shed)"
        );
        for sample in &report.error_samples {
            eprintln!("jim-load:   error sample: {sample}");
        }
        std::process::exit(1);
    }
    if let Some(path) = &report.config.check_baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                Json::parse(text.trim()).map_err(|e| format!("{} is not JSON: {e}", path.display()))
            });
        let regressions = baseline.and_then(|json| p99_regressions(&report, &json));
        match regressions {
            Ok(regressions) if regressions.is_empty() => {
                println!(
                    "jim-load: no per-op p99 regressed over {BASELINE_P99_FACTOR}x vs {}",
                    path.display()
                );
            }
            Ok(regressions) => {
                eprintln!(
                    "jim-load: p99 regression gate failed against {}:",
                    path.display()
                );
                for line in &regressions {
                    eprintln!("jim-load:   {line}");
                }
                std::process::exit(1);
            }
            Err(message) => {
                eprintln!("jim-load: baseline check: {message}");
                std::process::exit(1);
            }
        }
    }
}

const USAGE: &str = "usage: jim-load [--addr HOST:PORT] \
    [--concurrency N] [--sessions N] [--max-turns N] [--seed N] [--out PATH] \
    [--max-connections N] [--idle-timeout SECS] \
    [--check-baseline PATH] [--exclusive] [--smoke] [--connections]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut config = Config::default();
    let mut args = args.peekable();
    let mut smoke = false;
    let mut connections = false;
    let mut explicit_exclusive = false;
    let mut parsed: Vec<(String, String)> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--connections" => connections = true,
            "--exclusive" => explicit_exclusive = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" | "--concurrency" | "--sessions" | "--max-turns" | "--seed" | "--out"
            | "--max-connections" | "--idle-timeout" | "--check-baseline" => {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                parsed.push((flag, value));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (smoke, connections) {
        (true, true) => return Err("--smoke and --connections are mutually exclusive".into()),
        (true, false) => config = Config::smoke(),
        (false, true) => config = Config::connections(),
        (false, false) => {}
    }
    for (flag, value) in parsed {
        match flag.as_str() {
            "--addr" => config.addr = Some(value),
            "--concurrency" => {
                config.concurrency = value
                    .parse()
                    .map_err(|_| format!("bad --concurrency {value:?}"))?
            }
            "--sessions" => {
                config.sessions = value
                    .parse()
                    .map_err(|_| format!("bad --sessions {value:?}"))?
            }
            "--max-turns" => {
                config.max_turns = value
                    .parse()
                    .map_err(|_| format!("bad --max-turns {value:?}"))?
            }
            "--seed" => config.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--out" => config.out = PathBuf::from(value),
            "--check-baseline" => config.check_baseline = Some(PathBuf::from(value)),
            "--max-connections" => {
                config.limits.max_connections = value
                    .parse()
                    .map_err(|_| format!("bad --max-connections {value:?}"))?
            }
            // 0 disables the idle reaper, mirroring jim-serve's flag.
            "--idle-timeout" => {
                config.limits.idle_timeout = match value
                    .parse::<u64>()
                    .map_err(|_| format!("bad --idle-timeout {value:?}"))?
                {
                    0 => None,
                    secs => Some(Duration::from_secs(secs)),
                }
            }
            _ => unreachable!("filtered above"),
        }
    }
    // Driving an external server is only exclusive if the caller says so.
    config.exclusive = config.addr.is_none() || explicit_exclusive;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_presets_and_overrides() {
        let config = parse_args(
            ["--smoke", "--concurrency", "3", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(config.smoke);
        assert_eq!(config.concurrency, 3, "flags override the preset");
        assert_eq!(config.seed, 9);
        assert_eq!(config.sessions, Config::smoke().sessions);
        assert!(config.exclusive, "spawn mode is always exclusive");

        let config = parse_args(["--addr", "127.0.0.1:1"].iter().map(|s| s.to_string())).unwrap();
        assert!(!config.exclusive, "external servers may have other clients");
        assert!(parse_args(["--nope"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--seed"].iter().map(|s| s.to_string())).is_err());

        let config = parse_args(
            [
                "--connections",
                "--max-connections",
                "5",
                "--idle-timeout",
                "0",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(config.connections_preset);
        assert_eq!(
            config.limits.max_connections, 5,
            "flags override the preset"
        );
        assert!(
            config.limits.idle_timeout.is_none(),
            "0 disables the reaper"
        );
        assert!(parse_args(["--smoke", "--connections"].iter().map(|s| s.to_string())).is_err());

        let config = parse_args(
            ["--smoke", "--check-baseline", "BENCH_load.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(
            config.check_baseline,
            Some(PathBuf::from("BENCH_load.json"))
        );
    }

    /// A synthetic report whose `CreateSession` histogram holds one
    /// round trip of the given latency; every other op is untouched.
    fn report_with_create_latency(us: u64) -> Report {
        let mut ops: Vec<(u64, HistogramSnapshot)> = (0..Op::ALL.len())
            .map(|_| (0, HistogramSnapshot::empty()))
            .collect();
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(us));
        ops[Op::CreateSession as usize] = (1, h.snapshot());
        Report {
            config: Config::default(),
            addr: "test".into(),
            transport: "test".into(),
            elapsed: Duration::from_secs(1),
            ops,
            protocol_errors: 0,
            io_errors: 0,
            rejected_batches: 0,
            sheds: 0,
            error_samples: Vec::new(),
            cross_check: "skipped".into(),
            server_store: Json::Null,
            server_transport: Json::Null,
        }
    }

    #[test]
    fn p99_gate_flags_only_real_regressions() {
        let baseline = Json::parse(
            r#"{"ops":{"CreateSession":{"count":5,"p99_us":100},
                 "NextQuestion":{"count":9,"p99_us":50},
                 "Answer":{"count":0,"p99_us":0}}}"#,
        )
        .unwrap();

        // Within 3x of the 100us baseline: clean.
        let ok = report_with_create_latency(150);
        assert_eq!(
            p99_regressions(&ok, &baseline).unwrap(),
            Vec::<String>::new()
        );

        // An order of magnitude over: flagged, and only CreateSession is
        // (NextQuestion was not exercised this run, Answer never was).
        let bad = report_with_create_latency(5_000);
        let regressions = p99_regressions(&bad, &baseline).unwrap();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(
            regressions[0].starts_with("CreateSession:"),
            "{regressions:?}"
        );

        // A baseline without an ops table is an error, not a pass.
        assert!(p99_regressions(&ok, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn weighted_pick_stays_in_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(pick_weighted(&mut rng, &SCENARIOS));
        }
        assert!(seen.contains("flights") && seen.contains("social"));
    }

    /// The full loop against a real spawned server: mixed traffic, merge,
    /// exact cross-check, zero errors by construction.
    #[test]
    fn tiny_run_is_clean_and_cross_checks_exactly() {
        let report = run(Config {
            concurrency: 3,
            sessions: 6,
            max_turns: 8,
            seed: 7,
            ..Config::default()
        })
        .unwrap();
        assert_eq!(report.protocol_errors, 0, "{}", report.cross_check);
        assert_eq!(report.io_errors, 0);
        assert_eq!(report.cross_check, "exact");
        assert!(report.clean());
        assert!(report.requests_total() > 0);
        let json = report.to_json();
        assert_eq!(json.get("bench").unwrap().as_str(), Some("load"));
        let creates = json.get("ops").unwrap().get("CreateSession").unwrap();
        assert_eq!(creates.get("count").unwrap().as_u64(), Some(6));
        assert!(json.get("server_store").unwrap().get("hits").is_some());
        assert_eq!(report.sheds, 0, "an uncapped run never sheds");
    }

    /// A miniature `--connections` preset: more workers than admission
    /// slots, reconnecting per session. Sheds must happen (else the cap
    /// was never exercised), admitted traffic must stay error-free, and
    /// — because shed requests never reach the server — the per-op
    /// cross-check must still be *exact*.
    #[test]
    fn capped_run_sheds_and_still_cross_checks_exactly() {
        let report = run(Config {
            concurrency: 8,
            sessions: 16,
            max_turns: 3,
            seed: 11,
            limits: TransportLimits {
                max_connections: 3,
                ..TransportLimits::default()
            },
            connections_preset: true,
            ..Config::default()
        })
        .unwrap();
        assert_eq!(report.protocol_errors, 0, "{:?}", report.error_samples);
        assert_eq!(report.io_errors, 0);
        assert_eq!(report.cross_check, "exact");
        assert!(report.sheds > 0, "8 workers over a 3-slot cap never shed");
        assert!(report.clean());
        // The server counted at least every shed the client observed
        // (it may have counted more: reset races can eat a notice).
        let server_sheds = report
            .server_transport
            .get("sheds")
            .and_then(Json::as_u64)
            .expect("transport.sheds in the snapshot");
        assert!(
            server_sheds >= report.sheds,
            "{server_sheds} < {}",
            report.sheds
        );
    }
}
