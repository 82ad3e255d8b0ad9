//! `jim-perfbench` — the JIM benchmark of record.
//!
//! ```text
//! jim-perfbench --jim-serve PATH --workload NAME --seed N --seconds S --trace 0|1
//!               [--out DIR]
//! ```
//!
//! `--trace 0` launches `jim-serve` as a child process several times
//! (set-up time is the median launch-to-first-response), then drives the
//! workload over one TCP connection in a closed loop for `S` seconds and
//! prints the end-to-end metrics. `--trace 1` splits `S` into three
//! passes — the same TCP loop (transport overhead), the real handler
//! in-process (the untraced baseline) and the traced shadow handler — and
//! prints the per-layer metrics. Either way, every op count is
//! cross-checked against the server's `Metrics` counters and every
//! resolved session's predicate is checked against its goal over the full
//! product; a traced run also fails when its own checks (dominant layer,
//! agreement with the server's medians, attribution) do not hold. The
//! last line of standard output is the result; a fuller document lands in
//! `DIR/<workload>-seed<N>-trace<T>.json`.

#![forbid(unsafe_code)]

mod driver;
mod layers;
mod server;
mod stats;
mod trace;
mod verify;
mod workload;

use driver::{floor_quantile, Channel, Ledger, Sample};
use jim_json::Json;
use jim_server::{Handler, JournalStore, Op, SessionStore};
use server::Server;
use stats::{mean, percentile};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use trace::{InProc, Shadow};
use verify::Verifier;
use workload::Workload;

/// Launches of `jim-serve` per untraced run; set-up time is their median.
/// A launch takes 3 to 5 ms depending on the host's load, which holds for
/// a second or more at a time; so the launches are many, and
/// [`SETUP_SPACING`] apart, so their median does not rest on one instant.
const SETUPS: usize = 31;

/// Pause between two set-up launches.
const SETUP_SPACING: Duration = Duration::from_millis(100);

/// Time the traced run may spend rebuilding and replaying journals.
const REPLAY_BUDGET: Duration = Duration::from_secs(2);

/// Journal flush policy of the server under test, recorded in results:
/// `jim-serve` writes each journal line and never fsyncs.
const FLUSH_POLICY: &str = "write, no fsync";

struct Args {
    jim_serve: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut found: HashMap<String, String> = HashMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        found.insert(flag, value);
    }
    let mut take = |flag: &str| found.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|_| format!("bad {flag} {v:?}"));
    let args = Args {
        jim_serve: PathBuf::from(take("--jim-serve")?),
        workload: take("--workload")?,
        seed: number("--seed", take("--seed")?)?,
        seconds: number("--seconds", take("--seconds")?)?.max(1),
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
        out: PathBuf::from(take("--out").unwrap_or_else(|_| ".bench_out".into())),
    };
    if let Some(flag) = found.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let w = workload::generate(&args.workload, args.seed)?;
        let (result, detail) = if args.trace {
            traced(&args, &w)?
        } else {
            untraced(&args, &w)?
        };
        let path = args.out.join(format!(
            "{}-seed{}-trace{}.json",
            w.name,
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, format!("{}\n", detail.render()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: details in {}", path.display());
        Ok(result)
    });
    match outcome {
        Ok(result) => println!("{}", result.render()),
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

/// Failures found after a pass: protocol/transport errors, cross-check
/// mismatches, wrong inferences on full-fidelity sessions and, in traced
/// runs, the trace's own checks that did not hold.
#[derive(Default)]
struct Failures {
    protocol: u64,
    io: u64,
    cross_check: Vec<String>,
    wrong: u64,
    trace_checks: Vec<String>,
    /// Wrong inferences on sessions the server opened over a sample:
    /// reported, not failed — a sample can rule out the goal's witnesses.
    sampled_wrong: u64,
    sampled_sessions: u64,
    verified: u64,
    samples: Vec<String>,
}

impl Failures {
    fn count(&self) -> u64 {
        self.protocol
            + self.io
            + self.cross_check.len() as u64
            + self.wrong
            + self.trace_checks.len() as u64
    }

    fn add_ledger(
        &mut self,
        w: &Workload,
        ledger: &Ledger,
        verifier: &mut Verifier,
    ) -> Result<(), String> {
        self.protocol += ledger.protocol_errors;
        self.io += ledger.io_errors;
        self.samples.extend(ledger.error_samples.iter().cloned());
        self.sampled_sessions += ledger.opened.iter().filter(|o| o.sampled).count() as u64;
        for r in &ledger.resolved {
            let right = verifier.check(w, r)?;
            self.verified += 1;
            match (right, r.sampled) {
                (true, _) => {}
                (false, true) => self.sampled_wrong += 1,
                (false, false) => {
                    self.wrong += 1;
                    if self.samples.len() < 10 {
                        self.samples.push(format!(
                            "session {} ({}) inferred `{}`, not equivalent to goal {}",
                            r.sid,
                            w.instances[w.sessions[r.spec].instance].kind,
                            r.predicate,
                            w.sessions[r.spec].goal_name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let strings =
            |v: &[String]| Json::Array(v.iter().map(|s| Json::from(s.as_str())).collect());
        Json::object([
            ("protocol_errors", Json::from(self.protocol)),
            ("io_errors", Json::from(self.io)),
            (
                "cross_check",
                if self.cross_check.is_empty() {
                    Json::from("exact")
                } else {
                    Json::from(self.cross_check.join("; "))
                },
            ),
            ("wrong_inferences", Json::from(self.wrong)),
            ("trace_checks_failed", strings(&self.trace_checks)),
            ("sampled_sessions", Json::from(self.sampled_sessions)),
            ("sampled_wrong_inferences", Json::from(self.sampled_wrong)),
            ("sessions_verified", Json::from(self.verified)),
            ("samples", strings(&self.samples)),
        ])
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
    )
}

fn result_line(attempted: u64, failures: &Failures, metrics: Vec<(String, Json)>) -> Json {
    Json::object([
        ("correct", Json::Bool(failures.count() == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failures.count())),
        ("metrics", Json::Object(metrics)),
    ])
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The CPUs this process may run on; `jim-serve` inherits the same mask.
fn cpu_affinity() -> Json {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .map_or(Json::Null, Json::from)
}

/// Provenance shared by both result documents.
fn provenance(args: &Args, w: &Workload, ledger: &Ledger, simd: &str) -> Vec<(String, Json)> {
    let mut atoms: HashMap<usize, u64> = HashMap::new();
    for o in &ledger.opened {
        atoms.entry(o.instance).or_insert(o.atoms);
    }
    let flags = w.serve.flags().join(" ");
    vec![
        ("workload".into(), Json::from(w.name)),
        ("seed".into(), Json::from(args.seed)),
        ("seconds".into(), Json::from(args.seconds)),
        ("git_rev".into(), Json::from(git_rev())),
        (
            "jim_serve".into(),
            Json::object([
                ("flags", Json::from(format!("{flags} --data-dir <fresh>"))),
                ("flush_policy", Json::from(FLUSH_POLICY)),
                ("simd_backend", Json::from(simd)),
            ]),
        ),
        (
            "client".into(),
            Json::from(format!(
                "closed loop, 1 thread, 1 connection, zero think time, {} session(s) open at a time",
                w.live
            )),
        ),
        ("cpu_affinity".into(), cpu_affinity()),
        ("instances".into(), workload::shapes(w)),
        (
            "atoms".into(),
            Json::Array(
                (0..w.instances.len())
                    .map(|i| atoms.get(&i).map_or(Json::Null, |&a| Json::from(a)))
                    .collect(),
            ),
        ),
        ("sessions_per_cycle".into(), Json::from(w.sessions.len())),
    ]
}

fn untraced(args: &Args, w: &Workload) -> Result<(Json, Json), String> {
    let data = args.out.join(format!("data-{}", w.name));
    let log = args.out.join(format!("serve-{}.log", w.name));
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (server, _conn, setup) =
            Server::launch(&args.jim_serve, &w.serve.flags(), &data, &log)?;
        setups.push(setup.as_secs_f64());
        drop(server);
        std::thread::sleep(SETUP_SPACING);
    }
    let (server, mut conn, setup) = Server::launch(&args.jim_serve, &w.serve.flags(), &data, &log)?;
    setups.push(setup.as_secs_f64());
    let mut ledger = Ledger::default();
    // The launch's first `Metrics` request is on the server's books.
    ledger.sent[Op::Metrics as usize] += 1;
    ledger.drive(w, &mut conn, Duration::from_secs(args.seconds))?;
    let rss_mb = server.peak_rss_mb()?;
    let (snapshot, mismatches) = ledger.cross_check(&mut conn)?;
    drop(conn);
    drop(server);

    let mut failures = Failures {
        cross_check: mismatches,
        ..Failures::default()
    };
    failures.add_ledger(w, &ledger, &mut Verifier::default())?;
    let ms = |v: &[Sample], q: f64| floor_quantile(v, q).unwrap_or(0.0) / 1e3;
    let questions: Vec<f64> = ledger.questions.iter().map(|&q| q as f64).collect();
    let metrics = vec![
        metric("setup_s", percentile(&setups, 0.5).unwrap_or(0.0), "s"),
        metric("throughput_rps", ledger.throughput_rps(), "1/s"),
        metric("turn_p50_ms", ms(&ledger.turns, 0.5), "ms"),
        metric("turn_p90_ms", ms(&ledger.turns, 0.9), "ms"),
        metric("create_p50_ms", ms(&ledger.creates, 0.5), "ms"),
        metric("session_p50_ms", ms(&ledger.sessions, 0.5), "ms"),
        metric(
            "questions_per_session",
            mean(&questions).unwrap_or(0.0),
            "count",
        ),
        metric("server_rss_mb", rss_mb, "MiB"),
    ];
    let attempted = ledger.attempted();
    let simd = snapshot
        .get("simd_backend")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let mut detail = provenance(args, w, &ledger, simd);
    detail.extend([
        ("mode".to_string(), Json::from("untraced")),
        ("cycles".into(), Json::from(ledger.cycle_ends.len())),
        ("window_s".into(), Json::from(ledger.window.as_secs_f64())),
        (
            "failed_frac".into(),
            Json::from(failures.count() as f64 / attempted.max(1) as f64),
        ),
        ("failures".into(), failures.to_json()),
        (
            "samples".into(),
            Json::object([
                ("setups", Json::from(setups.len())),
                ("turns", Json::from(ledger.turns.len())),
                ("creates", Json::from(ledger.creates.len())),
                ("sessions", Json::from(ledger.sessions.len())),
                ("requests", Json::from(ledger.window_requests)),
            ]),
        ),
        (
            "server_store".to_string(),
            snapshot.get("store").cloned().unwrap_or(Json::Null),
        ),
        (
            "server_ops".into(),
            snapshot.get("ops").cloned().unwrap_or(Json::Null),
        ),
        ("metrics".into(), Json::Object(metrics.clone())),
    ]);
    Ok((
        result_line(attempted, &failures, metrics),
        Json::Object(detail),
    ))
}

/// A journaled store configured like the workload's `jim-serve`.
fn store_at(w: &Workload, dir: &Path) -> Result<Arc<SessionStore>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = JournalStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Arc::new(SessionStore::with_journal(
        w.serve.store(),
        journal,
    )))
}

fn traced(args: &Args, w: &Workload) -> Result<(Json, Json), String> {
    let pass = Duration::from_secs(args.seconds).div_f64(3.0);
    let mut verifier = Verifier::default();
    let mut failures = Failures::default();

    // Pass 1: the TCP loop, for the transport's share of a round trip.
    let data = args.out.join(format!("data-{}", w.name));
    let log = args.out.join(format!("serve-{}.log", w.name));
    let (server, mut conn, _) = Server::launch(&args.jim_serve, &w.serve.flags(), &data, &log)?;
    let mut tcp = Ledger::default();
    tcp.sent[Op::Metrics as usize] += 1;
    tcp.drive(w, &mut conn, pass)?;
    let (snapshot, mismatches) = tcp.cross_check(&mut conn)?;
    drop(conn);
    drop(server);
    failures
        .cross_check
        .extend(mismatches.into_iter().map(|m| format!("tcp {m}")));
    failures.add_ledger(w, &tcp, &mut verifier)?;
    let mut transport = Vec::new();
    for op in [Op::NextQuestion, Op::Answer] {
        let server_p50 = snapshot
            .get("ops")
            .and_then(|o| o.get(op.name()))
            .and_then(|o| o.get("latency_us"))
            .and_then(|l| l.get("p50"))
            .and_then(Json::as_f64);
        if let (Some(client), Some(server)) = (tcp.rtt_p50(op), server_p50) {
            transport.push(client - server);
        }
    }

    // Pass 2: the real handler in-process, untraced.
    let dir = args.out.join(format!("data-{}-inproc", w.name));
    let store = store_at(w, &dir)?;
    let mut inproc = InProc {
        handler: Handler::with_limits(Arc::clone(&store), w.serve.limits()),
    };
    let mut plain = Ledger::default();
    plain.drive(w, &mut inproc, pass)?;
    let untraced_rps = plain.throughput_rps();
    let (_, mismatches) = plain.cross_check(&mut inproc as &mut dyn Channel)?;
    failures
        .cross_check
        .extend(mismatches.into_iter().map(|m| format!("in-process {m}")));
    failures.add_ledger(w, &plain, &mut verifier)?;
    let server_p50: HashMap<&'static str, f64> = Op::ALL
        .iter()
        .filter_map(|&op| {
            let lat = store.metrics().op(op).latency.snapshot();
            (lat.count() > 0).then(|| (op.name(), lat.p50() as f64))
        })
        .collect();
    drop(inproc);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Pass 3: the traced shadow handler.
    let dir = args.out.join(format!("data-{}-traced", w.name));
    let mut shadow = Shadow::new(store_at(w, &dir)?, w.serve.limits());
    let mut traced = Ledger::default();
    traced.drive(w, &mut shadow, pass)?;
    let traced_rps = traced.throughput_rps();
    failures.add_ledger(w, &traced, &mut verifier)?;
    let predicates: HashMap<u64, String> = traced
        .resolved
        .iter()
        .map(|r| (r.sid, r.predicate.clone()))
        .collect();
    let (replayed, replay_mismatches) = shadow.replay_journals(&predicates, REPLAY_BUDGET)?;
    if replay_mismatches > 0 {
        failures.wrong += replay_mismatches;
        failures.samples.push(format!(
            "{replay_mismatches} journal replay(s) disagree with the live predicate"
        ));
    }
    let spans_path = args.out.join(format!("{}.spans.jsonl", w.name));
    shadow
        .tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let _ = std::fs::remove_dir_all(&dir);

    let overhead_frac = (untraced_rps - traced_rps) / untraced_rps.max(1e-9);
    let analysis = layers::analyze(
        &shadow,
        &layers::Context {
            workload: w.name,
            ledger: &traced,
            server_p50: &server_p50,
            transport_overhead_us: mean(&transport).unwrap_or(0.0),
            overhead_frac,
        },
    );
    failures.trace_checks = analysis.failed_checks;
    let metrics: Vec<(String, Json)> = analysis
        .metrics
        .iter()
        .map(|(name, value, unit)| metric(name, *value, unit))
        .collect();
    let attempted = tcp.attempted() + plain.attempted() + traced.attempted();
    let simd = snapshot
        .get("simd_backend")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let mut detail = provenance(args, w, &traced, simd);
    let candidates: Vec<Json> = (0..w.instances.len())
        .map(|i| {
            traced
                .opened
                .iter()
                .position(|o| o.instance == i)
                .and_then(|k| shadow.built.get(k))
                .map_or(Json::Null, |b| {
                    Json::object([
                        ("mode", Json::from(b.mode)),
                        ("initial_candidates", Json::from(b.candidates)),
                        ("groups", Json::from(b.groups)),
                    ])
                })
        })
        .collect();
    detail.extend([
        ("mode".to_string(), Json::from("traced")),
        ("construction".into(), Json::Array(candidates)),
        (
            "passes".into(),
            Json::object([
                ("tcp_rps", Json::from(tcp.throughput_rps())),
                ("untraced_rps", Json::from(untraced_rps)),
                ("traced_rps", Json::from(traced_rps)),
                ("journal_replays_checked", Json::from(replayed)),
                ("spans_file", Json::from(spans_path.display().to_string())),
            ]),
        ),
        (
            "failed_frac".into(),
            Json::from(failures.count() as f64 / attempted.max(1) as f64),
        ),
        ("failures".into(), failures.to_json()),
        ("metrics".into(), Json::Object(metrics.clone())),
        ("layers".into(), analysis.detail),
    ]);
    Ok((
        result_line(attempted, &failures, metrics),
        Json::Object(detail),
    ))
}
