//! The `jim-serve` binary, launched the way the benchmark launches it:
//! the flag set `perfbench`'s `ServeConfig::flags` produces for
//! `huge-open`, on an OS-assigned port over a fresh data directory. A
//! flag change that stops the server from starting fails here, not only
//! in a benchmark run. The binary's own clock is checked here too: the
//! event loop's tick sweeps an expired session with no thread of its
//! own. Linux only, where the TCP front end is.

#![cfg(target_os = "linux")]
#![forbid(unsafe_code)]

mod support;

use jim_json::Json;
use jim_server::serve::DRAIN_DEADLINE;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::Client;

/// The benchmark's flags besides `--port` and `--data-dir`.
const BENCH_FLAGS: [&str; 10] = [
    "--transport",
    "epoll",
    "--reactors",
    "2",
    "--max-sessions",
    "64",
    "--max-product",
    "1000000",
    "--ttl-secs",
    "3600",
];

/// A spawned `jim-serve`, killed and reaped, with its data directory
/// removed, on every path out of the test.
struct Served {
    child: Child,
    stderr: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    data_dir: Option<PathBuf>,
}

impl Served {
    fn spawn(args: &[&str], data_dir: Option<PathBuf>) -> Served {
        let mut command = Command::new(env!("CARGO_BIN_EXE_jim-serve"));
        command
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = &data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let mut child = command.spawn().expect("spawn jim-serve");
        let pipe = child.stderr.take().expect("piped stderr");
        let (lines, stderr) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if lines.send(line).is_err() {
                    break;
                }
            }
        });
        Served {
            child,
            stderr,
            reader: Some(reader),
            data_dir,
        }
    }

    /// The address from the `listening on` log line.
    fn addr(&self) -> SocketAddr {
        let line = self.log_line("listening on ", Duration::from_secs(30));
        line.split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("no address in {line:?}"))
    }

    /// Threads the child runs right now, from its `/proc` status.
    fn threads(&self) -> usize {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read the child's /proc status")
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    }

    /// The first stderr line containing `needle`, within `timeout`.
    fn log_line(&self, needle: &str, timeout: Duration) -> String {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stderr.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return line,
                Ok(_) => {}
                Err(e) => panic!("jim-serve logged no {needle:?} line: {e}"),
            }
        }
    }

    /// The exit status, within `timeout`.
    fn exit(&mut self, timeout: Duration) -> ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll jim-serve") {
                return status;
            }
            assert!(Instant::now() < deadline, "jim-serve still running");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The child is gone, so its stderr pipe is at EOF.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[test]
fn jim_serve_starts_with_the_benchmark_flags_and_drains_on_sigterm() {
    let dir = std::env::temp_dir().join(format!("jim-launch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut args = vec!["--port", "0"];
    args.extend(BENCH_FLAGS);
    let mut server = Served::spawn(&args, Some(dir));

    Client::connect(server.addr()).send(r#"{"op":"Metrics"}"#); // asserts `ok:true`

    // The event loop (the main thread), its worker pool and the signal
    // watcher; the loop's tick is the only clock, so no thread sleeps.
    let workers = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 8);
    assert_eq!(server.threads(), workers + 2);

    let kill = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let margin = Duration::from_secs(5);
    server.log_line("draining", DRAIN_DEADLINE + margin);
    let status = server.exit(DRAIN_DEADLINE + margin);
    assert_eq!(status.code(), Some(0), "{status}");
}

#[test]
fn jim_serve_sweeps_an_expired_session_and_resumes_it_from_its_journal() {
    let dir = std::env::temp_dir().join(format!("jim-launch-ttl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Served::spawn(&["--port", "0", "--ttl-secs", "1"], Some(dir));
    let mut client = Client::connect(server.addr());
    let created = client.send(r#"{"op":"CreateSession","source":{"scenario":"flights"}}"#);
    let session = created.get("session").and_then(Json::as_u64).expect("id");

    // Nothing is sent on the session, so it expires after a second and
    // the loop's next tick sweeps it.
    server.log_line("swept 1 expired session(s)", Duration::from_secs(15));
    let metrics = client.send(r#"{"op":"Metrics"}"#);
    let store = metrics.get("store").expect("store section");
    assert_eq!(store.get("swept_sessions").and_then(Json::as_u64), Some(1));
    assert_eq!(
        store.get("resident_sessions").and_then(Json::as_u64),
        Some(0)
    );
    // Swept from memory, not destroyed: the journal resumes it.
    client.send(&format!(r#"{{"op":"Stats","session":{session}}}"#));
}

#[test]
fn jim_serve_refuses_the_threads_transport() {
    let mut server = Served::spawn(&["--port", "0", "--transport", "threads"], None);
    let status = server.exit(Duration::from_secs(30));
    assert_eq!(status.code(), Some(2), "{status}");
}

#[test]
fn jim_serve_refuses_a_reactor_count_that_is_not_positive() {
    // `--reactors` is a no-op kept for the benchmark's flags, but a
    // value that is not a positive integer is still a usage error.
    for count in ["0", "x"] {
        let mut server = Served::spawn(&["--port", "0", "--reactors", count], None);
        let status = server.exit(Duration::from_secs(30));
        assert_eq!(status.code(), Some(2), "--reactors {count}: {status}");
    }
}
