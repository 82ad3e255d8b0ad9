//! `jim-serve` — the JIM inference service over TCP.
//!
//! ```text
//! jim-serve [--port N] [--host ADDR] [--max-sessions N] [--ttl-secs N]
//!           [--shards N] [--max-product N] [--max-batch N] [--data-dir PATH]
//!           [--transport threads|epoll] [--metrics-interval SECS]
//!           [--reactors N] [--max-connections N] [--idle-timeout SECS]
//!           [--max-inflight N] [--max-per-ip N]
//! ```
//!
//! With `--data-dir`, every session is journaled to disk (write-ahead,
//! one JSON line per answered batch): LRU/TTL eviction keeps sessions
//! resumable by id, and a restarted server over the same directory picks
//! them all up. Without it (the default), sessions are memory-only.
//!
//! `--transport` picks the front end: `epoll` (the default on linux) is
//! a non-blocking event loop — `--reactors N` reactor threads (default
//! `min(cores, 4)`, also `JIM_REACTORS`), each with its own poller and
//! worker pool, fed round-robin by an accept thread, so ten thousand
//! idle sessions don't cost ten thousand stacks; `threads` (the default
//! elsewhere, where `jim-aio` has no backend) is the portable
//! thread-per-connection fallback. Both drive the same connection core
//! behind the same admission gate, so the wire behavior is identical,
//! including the guardrails: `--max-connections` sheds over-cap
//! connects with a typed `overloaded` error, `--idle-timeout` reaps
//! peers that complete no request line in SECS seconds (0 disables),
//! `--max-inflight` caps pipelined requests per connection (epoll;
//! threads answers one at a time), and `--max-per-ip` sheds a single
//! address's connections past N with the same `overloaded` error (0
//! disables, the default).
//!
//! `--metrics-interval SECS` logs a one-line metrics summary (requests,
//! errors, latency quantiles, live connections, resident sessions) every
//! SECS seconds; the same numbers are always available on demand through
//! the `Metrics` wire op.
//!
//! Speaks the JSON-lines protocol of `jim_server::protocol`; try it with
//! the `jim` REPL client or plain `nc`.

#![forbid(unsafe_code)]

use jim_server::handler::{Handler, ServerLimits};
use jim_server::journal::JournalStore;
use jim_server::serve::{serve_with, spawn_sweeper, Shutdown, Transport, TransportLimits};
use jim_server::store::{SessionStore, StoreConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: jim-serve [--port N] [--host ADDR] [--max-sessions N] [--ttl-secs N] \
         [--shards N] [--max-product N] [--max-batch N] [--data-dir PATH] \
         [--transport threads|epoll] [--metrics-interval SECS] \
         [--reactors N] [--max-connections N] [--idle-timeout SECS] [--max-inflight N] \
         [--max-per-ip N]"
    );
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let mut host = "127.0.0.1".to_string();
    let mut port = 7914u16; // "JIM" on a phone pad, more or less.
    let mut config = StoreConfig::default();
    let mut limits = ServerLimits::default();
    let mut data_dir: Option<String> = None;
    let mut transport = Transport::default_for_platform();
    let mut metrics_interval: Option<Duration> = None;
    let mut transport_limits = TransportLimits::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("jim-serve: {flag} needs a value");
                usage();
            }
        };
        match flag.as_str() {
            "--port" => match value("--port").parse() {
                Ok(p) => port = p,
                Err(_) => usage(),
            },
            "--host" => host = value("--host"),
            "--max-sessions" => match value("--max-sessions").parse() {
                Ok(n) if n > 0 => config.max_sessions = n,
                _ => usage(),
            },
            "--ttl-secs" => match value("--ttl-secs").parse() {
                Ok(secs) if secs > 0 => config.ttl = Duration::from_secs(secs),
                _ => usage(),
            },
            "--shards" => match value("--shards").parse() {
                Ok(n) if n > 0 => config.shards = n,
                _ => usage(),
            },
            "--max-product" => match value("--max-product").parse() {
                Ok(n) if n > 0 => limits.max_product = n,
                _ => usage(),
            },
            "--max-batch" => match value("--max-batch").parse() {
                Ok(n) if n > 0 => limits.max_batch = n,
                _ => usage(),
            },
            "--data-dir" => data_dir = Some(value("--data-dir")),
            "--metrics-interval" => match value("--metrics-interval").parse() {
                Ok(secs) if secs > 0 => metrics_interval = Some(Duration::from_secs(secs)),
                _ => usage(),
            },
            "--transport" => match value("--transport").parse() {
                Ok(t) => transport = t,
                Err(message) => {
                    eprintln!("jim-serve: {message}");
                    usage();
                }
            },
            "--reactors" => match value("--reactors").parse() {
                Ok(n) if n > 0 => transport_limits.reactors = n,
                _ => usage(),
            },
            "--max-connections" => match value("--max-connections").parse() {
                Ok(n) if n > 0 => transport_limits.max_connections = n,
                _ => usage(),
            },
            // 0 disables the idle reaper (a debugging convenience).
            "--idle-timeout" => match value("--idle-timeout").parse::<u64>() {
                Ok(0) => transport_limits.idle_timeout = None,
                Ok(secs) => transport_limits.idle_timeout = Some(Duration::from_secs(secs)),
                Err(_) => usage(),
            },
            "--max-inflight" => match value("--max-inflight").parse() {
                Ok(n) if n > 0 => transport_limits.max_inflight = n,
                _ => usage(),
            },
            // 0 disables the per-address quota (the default).
            "--max-per-ip" => match value("--max-per-ip").parse::<usize>() {
                Ok(0) => transport_limits.max_per_ip = None,
                Ok(n) => transport_limits.max_per_ip = Some(n),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("jim-serve: unknown flag {other}");
                usage();
            }
        }
    }

    let store = match &data_dir {
        None => SessionStore::new(config),
        Some(dir) => {
            let journal = JournalStore::open(dir)?;
            let on_disk = journal.ids().len();
            eprintln!("jim-serve: journaling sessions under {dir} ({on_disk} resumable on disk)");
            SessionStore::with_journal(config, journal)
        }
    };
    let store = Arc::new(store);
    let shutdown = Shutdown::new();
    // SIGINT/SIGTERM drain gracefully: stop accepting, flush in-flight
    // responses, then exit (a second signal kills immediately).
    match jim_aio::watch_termination() {
        Ok(term) => {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                term.wait();
                eprintln!("jim-serve: termination signal; draining");
                shutdown.trigger();
            });
        }
        Err(_) => eprintln!("jim-serve: no signal hook on this platform; stop with a plain kill"),
    }
    spawn_sweeper(
        &store,
        Duration::from_secs(5).min(config.ttl),
        shutdown.clone(),
    );
    if let Some(interval) = metrics_interval {
        let metrics = store.metrics().clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            // wait_timeout returns true iff shutdown triggered — the
            // reporter exits on drain instead of logging into the void.
            while !shutdown.wait_timeout(interval) {
                eprintln!("jim-serve: {}", metrics.summary());
            }
        });
    }
    let shards = store.num_shards();
    let handler = Arc::new(Handler::with_limits(store, limits));

    let listener = TcpListener::bind((host.as_str(), port))?;
    eprintln!(
        "jim-serve: listening on {} via the {} transport ({} reactors, max {} connections, \
         idle timeout {}, {} in-flight/conn, per-ip cap {}; max {} sessions, {} shards, \
         ttl {:?}, factorize past {} tuples, answer batches up to {} labels, sessions {})",
        listener.local_addr()?,
        transport,
        transport_limits.reactors,
        transport_limits.max_connections,
        match transport_limits.idle_timeout {
            Some(t) => format!("{t:?}"),
            None => "off".to_string(),
        },
        transport_limits.max_inflight,
        match transport_limits.max_per_ip {
            Some(n) => n.to_string(),
            None => "off".to_string(),
        },
        config.max_sessions,
        shards,
        config.ttl,
        limits.max_product,
        limits.max_batch,
        match &data_dir {
            Some(dir) => format!("durable in {dir}"),
            None => "in memory only".to_string(),
        }
    );
    serve_with(listener, handler, transport, shutdown, transport_limits)
}
