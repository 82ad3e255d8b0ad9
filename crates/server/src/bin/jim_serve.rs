//! `jim-serve` — the JIM inference service over TCP.
//!
//! ```text
//! jim-serve [--port N] [--host ADDR] [--max-sessions N] [--ttl-secs N]
//!           [--max-product N] [--max-batch N] [--data-dir PATH]
//!           [--max-connections N] [--idle-timeout SECS] [--max-per-ip N]
//! ```
//!
//! With `--data-dir`, every session is journaled to disk (write-ahead,
//! one JSON line per answered batch): LRU/TTL eviction keeps sessions
//! resumable by id, and a restarted server over the same directory picks
//! them all up. Without it (the default), sessions are memory-only.
//!
//! The front end is one non-blocking event loop (linux only) that accepts
//! and frames every connection and hands each request line to one worker
//! pool, so ten thousand idle sessions don't cost ten thousand stacks.
//! Its guardrails: `--max-connections` sheds over-cap connects with a
//! typed `overloaded` error, `--idle-timeout` reaps peers that complete
//! no request line in SECS seconds (0 disables), and `--max-per-ip` sheds
//! a single address's connections past N with the same `overloaded`
//! error (0 disables, the default). A connection has one request in
//! flight at a time, so its requests run in the order sent; a pipelining
//! peer gets every response, in order. `--transport epoll` is still
//! accepted, as a no-op; any other transport exits 2. The loop's timer
//! tick, at least once a second, also sweeps sessions idle past
//! `--ttl-secs` out of memory and logs each sweep that evicts any.
//!
//! The server's counters are available on demand through the `Metrics`
//! wire op.
//!
//! Speaks the JSON-lines protocol of `jim_server::protocol`; try it with
//! the `jim` REPL client or plain `nc`.

#![forbid(unsafe_code)]

use jim_server::handler::{Handler, ServerLimits};
use jim_server::journal::JournalStore;
use jim_server::serve::{serve_with, Shutdown, TransportLimits};
use jim_server::store::{SessionStore, StoreConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: jim-serve [--port N] [--host ADDR] [--max-sessions N] [--ttl-secs N] \
         [--max-product N] [--max-batch N] [--data-dir PATH] \
         [--max-connections N] [--idle-timeout SECS] [--max-per-ip N]"
    );
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let mut host = "127.0.0.1".to_string();
    let mut port = 7914u16; // "JIM" on a phone pad, more or less.
    let mut config = StoreConfig::default();
    let mut limits = ServerLimits::default();
    let mut data_dir: Option<String> = None;
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
            "--max-product" => match value("--max-product").parse() {
                Ok(n) if n > 0 => limits.max_product = n,
                _ => usage(),
            },
            "--max-batch" => match value("--max-batch").parse() {
                Ok(n) if n > 0 => limits.max_batch = n,
                _ => usage(),
            },
            "--data-dir" => data_dir = Some(value("--data-dir")),
            // The epoll event loop is the one front end, and there is one
            // loop; these flags stay as no-ops so existing launch scripts
            // that name them keep working.
            "--transport" => match value("--transport").as_str() {
                "epoll" => {}
                other => {
                    eprintln!("jim-serve: unknown transport {other:?} (epoll is the only one)");
                    usage();
                }
            },
            "--reactors" => match value("--reactors").parse::<usize>() {
                Ok(n) if n > 0 => {}
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
    let handler = Arc::new(Handler::with_limits(store, limits));

    let listener = TcpListener::bind((host.as_str(), port))?;
    eprintln!(
        "jim-serve: listening on {} (max {} connections, \
         idle timeout {}, per-ip cap {}; max {} sessions, \
         ttl {:?}, factorize past {} tuples, answer batches up to {} labels, sessions {})",
        listener.local_addr()?,
        transport_limits.max_connections,
        match transport_limits.idle_timeout {
            Some(t) => format!("{t:?}"),
            None => "off".to_string(),
        },
        match transport_limits.max_per_ip {
            Some(n) => n.to_string(),
            None => "off".to_string(),
        },
        config.max_sessions,
        config.ttl,
        limits.max_product,
        limits.max_batch,
        match &data_dir {
            Some(dir) => format!("durable in {dir}"),
            None => "in memory only".to_string(),
        }
    );
    serve_with(listener, handler, shutdown, transport_limits)
}
