//! Criterion bench for the TCP front end (the epoll reactor): requests
//! per second over one live connection, the cost of *idle*
//! connections, and the reactor-count sweep.
//!
//! * `round_trip` — one client, one persistent connection, one cheap
//!   request (`ListSessions`) per iteration, and the same with a
//!   session-touching request (`Stats`). This is the protocol's serving
//!   latency floor: framing + dispatch + store lookup + response write,
//!   including the reactor→worker→reactor handoff each request crosses.
//! * `round_trip_with_idle_conns` — the same round trip while
//!   `IDLE_CONNS` other connections sit parked. This is the workload the
//!   event loop exists for (many mostly-idle interactive sessions): the
//!   reactor pays a buffer per parked socket, not a thread stack. The
//!   bench also prints the per-idle-connection RSS/VSZ delta from
//!   `/proc/self/status` next to the timing; the client sockets live in
//!   the same process, so the figure is client and server together.
//! * `reactor_sweep` — 1, 2 and 4 reactors under pipelined
//!   multi-connection traffic (16 connections, each writing 32-request
//!   bursts, which the server runs one request per connection at a time,
//!   so at most 16 are in flight). Self-timed: each reactor count serves
//!   `SWEEP_SECS` of traffic, `SWEEP_REPS` times with the counts
//!   interleaved, and the aggregate req/s is printed per count as the
//!   median and quartiles of its runs. Reactor scaling needs cores: on a
//!   single-core host every reactor thread shares the one CPU and the
//!   sweep shows flat numbers, and the sweep's client threads compete
//!   for the same cores as the reactors.
//!
//! Client and server share the process, so pin it to one CPU (`taskset
//! -c 0 cargo bench -p jim-bench --bench transport`) to time round trips
//! without cross-CPU wakeups, whose latency swings with the host's load;
//! run the reactor sweep unpinned, since it measures the use of cores.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use jim_server::handler::Handler;
use jim_server::serve::{serve_with, Shutdown, TransportLimits};
use jim_server::store::{SessionStore, StoreConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE_CONNS: usize = 256;

/// Timed round trips per one-connection arm (seconds per arm), after
/// `WARMUP_ROUND_TRIPS` untimed ones: long enough to average over the
/// host's speed bursts, which over a few hundred round trips can time
/// `ListSessions` at twice `Stats` on the same connection.
const ROUND_TRIPS: usize = 100_000;
const WARMUP_ROUND_TRIPS: usize = 2_000;

/// Reactor-sweep shape: enough connections to spread across 4 reactors
/// and keep every worker pool busy, and bursts deep enough that each
/// connection always has its next request buffered at the server.
const SWEEP_CONNS: usize = 16;
const PIPELINE_DEPTH: usize = 32;
const SWEEP_REACTORS: [usize; 3] = [1, 2, 4];
/// Each self-timed sweep run lasts this long, and every reactor count
/// runs this many times, interleaved with the others, so a drift in the
/// host's speed spreads over all counts instead of favouring one. Five
/// runs, so the printed quartiles and median are the sorted runs' 2nd,
/// 3rd and 4th.
const SWEEP_SECS: u64 = 2;
const SWEEP_REPS: usize = 5;

struct BenchServer {
    addr: SocketAddr,
    shutdown: Shutdown,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl BenchServer {
    fn start() -> BenchServer {
        BenchServer::start_with_limits(TransportLimits::default())
    }

    fn start_with_limits(limits: TransportLimits) -> BenchServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind bench port");
        let addr = listener.local_addr().expect("local addr");
        let store = Arc::new(SessionStore::new(StoreConfig {
            max_sessions: 16,
            ttl: Duration::from_secs(600),
        }));
        let handler = Arc::new(Handler::new(store));
        let shutdown = Shutdown::new();
        let serve_shutdown = shutdown.clone();
        let thread =
            std::thread::spawn(move || serve_with(listener, handler, serve_shutdown, limits));
        BenchServer {
            addr,
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Drop for BenchServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn round_trip(&mut self, line: &str) -> usize {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(response.contains("\"ok\":true"), "{response}");
        response.len()
    }

    /// [`Conn::round_trip`] `WARMUP_ROUND_TRIPS` times, untimed.
    fn warm_up(&mut self, line: &str) {
        for _ in 0..WARMUP_ROUND_TRIPS {
            self.round_trip(line);
        }
    }
}

/// `(VmRSS, VmSize)` in KiB, when the platform exposes them.
fn memory_kib() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse::<u64>().ok())
    };
    Some((field("VmRSS:")?, field("VmSize:")?))
}

fn bench_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    group.sample_size(ROUND_TRIPS);
    let server = BenchServer::start();
    let mut conn = Conn::open(server.addr);
    let r = conn.round_trip(
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
    );
    assert!(r > 0);
    for (arm, line) in [
        ("round_trip", r#"{"op":"ListSessions"}"#),
        ("stats_round_trip", r#"{"op":"Stats","session":1}"#),
    ] {
        conn.warm_up(line);
        group.bench_function(arm, |b| b.iter(|| conn.round_trip(line)));
    }
    group.finish();
}

fn bench_idle_connections(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_idle");
    group.sample_size(ROUND_TRIPS);
    let server = BenchServer::start();
    let mut conn = Conn::open(server.addr);
    conn.round_trip(
        r#"{"op":"CreateSession","source":{"scenario":"flights"},"strategy":"LookaheadMinPrune"}"#,
    );

    let before = memory_kib();
    let idle: Vec<Conn> = (0..IDLE_CONNS).map(|_| Conn::open(server.addr)).collect();
    // One round trip *after* the idle fleet proves they are all accepted
    // (accepts are FIFO) before memory is sampled.
    conn.round_trip(r#"{"op":"ListSessions"}"#);
    if let (Some((rss0, vsz0)), Some((rss1, vsz1))) = (before, memory_kib()) {
        println!(
            "bench transport_idle: {IDLE_CONNS} idle conns cost ~{} KiB RSS, ~{} KiB VSZ \
             per connection, client and server together \
             (process: {rss0}->{rss1} RSS, {vsz0}->{vsz1} VSZ)",
            rss1.saturating_sub(rss0) / IDLE_CONNS as u64,
            vsz1.saturating_sub(vsz0) / IDLE_CONNS as u64,
        );
    }
    conn.warm_up(r#"{"op":"ListSessions"}"#);
    group.bench_function(format!("round_trip_with_{IDLE_CONNS}_idle"), |b| {
        b.iter(|| conn.round_trip(r#"{"op":"ListSessions"}"#))
    });
    drop(idle);
    group.finish();
}

/// Write `depth` requests in one burst, then read all `depth` responses;
/// the server answers them one at a time, in order.
fn pipelined_burst(conn: &mut Conn, depth: usize) {
    let mut batch = String::new();
    for _ in 0..depth {
        batch.push_str("{\"op\":\"ListSessions\"}\n");
    }
    conn.writer
        .write_all(batch.as_bytes())
        .expect("write burst");
    conn.writer.flush().expect("flush burst");
    let mut response = String::new();
    for _ in 0..depth {
        response.clear();
        conn.reader.read_line(&mut response).expect("read response");
        assert!(response.contains("\"ok\":true"), "{response}");
    }
}

/// One self-timed sweep run: `SWEEP_CONNS` concurrent clients push
/// pipelined bursts until `SWEEP_SECS` have passed; returns the aggregate
/// req/s. (Criterion times one closure on one thread; reactor scaling
/// only shows across *many* connections.)
fn sweep_rps(addr: SocketAddr) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(SWEEP_SECS);
    let clients: Vec<_> = (0..SWEEP_CONNS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr);
                let mut sent = 0;
                while Instant::now() < deadline {
                    pipelined_burst(&mut conn, PIPELINE_DEPTH);
                    sent += PIPELINE_DEPTH;
                }
                sent
            })
        })
        .collect();
    let total: usize = clients
        .into_iter()
        .map(|c| c.join().expect("sweep client"))
        .sum();
    total as f64 / start.elapsed().as_secs_f64()
}

fn bench_reactor_scaling(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let servers = SWEEP_REACTORS.map(|reactors| {
        BenchServer::start_with_limits(TransportLimits {
            reactors,
            ..TransportLimits::default()
        })
    });
    let mut runs = vec![Vec::new(); SWEEP_REACTORS.len()];
    for _ in 0..SWEEP_REPS {
        for (server, rps) in servers.iter().zip(&mut runs) {
            rps.push(sweep_rps(server.addr));
        }
    }
    for (reactors, rps) in SWEEP_REACTORS.iter().zip(&mut runs) {
        rps.sort_by(f64::total_cmp);
        println!(
            "bench transport_reactors/{reactors}: {SWEEP_CONNS} conns x {PIPELINE_DEPTH} \
             pipelined, {SWEEP_REPS} runs of {SWEEP_SECS} s -> median {:.0} req/s \
             (quartiles {:.0}-{:.0}; host has {cores} core(s); rps climbs with reactors \
             only when cores >= reactors)",
            rps[2], rps[1], rps[3],
        );
    }
    // The criterion arms: one connection's pipelined burst latency at
    // each reactor count, for the regression-tracked record.
    let mut group = c.benchmark_group("transport_reactors");
    group.sample_size(60);
    for (reactors, server) in SWEEP_REACTORS.iter().zip(&servers) {
        let mut conn = Conn::open(server.addr);
        group.bench_function(
            format!("pipelined_burst_x{PIPELINE_DEPTH}/reactors_{reactors}"),
            |b| b.iter(|| pipelined_burst(&mut conn, PIPELINE_DEPTH)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_trip,
    bench_idle_connections,
    bench_reactor_scaling
);
criterion_main!(benches);
