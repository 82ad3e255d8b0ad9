//! The TCP front ends: JSON lines over two interchangeable transports.
//!
//! The `Handler`/`protocol` split is transport-agnostic by design, and
//! so is everything per connection: framing (lines to `\n` under the
//! 16 MiB cap), blank lines, the idle clock, one request in flight at a
//! time (so a connection's requests run in the order sent) and the
//! close decision all live in the sans-IO `Conn`, and admission (the
//! connection cap and per-address quota) in its `Admission` gate. A
//! transport's own job is only *scheduling*: who blocks where, and who
//! calls `accept`, `read` and `write`. Both accept at once: each accept
//! loop blocks until a peer connects or [`Shutdown`] wakes it.
//!
//! * [`Transport::Threads`] — one thread per connection, blocking I/O
//!   with a [`SHUTDOWN_POLL`] timeout on both directions. Simple and
//!   portable; costs a stack per mostly-idle session, which is exactly
//!   what the interactive workload produces (one question/answer line
//!   per human turn).
//! * [`Transport::Epoll`] — a non-blocking event loop (linux only): N
//!   reactor threads multiplex every connection through `jim-aio` epoll
//!   pollers, and per-reactor worker pools run [`Handler::handle_line`]
//!   so a slow `CreateSession` or journal replay never stalls a reactor.
//!   Thousands of idle connections cost a few hundred bytes of buffer
//!   each instead of a thread stack — see [`crate::reactor`].
//!
//! Both observe a shared [`Shutdown`] signal: trigger it and the accept
//! loop stops, in-flight responses drain (for at most [`DRAIN_DEADLINE`]),
//! and [`serve_with`] returns (the TTL sweeper spawned by
//! [`spawn_sweeper`] observes the same signal). Both decode request lines
//! **strictly**: a line that is not valid UTF-8 is refused with a typed
//! protocol error instead of being lossily mangled into replacement
//! characters and stored as corrupted relation data.

use crate::conn::{Admission, Conn, READ_CHUNK};
use crate::handler::Handler;
use crate::protocol::ServerError;
use crate::store::SessionStore;
use crate::sync::{CondvarExt, LockExt};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest request line the server buffers (16 MiB — roomy enough for a
/// large inline-CSV `CreateSession`). A peer streaming bytes with no
/// newline must not grow server memory without bound.
pub const MAX_LINE_BYTES: u64 = 16 << 20;

/// How often the threads transport's blocked read and write calls wake
/// to observe the shutdown signal and the idle clock; also how long a
/// shutdown trigger waits at most to wake its blocked `accept`.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// How long a shutting-down transport waits for in-flight responses to
/// finish and flush before giving up on them (a peer that never reads
/// its socket must not pin the process).
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Default global admission cap (see [`TransportLimits::max_connections`]).
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Default per-connection idle timeout (see [`TransportLimits::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// The production-traffic guardrails both transports honor.
///
/// One struct, one semantics, one enforcement point: both accept loops
/// admit through the same `Admission` gate, and both transports run the
/// same `Conn` idle clock, ticked by the reactor's `poller.wait` timeout
/// or by the threads transport's [`SHUTDOWN_POLL`] read and write
/// timeouts. Either way a client sees the identical wire behavior:
/// connection 257 of a 256-cap server gets a typed
/// [`ServerError::Overloaded`] line and a close (never a silent queue),
/// and a peer that goes quiet — or drips bytes without ever finishing a
/// line — is answered with [`ServerError::IdleTimeout`] and reaped.
#[derive(Debug, Clone)]
pub struct TransportLimits {
    /// Epoll reactor threads (`--reactors` / `JIM_REACTORS`). Ignored by
    /// the threads transport. Clamped to at least 1.
    pub reactors: usize,
    /// Global admission cap across every reactor (or connection thread).
    /// Connections past it are shed with [`ServerError::Overloaded`].
    pub max_connections: usize,
    /// Reap a connection that completes no request line for this long
    /// (`None` disables). The clock resets on *complete lines*, not raw
    /// bytes, so a slowloris drip does not count as progress.
    pub idle_timeout: Option<Duration>,
    /// Concurrent connections one peer address may hold (`None` = off,
    /// the default). Past it, that peer's next connect is shed with the
    /// same typed [`ServerError::Overloaded`] as the global cap — one
    /// greedy client stops being able to eat the whole admission budget.
    pub max_per_ip: Option<usize>,
}

impl Default for TransportLimits {
    fn default() -> TransportLimits {
        TransportLimits {
            reactors: default_reactors(),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
            max_per_ip: None,
        }
    }
}

impl TransportLimits {
    /// Clamp every knob to something the transports can run with.
    pub fn normalized(mut self) -> TransportLimits {
        self.reactors = self.reactors.clamp(1, 64);
        self.max_connections = self.max_connections.max(1);
        self.max_per_ip = self.max_per_ip.map(|n| n.max(1));
        self
    }
}

/// The reactor-count default: `JIM_REACTORS` if set to a positive
/// integer, else `min(cores, 4)` — enough to spread accept/framing load
/// across cores without spawning a pool of mostly-idle epoll waiters on
/// big machines.
pub fn default_reactors() -> usize {
    if let Ok(raw) = std::env::var("JIM_REACTORS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n.min(64),
            _ => eprintln!("jim-serve: ignoring invalid JIM_REACTORS={raw:?}"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Which TCP front end [`serve_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One blocking thread per connection (portable fallback).
    Threads,
    /// One epoll reactor plus a worker pool (linux only).
    Epoll,
}

impl Transport {
    /// The best transport this build supports: epoll where `jim-aio` has
    /// a backend (linux), threads elsewhere.
    pub fn default_for_platform() -> Transport {
        if jim_aio::SUPPORTED {
            Transport::Epoll
        } else {
            Transport::Threads
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s {
            "threads" => Ok(Transport::Threads),
            "epoll" => Ok(Transport::Epoll),
            other => Err(format!(
                "unknown transport {other:?} (expected \"threads\" or \"epoll\")"
            )),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Transport::Threads => "threads",
            Transport::Epoll => "epoll",
        })
    }
}

/// A cloneable graceful-shutdown signal shared by the accept loop, every
/// connection, the epoll reactor and the TTL sweeper.
///
/// [`Shutdown::trigger`] is idempotent and returns immediately; the
/// server then stops accepting, finishes and flushes any response already
/// being computed, closes its connections and returns from [`serve_with`]
/// (the sweeper thread exits the same way). Requests that are merely
/// half-received are dropped — only *in-flight responses* are drained.
#[derive(Clone, Default)]
pub struct Shutdown {
    inner: Arc<ShutdownInner>,
}

#[derive(Default)]
struct ShutdownInner {
    triggered: AtomicBool,
    lock: Mutex<bool>,
    cv: Condvar,
    /// Side effects a trigger must perform beyond flag+condvar — e.g.
    /// waking an epoll reactor out of its wait. Each hook runs exactly
    /// once: at trigger time, or immediately on registration if the
    /// trigger already fired (`HookState::fired` is flipped under the
    /// same lock that hands the hook list to the trigger, so the two
    /// cannot both run one).
    hooks: Mutex<HookState>,
}

#[derive(Default)]
struct HookState {
    pending: Vec<Box<dyn Fn() + Send + Sync>>,
    fired: bool,
}

impl Shutdown {
    /// A fresh, untriggered signal.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Request shutdown. Idempotent; never blocks on server progress.
    pub fn trigger(&self) {
        {
            let mut triggered = self.inner.lock.lock_unpoisoned();
            if *triggered {
                return;
            }
            *triggered = true;
            self.inner.triggered.store(true, Ordering::SeqCst);
            self.inner.cv.notify_all();
        }
        let hooks = {
            let mut state = self.inner.hooks.lock_unpoisoned();
            state.fired = true;
            std::mem::take(&mut state.pending)
        };
        // Outside the lock: a hook may itself register further hooks.
        for hook in hooks {
            hook();
        }
    }

    /// Has [`Shutdown::trigger`] been called?
    pub fn is_triggered(&self) -> bool {
        self.inner.triggered.load(Ordering::SeqCst)
    }

    /// Block until triggered or `timeout` elapses; `true` iff triggered.
    /// The sweeper's interval sleep and the threads transport's back-off
    /// after a failed accept both live here, so a trigger interrupts them
    /// immediately.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut triggered = self.inner.lock.lock_unpoisoned();
        while !*triggered {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            triggered = self.inner.cv.wait_timeout_unpoisoned(triggered, remaining);
        }
        true
    }

    /// Register a side effect to run **exactly once** at trigger time —
    /// or immediately, if the signal already fired (registration must
    /// not race a concurrent trigger into a lost wakeup, nor into a
    /// double run).
    pub(crate) fn on_trigger(&self, hook: impl Fn() + Send + Sync + 'static) {
        {
            let mut state = self.inner.hooks.lock_unpoisoned();
            if !state.fired {
                state.pending.push(Box::new(hook));
                return;
            }
        }
        hook(); // late registration: the trigger already ran its hooks
    }
}

/// Serve the listener with the chosen transport under `limits` until
/// `shutdown` is triggered (or a fatal listener/reactor error).
/// [`Transport::Epoll`] off linux returns [`io::ErrorKind::Unsupported`].
pub fn serve_with(
    listener: TcpListener,
    handler: Arc<Handler>,
    transport: Transport,
    shutdown: Shutdown,
    limits: TransportLimits,
) -> io::Result<()> {
    let limits = limits.normalized();
    let admission = Admission::new(&limits, Arc::clone(handler.store().metrics()));
    match transport {
        Transport::Threads => serve_threads(listener, handler, shutdown, limits, admission),
        Transport::Epoll => {
            #[cfg(target_os = "linux")]
            {
                crate::reactor::serve_epoll(listener, handler, shutdown, limits, admission)
            }
            #[cfg(not(target_os = "linux"))]
            {
                let _ = (listener, handler, shutdown, limits, admission);
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "the epoll transport is linux-only; use --transport threads",
                ))
            }
        }
    }
}

/// The thread-per-connection transport: accept until shutdown, one
/// blocking thread per admitted connection, then drain — connection
/// threads observe the signal within one [`SHUTDOWN_POLL`] and give up
/// on unwritten responses [`DRAIN_DEADLINE`] later, and `serve_with`
/// waits for them that long, so returning really means drained.
///
/// `accept` blocks, so a new connection is served at once. A trigger
/// wakes it with a throwaway connection to the listener's own address,
/// which is dropped unserved like any connection accepted after it.
fn serve_threads(
    listener: TcpListener,
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
    admission: Arc<Admission>,
) -> io::Result<()> {
    // An unspecified address (`0.0.0.0`) is not connectable everywhere.
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        let loopback = match wake {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        };
        wake.set_ip(loopback);
    }
    // A full backlog can stall the connect, but then `accept` has peers
    // to return anyway: the timeout only keeps `trigger` from blocking.
    shutdown.on_trigger(move || {
        let _ = TcpStream::connect_timeout(&wake, SHUTDOWN_POLL);
    });
    loop {
        let accepted = listener.accept();
        if shutdown.is_triggered() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // One write per response line; Nagle would stall the
                // question/answer ping-pong a delayed-ACK (~40ms) per turn.
                let _ = stream.set_nodelay(true);
                let Some(ticket) = admission.admit(&stream) else {
                    continue;
                };
                let handler = Arc::clone(&handler);
                let shutdown = shutdown.clone();
                let idle_timeout = limits.idle_timeout;
                std::thread::spawn(move || {
                    let _ticket = ticket; // released when the thread exits
                    if let Err(e) = serve_connection(stream, &handler, &shutdown, idle_timeout) {
                        // Disconnects are routine; log and move on.
                        eprintln!("jim-serve: connection ended: {e}");
                    }
                });
            }
            Err(e) => {
                // EMFILE and friends: without a pause this arm is a
                // busy loop until an fd frees up.
                eprintln!("jim-serve: accept failed: {e}");
                if shutdown.wait_timeout(SHUTDOWN_POLL) {
                    break;
                }
            }
        }
    }
    drop(listener); // stop the port answering before the drain wait
    let deadline = Instant::now() + SHUTDOWN_POLL + DRAIN_DEADLINE;
    while admission.live() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Decode one complete, non-blank request line and produce its response
/// line. This is the single decoding path both transports share:
/// non-UTF-8 bytes are **refused** with a typed protocol error — never
/// lossily replaced, so a `CreateSession` carrying mangled inline CSV can
/// never be stored as corrupted relation data.
pub(crate) fn respond_to(handler: &Handler, raw: &[u8]) -> String {
    let metrics = handler.store().metrics();
    metrics.dispatched.inc();
    match std::str::from_utf8(raw) {
        Ok(line) => handler.handle_line(line.trim()),
        Err(_) => {
            // The line reached the decode path (it counts toward
            // transport traffic) but was never parsed as a request (it
            // counts as a decode refusal, like malformed JSON).
            metrics.decode_refused.inc();
            ServerError::InvalidUtf8.response().render()
        }
    }
}

/// Pump one connection through its `Conn`, one line at a time, until
/// the `Conn` closes it, the socket fails, or [`DRAIN_DEADLINE`] passes
/// after `shutdown` triggers with responses still unwritten.
///
/// Reads and writes are raw calls with a [`SHUTDOWN_POLL`] timeout, so the
/// idle clock and the shutdown signal are checked at least once per poll
/// whatever the peer does: a slowloris dripping bytes mid-line, a chatty
/// peer that never lets a read time out, and a peer that never reads its
/// responses are all reached on schedule.
fn serve_connection(
    mut stream: TcpStream,
    handler: &Handler,
    shutdown: &Shutdown,
    idle_timeout: Option<Duration>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(SHUTDOWN_POLL))?;
    stream.set_write_timeout(Some(SHUTDOWN_POLL))?;
    let mut conn = Conn::new(idle_timeout, Arc::clone(handler.store().metrics()));
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut give_up: Option<Instant> = None;
    while !conn.finished() {
        if let Some(line) = conn.next_line() {
            conn.complete(respond_to(handler, &line));
        }
        let io = if conn.wants_write() {
            stream.write(conn.output()).map(|n| conn.written(n))
        } else if conn.wants_read() {
            stream.read(&mut chunk).map(|n| conn.receive(&chunk[..n]))
        } else {
            break; // nothing left that this thread could supply
        };
        match io {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        let now = Instant::now();
        conn.tick(now);
        if shutdown.is_triggered() {
            conn.shutdown();
            if now >= *give_up.get_or_insert(now + DRAIN_DEADLINE) {
                break;
            }
        }
    }
    Ok(())
}

/// Start the TTL sweeper thread, evicting expired sessions every
/// `interval` (floored at 100ms so a tiny TTL cannot become a busy
/// loop). It exits when `shutdown` triggers **or** every other owner of
/// the store is gone (it holds only a weak reference); the returned
/// handle joins promptly after a trigger. Evictions are accounted from
/// the sweep result itself: each sweep updates the metrics aggregate
/// (sweep counters plus the on-disk session gauge) and the log line
/// is formatted **from those counters**, so the sweeper's reporting and
/// a concurrent `Metrics` snapshot can never disagree about totals —
/// concurrent LRU evictions on `create` move the running totals but are
/// never attributed to the sweep.
pub fn spawn_sweeper(
    store: &Arc<SessionStore>,
    interval: Duration,
    shutdown: Shutdown,
) -> std::thread::JoinHandle<()> {
    let interval = interval.max(Duration::from_millis(100));
    let weak = Arc::downgrade(store);
    std::thread::spawn(move || loop {
        if shutdown.wait_timeout(interval) {
            return;
        }
        let Some(store) = weak.upgrade() else { return };
        let report = store.sweep_report(Instant::now());
        let metrics = store.metrics();
        metrics.sweeps.inc();
        metrics.swept_sessions.add(report.evicted.len() as u64);
        metrics.disk_sessions.set(store.disk_ids().len() as i64);
        if !report.evicted.is_empty() {
            eprintln!(
                "jim-serve: swept {} expired session(s), {} resumable on disk \
                 ({} evicted / {} persisted since start; {} resident, {} on disk)",
                report.evicted.len(),
                report.persisted,
                metrics.evicted_total.get(),
                metrics.persisted_total.get(),
                metrics.resident_sessions.get(),
                metrics.disk_sessions.get(),
            );
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn shutdown_trigger_is_idempotent_and_observable() {
        let s = Shutdown::new();
        assert!(!s.is_triggered());
        assert!(!s.wait_timeout(Duration::from_millis(1)), "not yet");
        s.trigger();
        s.trigger(); // idempotent
        assert!(s.is_triggered());
        assert!(s.wait_timeout(Duration::from_secs(3600)), "returns at once");
    }

    #[test]
    fn shutdown_wakes_a_parked_waiter() {
        let s = Shutdown::new();
        let waiter = s.clone();
        let started = Instant::now();
        let t = std::thread::spawn(move || waiter.wait_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        s.trigger();
        assert!(t.join().unwrap(), "woken by the trigger, not the timeout");
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn on_trigger_hooks_run_exactly_once_even_when_registered_late() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fired = Arc::new(AtomicUsize::new(0));
        let s = Shutdown::new();
        let early = Arc::clone(&fired);
        s.on_trigger(move || {
            early.fetch_add(1, Ordering::SeqCst);
        });
        s.trigger();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Registered after the fact (the reactor starting during a
        // shutdown race): runs immediately — and does NOT replay the
        // early hook, nor does a redundant trigger re-run anything.
        let late = Arc::clone(&fired);
        s.on_trigger(move || {
            late.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        s.trigger();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn strict_utf8_decode_refuses_and_preserves() {
        let handler = Handler::new(Arc::new(crate::store::SessionStore::new(
            StoreConfig::default(),
        )));
        // Invalid bytes: a typed refusal, not a lossy U+FFFD mangle.
        let r = respond_to(&handler, &[b'{', 0xFF, 0xC3, b'}']);
        assert!(r.contains("\"ok\":false") && r.contains("UTF-8"), "{r}");
        let r = respond_to(&handler, b"{\"op\":\"ListSessions\"}\r");
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn sweeper_joins_on_shutdown_and_on_store_drop() {
        let store = Arc::new(crate::store::SessionStore::new(StoreConfig::default()));
        let shutdown = Shutdown::new();
        let sweeper = spawn_sweeper(&store, Duration::from_secs(3600), shutdown.clone());
        shutdown.trigger();
        sweeper.join().expect("sweeper exits on shutdown");

        // Without a trigger, dropping every strong store reference also
        // ends it (it holds only a weak ref), within one interval.
        let shutdown = Shutdown::new();
        let sweeper = spawn_sweeper(&store, Duration::from_millis(100), shutdown);
        drop(store);
        sweeper
            .join()
            .expect("sweeper exits once the store is gone");
    }
}
