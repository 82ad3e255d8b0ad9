//! The TCP front end: JSON lines over the epoll event loop (linux).
//!
//! The `Handler`/`protocol` split keeps dispatch free of sockets, and
//! everything per connection is sans-IO too: framing (lines to `\n`
//! under the 16 MiB cap), blank lines, the idle clock, one request in
//! flight at a time (so a connection's requests run in the order sent)
//! and the close decision all live in `Conn`, and admission (the
//! connection cap and per-address quota) in its `Admission` gate. What
//! is left is *scheduling*, and that is [`crate::reactor`]'s job: one
//! event loop, on the thread that calls [`serve_with`], that accepts and
//! multiplexes every connection through one `jim-aio` epoll poller, and
//! one worker pool that runs [`Handler::handle_line`], so a slow
//! `CreateSession` or journal replay never stalls the loop. Thousands of
//! idle connections cost a few hundred bytes of buffer each instead of a
//! thread stack.
//!
//! Off linux there is no TCP front end: [`serve_with`] returns
//! [`io::ErrorKind::Unsupported`], and the in-process `jim` REPL is the
//! portable way to run a session.
//!
//! The server observes a shared [`Shutdown`] signal: trigger it and the
//! loop stops accepting, in-flight responses drain (for at most
//! [`DRAIN_DEADLINE`]), and [`serve_with`] returns (the TTL sweeper
//! spawned by [`spawn_sweeper`] observes the same signal). Request lines
//! are decoded **strictly**: a line that is not valid UTF-8 is refused
//! with a typed protocol error instead of being lossily mangled into
//! replacement characters and stored as corrupted relation data.

use crate::handler::Handler;
use crate::protocol::ServerError;
use crate::store::SessionStore;
use crate::sync::{CondvarExt, LockExt};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Longest request line the server buffers (16 MiB — roomy enough for a
/// large inline-CSV `CreateSession`). A peer streaming bytes with no
/// newline must not grow server memory without bound.
pub const MAX_LINE_BYTES: u64 = 16 << 20;

/// How long a shutting-down server waits for in-flight responses to
/// finish and flush before giving up on them (a peer that never reads
/// its socket must not pin the process).
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Default global admission cap (see [`TransportLimits::max_connections`]).
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Default per-connection idle timeout (see [`TransportLimits::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// The production-traffic guardrails the front end honors.
///
/// The event loop admits through one `Admission` gate, and every
/// connection runs the `Conn` idle clock, ticked by the loop's
/// `poller.wait` timeout. A client sees it on the wire: connection 257
/// of a 256-cap server gets a typed [`ServerError::Overloaded`] line and
/// a close (never a silent queue), and a peer that goes quiet — or
/// drips bytes without ever finishing a line — is answered with
/// [`ServerError::IdleTimeout`] and reaped.
#[derive(Debug, Clone)]
pub struct TransportLimits {
    /// Global admission cap. Connections past it are shed with
    /// [`ServerError::Overloaded`].
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
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
            max_per_ip: None,
        }
    }
}

impl TransportLimits {
    /// Clamp every knob to something the front end can run with.
    pub fn normalized(mut self) -> TransportLimits {
        self.max_connections = self.max_connections.max(1);
        self.max_per_ip = self.max_per_ip.map(|n| n.max(1));
        self
    }
}

/// A cloneable graceful-shutdown signal shared by the event loop and the
/// TTL sweeper.
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
    /// waking the event loop out of its wait. Each hook runs exactly
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
    /// The sweeper's interval sleep lives here, so a trigger interrupts
    /// it immediately.
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

/// Serve the listener on the epoll event loop, on the calling thread,
/// under `limits` until `shutdown` is triggered (or a fatal poller
/// error). Off linux it returns [`io::ErrorKind::Unsupported`].
pub fn serve_with(
    listener: TcpListener,
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let limits = limits.normalized();
        let metrics = Arc::clone(handler.store().metrics());
        let admission = crate::conn::Admission::new(&limits, metrics);
        crate::reactor::serve_epoll(listener, handler, shutdown, limits, admission)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (listener, handler, shutdown, limits);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "jim-serve's TCP front end is linux-only; run sessions in-process with `jim`",
        ))
    }
}

/// Decode one complete, non-blank request line and produce its response
/// line, on a worker: non-UTF-8 bytes are **refused** with a
/// typed protocol error — never lossily replaced, so a `CreateSession`
/// carrying mangled inline CSV can never be stored as corrupted relation
/// data.
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
        // Registered after the fact (the event loop starting during a
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
