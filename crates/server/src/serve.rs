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
//! The loop's timer tick is the server's one clock: it reaps idle
//! connections and sweeps the store's expired sessions, so nothing
//! time-based runs on a thread of its own. The server observes a shared
//! [`Shutdown`] signal: trigger it and the loop stops accepting,
//! in-flight responses drain (for at most [`DRAIN_DEADLINE`]), and
//! [`serve_with`] returns. Request lines are decoded **strictly**: a line
//! that is not valid UTF-8 is refused with a typed protocol error instead
//! of being lossily mangled into replacement characters and stored as
//! corrupted relation data.

use crate::handler::Handler;
use crate::protocol::ServerError;
use crate::sync::LockExt;
use jim_aio::Waker;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// A cloneable graceful-shutdown signal: one flag, and the running event
/// loop's waker.
///
/// [`Shutdown::trigger`] is idempotent and returns immediately; the
/// server then stops accepting, finishes and flushes any response already
/// being computed, closes its connections and returns from [`serve_with`].
/// Requests that are merely half-received are dropped — only *in-flight
/// responses* are drained.
#[derive(Clone, Default)]
pub struct Shutdown {
    inner: Arc<ShutdownInner>,
}

#[derive(Default)]
struct ShutdownInner {
    triggered: AtomicBool,
    /// The waker of the loop serving under this signal, once it runs.
    waker: Mutex<Option<Waker>>,
}

impl Shutdown {
    /// A fresh, untriggered signal.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Request shutdown. Idempotent; never blocks on server progress.
    pub fn trigger(&self) {
        self.inner.triggered.store(true, Ordering::SeqCst);
        if let Some(waker) = &*self.inner.waker.lock_unpoisoned() {
            let _ = waker.wake();
        }
    }

    /// Has [`Shutdown::trigger`] been called?
    pub fn is_triggered(&self) -> bool {
        self.inner.triggered.load(Ordering::SeqCst)
    }

    /// Ring `waker` on a trigger. The waker is stored before the flag is
    /// read, so a trigger that fired before the loop started rings it
    /// here, and one that fires later finds it in the slot: no wakeup is
    /// lost either way.
    pub(crate) fn register_waker(&self, waker: Waker) {
        *self.inner.waker.lock_unpoisoned() = Some(waker.clone());
        if self.is_triggered() {
            let _ = waker.wake();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn shutdown_trigger_is_idempotent_and_observable() {
        let s = Shutdown::new();
        let clone = s.clone();
        assert!(!s.is_triggered());
        s.trigger();
        s.trigger(); // idempotent
        assert!(s.is_triggered());
        assert!(clone.is_triggered(), "every clone observes the one signal");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn trigger_rings_the_loop_waker_registered_before_or_after_it() {
        use jim_aio::{Events, Interest, Poller};
        let mut events = Events::with_capacity(4);
        for trigger_first in [true, false] {
            let s = Shutdown::new();
            let poller = Poller::new().unwrap();
            let waker = Waker::new().unwrap();
            poller.add(waker.as_raw_fd(), 1, Interest::READ).unwrap();
            if trigger_first {
                // The loop starting during a shutdown race.
                s.trigger();
                s.register_waker(waker);
            } else {
                s.register_waker(waker);
                assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
                s.trigger();
            }
            assert_eq!(
                poller.wait(&mut events, Some(Duration::ZERO)).unwrap(),
                1,
                "trigger first: {trigger_first}"
            );
        }
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
}
