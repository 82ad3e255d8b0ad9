//! The epoll event loop (linux only): the server's one TCP front end,
//! one loop with admission control and one worker pool.
//!
//! ## Thread layout
//!
//! ```text
//!                 ┌────────────────────────┐   jobs   ┌──────────────────┐
//!   TCP accept ──▶│ event loop             │─────────▶│ worker pool      │
//!                 │  Poller: listener,     │          │ (2..8 threads,   │
//!                 │  waker, every conn     │◀─────────│ Handler)         │
//!                 │  admission inline      │ completions + waker ────────┘
//!                 │  tick: idle reap + TTL │
//!                 │  sweep of the store    │
//!                 └───────────┬────────────┘
//!                             │ over cap:
//!                             ▼
//!                      Overloaded + close
//! ```
//!
//! The thread that calls [`serve_epoll`] runs the **event loop**: one
//! `jim-aio` [`Poller`] holds the listener, one eventfd [`Waker`]
//! (registered with [`Shutdown`], and rung by workers when a response
//! is ready) and every connection. The loop accepts inline through the
//! shared `Admission` gate (the global cap and the per-address quota),
//! frames lines, and hands each complete line to **one** worker pool,
//! so a slow `CreateSession` or journal replay occupies a worker, never
//! the loop. Its timer tick is the server's only clock, so no thread
//! exists just to sleep. JIM's traffic is one person answering one
//! question per turn; one loop serves it, and one admitter keeps the
//! connection cap exact (one counter, no over-admit race).
//!
//! ## What the loop does, and what it leaves to `Conn`
//!
//! Every per-connection decision — framing, the line cap, blank lines,
//! the idle clock, one request in flight at a time, and when to close —
//! belongs to the sans-IO `Conn`. The loop keeps only what is about
//! sockets and threads:
//!
//! * readiness: read while the `Conn` wants bytes, write while it has
//!   output, and arm poller interest to match, so a connection with a
//!   complete line waiting or behind on its writes is backpressured at
//!   the socket;
//! * the worker pool, which runs the line the `Conn` dispatches, and
//!   the completion queue plus [`Waker`] that bring its response back;
//!   the worker pool serves many connections at once, never two lines
//!   of one;
//! * the timer tick: `poller.wait` wakes at least every quarter of the
//!   idle timeout, clamped to 10 ms–1 s (every second with the reaper
//!   off). Each tick outside a drain lets every `Conn`'s idle clock reap
//!   it, then sweeps the store's expired sessions, counting the sweep in
//!   the `sweeps`/`swept_sessions` metrics and logging any it evicted;
//! * [`Shutdown`]: stop accepting (the listener is deregistered and
//!   dropped, so the port stops answering), stop reading, let in-flight
//!   responses finish and flush, then return (with a hard deadline so a
//!   peer that never drains its socket cannot pin the process).
//!
//! Two invariants are the loop's own:
//!
//! * connection tokens are **never reused**, so a completion for a dead
//!   connection cannot be misdelivered;
//! * the global `live_connections` / `worker_queue_depth` gauges move
//!   symmetrically (increment on admit/dispatch, decrement on close/pop
//!   — never `set`), so they stay exact across restarts of
//!   `serve_with`. An admitted connection's `Ticket` returns its
//!   admission slot and gauge when dropped, wherever the connection
//!   ends.

use crate::conn::{Admission, Conn, Ticket, READ_CHUNK};
use crate::handler::Handler;
use crate::serve::{respond_to, Shutdown, TransportLimits, DRAIN_DEADLINE};
use crate::store::SessionStore;
use crate::sync::{CondvarExt, LockExt};
use jim_aio::{Events, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
/// Connection tokens count up from here and are **never reused**, so a
/// completion for a connection that died mid-request cannot be
/// delivered to a newcomer that recycled its slot.
const FIRST_CONN_TOKEN: u64 = 2;

/// Worker-pool bounds: enough to hide one slow request behind others,
/// few enough that the "bounded thread count" promise stays meaningful.
const MIN_WORKERS: usize = 2;
const MAX_WORKERS: usize = 8;

/// One complete request line travelling to the worker pool.
struct Job {
    token: u64,
    line: Vec<u8>,
}

/// The loop→workers channel: a plain mutex+condvar queue (std has no
/// mpmc channel, and this needs no more than push/pop/close).
#[derive(Default)]
struct JobQueue {
    state: Mutex<JobQueueState>,
    cv: Condvar,
}

#[derive(Default)]
struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut state = self.state.lock_unpoisoned();
        state.jobs.push_back(job);
        self.cv.notify_one();
    }

    /// Block for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock_unpoisoned();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cv.wait_unpoisoned(state);
        }
    }

    fn close(&self) {
        self.state.lock_unpoisoned().closed = true;
        self.cv.notify_all();
    }
}

/// The workers→loop channel: finished responses, plus the waker that
/// pops the loop out of `epoll_wait` to collect them.
struct Completions {
    ready: Mutex<Vec<(u64, String)>>,
    waker: Waker,
}

impl Completions {
    fn push(&self, token: u64, response: String) {
        self.ready.lock_unpoisoned().push((token, response));
        let _ = self.waker.wake();
    }

    fn take(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut *self.ready.lock_unpoisoned())
    }
}

/// One connection as the loop holds it: the socket, the `Conn` deciding
/// what happens on it, and the interest armed for it.
struct Socket {
    stream: TcpStream,
    conn: Conn,
    armed: Interest,
    _ticket: Ticket,
}

impl Socket {
    /// Read while the connection wants bytes and the socket has them.
    fn fill(&mut self, scratch: &mut [u8]) {
        while self.conn.wants_read() {
            match self.stream.read(scratch) {
                Ok(n) => self.conn.receive(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.conn.fail(), // reset underneath us
            }
        }
    }

    /// Write as much output as the socket takes right now.
    fn flush(&mut self) {
        while self.conn.wants_write() {
            match self.stream.write(self.conn.output()) {
                Ok(0) => self.conn.fail(),
                Ok(n) => self.conn.written(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.conn.fail(),
            }
        }
    }
}

/// Everything the event loop owns besides its connections.
struct ReactorCtx {
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
    admission: Arc<Admission>,
    poller: Poller,
    waker: Waker,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
}

/// Run the front end on the calling thread until `shutdown` triggers and
/// every connection finishes draining, then join the worker pool.
pub(crate) fn serve_epoll(
    listener: TcpListener,
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
    admission: Arc<Admission>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    shutdown.register_waker(waker.clone());
    let jobs = Arc::new(JobQueue::default());
    let completions = Arc::new(Completions {
        ready: Mutex::new(Vec::new()),
        waker: waker.clone(),
    });
    let workers = spawn_workers(&handler, &jobs, &completions)?;
    let ctx = ReactorCtx {
        handler,
        shutdown,
        limits,
        admission,
        poller,
        waker,
        jobs,
        completions,
    };

    let result = event_loop(&ctx, listener);
    ctx.jobs.close();
    for worker in workers {
        let _ = worker.join();
    }
    result
}

/// Start the worker pool: one thread per available core, clamped to
/// `MIN_WORKERS..=MAX_WORKERS`.
fn spawn_workers(
    handler: &Arc<Handler>,
    jobs: &Arc<JobQueue>,
    completions: &Arc<Completions>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let size = std::thread::available_parallelism()
        .map_or(MIN_WORKERS, |n| n.get())
        .clamp(MIN_WORKERS, MAX_WORKERS);
    let mut workers = Vec::with_capacity(size);
    for w in 0..size {
        let jobs = Arc::clone(jobs);
        let completions = Arc::clone(completions);
        let handler = Arc::clone(handler);
        let spawned = std::thread::Builder::new()
            .name(format!("jim-worker-{w}"))
            .spawn(move || {
                while let Some(job) = jobs.pop() {
                    handler.store().metrics().worker_queue_depth.add(-1);
                    completions.push(job.token, respond_to(&handler, &job.line));
                }
            });
        match spawned {
            Ok(t) => workers.push(t),
            // No worker at all means no request would ever complete:
            // fail outright rather than accept and hang.
            Err(e) if workers.is_empty() => return Err(e),
            Err(e) => {
                // Degraded but functional: log and run with the pool we
                // have — jobs just queue a little deeper.
                eprintln!(
                    "jim-serve: running with {} worker(s) (spawn failed: {e})",
                    workers.len()
                );
                break;
            }
        }
    }
    Ok(workers)
}

fn event_loop(ctx: &ReactorCtx, listener: TcpListener) -> io::Result<()> {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Socket> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Events::with_capacity(1024);
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut touched: Vec<u64> = Vec::new();
    let mut draining: Option<Instant> = None;
    // The server's one clock rides the poller timeout: wake at least
    // every `tick`, so an idle reap happens within [timeout, timeout +
    // tick] and an expired session is swept within a second.
    let ceiling = Duration::from_secs(1);
    let tick = ctx.limits.idle_timeout.map_or(ceiling, |t| {
        (t / 4).clamp(Duration::from_millis(10), ceiling)
    });
    let mut last_tick = Instant::now();

    loop {
        if let Some(since) = draining {
            if conns.is_empty() || since.elapsed() > DRAIN_DEADLINE {
                for (_, sock) in conns.drain() {
                    let _ = ctx.poller.delete(sock.stream.as_raw_fd());
                }
                return Ok(());
            }
        }
        let timeout = match draining {
            Some(_) => Duration::from_millis(100),
            None => tick,
        };
        ctx.poller.wait(&mut events, Some(timeout))?;

        touched.clear();
        let mut accept_ready = false;
        for event in events.iter() {
            match event.token {
                WAKER_TOKEN => ctx.waker.drain(),
                LISTENER_TOKEN => accept_ready = true,
                token => {
                    let Some(sock) = conns.get_mut(&token) else {
                        continue;
                    };
                    if event.readable || event.hangup {
                        sock.fill(&mut scratch);
                    }
                    touched.push(token);
                }
            }
        }

        for (token, response) in ctx.completions.take() {
            // A completion for a token that already closed is dropped
            // here — tokens are never reused, so it can't be misdelivered.
            if let Some(sock) = conns.get_mut(&token) {
                sock.conn.complete(response);
                touched.push(token);
            }
        }

        if draining.is_none() && ctx.shutdown.is_triggered() {
            draining = Some(Instant::now());
            // Stop the port answering while the connections drain.
            if let Some(listener) = listener.take() {
                let _ = ctx.poller.delete(listener.as_raw_fd());
            }
            for (&token, sock) in conns.iter_mut() {
                sock.conn.shutdown();
                touched.push(token);
            }
        }

        if let Some(listener) = listener.as_ref().filter(|_| accept_ready) {
            for (stream, ticket) in accept(listener, ctx) {
                let token = next_token;
                next_token += 1;
                // A stream dropped here returns its ticket as it goes.
                match ctx.poller.add(stream.as_raw_fd(), token, Interest::READ) {
                    Ok(()) => {
                        let conn = Conn::new(
                            ctx.limits.idle_timeout,
                            Arc::clone(ctx.handler.store().metrics()),
                        );
                        conns.insert(
                            token,
                            Socket {
                                stream,
                                conn,
                                armed: Interest::READ,
                                _ticket: ticket,
                            },
                        );
                        touched.push(token);
                    }
                    Err(e) => eprintln!("jim-serve: cannot register connection: {e}"),
                }
            }
        }

        // The timer tick: let every connection's idle clock reap it,
        // then sweep the store's expired sessions.
        if draining.is_none() && last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            for (&token, sock) in conns.iter_mut() {
                if sock.conn.tick(last_tick) {
                    touched.push(token);
                }
            }
            sweep(ctx.handler.store(), last_tick);
        }

        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            let Some(sock) = conns.get_mut(&token) else {
                continue;
            };
            if !advance(token, sock, ctx) {
                if let Some(sock) = conns.remove(&token) {
                    // Its ticket returns the admission slot as it drops.
                    let _ = ctx.poller.delete(sock.stream.as_raw_fd());
                }
            }
        }
    }
}

/// One TTL sweep of the store, counted in the metrics and logged from
/// its own report: a concurrent `create`'s LRU evictions move only the
/// running totals, never this sweep's count.
fn sweep(store: &SessionStore, now: Instant) {
    let report = store.sweep_report(now);
    let metrics = store.metrics();
    metrics.sweeps.inc();
    metrics.swept_sessions.add(report.evicted.len() as u64);
    if !report.evicted.is_empty() {
        eprintln!(
            "jim-serve: swept {} expired session(s), {} resumable on disk \
             ({} evicted / {} persisted since start; {} resident)",
            report.evicted.len(),
            report.persisted,
            metrics.evicted_total.get(),
            metrics.persisted_total.get(),
            metrics.resident_sessions.get(),
        );
    }
}

/// Accept every pending connection: `TCP_NODELAY`, then admission. The
/// refused are shed by the gate and dropped here.
fn accept(listener: &TcpListener, ctx: &ReactorCtx) -> Vec<(TcpStream, Ticket)> {
    let mut admitted = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop the stream; the peer sees a close
                }
                // Responses leave in one write; Nagle would stall the
                // interactive ping-pong a delayed-ACK per turn.
                let _ = stream.set_nodelay(true);
                if let Some(ticket) = ctx.admission.admit(&stream) {
                    admitted.push((stream, ticket));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // EMFILE and friends: the listener event is level-
                // triggered and stays readable, so without a pause the
                // loop would spin on the failing accept. A short sleep
                // bounds the retry rate.
                eprintln!("jim-serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(25));
                break;
            }
        }
    }
    admitted
}

/// Drive one connection as far as it can go right now: dispatch its
/// next line if it has one ready, write its output, then re-arm poller
/// interest to what it wants next. Returns `false` once it must close.
fn advance(token: u64, sock: &mut Socket, ctx: &ReactorCtx) -> bool {
    loop {
        if let Some(line) = sock.conn.next_line() {
            ctx.handler.store().metrics().worker_queue_depth.add(1);
            ctx.jobs.push(Job { token, line });
        }
        if !sock.conn.wants_write() {
            break;
        }
        sock.flush();
        if sock.conn.wants_write() {
            break; // the socket is full: wait for EPOLLOUT
        }
    }
    if sock.conn.finished() {
        return false;
    }
    let want = Interest {
        read: sock.conn.wants_read(),
        write: sock.conn.wants_write(),
    };
    if want != sock.armed {
        if ctx
            .poller
            .modify(sock.stream.as_raw_fd(), token, want)
            .is_err()
        {
            return false;
        }
        sock.armed = want;
    }
    true
}
