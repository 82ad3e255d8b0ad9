//! The epoll event loop (linux only): the server's one TCP front end, a
//! multi-reactor loop with admission control.
//!
//! ## Thread layout
//!
//! ```text
//!                 ┌───────────────┐  round-robin   ┌──────────────────────┐
//!   TCP accept ──▶│ accept thread │───────────────▶│ reactor 0 ... N-1    │
//!                 │  (admission)  │  inbox+waker   │  Poller · conns      │
//!                 └───────┬───────┘                │  worker pool (2..8)  │
//!                         │ over cap:              │  completion queue    │
//!                         ▼                        └──────────────────────┘
//!                  Overloaded + close
//! ```
//!
//! The thread that calls [`serve_epoll`] becomes the **accept loop**: it
//! owns the listener, admits through the shared `Admission` gate (the
//! global cap and the per-address quota), and hands each admitted
//! socket to one of N **reactor threads**
//! (`TransportLimits::reactors`) round-robin, via a per-reactor inbox
//! and eventfd [`Waker`]. Each reactor owns its own `jim-aio`
//! [`Poller`], its own worker pool and its own completion queue, so the
//! accept/framing path scales across cores with no shared epoll set and
//! no cross-reactor locks on the hot path.
//!
//! **Why an accept thread, not `SO_REUSEPORT`?** `serve_with()` takes a
//! *pre-bound* listener (tests, benches and `jim-load` all bind
//! `127.0.0.1:0` and read the OS-assigned port back), and `SO_REUSEPORT`
//! only balances across sockets that all set the option *before* `bind`
//! — adopting it would mean re-binding inside `serve` (racy for port-0
//! listeners) and breaking the public API. A single accept point also
//! makes the admission cap **exact** (one admitter, one counter — no
//! distributed over-admit race) and balances small connection counts
//! better than the kernel's 4-tuple hash, which happily lands a test's
//! four connections on one reactor. The cost — one thread doing only
//! `accept` + an eventfd write per connection — is noise next to
//! per-connection framing work.
//!
//! ## What a reactor does, and what it leaves to `Conn`
//!
//! Every per-connection decision — framing, the line cap, blank lines,
//! the idle clock, one request in flight at a time, and when to close —
//! belongs to the sans-IO `Conn`. A reactor keeps only what is about
//! sockets and threads:
//!
//! * readiness: read while the `Conn` wants bytes, write while it has
//!   output, and arm poller interest to match, so a connection with a
//!   complete line waiting or behind on its writes is backpressured at
//!   the socket;
//! * the worker pool, which runs the line the `Conn` dispatches, and
//!   the completion queue plus eventfd [`Waker`] that bring its response
//!   back; the worker pool serves many connections at once, never two
//!   lines of one;
//! * the timer tick: `poller.wait`'s timeout doubles as the idle
//!   reaper's clock;
//! * [`Shutdown`]: stop accepting, stop reading, let in-flight responses
//!   finish and flush, then return (with a hard deadline so a peer that
//!   never drains its socket cannot pin the process).
//!
//! Two invariants are the reactor's own:
//!
//! * connection tokens are **never reused** within a reactor, so a
//!   completion for a dead connection cannot be misdelivered;
//! * the global `live_connections` / `worker_queue_depth` gauges are
//!   **aggregates**: every reactor moves them symmetrically (increment
//!   on admit/dispatch, decrement on close/pop — never `set`), so they
//!   stay correct with N reactors and across restarts of `serve_with`. An
//!   admitted connection's `Ticket` returns its admission slot and
//!   gauge when dropped, wherever the connection ends.

use crate::conn::{Admission, Conn, Ticket, READ_CHUNK};
use crate::handler::Handler;
use crate::metrics::ReactorMetrics;
use crate::serve::{respond_to, Shutdown, TransportLimits, DRAIN_DEADLINE};
use crate::sync::{CondvarExt, LockExt};
use jim_aio::{Events, Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
/// Connection tokens count up from here (per reactor) and are **never
/// reused**, so a completion for a connection that died mid-request
/// cannot be delivered to a newcomer that recycled its slot.
const FIRST_CONN_TOKEN: u64 = 2;

/// Per-reactor worker-pool bounds: enough to hide one slow request
/// behind others, few enough that the "bounded thread count" promise
/// stays meaningful even at `--reactors 4`.
const MIN_WORKERS: usize = 2;
const MAX_WORKERS: usize = 8;

fn workers_per_reactor(reactors: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(MIN_WORKERS);
    (cores / reactors.max(1)).clamp(MIN_WORKERS, MAX_WORKERS)
}

/// One complete request line travelling to a reactor's worker pool.
struct Job {
    token: u64,
    line: Vec<u8>,
}

/// The reactor→workers channel: a plain mutex+condvar queue (std has no
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

/// The workers→reactor channel: finished responses, plus the waker that
/// pops the reactor out of `epoll_wait` to collect them.
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

/// A socket the accept thread admitted, travelling to its reactor with
/// its admission ticket.
type Admitted = (TcpStream, Ticket);

/// One connection as its reactor holds it: the socket, the `Conn`
/// deciding what happens on it, and the interest armed for it.
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

/// The accept thread's handle on one reactor.
struct ReactorHandle {
    /// Sockets admitted but not yet registered with the reactor's poller.
    inbox: Arc<Mutex<Vec<Admitted>>>,
    /// Pops the reactor out of `epoll_wait` to drain the inbox (also
    /// hooked into [`Shutdown`]).
    waker: Waker,
    /// This reactor's metrics slot (shed attribution happens here, since
    /// the accept thread knows which reactor a refused socket was for).
    metrics: Arc<ReactorMetrics>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

/// Run the multi-reactor front end until `shutdown` triggers and every
/// reactor finishes draining. The calling thread becomes the accept
/// loop.
pub(crate) fn serve_epoll(
    listener: TcpListener,
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
    admission: Arc<Admission>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let metrics = Arc::clone(handler.store().metrics());

    let mut reactors: Vec<ReactorHandle> = Vec::with_capacity(limits.reactors);
    for index in 0..limits.reactors {
        let waker = Waker::new()?;
        let inbox: Arc<Mutex<Vec<Admitted>>> = Arc::default();
        let rmetrics = metrics.reactor(index);
        {
            let waker = waker.clone();
            shutdown.on_trigger(move || {
                let _ = waker.wake();
            });
        }
        let thread = {
            let handler = Arc::clone(&handler);
            let reactor_shutdown = shutdown.clone();
            let limits = limits.clone();
            let waker = waker.clone();
            let inbox = Arc::clone(&inbox);
            let rmetrics = Arc::clone(&rmetrics);
            let spawned = std::thread::Builder::new()
                .name(format!("jim-reactor-{index}"))
                .spawn(move || {
                    run_reactor(ReactorCtx {
                        index,
                        handler,
                        shutdown: reactor_shutdown,
                        limits,
                        waker,
                        inbox,
                        rmetrics,
                    })
                });
            match spawned {
                Ok(thread) => thread,
                Err(e) => {
                    // Could not bring up the full reactor set. Shed the
                    // ones already running and surface the error instead
                    // of serving with silently degraded capacity.
                    shutdown.trigger();
                    for reactor in reactors {
                        let _ = reactor.waker.wake();
                        let _ = reactor.thread.join();
                    }
                    return Err(e);
                }
            }
        };
        reactors.push(ReactorHandle {
            inbox,
            waker,
            metrics: rmetrics,
            thread,
        });
    }

    let accept_result = accept_loop(&listener, &shutdown, &admission, &reactors);
    if accept_result.is_err() {
        // The accept path is fatally broken; the server is coming down.
        // Triggering shutdown makes the reactors (and the sweeper) drain
        // and exit so this function can still join everything.
        shutdown.trigger();
    }
    drop(listener); // stop the port answering while the reactors drain
    let mut result = accept_result;
    for reactor in reactors {
        let _ = reactor.waker.wake();
        match reactor.thread.join() {
            Ok(r) => {
                if result.is_ok() {
                    result = r;
                }
            }
            Err(_) => {
                if result.is_ok() {
                    result = Err(io::Error::other("reactor thread panicked"));
                }
            }
        }
    }
    result
}

/// Accept until shutdown: admission, then round-robin handoff.
fn accept_loop(
    listener: &TcpListener,
    shutdown: &Shutdown,
    admission: &Arc<Admission>,
    reactors: &[ReactorHandle],
) -> io::Result<()> {
    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    {
        let waker = waker.clone();
        shutdown.on_trigger(move || {
            let _ = waker.wake();
        });
    }
    let mut events = Events::with_capacity(64);
    let mut next = 0usize; // round-robin cursor
    while !shutdown.is_triggered() {
        poller.wait(&mut events, None)?;
        let mut accept_ready = false;
        for event in events.iter() {
            match event.token {
                WAKER_TOKEN => waker.drain(),
                LISTENER_TOKEN => accept_ready = true,
                _ => {}
            }
        }
        if !accept_ready || shutdown.is_triggered() {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop the stream; the peer sees a close
                    }
                    // Responses leave in one write; Nagle would stall the
                    // interactive ping-pong a delayed-ACK per turn.
                    let _ = stream.set_nodelay(true);
                    let target = &reactors[next];
                    next = (next + 1) % reactors.len();
                    let Some(ticket) = admission.admit(&stream) else {
                        target.metrics.sheds.inc();
                        continue;
                    };
                    target.inbox.lock_unpoisoned().push((stream, ticket));
                    let _ = target.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // EMFILE and friends: the listener event is level-
                    // triggered and stays readable, so without a pause
                    // the loop would spin on the failing accept. A short
                    // sleep bounds the retry rate.
                    eprintln!("jim-serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                    break;
                }
            }
        }
    }
    Ok(())
}

/// Everything one reactor thread owns.
struct ReactorCtx {
    index: usize,
    handler: Arc<Handler>,
    shutdown: Shutdown,
    limits: TransportLimits,
    waker: Waker,
    inbox: Arc<Mutex<Vec<Admitted>>>,
    rmetrics: Arc<ReactorMetrics>,
}

/// One reactor: poller + conns + worker pool, until shutdown drains it.
fn run_reactor(ctx: ReactorCtx) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.add(ctx.waker.as_raw_fd(), WAKER_TOKEN, Interest::READ)?;

    let jobs = Arc::new(JobQueue::default());
    let completions = Arc::new(Completions {
        ready: Mutex::new(Vec::new()),
        waker: ctx.waker.clone(),
    });
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for w in 0..workers_per_reactor(ctx.limits.reactors) {
        let worker_jobs = Arc::clone(&jobs);
        let completions = Arc::clone(&completions);
        let handler = Arc::clone(&ctx.handler);
        let rmetrics = Arc::clone(&ctx.rmetrics);
        let spawned = std::thread::Builder::new()
            .name(format!("jim-r{}-w{w}", ctx.index))
            .spawn(move || {
                while let Some(job) = worker_jobs.pop() {
                    let metrics = handler.store().metrics();
                    metrics.worker_queue_depth.add(-1);
                    rmetrics.worker_queue_depth.add(-1);
                    completions.push(job.token, respond_to(&handler, &job.line));
                }
            });
        match spawned {
            Ok(t) => workers.push(t),
            Err(e) if workers.is_empty() => {
                // No worker at all means no request would ever complete:
                // fail the reactor outright rather than accept and hang.
                jobs.close();
                return Err(e);
            }
            Err(e) => {
                // Degraded but functional: log and run with the pool we
                // have — jobs just queue a little deeper.
                eprintln!(
                    "jim-serve: reactor {} running with {} worker(s) (spawn failed: {e})",
                    ctx.index,
                    workers.len()
                );
                break;
            }
        }
    }

    let result = reactor_loop(&ctx, &poller, &jobs, &completions);

    jobs.close();
    for worker in workers {
        let _ = worker.join();
    }
    result
}

fn reactor_loop(
    ctx: &ReactorCtx,
    poller: &Poller,
    jobs: &JobQueue,
    completions: &Completions,
) -> io::Result<()> {
    let mut conns: HashMap<u64, Socket> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Events::with_capacity(1024);
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut touched: Vec<u64> = Vec::new();
    let mut draining: Option<Instant> = None;
    // The idle sweep rides the poller timeout: wake at least every
    // `tick` so a reap happens within [timeout, timeout + tick].
    let tick = ctx
        .limits
        .idle_timeout
        .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
    let mut last_sweep = Instant::now();

    loop {
        if let Some(since) = draining {
            if conns.is_empty() || since.elapsed() > DRAIN_DEADLINE {
                for (_, sock) in conns.drain() {
                    close(sock, poller, ctx);
                }
                return Ok(());
            }
        }
        let timeout = match draining {
            Some(_) => Some(Duration::from_millis(100)),
            None => tick,
        };
        poller.wait(&mut events, timeout)?;

        touched.clear();
        for event in events.iter() {
            match event.token {
                WAKER_TOKEN => ctx.waker.drain(),
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

        // Sockets the accept thread handed over since the last pass;
        // one dropped here (too late, or unregistrable) returns its
        // ticket as it goes.
        for (stream, ticket) in std::mem::take(&mut *ctx.inbox.lock_unpoisoned()) {
            if draining.is_some() {
                continue;
            }
            let token = next_token;
            next_token += 1;
            match poller.add(stream.as_raw_fd(), token, Interest::READ) {
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
                    ctx.rmetrics.live_connections.add(1);
                    touched.push(token);
                }
                Err(e) => eprintln!("jim-serve: cannot register connection: {e}"),
            }
        }

        for (token, response) in completions.take() {
            // A completion for a token that already closed is dropped
            // here — tokens are never reused, so it can't be misdelivered.
            if let Some(sock) = conns.get_mut(&token) {
                sock.conn.complete(response);
                touched.push(token);
            }
        }

        if draining.is_none() && ctx.shutdown.is_triggered() {
            draining = Some(Instant::now());
            for (&token, sock) in conns.iter_mut() {
                sock.conn.shutdown();
                touched.push(token);
            }
        }

        // The timer tick: let every connection's idle clock reap it.
        if let (None, Some(t)) = (draining, tick) {
            if last_sweep.elapsed() >= t {
                last_sweep = Instant::now();
                for (&token, sock) in conns.iter_mut() {
                    if sock.conn.tick(last_sweep) {
                        ctx.rmetrics.idle_timeouts.inc();
                        touched.push(token);
                    }
                }
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            let Some(sock) = conns.get_mut(&token) else {
                continue;
            };
            if !advance(token, sock, poller, jobs, ctx) {
                if let Some(sock) = conns.remove(&token) {
                    close(sock, poller, ctx);
                }
            }
        }
    }
}

/// Release one closed connection's poller registration and per-reactor
/// gauge; its ticket returns the admission slot as it drops.
fn close(sock: Socket, poller: &Poller, ctx: &ReactorCtx) {
    let _ = poller.delete(sock.stream.as_raw_fd());
    ctx.rmetrics.live_connections.add(-1);
}

/// Drive one connection as far as it can go right now: dispatch its
/// next line if it has one ready, write its output, then re-arm poller
/// interest to what it wants next. Returns `false` once it must close.
fn advance(
    token: u64,
    sock: &mut Socket,
    poller: &Poller,
    jobs: &JobQueue,
    ctx: &ReactorCtx,
) -> bool {
    let metrics = ctx.handler.store().metrics();
    loop {
        if let Some(line) = sock.conn.next_line() {
            metrics.worker_queue_depth.add(1);
            ctx.rmetrics.worker_queue_depth.add(1);
            ctx.rmetrics.dispatched.inc();
            jobs.push(Job { token, line });
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
        if poller.modify(sock.stream.as_raw_fd(), token, want).is_err() {
            return false;
        }
        sock.armed = want;
    }
    true
}
