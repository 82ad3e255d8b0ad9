//! # `jim-aio` — a minimal epoll readiness layer
//!
//! The build container has no crates.io access (ROADMAP "Offline deps"),
//! so `tokio`/`mio` are out of reach. This crate is the same move as the
//! `rand`/`proptest`/`criterion` shims: the smallest possible in-repo
//! stand-in for the one capability the server needs — **readiness
//! notification over many sockets from one thread** — built directly on
//! the kernel interface. std already links libc, so plain `extern "C"`
//! declarations of `epoll_create1`/`epoll_ctl`/`epoll_wait`/`eventfd`
//! are all the FFI surface there is; everything above them is safe Rust.
//!
//! The API is deliberately tiny and level-triggered:
//!
//! * [`Poller`] — an epoll instance. [`Poller::add`]/[`Poller::modify`]/
//!   [`Poller::delete`] manage fd registrations keyed by a caller-chosen
//!   `u64` token; [`Poller::wait`] blocks for readiness.
//! * [`Events`] — the reusable wait buffer, iterated as [`Event`]s.
//! * [`Interest`] — which readiness (read/write) a registration asks for.
//! * [`Waker`] — an `eventfd` the *other* threads (worker pool, shutdown
//!   signal) use to pop a reactor out of [`Poller::wait`].
//!
//! **Platform gating:** epoll is linux-only, and so is `jim-serve`'s TCP
//! front end built on it. The crate compiles everywhere, so `jim-server`
//! (and the in-process `jim` REPL) still build off linux; there
//! [`Poller::new`]/[`Waker::new`] return
//! [`std::io::ErrorKind::Unsupported`].
//!
//! This is the only crate in the workspace allowed to use `unsafe`; the
//! server itself stays `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::time::Duration;

/// Raw file descriptor, as the kernel sees it. Identical to
/// `std::os::fd::RawFd` on unix; defined here so the crate (and its
/// dependents' cfg-free signatures) compile on every platform.
pub type RawFd = std::os::raw::c_int;

/// Readiness a registration subscribes to. Error/full-hangup conditions
/// are always reported regardless of interest (epoll semantics); peer
/// *half*-close rides read interest only (see [`Poller::add`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer half-closed).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Neither direction (error/hangup still delivered).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable now (includes peer half-close — a read will not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup on the fd; a read will observe it without
    /// blocking, so treat it as readable too.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! The entire FFI surface: four epoll/eventfd entry points plus the
    //! fd lifecycle calls, with the ABI constants they need. Constants
    //! mirror the x86-64/aarch64 linux userspace headers.

    use std::os::raw::{c_int, c_uint, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// The kernel's `struct epoll_event`. On x86-64 the kernel declares
    /// it packed (12 bytes); on every other architecture it has natural
    /// alignment — the cfg mirrors the userspace headers exactly.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;
    /// `SIG_DFL` as the integer `signal()` accepts.
    pub const SIG_DFL: usize = 0;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        /// Disposition passed and returned as a plain address, so the
        /// one declaration covers handlers and `SIG_DFL`.
        pub fn signal(signum: c_int, handler: usize) -> usize;
        /// Used by the signal-delivery test only.
        #[allow(dead_code)]
        pub fn kill(pid: c_int, sig: c_int) -> c_int;
        /// Used by the signal-delivery test only.
        #[allow(dead_code)]
        pub fn getpid() -> c_int;
    }

    /// `-1`-checked syscall result → `io::Result`.
    pub fn cvt(ret: c_int) -> std::io::Result<c_int> {
        if ret < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }
}

/// A kernel fd we own and close on drop (epoll instance or eventfd).
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct OwnedFd(RawFd);

#[cfg(target_os = "linux")]
impl Drop for OwnedFd {
    fn drop(&mut self) {
        // Errors on close are unreportable here; the fd is gone either way.
        unsafe { sys::close(self.0) };
    }
}

/// The reusable buffer [`Poller::wait`] fills. One allocation for the
/// life of the reactor.
pub struct Events {
    #[cfg(target_os = "linux")]
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// Room for up to `capacity` notifications per wait (min 1).
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        #[cfg(not(target_os = "linux"))]
        let _ = capacity;
        Events {
            #[cfg(target_os = "linux")]
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Notifications delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        #[cfg(target_os = "linux")]
        {
            self.buf[..self.len].iter().map(|raw| {
                // Copy out of the (possibly packed) struct before use.
                let bits = { raw.events };
                Event {
                    token: { raw.data },
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                }
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            std::iter::empty()
        }
    }

    /// Number of notifications delivered by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the last wait delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An epoll instance: register fds with tokens, wait for readiness.
#[derive(Debug)]
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: OwnedFd,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// A fresh epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poller> {
        let fd = sys::cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd: OwnedFd(fd) })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        // EPOLLRDHUP rides *read* interest: it is level-triggered and —
        // unlike EPOLLIN — cannot be drained away by reading, so a
        // registration that is not reading (reactor backpressure) must
        // not subscribe to it or a half-closed peer becomes a busy loop.
        let mut bits = 0;
        if interest.read {
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.write {
            bits |= sys::EPOLLOUT;
        }
        let mut event = sys::EpollEvent {
            events: bits,
            data: token,
        };
        sys::cvt(unsafe { sys::epoll_ctl(self.epfd.0, op, fd, &mut event) })?;
        Ok(())
    }

    /// Register `fd` under `token`. Level-triggered; read interest also
    /// subscribes `EPOLLRDHUP`, so peer half-close reads as readiness
    /// exactly when someone is reading (`EPOLLERR`/`EPOLLHUP` are always
    /// delivered, per epoll semantics).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change an existing registration's interest (token may change too).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove a registration. Call **before** closing the fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // Pre-2.6.9 kernels demanded a non-null event for DEL; passing
        // one unconditionally costs nothing.
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        sys::cvt(unsafe { sys::epoll_ctl(self.epfd.0, sys::EPOLL_CTL_DEL, fd, &mut event) })?;
        Ok(())
    }

    /// Block until readiness or `timeout` (forever when `None`), filling
    /// `events`. Returns the notification count; `0` means timeout.
    /// `EINTR` is retried internally.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let ms: std::os::raw::c_int = match timeout {
            None => -1,
            // Round up so a 1ns timeout still sleeps instead of spinning.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as std::os::raw::c_int,
        };
        loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd.0,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as std::os::raw::c_int,
                    ms,
                )
            };
            match sys::cvt(n) {
                Ok(n) => {
                    events.len = n as usize;
                    return Ok(events.len);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    /// Unsupported off linux: always `ErrorKind::Unsupported`.
    pub fn new() -> io::Result<Poller> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
        Err(unsupported())
    }
}

#[cfg(not(target_os = "linux"))]
fn unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "jim-aio: epoll is linux-only; run sessions in-process with `jim`",
    )
}

/// Wakes a [`Poller`] out of [`Poller::wait`] from another thread — an
/// `eventfd` registered like any other readable fd. Clone freely; all
/// clones share the one fd. [`Waker::wake`] is async-signal-unsafe-free,
/// non-blocking and idempotent (an undrained waker stays readable).
#[derive(Debug, Clone)]
pub struct Waker {
    #[cfg(target_os = "linux")]
    fd: std::sync::Arc<OwnedFd>,
}

#[cfg(target_os = "linux")]
impl Waker {
    /// A fresh non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        let fd = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Waker {
            fd: std::sync::Arc::new(OwnedFd(fd)),
        })
    }

    /// The fd to register with the poller (read interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.0
    }

    /// Make the waker's fd readable. Never blocks: a saturated eventfd
    /// counter (`EAGAIN`) already guarantees a pending wakeup.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        let n = unsafe {
            sys::write(
                self.fd.0,
                (&raw const one).cast(),
                std::mem::size_of::<u64>(),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(e);
        }
        Ok(())
    }

    /// Consume pending wakeups so the fd stops reading as ready. Call
    /// from the reactor when the waker's token fires.
    pub fn drain(&self) {
        let mut count: u64 = 0;
        // One read resets an eventfd counter to zero.
        unsafe {
            sys::read(
                self.fd.0,
                (&raw mut count).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

/// Blocks until the process receives `SIGINT` or `SIGTERM` — the hook a
/// server's shutdown path hangs off. Created by [`watch_termination`].
#[derive(Debug)]
pub struct Termination {
    #[cfg(target_os = "linux")]
    fd: std::sync::Arc<OwnedFd>,
}

/// The eventfd the signal handler writes to. One per process: `signal()`
/// dispositions are process-global anyway.
#[cfg(target_os = "linux")]
static TERM_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

/// The installed handler: `write(2)` is async-signal-safe, and that is
/// the only thing done here — all real work happens in the thread
/// blocked on [`Termination::wait`].
#[cfg(target_os = "linux")]
extern "C" fn term_handler(_sig: std::os::raw::c_int) {
    // SeqCst to pair with the store in `watch_termination`: a handler
    // that observes the fd must also observe the eventfd creation that
    // preceded the store (jim-lint `atomics` pins TERM_FD to SeqCst).
    let fd = TERM_FD.load(std::sync::atomic::Ordering::SeqCst);
    if fd >= 0 {
        let one: u64 = 1;
        unsafe { sys::write(fd, (&raw const one).cast(), std::mem::size_of::<u64>()) };
    }
}

/// Install `SIGINT`/`SIGTERM` handlers that mark a blocking fd readable
/// instead of killing the process. Dedicate a thread to
/// [`Termination::wait`] and trigger the graceful shutdown from there.
/// Off linux this returns [`io::ErrorKind::Unsupported`] and signal
/// dispositions are left untouched.
#[cfg(target_os = "linux")]
pub fn watch_termination() -> io::Result<Termination> {
    // Blocking eventfd: `wait` parks in read(2) until the handler fires.
    let fd = sys::cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC) })?;
    TERM_FD.store(fd, std::sync::atomic::Ordering::SeqCst);
    let handler = term_handler as *const () as usize;
    unsafe {
        sys::signal(sys::SIGINT, handler);
        sys::signal(sys::SIGTERM, handler);
    }
    Ok(Termination {
        fd: std::sync::Arc::new(OwnedFd(fd)),
    })
}

/// See [`watch_termination`] — unsupported off linux.
#[cfg(not(target_os = "linux"))]
pub fn watch_termination() -> io::Result<Termination> {
    Err(unsupported())
}

#[cfg(target_os = "linux")]
impl Termination {
    /// Block until a termination signal arrives, then restore the
    /// default dispositions — a second Ctrl-C kills immediately instead
    /// of queueing behind a drain that may be stuck.
    pub fn wait(&self) {
        let mut count: u64 = 0;
        unsafe {
            sys::read(
                self.fd.0,
                (&raw mut count).cast(),
                std::mem::size_of::<u64>(),
            );
            sys::signal(sys::SIGINT, sys::SIG_DFL);
            sys::signal(sys::SIGTERM, sys::SIG_DFL);
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Termination {
    /// Unsupported off linux (never constructed).
    pub fn wait(&self) {}
}

#[cfg(not(target_os = "linux"))]
impl Waker {
    /// Unsupported off linux: always `ErrorKind::Unsupported`.
    pub fn new() -> io::Result<Waker> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn as_raw_fd(&self) -> RawFd {
        -1
    }

    /// Unsupported off linux.
    pub fn wake(&self) -> io::Result<()> {
        Err(unsupported())
    }

    /// Unsupported off linux.
    pub fn drain(&self) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    const A: u64 = 7;
    const W: u64 = 9;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_after_peer_writes() {
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), A, Interest::READ).unwrap();
        let mut events = Events::with_capacity(8);

        // Nothing pending: a short wait times out.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        assert!(events.is_empty());

        client.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, A);
        assert!(ev.readable && !ev.writable);

        // Level-triggered: still readable until drained.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.iter().next().unwrap().token, A);
        let mut buf = [0u8; 8];
        assert_eq!((&server).read(&mut buf).unwrap(), 1);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn write_interest_and_modify_and_delete() {
        let (client, server) = pair();
        let poller = Poller::new().unwrap();
        // A fresh socket's send buffer is empty: write-ready immediately.
        poller.add(server.as_raw_fd(), A, Interest::WRITE).unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == A && e.writable));

        // Interest::NONE silences it…
        poller
            .modify(server.as_raw_fd(), A, Interest::NONE)
            .unwrap();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );

        // …and delete unregisters for good.
        poller
            .modify(server.as_raw_fd(), A, Interest::WRITE)
            .unwrap();
        poller.delete(server.as_raw_fd()).unwrap();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        drop(client);
    }

    #[test]
    fn half_close_is_masked_without_read_interest() {
        // The RDHUP condition is level-triggered and cannot be consumed
        // by reading, so it must be silenceable: a registration with no
        // read interest (a reactor backpressuring a connection) must not
        // wake on peer half-close — that would be a busy loop.
        let (client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), A, Interest::NONE).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Events::with_capacity(8);
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap(),
            0,
            "half-close is invisible while not reading"
        );
        // Subscribing to read surfaces it immediately.
        poller
            .modify(server.as_raw_fd(), A, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().next().expect("half-close notifies").readable);
    }

    #[test]
    fn peer_close_reads_as_readiness() {
        let (client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), A, Interest::READ).unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().expect("close notifies");
        assert!(ev.readable || ev.hangup);
    }

    #[test]
    fn waker_pops_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.as_raw_fd(), W, Interest::READ).unwrap();

        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake().unwrap();
            // Coalesced wakes never block.
            remote.wake().unwrap();
            remote.wake().unwrap();
        });

        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.iter().next().unwrap().token, W);
        // All wakes are in by now; one drain absorbs the coalesced count.
        t.join().unwrap();
        waker.drain();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn supported_on_this_platform() {
        assert!(Poller::new().is_ok());
    }

    #[test]
    fn termination_watcher_catches_a_real_sigterm() {
        // With the watcher installed, SIGTERM must not kill this test
        // process — the handler marks the fd and `wait` returns. (If the
        // install is broken the raise kills the whole test binary, which
        // is exactly the loud failure we want.)
        let term = watch_termination().unwrap();
        let waiter = std::thread::spawn(move || term.wait());
        std::thread::sleep(Duration::from_millis(30));
        unsafe { super::sys::kill(super::sys::getpid(), super::sys::SIGTERM) };
        waiter.join().expect("wait returned instead of dying");
    }
}
