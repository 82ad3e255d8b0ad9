//! The connection core the epoll event loop drives, and the admission
//! gate in front of it.
//!
//! [`Conn`] is sans-IO: it owns one connection's buffers and makes every
//! framing and close decision, but never touches the socket. The event
//! loop reads bytes and hands them to [`Conn::receive`], takes a request
//! line from [`Conn::next_line`] to the worker pool, reports the response
//! through [`Conn::complete`], writes [`Conn::output`], and closes the
//! socket once [`Conn::finished`] says so. The peer sees this wire
//! behavior:
//!
//! * lines end at `\n`; a line longer than [`MAX_LINE_BYTES`] (counted
//!   across partial reads) is answered with the typed `oversize` error,
//!   then the connection closes;
//! * a line is blank exactly when it is valid UTF-8 and [`str::trim`]
//!   leaves nothing; blank lines get no response and reach no handler;
//! * one request at a time: a line is dispatched only once the response
//!   to the line before it is queued and written, so a connection's
//!   requests run in the order sent, as the paper's question/answer loop
//!   does, and a peer that pipelines gets every response, in order;
//! * the idle clock resets only on complete lines, so a peer dripping
//!   bytes mid-line is reaped like a silent one;
//! * reading goes on while a line is in flight, but stops while a
//!   complete line waits or responses are unwritten, so a peer that
//!   pipelines without reading is backpressured at its socket.
//!
//! [`Admission`] applies the global connection cap and the per-address
//! quota at accept, sheds refused sockets with the typed `overloaded`
//! line, and hands each admitted connection a [`Ticket`] whose drop
//! returns every slot it holds, however the connection ends.

use crate::metrics::ServerMetrics;
use crate::protocol::ServerError;
use crate::serve::{TransportLimits, MAX_LINE_BYTES};
use crate::sync::LockExt;
use std::collections::HashMap;
use std::io::Write;
use std::net::{IpAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket read granularity, and the capacity a connection's buffers
/// shrink back to after a one-off huge line or response.
pub(crate) const READ_CHUNK: usize = 64 << 10;

/// One connection's framing, in-flight, idle and close state.
pub(crate) struct Conn {
    /// Bytes received; `inbuf[head..]` is not yet consumed.
    inbuf: Vec<u8>,
    head: usize,
    /// `inbuf[head..scanned]` holds no `\n`, and `scanned < inbuf.len()`
    /// exactly when `inbuf[scanned]` is the `\n` ending a complete line.
    /// Each byte is scanned once, so a large line arriving in many reads
    /// costs linear time.
    scanned: usize,
    /// Response bytes not yet written, from `outpos`.
    outbuf: Vec<u8>,
    outpos: usize,
    /// A dispatched line's response is not yet in.
    inflight: bool,
    /// A partial line passed the cap while a line was in flight: its
    /// `oversize` notice follows that line's response.
    oversize_after_inflight: bool,
    /// More bytes may still be read (false after EOF or any close).
    reading: bool,
    /// Dispatch nothing more; close once the in-flight response is written.
    closing: bool,
    /// The socket is beyond use: close now, written or not.
    dead: bool,
    /// When the last complete line arrived (or the connection opened).
    last_line: Instant,
    idle_timeout: Option<Duration>,
    metrics: Arc<ServerMetrics>,
}

impl Conn {
    /// A fresh connection.
    pub(crate) fn new(idle_timeout: Option<Duration>, metrics: Arc<ServerMetrics>) -> Conn {
        Conn {
            inbuf: Vec::new(),
            head: 0,
            scanned: 0,
            outbuf: Vec::new(),
            outpos: 0,
            inflight: false,
            oversize_after_inflight: false,
            reading: true,
            closing: false,
            dead: false,
            last_line: Instant::now(),
            idle_timeout,
            metrics,
        }
    }

    /// Bytes read from the peer; an empty slice is end of stream.
    pub(crate) fn receive(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            self.reading = false;
            return;
        }
        if self.head > 0 {
            self.inbuf.drain(..self.head);
            self.scanned -= self.head;
            self.head = 0;
        }
        self.inbuf.extend_from_slice(bytes);
        self.scan();
    }

    /// The next non-blank request line (without its `\n`), when no line
    /// is in flight and every response is written. The line returned
    /// must be answered through [`Conn::complete`].
    pub(crate) fn next_line(&mut self) -> Option<Vec<u8>> {
        while !self.closing
            && !self.dead
            && !self.inflight
            && !self.wants_write()
            && self.line_buffered()
        {
            let (start, end) = (self.head, self.scanned);
            self.last_line = Instant::now();
            if (end + 1 - start) as u64 > MAX_LINE_BYTES {
                self.refuse_oversize();
                return None;
            }
            let line = &self.inbuf[start..end];
            let blank = std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty());
            let line = (!blank).then(|| line.to_vec());
            // In flight before the scan below, so a refusal it makes
            // waits for this line's response.
            self.inflight = line.is_some();
            self.head = end + 1;
            self.scanned = self.head;
            self.scan();
            if line.is_some() {
                return line;
            }
        }
        None
    }

    /// The response to the line in flight.
    pub(crate) fn complete(&mut self, response: String) {
        self.inflight = false;
        self.queue(response);
        if std::mem::take(&mut self.oversize_after_inflight) {
            self.queue(ServerError::Oversize.response().render());
        }
    }

    /// Response bytes ready to write.
    pub(crate) fn output(&self) -> &[u8] {
        &self.outbuf[self.outpos..]
    }

    /// The event loop wrote the first `n` bytes of [`Conn::output`].
    pub(crate) fn written(&mut self, n: usize) {
        self.outpos += n;
        if self.outpos >= self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
            // A one-off multi-MiB response (the Transcript of a long
            // session) must not stay allocated while the peer idles.
            self.outbuf.shrink_to(READ_CHUNK);
        }
    }

    /// The socket failed: close without writing anything more.
    pub(crate) fn fail(&mut self) {
        self.dead = true;
        self.reading = false;
    }

    /// The server is shutting down: read and dispatch nothing more, and
    /// close once the response already in flight is written.
    pub(crate) fn shutdown(&mut self) {
        self.reading = false;
        self.closing = true;
    }

    /// The idle reaper, run on the event loop's timer tick: past the idle
    /// timeout with nothing in flight, answer `idle_timeout` and close —
    /// or, when the peer has not read what it was already sent, close
    /// at once. Returns whether it reaped the connection.
    pub(crate) fn tick(&mut self, now: Instant) -> bool {
        let Some(idle) = self.idle_timeout else {
            return false;
        };
        if self.inflight
            || self.closing
            || self.dead
            || now.saturating_duration_since(self.last_line) < idle
        {
            return false;
        }
        self.metrics.idle_timeouts.inc();
        if self.wants_write() {
            self.fail();
        } else {
            self.shutdown();
            self.queue(ServerError::IdleTimeout.response().render());
        }
        true
    }

    /// Should the event loop read more bytes now?
    pub(crate) fn wants_read(&self) -> bool {
        self.reading && !self.wants_write() && !self.line_buffered()
    }

    /// Are there response bytes to write?
    pub(crate) fn wants_write(&self) -> bool {
        !self.dead && self.outpos < self.outbuf.len()
    }

    /// Should the event loop close the socket now?
    pub(crate) fn finished(&self) -> bool {
        self.dead
            || (!self.inflight
                && !self.wants_write()
                && (self.closing || (!self.reading && !self.line_buffered())))
    }

    fn line_buffered(&self) -> bool {
        self.scanned < self.inbuf.len()
    }

    /// Move `scanned` to the next `\n`, or to the end of the buffer; a
    /// partial line past the cap is refused without waiting for its end.
    fn scan(&mut self) {
        if self.head == self.inbuf.len() {
            self.inbuf.clear();
            self.inbuf.shrink_to(READ_CHUNK);
            self.head = 0;
            self.scanned = 0;
            return;
        }
        self.scanned += self.inbuf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(self.inbuf.len() - self.scanned);
        if !self.line_buffered() && (self.inbuf.len() - self.head) as u64 > MAX_LINE_BYTES {
            self.refuse_oversize();
        }
    }

    /// Answer the typed `oversize` error after the response in flight,
    /// if any, then close: the stream cannot be resynchronized past a
    /// dropped line.
    fn refuse_oversize(&mut self) {
        self.metrics.oversized.inc();
        self.shutdown();
        self.inbuf = Vec::new();
        self.head = 0;
        self.scanned = 0;
        if self.inflight {
            self.oversize_after_inflight = true;
        } else {
            self.queue(ServerError::Oversize.response().render());
        }
    }

    fn queue(&mut self, response: String) {
        self.outbuf.reserve(response.len() + 1);
        self.outbuf.extend_from_slice(response.as_bytes());
        self.outbuf.push(b'\n');
    }
}

/// The admission gate of the event loop: the global connection cap and
/// the per-address quota of [`TransportLimits`]. The one event loop
/// admits every connection, so checking the live count and then raising
/// it cannot over-admit.
pub(crate) struct Admission {
    max_connections: usize,
    max_per_ip: Option<usize>,
    /// Admitted connections whose [`Ticket`] is still alive.
    live: AtomicUsize,
    /// Live connections per peer address, when the quota is on. Drained
    /// addresses are forgotten, so the map tracks active peers only.
    per_ip: Mutex<HashMap<IpAddr, usize>>,
    metrics: Arc<ServerMetrics>,
}

impl Admission {
    /// A gate enforcing `limits`, counting into `metrics`.
    pub(crate) fn new(limits: &TransportLimits, metrics: Arc<ServerMetrics>) -> Arc<Admission> {
        Arc::new(Admission {
            max_connections: limits.max_connections,
            max_per_ip: limits.max_per_ip,
            live: AtomicUsize::new(0),
            per_ip: Mutex::new(HashMap::new()),
            metrics,
        })
    }

    /// Admit `stream`, or shed it: a best-effort typed `overloaded`
    /// line, after which the caller drops the socket. A socket whose
    /// peer address cannot be read (it is already dead) counts against
    /// the quota as refused.
    pub(crate) fn admit(self: &Arc<Self>, stream: &TcpStream) -> Option<Ticket> {
        let ticket = self.claim(stream);
        if ticket.is_none() {
            self.metrics.sheds.inc();
            let mut line = ServerError::Overloaded.response().render();
            line.push('\n');
            // A fresh socket's send buffer takes one short line whether
            // or not it blocks; a peer already gone is shed regardless.
            let mut writer = stream;
            let _ = writer.write_all(line.as_bytes());
        }
        ticket
    }

    fn claim(self: &Arc<Self>, stream: &TcpStream) -> Option<Ticket> {
        if self.live.load(Ordering::SeqCst) >= self.max_connections {
            return None;
        }
        let ip = match self.max_per_ip {
            None => None,
            Some(cap) => {
                let ip = stream.peer_addr().ok()?.ip();
                let mut per_ip = self.per_ip.lock_unpoisoned();
                let count = per_ip.entry(ip).or_insert(0);
                if *count >= cap {
                    return None;
                }
                *count += 1;
                Some(ip)
            }
        };
        self.live.fetch_add(1, Ordering::SeqCst);
        self.metrics.live_connections.add(1);
        Some(Ticket {
            gate: Arc::clone(self),
            ip,
        })
    }
}

/// One admitted connection's claim on the gate: dropping it returns the
/// global slot, the `live_connections` gauge and the per-address slot.
pub(crate) struct Ticket {
    gate: Arc<Admission>,
    ip: Option<IpAddr>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(ip) = self.ip {
            let mut per_ip = self.gate.per_ip.lock_unpoisoned();
            if let Some(count) = per_ip.get_mut(&ip) {
                *count -= 1;
                if *count == 0 {
                    per_ip.remove(&ip);
                }
            }
        }
        self.gate.live.fetch_sub(1, Ordering::SeqCst);
        self.gate.metrics.live_connections.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn conn(idle_timeout: Option<Duration>) -> Conn {
        Conn::new(idle_timeout, Arc::new(ServerMetrics::new()))
    }

    /// Everything the connection has to write, marked written.
    fn take_output(conn: &mut Conn) -> Vec<u8> {
        let out = conn.output().to_vec();
        conn.written(out.len());
        out
    }

    fn line_of(error: ServerError) -> Vec<u8> {
        format!("{}\n", error.response().render()).into_bytes()
    }

    /// A response naming its request exactly, with no `\n` in it.
    fn answer(line: &[u8]) -> String {
        format!("{line:?}")
    }

    #[test]
    fn lines_over_the_cap_are_answered_then_closed() {
        let cap = MAX_LINE_BYTES as usize;

        // Exactly at the cap, newline included: an ordinary request.
        let mut c = conn(None);
        let mut at_cap = vec![b'y'; cap - 1];
        at_cap.push(b'\n');
        c.receive(&at_cap);
        let line = c.next_line().expect("a line at the cap is dispatched");
        assert_eq!(line.len(), cap - 1);

        // One byte more, newline included: refused when it is taken.
        let mut c = conn(None);
        let mut over = vec![b'y'; cap];
        over.push(b'\n');
        c.receive(&over);
        assert!(c.next_line().is_none());
        assert_eq!(take_output(&mut c), line_of(ServerError::Oversize));
        assert!(c.finished() && !c.wants_read());
        assert_eq!(c.metrics.oversized.get(), 1);

        // Past the cap with no newline yet, across two reads, while the
        // line before it is in flight: refused without waiting for the
        // line's end, behind the response to the line before it.
        let mut c = conn(None);
        let mut stream = b"ok\n".to_vec();
        stream.extend(vec![b'y'; cap / 2]);
        c.receive(&stream);
        let line = c.next_line().expect("the line before");
        assert!(c.wants_read());
        c.receive(&vec![b'y'; cap / 2 + 1]);
        assert!(!c.wants_read() && c.next_line().is_none());
        assert!(!c.wants_write() && !c.finished(), "the refusal waits");
        c.complete(answer(&line));
        let mut expected = format!("{}\n", answer(b"ok")).into_bytes();
        expected.extend(line_of(ServerError::Oversize));
        assert_eq!(take_output(&mut c), expected);
        assert!(c.finished());
    }

    #[test]
    fn idle_reaper_answers_a_flushed_peer_and_drops_a_backed_up_one() {
        let idle = Duration::from_secs(1);
        let later = || Instant::now() + 2 * idle;

        // Bytes that complete no line do not reset the clock.
        let mut c = conn(Some(idle));
        assert!(!c.tick(Instant::now()));
        c.receive(b"{\"op\":");
        assert!(c.tick(later()));
        assert!(!c.wants_read());
        assert_eq!(take_output(&mut c), line_of(ServerError::IdleTimeout));
        assert!(c.finished());
        assert_eq!(c.metrics.idle_timeouts.get(), 1);

        // A line in flight is never idle.
        let mut c = conn(Some(idle));
        c.receive(b"a\n");
        let line = c.next_line().expect("dispatched");
        assert!(!c.tick(later()));

        // A response the peer has not read: closed without the notice.
        c.complete(answer(&line));
        assert!(c.tick(later()));
        assert!(c.finished() && !c.wants_write());

        // No timeout, no reaping.
        let mut c = conn(None);
        assert!(!c.tick(later()));
    }

    #[test]
    fn no_bytes_are_read_while_a_complete_line_waits() {
        // A line in flight does not stop reading.
        let mut c = conn(None);
        assert!(c.wants_read());
        c.receive(b"a\nb");
        let a = c.next_line().expect("a");
        assert!(c.wants_read(), "only a partial line is buffered");

        // A buffered complete line does, and it is not dispatched until
        // the line in flight completes.
        c.receive(b"\nc\n");
        assert!(!c.wants_read(), "b is complete and waiting");
        assert!(c.next_line().is_none(), "a is still in flight");
        c.complete(answer(&a));
        assert!(c.next_line().is_none(), "a's response is unwritten");
        assert!(!c.wants_read());
        assert_eq!(
            take_output(&mut c),
            format!("{}\n", answer(b"a")).into_bytes()
        );
        assert_eq!(c.next_line().as_deref(), Some(&b"b"[..]));
        assert!(c.next_line().is_none(), "b is in flight");
        assert!(!c.wants_read(), "c is complete and waiting");
    }

    /// One generated request line and whether it is blank.
    fn request_line(kind: u8, seed: u64) -> (Vec<u8>, bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pick = |set: &[char]| -> String {
            (0..rng.gen_range(1..4usize))
                .map(|_| set[rng.gen_range(0..set.len())])
                .collect()
        };
        match kind {
            0 => (
                format!("{{\"op\":\"Stats\",\"session\":{seed}}}").into_bytes(),
                false,
            ),
            1 => (Vec::new(), true),
            2 => (pick(&[' ', '\t', '\r', '\x0B', '\x0C']).into_bytes(), true),
            3 => {
                // Every Unicode whitespace character except the newline.
                let spaces: Vec<char> = (0..=0x3000u32)
                    .filter_map(char::from_u32)
                    .filter(|c| c.is_whitespace() && *c != '\n')
                    .collect();
                (pick(&spaces).into_bytes(), true)
            }
            // Look-alikes `str::trim` keeps: zero-width space, word
            // joiner, byte-order mark, Mongolian vowel separator.
            4 => (
                pick(&['\u{200B}', '\u{2060}', '\u{FEFF}', '\u{180E}']).into_bytes(),
                false,
            ),
            _ => {
                let mut bytes = pick(&[' ', 'x', '{']).into_bytes();
                bytes.insert(rng.gen_range(0..=bytes.len()), 0xFF); // never UTF-8
                (bytes, false)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the chunking and the interleaving of reads, writes
        /// and completions, at most one line is in flight, the non-blank
        /// lines are dispatched in order, blank means what `str::trim`
        /// says, and the output is every response in request order.
        #[test]
        fn framing_and_ordering_hold_for_any_chunking(
            lines in proptest::collection::vec((0u8..6, any::<u64>()), 0..32),
            chunks in proptest::collection::vec(1usize..48, 1..16),
            seed in any::<u64>(),
        ) {
            let lines: Vec<(Vec<u8>, bool)> =
                lines.into_iter().map(|(kind, s)| request_line(kind, s)).collect();
            let mut stream = Vec::new();
            let mut requests = Vec::new();
            let mut expected = Vec::new();
            for (line, blank) in &lines {
                prop_assert_eq!(
                    *blank,
                    std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
                );
                stream.extend_from_slice(line);
                stream.push(b'\n');
                if !blank {
                    requests.push(line.clone());
                    expected.extend(answer(line).into_bytes());
                    expected.push(b'\n');
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = conn(None);
            let (mut fed, mut turn) = (0, 0);
            let mut inflight: Option<Vec<u8>> = None;
            let (mut dispatched, mut output) = (Vec::new(), Vec::new());
            loop {
                if let Some(line) = c.next_line() {
                    prop_assert!(inflight.is_none(), "a second line in flight");
                    dispatched.push(line.clone());
                    inflight = Some(line);
                }
                let mut moves = Vec::new();
                if inflight.is_some() {
                    moves.push(0);
                }
                if c.wants_write() {
                    moves.push(1);
                }
                if c.wants_read() {
                    moves.push(2);
                }
                if moves.is_empty() {
                    prop_assert!(c.finished(), "stalled with nothing to do");
                    break;
                }
                match moves[rng.gen_range(0..moves.len())] {
                    0 => {
                        let line = inflight.take().expect("a line in flight");
                        c.complete(answer(&line));
                    }
                    1 => {
                        let n = rng.gen_range(1..=c.output().len());
                        output.extend_from_slice(&c.output()[..n]);
                        c.written(n);
                    }
                    _ => {
                        let n = chunks[turn % chunks.len()].min(stream.len() - fed);
                        turn += 1;
                        c.receive(&stream[fed..fed + n]);
                        fed += n;
                    }
                }
            }
            prop_assert_eq!(fed, stream.len());
            prop_assert_eq!(&dispatched, &requests);
            prop_assert_eq!(&output, &expected);
        }
    }
}
