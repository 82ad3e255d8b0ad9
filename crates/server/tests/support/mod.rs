//! Shared harness for the real-TCP integration suites: a [`TestServer`]
//! that runs `serve_with()` on an OS-assigned port with an explicit
//! graceful [`Shutdown`] (triggered and joined on drop, so test servers
//! do not leak serve threads for the process lifetime), and a
//! JSON-lines [`Client`].

#![allow(dead_code)] // each test binary uses its own subset

use jim_json::Json;
use jim_server::handler::Handler;
use jim_server::serve::{serve_with, Shutdown, TransportLimits};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A `jim-serve`-equivalent server, shut down (and its serve thread
/// joined) when dropped.
pub struct TestServer {
    pub addr: SocketAddr,
    shutdown: Shutdown,
    serve_thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    /// Serve `handler` on an OS-assigned port with the default
    /// [`TransportLimits`].
    pub fn start(handler: Arc<Handler>) -> TestServer {
        TestServer::start_with_limits(handler, TransportLimits::default())
    }

    /// [`TestServer::start`] with explicit [`TransportLimits`] — the
    /// admission-cap / idle-timeout tests pin theirs.
    pub fn start_with_limits(handler: Arc<Handler>, limits: TransportLimits) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind test port");
        let addr = listener.local_addr().expect("local addr");
        let shutdown = Shutdown::new();
        let serve_shutdown = shutdown.clone();
        let serve_thread =
            std::thread::spawn(move || serve_with(listener, handler, serve_shutdown, limits));
        TestServer {
            addr,
            shutdown,
            serve_thread: Some(serve_thread),
        }
    }

    /// Trigger the graceful shutdown and join the serve thread, returning
    /// what `serve` returned. Idempotent with [`Drop`].
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.shutdown_inner().expect("serve thread exited")
    }

    fn shutdown_inner(&mut self) -> Option<std::io::Result<()>> {
        self.shutdown.trigger();
        self.serve_thread
            .take()
            .map(|t| t.join().expect("serve thread panicked"))
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A JSON-lines TCP client against a [`TestServer`].
pub struct Client {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        stream.set_nodelay(true).expect("set nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Send one request line, read one response line, assert `ok:true`.
    pub fn send(&mut self, line: &str) -> Json {
        let json = self.send_raw(line);
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "{line} -> {json}"
        );
        json
    }

    /// `send` without the ok-assertion, for exercising error responses.
    pub fn send_raw(&mut self, line: &str) -> Json {
        // One write per request line (writeln! would split off the
        // newline and hand Nagle a reason to stall).
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        self.writer.flush().expect("flush request");
        self.read_response()
    }

    /// Read one response line off the wire (after a raw byte-level write).
    pub fn read_response(&mut self) -> Json {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        Json::parse(response.trim()).expect("valid JSON response")
    }
}
