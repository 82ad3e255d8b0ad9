//! The `jim-serve` child process and the TCP channel to it.

use crate::driver::Channel;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One line-oriented client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Conn, String> {
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
        })
    }
}

impl Channel for Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(std::mem::take(&mut self.line)),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A running `jim-serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    data_dir: PathBuf,
}

impl Server {
    /// Launch `bin` over a fresh `data_dir` and wait for its first
    /// successful response (a `Metrics` request). The server inherits the
    /// client's CPU affinity. Returns the server, the open connection the
    /// response arrived on, and the set-up time from spawning the process
    /// to holding that response.
    pub fn launch(
        bin: &Path,
        flags: &[String],
        data_dir: &Path,
        log: &Path,
    ) -> Result<(Server, Conn, Duration), String> {
        let _ = fs::remove_dir_all(data_dir);
        // Reserve an ephemeral port, then hand it to the server.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("reserve a port: {e}"))?
            .port();
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("--port")
            .arg(port.to_string())
            .arg("--data-dir")
            .arg(data_dir)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            data_dir: data_dir.to_path_buf(),
        };
        let deadline = start + Duration::from_secs(20);
        let stream = loop {
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(stream) => break stream,
                Err(e) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!(
                            "jim-serve exited with {status} (see {})",
                            log.display()
                        ));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("jim-serve never accepted on port {port}: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        let mut conn = Conn::new(stream)?;
        let first = conn.call(r#"{"op":"Metrics"}"#)?;
        let setup = start.elapsed();
        if !first.contains(r#""ok":true"#) {
            return Err(format!("first response was not ok: {}", first.trim_end()));
        }
        Ok((server, conn, setup))
    }

    /// Peak resident set of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_dir_all(&self.data_dir);
    }
}
