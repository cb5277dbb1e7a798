//! The server process and the closed-loop TCP load generator.

use crate::gen::{Expect, Req};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A running `qvsec-cli serve` process. Dropping it kills the process.
pub struct Server {
    child: Child,
    pub addr: String,
    log: Arc<Mutex<String>>,
    drain: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve` on an ephemeral loopback port and waits for its
    /// `listening on` line.
    pub fn spawn(bin: &Path, spec: &Path, store: Option<&Path>) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--spec")
            .arg(spec)
            .arg("--addr")
            .arg("127.0.0.1:0");
        if let Some(store) = store {
            cmd.arg("--store").arg(store);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server exited before listening: {line}"
                )));
            }
            if let Some(at) = line.find("listening on ") {
                break line[at + "listening on ".len()..].trim().to_string();
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let log = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&log);
        let drain = thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            sink.lock().expect("log").push_str(&rest);
        });
        Ok(Server {
            child,
            addr,
            log,
            drain: Some(drain),
        })
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Conn::connect(&self.addr)?;
        let mut response = String::new();
        conn.call(r#"{"op": "shutdown"}"#, &mut response)?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(drain) = self.drain.take() {
                    let _ = drain.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "server exited with {status}: {}",
                        self.log.lock().expect("log")
                    )))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not exit after shutdown"));
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One keep-alive NDJSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            out: Vec::with_capacity(4096),
        })
    }

    /// Sends one request line and reads one response line into `response`
    /// (newline stripped).
    pub fn call(&mut self, line: &str, response: &mut String) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        response.clear();
        if self.reader.read_line(response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(())
    }
}

/// What one connection saw: per-request latency and response text. A
/// transport failure ends the connection; the requests it never answered
/// have no entry.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    pub latency_ns: Vec<u64>,
    arena: String,
    ends: Vec<usize>,
    pub transport_error: Option<String>,
}

impl ConnOutcome {
    pub fn response(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.arena[start..end])
    }

    pub fn answered(&self) -> usize {
        self.ends.len()
    }
}

/// Drives each request list over its own connection, all connections
/// concurrently, each in a closed loop (the next request goes out when the
/// previous response is in). Returns every connection's outcome and the
/// wall time from the common start to the last response.
pub fn drive<L: AsRef<[Req]> + Sync>(
    addr: &str,
    lists: &[L],
) -> io::Result<(Vec<ConnOutcome>, Duration)> {
    let barrier = Arc::new(Barrier::new(lists.len() + 1));
    let start = Arc::new(Mutex::new(None::<Instant>));
    let outcomes = thread::scope(|scope| -> io::Result<Vec<ConnOutcome>> {
        let mut handles = Vec::new();
        for list in lists {
            let list = list.as_ref();
            let mut conn = Conn::connect(addr)?;
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                let total: usize = list.iter().map(|r| r.line.len()).sum();
                let mut out = ConnOutcome {
                    latency_ns: Vec::with_capacity(list.len()),
                    arena: String::with_capacity(total * 2),
                    ends: Vec::with_capacity(list.len()),
                    transport_error: None,
                };
                let mut response = String::with_capacity(1 << 14);
                barrier.wait();
                for req in list {
                    let t0 = Instant::now();
                    if let Err(e) = conn.call(&req.line, &mut response) {
                        out.transport_error = Some(e.to_string());
                        break;
                    }
                    out.latency_ns.push(t0.elapsed().as_nanos() as u64);
                    out.arena.push_str(kept(req, &response));
                    out.ends.push(out.arena.len());
                }
                out
            }));
        }
        *start.lock().expect("start") = Some(Instant::now());
        barrier.wait();
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("driver thread"))
            .collect())
    })?;
    let wall = start.lock().expect("start").expect("started").elapsed();
    Ok((outcomes, wall))
}

/// The part of an answer the checks read: all of an audit answer, the
/// envelope prefix of the rest (which bounds the memory a run keeps).
fn kept<'a>(req: &Req, response: &'a str) -> &'a str {
    let keep = match req.expect {
        Expect::Audit(_) => return response,
        Expect::Views(_) => 256,
        Expect::Ok => 96,
    };
    let mut end = keep.min(response.len());
    while !response.is_char_boundary(end) {
        end -= 1;
    }
    &response[..end]
}

/// Copies a store directory tree (a fresh copy per restart).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
