//! The benchmark's own HTTP/1.1 client.
//!
//! Deliberately independent of `llm_service::http`: the instrument must
//! not change when the program does. It frames by `Content-Length`, keeps
//! its socket when the response permits and reconnects when the server
//! says `Connection: close` (always, today) — so a later keep-alive change
//! in the servers needs no edit here. Transport failures are returned,
//! never panicked on; callers count them as failed operations.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on a response body the client will buffer.
const MAX_BODY_BYTES: usize = 16 << 20;
/// A stuck server must fail the operation, not hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The instants that bound one exchange's client-side phases. Adjacent
/// phases share a boundary, so connect + write + wait + read is the
/// whole latency by construction.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub start: Instant,
    /// Socket ready (equals `start` when the connection was reused).
    pub connected: Instant,
    /// Request fully handed to the kernel.
    pub written: Instant,
    /// First response byte arrived.
    pub first_byte: Instant,
    /// Response fully read.
    pub done: Instant,
}

impl Marks {
    pub fn total(&self) -> Duration {
        self.done - self.start
    }
}

/// One completed request/response.
#[derive(Debug)]
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    pub marks: Marks,
}

/// A single-connection client: holds at most one socket at a time.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    request: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, request: Vec::with_capacity(1024), connects: 0 }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Exchange> {
        self.send("GET", path, &[])
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<Exchange> {
        self.send("POST", path, body)
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Exchange> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )?;
        self.request.extend_from_slice(body);

        let start = Instant::now();
        let reused = self.stream.is_some();
        match self.exchange(start) {
            // A kept socket the server closed while idle fails before any
            // response byte; that is not the request's fault — retry once
            // on a fresh connection.
            Err(_) if reused => {
                self.stream = None;
                self.exchange(start)
            }
            other => other,
        }
    }

    fn exchange(&mut self, start: Instant) -> io::Result<Exchange> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                self.connects += 1;
                stream
            }
        };
        let connected = Instant::now();
        stream.write_all(&self.request)?;
        let written = Instant::now();

        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let mut first_byte = None;
        let head_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response head ended",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            let scan_from = buf.len().saturating_sub(3);
            buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = find(&buf[scan_from..], b"\r\n\r\n") {
                break scan_from + pos + 4;
            }
            if buf.len() > 64 * 1024 {
                return Err(invalid("response head too large"));
            }
        };

        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut content_length: Option<usize> = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }

        let mut body = buf.split_off(head_end);
        match content_length {
            Some(n) if n > MAX_BODY_BYTES => return Err(invalid("response body too large")),
            Some(n) => {
                if body.len() > n {
                    return Err(invalid("more bytes than Content-Length"));
                }
                let have = body.len();
                body.resize(n, 0);
                stream.read_exact(&mut body[have..])?;
            }
            // No length: the body runs to end of stream, which also
            // means the socket cannot be kept.
            None => {
                close = true;
                stream.read_to_end(&mut body)?;
                if body.len() > MAX_BODY_BYTES {
                    return Err(invalid("response body too large"));
                }
            }
        }
        let done = Instant::now();
        if !close {
            self.stream = Some(stream);
        }
        Ok(Exchange {
            status,
            body,
            marks: Marks {
                start,
                connected,
                written,
                first_byte: first_byte.unwrap_or(done),
                done,
            },
        })
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(message: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}
