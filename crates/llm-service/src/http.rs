//! Minimal HTTP/1.1 message reading and writing.

use std::io::{self, Read, Write};

/// A parsed HTTP request (the subset this service needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, e.g. `/v1/chat/completions`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client lets the connection outlive this request:
    /// HTTP/1.1 without `Connection: close`, or an older version with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// Microseconds the connection waited in the accept backlog before a
    /// worker picked it up (stamped by the serve loop; 0 otherwise).
    pub queued_us: u64,
}

impl HttpRequest {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path without its `?query` part — what a router matches on.
    pub fn route_path(&self) -> &str {
        self.path.split_once('?').map_or(&self.path, |(p, _)| p)
    }

    /// First value of `name` in the path's query string (`?a=1&b=2`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.path.split_once('?')?;
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether the server keeps the connection open for another request
    /// (it sent a `Content-Length` and did not announce `close`).
    pub keep_alive: bool,
}

/// An HTTP response to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers, emitted verbatim after `Content-Type`
    /// (e.g. `Retry-After` on load-shedding 429s).
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, body: body.into(), content_type: "application/json", headers: Vec::new() }
    }

    /// A plain-text response (Prometheus scrapes, human-readable pages).
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Upper bound on accepted body size (16 MiB) — guards the loopback
/// service against unbounded allocation from a buggy client.
pub const MAX_BODY_BYTES: u64 = 16 * 1024 * 1024;

/// Upper bound on one message head (start line + headers + blank line).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Upper bound on the header lines of one message.
pub const MAX_HEADERS: usize = 100;

/// Bytes asked of the stream per [`MessageReader::fill`].
const FILL_CHUNK: usize = 4096;

/// Why a message could not be read off a connection.
#[derive(Debug)]
pub enum ReadError {
    /// The transport failed, timed out, or ended inside a message.
    Io(io::Error),
    /// The bytes do not frame a message this crate accepts. A server
    /// answers `status` and closes: where the next message would start
    /// is unknown, so the connection cannot be kept.
    Malformed {
        /// The status a server answers with (400, 413 or 431).
        status: u16,
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => e.fmt(f),
            ReadError::Malformed { reason, .. } => f.write_str(reason),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ReadError> for io::Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => e,
            ReadError::Malformed { reason, .. } => {
                io::Error::new(io::ErrorKind::InvalidData, reason)
            }
        }
    }
}

fn malformed<T>(status: u16, reason: &'static str) -> Result<T, ReadError> {
    Err(ReadError::Malformed { status, reason })
}

/// One side of a persistent connection: the stream plus the read buffer
/// that lives as long as the connection does.
///
/// Messages are framed by `Content-Length` only. Bytes that arrive behind
/// the message being parsed (a pipelined next request) stay buffered for
/// the next call; a body is never read past its declared length.
#[derive(Debug)]
pub struct MessageReader<S> {
    stream: S,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    pos: usize,
}

impl<S> MessageReader<S> {
    /// Wraps `stream` with an empty buffer.
    pub fn new(stream: S) -> Self {
        Self { stream, buf: Vec::new(), pos: 0 }
    }

    /// The wrapped stream (for writing the other direction).
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Bytes received but not yet consumed by a parsed message. After a
    /// failed read this is 0 exactly when no byte of the message arrived.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl<S: Read> MessageReader<S> {
    /// Reads once from the stream into the buffer; `Ok(0)` is end of
    /// stream. Timeouts surface as the stream reports them.
    pub fn fill(&mut self) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= FILL_CHUNK {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + FILL_CHUNK, 0);
        let result = loop {
            match self.stream.read(&mut self.buf[old..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        self.buf.truncate(old + result.as_ref().map_or(0, |&n| n));
        result
    }

    /// Reads one HTTP/1.1 request.
    pub fn read_request(&mut self) -> Result<HttpRequest, ReadError> {
        let head = self.head()?;
        let head_len = head.len();
        let mut lines = head_lines(head);
        let mut parts = lines.next().unwrap_or_default().split_whitespace();
        let method = parts.next().unwrap_or_default().to_owned();
        let path = parts.next().unwrap_or_default().to_owned();
        if method.is_empty() || path.is_empty() {
            return malformed(400, "malformed request line");
        }
        let http11 = parts.next() == Some("HTTP/1.1");

        let mut headers = Vec::new();
        let framing = parse_headers(lines, |name, value| {
            headers.push((name.to_ascii_lowercase(), value.to_owned()));
        })?;
        let body = self.take_body(head_len, framing.content_length.unwrap_or(0), 413)?;
        Ok(HttpRequest {
            method,
            path,
            headers,
            body,
            keep_alive: framing.keeps(http11),
            queued_us: 0,
        })
    }

    /// Reads one HTTP/1.1 response (client side). A reply without
    /// `Content-Length` runs to end of stream and is never `keep_alive`.
    pub fn read_response(&mut self) -> Result<HttpReply, ReadError> {
        let head = self.head()?;
        let head_len = head.len();
        let mut lines = head_lines(head);
        let mut parts = lines.next().unwrap_or_default().split_whitespace();
        let http11 = parts.next() == Some("HTTP/1.1");
        let Some(status) = parts.next().and_then(|s| s.parse::<u16>().ok()) else {
            return malformed(400, "malformed status line");
        };
        let framing = parse_headers(lines, |_, _| {})?;
        match framing.content_length {
            Some(n) => {
                let body = self.take_body(head_len, n, 400)?;
                Ok(HttpReply { status, body, keep_alive: framing.keeps(http11) })
            }
            None => {
                let mut body = self.buf[self.pos + head_len..].to_vec();
                (&mut self.stream)
                    .take(MAX_BODY_BYTES + 1 - body.len() as u64)
                    .read_to_end(&mut body)?;
                if body.len() as u64 > MAX_BODY_BYTES {
                    return malformed(400, "body too large");
                }
                self.pos = self.buf.len();
                Ok(HttpReply { status, body, keep_alive: false })
            }
        }
    }

    /// Buffers a whole head and returns it, blank line included.
    fn head(&mut self) -> Result<&str, ReadError> {
        let len = self.fill_head()?;
        std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .or_else(|_| malformed(400, "non-UTF-8 head"))
    }

    /// Buffers a whole head and returns its length, blank line included.
    fn fill_head(&mut self) -> Result<usize, ReadError> {
        let (mut scanned, mut line_start, mut lines) = (0usize, 0usize, 0usize);
        loop {
            let window = &self.buf[self.pos..];
            let newline = window[scanned..].iter().position(|&b| b == b'\n');
            let Some(newline) = newline.map(|offset| scanned + offset) else {
                scanned = window.len();
                if scanned >= MAX_HEAD_BYTES {
                    return malformed(431, "head too large");
                }
                if self.fill()? == 0 {
                    return Err(ReadError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a message head",
                    )));
                }
                continue;
            };
            if newline >= MAX_HEAD_BYTES {
                return malformed(431, "head too large");
            }
            let line = &window[line_start..newline];
            if line.is_empty() || line == b"\r" {
                if lines == 0 {
                    return malformed(400, "empty start line");
                }
                return Ok(newline + 1);
            }
            lines += 1;
            if lines > MAX_HEADERS + 1 {
                return malformed(431, "too many headers");
            }
            scanned = newline + 1;
            line_start = scanned;
        }
    }

    /// Consumes the head and a body of exactly `len` bytes: what is
    /// already buffered, then the rest straight from the stream. Nothing
    /// is consumed on failure, so [`MessageReader::buffered`] still tells
    /// whether the message had begun.
    fn take_body(
        &mut self,
        head_len: usize,
        len: u64,
        too_large: u16,
    ) -> Result<Vec<u8>, ReadError> {
        if len > MAX_BODY_BYTES {
            return malformed(too_large, "body too large");
        }
        let len = len as usize;
        let start = self.pos + head_len;
        let have = (self.buf.len() - start).min(len);
        let mut body = Vec::with_capacity(len);
        body.extend_from_slice(&self.buf[start..start + have]);
        body.resize(len, 0);
        self.stream.read_exact(&mut body[have..])?;
        self.pos = start + have;
        Ok(body)
    }
}

/// The lines of a head, line terminators stripped, up to the blank line.
fn head_lines(head: &str) -> impl Iterator<Item = &str> {
    head.split('\n')
        .map(|line| line.strip_suffix('\r').unwrap_or(line))
        .take_while(|line| !line.is_empty())
}

/// What the headers say about where the message ends and whether the
/// connection outlives it.
struct Framing {
    content_length: Option<u64>,
    close: bool,
    keep_alive: bool,
}

impl Framing {
    /// Whether the connection may carry another message: HTTP/1.1 unless
    /// `Connection: close`, older versions only on `Connection: keep-alive`.
    fn keeps(&self, http11: bool) -> bool {
        !self.close && (http11 || self.keep_alive)
    }
}

/// Validates header lines and extracts the framing, handing each
/// `(name, trimmed value)` to `each`. Anything that could make two
/// parsers disagree on the message's end is rejected: a line without a
/// colon, a name that is not a token (`Content-Length : 5`), a
/// non-decimal or conflicting `Content-Length`, any `Transfer-Encoding`.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
    mut each: impl FnMut(&'a str, &'a str),
) -> Result<Framing, ReadError> {
    let mut framing = Framing { content_length: None, close: false, keep_alive: false };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return malformed(400, "header line without a colon");
        };
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return malformed(400, "invalid header name");
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return malformed(400, "bad content-length");
            }
            // Only an overflowing digit string fails to parse.
            let n = value.parse().unwrap_or(u64::MAX);
            if framing.content_length.is_some_and(|seen| seen != n) {
                return malformed(400, "conflicting content-length");
            }
            framing.content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return malformed(400, "transfer-encoding is not supported");
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                framing.close |= token.eq_ignore_ascii_case("close");
                framing.keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        }
        each(name, value);
    }
    Ok(framing)
}

/// RFC 9110 `tchar`: what a header field name may consist of.
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// The reason phrase of the statuses this workspace emits.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes an HTTP/1.1 response as one buffer in one write: on a kept
/// socket, head and body as separate small writes would meet Nagle's
/// algorithm and the peer's delayed ACK. `keep_alive: false` announces
/// that the server closes the connection after this reply.
pub fn write_response<W: Write>(
    mut stream: W,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(192 + response.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in &response.headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&response.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Reads one response off a stream used for a single exchange. Returns
/// `(status, body)`.
pub fn read_response<R: Read>(stream: R) -> io::Result<(u16, Vec<u8>)> {
    let reply = MessageReader::new(stream).read_response()?;
    Ok((reply.status, reply.body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let raw =
            b"POST /v1/chat/completions HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = MessageReader::new(&raw[..]).read_request().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/chat/completions");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn request_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = MessageReader::new(&raw[..]).read_request().unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert_eq!(
            (req.route_path(), req.query_param("id")),
            ("/healthz", None)
        );

        let raw = b"GET /trace?n=3&id=7&id=8 HTTP/1.1\r\n\r\n";
        let req = MessageReader::new(&raw[..]).read_request().unwrap();
        assert_eq!(req.route_path(), "/trace");
        assert_eq!(
            (req.query_param("id"), req.query_param("x")),
            (Some("7"), None)
        );
    }

    #[test]
    fn malformed_request_line_rejected() {
        for raw in [&b"\r\n\r\n"[..], &b"GARBAGE\r\n\r\n"[..]] {
            let err = MessageReader::new(raw).read_request().unwrap_err();
            assert!(
                matches!(err, ReadError::Malformed { status: 400, .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = MessageReader::new(raw.as_bytes())
            .read_request()
            .unwrap_err();
        assert!(
            matches!(err, ReadError::Malformed { status: 413, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn response_write_then_read() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &HttpResponse::json(200, br#"{"ok":true}"#.to_vec()),
            true,
        )
        .unwrap();
        let (status, body) = read_response(&buf[..]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"ok":true}"#);
    }

    #[test]
    fn text_response_sets_content_type() {
        let mut buf = Vec::new();
        write_response(&mut buf, &HttpResponse::text(200, b"a 1\n".to_vec()), true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("Content-Type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
        assert!(text.ends_with("a 1\n"));
    }

    #[test]
    fn extra_headers_are_emitted_before_the_body() {
        let mut buf = Vec::new();
        let response = HttpResponse::json(429, b"{}".to_vec()).with_header("Retry-After", "2");
        write_response(&mut buf, &response, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        let header_end = text.find("\r\n\r\n").unwrap();
        assert!(text[..header_end].contains("Retry-After"), "{text}");
        assert!(text.ends_with("{}"));
        // Still parses on the client side.
        let (status, body) = read_response(text.as_bytes()).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, b"{}");
    }

    #[test]
    fn every_emitted_status_has_its_own_reason() {
        let expected = [
            (200u16, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (408, "Request Timeout"),
            (413, "Content Too Large"),
            (429, "Too Many Requests"),
            (431, "Request Header Fields Too Large"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
            // Unknown codes get a neutral phrase, not "Internal Server Error".
            (418, "Unknown"),
        ];
        for (status, reason) in expected {
            let mut buf = Vec::new();
            write_response(&mut buf, &HttpResponse::json(status, b"{}".to_vec()), true).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(
                text.starts_with(&format!("HTTP/1.1 {status} {reason}\r\n")),
                "{text}"
            );
        }
    }

    #[test]
    fn connection_header_says_whether_the_socket_is_kept() {
        for (keep, header) in [
            (true, "Connection: keep-alive\r\n"),
            (false, "Connection: close\r\n"),
        ] {
            let mut buf = Vec::new();
            write_response(&mut buf, &HttpResponse::json(200, b"{}".to_vec()), keep).unwrap();
            assert!(String::from_utf8_lossy(&buf).contains(header));
            let reply = MessageReader::new(&buf[..]).read_response().unwrap();
            assert_eq!(reply.keep_alive, keep);
        }
        // No Content-Length: the body runs to end of stream, never kept.
        let reply = MessageReader::new(&b"HTTP/1.1 200 OK\r\n\r\nrest"[..])
            .read_response()
            .unwrap();
        assert_eq!(reply.body, b"rest");
        assert!(!reply.keep_alive);
    }

    #[test]
    fn request_keep_alive_follows_version_and_connection_header() {
        let cases: [(&[u8], bool); 5] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (
                b"GET / HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n",
                false,
            ),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, keep) in cases {
            let req = MessageReader::new(raw).read_request().unwrap();
            assert_eq!(req.keep_alive, keep, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn pipelined_requests_survive_in_the_connection_buffer() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /b HTTP/1.1\r\n\r\n";
        let mut reader = MessageReader::new(&raw[..]);
        let first = reader.read_request().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"ab"[..])
        );
        assert!(reader.buffered() > 0, "second request must stay buffered");
        let second = reader.read_request().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(reader.buffered(), 0);
    }

    fn rejection(raw: &[u8]) -> (u16, &'static str) {
        match MessageReader::new(raw).read_request() {
            Err(ReadError::Malformed { status, reason }) => (status, reason),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn ambiguous_framing_is_rejected() {
        assert_eq!(
            rejection(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n").0,
            400
        );
        assert_eq!(
            rejection(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab"),
            (400, "conflicting content-length")
        );
        // `u64::from_str` would take "+1"; a peer's parser might not.
        assert_eq!(
            rejection(b"POST / HTTP/1.1\r\nContent-Length: +1\r\n\r\na").0,
            400
        );
        assert_eq!(
            rejection(b"POST / HTTP/1.1\r\nContent-Length : 1\r\n\r\na").0,
            400
        );
        assert_eq!(
            rejection(b"POST / HTTP/1.1\r\nno colon here\r\n\r\n").0,
            400
        );
        assert_eq!(rejection(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n").0, 400);
        // The same length twice is one length.
        let req = MessageReader::new(
            &b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\na"[..],
        )
        .read_request()
        .unwrap();
        assert_eq!(req.body, b"a");
    }

    #[test]
    fn oversized_heads_are_431() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert_eq!(rejection(long_line.as_bytes()), (431, "head too large"));
        // No terminator at all: rejected at the cap, not buffered forever.
        assert_eq!(rejection(&vec![b'a'; 2 * MAX_HEAD_BYTES]).0, 431);
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X: 1\r\n".repeat(MAX_HEADERS + 1)
        );
        assert_eq!(rejection(many.as_bytes()), (431, "too many headers"));
        let at_limit = format!("GET / HTTP/1.1\r\n{}\r\n", "X: 1\r\n".repeat(MAX_HEADERS));
        assert!(MessageReader::new(at_limit.as_bytes())
            .read_request()
            .is_ok());
    }

    #[test]
    fn a_failed_read_tells_whether_the_message_had_begun() {
        let mut silent = MessageReader::new(&b""[..]);
        assert!(matches!(silent.read_response(), Err(ReadError::Io(_))));
        assert_eq!(silent.buffered(), 0);
        let mut cut = MessageReader::new(&b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc"[..]);
        assert!(matches!(cut.read_response(), Err(ReadError::Io(_))));
        assert!(cut.buffered() > 0);
    }

    #[test]
    fn headers_captured_lowercased() {
        let raw = b"POST /x HTTP/1.1\r\nTraceparent: 00-abc-def-01\r\nX-Attempt: 2\r\nContent-Length: 2\r\n\r\nab";
        let req = MessageReader::new(&raw[..]).read_request().unwrap();
        assert_eq!(req.header("traceparent"), Some("00-abc-def-01"));
        assert_eq!(req.header("X-ATTEMPT"), Some("2"));
        assert_eq!(req.header("absent"), None);
        assert!(req
            .headers
            .iter()
            .all(|(k, _)| k.chars().all(|c| !c.is_ascii_uppercase())));
    }

    #[test]
    fn case_insensitive_content_length() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-LENGTH: 2\r\n\r\nab";
        let req = MessageReader::new(&raw[..]).read_request().unwrap();
        assert_eq!(req.body, b"ab");
    }
}
