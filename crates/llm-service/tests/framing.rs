//! Property corpus for the message framing a kept connection depends on:
//! whatever bytes arrive, in whatever pieces, `read_request` and
//! `read_response` never panic, never consume a byte beyond the message
//! they return, and leave a pipelined follower intact. Behind the framing,
//! the JSON dialect of `POST /v1/chat/completions`: whatever body arrives
//! decodes or maps to a 4xx, without a panic. And one socket case the
//! byte-level corpus cannot reach: a request dripped slower than it is
//! allowed to take.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm::ModelKind;
use llm_service::http::{
    write_response, HttpResponse, MessageReader, ReadError, MAX_BODY_BYTES, MAX_HEADERS,
    MAX_HEAD_BYTES,
};
use llm_service::wire::{error_to_wire, to_chat_request, WireMessage, WireRequest};
use llm_service::{spawn_http_server, ConnMetrics, HttpRequest, ServeOptions};
use proptest::prelude::*;

/// Hands `data` out at most `step` bytes per read and counts what it gave.
struct Pieces<'a> {
    data: &'a [u8],
    step: usize,
    pulled: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(self.data.len() - self.pulled).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pulled..self.pulled + n]);
        self.pulled += n;
        Ok(n)
    }
}

const FRAGMENTS: [&[u8]; 16] = [
    b"GET ",
    b"POST ",
    b"/x ",
    b"HTTP/1.1",
    b"HTTP/1.0 200 OK",
    b"\r\n",
    b"\n",
    b"\r",
    b": ",
    b"Content-Length",
    b"Content-Length: 3\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
    b"7",
    b"\xff\xfe",
    b"\r\n\r\n",
];

/// Half fragments, half raw bytes: near-valid input with stray structure
/// and non-UTF-8 in it. A pick past the end of `fragments` is a raw byte.
fn soup(fragments: &[&[u8]], picks: Vec<(usize, u8)>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (pick, raw) in picks {
        match fragments.get(pick) {
            Some(fragment) => bytes.extend_from_slice(fragment),
            None => bytes.push(raw),
        }
    }
    bytes
}

fn reader(data: &[u8], step: usize) -> MessageReader<Pieces<'_>> {
    MessageReader::new(Pieces { data, step, pulled: 0 })
}

/// Bytes the reader has consumed for good: pulled off the stream and not
/// still buffered for the next message.
fn consumed(reader: &mut MessageReader<Pieces<'_>>) -> usize {
    reader.get_mut().pulled - reader.buffered()
}

#[derive(Debug, Clone, PartialEq)]
struct Req {
    method: &'static str,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Req {
    fn encode(&self) -> Vec<u8> {
        let mut out = format!("{} /{} HTTP/1.1\r\n", self.method, self.path).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("X-{name}: {value}\r\n").as_bytes());
        }
        if !self.body.is_empty() || self.method == "POST" {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

fn request() -> impl Strategy<Value = Req> {
    (
        prop::bool::ANY,
        "[a-z0-9/?=&]{0,24}",
        prop::collection::vec(("[A-Za-z0-9-]{1,10}", "[a-z0-9 ;=/,]{0,24}"), 0..6),
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(post, path, headers, body)| Req {
            method: if post { "POST" } else { "GET" },
            path,
            headers,
            body: if post { body } else { Vec::new() },
        })
}

fn assert_parsed(parsed: &llm_service::HttpRequest, want: &Req) -> Result<(), String> {
    prop_assert_eq!(parsed.method.as_str(), want.method);
    prop_assert_eq!(&parsed.path, &format!("/{}", want.path));
    prop_assert_eq!(&parsed.body, &want.body);
    prop_assert!(parsed.keep_alive);
    let sent: Vec<(String, String)> = want
        .headers
        .iter()
        .map(|(n, v)| (format!("x-{}", n.to_ascii_lowercase()), v.trim().to_owned()))
        .collect();
    let got: Vec<(String, String)> = parsed
        .headers
        .iter()
        .filter(|(n, _)| n != "content-length")
        .cloned()
        .collect();
    prop_assert_eq!(got, sent);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_bytes_never_panic_or_overconsume(
        picks in prop::collection::vec((0usize..2 * FRAGMENTS.len(), any::<u8>()), 0..40),
        step in 1usize..64,
    ) {
        // Near-valid messages with stray line ends, colons, lengths and
        // non-UTF-8 in them.
        let bytes = soup(&FRAGMENTS, picks);
        let mut requests = reader(&bytes, step);
        while let Ok(parsed) = requests.read_request() {
            prop_assert!(consumed(&mut requests) <= bytes.len());
            prop_assert!(parsed.body.len() <= bytes.len());
        }
        let mut responses = reader(&bytes, step);
        while responses.read_response().is_ok() {
            prop_assert!(consumed(&mut responses) <= bytes.len());
        }
    }

    #[test]
    fn two_concatenated_requests_parse_as_exactly_those_two(
        first in request(),
        second in request(),
        step in 1usize..200,
    ) {
        let (a, b) = (first.encode(), second.encode());
        let wire = [a.as_slice(), b.as_slice()].concat();
        let mut conn = reader(&wire, step);

        let parsed = conn.read_request().map_err(|e| format!("first: {e}"))?;
        assert_parsed(&parsed, &first)?;
        prop_assert_eq!(consumed(&mut conn), a.len(), "first request over- or under-consumed");

        let parsed = conn.read_request().map_err(|e| format!("second: {e}"))?;
        assert_parsed(&parsed, &second)?;
        prop_assert_eq!(consumed(&mut conn), wire.len());

        // And nothing else: the stream is exhausted, not misparsed.
        prop_assert!(matches!(conn.read_request(), Err(ReadError::Io(_))));
    }

    #[test]
    fn truncated_requests_fail_without_panicking(
        req in request(),
        cut in 0usize..400,
        step in 1usize..64,
    ) {
        let wire = req.encode();
        let cut = cut % wire.len();
        let mut conn = reader(&wire[..cut], step);
        prop_assert!(matches!(conn.read_request(), Err(ReadError::Io(_))));
        // What arrived is still there: a caller can tell "never began"
        // from "cut off".
        prop_assert_eq!(conn.buffered() == 0, cut == 0);
    }

    #[test]
    fn corrupted_requests_never_desynchronise(
        req in request(),
        at in 0usize..400,
        byte in any::<u8>(),
        step in 1usize..64,
    ) {
        // One byte overwritten (often non-UTF-8, sometimes a stray CR/LF
        // or colon): either rejected, or parsed with exact accounting.
        let mut wire = req.encode();
        let at = at % wire.len();
        wire[at] = byte;
        wire.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let mut conn = reader(&wire, step);
        if let Ok(parsed) = conn.read_request() {
            let head_end = wire
                .windows(2)
                .position(|w| w == b"\n\n")
                .map(|p| p + 2)
                .into_iter()
                .chain(wire.windows(3).position(|w| w == b"\n\r\n").map(|p| p + 3))
                .min()
                .expect("a parsed request has a blank line");
            prop_assert_eq!(consumed(&mut conn), head_end + parsed.body.len());
        }
    }

    #[test]
    fn duplicate_content_length_must_agree(
        first in 0u64..50,
        second in 0u64..50,
        step in 1usize..64,
    ) {
        let body = vec![b'x'; 64];
        let mut wire = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {first}\r\ncontent-length: {second}\r\n\r\n"
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let outcome = reader(&wire, step).read_request();
        if first == second {
            prop_assert_eq!(outcome.map_err(|e| e.to_string())?.body.len() as u64, first);
        } else {
            prop_assert!(matches!(outcome, Err(ReadError::Malformed { status: 400, .. })));
        }
    }

    #[test]
    fn responses_roundtrip_back_to_back(
        first in (prop::bool::ANY, prop::collection::vec(any::<u8>(), 0..300)),
        second in (prop::bool::ANY, prop::collection::vec(any::<u8>(), 0..300)),
        step in 1usize..200,
    ) {
        let mut wire = Vec::new();
        for (keep, body) in [&first, &second] {
            let response = HttpResponse::json(200, body.clone()).with_header("Retry-After", "1");
            write_response(&mut wire, &response, *keep).map_err(|e| e.to_string())?;
        }
        let mut conn = reader(&wire, step);
        for (keep, body) in [&first, &second] {
            let reply = conn.read_response().map_err(|e| e.to_string())?;
            prop_assert_eq!(reply.status, 200);
            prop_assert_eq!(&reply.body, body);
            prop_assert_eq!(reply.keep_alive, *keep);
        }
        prop_assert_eq!(consumed(&mut conn), wire.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oversized_messages_are_refused_before_they_are_buffered(
        excess in 1usize..5000,
        step in 512usize..8192,
    ) {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "p".repeat(MAX_HEAD_BYTES + excess));
        let mut conn = reader(long.as_bytes(), step);
        prop_assert!(matches!(conn.read_request(), Err(ReadError::Malformed { status: 431, .. })));
        prop_assert!(conn.get_mut().pulled <= MAX_HEAD_BYTES + 8192);

        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat(MAX_HEADERS + 1 + excess % 50)
        );
        let outcome = reader(many.as_bytes(), step).read_request();
        prop_assert!(matches!(outcome, Err(ReadError::Malformed { status: 431, .. })));

        // A declared body over the cap is refused from the head alone.
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + excess as u64
        );
        let outcome = reader(huge.as_bytes(), step).read_request();
        prop_assert!(matches!(outcome, Err(ReadError::Malformed { status: 413, .. })));
    }
}

/// One `io_timeout` per request, not per read: a client dripping a byte
/// every `io_timeout / 2` never lets a single read time out, and is still
/// answered 408 about one `io_timeout` after its first byte — not after
/// the drip ends.
#[test]
fn dripped_request_is_answered_408_after_one_io_timeout() {
    let io_timeout = Duration::from_millis(100);
    let server = spawn_http_server(
        Arc::new(|_: HttpRequest| HttpResponse::json(200, b"{}".to_vec())),
        ServeOptions { io_timeout, ..ServeOptions::default() },
        ConnMetrics::register(&obs::Registry::new()),
    )
    .unwrap();
    let mut writer = TcpStream::connect(server.addr()).unwrap();
    let mut reader = MessageReader::new(writer.try_clone().unwrap());

    // Never completes the head; the whole drip takes 12 x io_timeout.
    let drip = b"GET /drip HTTP/1.1\r\nX: y";
    let started = Instant::now();
    let dripper = std::thread::spawn(move || {
        for byte in drip {
            // Fails once the server has closed; the reply is what counts.
            if writer.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(io_timeout / 2);
        }
    });
    let reply = reader.read_response().unwrap();
    let answered_after = started.elapsed();
    dripper.join().unwrap();

    assert_eq!(reply.status, 408);
    assert!(!reply.keep_alive);
    assert!(answered_after >= io_timeout, "{answered_after:?}");
    assert!(
        answered_after < 3 * io_timeout,
        "408 took {answered_after:?}: each read got a fresh io_timeout"
    );
}

/// The status `POST /v1/chat/completions` answers `body` with, up to the
/// point where the simulator would run (200 here).
fn chat_status(body: &[u8]) -> u16 {
    match serde_json::from_slice::<WireRequest>(body) {
        Err(_) => 400,
        Ok(wire) => to_chat_request(&wire).map_or_else(|e| error_to_wire(&e).0, |_| 200),
    }
}

const JSON_FRAGMENTS: [&[u8]; 16] = [
    b"{",
    b"}",
    b"[",
    b"]",
    b"\"",
    b":",
    b",",
    b"\"model\"",
    b"\"messages\"",
    b"\"temperature\":",
    b"\\u",
    b"\\ud800",
    b"-",
    b"1e999",
    b"null",
    b"\xff",
];

fn chat_body() -> impl Strategy<Value = WireRequest> {
    (
        0usize..ModelKind::ALL.len() + 1,
        prop::collection::vec(("[a-z]{0,9}", "\\PC{0,40}"), 0..4),
        -1.0f64..3.0,
        any::<u64>(),
    )
        .prop_map(|(model, messages, temperature, seed)| WireRequest {
            model: ModelKind::ALL
                .get(model)
                .map_or("gpt-99", |m| m.id())
                .to_owned(),
            messages: messages
                .into_iter()
                .map(|(role, content)| WireMessage { role, content })
                .collect(),
            temperature,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_chat_bodies_map_to_a_4xx(
        picks in prop::collection::vec((0usize..2 * JSON_FRAGMENTS.len(), any::<u8>()), 0..60),
    ) {
        let status = chat_status(&soup(&JSON_FRAGMENTS, picks));
        prop_assert!(status == 200 || (400..500).contains(&status), "{}", status);
    }

    #[test]
    fn mutated_chat_bodies_decode_or_map_to_a_4xx(
        wire in chat_body(),
        at in 0usize..4000,
        byte in any::<u8>(),
        cut in prop::bool::ANY,
    ) {
        let mut body = serde_json::to_vec(&wire).map_err(|e| e.to_string())?;
        // Untouched, it decodes to what was sent, or names its model.
        match to_chat_request(&serde_json::from_slice(&body).map_err(|e| e.to_string())?) {
            Ok(request) => {
                let contents: Vec<&str> = wire.messages.iter().map(|m| m.content.as_str()).collect();
                prop_assert_eq!(request.prompt, contents.join("\n"));
                prop_assert_eq!(request.seed, wire.seed);
            }
            Err(e) => {
                prop_assert_eq!(&wire.model, "gpt-99");
                prop_assert_eq!(error_to_wire(&e).0, 404);
            }
        }
        // One byte overwritten, or cut off there.
        let at = at % body.len();
        if cut {
            body.truncate(at);
        } else {
            body[at] = byte;
        }
        let status = chat_status(&body);
        prop_assert!(status == 200 || (400..500).contains(&status), "{}", status);
    }
}

/// Nesting deeper than any honest body is refused, not recursed into until
/// the worker's stack runs out (a 16 MiB body may be sixteen million `[`).
#[test]
fn deeply_nested_chat_body_is_a_400() {
    for open in ["[", "{\"messages\":"] {
        assert_eq!(chat_status(open.repeat(200_000).as_bytes()), 400);
    }
}
