//! Property corpus for the message framing a kept connection depends on:
//! whatever bytes arrive, in whatever pieces, `read_request` and
//! `read_response` never panic, never consume a byte beyond the message
//! they return, and leave a pipelined follower intact.

use std::io::Read;

use llm_service::http::{
    write_response, HttpResponse, MessageReader, ReadError, MAX_BODY_BYTES, MAX_HEADERS,
    MAX_HEAD_BYTES,
};
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
        soup in prop::collection::vec((0usize..2 * FRAGMENTS.len(), any::<u8>()), 0..40),
        step in 1usize..64,
    ) {
        // Half protocol fragments, half raw bytes: near-valid messages
        // with stray line ends, colons, lengths and non-UTF-8 in them.
        let mut bytes = Vec::new();
        for (pick, raw) in soup {
            match FRAGMENTS.get(pick) {
                Some(fragment) => bytes.extend_from_slice(fragment),
                None => bytes.push(raw),
            }
        }
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
