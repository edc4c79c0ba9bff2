//! The loopback server and its HTTP client.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use llm::{ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};
use obs::{Counter, Histogram, Registry, TraceLog};

use crate::http::{HttpReply, HttpRequest, HttpResponse, MessageReader};
use crate::serve::{spawn_http_server, ConnMetrics, HttpServerHandle, ServeOptions};
use crate::wire::{
    error_to_wire, from_chat_response, to_chat_request, to_chat_response, wire_to_error, WireError,
    WireErrorBody, WireMessage, WireRequest, WireResponse,
};

/// Factory for loopback LLM services. The simulator (and so its fault
/// schedule) and the connection-pool limits are set only by this module's
/// tests.
#[derive(Debug, Default)]
pub struct LlmServer {
    llm: SimLlm,
    options: ServeOptions,
}

impl LlmServer {
    /// A server backed by a fault-free simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds to an ephemeral port on `127.0.0.1` and starts serving on a
    /// bounded worker pool. The returned handle stops the server on drop.
    pub fn start(self) -> std::io::Result<RunningServer> {
        let llm = Arc::new(self.llm);
        let handler_llm = Arc::clone(&llm);
        let metrics = Arc::new(ServerMetrics::new());
        let handler_metrics = Arc::clone(&metrics);
        let server = spawn_http_server(
            Arc::new(move |request: HttpRequest| route(request, &handler_llm, &handler_metrics)),
            self.options,
            ConnMetrics::register(&metrics.registry),
        )?;
        Ok(RunningServer { server })
    }
}

/// Per-server request telemetry, exposed at `GET /metrics`.
struct ServerMetrics {
    registry: Registry,
    completions: Arc<Counter>,
    errors: Arc<Counter>,
    request_us: Arc<Histogram>,
    /// Child spans for requests that arrived with a `traceparent` header,
    /// keyed by the caller's trace id so the caller can assemble the
    /// cross-service span tree via `GET /trace?id=`.
    traces: TraceLog,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let completions = registry.counter(
            "llm_completions_total",
            "Chat completion requests answered successfully.",
            &[],
        );
        let errors = registry.counter(
            "llm_completion_errors_total",
            "Chat completion requests answered with an error.",
            &[],
        );
        let request_us = registry.histogram(
            "llm_request_us",
            "Wall time spent handling one chat completion request, microseconds.",
            &[],
        );
        Self { registry, completions, errors, request_us, traces: TraceLog::new(512) }
    }
}

/// Extracts the caller's trace id from a `traceparent` header value
/// (`00-<32 hex trace>-<16 hex parent>-<flags>`). The upper 64 bits of
/// the trace field must be zero — this workspace's trace ids are u64.
fn parse_traceparent(value: &str) -> Option<u64> {
    let mut parts = value.split('-');
    let _version = parts.next()?;
    let trace_field = parts.next()?;
    if trace_field.len() != 32 {
        return None;
    }
    let wide = u128::from_str_radix(trace_field, 16).ok()?;
    u64::try_from(wide).ok().filter(|&id| id != 0)
}

/// A running loopback service. Dropping it shuts the server down and
/// joins every connection worker.
#[derive(Debug)]
pub struct RunningServer {
    server: HttpServerHandle,
}

impl RunningServer {
    /// The bound address, e.g. `127.0.0.1:49213`.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// A client connected to this server.
    pub fn client(&self) -> HttpChatClient {
        HttpChatClient::new(self.addr())
    }
}

fn route(req: HttpRequest, llm: &SimLlm, metrics: &ServerMetrics) -> HttpResponse {
    match (req.method.as_str(), req.route_path()) {
        ("POST", "/v1/chat/completions") => {
            let _timer = metrics.request_us.start_timer();
            // Callers propagate their trace in a traceparent header; record
            // this request as a child span keyed by that id so the caller
            // can pull it back out with `GET /trace?id=`.
            let caller_trace = req
                .header("traceparent")
                .and_then(parse_traceparent)
                .unwrap_or(0);
            let span = if caller_trace != 0 {
                let span = metrics.traces.begin(caller_trace, "received");
                metrics
                    .traces
                    .stamp_with(span, "queue_wait", format!("{}us", req.queued_us));
                let attempt = req
                    .header("x-attempt")
                    .and_then(|v| v.parse::<u32>().ok())
                    .unwrap_or(0);
                metrics
                    .traces
                    .stamp_with(span, "attempt", attempt.to_string());
                span
            } else {
                0
            };
            let response = complete_chat(&req, llm, metrics);
            if span != 0 {
                if response.status == 200 {
                    metrics.traces.finish(span, "completed", None);
                } else {
                    metrics
                        .traces
                        .finish(span, "error", Some(format!("http {}", response.status)));
                }
            }
            response
        }
        ("GET", "/healthz") => HttpResponse::json(200, br#"{"status":"ok"}"#.to_vec()),
        ("GET", "/metrics") => {
            HttpResponse::text(200, metrics.registry.render_prometheus().into_bytes())
        }
        ("GET", "/trace") => match req.query_param("id").map(|v| v.parse::<u64>()) {
            Some(Ok(id)) => HttpResponse::json(200, metrics.traces.by_key_json(id).into_bytes()),
            _ => bad_request("trace lookup needs a numeric ?id= parameter"),
        },
        ("POST", _) | ("GET", _) => HttpResponse::json(
            404,
            serde_json::to_vec(&WireError {
                error: WireErrorBody {
                    message: format!("no such route: {}", req.path),
                    code: "not_found".into(),
                },
            })
            .expect("error serializes"),
        ),
        _ => HttpResponse::json(
            405,
            br#"{"error":{"message":"method not allowed","code":"method_not_allowed"}}"#.to_vec(),
        ),
    }
}

/// The body of `POST /v1/chat/completions`: decode, simulate, encode.
fn complete_chat(req: &HttpRequest, llm: &SimLlm, metrics: &ServerMetrics) -> HttpResponse {
    let wire: WireRequest = match serde_json::from_slice(&req.body) {
        Ok(w) => w,
        Err(e) => {
            metrics.errors.inc();
            return bad_request(&format!("invalid JSON body: {e}"));
        }
    };
    let chat_req = match to_chat_request(&wire) {
        Ok(r) => r,
        Err(err) => {
            metrics.errors.inc();
            return error_response(&err);
        }
    };
    match llm.complete(&chat_req) {
        Ok(resp) => {
            let body =
                serde_json::to_vec(&from_chat_response(&resp)).expect("wire response serializes");
            metrics.completions.inc();
            HttpResponse::json(200, body)
        }
        Err(err) => {
            metrics.errors.inc();
            error_response(&err)
        }
    }
}

fn error_response(err: &LlmError) -> HttpResponse {
    let (status, wire) = error_to_wire(err);
    HttpResponse::json(status, serde_json::to_vec(&wire).expect("error serializes"))
}

fn bad_request(message: &str) -> HttpResponse {
    HttpResponse::json(
        400,
        serde_json::to_vec(&WireError {
            error: WireErrorBody {
                message: message.to_owned(),
                code: "invalid_request_error".into(),
            },
        })
        .expect("error serializes"),
    )
}

/// Idle sockets one client (and its clones) keeps for reuse. Matches the
/// servers' default worker count: more could never be served at once.
const MAX_IDLE_SOCKETS: usize = 16;

/// A [`ChatApi`] implementation speaking the wire protocol over TCP.
///
/// Connections are persistent: a socket whose reply allows it
/// (`Content-Length` framed, no `Connection: close`) goes back to a small
/// idle pool shared by every clone of the client, and the next call —
/// `complete` or `trace_children`, from any thread — takes the most
/// recently used one instead of connecting.
///
/// The server closes sockets that sit idle (its `io_timeout`, or earlier
/// to free a worker), so a pooled socket may be stale. That shows as a
/// failure before the first response byte, which cannot have been the
/// request's fault: the exchange is redone once on a fresh connection.
/// That redo is not a retry — nothing the caller's circuit breaker sees.
/// Any failure on a fresh socket, or after a response byte, is reported.
///
/// Transport errors fail fast: one `complete` is one attempt. Retrying a
/// rate limit or a malformed answer is the batch executor's job, priced
/// by the governor's `max_retries + 1` projection; a dead endpoint is the
/// circuit breaker's.
#[derive(Debug, Clone)]
pub struct HttpChatClient {
    addr: std::net::SocketAddr,
    idle: Arc<Mutex<Vec<MessageReader<TcpStream>>>>,
}

impl HttpChatClient {
    /// A client for the service at `addr`.
    pub fn new(addr: std::net::SocketAddr) -> Self {
        Self { addr, idle: Arc::default() }
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<MessageReader<TcpStream>>> {
        // A panic elsewhere cannot leave a Vec of sockets half-updated.
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sends `request` (a whole message, written at once) and reads the
    /// reply, on a pooled socket when there is one.
    fn exchange(&self, request: &[u8]) -> Result<HttpReply, LlmError> {
        // Popped in its own statement: the pool lock must not be held
        // across the exchange.
        let pooled = self.idle().pop();
        if let Some(mut conn) = pooled {
            match Self::exchange_on(&mut conn, request) {
                Ok(reply) => return Ok(self.check_in(conn, reply)),
                // Stale: closed by the server while pooled. Fall through
                // to a fresh connection.
                Err(_) if conn.buffered() == 0 => {}
                Err(e) => return Err(e),
            }
        }
        let stream = TcpStream::connect(self.addr)
            .map_err(|e| LlmError::Transport(format!("connect {}: {e}", self.addr)))?;
        // One write per request, and no waiting on the peer's delayed
        // ACK for the next one on the same socket.
        let _ = stream.set_nodelay(true);
        let mut conn = MessageReader::new(stream);
        let reply = Self::exchange_on(&mut conn, request)?;
        Ok(self.check_in(conn, reply))
    }

    fn exchange_on(
        conn: &mut MessageReader<TcpStream>,
        request: &[u8],
    ) -> Result<HttpReply, LlmError> {
        conn.get_mut()
            .write_all(request)
            .map_err(|e| LlmError::Transport(format!("send: {e}")))?;
        conn.read_response()
            .map_err(|e| LlmError::Transport(format!("recv: {e}")))
    }

    /// Returns the socket to the pool when the reply permits reuse.
    fn check_in(&self, conn: MessageReader<TcpStream>, reply: HttpReply) -> HttpReply {
        if reply.keep_alive && conn.buffered() == 0 {
            let mut idle = self.idle();
            if idle.len() < MAX_IDLE_SOCKETS {
                idle.push(conn);
            }
        }
        reply
    }
}

impl ChatApi for HttpChatClient {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let wire = WireRequest {
            model: request.model.id().to_owned(),
            messages: vec![WireMessage { role: "user".into(), content: request.prompt.clone() }],
            temperature: request.temperature,
            seed: request.seed,
        };
        let body = serde_json::to_vec(&wire)
            .map_err(|e| LlmError::Protocol(format!("request encoding failed: {e}")))?;

        // Propagate the caller's trace context (W3C traceparent shape:
        // u64 trace id zero-extended to 128 bits, reused as parent span).
        let trace_headers = if request.trace_id != 0 {
            format!(
                "Traceparent: 00-{:032x}-{:016x}-01\r\nX-Attempt: {}\r\n",
                request.trace_id, request.trace_id, request.attempt
            )
        } else {
            String::new()
        };
        // Head and body leave as one write (see `exchange`).
        let mut message = format!(
            "POST /v1/chat/completions HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n{}Content-Length: {}\r\n\r\n",
            self.addr,
            trace_headers,
            body.len()
        )
        .into_bytes();
        message.extend_from_slice(&body);

        let reply = self.exchange(&message)?;
        if reply.status != 200 {
            return Err(wire_to_error(reply.status, &reply.body));
        }
        let wire_resp: WireResponse = serde_json::from_slice(&reply.body)
            .map_err(|e| LlmError::Protocol(format!("response decoding failed: {e}")))?;
        to_chat_response(&wire_resp)
    }

    fn trace_children(&self, trace_id: u64) -> Option<String> {
        if trace_id == 0 {
            return None;
        }
        let request = format!(
            "GET /trace?id={trace_id} HTTP/1.1\r\nHost: {}\r\n\r\n",
            self.addr
        );
        let reply = self.exchange(request.as_bytes()).ok()?;
        if reply.status != 200 {
            return None;
        }
        String::from_utf8(reply.body).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use llm::{parse_answers, InjectedFault, ModelKind};

    fn prompt() -> String {
        "Decide whether the entities match.\n\
         Q1: title: acoustic guitar, id: 7 [SEP] title: acoustic guitar, id: 7\n\
         Q2: title: acoustic guitar, id: 7 [SEP] title: drum kit, id: 2\n\
         Answer each question with yes or no."
            .to_owned()
    }

    #[test]
    fn end_to_end_over_loopback() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        let resp = client
            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), 5))
            .unwrap();
        let labels = parse_answers(&resp.content, 2).unwrap();
        assert!(labels[0].is_match());
        assert!(!labels[1].is_match());
        assert!(resp.usage.prompt_tokens.get() > 0);
    }

    #[test]
    fn http_client_matches_in_process_simulator() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        let sim = SimLlm::new();
        let req = ChatRequest::new(ModelKind::Gpt35Turbo0301, prompt(), 11);
        let over_http = client.complete(&req).unwrap();
        let in_process = sim.complete(&req).unwrap();
        assert_eq!(over_http.content, in_process.content);
        assert_eq!(over_http.usage, in_process.usage);
        assert_eq!(over_http.cost, in_process.cost);
    }

    #[test]
    fn unknown_model_maps_to_error() {
        let server = LlmServer::new().start().unwrap();
        // Hand-roll a request with a bogus model id.
        let body = br#"{"model":"gpt-99","messages":[{"role":"user","content":"Q1: a [SEP] b"}]}"#;
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        write!(
            stream,
            "POST /v1/chat/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        stream.write_all(body).unwrap();
        let (status, _) = read_response(&mut stream).unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn invalid_json_is_400() {
        let server = LlmServer::new().start().unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        write!(
            stream,
            "POST /v1/chat/completions HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot"
        )
        .unwrap();
        let (status, _) = read_response(&mut stream).unwrap();
        assert_eq!(status, 400);
    }

    #[test]
    fn health_endpoint() {
        let server = LlmServer::new().start().unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"status":"ok"}"#);
    }

    #[test]
    fn metrics_endpoint_counts_completions() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        for seed in 0..3 {
            client
                .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), seed))
                .unwrap();
        }
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        use std::io::Write;
        write!(stream, "GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("llm_completions_total 3"), "{text}");
        assert!(text.contains("llm_request_us_count 3"), "{text}");
        obs::lint(&text).expect("llm /metrics is valid Prometheus text");
    }

    /// A server whose simulator rate-limits its first request, the only
    /// one each caller makes.
    fn rate_limits_first_call() -> RunningServer {
        LlmServer {
            llm: SimLlm::with_failure_schedule([Some(InjectedFault::RateLimited)]),
            ..LlmServer::new()
        }
        .start()
        .unwrap()
    }

    #[test]
    fn rate_limit_surfaces_as_429() {
        let server = rate_limits_first_call();
        let err = server
            .client()
            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), 1))
            .unwrap_err();
        assert_eq!(err, LlmError::RateLimited);
    }

    #[test]
    fn concurrent_clients() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|seed| {
                    let client = client.clone();
                    scope.spawn(move || {
                        client
                            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), seed))
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                let resp = h.join().unwrap();
                assert!(parse_answers(&resp.content, 2).is_ok());
            }
        });
    }

    #[test]
    fn burst_beyond_pool_capacity_is_served() {
        // Tiny pool, many more clients than workers + backlog: all
        // requests complete because the accept loop applies backpressure
        // instead of spawning unbounded threads.
        let server = LlmServer {
            options: ServeOptions { worker_threads: 2, backlog: 2, ..ServeOptions::default() },
            ..LlmServer::new()
        }
        .start()
        .unwrap();
        let client = server.client();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..24u64)
                .map(|seed| {
                    let client = client.clone();
                    scope.spawn(move || {
                        client
                            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), seed))
                            .unwrap()
                    })
                })
                .collect();
            for h in handles {
                let resp = h.join().unwrap();
                assert!(parse_answers(&resp.content, 2).is_ok());
            }
        });
    }

    #[test]
    fn transport_error_fails_fast_after_one_connection() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Accepts each connection and closes it without a reply, counting
        // them until `stop` is set and one more connection wakes it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let listening = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut accepted = 0;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    accepted += 1;
                    drop(stream);
                }
                accepted
            })
        };
        let err = HttpChatClient::new(addr)
            .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), 1))
            .unwrap_err();
        assert!(matches!(err, LlmError::Transport(_)), "{err:?}");
        // Every failed attempt is a connection the listener accepted and
        // closed, so the count is final once the error surfaces.
        stop.store(true, Ordering::SeqCst);
        TcpStream::connect(addr).unwrap();
        assert_eq!(listening.join().unwrap(), 1);
    }

    #[test]
    fn traceparent_parses_and_rejects() {
        assert_eq!(
            parse_traceparent("00-0000000000000000000000000000002a-000000000000002a-01"),
            Some(42)
        );
        // Zero trace id means "untraced".
        assert_eq!(
            parse_traceparent("00-00000000000000000000000000000000-0000000000000000-01"),
            None
        );
        // Trace ids wider than u64 are not ours.
        assert_eq!(
            parse_traceparent("00-10000000000000000000000000000001-0000000000000001-01"),
            None
        );
        assert_eq!(parse_traceparent("garbage"), None);
        assert_eq!(parse_traceparent("00-abc-def-01"), None);
    }

    #[test]
    fn traced_request_leaves_a_child_span() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        let req = ChatRequest::new(ModelKind::Gpt4, prompt(), 5).with_trace(777, 2);
        client.complete(&req).unwrap();

        let children = client.trace_children(777).expect("trace endpoint answers");
        assert!(
            children.contains(r#""key":"0000000000000309""#),
            "{children}"
        );
        assert!(children.contains(r#""stage":"received""#), "{children}");
        assert!(children.contains(r#""stage":"queue_wait""#), "{children}");
        assert!(children.contains(r#""stage":"attempt""#), "{children}");
        assert!(children.contains(r#""detail":"2""#), "{children}");
        assert!(children.contains(r#""stage":"completed""#), "{children}");

        // An untraced id yields an empty span list, not an error.
        assert_eq!(client.trace_children(424242).as_deref(), Some("[]"));
        // Untraced requests never open spans.
        assert!(client.trace_children(0).is_none());
    }

    #[test]
    fn each_retry_attempt_is_its_own_child_span() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        for attempt in 0..3u32 {
            let req = ChatRequest::new(ModelKind::Gpt4, prompt(), 9).with_trace(555, attempt);
            client.complete(&req).unwrap();
        }
        let children = client.trace_children(555).unwrap();
        assert_eq!(
            children.matches(r#""stage":"received""#).count(),
            3,
            "{children}"
        );
        assert_eq!(
            children.matches(r#""stage":"completed""#).count(),
            3,
            "{children}"
        );
    }

    #[test]
    fn trace_endpoint_rejects_unparsable_id() {
        let server = LlmServer::new().start().unwrap();
        for path in ["/trace", "/trace?id=bogus", "/trace?x=1"] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            use std::io::Write;
            write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
            let (status, _) = read_response(&mut stream).unwrap();
            assert_eq!(status, 400, "{path}");
        }
    }

    #[test]
    fn failed_traced_request_finishes_with_error_span() {
        let server = rate_limits_first_call();
        let client = server.client();
        let req = ChatRequest::new(ModelKind::Gpt4, prompt(), 1).with_trace(31, 0);
        client.complete(&req).unwrap_err();
        let children = client.trace_children(31).unwrap();
        assert!(children.contains(r#""stage":"error""#), "{children}");
        assert!(children.contains("http 429"), "{children}");
    }

    fn scrape(addr: std::net::SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (status, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        String::from_utf8(body).unwrap()
    }

    #[test]
    fn calls_reuse_one_pooled_socket() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        for seed in 0..5 {
            client
                .complete(&ChatRequest::new(ModelKind::Gpt4, prompt(), seed).with_trace(9, 0))
                .unwrap();
        }
        // The trace lookup rides the same pool.
        assert!(client.trace_children(9).is_some());
        let text = scrape(server.addr());
        // One connection for the six calls, one for this scrape.
        assert!(text.contains("http_connections_accepted_total 2"), "{text}");
        assert!(text.contains("http_requests_served_total 6"), "{text}");
        obs::lint(&text).expect("connection counters are valid Prometheus text");
    }

    #[test]
    fn stale_pooled_socket_is_replaced_without_a_retry() {
        let server = LlmServer {
            options: ServeOptions {
                io_timeout: std::time::Duration::from_millis(25),
                ..ServeOptions::default()
            },
            ..LlmServer::new()
        }
        .start()
        .unwrap();
        // The client fails fast: a stale socket surfacing as a transport
        // error would fail the second call outright.
        let client = server.client();
        let request = ChatRequest::new(ModelKind::Gpt4, prompt(), 5);
        client.complete(&request).unwrap();
        // Wait until the server has closed the pooled socket for idling.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !scrape(server.addr()).contains(r#"http_idle_closes_total{reason="timeout"} 1"#) {
            assert!(
                std::time::Instant::now() < deadline,
                "idle socket never closed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        client.complete(&request).unwrap();
    }

    #[test]
    fn server_shuts_down_on_drop() {
        let server = LlmServer::new().start().unwrap();
        let client = server.client();
        let request = ChatRequest::new(ModelKind::Gpt4, prompt(), 1);
        // Leaves a socket in the client's pool.
        client.complete(&request).unwrap();
        drop(server);
        // Subsequent requests must fail: the pooled socket is stale and
        // replaced silently, the fresh connect is refused (or reset).
        let result = client.complete(&request);
        assert!(matches!(result, Err(LlmError::Transport(_))));
    }
}
