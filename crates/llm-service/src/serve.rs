//! A bounded-concurrency HTTP/1.1 accept loop with persistent
//! connections, shared by every HTTP service in the workspace.
//!
//! A fixed pool of connection workers is fed over a bounded channel:
//!
//! * The accept thread pushes connections into a `sync_channel` whose
//!   backlog is bounded; when all workers are busy and the backlog is
//!   full, `send` blocks the accept thread, which in turn leaves further
//!   clients queued in the listener's OS accept queue — backpressure
//!   instead of unbounded spawning.
//! * Each of `worker_threads` workers owns one connection at a time and
//!   serves requests off it until the connection ends. The lifecycle:
//!
//!   **keep** — after a reply the connection stays open (HTTP/1.1
//!   default; `Connection: keep-alive` on HTTP/1.0) and keeps its read
//!   buffer, so a pipelined next request is already there. It closes
//!   after the reply — announced with `Connection: close` — when the
//!   client asked for that, when the request could not be framed (where
//!   the next one starts is then unknown), when the server is stopping,
//!   or to yield (below).
//!
//!   **idle slice** — between requests the worker waits for the next
//!   byte in slices of [`IDLE_SLICE`], not in one `io_timeout` read, and
//!   between slices looks at the stop flag (shutdown joins the workers
//!   and must not wait out `io_timeout`) and at the idle limit, which is
//!   `io_timeout` itself. Once a request has begun it has one
//!   `io_timeout` in all to arrive: every read's socket timeout is what
//!   is left of that deadline, so a client dripping a byte at a time is
//!   answered 408 after `io_timeout`, not after `io_timeout` per byte.
//!
//!   **yield** — an idle connection must not pin a worker others are
//!   queued for. While every worker owns a connection and the accept
//!   channel is non-empty, a reply says `Connection: close`, and a worker
//!   whose kept connection has nothing buffered closes it at the next
//!   slice and takes a waiting one.
//!   Clients see the latter as a stale socket and reconnect
//!   (`HttpChatClient` does so without counting a retry). A connection
//!   that has not had its first reply yet is never yielded.
//!
//! Both the LLM loopback service (`crate::server`) and the entity-match
//! service (`er-service`) build their front ends on [`spawn_http_server`].

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Counter, Registry};

use crate::http::{write_response, HttpRequest, HttpResponse, MessageReader, ReadError};

/// How long a worker sleeps in one read on an idle connection before it
/// re-checks the stop flag, the accept queue and the idle limit. Bounds
/// shutdown latency and how long a queued client waits behind idle ones.
const IDLE_SLICE: Duration = Duration::from_millis(20);

/// Concurrency limits of a [`spawn_http_server`] instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Number of connection-handling worker threads (the hard cap on
    /// concurrent in-flight requests).
    pub worker_threads: usize,
    /// Accepted connections allowed to wait for a free worker before the
    /// accept loop itself blocks.
    pub backlog: usize,
    /// How long one request may take to arrive once its first byte has,
    /// the per-write timeout of a reply, and the limit on how long a
    /// connection may sit idle between requests. With a fixed pool, a
    /// client that connects and goes silent — or drips its request —
    /// would otherwise hold a worker hostage.
    pub io_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self { worker_threads: 16, backlog: 64, io_timeout: Duration::from_secs(5) }
    }
}

/// Why a connection was closed while no request was in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleClose {
    /// Idle for `io_timeout`.
    Timeout,
    /// Another connection was waiting for a worker.
    Yield,
    /// The server is stopping.
    Shutdown,
    /// The client closed (or reset) it.
    Client,
}

/// Connection-level counters of one front end, so connection reuse
/// (requests per accepted connection) is a scraped number.
#[derive(Debug, Clone)]
pub struct ConnMetrics {
    accepted: Arc<Counter>,
    requests: Arc<Counter>,
    /// Indexed by `IdleClose as usize`.
    idle_closes: [Arc<Counter>; 4],
}

impl ConnMetrics {
    /// Registers the `http_*` families on `registry`.
    pub fn register(registry: &Registry) -> Self {
        let idle = |reason| {
            registry.counter(
                "http_idle_closes_total",
                "Connections closed while no request was in progress, by reason.",
                &[("reason", reason)],
            )
        };
        Self {
            accepted: registry.counter(
                "http_connections_accepted_total",
                "TCP connections accepted by the HTTP front end.",
                &[],
            ),
            requests: registry.counter(
                "http_requests_served_total",
                "HTTP requests answered over all connections, any status.",
                &[],
            ),
            idle_closes: [
                idle("timeout"),
                idle("yield"),
                idle("shutdown"),
                idle("client"),
            ],
        }
    }
}

/// A running HTTP server; dropping it stops the accept loop, drains the
/// workers and joins every thread.
#[derive(Debug)]
pub struct HttpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl HttpServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The accept thread dropped the channel sender on exit; workers
        // drain what is queued, notice the stop flag within one idle
        // slice, and stop.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// What every worker of one server shares.
struct Shared<H> {
    handler: Arc<H>,
    metrics: ConnMetrics,
    stop: Arc<AtomicBool>,
    /// Connections accepted but not yet picked up by a worker.
    waiting: AtomicUsize,
    /// Workers that currently own a connection, busy or idle.
    serving: AtomicUsize,
    workers: usize,
    io_timeout: Duration,
}

impl<H> Shared<H> {
    /// Whether a connection is queued that no free worker will take:
    /// the signal for idle kept connections to yield. (A connection
    /// merely in flight between the accept thread and a free worker
    /// does not count.)
    fn starved(&self) -> bool {
        self.waiting.load(Ordering::SeqCst) > 0
            && self.serving.load(Ordering::SeqCst) >= self.workers
    }
}

/// Binds `127.0.0.1:0` and serves `handler` over a bounded worker pool.
///
/// The handler sees one parsed [`HttpRequest`] at a time and returns the
/// [`HttpResponse`] to write back; unreadable requests are answered (400,
/// 408, 413 or 431) before the handler is consulted, and close the
/// connection.
pub fn spawn_http_server<H>(
    handler: Arc<H>,
    options: ServeOptions,
    metrics: ConnMetrics,
) -> std::io::Result<HttpServerHandle>
where
    H: Fn(HttpRequest) -> HttpResponse + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        handler,
        metrics,
        stop: Arc::clone(&stop),
        waiting: AtomicUsize::new(0),
        serving: AtomicUsize::new(0),
        workers: options.worker_threads.max(1),
        // A zero duration would mean "no timeout" to the OS; clamp up.
        io_timeout: options.io_timeout.max(Duration::from_millis(1)),
    });

    // Each queued connection carries its accept timestamp so the worker
    // that picks it up can report the backlog wait.
    type QueuedConn = (TcpStream, Instant);
    let (tx, rx): (SyncSender<QueuedConn>, Receiver<QueuedConn>) =
        sync_channel(options.backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..shared.workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || loop {
                // Hold the receiver lock only while dequeuing.
                let conn = {
                    let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv()
                };
                let Ok((stream, accepted)) = conn else {
                    break;
                };
                // Owner first, then no longer waiting: `starved` must
                // never see this connection as neither.
                shared.serving.fetch_add(1, Ordering::SeqCst);
                shared.waiting.fetch_sub(1, Ordering::SeqCst);
                let queued_us = accepted.elapsed().as_micros() as u64;
                serve_connection(stream, queued_us, &shared);
                shared.serving.fetch_sub(1, Ordering::SeqCst);
            })
        })
        .collect();

    let accept_handle = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            shared.metrics.accepted.inc();
            // Counted before the send so a connection blocked on a full
            // backlog already asks idle workers to yield.
            shared.waiting.fetch_add(1, Ordering::SeqCst);
            // Blocks when every worker is busy and the backlog is full:
            // deliberate backpressure instead of unbounded threads. The
            // accept stamp lets workers report time spent waiting here.
            if tx.send((stream, Instant::now())).is_err() {
                break;
            }
        }
        // Dropping `tx` here disconnects the workers' receive loop.
    });

    Ok(HttpServerHandle { addr, stop, accept_handle: Some(accept_handle), worker_handles })
}

/// The server's side of a connection: while `deadline` is set, each read
/// may block only for what is left of it and fails with `TimedOut` once
/// it has passed; while it is not, the socket's own read timeout applies.
struct Deadlined {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for Deadlined {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
        }
        self.stream.read(buf)
    }
}

/// Serves requests off one connection until it ends (module docs: keep,
/// idle slice, yield).
fn serve_connection<H>(stream: TcpStream, queued_us: u64, shared: &Shared<H>)
where
    H: Fn(HttpRequest) -> HttpResponse,
{
    // Replies go out as one write each, but a kept socket must not sit
    // on it waiting for the peer's delayed ACK either.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let mut conn = MessageReader::new(Deadlined { stream, deadline: None });
    let mut served = 0u64;
    loop {
        if conn.buffered() == 0 {
            if let Err(reason) = await_request(&mut conn, served > 0, shared) {
                shared.metrics.idle_closes[reason as usize].inc();
                return;
            }
        }
        // The request has begun: what is left of it has one `io_timeout`
        // to arrive, however many reads that takes.
        conn.get_mut().deadline = Some(Instant::now() + shared.io_timeout);
        let (response, keep) = match conn.read_request() {
            Ok(mut request) => {
                // Only a connection's first request sat in the backlog.
                request.queued_us = if served == 0 { queued_us } else { 0 };
                let keep = request.keep_alive;
                ((shared.handler)(request), keep)
            }
            Err(e) => (unreadable(&e), false),
        };
        served += 1;
        shared.metrics.requests.inc();
        let keep = keep
            && !shared.stop.load(Ordering::SeqCst)
            && (conn.buffered() > 0 || !shared.starved());
        if write_response(&mut conn.get_mut().stream, &response, keep).is_err() || !keep {
            return;
        }
    }
}

/// Waits, in idle slices, for the first byte of the connection's next
/// request; `Err` says why the connection closes instead. `kept` is
/// whether it has been answered before — only then may it be yielded.
fn await_request<H>(
    conn: &mut MessageReader<Deadlined>,
    kept: bool,
    shared: &Shared<H>,
) -> Result<(), IdleClose> {
    let idle_since = Instant::now();
    let idle = conn.get_mut();
    idle.deadline = None;
    let _ = idle
        .stream
        .set_read_timeout(Some(IDLE_SLICE.min(shared.io_timeout)));
    loop {
        match conn.fill() {
            Ok(0) => return Err(IdleClose::Client),
            Ok(_) => return Ok(()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Err(IdleClose::Shutdown);
                }
                if kept && shared.starved() {
                    return Err(IdleClose::Yield);
                }
                if idle_since.elapsed() >= shared.io_timeout {
                    return Err(IdleClose::Timeout);
                }
            }
            Err(_) => return Err(IdleClose::Client),
        }
    }
}

/// The reply to a request that could not be read.
fn unreadable(error: &ReadError) -> HttpResponse {
    let status = match error {
        ReadError::Malformed { status, .. } => *status,
        ReadError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => 408,
        ReadError::Io(_) => 400,
    };
    // Serialized through the wire types, not by string pasting —
    // io::Error text may contain JSON-significant characters.
    let body = crate::wire::WireError {
        error: crate::wire::WireErrorBody {
            message: format!("unreadable request: {error}"),
            code: "invalid_request_error".into(),
        },
    };
    HttpResponse::json(
        status,
        serde_json::to_vec(&body).expect("error body serializes"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, HttpReply};
    use std::io::Write;

    fn metered_echo_server(options: ServeOptions) -> (HttpServerHandle, ConnMetrics) {
        let metrics = ConnMetrics::register(&Registry::new());
        let server = spawn_http_server(
            Arc::new(|req: HttpRequest| {
                HttpResponse::json(200, format!("{} {}", req.method, req.path).into_bytes())
            }),
            options,
            metrics.clone(),
        )
        .unwrap();
        (server, metrics)
    }

    fn echo_server(options: ServeOptions) -> HttpServerHandle {
        metered_echo_server(options).0
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
        read_response(&mut stream).unwrap()
    }

    /// A client that keeps its socket, as a keep-alive caller would.
    fn connect(addr: SocketAddr) -> MessageReader<TcpStream> {
        MessageReader::new(TcpStream::connect(addr).unwrap())
    }

    fn send(conn: &mut MessageReader<TcpStream>, raw: &str) -> HttpReply {
        conn.get_mut().write_all(raw.as_bytes()).unwrap();
        conn.read_response().unwrap()
    }

    fn closed_by_server(conn: &mut MessageReader<TcpStream>) -> bool {
        matches!(conn.fill(), Ok(0))
    }

    fn idle_closes(metrics: &ConnMetrics, reason: IdleClose) -> u64 {
        metrics.idle_closes[reason as usize].get()
    }

    #[test]
    fn serves_requests() {
        let server = echo_server(ServeOptions::default());
        let (status, body) = get(server.addr(), "/hello");
        assert_eq!(status, 200);
        assert_eq!(body, b"GET /hello");
    }

    #[test]
    fn bounded_pool_survives_a_connection_burst() {
        // More simultaneous clients than workers + backlog: every request
        // must still be answered, one way or another, without the server
        // spawning per-connection threads.
        let server =
            echo_server(ServeOptions { worker_threads: 2, backlog: 2, ..ServeOptions::default() });
        let addr = server.addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..32)
                .map(|i| {
                    scope.spawn(move || {
                        let (status, body) = get(addr, &format!("/r{i}"));
                        assert_eq!(status, 200);
                        assert_eq!(body, format!("GET /r{i}").into_bytes());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn silent_connections_release_workers_and_shutdown() {
        // Clients that connect and send nothing must not hold workers
        // hostage: the io_timeout frees them, later requests are served,
        // and dropping the server terminates promptly.
        let server = echo_server(ServeOptions {
            worker_threads: 2,
            backlog: 2,
            io_timeout: Duration::from_millis(100),
        });
        let addr = server.addr();
        // Occupy both workers with silent connections.
        let _stalled_a = TcpStream::connect(addr).unwrap();
        let _stalled_b = TcpStream::connect(addr).unwrap();
        // A real request still completes once the timeouts fire.
        let (status, _) = get(addr, "/after-stall");
        assert_eq!(status, 200);
        // Drop with the stalled sockets still open: must not hang.
        let start = std::time::Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "shutdown blocked on silent connections"
        );
    }

    #[test]
    fn unreadable_requests_are_answered_and_close_the_connection() {
        let server = echo_server(ServeOptions::default());
        // Every case fits one read: a server that closes with request
        // bytes unread resets the connection, which can cost the reply.
        let many_headers = format!("GET / HTTP/1.1\r\n{}\r\n", "X: 1\r\n".repeat(101));
        let cases = [
            ("\r\n\r\n", 400),
            (
                "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ),
            (
                "POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
                413,
            ),
            (many_headers.as_str(), 431),
        ];
        for (raw, status) in cases {
            let reply = send(&mut connect(server.addr()), raw);
            assert_eq!(reply.status, status, "{}", &raw[..raw.len().min(40)]);
            assert!(!reply.keep_alive);
        }
    }

    #[test]
    fn half_read_request_times_out_with_408() {
        let server = echo_server(ServeOptions {
            io_timeout: Duration::from_millis(25),
            ..ServeOptions::default()
        });
        let reply = send(&mut connect(server.addr()), "GET /slow HTTP/1.1\r\nX-Half:");
        assert_eq!(reply.status, 408);
        assert!(!reply.keep_alive);
    }

    #[test]
    fn requests_on_one_socket_are_one_accept() {
        let (server, metrics) = metered_echo_server(ServeOptions::default());
        let mut conn = connect(server.addr());
        for i in 0..5 {
            let reply = send(&mut conn, &format!("GET /r{i} HTTP/1.1\r\n\r\n"));
            assert_eq!(reply.body, format!("GET /r{i}").into_bytes());
            assert!(reply.keep_alive);
        }
        assert_eq!(metrics.accepted.get(), 1);
        assert_eq!(metrics.requests.get(), 5);
    }

    #[test]
    fn close_requests_and_http10_close_after_the_reply() {
        let (server, metrics) = metered_echo_server(ServeOptions::default());
        for raw in [
            "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n",
            "GET /a HTTP/1.0\r\n\r\n",
        ] {
            let mut conn = connect(server.addr());
            let reply = send(&mut conn, raw);
            assert_eq!(reply.status, 200);
            assert!(!reply.keep_alive, "{raw}");
            assert!(closed_by_server(&mut conn), "{raw}");
        }
        // HTTP/1.0 that asks for it is kept.
        let mut conn = connect(server.addr());
        for _ in 0..2 {
            let reply = send(
                &mut conn,
                "GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            );
            assert!(reply.keep_alive);
        }
        assert_eq!(metrics.accepted.get(), 3);
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = echo_server(ServeOptions::default());
        let mut conn = connect(server.addr());
        conn.get_mut()
            .write_all(b"GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(conn.read_response().unwrap().body, b"GET /first");
        assert_eq!(conn.read_response().unwrap().body, b"GET /second");
    }

    #[test]
    fn idle_socket_is_closed_at_io_timeout() {
        let io_timeout = 2 * IDLE_SLICE;
        let (server, metrics) =
            metered_echo_server(ServeOptions { io_timeout, ..ServeOptions::default() });
        let mut conn = connect(server.addr());
        assert!(send(&mut conn, "GET /once HTTP/1.1\r\n\r\n").keep_alive);
        let idle_from = Instant::now();
        assert!(closed_by_server(&mut conn));
        let idle_for = idle_from.elapsed();
        // Not before the limit (less the reply's own flight time), and
        // within a few slices after it.
        assert!(idle_for >= io_timeout - IDLE_SLICE, "{idle_for:?}");
        assert!(idle_for < io_timeout + 10 * IDLE_SLICE, "{idle_for:?}");
        assert_eq!(idle_closes(&metrics, IdleClose::Timeout), 1);
    }

    #[test]
    fn idle_kept_sockets_yield_to_a_waiting_client() {
        let (server, metrics) =
            metered_echo_server(ServeOptions { worker_threads: 2, ..ServeOptions::default() });
        // Both workers end up parked on an idle kept connection.
        let mut kept: Vec<_> = (0..2).map(|_| connect(server.addr())).collect();
        for conn in &mut kept {
            assert!(send(conn, "GET /keep HTTP/1.1\r\n\r\n").keep_alive);
        }
        let asked = Instant::now();
        let (status, _) = get(server.addr(), "/third");
        assert_eq!(status, 200);
        assert!(
            asked.elapsed() < 10 * IDLE_SLICE,
            "third client waited {:?} behind idle connections",
            asked.elapsed()
        );
        assert!(idle_closes(&metrics, IdleClose::Yield) >= 1);
        // The connection that yielded is closed; the other one is not, so
        // do not wait on it.
        for conn in &mut kept {
            conn.get_mut().set_read_timeout(Some(IDLE_SLICE)).unwrap();
        }
        assert!(kept.iter_mut().any(closed_by_server));
    }

    #[test]
    fn drop_with_idle_kept_sockets_is_prompt() {
        let (server, metrics) = metered_echo_server(ServeOptions::default());
        let mut kept: Vec<_> = (0..3).map(|_| connect(server.addr())).collect();
        for conn in &mut kept {
            assert!(send(conn, "GET /keep HTTP/1.1\r\n\r\n").keep_alive);
        }
        let started = Instant::now();
        drop(server);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "shutdown waited {:?} on idle kept connections",
            started.elapsed()
        );
        assert_eq!(idle_closes(&metrics, IdleClose::Shutdown), 3);
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let server =
            echo_server(ServeOptions { worker_threads: 3, backlog: 4, ..ServeOptions::default() });
        let addr = server.addr();
        let (status, _) = get(addr, "/x");
        assert_eq!(status, 200);
        drop(server);
        // The port is released: connections are refused or reset.
        let alive = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = write!(s, "GET /y HTTP/1.1\r\n\r\n");
                read_response(&mut s).is_ok()
            })
            .unwrap_or(false);
        assert!(!alive, "server still answering after drop");
    }
}
