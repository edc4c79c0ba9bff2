//! OpenAI-style HTTP loopback service around the LLM simulator.
//!
//! The paper's framework talks to LLMs over an HTTP JSON API; this crate
//! reproduces that deployment seam so the client stack (request encoding,
//! transport errors, status-code mapping, retries) is exercised for real:
//!
//! * [`LlmServer`] — a minimal HTTP/1.1 server on `127.0.0.1` that serves
//!   `POST /v1/chat/completions` from a [`llm::SimLlm`].
//! * [`HttpChatClient`] — a [`llm::ChatApi`] implementation speaking that
//!   protocol over `std::net::TcpStream`.
//!
//! The HTTP implementation is intentionally small (HTTP/1.1,
//! `Content-Length` bodies, persistent connections) — enough to be a
//! faithful stand-in for the production seam without pulling a web stack
//! into an offline reproduction. A connection is kept across requests on
//! both sides: the server's workers each serve one connection until it
//! ends, waiting between requests in short idle slices so that shutdown,
//! the idle limit (`ServeOptions::io_timeout`) and queued clients (idle
//! connections yield to them) are all noticed promptly — see [`serve`];
//! the client pools idle sockets and silently replaces one the server
//! closed in the meantime — see [`HttpChatClient`]. TLS and
//! authentication are out of scope; a production client would implement
//! [`llm::ChatApi`] against the real endpoint instead.
//!
//! The request/response plumbing ([`http`]) and the bounded-concurrency
//! accept loop ([`serve`]) are exposed for reuse — the `er-service`
//! entity-matching front end is built on the same primitives.

pub mod http;
pub mod serve;
pub mod server;
pub mod wire;

pub use http::{HttpRequest, HttpResponse};
pub use serve::{spawn_http_server, ConnMetrics, HttpServerHandle, ServeOptions};
pub use server::{HttpChatClient, LlmServer, RetryPolicy, RunningServer};
