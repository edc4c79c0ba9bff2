//! HTTP front end for the matching service.
//!
//! Built on the same request/response plumbing and bounded accept loop as
//! the LLM loopback service (`llm_service::http` / `llm_service::serve`),
//! so connections are persistent: a client sends its next request on the
//! same socket, and reconnects when an idle one was closed under it (see
//! `llm_service::serve` for the keep / idle-slice / yield lifecycle).
//!
//! * `POST /match` — body `{"schema": [...], "left": [...], "right": [...]}`;
//!   answers `{"label": "matching"|"non_matching", "source":
//!   "cache"|"llm"|"fallback", "fingerprint": "<hex>", "trace_id": n}`.
//!   When the coalescing queue is at its admission bound the request is
//!   shed with `429` + a JSON error body and a `Retry-After` header
//!   (seconds) instead of queueing without bound.
//! * `GET /stats` — the [`ServiceStats`] snapshot as JSON.
//! * `GET /metrics` — Prometheus text exposition of every metric family.
//! * `GET /trace?n=K` — the `K` most recent completed lifecycle spans as
//!   JSON, newest first (default 32, clamped to the ring capacity).
//! * `GET /trace?id=N` — the assembled cross-service span tree for one
//!   trace: the local span plus the llm-service child spans the
//!   propagated traceparent produced (or a `shared_llm_trace` reference
//!   for coalesced duplicates). `404` for unknown ids, `400` for
//!   unparsable ones.
//! * `GET /slo` — every objective's multi-window burn-rate status.
//! * `GET /debug/bundle` — the flight recorder's debug bundle, assembled
//!   on demand (the same document anomaly triggers dump to disk).
//! * `GET /healthz` — readiness + durability: WAL health and last-fsync
//!   age, circuit-breaker state, and startup-recovery counters (the
//!   [`crate::stats::HealthReport`] payload).

use std::sync::Arc;

use er_core::{EntityPair, MatchLabel, PairId, Record, RecordId, Schema};
use llm_service::http::{HttpRequest, HttpResponse};
use llm_service::serve::{spawn_http_server, HttpServerHandle, ServeOptions};
use serde::{Deserialize, Serialize};

use crate::service::{ErService, MatchDecision, SubmitOutcome};
use crate::stats::ServiceStats;

/// `POST /match` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchRequestWire {
    /// Attribute names shared by both records.
    pub schema: Vec<String>,
    /// Left record's values, aligned with `schema`.
    pub left: Vec<String>,
    /// Right record's values, aligned with `schema`.
    pub right: Vec<String>,
}

/// `POST /match` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchResponseWire {
    /// `"matching"` or `"non_matching"`.
    pub label: String,
    /// `"cache"`, `"llm"` or `"fallback"`.
    pub source: String,
    /// Canonical question fingerprint (hex), for client-side dedup.
    pub fingerprint: String,
    /// Lifecycle span id for `/trace` correlation (never 0 from this
    /// server; a body without it reads as 0).
    #[serde(default)]
    pub trace_id: u64,
}

/// Error body shared with the LLM service's wire dialect.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorWire {
    /// Human-readable message.
    pub error: String,
}

impl MatchResponseWire {
    fn from_decision(decision: &MatchDecision) -> Self {
        Self {
            label: match decision.label {
                MatchLabel::Matching => "matching".to_owned(),
                MatchLabel::NonMatching => "non_matching".to_owned(),
            },
            source: decision.source.name().to_owned(),
            fingerprint: decision.fingerprint.to_string(),
            trace_id: decision.trace_id,
        }
    }
}

/// Converts a wire request into an [`EntityPair`].
pub fn wire_to_pair(wire: &MatchRequestWire) -> Result<EntityPair, String> {
    let schema =
        Arc::new(Schema::new(wire.schema.iter().cloned()).map_err(|e| format!("bad schema: {e}"))?);
    let left = Record::new(RecordId::a(0), Arc::clone(&schema), wire.left.clone())
        .map_err(|e| format!("bad left record: {e}"))?;
    let right = Record::new(RecordId::b(0), Arc::clone(&schema), wire.right.clone())
        .map_err(|e| format!("bad right record: {e}"))?;
    EntityPair::new(PairId(0), Arc::new(left), Arc::new(right))
        .map_err(|e| format!("bad pair: {e}"))
}

/// A running HTTP front end; dropping it stops the listener (the
/// underlying [`ErService`] keeps running until its own handle drops).
#[derive(Debug)]
pub struct MatchServer {
    server: HttpServerHandle,
}

impl MatchServer {
    /// Binds `127.0.0.1:0` and serves `service` with the given
    /// connection-pool limits.
    pub fn start(service: Arc<ErService>, options: ServeOptions) -> std::io::Result<Self> {
        let metrics = service.telemetry().http.clone();
        let server = spawn_http_server(
            Arc::new(move |request: HttpRequest| route(&service, request)),
            options,
            metrics,
        )?;
        Ok(Self { server })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }
}

fn route(service: &ErService, request: HttpRequest) -> HttpResponse {
    match (request.method.as_str(), request.route_path()) {
        ("POST", "/match") => {
            let wire: MatchRequestWire = match serde_json::from_slice(&request.body) {
                Ok(w) => w,
                Err(e) => return error(400, &format!("invalid JSON body: {e}")),
            };
            let pair = match wire_to_pair(&wire) {
                Ok(p) => p,
                Err(message) => return error(400, &message),
            };
            match service.try_submit(&pair) {
                SubmitOutcome::Decided(decision) => {
                    json(200, &MatchResponseWire::from_decision(&decision))
                }
                SubmitOutcome::Shed { retry_after_ms } => {
                    let retry_secs = retry_after_ms.div_ceil(1000).max(1);
                    error(429, "queue full; retry later")
                        .with_header("Retry-After", retry_secs.to_string())
                }
            }
        }
        ("GET", "/stats") => {
            let stats: ServiceStats = service.stats();
            json(200, &stats)
        }
        ("GET", "/metrics") => HttpResponse::text(200, service.render_metrics().into_bytes()),
        ("GET", "/trace") => {
            // `?id=` assembles one cross-service span tree; `?n=` lists
            // recent spans. Unparsable values are client errors, not
            // silent defaults.
            if let Some(raw) = request.query_param("id") {
                return match raw.parse::<u64>() {
                    Ok(id) => match service.trace_tree_json(id) {
                        Some(body) => HttpResponse::json(200, body.into_bytes()),
                        None => error(404, &format!("no retained span with trace id {id}")),
                    },
                    Err(_) => error(400, "trace id must be a decimal u64"),
                };
            }
            match request.query_param("n").map(|v| v.parse::<usize>()) {
                None => HttpResponse::json(200, service.trace_json(32).into_bytes()),
                Some(Ok(n)) => HttpResponse::json(200, service.trace_json(n).into_bytes()),
                Some(Err(_)) => error(400, "trace count must be a non-negative integer"),
            }
        }
        ("GET", "/slo") => HttpResponse::json(200, service.slo_json().into_bytes()),
        ("GET", "/debug/bundle") => {
            HttpResponse::json(200, service.debug_bundle_json("on_demand").into_bytes())
        }
        ("GET", "/healthz") => json(200, &service.health()),
        ("GET", _) | ("POST", _) => error(404, &format!("no such route: {}", request.path)),
        _ => error(405, "method not allowed"),
    }
}

fn json<T: Serialize>(status: u16, value: &T) -> HttpResponse {
    HttpResponse::json(
        status,
        serde_json::to_vec(value).expect("wire types serialize"),
    )
}

fn error(status: u16, message: &str) -> HttpResponse {
    json(status, &ErrorWire { error: message.to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `POST /match` does with `body` before it reaches the service:
    /// the pair to submit, or the 400 it answers.
    fn decode(body: &[u8]) -> Result<EntityPair, String> {
        let wire: MatchRequestWire = serde_json::from_slice(body).map_err(|e| e.to_string())?;
        wire_to_pair(&wire)
    }

    fn values() -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec("\\PC{0,12}", 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes never panic the decoder and never pass for a
        /// question.
        #[test]
        fn hostile_match_bodies_are_refused(body in prop::collection::vec(any::<u8>(), 0..200)) {
            prop_assert!(decode(&body).is_err());
        }

        /// A well-formed body decodes exactly when its schema is non-empty
        /// and duplicate-free and both records match its arity; one byte
        /// overwritten or a cut never panics, and what still decodes is a
        /// pair of that arity.
        #[test]
        fn mutated_match_bodies_decode_or_are_refused(
            schema in prop::collection::vec("[a-c]{1,2}", 0..5),
            left in values(),
            right in values(),
            at in 0usize..2000,
            byte in any::<u8>(),
            cut in prop::bool::ANY,
        ) {
            let wire = MatchRequestWire { schema, left, right };
            let mut body = serde_json::to_vec(&wire).map_err(|e| e.to_string())?;
            let distinct = wire.schema.iter().collect::<std::collections::BTreeSet<_>>().len();
            let well_formed = !wire.schema.is_empty()
                && distinct == wire.schema.len()
                && wire.left.len() == wire.schema.len()
                && wire.right.len() == wire.schema.len();
            match decode(&body) {
                Ok(pair) => {
                    prop_assert!(well_formed);
                    prop_assert_eq!(pair.a().values(), &wire.left[..]);
                    prop_assert_eq!(pair.b().values(), &wire.right[..]);
                }
                Err(message) => prop_assert!(!well_formed, "{}", message),
            }

            let at = at % body.len();
            if cut {
                body.truncate(at);
            } else {
                body[at] = byte;
            }
            if let Ok(pair) = decode(&body) {
                let arity = pair.a().schema().arity();
                prop_assert!(arity > 0);
                prop_assert_eq!(pair.a().values().len(), arity);
                prop_assert_eq!(pair.b().values().len(), arity);
            }
        }
    }
}
