//! # er-service — online entity matching, cost-effectively
//!
//! The BatchER framework (`batcher_core`) proves that batching questions
//! and reusing demonstrations makes LLM-based entity resolution cheap —
//! but only exercises it in offline, one-shot experiment runs. This crate
//! is the serving layer that turns those batch economics into a system
//! serving many concurrent clients, each asking individual "are these two
//! records the same entity?" questions:
//!
//! * **Coalescing queue** ([`service`]) — in-flight questions buffer
//!   in one queue until `batch_size` accumulate or their company has
//!   stopped arriving, then flush as diversity batches planned from
//!   scratch by the paper's own machinery
//!   ([`batcher_core::plan_with_prepared_pool`]). Full batches go at
//!   once; a partial batch is held for the next flush. Concurrent traffic
//!   gets batch prompting automatically; nobody waits longer than the
//!   flush deadline, and a question nobody joins waits half of it.
//! * **Answer cache** ([`cache`]) — keyed by a canonical, symmetric,
//!   normalization-stable pair fingerprint ([`fingerprint`]); repeated
//!   and mirrored questions never pay for a second LLM call. Bounded by
//!   an exact LRU with counted evictions.
//! * **Admission control** ([`service`]) — the queue is bounded by
//!   `ServiceConfig::queue_capacity` and sheds overload (`try_submit` →
//!   429 + `Retry-After` at the HTTP front end; blocking `submit` →
//!   logistic fallback) instead of growing without bound.
//! * **Cost governor** ([`governor`]) — worst-case cost of every batch is
//!   reserved against a hard budget *before* the call; when the budget
//!   runs out the service degrades to an offline-trained logistic matcher
//!   (`baselines::logistic`) instead of failing.
//! * **Worker pool + HTTP front end** ([`http`]) — batches execute
//!   concurrently over any [`llm::ChatApi`]; the front end (`POST
//!   /match`, `GET /stats`, `GET /metrics`, `GET /trace`, `GET
//!   /healthz`) runs on the same bounded accept loop as the LLM loopback
//!   service (`llm_service::serve`).
//! * **Telemetry** ([`telemetry`]) — histogram-backed metrics (queue
//!   wait, plan wall time, LLM call latency, end-to-end answer latency,
//!   spend per batch) rendered as Prometheus text at `/metrics` with
//!   per-bucket trace exemplars on the answer histograms, plus a
//!   per-question lifecycle trace log served at `/trace`. Traces
//!   propagate across the LLM socket as `traceparent` headers, so
//!   `GET /trace?id=` assembles the cross-service span tree. Recording
//!   is lock-free; a scraper can never stall `submit`.
//! * **SLOs + flight recorder** ([`telemetry`], [`flight`]) — burn-rate
//!   evaluation of three objectives (answer latency, availability,
//!   budget) over 5m/1h windows at `GET /slo` and as gauges; anomalies
//!   (breaker open, WAL degraded, recovery violation, SLO fast burn)
//!   dump bounded flight-recorder debug bundles to disk and on demand
//!   at `GET /debug/bundle`.
//! * **Durable tier** ([`durable`]) — an embedded write-ahead log
//!   (`wal`) journals every answer and governor reserve/settle/refund
//!   event; startup replay rebuilds the cache and spend ledger so a
//!   restarted service re-buys **zero** settled answers. Enabled by
//!   setting [`ServiceConfig::wal`].
//! * **Failure hardening** — RAII reservation guards refund budget when
//!   a worker dies mid-batch ([`governor::ReservationGuard`]), and a
//!   circuit breaker ([`breaker`]) degrades to the logistic fallback
//!   during LLM outages instead of burning retries per batch. `GET
//!   /healthz` reports durability and breaker state.
//!
//! ```no_run
//! use std::sync::Arc;
//! use er_service::{ErService, ServiceConfig};
//!
//! let dataset = datagen::generate(datagen::DatasetKind::Beer, 42);
//! let api = Arc::new(llm::SimLlm::new());
//! let service = ErService::start(
//!     api,
//!     dataset.pairs()[..100].to_vec(),
//!     ServiceConfig::default(),
//! );
//! let decision = service.submit(&dataset.pairs()[100].pair);
//! println!("{:?} via {:?}", decision.label, decision.source);
//! println!("spent {} of {}", service.stats().spend(), service.stats().budget());
//! ```

pub mod breaker;
pub mod cache;
pub mod durable;
pub mod fingerprint;
pub mod flight;
pub mod governor;
pub mod http;
pub mod service;
pub mod stats;
mod sync;
pub mod telemetry;

pub use breaker::Breaker;
pub use cache::AnswerCache;
pub use durable::{DurableLog, DurableRecord, RecoveryReport, Replay, WalConfig};
pub use fingerprint::{pair_fingerprint, PairFingerprint, FINGERPRINT_VERSION};
pub use flight::FlightRecorder;
pub use governor::{CostGovernor, Reservation, ReservationGuard};
pub use http::{MatchRequestWire, MatchResponseWire, MatchServer};
pub use service::{DecisionSource, ErService, MatchDecision, ServiceConfig, SubmitOutcome};
pub use stats::{HealthReport, ServiceStats};
pub use telemetry::Telemetry;
pub use wal::{FaultSchedule, SyncPolicy, WalFault};
