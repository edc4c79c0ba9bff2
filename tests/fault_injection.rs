//! Failure-path hardening for the serving layer: panicking workers must
//! refund their reservations, an LLM outage must trip the circuit
//! breaker into the logistic fallback (and recover after the cooldown),
//! and WAL write failures must degrade — never stop — the service. In
//! every scenario the governor's conservation laws keep holding.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use batcher::er_service::breaker::{COOLDOWN, THRESHOLD};
use batcher::er_service::{
    DecisionSource, ErService, FaultSchedule, ServiceConfig, WalConfig, WalFault,
};
use batcher::llm::{ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};
use common::{assert_conserved, bootstrap, questions};

fn fast_config() -> ServiceConfig {
    ServiceConfig {
        flush_deadline: Duration::from_millis(3),
        batch_size: 4,
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// A ChatApi that panics mid-call: the worker dies at the worst moment —
/// after the governor granted its reservation.
#[derive(Debug)]
struct PanickingApi;

impl ChatApi for PanickingApi {
    fn complete(&self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        panic!("injected mid-dispatch panic");
    }
}

/// A dead endpoint: every call is a transport failure.
#[derive(Debug)]
struct OutageApi;

impl ChatApi for OutageApi {
    fn complete(&self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        Err(LlmError::Transport("connection refused".into()))
    }
}

/// Fails the first `fail_first` calls with a transport error, then
/// delegates to a healthy simulator — an outage that ends.
#[derive(Debug)]
struct ScheduledOutage {
    fail_first: u64,
    calls: AtomicU64,
    healthy: SimLlm,
}

impl ScheduledOutage {
    fn new(fail_first: u64) -> Self {
        Self { fail_first, calls: AtomicU64::new(0), healthy: SimLlm::new() }
    }
}

impl ChatApi for ScheduledOutage {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            Err(LlmError::Transport("connection reset".into()))
        } else {
            self.healthy.complete(request)
        }
    }
}

/// Regression for the reservation leak: before the RAII guard, a worker
/// panicking between reserve and settle stranded the reserved budget
/// forever (remaining + spent < budget at quiesce). The drop guard now
/// refunds it as the panic unwinds.
#[test]
fn panicking_worker_refunds_its_reservation() {
    let service = ErService::start(Arc::new(PanickingApi), bootstrap(), fast_config());
    let bank = questions(12);
    let mut decisions = Vec::new();
    for q in &bank {
        decisions.push(service.submit(q));
    }
    // Every question still got an answer — via the local fallback, since
    // the panicked batch's waiters observe their channel disconnect.
    assert!(decisions
        .iter()
        .all(|d| d.source == DecisionSource::Fallback));

    let stats = service.stats();
    assert!(stats.governor_refunds >= 1, "no refund recorded: {stats:?}");
    // The panic happened before any API spend; refunds mean the budget
    // is exactly whole again.
    assert_eq!(stats.api_micros, 0, "{stats:?}");
    assert_conserved(&stats);
}

/// An LLM outage trips the breaker: after `breaker::THRESHOLD` dead
/// batches everything short-circuits to the fallback without reserving
/// budget, and no API spend ever lands. Each submit below is a batch of
/// its own, and the last ones land well inside the cooldown.
#[test]
fn outage_trips_breaker_and_degrades_to_fallback() {
    let service = ErService::start(Arc::new(OutageApi), bootstrap(), fast_config());
    let bank = questions(24);
    let mut decisions = Vec::new();
    for q in &bank {
        decisions.push(service.submit(q));
    }
    assert!(decisions
        .iter()
        .all(|d| d.source == DecisionSource::Fallback));

    let stats = service.stats();
    assert!(stats.breaker_trips >= 1, "breaker never opened: {stats:?}");
    assert_eq!(stats.breaker_state, 1, "breaker should be open: {stats:?}");
    assert_eq!(stats.api_micros, 0, "a dead endpoint billed: {stats:?}");
    assert_eq!(stats.llm_answered, 0, "{stats:?}");
    assert_conserved(&stats);
}

/// The breaker recovers: once the outage ends and the cooldown passes, a
/// probe batch succeeds, the circuit closes, and LLM answers flow again.
/// No answer of the outage was cached (fallback verdicts never are), so
/// the same questions asked again reach the LLM afresh.
#[test]
fn breaker_recovers_after_cooldown() {
    // A transport error is not retried, so each dead batch is one dead
    // call: the breaker opens on the last of them, and every later batch
    // — including the half-open probe — finds the endpoint healthy again.
    let service = ErService::start(
        Arc::new(ScheduledOutage::new(u64::from(THRESHOLD))),
        bootstrap(),
        fast_config(),
    );
    let bank = questions(THRESHOLD as usize);
    // Phase 1: outage. One submit at a time is one dead batch at a time.
    for q in &bank {
        service.submit(q);
    }
    let during = service.stats();
    assert!(during.breaker_trips >= 1, "{during:?}");
    assert_eq!(during.llm_answered, 0, "{during:?}");

    // Phase 2: the outage is over and the cooldown has passed; the next
    // batch is the half-open probe and it succeeds.
    std::thread::sleep(COOLDOWN + Duration::from_millis(20));
    for q in &bank {
        service.submit(q);
    }
    let after = service.stats();
    assert!(
        after.llm_answered > 0,
        "breaker never let traffic back through: {after:?}"
    );
    assert_eq!(
        after.breaker_state, 0,
        "breaker should have re-closed: {after:?}"
    );
    assert_conserved(&after);
}

/// WAL write failures degrade, never fail: with injected I/O errors on
/// the journal the service keeps answering (and billing correctly), the
/// errors are counted, and `/healthz` flips to `degraded`.
#[test]
fn wal_write_failure_degrades_but_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("er-fault-walio-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Slot 1 (RunStart) healthy, then every journaled event for a while
    // hits an injected I/O error.
    let faults =
        FaultSchedule::of(std::iter::once(None).chain((0..64).map(|_| Some(WalFault::IoError))));
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { wal: Some(WalConfig { faults, ..WalConfig::at(&dir) }), ..fast_config() },
    );
    let bank = questions(12);
    for q in &bank {
        service.submit(q);
    }
    let stats = service.stats();
    assert!(stats.llm_answered > 0, "service stopped serving: {stats:?}");
    assert!(stats.wal_append_errors >= 1, "no fault landed: {stats:?}");
    assert_conserved(&stats);

    let health = service.health();
    assert_eq!(health.status, "degraded", "{health:?}");
    assert!(health.wal_enabled);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
