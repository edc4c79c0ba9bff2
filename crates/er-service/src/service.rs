//! The online entity-matching service.
//!
//! Request flow (one `are these two records the same?` question):
//!
//! ```text
//! submit(pair)
//!   ├─ answer cache hit ──────────────────────────────▶ MatchDecision (Cache)
//!   ├─ queue at `queue_capacity` ─▶ shed (429) / local fallback
//!   └─ miss ─▶ coalescing queue ─▶ dispatcher drain
//!                (batch_size reached, or arrivals gone quiet — at the
//!                 latest one flush deadline after the oldest)
//!                  │ plan, on the dispatcher thread: dedupe by
//!                  │ fingerprint, attach to identical held or in-flight
//!                  │ questions, then diversity batches + demos over
//!                  │ everything held, from scratch
//!                  │ (batcher_core::plan_with_prepared_pool); full
//!                  │ batches go, a partial one is held for the next flush
//!                  ▼
//!              worker pool ─▶ cost governor reserve
//!                  ├─ granted: LLM batch call ─▶ answers ─▶ cache fill
//!                  │                                        (Llm)
//!                  └─ denied (budget): logistic fallback ─▶ (Fallback)
//! ```
//!
//! There is one of each: one queue, one dispatcher thread — which is
//! also the planner, and the only owner of the questions it holds —, one
//! in-flight map, one answer cache, one reserve path. Concurrent clients
//! thereby get the paper's batch economics without coordinating: whoever
//! happens to be in flight together shares one prompt's task description
//! and demonstrations — and the saving comes from *full* batches, which
//! is why co-batchable traffic is never split. The budget is a hard cap —
//! when projected spend would cross it the service degrades to the
//! offline-trained logistic matcher instead of failing requests.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use baselines::features::base_features;
use baselines::logistic::{LogisticModel, TrainConfig};
use batcher_core::{
    build_batch_prompt, plan_with_prepared_pool, task_description, BatchPlanConfig, DistanceKind,
    ExecutionOutcome, Executor, ExtractorKind, PreparedPool,
};
use er_core::{
    CostLedger, EntityPair, LabeledPair, MatchLabel, Money, SharedCostLedger, TokenCount,
    LABEL_COST_PER_PAIR,
};
use llm::{count_tokens, ChatApi, ModelKind, PriceTable};

use crate::breaker::Breaker;
use crate::cache::AnswerCache;
use crate::durable::{DurableLog, DurableRecord, RecoveryReport, WalConfig};
use crate::fingerprint::{pair_fingerprint, PairFingerprint, FINGERPRINT_VERSION};
use crate::flight::FlightRecorder;
use crate::governor::CostGovernor;
use crate::stats::{HealthReport, ServiceStats};
use crate::sync::lock;
use crate::telemetry::{FlushTrigger, Telemetry, SLO_LATENCY_US};

/// Who produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionSource {
    /// Served from the answer cache — zero incremental cost.
    Cache,
    /// Answered by the LLM as part of a coalesced batch.
    Llm,
    /// Answered by the local logistic matcher (budget exhausted, or the
    /// LLM returned nothing parseable for this question).
    Fallback,
}

impl DecisionSource {
    /// Stable lowercase name used on the wire.
    pub fn name(self) -> &'static str {
        match self {
            DecisionSource::Cache => "cache",
            DecisionSource::Llm => "llm",
            DecisionSource::Fallback => "fallback",
        }
    }
}

/// The service's answer to one pair question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchDecision {
    /// The verdict.
    pub label: MatchLabel,
    /// Who produced it.
    pub source: DecisionSource,
    /// The canonical fingerprint of the question.
    pub fingerprint: PairFingerprint,
    /// Id of the submitting call's lifecycle span (0 when tracing is
    /// off), echoed on the wire so clients can correlate with `/trace`.
    pub trace_id: u64,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Model the worker pool calls.
    pub model: ModelKind,
    /// Questions per coalesced batch (the paper's `b`; §VI-A uses 8).
    pub batch_size: usize,
    /// Maximum time a question waits for co-batched traffic — in the
    /// queue, or held by the dispatcher in a partial batch — before it is
    /// dispatched in whatever batch it has. An upper bound, not the usual
    /// wait: everything waiting leaves as soon as arrivals have been quiet
    /// for as long as the oldest question has left to wait, and for at
    /// least as long as two consecutive arrivals were ever apart — a lone
    /// miss after half this value.
    pub flush_deadline: Duration,
    /// Hard cap on total spend (API + labeling).
    pub budget: Money,
    /// Master determinism seed (batch planning and LLM sampling).
    pub seed: u64,
    /// Answer-cache switch (disable to measure its savings).
    pub cache_enabled: bool,
    /// Maximum answer-cache entries: a hard cap, least recently used
    /// entry evicted first (counted in `cache_evictions`).
    pub cache_capacity: usize,
    /// Executor retries per batch.
    pub max_retries: u32,
    /// LLM worker threads: batches in flight concurrently (workers only
    /// execute batches; planning runs on the dispatcher thread).
    pub workers: usize,
    /// Domain word used in the prompt's task description.
    pub domain: String,
    /// Telemetry switch: metrics registry + lifecycle tracing. Off, every
    /// handle is a single-branch no-op (the serving bench prices this) —
    /// so `/stats` reads 0 for every field the registry backs
    /// (`submitted`, `llm_answered`, `cache_*`, `plans`, `budget_denials`,
    /// `shed_total`, every percentile, ...), `/metrics` renders every
    /// family at 0 and `/trace` is empty. Ledger, budget, WAL-enabled,
    /// recovery, breaker-state and `queue_depth_peak` fields stay live
    /// (DESIGN §6; the split is pinned in `tests/er_service.rs`).
    pub telemetry: bool,
    /// Completed lifecycle spans retained for `GET /trace`.
    pub trace_capacity: usize,
    /// Durable write-ahead log. `Some` journals every answer and
    /// reserve/settle/refund event and replays them at startup, so a
    /// restart re-buys zero settled answers; `None` keeps all state in
    /// memory (the pre-durability behavior).
    pub wal: Option<WalConfig>,
    /// Consecutive dead-endpoint batches (no answers, no billed calls)
    /// before the circuit breaker opens and batches short-circuit to the
    /// logistic fallback without reserving budget. Must be positive.
    pub breaker_threshold: u32,
    /// How long an open breaker holds before admitting a probe batch.
    pub breaker_cooldown: Duration,
    /// Where the flight recorder writes anomaly debug bundles. `None`
    /// keeps bundles in memory only (still fetchable at
    /// `GET /debug/bundle`).
    pub flight_dir: Option<std::path::PathBuf>,
    /// Admission bound: submits arriving while this many questions are
    /// waiting in the coalescing queue (not yet drained by the
    /// dispatcher) are shed — `try_submit` returns
    /// [`SubmitOutcome::Shed`], which the HTTP front end maps to `429` +
    /// `Retry-After`; blocking `submit` degrades to the local fallback.
    /// The dispatcher drains only between plans, so everything that
    /// arrives while a plan runs is counted; planned batches waiting for
    /// a worker are not. Must be positive.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Gpt35Turbo0301,
            batch_size: 8,
            flush_deadline: Duration::from_millis(25),
            budget: Money::from_dollars(1.0),
            seed: 42,
            cache_enabled: true,
            cache_capacity: 100_000,
            max_retries: 2,
            workers: 2,
            domain: "Product".to_owned(),
            telemetry: true,
            trace_capacity: 1024,
            wal: None,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_millis(250),
            flight_dir: None,
            queue_capacity: 4096,
        }
    }
}

/// Fixed completion-token allowance per question, added on top of the
/// question's own token count when projecting a batch's worst-case cost
/// (the simulator's rationale lines quote question content, so an answer
/// is bounded by the question plus this overhead).
const COMPLETION_ALLOWANCE: u64 = 24;

/// One waiting `submit` call: its decision channel plus its lifecycle
/// span, stamped by pipeline stages as the question moves. The span is
/// finished only by the `submit` call that opened it (on receipt), so a
/// span reaches its terminal stage exactly once no matter which path —
/// batch, coalesce, fallback, disconnect — produced the decision.
struct Waiter {
    tx: Sender<MatchDecision>,
    trace: u64,
    /// When the call entered the coalescing queue — read once, under the
    /// queue lock, so stamps never decrease in queue order. It travels
    /// with the waiter into the held set: the flush rule reads the
    /// arrivals of everything waiting, wherever it waits.
    arrived: Instant,
}

/// One question waiting in the coalescing queue.
struct Pending {
    fp: PairFingerprint,
    pair: EntityPair,
    waiter: Waiter,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<Pending>,
    /// The arrivals of `pending`, kept up to date at push so that the
    /// dispatcher evaluates the flush rule in O(1) per wake-up.
    arrivals: Option<Arrivals>,
    stopping: bool,
}

/// The arrival instants of a set of waiting questions, reduced to the
/// three numbers the flush rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrivals {
    oldest: Instant,
    newest: Instant,
    /// The largest distance between two consecutive arrivals.
    max_gap: Duration,
}

impl Arrivals {
    fn one(at: Instant) -> Self {
        Self { oldest: at, newest: at, max_gap: Duration::ZERO }
    }

    /// These arrivals followed by `later`, none of which precedes any of
    /// these (the queue's stamps are taken under its lock, and everything
    /// the dispatcher holds was drained before anything pending arrived).
    fn followed_by(self, later: Self) -> Self {
        let between = later.oldest.saturating_duration_since(self.newest);
        Self {
            oldest: self.oldest,
            newest: later.newest,
            max_gap: self.max_gap.max(later.max_gap).max(between),
        }
    }

    /// The summary of `instants`, in any order; `None` when there are none.
    fn of(instants: impl IntoIterator<Item = Instant>) -> Option<Self> {
        let mut sorted: Vec<Instant> = instants.into_iter().collect();
        sorted.sort_unstable();
        sorted.into_iter().map(Self::one).reduce(Self::followed_by)
    }

    /// When the oldest arrival has waited out `flush_deadline`.
    fn hard(&self, flush_deadline: Duration) -> Instant {
        self.oldest + flush_deadline
    }

    /// The flush rule: the instant everything waiting must be dispatched.
    /// A question waits so that company can join its batch, so it leaves
    /// when company has stopped arriving: once the newest arrival has been
    /// followed by a silence as long as what is then left of the oldest's
    /// `flush_deadline` (the midpoint between the newest arrival and the
    /// hard deadline), *and* by a silence at least as long as the largest
    /// gap these arrivals have shown — without the second clause a
    /// regular trickle slower than the midpoint allows loses its next
    /// question every generation. Never later than the hard deadline.
    fn dispatch_at(&self, flush_deadline: Duration) -> Instant {
        let hard = self.hard(flush_deadline);
        let left = hard.saturating_duration_since(self.newest);
        hard.min(self.newest + (left / 2).max(self.max_gap))
    }
}

/// One question the dispatcher holds: entered by a flush (later
/// identical arrivals attach their waiters), planned by every flush until
/// it leaves in a dispatched batch — execution owns it from there, via
/// `in_flight`. A question outlives a flush only as part of a partial
/// batch held back in the hope of fuller co-batched traffic.
struct HeldQuestion {
    pair: EntityPair,
    waiters: Vec<Waiter>,
}

/// One planned batch handed to the worker pool.
struct BatchJob {
    /// `(fingerprint, pair, waiters)` per question.
    questions: Vec<(PairFingerprint, EntityPair, Vec<Waiter>)>,
    /// Demonstration indices into the shared pool.
    demo_indices: Vec<usize>,
    /// Executor seed for this batch.
    seed: u64,
}

struct Inner {
    config: ServiceConfig,
    plan_template: BatchPlanConfig,
    api: Arc<dyn ChatApi>,
    /// Demonstration pool (labels consumed on demand, priced per use).
    pool: Vec<LabeledPair>,
    /// The pool featurized once at startup — flushes must not re-embed a
    /// static pool on the dispatcher's critical path.
    prepared_pool: PreparedPool,
    /// Pool indices already human-labeled (labeling is paid once).
    labeled: Mutex<HashSet<usize>>,
    fallback: LogisticModel,
    governor: CostGovernor,
    /// The durable journal (answers + governor events), when configured.
    durable: Option<Arc<DurableLog>>,
    /// What startup replay reconstructed, echoed on `/stats` + `/healthz`.
    recovery: Option<RecoveryReport>,
    /// LLM-endpoint circuit breaker (outage → logistic degradation).
    breaker: Breaker,
    /// The coalescing queue; its length is what `queue_capacity` bounds.
    queue: Mutex<QueueState>,
    queue_cond: Condvar,
    /// Questions currently being asked by an executing batch. Later
    /// arrivals for the same fingerprint attach here instead of paying
    /// for a second LLM slot (and risking a contradictory answer).
    in_flight: Mutex<HashMap<PairFingerprint, Vec<Waiter>>>,
    cache: AnswerCache,
    /// High-water mark of the pending queue this run — the admission
    /// bound's key signal on `/stats`.
    depth_peak: AtomicU64,
    telemetry: Telemetry,
    /// The anomaly flight recorder (events, snapshots, bundle triggers).
    flight: FlightRecorder,
}

/// The running service. Cloneable via `Arc`; dropping the last handle
/// flushes the queue and joins every thread.
pub struct ErService {
    inner: Arc<Inner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ErService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ErService")
            .field("config", &self.inner.config)
            .field("pool_size", &self.inner.pool.len())
            .finish_non_exhaustive()
    }
}

/// Outcome of a non-blocking admission attempt ([`ErService::try_submit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted and answered.
    Decided(MatchDecision),
    /// Shed: the coalescing queue was at `queue_capacity`. The caller
    /// should retry after roughly `retry_after_ms` (one flush deadline —
    /// the longest the queue can take to drain a generation; arrivals
    /// going quiet drain it sooner, from half of that).
    Shed {
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
}

impl ErService {
    /// Starts the service.
    ///
    /// * `api` — any chat endpoint (in-process simulator, HTTP client, a
    ///   real provider implementation).
    /// * `bootstrap` — labeled pairs used two ways: as the demonstration
    ///   pool for batch prompts (labeling priced per selected demo) and
    ///   as training data for the logistic fallback matcher.
    ///
    /// # Panics
    /// Panics when `bootstrap` is empty or `batch_size`/`workers` is zero
    /// — configuration bugs, not runtime conditions.
    pub fn start(
        api: Arc<dyn ChatApi>,
        bootstrap: Vec<LabeledPair>,
        config: ServiceConfig,
    ) -> Self {
        assert!(!bootstrap.is_empty(), "bootstrap pool must be non-empty");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.workers > 0, "worker count must be positive");
        assert!(
            config.breaker_threshold > 0,
            "breaker threshold must be positive"
        );
        assert!(config.queue_capacity > 0, "queue capacity must be positive");

        let xs: Vec<Vec<f64>> = bootstrap.iter().map(|p| base_features(&p.pair)).collect();
        let ys: Vec<bool> = bootstrap.iter().map(|p| p.label.is_match()).collect();
        let fallback = LogisticModel::train(
            &xs,
            &ys,
            TrainConfig { seed: config.seed, ..TrainConfig::default() },
        );

        // Serving accepts questions under arbitrary client schemas, which
        // may differ from the pool's — so planning must use the
        // semantics-based extractor (fixed-dimension embeddings of the
        // serialized pair) rather than the structure-aware one, whose
        // vector length is the schema arity.
        let plan_template = BatchPlanConfig {
            batch_size: config.batch_size,
            seed: config.seed,
            extractor: ExtractorKind::Semantic,
            ..BatchPlanConfig::default()
        };
        let pool_refs: Vec<&LabeledPair> = bootstrap.iter().collect();
        let prepared_pool =
            PreparedPool::prepare(&pool_refs, ExtractorKind::Semantic, DistanceKind::Euclidean);
        drop(pool_refs);

        let telemetry = Telemetry::new(config.telemetry, config.trace_capacity);
        let flight = FlightRecorder::new(config.telemetry, config.flight_dir.clone());

        // Recovery replay runs to completion here, before any thread
        // starts or the HTTP front end can bind — externally the service
        // is never observable mid-recovery.
        let (durable, recovery, recovered_answers) = match &config.wal {
            Some(wal_config) => {
                let (log, replayed) =
                    DurableLog::open(wal_config, &telemetry).unwrap_or_else(|e| {
                        panic!(
                            "er-service: cannot open WAL at {}: {e}",
                            wal_config.dir.display()
                        )
                    });
                // The same conservation rules the stress suite asserts,
                // applied to the replayed history. Violations mean a
                // corrupt or foreign log; surface them loudly — and leave
                // a flight-recorder bundle behind, since a service that
                // starts from corrupt history is exactly the situation a
                // debug artifact exists for.
                let violations = replayed.report.conservation_violations(config.budget);
                for violation in &violations {
                    eprintln!("er-service: recovery conservation violation: {violation}");
                    flight.event("recovery_violation", violation.clone());
                }
                if !violations.is_empty() && flight.should_trigger("recovery_violation") {
                    // The pipeline is not assembled yet, so this bundle
                    // holds what exists at this point: the violations and
                    // the recovery report.
                    let listed: Vec<String> = violations
                        .iter()
                        .map(|v| format!("\"{}\"", obs::json_escape(v)))
                        .collect();
                    let bundle = format!(
                        "{{\"reason\":\"recovery_violation\",\"violations\":[{}],\"records_replayed\":{},\"open_reservations\":{}}}",
                        listed.join(","),
                        replayed.report.records_replayed,
                        replayed.report.open_reservations
                    );
                    flight.write_bundle("recovery_violation", &bundle);
                }
                debug_assert!(violations.is_empty(), "recovery violated conservation");
                (Some(log), Some(replayed.report), replayed.answers)
            }
            None => (None, None, Vec::new()),
        };

        let cache = AnswerCache::new(config.cache_enabled, config.cache_capacity).with_metrics(
            Arc::clone(&telemetry.cache_hits),
            Arc::clone(&telemetry.cache_misses),
            Arc::clone(&telemetry.cache_entries),
            Arc::clone(&telemetry.cache_evictions),
        );
        // The LRU cap applies during the fill exactly as it does online.
        for (fp, label) in recovered_answers {
            cache.insert(fp, label);
        }
        let ledger = SharedCostLedger::new();
        if let Some(report) = &recovery {
            // Replayed spend counts against the budget exactly as if this
            // process had spent it: no answer is ever bought twice.
            ledger.merge(&report.settled);
        }
        let governor = CostGovernor::new(ledger, config.budget)
            .with_metrics(
                Arc::clone(&telemetry.budget_denials),
                Arc::clone(&telemetry.governor_refunds),
                Arc::clone(&telemetry.governor_reserve_us),
                Arc::clone(&telemetry.governor_settle_us),
                Arc::clone(&telemetry.governor_reserved_micros),
            )
            .with_journal(durable.clone());
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_cooldown).with_metrics(
            Arc::clone(&telemetry.breaker_trips),
            Arc::clone(&telemetry.breaker_short_circuits),
            Arc::clone(&telemetry.breaker_state),
        );
        let inner = Arc::new(Inner {
            plan_template,
            api,
            prepared_pool,
            pool: bootstrap,
            labeled: Mutex::new(HashSet::new()),
            fallback,
            governor,
            durable,
            recovery,
            breaker,
            queue: Mutex::new(QueueState::default()),
            queue_cond: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            cache,
            depth_peak: AtomicU64::new(0),
            telemetry,
            flight,
            config,
        });

        let (work_tx, work_rx) = channel::<BatchJob>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let workers = (0..inner.config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let work_rx = Arc::clone(&work_rx);
                std::thread::spawn(move || worker_loop(&inner, &work_rx))
            })
            .collect();

        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || dispatcher_loop(&inner, work_tx))
        };

        Self { inner, dispatcher: Some(dispatcher), workers }
    }

    /// Resolves one pair question, blocking until a decision is available
    /// (cache hits return immediately; queue misses wait for their batch).
    ///
    /// This call owns the question's lifecycle span: it opens it, and it
    /// is the only place that finishes it (terminal stage `answered`) —
    /// so every span reaches a terminal stage exactly once, on every
    /// path a decision can take.
    pub fn submit(&self, pair: &EntityPair) -> MatchDecision {
        match submit_inner(&self.inner, pair, true) {
            SubmitOutcome::Decided(decision) => decision,
            // Blocking admission never sheds: a full queue degrades to the
            // local fallback inside `submit_inner` instead.
            SubmitOutcome::Shed { .. } => unreachable!("blocking submit cannot shed"),
        }
    }

    /// Non-blocking admission: like [`ErService::submit`] but when the
    /// coalescing queue is at `queue_capacity` the question is *shed* —
    /// the caller gets [`SubmitOutcome::Shed`] with a retry hint instead
    /// of a decision, and no queue slot is consumed. The HTTP front end
    /// maps this to `429` + `Retry-After`.
    pub fn try_submit(&self, pair: &EntityPair) -> SubmitOutcome {
        submit_inner(&self.inner, pair, false)
    }

    /// A point-in-time statistics snapshot (the `/stats` payload).
    ///
    /// A thin view over the telemetry registry: everything here reads
    /// lock-free handles or copies a histogram's atomic buckets — a slow
    /// or hammering scraper can never stall `submit` or the flush path.
    pub fn stats(&self) -> ServiceStats {
        stats_of(&self.inner)
    }

    /// The readiness/durability report (the `GET /healthz` payload):
    /// whether journaling is still healthy, how stale the last fsync is,
    /// the breaker's state, and what startup recovery replayed.
    pub fn health(&self) -> HealthReport {
        health_of(&self.inner)
    }

    /// The service's telemetry bundle (registry + trace log).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The anomaly flight recorder (events, snapshots, bundles).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Renders every metric family in Prometheus text exposition format,
    /// SLO burn-rate gauges refreshed first (the `GET /metrics` payload).
    pub fn render_metrics(&self) -> String {
        self.inner.telemetry.render_prometheus()
    }

    /// The most recent `n` completed lifecycle spans as JSON, newest
    /// first (the `GET /trace?n=` payload). `n` is clamped to the trace
    /// ring's capacity — asking for more than the ring can hold is a
    /// client mistake, not an allocation request.
    pub fn trace_json(&self, n: usize) -> String {
        let n = n.min(self.inner.config.trace_capacity.max(1));
        self.inner.telemetry.trace.recent_json(n)
    }

    /// The assembled cross-service span tree for one trace id (the
    /// `GET /trace?id=` payload), or `None` when the id matches no
    /// retained span.
    ///
    /// When the question was answered by an LLM call that a *different*
    /// trace paid for (a coalesced duplicate), the tree carries a
    /// `shared_llm_trace` reference instead of the child spans — each
    /// downstream span is attributed to exactly one trace, the one that
    /// carried the traceparent header.
    pub fn trace_tree_json(&self, id: u64) -> Option<String> {
        let inner = &*self.inner;
        let span = inner.telemetry.trace.find(id)?;
        let shared_primary = span
            .events
            .iter()
            .find(|e| e.stage == "llm_shared")
            .and_then(|e| e.detail.as_ref())
            .and_then(|d| d.parse::<u64>().ok());
        let mut out = String::from("{\"span\":");
        out.push_str(&obs::span_json(&span));
        match shared_primary {
            Some(primary) => {
                out.push_str(&format!(",\"shared_llm_trace\":{primary},\"children\":[]"));
            }
            None => {
                let children = inner
                    .api
                    .trace_children(id)
                    .unwrap_or_else(|| "[]".to_owned());
                out.push_str(&format!(",\"children\":{children}"));
            }
        }
        out.push('}');
        Some(out)
    }

    /// Every SLO's multi-window burn-rate status as JSON (the `GET /slo`
    /// payload).
    pub fn slo_json(&self) -> String {
        self.inner.telemetry.slo_json()
    }

    /// Assembles the flight-recorder debug bundle (the
    /// `GET /debug/bundle` payload; also what triggers write to disk).
    pub fn debug_bundle_json(&self, reason: &str) -> String {
        assemble_bundle(&self.inner, reason)
    }

    /// The shared cost ledger (for tests and embedding harnesses).
    pub fn ledger(&self) -> &SharedCostLedger {
        self.inner.governor.ledger()
    }
}

/// The `/stats` snapshot, assembled from `inner` so worker threads (the
/// flight recorder's periodic snapshots) can build it too.
fn stats_of(inner: &Inner) -> ServiceStats {
    let tel = &inner.telemetry;
    let ledger = inner.governor.ledger().snapshot();
    // Recovery numbers come from the report, not the gauges, so they
    // stay visible with telemetry disabled.
    let recovery = inner.recovery.clone().unwrap_or_default();
    let plans = tel.plans.get();
    let plan_wall = tel.plan_wall_us.snapshot();
    let mut answer = tel.answer_cache_us.snapshot();
    answer.merge(&tel.answer_llm_us.snapshot());
    answer.merge(&tel.answer_fallback_us.snapshot());
    let lock_hold = tel.planner_lock_hold_us.snapshot();
    ServiceStats {
        submitted: tel.submitted.get(),
        plans,
        plan_full: plans,
        plan_incremental: 0,
        plan_last_us: tel.plan_last_us.get() as u64,
        plan_avg_us: plan_wall.mean(),
        plan_p50_us: plan_wall.quantile(0.5),
        plan_p99_us: plan_wall.quantile(0.99),
        answer_p50_us: answer.quantile(0.5),
        answer_p99_us: answer.quantile(0.99),
        cache_hits: tel.cache_hits.get(),
        cache_misses: tel.cache_misses.get(),
        cache_entries: tel.cache_entries.get() as u64,
        coalesced_duplicates: tel.coalesced.get(),
        llm_answered: tel.llm_answered.get(),
        fallback_answered: tel.fallback_answered.get(),
        batches_flushed: tel.batches_flushed.get(),
        retries: tel.retries.get(),
        api_calls: ledger.api_calls,
        prompt_tokens: ledger.prompt_tokens.get(),
        completion_tokens: ledger.completion_tokens.get(),
        demos_labeled: ledger.pairs_labeled,
        api_micros: ledger.api.micros(),
        labeling_micros: ledger.labeling.micros(),
        spent_micros: ledger.total().micros(),
        budget_micros: inner.governor.budget().micros(),
        remaining_micros: inner.governor.remaining().micros(),
        budget_denials: inner.governor.denials(),
        wal_enabled: inner.durable.is_some(),
        wal_appends: tel.wal_appends.get(),
        wal_append_errors: tel.wal_append_errors.get(),
        recovery_records_replayed: recovery.records_replayed,
        recovery_truncated_bytes: recovery.truncated_bytes,
        recovery_answers_restored: recovery.answers_restored,
        recovery_open_reservations: recovery.open_reservations,
        governor_refunds: inner.governor.refunds(),
        breaker_trips: inner.breaker.trips(),
        breaker_state: inner.breaker.state_code(),
        shed_total: tel.shed.get(),
        queue_depth_peak: inner.depth_peak.load(Ordering::Relaxed),
        planner_lock_hold_p50_us: lock_hold.quantile(0.5),
        planner_lock_hold_p99_us: lock_hold.quantile(0.99),
        cache_evictions: tel.cache_evictions.get(),
    }
}

/// The `/healthz` report, assembled from `inner` (see [`stats_of`]).
fn health_of(inner: &Inner) -> HealthReport {
    let recovery = inner.recovery.clone().unwrap_or_default();
    let (status, last_sync_age_ms, unsynced, total_bytes) = match &inner.durable {
        Some(durable) => {
            let wal = durable.status();
            let degraded = durable.failed() || wal.wedged;
            (
                if degraded { "degraded" } else { "serving" },
                wal.last_sync_age
                    .map_or(-1, |age| i64::try_from(age.as_millis()).unwrap_or(i64::MAX)),
                wal.unsynced_appends,
                wal.total_bytes,
            )
        }
        None => ("serving", -1, 0, 0),
    };
    // Backpressure: the pending queue at or past half its admission
    // bound. A cheap peek — scrapers polling `/healthz` learn the service
    // is near shedding before 429s start.
    let backpressure = lock(&inner.queue).pending.len() >= (inner.config.queue_capacity / 2).max(1);
    HealthReport {
        status: status.to_owned(),
        wal_enabled: inner.durable.is_some(),
        wal_last_sync_age_ms: last_sync_age_ms,
        wal_unsynced_appends: unsynced,
        wal_total_bytes: total_bytes,
        breaker: inner.breaker.state_name().to_owned(),
        recovery_records_replayed: recovery.records_replayed,
        recovery_truncated_bytes: recovery.truncated_bytes,
        recovery_answers_restored: recovery.answers_restored,
        recovery_open_reservations: recovery.open_reservations,
        shed_total: inner.telemetry.shed.get(),
        backpressure,
    }
}

/// Records the per-answer SLO signals (latency, availability). Gated on
/// the telemetry switch like every metric handle.
fn record_answer_slos(inner: &Inner, latency: Duration, source: DecisionSource) {
    let tel = &inner.telemetry;
    if !tel.is_enabled() {
        return;
    }
    let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
    tel.slo_latency.record(latency_us <= SLO_LATENCY_US);
    tel.slo_availability
        .record(source != DecisionSource::Fallback);
}

/// Assembles the self-contained debug bundle: what happened (reason +
/// recent events), what the system looked like (stats, health, SLO
/// windows, snapshots), and what was in flight (recent spans).
fn assemble_bundle(inner: &Inner, reason: &str) -> String {
    let stats = serde_json::to_string(&stats_of(inner)).unwrap_or_else(|_| "{}".to_owned());
    let health = serde_json::to_string(&health_of(inner)).unwrap_or_else(|_| "{}".to_owned());
    format!(
        "{{\"reason\":\"{}\",\"breaker\":\"{}\",\"health\":{health},\"stats\":{stats},\"slo\":{},\"recent_traces\":{},\"events\":{},\"snapshots\":{}}}",
        obs::json_escape(reason),
        obs::json_escape(inner.breaker.state_name()),
        inner.telemetry.slo_json(),
        inner.telemetry.trace.recent_json(32),
        inner.flight.events_json(),
        inner.flight.snapshots_json(),
    )
}

/// Records an anomaly event and, unless the reason fired recently, dumps
/// a debug bundle to the flight directory.
fn trigger_bundle(inner: &Inner, reason: &'static str, detail: String) {
    inner.flight.event(reason, detail);
    if inner.flight.should_trigger(reason) {
        let bundle = assemble_bundle(inner, reason);
        inner.flight.write_bundle(reason, &bundle);
    }
}

impl Drop for ErService {
    fn drop(&mut self) {
        lock(&self.inner.queue).stopping = true;
        self.inner.queue_cond.notify_all();
        // The dispatcher flushes what the queue and its held set still
        // hold and returns; that drops the only job sender, and each
        // worker exits once the channel is empty.
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn fallback_decision(inner: &Inner, fp: PairFingerprint, pair: &EntityPair) -> MatchDecision {
    let features = base_features(pair);
    let is_match = if features.len() == inner.fallback.weights().len() {
        inner.fallback.predict(&features)
    } else {
        // The question's schema differs from the bootstrap pool's, so
        // the trained weights do not align with these features. Decide
        // on the schema-agnostic aggregate similarity instead (the last
        // feature: mean per-attribute similarity in [0, 1]).
        features.last().copied().unwrap_or(0.0) >= 0.5
    };
    let label = MatchLabel::from_bool(is_match);
    inner.telemetry.fallback_answered.inc();
    // Deliberately NOT cached: a denial can be transient (another
    // worker's conservative reservation in flight), and recomputing the
    // logistic verdict is free — caching it would pin lower-quality
    // answers on hot pairs forever.
    MatchDecision { label, source: DecisionSource::Fallback, fingerprint: fp, trace_id: 0 }
}

/// One pair question end to end: try the cache, then enqueue (or shed)
/// and wait for the decision.
///
/// This is the only submit path. It owns the question's lifecycle span:
/// it opens it, and it is the only place that finishes it — terminal
/// stage `answered` on every decision path, `shed` when non-blocking
/// admission rejects the question outright.
///
/// `block_on_shed` selects the admission policy for a full queue:
/// `true` (the blocking [`ErService::submit`]) degrades to the local
/// fallback so the caller always gets *an* answer; `false`
/// ([`ErService::try_submit`]) returns [`SubmitOutcome::Shed`] and lets
/// the client retry — the load-shedding contract the HTTP front end
/// exposes as `429`.
fn submit_inner(inner: &Inner, pair: &EntityPair, block_on_shed: bool) -> SubmitOutcome {
    let tel = &inner.telemetry;
    tel.submitted.inc();
    let started = Instant::now();
    let fp = pair_fingerprint(pair);
    let trace = tel.trace.begin(fp.0, "submitted");
    if let Some(label) = inner.cache.get(fp) {
        let latency = started.elapsed();
        tel.answer_cache_us
            .record_duration_us_with_exemplar(latency, trace);
        record_answer_slos(inner, latency, DecisionSource::Cache);
        tel.trace
            .finish(trace, "answered", Some("cache".to_owned()));
        return SubmitOutcome::Decided(MatchDecision {
            label,
            source: DecisionSource::Cache,
            fingerprint: fp,
            trace_id: trace,
        });
    }

    let answer_via_local = |detail: &str| {
        let decision = fallback_decision(inner, fp, pair);
        let latency = started.elapsed();
        tel.answer_fallback_us
            .record_duration_us_with_exemplar(latency, trace);
        record_answer_slos(inner, latency, DecisionSource::Fallback);
        tel.trace.finish(trace, "answered", Some(detail.to_owned()));
        SubmitOutcome::Decided(MatchDecision { trace_id: trace, ..decision })
    };

    let (tx, rx): (Sender<MatchDecision>, Receiver<MatchDecision>) = channel();
    {
        let mut queue = lock(&inner.queue);
        if queue.stopping {
            drop(queue);
            return answer_via_local("fallback");
        }
        if queue.pending.len() >= inner.config.queue_capacity {
            // Admission control: the queue is saturated. Shedding here —
            // before the question consumes a queue slot, a planning pass
            // or budget — is what keeps the queue bounded under overload.
            drop(queue);
            tel.shed.inc();
            if block_on_shed {
                return answer_via_local("fallback_shed");
            }
            // One flush deadline is the longest the queue can need to
            // drain a generation — the honest retry hint.
            let retry_after_ms =
                u64::try_from(inner.config.flush_deadline.as_millis().max(1)).unwrap_or(u64::MAX);
            tel.trace
                .finish(trace, "shed", Some("queue_full".to_owned()));
            return SubmitOutcome::Shed { retry_after_ms };
        }
        // The one clock read every arrival stamp of this question comes
        // from; under the lock, so stamps never decrease in queue order.
        let arrived = Instant::now();
        let arrival = Arrivals::one(arrived);
        queue.arrivals = Some(
            queue
                .arrivals
                .map_or(arrival, |earlier| earlier.followed_by(arrival)),
        );
        queue.pending.push(Pending {
            fp,
            pair: pair.clone(),
            waiter: Waiter { tx, trace, arrived },
        });
        let depth = queue.pending.len() as u64;
        tel.queue_depth.set(depth as i64);
        inner.depth_peak.fetch_max(depth, Ordering::Relaxed);
        inner.queue_cond.notify_all();
    }
    tel.trace.stamp(trace, "enqueued");
    // A dead dispatcher/worker (disconnected sender) degrades to the
    // fallback instead of hanging the caller.
    let decision = rx
        .recv()
        .unwrap_or_else(|_| fallback_decision(inner, fp, pair));
    let latency = started.elapsed();
    match decision.source {
        DecisionSource::Cache => tel
            .answer_cache_us
            .record_duration_us_with_exemplar(latency, trace),
        DecisionSource::Llm => tel
            .answer_llm_us
            .record_duration_us_with_exemplar(latency, trace),
        DecisionSource::Fallback => tel
            .answer_fallback_us
            .record_duration_us_with_exemplar(latency, trace),
    }
    record_answer_slos(inner, latency, decision.source);
    tel.trace
        .finish(trace, "answered", Some(decision.source.name().to_owned()));
    SubmitOutcome::Decided(MatchDecision { trace_id: trace, ..decision })
}

// ---------------------------------------------------------------------
// Dispatcher: the coalescing-queue flush loop, and the planner
// ---------------------------------------------------------------------

fn dispatcher_loop(inner: &Inner, work_tx: Sender<BatchJob>) {
    let deadline = inner.config.flush_deadline;
    // The questions currently held, in ascending fingerprint order — the
    // canonical order every plan is made in, so a plan depends only on
    // *what* is held, not on arrival order. Owned by this thread alone:
    // only a flush puts a question in or takes one out.
    let mut held: BTreeMap<PairFingerprint, HeldQuestion> = BTreeMap::new();
    loop {
        // The arrivals of what this thread holds; the queue keeps its own.
        let held_arrivals = Arrivals::of(held.values().flat_map(|q| &q.waiters).map(|w| w.arrived));
        // Every trigger but `Size` makes the drain *urgent*: the plan must
        // then dispatch every batch, partial or not. A size-triggered
        // drain may instead hold a partial batch for the next flush.
        let (drained, trigger): (Vec<Pending>, FlushTrigger) = {
            let mut queue = lock(&inner.queue);
            let trigger = loop {
                if queue.stopping {
                    break FlushTrigger::Shutdown;
                }
                let now = Instant::now();
                // Everything waiting, held or pending, leaves together.
                let waiting = held_arrivals
                    .into_iter()
                    .chain(queue.arrivals)
                    .reduce(Arrivals::followed_by);
                let leave = waiting.map(|a| (a.dispatch_at(deadline), a.hard(deadline)));
                if let Some((at, hard)) = leave {
                    if now >= at {
                        break if at < hard {
                            FlushTrigger::Quiet
                        } else {
                            FlushTrigger::Deadline
                        };
                    }
                }
                if queue.pending.len() >= inner.config.batch_size {
                    break FlushTrigger::Size;
                }
                match leave {
                    None => {
                        queue = inner
                            .queue_cond
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some((at, _)) => {
                        let (q, _) = inner
                            .queue_cond
                            .wait_timeout(queue, at - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        queue = q;
                    }
                }
            };
            if queue.stopping && queue.pending.is_empty() && held.is_empty() {
                // Everything admitted is planned and dispatched; returning
                // drops the only job sender, which is what stops the workers.
                return;
            }
            queue.arrivals = None;
            inner.telemetry.queue_depth.set(0);
            (std::mem::take(&mut queue.pending), trigger)
        };
        inner.telemetry.count_flush(trigger);
        let urgent = trigger != FlushTrigger::Size;
        // A panicking plan (e.g. a poisoned question) must not take the
        // dispatcher down: containment drops the drained senders, their
        // waiters observe the disconnect and fall back locally, and the
        // queue keeps serving.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            flush(inner, &mut held, drained, urgent, &work_tx);
        }));
        if result.is_err() {
            // The held set may contain waiters whose questions will never
            // dispatch (a question that panics the plan would panic every
            // later one too): clear it. Dropping the held waiters
            // disconnects their receivers, which degrade to the local
            // fallback.
            held.clear();
            eprintln!("er-service: flush planning panicked; affected requests fall back");
        }
    }
}

/// Whether `fp` has already been bought: attaches `waiter` to the
/// executing batch that is asking it, or answers it from the cache, and
/// returns `None`; returns the waiter when the question is new.
///
/// The order of the two reads is what makes "new" mean "not bought". A
/// worker fills the cache *before* it un-registers a question from
/// `in_flight` (`execute_job`, then `resolve_question`), so a question
/// that is absent from `in_flight` and was answered by the LLM is already
/// in the cache; read the other way round, a worker could complete
/// between the two reads and the question would be found in neither.
/// (A fallback answer is deliberately not cached, and a disabled or
/// evicting cache forgets: those questions are new again.)
///
/// `coalesced` is called with how the waiter coalesced *before* the
/// waiter can observe a decision — before the send, and under the
/// `in_flight` lock before attaching to an entry a worker may resolve.
fn attach_if_bought(
    in_flight: &Mutex<HashMap<PairFingerprint, Vec<Waiter>>>,
    cache: &AnswerCache,
    fp: PairFingerprint,
    waiter: Waiter,
    coalesced: impl FnOnce(&Waiter, &'static str),
) -> Option<Waiter> {
    if let Some(attached) = lock(in_flight).get_mut(&fp) {
        coalesced(&waiter, "in_flight");
        attached.push(waiter);
        return None;
    }
    if let Some(label) = cache.peek(fp) {
        coalesced(&waiter, "cache");
        let _ = waiter.tx.send(MatchDecision {
            label,
            source: DecisionSource::Cache,
            fingerprint: fp,
            trace_id: 0,
        });
        return None;
    }
    Some(waiter)
}

/// Dedupes one drained queue generation into the held set, plans
/// everything held from scratch, and dispatches batches. Runs on the
/// dispatcher thread only, never under the queue lock.
///
/// Dispatch policy: full batches always dispatch; a partial batch
/// dispatches only on an `urgent` flush (arrivals gone quiet, the flush
/// deadline, or shutdown) and is otherwise *held* for the next flush —
/// the paper's batch economics improve when a straggler waits (bounded
/// by the flush deadline) for co-batched traffic instead of flying alone.
fn flush(
    inner: &Inner,
    held: &mut BTreeMap<PairFingerprint, HeldQuestion>,
    drained: Vec<Pending>,
    urgent: bool,
    work_tx: &Sender<BatchJob>,
) {
    let tel = &inner.telemetry;
    // Times the merge into the held set, the plan and the dispatch: how
    // long this flush keeps the next drain waiting. A drop-guard so early
    // returns count too. (The family is named after the planner lock this
    // span used to be held under.)
    let _flush_span = tel.planner_lock_hold_us.start_timer();
    let plan_started = Instant::now();
    // Dedupe by fingerprint. Four ways a question avoids its own LLM
    // slot: identical to a question already held (`held`) or to another
    // in this flush (`duplicate`), identical to one an executing batch is
    // asking (`in_flight`), or answered into the cache while it sat in
    // the queue (`cache`). The reads go held → in-flight → cache, and the
    // order is the "nothing is bought twice" invariant: this thread alone
    // moves a question from `held` to `in_flight`, so one it does not
    // find held was dispatched or never seen — `attach_if_bought` tells
    // those apart. Each coalesce is counted *before* its waiter can
    // observe a decision, so the accounting identity `submitted = hits +
    // coalesced + answered` holds at any quiesce point.
    let coalesced = |waiter: &Waiter, how: &'static str| {
        tel.coalesced.inc();
        tel.trace
            .stamp_with(waiter.trace, "coalesced", how.to_owned());
    };
    let mut entered: HashSet<PairFingerprint> = HashSet::new();
    for item in drained {
        tel.queue_wait_us
            .record_duration_us(item.waiter.arrived.elapsed());
        if let Some(already) = held.get_mut(&item.fp) {
            let how = if entered.contains(&item.fp) {
                "duplicate"
            } else {
                "held"
            };
            coalesced(&item.waiter, how);
            already.waiters.push(item.waiter);
            continue;
        }
        let Some(waiter) = attach_if_bought(
            &inner.in_flight,
            &inner.cache,
            item.fp,
            item.waiter,
            coalesced,
        ) else {
            continue;
        };
        entered.insert(item.fp);
        held.insert(
            item.fp,
            HeldQuestion { pair: item.pair, waiters: vec![waiter] },
        );
    }
    if held.is_empty() {
        return;
    }

    // Arrival-order independence: questions are planned in ascending
    // fingerprint order and the seed folds over the fingerprints in that
    // order, so a plan depends only on *what* is held, not on thread
    // scheduling.
    let fps: Vec<PairFingerprint> = held.keys().copied().collect();
    let flush_seed = fps
        .iter()
        .fold(inner.config.seed, |acc, fp| acc.rotate_left(7) ^ fp.0);
    let plan = {
        let questions: Vec<&EntityPair> = held.values().map(|q| &q.pair).collect();
        plan_with_prepared_pool(
            &questions,
            &inner.prepared_pool,
            &BatchPlanConfig { seed: flush_seed, ..inner.plan_template },
        )
    };
    let plan_us = u64::try_from(plan_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    tel.plans.inc();
    tel.plan_wall_us.record(plan_us);
    tel.plan_last_us.set(plan_us as i64);

    for (bi, batch) in plan.batches.iter().enumerate() {
        if !urgent && batch.len() < inner.config.batch_size {
            continue; // held for the next flush
        }
        let questions: Vec<(PairFingerprint, EntityPair, Vec<Waiter>)> = batch
            .iter()
            .map(|&qi| {
                let fp = fps[qi];
                let question = held.remove(&fp).expect("planned question is held");
                for w in &question.waiters {
                    tel.trace.stamp(w.trace, "planned");
                    tel.trace.stamp(w.trace, "dispatched");
                }
                (fp, question.pair, question.waiters)
            })
            .collect();
        // Register the batch's questions as in flight *before* handing
        // it off, so duplicates in later flushes attach instead of
        // re-asking. Completion (or panic cleanup) removes the entries.
        {
            let mut in_flight = lock(&inner.in_flight);
            for (fp, _, _) in &questions {
                in_flight.entry(*fp).or_default();
            }
        }
        tel.batches_flushed.inc();
        let job = BatchJob {
            questions,
            demo_indices: plan.demos_per_batch[bi].clone(),
            seed: flush_seed ^ ((bi as u64) << 16),
        };
        // Workers exit only once this thread has dropped its sender.
        work_tx
            .send(job)
            .expect("the workers outlive the dispatcher");
    }
}

// ---------------------------------------------------------------------
// Workers: governed batch execution over the ChatApi
// ---------------------------------------------------------------------

fn worker_loop(inner: &Inner, work_rx: &Mutex<Receiver<BatchJob>>) {
    loop {
        // An error means the dispatcher returned and dropped its sender
        // and the channel is empty: shutdown. (The guard is a temporary
        // of this statement — it is not held while the batch executes.)
        let Ok(job) = lock(work_rx).recv() else {
            return;
        };
        // A panicking batch must not take the worker down. Its in-flight
        // entries are removed so attached waiters disconnect (and fall
        // back) instead of hanging; a reservation held at the panic
        // point is refunded by its drop guard as the panic unwinds, so a
        // dead worker cannot strand budget.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(inner, &job);
        }));
        if result.is_err() {
            let mut in_flight = lock(&inner.in_flight);
            for (fp, _, _) in &job.questions {
                in_flight.remove(fp);
            }
            eprintln!("er-service: batch execution panicked; affected requests fall back");
        }
    }
}

/// Stamps `stage` on the span of every waiter of `job`: why the batch
/// they ride took the path it did.
fn stamp_waiters(inner: &Inner, job: &BatchJob, stage: &'static str) {
    for (_, _, senders) in &job.questions {
        for w in senders {
            inner.telemetry.trace.stamp(w.trace, stage);
        }
    }
}

fn execute_job(inner: &Inner, job: &BatchJob) {
    let config = &inner.config;
    let tel = &inner.telemetry;
    // Flight recorder heartbeat: at most once a second (while traffic
    // flows) snapshot the stats into the bounded ring and check the SLO
    // windows — a fast burn on both windows dumps a bundle. Here, on a
    // worker, and not in `flush`: a file write must not run on the one
    // thread every miss waits for.
    if inner.flight.snapshot_due() {
        if let Ok(json) = serde_json::to_string(&stats_of(inner)) {
            inner.flight.snapshot(json);
        }
        if let Some(objective) = tel.any_fast_burn() {
            trigger_bundle(
                inner,
                "slo_fast_burn",
                format!("objective {objective} burning on both windows"),
            );
        }
    }
    // Circuit breaker: during an LLM outage every batch would burn its
    // full retry schedule before degrading. Once the breaker opens,
    // batches short-circuit straight to the logistic fallback — no
    // reservation, no retries — until a cooldown-spaced probe succeeds.
    if !inner.breaker.allow() {
        stamp_waiters(inner, job, "breaker_short_circuit");
        inner.flight.event(
            "breaker_short_circuit",
            format!("batch of {} routed to fallback", job.questions.len()),
        );
        answer_via_fallback(inner, job);
        return;
    }
    let demos: Vec<&LabeledPair> = job.demo_indices.iter().map(|&d| &inner.pool[d]).collect();
    let questions: Vec<String> = job
        .questions
        .iter()
        .map(|(_, pair, _)| pair.serialize())
        .collect();
    let description = task_description(&config.domain);

    let prompt = build_batch_prompt(&description, &demos, &questions);
    let prompt_tokens = count_tokens(&prompt);

    // A prompt over the model's context window would trigger the
    // executor's recursive split-and-resend, whose cost the projection
    // below cannot bound. Serving never sends such a prompt: the batch
    // is answered locally instead, which keeps the budget cap hard.
    let context_limit = config.model.profile().max_context_tokens;
    if prompt_tokens > context_limit {
        stamp_waiters(inner, job, "context_overflow");
        inner.flight.event(
            "context_overflow",
            format!(
                "batch of {} answered by fallback: prompt of {prompt_tokens} tokens over the \
                 {context_limit}-token window",
                job.questions.len()
            ),
        );
        answer_via_fallback(inner, job);
        return;
    }

    // Worst-case projection for the governor: full prompt at every retry,
    // plus a completion bound and labeling for any demo not yet paid
    // for. Answer length tracks question content (the model quotes
    // attribute names/values in its rationale), so the completion bound
    // is the questions' own token count plus a fixed per-question
    // allowance — not a flat constant a hostile question could exceed.
    // The not-yet-labeled check, the reservation and the marking happen
    // under one lock so a concurrent job sharing a demo cannot observe
    // it as labeled while this reservation later fails.
    let price = PriceTable::for_model(config.model);
    let attempts = u64::from(config.max_retries) + 1;
    let question_tokens: u64 = questions.iter().map(|q| count_tokens(q)).sum();
    let completion_bound = question_tokens + COMPLETION_ALLOWANCE * questions.len() as u64;
    let api_projection =
        price.cost(TokenCount(prompt_tokens), TokenCount(completion_bound)) * attempts;

    let granted = {
        let mut labeled = lock(&inner.labeled);
        let newly: Vec<usize> = job
            .demo_indices
            .iter()
            .copied()
            .filter(|d| !labeled.contains(d))
            .collect();
        let projected = api_projection + LABEL_COST_PER_PAIR * newly.len() as u64;
        inner.governor.try_reserve_guarded(projected).map(|guard| {
            labeled.extend(&newly);
            (guard, newly, projected)
        })
    };
    if tel.is_enabled() {
        tel.slo_budget.record(granted.is_some());
    }
    let Some((guard, newly_labeled, projected)) = granted else {
        // Over budget: answer locally, free of charge.
        inner.flight.event(
            "budget_denied",
            format!("batch of {} answered by fallback", job.questions.len()),
        );
        answer_via_fallback(inner, job);
        return;
    };

    // The first traced waiter's id rides the batch's LLM calls as the
    // propagated traceparent: one batch, one downstream trace, no matter
    // how many coalesced waiters share the call. Everyone else's span
    // gets an `llm_shared` reference to this primary at resolution.
    let primary_trace = job
        .questions
        .iter()
        .flat_map(|(_, _, senders)| senders.iter())
        .map(|w| w.trace)
        .find(|&t| t != 0)
        .unwrap_or(0);
    let executor = Executor::new(inner.api.as_ref(), config.model, config.max_retries)
        .with_trace(primary_trace);
    let mut outcome = ExecutionOutcome::default();
    executor.run_batch(&description, &demos, &questions, job.seed, &mut outcome);
    outcome.ledger.record_labeling(newly_labeled.len() as u64);
    // Breaker verdict. The executor records an API call only when the
    // transport returned, so a batch with zero answers *and* zero billed
    // calls is the signature of a dead endpoint — exactly what should
    // count toward opening the circuit. Parse failures and partial
    // answers billed normally and stay breaker-neutral successes.
    let endpoint_alive =
        outcome.ledger.api_calls > 0 || outcome.answers.iter().any(Option::is_some);
    if endpoint_alive {
        inner.breaker.record_success();
    } else {
        let trips_before = inner.breaker.trips();
        inner.breaker.record_failure();
        if inner.breaker.trips() > trips_before {
            trigger_bundle(
                inner,
                "breaker_open",
                format!(
                    "circuit opened after a dead-endpoint batch of {}",
                    job.questions.len()
                ),
            );
        }
    }
    tel.retries.add(u64::from(outcome.retries));
    for &latency in &outcome.call_latencies_us {
        tel.llm_call_us.record(latency);
    }
    tel.batch_spend_micros
        .record(u64::try_from(outcome.ledger.total().micros()).unwrap_or(0));
    tel.batch_prompt_tokens
        .record(outcome.ledger.prompt_tokens.get());
    debug_assert!(
        ledger_within(&outcome.ledger, projected),
        "executor spend exceeded the governor projection"
    );
    guard.settle(&outcome.ledger);

    // Journal the batch's answers *before* filling the cache or waking
    // waiters: once a client observes an answer it must survive restart,
    // or the restarted service would re-buy it. One grouped append, so
    // the whole batch costs a single write (and at most one fsync).
    if let Some(durable) = &inner.durable {
        let answered = outcome.answers.iter().flatten().count() as i64;
        if answered > 0 {
            // Attribute the batch's settled spend evenly across its
            // answers — an accounting convention for the replayed ledger,
            // not a price signal (the budget maths only ever uses sums).
            let per_answer = outcome.ledger.total().micros() / answered;
            let records: Vec<DurableRecord> = job
                .questions
                .iter()
                .enumerate()
                .filter_map(|(slot, (fp, _, _))| {
                    outcome.answers.get(slot).copied().flatten().map(|label| {
                        DurableRecord::Answer {
                            version: FINGERPRINT_VERSION,
                            fp: *fp,
                            label,
                            cost_micros: per_answer,
                        }
                    })
                })
                .collect();
            durable.append_group(&records);
            if durable.failed() {
                trigger_bundle(
                    inner,
                    "wal_degraded",
                    "journal append failed; serving without durability".to_owned(),
                );
            }
        }
    }

    for (slot, (fp, pair, senders)) in job.questions.iter().enumerate() {
        let decision = match outcome.answers.get(slot).copied().flatten() {
            Some(label) => {
                tel.llm_answered.inc();
                inner.cache.insert(*fp, label);
                MatchDecision { label, source: DecisionSource::Llm, fingerprint: *fp, trace_id: 0 }
            }
            // No parseable answer after retries: conservative local call.
            None => fallback_decision(inner, *fp, pair),
        };
        resolve_question(inner, *fp, decision, senders, primary_trace);
    }
}

fn ledger_within(actual: &CostLedger, projected: Money) -> bool {
    actual.total() <= projected
}

/// Delivers a decision to a question's own waiters plus any waiters that
/// attached to its in-flight entry from later flushes, and unregisters
/// the question. Stamps each waiter's span with how the answer was
/// produced and its settlement; the terminal stage stays with `submit`.
fn resolve_question(
    inner: &Inner,
    fp: PairFingerprint,
    decision: MatchDecision,
    senders: &[Waiter],
    primary_trace: u64,
) {
    let stage = match decision.source {
        DecisionSource::Llm => "llm_called",
        DecisionSource::Fallback => "fallback",
        DecisionSource::Cache => "cache_filled",
    };
    let attached = lock(&inner.in_flight).remove(&fp).unwrap_or_default();
    for waiter in senders.iter().chain(&attached) {
        inner.telemetry.trace.stamp(waiter.trace, stage);
        // Coalesced waiters rode an LLM call another trace paid for:
        // point their span at the primary, which owns the downstream
        // child spans (each child is attributed exactly once).
        if decision.source == DecisionSource::Llm
            && primary_trace != 0
            && waiter.trace != primary_trace
        {
            inner
                .telemetry
                .trace
                .stamp_with(waiter.trace, "llm_shared", primary_trace.to_string());
        }
        inner.telemetry.trace.stamp(waiter.trace, "settled");
        let _ = waiter.tx.send(decision);
    }
}

/// Answers every question of a batch with the logistic fallback.
fn answer_via_fallback(inner: &Inner, job: &BatchJob) {
    for (fp, pair, senders) in &job.questions {
        let decision = fallback_decision(inner, *fp, pair);
        resolve_question(inner, *fp, decision, senders, 0);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use proptest::prelude::*;

    use super::*;

    fn us(micros: u64) -> Duration {
        Duration::from_micros(micros)
    }

    /// The flush rule over arrivals given as offsets from a common origin,
    /// in any order: when they must be dispatched, as an offset too.
    fn dispatch_after(arrivals: &[Duration], flush_deadline: Duration) -> Duration {
        let origin = Instant::now();
        Arrivals::of(arrivals.iter().map(|&at| origin + at))
            .expect("at least one arrival")
            .dispatch_at(flush_deadline)
            .duration_since(origin)
    }

    #[test]
    fn a_lone_arrival_leaves_at_half_the_deadline() {
        assert_eq!(dispatch_after(&[us(7_000)], us(25_000)), us(19_500));
        assert_eq!(Arrivals::of([]), None);
    }

    #[test]
    fn company_restarts_the_quiet_clock_within_the_deadline() {
        // Two closed-loop callers parked 200 µs apart: the midpoint between
        // the second arrival and the first one's deadline.
        assert_eq!(dispatch_after(&[us(0), us(200)], us(25_000)), us(12_600));
        // An arrival past the deadline of the oldest does not extend it.
        assert_eq!(dispatch_after(&[us(0), us(30_000)], us(25_000)), us(25_000));
    }

    /// The vector of `a_slowing_trickle_still_shares_one_batch`
    /// (`tests/er_service.rs`), with no timer involved: the midpoint alone
    /// dispatches the first three at 825 ms, before the fourth arrives.
    #[test]
    fn a_slowing_trickle_waits_out_its_own_largest_gap() {
        let ms = |m: u64| us(m * 1_000);
        let deadline = ms(1_000);
        assert_eq!(dispatch_after(&[ms(0)], deadline), ms(500));
        assert_eq!(dispatch_after(&[ms(0), ms(375)], deadline), ms(750));
        assert_eq!(
            dispatch_after(&[ms(0), ms(375), ms(650)], deadline),
            ms(1_000)
        );
        assert_eq!(
            dispatch_after(&[ms(0), ms(375), ms(650), ms(900)], deadline),
            ms(1_000)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_rule_stays_between_the_newest_arrival_and_the_deadline(
            arrivals in prop::collection::vec(0u64..60_000, 1..12),
            deadline in 1u64..50_000,
        ) {
            let arrivals: Vec<Duration> = arrivals.into_iter().map(us).collect();
            let (oldest, newest) = (*arrivals.iter().min().unwrap(), *arrivals.iter().max().unwrap());
            let hard = oldest + us(deadline);
            let at = dispatch_after(&arrivals, us(deadline));
            prop_assert!(at <= hard);
            if newest <= hard {
                prop_assert!(at >= newest);
            }
            if newest >= hard {
                prop_assert_eq!(at, hard);
            }
        }

        #[test]
        fn a_later_arrival_never_moves_the_dispatch_earlier(
            arrivals in prop::collection::vec(0u64..60_000, 1..12),
            later_by in 0u64..60_000,
            deadline in 1u64..50_000,
        ) {
            let mut arrivals: Vec<Duration> = arrivals.into_iter().map(us).collect();
            let before = dispatch_after(&arrivals, us(deadline));
            arrivals.push(*arrivals.iter().max().unwrap() + us(later_by));
            prop_assert!(dispatch_after(&arrivals, us(deadline)) >= before);
        }

        /// No loss on a trickle: once a regular trickle has shown its gap
        /// (two arrivals), the next question is waited for whenever the
        /// deadline leaves room for it.
        #[test]
        fn a_regular_trickle_is_not_dispatched_before_its_next_arrival(
            gap in 1u64..20_000,
            k in 1u64..10,
            slack in 0u64..20_000,
        ) {
            let arrivals: Vec<Duration> = (0..=k).map(|i| us(i * gap)).collect();
            let deadline = us((k + 1) * gap + slack);
            prop_assert!(dispatch_after(&arrivals, deadline) >= us((k + 1) * gap));
        }

        /// Neither the order the instants are given in nor where the set
        /// is split between the dispatcher and the queue matters.
        #[test]
        fn order_and_split_do_not_matter(
            arrivals in prop::collection::vec(0u64..60_000, 2..12),
            rotate in 0usize..12,
            split in 1usize..12,
        ) {
            let origin = Instant::now();
            let mut instants: Vec<Instant> = arrivals.into_iter().map(|at| origin + us(at)).collect();
            let all = Arrivals::of(instants.iter().copied());
            let n = instants.len();
            instants.rotate_left(rotate % n);
            prop_assert_eq!(Arrivals::of(instants.iter().copied()), all);
            instants.sort_unstable();
            let (held, pending) = instants.split_at(split.min(instants.len() - 1));
            let (held, pending) = (Arrivals::of(held.iter().copied()), Arrivals::of(pending.iter().copied()));
            prop_assert_eq!(held.into_iter().chain(pending).reduce(Arrivals::followed_by), all);
        }
    }

    const FP: PairFingerprint = PairFingerprint(7);
    const LABEL: MatchLabel = MatchLabel::Matching;

    fn waiter() -> (Waiter, Receiver<MatchDecision>) {
        let (tx, rx) = channel();
        (Waiter { tx, trace: 0, arrived: Instant::now() }, rx)
    }

    /// One `attach_if_bought` call: whether the waiter came back (the
    /// question is new) and how it coalesced otherwise.
    fn look_up(
        in_flight: &Mutex<HashMap<PairFingerprint, Vec<Waiter>>>,
        cache: &AnswerCache,
    ) -> (bool, Option<&'static str>, Receiver<MatchDecision>) {
        let (w, rx) = waiter();
        let how = Cell::new(None);
        let back = attach_if_bought(in_flight, cache, FP, w, |_, h| how.set(Some(h)));
        (back.is_some(), how.get(), rx)
    }

    /// What a worker does when the LLM answered: `execute_job` fills the
    /// cache, then `resolve_question` un-registers the question and
    /// delivers to whoever attached.
    fn worker_fills_cache(cache: &AnswerCache) {
        cache.insert(FP, LABEL);
    }

    fn worker_unregisters(
        in_flight: &Mutex<HashMap<PairFingerprint, Vec<Waiter>>>,
        source: DecisionSource,
    ) {
        let decision = MatchDecision { label: LABEL, source, fingerprint: FP, trace_id: 0 };
        for w in lock(in_flight).remove(&FP).unwrap_or_default() {
            let _ = w.tx.send(decision);
        }
    }

    fn dispatched() -> Mutex<HashMap<PairFingerprint, Vec<Waiter>>> {
        Mutex::new(HashMap::from([(FP, Vec::new())]))
    }

    #[test]
    fn before_the_cache_fill_a_duplicate_attaches_and_the_worker_delivers() {
        let (in_flight, cache) = (dispatched(), AnswerCache::new(true, 16));
        let (new, how, rx) = look_up(&in_flight, &cache);
        assert_eq!((new, how), (false, Some("in_flight")));
        assert!(rx.try_recv().is_err(), "nothing to deliver yet");
        worker_fills_cache(&cache);
        worker_unregisters(&in_flight, DecisionSource::Llm);
        assert_eq!(rx.try_recv().map(|d| d.source), Ok(DecisionSource::Llm));
    }

    #[test]
    fn between_fill_and_unregister_a_duplicate_still_attaches() {
        let (in_flight, cache) = (dispatched(), AnswerCache::new(true, 16));
        worker_fills_cache(&cache);
        let (new, how, rx) = look_up(&in_flight, &cache);
        assert_eq!((new, how), (false, Some("in_flight")));
        worker_unregisters(&in_flight, DecisionSource::Llm);
        assert_eq!(rx.try_recv().map(|d| d.source), Ok(DecisionSource::Llm));
    }

    #[test]
    fn after_unregister_a_duplicate_is_answered_from_the_cache() {
        let (in_flight, cache) = (dispatched(), AnswerCache::new(true, 16));
        worker_fills_cache(&cache);
        worker_unregisters(&in_flight, DecisionSource::Llm);
        let (new, how, rx) = look_up(&in_flight, &cache);
        assert_eq!((new, how), (false, Some("cache")));
        let decision = rx.try_recv().expect("answered on the spot");
        assert_eq!(
            (decision.label, decision.source),
            (LABEL, DecisionSource::Cache)
        );
        assert!(lock(&in_flight).is_empty(), "nothing re-registered");
    }

    #[test]
    fn a_question_nobody_bought_is_new() {
        let in_flight = Mutex::new(HashMap::new());
        // Never asked.
        let (new, how, _rx) = look_up(&in_flight, &AnswerCache::new(true, 16));
        assert_eq!((new, how), (true, None));
        // Answered by the fallback: un-registered without a cache fill,
        // because fallback verdicts are deliberately not cached.
        let (in_flight, cache) = (dispatched(), AnswerCache::new(true, 16));
        worker_unregisters(&in_flight, DecisionSource::Fallback);
        let (new, how, _rx) = look_up(&in_flight, &cache);
        assert_eq!((new, how), (true, None));
        // Answered by the LLM with the cache switched off.
        let (in_flight, cache) = (dispatched(), AnswerCache::new(false, 16));
        worker_fills_cache(&cache);
        worker_unregisters(&in_flight, DecisionSource::Llm);
        let (new, how, _rx) = look_up(&in_flight, &cache);
        assert_eq!((new, how), (true, None));
    }
}
