//! The two served workloads: the full path over two sockets —
//! closed-loop clients → `POST /match` on `MatchServer` → `ErService` →
//! `HttpChatClient` → `LlmServer` — with every server in this process.
//!
//! Load shape is fixed, not read from the machine: [`CLIENTS`] client
//! threads, each holding one connection at a time and waiting for its
//! reply before sending the next request.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use batcher_core::{run_on_split, RunConfig};
use er_core::{BinaryConfusion, LabeledPair, MatchLabel, Money};
use er_service::durable::replay;
use er_service::{
    ErService, HealthReport, MatchResponseWire, MatchServer, ServiceConfig, ServiceStats, WalConfig,
};
use llm::{ChatApi, SimLlm};
use llm_service::{LlmServer, RunningServer, ServeOptions};

use crate::drills::{self, ScratchDir};
use crate::http::{HttpClient, Marks};
use crate::inputs::{
    render_body, serve_dataset, serve_inputs, PlannedRequest, RequestKind, ServeInputs,
};
use crate::report::{median, micros, millis, peak_rss_mb, quantile, Metrics, Outcome};
use crate::trace::{set_hop_metrics, TimedChat, Tracer};
use crate::{Options, SETUP_REPS};

/// Closed-loop client threads = connections in flight, at most.
pub const CLIENTS: usize = 2;
/// Questions priced under standard prompting for `api_saving_x`.
const STANDARD_SAMPLE: usize = 2000;
/// Draws of standard prompting's fixed demonstrations averaged over.
const STANDARD_DRAWS: usize = 8;
/// Questions re-asked after the `serve_fresh` restart.
const RESTART_SAMPLE: usize = 500;

struct Spec {
    name: &'static str,
    /// Sizes each client's pre-rendered stream: `--seconds` times this
    /// many requests. The timed loop stops when the measuring time is up;
    /// only a machine this much faster than the reference box (where the
    /// clients reach 60-90% of it, depending on the hour) runs out of
    /// requests first.
    max_requests_per_client_per_s: f64,
    /// Repeats sent after each first-time question (0 = every request new).
    repeats_per_first: usize,
    /// `Some(n)` overrides `ServiceConfig::default().batch_size`.
    batch_size: Option<usize>,
    /// WAL on, and a restart on the same log after the timed section.
    durable: bool,
}

/// `serve_repeat`: one first-time question, then nine repeats.
pub fn repeat(options: &Options) -> Outcome {
    run_workload(
        Spec {
            name: "serve_repeat",
            // Deadline-bound: ten requests cannot take less than the
            // 25 ms one miss waits.
            max_requests_per_client_per_s: 400.0,
            repeats_per_first: 9,
            batch_size: None,
            durable: false,
        },
        options,
    )
}

/// `serve_fresh`: every question new, `batch_size` = the client count so
/// every flush is size-triggered, WAL on, then a restart.
pub fn fresh(options: &Options) -> Outcome {
    run_workload(
        Spec {
            name: "serve_fresh",
            // 2 x 1300 x 38 s stays under `cache_capacity` (100,000):
            // eviction is a named blind spot, and the restart check
            // needs every answer still cached.
            max_requests_per_client_per_s: 1300.0,
            repeats_per_first: 0,
            batch_size: Some(CLIENTS),
            durable: true,
        },
        options,
    )
}

/// The three servers of the served path, dropped front to back.
struct Stack {
    front: MatchServer,
    service: Arc<ErService>,
    llm: RunningServer,
    /// The er-service → llm-service decorator (traced runs only).
    chat: Option<Arc<TimedChat>>,
}

impl Stack {
    fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops the front end and the service (flushing and joining their
    /// threads) and hands back the LLM server for a restart.
    fn stop_service(self) -> RunningServer {
        let Stack { front, service, llm, chat } = self;
        drop(front);
        drop(service);
        drop(chat);
        llm
    }
}

fn service_config(spec: &Spec, domain: &str, wal_dir: Option<&std::path::Path>) -> ServiceConfig {
    let default = ServiceConfig::default();
    ServiceConfig {
        // Large enough never to bind: budget exhaustion is a named blind
        // spot, not part of these workloads.
        budget: Money::from_dollars(10_000.0),
        domain: domain.to_owned(),
        batch_size: spec.batch_size.unwrap_or(default.batch_size),
        wal: wal_dir.map(WalConfig::at),
        ..default
    }
}

/// Starts `ErService` + `MatchServer` over an already-running LLM server.
fn start_service(
    llm: RunningServer,
    bootstrap: Vec<LabeledPair>,
    config: ServiceConfig,
    tracer: Option<&Arc<Tracer>>,
) -> (Stack, Duration) {
    let client: Arc<dyn ChatApi> = Arc::new(llm.client());
    let chat = tracer.map(|t| {
        Arc::new(TimedChat::new(Arc::clone(&client), "llm-service.chat").traced(Arc::clone(t)))
    });
    let api: Arc<dyn ChatApi> = match &chat {
        Some(chat) => Arc::clone(chat) as Arc<dyn ChatApi>,
        None => client,
    };
    let started = Instant::now();
    let service = Arc::new(ErService::start(api, bootstrap, config));
    let start = started.elapsed();
    let front = MatchServer::start(Arc::clone(&service), ServeOptions::default())
        .expect("loopback front end binds");
    (Stack { front, service, llm, chat }, start)
}

/// Where an answer came from, as the reply says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Cache,
    Llm,
    Fallback,
}

/// One completed request as its client saw it.
struct Sample {
    question: usize,
    kind: RequestKind,
    latency: Duration,
    source: Source,
    matching: bool,
    fingerprint: String,
    marks: Marks,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Transport errors, non-200 replies and undecodable replies.
    failures: Vec<String>,
    attempted: u64,
    connects: u64,
}

/// One closed-loop client: sends `stream` from `*position` on, one
/// request at a time, until the time is up (or the stream ends).
fn drive_client(
    addr: SocketAddr,
    stream: &[PlannedRequest],
    position: &mut usize,
    until: Instant,
    log: &mut ClientLog,
) {
    let mut client = HttpClient::new(addr);
    while *position < stream.len() && Instant::now() < until {
        let request = &stream[*position];
        *position += 1;
        log.attempted += 1;
        let exchange = match client.post("/match", &request.body) {
            Ok(exchange) => exchange,
            Err(e) => {
                log.failures.push(format!("transport: {e}"));
                continue;
            }
        };
        if exchange.status != 200 {
            log.failures.push(format!(
                "status {}: {}",
                exchange.status,
                String::from_utf8_lossy(&exchange.body)
            ));
            continue;
        }
        let reply: MatchResponseWire = match serde_json::from_slice(&exchange.body) {
            Ok(reply) => reply,
            Err(e) => {
                log.failures.push(format!("undecodable reply: {e}"));
                continue;
            }
        };
        let source = match reply.source.as_str() {
            "cache" => Source::Cache,
            "llm" => Source::Llm,
            "fallback" => Source::Fallback,
            other => {
                log.failures.push(format!("unknown source {other:?}"));
                continue;
            }
        };
        let matching = match reply.label.as_str() {
            "matching" => true,
            "non_matching" => false,
            other => {
                log.failures.push(format!("invalid label {other:?}"));
                continue;
            }
        };
        log.samples.push(Sample {
            question: request.question,
            kind: request.kind,
            latency: exchange.marks.total(),
            source,
            matching,
            fingerprint: reply.fingerprint,
            marks: exchange.marks,
        });
    }
    log.connects += client.connects;
}

fn all_samples(logs: &[ClientLog]) -> impl Iterator<Item = &Sample> {
    logs.iter().flat_map(|l| &l.samples)
}

/// Runs every client on its stream (from where it stands) until `until`;
/// returns when all have stopped.
fn drive(
    addr: SocketAddr,
    inputs: &ServeInputs,
    positions: &mut [usize],
    logs: &mut [ClientLog],
    until: Instant,
) {
    std::thread::scope(|scope| {
        for ((stream, position), log) in inputs.streams.iter().zip(positions).zip(logs) {
            scope.spawn(move || drive_client(addr, stream, position, until, log));
        }
    });
}

/// Throughput and latency of one phase, as medians over equal windows of
/// about one second so that a stall in one of them does not move the
/// figure. A phase shorter than three windows is summarized whole.
struct PhaseStats {
    questions_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    /// Requests completed in each window, for the report.
    window_counts: Vec<usize>,
}

fn phase_stats<'s>(
    samples: impl Iterator<Item = &'s Sample>,
    start: Instant,
    end: Instant,
) -> PhaseStats {
    let windows = (end - start).as_secs_f64().floor() as usize;
    let window_s = (end - start).as_secs_f64() / windows.max(1) as f64;
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    let mut all: Vec<f64> = Vec::new();
    for sample in samples.filter(|s| s.marks.start >= start && s.marks.done <= end) {
        let us = micros(sample.latency);
        all.push(us);
        let w = ((sample.marks.done - start).as_secs_f64() / window_s) as usize;
        per_window[w.min(windows.max(1) - 1)].push(us);
    }
    if windows < 3 {
        return PhaseStats {
            questions_per_s: all.len() as f64 / (end - start).as_secs_f64(),
            p50_us: quantile(&mut all, 0.50),
            p95_us: quantile(&mut all, 0.95),
            window_counts: Vec::new(),
        };
    }
    let mut rates: Vec<f64> = per_window
        .iter()
        .map(|w| w.len() as f64 / window_s)
        .collect();
    let mut p50s: Vec<f64> = per_window.iter_mut().map(|w| quantile(w, 0.50)).collect();
    let mut p95s: Vec<f64> = per_window.iter_mut().map(|w| quantile(w, 0.95)).collect();
    PhaseStats {
        questions_per_s: median(&mut rates),
        p50_us: median(&mut p50s),
        p95_us: median(&mut p95s),
        window_counts: per_window.iter().map(Vec::len).collect(),
    }
}

fn get_json<T: for<'de> serde::Deserialize<'de>>(
    addr: SocketAddr,
    path: &str,
) -> Result<T, String> {
    let exchange = HttpClient::new(addr)
        .get(path)
        .map_err(|e| format!("GET {path}: {e}"))?;
    if exchange.status != 200 {
        return Err(format!("GET {path}: status {}", exchange.status));
    }
    serde_json::from_slice(&exchange.body).map_err(|e| format!("GET {path}: {e}"))
}

/// What the clients' logs say about the answers: the first answer to
/// every distinct question (what repeats and the restart are checked
/// against) and the confusion matrix of those first answers.
struct Audit {
    /// question → (label, fingerprint) of its first answer.
    first_answers: HashMap<usize, (bool, String)>,
    confusion: BinaryConfusion,
}

impl Audit {
    /// Distinct questions answered, in a stable order.
    fn asked(&self) -> Vec<usize> {
        let mut asked: Vec<usize> = self.first_answers.keys().copied().collect();
        asked.sort_unstable();
        asked
    }
}

/// Output checks over the client logs: every reply counted, a first-time
/// question never from the cache, a repeat always from the cache with its
/// first label and fingerprint.
fn audit_replies(logs: &[ClientLog], inputs: &ServeInputs, outcome: &mut Outcome) -> Audit {
    for log in logs {
        outcome.attempted += log.attempted;
        outcome.failed += log.failures.len() as u64;
        if let Some(first) = log.failures.first() {
            outcome.check_failures.push(format!(
                "{} failed requests, first: {first}",
                log.failures.len()
            ));
        }
    }
    let mut audit = Audit { first_answers: HashMap::new(), confusion: BinaryConfusion::new() };
    let mut bad_repeats = 0u64;
    let mut unexpected_cache = 0u64;
    for sample in logs.iter().flat_map(|l| &l.samples) {
        if sample.kind == RequestKind::First {
            if sample.source == Source::Cache {
                unexpected_cache += 1;
            }
            audit.first_answers.insert(
                sample.question,
                (sample.matching, sample.fingerprint.clone()),
            );
            audit.confusion.observe(
                inputs.questions[sample.question].label,
                MatchLabel::from_bool(sample.matching),
            );
        } else {
            let ok = audit
                .first_answers
                .get(&sample.question)
                .is_some_and(|(label, fp)| {
                    sample.source == Source::Cache
                        && sample.matching == *label
                        && sample.fingerprint == *fp
                });
            if !ok {
                bad_repeats += 1;
            }
        }
    }
    if bad_repeats > 0 {
        outcome.failed += bad_repeats;
        outcome.check_failures.push(format!(
            "{bad_repeats} repeats not served from cache with their first label and fingerprint"
        ));
    }
    if unexpected_cache > 0 {
        outcome.failed += unexpected_cache;
        outcome.check_failures.push(format!(
            "{unexpected_cache} first-time questions answered from cache"
        ));
    }
    audit
}

/// `/stats` conservation: every submitted question answered exactly one
/// way, spend within budget, nothing shed or denied.
fn audit_stats(stats: &ServiceStats, outcome: &mut Outcome) {
    let answered = stats.cache_hits
        + stats.llm_answered
        + stats.fallback_answered
        + stats.coalesced_duplicates;
    if answered != stats.submitted {
        outcome.check_failures.push(format!(
            "/stats: cache_hits + llm + fallback + coalesced = {answered}, submitted = {}",
            stats.submitted
        ));
    }
    if stats.spent_micros > stats.budget_micros {
        outcome.check_failures.push(format!(
            "/stats: spent {} > budget {}",
            stats.spent_micros, stats.budget_micros
        ));
    }
    if stats.shed_total > 0 || stats.budget_denials > 0 {
        outcome.check_failures.push(format!(
            "/stats: shed {} / budget denials {} on a workload sized to have none",
            stats.shed_total, stats.budget_denials
        ));
    }
}

/// API dollars per question of standard prompting on (a sample of) the
/// questions the service answered, for `api_saving_x`.
///
/// Standard prompting draws its fixed demonstrations once per run and
/// repeats them in every prompt, so its cost swings with the draw;
/// several draws over slices of the sample average that out.
fn standard_usd_per_question(inputs: &ServeInputs, asked: &[usize], seed: u64) -> f64 {
    let sample: Vec<&LabeledPair> = asked
        .iter()
        .take(STANDARD_SAMPLE)
        .map(|&q| &inputs.questions[q])
        .collect();
    if sample.is_empty() {
        return 0.0;
    }
    let pool: Vec<&LabeledPair> = inputs.bootstrap.iter().collect();
    let llm = SimLlm::new();
    let usd: f64 = sample
        .chunks(sample.len().div_ceil(STANDARD_DRAWS))
        .enumerate()
        .map(|(draw, questions)| {
            let config = RunConfig { seed: seed + draw as u64, ..RunConfig::standard_prompting() };
            run_on_split(&inputs.dataset, &pool, questions, &llm, config)
                .ledger
                .api
                .dollars()
        })
        .sum();
    usd / sample.len() as f64
}

/// Client-side waterfall: connect/write/wait/read medians over every
/// request, spans for the traced phase's requests, and the check that the
/// parts sum to the whole.
fn client_waterfall(
    logs: &[ClientLog],
    traced_from: Instant,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let mut request_no = 0u64;
    let mut worst_gap = 0.0f64;
    let mut phases: [Vec<f64>; 4] = Default::default();
    for sample in logs.iter().flat_map(|l| &l.samples) {
        let m = &sample.marks;
        let parts = [
            ("er-service.connect", m.start, m.connected),
            ("er-service.write", m.connected, m.written),
            ("er-service.wait", m.written, m.first_byte),
            ("er-service.read", m.first_byte, m.done),
        ];
        let sum: Duration = parts.iter().map(|(_, a, b)| *b - *a).sum();
        let total = micros(sample.latency);
        worst_gap = worst_gap.max((micros(sum) - total).abs() / total);
        for (slot, (_, a, b)) in phases.iter_mut().zip(&parts) {
            slot.push(micros(*b - *a));
        }
        if m.start < traced_from {
            continue;
        }
        request_no += 1;
        let root = tracer.record("client.request", 0, request_no, m.start, m.done);
        for (name, start, end) in parts {
            tracer.record(name, root, request_no, start, end);
        }
    }
    outcome.notes.push(format!(
        "waterfall: connect+write+wait+read vs client latency, worst gap {worst_gap:.6}"
    ));
    if worst_gap > 0.02 {
        outcome.check_failures.push(format!(
            "client spans miss the request latency by {worst_gap:.4} (> 0.02)"
        ));
    }
    let [connect, write, wait, read] = &mut phases;
    outcome
        .metrics
        .set("er-service.connect_us_p50", quantile(connect, 0.50));
    outcome
        .metrics
        .set("er-service.write_us_p50", quantile(write, 0.50));
    outcome
        .metrics
        .set("er-service.wait_us_p50", quantile(wait, 0.50));
    outcome
        .metrics
        .set("er-service.read_us_p50", quantile(read, 0.50));
}

/// Hit latency percentiles (`source:"cache"` replies).
fn set_hit_metrics(metrics: &mut Metrics, hit_us: &mut [f64]) {
    metrics.set("er-service.hit_p50_us", quantile(hit_us, 0.50));
    metrics.set("er-service.hit_p95_us", quantile(hit_us, 0.95));
    metrics.set("er-service.hit_p99_us", quantile(hit_us, 0.99));
    metrics.set("er-service.hit_samples", hit_us.len() as f64);
}

/// The layer metrics `/stats` carries.
fn set_stats_metrics(metrics: &mut Metrics, s: &ServiceStats) {
    let submitted = s.submitted.max(1) as f64;
    metrics.set(
        "er-service.cache_hit_share",
        s.cache_hits as f64 / submitted,
    );
    metrics.set(
        "er-service.fallback_share",
        s.fallback_answered as f64 / submitted,
    );
    metrics.set("er-service.shed_share", s.shed_total as f64 / submitted);
    metrics.set("er-service.budget_denials", s.budget_denials as f64);
    metrics.set(
        "er-service.questions_per_batch",
        s.llm_answered as f64 / s.batches_flushed.max(1) as f64,
    );
    metrics.set("er-service.batches", s.batches_flushed as f64);
    metrics.set("er-service.coalesced", s.coalesced_duplicates as f64);
    metrics.set("er-service.plan_p50_us", s.plan_p50_us as f64);
    metrics.set("er-service.plans_full", s.plan_full as f64);
    metrics.set("er-service.plans_incremental", s.plan_incremental as f64);
    metrics.set(
        "er-service.lock_hold_p50_us",
        s.planner_lock_hold_p50_us as f64,
    );
    metrics.set("er-service.queue_depth_peak", s.queue_depth_peak as f64);
    metrics.set("core.demos_labeled", s.demos_labeled as f64);
    metrics.set("core.batches", s.batches_flushed as f64);
    metrics.set("llm.calls", s.api_calls as f64);
    metrics.set("llm.prompt_tokens", s.prompt_tokens as f64);
    metrics.set("llm.completion_tokens", s.completion_tokens as f64);
    metrics.set("llm.retries", s.retries as f64);
    metrics.set("llm.unanswered", s.fallback_answered as f64);
    metrics.set(
        "core.prompt_tokens_per_question",
        s.prompt_tokens as f64 / s.llm_answered.max(1) as f64,
    );
    metrics.set("wal.appends", s.wal_appends as f64);
}

/// `serve_fresh`'s second life: replay the log, restart on it, re-ask a
/// sample — nothing settled may be bought again.
fn restart_and_reask(
    llm: RunningServer,
    config: ServiceConfig,
    inputs: &ServeInputs,
    audit: &Audit,
    before: Option<&ServiceStats>,
    outcome: &mut Outcome,
) {
    let wal = config.wal.clone().expect("the durable workload journals");
    let started = Instant::now();
    match replay(&wal) {
        Ok((log, replayed)) => {
            outcome
                .metrics
                .set("er-service.recovery_ms", millis(started.elapsed()));
            outcome.metrics.set(
                "er-service.recovery_records",
                replayed.report.records_replayed as f64,
            );
            for violation in replayed.report.conservation_violations(config.budget) {
                outcome
                    .check_failures
                    .push(format!("recovery: {violation}"));
            }
            drop(log);
        }
        Err(e) => outcome
            .check_failures
            .push(format!("WAL replay failed: {e:?}")),
    }

    let (restarted, _) = start_service(llm, inputs.bootstrap.clone(), config, None);
    let asked = audit.asked();
    let step = (asked.len() / RESTART_SAMPLE).max(1);
    let sample: Vec<PlannedRequest> = asked
        .iter()
        .step_by(step)
        .take(RESTART_SAMPLE)
        .map(|&q| {
            let pair = &inputs.questions[q].pair;
            PlannedRequest {
                question: q,
                kind: RequestKind::Verbatim,
                body: render_body(
                    pair.a().schema().attributes(),
                    pair.a().values(),
                    pair.b().values(),
                ),
            }
        })
        .collect();
    let mut log = ClientLog::default();
    drive_client(
        restarted.addr(),
        &sample,
        &mut 0,
        Instant::now() + Duration::from_secs(60),
        &mut log,
    );
    outcome.attempted += log.attempted;
    outcome.failed += log.failures.len() as u64;
    let rebought = log
        .samples
        .iter()
        .filter(|s| {
            s.source != Source::Cache
                || audit
                    .first_answers
                    .get(&s.question)
                    .map(|(label, _)| *label)
                    != Some(s.matching)
        })
        .count();
    if rebought > 0 || log.samples.len() != sample.len() {
        outcome.failed += rebought as u64;
        outcome.check_failures.push(format!(
            "restart: {rebought} of {} re-asked questions not served from the recovered cache with their label ({} replies)",
            sample.len(),
            log.samples.len()
        ));
    }
    // The recovered ledger carries the first life's calls; a re-buy would
    // add to them.
    match (get_json::<ServiceStats>(restarted.addr(), "/stats"), before) {
        (Ok(after), Some(before))
            if after.api_calls == before.api_calls && after.llm_answered == 0 => {}
        (Ok(after), Some(before)) => outcome.check_failures.push(format!(
            "restart re-bought answers: api_calls {} -> {}, llm_answered {}",
            before.api_calls, after.api_calls, after.llm_answered
        )),
        (Err(e), _) => outcome.check_failures.push(e),
        // The first life's `/stats` failure is already a failed check.
        (Ok(_), None) => {}
    }
    // The main phase has no hits; these are the workload's hit latencies.
    let mut rehit_us: Vec<f64> = log.samples.iter().map(|s| micros(s.latency)).collect();
    outcome.notes.push(format!(
        "restart: {} re-asked, hit p50 {:.1} us",
        log.samples.len(),
        quantile(&mut rehit_us, 0.50)
    ));
    if outcome.traced {
        set_hit_metrics(&mut outcome.metrics, &mut rehit_us);
    }
    drop(restarted.stop_service());
}

fn run_workload(spec: Spec, options: &Options) -> Outcome {
    let seed = options.seed;
    let measure = Duration::from_secs_f64(options.seconds);
    let tracer = options.trace.then(|| Arc::new(Tracer::new()));

    // -- the benchmark's own input rendering (not the system's set-up)
    let requests_per_client =
        ((spec.max_requests_per_client_per_s * options.seconds).round() as usize).max(20);
    let inputs = serve_inputs(seed, CLIENTS, requests_per_client, spec.repeats_per_first);
    let domain = inputs.dataset.domain().to_owned();
    let mut outcome = Outcome::new(spec.name, options, inputs.digest.clone());

    // -- set-up, several times: dataset generation and the three server
    // starts, until the first timed operation could be sent
    let mut setups: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut generate_ms: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let mut start_ms: Vec<f64> = Vec::with_capacity(SETUP_REPS);
    let wal_dir = spec.durable.then(|| ScratchDir::new(options, spec.name));
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        // Rehearsals journal into their own directory so the real run
        // starts from an empty log.
        let rehearsal_dir = (spec.durable && !last).then(|| ScratchDir::new(options, "wal-setup"));
        let dir = rehearsal_dir
            .as_ref()
            .or(wal_dir.as_ref())
            .map(ScratchDir::path);
        let started = Instant::now();
        let (_dataset, bootstrap) = serve_dataset(seed);
        generate_ms.push(millis(started.elapsed()));
        let llm = LlmServer::new().start().expect("loopback LLM server binds");
        let (s, service_start) = start_service(
            llm,
            bootstrap,
            service_config(&spec, &domain, dir),
            last.then_some(tracer.as_ref()).flatten(),
        );
        setups.push(started.elapsed().as_secs_f64());
        start_ms.push(millis(service_start));
        if last {
            stack = Some(s);
        } else {
            drop(s.stop_service());
        }
    }
    let stack = stack.expect("SETUP_REPS > 0");
    let addr = stack.addr();
    let index_before = embed::index::stats();

    // -- timed section. A traced run spends the first part untraced (the
    // overhead reference; the service's LLM decorator is installed for
    // the whole run) and records client spans for the rest.
    let mut positions = vec![0usize; CLIENTS];
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let timed_start = Instant::now();
    let first_share = if options.trace { 0.4 } else { 1.0 };
    let first_until = timed_start + measure.mul_f64(first_share);
    drive(addr, &inputs, &mut positions, &mut logs, first_until);
    let first_end = Instant::now();
    // The first second warms caches, allocator and sockets; its requests
    // count for dollars, F1 and the checks, not for the timings.
    let warm_up = Duration::from_secs(1).min(measure.mul_f64(0.1));
    let first = phase_stats(all_samples(&logs), timed_start + warm_up, first_end);
    let traced_rate = options.trace.then(|| {
        drive(
            addr,
            &inputs,
            &mut positions,
            &mut logs,
            timed_start + measure,
        );
        phase_stats(all_samples(&logs), first_end, Instant::now()).questions_per_s
    });
    if positions
        .iter()
        .zip(&inputs.streams)
        .any(|(p, s)| *p == s.len())
    {
        outcome.notes.push(format!(
            "a client ran out of requests after {:.1} s of {} s: this machine is faster than the streams were sized for",
            timed_start.elapsed().as_secs_f64(),
            options.seconds
        ));
    }

    // -- what the service says about itself, and the output checks
    let stats: Option<ServiceStats> = get_json(addr, "/stats")
        .map_err(|e| outcome.check_failures.push(e))
        .ok();
    let health: Option<HealthReport> = get_json(addr, "/healthz")
        .map_err(|e| outcome.check_failures.push(e))
        .ok();
    let audit = audit_replies(&logs, &inputs, &mut outcome);
    if let Some(stats) = &stats {
        audit_stats(stats, &mut outcome);
    }

    // -- end-to-end metrics
    let distinct = audit.first_answers.len().max(1) as f64;
    let api_usd = stats.as_ref().map_or(0.0, |s| s.api_micros as f64 / 1e6);
    let label_usd = stats
        .as_ref()
        .map_or(0.0, |s| s.labeling_micros as f64 / 1e6);
    let standard_usd = standard_usd_per_question(&inputs, &audit.asked(), seed);
    let latencies_of = |source: Source| -> Vec<f64> {
        all_samples(&logs)
            .filter(|s| s.source == source)
            .map(|s| micros(s.latency))
            .collect()
    };
    let mut hit_us = latencies_of(Source::Cache);
    let mut miss_us = latencies_of(Source::Llm);
    outcome.notes.push(format!(
        "requests {} ({} hits, {} misses, {} fallbacks), distinct questions {distinct}, clients {CLIENTS}, connects {}",
        all_samples(&logs).count(),
        hit_us.len(),
        miss_us.len(),
        latencies_of(Source::Fallback).len(),
        logs.iter().map(|l| l.connects).sum::<u64>()
    ));
    outcome
        .notes
        .push(format!("requests per window {:?}", first.window_counts));
    let metrics = &mut outcome.metrics;
    metrics.set("setup_s", median(&mut setups));
    metrics.set("questions_per_s", first.questions_per_s);
    metrics.set("f1", audit.confusion.scores().f1);
    metrics.set("api_usd_per_1k_questions", api_usd / distinct * 1e3);
    metrics.set("label_usd_per_1k_questions", label_usd / distinct * 1e3);
    metrics.set("api_saving_x", standard_usd / (api_usd / distinct));
    metrics.set("request_p50_us", first.p50_us);
    metrics.set("request_p95_us", first.p95_us);

    // -- per-layer metrics from the clients' spans, `/stats`, `/healthz`
    if let Some(tracer) = &tracer {
        client_waterfall(&logs, first_end, tracer, &mut outcome);
        let metrics = &mut outcome.metrics;
        metrics.set(
            "trace_overhead_share",
            1.0 - traced_rate.unwrap_or(first.questions_per_s) / first.questions_per_s,
        );
        metrics.set("datagen.generate_ms", median(&mut generate_ms));
        metrics.set("er-service.start_ms", median(&mut start_ms));
        set_hit_metrics(metrics, &mut hit_us);
        let miss_p50 = quantile(&mut miss_us, 0.50);
        metrics.set("er-service.miss_p50_us", miss_p50);
        metrics.set("er-service.miss_p95_us", quantile(&mut miss_us, 0.95));
        metrics.set("er-service.miss_p99_us", quantile(&mut miss_us, 0.99));
        metrics.set("er-service.miss_samples", miss_us.len() as f64);
        // The flush deadline only shapes latency when flushes are
        // deadline-triggered, i.e. batches run below `batch_size`.
        if spec.batch_size.is_none() {
            let deadline = micros(ServiceConfig::default().flush_deadline);
            metrics.set("er-service.post_deadline_us_p50", miss_p50 - deadline);
        }
        if let Some(stats) = &stats {
            set_stats_metrics(metrics, stats);
        }
        if let Some(health) = &health {
            metrics.set("wal.bytes", health.wal_total_bytes as f64);
        }
        // Every request the service sent, answered again in-process now
        // that the clients are done: HTTP − direct is the hop.
        if let Some(chat) = &stack.chat {
            let (calls, requests) = chat.take_calls();
            set_hop_metrics(metrics, &calls, &requests);
        }
        // One Prometheus scrape, as an operator's collector would do.
        match HttpClient::new(addr).get("/metrics") {
            Ok(exchange) if exchange.status == 200 => {
                metrics.set("obs.metrics_scrape_us", micros(exchange.marks.total()));
                metrics.set("obs.metrics_bytes", exchange.body.len() as f64);
            }
            Ok(exchange) => outcome
                .check_failures
                .push(format!("GET /metrics: status {}", exchange.status)),
            Err(e) => outcome.check_failures.push(format!("GET /metrics: {e}")),
        }
        drills::set_index_metrics(&mut outcome.metrics, index_before, embed::index::stats());
    }

    let llm = stack.stop_service();
    match &wal_dir {
        Some(dir) => restart_and_reask(
            llm,
            service_config(&spec, &domain, Some(dir.path())),
            &inputs,
            &audit,
            stats.as_ref(),
            &mut outcome,
        ),
        None => drop(llm),
    }

    if options.trace {
        let pairs: Vec<_> = inputs.questions.iter().map(|p| &p.pair).collect();
        let pool: Vec<&LabeledPair> = inputs.bootstrap.iter().collect();
        drills::common(&mut outcome.metrics, &pairs, &pool, &pairs, options);
    }
    outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    if let Some(tracer) = &tracer {
        crate::write_trace(tracer, &outcome, options);
    }
    outcome
}
