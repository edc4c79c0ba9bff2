//! Integration tests for the online entity-matching service: cache
//! economics, concurrent determinism, budget-exhaustion fallback, the
//! hold policy for partial batches, admission control and the HTTP front
//! end.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, Money};
use batcher::er_service::breaker::THRESHOLD;
use batcher::er_service::{
    pair_fingerprint, DecisionSource, ErService, HealthReport, MatchDecision, MatchServer,
    ServiceConfig, ServiceStats, SubmitOutcome,
};
use batcher::llm::{count_tokens, ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};
use batcher::llm_service::ServeOptions;
use batcher::obs::Span;
use common::{bootstrap, get, hammer, pair, post_match, questions};

/// A service with test-friendly latency and the given overrides.
fn config() -> ServiceConfig {
    ServiceConfig {
        flush_deadline: Duration::from_millis(5),
        batch_size: 4,
        workers: 2,
        ..ServiceConfig::default()
    }
}

#[test]
fn cache_hits_are_identical_and_free() {
    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    let bank = questions(12);

    // First pass: no hits possible.
    let first: Vec<_> = bank.iter().map(|q| service.submit(q)).collect();
    let after_first = service.ledger().snapshot();
    assert!(
        after_first.api_calls > 0,
        "first pass never reached the LLM"
    );

    // Second pass: every answer must come from the cache, unchanged, at
    // zero incremental API cost.
    for (question, first_decision) in bank.iter().zip(&first) {
        let second = service.submit(question);
        assert_eq!(second.source, DecisionSource::Cache);
        assert_eq!(second.label, first_decision.label);
        assert_eq!(second.fingerprint, first_decision.fingerprint);
    }
    let after_second = service.ledger().snapshot();
    assert_eq!(after_first.api_calls, after_second.api_calls);
    assert_eq!(after_first.total(), after_second.total());

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 12);
    assert!(stats.cache_hit_rate() > 0.0);
    // The first pass planned at least one flush; plan latency is live
    // (cache hits on the second pass plan nothing).
    assert!(stats.plans > 0, "no planning pass recorded");
    assert!(stats.plan_p50_us > 0, "plan timing never recorded");
}

/// The cache is always on: N distinct questions asked one after another,
/// then twice more, buy nothing on the repeats — no API call, no spend —
/// and each repeat is a submit-time cache hit.
#[test]
fn repeats_cost_nothing_and_count_two_hits_each() {
    const N: u64 = 8;
    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    let bank = questions(N as usize);
    for q in &bank {
        service.submit(q);
    }
    let first = service.stats();
    assert!(first.api_calls > 0, "first pass never reached the LLM");
    assert_eq!(first.cache_hits, 0, "{first:?}");
    for q in bank.iter().chain(&bank) {
        assert_eq!(service.submit(q).source, DecisionSource::Cache);
    }
    let repeated = service.stats();
    assert_eq!(repeated.api_calls, first.api_calls, "a repeat was bought");
    assert_eq!(
        repeated.spent_micros, first.spent_micros,
        "a repeat was paid for"
    );
    assert_eq!(repeated.cache_hits, 2 * N, "{repeated:?}");
}

#[test]
fn concurrent_clients_with_same_seed_are_deterministic() {
    let bank = Arc::new(questions(24));
    let run = || {
        let service = Arc::new(ErService::start(
            Arc::new(SimLlm::new()),
            bootstrap(),
            config(),
        ));
        let mut decisions: Vec<_> = hammer(&service, &bank, 4, 1)
            .iter()
            .map(|d| (d.fingerprint, d.label))
            .collect();
        decisions.sort_by_key(|(fp, _)| *fp);
        decisions
    };

    let first = run();
    let second = run();
    assert_eq!(first.len(), 24);
    assert_eq!(first, second, "same seed + same workload diverged");
}

#[test]
fn budget_exhaustion_degrades_to_logistic_fallback() {
    // A budget too small for a single batch: every question must still be
    // answered — by the fallback — and spend must stay within budget.
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { budget: Money::from_micros(50), ..config() },
    );
    let bank = questions(10);
    for q in &bank {
        let decision = service.submit(q);
        assert_eq!(decision.source, DecisionSource::Fallback);
    }
    let stats = service.stats();
    assert_eq!(stats.fallback_answered, 10);
    assert_eq!(stats.llm_answered, 0);
    assert!(stats.budget_denials > 0, "governor never denied anything");
    assert!(stats.within_budget(), "spent {} over budget", stats.spend());
    assert_eq!(stats.api_calls, 0);
}

#[test]
fn budget_covers_some_batches_then_falls_back() {
    // A mid-sized budget: early batches run on the LLM, later ones are
    // denied; the ledger never crosses the cap.
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { budget: Money::from_micros(1_500), ..config() },
    );
    let bank = questions(40);
    let decisions: Vec<_> = bank.iter().map(|q| service.submit(q)).collect();
    let llm = decisions
        .iter()
        .filter(|d| d.source == DecisionSource::Llm)
        .count();
    let fallback = decisions
        .iter()
        .filter(|d| d.source == DecisionSource::Fallback)
        .count();
    let stats = service.stats();
    assert!(stats.within_budget(), "spent {} over budget", stats.spend());
    assert!(llm > 0, "budget was never spent on the LLM");
    assert!(
        fallback > 0,
        "budget never ran out: spend {}",
        stats.spend()
    );
}

#[test]
fn context_window_fallback_leaves_a_trace() {
    // One question alone outgrows the default model's 4,096-token window
    // (a one-letter word is a token: 2,400 a side): its batch is answered
    // by the fallback, nothing is bought, and both the flight recorder and
    // the question's span say why.
    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    let title = "x y ".repeat(1_200);
    let oversized = pair(
        0,
        [&title, "founders", "12.99"],
        [&title, "founders", "12.99"],
    );
    let decision = service.submit(&oversized);
    assert_eq!(decision.source, DecisionSource::Fallback);
    let stats = service.stats();
    assert_eq!(stats.api_calls, 0);
    assert_eq!(stats.budget_denials, 0, "the governor was never asked");

    let events = service.flight().events_json();
    assert!(events.contains("\"context_overflow\""), "{events}");
    // The only span there is: the oversized question's.
    let spans = service.trace_json(8);
    assert!(
        spans.contains(&format!(r#""trace_id":{}"#, decision.trace_id)),
        "{spans}"
    );
    assert!(spans.contains(r#""stage":"context_overflow""#), "{spans}");
}

/// The simulator behind an endpoint whose window is narrower than the
/// model profile says: it refuses any prompt asking more than 4 questions.
struct NarrowWindow(SimLlm);

impl ChatApi for NarrowWindow {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let asked = request
            .prompt
            .lines()
            .filter(|l| l.starts_with('Q') && l[1..].starts_with(|c: char| c.is_ascii_digit()))
            .count();
        if asked > 4 {
            return Err(LlmError::ContextLengthExceeded {
                prompt_tokens: count_tokens(&request.prompt),
                limit: 0,
            });
        }
        self.0.complete(request)
    }
}

#[test]
fn endpoint_refusing_a_fitting_prompt_is_answered_by_fallback() {
    // The batch fits the profile's window, so the governor reserves it,
    // but the endpoint refuses it for length. The batch is not split and
    // resent outside the reservation: it is answered locally, the
    // reservation is refunded and the (alive) endpoint does not count
    // toward the breaker. One full batch of 8 distinct questions, released
    // together, with a deadline far longer than the test.
    let dataset = generate(DatasetKind::Beer, 7);
    let questions: Vec<&EntityPair> = dataset.pairs()[200..208].iter().map(|p| &p.pair).collect();
    let service = ErService::start(
        Arc::new(NarrowWindow(SimLlm::new())),
        bootstrap(),
        ServiceConfig {
            batch_size: 8,
            flush_deadline: Duration::from_secs(30),
            ..ServiceConfig::default()
        },
    );
    let barrier = Barrier::new(questions.len());
    let decisions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = questions
            .iter()
            .map(|question| {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service.submit(question)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(decisions
        .iter()
        .all(|d| d.source == DecisionSource::Fallback));
    let stats = service.stats();
    assert_eq!(stats.batches_flushed, 1, "{stats:?}");
    assert_eq!(stats.api_calls, 0);
    assert_eq!(stats.fallback_answered, 8);
    assert_eq!(stats.governor_refunds, 1);
    assert_eq!(stats.breaker_trips, 0);
    assert_eq!(
        stats.spent_micros, 0,
        "nothing reached the model, nothing is paid"
    );
    assert!(service
        .flight()
        .events_json()
        .contains("\"context_overflow\""));
}

#[test]
fn stats_count_every_event_and_agree_with_the_ledger() {
    // Same traffic as above plus a repeat pass: the registry-backed
    // fields of `/stats` count what happened, beside the ledger's.
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { budget: Money::from_micros(1_500), ..config() },
    );
    let bank = questions(40);
    let first: Vec<_> = bank.iter().map(|q| service.submit(q)).collect();
    let source = |s: DecisionSource| first.iter().filter(|d| d.source == s).count() as u64;
    assert!(source(DecisionSource::Llm) > 0 && source(DecisionSource::Fallback) > 0);
    let bought = &bank[first
        .iter()
        .position(|d| d.source == DecisionSource::Llm)
        .unwrap()];
    assert_eq!(service.submit(bought).source, DecisionSource::Cache);

    let stats = service.stats();
    // The ledger, the budget and the queue's own high-water mark.
    let ledger = service.ledger().snapshot();
    assert!(stats.api_calls > 0 && stats.prompt_tokens > 0 && stats.completion_tokens > 0);
    assert_eq!(stats.api_calls, ledger.api_calls);
    assert_eq!(stats.spend(), ledger.total());
    assert_eq!(stats.budget(), Money::from_micros(1_500));
    assert!(stats.within_budget() && stats.remaining_micros < stats.budget_micros);
    assert!(stats.queue_depth_peak > 0);
    assert!(!stats.wal_enabled);
    // The registry: every counter, gauge and histogram saw its events.
    assert_eq!(stats.submitted, 41, "40 questions and the repeat");
    assert!(stats.cache_hits > source(DecisionSource::Cache));
    assert_eq!(stats.llm_answered, source(DecisionSource::Llm));
    assert_eq!(stats.fallback_answered, source(DecisionSource::Fallback));
    let live = [
        ("cache_misses", stats.cache_misses),
        ("cache_entries", stats.cache_entries),
        ("batches_flushed", stats.batches_flushed),
        ("plans", stats.plans),
        ("plan_p99_us", stats.plan_p99_us),
        ("answer_p99_us", stats.answer_p99_us),
        ("budget_denials", stats.budget_denials),
        ("planner_lock_hold_p99_us", stats.planner_lock_hold_p99_us),
    ];
    for (field, value) in live {
        assert!(value > 0, "`{field}` counts events that happened above");
    }
    assert!(service
        .render_metrics()
        .contains("er_questions_submitted_total 41\n"));
}

/// A ChatApi that answers like the simulator but slowly — lets tests put
/// a batch mid-flight deterministically.
struct SlowApi {
    llm: SimLlm,
    delay: Duration,
}

impl batcher::llm::ChatApi for SlowApi {
    fn complete(
        &self,
        request: &batcher::llm::ChatRequest,
    ) -> Result<batcher::llm::ChatResponse, batcher::llm::LlmError> {
        std::thread::sleep(self.delay);
        self.llm.complete(request)
    }
}

#[test]
fn identical_questions_in_flight_share_one_llm_call() {
    let service = Arc::new(ErService::start(
        Arc::new(SlowApi { llm: SimLlm::new(), delay: Duration::from_millis(400) }),
        bootstrap(),
        ServiceConfig {
            batch_size: 1, // flush immediately; the LLM call itself is slow
            ..config()
        },
    ));
    let question = questions(1).remove(0);

    let decisions: Vec<_> = std::thread::scope(|scope| {
        let first = {
            let service = Arc::clone(&service);
            let question = question.clone();
            scope.spawn(move || service.submit(&question))
        };
        // Let the first question's batch reach the (slow) LLM, then pile
        // two more identical questions on while it is in flight.
        std::thread::sleep(Duration::from_millis(150));
        let late: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let question = question.clone();
                scope.spawn(move || service.submit(&question))
            })
            .collect();
        std::iter::once(first)
            .chain(late)
            .map(|h| h.join().unwrap())
            .collect()
    });

    let labels: Vec<_> = decisions.iter().map(|d| d.label).collect();
    assert!(
        labels.windows(2).all(|w| w[0] == w[1]),
        "contradictory answers: {labels:?}"
    );
    let stats = service.stats();
    assert_eq!(
        stats.api_calls, 1,
        "identical in-flight questions paid for extra LLM calls"
    );
    assert!(
        stats.coalesced_duplicates >= 2,
        "late duplicates were not coalesced"
    );
}

/// Polls `condition` until it holds; panics after five seconds.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let started = Instant::now();
    while !condition() {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The hold policy: a size-triggered flush whose plan is one *partial*
/// batch keeps it in the dispatcher's held set instead of dispatching
/// it; a later identical question attaches to the held one; the flush
/// rule — over the arrivals of everything waiting, held or pending —
/// then sends everything out in one batch once arrivals have gone quiet.
#[test]
fn partial_batch_is_held_until_arrivals_go_quiet() {
    let deadline = Duration::from_millis(300);
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { flush_deadline: deadline, batch_size: 4, ..ServiceConfig::default() },
    );
    let q = questions(3);
    let started = Instant::now();
    let ask = |i: usize| (i, service.submit(&q[i]), started.elapsed());
    // Four submits trip the size trigger with exactly {q0, q1, q2, q2}:
    // three unique questions, so the plan is one batch of three.
    let barrier = Barrier::new(4);
    let answered: Vec<_> = std::thread::scope(|scope| {
        let (ask, barrier) = (&ask, &barrier);
        let mut handles: Vec<_> = [0, 1, 2, 2]
            .map(|i| {
                scope.spawn(move || {
                    barrier.wait();
                    ask(i)
                })
            })
            .into();
        // The late duplicate arrives once the first flush has planned
        // (and, being non-urgent, held) the three — well before they
        // can leave.
        wait_until("the first flush has planned", || service.stats().plans == 1);
        assert_eq!(service.stats().batches_flushed, 0, "partial batch flew");
        handles.push(scope.spawn(move || ask(0)));
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, decision, at) in &answered {
        assert_eq!(decision.source, DecisionSource::Llm, "q{i}");
        // `started` precedes every arrival, and the flush rule lets
        // nothing leave earlier than half a flush deadline after the
        // oldest one.
        assert!(*at >= deadline / 2, "q{i} answered after {at:?}: not held");
        assert!(*at < deadline + Duration::from_secs(2), "q{i}: {at:?}");
        let first_answer = answered.iter().find(|other| other.0 == *i).unwrap();
        assert_eq!(first_answer.1.label, decision.label, "q{i}");
    }
    let stats = service.stats();
    assert_eq!(
        (stats.batches_flushed, stats.api_calls, stats.llm_answered),
        (1, 1, 3),
        "{stats:?}"
    );
    assert_eq!(stats.coalesced_duplicates, 2, "{stats:?}");
    assert_eq!(stats.submitted, 5);

    // How each duplicate was coalesced is on its span: the second q3 of
    // the first wave inside the flush, the late q1 onto the held question.
    let trace = service.telemetry().trace();
    let coalesced_as = |question: &EntityPair| -> Vec<Option<String>> {
        let mut details: Vec<Option<String>> = trace
            .by_key(pair_fingerprint(question).0)
            .iter()
            .map(|span| {
                assert_eq!(span.events.last().unwrap().stage, "answered");
                span.events
                    .iter()
                    .find(|e| e.stage == "coalesced")
                    .and_then(|e| e.detail.clone())
            })
            .collect();
        details.sort();
        details
    };
    assert_eq!(coalesced_as(&q[0]), [None, Some("held".to_owned())]);
    assert_eq!(coalesced_as(&q[1]), [None]);
    assert_eq!(coalesced_as(&q[2]), [None, Some("duplicate".to_owned())]);
}

/// Nobody can join a lone miss's batch once it has been quiet for as long
/// as it has left to wait: it leaves at half the flush deadline.
#[test]
fn lone_miss_leaves_at_half_the_deadline() {
    let deadline = Duration::from_millis(400);
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { flush_deadline: deadline, batch_size: 8, ..ServiceConfig::default() },
    );
    let started = Instant::now();
    let decision = service.submit(&questions(1)[0]);
    let at = started.elapsed();
    assert_eq!(decision.source, DecisionSource::Llm);
    assert!(at >= deadline / 2, "answered after {at:?}: did not wait");
    assert!(
        at < deadline,
        "answered after {at:?}: waited out the deadline"
    );
    let stats = service.stats();
    assert_eq!(
        (stats.batches_flushed, stats.api_calls),
        (1, 1),
        "{stats:?}"
    );
    let metrics = service.render_metrics();
    for (series, rendered) in [
        (r#"er_flushes_total{trigger="quiet"} 1"#, true),
        (r#"er_flushes_total{trigger="deadline"} 0"#, true),
        (r#"er_flushes_total{trigger="size"} 0"#, true),
        (r#"er_flushes_total{trigger="shutdown"}"#, false),
    ] {
        assert_eq!(
            metrics.contains(series),
            rendered,
            "`{series}` rendered: {rendered} expected, in:\n{metrics}"
        );
    }
}

/// Four distinct questions at 0 / 375 / 650 / 900 ms against a 1 s
/// deadline: each arrives before the rule lets its predecessors go, so
/// all four share one batch. Half of what is left to wait would alone
/// have dispatched the first three at 825 ms; the rule also waits out the
/// largest gap the arrivals have shown (375 ms), which carries them to
/// the first one's deadline.
#[test]
fn a_slowing_trickle_still_shares_one_batch() {
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_secs(1),
            batch_size: 8,
            ..ServiceConfig::default()
        },
    );
    let q = questions(4);
    let started = Instant::now();
    let decisions: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = [0u64, 375, 650, 900]
            .into_iter()
            .zip(&q)
            .map(|(due_ms, question)| {
                let service = &service;
                scope.spawn(move || {
                    std::thread::sleep(
                        Duration::from_millis(due_ms).saturating_sub(started.elapsed()),
                    );
                    service.submit(question)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(decisions.iter().all(|d| d.source == DecisionSource::Llm));
    let stats = service.stats();
    assert_eq!(
        (stats.batches_flushed, stats.api_calls, stats.llm_answered),
        (1, 1, 4),
        "{stats:?}"
    );
}

// ---------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------

/// Admission control: with the queue at `queue_capacity`, non-blocking
/// submits are shed with a retry hint (429 + `Retry-After` over HTTP),
/// blocking submits degrade to the local fallback at once, `/healthz`
/// reports backpressure — and the questions already admitted are served
/// normally once their flush comes.
#[test]
fn full_queue_sheds_and_degrades_without_losing_admitted_questions() {
    // A bound below `batch_size` and a long deadline: two parked submits
    // keep the queue at its bound until the deadline, no slow endpoint
    // needed.
    let deadline = Duration::from_millis(500);
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: deadline,
            batch_size: 8,
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    ));
    let server = MatchServer::start(Arc::clone(&service), ServeOptions::default()).unwrap();
    let addr = server.addr();
    let q = questions(4);
    let parked: Vec<_> = q[..2]
        .iter()
        .cloned()
        .map(|question| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit(&question))
        })
        .collect();
    wait_until("both submits are parked in the queue", || {
        service.stats().queue_depth_peak == 2
    });

    let shed = service.try_submit(&q[2]);
    let http = {
        let body =
            r#"{"schema":["title"],"left":["pliny the elder"],"right":["pliny the younger"]}"#;
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /match HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    };
    let degraded = service.submit(&q[3]);
    let (_, health) = get(addr, "/healthz");
    // Every probe above met a full queue, and the blocking one came back
    // without waiting for anything, only if the deadline flush — the sole
    // event that empties the queue — has still not happened.
    assert_eq!(
        service.stats().batches_flushed,
        0,
        "the probes outlived the {deadline:?} flush deadline (machine too slow for this test)"
    );

    // Non-blocking admission: shed, with one flush deadline as the hint.
    assert_eq!(shed, SubmitOutcome::Shed { retry_after_ms: 500 });
    let (head, body) = http.split_once("\r\n\r\n").expect("head and body");
    assert!(head.starts_with("HTTP/1.1 429 "), "{head}");
    assert!(
        head.lines().any(|line| line == "Retry-After: 1"),
        "whole seconds, rounded up: {head}"
    );
    assert_eq!(body, r#"{"error":"queue full; retry later"}"#);
    let shed_spans = service
        .telemetry()
        .trace()
        .by_key(pair_fingerprint(&q[2]).0);
    assert_eq!(shed_spans.len(), 1);
    assert_eq!(shed_spans[0].events.last().unwrap().stage, "shed");

    // Blocking admission: an answer from the local matcher.
    assert_eq!(degraded.source, DecisionSource::Fallback);
    let health: HealthReport = serde_json::from_str(&health).unwrap();
    assert!(health.backpressure, "{health:?}");

    // The admitted questions are served by the LLM once the deadline comes.
    for handle in parked {
        assert_eq!(handle.join().unwrap().source, DecisionSource::Llm);
    }

    // The accounting identity, with sheds: every submit is a hit, an LLM
    // or fallback answer, a coalesce, or a non-blocking shed; `shed_total`
    // counts blocking submits the bound turned away as well.
    let stats = service.stats();
    let non_blocking_sheds = 2;
    assert_eq!(stats.shed_total, non_blocking_sheds + 1, "{stats:?}");
    assert_eq!(
        (
            stats.cache_hits,
            stats.llm_answered,
            stats.fallback_answered
        ),
        (0, 2, 1),
        "{stats:?}"
    );
    assert_eq!(
        stats.submitted,
        stats.cache_hits
            + stats.llm_answered
            + stats.fallback_answered
            + stats.coalesced_duplicates
            + non_blocking_sheds,
        "{stats:?}"
    );
}

#[test]
fn http_front_end_serves_match_stats_and_health() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        config(),
    ));
    let server = MatchServer::start(Arc::clone(&service), ServeOptions::default()).unwrap();
    let addr = server.addr();

    let body = r#"{"schema":["title","brand"],"left":["pliny the elder","russian river"],"right":["pliny the elder","russian river"]}"#;
    let (status, first) = post_match(addr, body);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains(r#""label":"matching""#), "{first}");

    // The byte-identical question again: served from the cache.
    let (_, second) = post_match(addr, body);
    assert!(second.contains(r#""source":"cache""#), "{second}");

    let (status, stats_json) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats: ServiceStats = serde_json::from_str(&stats_json).unwrap();
    assert!(stats.cache_hits >= 1);
    assert_eq!(stats.submitted, 2);

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health: HealthReport = serde_json::from_str(&health).unwrap();
    // No WAL configured: healthy, nothing recovered, breaker closed.
    assert_eq!(health.status, "serving");
    assert!(!health.wal_enabled);
    assert_eq!(health.recovery_records_replayed, 0);
    assert_eq!(health.breaker, "closed");

    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    let (status, err) = post_match(addr, r#"{"schema":["a"],"left":["x","y"],"right":["z"]}"#);
    assert_eq!(status, 400, "{err}");
}

/// A body under the 16 MiB cap can carry a schema of 10⁵ names; checking
/// it for repeats must not be what the caller waits for (a scan per name
/// was 5·10⁹ string compares on the connection's worker).
#[test]
fn http_front_end_answers_a_100k_attribute_schema_in_time() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        config(),
    ));
    let options = ServeOptions::default();
    let server = MatchServer::start(Arc::clone(&service), options).unwrap();

    let list = |item: &dyn Fn(usize) -> String| {
        let items: Vec<String> = (0..100_000).map(item).collect();
        format!("[{}]", items.join(","))
    };
    let values = list(&|i| format!("\"v{}\"", i % 7));
    let body =
        |schema: String| format!(r#"{{"schema":{schema},"left":{values},"right":{values}}}"#);

    let started = std::time::Instant::now();
    let distinct = body(list(&|i| format!("\"a{i}\"")));
    let (status, reply) = post_match(server.addr(), &distinct);
    assert!(status == 200 || status == 400, "{status}: {reply}");
    let late_repeat = body(list(&|i| format!("\"a{}\"", i % 99_999)));
    let (status, reply) = post_match(server.addr(), &late_repeat);
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("a0"), "{reply}");
    assert!(
        started.elapsed() < options.io_timeout,
        "two 100,000-attribute requests took {:?}",
        started.elapsed()
    );
}

#[test]
fn http_front_end_serves_metrics_and_trace() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        config(),
    ));
    let server = MatchServer::start(Arc::clone(&service), ServeOptions::default()).unwrap();
    let addr = server.addr();

    let body = r#"{"schema":["title","brand"],"left":["pliny the elder","russian river"],"right":["pliny the elder","russian river"]}"#;
    let (status, answer) = post_match(addr, body);
    assert_eq!(status, 200, "{answer}");
    // Every answer echoes its lifecycle span id for /trace correlation.
    let trace_id: u64 = answer
        .split(r#""trace_id":"#)
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no trace_id in {answer}"));
    assert!(trace_id > 0, "tracing should be on by default: {answer}");
    let (_, cached) = post_match(addr, body);
    assert!(cached.contains(r#""source":"cache""#), "{cached}");

    // /metrics: valid Prometheus text with the core histogram families.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let report = batcher::obs::lint(&text).unwrap_or_else(|issues| {
        panic!("/metrics fails promlint: {issues:?}");
    });
    let histogram_families = [
        "er_queue_wait_us",
        "er_plan_wall_us",
        "er_plan_stage_us",
        "er_planner_lock_hold_us",
        "er_llm_call_us",
        "er_governor_reserve_us",
        "er_governor_settle_us",
        "er_answer_us",
        "er_batch_spend_micros",
        "er_batch_prompt_tokens",
    ];
    for family in histogram_families {
        assert!(
            text.contains(&format!("# TYPE {family} histogram")),
            "missing histogram family {family}"
        );
    }
    assert!(
        report.histograms >= 6,
        "expected >= 6 histogram families, lint saw {}",
        report.histograms
    );
    assert!(text.contains("er_questions_submitted_total 2"), "{text}");

    // /trace: the span behind the first answer is visible, complete from
    // `submitted` to `answered`, and correlated by the echoed id.
    let (status, spans) = get(addr, "/trace?n=8");
    assert_eq!(status, 200);
    assert!(
        spans.contains(&format!(r#""trace_id":{trace_id}"#)),
        "span {trace_id} not in {spans}"
    );
    assert!(spans.contains(r#""stage":"submitted""#), "{spans}");
    assert!(spans.contains(r#""stage":"answered""#), "{spans}");
}

#[test]
fn http_front_end_symmetric_pairs_share_the_cache_entry() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        config(),
    ));
    let server = MatchServer::start(Arc::clone(&service), ServeOptions::default()).unwrap();
    let addr = server.addr();

    let forward =
        r#"{"schema":["title"],"left":["guinness extra stout"],"right":["heady topper"]}"#;
    let mirrored =
        r#"{"schema":["title"],"left":["heady topper"],"right":["guinness extra stout"]}"#;
    let (_, first) = post_match(addr, forward);
    let (_, second) = post_match(addr, mirrored);
    assert!(second.contains(r#""source":"cache""#), "{second}");
    // Same canonical fingerprint on both answers.
    let fp = |s: &str| s.split(r#""fingerprint":""#).nth(1).unwrap()[..16].to_string();
    assert_eq!(fp(&first), fp(&second));
}

// ---------------------------------------------------------------------
// Decision routes
// ---------------------------------------------------------------------

/// What one decision route left behind: the source of the decision
/// (`None` for a shed), the stages of the span of the question that took
/// the route — each with its detail as `stage:detail`, but `llm_shared`,
/// whose detail is another span's id — and the kinds of every flight
/// event the service recorded, oldest first.
#[derive(Debug)]
struct Taken {
    source: Option<DecisionSource>,
    stages: Vec<String>,
    events: Vec<String>,
}

fn taken(service: &ErService, source: Option<DecisionSource>, span: &Span) -> Taken {
    let stages = span
        .events
        .iter()
        .map(|e| match &e.detail {
            Some(detail) if e.stage != "llm_shared" => format!("{}:{detail}", e.stage),
            _ => e.stage.to_owned(),
        })
        .collect();
    let json = service.flight().events_json();
    let mut events: Vec<String> = json
        .split(r#""kind":""#)
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_owned())
        .collect();
    events.reverse();
    Taken { source, stages, events }
}

/// The route `decision` took.
fn decided(service: &ErService, decision: MatchDecision) -> Taken {
    let span = service.telemetry().trace().find(decision.trace_id);
    taken(
        service,
        Some(decision.source),
        &span.expect("span retained"),
    )
}

/// The route the one coalesced decision among `decisions` took.
fn coalesced(service: &ErService, decisions: &[MatchDecision]) -> Taken {
    let mut routes: Vec<Taken> = decisions
        .iter()
        .map(|&d| decided(service, d))
        .filter(|t| t.stages.iter().any(|s| s.starts_with("coalesced")))
        .collect();
    assert_eq!(routes.len(), 1, "one coalesced decision: {routes:?}");
    routes.pop().unwrap()
}

/// A service whose misses leave when arrivals go quiet: half of
/// `deadline_ms` after a lone one, in batches of up to eight.
fn quiet(api: impl ChatApi + 'static, deadline_ms: u64) -> ErService {
    let config = ServiceConfig {
        flush_deadline: Duration::from_millis(deadline_ms),
        batch_size: 8,
        ..ServiceConfig::default()
    };
    ErService::start(Arc::new(api), bootstrap(), config)
}

/// An endpoint that bills every call and answers nothing in it.
struct Garbled(SimLlm);

impl ChatApi for Garbled {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let mut response = self.0.complete(request)?;
        response.content.clear();
        Ok(response)
    }
}

/// A dead endpoint: every call is a transport failure.
struct Dead;

impl ChatApi for Dead {
    fn complete(&self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        Err(LlmError::Transport("connection refused".into()))
    }
}

/// An endpoint whose every call panics the worker that makes it.
struct Panicking;

impl ChatApi for Panicking {
    fn complete(&self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        panic!("injected mid-call panic");
    }
}

fn route_cache_hit() -> Taken {
    let service = quiet(SimLlm::new(), 10);
    let q = &questions(1)[0];
    service.submit(q);
    decided(&service, service.submit(q))
}

fn route_llm() -> Taken {
    let service = quiet(SimLlm::new(), 10);
    decided(&service, service.submit(&questions(1)[0]))
}

/// Two identical questions drained by one flush.
fn route_coalesced_duplicate() -> Taken {
    let service = quiet(SimLlm::new(), 200);
    let (q, barrier) = (&questions(1)[0], Barrier::new(2));
    let both: Vec<MatchDecision> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.submit(q)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    coalesced(&service, &both)
}

/// A size-triggered flush holds a partial batch of one question (asked
/// twice); a third copy arrives while it is held.
fn route_coalesced_held() -> Taken {
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(300),
            batch_size: 2,
            ..ServiceConfig::default()
        },
    );
    let (q, barrier) = (&questions(1)[0], Barrier::new(2));
    std::thread::scope(|scope| {
        let first: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.submit(q)
                })
            })
            .collect();
        wait_until("the first flush has planned", || service.stats().plans == 1);
        let late = service.submit(q);
        for handle in first {
            handle.join().unwrap();
        }
        coalesced(&service, &[late])
    })
}

/// A copy of a question arrives while the question's batch is asking the
/// (slow) endpoint.
fn route_coalesced_in_flight() -> Taken {
    let service = quiet(
        SlowApi { llm: SimLlm::new(), delay: Duration::from_millis(300) },
        100,
    );
    let q = &questions(1)[0];
    std::thread::scope(|scope| {
        let first = scope.spawn(|| service.submit(q));
        wait_until("the question is dispatched", || {
            service.stats().batches_flushed == 1
        });
        let late = service.submit(q);
        first.join().unwrap();
        coalesced(&service, &[late])
    })
}

/// A copy of a question enters the queue while the question is in
/// flight and is drained after its answer filled the cache.
fn route_coalesced_cache() -> Taken {
    let service = quiet(
        SlowApi { llm: SimLlm::new(), delay: Duration::from_millis(50) },
        400,
    );
    let q = &questions(1)[0];
    std::thread::scope(|scope| {
        let first = scope.spawn(|| service.submit(q));
        wait_until("the question is dispatched", || {
            service.stats().batches_flushed == 1
        });
        let late = service.submit(q);
        first.join().unwrap();
        coalesced(&service, &[late])
    })
}

/// A copy of an oversized question attaches to the question's batch
/// while the batch waits for the one worker, which is busy with a slow
/// call: the copy learns why the batch fell back, too.
fn route_coalesced_onto_a_fallback() -> Taken {
    let service = ErService::start(
        Arc::new(SlowApi { llm: SimLlm::new(), delay: Duration::from_millis(300) }),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(100),
            batch_size: 8,
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let title = "x y ".repeat(1_200);
    let oversized = pair(
        0,
        [&title, "founders", "12.99"],
        [&title, "founders", "12.99"],
    );
    let slow = &questions(1)[0];
    std::thread::scope(|scope| {
        scope.spawn(|| service.submit(slow));
        wait_until("the slow batch is dispatched", || {
            service.stats().batches_flushed == 1
        });
        let first = scope.spawn(|| service.submit(&oversized));
        wait_until("the oversized batch is dispatched", || {
            service.stats().batches_flushed == 2
        });
        let late = service.submit(&oversized);
        first.join().unwrap();
        coalesced(&service, &[late])
    })
}

fn route_unparsed() -> Taken {
    let service = quiet(Garbled(SimLlm::new()), 10);
    decided(&service, service.submit(&questions(1)[0]))
}

fn route_endpoint_dead() -> Taken {
    let service = quiet(Dead, 10);
    decided(&service, service.submit(&questions(1)[0]))
}

fn route_budget_denied() -> Taken {
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { budget: Money::from_micros(50), ..config() },
    );
    decided(&service, service.submit(&questions(1)[0]))
}

/// `breaker::THRESHOLD` dead batches, one question each, open the
/// circuit; the next batch is short-circuited.
fn route_breaker_open() -> Taken {
    let service = quiet(Dead, 4);
    let bank = questions(THRESHOLD as usize + 1);
    let (last, dead) = bank.split_last().unwrap();
    for q in dead {
        service.submit(q);
    }
    decided(&service, service.submit(last))
}

/// A question that alone outgrows the model profile's window.
fn route_context_overflow_by_profile() -> Taken {
    let service = quiet(SimLlm::new(), 10);
    let title = "x y ".repeat(1_200);
    let oversized = pair(
        0,
        [&title, "founders", "12.99"],
        [&title, "founders", "12.99"],
    );
    decided(&service, service.submit(&oversized))
}

/// Eight questions, one batch, which the endpoint refuses for length.
fn route_context_overflow_by_endpoint() -> Taken {
    let service = ErService::start(
        Arc::new(NarrowWindow(SimLlm::new())),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(200),
            batch_size: 16,
            ..ServiceConfig::default()
        },
    );
    let dataset = generate(DatasetKind::Beer, 7);
    let barrier = Barrier::new(8);
    let decisions: Vec<MatchDecision> = std::thread::scope(|scope| {
        let handles: Vec<_> = dataset.pairs()[200..208]
            .iter()
            .map(|p| {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service.submit(&p.pair)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(service.stats().batches_flushed, 1);
    decided(&service, decisions[0])
}

fn route_worker_panic() -> Taken {
    let service = quiet(Panicking, 10);
    decided(&service, service.submit(&questions(1)[0]))
}

/// A question that meets a full queue (one parked submit fills a
/// `queue_capacity` of one), asked through `try_submit` or, with
/// `blocking`, through `submit`.
fn shed(blocking: bool) -> Taken {
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(300),
            batch_size: 8,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    let q = questions(2);
    std::thread::scope(|scope| {
        scope.spawn(|| service.submit(&q[0]));
        wait_until("one submit is parked", || {
            service.stats().queue_depth_peak == 1
        });
        if blocking {
            return decided(&service, service.submit(&q[1]));
        }
        let outcome = service.try_submit(&q[1]);
        assert!(matches!(outcome, SubmitOutcome::Shed { .. }), "{outcome:?}");
        let spans = service
            .telemetry()
            .trace()
            .by_key(pair_fingerprint(&q[1]).0);
        assert_eq!(spans.len(), 1);
        taken(&service, None, &spans[0])
    })
}

fn route_shed() -> Taken {
    shed(false)
}

fn route_fallback_shed() -> Taken {
    shed(true)
}

/// One decision route: how to drive a question down it, and what the
/// question's decision, span and the flight log must then say.
struct Route {
    name: &'static str,
    drive: fn() -> Taken,
    source: Option<DecisionSource>,
    stages: &'static [&'static str],
    events: &'static [&'static str],
}

/// Every route a question can take from `submit` to its decision (the
/// shutdown route, which no caller holding a handle can reach, is pinned
/// by `service.rs`'s own tests): which source answered, which stages the
/// question's span passed and which flight event explains a batch
/// fallback.
#[test]
fn every_decision_route_leaves_its_source_stages_and_events() {
    use DecisionSource::{Cache, Fallback, Llm};
    let routes = [
        Route {
            name: "cache hit",
            drive: route_cache_hit,
            source: Some(Cache),
            stages: &["submitted", "answered:cache"],
            events: &[],
        },
        Route {
            name: "coalesced as held",
            drive: route_coalesced_held,
            source: Some(Llm),
            stages: &[
                "submitted",
                "enqueued",
                "coalesced:held",
                "planned",
                "dispatched",
                "llm_called",
                "llm_shared",
                "settled",
                "answered:llm",
            ],
            events: &[],
        },
        Route {
            name: "coalesced as duplicate",
            drive: route_coalesced_duplicate,
            source: Some(Llm),
            stages: &[
                "submitted",
                "enqueued",
                "coalesced:duplicate",
                "planned",
                "dispatched",
                "llm_called",
                "llm_shared",
                "settled",
                "answered:llm",
            ],
            events: &[],
        },
        Route {
            name: "coalesced as in_flight",
            drive: route_coalesced_in_flight,
            source: Some(Llm),
            stages: &[
                "submitted",
                "enqueued",
                "coalesced:in_flight",
                "llm_called",
                "llm_shared",
                "settled",
                "answered:llm",
            ],
            events: &[],
        },
        Route {
            name: "coalesced as cache",
            drive: route_coalesced_cache,
            source: Some(Cache),
            stages: &["submitted", "enqueued", "coalesced:cache", "answered:cache"],
            events: &[],
        },
        Route {
            name: "coalesced onto a batch that falls back",
            drive: route_coalesced_onto_a_fallback,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "coalesced:in_flight",
                "context_overflow",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &["context_overflow"],
        },
        Route {
            name: "LLM answer",
            drive: route_llm,
            source: Some(Llm),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "llm_called",
                "settled",
                "answered:llm",
            ],
            events: &[],
        },
        Route {
            name: "unparseable answer",
            drive: route_unparsed,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "unparsed",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &[],
        },
        Route {
            name: "dead endpoint",
            drive: route_endpoint_dead,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "unparsed",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &[],
        },
        Route {
            name: "budget denied",
            drive: route_budget_denied,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "budget_denied",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &["budget_denied"],
        },
        Route {
            name: "breaker open",
            drive: route_breaker_open,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "breaker_short_circuit",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &["breaker_open", "breaker_short_circuit"],
        },
        Route {
            name: "context overflow by the profile",
            drive: route_context_overflow_by_profile,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "context_overflow",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &["context_overflow"],
        },
        Route {
            name: "context overflow by the endpoint",
            drive: route_context_overflow_by_endpoint,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "context_overflow",
                "fallback",
                "settled",
                "answered:fallback",
            ],
            events: &["context_overflow"],
        },
        Route {
            name: "worker panic",
            drive: route_worker_panic,
            source: Some(Fallback),
            stages: &[
                "submitted",
                "enqueued",
                "planned",
                "dispatched",
                "answered:fallback",
            ],
            events: &[],
        },
        Route {
            name: "try_submit shed",
            drive: route_shed,
            source: None,
            stages: &["submitted", "shed:queue_full"],
            events: &[],
        },
        Route {
            name: "blocking-submit shed",
            drive: route_fallback_shed,
            source: Some(Fallback),
            stages: &["submitted", "answered:fallback_shed"],
            events: &[],
        },
    ];
    let wrong: Vec<String> = routes
        .iter()
        .filter_map(|route| {
            let got = (route.drive)();
            let right = got.source == route.source
                && got.stages == route.stages
                && got.events == route.events;
            (!right).then(|| {
                format!(
                    "{}: expected {:?} {:?} {:?}, got {got:?}",
                    route.name, route.source, route.stages, route.events
                )
            })
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
