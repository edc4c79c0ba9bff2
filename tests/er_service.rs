//! Integration tests for the online entity-matching service: cache
//! economics, concurrent determinism, budget-exhaustion fallback, the
//! hold policy for partial batches, admission control and the HTTP front
//! end.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, Money, PairId, Record, RecordId, Schema};
use batcher::er_service::{
    pair_fingerprint, DecisionSource, ErService, HealthReport, MatchServer, PairFingerprint,
    ServiceConfig, ServiceStats, SubmitOutcome,
};
use batcher::llm::SimLlm;
use batcher::llm_service::http::read_response;
use batcher::llm_service::ServeOptions;

/// Bootstrap pool for fallback training and demonstrations.
fn bootstrap() -> Vec<batcher::er_core::LabeledPair> {
    generate(DatasetKind::Beer, 7).pairs()[..120].to_vec()
}

/// A service with test-friendly latency and the given overrides.
fn config() -> ServiceConfig {
    ServiceConfig {
        flush_deadline: Duration::from_millis(5),
        batch_size: 4,
        workers: 2,
        ..ServiceConfig::default()
    }
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(["title", "brand", "price"]).unwrap())
}

fn record(id: u32, left: bool, values: [&str; 3]) -> Arc<Record> {
    let rid = if left {
        RecordId::a(id)
    } else {
        RecordId::b(id)
    };
    Arc::new(
        Record::new(
            rid,
            schema(),
            values.iter().map(|s| s.to_string()).collect(),
        )
        .unwrap(),
    )
}

/// Unambiguous questions: identical records (clear matches) and records
/// with fully disjoint text (clear non-matches). The engine answers these
/// robustly regardless of batch composition, which is what lets the
/// concurrency test demand bitwise-identical decisions across runs.
fn crafted_questions(n: usize) -> Vec<EntityPair> {
    let products = [
        "hazy little thing ipa",
        "guinness extra stout",
        "pliny the elder",
        "sierra nevada torpedo",
        "blue moon belgian white",
        "dogfish head 60 minute",
        "stone delicious ipa",
        "lagunitas daytime ale",
        "founders breakfast stout",
        "bells two hearted ale",
        "heady topper double ipa",
        "allagash white ale",
    ];
    let brands = [
        "sierra",
        "guinness",
        "russian river",
        "stone",
        "blue moon",
        "dogfish",
    ];
    (0..n)
        .map(|i| {
            let title = products[i % products.len()];
            let brand = brands[i % brands.len()];
            let price = format!("{}.99", 3 + (i % 9));
            let a = record(i as u32, true, [title, brand, &price]);
            let b = if i % 2 == 0 {
                // Clear match: identical content.
                record(i as u32, false, [title, brand, &price])
            } else {
                // Clear non-match: entirely different product.
                let other = products[(i + 5) % products.len()];
                record(
                    i as u32,
                    false,
                    [other, brands[(i + 3) % brands.len()], "87.50"],
                )
            };
            EntityPair::new(PairId(i as u32), a, b).unwrap()
        })
        .collect()
}

#[test]
fn cache_hits_are_identical_and_free() {
    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    let questions = crafted_questions(12);

    // First pass: no hits possible.
    let first: Vec<_> = questions.iter().map(|q| service.submit(q)).collect();
    let after_first = service.ledger().snapshot();
    assert!(
        after_first.api_calls > 0,
        "first pass never reached the LLM"
    );

    // Second pass: every answer must come from the cache, unchanged, at
    // zero incremental API cost.
    for (question, first_decision) in questions.iter().zip(&first) {
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
    // The first pass planned at least one flush; plan latency gauges are
    // live (cache hits on the second pass plan nothing).
    assert!(stats.plans > 0, "no planning pass recorded");
    assert!(
        stats.plan_avg_us > 0 || stats.plan_last_us > 0,
        "plan timing never recorded"
    );
}

#[test]
fn index_stats_count_this_service_only() {
    let first = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    for question in &crafted_questions(12) {
        first.submit(question);
    }
    // What a small flush still asks of the metric index is DBSCAN's one
    // pair sweep over the questions it holds (one build, one query); the
    // coverage sweep below the index gate asks it nothing. (The exact
    // 1 and 1 are gated in `BENCH_planning.json` `flush_plan`, not here:
    // the counters are process-wide and sibling tests plan concurrently.)
    let planned = first.stats();
    assert!(
        planned.index_builds > 0 && planned.index_queries > 0,
        "planning 12 questions never touched the metric index: {planned:?}"
    );
    drop(first);

    // The index counters underneath are process-wide; a service started
    // later in the same process has planned nothing, so it reports none
    // of its predecessor's (or any concurrent test's) activity.
    let second = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config());
    let fresh = second.stats();
    assert_eq!(
        (
            fresh.index_builds,
            fresh.index_queries,
            fresh.index_pruned_bp
        ),
        (0, 0, 0)
    );
    let metrics = second.render_metrics();
    for line in [
        "er_index_builds_total 0",
        "er_index_queries_total 0",
        "er_index_candidates_pruned_bp 0",
    ] {
        assert!(metrics.contains(line), "missing `{line}` in:\n{metrics}");
    }
}

#[test]
fn duplicate_workload_costs_less_with_cache_than_without() {
    // 8 unique questions, each asked three times, sequentially (so the
    // flush-time dedupe cannot mask the cache's contribution).
    let questions = crafted_questions(8);
    let workload: Vec<&EntityPair> = std::iter::repeat_with(|| questions.iter())
        .take(3)
        .flatten()
        .collect();

    let run = |cache_enabled: bool| -> batcher::er_core::CostLedger {
        let service = ErService::start(
            Arc::new(SimLlm::new()),
            bootstrap(),
            ServiceConfig { cache_enabled, ..config() },
        );
        for q in &workload {
            service.submit(q);
        }
        service.ledger().snapshot()
    };

    let with_cache = run(true);
    let without_cache = run(false);
    assert!(
        with_cache.total() < without_cache.total(),
        "cache did not save money: with {} vs without {}",
        with_cache.total(),
        without_cache.total()
    );
    assert!(with_cache.api_calls < without_cache.api_calls);
}

#[test]
fn concurrent_clients_with_same_seed_are_deterministic() {
    let questions = Arc::new(crafted_questions(24));
    let run = || -> Vec<(PairFingerprint, batcher::er_core::MatchLabel)> {
        let service = Arc::new(ErService::start(
            Arc::new(SimLlm::new()),
            bootstrap(),
            ServiceConfig { seed: 99, ..config() },
        ));
        let mut decisions: Vec<(PairFingerprint, batcher::er_core::MatchLabel)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4usize)
                    .map(|client| {
                        let service = Arc::clone(&service);
                        let questions = Arc::clone(&questions);
                        scope.spawn(move || {
                            questions
                                .iter()
                                .skip(client)
                                .step_by(4)
                                .map(|q| {
                                    let d = service.submit(q);
                                    (d.fingerprint, d.label)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
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
    let questions = crafted_questions(10);
    for q in &questions {
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
    let questions = crafted_questions(40);
    let decisions: Vec<_> = questions.iter().map(|q| service.submit(q)).collect();
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
    let oversized = EntityPair::new(
        PairId(0),
        record(0, true, [&title, "founders", "12.99"]),
        record(0, false, [&title, "founders", "12.99"]),
    )
    .unwrap();
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

#[test]
fn telemetry_off_zeroes_registry_backed_stats_and_keeps_the_ledger() {
    // Same traffic as above plus a repeat pass, with the switch off:
    // answers, sources and spend are as with it on, but `/stats` can only
    // show what does not live in the metric registry.
    let service = ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig { budget: Money::from_micros(1_500), telemetry: false, ..config() },
    );
    let questions = crafted_questions(40);
    let first: Vec<_> = questions.iter().map(|q| service.submit(q)).collect();
    let source = |s: DecisionSource| first.iter().filter(|d| d.source == s).count();
    assert!(source(DecisionSource::Llm) > 0 && source(DecisionSource::Fallback) > 0);
    let bought = &questions[first
        .iter()
        .position(|d| d.source == DecisionSource::Llm)
        .unwrap()];
    assert_eq!(service.submit(bought).source, DecisionSource::Cache);

    let stats = service.stats();
    // Live: the ledger, the budget and the queue's own high-water mark.
    let ledger = service.ledger().snapshot();
    assert!(stats.api_calls > 0 && stats.prompt_tokens > 0 && stats.completion_tokens > 0);
    assert_eq!(stats.api_calls, ledger.api_calls);
    assert_eq!(stats.spend(), ledger.total());
    assert_eq!(stats.budget(), Money::from_micros(1_500));
    assert!(stats.within_budget() && stats.remaining_micros < stats.budget_micros);
    assert!(stats.queue_depth_peak > 0);
    assert!(!stats.wal_enabled);
    // Dark: every counter, gauge and histogram of the registry, although
    // each of these events happened above.
    let dark = [
        ("submitted", stats.submitted),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("cache_entries", stats.cache_entries),
        ("llm_answered", stats.llm_answered),
        ("fallback_answered", stats.fallback_answered),
        ("batches_flushed", stats.batches_flushed),
        ("plans", stats.plans),
        ("plan_p99_us", stats.plan_p99_us),
        ("answer_p99_us", stats.answer_p99_us),
        ("budget_denials", stats.budget_denials),
        ("index_builds", stats.index_builds),
        ("index_queries", stats.index_queries),
        ("planner_lock_hold_p99_us", stats.planner_lock_hold_p99_us),
    ];
    for (field, value) in dark {
        assert_eq!(
            value, 0,
            "`{field}` is registry-backed and reads 0 with telemetry off"
        );
    }
    assert!(service
        .render_metrics()
        .contains("er_questions_submitted_total 0"));
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
    let question = crafted_questions(1).remove(0);

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
    let q = crafted_questions(3);
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
    let decision = service.submit(&crafted_questions(1)[0]);
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
    for line in [
        r#"er_flushes_total{trigger="quiet"} 1"#,
        r#"er_flushes_total{trigger="deadline"} 0"#,
        r#"er_flushes_total{trigger="size"} 0"#,
    ] {
        assert!(metrics.contains(line), "missing `{line}` in:\n{metrics}");
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
    let q = crafted_questions(4);
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

fn post_match(addr: std::net::SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /match HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let (status, bytes) = read_response(&mut stream).unwrap();
    (status, String::from_utf8(bytes).unwrap())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
    read_response(&mut stream).unwrap()
}

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
    let q = crafted_questions(4);
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
    let health: HealthReport = serde_json::from_slice(&health).unwrap();
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

    let (status, stats_bytes) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats: ServiceStats = serde_json::from_slice(&stats_bytes).unwrap();
    assert!(stats.cache_hits >= 1);
    assert_eq!(stats.submitted, 2);

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health: HealthReport = serde_json::from_slice(&health).unwrap();
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
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).unwrap();
    let report = batcher::obs::lint(&text).unwrap_or_else(|issues| {
        panic!("/metrics fails promlint: {issues:?}");
    });
    let histogram_families = [
        "er_queue_wait_us",
        "er_plan_wall_us",
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
    let (status, trace) = get(addr, "/trace?n=8");
    assert_eq!(status, 200);
    let spans = String::from_utf8(trace).unwrap();
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
