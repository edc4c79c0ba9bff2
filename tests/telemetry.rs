//! End-to-end telemetry guarantees under concurrency: every submitted
//! question's lifecycle span reaches a terminal stage exactly once — on
//! the cache-hit, LLM, coalesced-duplicate and budget-denial paths — and
//! a scraper hammering `/metrics`, `/stats` and `/trace` can never stall
//! `submit`.

mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use batcher::er_core::Money;
use batcher::er_service::{ErService, ServiceConfig};
use batcher::llm::SimLlm;
use common::{assert_conserved, bootstrap, hammer, questions};

/// Spans conserve under a duplicate-heavy concurrent workload: one span
/// per submit, every span finished exactly once (terminal stage
/// `answered`), none left active at quiesce, ids unique across clients.
#[test]
fn every_span_reaches_a_terminal_stage_exactly_once() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(3),
            batch_size: 4,
            workers: 3,
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(30));
    let decisions = hammer(&service, &bank, 8, 6);

    let trace = service.telemetry().trace();
    assert_eq!(
        trace.opened(),
        decisions.len() as u64,
        "one span per submit"
    );
    assert_eq!(
        trace.finished(),
        trace.opened(),
        "a span leaked without reaching its terminal stage"
    );
    assert_eq!(trace.active_len(), 0, "active spans left at quiesce");

    // Every decision echoes a live, unique span id.
    let ids: HashSet<u64> = decisions.iter().map(|d| d.trace_id).collect();
    assert!(
        !ids.contains(&0),
        "a decision carried the disabled-trace id"
    );
    assert_eq!(ids.len(), decisions.len(), "span ids were reused");

    // Completed spans are well-formed: they open with `submitted`, close
    // with `answered`, and carry exactly one terminal stamp.
    let spans = trace.recent(4096);
    assert_eq!(spans.len() as u64, trace.finished() - trace.evicted());
    let mut coalesced_spans = 0u64;
    for span in &spans {
        assert_eq!(span.events.first().unwrap().stage, "submitted");
        assert_eq!(span.events.last().unwrap().stage, "answered");
        assert_eq!(
            span.events.iter().filter(|e| e.stage == "answered").count(),
            1,
            "span {} answered more than once: {:?}",
            span.trace_id,
            span.events
        );
        if span.events.iter().any(|e| e.stage == "coalesced") {
            coalesced_spans += 1;
        }
    }
    // The duplicate-heavy bank must exercise the coalescing paths, and
    // the span detail must agree with the service's own accounting.
    let stats = service.stats();
    assert!(
        stats.coalesced_duplicates > 0 && coalesced_spans > 0,
        "duplicate-heavy workload never coalesced: {stats:?}"
    );
}

/// Span conservation holds when the governor denies most batches: the
/// budget-denial path finishes spans through the fallback, exactly once.
#[test]
fn spans_conserve_under_budget_exhaustion() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(3),
            batch_size: 4,
            workers: 3,
            budget: Money::from_micros(2_000),
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(40));
    let decisions = hammer(&service, &bank, 6, 4);

    let trace = service.telemetry().trace();
    assert_eq!(trace.opened(), decisions.len() as u64);
    assert_eq!(trace.finished(), trace.opened());
    assert_eq!(trace.active_len(), 0);

    let stats = service.stats();
    assert!(stats.budget_denials > 0, "governor never denied: {stats:?}");
    // Denied questions still traced through to `answered` via `fallback`.
    let spans = trace.recent(4096);
    assert!(
        spans.iter().any(|s| s
            .events
            .iter()
            .any(|e| { e.stage == "answered" && e.detail.as_deref() == Some("fallback") })),
        "no span records the budget-denial fallback path"
    );
    // The denial counter surfaced in the Prometheus rendering too.
    let metrics = service.render_metrics();
    assert!(
        !metrics.contains("er_budget_denials_total 0"),
        "denials not visible at /metrics"
    );
}

/// Trace propagation under coalescing: two concurrent submits of the
/// same question share one LLM call. Both spans reach their terminal
/// stage, but the downstream LLM work is attributed to exactly one
/// trace — the coalesced span carries an `llm_shared` pointer at the
/// primary instead of claiming the shared child spans as its own.
#[test]
fn coalesced_waiters_share_one_llm_trace_attributed_once() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(50),
            batch_size: 8,
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(1));
    let pair = &bank[0];
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| service.submit(pair));
        let b = scope.spawn(|| service.submit(pair));
        (a.join().unwrap(), b.join().unwrap())
    });

    let stats = service.stats();
    assert_eq!(stats.coalesced_duplicates, 1, "{stats:?}");
    assert_eq!(stats.llm_answered, 1, "one shared LLM answer: {stats:?}");
    assert_eq!(first.label, second.label, "coalesced answers must agree");

    let trace = service.telemetry().trace();
    let spans = [
        trace.find(first.trace_id).expect("first span retained"),
        trace.find(second.trace_id).expect("second span retained"),
    ];
    for span in &spans {
        assert_eq!(
            span.events.last().unwrap().stage,
            "answered",
            "span {} not terminal: {:?}",
            span.trace_id,
            span.events
        );
    }

    // Exactly one of the two spans rode the other's LLM call, and its
    // `llm_shared` stamp names the primary precisely.
    let shared: Vec<_> = spans
        .iter()
        .filter(|s| s.events.iter().any(|e| e.stage == "llm_shared"))
        .collect();
    assert_eq!(
        shared.len(),
        1,
        "shared-LLM attribution not exactly-once: {spans:?}"
    );
    let shared_id = shared[0].trace_id;
    let primary_id = if shared_id == first.trace_id {
        second.trace_id
    } else {
        first.trace_id
    };
    let pointer = shared[0]
        .events
        .iter()
        .find(|e| e.stage == "llm_shared")
        .and_then(|e| e.detail.clone())
        .expect("llm_shared carries the primary id");
    assert_eq!(pointer, primary_id.to_string());

    // The tree views agree: the coalesced span's tree points at the
    // primary with no children of its own; the primary's tree never
    // carries a shared reference.
    let shared_tree = service.trace_tree_json(shared_id).expect("shared tree");
    assert!(
        shared_tree.contains(&format!("\"shared_llm_trace\":{primary_id}")),
        "{shared_tree}"
    );
    assert!(shared_tree.contains("\"children\":[]"), "{shared_tree}");
    let primary_tree = service.trace_tree_json(primary_id).expect("primary tree");
    assert!(
        !primary_tree.contains("shared_llm_trace"),
        "primary must own its children: {primary_tree}"
    );
}

/// Scrapers hammering the registry, stats view and trace log in a tight
/// loop do not stall or corrupt concurrent submits: every submit still
/// completes and the answer-conservation identity holds exactly.
#[test]
fn slow_scraper_cannot_stall_submit() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(3),
            batch_size: 4,
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(24));
    let stop = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);

    let decisions = std::thread::scope(|scope| {
        // Four scraper threads in a zero-sleep loop — far nastier than
        // any real Prometheus scrape interval.
        for _ in 0..4 {
            let (service, stop, scrapes) = (Arc::clone(&service), &stop, &scrapes);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let text = service.render_metrics();
                    assert!(text.contains("er_questions_submitted_total"));
                    let _ = service.stats();
                    let _ = service.trace_json(64);
                    scrapes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let decisions = hammer(&service, &bank, 6, 5);
        stop.store(true, Ordering::Relaxed);
        decisions
    });

    assert!(scrapes.load(Ordering::Relaxed) > 0, "scrapers never ran");
    let stats = service.stats();
    assert_eq!(decisions.len() as u64, stats.submitted);
    assert_conserved(&stats);
    let trace = service.telemetry().trace();
    assert_eq!(trace.finished(), trace.opened());
    assert_eq!(trace.active_len(), 0);

    // The final rendering is still lint-clean Prometheus text.
    batcher::obs::lint(&service.render_metrics()).expect("metrics lint clean under scrape load");
}
