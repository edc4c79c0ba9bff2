//! Concurrency stress for the er-service coalescing queue and cost
//! governor: many client threads hammering a shared service with a
//! duplicate-heavy workload must produce exactly one answer per submit
//! (none lost, none contradictory under caching) while the governor's
//! reserve/settle accounting conserves the budget.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use batcher::er_core::Money;
use batcher::er_service::{ErService, ServiceConfig};
use batcher::llm::SimLlm;
use common::{assert_conserved, bootstrap, hammer, questions};

/// Every submission is answered exactly once and the service's own
/// accounting agrees: submitted = cache hits + coalesced + uniquely
/// answered (LLM or fallback). Identical questions never receive
/// contradictory labels.
#[test]
fn no_lost_or_duplicated_answers_under_concurrency() {
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
    let (clients, rounds) = (8usize, 6usize);
    let decisions = hammer(&service, &bank, clients, rounds);

    // No lost answers: one decision per submit, by construction of the
    // blocking API — the count also matches the service's own counter.
    let stats = service.stats();
    assert_eq!(decisions.len() as u64, stats.submitted);

    // No duplicated/contradictory answers: all decisions for one
    // fingerprint carry one label.
    let mut by_fp: HashMap<_, Vec<_>> = HashMap::new();
    for d in &decisions {
        by_fp.entry(d.fingerprint).or_default().push(d.label);
    }
    for (fp, labels) in &by_fp {
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "fingerprint {fp} received contradictory labels: {labels:?}"
        );
    }

    // Answer and governor conservation at quiesce.
    assert_conserved(&stats);
    assert!(stats.llm_answered > 0, "LLM path never exercised");
    assert!(stats.plans > 0);
}

/// Same conservation laws under a budget small enough that the governor
/// denies most batches mid-run: spend never crosses the cap, denials are
/// served by the fallback, and nothing is lost.
#[test]
fn governor_conserves_budget_under_concurrent_exhaustion() {
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

    let stats = service.stats();
    assert_eq!(decisions.len() as u64, stats.submitted);
    assert_conserved(&stats);
    assert!(
        stats.fallback_answered > 0,
        "budget never forced the fallback: {stats:?}"
    );
    assert!(stats.budget_denials > 0, "governor never denied: {stats:?}");
}

/// Nothing is bought twice: when every client asks every question, the
/// LLM answers each fingerprint at most once per service — later askers
/// attach to the held or in-flight question or read the cache. 8 clients
/// ask the same 12 questions 3 times from staggered offsets with a 1 ms
/// deadline, so duplicates arrive while their question is held, while its
/// batch executes and just after it completes; the last is where a flush
/// that looks at the cache and the in-flight map in the wrong order, or
/// only once before a wait, finds the question in neither and buys it
/// again (and overwrites the cached label).
///
/// At the PR 17 commit (two dedupe passes, cache read before the
/// in-flight map) this failed 10 of 10 release runs and 15 of 15 debug
/// runs on the box it was written on: 97 re-buys in 150 services at
/// `batch_size` 1 in release, 12 in debug. ISSUE 19 had expected a debug
/// build of that commit to pass (a simulated LLM call slower than any
/// wait for the planner lock would keep the window shut); it does not
/// with these offsets, but the rate is build-dependent — with the default
/// two workers it was 70 re-buys in 150 services in release and 0 in
/// debug — so CI runs this suite once more under `--release`, the
/// profile that ships. What could not see the race at all is the test
/// above it: each client there asks its own stripe.
#[test]
fn every_client_asks_everything_and_nothing_is_bought_twice() {
    const QUESTIONS: usize = 12;
    let pool = bootstrap();
    let bank = questions(QUESTIONS);
    for batch_size in [1usize, 2] {
        for _ in 0..40 {
            let service = ErService::start(
                Arc::new(SimLlm::new()),
                pool.clone(),
                ServiceConfig {
                    flush_deadline: Duration::from_millis(1),
                    batch_size,
                    workers: 3,
                    ..ServiceConfig::default()
                },
            );
            let decisions: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|client| {
                        let (service, bank) = (&service, &bank);
                        scope.spawn(move || {
                            (0..3 * QUESTIONS)
                                .map(|i| service.submit(&bank[(client + i) % QUESTIONS]))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });

            let stats = service.stats();
            // A question the LLM answered is cached and never asked
            // again; one it could not answer falls back uncached and may
            // be asked again.
            assert!(
                stats.llm_answered <= QUESTIONS as u64,
                "batch_size {batch_size}: a question was bought twice: {stats:?}"
            );
            assert!(
                stats.llm_answered + stats.fallback_answered >= QUESTIONS as u64,
                "batch_size {batch_size}: a question was never answered: {stats:?}"
            );
            let mut labels = HashMap::new();
            for d in &decisions {
                let first = *labels.entry(d.fingerprint).or_insert(d.label);
                assert_eq!(
                    first, d.label,
                    "fingerprint {} got two labels",
                    d.fingerprint
                );
            }
            assert_eq!(labels.len(), QUESTIONS);
            assert_conserved(&stats);
        }
    }
}
