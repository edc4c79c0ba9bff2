//! Concurrency stress for the er-service coalescing queue and cost
//! governor: many client threads hammering a shared service with a
//! duplicate-heavy workload must produce exactly one answer per submit
//! (none lost, none contradictory under caching) while the governor's
//! reserve/settle accounting conserves the budget.

use std::sync::Arc;
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, Money, PairId, Record, RecordId, Schema};
use batcher::er_service::{ErService, ServiceConfig};
use batcher::llm::SimLlm;

fn bootstrap() -> Vec<batcher::er_core::LabeledPair> {
    generate(DatasetKind::Beer, 7).pairs()[..120].to_vec()
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(["title", "brand", "price"]).unwrap())
}

/// Unambiguous questions (identical records or fully disjoint text), so
/// answers are stable whatever batch they land in.
fn questions(n: usize) -> Vec<EntityPair> {
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
    ];
    (0..n)
        .map(|i| {
            let title = products[i % products.len()];
            let price = format!("{}.99", 2 + (i % 11));
            let left: Vec<String> = vec![title.into(), format!("brand{}", i % 7), price.clone()];
            let right: Vec<String> = if i % 2 == 0 {
                left.clone()
            } else {
                vec![
                    products[(i + 3) % products.len()].into(),
                    format!("other{}", i % 5),
                    "87.50".into(),
                ]
            };
            let a = Arc::new(Record::new(RecordId::a(i as u32), schema(), left).unwrap());
            let b = Arc::new(Record::new(RecordId::b(i as u32), schema(), right).unwrap());
            EntityPair::new(PairId(i as u32), a, b).unwrap()
        })
        .collect()
}

/// Runs `clients` threads, each submitting every question of its stripe
/// `rounds` times, and returns all decisions.
fn hammer(
    service: &Arc<ErService>,
    bank: &Arc<Vec<EntityPair>>,
    clients: usize,
    rounds: usize,
) -> Vec<batcher::er_service::MatchDecision> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let service = Arc::clone(service);
                let bank = Arc::clone(bank);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..rounds {
                        for q in bank
                            .iter()
                            .skip((client + round) % clients)
                            .step_by(clients.max(1))
                        {
                            out.push(service.submit(q));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Every submission is answered exactly once and the service's own
/// accounting agrees: submitted = cache hits + coalesced + uniquely
/// answered (LLM or fallback). With the cache on, identical questions
/// can never receive contradictory labels.
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

    // No duplicated/contradictory answers: with the cache enabled, all
    // decisions for one fingerprint carry one label.
    let mut by_fp: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
    for d in &decisions {
        by_fp.entry(d.fingerprint).or_default().push(d.label);
    }
    for (fp, labels) in &by_fp {
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "fingerprint {fp} received contradictory labels: {labels:?}"
        );
    }

    // Answer conservation: every submission is exactly one of — a
    // submit-time cache hit, a flush-time coalesce (cache fill, in-flight
    // attach, within-flush or held-question duplicate), or a uniquely
    // answered question (LLM or fallback).
    assert_eq!(
        stats.submitted,
        stats.cache_hits
            + stats.coalesced_duplicates
            + stats.llm_answered
            + stats.fallback_answered,
        "answer accounting leaked or double-counted: {stats:?}"
    );
    assert!(stats.llm_answered > 0, "LLM path never exercised");
    assert!(stats.plans > 0);

    // Governor conservation at quiesce: every reservation settled or
    // released, so remaining + spent = budget exactly, within budget.
    assert!(stats.within_budget(), "overspent: {stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "unsettled reservations at quiesce: {stats:?}"
    );
    assert_eq!(stats.spent_micros, stats.api_micros + stats.labeling_micros);
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
            cache_enabled: false, // every submit exercises the queue
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(40));
    let decisions = hammer(&service, &bank, 6, 4);

    let stats = service.stats();
    assert_eq!(decisions.len() as u64, stats.submitted);
    assert_eq!(
        stats.submitted,
        stats.cache_hits
            + stats.coalesced_duplicates
            + stats.llm_answered
            + stats.fallback_answered,
        "answer accounting leaked or double-counted: {stats:?}"
    );
    assert!(
        stats.fallback_answered > 0,
        "budget never forced the fallback: {stats:?}"
    );
    assert!(stats.budget_denials > 0, "governor never denied: {stats:?}");
    assert!(stats.within_budget(), "spend crossed the cap: {stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "unsettled reservations at quiesce: {stats:?}"
    );
}
