//! Stress and recovery guarantees of the fingerprint-sharded serving
//! core: with many shards and many clients, answers stay exactly-once,
//! the global ledger conserves the budget across per-shard leases, and a
//! WAL written under one shard count restores cleanly under another with
//! zero cross-shard re-buys.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, Money, PairId, Record, RecordId, Schema};
use batcher::er_service::{ErService, ServiceConfig, SyncPolicy, WalConfig};
use batcher::llm::SimLlm;

fn bootstrap() -> Vec<batcher::er_core::LabeledPair> {
    generate(DatasetKind::Beer, 7).pairs()[..120].to_vec()
}

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(["title", "brand", "price"]).unwrap())
}

/// Unambiguous questions (identical records or fully disjoint text), so
/// answers are stable whatever batch — and whatever shard — they land in.
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

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("er-shard-stress-{tag}-{}", std::process::id()))
}

/// The sharded layout keeps every unsharded guarantee: with 8 shards and
/// 8 client threads, each submit gets exactly one decision, one
/// fingerprint never receives contradictory labels, the service's own
/// accounting identity holds, and quiesce-time budget conservation is
/// exact — pass-through leases make shard accounting byte-identical to
/// the global ledger's.
#[test]
fn eight_shards_conserve_answers_and_budget() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(3),
            batch_size: 4,
            workers: 3,
            shards: 8,
            ..ServiceConfig::default()
        },
    ));
    let bank = Arc::new(questions(40));
    let decisions = hammer(&service, &bank, 8, 6);

    let stats = service.stats();
    assert_eq!(stats.shards, 8);
    assert_eq!(decisions.len() as u64, stats.submitted);

    // One fingerprint, one label — routing is fingerprint-pure, so every
    // duplicate (and mirrored pair) lands on the shard that owns the
    // answer, and the cache can never serve a contradiction.
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

    // Exactly-once answers, summed across 8 independent shard pipelines.
    assert_eq!(
        stats.submitted,
        stats.cache_hits
            + stats.coalesced_duplicates
            + stats.llm_answered
            + stats.fallback_answered,
        "answer accounting leaked or double-counted across shards: {stats:?}"
    );
    assert!(stats.llm_answered > 0, "LLM path never exercised");
    assert!(stats.plans > 0);

    // Global ledger conservation at quiesce. Pass-through leases
    // (`lease_chunk == 0`) hold no budget, so this is exact with no
    // lease return step — and never refilled.
    assert_eq!(stats.lease_refills, 0, "{stats:?}");
    assert!(stats.within_budget(), "overspent: {stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "unsettled reservations at quiesce: {stats:?}"
    );
    assert_eq!(stats.spent_micros, stats.api_micros + stats.labeling_micros);
}

/// Chunked leases buffer budget shard-locally (fewer global reserve-lock
/// acquisitions), which parks unspent budget in the leases at quiesce.
/// Handing the leases back must restore exact conservation: the chunks
/// were moved, never duplicated or leaked.
#[test]
fn chunked_leases_conserve_budget_after_return() {
    let service = Arc::new(ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            flush_deadline: Duration::from_millis(3),
            batch_size: 4,
            workers: 3,
            shards: 8,
            lease_chunk: Money::from_micros(60_000),
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
    assert!(stats.llm_answered > 0, "LLM path never exercised");
    assert!(
        stats.lease_refills > 0,
        "chunked mode never refilled a lease: {stats:?}"
    );
    assert!(stats.within_budget(), "overspent: {stats:?}");

    // At quiesce the leases may still hold unspent chunks — globally
    // reserved, so `remaining` undercounts. Returning them closes the
    // books exactly.
    service.return_leases();
    let settled = service.stats();
    assert_eq!(settled.spent_micros, stats.spent_micros);
    assert_eq!(
        settled.remaining_micros + settled.spent_micros,
        settled.budget_micros,
        "lease return did not restore conservation: {settled:?}"
    );
    assert_eq!(
        settled.spent_micros,
        settled.api_micros + settled.labeling_micros
    );
}

/// Cross-shard durability: a WAL written under 8 shards restores into a
/// 2-shard service with zero re-buys. Routing is a pure repartition of
/// the fingerprint space, so recovery fans each journaled answer out to
/// its *new* owner — no answer is orphaned on a shard that no longer
/// exists, and no shard double-buys a question another shard already
/// settled.
#[test]
fn restart_under_different_shard_count_rebuys_nothing() {
    let dir = temp_dir("reshard");
    let _ = std::fs::remove_dir_all(&dir);
    let bank = questions(24);
    let config = |shards: usize| ServiceConfig {
        flush_deadline: Duration::from_millis(3),
        batch_size: 4,
        workers: 2,
        shards,
        wal: Some(WalConfig { sync: SyncPolicy::Always, ..WalConfig::at(&dir) }),
        ..ServiceConfig::default()
    };

    let (spent_run1, llm_answered_run1, api_calls_run1) = {
        let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config(8));
        for q in &bank {
            service.submit(q);
        }
        let stats = service.stats();
        assert_eq!(stats.shards, 8);
        assert!(stats.wal_enabled);
        assert_eq!(stats.wal_append_errors, 0);
        assert!(
            stats.llm_answered > 0,
            "run 1 never bought an answer: {stats:?}"
        );
        // Every unique question was LLM-answered (none leaked to the
        // fallback), so run 2's zero-buy assertion below is meaningful.
        assert_eq!(stats.fallback_answered, 0, "{stats:?}");
        (stats.spent_micros, stats.llm_answered, stats.api_calls)
    };

    // Restart the same log under a quarter of the shards.
    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), config(2));
    let recovery = service.health();
    assert_eq!(recovery.shards, 2);
    assert!(recovery.recovery_records_replayed > 0, "{recovery:?}");
    assert_eq!(
        recovery.recovery_answers_restored, llm_answered_run1,
        "re-sharded replay restored a different answer set than run 1 bought"
    );
    for q in &bank {
        service.submit(q);
    }
    let stats = service.stats();
    // Zero cross-shard re-buys: every question routed to a new owner
    // whose cache partition already holds the replayed answer.
    assert_eq!(
        stats.llm_answered, 0,
        "re-sharded restart re-bought answers: {stats:?}"
    );
    assert_eq!(stats.fallback_answered, 0, "{stats:?}");
    assert_eq!(stats.api_calls, api_calls_run1, "{stats:?}");
    assert!(stats.cache_hits >= bank.len() as u64, "{stats:?}");
    // The replayed spend counts against the budget exactly once.
    assert_eq!(stats.spent_micros, spent_run1, "{stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "replayed ledger broke conservation: {stats:?}"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}
