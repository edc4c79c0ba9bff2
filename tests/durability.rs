//! Crash-recovery guarantees of the durable answer/ledger tier: a
//! restarted service replays its write-ahead log and re-buys **zero**
//! settled answers, and replay reconstructs exactly the state that was
//! durable at any crash point (prefix consistency).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::MatchLabel;
use batcher::er_core::{EntityPair, Money, PairId, Record, RecordId, Schema};
use batcher::er_service::durable::{encode, replay, DurableRecord};
use batcher::er_service::{
    pair_fingerprint, DecisionSource, ErService, PairFingerprint, ServiceConfig, SyncPolicy,
    WalConfig, FINGERPRINT_VERSION,
};
use batcher::llm::SimLlm;
use batcher::wal::testing::crash_at_offset;
use batcher::wal::Wal;

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
    ];
    (0..n)
        .map(|i| {
            let title = products[i % products.len()];
            let left: Vec<String> = vec![
                title.into(),
                format!("brand{}", i % 5),
                format!("{}.49", 3 + i % 7),
            ];
            let right: Vec<String> = if i % 2 == 0 {
                left.clone()
            } else {
                vec![
                    products[(i + 3) % products.len()].into(),
                    format!("other{}", i % 4),
                    "87.50".into(),
                ]
            };
            let a = Arc::new(Record::new(RecordId::a(i as u32), schema(), left).unwrap());
            let b = Arc::new(Record::new(RecordId::b(i as u32), schema(), right).unwrap());
            EntityPair::new(PairId(i as u32), a, b).unwrap()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("er-durability-{tag}-{}", std::process::id()))
}

fn service_config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        flush_deadline: Duration::from_millis(3),
        batch_size: 4,
        workers: 2,
        wal: Some(WalConfig { sync: SyncPolicy::Always, ..WalConfig::at(dir) }),
        ..ServiceConfig::default()
    }
}

/// The tentpole guarantee: run a service against a WAL, drop it, start a
/// fresh service on the same directory and replay the same question bank
/// — the second run answers everything from the recovered cache, buying
/// nothing, and its replayed ledger still conserves the budget.
#[test]
fn restart_without_rebuying_answers() {
    let dir = temp_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let bank = questions(24);

    let (spent_run1, llm_answered_run1, api_calls_run1) = {
        let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), service_config(&dir));
        for q in &bank {
            service.submit(q);
        }
        let stats = service.stats();
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

    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), service_config(&dir));
    let recovery = service.health();
    assert!(recovery.recovery_records_replayed > 0, "{recovery:?}");
    assert_eq!(
        recovery.recovery_answers_restored, llm_answered_run1,
        "replay restored a different answer set than run 1 bought"
    );
    for q in &bank {
        service.submit(q);
    }
    let stats = service.stats();
    // Zero re-buys: everything is a cache hit against replayed answers.
    assert_eq!(
        stats.llm_answered, 0,
        "restart re-bought answers: {stats:?}"
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

/// Logs already on disk: the sharded builds (PR 8–16) journaled every
/// answer as `AnswerSharded`, tagged with whichever of their shards
/// bought it. A service started on such a log — here written record by
/// record, answers spread over eight shard ids — restores every answer
/// whatever its shard id said, re-buys nothing, and carries the replayed
/// spend forward.
#[test]
fn sharded_build_log_restarts_without_rebuying_answers() {
    let dir = temp_dir("sharded-log");
    let _ = std::fs::remove_dir_all(&dir);
    let bank = questions(24);
    let (api_micros, labeling_micros) = (700, 8_000);
    {
        let (wal, _) = replay(&service_config(&dir).wal.unwrap()).unwrap();
        let append = |record: DurableRecord| {
            wal.append(&encode(&record)).unwrap();
        };
        append(DurableRecord::RunStart { run: 1 });
        for (i, q) in bank.iter().enumerate() {
            if i % 4 == 0 {
                // One settled batch of four ahead of its answers.
                let id = (i / 4) as u64 + 1;
                append(DurableRecord::Reserve { run: 1, id, micros: 20_000 });
                append(DurableRecord::Settle {
                    run: 1,
                    id,
                    api_micros,
                    labeling_micros,
                    prompt_tokens: 400,
                    completion_tokens: 60,
                    api_calls: 1,
                    pairs_labeled: 1,
                });
            }
            append(DurableRecord::AnswerSharded {
                version: FINGERPRINT_VERSION,
                fp: pair_fingerprint(q),
                // `questions` alternates identical / disjoint pairs.
                label: MatchLabel::from_bool(i % 2 == 0),
                cost_micros: (api_micros + labeling_micros) / 4,
                shard: (i % 8) as u32,
            });
        }
    }
    let batches = (bank.len() / 4) as i64;
    let spent = batches * (api_micros + labeling_micros);

    let service = ErService::start(Arc::new(SimLlm::new()), bootstrap(), service_config(&dir));
    let recovery = service.health();
    assert_eq!(recovery.recovery_answers_restored, bank.len() as u64);
    assert_eq!(recovery.recovery_open_reservations, 0, "{recovery:?}");
    for (i, q) in bank.iter().enumerate() {
        let decision = service.submit(q);
        assert_eq!(decision.source, DecisionSource::Cache, "question {i}");
        assert_eq!(decision.label, MatchLabel::from_bool(i % 2 == 0));
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, bank.len() as u64, "{stats:?}");
    assert_eq!((stats.llm_answered, stats.fallback_answered), (0, 0));
    assert_eq!(stats.api_calls, batches as u64, "{stats:?}");
    assert_eq!(stats.spent_micros, spent, "{stats:?}");
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "replayed ledger broke conservation: {stats:?}"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Expected replay state after a prefix of the history.
#[derive(Debug, Clone, Default, PartialEq)]
struct Expected {
    answers: Vec<(u64, bool)>,
    settled_micros: i64,
    open_reservations: u64,
}

/// Prefix consistency at the durable-record level: drive the WAL with a
/// deterministic reserve/settle/answer/refund history, snapshot the
/// expected state at each append's returned end offset, kill the log at
/// a sweep of byte offsets, and assert replay reconstructs exactly the
/// snapshot at the largest end offset at or before the cut.
#[test]
fn replay_matches_every_crash_offset() {
    let dir = temp_dir("prefix");
    let _ = std::fs::remove_dir_all(&dir);
    let config = WalConfig {
        sync: SyncPolicy::Never,
        segment_bytes: 256, // force several segment rolls
        ..WalConfig::at(&dir)
    };

    // Build the history and the per-append expected snapshots.
    let mut snapshots: Vec<(u64, Expected)> = vec![(0, Expected::default())];
    {
        let (wal, _) = replay(&config).unwrap();
        let mut state = Expected::default();
        let mut append = |wal: &Wal, record: DurableRecord, state: &Expected| {
            let end = wal.append(&encode(&record)).unwrap();
            snapshots.push((end, state.clone()));
        };
        for i in 0u64..12 {
            state.open_reservations += 1;
            append(
                &wal,
                DurableRecord::Reserve { run: 1, id: i, micros: 1_000 },
                &state,
            );
            if i % 3 == 2 {
                // Abort path: refund without spend.
                state.open_reservations -= 1;
                append(
                    &wal,
                    DurableRecord::Refund { run: 1, id: i, micros: 1_000 },
                    &state,
                );
            } else {
                state.open_reservations -= 1;
                state.settled_micros += 700;
                append(
                    &wal,
                    DurableRecord::Settle {
                        run: 1,
                        id: i,
                        api_micros: 700,
                        labeling_micros: 0,
                        prompt_tokens: 90,
                        completion_tokens: 12,
                        api_calls: 1,
                        pairs_labeled: 0,
                    },
                    &state,
                );
                state.answers.push((i, i % 2 == 0));
                append(
                    &wal,
                    DurableRecord::Answer {
                        version: FINGERPRINT_VERSION,
                        fp: PairFingerprint(i),
                        label: MatchLabel::from_bool(i % 2 == 0),
                        cost_micros: 700,
                    },
                    &state,
                );
            }
        }
    }
    let total = snapshots.last().unwrap().0;

    // Sweep crash offsets, including mid-record cuts (which truncate back
    // to the previous whole record) and both extremes. Descending order,
    // because each cut (and each replay's torn-tail truncation) shortens
    // the log for good.
    let mut cuts: Vec<u64> = (0..=total).step_by(7).collect();
    cuts.push(total);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.reverse();
    for crash in cuts {
        crash_at_offset(&dir, crash).unwrap();
        let (_wal, replayed) = replay(&config).unwrap();
        let expected = snapshots
            .iter()
            .rev()
            .find(|(end, _)| *end <= crash)
            .map(|(_, s)| s.clone())
            .unwrap();
        let got_answers: Vec<(u64, bool)> = replayed
            .answers
            .iter()
            .map(|(fp, label)| (fp.0, label.is_match()))
            .collect();
        assert_eq!(got_answers, expected.answers, "crash at {crash}/{total}");
        assert_eq!(
            replayed.report.settled.total(),
            Money::from_micros(expected.settled_micros),
            "crash at {crash}/{total}"
        );
        assert_eq!(
            replayed.report.open_reservations, expected.open_reservations,
            "crash at {crash}/{total}"
        );
        // Reserve-first write ordering means no cut can orphan a settle.
        assert_eq!(
            replayed.report.unmatched_settlements, 0,
            "crash at {crash}/{total}"
        );
        assert_eq!(replayed.report.undecodable, 0, "crash at {crash}/{total}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
