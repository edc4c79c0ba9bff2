//! The durable answer/ledger tier: what the service writes ahead, how a
//! restart replays it, and the conservation rules replay enforces.
//!
//! Everything the service must not re-buy after a crash goes through one
//! append-only [`wal::Wal`] as self-describing binary records
//! ([`DurableRecord`]): LLM answers (symmetric fingerprint + decision +
//! attributed cost, stamped with [`FINGERPRINT_VERSION`] so prompt or
//! normalization changes invalidate cleanly) and the governor's
//! reserve/settle/refund events. Replay ([`replay`]) rebuilds the answer
//! cache (last answer per fingerprint wins, stale versions skipped) and
//! the spend ledger (from settle records only — a reserve with no
//! matching settle or refund is crash evidence, counted and treated as
//! refunded, never as spend).
//!
//! Write-ahead ordering: a settle is journaled **before** the in-memory
//! ledger merge, and a batch's answers are journaled **before** the cache
//! fill and waiter resolution — so any answer a client ever observed is
//! on its way to disk, and replayed spend can only over-approximate,
//! never under-approximate, true spend.
//!
//! Journal failures degrade, not fail: an append error is counted,
//! flagged (surfaces as `status: "degraded"` on `/healthz`) and the
//! service keeps answering — availability over durability, since losing
//! future replay only costs money on the *next* restart.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use er_core::{CostLedger, MatchLabel, Money, TokenCount};
use obs::Counter;
use wal::{FaultSchedule, RecoveryStats, SyncPolicy, Wal, WalError, WalOptions, WalStatus};

use crate::fingerprint::{PairFingerprint, FINGERPRINT_VERSION};
use crate::telemetry::Telemetry;

/// Where and how the service journals its durable state.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Log directory (created if missing).
    pub dir: PathBuf,
    /// Fsync policy. Every policy survives process kills.
    /// [`SyncPolicy::Batched`] also bounds what power loss can drop, at
    /// the price of an fsync inline on every 32nd record: on the
    /// benchmark's `serve_fresh` that is one fsync per 8 two-question
    /// batches, 14–18% of the run's wall time (1,633 fsyncs of
    /// 340–440 µs, 2-vCPU box). [`SyncPolicy::Always`] loses no completed
    /// append to power loss.
    pub sync: SyncPolicy,
    /// Segment roll threshold in bytes.
    pub segment_bytes: u64,
    /// Scripted write faults, for deterministic failure testing.
    pub faults: FaultSchedule,
}

impl WalConfig {
    /// Defaults at `dir`: batched fsync every 32 records, 8 MiB segments.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::Batched { every: 32 },
            segment_bytes: 8 << 20,
            faults: FaultSchedule::none(),
        }
    }
}

/// One durable event. The encoding is a one-byte tag followed by
/// fixed-width little-endian fields — no self-description needed, the
/// tag is the schema version hook and unknown tags fail decoding loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableRecord {
    /// A process (re)opened the log; `run` disambiguates reservation ids
    /// across restarts.
    RunStart { run: u64 },
    /// One answered question: journaled before the cache fill.
    Answer {
        /// [`FINGERPRINT_VERSION`] at write time; replay skips others.
        version: u32,
        fp: PairFingerprint,
        label: MatchLabel,
        /// This answer's attributed share of its batch's settled cost.
        cost_micros: i64,
    },
    /// The governor granted a reservation.
    Reserve { run: u64, id: u64, micros: i64 },
    /// The reservation settled with actual spend.
    Settle {
        run: u64,
        id: u64,
        api_micros: i64,
        labeling_micros: i64,
        prompt_tokens: u64,
        completion_tokens: u64,
        api_calls: u64,
        pairs_labeled: u64,
    },
    /// The reservation was released without spend (abort or drop guard).
    Refund { run: u64, id: u64, micros: i64 },
    /// [`DurableRecord::Answer`] plus the shard that bought it: what the
    /// sharded builds (PR 8–16) journaled, still decoded because their
    /// logs are on disk. Replay treats both shapes identically and
    /// ignores the shard; the service now writes plain `Answer`.
    AnswerSharded {
        /// [`FINGERPRINT_VERSION`] at write time; replay skips others.
        version: u32,
        fp: PairFingerprint,
        label: MatchLabel,
        /// This answer's attributed share of its batch's settled cost.
        cost_micros: i64,
        /// The shard that planned and executed the batch.
        shard: u32,
    },
}

const TAG_RUN_START: u8 = 0;
const TAG_ANSWER: u8 = 1;
const TAG_RESERVE: u8 = 2;
const TAG_SETTLE: u8 = 3;
const TAG_REFUND: u8 = 4;
const TAG_ANSWER_SHARDED: u8 = 5;

/// Encodes one record to its wire bytes.
pub fn encode(record: &DurableRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match *record {
        DurableRecord::RunStart { run } => {
            out.push(TAG_RUN_START);
            out.extend_from_slice(&run.to_le_bytes());
        }
        DurableRecord::Answer { version, fp, label, cost_micros } => {
            out.push(TAG_ANSWER);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&fp.0.to_le_bytes());
            out.push(label.is_match() as u8);
            out.extend_from_slice(&cost_micros.to_le_bytes());
        }
        DurableRecord::Reserve { run, id, micros } => {
            out.push(TAG_RESERVE);
            out.extend_from_slice(&run.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&micros.to_le_bytes());
        }
        DurableRecord::Settle {
            run,
            id,
            api_micros,
            labeling_micros,
            prompt_tokens,
            completion_tokens,
            api_calls,
            pairs_labeled,
        } => {
            out.push(TAG_SETTLE);
            out.extend_from_slice(&run.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&api_micros.to_le_bytes());
            out.extend_from_slice(&labeling_micros.to_le_bytes());
            out.extend_from_slice(&prompt_tokens.to_le_bytes());
            out.extend_from_slice(&completion_tokens.to_le_bytes());
            out.extend_from_slice(&api_calls.to_le_bytes());
            out.extend_from_slice(&pairs_labeled.to_le_bytes());
        }
        DurableRecord::Refund { run, id, micros } => {
            out.push(TAG_REFUND);
            out.extend_from_slice(&run.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&micros.to_le_bytes());
        }
        DurableRecord::AnswerSharded { version, fp, label, cost_micros, shard } => {
            out.push(TAG_ANSWER_SHARDED);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&fp.0.to_le_bytes());
            out.push(label.is_match() as u8);
            out.extend_from_slice(&cost_micros.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
        }
    }
    out
}

/// Decodes one record from its wire bytes.
pub fn decode(bytes: &[u8]) -> Result<DurableRecord, String> {
    fn u64_at(b: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
    }
    fn i64_at(b: &[u8], at: usize) -> i64 {
        i64::from_le_bytes(b[at..at + 8].try_into().unwrap())
    }
    let (&tag, body) = bytes.split_first().ok_or("empty record")?;
    let want = |n: usize| -> Result<(), String> {
        if body.len() == n {
            Ok(())
        } else {
            Err(format!(
                "tag {tag}: expected {n} body bytes, got {}",
                body.len()
            ))
        }
    };
    match tag {
        TAG_RUN_START => {
            want(8)?;
            Ok(DurableRecord::RunStart { run: u64_at(body, 0) })
        }
        TAG_ANSWER => {
            want(4 + 8 + 1 + 8)?;
            Ok(DurableRecord::Answer {
                version: u32::from_le_bytes(body[0..4].try_into().unwrap()),
                fp: PairFingerprint(u64_at(body, 4)),
                label: MatchLabel::from_bool(body[12] != 0),
                cost_micros: i64_at(body, 13),
            })
        }
        TAG_RESERVE => {
            want(24)?;
            Ok(DurableRecord::Reserve {
                run: u64_at(body, 0),
                id: u64_at(body, 8),
                micros: i64_at(body, 16),
            })
        }
        TAG_SETTLE => {
            want(64)?;
            Ok(DurableRecord::Settle {
                run: u64_at(body, 0),
                id: u64_at(body, 8),
                api_micros: i64_at(body, 16),
                labeling_micros: i64_at(body, 24),
                prompt_tokens: u64_at(body, 32),
                completion_tokens: u64_at(body, 40),
                api_calls: u64_at(body, 48),
                pairs_labeled: u64_at(body, 56),
            })
        }
        TAG_REFUND => {
            want(24)?;
            Ok(DurableRecord::Refund {
                run: u64_at(body, 0),
                id: u64_at(body, 8),
                micros: i64_at(body, 16),
            })
        }
        TAG_ANSWER_SHARDED => {
            want(4 + 8 + 1 + 8 + 4)?;
            Ok(DurableRecord::AnswerSharded {
                version: u32::from_le_bytes(body[0..4].try_into().unwrap()),
                fp: PairFingerprint(u64_at(body, 4)),
                label: MatchLabel::from_bool(body[12] != 0),
                cost_micros: i64_at(body, 13),
                shard: u32::from_le_bytes(body[21..25].try_into().unwrap()),
            })
        }
        other => Err(format!("unknown record tag {other}")),
    }
}

/// What replaying the log reconstructed, plus its health accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid WAL records decoded and applied.
    pub records_replayed: u64,
    /// Torn-tail bytes physically truncated on open.
    pub truncated_bytes: u64,
    /// Whether a torn tail was found.
    pub torn_tail: bool,
    /// Segment files found.
    pub segments: u64,
    /// Distinct fingerprints restored into the cache.
    pub answers_restored: u64,
    /// Answer records skipped for carrying a stale fingerprint version.
    pub answers_stale: u64,
    /// Total settled spend reconstructed from settle records.
    pub settled: CostLedger,
    /// Reserves with no settle or refund — evidence of a crash
    /// mid-dispatch; their budget is treated as refunded.
    pub open_reservations: u64,
    /// Settles or refunds with no matching reserve (must be zero: the
    /// log is written reserve-first).
    pub unmatched_settlements: u64,
    /// Records that failed to decode (must be zero: framing already
    /// CRC-checks payloads).
    pub undecodable: u64,
    /// Prior runs recorded in the log.
    pub runs: u64,
}

impl RecoveryReport {
    /// The conservation violations `er_service_stress` would flag,
    /// checked against the replayed state: spend within budget, no
    /// settlement without a reservation, nothing undecodable. Empty
    /// means the log is consistent.
    pub fn conservation_violations(&self, budget: Money) -> Vec<String> {
        let mut violations = Vec::new();
        if self.settled.total() > budget {
            violations.push(format!(
                "replayed spend {} exceeds budget {budget}",
                self.settled.total()
            ));
        }
        if self.unmatched_settlements > 0 {
            violations.push(format!(
                "{} settlements without a matching reserve",
                self.unmatched_settlements
            ));
        }
        if self.undecodable > 0 {
            violations.push(format!("{} undecodable records", self.undecodable));
        }
        violations
    }
}

/// The state [`replay`] hands back to the service.
#[derive(Debug)]
pub struct Replay {
    pub report: RecoveryReport,
    /// Restored cache content: one `(fingerprint, label)` per distinct
    /// current-version fingerprint, last answer winning.
    pub answers: Vec<(PairFingerprint, MatchLabel)>,
    /// The run id the reopened process should stamp on its records.
    pub next_run: u64,
}

/// Opens the log at `config.dir` and replays every record. Pure replay:
/// nothing is appended, gauges are not touched — [`DurableLog::open`]
/// layers those on top.
pub fn replay(config: &WalConfig) -> Result<(Wal, Replay), WalError> {
    let options = WalOptions {
        segment_bytes: config.segment_bytes,
        sync: config.sync,
        faults: config.faults.clone(),
    };
    let mut report = RecoveryReport::default();
    let mut answers: std::collections::HashMap<PairFingerprint, MatchLabel> =
        std::collections::HashMap::new();
    // Insertion order of first sight, so restored cache fill is stable.
    let mut order: Vec<PairFingerprint> = Vec::new();
    let mut open: std::collections::HashMap<(u64, u64), i64> = std::collections::HashMap::new();
    let mut max_run = 0u64;

    let (wal, stats): (Wal, RecoveryStats) = Wal::open(&config.dir, options, |payload| {
        let record = match decode(payload) {
            Ok(r) => r,
            Err(_) => {
                report.undecodable += 1;
                return;
            }
        };
        report.records_replayed += 1;
        match record {
            DurableRecord::RunStart { run } => {
                report.runs += 1;
                max_run = max_run.max(run);
            }
            // Both answer shapes replay identically; the shard id of a
            // sharded build's record is ignored.
            DurableRecord::Answer { version, fp, label, .. }
            | DurableRecord::AnswerSharded { version, fp, label, .. } => {
                if version == FINGERPRINT_VERSION {
                    if answers.insert(fp, label).is_none() {
                        order.push(fp);
                    }
                } else {
                    report.answers_stale += 1;
                }
            }
            DurableRecord::Reserve { run, id, micros } => {
                open.insert((run, id), micros);
            }
            DurableRecord::Settle {
                run,
                id,
                api_micros,
                labeling_micros,
                prompt_tokens,
                completion_tokens,
                api_calls,
                pairs_labeled,
            } => {
                if open.remove(&(run, id)).is_none() {
                    report.unmatched_settlements += 1;
                }
                report.settled.api += Money::from_micros(api_micros);
                report.settled.labeling += Money::from_micros(labeling_micros);
                report.settled.prompt_tokens += TokenCount(prompt_tokens);
                report.settled.completion_tokens += TokenCount(completion_tokens);
                report.settled.api_calls += api_calls;
                report.settled.pairs_labeled += pairs_labeled;
            }
            DurableRecord::Refund { run, id, .. } => {
                if open.remove(&(run, id)).is_none() {
                    report.unmatched_settlements += 1;
                }
            }
        }
    })?;

    // The WAL already counts only whole valid frames; undecodable counts
    // frames whose payload is gibberish despite a valid CRC.
    report.truncated_bytes = stats.truncated_bytes;
    report.torn_tail = stats.torn_tail;
    report.segments = stats.segments;
    report.open_reservations = open.len() as u64;
    report.answers_restored = answers.len() as u64;

    let answers = order.into_iter().map(|fp| (fp, answers[&fp])).collect();
    Ok((wal, Replay { report, answers, next_run: max_run + 1 }))
}

/// The service's journaling handle: the opened log, this process's run
/// id, a reservation-id allocator, and append-failure accounting.
#[derive(Debug)]
pub struct DurableLog {
    wal: Wal,
    run: u64,
    next_reservation: AtomicU64,
    /// Set after any append failure; `/healthz` reports `degraded`.
    failed: AtomicBool,
    appends: Arc<Counter>,
    append_errors: Arc<Counter>,
}

impl DurableLog {
    /// Opens the log, replays it, stamps a [`DurableRecord::RunStart`],
    /// and records recovery gauges on `telemetry`. Returns the handle and
    /// the replayed state.
    pub fn open(
        config: &WalConfig,
        telemetry: &Telemetry,
    ) -> Result<(Arc<Self>, Replay), WalError> {
        let (wal, replayed) = replay(config)?;
        let log = Arc::new(Self {
            wal,
            run: replayed.next_run,
            next_reservation: AtomicU64::new(1),
            failed: AtomicBool::new(false),
            appends: Arc::clone(&telemetry.wal_appends),
            append_errors: Arc::clone(&telemetry.wal_append_errors),
        });
        let report = &replayed.report;
        telemetry
            .recovery_records
            .set(report.records_replayed as i64);
        telemetry
            .recovery_truncated_bytes
            .set(report.truncated_bytes as i64);
        telemetry
            .recovery_answers_restored
            .set(report.answers_restored as i64);
        telemetry
            .recovery_open_reservations
            .set(report.open_reservations as i64);
        log.append(&DurableRecord::RunStart { run: log.run });
        Ok((log, replayed))
    }

    /// This process's run id.
    pub fn run(&self) -> u64 {
        self.run
    }

    /// Allocates the next reservation id (unique within this run).
    pub fn next_reservation_id(&self) -> u64 {
        self.next_reservation.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends one record; failures degrade (counted + flagged), never
    /// propagate — the service keeps serving without durability.
    pub fn append(&self, record: &DurableRecord) {
        self.append_group(std::slice::from_ref(record));
    }

    /// Appends a group of records as one physical write/fsync.
    pub fn append_group(&self, records: &[DurableRecord]) {
        if records.is_empty() {
            return;
        }
        let encoded: Vec<Vec<u8>> = records.iter().map(encode).collect();
        match self.wal.append_all(encoded.iter().map(Vec::as_slice)) {
            Ok(_) => self.appends.add(records.len() as u64),
            Err(e) => {
                self.append_errors.inc();
                self.failed.store(true, Ordering::Relaxed);
                eprintln!("er-service: wal append failed ({e}); serving without durability");
            }
        }
    }

    /// True after any append failure.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The underlying log's write-path status.
    pub fn status(&self) -> WalStatus {
        self.wal.status()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: DurableRecord) {
        let bytes = encode(&record);
        assert_eq!(decode(&bytes).unwrap(), record);
    }

    #[test]
    fn every_record_shape_roundtrips() {
        roundtrip(DurableRecord::RunStart { run: 7 });
        roundtrip(DurableRecord::Answer {
            version: FINGERPRINT_VERSION,
            fp: PairFingerprint(0xdead_beef_cafe_f00d),
            label: MatchLabel::Matching,
            cost_micros: 1_234,
        });
        roundtrip(DurableRecord::Answer {
            version: 0,
            fp: PairFingerprint(1),
            label: MatchLabel::NonMatching,
            cost_micros: 0,
        });
        roundtrip(DurableRecord::Reserve { run: 1, id: 42, micros: 99_000 });
        roundtrip(DurableRecord::Settle {
            run: 1,
            id: 42,
            api_micros: 5_100,
            labeling_micros: 32_000,
            prompt_tokens: 900,
            completion_tokens: 120,
            api_calls: 2,
            pairs_labeled: 4,
        });
        roundtrip(DurableRecord::Refund { run: 1, id: 43, micros: 99_000 });
        roundtrip(DurableRecord::AnswerSharded {
            version: FINGERPRINT_VERSION,
            fp: PairFingerprint(0x1234_5678_9abc_def0),
            label: MatchLabel::Matching,
            cost_micros: 777,
            shard: 6,
        });
        roundtrip(DurableRecord::AnswerSharded {
            version: 0,
            fp: PairFingerprint(2),
            label: MatchLabel::NonMatching,
            cost_micros: 0,
            shard: 0,
        });
    }

    #[test]
    fn sharded_answers_replay_like_unsharded_ones() {
        let dir = std::env::temp_dir().join(format!(
            "er-durable-sharded-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig::at(&dir);
        {
            let (wal, _) = replay(&config).unwrap();
            let history = [
                // A log mixing pre-shard and sharded answer records —
                // exactly what an upgraded service's directory contains.
                DurableRecord::Answer {
                    version: FINGERPRINT_VERSION,
                    fp: PairFingerprint(21),
                    label: MatchLabel::Matching,
                    cost_micros: 5,
                },
                DurableRecord::AnswerSharded {
                    version: FINGERPRINT_VERSION,
                    fp: PairFingerprint(22),
                    label: MatchLabel::NonMatching,
                    cost_micros: 5,
                    shard: 3,
                },
                // Sharded re-answer of the unsharded fingerprint: last
                // answer wins regardless of record shape.
                DurableRecord::AnswerSharded {
                    version: FINGERPRINT_VERSION,
                    fp: PairFingerprint(21),
                    label: MatchLabel::NonMatching,
                    cost_micros: 5,
                    shard: 1,
                },
                // Stale-version sharded answers are skipped like any
                // other stale answer.
                DurableRecord::AnswerSharded {
                    version: FINGERPRINT_VERSION + 1,
                    fp: PairFingerprint(23),
                    label: MatchLabel::Matching,
                    cost_micros: 5,
                    shard: 0,
                },
            ];
            for r in &history {
                wal.append(&encode(r)).unwrap();
            }
        }
        let (_wal, replayed) = replay(&config).unwrap();
        assert_eq!(replayed.report.answers_restored, 2);
        assert_eq!(replayed.report.answers_stale, 1);
        assert_eq!(
            replayed.answers,
            vec![
                (PairFingerprint(21), MatchLabel::NonMatching),
                (PairFingerprint(22), MatchLabel::NonMatching),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_unknown_payloads_fail_loudly() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[TAG_SETTLE, 0, 0]).is_err());
        assert!(decode(&[99, 1, 2, 3]).is_err());
        let mut bytes = encode(&DurableRecord::RunStart { run: 1 });
        bytes.pop();
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn replay_rebuilds_cache_ledger_and_open_reservations() {
        let dir = std::env::temp_dir().join(format!(
            "er-durable-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig::at(&dir);
        {
            let (wal, _) = replay(&config).unwrap();
            let history = [
                DurableRecord::RunStart { run: 1 },
                DurableRecord::Reserve { run: 1, id: 1, micros: 10_000 },
                DurableRecord::Settle {
                    run: 1,
                    id: 1,
                    api_micros: 4_000,
                    labeling_micros: 16_000,
                    prompt_tokens: 500,
                    completion_tokens: 60,
                    api_calls: 1,
                    pairs_labeled: 2,
                },
                DurableRecord::Answer {
                    version: FINGERPRINT_VERSION,
                    fp: PairFingerprint(11),
                    label: MatchLabel::NonMatching,
                    cost_micros: 2_000,
                },
                // Same fingerprint answered again: last one wins.
                DurableRecord::Answer {
                    version: FINGERPRINT_VERSION,
                    fp: PairFingerprint(11),
                    label: MatchLabel::Matching,
                    cost_micros: 2_000,
                },
                // Stale version: skipped.
                DurableRecord::Answer {
                    version: FINGERPRINT_VERSION + 1,
                    fp: PairFingerprint(12),
                    label: MatchLabel::Matching,
                    cost_micros: 9,
                },
                DurableRecord::Reserve { run: 1, id: 2, micros: 7_000 },
                DurableRecord::Refund { run: 1, id: 2, micros: 7_000 },
                // Crash evidence: reserved, never settled.
                DurableRecord::Reserve { run: 1, id: 3, micros: 5_000 },
            ];
            for r in &history {
                wal.append(&encode(r)).unwrap();
            }
        }
        let (_wal, replayed) = replay(&config).unwrap();
        let report = &replayed.report;
        assert_eq!(report.records_replayed, 9);
        assert_eq!(report.answers_restored, 1);
        assert_eq!(report.answers_stale, 1);
        assert_eq!(report.open_reservations, 1);
        assert_eq!(report.unmatched_settlements, 0);
        assert_eq!(report.runs, 1);
        assert_eq!(report.settled.total(), Money::from_micros(20_000));
        assert_eq!(report.settled.api_calls, 1);
        assert_eq!(
            replayed.answers,
            vec![(PairFingerprint(11), MatchLabel::Matching)]
        );
        assert_eq!(replayed.next_run, 2);
        assert!(report
            .conservation_violations(Money::from_micros(20_000))
            .is_empty());
        assert_eq!(
            report
                .conservation_violations(Money::from_micros(19_999))
                .len(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
