//! Durable serving demo: restart without re-buying answers.
//!
//! ```sh
//! cargo run --release --example durable_serving            # in-process demo
//! WAL_DIR=/tmp/er-wal cargo run --release --example durable_serving prime
//! WAL_DIR=/tmp/er-wal cargo run --release --example durable_serving verify
//! ```
//!
//! Three modes:
//!
//! * `demo` (default) — prime a WAL-backed service, drop it, start a
//!   fresh one on the same directory and replay the same workload,
//!   asserting the restart answers everything from the recovered cache.
//! * `prime` — buy answers into `$WAL_DIR`, write a `primed` marker, then
//!   idle so a supervisor (CI) can `kill -9` the process mid-life: the
//!   crash-recovery smoke test's first half.
//! * `verify` — reopen `$WAL_DIR` after the kill, assert recovery
//!   replayed the bought answers and that the workload re-buys nothing,
//!   and write a recovery report JSON (to `$RECOVERY_OUT`, default
//!   `$WAL_DIR/recovery.json`): the smoke test's second half.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::{EntityPair, LabeledPair};
use batcher::er_service::{ErService, ServiceConfig, SyncPolicy, WalConfig};
use batcher::llm::SimLlm;

fn bootstrap() -> Vec<LabeledPair> {
    generate(DatasetKind::Beer, 42).pairs()[..150].to_vec()
}

/// The question bank: deterministic across processes (same generator,
/// same seed), which is what lets `verify` replay `prime`'s workload.
fn bank() -> Vec<EntityPair> {
    generate(DatasetKind::Beer, 42).pairs()[150..200]
        .iter()
        .map(|p| p.pair.clone())
        .collect()
}

fn start(dir: &std::path::Path) -> ErService {
    ErService::start(
        Arc::new(SimLlm::new()),
        bootstrap(),
        ServiceConfig {
            batch_size: 8,
            flush_deadline: Duration::from_millis(5),
            workers: 2,
            domain: "Beer".to_owned(),
            // `Always`: every record is fsynced before a client sees its
            // answer, so even a power cut loses nothing settled.
            wal: Some(WalConfig { sync: SyncPolicy::Always, ..WalConfig::at(dir) }),
            // Anomalies (recovery violations, WAL degradation) dump
            // flight-recorder bundles here for the supervisor to collect.
            flight_dir: std::env::var("FLIGHT_DIR").map(PathBuf::from).ok(),
            ..ServiceConfig::default()
        },
    )
}

fn wal_dir() -> PathBuf {
    std::env::var("WAL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("er-durable-serving"))
}

fn prime(dir: &std::path::Path) {
    let service = start(dir);
    for q in &bank() {
        service.submit(q);
    }
    let stats = service.stats();
    println!("primed: {}", serde_json::to_string(&stats).unwrap());
    assert!(stats.llm_answered > 0, "priming bought nothing: {stats:?}");
    assert_eq!(stats.wal_append_errors, 0, "{stats:?}");
    // Signal the supervisor that every answer is settled and journaled —
    // from here on a SIGKILL must lose nothing.
    std::fs::write(dir.join("primed"), b"ok").expect("write marker");
    println!("marker written; idling for the supervisor's kill -9 ...");
    std::thread::sleep(Duration::from_secs(600));
}

fn verify(dir: &std::path::Path) {
    let service = start(dir);
    let health = service.health();
    println!("recovered: {}", serde_json::to_string(&health).unwrap());
    assert!(
        health.recovery_answers_restored > 0,
        "nothing replayed: {health:?}"
    );
    let questions = bank();
    for q in &questions {
        service.submit(q);
    }
    let stats = service.stats();
    println!("verified: {}", serde_json::to_string(&stats).unwrap());
    assert_eq!(
        stats.llm_answered, 0,
        "restart re-bought answers: {stats:?}"
    );
    assert!(
        stats.cache_hits >= questions.len() as u64,
        "workload not served from the recovered cache: {stats:?}"
    );
    assert_eq!(
        stats.remaining_micros + stats.spent_micros,
        stats.budget_micros,
        "replayed ledger broke conservation: {stats:?}"
    );

    let out = std::env::var("RECOVERY_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| dir.join("recovery.json"));
    let report = format!(
        "{{\"health\":{},\"stats\":{}}}\n",
        serde_json::to_string(&health).unwrap(),
        serde_json::to_string(&stats).unwrap()
    );
    std::fs::write(&out, report).expect("write recovery report");
    println!("recovery report -> {}", out.display());

    // Dump a post-recovery flight bundle: the same artifact an anomaly
    // trigger would produce, captured while the recovered state is
    // fresh. Any recovery conservation violation already wrote its own
    // `bundle-*-recovery_violation.json` next to this one.
    if service.flight().dir().is_some() {
        let bundle = service.debug_bundle_json("post_recovery");
        match service.flight().write_bundle("post_recovery", &bundle) {
            Some(path) => println!("flight bundle -> {}", path.display()),
            None => eprintln!("flight bundle write failed"),
        }
    }
    println!("restart re-bought zero answers: OK");
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "demo".into());
    let dir = wal_dir();
    match mode.as_str() {
        "prime" => prime(&dir),
        "verify" => verify(&dir),
        "demo" => {
            let _ = std::fs::remove_dir_all(&dir);
            // Run 1: buy the answers.
            let service = start(&dir);
            let questions = bank();
            for q in &questions {
                service.submit(q);
            }
            let run1 = service.stats();
            println!(
                "run 1: bought {} answers, spent {}",
                run1.llm_answered,
                run1.spend()
            );
            assert!(run1.llm_answered > 0);
            drop(service); // "crash": the WAL is all that survives

            // Run 2: same directory, same workload — all cache hits.
            let service = start(&dir);
            let health = service.health();
            println!(
                "run 2: replayed {} records, restored {} answers",
                health.recovery_records_replayed, health.recovery_answers_restored
            );
            for q in &questions {
                service.submit(q);
            }
            let run2 = service.stats();
            assert_eq!(run2.llm_answered, 0, "restart re-bought: {run2:?}");
            assert!(run2.cache_hits >= questions.len() as u64);
            assert_eq!(run2.spent_micros, run1.spent_micros);
            println!(
                "run 2: {} cache hits, 0 bought, spend unchanged at {}",
                run2.cache_hits,
                run2.spend()
            );
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
            println!("restart re-bought zero answers: OK");
        }
        other => {
            eprintln!("unknown mode {other:?}; use demo | prime | verify");
            std::process::exit(2);
        }
    }
}
