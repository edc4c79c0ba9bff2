//! Cross-crate integration tests: the full pipeline over both transports,
//! determinism, and cost-accounting consistency.

use batcher::core::{run, RunConfig};
use batcher::datagen::{generate, DatasetKind};
use batcher::llm::{InjectedFault, SimLlm};
use batcher::llm_service::LlmServer;

#[test]
fn http_and_in_process_agree_exactly() {
    let dataset = generate(DatasetKind::Beer, 3);
    let config = RunConfig { seed: 5, ..RunConfig::best_design() };

    let local = run(&dataset, &SimLlm::new(), config);
    let server = LlmServer::new().start().expect("bind loopback");
    let remote = run(&dataset, &server.client(), config);

    assert_eq!(local.confusion, remote.confusion);
    assert_eq!(local.ledger.api, remote.ledger.api);
    assert_eq!(local.ledger.labeling, remote.ledger.labeling);
    assert_eq!(local.batches, remote.batches);
}

#[test]
fn runs_are_deterministic_across_processes() {
    // Two fresh endpoints, same seed: identical results (no hidden global
    // state anywhere in the stack).
    let dataset = generate(DatasetKind::FodorsZagats, 9);
    let config = RunConfig { seed: 17, ..RunConfig::best_design() };
    let a = run(&dataset, &SimLlm::new(), config);
    let b = run(&dataset, &SimLlm::new(), config);
    assert_eq!(a.confusion, b.confusion);
    assert_eq!(a.ledger, b.ledger);
}

#[test]
fn ledger_is_internally_consistent() {
    let dataset = generate(DatasetKind::Beer, 3);
    let result = run(&dataset, &SimLlm::new(), RunConfig::best_design());

    // Labeling cost = demos labeled × $0.008.
    assert_eq!(
        result.ledger.labeling,
        batcher::er_core::LABEL_COST_PER_PAIR * result.demos_labeled as u64
    );
    // API calls at least one per batch; token counts nonzero.
    assert!(result.ledger.api_calls >= result.batches as u64);
    assert!(result.ledger.prompt_tokens.get() > 0);
    assert!(result.ledger.completion_tokens.get() > 0);
    // Total = api + labeling.
    assert_eq!(
        result.ledger.total(),
        result.ledger.api + result.ledger.labeling
    );
}

#[test]
fn every_test_question_receives_a_verdict() {
    let dataset = generate(DatasetKind::ItunesAmazon, 3);
    let result = run(&dataset, &SimLlm::new(), RunConfig::best_design());
    let split = dataset.split_3_1_1(RunConfig::best_design().seed).unwrap();
    assert_eq!(result.confusion.total() as usize, split.test.len());
}

#[test]
fn pipeline_survives_flaky_endpoint() {
    // A deterministic failure schedule — the first calls are rate limited
    // and garbled regardless of prompt content — so retry coverage does
    // not depend on which questions end up in which batch.
    let dataset = generate(DatasetKind::Beer, 3);
    let api = SimLlm::with_failure_schedule([
        Some(InjectedFault::RateLimited),
        Some(InjectedFault::Malformed),
        None,
        Some(InjectedFault::RateLimited),
        None,
        Some(InjectedFault::Truncated),
    ]);
    let config = RunConfig { max_retries: 6, ..RunConfig::best_design() };
    let result = run(&dataset, &api, config);
    let split = dataset.split_3_1_1(config.seed).unwrap();
    assert_eq!(result.confusion.total() as usize, split.test.len());
    // The first two calls failed by construction, so the executor must
    // have retried at least twice.
    assert!(result.retries >= 2, "retries {} < 2", result.retries);
}

#[test]
fn truncated_outputs_degrade_gracefully() {
    // The first batch's call and its one retry are both truncated: its
    // answers are lost, but the run completes and unanswered questions are
    // counted, not dropped.
    let dataset = generate(DatasetKind::Beer, 3);
    let api = SimLlm::with_failure_schedule([Some(InjectedFault::Truncated); 2]);
    let config = RunConfig { max_retries: 1, seed: 7, ..RunConfig::best_design() };
    let result = run(&dataset, &api, config);
    let split = dataset.split_3_1_1(7).unwrap();
    assert_eq!(result.confusion.total() as usize, split.test.len());
    assert!(
        result.unanswered > 0,
        "a twice-truncated batch should lose its answers"
    );
}
