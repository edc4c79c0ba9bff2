//! Golden digests of what the serving path sends to the LLM: the serving
//! analogue of `crates/core/tests/plan_golden.rs`.
//!
//! A capturing `ChatApi` sees every `ChatRequest` the service issues.
//! Its prompt text carries the batch's questions and demonstrations, its
//! `seed` the flush seed — so the digest moves whenever a flush is
//! planned into different batches, picks different demonstrations,
//! orders questions differently or derives another seed. A change to the
//! service's planner wiring that claims "same plans" must leave this
//! file untouched.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use batcher::datagen::{generate, DatasetKind};
use batcher::er_core::EntityPair;
use batcher::er_service::{pair_fingerprint, ErService, ServiceConfig};
use batcher::llm::{ChatApi, ChatRequest, ChatResponse, LlmError, SimLlm};

/// Answers like the simulator and keeps `(prompt, seed)` of every request.
struct CapturingApi {
    llm: SimLlm,
    seen: Mutex<Vec<(String, u64)>>,
}

impl ChatApi for CapturingApi {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        self.seen
            .lock()
            .unwrap()
            .push((request.prompt.clone(), request.seed));
        self.llm.complete(request)
    }
}

/// Serves the Beer pairs `range` and digests (FNV-1a) every request the
/// service sent, in order.
///
/// Flush composition is made deterministic rather than hoped for:
/// `flush_deadline` is far longer than the test, and each round releases
/// exactly `batch_size` submitting threads from a barrier and waits for
/// all their answers, so every flush is size-triggered over exactly that
/// round's questions.
fn served_digest(batch_size: usize, range: std::ops::Range<usize>) -> u64 {
    let dataset = generate(DatasetKind::Beer, 7);
    let questions: Vec<&EntityPair> = dataset.pairs()[range].iter().map(|p| &p.pair).collect();
    let mut fingerprints = HashSet::new();
    assert!(
        questions
            .iter()
            .all(|q| fingerprints.insert(pair_fingerprint(q))),
        "questions must be pairwise distinct"
    );

    let api = Arc::new(CapturingApi { llm: SimLlm::new(), seen: Mutex::new(Vec::new()) });
    let service = ErService::start(
        Arc::clone(&api) as Arc<dyn ChatApi>,
        dataset.pairs()[..120].to_vec(),
        ServiceConfig {
            batch_size,
            flush_deadline: Duration::from_secs(30),
            ..ServiceConfig::default()
        },
    );
    for round in questions.chunks_exact(batch_size) {
        let barrier = Barrier::new(batch_size);
        std::thread::scope(|scope| {
            for question in round {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    service.submit(question);
                });
            }
        });
    }
    let stats = service.stats();
    assert_eq!(
        (stats.llm_answered, stats.batches_flushed),
        (
            questions.len() as u64,
            (questions.len() / batch_size) as u64
        ),
        "every round must flush as exactly one full batch: {stats:?}"
    );

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let seen = api.seen.lock().unwrap();
    eat(&(seen.len() as u64).to_le_bytes());
    for (prompt, seed) in seen.iter() {
        eat(&(prompt.len() as u64).to_le_bytes());
        eat(prompt.as_bytes());
        eat(&seed.to_le_bytes());
    }
    h
}

/// The `serve_fresh` shape: `batch_size` 2, every question new, twenty
/// size-triggered two-question flushes one after another.
#[test]
fn two_question_flush_sequence_matches_golden() {
    let got = served_digest(2, 120..160);
    assert_eq!(got, 0xff93_05a6_0354_d625, "requests moved: {got:#018x}");
}

/// One flush of the default `batch_size` 8.
#[test]
fn eight_question_flush_matches_golden() {
    let got = served_digest(8, 200..208);
    assert_eq!(got, 0xb040_92f2_39ba_3942, "requests moved: {got:#018x}");
}
