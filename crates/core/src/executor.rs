//! Prompt execution with retry, rate-limit backoff and context-overflow
//! splitting.

use er_core::{CostLedger, LabeledPair, MatchLabel};
use llm::{parse_answers, ChatApi, ChatRequest, LlmError, ModelKind};

use crate::prompt::build_batch_prompt;

/// Executes rendered prompts against a [`ChatApi`] endpoint.
#[derive(Clone, Copy)]
pub struct Executor<'a> {
    api: &'a dyn ChatApi,
    model: ModelKind,
    /// Retries on unparseable output or rate limiting.
    max_retries: u32,
    /// Caller's trace id, stamped onto every request this executor issues
    /// so HTTP-backed [`ChatApi`] implementations can propagate it
    /// downstream (0 = untraced).
    trace_id: u64,
}

/// Aggregate outcome of executing one or more batches.
#[derive(Debug, Clone, Default)]
pub struct ExecutionOutcome {
    /// One answer slot per question, in submission order. `None` = the
    /// model never produced a parseable answer for it.
    pub answers: Vec<Option<MatchLabel>>,
    /// API cost/usage.
    pub ledger: CostLedger,
    /// Retries performed (rate limits + malformed output).
    pub retries: u32,
    /// Times an oversized batch was split to fit the context window.
    pub context_splits: u32,
    /// Wall time of each individual API call, microseconds, in issue
    /// order (failed calls included — they cost latency too). The serving
    /// layer feeds these into its LLM-call-latency histogram.
    pub call_latencies_us: Vec<u64>,
}

impl<'a> Executor<'a> {
    /// An executor for `model` over `api`.
    pub fn new(api: &'a dyn ChatApi, model: ModelKind, max_retries: u32) -> Self {
        Self { api, model, max_retries, trace_id: 0 }
    }

    /// Stamps `trace_id` onto every request this executor issues.
    pub fn with_trace(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }

    /// Runs one batch: builds the prompt from `description`, `demos` and
    /// the serialized `questions`, submits it, parses the per-question
    /// answers, and handles the three recoverable failures:
    ///
    /// * **Rate limiting** — retried up to `max_retries`.
    /// * **Unparseable output** — retried with a perturbed seed (a real
    ///   harness resamples the model); after the budget, the affected
    ///   questions stay unanswered (`None`).
    /// * **Context overflow** — the batch splits in half recursively with
    ///   the same demonstrations, mirroring the fallback a production
    ///   harness needs for long entity descriptions.
    pub fn run_batch(
        &self,
        description: &str,
        demos: &[&LabeledPair],
        questions: &[String],
        seed: u64,
        outcome: &mut ExecutionOutcome,
    ) {
        if questions.is_empty() {
            return;
        }
        // The rendered prompt moves into the one request this batch ever
        // builds; a retry only re-stamps its seed and attempt number.
        let prompt = build_batch_prompt(description, demos, questions);
        let mut request = ChatRequest::new(self.model, prompt, seed).with_trace(self.trace_id, 0);
        let mut attempt = 0u32;
        loop {
            request.seed = seed ^ u64::from(attempt);
            request.attempt = attempt;
            let call_started = std::time::Instant::now();
            let result = self.api.complete(&request);
            outcome
                .call_latencies_us
                .push(u64::try_from(call_started.elapsed().as_micros()).unwrap_or(u64::MAX));
            match result {
                Ok(resp) => {
                    outcome.ledger.record_api_call(
                        resp.usage.prompt_tokens,
                        resp.usage.completion_tokens,
                        resp.cost,
                    );
                    match parse_answers(&resp.content, questions.len()) {
                        Ok(labels) => {
                            outcome.answers.extend(labels.into_iter().map(Some));
                            return;
                        }
                        Err(_) if attempt < self.max_retries => {
                            outcome.retries += 1;
                            attempt += 1;
                            continue;
                        }
                        Err(_) => {
                            outcome
                                .answers
                                .extend(std::iter::repeat_n(None, questions.len()));
                            return;
                        }
                    }
                }
                Err(LlmError::RateLimited) if attempt < self.max_retries => {
                    outcome.retries += 1;
                    attempt += 1;
                }
                Err(LlmError::ContextLengthExceeded { .. }) if questions.len() > 1 => {
                    // Same demos, half the questions, recursively.
                    outcome.context_splits += 1;
                    let mid = questions.len() / 2;
                    self.run_batch(
                        description,
                        demos,
                        &questions[..mid],
                        seed ^ 0x51F7,
                        outcome,
                    );
                    self.run_batch(
                        description,
                        demos,
                        &questions[mid..],
                        seed ^ 0x51F9,
                        outcome,
                    );
                    return;
                }
                Err(_) => {
                    // Unrecoverable for this batch: leave the questions
                    // unanswered rather than abort the whole run.
                    outcome
                        .answers
                        .extend(std::iter::repeat_n(None, questions.len()));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::task_description;
    use datagen::{generate, DatasetKind};
    use llm::{SimLlm, SimLlmConfig};

    fn setup() -> (Vec<LabeledPair>, String) {
        let d = generate(DatasetKind::Beer, 2);
        (d.pairs().to_vec(), task_description("Beer"))
    }

    #[test]
    fn answers_every_question_in_order() {
        let (pairs, desc) = setup();
        let api = SimLlm::new();
        let exec = Executor::new(&api, ModelKind::Gpt4, 2);
        let demos: Vec<&LabeledPair> = pairs[..4].iter().collect();
        let questions: Vec<String> = pairs[4..12].iter().map(|p| p.pair.serialize()).collect();
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &demos, &questions, 5, &mut outcome);
        assert_eq!(outcome.answers.len(), 8);
        assert!(outcome.answers.iter().all(Option::is_some));
        assert_eq!(outcome.ledger.api_calls, 1);
    }

    #[test]
    fn rate_limits_retried() {
        let (pairs, desc) = setup();
        // 60% rate limiting: with 4 retries most batches eventually pass.
        let api = SimLlm::with_config(SimLlmConfig { rate_limit_rate: 0.6, ..Default::default() });
        let exec = Executor::new(&api, ModelKind::Gpt4, 8);
        let questions: Vec<String> = pairs[..4].iter().map(|p| p.pair.serialize()).collect();
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &[], &questions, 3, &mut outcome);
        assert_eq!(outcome.answers.len(), 4);
        // Either it succeeded after retries, or exhausted them.
        assert!(outcome.retries > 0 || outcome.answers.iter().all(Option::is_some));
    }

    #[test]
    fn malformed_output_exhausts_retries_to_none() {
        let (pairs, desc) = setup();
        let api = SimLlm::with_config(SimLlmConfig { malformed_rate: 1.0, ..Default::default() });
        let exec = Executor::new(&api, ModelKind::Gpt4, 2);
        let questions: Vec<String> = pairs[..3].iter().map(|p| p.pair.serialize()).collect();
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &[], &questions, 3, &mut outcome);
        assert_eq!(outcome.answers, vec![None, None, None]);
        assert_eq!(outcome.retries, 2);
        // Every attempt was still paid for — failed parses are not free.
        assert_eq!(outcome.ledger.api_calls, 3);
    }

    #[test]
    fn context_overflow_splits_batch() {
        let (pairs, desc) = setup();
        let api = SimLlm::new();
        // GPT-3.5 has a 4k context; a batch with padded questions must
        // split rather than fail.
        let exec = Executor::new(&api, ModelKind::Gpt35Turbo0301, 2);
        let filler = "very long descriptive filler text ".repeat(120);
        let questions: Vec<String> = pairs[..8]
            .iter()
            .map(|p| format!("{} {filler}", p.pair.serialize()))
            .collect();
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &[], &questions, 3, &mut outcome);
        assert_eq!(outcome.answers.len(), 8);
        assert!(outcome.context_splits > 0, "oversized batch never split");
        assert!(outcome.ledger.api_calls >= 2);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (_, desc) = setup();
        let api = SimLlm::new();
        let exec = Executor::new(&api, ModelKind::Gpt4, 2);
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &[], &[], 1, &mut outcome);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.ledger.api_calls, 0);
    }
}
