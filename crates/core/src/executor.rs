//! Prompt execution: one send path with retry on rate limits and
//! unparseable output, and context-overflow splitting on top of it.

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

    /// Runs one batch: renders the prompt from `description`, `demos` and
    /// the serialized `questions` and [`Executor::send`]s it. A prompt
    /// the model refuses for length splits in half recursively with the
    /// same demonstrations, mirroring the fallback a production harness
    /// needs for long entity descriptions; any other unrecoverable error
    /// leaves the batch's questions unanswered rather than abort the run.
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
        let prompt = build_batch_prompt(description, demos, questions);
        match self.send(prompt, questions.len(), seed, outcome) {
            Ok(()) => {}
            Err(LlmError::ContextLengthExceeded { .. }) if questions.len() > 1 => {
                let (left, right) = halve(questions);
                self.run_batch(description, demos, left, seed ^ 0x51F7, outcome);
                self.run_batch(description, demos, right, seed ^ 0x51F9, outcome);
            }
            Err(_) => outcome
                .answers
                .extend(std::iter::repeat_n(None, questions.len())),
        }
    }

    /// Sends the rendered `prompt`, which asks `questions` questions, and
    /// appends one answer slot per question to `outcome`. Rate limits and
    /// unparseable output (resampled under a perturbed seed, as a real
    /// harness resamples the model) are retried up to `max_retries`, the
    /// request seed being `seed ^ attempt`; once retries run out every
    /// question is `None` and the send is `Ok`. Any other error is
    /// returned with no answer appended. Every answered attempt is billed
    /// to `outcome.ledger` either way.
    pub fn send(
        &self,
        prompt: String,
        questions: usize,
        seed: u64,
        outcome: &mut ExecutionOutcome,
    ) -> Result<(), LlmError> {
        // The prompt moves into the one request this send ever builds; a
        // retry only re-stamps its seed and attempt number.
        let mut request = ChatRequest::new(self.model, prompt, seed).with_trace(self.trace_id, 0);
        for attempt in 0..=self.max_retries {
            request.seed = seed ^ u64::from(attempt);
            request.attempt = attempt;
            if attempt > 0 {
                outcome.retries += 1;
            }
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
                    if let Ok(labels) = parse_answers(&resp.content, questions) {
                        outcome.answers.extend(labels.into_iter().map(Some));
                        return Ok(());
                    }
                }
                Err(LlmError::RateLimited) => {}
                Err(e) => return Err(e),
            }
        }
        outcome.answers.extend(std::iter::repeat_n(None, questions));
        Ok(())
    }
}

/// The two halves an over-window batch is resent as, in order; the quote
/// prices the same split.
pub(crate) fn halve<T>(questions: &[T]) -> (&[T], &[T]) {
    questions.split_at(questions.len() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::task_description;
    use crate::Bill;
    use datagen::{generate, DatasetKind};
    use llm::{InjectedFault, SimLlm};

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
        let api = SimLlm::with_failure_schedule([Some(InjectedFault::RateLimited); 2]);
        let exec = Executor::new(&api, ModelKind::Gpt4, 8);
        let questions: Vec<String> = pairs[..4].iter().map(|p| p.pair.serialize()).collect();
        let mut outcome = ExecutionOutcome::default();
        exec.run_batch(&desc, &[], &questions, 3, &mut outcome);
        assert_eq!(outcome.retries, 2);
        assert_eq!(outcome.answers.len(), 4);
        assert!(outcome.answers.iter().all(Option::is_some));
        // Only the third, answered call is billed: a rejection is free.
        assert_eq!(outcome.ledger.api_calls, 1);
    }

    #[test]
    fn malformed_output_exhausts_retries_to_none() {
        let (pairs, desc) = setup();
        let api = SimLlm::with_failure_schedule([Some(InjectedFault::Malformed); 3]);
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
        // The quote prices the same halves the executor sent.
        let bill = Bill::for_batch(ModelKind::Gpt35Turbo0301, &desc, &[], &questions);
        assert_eq!(bill.calls, outcome.ledger.api_calls);
        assert_eq!(bill.prompt_tokens, outcome.ledger.prompt_tokens);
        assert!(outcome.ledger.completion_tokens <= bill.completion_bound);
    }

    /// An endpoint whose transport always fails.
    struct Unreachable;

    impl ChatApi for Unreachable {
        fn complete(&self, _: &ChatRequest) -> Result<llm::ChatResponse, LlmError> {
            Err(LlmError::Transport("connection refused".into()))
        }
    }

    #[test]
    fn send_returns_transport_errors_without_answers() {
        let exec = Executor::new(&Unreachable, ModelKind::Gpt4, 3);
        let mut outcome = ExecutionOutcome::default();
        let sent = exec.send("Q1: a [SEP] b".to_owned(), 1, 3, &mut outcome);
        assert!(matches!(sent, Err(LlmError::Transport(_))));
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.ledger.api_calls, 0);
    }

    #[test]
    fn send_bills_the_priced_prompt() {
        let (pairs, desc) = setup();
        let api = SimLlm::new();
        let exec = Executor::new(&api, ModelKind::Gpt4, 2);
        let demos: Vec<&LabeledPair> = pairs[..4].iter().collect();
        let questions: Vec<String> = pairs[4..12].iter().map(|p| p.pair.serialize()).collect();
        let prompt = build_batch_prompt(&desc, &demos, &questions);
        let bill = Bill::for_prompt(ModelKind::Gpt4, &prompt, &questions);
        let mut outcome = ExecutionOutcome::default();
        exec.send(prompt, questions.len(), 5, &mut outcome).unwrap();
        assert_eq!(outcome.answers.len(), 8);
        assert_eq!(outcome.ledger.api_calls, 1);
        assert_eq!(outcome.ledger.prompt_tokens, bill.prompt_tokens);
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
