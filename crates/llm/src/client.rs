//! The [`ChatApi`] trait and the in-process simulated client.

use std::sync::{Mutex, MutexGuard, PoisonError};

use er_core::TokenCount;
use rand::Rng;

use crate::chat::{ChatRequest, ChatResponse, FinishReason, LlmError, Usage};
use crate::engine::{call_rng, decide};
use crate::parse::parse_prompt;
use crate::pricing::PriceTable;
use crate::respond::render_answers;
use crate::tokenizer::count_tokens;

/// A chat-completion endpoint.
///
/// Implemented by [`SimLlm`] (in-process simulator) and by
/// `llm_service::HttpChatClient` (HTTP loopback); a production OpenAI
/// client would implement it too. `Send + Sync` so executors can fan out
/// calls across threads.
pub trait ChatApi: Send + Sync {
    /// Performs one chat completion.
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError>;

    /// The endpoint's child spans for a propagated trace id, as a JSON
    /// array, for assembling a cross-service span tree. `None` when the
    /// endpoint keeps no trace log (the in-process simulator) or cannot
    /// be reached; remote clients fetch the callee's `GET /trace?id=`.
    fn trace_children(&self, _trace_id: u64) -> Option<String> {
        None
    }
}

/// Fault-injection knobs for resilience testing. All rates are
/// probabilities in `[0, 1]`, evaluated deterministically per request from
/// the request seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimLlmConfig {
    /// Probability of returning garbled, unparseable output.
    pub malformed_rate: f64,
    /// Probability of cutting the completion in half with
    /// [`FinishReason::Length`].
    pub truncation_rate: f64,
    /// Probability of a [`LlmError::RateLimited`] rejection.
    pub rate_limit_rate: f64,
}

/// One fault injected by a deterministic failure schedule
/// ([`SimLlm::with_failure_schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Reject the request with [`LlmError::RateLimited`].
    RateLimited,
    /// Return garbled output the answer parser cannot read.
    Malformed,
    /// Cut the completion in half with [`FinishReason::Length`].
    Truncated,
}

/// Aggregate statistics of a [`SimLlm`] endpoint (observability surface
/// for tests and harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimLlmStats {
    /// Successful completions served.
    pub completions: u64,
    /// Requests rejected with rate limiting.
    pub rate_limited: u64,
    /// Requests rejected for context overflow.
    pub context_overflows: u64,
    /// Total prompt tokens processed.
    pub prompt_tokens: u64,
    /// Total completion tokens generated.
    pub completion_tokens: u64,
}

/// The simulated LLM endpoint.
///
/// Stateless per call (all randomness derives from the request seed and
/// prompt text), so a single instance can serve concurrent callers.
#[derive(Debug, Default)]
pub struct SimLlm {
    config: SimLlmConfig,
    stats: Mutex<SimLlmStats>,
    /// Deterministic per-call fault queue; `None` entries are healthy
    /// calls, an exhausted queue serves healthily forever.
    schedule: Mutex<std::collections::VecDeque<Option<InjectedFault>>>,
}

impl SimLlm {
    /// An endpoint with no fault injection.
    pub fn new() -> Self {
        Self::default()
    }

    /// An endpoint with the given fault-injection configuration.
    pub fn with_config(config: SimLlmConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// An endpoint that fails on an explicit per-call schedule: the i-th
    /// `complete` call consumes `schedule[i]` (`Some(fault)` injects that
    /// fault, `None` serves healthily); calls beyond the schedule are
    /// healthy. Unlike the probabilistic [`SimLlm::with_config`] rates —
    /// whose per-call verdicts depend on the prompt text and therefore
    /// shift whenever planning changes batch composition — a schedule
    /// pins exactly which calls fail, whatever the plan looks like.
    pub fn with_failure_schedule<I>(schedule: I) -> Self
    where
        I: IntoIterator<Item = Option<InjectedFault>>,
    {
        Self { schedule: Mutex::new(schedule.into_iter().collect()), ..Self::default() }
    }

    /// Snapshot of the endpoint statistics.
    pub fn stats(&self) -> SimLlmStats {
        *lock(&self.stats)
    }
}

/// Locks ignoring poisoning: the guarded values are counters and a fault
/// queue, valid after every single update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ChatApi for SimLlm {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let profile = request.model.profile();
        let prompt_tokens = count_tokens(&request.prompt);

        if prompt_tokens > profile.max_context_tokens {
            lock(&self.stats).context_overflows += 1;
            return Err(LlmError::ContextLengthExceeded {
                prompt_tokens,
                limit: profile.max_context_tokens,
            });
        }

        let injected = lock(&self.schedule).pop_front().flatten();
        let mut rng = call_rng(request.seed, &request.prompt);
        if injected == Some(InjectedFault::RateLimited)
            || rng.gen::<f64>() < self.config.rate_limit_rate
        {
            lock(&self.stats).rate_limited += 1;
            return Err(LlmError::RateLimited);
        }

        let parsed = parse_prompt(&request.prompt);

        // Llama2 fails to produce usable output for multi-question prompts
        // (§VI-F); emulated as an empty completion the client cannot parse.
        let mut content = if !profile.batch_capable && parsed.questions.len() > 1 {
            String::new()
        } else if parsed.questions.is_empty() {
            "I could not find any questions to answer in the prompt.".to_owned()
        } else {
            // Temperature scales noise relative to the paper's 0.01 setting.
            let noise_scale = (request.temperature / 0.01).clamp(0.0, 100.0);
            let decisions = decide(&parsed, &profile, noise_scale, &mut rng);
            render_answers(&decisions)
        };

        let mut finish_reason = FinishReason::Stop;
        if injected == Some(InjectedFault::Truncated)
            || rng.gen::<f64>() < self.config.truncation_rate
        {
            // Cut at the nearest char boundary at or below the midpoint.
            let mut cut = content.len() / 2;
            while cut > 0 && !content.is_char_boundary(cut) {
                cut -= 1;
            }
            content.truncate(cut);
            finish_reason = FinishReason::Length;
        }
        if injected == Some(InjectedFault::Malformed)
            || rng.gen::<f64>() < self.config.malformed_rate
        {
            // Garble: strip the line structure the client's parser needs.
            content = content.replace(['Q', 'q'], "#").replace(':', ";");
        }

        let completion_tokens = count_tokens(&content);
        let usage = Usage {
            prompt_tokens: TokenCount(prompt_tokens),
            completion_tokens: TokenCount(completion_tokens),
        };
        let cost =
            PriceTable::for_model(request.model).cost(usage.prompt_tokens, usage.completion_tokens);

        let mut stats = lock(&self.stats);
        stats.completions += 1;
        stats.prompt_tokens += prompt_tokens;
        stats.completion_tokens += completion_tokens;
        drop(stats);

        Ok(ChatResponse { content, finish_reason, usage, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelKind;
    use crate::respond::parse_answers;
    use er_core::{MatchLabel, Money};

    fn simple_prompt() -> String {
        "Decide whether the entities match.\n\
         D1: title: acme widget, id: 1 [SEP] title: acme widget, id: 1 => yes\n\
         D2: title: acme widget, id: 1 [SEP] title: zeta gadget, id: 9 => no\n\
         Q1: title: blue phone, id: 5 [SEP] title: blue phone, id: 5\n\
         Q2: title: blue phone, id: 5 [SEP] title: green rake, id: 8\n\
         Answer each question with yes or no."
            .to_owned()
    }

    #[test]
    fn answers_are_parseable_and_sensible() {
        let llm = SimLlm::new();
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), 3))
            .unwrap();
        let labels = parse_answers(&resp.content, 2).unwrap();
        assert_eq!(labels[0], MatchLabel::Matching);
        assert_eq!(labels[1], MatchLabel::NonMatching);
        assert_eq!(resp.finish_reason, FinishReason::Stop);
        assert!(resp.usage.prompt_tokens.get() > 20);
        assert!(resp.cost > Money::ZERO);
    }

    #[test]
    fn identical_requests_identical_responses() {
        let llm = SimLlm::new();
        let req = ChatRequest::new(ModelKind::Gpt35Turbo0301, simple_prompt(), 42);
        let a = llm.complete(&req).unwrap();
        let b = llm.complete(&req).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn context_overflow_rejected() {
        let llm = SimLlm::new();
        let huge = format!("Q1: title: {} [SEP] title: x", "word ".repeat(10_000));
        let err = llm
            .complete(&ChatRequest::new(ModelKind::Gpt35Turbo0301, huge, 1))
            .unwrap_err();
        assert!(matches!(err, LlmError::ContextLengthExceeded { .. }));
        assert_eq!(llm.stats().context_overflows, 1);
    }

    #[test]
    fn llama_fails_on_batches_but_answers_singles() {
        let llm = SimLlm::new();
        let batch = llm
            .complete(&ChatRequest::new(
                ModelKind::Llama2Chat70b,
                simple_prompt(),
                1,
            ))
            .unwrap();
        assert!(parse_answers(&batch.content, 2).is_err());

        let single = "Q1: title: same thing, id: 1 [SEP] title: same thing, id: 1";
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Llama2Chat70b, single, 1))
            .unwrap();
        assert!(parse_answers(&resp.content, 1).is_ok());
    }

    #[test]
    fn rate_limit_injection() {
        let llm = SimLlm::with_config(SimLlmConfig { rate_limit_rate: 1.0, ..Default::default() });
        let err = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), 1))
            .unwrap_err();
        assert_eq!(err, LlmError::RateLimited);
        assert_eq!(llm.stats().rate_limited, 1);
        assert_eq!(llm.stats().completions, 0);
    }

    #[test]
    fn malformed_injection_breaks_parsing() {
        let llm = SimLlm::with_config(SimLlmConfig { malformed_rate: 1.0, ..Default::default() });
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), 1))
            .unwrap();
        assert!(parse_answers(&resp.content, 2).is_err());
    }

    #[test]
    fn truncation_injection_sets_finish_reason() {
        let llm = SimLlm::with_config(SimLlmConfig { truncation_rate: 1.0, ..Default::default() });
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), 1))
            .unwrap();
        assert_eq!(resp.finish_reason, FinishReason::Length);
    }

    #[test]
    fn failure_schedule_is_positional_and_exhausts() {
        let llm = SimLlm::with_failure_schedule([
            Some(InjectedFault::RateLimited),
            None,
            Some(InjectedFault::Malformed),
            Some(InjectedFault::Truncated),
        ]);
        let req = |seed| ChatRequest::new(ModelKind::Gpt4, simple_prompt(), seed);
        // Call 1: rate limited, whatever the prompt/seed.
        assert_eq!(llm.complete(&req(1)).unwrap_err(), LlmError::RateLimited);
        // Call 2: healthy.
        let ok = llm.complete(&req(2)).unwrap();
        assert!(parse_answers(&ok.content, 2).is_ok());
        // Call 3: malformed output.
        let bad = llm.complete(&req(3)).unwrap();
        assert!(parse_answers(&bad.content, 2).is_err());
        // Call 4: truncated.
        assert_eq!(
            llm.complete(&req(4)).unwrap().finish_reason,
            FinishReason::Length
        );
        // Schedule exhausted: healthy forever after.
        for seed in 5..8 {
            let resp = llm.complete(&req(seed)).unwrap();
            assert_eq!(resp.finish_reason, FinishReason::Stop);
            assert!(parse_answers(&resp.content, 2).is_ok());
        }
        assert_eq!(llm.stats().rate_limited, 1);
    }

    #[test]
    fn stats_accumulate() {
        let llm = SimLlm::new();
        for seed in 0..3 {
            llm.complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), seed))
                .unwrap();
        }
        let s = llm.stats();
        assert_eq!(s.completions, 3);
        assert!(s.prompt_tokens > 0);
        assert!(s.completion_tokens > 0);
    }

    #[test]
    fn gpt4_costs_more_than_gpt35_for_same_prompt() {
        let llm = SimLlm::new();
        let p = simple_prompt();
        let c4 = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, p.clone(), 1))
            .unwrap()
            .cost;
        let c35 = llm
            .complete(&ChatRequest::new(ModelKind::Gpt35Turbo0301, p, 1))
            .unwrap()
            .cost;
        assert!(c4.micros() >= 10 * c35.micros() / 2, "c4 {c4} vs c35 {c35}");
    }
}
