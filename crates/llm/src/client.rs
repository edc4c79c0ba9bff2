//! The [`ChatApi`] trait and the in-process simulated client.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use er_core::TokenCount;

use crate::chat::{ChatRequest, ChatResponse, FinishReason, LlmError, Usage};
use crate::engine::{call_rng, decide, ReadingMemo};
use crate::parse::scan_prompt;
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

/// The simulated LLM endpoint.
///
/// Apart from an injected fault, an answer is a pure function of the
/// request (seed, prompt text, model and temperature), so a single
/// instance can serve concurrent callers. The endpoint keeps two pieces
/// of state: [`SimLlm::with_failure_schedule`]'s positional fault queue,
/// the only way faults are injected, and a bounded memo of the pairs it
/// has read (`engine::ReadingMemo`), which saves reading a pair twice and
/// changes no answer. Usage is the caller's to count (every response
/// carries its tokens and cost).
#[derive(Debug, Default)]
pub struct SimLlm {
    /// Deterministic per-call fault queue; `None` entries are healthy
    /// calls, an exhausted queue serves healthily forever.
    schedule: Mutex<VecDeque<Option<InjectedFault>>>,
    /// Readings of the pair texts already answered or shown.
    readings: ReadingMemo,
}

impl SimLlm {
    /// An endpoint with no fault injection.
    pub fn new() -> Self {
        Self::default()
    }

    /// An endpoint that fails on an explicit per-call schedule: the i-th
    /// `complete` call consumes `schedule[i]` (`Some(fault)` injects that
    /// fault, `None` serves healthily), a call refused for its context
    /// length included; calls beyond the schedule are healthy. A schedule
    /// pins exactly which calls fail, whatever the plan looks like.
    pub fn with_failure_schedule<I>(schedule: I) -> Self
    where
        I: IntoIterator<Item = Option<InjectedFault>>,
    {
        Self { schedule: Mutex::new(schedule.into_iter().collect()), ..Self::default() }
    }
}

impl ChatApi for SimLlm {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        // The queue is valid after every pop, so a poisoned lock is safe.
        let injected = self
            .schedule
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
            .flatten();
        let profile = request.model.profile();
        let prompt_tokens = count_tokens(&request.prompt);
        if prompt_tokens > profile.max_context_tokens {
            return Err(LlmError::ContextLengthExceeded {
                prompt_tokens,
                limit: profile.max_context_tokens,
            });
        }
        if injected == Some(InjectedFault::RateLimited) {
            return Err(LlmError::RateLimited);
        }

        let mut rng = call_rng(request.seed, &request.prompt);
        // A retired rate-limit check drew once here, before `decide`; the
        // draw stays so every answer pinned in `tests/sim_golden.rs` holds.
        let _retired_draw = rng.next_u64();

        let parsed = scan_prompt(&request.prompt);

        // Llama2 fails to produce usable output for multi-question prompts
        // (§VI-F); emulated as an empty completion the client cannot parse.
        let mut content = if !profile.batch_capable && parsed.questions.len() > 1 {
            String::new()
        } else if parsed.questions.is_empty() {
            "I could not find any questions to answer in the prompt.".to_owned()
        } else {
            // Temperature scales noise relative to the paper's 0.01 setting.
            let noise_scale = (request.temperature / 0.01).clamp(0.0, 100.0);
            let decisions = decide(&parsed, &profile, noise_scale, &mut rng, &self.readings);
            render_answers(&decisions)
        };

        let mut finish_reason = FinishReason::Stop;
        if injected == Some(InjectedFault::Truncated) {
            // Cut at the nearest char boundary at or below the midpoint.
            let mut cut = content.len() / 2;
            while cut > 0 && !content.is_char_boundary(cut) {
                cut -= 1;
            }
            content.truncate(cut);
            finish_reason = FinishReason::Length;
        }
        if injected == Some(InjectedFault::Malformed) {
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

    /// A prompt past GPT-3.5's context window.
    fn oversized_prompt() -> String {
        format!("Q1: title: {} [SEP] title: x", "word ".repeat(10_000))
    }

    #[test]
    fn context_overflow_rejected() {
        let llm = SimLlm::new();
        let err = llm
            .complete(&ChatRequest::new(
                ModelKind::Gpt35Turbo0301,
                oversized_prompt(),
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, LlmError::ContextLengthExceeded { .. }));
    }

    #[test]
    fn refused_call_consumes_its_fault_slot() {
        let llm = SimLlm::with_failure_schedule([Some(InjectedFault::RateLimited)]);
        let err = llm
            .complete(&ChatRequest::new(
                ModelKind::Gpt35Turbo0301,
                oversized_prompt(),
                1,
            ))
            .unwrap_err();
        assert!(matches!(err, LlmError::ContextLengthExceeded { .. }));
        // The rate limit was the refused call's slot; the next call is healthy.
        let resp = llm
            .complete(&ChatRequest::new(ModelKind::Gpt4, simple_prompt(), 1))
            .unwrap();
        assert!(parse_answers(&resp.content, 2).is_ok());
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
