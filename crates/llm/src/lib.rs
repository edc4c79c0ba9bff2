//! Simulated large language models for entity resolution.
//!
//! The BatchER paper evaluates against proprietary LLM APIs (GPT-3.5-turbo
//! 0301/0613, GPT-4-1106, Llama2-chat-70B). Those are unavailable offline,
//! so this crate provides a **behavioural simulator** that exercises exactly
//! the interfaces a real deployment would:
//!
//! 1. The caller renders a *textual* prompt (task description +
//!    demonstrations + questions) and submits it through the [`ChatApi`]
//!    trait.
//! 2. The simulator re-parses the prompt text ([`parse`]), never seeing any
//!    structured data or gold labels.
//! 3. A noisy decision engine ([`engine`]) answers each question using the
//!    entity text plus whatever demonstrations the prompt contains; model
//!    capability is controlled by a per-model [`profile::CapabilityProfile`].
//! 4. The response is rendered back to natural-language-ish text
//!    ([`respond`]) that the client must parse, with failure injection
//!    available for resilience testing.
//! 5. Token counting ([`tokenizer`]) and per-token pricing ([`pricing`])
//!    feed the paper's monetary cost accounting.
//!
//! Behavioural phenomena reproduced (see DESIGN.md §1): relevant
//! demonstrations raise accuracy; near-duplicate batches induce answer
//! copying (similarity batching hurts, §VI-C); diverse batches sharpen
//! calibration (batch prompting beats standard prompting on precision,
//! Fig. 6); single-question prompts carry extra per-call variance
//! (Table III's large std); Llama2 cannot answer multi-question prompts
//! (§VI-F).

pub mod chat;
pub mod client;
pub mod engine;
pub mod parse;
pub mod pricing;
pub mod profile;
pub mod respond;
pub mod tokenizer;

pub use chat::{ChatRequest, ChatResponse, FinishReason, LlmError, Usage};
pub use client::{ChatApi, InjectedFault, SimLlm};
pub use pricing::PriceTable;
pub use profile::{CapabilityProfile, ModelKind};
pub use respond::parse_answers;
pub use tokenizer::{count_tokens, count_tokens_and_hash, tokenize};
