//! One bill per batch, priced before anything is spent (§I budgets a
//! workload before the first call). The serving governor reserves a
//! batch's [`Bill::worst_case`]; [`Bill::quote`] sums the bills of every
//! batch an offline run will send, exact but for completion tokens.

use std::ops::AddAssign;

use er_core::{Dataset, LabeledPair, Money, ThreeWaySplit, TokenCount, LABEL_COST_PER_PAIR};
use llm::{count_tokens, ModelKind, PriceTable};

use crate::executor::halve;
use crate::prompt::{build_batch_prompt, task_description};
use crate::runner::{plan_run, walk_batches, RunConfig};

/// Completion-token allowance per question, on top of the question's own
/// token count (the simulator's rationale lines quote question content,
/// so an answer is bounded by the question plus this overhead).
const COMPLETION_ALLOWANCE: u64 = 24;

/// What one or more batch calls to `model` cost, before they are sent.
/// Bills under one model sum into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bill {
    /// The model every call goes to.
    pub model: ModelKind,
    /// Calls sent, one attempt each.
    pub calls: u64,
    /// Prompt tokens sent: exact.
    pub prompt_tokens: TokenCount,
    /// Upper bound on the completion tokens received.
    pub completion_bound: TokenCount,
    /// Demonstrations a person labels for these calls.
    pub new_labels: u64,
}

impl Bill {
    /// Nothing sent, nothing labelled.
    fn zero(model: ModelKind) -> Self {
        Self {
            model,
            calls: 0,
            prompt_tokens: TokenCount::ZERO,
            completion_bound: TokenCount::ZERO,
            new_labels: 0,
        }
    }

    /// One call sending the rendered batch `prompt` that asks `questions`:
    /// the prompt's tokens, and a completion bound of the questions' own
    /// tokens plus `COMPLETION_ALLOWANCE` (24) each.
    pub fn for_prompt(model: ModelKind, prompt: &str, questions: &[String]) -> Self {
        let question_tokens: u64 = questions.iter().map(|q| count_tokens(q)).sum();
        Self {
            calls: 1,
            prompt_tokens: TokenCount(count_tokens(prompt)),
            completion_bound: TokenCount(
                question_tokens + COMPLETION_ALLOWANCE * questions.len() as u64,
            ),
            ..Self::zero(model)
        }
    }

    /// Quotes a run of `config` over `dataset` without calling any model:
    /// the 3:1:1 split and plan [`crate::run`] makes, every batch rendered
    /// as the executor sends it. Calls, prompt tokens and labelling are
    /// exact while the model answers each call parseably; completion
    /// tokens are a bound.
    pub fn quote(dataset: &Dataset, config: &RunConfig) -> Self {
        let ThreeWaySplit { train, test, .. } = dataset
            .split_3_1_1(config.seed)
            .expect("datasets are non-empty by construction");
        let plan = plan_run(&train, &test, config);
        let description = task_description(dataset.domain());
        let mut bill = Self::zero(config.model);
        walk_batches(&plan, &train, &test, config.seed, |demos, batch, _| {
            bill += Self::for_batch(config.model, &description, demos, batch);
        });
        bill.new_labels = plan.labeled.len() as u64;
        bill
    }

    /// What the executor sends for one planned batch: the prompt if it
    /// fits the window, else the executor's two halves priced the same
    /// way, and nothing for a lone question the model refuses (a refusal
    /// is not billed).
    pub(crate) fn for_batch(
        model: ModelKind,
        description: &str,
        demos: &[&LabeledPair],
        questions: &[String],
    ) -> Self {
        let prompt = build_batch_prompt(description, demos, questions);
        let bill = Self::for_prompt(model, &prompt, questions);
        if bill.fits_context() {
            bill
        } else if questions.len() > 1 {
            let (left, right) = halve(questions);
            let mut halves = Self::for_batch(model, description, demos, left);
            halves += Self::for_batch(model, description, demos, right);
            halves
        } else {
            Self::zero(model)
        }
    }

    /// API cost if every completion reaches its bound.
    pub fn api_bound(&self) -> Money {
        PriceTable::for_model(self.model).cost(self.prompt_tokens, self.completion_bound)
    }

    /// Labelling cost at the AMT rate.
    pub fn labeling(&self) -> Money {
        LABEL_COST_PER_PAIR * self.new_labels
    }

    /// What to reserve when every call may be sent `attempts` times: the
    /// API bound per attempt plus the labelling, paid once.
    pub fn worst_case(&self, attempts: u64) -> Money {
        self.api_bound() * attempts + self.labeling()
    }

    /// Whether a one-call bill's prompt fits the model's context window
    /// (the comparison the model makes before refusing a prompt).
    pub fn fits_context(&self) -> bool {
        self.prompt_tokens.get() <= self.model.profile().max_context_tokens
    }
}

impl AddAssign for Bill {
    fn add_assign(&mut self, rhs: Bill) {
        assert_eq!(self.model, rhs.model, "bills under two models do not sum");
        self.calls += rhs.calls;
        self.prompt_tokens += rhs.prompt_tokens;
        self.completion_bound += rhs.completion_bound;
        self.new_labels += rhs.new_labels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_pins_hand_computed_micros() {
        // 900 prompt tokens, 8 questions of 40: completion bound
        // 8 × (40 + 24) = 512. GPT-3.5-0301 at 1 µ$ in and 2 µ$ out:
        // (900 + 2 × 512) × 3 attempts + 2 labels × 8,000 = 21,772 µ$.
        let questions = vec!["w ".repeat(40); 8];
        let bill = Bill {
            new_labels: 2,
            ..Bill::for_prompt(ModelKind::Gpt35Turbo0301, &"w ".repeat(900), &questions)
        };
        assert_eq!(bill.completion_bound, TokenCount(512));
        assert_eq!(bill.worst_case(3), Money::from_micros(21_772));
    }
}
