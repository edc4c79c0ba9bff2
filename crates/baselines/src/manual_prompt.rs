//! The ManualPrompt baseline (Narayan et al., VLDB 2023).
//!
//! Standard prompting — one question per API call — with *hand-designed*
//! demonstrations. The original work relies on a domain expert picking
//! prototypical matching/non-matching pairs and writing the prompt; we
//! emulate expert curation by selecting the most prototypical examples
//! from the labeled pool: the highest-similarity match and the
//! hardest-looking (most similar) non-match, which is what the published
//! prompts qualitatively contain.

use batcher_core::features::structure_rows;
use batcher_core::{ExecutionOutcome, Executor};
use er_core::{BinaryConfusion, CostLedger, LabeledPair, MatchLabel};
use llm::{ChatApi, LlmError, ModelKind};

/// Configuration of the ManualPrompt baseline.
#[derive(Debug, Clone, Copy)]
pub struct ManualPrompt {
    /// Underlying model.
    pub model: ModelKind,
    /// Demonstrations per prompt (the paper's published prompts carry a
    /// handful; default 6 = 3 matches + 3 non-matches).
    pub demos: usize,
    /// Retries on rate limits and unparseable output before counting the
    /// question as a non-match (the conservative default a practitioner
    /// falls back to); [`Executor::send`] owns the loop.
    pub max_retries: u32,
}

impl Default for ManualPrompt {
    fn default() -> Self {
        Self { model: ModelKind::Gpt35Turbo0301, demos: 6, max_retries: 2 }
    }
}

/// Outcome of a ManualPrompt run.
#[derive(Debug, Clone)]
pub struct ManualPromptOutcome {
    /// Test confusion counts.
    pub confusion: BinaryConfusion,
    /// API cost ledger (no labeling cost: the expert writes demos from
    /// domain knowledge, which the paper does not bill).
    pub ledger: CostLedger,
    /// Questions whose answers stayed unparseable after retries.
    pub unparsed: usize,
}

impl ManualPrompt {
    /// Runs the baseline: selects expert demos from `pool`, then asks one
    /// question per call for every pair in `questions`.
    pub fn run(
        &self,
        api: &dyn ChatApi,
        pool: &[&LabeledPair],
        questions: &[&LabeledPair],
        seed: u64,
    ) -> Result<ManualPromptOutcome, LlmError> {
        let demos = expert_demos(pool, self.demos);
        let demo_block = render_demos(&demos);

        let executor = Executor::new(api, self.model, self.max_retries);
        let mut outcome = ExecutionOutcome::default();
        let mut confusion = BinaryConfusion::new();

        for (qi, q) in questions.iter().enumerate() {
            let prompt = format!(
                "This is an entity resolution task: decide whether the two entity \
                 descriptions refer to the same real-world entity.\n\n{demo_block}\n\
                 Q1: {}\n\nAnswer with yes or no.",
                q.pair.serialize()
            );
            executor.send(prompt, 1, seed ^ ((qi as u64) << 8), &mut outcome)?;
            let predicted = outcome.answers[qi].unwrap_or(MatchLabel::NonMatching);
            confusion.observe(q.label, predicted);
        }
        let unparsed = outcome.answers.iter().filter(|a| a.is_none()).count();
        Ok(ManualPromptOutcome { confusion, ledger: outcome.ledger, unparsed })
    }
}

/// Picks `k` expert-style demonstrations: alternating prototypical matches
/// (highest aggregate similarity) and hard non-matches (most similar
/// negatives).
fn expert_demos<'p>(pool: &[&'p LabeledPair], k: usize) -> Vec<&'p LabeledPair> {
    let mut matches: Vec<(&LabeledPair, f64)> = Vec::new();
    let mut non_matches: Vec<(&LabeledPair, f64)> = Vec::new();
    let rows = structure_rows(pool.iter().map(|p| &p.pair));
    for (p, row) in pool.iter().zip(rows) {
        let agg = row[row.len() - 1];
        if p.label.is_match() {
            matches.push((p, agg));
        } else {
            non_matches.push((p, agg));
        }
    }
    // Prototypical matches: clear agreements. Hard negatives: the most
    // confusable non-matches — exactly what a domain expert shows a model.
    matches.sort_by(|a, b| b.1.total_cmp(&a.1));
    non_matches.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = Vec::with_capacity(k);
    let (mut mi, mut ni) = (0usize, 0usize);
    for i in 0..k {
        if i % 2 == 0 && mi < matches.len() {
            out.push(matches[mi].0);
            mi += 1;
        } else if ni < non_matches.len() {
            out.push(non_matches[ni].0);
            ni += 1;
        } else if mi < matches.len() {
            out.push(matches[mi].0);
            mi += 1;
        }
    }
    out
}

fn render_demos(demos: &[&LabeledPair]) -> String {
    let mut out = String::from("Demonstrations:\n");
    for (i, d) in demos.iter().enumerate() {
        let verdict = if d.label.is_match() { "yes" } else { "no" };
        out.push_str(&format!(
            "D{}: {} => {verdict}\n",
            i + 1,
            d.pair.serialize()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use llm::SimLlm;

    #[test]
    fn runs_end_to_end_with_sane_accuracy() {
        let d = generate(DatasetKind::FodorsZagats, 4);
        let split = d.split_3_1_1(1).unwrap();
        let baseline = ManualPrompt::default();
        let api = SimLlm::new();
        let outcome = baseline
            .run(
                &api,
                &split.train,
                &split.test[..120.min(split.test.len())],
                7,
            )
            .unwrap();
        assert_eq!(
            outcome.confusion.total() as usize,
            120.min(split.test.len())
        );
        assert!(
            outcome.confusion.f1() > 0.5,
            "ManualPrompt F1 implausibly low: {}",
            outcome.confusion.f1()
        );
        // One API call per question (no retries needed on clean runs).
        assert!(outcome.ledger.api_calls >= 120.min(split.test.len()) as u64);
        assert!(outcome.ledger.labeling == er_core::Money::ZERO);
    }

    #[test]
    fn expert_demos_are_balanced() {
        let d = generate(DatasetKind::Beer, 4);
        let pool: Vec<&LabeledPair> = d.pairs().iter().collect();
        let demos = expert_demos(&pool, 6);
        assert_eq!(demos.len(), 6);
        let matches = demos.iter().filter(|d| d.label.is_match()).count();
        assert_eq!(matches, 3);
    }

    #[test]
    fn expert_demos_handle_tiny_pools() {
        let d = generate(DatasetKind::Beer, 4);
        let only_matches: Vec<&LabeledPair> = d
            .pairs()
            .iter()
            .filter(|p| p.label.is_match())
            .take(2)
            .collect();
        let demos = expert_demos(&only_matches, 6);
        assert_eq!(demos.len(), 2);
    }

    #[test]
    fn unparseable_outputs_counted_and_defaulted() {
        let d = generate(DatasetKind::Beer, 4);
        let split = d.split_3_1_1(1).unwrap();
        // Llama2 answers single questions, so force malformed output
        // instead: 5 questions × 2 attempts.
        let api = llm::SimLlm::with_failure_schedule([Some(llm::InjectedFault::Malformed); 10]);
        let baseline = ManualPrompt { max_retries: 1, ..Default::default() };
        let outcome = baseline
            .run(&api, &split.train, &split.test[..5], 3)
            .unwrap();
        assert_eq!(outcome.unparsed, 5);
        assert_eq!(outcome.confusion.total(), 5);
    }
}
