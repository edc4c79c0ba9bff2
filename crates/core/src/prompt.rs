//! Prompt construction (Fig. 1 layout) for standard and batch prompting.
//!
//! The emitted line shapes (`D<i>: ... => yes/no`, `Q<i>: ...`) are the
//! contract the LLM simulator's fuzzy parser recognizes — and are close to
//! the published BatchER prompt templates the real GPT endpoints consumed.

use std::fmt::Write;

use er_core::LabeledPair;

/// The task description heading every prompt (the `Desc` term of Eq. 2).
pub fn task_description(domain: &str) -> String {
    format!(
        "This is an entity resolution task in the {domain} domain: decide \
         whether the two entity descriptions separated by [SEP] refer to \
         the same real-world entity."
    )
}

/// Builds a (batch) prompt from a task description, labeled
/// demonstrations and serialized questions.
///
/// With a single question this is exactly standard prompting (Fig. 1a);
/// with `b` questions it is batch prompting (Fig. 1b). Every line is
/// written straight into the prompt, with no string of its own.
pub fn build_batch_prompt(
    description: &str,
    demos: &[&LabeledPair],
    questions: &[String],
) -> String {
    let mut out = String::with_capacity(256 + demos.len() * 128 + questions.len() * 128);
    out.push_str(description);
    out.push_str("\n\n");
    if !demos.is_empty() {
        out.push_str("Demonstrations:\n");
        for (i, d) in demos.iter().enumerate() {
            let verdict = if d.label.is_match() { "yes" } else { "no" };
            let _ = write!(out, "D{}: ", i + 1);
            d.pair.write_serialized(&mut out);
            let _ = writeln!(out, " => {verdict}");
        }
        out.push('\n');
    }
    out.push_str("Questions:\n");
    for (i, q) in questions.iter().enumerate() {
        let _ = writeln!(out, "Q{}: {q}", i + 1);
    }
    out.push('\n');
    if questions.len() == 1 {
        out.push_str("Answer in the form \"Q1: yes\" or \"Q1: no\".");
    } else {
        let _ = write!(
            out,
            "For each of the {} questions, answer on its own line in the \
             form \"Qi: yes\" or \"Qi: no\".",
            questions.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use llm::parse::parse_prompt;

    #[test]
    fn prompt_roundtrips_through_llm_parser() {
        let d = generate(DatasetKind::Beer, 1);
        let demos: Vec<&LabeledPair> = d.pairs().iter().take(3).collect();
        let questions: Vec<String> = d.pairs()[3..7].iter().map(|p| p.pair.serialize()).collect();
        let prompt = build_batch_prompt(&task_description("Beer"), &demos, &questions);
        let parsed = parse_prompt(&prompt);
        assert_eq!(parsed.demos.len(), 3);
        assert_eq!(parsed.questions.len(), 4);
        for (demo, parsed_demo) in demos.iter().zip(&parsed.demos) {
            assert_eq!(demo.label.is_match(), parsed_demo.label);
        }
        assert!(parsed.task_description.contains("entity resolution"));
    }

    /// The rendering before lines were written in place: one `format!`
    /// string per line and one `serialize()` string per demonstration.
    fn reference_prompt(description: &str, demos: &[&LabeledPair], questions: &[String]) -> String {
        let mut out = String::new();
        out.push_str(description);
        out.push_str("\n\n");
        if !demos.is_empty() {
            out.push_str("Demonstrations:\n");
            for (i, d) in demos.iter().enumerate() {
                let verdict = if d.label.is_match() { "yes" } else { "no" };
                out.push_str(&format!(
                    "D{}: {} => {verdict}\n",
                    i + 1,
                    d.pair.serialize()
                ));
            }
            out.push('\n');
        }
        out.push_str("Questions:\n");
        for (i, q) in questions.iter().enumerate() {
            out.push_str(&format!("Q{}: {q}\n", i + 1));
        }
        out.push('\n');
        if questions.len() == 1 {
            out.push_str("Answer in the form \"Q1: yes\" or \"Q1: no\".");
        } else {
            out.push_str(&format!(
                "For each of the {} questions, answer on its own line in the \
                 form \"Qi: yes\" or \"Qi: no\".",
                questions.len()
            ));
        }
        out
    }

    #[test]
    fn prompt_bytes_match_reference_rendering_on_every_dataset() {
        for kind in DatasetKind::ALL {
            let d = generate(kind, 3);
            let desc = task_description(kind.short_name());
            let pairs = d.pairs();
            for (n_demos, n_questions) in [(0, 1), (8, 1), (0, 8), (8, 8), (12, 20)] {
                let demos: Vec<&LabeledPair> = pairs.iter().take(n_demos).collect();
                let questions: Vec<String> = pairs[n_demos..n_demos + n_questions]
                    .iter()
                    .map(|p| p.pair.serialize())
                    .collect();
                assert_eq!(
                    build_batch_prompt(&desc, &demos, &questions),
                    reference_prompt(&desc, &demos, &questions),
                    "{} with {n_demos} demos, {n_questions} questions",
                    kind.short_name()
                );
            }
        }
    }

    #[test]
    fn single_question_is_standard_prompting() {
        let d = generate(DatasetKind::Beer, 1);
        let questions = vec![d.pairs()[0].pair.serialize()];
        let prompt = build_batch_prompt(&task_description("Beer"), &[], &questions);
        assert!(prompt.contains("Q1:"));
        assert!(!prompt.contains("Q2:"));
        assert!(prompt.contains("\"Q1: yes\""));
    }

    #[test]
    fn batch_instruction_mentions_count() {
        let d = generate(DatasetKind::Beer, 1);
        let questions: Vec<String> = d.pairs()[..8].iter().map(|p| p.pair.serialize()).collect();
        let prompt = build_batch_prompt(&task_description("Beer"), &[], &questions);
        assert!(prompt.contains("8 questions"));
    }

    #[test]
    fn no_demos_section_when_empty() {
        let prompt = build_batch_prompt("desc", &[], &["a [SEP] b".to_owned()]);
        assert!(!prompt.contains("Demonstrations:"));
    }

    #[test]
    fn batch_prompt_is_cheaper_per_question_than_standard() {
        // The core economics of the paper (Example 3): per-question tokens
        // shrink as the batch amortizes description + demonstrations.
        let d = generate(DatasetKind::WalmartAmazon, 1);
        let demos: Vec<&LabeledPair> = d.pairs().iter().take(8).collect();
        let desc = task_description("Electronics");

        let batch_qs: Vec<String> = d.pairs()[8..16]
            .iter()
            .map(|p| p.pair.serialize())
            .collect();
        let batch_prompt = build_batch_prompt(&desc, &demos, &batch_qs);
        let batch_tokens = llm::count_tokens(&batch_prompt) as f64 / 8.0;

        let single_prompt = build_batch_prompt(&desc, &demos, &batch_qs[..1]);
        let single_tokens = llm::count_tokens(&single_prompt) as f64;

        let saving = single_tokens / batch_tokens;
        assert!(
            saving > 3.0,
            "batch amortization too weak: {saving:.2}x (single {single_tokens}, batch/q {batch_tokens})"
        );
    }
}
