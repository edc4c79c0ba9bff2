//! Response rendering (simulator side) and answer extraction (client side).

use std::fmt::Write;

use er_core::MatchLabel;

use crate::engine::Decision;
use crate::parse;

/// Renders decisions into a natural-language-ish completion:
///
/// ```text
/// Q1: yes — the `id` values agree.
/// Q2: no — the `title` values differ.
/// ```
///
/// The rationale phrasing varies with confidence so responses look like
/// generated text rather than a fixed template, and — like a real model —
/// the *client* must parse labels back out of prose.
pub fn render_answers(decisions: &[Decision]) -> String {
    let mut out = String::new();
    for (i, d) in decisions.iter().enumerate() {
        let verdict = if d.answer { "yes" } else { "no" };
        let attr = d.decisive_attr.as_deref().unwrap_or("description");
        let rationale = match (d.answer, d.confidence > 0.8) {
            (true, true) => "agree exactly",
            (true, false) => "are close enough to refer to one entity",
            (false, true) => "clearly differ",
            (false, false) => "do not line up",
        };
        let n = i + 1;
        let _ = writeln!(out, "Q{n}: {verdict} — the `{attr}` values {rationale}.");
    }
    out
}

/// Failure to extract per-question answers from a completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerParseError {
    /// Fewer answers than questions were found.
    Missing {
        /// Answers expected (questions asked).
        expected: usize,
        /// Answers found.
        found: usize,
    },
    /// The completion was empty.
    Empty,
}

impl std::fmt::Display for AnswerParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerParseError::Missing { expected, found } => {
                write!(f, "expected {expected} answers, found {found}")
            }
            AnswerParseError::Empty => write!(f, "completion was empty"),
        }
    }
}

impl std::error::Error for AnswerParseError {}

/// Extracts `expected` yes/no answers from a completion.
///
/// Primary format: lines containing `Q<i>: <verdict>`. Fallback: any lines
/// starting with a verdict word, taken in order. This mirrors how the
/// paper's harness (and any production client) must defensively parse LLM
/// output.
pub fn parse_answers(content: &str, expected: usize) -> Result<Vec<MatchLabel>, AnswerParseError> {
    if content.trim().is_empty() {
        return Err(AnswerParseError::Empty);
    }
    let mut indexed: Vec<(usize, MatchLabel)> = Vec::new();
    let mut ordered: Vec<MatchLabel> = Vec::new();
    for line in content.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some((idx, rest)) = split_q_tag(trimmed) {
            if let Some(label) = leading_verdict(rest) {
                indexed.push((idx, label));
                continue;
            }
        }
        if let Some(label) = leading_verdict(trimmed) {
            ordered.push(label);
        }
    }
    // Prefer explicitly indexed answers; fill gaps from ordered ones.
    let mut out: Vec<Option<MatchLabel>> = vec![None; expected];
    for (idx, label) in indexed {
        if idx >= 1 && idx <= expected && out[idx - 1].is_none() {
            out[idx - 1] = Some(label);
        }
    }
    let mut ordered_iter = ordered.into_iter();
    for slot in out.iter_mut() {
        if slot.is_none() {
            *slot = ordered_iter.next();
        }
    }
    let found = out.iter().filter(|s| s.is_some()).count();
    if found < expected {
        return Err(AnswerParseError::Missing { expected, found });
    }
    Ok(out.into_iter().map(Option::unwrap).collect())
}

/// Splits a leading `Q<number>:` tag, returning the 1-based index and the
/// remainder.
fn split_q_tag(line: &str) -> Option<(usize, &str)> {
    let rest = line.strip_prefix(['Q', 'q'])?;
    let digits_end = rest.find(|c: char| !c.is_ascii_digit())?;
    if digits_end == 0 {
        return None;
    }
    let idx: usize = rest[..digits_end].parse().ok()?;
    let after = rest[digits_end..]
        .trim_start_matches([':', '.', ')'])
        .trim_start();
    Some((idx, after))
}

/// Reads a verdict from the start of free text.
fn leading_verdict(text: &str) -> Option<MatchLabel> {
    parse::leading_verdict(text, &["yes", "match", "same"], &["no", "different"])
        .map(MatchLabel::from_bool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Decision;

    fn d(answer: bool, confidence: f64) -> Decision {
        Decision { answer, confidence, decisive_attr: Some("title".into()), copied: false }
    }

    #[test]
    fn render_then_parse_roundtrips() {
        let decisions = vec![d(true, 0.95), d(false, 0.6), d(true, 0.55), d(false, 0.99)];
        let text = render_answers(&decisions);
        let labels = parse_answers(&text, 4).unwrap();
        let expect: Vec<MatchLabel> = decisions
            .iter()
            .map(|x| MatchLabel::from_bool(x.answer))
            .collect();
        assert_eq!(labels, expect);
    }

    #[test]
    fn parses_unindexed_verdict_lines() {
        let labels = parse_answers("yes\nno, they differ\nYes definitely", 3).unwrap();
        assert_eq!(
            labels,
            vec![
                MatchLabel::Matching,
                MatchLabel::NonMatching,
                MatchLabel::Matching
            ]
        );
    }

    #[test]
    fn mixed_indexed_and_ordered() {
        // Q2 indexed, the other two answers given as bare lines in order.
        let text = "Q2: no — mismatch.\nyes\nyes";
        let labels = parse_answers(text, 3).unwrap();
        assert_eq!(labels[1], MatchLabel::NonMatching);
        assert_eq!(labels[0], MatchLabel::Matching);
        assert_eq!(labels[2], MatchLabel::Matching);
    }

    #[test]
    fn missing_answers_is_error() {
        let err = parse_answers("Q1: yes.", 3).unwrap_err();
        assert_eq!(err, AnswerParseError::Missing { expected: 3, found: 1 });
    }

    #[test]
    fn empty_is_error() {
        assert_eq!(
            parse_answers("   \n ", 1).unwrap_err(),
            AnswerParseError::Empty
        );
    }

    #[test]
    fn out_of_range_indices_ignored() {
        let text = "Q9: yes.\nno";
        let labels = parse_answers(text, 1).unwrap();
        assert_eq!(labels, vec![MatchLabel::NonMatching]);
    }

    #[test]
    fn q_tag_variants() {
        assert_eq!(split_q_tag("Q3: yes"), Some((3, "yes")));
        assert_eq!(split_q_tag("q12. no"), Some((12, "no")));
        assert_eq!(split_q_tag("Q) nope"), None);
        assert_eq!(split_q_tag("hello"), None);
    }

    #[test]
    fn rationale_mentions_attribute() {
        let text = render_answers(&[d(false, 0.9)]);
        assert!(text.contains("`title`"));
        assert!(text.starts_with("Q1: no"));
    }
}
