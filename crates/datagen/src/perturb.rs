//! The perturbation engine: controlled corruption of attribute values.
//!
//! Matching pairs in real ER benchmarks are the *same* entity described
//! twice with formatting drift — typos, abbreviations, dropped tokens,
//! missing fields. Each generated pair draws one [`CorruptionPattern`]
//! describing *how* its B-side drifts from its A-side; pairs sharing a
//! pattern have similar structure-aware feature vectors, which is what
//! makes question clustering (and covering-based selection) meaningful.

use er_core::Rng;

/// A typed way in which the B-side of a pair drifts from the A-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionPattern {
    /// Nearly verbatim copy; at most whitespace/case drift.
    Verbatim,
    /// Character-level typos in one or two values.
    Typos,
    /// Tokens dropped from long values (truncated titles).
    TokenDrop,
    /// Words abbreviated ("international" → "intl.", initials).
    Abbreviation,
    /// One attribute missing entirely on the B-side.
    MissingAttr,
    /// Extra marketing/noise tokens appended.
    ExtraTokens,
    /// Numeric formatting drift (prices, times, years).
    NumberFormat,
    /// Token order scrambled ("last, first" author flips).
    Reorder,
}

impl CorruptionPattern {
    /// All patterns, for exhaustive iteration in tests and configs.
    pub const ALL: [CorruptionPattern; 8] = [
        CorruptionPattern::Verbatim,
        CorruptionPattern::Typos,
        CorruptionPattern::TokenDrop,
        CorruptionPattern::Abbreviation,
        CorruptionPattern::MissingAttr,
        CorruptionPattern::ExtraTokens,
        CorruptionPattern::NumberFormat,
        CorruptionPattern::Reorder,
    ];
}

/// How aggressively a dataset corrupts its matching pairs. Higher values
/// produce harder benchmarks (lower matcher F1), calibrated per dataset in
/// [`crate::profiles`].
#[derive(Debug, Clone, Copy)]
pub struct Intensity {
    /// Number of corruption applications per affected value (1..=3).
    pub strength: u32,
    /// Probability that a second attribute is also corrupted.
    pub second_attr_prob: f64,
}

/// Applies `pattern` to the values of an entity, returning the drifted
/// copy. `key_attrs` marks attributes that must never be blanked (a title
/// can degrade but not vanish, or the pair would be unlabelable even for
/// a human).
pub fn apply_pattern(
    values: &[String],
    pattern: CorruptionPattern,
    intensity: Intensity,
    key_attrs: &[usize],
    rng: &mut Rng,
) -> Vec<String> {
    let mut out: Vec<String> = values.to_vec();
    if out.is_empty() {
        return out;
    }
    let primary = rng.range(0..out.len());
    let mut targets = vec![primary];
    if rng.f64() < intensity.second_attr_prob && out.len() > 1 {
        let mut second = rng.range(0..out.len());
        if second == primary {
            second = (second + 1) % out.len();
        }
        targets.push(second);
    }
    for &t in &targets {
        let corrupted = corrupt_value(&out[t], pattern, intensity.strength, rng);
        // Never blank a key attribute.
        if corrupted.trim().is_empty() && key_attrs.contains(&t) {
            continue;
        }
        out[t] = corrupted;
    }
    out
}

/// Applies one pattern to a single value.
pub fn corrupt_value(
    value: &str,
    pattern: CorruptionPattern,
    strength: u32,
    rng: &mut Rng,
) -> String {
    if value.is_empty() {
        return String::new();
    }
    match pattern {
        CorruptionPattern::Verbatim => value.to_owned(),
        CorruptionPattern::Typos => {
            let mut s = value.to_owned();
            for _ in 0..strength {
                s = typo(&s, rng);
            }
            s
        }
        CorruptionPattern::TokenDrop => drop_tokens(value, strength as usize, rng),
        CorruptionPattern::Abbreviation => abbreviate(value, rng),
        CorruptionPattern::MissingAttr => String::new(),
        CorruptionPattern::ExtraTokens => {
            const FILLER: &[&str] = &["new", "sealed", "oem", "2-pack", "official", "edition"];
            let mut s = value.to_owned();
            for _ in 0..strength.min(2) {
                s.push(' ');
                s.push_str(FILLER[rng.range(0..FILLER.len())]);
            }
            s
        }
        CorruptionPattern::NumberFormat => number_drift(value, rng),
        CorruptionPattern::Reorder => reorder(value, rng),
    }
}

/// One random character edit: swap, delete, duplicate or replace.
fn typo(s: &str, rng: &mut Rng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_owned();
    }
    let mut out = chars.clone();
    let i = rng.range(0..out.len() - 1);
    match rng.range(0..4) {
        0 => out.swap(i, i + 1),
        1 => {
            out.remove(i);
        }
        2 => out.insert(i, out[i]),
        _ => {
            let alphabet = "abcdefghijklmnopqrstuvwxyz";
            let replacement = alphabet
                .chars()
                .nth(rng.range(0..alphabet.len()))
                .expect("alphabet non-empty");
            out[i] = replacement;
        }
    }
    out.into_iter().collect()
}

/// Drops up to `n` tokens, always keeping at least one.
fn drop_tokens(s: &str, n: usize, rng: &mut Rng) -> String {
    let mut tokens: Vec<&str> = s.split_whitespace().collect();
    for _ in 0..n {
        if tokens.len() <= 1 {
            break;
        }
        let i = rng.range(0..tokens.len());
        tokens.remove(i);
    }
    tokens.join(" ")
}

/// Abbreviates one long token to its first letters.
fn abbreviate(s: &str, rng: &mut Rng) -> String {
    let tokens: Vec<&str> = s.split_whitespace().collect();
    if tokens.is_empty() {
        return s.to_owned();
    }
    let candidates: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.len() > 4)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return s.to_owned();
    }
    let target = candidates[rng.range(0..candidates.len())];
    let mut out: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
    let keep = rng.range(1..5).min(out[target].len());
    let prefix: String = out[target].chars().take(keep).collect();
    out[target] = format!("{prefix}.");
    out.join(" ")
}

/// Perturbs digits: reformat or round numbers ("12.99" -> "12.95",
/// "1999" -> "99").
fn number_drift(s: &str, rng: &mut Rng) -> String {
    let tokens: Vec<String> = s
        .split_whitespace()
        .map(|t| {
            if t.chars().any(|c| c.is_ascii_digit()) && rng.f64() < 0.8 {
                drift_numeric_token(t, rng)
            } else {
                t.to_owned()
            }
        })
        .collect();
    tokens.join(" ")
}

fn drift_numeric_token(t: &str, rng: &mut Rng) -> String {
    match rng.range(0..3) {
        // Drop a trailing digit/cent: "12.99" -> "12.9". A whole char,
        // since the token may end in a multi-byte one ("12€").
        0 if t.len() > 1 => {
            let mut s = t.to_owned();
            s.pop();
            s
        }
        // Duplicate format drift: prefix with "$" or strip it.
        1 => {
            if let Some(stripped) = t.strip_prefix('$') {
                stripped.to_owned()
            } else {
                format!("${t}")
            }
        }
        // Replace one digit.
        _ => {
            let mut chars: Vec<char> = t.chars().collect();
            let digit_positions: Vec<usize> = chars
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if let Some(&pos) = digit_positions.get(
                rng.range(0..digit_positions.len().max(1))
                    .min(digit_positions.len().saturating_sub(1)),
            ) {
                chars[pos] = char::from_digit(rng.range(0..10) as u32, 10).expect("digit");
            }
            chars.into_iter().collect()
        }
    }
}

/// Moves one token to the front (author-order style flip).
fn reorder(s: &str, rng: &mut Rng) -> String {
    let mut tokens: Vec<&str> = s.split_whitespace().collect();
    if tokens.len() < 2 {
        return s.to_owned();
    }
    let i = rng.range(1..tokens.len());
    let tok = tokens.remove(i);
    tokens.insert(0, tok);
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::from_seed(17)
    }

    const INTENSITY: Intensity = Intensity { strength: 1, second_attr_prob: 0.0 };

    #[test]
    fn verbatim_is_identity() {
        let mut r = rng();
        assert_eq!(
            corrupt_value("hello world", CorruptionPattern::Verbatim, 1, &mut r),
            "hello world"
        );
    }

    #[test]
    fn typo_changes_string_but_stays_close() {
        let mut r = rng();
        let out = corrupt_value(
            "samsung galaxy s21 ultra",
            CorruptionPattern::Typos,
            1,
            &mut r,
        );
        assert_ne!(out, "samsung galaxy s21 ultra");
        assert!(text_sim::levenshtein("samsung galaxy s21 ultra", &out) <= 2);
    }

    #[test]
    fn token_drop_keeps_at_least_one() {
        let mut r = rng();
        let out = corrupt_value("one", CorruptionPattern::TokenDrop, 5, &mut r);
        assert_eq!(out, "one");
        let out2 = corrupt_value("a b c d", CorruptionPattern::TokenDrop, 2, &mut r);
        assert!(out2.split_whitespace().count() >= 1);
        assert!(out2.split_whitespace().count() < 4);
    }

    #[test]
    fn abbreviation_shortens_a_long_token() {
        let mut r = rng();
        let out = corrupt_value(
            "international business machines",
            CorruptionPattern::Abbreviation,
            1,
            &mut r,
        );
        assert!(out.contains('.'), "no abbreviation mark in {out:?}");
        assert!(out.len() < "international business machines".len());
    }

    #[test]
    fn missing_blanks_value() {
        let mut r = rng();
        assert_eq!(
            corrupt_value("anything", CorruptionPattern::MissingAttr, 1, &mut r),
            ""
        );
    }

    #[test]
    fn missing_respects_key_attrs() {
        let mut r = rng();
        let values = vec!["important title".to_owned()];
        // Only one attribute, and it is a key attribute: pattern must not
        // blank it.
        let out = apply_pattern(
            &values,
            CorruptionPattern::MissingAttr,
            INTENSITY,
            &[0],
            &mut r,
        );
        assert_eq!(out[0], "important title");
    }

    #[test]
    fn extra_tokens_appends() {
        let mut r = rng();
        let out = corrupt_value("canon eos r5", CorruptionPattern::ExtraTokens, 1, &mut r);
        assert!(out.starts_with("canon eos r5"));
        assert!(out.len() > "canon eos r5".len());
    }

    #[test]
    fn number_format_touches_digits_only_tokens() {
        let mut r = rng();
        let out = corrupt_value("price 12.99", CorruptionPattern::NumberFormat, 1, &mut r);
        assert!(out.starts_with("price"));
    }

    #[test]
    fn number_format_drops_a_whole_trailing_char() {
        for (token, dropped) in [("12€", "12"), ("5½", "5")] {
            let fired = (0..64).any(|seed| {
                let mut r = Rng::from_seed(seed);
                corrupt_value(token, CorruptionPattern::NumberFormat, 1, &mut r) == dropped
            });
            assert!(fired, "no seed dropped the last char of {token:?}");
        }
    }

    #[test]
    fn reorder_preserves_token_multiset() {
        let mut r = rng();
        let input = "alpha beta gamma delta";
        let out = corrupt_value(input, CorruptionPattern::Reorder, 1, &mut r);
        let mut a: Vec<&str> = input.split_whitespace().collect();
        let mut b: Vec<&str> = out.split_whitespace().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_value_stays_empty() {
        let mut r = rng();
        for p in CorruptionPattern::ALL {
            assert_eq!(corrupt_value("", p, 2, &mut r), "");
        }
    }

    #[test]
    fn apply_pattern_changes_at_most_two_attrs() {
        let mut r = rng();
        let values: Vec<String> = (0..5).map(|i| format!("value number {i} here")).collect();
        let out = apply_pattern(
            &values,
            CorruptionPattern::Typos,
            Intensity { strength: 1, second_attr_prob: 1.0 },
            &[],
            &mut r,
        );
        let changed = values.iter().zip(&out).filter(|(a, b)| a != b).count();
        assert!(changed <= 2, "changed {changed} attributes");
        assert!(changed >= 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = Rng::from_seed(5);
        let mut r2 = Rng::from_seed(5);
        let a = corrupt_value("deterministic output", CorruptionPattern::Typos, 2, &mut r1);
        let b = corrupt_value("deterministic output", CorruptionPattern::Typos, 2, &mut r2);
        assert_eq!(a, b);
    }
}
