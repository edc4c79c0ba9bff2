//! Jaccard similarity over token sets (Eq. 4) and related set measures.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::normalize::{normalize, push_normalized};

/// Jaccard similarity over normalized word-token sets (Eq. 4):
/// `JAC(a, b) = |A ∩ B| / |A ∪ B|`.
///
/// Two empty values are defined as identical (`1.0`); one empty and one
/// non-empty value score `0.0`.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    let (sa, sb, inter) = token_set_sizes(a, b);
    jaccard_of_counts(sa, sb, inter)
}

/// `(|A|, |B|, |A ∩ B|)` over the normalized word-token sets of `a` and
/// `b`, through two allocations in all: both values normalize into one
/// buffer, and one `Vec` holds both token lists as slices of it, each
/// half sorted and deduplicated in place and then merged.
fn token_set_sizes(a: &str, b: &str) -> (usize, usize, usize) {
    let mut norm = String::with_capacity(a.len() + b.len());
    push_normalized(a, &mut norm);
    let a_len = norm.len();
    push_normalized(b, &mut norm);
    let (na, nb) = norm.split_at(a_len);
    // A normalized string's only whitespace is the single ASCII space.
    let mut tokens: Vec<&str> = na.split_ascii_whitespace().collect();
    let a_tokens = tokens.len();
    tokens.extend(nb.split_ascii_whitespace());
    let (ta, tb) = tokens.split_at_mut(a_tokens);
    let (sa, sb) = (sorted_set(ta), sorted_set(tb));

    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(sb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (sa.len(), sb.len(), inter)
}

/// Sorts `tokens` and moves its distinct values to the front; returns
/// that duplicate-free prefix.
fn sorted_set<'t, 's>(tokens: &'t mut [&'s str]) -> &'t [&'s str] {
    tokens.sort_unstable();
    let mut len = 0;
    for i in 0..tokens.len() {
        if len == 0 || tokens[i] != tokens[len - 1] {
            tokens[len] = tokens[i];
            len += 1;
        }
    }
    &tokens[..len]
}

/// Jaccard similarity over the sets of characters of the normalized
/// strings. Useful for single-token values where word Jaccard is 0/1.
pub fn jaccard_chars(a: &str, b: &str) -> f64 {
    let sa: BTreeSet<char> = normalize(a).chars().collect();
    let sb: BTreeSet<char> = normalize(b).chars().collect();
    jaccard_of_counts(sa.len(), sb.len(), sa.intersection(&sb).count())
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over word-token sets.
///
/// Less sensitive than Jaccard to one value being a long superset of the
/// other (common with product titles carrying extra marketing tokens).
pub fn overlap_coefficient(a: &str, b: &str) -> f64 {
    let (sa, sb, inter) = token_set_sizes(a, b);
    if sa == 0 && sb == 0 {
        return 1.0;
    }
    let min = sa.min(sb);
    if min == 0 {
        return 0.0;
    }
    inter as f64 / min as f64
}

/// `inter / union` from the two set sizes and their intersection size;
/// two empty sets are identical.
fn jaccard_of_counts(a: usize, b: usize, inter: usize) -> f64 {
    let union = a + b - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_strings() {
        assert_eq!(jaccard_tokens("red apple", "red apple"), 1.0);
        assert_eq!(jaccard_chars("abc", "abc"), 1.0);
        assert_eq!(overlap_coefficient("red apple", "red apple"), 1.0);
    }

    #[test]
    fn disjoint_strings() {
        assert_eq!(jaccard_tokens("alpha beta", "gamma delta"), 0.0);
        assert_eq!(overlap_coefficient("alpha", "beta"), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // {red, apple} vs {red, pear}: inter 1, union 3.
        assert!((jaccard_tokens("red apple", "red pear") - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("a", ""), 0.0);
        assert_eq!(overlap_coefficient("", ""), 1.0);
        assert_eq!(overlap_coefficient("a", ""), 0.0);
    }

    #[test]
    fn normalization_applies() {
        // "Dance,Music" tokenizes to {dance, music}.
        assert_eq!(jaccard_tokens("Dance,Music", "dance music"), 1.0);
    }

    #[test]
    fn char_jaccard_on_anagrams() {
        // listen/silent share the same character set.
        assert_eq!(jaccard_chars("listen", "silent"), 1.0);
    }

    #[test]
    fn overlap_superset_scores_one() {
        assert_eq!(
            overlap_coefficient("apple iphone 13 pro max 256gb", "iphone 13"),
            1.0
        );
        assert!(jaccard_tokens("apple iphone 13 pro max 256gb", "iphone 13") < 0.5);
    }
}
