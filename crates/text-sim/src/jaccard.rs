//! Jaccard similarity over token sets (Eq. 4).

use std::cmp::Ordering;

use crate::normalize::push_normalized;

/// Jaccard similarity over normalized word-token sets (Eq. 4):
/// `JAC(a, b) = |A ∩ B| / |A ∪ B|`.
///
/// Two empty values are defined as identical (`1.0`); one empty and one
/// non-empty value score `0.0`.
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    // Two allocations in all: both values normalize into one buffer, and
    // one `Vec` holds both token lists as slices of it, each half sorted
    // and deduplicated in place.
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
    jaccard_merged(
        sorted_set(ta, |t| t.as_bytes())
            .iter()
            .map(|t| t.as_bytes()),
        sorted_set(tb, |t| t.as_bytes())
            .iter()
            .map(|t| t.as_bytes()),
    )
}

/// [`jaccard_tokens`] of two values that are already normalized (by
/// [`crate::normalize_into`]), with their tokens held as byte spans in
/// `spans`, a buffer the caller reuses: a sweep over many attribute pairs
/// that normalizes each value once for several kernels reads it once more
/// here and allocates nothing per pair. Normalization is idempotent, so
/// this equals `jaccard_tokens` of the same values, and of the raw values
/// they came from, to the bit.
pub fn jaccard_normalized(a: &str, b: &str, spans: &mut Vec<(usize, usize)>) -> f64 {
    spans.clear();
    push_token_spans(a, spans);
    let a_tokens = spans.len();
    push_token_spans(b, spans);
    let (sa, sb) = spans.split_at_mut(a_tokens);
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let text_a = |&(from, to): &(usize, usize)| &a[from..to];
    let text_b = |&(from, to): &(usize, usize)| &b[from..to];
    jaccard_merged(
        sorted_set(sa, text_a).iter().map(text_a),
        sorted_set(sb, text_b).iter().map(text_b),
    )
}

/// Appends the byte span of every whitespace-separated token of `s`. A
/// normalized string's only whitespace is the single ASCII space.
fn push_token_spans(s: &str, spans: &mut Vec<(usize, usize)>) {
    let base = s.as_ptr() as usize;
    spans.extend(s.split_ascii_whitespace().map(|t| {
        let from = t.as_ptr() as usize - base;
        (from, from + t.len())
    }));
}

/// [`jaccard_tokens`] over token sets already at hand: `a` and `b` yield
/// the tokens of normalized values in ascending order, each once. For
/// callers that split a value once and read its tokens several ways.
pub fn jaccard_sorted<'t>(
    a: impl IntoIterator<Item = &'t str>,
    b: impl IntoIterator<Item = &'t str>,
) -> f64 {
    jaccard_merged(a, b)
}

/// The merge behind [`jaccard_sorted`], over any ordered token type: the
/// span path hands it byte slices, which order UTF-8 as `str` does.
fn jaccard_merged<T: Ord>(a: impl IntoIterator<Item = T>, b: impl IntoIterator<Item = T>) -> f64 {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    let (mut a_len, mut b_len, mut inter) = (0, 0, 0);
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(s), Some(t)) => s.cmp(t),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        a_len += usize::from(a.next_if(|_| order.is_le()).is_some());
        b_len += usize::from(b.next_if(|_| order.is_ge()).is_some());
        inter += usize::from(order.is_eq());
    }
    jaccard_of_counts(a_len, b_len, inter)
}

/// Sorts `tokens` by their text and moves the distinct ones to the front;
/// returns that duplicate-free prefix. Texts compare as bytes, which
/// orders UTF-8 exactly as `str` orders it.
fn sorted_set<'t, T: Copy>(tokens: &mut [T], text: impl Fn(&T) -> &'t [u8]) -> &[T] {
    tokens.sort_unstable_by(|x, y| text(x).cmp(text(y)));
    let mut len = 0;
    for i in 0..tokens.len() {
        if len == 0 || text(&tokens[i]) != text(&tokens[len - 1]) {
            tokens[len] = tokens[i];
            len += 1;
        }
    }
    &tokens[..len]
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
    }

    #[test]
    fn disjoint_strings() {
        assert_eq!(jaccard_tokens("alpha beta", "gamma delta"), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // {red, apple} vs {red, pear}: inter 1, union 3.
        assert!((jaccard_tokens("red apple", "red pear") - 1.0 / 3.0).abs() < 1e-12);
        // A long superset is penalized: inter 2, union 6.
        assert!(jaccard_tokens("apple iphone 13 pro max 256gb", "iphone 13") < 0.5);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("a", ""), 0.0);
    }

    #[test]
    fn normalization_applies() {
        // "Dance,Music" tokenizes to {dance, music}.
        assert_eq!(jaccard_tokens("Dance,Music", "dance music"), 1.0);
    }

    #[test]
    fn sorted_sets_agree_with_strings() {
        let (a, b) = (["13", "iphone", "pro"], ["13", "iphone", "max", "pro", "z"]);
        assert_eq!(
            jaccard_sorted(a, b).to_bits(),
            jaccard_tokens("iphone 13 pro", "iphone pro max 13 z").to_bits()
        );
        assert_eq!(jaccard_sorted([], []), 1.0);
        assert_eq!(jaccard_sorted(["a"], []), 0.0);
    }
}
