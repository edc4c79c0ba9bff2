//! Property-based tests: metric axioms for the similarity kernels.

use std::collections::BTreeSet;

use proptest::prelude::*;
use text_sim::{
    jaccard_normalized, jaccard_tokens, levenshtein, levenshtein_ratio, normalize, normalize_into,
    word_tokens,
};

/// Eq. 4 over owned token sets — the definition `jaccard_tokens`'
/// sorted-slice merge replaced, kept as its reference.
fn jaccard_tokens_reference(a: &str, b: &str) -> f64 {
    let sa: BTreeSet<String> = word_tokens(a).into_iter().collect();
    let sb: BTreeSet<String> = word_tokens(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    inter as f64 / (sa.len() + sb.len() - inter) as f64
}

#[test]
fn jaccard_merge_equals_owned_sets_on_picked_values() {
    let values = [
        "",
        "...",
        "red apple",
        "red red apple red",
        "Apple, RED; apple!",
        "pear apple red",
        "zeta alpha zeta beta alpha",
        "  Ünïcode™  Ça va? ça VA ",
        "g f e d c b a a a",
        "iPhone-13 (128GB) iphone 13",
    ];
    for a in values {
        for b in values {
            assert_eq!(
                jaccard_tokens(a, b).to_bits(),
                jaccard_tokens_reference(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    }
}

/// Strings over all of Unicode: every scalar value is possible — other
/// whitespace, punctuation outside ASCII, letters whose ASCII-only
/// lowercasing leaves them alone, combining marks — between separators
/// and a four-letter alphabet drawn often enough that tokens repeat within
/// and across the two values.
fn arb_unicode() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .map(|code| match code % 8 {
                0 => char::from_u32(code / 8 % 0x11_0000).unwrap_or('\u{2028}'),
                1..=3 => {
                    [' ', ',', '\u{a0}', '\u{3000}', '\t', '¿', '—', '.'][(code / 8 % 8) as usize]
                }
                _ => ['a', 'B', 'é', '中'][(code / 8 % 4) as usize],
            })
            .collect()
    })
}

fn arb_str() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ,.\\-]{0,24}"
}

proptest! {
    /// Levenshtein is a metric: identity, symmetry, triangle inequality.
    #[test]
    fn levenshtein_is_a_metric(a in arb_str(), b in arb_str(), c in arb_str()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Distance is bounded by the longer string's length.
    #[test]
    fn levenshtein_bounded(a in arb_str(), b in arb_str()) {
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    /// Both similarity kernels stay in [0, 1] and are symmetric.
    #[test]
    fn similarities_bounded_and_symmetric(a in arb_str(), b in arb_str()) {
        type Kernel = fn(&str, &str) -> f64;
        let kernels: [(&str, Kernel); 2] = [("lr", levenshtein_ratio), ("jac", jaccard_tokens)];
        for (name, k) in kernels {
            let ab = k(&a, &b);
            let ba = k(&b, &a);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&ab), "{} out of range: {}", name, ab);
            prop_assert!((ab - ba).abs() < 1e-9, "{} asymmetric: {} vs {}", name, ab, ba);
        }
    }

    /// Both kernels score a string against itself as 1.
    #[test]
    fn self_similarity_is_one(a in arb_str()) {
        prop_assert!((levenshtein_ratio(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((jaccard_tokens(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// Normalization is idempotent and never yields doubled spaces.
    #[test]
    fn normalize_idempotent(a in "\\PC{0,40}") {
        let once = normalize(&a);
        prop_assert_eq!(normalize(&once), once.clone());
        prop_assert!(!once.contains("  "));
        prop_assert!(!once.starts_with(' ') && !once.ends_with(' '));
    }

    /// `normalize_into` is `normalize`, whatever the buffer held before.
    #[test]
    fn normalize_into_overwrites(a in "\\PC{0,40}", dirt in "\\PC{0,40}") {
        let mut buf = dirt;
        normalize_into(&a, &mut buf);
        prop_assert_eq!(buf, normalize(&a));
    }

    /// The merge form of Eq. 4 equals the owned-set form bit for bit —
    /// a tiny alphabet, so tokens repeat within and across the values,
    /// with case and punctuation left un-normalized.
    #[test]
    fn jaccard_merge_equals_owned_sets(a in "[abAB ,.é]{0,16}", b in "[abAB ,.é]{0,16}") {
        prop_assert_eq!(
            jaccard_tokens(&a, &b).to_bits(),
            jaccard_tokens_reference(&a, &b).to_bits()
        );
    }

    /// Tokenization output contains no empties and is normalization-stable.
    #[test]
    fn tokens_clean(a in "\\PC{0,40}") {
        let toks = word_tokens(&a);
        for t in &toks {
            prop_assert!(!t.is_empty());
            prop_assert!(!t.contains(' '));
        }
        prop_assert_eq!(word_tokens(&toks.join(" ")), toks);
    }

    /// Over arbitrary Unicode, normalizing twice is normalizing once, so
    /// scoring normalized values through a reused span buffer (the
    /// feature extractor's path) equals `jaccard_tokens` of those values
    /// (its path before, which normalized them again) to the bit, and
    /// both are Eq. 4 of the raw values — whatever the buffer held before.
    #[test]
    fn jaccard_of_normalized_values_matches(a in arb_unicode(), b in arb_unicode()) {
        let (na, nb) = (normalize(&a), normalize(&b));
        prop_assert_eq!(normalize(&na), na.clone());
        prop_assert_eq!(normalize(&nb), nb.clone());
        let mut spans = vec![(7, 3); 5];
        let feature = jaccard_normalized(&na, &nb, &mut spans);
        prop_assert_eq!(feature.to_bits(), jaccard_tokens(&na, &nb).to_bits());
        prop_assert_eq!(feature.to_bits(), jaccard_tokens_reference(&a, &b).to_bits());
    }
}
