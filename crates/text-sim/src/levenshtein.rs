//! Levenshtein edit distance and the paper's Levenshtein ratio (Eq. 5).
//!
//! The distance runs Myers' bit-parallel algorithm (one word op per text
//! character instead of a DP row) whenever the shorter string fits a
//! 64-bit word — which covers every attribute value the feature
//! extractors compare — and falls back to the classic two-row DP beyond
//! that. Both paths compute the exact same distance.

/// Levenshtein edit distance: the minimum number of single-character
/// insertions, deletions and substitutions transforming `a` into `b`,
/// operating on Unicode scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    // ASCII fast path: bytes are scalar values, no char collection.
    if a.is_ascii() && b.is_ascii() {
        let (short, long) = if a.len() <= b.len() {
            (a.as_bytes(), b.as_bytes())
        } else {
            (b.as_bytes(), a.as_bytes())
        };
        if short.is_empty() {
            return long.len();
        }
        if short.len() <= 64 {
            return myers_ascii(short, long);
        }
        return dp(short, long);
    }
    let a_chars: Vec<char> = a.chars().collect();
    let b_chars: Vec<char> = b.chars().collect();
    let (short, long) = if a_chars.len() <= b_chars.len() {
        (&a_chars[..], &b_chars[..])
    } else {
        (&b_chars[..], &a_chars[..])
    };
    if short.is_empty() {
        return long.len();
    }
    if short.len() <= 64 {
        return myers_chars(short, long);
    }
    dp(short, long)
}

/// Myers (1999) bit-parallel edit distance, ASCII pattern ≤ 64 bytes.
fn myers_ascii(pattern: &[u8], text: &[u8]) -> usize {
    let mut peq = [0u64; 256];
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    myers_core(pattern.len(), text.iter().map(|&c| peq[c as usize]))
}

/// Myers bit-parallel edit distance for Unicode patterns ≤ 64 chars
/// (per-char mask table in a small sorted vec).
fn myers_chars(pattern: &[char], text: &[char]) -> usize {
    let mut peq: Vec<(char, u64)> = Vec::with_capacity(pattern.len());
    for (i, &c) in pattern.iter().enumerate() {
        match peq.binary_search_by_key(&c, |&(k, _)| k) {
            Ok(pos) => peq[pos].1 |= 1u64 << i,
            Err(pos) => peq.insert(pos, (c, 1u64 << i)),
        }
    }
    myers_core(
        pattern.len(),
        text.iter().map(|&c| {
            peq.binary_search_by_key(&c, |&(k, _)| k)
                .map_or(0, |pos| peq[pos].1)
        }),
    )
}

/// The shared Myers recurrence over the text's pattern-match masks.
fn myers_core(m: usize, eq_masks: impl Iterator<Item = u64>) -> usize {
    debug_assert!((1..=64).contains(&m));
    let mut pv: u64 = if m == 64 { !0 } else { (1u64 << m) - 1 };
    let mut mv: u64 = 0;
    let mut score = m;
    let high = 1u64 << (m - 1);
    for eq in eq_masks {
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        } else if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Two-row dynamic program, O(|short|·|long|) time — the fallback for
/// strings longer than one machine word.
fn dp<T: PartialEq + Copy>(short: &[T], long: &[T]) -> usize {
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub_cost = if lc == sc { 0 } else { 1 };
            cur[j + 1] = (prev[j] + sub_cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// The paper's Levenshtein ratio (Eq. 5):
/// `LR(a, b) = 1 − LED(a, b) / s` where `s = |a| + |b|`.
///
/// Returns `1.0` for two empty strings (identical), and is guaranteed to
/// lie in `[0, 1]` because `LED ≤ max(|a|, |b|) ≤ s`.
pub fn levenshtein_ratio(a: &str, b: &str) -> f64 {
    let s = a.chars().count() + b.chars().count();
    if s == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / s as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            levenshtein("listen", "silent"),
            levenshtein("silent", "listen")
        );
    }

    #[test]
    fn unicode_scalars_not_bytes() {
        // One substitution between two 2-char strings of multibyte chars.
        assert_eq!(levenshtein("héllo", "hållo"), 1);
        assert_eq!(levenshtein("日本", "日木"), 1);
    }

    #[test]
    fn ratio_matches_eq5() {
        // listen/silent: LED = 4, s = 12 -> 1 - 4/12 = 2/3.
        assert_eq!(levenshtein("listen", "silent"), 4);
        assert!((levenshtein_ratio("listen", "silent") - (1.0 - 4.0 / 12.0)).abs() < 1e-12);
    }

    #[test]
    fn ratio_bounds() {
        assert_eq!(levenshtein_ratio("", ""), 1.0);
        assert_eq!(levenshtein_ratio("abc", "abc"), 1.0);
        let r = levenshtein_ratio("abc", "xyz");
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn example5_title_similarity() {
        // Example 5 of the paper: LR("Rashi", "Rashi") = 1.
        assert_eq!(levenshtein_ratio("Rashi", "Rashi"), 1.0);
    }

    /// Exhaustive cross-check: the bit-parallel path must equal the DP on
    /// a deterministic battery spanning lengths 0..70, shared prefixes,
    /// repeats, and disjoint alphabets.
    #[test]
    fn myers_matches_dp_battery() {
        let dp_reference = |a: &str, b: &str| -> usize {
            let a_chars: Vec<char> = a.chars().collect();
            let b_chars: Vec<char> = b.chars().collect();
            let (short, long) = if a_chars.len() <= b_chars.len() {
                (&a_chars[..], &b_chars[..])
            } else {
                (&b_chars[..], &a_chars[..])
            };
            if short.is_empty() {
                return long.len();
            }
            dp(short, long)
        };
        let mut rng = er_core::Rng::from_seed(0x2545_F491_4F6C_DD1D);
        let alphabet: Vec<char> = "abcdxyz日本éß".chars().collect();
        for case in 0..400 {
            let (la, lb) = (rng.range(0..70), rng.range(0..70));
            // Narrow alphabets force repeats and near-matches.
            let span = 2 + case % (alphabet.len() - 1);
            let a: String = (0..la).map(|_| alphabet[rng.range(0..span)]).collect();
            let b: String = (0..lb).map(|_| alphabet[rng.range(0..span)]).collect();
            assert_eq!(
                levenshtein(&a, &b),
                dp_reference(&a, &b),
                "divergence on {a:?} vs {b:?}"
            );
        }
        // Exactly 64 and 65 chars: the word-width boundary.
        let base = "a".repeat(64);
        let longer = format!("{base}b");
        assert_eq!(levenshtein(&base, &longer), 1);
        assert_eq!(levenshtein(&longer, &base), 1);
        assert_eq!(levenshtein(&base, &base), 0);
    }
}
