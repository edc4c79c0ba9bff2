//! Deterministic subword tokenizer.
//!
//! Approximates a BPE tokenizer's *counting behaviour* — the only property
//! the cost model needs — with a transparent rule set: text splits into
//! word / number / punctuation pieces, and long alphanumeric pieces break
//! into subword chunks of at most [`MAX_SUBWORD_CHARS`] characters. English
//! prose lands near the familiar "~4 characters per token" ratio while the
//! algorithm stays reproducible without a vocabulary file.

use text_sim::Fnv1a64;

/// Maximum characters per subword chunk.
pub const MAX_SUBWORD_CHARS: usize = 4;

/// Splits `text` into subword tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            word.push(ch);
            continue;
        }
        flush_word(&mut tokens, &mut word);
        if !ch.is_whitespace() {
            // Punctuation and symbols are single tokens, as in BPE vocabs.
            tokens.push(ch.to_string());
        }
    }
    flush_word(&mut tokens, &mut word);
    tokens
}

/// Number of tokens in `text`. Equivalent to `tokenize(text).len()` but
/// allocation-free; this is the hot path of cost accounting.
pub fn count_tokens(text: &str) -> u64 {
    let mut counter = TokenCounter::default();
    text.chars().for_each(|ch| counter.step(ch));
    counter.finish()
}

/// [`count_tokens`] of `prompt` and [`text_sim::fnv1a64`] of its bytes
/// under `seed`, from one read of the text: the simulator needs both of
/// every prompt (its token count and its call seed). The loop walks the
/// bytes, so the hash's multiply chain runs beside the count; an ASCII
/// byte is a character of its own, and any other character is decoded
/// where it starts and hashed whole.
pub fn count_tokens_and_hash(prompt: &str, seed: u64) -> (u64, u64) {
    let mut counter = TokenCounter::default();
    let mut hash = Fnv1a64::new(seed);
    let bytes = prompt.as_bytes();
    let mut at = 0;
    while let Some(&b) = bytes.get(at) {
        if b.is_ascii() {
            counter.step(char::from(b));
            hash.write(&[b]);
            at += 1;
            continue;
        }
        let ch = prompt[at..]
            .chars()
            .next()
            .expect("`at` is a char boundary");
        let end = at + ch.len_utf8();
        counter.step(ch);
        hash.write(&bytes[at..end]);
        at = end;
    }
    (counter.finish(), hash.finish())
}

/// The token rule, one character at a time: a run of alphanumerics is a
/// word of `chunks_of(len)` tokens, whitespace separates, and any other
/// character is a token of its own.
#[derive(Default)]
struct TokenCounter {
    count: u64,
    word_len: usize,
}

impl TokenCounter {
    #[inline]
    fn step(&mut self, ch: char) {
        if ch.is_alphanumeric() {
            self.word_len += 1;
            return;
        }
        self.count += chunks_of(self.word_len);
        self.word_len = 0;
        if !ch.is_whitespace() {
            self.count += 1;
        }
    }

    fn finish(self) -> u64 {
        self.count + chunks_of(self.word_len)
    }
}

fn chunks_of(len: usize) -> u64 {
    len.div_ceil(MAX_SUBWORD_CHARS) as u64
}

fn flush_word(tokens: &mut Vec<String>, word: &mut String) {
    if word.is_empty() {
        return;
    }
    let chars: Vec<char> = word.chars().collect();
    for chunk in chars.chunks(MAX_SUBWORD_CHARS) {
        tokens.push(chunk.iter().collect());
    }
    word.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert!(tokenize("").is_empty());
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn short_words_one_token() {
        assert_eq!(tokenize("the cat sat"), vec!["the", "cat", "sat"]);
    }

    #[test]
    fn long_words_split() {
        assert_eq!(tokenize("entity"), vec!["enti", "ty"]);
        assert_eq!(tokenize("resolution"), vec!["reso", "luti", "on"]);
    }

    #[test]
    fn punctuation_is_tokens() {
        assert_eq!(tokenize("a, b."), vec!["a", ",", "b", "."]);
    }

    #[test]
    fn count_matches_tokenize() {
        for text in [
            "",
            "hello world",
            "title: iphone-13, id: 0256 [SEP] title: iphone-14, id: ",
            "a(b)c{d}e 12345678 UPPER lower MiXeD",
            "unicode: héllo wörld 日本語テキスト",
        ] {
            assert_eq!(
                count_tokens(text),
                tokenize(text).len() as u64,
                "mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn prose_lands_near_four_chars_per_token() {
        let prose = "This is a deduplication task. Decide whether the two \
                     entity descriptions refer to the same real world entity.";
        let tokens = count_tokens(prose) as f64;
        let chars = prose.chars().count() as f64;
        let ratio = chars / tokens;
        assert!(
            (3.0..6.0).contains(&ratio),
            "chars/token ratio {ratio} outside plausible BPE range"
        );
    }

    #[test]
    fn whitespace_never_counts() {
        assert_eq!(count_tokens("   \t\n  "), 0);
        assert_eq!(count_tokens("a   b"), count_tokens("a b"));
    }
}
